// Block-row sharded sparse interval matrices: the out-of-core store.
//
// A ShardedSparseIntervalMatrix splits the row range into fixed-size
// shards, each an independent CSR segment with its own packed 32-bit
// column-index sidecar (and a SELL pack when the row statistics pick that
// backend). Every kernel of the monolithic SparseIntervalMatrix exists
// here with identical semantics, executed shard-parallel on the shared
// ThreadPool:
//
//  - Forward kernels (Multiply / MultiplyMid / MultiplyDense /
//    IntervalMultiplyDense) write disjoint row ranges, one task per
//    shard; each output entry is computed by the same per-row loop as the
//    monolithic kernel, so forward results are bit-identical to the
//    monolithic matrix under the same resolved backend.
//  - Reduction kernels (MultiplyTranspose / MultiplyTransposeMid /
//    GramMultiply / IntervalMultiplyDenseTranspose) give each shard group
//    a private cols-sized accumulator — the Gram apply is literally the
//    block sum A†ᵀA† = Σ_s M_sᵀ M_s — and reduce the partials
//    column-parallel in fixed group order, the same deterministic scheme
//    the monolithic kernels use (equal to the serial result up to roundoff, bit-stable
//    across calls on a fixed machine).
//
// Backing (BackingPolicy): shards own heap buffers (kMemory), or mmap
// segment files written through shard_store.h (kMmap) — the out-of-core
// path, where a Lanczos decomposition streams shard files through the page
// cache and (with a budget set) drops each shard's residency after every
// pass, keeping peak RSS near one working set instead of the whole store.
// kAuto picks per matrix by comparing the estimated store bytes against a
// budget. A third, zero-copy mode (View) shards an existing in-memory
// SparseIntervalMatrix by reference for serving snapshots — no data is
// copied, only the row partition and the dispatch change.
//
// The ShardedGramOperator / ShardedEndpointMap adapters at the bottom
// plug the sharded kernels into the unchanged Lanczos drivers: the sparse
// ISVD strategies run out-of-core through exactly the solver code the
// in-memory path uses. Note the Gram side is always MᵀM here (cols²
// scratch): the alternative MMᵀ side would materialize a transposed
// store, which is exactly what out-of-core operation cannot afford.

#ifndef IVMF_SPARSE_BLOCK_MATRIX_H_
#define IVMF_SPARSE_BLOCK_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interval/interval_matrix.h"
#include "linalg/linear_operator.h"
#include "sparse/shard_store.h"
#include "sparse/sell_matrix.h"
#include "sparse/sparse_gram_operator.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {

class ShardedSparseIntervalMatrix {
 public:
  using Endpoint = SparseIntervalMatrix::Endpoint;

  // An empty 0 x 0 matrix with no shards.
  ShardedSparseIntervalMatrix() = default;
  ~ShardedSparseIntervalMatrix();

  // Movable, not copyable (shards may hold mmap handles / a temp store).
  ShardedSparseIntervalMatrix(ShardedSparseIntervalMatrix&&) noexcept;
  ShardedSparseIntervalMatrix& operator=(
      ShardedSparseIntervalMatrix&&) noexcept;
  ShardedSparseIntervalMatrix(const ShardedSparseIntervalMatrix&) = delete;
  ShardedSparseIntervalMatrix& operator=(const ShardedSparseIntervalMatrix&) =
      delete;

  // Builds from triplets (same semantics as the monolithic FromTriplets,
  // including DuplicatePolicy), then segments into ceil(rows / shard_rows)
  // shards under `policy`.
  static ShardedSparseIntervalMatrix FromTriplets(
      size_t rows, size_t cols, std::vector<IntervalTriplet> triplets,
      size_t shard_rows, BackingPolicy policy = BackingPolicy::Memory(),
      DuplicatePolicy duplicates = DuplicatePolicy::kMergeHull);

  // Segments an existing CSR matrix. The source is only read.
  static ShardedSparseIntervalMatrix FromCsr(
      const SparseIntervalMatrix& m, size_t shard_rows,
      BackingPolicy policy = BackingPolicy::Memory());

  // Zero-copy row partition over an in-memory matrix: shards reference the
  // base's CSR arrays and packed sidecar directly. This is what serving
  // snapshots freeze — the partition and shard-parallel dispatch without
  // duplicating the store. The base is held alive by the shared_ptr.
  static ShardedSparseIntervalMatrix View(
      std::shared_ptr<const SparseIntervalMatrix> base, size_t shard_rows);

  // Re-opens a persisted mmap store directory (shard_0.ivsh, shard_1.ivsh,
  // ...) written by a previous process — the crash-consistency /
  // reopen path. All shards but the last must share one row count.
  // Returns false and sets *error if the directory holds no valid store.
  static bool OpenStore(const std::string& dir,
                        ShardedSparseIntervalMatrix* out, std::string* error);

  // Row-streaming construction: appends entries in ascending (row, col)
  // order and flushes one shard at a time, so building an N-shard mmap
  // store holds at most one shard's arrays in memory — the out-of-core
  // ingest path. BackingPolicy::kAuto resolves to kMmap here (the builder
  // cannot know the final size up front). Defined after the class.
  class Builder;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return nnz_; }
  size_t shard_rows() const { return shard_rows_; }
  size_t num_shards() const { return shards_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // True when shards are mmap segment files rather than heap buffers.
  bool mmap_backed() const { return mmap_backed_; }
  // The segment directory ("" for memory/view backing). Temp directories
  // (empty BackingPolicy::store_dir) are removed by the destructor;
  // explicit directories persist for OpenStore.
  const std::string& store_dir() const { return store_dir_; }

  // The concrete backend the shard kernels dispatch on (resolved at
  // construction from the request / environment / row statistics; never
  // kAuto). SELL applies to memory-backed shards only — mapped and
  // view-backed shards run the packed-CSR variant.
  spk::Backend resolved_kernel() const { return resolved_; }

  // Entry lookup by shard + binary search within the row.
  Interval At(size_t i, size_t j) const;

  // Materializes a monolithic CSR copy (tests, small matrices).
  SparseIntervalMatrix ToCsr() const;

  bool IsProper() const;
  bool IsNonNegative(double tol = 0.0) const;

  // -- Kernels (monolithic semantics, shard-parallel execution) --------------
  // Aliasing contract as in SparseIntervalMatrix: outputs must not alias
  // inputs or each other.

  // y = A_e x (y resized to rows()); one pool task per shard.
  void Multiply(Endpoint e, const std::vector<double>& x,
                std::vector<double>& y) const;

  // y = ((A_* + A^*) / 2) x.
  void MultiplyMid(const std::vector<double>& x, std::vector<double>& y) const;

  // y = A_eᵀ x via per-group scatter partials + fixed-order reduction.
  void MultiplyTranspose(Endpoint e, const std::vector<double>& x,
                         std::vector<double>& y) const;

  // y = ((A_* + A^*) / 2)ᵀ x — the midpoint transpose (a sharded store has
  // no materialized transpose to run forward).
  void MultiplyTransposeMid(const std::vector<double>& x,
                            std::vector<double>& y) const;

  // y = A_eᵀ (A_e x) = Σ_s M_sᵀ (M_s x): fused one-pass Gram per shard
  // into group partials, reduced in fixed order. Never materializes a
  // transpose — this is the operator under the out-of-core ISVD2-4.
  void GramMultiply(Endpoint e, const std::vector<double>& x,
                    std::vector<double>& y) const;

  // C = A_e B for dense B (cols() x k), row-parallel over shards.
  Matrix MultiplyDense(Endpoint e, const Matrix& b) const;

  // C† = A† B, elementwise min/max of the fused endpoint products.
  IntervalMatrix IntervalMultiplyDense(const Matrix& b) const;

  // C† = A†ᵀ B for dense B (rows() x k): the transposed interval product
  // via per-group scatter partials — again with no materialized transpose,
  // like the monolithic method of the same name.
  IntervalMatrix IntervalMultiplyDenseTranspose(const Matrix& b) const;

  // The dense Gram / Algorithm-1 interval Gram endpoints, accumulated
  // shard-sequentially in ascending row order through the same
  // sparse/dense_gram.h accumulators as the monolithic SparseGramOperator
  // statics, so results are bit-identical. (The signed route stays dense by design; see ROADMAP
  // "operator-form signed Gram".)
  static Matrix DenseGram(const ShardedSparseIntervalMatrix& m, Endpoint e);
  static IntervalMatrix DenseGramEndpoints(
      const ShardedSparseIntervalMatrix& m);

 private:
  friend class Builder;

  // One block-row segment. Exactly one of three states: owned arrays
  // (memory backing), a mapped segment (mmap backing), or neither (view
  // backing — the base matrix's arrays are referenced through base_).
  struct Shard {
    size_t row_begin = 0;
    size_t rows = 0;
    size_t nnz = 0;
    std::vector<size_t> row_ptr;  // local base-0 offsets (owned shards)
    std::vector<uint32_t> col;    // global columns, packed (owned shards)
    std::vector<double> lo;
    std::vector<double> hi;
    MappedSegment mapped;
    std::shared_ptr<const SellPack> sell;  // owned shards on kSell only
  };

  // Kernel-facing description of one shard: a packed view plus the row
  // range to run and the offset translating view rows to global rows.
  struct SegRef {
    spk::PackedCsrView view;
    const double* lo = nullptr;
    const double* hi = nullptr;
    size_t row_begin = 0;  // range within `view`
    size_t row_end = 0;
    size_t offset = 0;  // global row of view-row row_begin, minus row_begin
    const SellPack* sell = nullptr;
    const MappedSegment* mapped = nullptr;
  };
  SegRef Seg(size_t s) const;

  // Fixes resolved_ / csr_variant_ from the request, the environment, and
  // (for a still-kAuto request) the matrix's own row-length statistics.
  void ResolveBackend(spk::Backend request);
  void BuildSellSidecars();
  void MaybeDropResidency(const SegRef& seg) const;

  // Shared scaffolding of the scatter-reduction kernels: partitions shards
  // into deterministic contiguous groups, hands each group zero-filled
  // acc_len-sized accumulators (one, or two when out1 != nullptr) to fill
  // shard-sequentially, then reduces group partials in fixed order.
  template <typename ScatterFn>
  void ReduceOverShards(size_t acc_len, ScatterFn&& scatter,
                        std::vector<double>* out0,
                        std::vector<double>* out1) const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t nnz_ = 0;
  size_t shard_rows_ = 0;
  std::vector<Shard> shards_;
  std::shared_ptr<const SparseIntervalMatrix> base_;  // view backing only
  spk::Backend resolved_ = spk::Backend::kScalar;
  spk::Backend csr_variant_ = spk::Backend::kScalar;  // kAvx2 or kScalar
  bool mmap_backed_ = false;
  std::string store_dir_;
  bool owns_store_ = false;
  bool drop_residency_ = false;
};

class ShardedSparseIntervalMatrix::Builder {
 public:
  Builder(size_t rows, size_t cols, size_t shard_rows, BackingPolicy policy);

  // Entries must arrive in strictly ascending (row, col) order; rows may
  // be skipped (they are empty).
  void Append(size_t row, size_t col, const Interval& value);

  // Flushes the tail shard and returns the matrix. The builder is spent.
  ShardedSparseIntervalMatrix Finish();

 private:
  // Seals the currently filling shard (padding trailing empty rows) and
  // appends it to the matrix — to a segment file under mmap backing.
  void FlushShard();

  ShardedSparseIntervalMatrix m_;
  std::vector<size_t> row_ptr_;  // current shard, local base-0
  std::vector<uint32_t> col_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  size_t next_row_ = 0;      // global row of the last appended entry
  size_t flushed_rows_ = 0;  // rows already flushed into shards
  size_t last_col_ = 0;
  bool row_open_ = false;
  bool finished_ = false;
  bool mmap_ = false;
};

// The symmetric operator x -> M_eᵀ (M_e x) over a sharded store — the
// LinearOperator ComputeLanczosEig consumes, making ISVD2-4 out-of-core
// without touching the solver. Gram side is MᵀM by construction.
class ShardedGramOperator final : public LinearOperator {
 public:
  ShardedGramOperator(const ShardedSparseIntervalMatrix& m,
                      ShardedSparseIntervalMatrix::Endpoint endpoint)
      : m_(m), endpoint_(endpoint) {}

  size_t Dim() const override { return m_.cols(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    m_.GramMultiply(endpoint_, x, y);
  }

 private:
  const ShardedSparseIntervalMatrix& m_;
  ShardedSparseIntervalMatrix::Endpoint endpoint_;
};

// An endpoint (or midpoint) matrix of a sharded store as a rectangular
// LinearMap — the input to the Golub-Kahan-Lanczos SVD behind ISVD0/1.
// ApplyTranspose runs the scatter reduction (no transposed store exists).
class ShardedEndpointMap final : public LinearMap {
 public:
  using Part = SparseEndpointMap::Part;

  ShardedEndpointMap(const ShardedSparseIntervalMatrix& m, Part part)
      : m_(m), part_(part) {}

  size_t Rows() const override { return m_.rows(); }
  size_t Cols() const override { return m_.cols(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    SparseEndpointMap::ApplyPart(m_, part_, /*transpose=*/false, x, y);
  }

  void ApplyTranspose(const std::vector<double>& x,
                      std::vector<double>& y) const override {
    SparseEndpointMap::ApplyPart(m_, part_, /*transpose=*/true, x, y);
  }

 private:
  const ShardedSparseIntervalMatrix& m_;
  Part part_;
};

}  // namespace ivmf

#endif  // IVMF_SPARSE_BLOCK_MATRIX_H_
