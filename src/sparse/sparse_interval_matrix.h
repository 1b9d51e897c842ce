// CSR-backed sparse interval-valued matrices.
//
// The paper's recommender workloads (Section 6.1.3, Figure 10) operate on
// rating matrices that are ~85% empty; the dense IntervalMatrix pair wastes
// both memory and flops there. SparseIntervalMatrix stores one compressed
// sparsity pattern shared by the two endpoint value arrays — structurally
// a CSR matrix whose values are [lo, hi] pairs — plus the endpoint kernels
// (sparse x vector and its transpose, sparse x dense and its transpose, the
// fused Gram, row/column norms) the matrix-free ISVD path is built from.
// All absent entries are the scalar zero interval [0, 0], exactly like the
// unobserved cells of the dense constructions.

#ifndef IVMF_SPARSE_SPARSE_INTERVAL_MATRIX_H_
#define IVMF_SPARSE_SPARSE_INTERVAL_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "interval/interval.h"
#include "interval/interval_matrix.h"
#include "linalg/matrix.h"
#include "sparse/sell_matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {

// One explicit entry of a sparse interval matrix (0-based indices).
struct IntervalTriplet {
  size_t row = 0;
  size_t col = 0;
  Interval value;
};

// Why a triplet cannot enter a rows x cols interval matrix.
enum class TripletDefect { kNone, kOutOfShape, kNonFinite, kInverted };

// Checks one cell arriving at a trust boundary: inside the rows x cols
// shape, both endpoints finite, lo <= hi. Returns the first defect found
// in that order, or kNone.
TripletDefect ValidateTriplet(const IntervalTriplet& triplet, size_t rows,
                              size_t cols);

// The metric tag of a defect: "none", "out_of_shape", "non_finite" or
// "inverted".
const char* TripletDefectName(TripletDefect defect);

// What to do when two triplets name the same (row, col) cell.
//
// The library-wide convention (decided with the streaming subsystem, which
// made the question unavoidable): *in-memory* construction merges duplicate
// observations to their interval hull — the natural semantics when several
// measurements of one quantity arrive as intervals — while the *serialized*
// triplet format treats a duplicated cell as corruption, because a written
// stream is sorted and unique, so a duplicate always means the file lied
// about its entry count. Both entry points take this enum so either side
// can opt into the other behavior; io/triplets.h documents the reader side.
enum class DuplicatePolicy {
  kMergeHull,  // duplicates collapse to [min lo, max hi]
  kReject,     // duplicates are a precondition violation
};

class SparseIntervalMatrix {
 public:
  // Which endpoint value array a kernel reads: M_* (lower) or M^* (upper).
  enum class Endpoint { kLower, kUpper };

  // An empty 0 x 0 matrix.
  SparseIntervalMatrix() = default;

  // Builds a rows x cols matrix from explicit entries. Triplets may arrive
  // in any order; duplicates at the same (row, col) follow `duplicates` —
  // by default they merge to their interval hull (see DuplicatePolicy for
  // the rationale), while kReject makes a duplicated cell a checked
  // precondition violation, matching the strict triplet reader. Indices
  // must lie inside the shape.
  static SparseIntervalMatrix FromTriplets(
      size_t rows, size_t cols, std::vector<IntervalTriplet> triplets,
      DuplicatePolicy duplicates = DuplicatePolicy::kMergeHull);

  // Compresses a dense interval matrix, dropping entries whose endpoints are
  // both within `tol` of zero.
  static SparseIntervalMatrix FromDense(const IntervalMatrix& dense,
                                        double tol = 0.0);

  // Adopts prebuilt CSR arrays without the FromTriplets sort: `row_ptr` has
  // rows + 1 monotone offsets, `col_idx` ascending unique columns per row,
  // `lo`/`hi` the endpoint values. The O(nnz) structural invariants are
  // checked. This is the fast path for producers that already emit
  // row-major order (DynamicSparseIntervalMatrix::Snapshot's delta-log
  // merge).
  static SparseIntervalMatrix FromCsr(size_t rows, size_t cols,
                                      std::vector<size_t> row_ptr,
                                      std::vector<size_t> col_idx,
                                      std::vector<double> lo,
                                      std::vector<double> hi);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // nnz / (rows * cols); 0 for an empty shape.
  double FillFraction() const;

  // Entry lookup by binary search within the row: O(log row_nnz). Absent
  // entries are the scalar zero interval.
  Interval At(size_t i, size_t j) const;

  // Materializes the dense endpoint pair (absent entries become [0, 0]).
  IntervalMatrix ToDense() const;

  // Explicit entries in row-major order.
  std::vector<IntervalTriplet> ToTriplets() const;

  // CSR of the transpose. O(nnz) time and a second copy of the arrays; the
  // two endpoint arrays share the single transposed pattern, like the
  // forward matrix. Each call counts in sparse.transpose.calls.
  SparseIntervalMatrix Transpose() const;

  // True when every stored entry satisfies lo <= hi.
  bool IsProper() const;

  // True when every stored lower endpoint is >= -tol. Entrywise
  // non-negativity is the precondition under which the Algorithm-1 interval
  // Gram endpoints coincide with M_*ᵀM_* and M^*ᵀM^* (see
  // IntervalMatMulExact's doc) — the matrix-free ISVD path relies on it.
  bool IsNonNegative(double tol = 0.0) const;

  // -- Kernel backend selection ----------------------------------------------
  // Every kernel below dispatches through one of the backends in
  // sparse_kernels.h: the scalar reference loops, AVX2 register-blocked CSR
  // rows (runtime cpuid, portable fallback), or a SELL-C-4 padded layout
  // built lazily as an immutable sidecar the first time a SELL kernel runs
  // (the sparse x dense products, which SELL does not cover, use the
  // dispatched CSR variant). The default kAuto defers to the
  // IVMF_SPARSE_KERNEL environment variable (scalar|avx2|sell|auto), then
  // to cpuid, so call sites never change: Lanczos eig/SVD, StreamingIsvd,
  // and the serving refresh path all pick the backend up through here.
  // Transpose() propagates the selection; the obs matvec counters tag each
  // call with the variant that actually ran.
  //
  // When both the per-matrix request and IVMF_SPARSE_KERNEL are kAuto, the
  // matrix refines the choice from its own row-length statistics
  // (spk::ChooseAutoBackend): short-row / irregular patterns get the SELL
  // layout, long-row CF shapes keep packed CSR. The statistics pass is
  // O(rows), runs once, and is cached alongside the SELL/packed sidecars.

  void set_kernel(spk::Backend backend) { kernel_ = backend; }
  spk::Backend kernel() const { return kernel_; }

  // The backend request after per-matrix auto-refinement: kernel() itself
  // unless that is kAuto with no environment override, in which case the
  // row-statistics choice (a concrete backend). Every kernel below
  // dispatches on spk::Resolve / spk::CsrVariant of this.
  spk::Backend ResolvedKernel() const;

  // -- Kernels ---------------------------------------------------------------
  // All kernels are deterministic for a fixed machine and backend.
  // Row-partitioned kernels (Multiply, MultiplyMid, MultiplyDense,
  // IntervalMultiplyDense) compute every output entry from exactly the
  // serial loop's terms — vectorized variants reassociate within a row by a
  // fixed lane blocking, so they agree with the scalar reference to
  // roundoff and are bit-stable across calls. The transposed products
  // (MultiplyTranspose, MultiplyTransposeMid, GramMultiply and the dense
  // *Transpose forms) are row scatters over the layout the matrix holds
  // (SELL chunks, packed AVX2 rows, or the scalar reference) into
  // per-thread partial accumulators, reduced in fixed order: their
  // summation order differs from the serial scatter by a fixed blocking
  // (bit-stable across calls, equal to the serial result up to roundoff).
  // No kernel here reads or builds a Transpose().
  //
  // Aliasing contract (checked): output vectors may not alias input vectors
  // or each other — the kernels stream inputs while writing outputs in
  // blocked order, so in-place calls would read half-written data. Inputs
  // must be finite (SELL padding multiplies 0 by x[0]; an Inf/NaN there
  // would poison a padded lane).

  // y = A_e x (y resized to rows()). Parallelized over rows.
  void Multiply(Endpoint e, const std::vector<double>& x,
                std::vector<double>& y) const;

  // y = ((A_* + A^*) / 2) x — the midpoint-matrix action fused over the
  // shared pattern (y resized to rows()). Parallelized over rows. Backs the
  // matrix-free sparse ISVD0, which decomposes the midpoint matrix without
  // materializing it.
  void MultiplyMid(const std::vector<double>& x, std::vector<double>& y) const;

  // y = A_eᵀ x (y resized to cols()): a row scatter into per-thread
  // partial accumulators, reduced in fixed order. On the packed AVX2 and
  // SELL layouts it streams the same bytes as the forward matvec, so the
  // Golub–Kahan SVD of ISVD0/ISVD1 runs on it without a transpose.
  void MultiplyTranspose(Endpoint e, const std::vector<double>& x,
                         std::vector<double>& y) const;

  // y = ((A_* + A^*) / 2)ᵀ x, the midpoint scatter (y resized to cols()).
  // The transposed action of the ISVD0 midpoint map.
  void MultiplyTransposeMid(const std::vector<double>& x,
                            std::vector<double>& y) const;

  // C = A_e * B for dense B (cols() x k). Parallelized over rows. A
  // zero-column B yields a rows() x 0 result without touching any storage.
  Matrix MultiplyDense(Endpoint e, const Matrix& b) const;

  // C = A_eᵀ * B for dense B (rows() x k), the row scatter of
  // IntervalMultiplyDenseTranspose for one endpoint (cols() x k result).
  Matrix MultiplyDenseTranspose(Endpoint e, const Matrix& b) const;

  // C† = A† * B for a dense scalar B, matching the dense mixed-operand
  // IntervalMatMul exactly: C_lo / C_hi are the elementwise min / max of the
  // two full endpoint products A_* B and A^* B.
  IntervalMatrix IntervalMultiplyDense(const Matrix& b) const;

  // C† = A†ᵀ * B for a dense scalar B (rows() x k), equal to
  // Transpose().IntervalMultiplyDense(b) up to roundoff without building the
  // transpose: row blocks scatter A_*ᵀ B and A^*ᵀ B into per-thread
  // accumulators (MatDenseTBothPacked{Avx2,Scalar} on the dispatched CSR
  // variant), which reduce in fixed order before the elementwise
  // min / max. Bit-stable across calls. Workers are capped so their
  // accumulators never outgrow the transpose they replace (nnz x 24 bytes).
  // Same contract as ShardedSparseIntervalMatrix's method of this name; the
  // ISVD4 recompute V† = M†ᵀ S runs on it.
  IntervalMatrix IntervalMultiplyDenseTranspose(const Matrix& b) const;

  // y = A_eᵀ (A_e x) in a single pass over the pattern (y resized to
  // cols()): each row's dot against x and its scaled scatter into y share
  // the row data while it is cache-hot, halving memory traffic versus the
  // Multiply + MultiplyTranspose composition. Same value as that
  // composition up to roundoff (summation into y is grouped by row, and
  // per-thread partials reduce like MultiplyTranspose); bit-stable across
  // calls. SparseGramOperator::Apply routes through here; on SELL the
  // fused kernel runs over the padded chunks.
  void GramMultiply(Endpoint e, const std::vector<double>& x,
                    std::vector<double>& y) const;

  // -- Endpoint pairs: both endpoints' kernels in one pass ------------------
  // (y_lo, y_hi) = (A_* x_lo, A^* x_hi), then the row scatters
  // (A_*ᵀ x_lo, A^*ᵀ x_hi), then the fused Grams
  // (A_*ᵀ (A_* x_lo), A^*ᵀ (A^* x_hi)) — what the lock-step Krylov solvers
  // apply per step. On AVX2 one spk pair kernel streams the packed pattern
  // once for both sides; the scalar and SELL backends run the two
  // single-endpoint kernels over one partition in one parallel region, with
  // the same results as two single calls. Each side agrees with its
  // single-endpoint method to roundoff and is bit-stable across calls. The
  // four vectors must be distinct (checked by CheckPairAliasing).
  void MultiplyPair(const std::vector<double>& x_lo,
                    const std::vector<double>& x_hi, std::vector<double>& y_lo,
                    std::vector<double>& y_hi) const;
  void MultiplyTransposePair(const std::vector<double>& x_lo,
                             const std::vector<double>& x_hi,
                             std::vector<double>& y_lo,
                             std::vector<double>& y_hi) const;
  void GramMultiplyPair(const std::vector<double>& x_lo,
                        const std::vector<double>& x_hi,
                        std::vector<double>& y_lo,
                        std::vector<double>& y_hi) const;

  // Euclidean norms of the rows / columns of the endpoint matrix A_e.
  std::vector<double> RowNorms(Endpoint e) const;
  std::vector<double> ColNorms(Endpoint e) const;

  // -- Raw CSR access (pattern shared by both endpoint arrays) ---------------

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& lower_values() const { return lo_; }
  const std::vector<double>& upper_values() const { return hi_; }
  const std::vector<double>& values(Endpoint e) const {
    return e == Endpoint::kLower ? lo_ : hi_;
  }

 private:
  // The block-row sharded facade builds zero-copy shard views over this
  // matrix's CSR arrays and packed sidecar (sparse/block_matrix.h).
  friend class ShardedSparseIntervalMatrix;

  // Lazily-built SELL sidecar, shared by copies (the padded pack depends
  // only on the immutable CSR arrays, which copies share by value).
  struct SellSlot {
    std::once_flag once;
    std::unique_ptr<const SellPack> pack;
  };

  // Cached row-statistics auto-selection (ResolvedKernel), shared by copies
  // like the sidecars: the statistics depend only on the immutable pattern.
  struct AutoSlot {
    std::once_flag once;
    spk::Backend backend = spk::Backend::kAuto;
  };

  // Lazily-built narrow column-index sidecar for the AVX2 kernels: u16 when
  // cols() fits (the common CF shape), u32 otherwise. Exactly one of the
  // two vectors is populated. Shared by copies like the SELL pack.
  struct PackedSlot {
    std::once_flag once;
    std::vector<uint16_t> col16;
    std::vector<uint32_t> col32;
  };

  // The CSR view over this matrix's arrays, for the spk kernels.
  spk::CsrView View() const {
    return {rows_, cols_, row_ptr_.data(), col_idx_.data()};
  }

  const SellPack& EnsureSell() const;

  // Runs a cols()-sized reduction kernel on `backend`: over SELL chunks
  // through sell_fn(pack, out0, out1, chunk_begin, chunk_end), else over
  // CSR rows through csr_fn(out0, out1, row_begin, row_end). Writes y0 and,
  // when non-null, y1 (cols() entries each; out1 is null without y1).
  template <typename SellFn, typename CsrFn>
  void ScatterToCols(spk::Backend backend, double* y0, double* y1,
                     SellFn&& sell_fn, CsrFn&& csr_fn) const;

  // The packed view over this matrix's arrays (builds the sidecar on first
  // use).
  spk::PackedCsrView PackedView() const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_ptr_;  // rows() + 1 offsets into col_idx_/lo_/hi_
  std::vector<size_t> col_idx_;  // nnz column indices, ascending per row
  std::vector<double> lo_;       // nnz lower endpoints
  std::vector<double> hi_;       // nnz upper endpoints
  spk::Backend kernel_ = spk::Backend::kAuto;
  mutable std::shared_ptr<SellSlot> sell_ = std::make_shared<SellSlot>();
  mutable std::shared_ptr<PackedSlot> packed_ = std::make_shared<PackedSlot>();
  mutable std::shared_ptr<AutoSlot> auto_ = std::make_shared<AutoSlot>();
};

// The aliasing contract of the endpoint-pair methods of both stores
// (SparseIntervalMatrix and ShardedSparseIntervalMatrix): no output may
// alias an input or the other output. Check-fails otherwise.
void CheckPairAliasing(const std::vector<double>& x_lo,
                       const std::vector<double>& x_hi,
                       const std::vector<double>& y_lo,
                       const std::vector<double>& y_hi);

}  // namespace ivmf

#endif  // IVMF_SPARSE_SPARSE_INTERVAL_MATRIX_H_
