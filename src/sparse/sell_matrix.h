// SELL-C-sigma padded storage for sparse interval matrices.
//
// The CSR matvec pays a per-row remainder and a horizontal reduction per
// row; on short rows (a 5%-fill ratings matrix averages a few hundred
// nonzeros, but the tail of the row-length distribution is long) that
// overhead dominates. SELL-C-sigma (Kreutzer et al.) fixes it structurally:
// rows are sorted by length inside windows of sigma rows (keeping the
// permutation local, so the output scatter stays cache-friendly), grouped
// into chunks of C consecutive rows, and each chunk is padded to its
// longest row and stored slice-major — slice s holds entry s of all C rows
// contiguously. A matvec then runs one vertical C-lane FMA per slice with
// no remainder logic, and the sigma-window sort keeps padding low on
// skewed row lengths.
//
// This pack uses C = 4 (one AVX2 register of doubles, one lane per row)
// and 32-bit column indices — half the index bandwidth of the size_t CSR
// arrays, which matters because the 20k x 5k matvec streams values+indices
// from memory. Both endpoint arrays share the single padded pattern,
// mirroring the CSR side.
//
// SellPack is an immutable sidecar built from CSR arrays (see
// SparseIntervalMatrix::set_kernel; the CSR arrays stay resident for the
// dense products SELL does not cover). Supported kernels: the forward
// MatVec / MatVecMid, their transpose scatters, and the fused Gram — so a
// SELL matrix needs no transpose for any Krylov solve. Padded lanes
// multiply value 0 by x[0], so inputs must be finite (see the contract in
// sparse_kernels.h).

#ifndef IVMF_SPARSE_SELL_MATRIX_H_
#define IVMF_SPARSE_SELL_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sparse/sparse_kernels.h"

namespace ivmf {

class SellPack {
 public:
  // Packs the CSR arrays (see SparseIntervalMatrix for their invariants)
  // into SELL-4-sigma form. `sigma` is the row-sorting window, rounded up
  // to a multiple of the chunk height; sigma <= C disables sorting.
  SellPack(size_t rows, size_t cols, const std::vector<size_t>& row_ptr,
           const std::vector<size_t>& col_idx, const std::vector<double>& lo,
           const std::vector<double>& hi, size_t sigma = 4096);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t chunks() const { return chunk_ptr_.size() - 1; }

  // Stored slots including padding; padded_entries() = slots - nnz. The
  // ratio is worth watching on adversarial row-length distributions — the
  // fuzz suite constructs all-nnz-in-one-row matrices where padding would
  // explode without the sigma sort.
  size_t padded_slots() const { return col_.size(); }
  size_t padded_entries() const { return col_.size() - nnz_; }

  // The kernel view and an endpoint's padded values, for direct calls of
  // the spk::Sell* kernels (the differential tests run both variants).
  spk::SellView View() const {
    return {chunks(), chunk_ptr_.data(), col_.data(), perm_.data()};
  }
  const std::vector<double>& values(bool upper) const {
    return upper ? hi_ : lo_;
  }

  // y = A_e x (y has rows() entries, fully overwritten). `upper` selects
  // the endpoint array. Chunk-parallel; deterministic for a fixed machine.
  void MatVec(bool upper, const double* x, double* y) const;

  // y = ((A_* + A^*) / 2) x fused over the shared padded pattern.
  void MatVecMid(const double* x, double* y) const;

  // The reduction kernels run serially over chunks [chunk_begin,
  // chunk_end) and accumulate into y (cols() entries); the caller
  // zero-fills y or reduces per-worker partials, and picks the chunk
  // ranges (SparseIntervalMatrix's ScatterRows, or one range per shard).
  //
  // y += A_eᵀ x over the chunks' rows (x has rows() entries).
  void MatVecT(bool upper, const double* x, double* y, size_t chunk_begin,
               size_t chunk_end) const;

  // y += ((A_* + A^*) / 2)ᵀ x.
  void MatVecTMid(const double* x, double* y, size_t chunk_begin,
                  size_t chunk_end) const;

  // y += A_eᵀ (A_e x) (x has cols() entries), one pass over the chunks.
  void GramMultiply(bool upper, const double* x, double* y,
                    size_t chunk_begin, size_t chunk_end) const;

 private:
  template <typename ChunkFn>
  void ForChunkBlocks(ChunkFn&& fn) const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t nnz_ = 0;
  bool use_avx2_ = false;           // cpuid decision, cached at build
  std::vector<size_t> chunk_ptr_;   // chunks + 1 offsets into col_/lo_/hi_
  std::vector<uint32_t> col_;       // padded columns, slice-major per chunk
  std::vector<double> lo_;          // padded lower endpoints
  std::vector<double> hi_;          // padded upper endpoints
  std::vector<size_t> perm_;        // 4 * chunks source rows (kSellPadRow pads)
};

}  // namespace ivmf

#endif  // IVMF_SPARSE_SELL_MATRIX_H_
