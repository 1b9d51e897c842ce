#include "sparse/sell_matrix.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "base/check.h"
#include "base/parallel.h"

namespace ivmf {

using spk::kSellC;
using spk::kSellPadRow;

SellPack::SellPack(size_t rows, size_t cols,
                   const std::vector<size_t>& row_ptr,
                   const std::vector<size_t>& col_idx,
                   const std::vector<double>& lo,
                   const std::vector<double>& hi, size_t sigma)
    : rows_(rows), cols_(cols), nnz_(col_idx.size()) {
  IVMF_CHECK_MSG(cols <= std::numeric_limits<uint32_t>::max(),
                 "SELL pack uses 32-bit column indices");
  use_avx2_ = spk::Avx2Supported();

  // Sort rows by descending length within sigma-row windows; the chunk
  // grouping then pads each chunk only to its local maximum.
  std::vector<size_t> order(rows);
  std::iota(order.begin(), order.end(), 0);
  const auto row_len = [&](size_t r) { return row_ptr[r + 1] - row_ptr[r]; };
  if (sigma > kSellC) {
    for (size_t w = 0; w < rows; w += sigma) {
      const size_t w_end = std::min(rows, w + sigma);
      std::stable_sort(order.begin() + static_cast<ptrdiff_t>(w),
                       order.begin() + static_cast<ptrdiff_t>(w_end),
                       [&](size_t a, size_t b) { return row_len(a) > row_len(b); });
    }
  }

  const size_t chunks = (rows + kSellC - 1) / kSellC;
  chunk_ptr_.assign(chunks + 1, 0);
  perm_.assign(chunks * kSellC, kSellPadRow);
  for (size_t c = 0; c < chunks; ++c) {
    size_t max_len = 0;
    for (size_t l = 0; l < kSellC; ++l) {
      const size_t p = c * kSellC + l;
      if (p >= rows) break;
      perm_[p] = order[p];
      max_len = std::max(max_len, row_len(order[p]));
    }
    chunk_ptr_[c + 1] = chunk_ptr_[c] + max_len * kSellC;
  }

  // Scatter entries slice-major; padded slots keep column 0 / value 0 so a
  // gather stays in bounds and contributes an exact zero term.
  col_.assign(chunk_ptr_[chunks], 0);
  lo_.assign(chunk_ptr_[chunks], 0.0);
  hi_.assign(chunk_ptr_[chunks], 0.0);
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t l = 0; l < kSellC; ++l) {
      const size_t r = perm_[c * kSellC + l];
      if (r == kSellPadRow) continue;
      const size_t len = row_len(r);
      for (size_t s = 0; s < len; ++s) {
        const size_t dst = chunk_ptr_[c] + s * kSellC + l;
        const size_t src = row_ptr[r] + s;
        col_[dst] = static_cast<uint32_t>(col_idx[src]);
        lo_[dst] = lo[src];
        hi_[dst] = hi[src];
      }
    }
  }
}

template <typename ChunkFn>
void SellPack::ForChunkBlocks(ChunkFn&& fn) const {
  // 64 chunks = 256 rows per task, matching the CSR kernels' row blocking.
  constexpr size_t kChunkBlock = 64;
  const size_t n = chunks();
  const size_t blocks = (n + kChunkBlock - 1) / kChunkBlock;
  ParallelFor(
      0, blocks,
      [&](size_t b) {
        const size_t begin = b * kChunkBlock;
        fn(begin, std::min(n, begin + kChunkBlock));
      },
      /*max_threads=*/0, /*min_items_per_thread=*/2);
}

void SellPack::MatVec(bool upper, const double* x, double* y) const {
  const double* v = upper ? hi_.data() : lo_.data();
  const spk::SellView view = View();
  ForChunkBlocks([&](size_t begin, size_t end) {
    if (use_avx2_) {
      spk::SellMatVecAvx2(view, v, x, y, begin, end);
    } else {
      spk::SellMatVecScalar(view, v, x, y, begin, end);
    }
  });
}

void SellPack::MatVecMid(const double* x, double* y) const {
  const spk::SellView view = View();
  ForChunkBlocks([&](size_t begin, size_t end) {
    if (use_avx2_) {
      spk::SellMatVecMidAvx2(view, lo_.data(), hi_.data(), x, y, begin, end);
    } else {
      spk::SellMatVecMidScalar(view, lo_.data(), hi_.data(), x, y, begin, end);
    }
  });
}

void SellPack::MatVecT(bool upper, const double* x, double* y,
                       size_t chunk_begin, size_t chunk_end) const {
  spk::SellMatVecTScalar(View(), upper ? hi_.data() : lo_.data(), x, y,
                         chunk_begin, chunk_end);
}

void SellPack::MatVecTMid(const double* x, double* y, size_t chunk_begin,
                          size_t chunk_end) const {
  spk::SellMatVecTMidScalar(View(), lo_.data(), hi_.data(), x, y, chunk_begin,
                            chunk_end);
}

void SellPack::GramMultiply(bool upper, const double* x, double* y,
                            size_t chunk_begin, size_t chunk_end) const {
  const double* v = upper ? hi_.data() : lo_.data();
  if (use_avx2_) {
    spk::SellGramFusedAvx2(View(), v, x, y, chunk_begin, chunk_end);
  } else {
    spk::SellGramFusedScalar(View(), v, x, y, chunk_begin, chunk_end);
  }
}

}  // namespace ivmf
