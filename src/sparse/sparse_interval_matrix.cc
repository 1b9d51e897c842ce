#include "sparse/sparse_interval_matrix.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "base/parallel.h"
#include "obs/metrics.h"

namespace ivmf {

namespace {

// One counter triple per (kernel, variant). The references are
// function-local statics at each call site, so the registry mutex is
// touched once per kernel for the process lifetime; the per-call cost is
// three relaxed adds.
struct KernelCounters {
  obs::Counter& calls;
  obs::Counter& rows;
  obs::Counter& nnz;

  KernelCounters(const char* kernel, const char* variant)
      : calls(obs::MetricsRegistry::Global().GetCounter(
            "sparse.matvec.calls",
            {{"kernel", kernel}, {"variant", variant}})),
        rows(obs::MetricsRegistry::Global().GetCounter(
            "sparse.matvec.rows", {{"kernel", kernel}, {"variant", variant}})),
        nnz(obs::MetricsRegistry::Global().GetCounter(
            "sparse.matvec.nnz", {{"kernel", kernel}, {"variant", variant}})) {
  }

  void Count(size_t rows_processed, size_t nnz_processed) {
    calls.Add(1);
    rows.Add(rows_processed);
    nnz.Add(nnz_processed);
  }
};

// The counter triples of one kernel across the three dispatchable variants,
// indexed by the backend that actually runs a call.
struct VariantCounters {
  KernelCounters scalar;
  KernelCounters avx2;
  KernelCounters sell;

  explicit VariantCounters(const char* kernel)
      : scalar(kernel, "scalar"), avx2(kernel, "avx2"), sell(kernel, "sell") {}

  KernelCounters& For(spk::Backend resolved) {
    switch (resolved) {
      case spk::Backend::kAvx2:
        return avx2;
      case spk::Backend::kSell:
        return sell;
      default:
        return scalar;
    }
  }
};

// Partitions rows [0, rows) into fixed-size blocks handed to fn(begin, end)
// — possibly in parallel, with at least `min_rows` rows per worker. The
// blocking (not the thread count) fixes each kernel's association order,
// so results are bit-stable across calls.
template <typename Fn>
void ForRowBlocks(size_t rows, size_t min_rows, Fn&& fn) {
  constexpr size_t kRowBlock = 256;
  const size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  const size_t min_blocks = (min_rows + kRowBlock - 1) / kRowBlock;
  ParallelFor(
      0, blocks,
      [&](size_t b) {
        const size_t begin = b * kRowBlock;
        fn(begin, std::min(rows, begin + kRowBlock));
      },
      /*max_threads=*/0,
      /*min_items_per_thread=*/min_blocks > 0 ? min_blocks : 1);
}

// Runs an accumulating row scatter fn(out0, out1, row_begin, row_end) over
// rows [0, rows) into out0 (and out1, when non-null), `len` doubles each.
// Each worker scatters its block of rows into private accumulators, then
// the accumulators reduce in fixed worker order, in parallel over entries.
// A worker takes at least kMinRowsPerThread rows, and the workers'
// accumulators together never take more memory than a transpose of the
// matrix would (nnz x 24 bytes: index and both endpoints), so a wide
// product runs on fewer workers, down to one that scatters straight into
// the outputs. The partitioning depends only on the shape and hardware
// concurrency, so repeated calls are bit-identical.
template <typename ScatterFn>
void ScatterRows(size_t rows, size_t nnz, size_t len, double* out0,
                 double* out1, ScatterFn&& scatter) {
  constexpr size_t kMinRowsPerThread = 2048;
  constexpr size_t kTransposeBytesPerNnz =
      sizeof(size_t) + 2 * sizeof(double);
  const size_t outs = out1 != nullptr ? 2 : 1;
  size_t threads = SuggestedThreads(rows);
  const size_t row_cap = (rows + kMinRowsPerThread - 1) / kMinRowsPerThread;
  if (threads > row_cap) threads = row_cap;
  if (len > 0) {
    const size_t memory_cap =
        nnz * kTransposeBytesPerNnz / (outs * len * sizeof(double));
    if (threads > memory_cap) threads = memory_cap;
  }
  if (threads <= 1) {
    std::fill(out0, out0 + len, 0.0);
    if (out1 != nullptr) std::fill(out1, out1 + len, 0.0);
    scatter(out0, out1, 0, rows);
    return;
  }

  std::vector<std::vector<double>> partials(threads * outs);
  const size_t chunk = (rows + threads - 1) / threads;
  ParallelFor(
      0, threads,
      [&](size_t t) {
        double* parts[2] = {nullptr, nullptr};
        for (size_t o = 0; o < outs; ++o) {
          partials[t * outs + o].assign(len, 0.0);
          parts[o] = partials[t * outs + o].data();
        }
        const size_t row_begin = t * chunk;
        const size_t row_end = std::min(rows, row_begin + chunk);
        scatter(parts[0], parts[1], row_begin, row_end);
      },
      /*max_threads=*/threads);
  double* outputs[2] = {out0, out1};
  ParallelFor(
      0, len,
      [&](size_t j) {
        for (size_t o = 0; o < outs; ++o) {
          double sum = 0.0;
          for (size_t t = 0; t < threads; ++t) sum += partials[t * outs + o][j];
          outputs[o][j] = sum;
        }
      },
      /*max_threads=*/0, /*min_items_per_thread=*/4096);
}

}  // namespace

TripletDefect ValidateTriplet(const IntervalTriplet& triplet, size_t rows,
                              size_t cols) {
  if (triplet.row >= rows || triplet.col >= cols) {
    return TripletDefect::kOutOfShape;
  }
  if (!std::isfinite(triplet.value.lo) || !std::isfinite(triplet.value.hi)) {
    return TripletDefect::kNonFinite;
  }
  if (triplet.value.lo > triplet.value.hi) return TripletDefect::kInverted;
  return TripletDefect::kNone;
}

const char* TripletDefectName(TripletDefect defect) {
  switch (defect) {
    case TripletDefect::kNone:
      return "none";
    case TripletDefect::kOutOfShape:
      return "out_of_shape";
    case TripletDefect::kNonFinite:
      return "non_finite";
    case TripletDefect::kInverted:
      return "inverted";
  }
  return "unknown";
}

SparseIntervalMatrix SparseIntervalMatrix::FromTriplets(
    size_t rows, size_t cols, std::vector<IntervalTriplet> triplets,
    DuplicatePolicy duplicates) {
  for (const IntervalTriplet& t : triplets) {
    IVMF_CHECK_MSG(t.row < rows && t.col < cols,
                   "triplet index outside the matrix shape");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const IntervalTriplet& a, const IntervalTriplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseIntervalMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.lo_.reserve(triplets.size());
  m.hi_.reserve(triplets.size());

  for (size_t k = 0; k < triplets.size(); ++k) {
    const IntervalTriplet& t = triplets[k];
    if (!m.col_idx_.empty() && k > 0 && triplets[k - 1].row == t.row &&
        triplets[k - 1].col == t.col) {
      IVMF_CHECK_MSG(duplicates == DuplicatePolicy::kMergeHull,
                     "duplicate cell in triplets (DuplicatePolicy::kReject)");
      // Duplicate coordinate: merge to the interval hull.
      m.lo_.back() = std::min(m.lo_.back(), t.value.lo);
      m.hi_.back() = std::max(m.hi_.back(), t.value.hi);
      continue;
    }
    m.col_idx_.push_back(t.col);
    m.lo_.push_back(t.value.lo);
    m.hi_.push_back(t.value.hi);
    ++m.row_ptr_[t.row + 1];
  }
  for (size_t i = 0; i < rows; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  return m;
}

SparseIntervalMatrix SparseIntervalMatrix::FromCsr(
    size_t rows, size_t cols, std::vector<size_t> row_ptr,
    std::vector<size_t> col_idx, std::vector<double> lo,
    std::vector<double> hi) {
  IVMF_CHECK_MSG(row_ptr.size() == rows + 1, "row_ptr must have rows + 1 offsets");
  IVMF_CHECK_MSG(row_ptr.front() == 0 && row_ptr.back() == col_idx.size(),
                 "row_ptr must span exactly the entry arrays");
  IVMF_CHECK_MSG(lo.size() == col_idx.size() && hi.size() == col_idx.size(),
                 "endpoint arrays must match the pattern size");
  for (size_t i = 0; i < rows; ++i) {
    IVMF_CHECK_MSG(row_ptr[i] <= row_ptr[i + 1], "row_ptr must be monotone");
    for (size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      IVMF_CHECK_MSG(col_idx[k] < cols, "column index outside the shape");
      IVMF_CHECK_MSG(k == row_ptr[i] || col_idx[k - 1] < col_idx[k],
                     "columns must be ascending and unique within a row");
    }
  }
  SparseIntervalMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.lo_ = std::move(lo);
  m.hi_ = std::move(hi);
  return m;
}

SparseIntervalMatrix SparseIntervalMatrix::FromDense(
    const IntervalMatrix& dense, double tol) {
  SparseIntervalMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (size_t i = 0; i < m.rows_; ++i) {
    for (size_t j = 0; j < m.cols_; ++j) {
      const double lo = dense.lower()(i, j);
      const double hi = dense.upper()(i, j);
      if (std::abs(lo) <= tol && std::abs(hi) <= tol) continue;
      m.col_idx_.push_back(j);
      m.lo_.push_back(lo);
      m.hi_.push_back(hi);
      ++m.row_ptr_[i + 1];
    }
  }
  for (size_t i = 0; i < m.rows_; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  return m;
}

double SparseIntervalMatrix::FillFraction() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

Interval SparseIntervalMatrix::At(size_t i, size_t j) const {
  IVMF_DCHECK(i < rows_ && j < cols_);
  const auto begin = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[i]);
  const auto end = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return Interval();
  const size_t k = static_cast<size_t>(it - col_idx_.begin());
  return Interval(lo_[k], hi_[k]);
}

IntervalMatrix SparseIntervalMatrix::ToDense() const {
  IntervalMatrix dense(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      dense.Set(i, col_idx_[k], Interval(lo_[k], hi_[k]));
    }
  }
  return dense;
}

std::vector<IntervalTriplet> SparseIntervalMatrix::ToTriplets() const {
  std::vector<IntervalTriplet> triplets;
  triplets.reserve(nnz());
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      triplets.push_back({i, col_idx_[k], Interval(lo_[k], hi_[k])});
    }
  }
  return triplets;
}

SparseIntervalMatrix SparseIntervalMatrix::Transpose() const {
  static obs::Counter& calls =
      obs::MetricsRegistry::Global().GetCounter("sparse.transpose.calls");
  calls.Add(1);
  SparseIntervalMatrix t;
  t.kernel_ = kernel_;  // backend selection follows the matrix
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  t.col_idx_.resize(nnz());
  t.lo_.resize(nnz());
  t.hi_.resize(nnz());

  // Counting sort by column: histogram, prefix-sum, scatter.
  for (size_t k = 0; k < col_idx_.size(); ++k) ++t.row_ptr_[col_idx_[k] + 1];
  for (size_t j = 0; j < cols_; ++j) t.row_ptr_[j + 1] += t.row_ptr_[j];
  std::vector<size_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const size_t dst = next[col_idx_[k]]++;
      t.col_idx_[dst] = i;
      t.lo_[dst] = lo_[k];
      t.hi_[dst] = hi_[k];
    }
  }
  return t;
}

bool SparseIntervalMatrix::IsProper() const {
  for (size_t k = 0; k < lo_.size(); ++k) {
    if (lo_[k] > hi_[k]) return false;
  }
  return true;
}

bool SparseIntervalMatrix::IsNonNegative(double tol) const {
  for (const double lo : lo_) {
    if (lo < -tol) return false;
  }
  return true;
}

spk::Backend SparseIntervalMatrix::ResolvedKernel() const {
  if (kernel_ != spk::Backend::kAuto) return kernel_;
  if (spk::EnvBackend() != spk::Backend::kAuto) return kernel_;
  if (rows_ == 0 || nnz() == 0) return kernel_;
  AutoSlot* slot = auto_.get();
  std::call_once(slot->once, [&] {
    const double mean =
        static_cast<double>(nnz()) / static_cast<double>(rows_);
    double var = 0.0;
    for (size_t i = 0; i < rows_; ++i) {
      const double d =
          static_cast<double>(row_ptr_[i + 1] - row_ptr_[i]) - mean;
      var += d * d;
    }
    const double cv =
        mean > 0.0
            ? std::sqrt(var / static_cast<double>(rows_)) / mean
            : 0.0;
    slot->backend = spk::ChooseAutoBackend(mean, cv, spk::Avx2Supported());
  });
  return slot->backend;
}

const SellPack& SparseIntervalMatrix::EnsureSell() const {
  SellSlot* slot = sell_.get();
  std::call_once(slot->once, [&] {
    slot->pack =
        std::make_unique<const SellPack>(rows_, cols_, row_ptr_, col_idx_,
                                         lo_, hi_);
  });
  return *slot->pack;
}

spk::PackedCsrView SparseIntervalMatrix::PackedView() const {
  PackedSlot* slot = packed_.get();
  // Column indices are < cols_, so they fit u16 exactly when cols_ <= 2^16.
  const bool narrow = cols_ <= (size_t{1} << 16);
  std::call_once(slot->once, [&] {
    if (narrow) {
      slot->col16.resize(col_idx_.size());
      for (size_t k = 0; k < col_idx_.size(); ++k) {
        slot->col16[k] = static_cast<uint16_t>(col_idx_[k]);
      }
    } else {
      slot->col32.resize(col_idx_.size());
      for (size_t k = 0; k < col_idx_.size(); ++k) {
        slot->col32[k] = static_cast<uint32_t>(col_idx_[k]);
      }
    }
  });
  spk::PackedCsrView view;
  view.rows = rows_;
  view.cols = cols_;
  view.row_ptr = row_ptr_.data();
  if (narrow) {
    view.col16 = slot->col16.data();
  } else {
    view.col32 = slot->col32.data();
  }
  return view;
}

void SparseIntervalMatrix::Multiply(Endpoint e, const std::vector<double>& x,
                                    std::vector<double>& y) const {
  IVMF_CHECK(x.size() == cols_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  const spk::Backend backend = spk::Resolve(ResolvedKernel());
  static VariantCounters counters("multiply");
  counters.For(backend).Count(rows_, nnz());
  const std::vector<double>& v = values(e);
  y.resize(rows_);
  if (backend == spk::Backend::kSell) {
    EnsureSell().MatVec(e == Endpoint::kUpper, x.data(), y.data());
    return;
  }
  // The AVX2 variant runs over the narrow-index sidecar: at 16 bytes/nnz
  // the plain CSR stream saturates single-core bandwidth before the gathers
  // do, so the win comes from shrinking the stream, not just the blocking.
  const spk::CsrView view = View();
  const bool avx2 = backend == spk::Backend::kAvx2;
  const spk::PackedCsrView packed =
      avx2 ? PackedView() : spk::PackedCsrView{};
  ForRowBlocks(rows_, 512, [&](size_t begin, size_t end) {
    if (avx2) {
      spk::MatVecPackedAvx2(packed, v.data(), x.data(), y.data(), begin, end);
    } else {
      spk::MatVecScalar(view, v.data(), x.data(), y.data(), begin, end);
    }
  });
}

void SparseIntervalMatrix::MultiplyMid(const std::vector<double>& x,
                                       std::vector<double>& y) const {
  IVMF_CHECK(x.size() == cols_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  const spk::Backend backend = spk::Resolve(ResolvedKernel());
  static VariantCounters counters("multiply_mid");
  counters.For(backend).Count(rows_, nnz());
  y.resize(rows_);
  if (backend == spk::Backend::kSell) {
    EnsureSell().MatVecMid(x.data(), y.data());
    return;
  }
  const spk::CsrView view = View();
  const bool avx2 = backend == spk::Backend::kAvx2;
  const spk::PackedCsrView packed =
      avx2 ? PackedView() : spk::PackedCsrView{};
  ForRowBlocks(rows_, 512, [&](size_t begin, size_t end) {
    if (avx2) {
      spk::MatVecMidPackedAvx2(packed, lo_.data(), hi_.data(), x.data(),
                               y.data(), begin, end);
    } else {
      spk::MatVecMidScalar(view, lo_.data(), hi_.data(), x.data(), y.data(),
                           begin, end);
    }
  });
}

void SparseIntervalMatrix::MultiplyTranspose(Endpoint e,
                                             const std::vector<double>& x,
                                             std::vector<double>& y) const {
  IVMF_CHECK(x.size() == rows_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  // SELL stores the forward pattern only; the scatter falls back to the
  // dispatched CSR variant (AVX2 register-blocks the multiply — no scatter
  // instruction exists pre-AVX512, so stores stay scalar).
  const spk::Backend backend = spk::CsrVariant(ResolvedKernel());
  static VariantCounters counters("multiply_transpose");
  counters.For(backend).Count(rows_, nnz());
  const std::vector<double>& v = values(e);
  const spk::CsrView view = View();
  y.resize(cols_);
  ScatterRows(rows_, nnz(), cols_, y.data(), nullptr,
              [&](double* out, double*, size_t begin, size_t end) {
                if (backend == spk::Backend::kAvx2) {
                  spk::MatVecTAvx2(view, v.data(), x.data(), out, begin, end);
                } else {
                  spk::MatVecTScalar(view, v.data(), x.data(), out, begin,
                                     end);
                }
              });
}

void SparseIntervalMatrix::GramMultiply(Endpoint e,
                                        const std::vector<double>& x,
                                        std::vector<double>& y) const {
  IVMF_CHECK(x.size() == cols_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  // One pass over the pattern: each row's dot against x scatters back scaled
  // by the row values while the row is cache-hot — half the memory traffic
  // of Multiply + MultiplyTranspose. SELL stores forward-matvec kernels
  // only, so the fused form uses the dispatched CSR variant.
  const spk::Backend backend = spk::CsrVariant(ResolvedKernel());
  static VariantCounters counters("gram_fused");
  counters.For(backend).Count(rows_, nnz());
  const std::vector<double>& v = values(e);
  const spk::CsrView view = View();
  const bool avx2 = backend == spk::Backend::kAvx2;
  const spk::PackedCsrView packed =
      avx2 ? PackedView() : spk::PackedCsrView{};
  y.resize(cols_);
  ScatterRows(rows_, nnz(), cols_, y.data(), nullptr,
              [&](double* out, double*, size_t begin, size_t end) {
                if (avx2) {
                  spk::GramFusedPackedAvx2(packed, v.data(), x.data(), out,
                                           begin, end);
                } else {
                  spk::GramFusedScalar(view, v.data(), x.data(), out, begin,
                                       end);
                }
              });
}

Matrix SparseIntervalMatrix::MultiplyDense(Endpoint e, const Matrix& b) const {
  IVMF_CHECK_MSG(b.rows() == cols_, "sparse x dense dimension mismatch");
  // Guard the degenerate operand before touching storage: a zero-column B
  // has no data, so the kernels must not be handed its (null) base pointer.
  if (b.cols() == 0 || rows_ == 0) return Matrix(rows_, b.cols());
  // SELL stores matvec-shaped kernels only; dense products use the
  // dispatched CSR variant (vectorized across the dense columns).
  const spk::Backend backend = spk::CsrVariant(ResolvedKernel());
  static VariantCounters counters("multiply_dense");
  counters.For(backend).Count(rows_, nnz());
  const std::vector<double>& v = values(e);
  const spk::CsrView view = View();
  Matrix c(rows_, b.cols());
  ForRowBlocks(rows_, 64, [&](size_t begin, size_t end) {
    if (backend == spk::Backend::kAvx2) {
      spk::MatDenseAvx2(view, v.data(), b.data(), b.cols(), c.data(), begin,
                        end);
    } else {
      spk::MatDenseScalar(view, v.data(), b.data(), b.cols(), c.data(), begin,
                          end);
    }
  });
  return c;
}

IntervalMatrix SparseIntervalMatrix::IntervalMultiplyDense(
    const Matrix& b) const {
  IVMF_CHECK_MSG(b.rows() == cols_, "sparse x dense dimension mismatch");
  // Same construction as the dense IntervalMatMul(A†, scalar B): elementwise
  // min / max over the two full endpoint products — computed fused, one
  // pattern pass feeding both endpoint accumulations.
  Matrix p_lo(rows_, b.cols());
  Matrix p_hi(rows_, b.cols());
  if (b.cols() > 0 && rows_ > 0) {
    const spk::Backend backend = spk::CsrVariant(ResolvedKernel());
    static VariantCounters counters("multiply_dense_both");
    counters.For(backend).Count(rows_, nnz());
    const spk::CsrView view = View();
    ForRowBlocks(rows_, 64, [&](size_t begin, size_t end) {
      if (backend == spk::Backend::kAvx2) {
        spk::MatDenseBothAvx2(view, lo_.data(), hi_.data(), b.data(),
                              b.cols(), p_lo.data(), p_hi.data(), begin, end);
      } else {
        spk::MatDenseBothScalar(view, lo_.data(), hi_.data(), b.data(),
                                b.cols(), p_lo.data(), p_hi.data(), begin,
                                end);
      }
    });
  }
  Matrix lo(p_lo.rows(), p_lo.cols());
  Matrix hi(p_lo.rows(), p_lo.cols());
  for (size_t i = 0; i < lo.rows(); ++i) {
    for (size_t j = 0; j < lo.cols(); ++j) {
      lo(i, j) = std::min(p_lo(i, j), p_hi(i, j));
      hi(i, j) = std::max(p_lo(i, j), p_hi(i, j));
    }
  }
  return IntervalMatrix(std::move(lo), std::move(hi));
}

IntervalMatrix SparseIntervalMatrix::IntervalMultiplyDenseTranspose(
    const Matrix& b) const {
  IVMF_CHECK_MSG(b.rows() == rows_, "sparse x dense dimension mismatch");
  // Transpose().IntervalMultiplyDense(b) without building the transpose:
  // row blocks scatter A_*ᵀ B and A^*ᵀ B in one pattern pass, then the
  // elementwise min / max makes the interval. The scatter has no
  // vectorized variant, so every backend runs the packed scalar kernel.
  const size_t bcols = b.cols();
  Matrix lo(cols_, bcols);
  Matrix hi(cols_, bcols);
  if (bcols == 0 || rows_ == 0 || cols_ == 0) {
    return IntervalMatrix(std::move(lo), std::move(hi));
  }
  static KernelCounters counters("multiply_dense_t_both", "scalar");
  counters.Count(rows_, nnz());
  const spk::PackedCsrView packed = PackedView();
  double* p_lo = lo.data();
  double* p_hi = hi.data();
  ScatterRows(rows_, nnz(), cols_ * bcols, p_lo, p_hi,
              [&](double* out_lo, double* out_hi, size_t begin, size_t end) {
                spk::MatDenseTBothPackedScalar(packed, lo_.data(), hi_.data(),
                                               b.data(), bcols, out_lo,
                                               out_hi, begin, end);
              });
  for (size_t k = 0; k < cols_ * bcols; ++k) {
    const double a = p_lo[k];
    const double c = p_hi[k];
    p_lo[k] = std::min(a, c);
    p_hi[k] = std::max(a, c);
  }
  return IntervalMatrix(std::move(lo), std::move(hi));
}

std::vector<double> SparseIntervalMatrix::RowNorms(Endpoint e) const {
  const std::vector<double>& v = values(e);
  std::vector<double> norms(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) sum += v[k] * v[k];
    norms[i] = std::sqrt(sum);
  }
  return norms;
}

std::vector<double> SparseIntervalMatrix::ColNorms(Endpoint e) const {
  const std::vector<double>& v = values(e);
  std::vector<double> sums(cols_, 0.0);
  for (size_t k = 0; k < col_idx_.size(); ++k) {
    sums[col_idx_[k]] += v[k] * v[k];
  }
  for (double& s : sums) s = std::sqrt(s);
  return sums;
}

}  // namespace ivmf
