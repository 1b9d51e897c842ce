#include "sparse/block_matrix.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <utility>

#include "base/check.h"
#include "base/parallel.h"
#include "obs/metrics.h"
#include "sparse/dense_gram.h"

namespace ivmf {

namespace {

// Per-kernel counters for the sharded dispatch, tagged like the monolithic
// sparse.matvec family but with the shard-task count alongside rows/nnz —
// the per-shard matvec accounting the observability layer scrapes.
struct ShardedKernelCounters {
  obs::Counter& calls;
  obs::Counter& shards;
  obs::Counter& rows;
  obs::Counter& nnz;

  explicit ShardedKernelCounters(const char* kernel)
      : calls(obs::MetricsRegistry::Global().GetCounter(
            "sparse.sharded.matvec.calls", {{"kernel", kernel}})),
        shards(obs::MetricsRegistry::Global().GetCounter(
            "sparse.sharded.matvec.shards", {{"kernel", kernel}})),
        rows(obs::MetricsRegistry::Global().GetCounter(
            "sparse.sharded.matvec.rows", {{"kernel", kernel}})),
        nnz(obs::MetricsRegistry::Global().GetCounter(
            "sparse.sharded.matvec.nnz", {{"kernel", kernel}})) {}

  void Count(size_t num_shards, size_t rows_processed, size_t nnz_processed) {
    calls.Add(1);
    shards.Add(num_shards);
    rows.Add(rows_processed);
    nnz.Add(nnz_processed);
  }
};

// Column of packed entry k, whichever index width the view carries.
inline size_t ColAt(const spk::PackedCsrView& view, size_t k) {
  return view.col16 != nullptr ? static_cast<size_t>(view.col16[k])
                               : static_cast<size_t>(view.col32[k]);
}

// ColAt as an indexable column array, for the dense_gram accumulators.
struct PackedCols {
  const spk::PackedCsrView& view;
  size_t operator[](size_t k) const { return ColAt(view, k); }
};

void EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    IVMF_CHECK_MSG(false, "cannot create the shard store directory");
  }
}

}  // namespace

ShardedSparseIntervalMatrix::~ShardedSparseIntervalMatrix() {
  if (owns_store_ && !store_dir_.empty()) {
    shards_.clear();  // unmap before unlinking
    RemoveStoreDir(store_dir_);
  }
}

ShardedSparseIntervalMatrix::ShardedSparseIntervalMatrix(
    ShardedSparseIntervalMatrix&& other) noexcept {
  *this = std::move(other);
}

ShardedSparseIntervalMatrix& ShardedSparseIntervalMatrix::operator=(
    ShardedSparseIntervalMatrix&& other) noexcept {
  if (this == &other) return *this;
  if (owns_store_ && !store_dir_.empty()) {
    shards_.clear();
    RemoveStoreDir(store_dir_);
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  nnz_ = other.nnz_;
  shard_rows_ = other.shard_rows_;
  shards_ = std::move(other.shards_);
  base_ = std::move(other.base_);
  resolved_ = other.resolved_;
  csr_variant_ = other.csr_variant_;
  mmap_backed_ = other.mmap_backed_;
  store_dir_ = std::move(other.store_dir_);
  owns_store_ = other.owns_store_;
  drop_residency_ = other.drop_residency_;
  other.rows_ = other.cols_ = other.nnz_ = other.shard_rows_ = 0;
  other.shards_.clear();
  other.mmap_backed_ = false;
  other.store_dir_.clear();
  other.owns_store_ = false;
  other.drop_residency_ = false;
  return *this;
}

ShardedSparseIntervalMatrix::SegRef ShardedSparseIntervalMatrix::Seg(
    size_t s) const {
  const Shard& sh = shards_[s];
  SegRef seg;
  if (base_ != nullptr) {
    seg.view = base_->PackedView();
    seg.lo = base_->lo_.data();
    seg.hi = base_->hi_.data();
    seg.row_begin = sh.row_begin;
    seg.row_end = sh.row_begin + sh.rows;
    seg.offset = 0;
  } else if (sh.mapped.valid()) {
    seg.view = {sh.rows, cols_, sh.mapped.row_ptr(), nullptr, sh.mapped.col()};
    seg.lo = sh.mapped.lo();
    seg.hi = sh.mapped.hi();
    seg.row_begin = 0;
    seg.row_end = sh.rows;
    seg.offset = sh.row_begin;
    seg.mapped = &sh.mapped;
  } else {
    seg.view = {sh.rows, cols_, sh.row_ptr.data(), nullptr, sh.col.data()};
    seg.lo = sh.lo.data();
    seg.hi = sh.hi.data();
    seg.row_begin = 0;
    seg.row_end = sh.rows;
    seg.offset = sh.row_begin;
    seg.sell = sh.sell.get();
  }
  return seg;
}

void ShardedSparseIntervalMatrix::MaybeDropResidency(const SegRef& seg) const {
  if (drop_residency_ && seg.mapped != nullptr) seg.mapped->DropResidency();
}

void ShardedSparseIntervalMatrix::ResolveBackend(spk::Backend request) {
  if (request == spk::Backend::kAuto) {
    const spk::Backend env = spk::EnvBackend();
    if (env != spk::Backend::kAuto) {
      request = env;
    } else if (rows_ > 0 && nnz_ > 0) {
      // The same row-length statistics pass as the monolithic
      // ResolvedKernel, run over the shard-local offset arrays.
      const double mean =
          static_cast<double>(nnz_) / static_cast<double>(rows_);
      double var = 0.0;
      for (const Shard& sh : shards_) {
        const size_t* rp;
        size_t begin = 0;
        if (base_ != nullptr) {
          rp = base_->row_ptr_.data();
          begin = sh.row_begin;
        } else if (sh.mapped.valid()) {
          rp = sh.mapped.row_ptr();
        } else {
          rp = sh.row_ptr.data();
        }
        for (size_t r = 0; r < sh.rows; ++r) {
          const double d =
              static_cast<double>(rp[begin + r + 1] - rp[begin + r]) - mean;
          var += d * d;
        }
      }
      const double cv =
          mean > 0.0 ? std::sqrt(var / static_cast<double>(rows_)) / mean
                     : 0.0;
      request = spk::ChooseAutoBackend(mean, cv, spk::Avx2Supported());
    }
  }
  resolved_ = spk::Resolve(request);
  csr_variant_ = spk::CsrVariant(resolved_);
}

void ShardedSparseIntervalMatrix::BuildSellSidecars() {
  if (resolved_ != spk::Backend::kSell) return;
  // SELL packs are built for memory-owned shards only: a mapped segment's
  // arrays live in the page cache (packing would defeat the budget), and a
  // view shard would duplicate the base's own sidecar machinery.
  for (Shard& sh : shards_) {
    if (base_ != nullptr || sh.mapped.valid() || sh.rows == 0) continue;
    std::vector<size_t> col(sh.col.begin(), sh.col.end());
    sh.sell = std::make_shared<const SellPack>(sh.rows, cols_, sh.row_ptr,
                                               col, sh.lo, sh.hi);
  }
}

ShardedSparseIntervalMatrix ShardedSparseIntervalMatrix::FromCsr(
    const SparseIntervalMatrix& m, size_t shard_rows, BackingPolicy policy) {
  IVMF_CHECK_MSG(shard_rows > 0, "shard_rows must be positive");
  IVMF_CHECK_MSG(m.cols() <= size_t{0xffffffff},
                 "packed shard indices require cols <= 2^32");
  ShardedSparseIntervalMatrix out;
  out.rows_ = m.rows();
  out.cols_ = m.cols();
  out.nnz_ = m.nnz();
  out.shard_rows_ = shard_rows;
  const size_t num_shards =
      out.rows_ == 0 ? 0 : (out.rows_ + shard_rows - 1) / shard_rows;

  const std::vector<size_t>& row_ptr = m.row_ptr();
  const std::vector<size_t>& col_idx = m.col_idx();

  bool mmap = policy.kind == BackingPolicy::Kind::kMmap;
  if (policy.kind == BackingPolicy::Kind::kAuto && policy.budget_bytes > 0) {
    size_t estimate = 0;
    for (size_t k = 0; k < num_shards; ++k) {
      const size_t rb = k * shard_rows;
      const size_t re = std::min(out.rows_, rb + shard_rows);
      estimate += ShardFileBytes(re - rb, row_ptr[re] - row_ptr[rb]);
    }
    mmap = estimate > policy.budget_bytes;
  }
  if (mmap) {
    out.mmap_backed_ = true;
    out.owns_store_ = policy.store_dir.empty();
    out.drop_residency_ = policy.budget_bytes > 0;
    if (out.owns_store_) {
      std::string error;
      out.store_dir_ = CreateTempStoreDir(&error);
      IVMF_CHECK_MSG(!out.store_dir_.empty(),
                     "cannot create a temporary shard store");
    } else {
      out.store_dir_ = policy.store_dir;
      EnsureDir(out.store_dir_);
    }
  }

  out.shards_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    const size_t rb = k * shard_rows;
    const size_t re = std::min(out.rows_, rb + shard_rows);
    const size_t base = row_ptr[rb];
    const size_t snnz = row_ptr[re] - base;

    std::vector<size_t> local_ptr(re - rb + 1);
    for (size_t r = 0; r <= re - rb; ++r) local_ptr[r] = row_ptr[rb + r] - base;
    std::vector<uint32_t> col(snnz);
    for (size_t i = 0; i < snnz; ++i) {
      col[i] = static_cast<uint32_t>(col_idx[base + i]);
    }
    std::vector<double> lo(m.lower_values().begin() + base,
                           m.lower_values().begin() + base + snnz);
    std::vector<double> hi(m.upper_values().begin() + base,
                           m.upper_values().begin() + base + snnz);

    Shard sh;
    sh.row_begin = rb;
    sh.rows = re - rb;
    sh.nnz = snnz;
    if (mmap) {
      const std::string path = out.store_dir_ + "/" + ShardFileName(k);
      std::string error;
      IVMF_CHECK_MSG(WriteShardFile(path, sh.rows, out.cols_, local_ptr.data(),
                                    col.data(), lo.data(), hi.data(), &error),
                     "shard segment write failed");
      IVMF_CHECK_MSG(MapShardFile(path, &sh.mapped, &error),
                     "shard segment map failed");
      sh.mapped.AdviseSequential();
      // Map-time validation faulted the segment in; budgets want it gone.
      if (out.drop_residency_) sh.mapped.DropResidency();
    } else {
      sh.row_ptr = std::move(local_ptr);
      sh.col = std::move(col);
      sh.lo = std::move(lo);
      sh.hi = std::move(hi);
    }
    out.shards_.push_back(std::move(sh));
  }

  out.ResolveBackend(m.kernel());
  out.BuildSellSidecars();
  return out;
}

ShardedSparseIntervalMatrix ShardedSparseIntervalMatrix::FromTriplets(
    size_t rows, size_t cols, std::vector<IntervalTriplet> triplets,
    size_t shard_rows, BackingPolicy policy, DuplicatePolicy duplicates) {
  return FromCsr(SparseIntervalMatrix::FromTriplets(rows, cols,
                                                    std::move(triplets),
                                                    duplicates),
                 shard_rows, policy);
}

ShardedSparseIntervalMatrix ShardedSparseIntervalMatrix::View(
    std::shared_ptr<const SparseIntervalMatrix> base, size_t shard_rows) {
  IVMF_CHECK(base != nullptr);
  IVMF_CHECK_MSG(shard_rows > 0, "shard_rows must be positive");
  ShardedSparseIntervalMatrix out;
  out.rows_ = base->rows();
  out.cols_ = base->cols();
  out.nnz_ = base->nnz();
  out.shard_rows_ = shard_rows;
  const size_t num_shards =
      out.rows_ == 0 ? 0 : (out.rows_ + shard_rows - 1) / shard_rows;
  out.shards_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    const size_t rb = k * shard_rows;
    const size_t re = std::min(out.rows_, rb + shard_rows);
    Shard sh;
    sh.row_begin = rb;
    sh.rows = re - rb;
    sh.nnz = base->row_ptr()[re] - base->row_ptr()[rb];
    out.shards_.push_back(std::move(sh));
  }
  const spk::Backend request = base->ResolvedKernel();
  out.base_ = std::move(base);
  out.ResolveBackend(request);
  return out;
}

bool ShardedSparseIntervalMatrix::OpenStore(const std::string& dir,
                                            ShardedSparseIntervalMatrix* out,
                                            std::string* error) {
  IVMF_CHECK(out != nullptr && error != nullptr);
  ShardedSparseIntervalMatrix m;
  m.store_dir_ = dir;
  m.mmap_backed_ = true;
  size_t row_begin = 0;
  for (size_t k = 0;; ++k) {
    const std::string path = dir + "/" + ShardFileName(k);
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) break;  // first gap ends the store
    MappedSegment seg;
    if (!MapShardFile(path, &seg, error)) return false;
    if (k == 0) {
      m.cols_ = seg.cols();  // MapShardFile bounds it to the u32 range
    } else if (seg.cols() != m.cols_) {
      *error = path + ": shard column count differs from shard 0";
      return false;
    }
    seg.AdviseSequential();
    Shard sh;
    sh.row_begin = row_begin;
    sh.rows = seg.rows();
    sh.nnz = seg.nnz();
    row_begin += seg.rows();
    m.nnz_ += seg.nnz();
    sh.mapped = std::move(seg);
    m.shards_.push_back(std::move(sh));
  }
  if (m.shards_.empty()) {
    *error = dir + ": no " + ShardFileName(0) + " (not a shard store)";
    return false;
  }
  const size_t sr = m.shards_.front().rows;
  for (size_t k = 0; k + 1 < m.shards_.size(); ++k) {
    if (m.shards_[k].rows != sr) {
      *error = dir + ": interior shards must share one row count";
      return false;
    }
  }
  if (m.shards_.size() > 1 && (sr == 0 || m.shards_.back().rows > sr)) {
    *error = dir + ": trailing shard larger than the shard row count";
    return false;
  }
  m.rows_ = row_begin;
  m.shard_rows_ = sr > 0 ? sr : 1;
  m.ResolveBackend(spk::Backend::kAuto);
  *out = std::move(m);
  return true;
}

// -- Builder -----------------------------------------------------------------

ShardedSparseIntervalMatrix::Builder::Builder(size_t rows, size_t cols,
                                              size_t shard_rows,
                                              BackingPolicy policy) {
  IVMF_CHECK_MSG(shard_rows > 0, "shard_rows must be positive");
  IVMF_CHECK_MSG(cols <= size_t{0xffffffff},
                 "packed shard indices require cols <= 2^32");
  m_.rows_ = rows;
  m_.cols_ = cols;
  m_.shard_rows_ = shard_rows;
  // kAuto resolves pessimistically to mmap: a streaming builder cannot know
  // the final store size up front, and the caller asking for a budget is
  // asking not to hold the matrix in memory.
  mmap_ = policy.kind != BackingPolicy::Kind::kMemory;
  if (mmap_) {
    m_.mmap_backed_ = true;
    m_.owns_store_ = policy.store_dir.empty();
    m_.drop_residency_ = policy.budget_bytes > 0;
    if (m_.owns_store_) {
      std::string error;
      m_.store_dir_ = CreateTempStoreDir(&error);
      IVMF_CHECK_MSG(!m_.store_dir_.empty(),
                     "cannot create a temporary shard store");
    } else {
      m_.store_dir_ = policy.store_dir;
      EnsureDir(m_.store_dir_);
    }
  }
  row_ptr_.assign(1, 0);
}

void ShardedSparseIntervalMatrix::Builder::Append(size_t row, size_t col,
                                                  const Interval& value) {
  IVMF_CHECK_MSG(!finished_, "Append after Finish");
  IVMF_CHECK_MSG(row < m_.rows_ && col < m_.cols_,
                 "builder entry outside the matrix shape");
  IVMF_CHECK_MSG(!row_open_ || row > next_row_ ||
                     (row == next_row_ && col > last_col_),
                 "builder entries must arrive in ascending (row, col) order");
  while (row >=
         flushed_rows_ + std::min(m_.shard_rows_, m_.rows_ - flushed_rows_)) {
    FlushShard();
  }
  const size_t local = row - flushed_rows_;
  while (row_ptr_.size() < local + 1) row_ptr_.push_back(col_.size());
  col_.push_back(static_cast<uint32_t>(col));
  lo_.push_back(value.lo);
  hi_.push_back(value.hi);
  if (row_ptr_.size() == local + 1) {
    row_ptr_.push_back(col_.size());
  } else {
    row_ptr_[local + 1] = col_.size();
  }
  row_open_ = true;
  next_row_ = row;
  last_col_ = col;
}

void ShardedSparseIntervalMatrix::Builder::FlushShard() {
  const size_t begin = flushed_rows_;
  const size_t n = std::min(m_.shard_rows_, m_.rows_ - begin);
  while (row_ptr_.size() < n + 1) row_ptr_.push_back(col_.size());

  Shard sh;
  sh.row_begin = begin;
  sh.rows = n;
  sh.nnz = col_.size();
  if (mmap_) {
    const std::string path =
        m_.store_dir_ + "/" + ShardFileName(m_.shards_.size());
    std::string error;
    IVMF_CHECK_MSG(WriteShardFile(path, n, m_.cols_, row_ptr_.data(),
                                  col_.data(), lo_.data(), hi_.data(), &error),
                   "shard segment write failed");
    IVMF_CHECK_MSG(MapShardFile(path, &sh.mapped, &error),
                   "shard segment map failed");
    sh.mapped.AdviseSequential();
    // Map-time validation faulted the whole segment in; under a budget the
    // builder's resident set must stay one shard, not the growing store.
    if (m_.drop_residency_) sh.mapped.DropResidency();
    row_ptr_.clear();
    col_.clear();
    lo_.clear();
    hi_.clear();
  } else {
    sh.row_ptr = std::move(row_ptr_);
    sh.col = std::move(col_);
    sh.lo = std::move(lo_);
    sh.hi = std::move(hi_);
    row_ptr_ = {};
    col_ = {};
    lo_ = {};
    hi_ = {};
  }
  row_ptr_.push_back(0);
  m_.nnz_ += sh.nnz;
  m_.shards_.push_back(std::move(sh));
  flushed_rows_ += n;
}

ShardedSparseIntervalMatrix ShardedSparseIntervalMatrix::Builder::Finish() {
  IVMF_CHECK_MSG(!finished_, "Finish called twice");
  finished_ = true;
  while (flushed_rows_ < m_.rows_) FlushShard();
  m_.ResolveBackend(spk::Backend::kAuto);
  m_.BuildSellSidecars();
  return std::move(m_);
}

// -- Element access & structure ----------------------------------------------

Interval ShardedSparseIntervalMatrix::At(size_t i, size_t j) const {
  IVMF_DCHECK(i < rows_ && j < cols_);
  if (base_ != nullptr) return base_->At(i, j);
  if (shards_.empty()) return Interval();
  const size_t s = std::min(i / shard_rows_, shards_.size() - 1);
  const Shard& sh = shards_[s];
  const size_t r = i - sh.row_begin;
  const size_t* rp = sh.mapped.valid() ? sh.mapped.row_ptr()
                                       : sh.row_ptr.data();
  const uint32_t* col = sh.mapped.valid() ? sh.mapped.col() : sh.col.data();
  const double* lo = sh.mapped.valid() ? sh.mapped.lo() : sh.lo.data();
  const double* hi = sh.mapped.valid() ? sh.mapped.hi() : sh.hi.data();
  const uint32_t* begin = col + rp[r];
  const uint32_t* end = col + rp[r + 1];
  const uint32_t* it =
      std::lower_bound(begin, end, static_cast<uint32_t>(j));
  if (it == end || *it != j) return Interval();
  const size_t k = static_cast<size_t>(it - col);
  return Interval(lo[k], hi[k]);
}

SparseIntervalMatrix ShardedSparseIntervalMatrix::ToCsr() const {
  if (base_ != nullptr) return *base_;
  std::vector<size_t> row_ptr(rows_ + 1, 0);
  std::vector<size_t> col_idx;
  std::vector<double> lo;
  std::vector<double> hi;
  col_idx.reserve(nnz_);
  lo.reserve(nnz_);
  hi.reserve(nnz_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    const SegRef seg = Seg(s);
    for (size_t i = seg.row_begin; i < seg.row_end; ++i) {
      row_ptr[i + seg.offset + 1] =
          seg.view.row_ptr[i + 1] - seg.view.row_ptr[i];
      for (size_t k = seg.view.row_ptr[i]; k < seg.view.row_ptr[i + 1]; ++k) {
        col_idx.push_back(ColAt(seg.view, k));
        lo.push_back(seg.lo[k]);
        hi.push_back(seg.hi[k]);
      }
    }
  }
  for (size_t i = 0; i < rows_; ++i) row_ptr[i + 1] += row_ptr[i];
  return SparseIntervalMatrix::FromCsr(rows_, cols_, std::move(row_ptr),
                                       std::move(col_idx), std::move(lo),
                                       std::move(hi));
}

bool ShardedSparseIntervalMatrix::IsProper() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const SegRef seg = Seg(s);
    const size_t begin = seg.view.row_ptr[seg.row_begin];
    const size_t end = seg.view.row_ptr[seg.row_end];
    for (size_t k = begin; k < end; ++k) {
      if (seg.lo[k] > seg.hi[k]) return false;
    }
    MaybeDropResidency(seg);
  }
  return true;
}

bool ShardedSparseIntervalMatrix::IsNonNegative(double tol) const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const SegRef seg = Seg(s);
    const size_t begin = seg.view.row_ptr[seg.row_begin];
    const size_t end = seg.view.row_ptr[seg.row_end];
    for (size_t k = begin; k < end; ++k) {
      if (seg.lo[k] < -tol) return false;
    }
    MaybeDropResidency(seg);
  }
  return true;
}

// -- Forward kernels (row-parallel over shards) ------------------------------

void ShardedSparseIntervalMatrix::MultiplySeg(const SegRef& seg, Endpoint e,
                                              const double* x,
                                              double* y) const {
  const double* v = e == Endpoint::kLower ? seg.lo : seg.hi;
  if (seg.sell != nullptr) {
    seg.sell->MatVec(e == Endpoint::kUpper, x, y + seg.offset);
  } else if (csr_variant_ == spk::Backend::kAvx2) {
    spk::MatVecPackedAvx2(seg.view, v, x, y + seg.offset, seg.row_begin,
                          seg.row_end);
  } else {
    spk::MatVecPackedScalar(seg.view, v, x, y + seg.offset, seg.row_begin,
                            seg.row_end);
  }
}

void ShardedSparseIntervalMatrix::Multiply(Endpoint e,
                                           const std::vector<double>& x,
                                           std::vector<double>& y) const {
  IVMF_CHECK(x.size() == cols_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  static ShardedKernelCounters counters("multiply");
  counters.Count(shards_.size(), rows_, nnz_);
  y.resize(rows_);
  ParallelFor(0, shards_.size(), [&](size_t s) {
    const SegRef seg = Seg(s);
    MultiplySeg(seg, e, x.data(), y.data());
    MaybeDropResidency(seg);
  });
}

void ShardedSparseIntervalMatrix::MultiplyMid(const std::vector<double>& x,
                                              std::vector<double>& y) const {
  IVMF_CHECK(x.size() == cols_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  static ShardedKernelCounters counters("multiply_mid");
  counters.Count(shards_.size(), rows_, nnz_);
  y.resize(rows_);
  ParallelFor(0, shards_.size(), [&](size_t s) {
    const SegRef seg = Seg(s);
    if (seg.sell != nullptr) {
      seg.sell->MatVecMid(x.data(), y.data() + seg.offset);
    } else if (csr_variant_ == spk::Backend::kAvx2) {
      spk::MatVecMidPackedAvx2(seg.view, seg.lo, seg.hi, x.data(),
                               y.data() + seg.offset, seg.row_begin,
                               seg.row_end);
    } else {
      spk::MatVecMidPackedScalar(seg.view, seg.lo, seg.hi, x.data(),
                                 y.data() + seg.offset, seg.row_begin,
                                 seg.row_end);
    }
    MaybeDropResidency(seg);
  });
}

Matrix ShardedSparseIntervalMatrix::MultiplyDense(Endpoint e,
                                                  const Matrix& b) const {
  IVMF_CHECK_MSG(b.rows() == cols_, "sparse x dense dimension mismatch");
  Matrix c(rows_, b.cols());
  if (b.cols() == 0 || rows_ == 0) return c;
  static ShardedKernelCounters counters("multiply_dense");
  counters.Count(shards_.size(), rows_, nnz_);
  const size_t bcols = b.cols();
  ParallelFor(0, shards_.size(), [&](size_t s) {
    const SegRef seg = Seg(s);
    const double* v = e == Endpoint::kLower ? seg.lo : seg.hi;
    spk::MatDensePackedScalar(seg.view, v, b.data(), bcols,
                              c.data() + seg.offset * bcols, seg.row_begin,
                              seg.row_end);
    MaybeDropResidency(seg);
  });
  return c;
}

IntervalMatrix ShardedSparseIntervalMatrix::IntervalMultiplyDense(
    const Matrix& b) const {
  IVMF_CHECK_MSG(b.rows() == cols_, "sparse x dense dimension mismatch");
  Matrix p_lo(rows_, b.cols());
  Matrix p_hi(rows_, b.cols());
  if (b.cols() > 0 && rows_ > 0) {
    static ShardedKernelCounters counters("multiply_dense_both");
    counters.Count(shards_.size(), rows_, nnz_);
    const size_t bcols = b.cols();
    ParallelFor(0, shards_.size(), [&](size_t s) {
      const SegRef seg = Seg(s);
      spk::MatDenseBothPackedScalar(seg.view, seg.lo, seg.hi, b.data(), bcols,
                                    p_lo.data() + seg.offset * bcols,
                                    p_hi.data() + seg.offset * bcols,
                                    seg.row_begin, seg.row_end);
      MaybeDropResidency(seg);
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

// -- Scatter reductions (group-partitioned partials) -------------------------

template <typename ScatterFn>
void ShardedSparseIntervalMatrix::ReduceOverShards(
    size_t acc_len, ScatterFn&& scatter, std::vector<double>* out0,
    std::vector<double>* out1) const {
  const size_t num_shards = shards_.size();
  // The same deterministic partition math as the monolithic reduction
  // kernels (kMinRowsPerThread = 2048, column reduce at 4096), except that
  // work splits on shard boundaries: each group owns a contiguous shard
  // range and scatters it sequentially into private accumulators.
  constexpr size_t kMinRowsPerThread = 2048;
  size_t groups = SuggestedThreads(rows_);
  const size_t cap = (rows_ + kMinRowsPerThread - 1) / kMinRowsPerThread;
  if (groups > cap) groups = cap;
  if (groups > num_shards) groups = num_shards;

  if (groups <= 1) {
    out0->assign(acc_len, 0.0);
    if (out1 != nullptr) out1->assign(acc_len, 0.0);
    for (size_t s = 0; s < num_shards; ++s) {
      const SegRef seg = Seg(s);
      scatter(seg, out0->data(), out1 != nullptr ? out1->data() : nullptr);
      MaybeDropResidency(seg);
    }
    return;
  }

  const size_t per_group = (num_shards + groups - 1) / groups;
  std::vector<std::vector<double>> parts0(groups);
  std::vector<std::vector<double>> parts1(out1 != nullptr ? groups : 0);
  ParallelFor(
      0, groups,
      [&](size_t g) {
        parts0[g].assign(acc_len, 0.0);
        double* p1 = nullptr;
        if (out1 != nullptr) {
          parts1[g].assign(acc_len, 0.0);
          p1 = parts1[g].data();
        }
        const size_t s_begin = g * per_group;
        const size_t s_end = std::min(num_shards, s_begin + per_group);
        for (size_t s = s_begin; s < s_end; ++s) {
          const SegRef seg = Seg(s);
          scatter(seg, parts0[g].data(), p1);
          MaybeDropResidency(seg);
        }
      },
      /*max_threads=*/groups);
  out0->resize(acc_len);
  if (out1 != nullptr) out1->resize(acc_len);
  ParallelFor(
      0, acc_len,
      [&](size_t j) {
        double sum0 = 0.0;
        for (size_t g = 0; g < groups; ++g) sum0 += parts0[g][j];
        (*out0)[j] = sum0;
        if (out1 != nullptr) {
          double sum1 = 0.0;
          for (size_t g = 0; g < groups; ++g) sum1 += parts1[g][j];
          (*out1)[j] = sum1;
        }
      },
      /*max_threads=*/0, /*min_items_per_thread=*/4096);
}

void ShardedSparseIntervalMatrix::ScatterSeg(const SegRef& seg, Endpoint e,
                                             const double* x,
                                             double* y) const {
  const double* v = e == Endpoint::kLower ? seg.lo : seg.hi;
  const double* xs = x + seg.offset;
  if (seg.sell != nullptr) {
    seg.sell->MatVecT(e == Endpoint::kUpper, xs, y, 0, seg.sell->chunks());
  } else if (csr_variant_ == spk::Backend::kAvx2) {
    spk::MatVecTPackedAvx2(seg.view, v, xs, y, seg.row_begin, seg.row_end);
  } else {
    spk::MatVecTPackedScalar(seg.view, v, xs, y, seg.row_begin, seg.row_end);
  }
}

void ShardedSparseIntervalMatrix::MultiplyTranspose(
    Endpoint e, const std::vector<double>& x, std::vector<double>& y) const {
  IVMF_CHECK(x.size() == rows_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  static ShardedKernelCounters counters("multiply_transpose");
  counters.Count(shards_.size(), rows_, nnz_);
  ReduceOverShards(
      cols_,
      [&](const SegRef& seg, double* p0, double* /*p1*/) {
        ScatterSeg(seg, e, x.data(), p0);
      },
      &y, nullptr);
}

void ShardedSparseIntervalMatrix::MultiplyTransposeMid(
    const std::vector<double>& x, std::vector<double>& y) const {
  IVMF_CHECK(x.size() == rows_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  static ShardedKernelCounters counters("multiply_transpose_mid");
  counters.Count(shards_.size(), rows_, nnz_);
  ReduceOverShards(
      cols_,
      [&](const SegRef& seg, double* p0, double* /*p1*/) {
        const double* xs = x.data() + seg.offset;
        if (seg.sell != nullptr) {
          seg.sell->MatVecTMid(xs, p0, 0, seg.sell->chunks());
        } else {
          spk::MatVecTMidPackedScalar(seg.view, seg.lo, seg.hi, xs, p0,
                                      seg.row_begin, seg.row_end);
        }
      },
      &y, nullptr);
}

void ShardedSparseIntervalMatrix::GramSeg(const SegRef& seg, Endpoint e,
                                          const double* x, double* y) const {
  const double* v = e == Endpoint::kLower ? seg.lo : seg.hi;
  if (seg.sell != nullptr) {
    seg.sell->GramMultiply(e == Endpoint::kUpper, x, y, 0,
                           seg.sell->chunks());
  } else if (csr_variant_ == spk::Backend::kAvx2) {
    spk::GramFusedPackedAvx2(seg.view, v, x, y, seg.row_begin, seg.row_end);
  } else {
    spk::GramFusedPackedScalar(seg.view, v, x, y, seg.row_begin,
                               seg.row_end);
  }
}

void ShardedSparseIntervalMatrix::GramMultiply(Endpoint e,
                                               const std::vector<double>& x,
                                               std::vector<double>& y) const {
  IVMF_CHECK(x.size() == cols_);
  IVMF_CHECK_MSG(&y != &x, "kernel output must not alias the input");
  static ShardedKernelCounters counters("gram_fused");
  counters.Count(shards_.size(), rows_, nnz_);
  ReduceOverShards(
      cols_,
      [&](const SegRef& seg, double* p0, double* /*p1*/) {
        GramSeg(seg, e, x.data(), p0);
      },
      &y, nullptr);
}

// -- Endpoint pairs ------------------------------------------------------------
//
// On the AVX2 backend every shard runs the spk pair kernel on interleaved
// (lo, hi) vectors, so one pass over the store (one fault-in and one
// residency drop per mapped shard) serves both endpoints; a pair counts as
// one call of the *_pair kernel. Otherwise each shard task runs the two
// single-endpoint kernels, and the pair counts as two single calls.

void ShardedSparseIntervalMatrix::MultiplyPair(
    const std::vector<double>& x_lo, const std::vector<double>& x_hi,
    std::vector<double>& y_lo, std::vector<double>& y_hi) const {
  IVMF_CHECK(x_lo.size() == cols_ && x_hi.size() == cols_);
  CheckPairAliasing(x_lo, x_hi, y_lo, y_hi);
  y_lo.resize(rows_);
  y_hi.resize(rows_);
  if (resolved_ == spk::Backend::kAvx2) {
    static ShardedKernelCounters counters("multiply_pair");
    counters.Count(shards_.size(), rows_, nnz_);
    std::vector<double> x2(2 * cols_), y2(2 * rows_);
    spk::Interleave(x_lo.data(), x_hi.data(), cols_, x2.data());
    ParallelFor(0, shards_.size(), [&](size_t s) {
      const SegRef seg = Seg(s);
      spk::MatVecPairPackedAvx2(seg.view, seg.lo, seg.hi, x2.data(),
                                y2.data() + 2 * seg.offset, seg.row_begin,
                                seg.row_end);
      MaybeDropResidency(seg);
    });
    spk::Deinterleave(y2.data(), rows_, y_lo.data(), y_hi.data());
    return;
  }
  static ShardedKernelCounters counters("multiply");
  counters.Count(shards_.size(), rows_, nnz_);
  counters.Count(shards_.size(), rows_, nnz_);
  ParallelFor(0, shards_.size(), [&](size_t s) {
    const SegRef seg = Seg(s);
    MultiplySeg(seg, Endpoint::kLower, x_lo.data(), y_lo.data());
    MultiplySeg(seg, Endpoint::kUpper, x_hi.data(), y_hi.data());
    MaybeDropResidency(seg);
  });
}

void ShardedSparseIntervalMatrix::MultiplyTransposePair(
    const std::vector<double>& x_lo, const std::vector<double>& x_hi,
    std::vector<double>& y_lo, std::vector<double>& y_hi) const {
  IVMF_CHECK(x_lo.size() == rows_ && x_hi.size() == rows_);
  CheckPairAliasing(x_lo, x_hi, y_lo, y_hi);
  if (resolved_ == spk::Backend::kAvx2) {
    static ShardedKernelCounters counters("multiply_transpose_pair");
    counters.Count(shards_.size(), rows_, nnz_);
    std::vector<double> x2(2 * rows_), y2;
    spk::Interleave(x_lo.data(), x_hi.data(), rows_, x2.data());
    ReduceOverShards(
        2 * cols_,
        [&](const SegRef& seg, double* p0, double* /*p1*/) {
          spk::MatVecTPairPackedAvx2(seg.view, seg.lo, seg.hi,
                                     x2.data() + 2 * seg.offset, p0,
                                     seg.row_begin, seg.row_end);
        },
        &y2, nullptr);
    y_lo.resize(cols_);
    y_hi.resize(cols_);
    spk::Deinterleave(y2.data(), cols_, y_lo.data(), y_hi.data());
    return;
  }
  static ShardedKernelCounters counters("multiply_transpose");
  counters.Count(shards_.size(), rows_, nnz_);
  counters.Count(shards_.size(), rows_, nnz_);
  ReduceOverShards(
      cols_,
      [&](const SegRef& seg, double* p0, double* p1) {
        ScatterSeg(seg, Endpoint::kLower, x_lo.data(), p0);
        ScatterSeg(seg, Endpoint::kUpper, x_hi.data(), p1);
      },
      &y_lo, &y_hi);
}

void ShardedSparseIntervalMatrix::GramMultiplyPair(
    const std::vector<double>& x_lo, const std::vector<double>& x_hi,
    std::vector<double>& y_lo, std::vector<double>& y_hi) const {
  IVMF_CHECK(x_lo.size() == cols_ && x_hi.size() == cols_);
  CheckPairAliasing(x_lo, x_hi, y_lo, y_hi);
  if (resolved_ == spk::Backend::kAvx2) {
    static ShardedKernelCounters counters("gram_fused_pair");
    counters.Count(shards_.size(), rows_, nnz_);
    std::vector<double> x2(2 * cols_), y2;
    spk::Interleave(x_lo.data(), x_hi.data(), cols_, x2.data());
    ReduceOverShards(
        2 * cols_,
        [&](const SegRef& seg, double* p0, double* /*p1*/) {
          spk::GramFusedPairPackedAvx2(seg.view, seg.lo, seg.hi, x2.data(),
                                       p0, seg.row_begin, seg.row_end);
        },
        &y2, nullptr);
    y_lo.resize(cols_);
    y_hi.resize(cols_);
    spk::Deinterleave(y2.data(), cols_, y_lo.data(), y_hi.data());
    return;
  }
  static ShardedKernelCounters counters("gram_fused");
  counters.Count(shards_.size(), rows_, nnz_);
  counters.Count(shards_.size(), rows_, nnz_);
  ReduceOverShards(
      cols_,
      [&](const SegRef& seg, double* p0, double* p1) {
        GramSeg(seg, Endpoint::kLower, x_lo.data(), p0);
        GramSeg(seg, Endpoint::kUpper, x_hi.data(), p1);
      },
      &y_lo, &y_hi);
}

IntervalMatrix ShardedSparseIntervalMatrix::IntervalMultiplyDenseTranspose(
    const Matrix& b) const {
  IVMF_CHECK_MSG(b.rows() == rows_, "sparse x dense dimension mismatch");
  const size_t bcols = b.cols();
  Matrix lo(cols_, bcols);
  Matrix hi(cols_, bcols);
  if (bcols == 0 || rows_ == 0 || cols_ == 0) {
    return IntervalMatrix(std::move(lo), std::move(hi));
  }
  static ShardedKernelCounters counters("multiply_dense_t_both");
  counters.Count(shards_.size(), rows_, nnz_);
  const bool avx2 = csr_variant_ == spk::Backend::kAvx2;
  std::vector<double> acc_lo;
  std::vector<double> acc_hi;
  ReduceOverShards(
      cols_ * bcols,
      [&](const SegRef& seg, double* p0, double* p1) {
        const double* bs = b.data() + seg.offset * bcols;
        if (avx2) {
          spk::MatDenseTBothPackedAvx2(seg.view, seg.lo, seg.hi, bs, bcols,
                                       p0, p1, seg.row_begin, seg.row_end);
        } else {
          spk::MatDenseTBothPackedScalar(seg.view, seg.lo, seg.hi, bs, bcols,
                                         p0, p1, seg.row_begin, seg.row_end);
        }
      },
      &acc_lo, &acc_hi);
  for (size_t i = 0; i < cols_; ++i) {
    for (size_t j = 0; j < bcols; ++j) {
      const double a = acc_lo[i * bcols + j];
      const double c = acc_hi[i * bcols + j];
      lo(i, j) = std::min(a, c);
      hi(i, j) = std::max(a, c);
    }
  }
  return IntervalMatrix(std::move(lo), std::move(hi));
}

// -- Dense Gram statics (bit-identical to the monolithic accumulation) -------
//
// Shards partition rows in ascending global order and each shard walks its
// rows ascending, so feeding them through the shared dense_gram
// accumulators reproduces the monolithic SparseGramOperator statics
// exactly.

Matrix ShardedSparseIntervalMatrix::DenseGram(
    const ShardedSparseIntervalMatrix& m, Endpoint e) {
  dense_gram::Single gram(m.cols_);
  for (size_t s = 0; s < m.shards_.size(); ++s) {
    const SegRef seg = m.Seg(s);
    const PackedCols cols{seg.view};
    const double* v = e == Endpoint::kLower ? seg.lo : seg.hi;
    const size_t* rp = seg.view.row_ptr;
    for (size_t i = seg.row_begin; i < seg.row_end; ++i) {
      gram.AddRow(cols, v, rp[i], rp[i + 1]);
    }
    m.MaybeDropResidency(seg);
  }
  return gram.Finish();
}

IntervalMatrix ShardedSparseIntervalMatrix::DenseGramEndpoints(
    const ShardedSparseIntervalMatrix& m) {
  dense_gram::Endpoints gram(m.cols_);
  for (size_t s = 0; s < m.shards_.size(); ++s) {
    const SegRef seg = m.Seg(s);
    const PackedCols cols{seg.view};
    const size_t* rp = seg.view.row_ptr;
    for (size_t i = seg.row_begin; i < seg.row_end; ++i) {
      gram.AddRow(cols, seg.lo, seg.hi, rp[i], rp[i + 1]);
    }
    m.MaybeDropResidency(seg);
  }
  return gram.Finish();
}

}  // namespace ivmf
