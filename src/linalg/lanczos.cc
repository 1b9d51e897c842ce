#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "base/parallel.h"
#include "base/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ivmf {
namespace {

double SignOf(double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); }

// Coordinates per block of a blocked basis sweep: the 4 KiB slice of the
// vector being updated stays in L1, and the count x 4 KiB basis slab it
// meets stays in L2 between the two reads of the fused sweep.
constexpr size_t kSweepBlock = 512;

// Basis rows swept together: one pass over the vector serves four rows,
// and their dot products run eight independent accumulator chains.
constexpr size_t kRowGroup = 4;

// Two doubles in one vector register (GCC/Clang vector extension: SSE2 on
// x86-64, scalar pairs where no vector unit exists). Written out because
// the auto-vectorizer interleaves the grouped dot products with shuffles.
typedef double Lanes __attribute__((vector_size(16)));

Lanes LoadLanes(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// h[r] += q[r] · x over `len` coordinates, for the R rows q[0..R).
template <size_t R>
void DotGroup(const double* const* q, const double* x, size_t len,
              double* h) {
  Lanes acc[R][2] = {};
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const Lanes x0 = LoadLanes(x + i);
    const Lanes x1 = LoadLanes(x + i + 2);
    for (size_t r = 0; r < R; ++r) {
      acc[r][0] += LoadLanes(q[r] + i) * x0;
      acc[r][1] += LoadLanes(q[r] + i + 2) * x1;
    }
  }
  for (size_t r = 0; r < R; ++r) {
    const Lanes pair = acc[r][0] + acc[r][1];
    double sum = pair[0] + pair[1];
    for (size_t t = i; t < len; ++t) sum += q[r][t] * x[t];
    h[r] += sum;
  }
}

// x -= Σ_r h[r] q[r] over `len` coordinates, for the R rows q[0..R).
template <size_t R>
void SubtractGroup(const double* const* q, const double* h, double* x,
                   size_t len) {
  for (size_t i = 0; i < len; ++i) {
    double sum = 0.0;
    for (size_t r = 0; r < R; ++r) sum += h[r] * q[r][i];
    x[i] -= sum;
  }
}

// h[k] += q_k · x for k < count, over coordinates [begin, begin + len);
// `x` points at coordinate `begin`.
void DotRows(const Matrix& basis, size_t count, size_t begin, size_t len,
             const double* x, double* h) {
  const double* q[kRowGroup];
  size_t k = 0;
  for (; k + kRowGroup <= count; k += kRowGroup) {
    for (size_t r = 0; r < kRowGroup; ++r) q[r] = basis.RowPtr(k + r) + begin;
    DotGroup<kRowGroup>(q, x, len, h + k);
  }
  for (; k < count; ++k) {
    q[0] = basis.RowPtr(k) + begin;
    DotGroup<1>(q, x, len, h + k);
  }
}

// x -= Σ_{k < count} h[k] q_k over coordinates [begin, begin + len); `x`
// points at coordinate `begin`.
void SubtractRows(const Matrix& basis, size_t count, size_t begin, size_t len,
                  const double* h, double* x) {
  const double* q[kRowGroup];
  size_t k = 0;
  for (; k + kRowGroup <= count; k += kRowGroup) {
    for (size_t r = 0; r < kRowGroup; ++r) q[r] = basis.RowPtr(k + r) + begin;
    SubtractGroup<kRowGroup>(q, h + k, x, len);
  }
  for (; k < count; ++k) {
    q[0] = basis.RowPtr(k) + begin;
    SubtractGroup<1>(q, h + k, x, len);
  }
}

struct EigInstruments {
  obs::Counter& solves;
  obs::Counter& iterations;
  obs::Counter& restarts;
  obs::Gauge& residual;
  obs::Histogram& orth_seconds;

  static EigInstruments& Get() {
    static EigInstruments instruments{
        obs::MetricsRegistry::Global().GetCounter("lanczos.eig.solves"),
        obs::MetricsRegistry::Global().GetCounter("lanczos.eig.iterations"),
        obs::MetricsRegistry::Global().GetCounter("lanczos.eig.restarts"),
        obs::MetricsRegistry::Global().GetGauge("lanczos.eig.residual_bound"),
        obs::MetricsRegistry::Global().GetHistogram("lanczos.orth.seconds",
                                                    {{"solver", "eig"}})};
    return instruments;
  }
};

}  // namespace

namespace lanczos_internal {

bool WarmStartVector(const Matrix& basis, size_t dim, std::vector<double>& v) {
  if (basis.cols() == 0 || basis.rows() != dim) return false;
  // Sums accumulate in a scratch vector so `v` really is untouched on the
  // degenerate-norm failure path, as the contract promises.
  std::vector<double> sums(dim, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t c = 0; c < basis.cols(); ++c) sums[i] += basis(i, c);
  }
  const double norm = Norm2(sums);
  if (!(norm > 1e-12)) return false;
  for (size_t i = 0; i < dim; ++i) v[i] = sums[i] / norm;
  return true;
}

void Reorthogonalize(const Matrix& basis, size_t count,
                     std::vector<double>& w) {
  if (count == 0) return;
  const size_t dim = w.size();
  IVMF_DCHECK(basis.cols() == dim && count <= basis.rows());
  std::vector<double> h1(count, 0.0), h2(count, 0.0);
  double* x = w.data();
  // Sweep 1: h1 = Q w.
  DotRows(basis, count, 0, dim, x, h1.data());
  // Sweep 2: w -= Qᵀ h1 block by block, and h2 = Q w over each block as
  // soon as it is final, while the block's basis slab is still in cache.
  for (size_t begin = 0; begin < dim; begin += kSweepBlock) {
    const size_t len = std::min(kSweepBlock, dim - begin);
    SubtractRows(basis, count, begin, len, h1.data(), x + begin);
    DotRows(basis, count, begin, len, x + begin, h2.data());
  }
  // Sweep 3: w -= Qᵀ h2.
  SubtractRows(basis, count, 0, dim, h2.data(), x);
}

bool RestartVector(Matrix& basis, size_t count, std::vector<double>& scratch,
                   Rng& rng, double tolerance) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    for (double& x : scratch) x = rng.Normal();
    Reorthogonalize(basis, count, scratch);
    const double norm = Norm2(scratch);
    if (norm > tolerance) {
      double* row = basis.RowPtr(count);
      for (size_t i = 0; i < scratch.size(); ++i) row[i] = scratch[i] / norm;
      return true;
    }
  }
  return false;
}

Matrix RitzVectors(const Matrix& basis, const Matrix& coef) {
  const size_t dim = basis.cols();
  const size_t built = coef.rows();
  const size_t keep = coef.cols();
  Matrix out(dim, keep);
  // A tile of kSweepBlock coordinates holds the keep combinations as
  // contiguous rows, accumulated from contiguous basis rows, and is then
  // transposed into `out`.
  std::vector<double> tile(keep * kSweepBlock);
  for (size_t begin = 0; begin < dim; begin += kSweepBlock) {
    const size_t len = std::min(kSweepBlock, dim - begin);
    std::fill(tile.begin(), tile.end(), 0.0);
    for (size_t c = 0; c < keep; ++c) {
      double* acc = tile.data() + c * kSweepBlock;
      for (size_t k = 0; k < built; ++k) {
        const double weight = coef(k, c);
        const double* q = basis.RowPtr(k) + begin;
        for (size_t i = 0; i < len; ++i) acc[i] += weight * q[i];
      }
    }
    for (size_t i = 0; i < len; ++i) {
      double* row = out.RowPtr(begin + i);
      for (size_t c = 0; c < keep; ++c) row[c] = tile[c * kSweepBlock + i];
    }
  }
  return out;
}

OrthTimer::OrthTimer(obs::Histogram& histogram)
    : histogram_(obs::Enabled() ? &histogram : nullptr) {}

OrthTimer::~OrthTimer() {
  if (histogram_ != nullptr) histogram_->Record(seconds_);
}

}  // namespace lanczos_internal

bool TridiagonalQL(std::vector<double>& diag, std::vector<double>& off,
                   Matrix* z, int max_iterations) {
  const size_t n = diag.size();
  if (n == 0) return true;
  IVMF_CHECK(off.size() + 1 == n || (n == 1 && off.empty()));
  std::vector<double> e(n, 0.0);
  for (size_t i = 0; i + 1 < n; ++i) e[i] = off[i];

  for (size_t l = 0; l < n; ++l) {
    int iter = 0;
    size_t m;
    do {
      // Find a negligible off-diagonal element.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(diag[m]) + std::abs(diag[m + 1]);
        if (std::abs(e[m]) <= 1e-300 ||
            std::abs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m == l) break;
      if (++iter > max_iterations) return false;

      // Implicit QL step with Wilkinson shift.
      double g = (diag[l + 1] - diag[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = diag[m] - diag[l] + e[l] / (g + SignOf(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      for (size_t i = m; i-- > l;) {
        double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          diag[i + 1] -= p;
          e[m] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = diag[i + 1] - p;
        r = (diag[i] - g) * s + 2.0 * c * b;
        p = s * r;
        diag[i + 1] = g + p;
        g = c * r - b;
        if (z != nullptr) {
          for (size_t k = 0; k < z->rows(); ++k) {
            f = (*z)(k, i + 1);
            (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
            (*z)(k, i) = c * (*z)(k, i) - s * f;
          }
        }
      }
      if (r == 0.0 && m > l + 1) continue;
      diag[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    } while (m != l);
  }

  // Sort ascending (insertion sort moving eigenvector columns along).
  for (size_t i = 0; i + 1 < n; ++i) {
    size_t k = i;
    for (size_t j = i + 1; j < n; ++j)
      if (diag[j] < diag[k]) k = j;
    if (k != i) {
      std::swap(diag[i], diag[k]);
      if (z != nullptr) {
        for (size_t row = 0; row < z->rows(); ++row)
          std::swap((*z)(row, i), (*z)(row, k));
      }
    }
  }
  return true;
}

namespace {

// One Lanczos sequence with full reorthogonalization, as a state object: the
// driver applies the operator to x() into y() and calls Step() until the
// sequence stops, then takes the Ritz pairs from Finish(). The single and
// the pair drivers below share it, so the recurrence is written once.
class EigSequence {
 public:
  EigSequence(size_t n, size_t rank, const LanczosOptions& options)
      : options_(options),
        instruments_(EigInstruments::Get()),
        orth_timer_(instruments_.orth_seconds),
        n_(n),
        // rank == 0 (or an over-ask) means the full spectrum: grow the
        // Krylov basis to the whole space.
        rank_((rank == 0 || rank > n) ? n : rank),
        steps_(std::min(n, static_cast<size_t>(options.subspace_factor *
                                               static_cast<double>(rank_)) +
                               options.subspace_extra)),
        q_(steps_, n),
        alpha_(steps_, 0.0),
        beta_(steps_, 0.0),
        rng_(options.seed),
        v_(n),
        w_(n) {
    instruments_.solves.Add(1);
    if (!lanczos_internal::WarmStartVector(options.start_basis, n, v_)) {
      for (double& x : v_) x = rng_.Normal();
      const double norm = Norm2(v_);
      for (double& x : v_) x /= norm;
    }
    if (steps_ > 0) {
      std::copy(v_.begin(), v_.end(), q_.RowPtr(0));
      active_ = true;
      built_ = 1;
    }
  }

  bool active() const { return active_; }

  // The Krylov vector q_j the next apply reads, and the buffer it writes.
  const std::vector<double>& x() const { return v_; }
  std::vector<double>& y() { return w_; }

  // Consumes w = A q_j: one step of the three-term recurrence with full
  // reorthogonalization, then either q_{j+1} is ready in x() or the
  // sequence has stopped.
  void Step() {
    const size_t j = built_ - 1;
    if (j > 0) {
      const double* prev = q_.RowPtr(j - 1);
      for (size_t i = 0; i < n_; ++i) w_[i] -= beta_[j - 1] * prev[i];
    }
    double aj = 0.0;
    for (size_t i = 0; i < n_; ++i) aj += w_[i] * v_[i];
    alpha_[j] = aj;
    for (size_t i = 0; i < n_; ++i) w_[i] -= aj * v_[i];

    // Full reorthogonalization against the basis built so far.
    orth_timer_.Start();
    lanczos_internal::Reorthogonalize(q_, j + 1, w_);
    orth_timer_.Stop();

    const double wnorm = Norm2(w_);
    last_wnorm_ = wnorm;
    if (j + 1 >= steps_) {
      active_ = false;
      return;
    }
    beta_[j] = wnorm;
    if (wnorm <= options_.tolerance) {
      // Invariant subspace found: restart with a fresh random direction
      // orthogonal to the basis (beta stays 0, so the tridiagonal problem
      // block-decouples) and keep building to the subspace cap. Two
      // reasons not to stop early: a rank-deficient operator (e.g. the
      // Gram of an all-zero endpoint) would deliver fewer eigenpairs than
      // its sibling endpoint and crash the ISVD pairing downstream, and a
      // single Krylov sequence sees each eigenvalue of a degenerate
      // cluster exactly once — only the restarted blocks capture the
      // remaining copies of duplicate eigenvalues.
      beta_[j] = 0.0;
      instruments_.restarts.Add(1);
      orth_timer_.Start();
      const bool restarted = lanczos_internal::RestartVector(
          q_, j + 1, w_, rng_, options_.restart_tolerance);
      orth_timer_.Stop();
      if (!restarted) {
        // No acceptable direction remains: the basis cannot grow, so the
        // spectrum delivered below may be shorter than requested. Recorded
        // (rather than silently stopped) so `truncated` reaches the caller.
        exhausted_ = true;
        active_ = false;
        return;
      }
    } else {
      double* next = q_.RowPtr(j + 1);
      for (size_t i = 0; i < n_; ++i) next[i] = w_[i] / wnorm;
      if (Converged(wnorm)) {
        active_ = false;
        return;
      }
    }
    std::copy(q_.RowPtr(j + 1), q_.RowPtr(j + 1) + n_, v_.begin());
    ++built_;
  }

  // The top-`rank` Ritz pairs of the basis built.
  EigResult Finish() {
    // Solve the built x built tridiagonal eigenproblem.
    std::vector<double> diag(alpha_.begin(), alpha_.begin() + built_);
    std::vector<double> off;
    for (size_t i = 0; i + 1 < built_; ++i) off.push_back(beta_[i]);
    Matrix z = Matrix::Identity(built_);
    IVMF_CHECK_MSG(TridiagonalQL(diag, off, &z), "tridiagonal QL failed");

    // Take the top-`rank` (largest) Ritz pairs; TridiagonalQL sorts
    // ascending.
    const size_t keep = std::min(rank_, built_);
    EigResult result;
    result.truncated = exhausted_ && keep < rank_;
    result.iterations = built_;
    result.eigenvalues.resize(keep);
    Matrix coef(built_, keep);
    for (size_t out = 0; out < keep; ++out) {
      const size_t src = built_ - 1 - out;  // descending order
      result.eigenvalues[out] = diag[src];
      for (size_t k = 0; k < built_; ++k) coef(k, out) = z(k, src);
    }
    result.eigenvectors = lanczos_internal::RitzVectors(q_, coef);
    CanonicalizeEigenvectorSigns(result.eigenvectors);
    instruments_.iterations.Add(built_);
    if (obs::Enabled()) {
      // Ritz residual bound |beta_m * z(m-1, i)|, maximized over the
      // returned pairs — how strongly the kept spectrum still couples to
      // the unexplored space.
      double max_residual = 0.0;
      for (size_t out = 0; out < keep; ++out) {
        max_residual = std::max(
            max_residual,
            std::abs(last_wnorm_ * z(built_ - 1, built_ - 1 - out)));
      }
      instruments_.residual.Set(max_residual);
    }
    return result;
  }

 private:
  // Optional early exit: the residual of Ritz pair i is |beta_j * z_last,i|,
  // so the coupling to the unexplored space bounds every pair at once. Only
  // meaningful once the basis can hold the requested count.
  bool Converged(double wnorm) const {
    if (!(options_.convergence_tol > 0.0) || built_ < rank_ ||
        options_.convergence_interval == 0 ||
        built_ % options_.convergence_interval != 0) {
      return false;
    }
    std::vector<double> d(alpha_.begin(),
                          alpha_.begin() + static_cast<ptrdiff_t>(built_));
    std::vector<double> e(beta_.begin(),
                          beta_.begin() + static_cast<ptrdiff_t>(built_ - 1));
    Matrix z = Matrix::Identity(built_);
    if (!TridiagonalQL(d, e, &z)) return false;
    double theta_max = 0.0;
    for (const double t : d) theta_max = std::max(theta_max, std::abs(t));
    const double bound = options_.convergence_tol * theta_max;
    if (!(theta_max > 0.0)) return false;
    for (size_t i = 0; i < rank_; ++i) {
      const size_t src = built_ - 1 - i;  // largest pairs sort last
      if (std::abs(wnorm * z(built_ - 1, src)) > bound) return false;
    }
    return true;
  }

  const LanczosOptions& options_;
  EigInstruments& instruments_;
  lanczos_internal::OrthTimer orth_timer_;
  const size_t n_;
  const size_t rank_;   // pairs requested, clamped to n
  const size_t steps_;  // Krylov dimension cap
  Matrix q_;            // row k is the Krylov vector q_k
  std::vector<double> alpha_, beta_;
  Rng rng_;
  std::vector<double> v_, w_;
  size_t built_ = 0;  // basis vectors in use: q_0 .. q_{built-1}
  double last_wnorm_ = 0.0;
  bool active_ = false;
  bool exhausted_ = false;
};

}  // namespace

EigResult ComputeLanczosEig(const LinearOperator& op, size_t rank,
                            const LanczosOptions& options) {
  obs::TraceSpan span("lanczos.eig");
  EigSequence seq(op.Dim(), rank, options);
  while (seq.active()) {
    op.Apply(seq.x(), seq.y());
    seq.Step();
  }
  return seq.Finish();
}

std::array<EigResult, 2> ComputeLanczosEigPair(
    const LinearOperatorPair& op, size_t rank,
    const LanczosOptions& lo_options, const LanczosOptions& hi_options) {
  obs::TraceSpan span("lanczos.eig");
  EigSequence seq[2] = {EigSequence(op.Dim(), rank, lo_options),
                        EigSequence(op.Dim(), rank, hi_options)};
  while (seq[0].active() && seq[1].active()) {
    op.ApplyPair(seq[0].x(), seq[1].x(), seq[0].y(), seq[1].y());
    ParallelFor(0, 2, [&](size_t side) { seq[side].Step(); });
  }
  for (size_t side = 0; side < 2; ++side) {
    while (seq[side].active()) {
      op.Apply(side, seq[side].x(), seq[side].y());
      seq[side].Step();
    }
  }
  return {seq[0].Finish(), seq[1].Finish()};
}

EigResult ComputeLanczosEig(const Matrix& a, size_t rank,
                            const LanczosOptions& options) {
  IVMF_CHECK_MSG(a.rows() == a.cols(), "Lanczos needs a square matrix");
  // The dense entry point keeps its historical contract: full-spectrum
  // requests go to the (exact) Jacobi solver.
  if (rank == 0 || rank >= a.rows()) {
    return ComputeSymmetricEig(a, rank);
  }
  return ComputeLanczosEig(DenseSymmetricOperator(a), rank, options);
}

}  // namespace ivmf
