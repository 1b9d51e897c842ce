#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

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

EigResult ComputeLanczosEig(const LinearOperator& op, size_t rank,
                            const LanczosOptions& options) {
  obs::TraceSpan span("lanczos.eig");
  EigInstruments& instruments = EigInstruments::Get();
  lanczos_internal::OrthTimer orth_timer(instruments.orth_seconds);
  instruments.solves.Add(1);
  const size_t n = op.Dim();
  // rank == 0 (or an over-ask) means the full spectrum: grow the Krylov
  // basis to the whole space.
  const size_t effective_rank = (rank == 0 || rank > n) ? n : rank;

  // Krylov dimension.
  const size_t m = std::min(
      n, static_cast<size_t>(options.subspace_factor * effective_rank) +
             options.subspace_extra);

  // Lanczos basis with full reorthogonalization: row k of `q` is the
  // Krylov vector q_k.
  Matrix q(m, n);
  std::vector<double> alpha(m, 0.0), beta(m, 0.0);

  Rng rng(options.seed);
  std::vector<double> v(n), w(n);
  if (!lanczos_internal::WarmStartVector(options.start_basis, n, v)) {
    for (double& x : v) x = rng.Normal();
    const double norm = Norm2(v);
    for (double& x : v) x /= norm;
  }
  std::copy(v.begin(), v.end(), q.RowPtr(0));

  bool exhausted = false;
  size_t built = 0;
  double last_wnorm = 0.0;
  for (size_t j = 0; j < m; ++j) {
    built = j + 1;
    std::copy(q.RowPtr(j), q.RowPtr(j) + n, v.begin());
    op.Apply(v, w);
    if (j > 0) {
      const double* prev = q.RowPtr(j - 1);
      for (size_t i = 0; i < n; ++i) w[i] -= beta[j - 1] * prev[i];
    }
    double aj = 0.0;
    for (size_t i = 0; i < n; ++i) aj += w[i] * v[i];
    alpha[j] = aj;
    for (size_t i = 0; i < n; ++i) w[i] -= aj * v[i];

    // Full reorthogonalization against the basis built so far.
    orth_timer.Start();
    lanczos_internal::Reorthogonalize(q, j + 1, w);
    orth_timer.Stop();

    const double wnorm = Norm2(w);
    last_wnorm = wnorm;
    if (j + 1 < m) {
      beta[j] = wnorm;
      if (wnorm <= options.tolerance) {
        // Invariant subspace found: restart with a fresh random direction
        // orthogonal to the basis (beta stays 0, so the tridiagonal problem
        // block-decouples) and keep building to the subspace cap. Two
        // reasons not to stop early: a rank-deficient operator (e.g. the
        // Gram of an all-zero endpoint) would deliver fewer eigenpairs than
        // its sibling endpoint and crash the ISVD pairing downstream, and a
        // single Krylov sequence sees each eigenvalue of a degenerate
        // cluster exactly once — only the restarted blocks capture the
        // remaining copies of duplicate eigenvalues.
        beta[j] = 0.0;
        instruments.restarts.Add(1);
        orth_timer.Start();
        const bool restarted = lanczos_internal::RestartVector(
            q, j + 1, w, rng, options.restart_tolerance);
        orth_timer.Stop();
        if (!restarted) {
          // No acceptable direction remains: the basis cannot grow, so the
          // spectrum delivered below may be shorter than requested. Recorded
          // (rather than silently broken out of) so `truncated` reaches the
          // caller.
          exhausted = true;
          break;
        }
        continue;
      }
      double* next = q.RowPtr(j + 1);
      for (size_t i = 0; i < n; ++i) next[i] = w[i] / wnorm;

      // Optional early exit: residual of Ritz pair i is |beta_j * z_last,i|,
      // so the coupling to the unexplored space bounds every pair at once.
      // Only meaningful once the basis can hold the requested count.
      if (options.convergence_tol > 0.0 && built >= effective_rank &&
          options.convergence_interval > 0 &&
          built % options.convergence_interval == 0) {
        std::vector<double> d(alpha.begin(),
                              alpha.begin() + static_cast<ptrdiff_t>(built));
        std::vector<double> e;
        for (size_t i = 0; i + 1 < built; ++i) e.push_back(beta[i]);
        Matrix z = Matrix::Identity(built);
        if (TridiagonalQL(d, e, &z)) {
          double theta_max = 0.0;
          for (const double t : d) theta_max = std::max(theta_max, std::abs(t));
          const double bound = options.convergence_tol * theta_max;
          bool converged = theta_max > 0.0;
          for (size_t i = 0; i < effective_rank && converged; ++i) {
            const size_t src = built - 1 - i;  // largest pairs sort last
            if (std::abs(wnorm * z(built - 1, src)) > bound) converged = false;
          }
          if (converged) break;
        }
      }
    }
  }

  // Solve the m' x m' tridiagonal eigenproblem.
  std::vector<double> diag(alpha.begin(), alpha.begin() + built);
  std::vector<double> off;
  for (size_t i = 0; i + 1 < built; ++i) off.push_back(beta[i]);
  Matrix z = Matrix::Identity(built);
  IVMF_CHECK_MSG(TridiagonalQL(diag, off, &z), "tridiagonal QL failed");

  // Take the top-`rank` (largest) Ritz pairs; TridiagonalQL sorts ascending.
  const size_t keep = std::min(effective_rank, built);
  EigResult result;
  result.truncated = exhausted && keep < effective_rank;
  result.iterations = built;
  result.eigenvalues.resize(keep);
  Matrix coef(built, keep);
  for (size_t out = 0; out < keep; ++out) {
    const size_t src = built - 1 - out;  // descending order
    result.eigenvalues[out] = diag[src];
    for (size_t k = 0; k < built; ++k) coef(k, out) = z(k, src);
  }
  result.eigenvectors = lanczos_internal::RitzVectors(q, coef);
  CanonicalizeEigenvectorSigns(result.eigenvectors);
  instruments.iterations.Add(built);
  if (obs::Enabled()) {
    // Ritz residual bound |beta_m * z(m-1, i)|, maximized over the returned
    // pairs — how strongly the kept spectrum still couples to the
    // unexplored space.
    double max_residual = 0.0;
    for (size_t out = 0; out < keep; ++out) {
      max_residual = std::max(
          max_residual, std::abs(last_wnorm * z(built - 1, built - 1 - out)));
    }
    instruments.residual.Set(max_residual);
  }
  return result;
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
