#include "linalg/lanczos_svd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ivmf {
namespace {

struct SvdInstruments {
  obs::Counter& solves;
  obs::Counter& iterations;
  obs::Counter& matvecs;
  obs::Counter& restarts;
  obs::Counter& long_reorth;
  obs::Gauge& residual;
  obs::Histogram& orth_seconds;

  static SvdInstruments& Get() {
    static SvdInstruments instruments{
        obs::MetricsRegistry::Global().GetCounter("lanczos.svd.solves"),
        obs::MetricsRegistry::Global().GetCounter("lanczos.svd.iterations"),
        obs::MetricsRegistry::Global().GetCounter("lanczos.svd.matvecs"),
        obs::MetricsRegistry::Global().GetCounter("lanczos.svd.restarts"),
        obs::MetricsRegistry::Global().GetCounter("lanczos.svd.long_reorth"),
        obs::MetricsRegistry::Global().GetGauge("lanczos.svd.residual_bound"),
        obs::MetricsRegistry::Global().GetHistogram("lanczos.orth.seconds",
                                                    {{"solver", "svd"}})};
    return instruments;
  }
};

// Bound on the long basis' loss of orthogonality above which its next
// vector gets a full sweep.
constexpr double kLongOrthogonalityBound = 1e-12;

// Larsen's ω recurrence (PROPACK, 1998) for a Golub–Kahan basis that keeps
// only its three-term recurrence while the other basis stays orthonormal
// to working precision. ω bounds |q_i · q_k| over the long vectors built
// so far; a new long vector c·q_new = w (norm c, w = apply - coupling ·
// q_prev) inherits coupling · ω from its predecessor and ε‖A‖ of rounding
// from the apply, so ω_new = (coupling · ω + ε‖A‖_est) / c.
class LongBasisGuard {
 public:
  // Folds the norm of one operator apply on a unit vector into ‖A‖_est.
  void SeeApply(double norm) {
    norm_estimate_ = std::max(norm_estimate_, norm);
  }

  // Returns true when the tentative ω of a new long vector of norm `norm`
  // would exceed the bound: the caller then sweeps it and calls Reset.
  // Otherwise records that ω and returns false.
  bool NeedsSweep(double coupling, double norm) {
    const double drift = coupling * omega_ + kEpsilon * norm_estimate_;
    if (drift < kLongOrthogonalityBound * norm) {
      omega_ = drift / norm;
      return false;
    }
    return true;
  }

  // After a full sweep or a restart the long basis is orthonormal again.
  void Reset() { omega_ = kEpsilon; }

 private:
  static constexpr double kEpsilon = std::numeric_limits<double>::epsilon();
  double norm_estimate_ = 0.0;
  double omega_ = kEpsilon;
};

// The norms of a new Krylov vector w: `apply` of the operator apply that
// produced it, `residual` after its predecessor's term is removed.
struct StepNorms {
  double apply;
  double residual;
};

// w -= c · prev (prev null: nothing to remove), in the same pass as both
// norms.
StepNorms SubtractPrevious(std::vector<double>& w, double c,
                           const double* prev) {
  if (prev == nullptr) {
    const double norm = Norm2(w);
    return {norm, norm};
  }
  double apply = 0.0, residual = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    apply += w[i] * w[i];
    w[i] -= c * prev[i];
    residual += w[i] * w[i];
  }
  return {std::sqrt(apply), std::sqrt(residual)};
}

// Scales w to unit length and stores it as a basis row, leaving w holding
// the same vector for the next operator apply.
void StoreUnit(std::vector<double>& w, double norm, double* row) {
  for (size_t i = 0; i < w.size(); ++i) row[i] = w[i] /= norm;
}

}  // namespace

SvdResult ComputeLanczosSvd(const LinearMap& a, size_t rank,
                            const LanczosOptions& options) {
  obs::TraceSpan span("lanczos.svd");
  SvdInstruments& instruments = SvdInstruments::Get();
  instruments.solves.Add(1);
  const size_t n = a.Rows();
  const size_t m = a.Cols();
  if (n == 0 || m == 0) {
    // Degenerate shape: the empty decomposition, with factors shaped to
    // match (rank 0). Mirrors the dense Jacobi SVD on 0-dimensional input.
    SvdResult empty;
    empty.u = Matrix(n, 0);
    empty.v = Matrix(m, 0);
    return empty;
  }
  lanczos_internal::OrthTimer orth_timer(instruments.orth_seconds);
  const size_t full = std::min(n, m);
  const size_t effective_rank = (rank == 0 || rank > full) ? full : rank;

  // Krylov steps (one per bidiagonal column).
  const size_t steps = std::min(
      full, static_cast<size_t>(options.subspace_factor * effective_rank) +
                options.subspace_extra);

  // Krylov bases, one vector per row: u_k is row k of `u`, v_k of `v`.
  Matrix u(steps, n);
  Matrix v(steps, m);
  std::vector<double> alpha(steps, 0.0), beta(steps, 0.0);

  Rng rng(options.seed);
  std::vector<double> left(n), right(m);
  // Warm start (streaming refreshes): previous right singular vectors span
  // approximately the current dominant row subspace, so their combination
  // makes a far better v_0 than a random row-space draw. Cold start: from
  // v_0 = Aᵀ r with random r, so the start vector lies in the row space and
  // the Krylov sequence spends no dimension on the nullspace (a plain
  // random v_0 on a wide or rank-deficient matrix wastes its first basis
  // vector on a direction A cannot see, and min(n, m) steps would no longer
  // reach the full spectrum). Falls back to a random direction when A ≈ 0 —
  // every triplet is zero then anyway.
  if (lanczos_internal::WarmStartVector(options.start_basis, m, right)) {
    std::copy(right.begin(), right.end(), v.RowPtr(0));
  } else {
    for (double& x : left) x = rng.Normal();
    a.ApplyTranspose(left, right);
    instruments.matvecs.Add(1);
    double start_norm = Norm2(right);
    if (start_norm <= options.tolerance) {
      for (double& x : right) x = rng.Normal();
      start_norm = Norm2(right);
    }
    for (size_t i = 0; i < m; ++i) v(0, i) = right[i] / start_norm;
  }

  // One-sided reorthogonalization: the short basis (v when n >= m, u
  // otherwise) is swept against all its earlier vectors every step; the
  // long one keeps its three-term recurrence and is swept only when the
  // guard's ω bound on its drift would pass kLongOrthogonalityBound.
  const bool tall = n >= m;
  LongBasisGuard guard;
  // Orthogonalizes the new vector `w` of a basis holding `count` vectors
  // (`coupling` is the recurrence coefficient of its predecessor, `norms`
  // from SubtractPrevious) and returns its norm.
  const auto orthogonalize = [&](const Matrix& basis, size_t count,
                                 std::vector<double>& w, bool long_basis,
                                 double coupling, StepNorms norms) {
    guard.SeeApply(norms.apply);
    if (long_basis) {
      if (count == 0 || !guard.NeedsSweep(coupling, norms.residual)) {
        return norms.residual;
      }
      instruments.long_reorth.Add(1);
      guard.Reset();
    }
    orth_timer.Start();
    lanczos_internal::Reorthogonalize(basis, count, w);
    orth_timer.Stop();
    return Norm2(w);
  };
  // Restarts row `count` of `basis`, leaving the new vector in `scratch`
  // too.
  const auto restart = [&](Matrix& basis, size_t count,
                           std::vector<double>& scratch) {
    instruments.restarts.Add(1);
    guard.Reset();
    orth_timer.Start();
    const bool restarted = lanczos_internal::RestartVector(
        basis, count, scratch, rng, options.restart_tolerance);
    orth_timer.Stop();
    if (restarted) {
      std::copy(basis.RowPtr(count), basis.RowPtr(count) + scratch.size(),
                scratch.begin());
    }
    return restarted;
  };

  // `right` holds v_j at the top of step j, and `left` holds u_j after its
  // left step.
  std::copy(v.RowPtr(0), v.RowPtr(0) + m, right.begin());
  bool exhausted = false;
  size_t built = 0;
  double last_bnorm = 0.0;
  for (size_t j = 0; j < steps; ++j) {
    built = j + 1;

    // Left step: u_j = (A v_j - beta_{j-1} u_{j-1}) / alpha_j.
    a.Apply(right, left);
    instruments.matvecs.Add(1);
    const double coupling = j > 0 ? beta[j - 1] : 0.0;
    const double anorm = orthogonalize(
        u, j, left, tall, coupling,
        SubtractPrevious(left, coupling, j > 0 ? u.RowPtr(j - 1) : nullptr));
    if (anorm > options.tolerance) {
      alpha[j] = anorm;
      StoreUnit(left, anorm, u.RowPtr(j));
    } else {
      // A v_j already lies in span(u_0..u_{j-1}): the left space stalled.
      // alpha_j = 0 block-decouples B; continue from a fresh direction.
      alpha[j] = 0.0;
      if (!restart(u, j, left)) {
        built = j;
        exhausted = true;
        break;
      }
    }

    // Right step: v_{j+1} = (A^T u_j - alpha_j v_j) / beta_j, needed only
    // while the basis can still grow.
    if (j + 1 == steps) break;
    a.ApplyTranspose(left, right);
    instruments.matvecs.Add(1);
    const double bnorm =
        orthogonalize(v, j + 1, right, !tall, alpha[j],
                      SubtractPrevious(right, alpha[j], v.RowPtr(j)));
    last_bnorm = bnorm;
    if (bnorm > options.tolerance) {
      beta[j] = bnorm;
      StoreUnit(right, bnorm, v.RowPtr(j + 1));

      // Optional early exit, mirroring the eigensolver: the residual of
      // Ritz triplet i is |beta_j * p_last,i| with p_i the left singular
      // vectors of the small bidiagonal B (A v̂ = σ û exactly; only the
      // Aᵀ û relation carries the coupling to the unexplored space).
      if (options.convergence_tol > 0.0 && built >= effective_rank &&
          options.convergence_interval > 0 &&
          built % options.convergence_interval == 0) {
        Matrix b_small(built, built);
        for (size_t i = 0; i < built; ++i) {
          b_small(i, i) = alpha[i];
          if (i + 1 < built) b_small(i, i + 1) = beta[i];
        }
        const SvdResult projected = ComputeSvd(b_small);
        const double sigma_max =
            projected.sigma.empty() ? 0.0 : projected.sigma[0];
        const double bound = options.convergence_tol * sigma_max;
        bool converged = sigma_max > 0.0;
        for (size_t i = 0; i < effective_rank && converged; ++i) {
          if (std::abs(bnorm * projected.u(built - 1, i)) > bound) {
            converged = false;
          }
        }
        if (converged) break;
      }
    } else {
      // Singular-invariant subspace pair found: restart and keep building
      // to the subspace cap. Stopping at the requested count would both
      // short-change rank-deficient endpoints (whose sibling endpoint
      // delivers more triplets, crashing the ISVD pairing) and miss the
      // second copies of duplicate singular values — one Krylov sequence
      // sees each distinct value exactly once; only restarted blocks
      // reach the rest of a degenerate cluster.
      beta[j] = 0.0;
      if (!restart(v, j + 1, right)) {
        exhausted = true;
        break;
      }
    }
  }
  IVMF_CHECK_MSG(built > 0, "Lanczos SVD built an empty basis");

  // SVD of the small upper-bidiagonal B (built x built): A ≈ U B V^T, so
  // with B = P diag(s) Q^T the triplets of A are (U P, s, V Q).
  Matrix b(built, built);
  for (size_t i = 0; i < built; ++i) {
    b(i, i) = alpha[i];
    if (i + 1 < built) b(i, i + 1) = beta[i];
  }
  const SvdResult small = ComputeSvd(b);

  const size_t keep = std::min(effective_rank, built);
  SvdResult result;
  result.truncated = exhausted && keep < effective_rank;
  result.iterations = built;
  result.sigma.assign(small.sigma.begin(),
                      small.sigma.begin() + static_cast<ptrdiff_t>(keep));
  result.u = lanczos_internal::RitzVectors(u, small.u.ColBlock(0, keep));
  result.v = lanczos_internal::RitzVectors(v, small.v.ColBlock(0, keep));
  CanonicalizeSingularVectorSigns(result.u, result.v);
  instruments.iterations.Add(built);
  if (obs::Enabled()) {
    // Ritz residual bound |beta_m * p(m-1, i)| from the last computed
    // off-diagonal coupling, maximized over the returned triplets.
    double max_residual = 0.0;
    for (size_t i = 0; i < keep; ++i) {
      max_residual =
          std::max(max_residual, std::abs(last_bnorm * small.u(built - 1, i)));
    }
    instruments.residual.Set(max_residual);
  }
  return result;
}

SvdResult ComputeLanczosSvd(const Matrix& a, size_t rank,
                            const LanczosOptions& options) {
  return ComputeLanczosSvd(DenseLinearMap(a), rank, options);
}

}  // namespace ivmf
