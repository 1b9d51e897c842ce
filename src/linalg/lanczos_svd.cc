#include "linalg/lanczos_svd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/parallel.h"
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

// One Golub–Kahan bidiagonalization as a state object: need() names the
// apply the sequence waits for (forward: x() = v_j into y() = the left
// vector; transpose: x() = u_j into y() = the right vector), Advance()
// consumes its result, and Finish() lifts the triplets once need() is
// kNone. The single and the pair drivers below share it, so the
// recurrence is written once.
class GkSequence {
 public:
  enum class Need { kNone, kForward, kTranspose };

  GkSequence(size_t n, size_t m, size_t rank, const LanczosOptions& options)
      : options_(options),
        instruments_(SvdInstruments::Get()),
        orth_timer_(instruments_.orth_seconds),
        n_(n),
        m_(m),
        rank_((rank == 0 || rank > std::min(n, m)) ? std::min(n, m) : rank),
        // Krylov steps (one per bidiagonal column).
        steps_(std::min(std::min(n, m),
                        static_cast<size_t>(options.subspace_factor *
                                            static_cast<double>(rank_)) +
                            options.subspace_extra)),
        tall_(n >= m),
        u_(steps_, n),
        v_(steps_, m),
        alpha_(steps_, 0.0),
        beta_(steps_, 0.0),
        rng_(options.seed),
        left_(n),
        right_(m) {
    instruments_.solves.Add(1);
    // Degenerate shape: the empty decomposition, with factors shaped to
    // match (rank 0). Mirrors the dense Jacobi SVD on 0-dimensional input.
    if (steps_ == 0) return;
    // Warm start (streaming refreshes): previous right singular vectors
    // span approximately the current dominant row subspace, so their
    // combination makes a far better v_0 than a random row-space draw.
    // Cold start: from v_0 = Aᵀ r with random r, so the start vector lies
    // in the row space and the Krylov sequence spends no dimension on the
    // nullspace (a plain random v_0 on a wide or rank-deficient matrix
    // wastes its first basis vector on a direction A cannot see, and
    // min(n, m) steps would no longer reach the full spectrum).
    if (lanczos_internal::WarmStartVector(options.start_basis, m, right_)) {
      std::copy(right_.begin(), right_.end(), v_.RowPtr(0));
      built_ = 1;
      need_ = Need::kForward;
    } else {
      for (double& x : left_) x = rng_.Normal();
      need_ = Need::kTranspose;
    }
  }

  Need need() const { return need_; }
  const std::vector<double>& x() const {
    return need_ == Need::kForward ? right_ : left_;
  }
  std::vector<double>& y() {
    return need_ == Need::kForward ? left_ : right_;
  }

  void Advance() {
    instruments_.matvecs.Add(1);
    if (built_ == 0) {
      Start();  // the cold start's transpose apply
    } else if (need_ == Need::kForward) {
      LeftStep();
    } else {
      RightStep();
    }
  }

  SvdResult Finish() {
    if (steps_ == 0) {
      SvdResult empty;
      empty.u = Matrix(n_, 0);
      empty.v = Matrix(m_, 0);
      return empty;
    }
    IVMF_CHECK_MSG(built_ > 0, "Lanczos SVD built an empty basis");

    // SVD of the small upper-bidiagonal B (built x built): A ≈ U B V^T, so
    // with B = P diag(s) Q^T the triplets of A are (U P, s, V Q).
    const SvdResult small = ComputeSvd(Bidiagonal());
    const size_t keep = std::min(rank_, built_);
    SvdResult result;
    result.truncated = exhausted_ && keep < rank_;
    result.iterations = built_;
    result.sigma.assign(small.sigma.begin(),
                        small.sigma.begin() + static_cast<ptrdiff_t>(keep));
    result.u = lanczos_internal::RitzVectors(u_, small.u.ColBlock(0, keep));
    result.v = lanczos_internal::RitzVectors(v_, small.v.ColBlock(0, keep));
    CanonicalizeSingularVectorSigns(result.u, result.v);
    instruments_.iterations.Add(built_);
    if (obs::Enabled()) {
      // Ritz residual bound |beta_m * p(m-1, i)| from the last computed
      // off-diagonal coupling, maximized over the returned triplets.
      double max_residual = 0.0;
      for (size_t i = 0; i < keep; ++i) {
        max_residual = std::max(max_residual,
                                std::abs(last_bnorm_ * small.u(built_ - 1, i)));
      }
      instruments_.residual.Set(max_residual);
    }
    return result;
  }

 private:
  // The cold start's transpose apply has left Aᵀ r in right_: normalize it
  // into v_0. Falls back to a random direction when A ≈ 0 — every triplet
  // is zero then anyway.
  void Start() {
    double start_norm = Norm2(right_);
    if (start_norm <= options_.tolerance) {
      for (double& x : right_) x = rng_.Normal();
      start_norm = Norm2(right_);
    }
    for (size_t i = 0; i < m_; ++i) v_(0, i) = right_[i] / start_norm;
    std::copy(v_.RowPtr(0), v_.RowPtr(0) + m_, right_.begin());
    built_ = 1;
    need_ = Need::kForward;
  }

  // Left step j = built - 1, after left_ = A v_j:
  // u_j = (A v_j - beta_{j-1} u_{j-1}) / alpha_j.
  void LeftStep() {
    const size_t j = built_ - 1;
    const double coupling = j > 0 ? beta_[j - 1] : 0.0;
    const double anorm = Orthogonalize(
        u_, j, left_, tall_, coupling,
        SubtractPrevious(left_, coupling, j > 0 ? u_.RowPtr(j - 1) : nullptr));
    if (anorm > options_.tolerance) {
      alpha_[j] = anorm;
      StoreUnit(left_, anorm, u_.RowPtr(j));
    } else {
      // A v_j already lies in span(u_0..u_{j-1}): the left space stalled.
      // alpha_j = 0 block-decouples B; continue from a fresh direction.
      alpha_[j] = 0.0;
      if (!Restart(u_, j, left_)) {
        built_ = j;
        exhausted_ = true;
        need_ = Need::kNone;
        return;
      }
    }
    // The right step v_{j+1} is needed only while the basis can grow.
    need_ = j + 1 == steps_ ? Need::kNone : Need::kTranspose;
  }

  // Right step j = built - 1, after right_ = Aᵀ u_j:
  // v_{j+1} = (Aᵀ u_j - alpha_j v_j) / beta_j.
  void RightStep() {
    const size_t j = built_ - 1;
    const double bnorm =
        Orthogonalize(v_, j + 1, right_, !tall_, alpha_[j],
                      SubtractPrevious(right_, alpha_[j], v_.RowPtr(j)));
    last_bnorm_ = bnorm;
    need_ = Need::kNone;
    if (bnorm > options_.tolerance) {
      beta_[j] = bnorm;
      StoreUnit(right_, bnorm, v_.RowPtr(j + 1));
      if (Converged(bnorm)) return;
    } else {
      // Singular-invariant subspace pair found: restart and keep building
      // to the subspace cap. Stopping at the requested count would both
      // short-change rank-deficient endpoints (whose sibling endpoint
      // delivers more triplets, crashing the ISVD pairing) and miss the
      // second copies of duplicate singular values — one Krylov sequence
      // sees each distinct value exactly once; only restarted blocks
      // reach the rest of a degenerate cluster.
      beta_[j] = 0.0;
      if (!Restart(v_, j + 1, right_)) {
        exhausted_ = true;
        return;
      }
    }
    ++built_;
    need_ = Need::kForward;
  }

  // Optional early exit, mirroring the eigensolver: the residual of Ritz
  // triplet i is |beta_j * p_last,i| with p_i the left singular vectors of
  // the small bidiagonal B (A v̂ = σ û exactly; only the Aᵀ û relation
  // carries the coupling to the unexplored space).
  bool Converged(double bnorm) const {
    if (!(options_.convergence_tol > 0.0) || built_ < rank_ ||
        options_.convergence_interval == 0 ||
        built_ % options_.convergence_interval != 0) {
      return false;
    }
    const SvdResult projected = ComputeSvd(Bidiagonal());
    const double sigma_max = projected.sigma.empty() ? 0.0 : projected.sigma[0];
    if (!(sigma_max > 0.0)) return false;
    const double bound = options_.convergence_tol * sigma_max;
    for (size_t i = 0; i < rank_; ++i) {
      if (std::abs(bnorm * projected.u(built_ - 1, i)) > bound) return false;
    }
    return true;
  }

  // The built x built upper-bidiagonal B.
  Matrix Bidiagonal() const {
    Matrix b(built_, built_);
    for (size_t i = 0; i < built_; ++i) {
      b(i, i) = alpha_[i];
      if (i + 1 < built_) b(i, i + 1) = beta_[i];
    }
    return b;
  }

  // One-sided reorthogonalization: the short basis (v when n >= m, u
  // otherwise) is swept against all its earlier vectors every step; the
  // long one keeps its three-term recurrence and is swept only when the
  // guard's ω bound on its drift would pass kLongOrthogonalityBound.
  // Orthogonalizes the new vector `w` of a basis holding `count` vectors
  // (`coupling` is the recurrence coefficient of its predecessor, `norms`
  // from SubtractPrevious) and returns its norm.
  double Orthogonalize(const Matrix& basis, size_t count,
                       std::vector<double>& w, bool long_basis,
                       double coupling, StepNorms norms) {
    guard_.SeeApply(norms.apply);
    if (long_basis) {
      if (count == 0 || !guard_.NeedsSweep(coupling, norms.residual)) {
        return norms.residual;
      }
      instruments_.long_reorth.Add(1);
      guard_.Reset();
    }
    orth_timer_.Start();
    lanczos_internal::Reorthogonalize(basis, count, w);
    orth_timer_.Stop();
    return Norm2(w);
  }

  // Restarts row `count` of `basis`, leaving the new vector in `scratch`
  // too.
  bool Restart(Matrix& basis, size_t count, std::vector<double>& scratch) {
    instruments_.restarts.Add(1);
    guard_.Reset();
    orth_timer_.Start();
    const bool restarted = lanczos_internal::RestartVector(
        basis, count, scratch, rng_, options_.restart_tolerance);
    orth_timer_.Stop();
    if (restarted) {
      std::copy(basis.RowPtr(count), basis.RowPtr(count) + scratch.size(),
                scratch.begin());
    }
    return restarted;
  }

  const LanczosOptions& options_;
  SvdInstruments& instruments_;
  lanczos_internal::OrthTimer orth_timer_;
  const size_t n_, m_;
  const size_t rank_;   // triplets requested, clamped to min(n, m)
  const size_t steps_;  // Krylov dimension cap
  const bool tall_;
  // Krylov bases, one vector per row: u_k is row k of u_, v_k of v_.
  Matrix u_, v_;
  std::vector<double> alpha_, beta_;
  Rng rng_;
  // right_ holds v_j at a forward apply, left_ holds u_j after its step.
  std::vector<double> left_, right_;
  LongBasisGuard guard_;
  Need need_ = Need::kNone;
  size_t built_ = 0;  // bidiagonal columns in use
  double last_bnorm_ = 0.0;
  bool exhausted_ = false;
};

}  // namespace

SvdResult ComputeLanczosSvd(const LinearMap& a, size_t rank,
                            const LanczosOptions& options) {
  obs::TraceSpan span("lanczos.svd");
  GkSequence seq(a.Rows(), a.Cols(), rank, options);
  for (; seq.need() != GkSequence::Need::kNone; seq.Advance()) {
    if (seq.need() == GkSequence::Need::kForward) {
      a.Apply(seq.x(), seq.y());
    } else {
      a.ApplyTranspose(seq.x(), seq.y());
    }
  }
  return seq.Finish();
}

std::array<SvdResult, 2> ComputeLanczosSvdPair(
    const LinearMapPair& a, size_t rank, const LanczosOptions& lo_options,
    const LanczosOptions& hi_options) {
  obs::TraceSpan span("lanczos.svd");
  using Need = GkSequence::Need;
  GkSequence seq[2] = {GkSequence(a.Rows(), a.Cols(), rank, lo_options),
                       GkSequence(a.Rows(), a.Cols(), rank, hi_options)};
  while (seq[0].need() != Need::kNone || seq[1].need() != Need::kNone) {
    // When the sides wait for different actions (a warm side is ready for
    // its first forward apply while a cold side still needs its start
    // vector's transpose apply), only the transpose runs this round: the
    // sides then alternate in step.
    bool go[2];
    for (size_t side = 0; side < 2; ++side) {
      go[side] = seq[side].need() != Need::kNone &&
                 (seq[side].need() == Need::kTranspose ||
                  seq[1 - side].need() != Need::kTranspose);
    }
    if (go[0] && go[1]) {
      if (seq[0].need() == Need::kForward) {
        a.ApplyPair(seq[0].x(), seq[1].x(), seq[0].y(), seq[1].y());
      } else {
        a.ApplyTransposePair(seq[0].x(), seq[1].x(), seq[0].y(), seq[1].y());
      }
      ParallelFor(0, 2, [&](size_t side) { seq[side].Advance(); });
      continue;
    }
    for (size_t side = 0; side < 2; ++side) {
      if (!go[side]) continue;
      if (seq[side].need() == Need::kForward) {
        a.Apply(side, seq[side].x(), seq[side].y());
      } else {
        a.ApplyTranspose(side, seq[side].x(), seq[side].y());
      }
      seq[side].Advance();
    }
  }
  return {seq[0].Finish(), seq[1].Finish()};
}

SvdResult ComputeLanczosSvd(const Matrix& a, size_t rank,
                            const LanczosOptions& options) {
  return ComputeLanczosSvd(DenseLinearMap(a), rank, options);
}

}  // namespace ivmf
