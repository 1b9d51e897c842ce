#include "core/isvd.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/parallel.h"
#include "base/stopwatch.h"
#include "core/isvd_internal.h"
#include "interval/interval_ops.h"
#include "linalg/pinv.h"

namespace ivmf {
namespace {

size_t ClampRank(const IntervalMatrix& m, size_t rank) {
  return isvd_internal::ClampRank(m.rows(), m.cols(), rank);
}

// U = M * V * diag(1/sigma): the SVD identity U = M (Vᵀ)⁻¹ Σ⁻¹ specialised
// to V with orthonormal columns (where pinv(Vᵀ) = V). Columns with zero
// singular value become zero vectors.
Matrix RecoverLeftFactor(const Matrix& m, const Matrix& v,
                         const std::vector<double>& sigma) {
  Matrix u = m * v;  // n x r
  isvd_internal::ScaleColumnsByInverseSigma(u, sigma);
  return u;
}

GramSide ResolveSide(const IntervalMatrix& m, GramSide side) {
  if (side != GramSide::kAuto) return side;
  return m.cols() <= m.rows() ? GramSide::kMtM : GramSide::kMMt;
}

void SwapFactors(IsvdResult& result) {
  std::swap(result.u, result.v);
}

}  // namespace

namespace isvd_internal {

size_t ClampRank(size_t rows, size_t cols, size_t rank) {
  const size_t full = std::min(rows, cols);
  if (rank == 0 || rank > full) return full;
  return rank;
}

std::vector<double> SqrtClamped(const std::vector<double>& eigenvalues) {
  std::vector<double> sigma(eigenvalues.size());
  for (size_t i = 0; i < eigenvalues.size(); ++i)
    sigma[i] = eigenvalues[i] > 0.0 ? std::sqrt(eigenvalues[i]) : 0.0;
  return sigma;
}

std::vector<Interval> MakeIntervalDiag(const std::vector<double>& lo,
                                       const std::vector<double>& hi) {
  IVMF_CHECK(lo.size() == hi.size());
  std::vector<Interval> diag(lo.size());
  for (size_t i = 0; i < lo.size(); ++i) diag[i] = Interval(lo[i], hi[i]);
  return diag;
}

void AlignMinSide(const IlsaResult& ilsa, Matrix* u_lo, Matrix* v_lo,
                  std::vector<double>* s_lo) {
  if (u_lo != nullptr) *u_lo = ApplyIlsaToColumns(*u_lo, ilsa);
  if (v_lo != nullptr) *v_lo = ApplyIlsaToColumns(*v_lo, ilsa);
  if (s_lo != nullptr) *s_lo = ApplyIlsaToDiagonal(*s_lo, ilsa);
}

void ScaleColumnsByInverseSigma(Matrix& u, const std::vector<double>& sigma) {
  for (size_t j = 0; j < u.cols(); ++j) {
    const double inv = sigma[j] > 1e-300 ? 1.0 / sigma[j] : 0.0;
    for (size_t i = 0; i < u.rows(); ++i) u(i, j) *= inv;
  }
}

IsvdResult BuildResult(IntervalMatrix u, std::vector<Interval> sigma,
                       IntervalMatrix v, DecompositionTarget target,
                       PhaseTimings timings) {
  Stopwatch sw;
  AverageReplaceVector(sigma);

  IsvdResult result;
  result.target = target;
  if (target == DecompositionTarget::kA) {
    result.u = u.AverageReplaced();
    result.sigma = std::move(sigma);
    result.v = v.AverageReplaced();
  } else {
    // Targets b and c: average the factor endpoints, renormalize columns in
    // L2, and push the norm products into the core (Sections 3.4.2–3.4.3).
    // The factors skip average replacement: it turns a misordered [a, b]
    // into [m, m] with m = (a + b) / 2, whose midpoint is m exactly, so
    // every midpoint is the same with or without it.
    Matrix u_avg = u.Mid();
    Matrix v_avg = v.Mid();
    const std::vector<double> u_norms = NormalizeColumnsL2(u_avg);
    const std::vector<double> v_norms = NormalizeColumnsL2(v_avg);
    result.u = IntervalMatrix::FromScalar(std::move(u_avg));
    result.v = IntervalMatrix::FromScalar(std::move(v_avg));
    result.sigma.resize(sigma.size());
    for (size_t j = 0; j < sigma.size(); ++j) {
      const double rho = u_norms[j] * v_norms[j];
      if (target == DecompositionTarget::kB) {
        result.sigma[j] = Interval(sigma[j].lo * rho, sigma[j].hi * rho);
      } else {
        result.sigma[j] = Interval::Scalar(sigma[j].Mid() * rho);
      }
    }
  }
  timings.renormalize += sw.Seconds();
  result.timings = timings;
  return result;
}

}  // namespace isvd_internal

namespace {
using isvd_internal::AlignMinSide;
using isvd_internal::BuildResult;
using isvd_internal::MakeIntervalDiag;
using isvd_internal::SqrtClamped;
}  // namespace

PhaseTimings& PhaseTimings::operator+=(const PhaseTimings& other) {
  preprocess += other.preprocess;
  decompose += other.decompose;
  align += other.align;
  solve += other.solve;
  recompute += other.recompute;
  renormalize += other.renormalize;
  return *this;
}

Matrix IsvdResult::SigmaLower() const {
  std::vector<double> d(sigma.size());
  for (size_t i = 0; i < sigma.size(); ++i) d[i] = sigma[i].lo;
  return Matrix::Diagonal(d);
}

Matrix IsvdResult::SigmaUpper() const {
  std::vector<double> d(sigma.size());
  for (size_t i = 0; i < sigma.size(); ++i) d[i] = sigma[i].hi;
  return Matrix::Diagonal(d);
}

IntervalMatrix IsvdResult::Reconstruct() const {
  switch (target) {
    case DecompositionTarget::kA: {
      // Algorithm 12: full interval-algebra recombination.
      const IntervalMatrix sigma_int(SigmaLower(), SigmaUpper());
      return IntervalMatMul(IntervalMatMul(u, sigma_int), v.Transpose());
    }
    case DecompositionTarget::kB: {
      // Algorithm 13: scalar factors with the two core endpoints, then
      // average replacement of misordered entries.
      const Matrix& su = ScalarU();
      const Matrix vt = ScalarV().Transpose();
      const Matrix lo = su * SigmaLower() * vt;
      const Matrix hi = su * SigmaUpper() * vt;
      return IntervalMatrix(lo, hi).AverageReplaced();
    }
    case DecompositionTarget::kC: {
      // Algorithm 14: fully scalar reconstruction.
      const Matrix mid = ScalarU() * SigmaLower() * ScalarV().Transpose();
      return IntervalMatrix::FromScalar(mid);
    }
  }
  IVMF_CHECK_MSG(false, "unknown decomposition target");
  return {};
}

// ---------------------------------------------------------------------------
// ISVD0 — average and decompose (Section 4.1).
// ---------------------------------------------------------------------------

IsvdResult Isvd0(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  const size_t r = ClampRank(m, rank);
  PhaseTimings timings;

  Stopwatch sw;
  const Matrix m_avg = m.Mid();
  timings.preprocess = sw.Seconds();

  sw.Restart();
  const SvdResult svd = ComputeSvd(m_avg, r, options.svd);
  timings.decompose = sw.Seconds();

  IsvdResult result;
  result.target = DecompositionTarget::kC;  // ISVD0 is inherently scalar.
  result.u = IntervalMatrix::FromScalar(svd.u);
  result.v = IntervalMatrix::FromScalar(svd.v);
  result.sigma.resize(r);
  for (size_t j = 0; j < r; ++j)
    result.sigma[j] = Interval::Scalar(svd.sigma[j]);
  result.timings = timings;
  return result;
}

// ---------------------------------------------------------------------------
// ISVD1 — decompose and align (Section 4.2).
// ---------------------------------------------------------------------------

IsvdResult Isvd1(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  const size_t r = ClampRank(m, rank);
  PhaseTimings timings;

  Stopwatch sw;
  SvdResult lo, hi;
  // Independent endpoint decompositions run on two threads.
  ParallelFor(0, 2, [&](size_t side) {
    if (side == 0) {
      lo = ComputeSvd(m.lower(), r, options.svd);
    } else {
      hi = ComputeSvd(m.upper(), r, options.svd);
    }
  });
  timings.decompose = sw.Seconds();

  sw.Restart();
  const IlsaResult ilsa = ComputeIlsa(lo.v, hi.v, options.ilsa);
  Matrix u_lo = lo.u;
  Matrix v_lo = lo.v;
  std::vector<double> s_lo = lo.sigma;
  AlignMinSide(ilsa, &u_lo, &v_lo, &s_lo);
  timings.align = sw.Seconds();

  return BuildResult(IntervalMatrix(std::move(u_lo), hi.u),
                     MakeIntervalDiag(s_lo, hi.sigma),
                     IntervalMatrix(std::move(v_lo), hi.v), options.target,
                     timings);
}

// ---------------------------------------------------------------------------
// Shared Gram-eigendecomposition for ISVD2–ISVD4 (Section 4.3.1).
// ---------------------------------------------------------------------------

GramEig ComputeGramEig(const IntervalMatrix& m, size_t rank,
                       const IsvdOptions& options) {
  const GramSide side = ResolveSide(m, options.gram_side);
  const IntervalMatrix& input = m;
  GramEig result;
  result.transposed = (side == GramSide::kMMt);
  const IntervalMatrix work = result.transposed ? input.Transpose() : input;
  const size_t r = ClampRank(work, rank);

  Stopwatch sw;
  // A† = M†ᵀ M† via interval matrix multiplication (Algorithm 1). The
  // endpoint matrices of A† are symmetric because the min/max of the four
  // endpoint products is invariant under transposition.
  result.gram = IntervalMatMul(work.Transpose(), work);
  result.preprocess_seconds = sw.Seconds();

  // Solver choice: Lanczos pays off when only a small leading subspace is
  // needed; Jacobi computes the full spectrum.
  bool use_lanczos = options.eig_solver == EigSolver::kLanczos;
  if (options.eig_solver == EigSolver::kAuto) {
    use_lanczos = 4 * r < result.gram.rows();
  }

  // The two endpoint eigendecompositions are independent; run them on two
  // threads (ParallelFor keeps the serial path when only one core exists).
  sw.Restart();
  ParallelFor(0, 2, [&](size_t side) {
    const Matrix& endpoint =
        side == 0 ? result.gram.lower() : result.gram.upper();
    LanczosOptions lanczos = options.lanczos;
    const Matrix& warm =
        side == 0 ? options.warm_basis_lo : options.warm_basis_hi;
    if (warm.cols() > 0) lanczos.start_basis = warm;
    EigResult& out = side == 0 ? result.lo : result.hi;
    out = use_lanczos ? ComputeLanczosEig(endpoint, r, lanczos)
                      : ComputeSymmetricEig(endpoint, r, options.eig);
  });
  result.iterations = result.lo.iterations + result.hi.iterations;
  IVMF_CHECK_MSG(!result.lo.truncated && !result.hi.truncated,
                 "Lanczos truncated a Gram endpoint spectrum "
                 "(restart exhausted; see LanczosOptions::restart_tolerance)");
  result.decompose_seconds = sw.Seconds();
  return result;
}

GramEig TruncateGramEig(const GramEig& full, size_t rank) {
  GramEig out;
  out.gram = full.gram;
  out.transposed = full.transposed;
  out.preprocess_seconds = full.preprocess_seconds;
  out.decompose_seconds = full.decompose_seconds;
  out.iterations = full.iterations;
  const size_t keep_lo = std::min(rank, full.lo.eigenvalues.size());
  const size_t keep_hi = std::min(rank, full.hi.eigenvalues.size());
  out.lo.eigenvalues.assign(full.lo.eigenvalues.begin(),
                            full.lo.eigenvalues.begin() + keep_lo);
  out.hi.eigenvalues.assign(full.hi.eigenvalues.begin(),
                            full.hi.eigenvalues.begin() + keep_hi);
  out.lo.eigenvectors = full.lo.eigenvectors.ColBlock(0, keep_lo);
  out.hi.eigenvectors = full.hi.eigenvectors.ColBlock(0, keep_hi);
  return out;
}

// ---------------------------------------------------------------------------
// ISVD2 — decompose, solve, align (Section 4.3).
// ---------------------------------------------------------------------------

IsvdResult Isvd2(const IntervalMatrix& m, size_t rank, const GramEig& gram,
                 const IsvdOptions& options) {
  (void)rank;  // rank is baked into `gram`
  const IntervalMatrix work = gram.transposed ? m.Transpose() : m;
  PhaseTimings timings;
  timings.preprocess = gram.preprocess_seconds;
  timings.decompose = gram.decompose_seconds;

  Matrix v_lo = gram.lo.eigenvectors;
  Matrix v_hi = gram.hi.eigenvectors;
  std::vector<double> s_lo = SqrtClamped(gram.lo.eigenvalues);
  std::vector<double> s_hi = SqrtClamped(gram.hi.eigenvalues);

  // Recover the left factors from the SVD identity (Section 4.3.2).
  Stopwatch sw;
  Matrix u_lo = RecoverLeftFactor(work.lower(), v_lo, s_lo);
  Matrix u_hi = RecoverLeftFactor(work.upper(), v_hi, s_hi);
  timings.solve = sw.Seconds();

  sw.Restart();
  const IlsaResult ilsa = ComputeIlsa(v_lo, v_hi, options.ilsa);
  AlignMinSide(ilsa, &u_lo, &v_lo, &s_lo);
  timings.align = sw.Seconds();

  IsvdResult result = BuildResult(IntervalMatrix(std::move(u_lo), std::move(u_hi)),
                                  MakeIntervalDiag(s_lo, s_hi),
                                  IntervalMatrix(std::move(v_lo), std::move(v_hi)),
                                  options.target, timings);
  result.iterations = gram.iterations;
  if (gram.transposed) SwapFactors(result);
  return result;
}

IsvdResult Isvd2(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd2(m, rank, ComputeGramEig(m, rank, options), options);
}

// ---------------------------------------------------------------------------
// ISVD3 — decompose, align, solve (Section 4.4).
// ---------------------------------------------------------------------------

namespace {

// The common ISVD3/ISVD4 front half: align the eigen-side factors and solve
// for the interval-valued left factor U† = M† (V†ᵀ)⁻¹ Σ†⁻¹.
struct SolvedLeft {
  IntervalMatrix u;             // interval left factor
  IntervalMatrix v;             // aligned eigen-side factor
  std::vector<Interval> sigma;  // aligned interval core diagonal
  Matrix sigma_inv;             // scalar optimal inverse of Σ† (Algorithm 4)
  PhaseTimings timings;
};

SolvedLeft SolveLeftFactor(const IntervalMatrix& work, const GramEig& gram,
                           const IsvdOptions& options) {
  SolvedLeft out;
  out.timings.preprocess = gram.preprocess_seconds;
  out.timings.decompose = gram.decompose_seconds;

  Matrix v_lo = gram.lo.eigenvectors;
  const Matrix& v_hi = gram.hi.eigenvectors;
  std::vector<double> s_lo = SqrtClamped(gram.lo.eigenvalues);
  const std::vector<double> s_hi = SqrtClamped(gram.hi.eigenvalues);

  Stopwatch sw;
  const IlsaResult ilsa = ComputeIlsa(v_lo, v_hi, options.ilsa);
  AlignMinSide(ilsa, /*u_lo=*/nullptr, &v_lo, &s_lo);
  out.timings.align = sw.Seconds();

  out.v = IntervalMatrix(std::move(v_lo), v_hi);
  out.sigma = MakeIntervalDiag(s_lo, s_hi);

  // Solve U† = M† ((V†)ᵀ)⁻¹ (Σ†)⁻¹ (Section 4.4.2). (V†ᵀ)⁻¹ is
  // approximated through the averaged factor (Section 4.4.2.2): plain
  // inverse when square and well-conditioned, else the Moore–Penrose
  // pseudo-inverse with the paper's 0.1 singular-value cutoff.
  sw.Restart();
  const Matrix v_avg = out.v.Mid();
  const Matrix vt_inv = RobustInverse(v_avg.Transpose(),
                                      options.cond_threshold);  // m x r
  out.sigma_inv = Matrix::Diagonal(InverseIntervalDiagonal(out.sigma));
  out.u = IntervalMatMul(work, vt_inv * out.sigma_inv);
  out.timings.solve = sw.Seconds();
  return out;
}

}  // namespace

IsvdResult Isvd3(const IntervalMatrix& m, size_t rank, const GramEig& gram,
                 const IsvdOptions& options) {
  (void)rank;  // rank is baked into `gram`
  const IntervalMatrix work = gram.transposed ? m.Transpose() : m;
  SolvedLeft solved = SolveLeftFactor(work, gram, options);
  IsvdResult result =
      BuildResult(std::move(solved.u), std::move(solved.sigma),
                  std::move(solved.v), options.target, solved.timings);
  result.iterations = gram.iterations;
  if (gram.transposed) SwapFactors(result);
  return result;
}

IsvdResult Isvd3(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd3(m, rank, ComputeGramEig(m, rank, options), options);
}

// ---------------------------------------------------------------------------
// ISVD4 — decompose, align, solve, recompute (Section 4.5).
// ---------------------------------------------------------------------------

IsvdResult Isvd4(const IntervalMatrix& m, size_t rank, const GramEig& gram,
                 const IsvdOptions& options) {
  (void)rank;
  const IntervalMatrix work = gram.transposed ? m.Transpose() : m;
  SolvedLeft solved = SolveLeftFactor(work, gram, options);

  // Recompute V† from the solved U† (Section 4.5.1):
  // V† = (Σ†⁻¹ (U†ᵀ)⁻¹ M†)ᵀ, with (U†ᵀ)⁻¹ approximated via the averaged
  // factor exactly like the V inversion above.
  Stopwatch sw;
  const Matrix u_avg = solved.u.Mid();                      // n x r
  const Matrix u_inv = RobustInverse(u_avg, options.cond_threshold);  // r x n
  const IntervalMatrix v_recomputed =
      IntervalMatMul(solved.sigma_inv * u_inv, work).Transpose();  // m x r
  solved.timings.recompute = sw.Seconds();

  IsvdResult result =
      BuildResult(std::move(solved.u), std::move(solved.sigma), v_recomputed,
                  options.target, solved.timings);
  result.iterations = gram.iterations;
  if (gram.transposed) SwapFactors(result);
  return result;
}

IsvdResult Isvd4(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd4(m, rank, ComputeGramEig(m, rank, options), options);
}

// ---------------------------------------------------------------------------

IsvdResult RunIsvd(int strategy, const IntervalMatrix& m, size_t rank,
                   const IsvdOptions& options) {
  switch (strategy) {
    case 0:
      return Isvd0(m, rank, options);
    case 1:
      return Isvd1(m, rank, options);
    case 2:
      return Isvd2(m, rank, options);
    case 3:
      return Isvd3(m, rank, options);
    case 4:
      return Isvd4(m, rank, options);
    default:
      IVMF_CHECK_MSG(false, "ISVD strategy must be 0..4");
      return {};
  }
}

std::string IsvdName(int strategy, DecompositionTarget target) {
  std::string name = "ISVD" + std::to_string(strategy);
  if (strategy == 0) return name;  // ISVD0 is target-c by construction
  switch (target) {
    case DecompositionTarget::kA:
      return name + "-a";
    case DecompositionTarget::kB:
      return name + "-b";
    case DecompositionTarget::kC:
      return name + "-c";
  }
  return name;
}

}  // namespace ivmf
