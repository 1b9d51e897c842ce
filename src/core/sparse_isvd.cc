#include "core/sparse_isvd.h"

#include <optional>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "base/stopwatch.h"
#include "core/isvd_internal.h"
#include "interval/interval_ops.h"
#include "linalg/lanczos.h"
#include "linalg/lanczos_svd.h"
#include "linalg/pinv.h"
#include "sparse/block_matrix.h"
#include "sparse/sparse_gram_operator.h"

namespace ivmf {
namespace {

using isvd_internal::AlignMinSide;
using isvd_internal::BuildResult;
using isvd_internal::MakeIntervalDiag;
using isvd_internal::ScaleColumnsByInverseSigma;
using isvd_internal::SqrtClamped;

using Endpoint = SparseIntervalMatrix::Endpoint;
using Part = SparseEndpointMap::Part;

// ---------------------------------------------------------------------------
// Per-store helpers: everything the strategies below do differently on the
// CSR SparseIntervalMatrix and on the ShardedSparseIntervalMatrix.
//
// The CSR store honours GramSide and materializes the transpose its
// operators read (charged to preprocess): always for the ISVD0/ISVD1
// endpoint maps, and for the Gram operator only on the two-pass scalar and
// SELL backends. The sharded store always
// eigendecomposes MᵀM (ShardedGramOperator is M_eᵀ(M_e x) by construction)
// and never materializes a transposed store — transpose actions run as
// shard scatter reductions — so GramSide::kMMt / kAuto collapse to kMtM.
// Wide matrices that would have preferred MMᵀ pay a cols² scratch; an
// out-of-core store cannot afford a second copy of itself.
// ---------------------------------------------------------------------------

GramSide ResolveSide(const SparseIntervalMatrix& m, GramSide side) {
  if (side != GramSide::kAuto) return side;
  return m.cols() <= m.rows() ? GramSide::kMtM : GramSide::kMMt;
}

GramSide ResolveSide(const ShardedSparseIntervalMatrix&, GramSide) {
  return GramSide::kMtM;
}

// Binds the working matrix (M† or M†ᵀ) without copying the CSR arrays in
// the common non-transposed case; `storage` only materializes on the kMMt
// route.
const SparseIntervalMatrix& BindWork(const SparseIntervalMatrix& m,
                                     bool transposed,
                                     SparseIntervalMatrix& storage) {
  if (!transposed) return m;
  storage = m.Transpose();
  return storage;
}

const ShardedSparseIntervalMatrix& BindWork(
    const ShardedSparseIntervalMatrix& m, bool transposed,
    ShardedSparseIntervalMatrix& /*storage*/) {
  IVMF_CHECK_MSG(!transposed,
                 "a sharded store only runs a GramEig computed on MᵀM");
  return m;
}

// The transpose the operators read. CSR builds it once and charges it to
// `*seconds`; the sharded store has none, and `*seconds` stays untouched.
struct NoTranspose {};

SparseIntervalMatrix OperatorTranspose(const SparseIntervalMatrix& m,
                                       double* seconds) {
  Stopwatch sw;
  SparseIntervalMatrix mt = m.Transpose();
  *seconds = sw.Seconds();
  return mt;
}

NoTranspose OperatorTranspose(const ShardedSparseIntervalMatrix&, double*) {
  return {};
}

// The transpose the Gram operator reads: none on the fused AVX2 route,
// which applies M_eᵀ (M_e x) in one pass over the rows of `m`.
std::optional<SparseIntervalMatrix> GramTranspose(const SparseIntervalMatrix& m,
                                                  double* seconds) {
  if (!SparseGramOperator::ReadsTranspose(m)) return std::nullopt;
  return OperatorTranspose(m, seconds);
}

NoTranspose GramTranspose(const ShardedSparseIntervalMatrix&, double*) {
  return {};
}

SparseEndpointMap EndpointMap(const SparseIntervalMatrix& m,
                              const SparseIntervalMatrix& mt, Part part) {
  return SparseEndpointMap(m, mt, part);
}

ShardedEndpointMap EndpointMap(const ShardedSparseIntervalMatrix& m,
                               NoTranspose, Part part) {
  return ShardedEndpointMap(m, part);
}

SparseGramOperator GramOperator(const SparseIntervalMatrix& m,
                                const std::optional<SparseIntervalMatrix>& mt,
                                Endpoint e) {
  return mt ? SparseGramOperator(m, *mt, e) : SparseGramOperator(m, e);
}

ShardedGramOperator GramOperator(const ShardedSparseIntervalMatrix& m,
                                 NoTranspose, Endpoint e) {
  return ShardedGramOperator(m, e);
}

// workᵀ B, the ISVD4 recompute product, where work = m (or mᵀ when
// `transposed`). Both stores scatter it from the rows of m; on the CSR kMMt
// route workᵀ is m itself, so it is a forward product.
template <typename SparseMat>
IntervalMatrix WorkTransposeTimes(const SparseMat& m, bool transposed,
                                  const Matrix& b) {
  if (transposed) return m.IntervalMultiplyDense(b);
  return m.IntervalMultiplyDenseTranspose(b);
}

Matrix DenseGram(const SparseIntervalMatrix& m, Endpoint e) {
  return SparseGramOperator::DenseGram(m, e);
}

Matrix DenseGram(const ShardedSparseIntervalMatrix& m, Endpoint e) {
  return ShardedSparseIntervalMatrix::DenseGram(m, e);
}

IntervalMatrix DenseGramEndpoints(const SparseIntervalMatrix& m) {
  return SparseGramOperator::DenseGramEndpoints(m);
}

IntervalMatrix DenseGramEndpoints(const ShardedSparseIntervalMatrix& m) {
  return ShardedSparseIntervalMatrix::DenseGramEndpoints(m);
}

// ---------------------------------------------------------------------------
// Store-independent pieces.
// ---------------------------------------------------------------------------

// Per-endpoint Krylov options: the shared policy plus the endpoint's
// warm-start basis (when the streaming driver carried one).
LanczosOptions SideLanczos(const IsvdOptions& options, bool upper) {
  LanczosOptions lanczos = options.lanczos;
  const Matrix& warm = upper ? options.warm_basis_hi : options.warm_basis_lo;
  if (warm.cols() > 0) lanczos.start_basis = warm;
  return lanczos;
}

// Degenerate 0 x m / n x 0 shapes (m.empty()): the empty decomposition,
// factors shaped to match. The dense path never hits this (dense
// constructions always have cells); the sparse entry points guard it so CLI
// / streaming callers fed an empty matrix get a well-formed rank-0 result
// instead of an abort.
template <typename SparseMat>
IsvdResult EmptyResult(const SparseMat& m, DecompositionTarget target) {
  IsvdResult result;
  result.target = target;
  result.u = IntervalMatrix(m.rows(), 0);
  result.v = IntervalMatrix(m.cols(), 0);
  return result;
}

// Sparse counterpart of the SVD identity U = M V Σ⁻¹.
template <typename SparseMat>
Matrix RecoverLeftFactor(const SparseMat& m, Endpoint e, const Matrix& v,
                         const std::vector<double>& sigma) {
  Matrix u = m.MultiplyDense(e, v);  // n x r
  ScaleColumnsByInverseSigma(u, sigma);
  return u;
}

// Factors of a Gram-route result computed on M†ᵀ come back swapped.
void FinishGramResult(const GramEig& gram, IsvdResult& result) {
  result.iterations = gram.iterations;
  if (gram.transposed) std::swap(result.u, result.v);
}

// Both endpoint eigensolves of the materialized result.gram, on two threads.
void SolveDenseGram(size_t r, bool use_lanczos, const IsvdOptions& options,
                    GramEig& result) {
  ParallelFor(0, 2, [&](size_t side) {
    const Matrix& endpoint =
        side == 0 ? result.gram.lower() : result.gram.upper();
    EigResult& out = side == 0 ? result.lo : result.hi;
    out = use_lanczos
              ? ComputeLanczosEig(endpoint, r, SideLanczos(options, side == 1))
              : ComputeSymmetricEig(endpoint, r, options.eig);
  });
}

// The shared ISVD3/ISVD4 front half on the sparse path (mirrors the dense
// SolveLeftFactor in core/isvd.cc).
struct SolvedLeft {
  IntervalMatrix u;
  IntervalMatrix v;
  std::vector<Interval> sigma;
  Matrix sigma_inv;
  PhaseTimings timings;
};

template <typename SparseMat>
SolvedLeft SolveLeftFactor(const SparseMat& work, const GramEig& gram,
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

  // U† = M† ((V†)ᵀ)⁻¹ (Σ†)⁻¹ (Section 4.4.2): the inverses act on the small
  // averaged r-column factor; the only O(nnz) work is the final sparse
  // interval product.
  sw.Restart();
  const Matrix v_avg = out.v.Mid();
  const Matrix vt_inv =
      RobustInverse(v_avg.Transpose(), options.cond_threshold);  // m x r
  out.sigma_inv = Matrix::Diagonal(InverseIntervalDiagonal(out.sigma));
  out.u = work.IntervalMultiplyDense(vt_inv * out.sigma_inv);
  out.timings.solve = sw.Seconds();
  return out;
}

// ---------------------------------------------------------------------------
// ISVD0 — average and decompose (Section 4.1), matrix-free.
// ---------------------------------------------------------------------------

template <typename SparseMat>
IsvdResult Isvd0Impl(const SparseMat& m, size_t rank,
                     const IsvdOptions& options) {
  if (m.empty()) return EmptyResult(m, DecompositionTarget::kC);
  const size_t r = isvd_internal::ClampRank(m.rows(), m.cols(), rank);
  PhaseTimings timings;
  const auto mt = OperatorTranspose(m, &timings.preprocess);

  Stopwatch sw;
  const auto mid = EndpointMap(m, mt, Part::kMid);
  // ISVD0's single midpoint solve reads the lo warm-basis slot.
  const SvdResult svd = ComputeLanczosSvd(mid, r, SideLanczos(options, false));
  timings.decompose = sw.Seconds();
  IVMF_CHECK_MSG(!svd.truncated,
                 "Lanczos SVD truncated the midpoint spectrum "
                 "(restart exhausted; see LanczosOptions::restart_tolerance)");

  IsvdResult result;
  result.iterations = svd.iterations;
  result.target = DecompositionTarget::kC;  // ISVD0 is inherently scalar.
  result.u = IntervalMatrix::FromScalar(svd.u);
  result.v = IntervalMatrix::FromScalar(svd.v);
  result.sigma.resize(svd.sigma.size());
  for (size_t j = 0; j < svd.sigma.size(); ++j)
    result.sigma[j] = Interval::Scalar(svd.sigma[j]);
  result.timings = timings;
  return result;
}

// ---------------------------------------------------------------------------
// ISVD1 — decompose and align (Section 4.2), matrix-free.
// ---------------------------------------------------------------------------

template <typename SparseMat>
IsvdResult Isvd1Impl(const SparseMat& m, size_t rank,
                     const IsvdOptions& options) {
  if (m.empty()) return EmptyResult(m, options.target);
  const size_t r = isvd_internal::ClampRank(m.rows(), m.cols(), rank);
  PhaseTimings timings;
  const auto mt = OperatorTranspose(m, &timings.preprocess);

  // Independent endpoint decompositions run on two threads, sharing the
  // CSR transpose. The endpoint maps consume the endpoint values directly,
  // so signed matrices need no special casing here.
  Stopwatch sw;
  SvdResult lo, hi;
  ParallelFor(0, 2, [&](size_t side) {
    const auto map =
        EndpointMap(m, mt, side == 0 ? Part::kLower : Part::kUpper);
    (side == 0 ? lo : hi) =
        ComputeLanczosSvd(map, r, SideLanczos(options, side == 1));
  });
  timings.decompose = sw.Seconds();
  // Truncation would break the lo/hi pairing below (mismatched triplet
  // counts) with an opaque shape error; fail with the cause instead.
  IVMF_CHECK_MSG(!lo.truncated && !hi.truncated,
                 "Lanczos SVD truncated an endpoint spectrum "
                 "(restart exhausted; see LanczosOptions::restart_tolerance)");

  sw.Restart();
  const IlsaResult ilsa = ComputeIlsa(lo.v, hi.v, options.ilsa);
  Matrix u_lo = lo.u;
  Matrix v_lo = lo.v;
  std::vector<double> s_lo = lo.sigma;
  AlignMinSide(ilsa, &u_lo, &v_lo, &s_lo);
  timings.align = sw.Seconds();

  IsvdResult result = BuildResult(IntervalMatrix(std::move(u_lo), hi.u),
                                  MakeIntervalDiag(s_lo, hi.sigma),
                                  IntervalMatrix(std::move(v_lo), hi.v),
                                  options.target, timings);
  result.iterations = lo.iterations + hi.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Shared Gram eigendecomposition for ISVD2–ISVD4.
// ---------------------------------------------------------------------------

template <typename SparseMat>
GramEig ComputeGramEigImpl(const SparseMat& m, size_t rank,
                           const IsvdOptions& options) {
  GramEig result;
  if (m.empty()) return result;  // rank-0 eigendecomposition
  result.transposed = (ResolveSide(m, options.gram_side) == GramSide::kMMt);
  SparseMat work_storage;
  const SparseMat& work = BindWork(m, result.transposed, work_storage);
  const size_t r = isvd_internal::ClampRank(work.rows(), work.cols(), rank);

  bool use_lanczos = options.eig_solver != EigSolver::kJacobi;
  if (options.eig_solver == EigSolver::kAuto) {
    use_lanczos = 4 * r < work.cols();
  }

  if (!m.IsNonNegative()) {
    // Signed route: the Algorithm-1 Gram endpoints are elementwise min/max
    // over four products and have no operator form, so they are accumulated
    // from the sparse rows (never densifying M†) and handed to the same
    // solver choice the dense path makes — the results are term-for-term
    // identical to IntervalMatMul(M†ᵀ, M†) + eig.
    Stopwatch sw;
    result.gram = DenseGramEndpoints(work);
    result.preprocess_seconds = sw.Seconds();

    sw.Restart();
    SolveDenseGram(r, use_lanczos, options, result);
    result.iterations = result.lo.iterations + result.hi.iterations;
    IVMF_CHECK_MSG(!result.lo.truncated && !result.hi.truncated,
                   "Lanczos truncated a Gram endpoint spectrum "
                   "(restart exhausted; see LanczosOptions::restart_tolerance)");
    result.decompose_seconds = sw.Seconds();
    return result;
  }

  if (!use_lanczos) {
    // Exact route for narrow matrices: accumulate the dense endpoint Grams
    // from the sparse rows, then Jacobi. For entrywise non-negative input
    // these are exactly the Algorithm-1 interval Gram endpoints.
    Stopwatch sw;
    Matrix gram_lo = DenseGram(work, Endpoint::kLower);
    Matrix gram_hi = DenseGram(work, Endpoint::kUpper);
    result.gram = IntervalMatrix(std::move(gram_lo), std::move(gram_hi));
    result.preprocess_seconds = sw.Seconds();

    sw.Restart();
    SolveDenseGram(r, /*use_lanczos=*/false, options, result);
    result.decompose_seconds = sw.Seconds();
    return result;
  }

  // Matrix-free route: the Gram matrix is never formed. On the two-pass CSR
  // backends, building the shared transpose once is the whole preprocess
  // phase; the fused AVX2 CSR route and the sharded store run each Lanczos
  // step as one pass over the rows and have no preprocess phase to charge.
  const auto work_t = GramTranspose(work, &result.preprocess_seconds);

  Stopwatch sw;
  ParallelFor(0, 2, [&](size_t side) {
    const Endpoint e = side == 0 ? Endpoint::kLower : Endpoint::kUpper;
    const auto op = GramOperator(work, work_t, e);
    EigResult& out = side == 0 ? result.lo : result.hi;
    out = ComputeLanczosEig(op, r, SideLanczos(options, side == 1));
  });
  result.iterations = result.lo.iterations + result.hi.iterations;
  IVMF_CHECK_MSG(!result.lo.truncated && !result.hi.truncated,
                 "Lanczos truncated a Gram endpoint spectrum "
                 "(restart exhausted; see LanczosOptions::restart_tolerance)");
  result.decompose_seconds = sw.Seconds();
  return result;
}

// ---------------------------------------------------------------------------
// ISVD2–ISVD4 on a precomputed GramEig (Sections 4.3–4.5).
// ---------------------------------------------------------------------------

template <typename SparseMat>
IsvdResult Isvd2Impl(const SparseMat& m, const GramEig& gram,
                     const IsvdOptions& options) {
  if (m.empty()) return EmptyResult(m, options.target);
  SparseMat work_storage;
  const SparseMat& work = BindWork(m, gram.transposed, work_storage);
  PhaseTimings timings;
  timings.preprocess = gram.preprocess_seconds;
  timings.decompose = gram.decompose_seconds;

  Matrix v_lo = gram.lo.eigenvectors;
  Matrix v_hi = gram.hi.eigenvectors;
  std::vector<double> s_lo = SqrtClamped(gram.lo.eigenvalues);
  std::vector<double> s_hi = SqrtClamped(gram.hi.eigenvalues);

  Stopwatch sw;
  Matrix u_lo = RecoverLeftFactor(work, Endpoint::kLower, v_lo, s_lo);
  Matrix u_hi = RecoverLeftFactor(work, Endpoint::kUpper, v_hi, s_hi);
  timings.solve = sw.Seconds();

  sw.Restart();
  const IlsaResult ilsa = ComputeIlsa(v_lo, v_hi, options.ilsa);
  AlignMinSide(ilsa, &u_lo, &v_lo, &s_lo);
  timings.align = sw.Seconds();

  IsvdResult result =
      BuildResult(IntervalMatrix(std::move(u_lo), std::move(u_hi)),
                  MakeIntervalDiag(s_lo, s_hi),
                  IntervalMatrix(std::move(v_lo), std::move(v_hi)),
                  options.target, timings);
  FinishGramResult(gram, result);
  return result;
}

template <typename SparseMat>
IsvdResult Isvd3Impl(const SparseMat& m, const GramEig& gram,
                     const IsvdOptions& options) {
  if (m.empty()) return EmptyResult(m, options.target);
  SparseMat work_storage;
  const SparseMat& work = BindWork(m, gram.transposed, work_storage);
  SolvedLeft solved = SolveLeftFactor(work, gram, options);
  IsvdResult result =
      BuildResult(std::move(solved.u), std::move(solved.sigma),
                  std::move(solved.v), options.target, solved.timings);
  FinishGramResult(gram, result);
  return result;
}

template <typename SparseMat>
IsvdResult Isvd4Impl(const SparseMat& m, const GramEig& gram,
                     const IsvdOptions& options) {
  if (m.empty()) return EmptyResult(m, options.target);
  SparseMat work_storage;
  const SparseMat& work = BindWork(m, gram.transposed, work_storage);
  SolvedLeft solved = SolveLeftFactor(work, gram, options);

  // Recompute V† from the solved U† (Section 4.5.1). The scalar prefix
  // S = Σ†⁻¹ (U†ᵀ)⁻¹ is r x n, so V† = (S M†)ᵀ is evaluated as M†ᵀ Sᵀ —
  // one transposed sparse interval product scattered from the rows,
  // matching the dense mixed-product semantics.
  Stopwatch sw;
  const Matrix u_avg = solved.u.Mid();  // n x r
  const Matrix u_inv = RobustInverse(u_avg, options.cond_threshold);  // r x n
  const Matrix s_t = (solved.sigma_inv * u_inv).Transpose();          // n x r
  const IntervalMatrix v_recomputed =
      WorkTransposeTimes(m, gram.transposed, s_t);
  solved.timings.recompute = sw.Seconds();

  IsvdResult result =
      BuildResult(std::move(solved.u), std::move(solved.sigma), v_recomputed,
                  options.target, solved.timings);
  FinishGramResult(gram, result);
  return result;
}

template <typename SparseMat>
IsvdResult RunIsvdImpl(int strategy, const SparseMat& m, size_t rank,
                       const IsvdOptions& options) {
  switch (strategy) {
    case 0:
      return Isvd0Impl(m, rank, options);
    case 1:
      return Isvd1Impl(m, rank, options);
    case 2:
      return Isvd2Impl(m, ComputeGramEigImpl(m, rank, options), options);
    case 3:
      return Isvd3Impl(m, ComputeGramEigImpl(m, rank, options), options);
    case 4:
      return Isvd4Impl(m, ComputeGramEigImpl(m, rank, options), options);
    default:
      IVMF_CHECK_MSG(false, "ISVD strategy must be 0..4");
      return {};
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public overloads: the CSR store.
// ---------------------------------------------------------------------------

IsvdResult Isvd0(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd0Impl(m, rank, options);
}

IsvdResult Isvd1(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd1Impl(m, rank, options);
}

GramEig ComputeGramEig(const SparseIntervalMatrix& m, size_t rank,
                       const IsvdOptions& options) {
  return ComputeGramEigImpl(m, rank, options);
}

// `rank` is baked into `gram` on the GramEig forms.
IsvdResult Isvd2(const SparseIntervalMatrix& m, size_t /*rank*/,
                 const GramEig& gram, const IsvdOptions& options) {
  return Isvd2Impl(m, gram, options);
}

IsvdResult Isvd3(const SparseIntervalMatrix& m, size_t /*rank*/,
                 const GramEig& gram, const IsvdOptions& options) {
  return Isvd3Impl(m, gram, options);
}

IsvdResult Isvd4(const SparseIntervalMatrix& m, size_t /*rank*/,
                 const GramEig& gram, const IsvdOptions& options) {
  return Isvd4Impl(m, gram, options);
}

IsvdResult Isvd2(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd2Impl(m, ComputeGramEigImpl(m, rank, options), options);
}

IsvdResult Isvd3(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd3Impl(m, ComputeGramEigImpl(m, rank, options), options);
}

IsvdResult Isvd4(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd4Impl(m, ComputeGramEigImpl(m, rank, options), options);
}

IsvdResult RunIsvd(int strategy, const SparseIntervalMatrix& m, size_t rank,
                   const IsvdOptions& options) {
  return RunIsvdImpl(strategy, m, rank, options);
}

// ---------------------------------------------------------------------------
// Public overloads: the sharded store (the out-of-core route).
// ---------------------------------------------------------------------------

IsvdResult Isvd0(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd0Impl(m, rank, options);
}

IsvdResult Isvd1(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd1Impl(m, rank, options);
}

GramEig ComputeGramEig(const ShardedSparseIntervalMatrix& m, size_t rank,
                       const IsvdOptions& options) {
  return ComputeGramEigImpl(m, rank, options);
}

IsvdResult Isvd2(const ShardedSparseIntervalMatrix& m, size_t /*rank*/,
                 const GramEig& gram, const IsvdOptions& options) {
  return Isvd2Impl(m, gram, options);
}

IsvdResult Isvd3(const ShardedSparseIntervalMatrix& m, size_t /*rank*/,
                 const GramEig& gram, const IsvdOptions& options) {
  return Isvd3Impl(m, gram, options);
}

IsvdResult Isvd4(const ShardedSparseIntervalMatrix& m, size_t /*rank*/,
                 const GramEig& gram, const IsvdOptions& options) {
  return Isvd4Impl(m, gram, options);
}

IsvdResult Isvd2(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd2Impl(m, ComputeGramEigImpl(m, rank, options), options);
}

IsvdResult Isvd3(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd3Impl(m, ComputeGramEigImpl(m, rank, options), options);
}

IsvdResult Isvd4(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd4Impl(m, ComputeGramEigImpl(m, rank, options), options);
}

IsvdResult RunIsvd(int strategy, const ShardedSparseIntervalMatrix& m,
                   size_t rank, const IsvdOptions& options) {
  return RunIsvdImpl(strategy, m, rank, options);
}

}  // namespace ivmf
