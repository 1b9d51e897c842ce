// Truncated symmetric eigendecomposition via the Lanczos method with full
// reorthogonalization.
//
// ISVD2–ISVD4 only need the top-r eigenpairs of the Gram matrices; the
// cyclic Jacobi solver (linalg/eig.h) computes the full spectrum in O(n³)
// per sweep, which dominates the pipeline for large matrices. Lanczos
// builds a Krylov basis of dimension O(r) and solves a small symmetric
// tridiagonal problem instead — typically an order of magnitude faster at
// low rank while agreeing with Jacobi to ~1e-8 (see the kernels
// microbenchmark and tests/lanczos_test.cc).
//
// One Krylov sequence is a state object (internal to lanczos.cc): the
// driver applies the operator to its current vector and hands the result
// back for one step of the recurrence, until the sequence stops. Two
// drivers share it. ComputeLanczosEig drives one sequence.
// ComputeLanczosEigPair drives two in lock-step — the lower and upper
// endpoint Grams of an interval matrix — so that every step makes one
// LinearOperatorPair::ApplyPair, which the sparse operators serve with one
// pass over the shared sparsity pattern, and then advances both
// recurrences in one ParallelFor. Each side keeps its own LanczosOptions
// (warm basis, early exit, restarts, `truncated`); once one side stops,
// the other continues on single-side applies. A pair solve returns what
// two single solves with the same options return, up to the roundoff of
// the pair kernels.
//
// Both Krylov solvers (this one and the Golub–Kahan–Lanczos SVD in
// linalg/lanczos_svd.h) keep each basis in one steps x n buffer, one
// Krylov vector per contiguous row, and reorthogonalize with one shared
// kernel: classical Gram–Schmidt applied twice (CGS2), which keeps the
// basis orthonormal to working precision like the modified variant applied
// twice but runs as whole-basis sweeps. This solver sweeps every new
// vector; the SVD sweeps every vector of its short basis and a vector of
// its long basis only when an ω bound on that basis' drift calls for it. A
// sweep against j built vectors costs three contiguous passes over that
// j x n block: h1 = Q w, then w -= Qᵀ h1 fused with h2 = Q w, then
// w -= Qᵀ h2. Each solve records its total reorthogonalization time in the
// histogram lanczos.orth.seconds{solver=eig|svd} when observability is on.

#ifndef IVMF_LINALG_LANCZOS_H_
#define IVMF_LINALG_LANCZOS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "base/stopwatch.h"
#include "linalg/eig.h"
#include "linalg/linear_operator.h"
#include "linalg/matrix.h"

namespace ivmf {

class Rng;
namespace obs {
class Histogram;
}  // namespace obs

struct LanczosOptions {
  // Krylov subspace dimension as a multiple of the requested rank
  // (clamped to n). Larger = more accurate interior eigenvalues.
  double subspace_factor = 3.0;
  // Extra Krylov vectors beyond factor * rank.
  size_t subspace_extra = 25;
  // Deterministic seed for the random start vector.
  uint64_t seed = 12345;
  // Convergence threshold on the tridiagonal off-diagonal.
  double tolerance = 1e-12;
  // Minimum norm of a reorthogonalized random direction accepted by the
  // invariant-subspace restart. When every restart attempt falls below it
  // the basis cannot grow further: the solver stops and flags the result
  // `truncated` if the requested count was not reached (previously the
  // spectrum was silently cut short).
  double restart_tolerance = 1e-8;
  // Warm start: columns approximating the dominant invariant subspace —
  // typically the previous step's Ritz vectors, carried across refreshes by
  // the streaming ISVD driver. When non-empty and of matching dimension the
  // Krylov start vector is the normalized column sum (equal energy in every
  // carried direction) instead of a random draw; otherwise it is ignored.
  Matrix start_basis;
  // When > 0, the small projected problem is solved every
  // `convergence_interval` steps and the iteration stops as soon as every
  // requested Ritz pair has residual bound below convergence_tol * |theta|_max.
  // 0 (the default) builds the basis to the subspace cap — the cold-start
  // behavior every batch-mode caller keeps.
  double convergence_tol = 0.0;
  size_t convergence_interval = 8;
};

// The Golub–Kahan–Lanczos SVD (linalg/lanczos_svd.h) shares the same Krylov
// policy knobs; `start_basis` there approximates the dominant *right*
// singular subspace.
using LanczosSvdOptions = LanczosOptions;

// Computes the `rank` algebraically-largest eigenpairs of the symmetric
// matrix `a` (rank == 0 or rank >= n falls back to the full Jacobi solver).
// Results use the same conventions as ComputeSymmetricEig: eigenvalues
// descending, orthonormal eigenvector columns.
EigResult ComputeLanczosEig(const Matrix& a, size_t rank,
                            const LanczosOptions& options = {});

// Matrix-free variant: the operator is touched only through y = A x, so the
// symmetric matrix never needs to be materialized (e.g. the sparse Gram
// operator M†ᵀ(M† x)). There is no Jacobi fallback here — rank == 0 or
// rank >= Dim() grows the Krylov basis to the full dimension instead, which
// still returns the complete spectrum.
EigResult ComputeLanczosEig(const LinearOperator& op, size_t rank,
                            const LanczosOptions& options = {});

// Both sides of an operator pair in lock-step: element 0 holds the
// eigenpairs of side 0 solved with `lo_options`, element 1 those of side 1
// with `hi_options`. Same results, iteration counts and `truncated` flags
// as ComputeLanczosEig on each side alone, up to the roundoff of ApplyPair.
std::array<EigResult, 2> ComputeLanczosEigPair(
    const LinearOperatorPair& op, size_t rank,
    const LanczosOptions& lo_options, const LanczosOptions& hi_options);

namespace lanczos_internal {

// Builds the Krylov start vector from a warm-start basis: the normalized
// column sum (orthonormal columns never cancel: ||sum||² = #cols), giving
// equal energy to every carried Ritz direction. Returns false — leaving
// `v` untouched — when the basis is absent or does not match the
// dimension, so the caller falls back to its random cold start. Shared by
// the eigensolver and the Golub–Kahan–Lanczos SVD.
bool WarmStartVector(const Matrix& basis, size_t dim, std::vector<double>& v);

// The reorthogonalization kernel of both solvers. The first `count` rows of
// `basis` hold orthonormal vectors of length w.size() (one Krylov vector
// per row); removes from `w` its components along them by classical
// Gram–Schmidt applied twice, in three contiguous sweeps over those rows.
void Reorthogonalize(const Matrix& basis, size_t count, std::vector<double>& w);

// Writes a random unit vector orthogonal to the first `count` rows of
// `basis` into row `count` (the invariant-subspace restart of both
// solvers). Returns false when the space is exhausted — no drawn direction
// survives reorthogonalization above `tolerance` — in which case the caller
// must stop growing the basis and flag its result truncated if the
// requested count was not reached. `scratch` has the basis' row length.
bool RestartVector(Matrix& basis, size_t count, std::vector<double>& scratch,
                   Rng& rng, double tolerance);

// Lifts small-problem vectors to the full space (the Ritz vectors): returns
// the basis.cols() x coef.cols() matrix whose column c combines the first
// coef.rows() basis rows with the weights in column c of `coef`.
Matrix RitzVectors(const Matrix& basis, const Matrix& coef);

// Sums the wall time one solve spends reorthogonalizing (between Start and
// Stop) and records it once, at destruction, into `histogram` (the
// solver's lanczos.orth.seconds{solver=eig|svd}). Reads no clock when
// observability is off at construction.
class OrthTimer {
 public:
  explicit OrthTimer(obs::Histogram& histogram);
  ~OrthTimer();
  OrthTimer(const OrthTimer&) = delete;
  OrthTimer& operator=(const OrthTimer&) = delete;

  void Start() {
    if (histogram_ != nullptr) clock_.Restart();
  }
  void Stop() {
    if (histogram_ != nullptr) seconds_ += clock_.Seconds();
  }

 private:
  obs::Histogram* histogram_;  // null when observability is off
  Stopwatch clock_;
  double seconds_ = 0.0;
};

}  // namespace lanczos_internal

// Eigenvalues (ascending) and optionally eigenvectors of a symmetric
// tridiagonal matrix given its diagonal and sub-diagonal, via the implicit
// QL algorithm (tql2). Exposed for testing.
//
// `diag` has n entries, `off` has n-1. On return `diag` holds the
// eigenvalues ascending and, if `z` is non-null (must be an identity-like
// n x n basis on entry), its columns hold the eigenvectors.
bool TridiagonalQL(std::vector<double>& diag, std::vector<double>& off,
                   Matrix* z, int max_iterations = 50);

}  // namespace ivmf

#endif  // IVMF_LINALG_LANCZOS_H_
