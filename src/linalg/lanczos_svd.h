// Truncated SVD via Golub–Kahan–Lanczos bidiagonalization with one-sided
// reorthogonalization.
//
// ISVD0 and ISVD1 need the top-r singular triplets of the endpoint (or
// midpoint) matrices. The one-sided Jacobi solver (linalg/svd.h) computes
// the full decomposition of a materialized matrix; this solver instead
// touches the matrix only through the forward and transpose applies of a
// LinearMap, building a pair of Krylov bases U (n x k) and V (m x k) joined
// by a small upper-bidiagonal matrix B with A V ≈ U B. The SVD of B then
// lifts to singular triplets of A, so the sparse ISVD path never
// materializes an endpoint matrix — each step costs two O(nnz) operator
// applications.
//
// Each basis is one steps x n (resp. steps x m) buffer holding one Krylov
// vector per contiguous row. Only the short basis (V when n >= m, U
// otherwise) is reorthogonalized every step, by the eigensolver's shared
// CGS2 kernel (linalg/lanczos.h): three contiguous sweeps over the j
// vectors built so far. Keeping one basis orthonormal preserves the
// singular values (Simon & Zha, SIAM J. Sci. Comput. 2000). The long basis
// keeps only its three-term recurrence, and a scalar ω bounds its loss of
// orthogonality (Larsen's recurrence, PROPACK 1998), updated from values
// the step computes anyway — tall: ω_j = (β_{j-1} ω_{j-1} + ε‖A‖) / α_j,
// wide: ω_{j+1} = (α_j ω_j + ε‖A‖) / β_j, with ‖A‖ the largest apply norm
// seen so far. When the next ω would pass 1e-12 that vector gets the same
// full sweep and ω restarts at ε (as on every invariant-subspace restart);
// the sweeps are counted in lanczos.svd.long_reorth. The guard matters past
// the numerical rank, where A v minus the recurrence is rounding noise of
// size ε‖A‖ that would otherwise be normalized into the basis unswept. A
// step thus costs two O(nnz) applies, about 3·j·min(n, m) reads for the
// short sweep and a few O(max(n, m)) passes for the long vector, where
// sweeping both bases cost about 3·j·(n + m).
//
// Breakdown handling mirrors the symmetric Lanczos eigensolver
// (linalg/lanczos.h): when a new basis vector vanishes (rank-deficient
// operators — e.g. the all-zero lower endpoint of [0, x] interval data, or
// exactly low-rank matrices), the corresponding bidiagonal entry is zeroed
// and the basis restarts with a fresh random direction orthogonal to what
// was built, continuing to the subspace cap — so the caller always receives
// the requested triplet count, and duplicate singular values (which a
// single Krylov sequence sees only once) are picked up by the restarted
// blocks. The decoupling is exact: a breakdown certifies the built subspace
// pair is singular-invariant, so restarted directions never couple back
// into it. Should the restart itself fail (no acceptable direction above
// LanczosOptions::restart_tolerance), the result is marked `truncated`
// instead of silently delivering fewer triplets.
//
// Streaming refreshes pass LanczosOptions::start_basis (the previous
// step's right singular vectors) to warm-start the bidiagonalization and
// convergence_tol to stop as soon as the requested triplets' residuals are
// below tolerance; see core/streaming_isvd.h for the driver.

#ifndef IVMF_LINALG_LANCZOS_SVD_H_
#define IVMF_LINALG_LANCZOS_SVD_H_

#include "linalg/lanczos.h"
#include "linalg/linear_operator.h"
#include "linalg/svd.h"

namespace ivmf {

// Computes the `rank` largest singular triplets of the rectangular operator
// `a` (rank == 0 or rank >= min(Rows, Cols) grows the Krylov bases to the
// full dimension, returning the complete decomposition). Results use the
// same conventions as ComputeSvd: sigma descending, orthonormal U/V columns,
// singular-vector signs canonicalized by CanonicalizeSingularVectorSigns.
// LanczosOptions carries the shared Krylov policy (subspace size as a
// multiple of the rank, deterministic start-vector seed, breakdown
// tolerance).
SvdResult ComputeLanczosSvd(const LinearMap& a, size_t rank,
                            const LanczosOptions& options = {});

// Dense convenience overload (used by tests and small-matrix callers).
SvdResult ComputeLanczosSvd(const Matrix& a, size_t rank,
                            const LanczosOptions& options = {});

}  // namespace ivmf

#endif  // IVMF_LINALG_LANCZOS_SVD_H_
