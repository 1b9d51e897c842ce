// Matrix-free ISVD over sparse interval matrices.
//
// Overloads of the full ISVD0–ISVD4 strategy family (core/isvd.h) for the
// two sparse stores — the CSR SparseIntervalMatrix and the block-row
// ShardedSparseIntervalMatrix (sparse/block_matrix.h) — that never
// materialize the dense endpoint matrices. Each strategy is written once
// for both stores and runs through the unchanged Lanczos solvers:
//
//  - ISVD0/ISVD1 decompose the midpoint / endpoint matrices through the
//    Golub–Kahan–Lanczos bidiagonalization SVD (linalg/lanczos_svd.h) over
//    an endpoint map, O(nnz) per step, any sign.
//  - ISVD2–ISVD4 eigendecompose the Algorithm-1 interval Gram endpoints.
//    For entrywise non-negative matrices the endpoints collapse to M_*ᵀM_*
//    and M^*ᵀM^*, and on the Lanczos route the eigensolver touches them
//    only through x -> M_eᵀ(M_e x), O(nnz) per step — not even the m x m
//    Gram is formed. For signed matrices the Algorithm-1 endpoints are
//    elementwise min/max over four products and have no fixed operator
//    form, so the DenseGramEndpoints statics accumulate them from the
//    sparse rows (min(n, m)² memory, never densifying M†) before the
//    eigensolve — exactly matching the dense IntervalMatMul route.
//
// The downstream solve/align/recompute phases run on the small n x r /
// m x r factors exactly as in the dense path, with sparse x dense kernels
// substituted for the dense products.
//
// Solver awareness (ISVD2–ISVD4):
//   EigSolver::kLanczos  matrix-free on non-negative input (the scalable
//                        route; GramEig.gram is left empty). Signed input
//                        runs Lanczos on the materialized endpoints.
//   EigSolver::kJacobi   accumulates the dense endpoint Grams from the
//                        sparse rows (m x m memory, exact full spectrum) —
//                        useful for narrow matrices such as user-genre.
//   EigSolver::kAuto     Lanczos when 4 * rank < gram dimension, else
//                        Jacobi, mirroring the dense heuristic.
// ISVD0/ISVD1 always run the bidiagonalization SVD (it IS the sparse
// route); eig_solver does not apply to them.
//
// The two stores differ in three ways:
//  - Gram side. The CSR store honours GramSide, and kAuto picks the
//    smaller Gram dimension like the dense path. The sharded store always
//    eigendecomposes MᵀM and ignores options.gram_side: it never
//    materializes a transposed store (transpose actions run as shard
//    scatter reductions), which an out-of-core store could not afford.
//  - Transposes. Neither store builds one for its operators: transposed
//    actions run as row (or shard) scatter reductions and the Gram apply
//    is one fused pass, so the Lanczos routes have no preprocess phase. On
//    kMMt the CSR store transposes M† once in ComputeGramEig.
//  - Execution. Every O(nnz) pass on the sharded store runs shard-parallel
//    and streams mmap'd segment files when the store is disk-backed, which
//    is the out-of-core decompose path (bench/fig10_outofcore).
// Sharded results match the CSR route on the same matrix to the 1e-8
// bound tests/sharded_isvd_test.cc pins (reductions group differently);
// the signed Gram-endpoint accumulation is bit-identical by construction.

#ifndef IVMF_CORE_SPARSE_ISVD_H_
#define IVMF_CORE_SPARSE_ISVD_H_

#include "core/isvd.h"
#include "sparse/block_matrix.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {

// ISVD0 (midpoint SVD) without materializing the midpoint matrix: the
// Golub–Kahan–Lanczos solver applies ((M_* + M^*) / 2) x fused over the
// shared sparse pattern. The result is always scalar (target c), like the
// dense overload.
IsvdResult Isvd0(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

// ISVD1 (endpoint SVDs + ILSA) with both endpoint decompositions running
// matrix-free; the alignment and target construction mirror the dense
// overload on the small factors.
IsvdResult Isvd1(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

// Gram eigendecomposition without forming dense endpoint matrices. On the
// non-negative Lanczos route `GramEig.gram` stays empty (it would be the
// dense m x m matrix this path exists to avoid); the Jacobi route and the
// signed four-product route fill it, so rank sweeps via TruncateGramEig
// keep working.
GramEig ComputeGramEig(const SparseIntervalMatrix& m, size_t rank,
                       const IsvdOptions& options = {});

// ISVD2–ISVD4 on a sparse matrix, reusing a precomputed GramEig.
IsvdResult Isvd2(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);
IsvdResult Isvd3(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);
IsvdResult Isvd4(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);

// Convenience one-shot forms.
IsvdResult Isvd2(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd3(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd4(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

// Dispatch by strategy index 0..4 — the whole family has a sparse
// formulation.
IsvdResult RunIsvd(int strategy, const SparseIntervalMatrix& m, size_t rank,
                   const IsvdOptions& options = {});

// -- Sharded (block-row) overloads -------------------------------------------

IsvdResult Isvd0(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd1(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

GramEig ComputeGramEig(const ShardedSparseIntervalMatrix& m, size_t rank,
                       const IsvdOptions& options = {});

// `gram` must come from the sharded ComputeGramEig (an MᵀM eigensystem;
// a transposed GramEig is a checked precondition violation).
IsvdResult Isvd2(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);
IsvdResult Isvd3(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);
IsvdResult Isvd4(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);

IsvdResult Isvd2(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd3(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd4(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

IsvdResult RunIsvd(int strategy, const ShardedSparseIntervalMatrix& m,
                   size_t rank, const IsvdOptions& options = {});

}  // namespace ivmf

#endif  // IVMF_CORE_SPARSE_ISVD_H_
