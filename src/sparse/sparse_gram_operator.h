// Matrix-free operators over sparse interval matrices.
//
// ISVD2–ISVD4 eigendecompose the endpoint matrices of the interval Gram
// A† = M†ᵀ M†, built per the paper's Algorithm 1 as the elementwise min/max
// of the four products M_αᵀ M_β (α, β ∈ {*, ^*}). Two regimes:
//
//  - Entrywise non-negative M† (all the paper's recommender constructions):
//    the four products are monotone in the entries, so the min/max collapse
//    to M_*ᵀ M_* and M^*ᵀ M^*. Each is a fixed bilinear form, and
//    SparseGramOperator applies y = M_eᵀ (M_e x) in O(nnz) per Lanczos step
//    through two CSR passes — the Gram matrix is never materialized.
//
//  - Signed M†: the minimizing product varies per Gram entry (it depends on
//    full column inner products), so the Algorithm-1 endpoints are
//    elementwise min/max of four bilinear forms — not themselves bilinear,
//    and therefore not applicable as a fixed matrix-free operator.
//    DenseGramEndpoints instead accumulates the four products directly from
//    the sparse rows (two extra products beyond the non-negative case,
//    O(sum of row_nnz²) work, min(n, m)² memory) and takes the elementwise
//    min/max — exactly the matrices the dense IntervalMatMul route builds,
//    without ever densifying M† itself.
//
// ISVD0/ISVD1 need no Gram at all: SparseEndpointMap exposes an endpoint
// (or the midpoint) matrix as a rectangular LinearMap for the Golub–Kahan–
// Lanczos SVD, again O(nnz) per step.

#ifndef IVMF_SPARSE_SPARSE_GRAM_OPERATOR_H_
#define IVMF_SPARSE_SPARSE_GRAM_OPERATOR_H_

#include <vector>

#include "interval/interval_matrix.h"
#include "linalg/linear_operator.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {

// The symmetric operator x -> M_eᵀ (M_e x) of dimension m.cols().
// Valid as an Algorithm-1 Gram endpoint only for entrywise non-negative
// matrices (see the file comment); callers with signed data use
// DenseGramEndpoints.
//
// Holds `m` and `mt` (the precomputed m.Transpose()) by reference; both must
// outlive the operator. Two operators (one per endpoint) can share the same
// pair and be applied concurrently — Apply only touches per-instance
// scratch.
class SparseGramOperator final : public LinearOperator {
 public:
  SparseGramOperator(const SparseIntervalMatrix& m,
                     const SparseIntervalMatrix& mt,
                     SparseIntervalMatrix::Endpoint endpoint)
      : m_(m), mt_(mt), endpoint_(endpoint) {
    IVMF_CHECK_MSG(mt.rows() == m.cols() && mt.cols() == m.rows(),
                   "mt must be the transpose of m");
  }

  size_t Dim() const override { return m_.cols(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    // On the AVX2 backend the one-pass fused Gram kernel halves memory
    // traffic (the row feeds its dot and its scatter back-to-back while
    // cache-hot). Other backends keep the literal two-pass composition —
    // the scalar path stays the reference semantics the differential tests
    // pin the fused kernels against.
    if (spk::Resolve(m_.ResolvedKernel()) == spk::Backend::kAvx2) {
      m_.GramMultiply(endpoint_, x, y);
      return;
    }
    m_.Multiply(endpoint_, x, scratch_);     // scratch = M_e x   (n)
    mt_.Multiply(endpoint_, scratch_, y);    // y = M_eᵀ scratch  (m)
  }

  // The dense endpoint Gram matrix M_eᵀ M_e, accumulated row-by-row from the
  // sparse pattern in O(sum of row_nnz²) — the bridge to the exact Jacobi
  // solver for small Gram dimensions (non-negative matrices only; for signed
  // data the per-endpoint product is not an Algorithm-1 endpoint).
  static Matrix DenseGram(const SparseIntervalMatrix& m,
                          SparseIntervalMatrix::Endpoint endpoint);

  // The Algorithm-1 interval Gram endpoints of an arbitrary-signed matrix:
  // lower/upper are the elementwise min/max over the four products
  // M_αᵀ M_β, accumulated from the sparse rows without densifying M†. For
  // non-negative input this coincides with {DenseGram(lower),
  // DenseGram(upper)} and with the dense IntervalMatMul(M†ᵀ, M†) route.
  static IntervalMatrix DenseGramEndpoints(const SparseIntervalMatrix& m);

 private:
  const SparseIntervalMatrix& m_;
  const SparseIntervalMatrix& mt_;
  SparseIntervalMatrix::Endpoint endpoint_;
  mutable std::vector<double> scratch_;
};

// An endpoint (or the midpoint) matrix of a sparse interval matrix as a
// rectangular LinearMap — the input to the Golub–Kahan–Lanczos SVD behind
// the sparse ISVD0/ISVD1. Holds `m` and `mt` (the precomputed
// m.Transpose()) by reference; both must outlive the map. No sign
// assumption: endpoint matrices are consumed directly, so signed data works
// unchanged.
class SparseEndpointMap final : public LinearMap {
 public:
  enum class Part { kLower, kUpper, kMid };

  SparseEndpointMap(const SparseIntervalMatrix& m,
                    const SparseIntervalMatrix& mt, Part part)
      : m_(m), mt_(mt), part_(part) {
    IVMF_CHECK_MSG(mt.rows() == m.cols() && mt.cols() == m.rows(),
                   "mt must be the transpose of m");
  }

  size_t Rows() const override { return m_.rows(); }
  size_t Cols() const override { return m_.cols(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    Multiply(m_, x, y);
  }

  void ApplyTranspose(const std::vector<double>& x,
                      std::vector<double>& y) const override {
    Multiply(mt_, x, y);
  }

 private:
  void Multiply(const SparseIntervalMatrix& m, const std::vector<double>& x,
                std::vector<double>& y) const {
    switch (part_) {
      case Part::kLower:
        m.Multiply(SparseIntervalMatrix::Endpoint::kLower, x, y);
        break;
      case Part::kUpper:
        m.Multiply(SparseIntervalMatrix::Endpoint::kUpper, x, y);
        break;
      case Part::kMid:
        m.MultiplyMid(x, y);
        break;
    }
  }

  const SparseIntervalMatrix& m_;
  const SparseIntervalMatrix& mt_;
  Part part_;
};

}  // namespace ivmf

#endif  // IVMF_SPARSE_SPARSE_GRAM_OPERATOR_H_
