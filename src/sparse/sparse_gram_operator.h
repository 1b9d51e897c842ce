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
//    — one fused pass over the rows (or SELL chunks) — so neither the Gram
//    matrix nor a transpose is ever materialized.
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
// Lanczos SVD, again O(nnz) per step, with the transposed action as a row
// scatter.
//
// ISVD1–ISVD4 solve the lower and upper endpoint problems together:
// GramOperatorPair and EndpointMapPair expose both endpoints of one matrix
// (either store) as the LinearOperatorPair / LinearMapPair the lock-step
// Krylov solvers consume, so every Lanczos step is one pass over the
// shared pattern for both endpoints (the *Pair kernels of
// SparseIntervalMatrix and ShardedSparseIntervalMatrix).
//
// Both single-endpoint classes also keep a form taking `mt`, a precomputed
// m.Transpose(). It reads `mt` only when m resolves to the scalar backend, where it runs
// the literal two-pass composition (M_e x, then a forward product on `mt`)
// — the reference route perfbench certifies against. On AVX2 and SELL it
// behaves exactly like the transpose-free form and `mt` goes unread, yet
// the caller has still paid for building it. The library itself builds no
// transpose for these operators; new callers use the (m, e) / (m, part)
// forms. The `mt` forms are deleted once perfbench moves to those (ROADMAP
// item 4).

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
// Holds `m` (and `mt`) by reference; both must outlive the operator. Two
// operators (one per endpoint) can share the same matrices and be applied
// concurrently — Apply only touches per-instance scratch.
class SparseGramOperator final : public LinearOperator {
 public:
  SparseGramOperator(const SparseIntervalMatrix& m,
                     SparseIntervalMatrix::Endpoint endpoint)
      : m_(m), mt_(nullptr), endpoint_(endpoint) {}

  // The reference form: two passes through `mt` on the scalar backend,
  // the fused route (`mt` unread) elsewhere. Kept for perfbench only; see
  // the file comment.
  SparseGramOperator(const SparseIntervalMatrix& m,
                     const SparseIntervalMatrix& mt,
                     SparseIntervalMatrix::Endpoint endpoint)
      : m_(m), mt_(&mt), endpoint_(endpoint) {
    IVMF_CHECK_MSG(mt.rows() == m.cols() && mt.cols() == m.rows(),
                   "mt must be the transpose of m");
  }

  size_t Dim() const override { return m_.cols(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    if (mt_ != nullptr &&
        spk::Resolve(m_.ResolvedKernel()) == spk::Backend::kScalar) {
      m_.Multiply(endpoint_, x, scratch_);    // scratch = M_e x   (n)
      mt_->Multiply(endpoint_, scratch_, y);  // y = M_eᵀ scratch  (m)
      return;
    }
    m_.GramMultiply(endpoint_, x, y);
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
  const SparseIntervalMatrix* mt_;  // the reference form's transpose, or null
  SparseIntervalMatrix::Endpoint endpoint_;
  mutable std::vector<double> scratch_;
};

// An endpoint (or the midpoint) matrix of a sparse interval matrix as a
// rectangular LinearMap — the input to the Golub–Kahan–Lanczos SVD behind
// the sparse ISVD0/ISVD1. Holds `m` (and `mt`) by reference; both must
// outlive the map. No sign assumption: endpoint matrices are consumed
// directly, so signed data works unchanged.
class SparseEndpointMap final : public LinearMap {
 public:
  enum class Part { kLower, kUpper, kMid };

  SparseEndpointMap(const SparseIntervalMatrix& m, Part part)
      : m_(m), mt_(nullptr), part_(part) {}

  // The reference form: ApplyTranspose runs forward on `mt` on the scalar
  // backend, and scatters from the rows of `m` (`mt` unread) elsewhere.
  // Kept for perfbench only; see the file comment.
  SparseEndpointMap(const SparseIntervalMatrix& m,
                    const SparseIntervalMatrix& mt, Part part)
      : m_(m), mt_(&mt), part_(part) {
    IVMF_CHECK_MSG(mt.rows() == m.cols() && mt.cols() == m.rows(),
                   "mt must be the transpose of m");
  }

  size_t Rows() const override { return m_.rows(); }
  size_t Cols() const override { return m_.cols(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    ApplyPart(m_, part_, /*transpose=*/false, x, y);
  }

  void ApplyTranspose(const std::vector<double>& x,
                      std::vector<double>& y) const override {
    if (mt_ != nullptr &&
        spk::Resolve(m_.ResolvedKernel()) == spk::Backend::kScalar) {
      ApplyPart(*mt_, part_, /*transpose=*/false, x, y);
      return;
    }
    ApplyPart(m_, part_, /*transpose=*/true, x, y);
  }

  // y = P x, or y = Pᵀ x when `transpose`, for the part P of `m` on either
  // store (ShardedEndpointMap runs the sharded store through here).
  template <typename SparseMat>
  static void ApplyPart(const SparseMat& m, Part part, bool transpose,
                        const std::vector<double>& x, std::vector<double>& y) {
    if (part == Part::kMid) {
      if (transpose) {
        m.MultiplyTransposeMid(x, y);
      } else {
        m.MultiplyMid(x, y);
      }
      return;
    }
    const SparseIntervalMatrix::Endpoint e =
        part == Part::kLower ? SparseIntervalMatrix::Endpoint::kLower
                             : SparseIntervalMatrix::Endpoint::kUpper;
    if (transpose) {
      m.MultiplyTranspose(e, x, y);
    } else {
      m.Multiply(e, x, y);
    }
  }

 private:
  const SparseIntervalMatrix& m_;
  const SparseIntervalMatrix* mt_;  // the reference form's transpose, or null
  Part part_;
};

// The endpoint Gram operators x -> M_*ᵀ (M_* x) (side 0) and
// x -> M^*ᵀ (M^* x) (side 1) of one matrix as an operator pair, on either
// store (SparseIntervalMatrix or ShardedSparseIntervalMatrix). Same
// validity as SparseGramOperator (non-negative matrices). Holds `m` by
// reference; it must outlive the pair.
template <typename SparseMat>
class GramOperatorPair final : public LinearOperatorPair {
 public:
  explicit GramOperatorPair(const SparseMat& m) : m_(m) {}

  size_t Dim() const override { return m_.cols(); }

  void Apply(size_t side, const std::vector<double>& x,
             std::vector<double>& y) const override {
    m_.GramMultiply(side == 0 ? SparseIntervalMatrix::Endpoint::kLower
                              : SparseIntervalMatrix::Endpoint::kUpper,
                    x, y);
  }

  void ApplyPair(const std::vector<double>& x0, const std::vector<double>& x1,
                 std::vector<double>& y0,
                 std::vector<double>& y1) const override {
    m_.GramMultiplyPair(x0, x1, y0, y1);
  }

 private:
  const SparseMat& m_;
};

// The lower (side 0) and upper (side 1) endpoint matrices of one matrix as
// a map pair for the lock-step Golub–Kahan SVD behind ISVD1, on either
// store. No sign assumption. Holds `m` by reference.
template <typename SparseMat>
class EndpointMapPair final : public LinearMapPair {
 public:
  explicit EndpointMapPair(const SparseMat& m) : m_(m) {}

  size_t Rows() const override { return m_.rows(); }
  size_t Cols() const override { return m_.cols(); }

  void Apply(size_t side, const std::vector<double>& x,
             std::vector<double>& y) const override {
    m_.Multiply(Side(side), x, y);
  }

  void ApplyTranspose(size_t side, const std::vector<double>& x,
                      std::vector<double>& y) const override {
    m_.MultiplyTranspose(Side(side), x, y);
  }

  void ApplyPair(const std::vector<double>& x0, const std::vector<double>& x1,
                 std::vector<double>& y0,
                 std::vector<double>& y1) const override {
    m_.MultiplyPair(x0, x1, y0, y1);
  }

  void ApplyTransposePair(const std::vector<double>& x0,
                          const std::vector<double>& x1,
                          std::vector<double>& y0,
                          std::vector<double>& y1) const override {
    m_.MultiplyTransposePair(x0, x1, y0, y1);
  }

 private:
  static SparseIntervalMatrix::Endpoint Side(size_t side) {
    return side == 0 ? SparseIntervalMatrix::Endpoint::kLower
                     : SparseIntervalMatrix::Endpoint::kUpper;
  }

  const SparseMat& m_;
};

}  // namespace ivmf

#endif  // IVMF_SPARSE_SPARSE_GRAM_OPERATOR_H_
