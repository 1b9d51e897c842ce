// Interval-valued matrices: a pair of dense min/max matrices M† = [M_*, M^*].

#ifndef IVMF_INTERVAL_INTERVAL_MATRIX_H_
#define IVMF_INTERVAL_INTERVAL_MATRIX_H_

#include <cstddef>
#include <utility>

#include "interval/interval.h"
#include "linalg/matrix.h"

namespace ivmf {

// An n x m matrix whose entries are intervals, stored as two dense scalar
// matrices holding the minimum and maximum endpoints.
//
// Intermediate factor matrices in ISVD may temporarily contain misordered
// entries (lower > upper); IsProper() reports whether all entries are valid
// intervals and AverageReplaced() repairs them per Algorithms 2–3.
class IntervalMatrix {
 public:
  IntervalMatrix() = default;

  // An n x m interval matrix of scalar zeros.
  IntervalMatrix(size_t rows, size_t cols)
      : lower_(rows, cols), upper_(rows, cols) {}

  // Wraps explicit endpoint matrices (shapes must match; ordering is NOT
  // enforced — see class comment).
  IntervalMatrix(Matrix lower, Matrix upper)
      : lower_(std::move(lower)), upper_(std::move(upper)) {
    IVMF_CHECK(lower_.rows() == upper_.rows() &&
               lower_.cols() == upper_.cols());
  }

  // A degenerate interval matrix [M, M] from a scalar matrix.
  static IntervalMatrix FromScalar(const Matrix& m) {
    return IntervalMatrix(m, m);
  }
  // Same, copying `m` once and moving it into the upper endpoint.
  static IntervalMatrix FromScalar(Matrix&& m) {
    Matrix lower = m;
    return IntervalMatrix(std::move(lower), std::move(m));
  }

  size_t rows() const { return lower_.rows(); }
  size_t cols() const { return lower_.cols(); }
  bool empty() const { return lower_.empty(); }

  const Matrix& lower() const { return lower_; }
  const Matrix& upper() const { return upper_; }
  Matrix& mutable_lower() { return lower_; }
  Matrix& mutable_upper() { return upper_; }

  Interval At(size_t i, size_t j) const {
    return Interval(lower_(i, j), upper_(i, j));
  }
  void Set(size_t i, size_t j, const Interval& v) {
    lower_(i, j) = v.lo;
    upper_(i, j) = v.hi;
  }

  // Elementwise midpoint matrix (M_* + M^*) / 2 — the ISVD0 input.
  Matrix Mid() const;

  // Elementwise span matrix M^* - M_*.
  Matrix Span() const;

  // True when every entry satisfies lower <= upper.
  bool IsProper() const;

  // Largest violation max(0, lower - upper) over all entries.
  double MaxMisorder() const;

  // Algorithm 3 (average replacement): entries with lower > upper are
  // replaced by their average in both endpoint matrices.
  IntervalMatrix AverageReplaced() const;

  IntervalMatrix Transpose() const {
    return IntervalMatrix(lower_.Transpose(), upper_.Transpose());
  }

  // Interval matrix addition / subtraction (Sunaga algebra, elementwise).
  IntervalMatrix operator+(const IntervalMatrix& other) const;
  IntervalMatrix operator-(const IntervalMatrix& other) const;

  // True when the scalar matrix `m` lies elementwise inside the intervals.
  bool ContainsMatrix(const Matrix& m, double tol = 0.0) const;

  // True when shapes match and both endpoint matrices agree within tol.
  bool ApproxEquals(const IntervalMatrix& other, double tol) const {
    return lower_.ApproxEquals(other.lower_, tol) &&
           upper_.ApproxEquals(other.upper_, tol);
  }

 private:
  Matrix lower_;
  Matrix upper_;
};

// Interval-valued matrix product per the paper's Algorithm 1: form the four
// endpoint products A_*B_*, A_*B^*, A^*B_*, A^*B^* and take the elementwise
// min / max. This is the construction used throughout ISVD.
IntervalMatrix IntervalMatMul(const IntervalMatrix& a, const IntervalMatrix& b);

// Exact Sunaga interval matrix product: every scalar multiply-add in the
// inner product is replaced by its interval counterpart, giving the interval
// hull of all possible products. Always contains the Algorithm-1 result;
// the two coincide for elementwise non-negative operands.
IntervalMatrix IntervalMatMulExact(const IntervalMatrix& a,
                                   const IntervalMatrix& b);

// Mixed products with scalar operands.
IntervalMatrix IntervalMatMul(const Matrix& a, const IntervalMatrix& b);
IntervalMatrix IntervalMatMul(const IntervalMatrix& a, const Matrix& b);

}  // namespace ivmf

#endif  // IVMF_INTERVAL_INTERVAL_MATRIX_H_
