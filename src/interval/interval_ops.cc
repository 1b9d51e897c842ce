#include "interval/interval_ops.h"

#include <cmath>

namespace ivmf {

void AverageReplaceVector(std::vector<Interval>& v) {
  for (Interval& x : v) {
    if (x.lo > x.hi) {
      const double avg = x.Mid();
      x.lo = avg;
      x.hi = avg;
    }
  }
}

std::vector<double> InverseIntervalDiagonal(const std::vector<Interval>& diag) {
  std::vector<double> inv(diag.size());
  for (size_t i = 0; i < diag.size(); ++i) {
    const double lo = diag[i].lo;
    const double hi = diag[i].hi;
    IVMF_DCHECK(lo >= 0.0 && hi >= 0.0);
    if (lo == 0.0 && hi == 0.0) {
      inv[i] = 0.0;
    } else if (lo == 0.0) {
      inv[i] = 2.0 / hi;
    } else if (hi == 0.0) {
      inv[i] = 2.0 / lo;
    } else {
      inv[i] = 2.0 / (lo + hi);
    }
  }
  return inv;
}

Matrix InverseIntervalDiagonal(const IntervalMatrix& sigma) {
  IVMF_CHECK_MSG(sigma.rows() == sigma.cols(),
                 "core matrix inverse needs a square diagonal matrix");
  std::vector<Interval> diag(sigma.rows());
  for (size_t i = 0; i < sigma.rows(); ++i) diag[i] = sigma.At(i, i);
  return Matrix::Diagonal(InverseIntervalDiagonal(diag));
}

std::vector<double> IntervalDiagonalEpsilons(
    const std::vector<Interval>& diag) {
  std::vector<double> eps(diag.size());
  for (size_t i = 0; i < diag.size(); ++i) {
    const double lo = diag[i].lo;
    const double hi = diag[i].hi;
    eps[i] = (lo + hi) > 0.0 ? (hi - lo) / (hi + lo) : 0.0;
  }
  return eps;
}

double MeanSpan(const IntervalMatrix& m) {
  if (m.empty()) return 0.0;
  return m.Span().Sum() / static_cast<double>(m.rows() * m.cols());
}

double ContainmentFraction(const IntervalMatrix& m, const Matrix& x,
                           double tol) {
  IVMF_CHECK(m.rows() == x.rows() && m.cols() == x.cols());
  if (m.empty()) return 1.0;
  size_t contained = 0;
  for (size_t i = 0; i < m.rows(); ++i)
    for (size_t j = 0; j < m.cols(); ++j)
      if (x(i, j) >= m.lower()(i, j) - tol && x(i, j) <= m.upper()(i, j) + tol)
        ++contained;
  return static_cast<double>(contained) /
         static_cast<double>(m.rows() * m.cols());
}

double IntervalDensity(const IntervalMatrix& m, double tol) {
  if (m.empty()) return 0.0;
  size_t with_span = 0;
  for (size_t i = 0; i < m.rows(); ++i)
    for (size_t j = 0; j < m.cols(); ++j)
      if (m.upper()(i, j) - m.lower()(i, j) > tol) ++with_span;
  return static_cast<double>(with_span) /
         static_cast<double>(m.rows() * m.cols());
}

std::vector<double> NormalizeColumnsL2(Matrix& m) {
  // Row-major passes over the row-major storage. Each column still sums its
  // squares in ascending row order, so the norms (and the scaled entries)
  // are bit-identical to the column-at-a-time loop.
  const size_t cols = m.cols();
  std::vector<double> norms(cols, 0.0);
  for (size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.RowPtr(i);
    for (size_t j = 0; j < cols; ++j) norms[j] += row[j] * row[j];
  }
  // Zero-norm columns stay unchanged (scaled by exactly 1).
  std::vector<double> inv(cols, 1.0);
  for (size_t j = 0; j < cols; ++j) {
    norms[j] = std::sqrt(norms[j]);
    if (norms[j] > 0.0) inv[j] = 1.0 / norms[j];
  }
  for (size_t i = 0; i < m.rows(); ++i) {
    double* row = m.RowPtr(i);
    for (size_t j = 0; j < cols; ++j) row[j] *= inv[j];
  }
  return norms;
}

}  // namespace ivmf
