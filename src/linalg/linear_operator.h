// Matrix-free symmetric linear operators.
//
// The Lanczos eigensolver only ever touches its input through products
// y = A x, so it can be programmed against an abstract operator instead of a
// materialized matrix (the dense_matrix / matrix_store split popularized by
// semi-external-memory graph engines). ISVD2–ISVD4 exploit this to
// eigendecompose the Gram matrix A† = M†ᵀ M† without ever forming the m x m
// matrix: the operator applies M†ᵀ(M† x) in O(nnz) per Lanczos step.

#ifndef IVMF_LINALG_LINEAR_OPERATOR_H_
#define IVMF_LINALG_LINEAR_OPERATOR_H_

#include <cstddef>
#include <vector>

#include "base/check.h"
#include "base/parallel.h"
#include "linalg/matrix.h"

namespace ivmf {

// A symmetric linear operator on R^n, defined solely by its action
// y = A x. Implementations must be safe to Apply concurrently from
// different operator instances (callers may run independent solves on
// separate threads, one operator each).
//
// Aliasing contract (interface-wide, for LinearMap too): `y` must be a
// distinct vector from `x` — implementations stream the input while
// writing the output in blocked (possibly vectorized or parallel) order,
// so an in-place call would read half-written data. The sparse kernels
// assert this (see sparse/sparse_kernels.h); the dense adapters below
// check it too.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  // Dimension n of the (square, symmetric) operator.
  virtual size_t Dim() const = 0;

  // y = A x. `x` has Dim() entries; `y` is resized to Dim(). `y` must not
  // alias `x`.
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>& y) const = 0;
};

// A general (rectangular) linear map A: R^Cols() -> R^Rows(), defined by its
// forward and transpose actions. This is the operator the Golub–Kahan–
// Lanczos bidiagonalization SVD (linalg/lanczos_svd.h) is programmed
// against: ISVD0/ISVD1 decompose the endpoint (or midpoint) matrices of a
// sparse interval matrix without ever materializing them, touching the data
// only through y = A x and y = Aᵀ x.
class LinearMap {
 public:
  virtual ~LinearMap() = default;

  virtual size_t Rows() const = 0;
  virtual size_t Cols() const = 0;

  // y = A x. `x` has Cols() entries; `y` is resized to Rows().
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>& y) const = 0;

  // y = Aᵀ x. `x` has Rows() entries; `y` is resized to Cols().
  virtual void ApplyTranspose(const std::vector<double>& x,
                              std::vector<double>& y) const = 0;
};

// Two operators on R^n that one pass over shared data can apply together:
// the lower (side 0) and upper (side 1) endpoint Grams of an interval
// matrix, whose endpoint arrays share one sparsity pattern. The lock-step
// eigensolver (ComputeLanczosEigPair) makes one ApplyPair per step while
// both sides run, and single-side Applys once one has stopped. The
// aliasing contract of LinearOperator holds for every argument.
class LinearOperatorPair {
 public:
  virtual ~LinearOperatorPair() = default;

  virtual size_t Dim() const = 0;

  // y = A_side x for side 0 or 1.
  virtual void Apply(size_t side, const std::vector<double>& x,
                     std::vector<double>& y) const = 0;

  // y0 = A_0 x0 and y1 = A_1 x1, in one pass where the data allows.
  virtual void ApplyPair(const std::vector<double>& x0,
                         const std::vector<double>& x1,
                         std::vector<double>& y0,
                         std::vector<double>& y1) const = 0;
};

// The rectangular counterpart for the lock-step Golub–Kahan SVD
// (ComputeLanczosSvdPair): two maps of one shape, side 0 and side 1, with
// single-side and paired forward and transpose actions.
class LinearMapPair {
 public:
  virtual ~LinearMapPair() = default;

  virtual size_t Rows() const = 0;
  virtual size_t Cols() const = 0;

  // y = A_side x and y = A_sideᵀ x for side 0 or 1.
  virtual void Apply(size_t side, const std::vector<double>& x,
                     std::vector<double>& y) const = 0;
  virtual void ApplyTranspose(size_t side, const std::vector<double>& x,
                              std::vector<double>& y) const = 0;

  // Both sides' forward (resp. transpose) actions in one pass.
  virtual void ApplyPair(const std::vector<double>& x0,
                         const std::vector<double>& x1,
                         std::vector<double>& y0,
                         std::vector<double>& y1) const = 0;
  virtual void ApplyTransposePair(const std::vector<double>& x0,
                                  const std::vector<double>& x1,
                                  std::vector<double>& y0,
                                  std::vector<double>& y1) const = 0;
};

// Adapter exposing a dense Matrix as a LinearMap. Both actions stream the
// row-major storage in row order (the transpose apply as a scatter-free
// accumulation over rows), so no transposed copy is ever built.
class DenseLinearMap final : public LinearMap {
 public:
  // Wraps `a` by reference; the matrix must outlive the map.
  explicit DenseLinearMap(const Matrix& a) : a_(a) {}

  size_t Rows() const override { return a_.rows(); }
  size_t Cols() const override { return a_.cols(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    IVMF_CHECK(x.size() == a_.cols());
    IVMF_CHECK_MSG(&y != &x, "Apply output must not alias the input");
    y.resize(a_.rows());
    for (size_t i = 0; i < a_.rows(); ++i) {
      const double* row = a_.RowPtr(i);
      double sum = 0.0;
      for (size_t j = 0; j < a_.cols(); ++j) sum += row[j] * x[j];
      y[i] = sum;
    }
  }

  void ApplyTranspose(const std::vector<double>& x,
                      std::vector<double>& y) const override {
    IVMF_CHECK(x.size() == a_.rows());
    IVMF_CHECK_MSG(&y != &x, "ApplyTranspose output must not alias the input");
    y.assign(a_.cols(), 0.0);
    for (size_t i = 0; i < a_.rows(); ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      const double* row = a_.RowPtr(i);
      for (size_t j = 0; j < a_.cols(); ++j) y[j] += row[j] * xi;
    }
  }

 private:
  const Matrix& a_;
};

// Adapter exposing a dense symmetric Matrix as a LinearOperator. Rows are
// processed in parallel for large matrices; results are bit-identical to
// the serial loop because each row writes a disjoint output entry.
class DenseSymmetricOperator final : public LinearOperator {
 public:
  // Wraps `a` by reference; the matrix must outlive the operator.
  explicit DenseSymmetricOperator(const Matrix& a) : a_(a) {
    IVMF_CHECK_MSG(a.rows() == a.cols(),
                   "DenseSymmetricOperator needs a square matrix");
  }

  size_t Dim() const override { return a_.rows(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    const size_t n = a_.rows();
    IVMF_CHECK(x.size() == n);
    IVMF_CHECK_MSG(&y != &x, "Apply output must not alias the input");
    y.resize(n);
    ParallelFor(
        0, n,
        [&](size_t i) {
          const double* row = a_.RowPtr(i);
          double sum = 0.0;
          for (size_t j = 0; j < n; ++j) sum += row[j] * x[j];
          y[i] = sum;
        },
        /*max_threads=*/0, /*min_items_per_thread=*/256);
  }

 private:
  const Matrix& a_;
};

}  // namespace ivmf

#endif  // IVMF_LINALG_LINEAR_OPERATOR_H_
