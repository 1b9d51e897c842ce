// Dense Gram accumulation shared by the CSR and sharded stores.
//
// SparseGramOperator::DenseGram{,Endpoints} and their
// ShardedSparseIntervalMatrix twins feed their sparse rows, in ascending
// row order, through the accumulators below. One row walk and one finish
// step serve both stores, so the same rows give bit-identical Grams
// whichever store holds them.
//
// A row is the entry range [begin, end) with column cols[k] and endpoint
// values lo[k] / hi[k]; `Cols` is anything indexable by entry (a size_t
// array, or an adapter over a packed index sidecar).

#ifndef IVMF_SPARSE_DENSE_GRAM_H_
#define IVMF_SPARSE_DENSE_GRAM_H_

#include <algorithm>
#include <cstddef>
#include <utility>

#include "interval/interval_matrix.h"
#include "linalg/matrix.h"

namespace ivmf::dense_gram {

// Copies the upper triangle of a square matrix onto its lower triangle.
inline void MirrorUpper(Matrix& g) {
  for (size_t i = 0; i < g.rows(); ++i) {
    for (size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
}

// M_eᵀ M_e: each row adds the outer product of its nonzeros. Only the upper
// triangle is accumulated; Finish mirrors it.
class Single {
 public:
  explicit Single(size_t dim) : gram_(dim, dim) {}

  template <typename Cols>
  void AddRow(const Cols& cols, const double* v, size_t begin, size_t end) {
    for (size_t a = begin; a < end; ++a) {
      const size_t ja = cols[a];
      const double va = v[a];
      for (size_t b = a; b < end; ++b) gram_(ja, cols[b]) += va * v[b];
    }
  }

  Matrix Finish() {
    MirrorUpper(gram_);
    return std::move(gram_);
  }

 private:
  Matrix gram_;
};

// The Algorithm-1 interval Gram endpoints: the elementwise min/max over the
// four products M_αᵀ M_β. G_lh(i, j) = Σ_k M_*(k, i) M^*(k, j) is the only
// asymmetric product (G_hl is its transpose), so three accumulators
// suffice. Summation runs over rows in the order they are fed, matching
// the dense matmul term order when that order is ascending.
class Endpoints {
 public:
  explicit Endpoints(size_t dim)
      : ll_(dim, dim), hh_(dim, dim), lh_(dim, dim) {}

  template <typename Cols>
  void AddRow(const Cols& cols, const double* lo, const double* hi,
              size_t begin, size_t end) {
    for (size_t a = begin; a < end; ++a) {
      const size_t ja = cols[a];
      for (size_t b = a; b < end; ++b) {
        const size_t jb = cols[b];
        ll_(ja, jb) += lo[a] * lo[b];
        hh_(ja, jb) += hi[a] * hi[b];
      }
      for (size_t b = begin; b < end; ++b) lh_(ja, cols[b]) += lo[a] * hi[b];
    }
  }

  IntervalMatrix Finish() {
    MirrorUpper(ll_);
    MirrorUpper(hh_);
    const size_t dim = ll_.rows();
    Matrix gram_lo(dim, dim);
    Matrix gram_hi(dim, dim);
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        const double v1 = ll_(i, j);
        const double v2 = lh_(i, j);  // M_*ᵀ M^*
        const double v3 = lh_(j, i);  // M^*ᵀ M_*
        const double v4 = hh_(i, j);
        gram_lo(i, j) = std::min(std::min(v1, v2), std::min(v3, v4));
        gram_hi(i, j) = std::max(std::max(v1, v2), std::max(v3, v4));
      }
    }
    return IntervalMatrix(std::move(gram_lo), std::move(gram_hi));
  }

 private:
  Matrix ll_;
  Matrix hh_;
  Matrix lh_;
};

}  // namespace ivmf::dense_gram

#endif  // IVMF_SPARSE_DENSE_GRAM_H_
