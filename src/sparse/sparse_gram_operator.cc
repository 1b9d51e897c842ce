#include "sparse/sparse_gram_operator.h"

#include "sparse/dense_gram.h"

namespace ivmf {

Matrix SparseGramOperator::DenseGram(const SparseIntervalMatrix& m,
                                     SparseIntervalMatrix::Endpoint endpoint) {
  const std::vector<size_t>& row_ptr = m.row_ptr();
  const double* v = m.values(endpoint).data();
  dense_gram::Single gram(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    gram.AddRow(m.col_idx().data(), v, row_ptr[i], row_ptr[i + 1]);
  }
  return gram.Finish();
}

IntervalMatrix SparseGramOperator::DenseGramEndpoints(
    const SparseIntervalMatrix& m) {
  const std::vector<size_t>& row_ptr = m.row_ptr();
  dense_gram::Endpoints gram(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    gram.AddRow(m.col_idx().data(), m.lower_values().data(),
                m.upper_values().data(), row_ptr[i], row_ptr[i + 1]);
  }
  return gram.Finish();
}

}  // namespace ivmf
