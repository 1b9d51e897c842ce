// Degenerate-input coverage for the sparse matrix-free ISVD path,
// mirroring the dense tests/isvd_edge_test.cc: empty shapes, all-zero
// matrices, rank clamping, all-zero rows, single row/column — the guards
// the sparse RunIsvd / LanczosSvd entry points previously lacked. Every
// case runs on the CSR store and on a sharded copy with two-row shards,
// since both stores share one implementation per strategy.

#include <cmath>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "core/sparse_isvd.h"
#include "linalg/lanczos_svd.h"
#include "sparse/block_matrix.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {
namespace {

bool AllFinite(const Matrix& m) {
  for (size_t i = 0; i < m.rows(); ++i)
    for (size_t j = 0; j < m.cols(); ++j)
      if (!std::isfinite(m(i, j))) return false;
  return true;
}

bool ResultIsFinite(const IsvdResult& r) {
  if (!AllFinite(r.u.lower()) || !AllFinite(r.u.upper())) return false;
  if (!AllFinite(r.v.lower()) || !AllFinite(r.v.upper())) return false;
  for (const Interval& s : r.sigma)
    if (!std::isfinite(s.lo) || !std::isfinite(s.hi)) return false;
  return true;
}

// A random sparse non-negative interval matrix at the given fill.
SparseIntervalMatrix RandomSparse(size_t n, size_t m, double fill, Rng& rng) {
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (!rng.Bernoulli(fill)) continue;
      const double lo = rng.Uniform(0.1, 1.0);
      triplets.push_back({i, j, Interval(lo, lo + rng.Uniform(0.0, 0.4))});
    }
  }
  return SparseIntervalMatrix::FromTriplets(n, m, std::move(triplets));
}

// Parameters: strategy 0..4, and whether to run on a sharded copy.
class SparseIsvdEdgeTest
    : public ::testing::TestWithParam<::testing::tuple<int, bool>> {
 protected:
  IsvdResult Run(const SparseIntervalMatrix& m, size_t rank) const {
    const int strategy = ::testing::get<0>(GetParam());
    if (!::testing::get<1>(GetParam())) return RunIsvd(strategy, m, rank);
    return RunIsvd(strategy, ShardedSparseIntervalMatrix::FromCsr(m, 2), rank);
  }
};

TEST_P(SparseIsvdEdgeTest, EmptyShapeReturnsRankZero) {
  // 0 x 0 and 0 x m / n x 0 shapes: a well-formed empty decomposition
  // instead of an abort inside the Krylov solver.
  for (const auto& [n, m] : {std::pair<size_t, size_t>{0, 0},
                             std::pair<size_t, size_t>{0, 7},
                             std::pair<size_t, size_t>{7, 0}}) {
    const SparseIntervalMatrix empty =
        SparseIntervalMatrix::FromTriplets(n, m, {});
    const IsvdResult result = Run(empty, 3);
    EXPECT_EQ(result.rank(), 0u);
    EXPECT_EQ(result.u.rows(), n);
    EXPECT_EQ(result.v.rows(), m);
    EXPECT_TRUE(ResultIsFinite(result));
  }
}

TEST_P(SparseIsvdEdgeTest, AllZeroMatrix) {
  // A shaped matrix with no stored entries (every cell the zero interval).
  const SparseIntervalMatrix zero = SparseIntervalMatrix::FromTriplets(6, 8, {});
  const IsvdResult result = Run(zero, 3);
  EXPECT_TRUE(ResultIsFinite(result));
  for (const Interval& s : result.sigma) {
    EXPECT_NEAR(s.lo, 0.0, 1e-12);
    EXPECT_NEAR(s.hi, 0.0, 1e-12);
  }
}

TEST_P(SparseIsvdEdgeTest, RankZeroMeansFullRank) {
  Rng rng(11);
  const SparseIntervalMatrix m = RandomSparse(9, 5, 0.5, rng);
  const IsvdResult result = Run(m, 0);
  EXPECT_EQ(result.rank(), 5u);
  EXPECT_TRUE(ResultIsFinite(result));
}

TEST_P(SparseIsvdEdgeTest, RankClampedToMinDimension) {
  Rng rng(12);
  const SparseIntervalMatrix m = RandomSparse(4, 10, 0.6, rng);
  const IsvdResult result = Run(m, 99);
  EXPECT_EQ(result.rank(), 4u);
  EXPECT_TRUE(ResultIsFinite(result));
}

TEST_P(SparseIsvdEdgeTest, AllZeroRowsAreHandled) {
  // Rows 0, 2, 4 carry no entries: the endpoint operators are genuinely
  // rank-deficient and the Krylov restarts must fill the requested count.
  Rng rng(13);
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 1; i < 10; i += 2) {
    for (size_t j = 0; j < 6; ++j) {
      const double lo = rng.Uniform(0.1, 1.0);
      triplets.push_back({i, j, Interval(lo, lo + 0.2)});
    }
  }
  const SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(10, 6, std::move(triplets));
  const IsvdResult result = Run(m, 4);
  EXPECT_EQ(result.rank(), 4u);
  EXPECT_TRUE(ResultIsFinite(result));
}

TEST_P(SparseIsvdEdgeTest, SingleRowMatrix) {
  Rng rng(14);
  const SparseIntervalMatrix m = RandomSparse(1, 6, 0.9, rng);
  const IsvdResult result = Run(m, 1);
  EXPECT_EQ(result.u.rows(), 1u);
  EXPECT_EQ(result.v.rows(), 6u);
  EXPECT_TRUE(ResultIsFinite(result));
}

TEST_P(SparseIsvdEdgeTest, SingleColumnMatrix) {
  Rng rng(15);
  const SparseIntervalMatrix m = RandomSparse(6, 1, 0.9, rng);
  const IsvdResult result = Run(m, 1);
  EXPECT_EQ(result.u.rows(), 6u);
  EXPECT_EQ(result.v.rows(), 1u);
  EXPECT_TRUE(ResultIsFinite(result));
}

INSTANTIATE_TEST_SUITE_P(StrategiesAndStores, SparseIsvdEdgeTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Bool()));

TEST(LanczosSvdEdgeTest, EmptyOperatorReturnsEmptyDecomposition) {
  const SvdResult result = ComputeLanczosSvd(Matrix(0, 0), 3);
  EXPECT_TRUE(result.sigma.empty());
  EXPECT_EQ(result.u.rows(), 0u);
  EXPECT_EQ(result.v.rows(), 0u);
  EXPECT_FALSE(result.truncated);

  const SvdResult wide = ComputeLanczosSvd(Matrix(0, 5), 2);
  EXPECT_TRUE(wide.sigma.empty());
  EXPECT_EQ(wide.v.rows(), 5u);
  EXPECT_EQ(wide.v.cols(), 0u);
}

}  // namespace
}  // namespace ivmf
