#include "sparse/sparse_interval_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "data/ratings.h"
#include "interval/interval_matrix.h"
#include "io/triplets.h"
#include "sparse/sparse_gram_operator.h"
#include "test_util.h"

namespace ivmf {
namespace {

using ::ivmf::testing::MaxAbsDiff;
using ::ivmf::testing::RandomMatrix;

using Endpoint = SparseIntervalMatrix::Endpoint;

// A random sparse interval matrix with non-negative entries: each cell is
// present with probability `fill`.
SparseIntervalMatrix RandomSparse(size_t rows, size_t cols, double fill,
                                  Rng& rng) {
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (!rng.Bernoulli(fill)) continue;
      const double base = rng.Uniform(0.1, 1.0);
      triplets.push_back(
          {i, j, Interval(base, base + rng.Uniform(0.0, 0.5))});
    }
  }
  return SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(SparseIntervalMatrixTest, FromTripletsBasics) {
  std::vector<IntervalTriplet> triplets{
      {1, 2, Interval(1.0, 2.0)},
      {0, 1, Interval(-0.5, 0.5)},
      {1, 0, Interval(3.0, 3.0)},
  };
  const SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(2, 3, triplets);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_NEAR(m.FillFraction(), 0.5, 1e-15);
  EXPECT_EQ(m.At(0, 1), Interval(-0.5, 0.5));
  EXPECT_EQ(m.At(1, 0), Interval(3.0, 3.0));
  EXPECT_EQ(m.At(1, 2), Interval(1.0, 2.0));
  // Absent entries are the scalar zero interval.
  EXPECT_EQ(m.At(0, 0), Interval(0.0, 0.0));
  EXPECT_EQ(m.At(1, 1), Interval(0.0, 0.0));
  // CSR pattern is sorted per row.
  EXPECT_EQ(m.row_ptr(), (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(m.col_idx(), (std::vector<size_t>{1, 0, 2}));
  EXPECT_TRUE(m.IsProper());
  EXPECT_FALSE(m.IsNonNegative());
}

TEST(SparseIntervalMatrixTest, DuplicateTripletsMergeToHull) {
  std::vector<IntervalTriplet> triplets{
      {0, 0, Interval(1.0, 2.0)},
      {0, 0, Interval(0.5, 1.5)},
      {0, 0, Interval(1.2, 2.5)},
  };
  const SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(1, 1, triplets);
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.At(0, 0), Interval(0.5, 2.5));
}

TEST(SparseIntervalMatrixTest, DuplicateTripletsRejectedUnderRejectPolicy) {
  // The strict policy matches the hardened triplet reader's default: a
  // duplicated cell is a precondition violation, not a merge.
  std::vector<IntervalTriplet> triplets{
      {0, 0, Interval(1.0, 2.0)},
      {0, 0, Interval(0.5, 1.5)},
  };
  EXPECT_DEATH(SparseIntervalMatrix::FromTriplets(1, 1, triplets,
                                                  DuplicatePolicy::kReject),
               "duplicate cell");
  // Unique triplets pass under either policy.
  const SparseIntervalMatrix m = SparseIntervalMatrix::FromTriplets(
      2, 2, {{0, 0, Interval(1.0, 2.0)}, {1, 1, Interval(0.5, 1.5)}},
      DuplicatePolicy::kReject);
  EXPECT_EQ(m.nnz(), 2u);
}

TEST(SparseIntervalMatrixTest, FromCsrAdoptsArraysAndChecksInvariants) {
  const SparseIntervalMatrix m = SparseIntervalMatrix::FromCsr(
      2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, -2.0, 3.0}, {1.5, -1.0, 3.0});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.At(0, 0), Interval(1.0, 1.5));
  EXPECT_EQ(m.At(0, 2), Interval(-2.0, -1.0));
  EXPECT_EQ(m.At(1, 1), Interval(3.0, 3.0));
  EXPECT_EQ(m.At(1, 0), Interval());

  EXPECT_DEATH(SparseIntervalMatrix::FromCsr(2, 3, {0, 2, 3}, {2, 0, 1},
                                             {1.0, -2.0, 3.0},
                                             {1.5, -1.0, 3.0}),
               "ascending");
  EXPECT_DEATH(
      SparseIntervalMatrix::FromCsr(1, 2, {0, 1}, {5}, {1.0}, {1.0}),
      "outside the shape");
}

TEST(SparseIntervalMatrixTest, DenseRoundTrip) {
  Rng rng(11);
  const SparseIntervalMatrix m = RandomSparse(17, 23, 0.3, rng);
  const IntervalMatrix dense = m.ToDense();
  const SparseIntervalMatrix back = SparseIntervalMatrix::FromDense(dense);
  EXPECT_EQ(back.nnz(), m.nnz());
  EXPECT_TRUE(back.ToDense().ApproxEquals(dense, 0.0));
}

TEST(SparseIntervalMatrixTest, TransposeMatchesDense) {
  Rng rng(12);
  const SparseIntervalMatrix m = RandomSparse(15, 31, 0.2, rng);
  const SparseIntervalMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), m.cols());
  EXPECT_EQ(t.cols(), m.rows());
  EXPECT_EQ(t.nnz(), m.nnz());
  EXPECT_TRUE(t.ToDense().ApproxEquals(m.ToDense().Transpose(), 0.0));
}

TEST(SparseIntervalMatrixTest, MultiplyMatchesDense) {
  Rng rng(13);
  const SparseIntervalMatrix m = RandomSparse(20, 35, 0.25, rng);
  const IntervalMatrix dense = m.ToDense();
  std::vector<double> x(35);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);

  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    const Matrix& d = e == Endpoint::kLower ? dense.lower() : dense.upper();
    std::vector<double> y;
    m.Multiply(e, x, y);
    ASSERT_EQ(y.size(), 20u);
    for (size_t i = 0; i < y.size(); ++i) {
      double expect = 0.0;
      for (size_t j = 0; j < x.size(); ++j) expect += d(i, j) * x[j];
      EXPECT_NEAR(y[i], expect, 1e-12);
    }
  }
}

TEST(SparseIntervalMatrixTest, MultiplyTransposeMatchesDense) {
  Rng rng(14);
  const SparseIntervalMatrix m = RandomSparse(20, 35, 0.25, rng);
  const IntervalMatrix dense = m.ToDense();
  std::vector<double> x(20);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);

  std::vector<double> y;
  m.MultiplyTranspose(Endpoint::kUpper, x, y);
  ASSERT_EQ(y.size(), 35u);
  for (size_t j = 0; j < y.size(); ++j) {
    double expect = 0.0;
    for (size_t i = 0; i < x.size(); ++i) expect += dense.upper()(i, j) * x[i];
    EXPECT_NEAR(y[j], expect, 1e-12);
  }
}

TEST(SparseIntervalMatrixTest, ParallelMultiplyTransposeMatchesSerialScatter) {
  // Enough rows to engage the per-thread partial accumulators (the parallel
  // path starts at 2048 rows per worker). The parallel reduction reorders
  // the summation by fixed row blocks, so the result must match the serial
  // scatter to roundoff and be bit-stable across calls.
  Rng rng(91);
  std::vector<IntervalTriplet> triplets;
  const size_t rows = 6000, cols = 37;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (!rng.Bernoulli(0.2)) continue;
      const double base = rng.Uniform(-1.0, 1.0);
      triplets.push_back({i, j, Interval(base, base + rng.Uniform(0.0, 0.5))});
    }
  }
  const SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
  std::vector<double> x(rows);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);

  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    // Serial scatter reference (the pre-parallelization algorithm).
    std::vector<double> ref(cols, 0.0);
    for (const IntervalTriplet& t : m.ToTriplets()) {
      ref[t.col] += (e == Endpoint::kLower ? t.value.lo : t.value.hi) * x[t.row];
    }
    std::vector<double> y1, y2;
    m.MultiplyTranspose(e, x, y1);
    m.MultiplyTranspose(e, x, y2);
    ASSERT_EQ(y1.size(), cols);
    for (size_t j = 0; j < cols; ++j) {
      EXPECT_NEAR(y1[j], ref[j], 1e-10 * (1.0 + std::abs(ref[j])));
      // Determinism: repeated calls are bit-identical.
      EXPECT_EQ(y1[j], y2[j]);
    }
  }
}

TEST(SparseIntervalMatrixTest, MultiplyMidMatchesDenseMidpoint) {
  Rng rng(92);
  const SparseIntervalMatrix m = RandomSparse(40, 23, 0.3, rng);
  const Matrix mid = m.ToDense().Mid();
  std::vector<double> x(23), y;
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  m.MultiplyMid(x, y);
  ASSERT_EQ(y.size(), 40u);
  for (size_t i = 0; i < y.size(); ++i) {
    double expect = 0.0;
    for (size_t j = 0; j < 23; ++j) expect += mid(i, j) * x[j];
    EXPECT_NEAR(y[i], expect, 1e-12);
  }
}

TEST(SparseIntervalMatrixTest, MultiplyDenseMatchesDenseProduct) {
  Rng rng(15);
  const SparseIntervalMatrix m = RandomSparse(18, 26, 0.3, rng);
  const Matrix b = RandomMatrix(26, 7, rng);
  const Matrix expect = m.ToDense().lower() * b;
  const Matrix got = m.MultiplyDense(Endpoint::kLower, b);
  EXPECT_LT(MaxAbsDiff(got, expect), 1e-12);
}

TEST(SparseIntervalMatrixTest, IntervalMultiplyDenseMatchesIntervalMatMul) {
  Rng rng(16);
  const SparseIntervalMatrix m = RandomSparse(14, 22, 0.35, rng);
  const Matrix b = RandomMatrix(22, 5, rng);  // mixed-sign scalar operand
  const IntervalMatrix expect = IntervalMatMul(m.ToDense(), b);
  const IntervalMatrix got = m.IntervalMultiplyDense(b);
  EXPECT_TRUE(got.ApproxEquals(expect, 1e-12));
}

TEST(SparseIntervalMatrixTest, RowAndColNormsMatchDense) {
  Rng rng(17);
  const SparseIntervalMatrix m = RandomSparse(12, 19, 0.4, rng);
  const IntervalMatrix dense = m.ToDense();
  const std::vector<double> row = m.RowNorms(Endpoint::kLower);
  const std::vector<double> col = m.ColNorms(Endpoint::kUpper);
  ASSERT_EQ(row.size(), 12u);
  ASSERT_EQ(col.size(), 19u);
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_NEAR(row[i], Norm2(dense.lower().Row(i)), 1e-12);
  }
  for (size_t j = 0; j < col.size(); ++j) {
    EXPECT_NEAR(col[j], Norm2(dense.upper().Col(j)), 1e-12);
  }
}

TEST(SparseGramOperatorTest, ApplyMatchesDenseGram) {
  Rng rng(18);
  const SparseIntervalMatrix m = RandomSparse(25, 16, 0.3, rng);
  const SparseIntervalMatrix mt = m.Transpose();
  const IntervalMatrix dense = m.ToDense();
  std::vector<double> x(16);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);

  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    const Matrix& d = e == Endpoint::kLower ? dense.lower() : dense.upper();
    const Matrix gram = d.Transpose() * d;
    const SparseGramOperator op(m, mt, e);
    EXPECT_EQ(op.Dim(), 16u);
    std::vector<double> y;
    op.Apply(x, y);
    ASSERT_EQ(y.size(), 16u);
    for (size_t i = 0; i < y.size(); ++i) {
      double expect = 0.0;
      for (size_t j = 0; j < x.size(); ++j) expect += gram(i, j) * x[j];
      EXPECT_NEAR(y[i], expect, 1e-10);
    }
  }
}

TEST(SparseGramOperatorTest, DenseGramMatchesDenseProduct) {
  Rng rng(19);
  const SparseIntervalMatrix m = RandomSparse(30, 12, 0.3, rng);
  const Matrix expect =
      m.ToDense().upper().Transpose() * m.ToDense().upper();
  const Matrix got = SparseGramOperator::DenseGram(m, Endpoint::kUpper);
  EXPECT_LT(MaxAbsDiff(got, expect), 1e-12);
}

// -- Triplet I/O -------------------------------------------------------------

TEST(SparseGramOperatorTest, DenseGramEndpointsMatchAlgorithm1OnSignedData) {
  // Signed entries: the four-product endpoints must equal the dense
  // IntervalMatMul(M†ᵀ, M†) construction term for term.
  Rng rng(93);
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < 30; ++i) {
    for (size_t j = 0; j < 12; ++j) {
      if (!rng.Bernoulli(0.4)) continue;
      const double base = rng.Uniform(-1.0, 1.0);
      triplets.push_back({i, j, Interval(base, base + rng.Uniform(0.0, 0.6))});
    }
  }
  const SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(30, 12, std::move(triplets));
  ASSERT_FALSE(m.IsNonNegative());

  const IntervalMatrix dense = m.ToDense();
  const IntervalMatrix expected = IntervalMatMul(dense.Transpose(), dense);
  const IntervalMatrix endpoints = SparseGramOperator::DenseGramEndpoints(m);
  EXPECT_LT(MaxAbsDiff(endpoints.lower(), expected.lower()), 1e-13);
  EXPECT_LT(MaxAbsDiff(endpoints.upper(), expected.upper()), 1e-13);
}

TEST(SparseGramOperatorTest, DenseGramEndpointsCollapseOnNonNegativeData) {
  Rng rng(94);
  const SparseIntervalMatrix m = RandomSparse(25, 10, 0.4, rng);
  ASSERT_TRUE(m.IsNonNegative());
  const IntervalMatrix endpoints = SparseGramOperator::DenseGramEndpoints(m);
  EXPECT_LT(MaxAbsDiff(endpoints.lower(),
                       SparseGramOperator::DenseGram(m, Endpoint::kLower)),
            1e-13);
  EXPECT_LT(MaxAbsDiff(endpoints.upper(),
                       SparseGramOperator::DenseGram(m, Endpoint::kUpper)),
            1e-13);
}

TEST(TripletIoTest, StringRoundTrip) {
  Rng rng(20);
  const SparseIntervalMatrix m = RandomSparse(9, 13, 0.3, rng);
  const std::string text = SparseIntervalMatrixToTriplets(m);
  EXPECT_TRUE(LooksLikeTriplets(text));
  const auto back = SparseIntervalMatrixFromTriplets(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rows(), m.rows());
  EXPECT_EQ(back->cols(), m.cols());
  EXPECT_EQ(back->nnz(), m.nnz());
  EXPECT_TRUE(back->ToDense().ApproxEquals(m.ToDense(), 1e-9));
}

TEST(TripletIoTest, FileRoundTrip) {
  Rng rng(21);
  const SparseIntervalMatrix m = RandomSparse(7, 8, 0.4, rng);
  const std::string path = ::testing::TempDir() + "/ivmf_triplets.tri";
  ASSERT_TRUE(SaveSparseIntervalTriplets(path, m));
  const auto back = LoadSparseIntervalTriplets(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ToDense().ApproxEquals(m.ToDense(), 1e-9));
}

TEST(TripletIoTest, ParsesCommentsAndArbitraryOrder) {
  const std::string text =
      "%%ivmf interval coordinate\n"
      "% a comment\n"
      "2 2 2\n"
      "% another comment\n"
      "2 2 0.5 1.5\n"
      "1 1 1 1\n";
  const auto m = SparseIntervalMatrixFromTriplets(text);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->At(0, 0), Interval(1.0, 1.0));
  EXPECT_EQ(m->At(1, 1), Interval(0.5, 1.5));
}

TEST(TripletIoTest, RejectsMalformedInput) {
  // Missing header.
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets("1 1 1\n1 1 0 1\n"));
  // Wrong entry count.
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(
      "%%ivmf interval coordinate\n2 2 2\n1 1 0 1\n"));
  // Out-of-range index.
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(
      "%%ivmf interval coordinate\n2 2 1\n3 1 0 1\n"));
  // Misordered interval.
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(
      "%%ivmf interval coordinate\n2 2 1\n1 1 2 1\n"));
  // Trailing garbage on an entry line.
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(
      "%%ivmf interval coordinate\n2 2 1\n1 1 0 1 junk\n"));
  EXPECT_FALSE(LooksLikeTriplets("1.0:2.0, 3.5\n"));
}

// -- Sparse data constructions ----------------------------------------------

TEST(SparseRatingsTest, SparseAndDenseGeneratorsAgree) {
  RatingsConfig config;
  config.num_users = 60;
  config.num_items = 90;
  config.fill = 0.2;
  config.seed = 77;
  const SparseRatingsData sparse = GenerateSparseRatings(config);
  const RatingsData dense = GenerateRatings(config);
  EXPECT_EQ(sparse.item_genre, dense.item_genre);
  const RatingsData densified = DensifyRatings(sparse);
  EXPECT_TRUE(densified.ratings == dense.ratings);
  EXPECT_TRUE(densified.mask == dense.mask);
}

TEST(SparseRatingsTest, SparseCfMatchesDenseCfExactly) {
  RatingsConfig config;
  config.num_users = 50;
  config.num_items = 70;
  config.fill = 0.25;
  config.seed = 78;
  const SparseRatingsData sparse = GenerateSparseRatings(config);
  const double alpha = 0.3;
  const SparseIntervalMatrix cf_sparse = SparseCfIntervalMatrix(sparse, alpha);
  const IntervalMatrix cf_dense =
      CfIntervalMatrix(DensifyRatings(sparse), alpha);
  // Same accumulation order, so the two constructions agree bit-for-bit.
  EXPECT_TRUE(cf_sparse.ToDense().ApproxEquals(cf_dense, 0.0));
  EXPECT_TRUE(cf_sparse.IsNonNegative());
}

// The triplet construction SparseCfIntervalMatrix used before it built the
// CSR directly: sort a copy, aggregate in row-major order, then hand
// per-cell intervals to FromTriplets (which merges duplicates to the hull).
SparseIntervalMatrix TripletCfIntervalMatrix(const SparseRatingsData& data,
                                             double alpha) {
  std::vector<RatingTriplet> sorted = data.triplets;
  std::sort(sorted.begin(), sorted.end(),
            [](const RatingTriplet& a, const RatingTriplet& b) {
              return a.user != b.user ? a.user < b.user : a.item < b.item;
            });
  const size_t n = data.num_users;
  const size_t m = data.num_items;
  std::vector<double> row_sum(n, 0.0), row_sumsq(n, 0.0);
  std::vector<double> col_sum(m, 0.0), col_sumsq(m, 0.0);
  std::vector<size_t> row_count(n, 0), col_count(m, 0);
  for (const RatingTriplet& t : sorted) {
    row_sum[t.user] += t.rating;
    row_sumsq[t.user] += t.rating * t.rating;
    ++row_count[t.user];
    col_sum[t.item] += t.rating;
    col_sumsq[t.item] += t.rating * t.rating;
    ++col_count[t.item];
  }
  std::vector<IntervalTriplet> cells;
  for (const RatingTriplet& t : sorted) {
    const double x = t.rating;
    const double count =
        static_cast<double>(row_count[t.user] + col_count[t.item] - 1);
    const double sum = row_sum[t.user] + col_sum[t.item] - x;
    const double sumsq = row_sumsq[t.user] + col_sumsq[t.item] - x * x;
    const double mean = sum / count;
    const double var = std::max(0.0, sumsq / count - mean * mean);
    const double delta = alpha * std::sqrt(var);
    cells.push_back({t.user, t.item, Interval(x - delta, x + delta)});
  }
  return SparseIntervalMatrix::FromTriplets(n, m, std::move(cells));
}

template <typename T>
bool BitEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameCsr(const SparseIntervalMatrix& got,
                   const SparseIntervalMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(BitEqual(got.row_ptr(), want.row_ptr()));
  EXPECT_TRUE(BitEqual(got.col_idx(), want.col_idx()));
  EXPECT_TRUE(BitEqual(got.lower_values(), want.lower_values()));
  EXPECT_TRUE(BitEqual(got.upper_values(), want.upper_values()));
}

TEST(SparseRatingsTest, SparseCfMatchesTripletConstructionBitwise) {
  RatingsConfig config;
  config.num_users = 80;
  config.num_items = 60;
  config.fill = 0.2;
  config.seed = 79;
  SparseRatingsData data = GenerateSparseRatings(config);
  // The generator's item-major order.
  ExpectSameCsr(SparseCfIntervalMatrix(data, 0.3),
                TripletCfIntervalMatrix(data, 0.3));
  // Any order, with one duplicated (user, item) cell that carries a
  // different rating: the cell merges to the hull of both intervals.
  ASSERT_FALSE(data.triplets.empty());
  RatingTriplet dup = data.triplets[data.triplets.size() / 2];
  dup.rating = dup.rating > 3.0 ? 1.0 : 5.0;
  data.triplets.push_back(dup);
  Rng rng(80);
  rng.Shuffle(data.triplets);
  const SparseIntervalMatrix got = SparseCfIntervalMatrix(data, 0.3);
  ExpectSameCsr(got, TripletCfIntervalMatrix(data, 0.3));
  EXPECT_EQ(got.nnz(), data.triplets.size() - 1);
  const Interval merged = got.At(dup.user, dup.item);
  EXPECT_LE(merged.lo, dup.rating);
  EXPECT_GE(merged.hi, dup.rating);
}

}  // namespace
}  // namespace ivmf
