// The renormalize stage (Section 3.4) against its reference composition.
//
// BuildResult builds targets b and c from the factor midpoints without
// average-replacing the factors first, and NormalizeColumnsL2 walks the
// row-major storage row by row. Both are pure reorganizations: average
// replacement never changes a midpoint, and each column still sums its
// squares in ascending row order. These tests keep the reference
// composition (average-replace, midpoint, column-at-a-time L2 normalize)
// and require bit-identical factors and σ.

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/isvd.h"
#include "core/isvd_internal.h"
#include "core/sparse_isvd.h"
#include "interval/interval_ops.h"
#include "sparse/sparse_interval_matrix.h"
#include "tensor/cp.h"

namespace ivmf {
namespace {

// The column-at-a-time Algorithm 5 loop.
std::vector<double> ReferenceNormalizeColumnsL2(Matrix& m) {
  std::vector<double> norms(m.cols());
  for (size_t j = 0; j < m.cols(); ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < m.rows(); ++i) sum += m(i, j) * m(i, j);
    const double norm = std::sqrt(sum);
    norms[j] = norm;
    if (norm > 0.0) {
      const double inv = 1.0 / norm;
      for (size_t i = 0; i < m.rows(); ++i) m(i, j) *= inv;
    }
  }
  return norms;
}

// The reference target construction: average replacement of every factor,
// then midpoints, L2 renormalization and the norm products in the core.
IsvdResult ReferenceBuildResult(IntervalMatrix u, std::vector<Interval> sigma,
                                IntervalMatrix v, DecompositionTarget target) {
  u = u.AverageReplaced();
  v = v.AverageReplaced();
  AverageReplaceVector(sigma);
  IsvdResult result;
  result.target = target;
  Matrix u_avg = u.Mid();
  Matrix v_avg = v.Mid();
  const std::vector<double> u_norms = ReferenceNormalizeColumnsL2(u_avg);
  const std::vector<double> v_norms = ReferenceNormalizeColumnsL2(v_avg);
  result.u = IntervalMatrix::FromScalar(u_avg);
  result.v = IntervalMatrix::FromScalar(v_avg);
  result.sigma.resize(sigma.size());
  for (size_t j = 0; j < sigma.size(); ++j) {
    const double rho = u_norms[j] * v_norms[j];
    if (target == DecompositionTarget::kB) {
      result.sigma[j] = Interval(sigma[j].lo * rho, sigma[j].hi * rho);
    } else {
      result.sigma[j] = Interval::Scalar(sigma[j].Mid() * rho);
    }
  }
  return result;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() * a.cols() == 0 ||
          std::memcmp(a.data(), b.data(),
                      a.rows() * a.cols() * sizeof(double)) == 0);
}

void ExpectBitEqual(const IsvdResult& got, const IsvdResult& want,
                    const std::string& what) {
  EXPECT_EQ(got.target, want.target) << what;
  EXPECT_TRUE(BitEqual(got.u.lower(), want.u.lower())) << what << " u.lo";
  EXPECT_TRUE(BitEqual(got.u.upper(), want.u.upper())) << what << " u.hi";
  EXPECT_TRUE(BitEqual(got.v.lower(), want.v.lower())) << what << " v.lo";
  EXPECT_TRUE(BitEqual(got.v.upper(), want.v.upper())) << what << " v.hi";
  ASSERT_EQ(got.sigma.size(), want.sigma.size()) << what;
  if (!got.sigma.empty()) {
    EXPECT_EQ(std::memcmp(got.sigma.data(), want.sigma.data(),
                          got.sigma.size() * sizeof(Interval)),
              0)
        << what << " sigma";
  }
}

Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-3.0, 3.0);
  return m;
}

const DecompositionTarget kScalarTargets[] = {DecompositionTarget::kB,
                                              DecompositionTarget::kC};

TEST(IsvdRenormalizeTest, MisorderedFactorsMatchReference) {
  // Independent lo/hi draws make about half the factor entries misordered;
  // column 2 of u is zero, so its norm stays 0 and the column unscaled.
  Rng rng(31);
  Matrix u_lo = RandomMatrix(rng, 57, 5);
  Matrix u_hi = RandomMatrix(rng, 57, 5);
  for (size_t i = 0; i < u_lo.rows(); ++i) u_lo(i, 2) = u_hi(i, 2) = 0.0;
  const IntervalMatrix u(std::move(u_lo), std::move(u_hi));
  const IntervalMatrix v(RandomMatrix(rng, 23, 5), RandomMatrix(rng, 23, 5));
  ASSERT_GT(u.MaxMisorder(), 0.0);
  ASSERT_GT(v.MaxMisorder(), 0.0);
  const std::vector<Interval> sigma = {Interval(4.0, 5.0), Interval(3.5, 3.0),
                                       Interval(2.0, 2.5), Interval(1.0, 0.5),
                                       Interval(0.25, 0.75)};
  for (const DecompositionTarget target : kScalarTargets) {
    const IsvdResult got =
        isvd_internal::BuildResult(u, sigma, v, target, PhaseTimings{});
    ExpectBitEqual(got, ReferenceBuildResult(u, sigma, v, target),
                   "misordered target " + std::to_string(int(target)));
  }
}

// Target a returns the average-replaced factors and σ untouched by the
// scalar construction, so the reference composition applied to it must
// reproduce the library's targets b and c of the same decomposition.
void ExpectStrategyMatchesReference(
    int strategy, const std::string& what,
    const std::function<IsvdResult(const IsvdOptions&)>& run) {
  IsvdOptions options;
  options.target = DecompositionTarget::kA;
  const IsvdResult a = run(options);
  for (const DecompositionTarget target : kScalarTargets) {
    options.target = target;
    ExpectBitEqual(run(options),
                   ReferenceBuildResult(a.u, a.sigma, a.v, target),
                   what + " ISVD" + std::to_string(strategy) + " target " +
                       std::to_string(int(target)));
  }
}

TEST(IsvdRenormalizeTest, DenseStrategiesMatchReference) {
  Rng rng(32);
  Matrix lo = RandomMatrix(rng, 40, 25);
  Matrix hi = lo;
  for (size_t i = 0; i < hi.rows(); ++i)
    for (size_t j = 0; j < hi.cols(); ++j) hi(i, j) += rng.Uniform(0.0, 1.0);
  const IntervalMatrix m(std::move(lo), std::move(hi));
  for (int strategy = 1; strategy <= 4; ++strategy) {
    ExpectStrategyMatchesReference(strategy, "dense",
                                   [&](const IsvdOptions& options) {
                                     return RunIsvd(strategy, m, 5, options);
                                   });
  }
}

TEST(IsvdRenormalizeTest, SparseStrategiesMatchReference) {
  Rng rng(33);
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < 200; ++i) {
    for (size_t j = 0; j < 40; ++j) {
      if (!rng.Bernoulli(0.3)) continue;
      const double a = rng.Uniform(0.5, 4.5);
      triplets.push_back({i, j, Interval(a, a + rng.Uniform(0.0, 0.5))});
    }
  }
  const SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(200, 40, std::move(triplets));
  for (int strategy = 1; strategy <= 4; ++strategy) {
    ExpectStrategyMatchesReference(strategy, "sparse",
                                   [&](IsvdOptions options) {
                                     options.eig_solver = EigSolver::kLanczos;
                                     return RunIsvd(strategy, m, 4, options);
                                   });
  }
}

TEST(IsvdRenormalizeTest, NormalizeColumnsMatchesColumnLoop) {
  // Shapes of the CP-ALS factors cp.cc normalizes (tall, a few columns)
  // and of ISVD factors, with a zero column and a single row.
  Rng rng(34);
  const std::pair<size_t, size_t> shapes[] = {{37, 3}, {200, 5}, {1, 4},
                                              {1000, 10}, {6, 1}};
  for (const auto& [rows, cols] : shapes) {
    Matrix got = RandomMatrix(rng, rows, cols);
    if (cols > 2) {
      for (size_t i = 0; i < rows; ++i) got(i, 1) = 0.0;
    }
    Matrix want = got;
    const std::vector<double> got_norms = NormalizeColumnsL2(got);
    const std::vector<double> want_norms = ReferenceNormalizeColumnsL2(want);
    EXPECT_TRUE(BitEqual(got, want)) << rows << "x" << cols;
    ASSERT_EQ(got_norms.size(), want_norms.size());
    EXPECT_EQ(std::memcmp(got_norms.data(), want_norms.data(),
                          got_norms.size() * sizeof(double)),
              0)
        << rows << "x" << cols;
  }
}

TEST(IsvdRenormalizeTest, CpAlsFactorsComeOutUnitNormed) {
  // cp.cc normalizes B and C every sweep and A at the end.
  Rng rng(35);
  const Matrix a = RandomMatrix(rng, 9, 3);
  const Matrix b = RandomMatrix(rng, 8, 3);
  const Matrix c = RandomMatrix(rng, 7, 3);
  const Tensor3 x = Tensor3::FromCp(a, b, c, {3.0, 2.0, 1.0});
  const CpResult cp = ComputeCpAls(x, 3);
  for (const Matrix* f : {&cp.a, &cp.b, &cp.c}) {
    for (size_t j = 0; j < f->cols(); ++j) {
      double sum = 0.0;
      for (size_t i = 0; i < f->rows(); ++i) sum += (*f)(i, j) * (*f)(i, j);
      EXPECT_NEAR(std::sqrt(sum), 1.0, 1e-12);
    }
  }
  for (size_t t = 0; t + 1 < cp.lambda.size(); ++t) {
    EXPECT_GE(cp.lambda[t], cp.lambda[t + 1]);
  }
}

}  // namespace
}  // namespace ivmf
