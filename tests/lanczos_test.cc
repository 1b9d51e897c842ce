#include "linalg/lanczos.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace ivmf {
namespace {

using ::ivmf::testing::MaxAbsDiff;
using ::ivmf::testing::OrthonormalityError;
using ::ivmf::testing::RandomMatrix;
using ::ivmf::testing::RandomSymmetric;

TEST(TridiagonalQLTest, DiagonalInput) {
  std::vector<double> diag{3, 1, 2};
  std::vector<double> off{0, 0};
  Matrix z = Matrix::Identity(3);
  ASSERT_TRUE(TridiagonalQL(diag, off, &z));
  EXPECT_NEAR(diag[0], 1.0, 1e-12);
  EXPECT_NEAR(diag[1], 2.0, 1e-12);
  EXPECT_NEAR(diag[2], 3.0, 1e-12);
}

TEST(TridiagonalQLTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] -> eigenvalues 1, 3.
  std::vector<double> diag{2, 2};
  std::vector<double> off{1};
  Matrix z = Matrix::Identity(2);
  ASSERT_TRUE(TridiagonalQL(diag, off, &z));
  EXPECT_NEAR(diag[0], 1.0, 1e-12);
  EXPECT_NEAR(diag[1], 3.0, 1e-12);
  // Eigenvectors: (1,-1)/sqrt2 and (1,1)/sqrt2 up to sign.
  EXPECT_NEAR(std::abs(z(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(z(0, 1)), std::sqrt(0.5), 1e-10);
}

TEST(TridiagonalQLTest, MatchesJacobiOnRandomTridiagonal) {
  Rng rng(1);
  const size_t n = 12;
  std::vector<double> diag(n), off(n - 1);
  for (double& d : diag) d = rng.Uniform(-2, 2);
  for (double& o : off) o = rng.Uniform(-1, 1);

  // Build the dense tridiagonal and solve with Jacobi as an oracle.
  Matrix dense(n, n);
  for (size_t i = 0; i < n; ++i) dense(i, i) = diag[i];
  for (size_t i = 0; i + 1 < n; ++i) {
    dense(i, i + 1) = off[i];
    dense(i + 1, i) = off[i];
  }
  const EigResult jacobi = ComputeSymmetricEig(dense);

  Matrix z = Matrix::Identity(n);
  ASSERT_TRUE(TridiagonalQL(diag, off, &z));
  for (size_t i = 0; i < n; ++i) {
    // QL sorts ascending, Jacobi descending.
    EXPECT_NEAR(diag[i], jacobi.eigenvalues[n - 1 - i], 1e-9);
  }
  EXPECT_LT(OrthonormalityError(z), 1e-9);
}

TEST(TridiagonalQLTest, SingleElement) {
  std::vector<double> diag{5.0};
  std::vector<double> off;
  ASSERT_TRUE(TridiagonalQL(diag, off, nullptr));
  EXPECT_DOUBLE_EQ(diag[0], 5.0);
}

TEST(LanczosTest, TopEigenvaluesMatchJacobi) {
  // PSD Gram-style matrix — the shape ISVD actually feeds to the solver.
  Rng rng(2);
  const Matrix base = RandomMatrix(40, 40, rng);
  const Matrix a = base * base.Transpose();
  const EigResult jacobi = ComputeSymmetricEig(a, 5);
  const EigResult lanczos = ComputeLanczosEig(a, 5);
  ASSERT_EQ(lanczos.eigenvalues.size(), 5u);
  const double scale = std::abs(jacobi.eigenvalues[0]) + 1.0;
  for (size_t j = 0; j < 5; ++j)
    EXPECT_NEAR(lanczos.eigenvalues[j] / scale,
                jacobi.eigenvalues[j] / scale, 1e-6);
}

TEST(LanczosTest, EigenpairsSatisfyDefiningEquation) {
  Rng rng(3);
  const Matrix base = RandomMatrix(30, 30, rng);
  const Matrix a = base * base.Transpose();  // PSD, well-separated spectrum
  const EigResult result = ComputeLanczosEig(a, 6);
  const double scale = std::abs(result.eigenvalues[0]) + 1.0;
  for (size_t j = 0; j < result.eigenvalues.size(); ++j) {
    const std::vector<double> v = result.eigenvectors.Col(j);
    double err = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) {
      double av = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) av += a(i, k) * v[k];
      const double r = av - result.eigenvalues[j] * v[i];
      err += r * r;
    }
    EXPECT_LT(std::sqrt(err) / scale, 1e-6);
  }
}

TEST(LanczosTest, RitzVectorsAreOrthonormal) {
  Rng rng(4);
  const Matrix a = RandomSymmetric(25, rng);
  const EigResult result = ComputeLanczosEig(a, 8);
  EXPECT_LT(OrthonormalityError(result.eigenvectors), 1e-8);
}

TEST(LanczosTest, FullRankFallsBackToJacobi) {
  Rng rng(5);
  const Matrix a = RandomSymmetric(10, rng);
  const EigResult full = ComputeLanczosEig(a, 0);
  const EigResult jacobi = ComputeSymmetricEig(a);
  ASSERT_EQ(full.eigenvalues.size(), jacobi.eigenvalues.size());
  for (size_t j = 0; j < full.eigenvalues.size(); ++j)
    EXPECT_NEAR(full.eigenvalues[j], jacobi.eigenvalues[j], 1e-10);
}

TEST(LanczosTest, GramMatrixSingularValuesMatchSvd) {
  Rng rng(6);
  const Matrix m = RandomMatrix(20, 35, rng);
  const Matrix gram = m.Transpose() * m;  // 35 x 35
  const EigResult lanczos = ComputeLanczosEig(gram, 4);
  const SvdResult svd = ComputeSvd(m, 4);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(std::sqrt(std::max(0.0, lanczos.eigenvalues[j])),
                svd.sigma[j], 1e-7);
  }
}

TEST(LanczosTest, DeterministicForSeed) {
  Rng rng(7);
  const Matrix a = RandomSymmetric(20, rng);
  const EigResult r1 = ComputeLanczosEig(a, 4);
  const EigResult r2 = ComputeLanczosEig(a, 4);
  EXPECT_TRUE(r1.eigenvectors == r2.eigenvectors);
}

TEST(LanczosTest, LowRankMatrixTerminatesEarly) {
  // Rank-2 PSD matrix: Krylov space exhausts after ~2 steps.
  Rng rng(8);
  const Matrix f = RandomMatrix(20, 2, rng);
  const Matrix a = f * f.Transpose();
  const EigResult result = ComputeLanczosEig(a, 2);
  const EigResult jacobi = ComputeSymmetricEig(a, 2);
  for (size_t j = 0; j < 2; ++j)
    EXPECT_NEAR(result.eigenvalues[j], jacobi.eigenvalues[j], 1e-7);
}

TEST(LanczosTest, BreakdownRestartDeliversRequestedCountBeyondRank) {
  // Regression guard for the Krylov-breakdown restart path introduced in
  // PR 2: a rank-3 Gram operator asked for 6 eigenpairs exhausts its
  // invariant subspace after ~3 steps and must restart with fresh random
  // directions until the requested count exists — the sparse ISVD
  // lower/upper eigenpair pairing aborts on a short answer.
  Rng rng(71);
  const Matrix f = RandomMatrix(20, 3, rng);
  const Matrix a = f * f.Transpose();
  const DenseSymmetricOperator op(a);
  const EigResult lanczos = ComputeLanczosEig(op, 6);
  const EigResult jacobi = ComputeSymmetricEig(a, 6);
  ASSERT_EQ(lanczos.eigenvalues.size(), 6u);
  ASSERT_EQ(lanczos.eigenvectors.cols(), 6u);
  const double scale = std::abs(jacobi.eigenvalues[0]) + 1.0;
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(lanczos.eigenvalues[j] / scale, jacobi.eigenvalues[j] / scale,
                1e-8);
  }
  for (size_t j = 3; j < 6; ++j)
    EXPECT_NEAR(lanczos.eigenvalues[j] / scale, 0.0, 1e-8);
  EXPECT_LT(OrthonormalityError(lanczos.eigenvectors), 1e-8);
  // The genuine eigenvectors (sign-canonicalized by both solvers) agree.
  for (size_t j = 0; j < 3; ++j) {
    for (size_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(lanczos.eigenvectors(i, j), jacobi.eigenvectors(i, j), 1e-6);
    }
  }
}

TEST(LanczosTest, ZeroOperatorRestartsToFullRequestedBasis) {
  // The extreme breakdown case (the Gram of an all-zero endpoint matrix):
  // the very first step stalls, and every subsequent vector comes from the
  // random restart — the caller still gets an orthonormal basis of the
  // requested width with zero Ritz values.
  const Matrix a(15, 15);
  const DenseSymmetricOperator op(a);
  const EigResult result = ComputeLanczosEig(op, 4);
  ASSERT_EQ(result.eigenvalues.size(), 4u);
  for (const double lambda : result.eigenvalues)
    EXPECT_NEAR(lambda, 0.0, 1e-12);
  EXPECT_LT(OrthonormalityError(result.eigenvectors), 1e-10);
}

class LanczosRankTest : public ::testing::TestWithParam<int> {};

TEST_P(LanczosRankTest, AgreesWithJacobiAcrossRanks) {
  const int rank = GetParam();
  Rng rng(100 + rank);
  const Matrix base = RandomMatrix(50, 50, rng);
  const Matrix a = base * base.Transpose();
  const EigResult jacobi = ComputeSymmetricEig(a, rank);
  const EigResult lanczos = ComputeLanczosEig(a, rank);
  for (int j = 0; j < rank; ++j) {
    const double scale = std::abs(jacobi.eigenvalues[0]) + 1.0;
    EXPECT_NEAR(lanczos.eigenvalues[j] / scale,
                jacobi.eigenvalues[j] / scale, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, LanczosRankTest,
                         ::testing::Values(1, 2, 4, 8, 12));

TEST(LanczosTest, RestartExhaustionIsSurfacedAsTruncation) {
  // Regression for the silent invariant-subspace restart failure: the loop
  // used to `break` after three failed random-direction attempts with no
  // signal, so a rank-deficient operator could deliver fewer eigenpairs
  // than requested and crash the ISVD endpoint pairing downstream with an
  // opaque shape error. Provoked here by making the restart acceptance
  // threshold unsatisfiable: on a rank-2 Gram, the first breakdown then
  // exhausts the restart attempts and the basis stops growing.
  Rng rng(300);
  const Matrix base = RandomMatrix(12, 2, rng);
  const Matrix a = base * base.Transpose();  // rank 2, 12 x 12

  LanczosOptions strict;
  strict.restart_tolerance = 1e9;  // no random unit direction passes
  const EigResult truncated = ComputeLanczosEig(DenseSymmetricOperator(a), 6,
                                                strict);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_LT(truncated.eigenvalues.size(), 6u);
  EXPECT_GT(truncated.iterations, 0u);
  // What was delivered is still correct: the leading eigenvalues match.
  const EigResult jacobi = ComputeSymmetricEig(a, 2);
  ASSERT_GE(truncated.eigenvalues.size(), 2u);
  EXPECT_NEAR(truncated.eigenvalues[0], jacobi.eigenvalues[0], 1e-8);
  EXPECT_NEAR(truncated.eigenvalues[1], jacobi.eigenvalues[1], 1e-8);

  // Default options on the same operator restart fine: full count, no flag.
  const EigResult full = ComputeLanczosEig(DenseSymmetricOperator(a), 6);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.eigenvalues.size(), 6u);
}

TEST(LanczosTest, WarmStartFromRitzBasisConvergesNoSlower) {
  // With the convergence-based early exit on, starting from the previous
  // Ritz basis must never need more steps than the random cold start — the
  // warm-start contract the streaming ISVD driver relies on.
  Rng rng(301);
  const Matrix base = RandomMatrix(60, 6, rng);
  Matrix a = base * base.Transpose();

  LanczosOptions cold;
  cold.convergence_tol = 1e-10;
  const EigResult first = ComputeLanczosEig(DenseSymmetricOperator(a), 4, cold);
  ASSERT_EQ(first.eigenvalues.size(), 4u);

  // Perturb the operator slightly (a streaming-style small change).
  Rng perturb(302);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double d = perturb.Uniform(0.0, 1e-3);
    a(i, i) += d;
  }
  const EigResult recold = ComputeLanczosEig(DenseSymmetricOperator(a), 4, cold);
  LanczosOptions warm = cold;
  warm.start_basis = first.eigenvectors;
  const EigResult rewarm = ComputeLanczosEig(DenseSymmetricOperator(a), 4, warm);

  EXPECT_LE(rewarm.iterations, recold.iterations);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(rewarm.eigenvalues[j], recold.eigenvalues[j],
                1e-8 * (std::abs(recold.eigenvalues[0]) + 1.0));
  }
}

TEST(LanczosTest, ConvergenceExitMatchesFullCapRun) {
  Rng rng(303);
  const Matrix base = RandomMatrix(80, 8, rng);
  const Matrix a = base * base.Transpose();

  const EigResult cap = ComputeLanczosEig(DenseSymmetricOperator(a), 3);
  LanczosOptions early;
  early.convergence_tol = 1e-11;
  const EigResult exited = ComputeLanczosEig(DenseSymmetricOperator(a), 3, early);
  EXPECT_LE(exited.iterations, cap.iterations);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(exited.eigenvalues[j], cap.eigenvalues[j],
                1e-8 * (std::abs(cap.eigenvalues[0]) + 1.0));
  }
}

// -- The shared reorthogonalization kernel -----------------------------------

// Reference: modified Gram–Schmidt applied twice, one basis row at a time —
// the loop both solvers ran before the CGS2 kernel.
void ReorthogonalizeMgs2(const Matrix& basis, size_t count,
                         std::vector<double>& w) {
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < count; ++k) {
      double proj = 0.0;
      for (size_t i = 0; i < w.size(); ++i) proj += w[i] * basis(k, i);
      for (size_t i = 0; i < w.size(); ++i) w[i] -= proj * basis(k, i);
    }
  }
}

// `count` orthonormal rows of length `dim` (MGS2 on random draws).
Matrix OrthonormalRows(size_t count, size_t dim, Rng& rng) {
  Matrix q(count, dim);
  std::vector<double> row(dim);
  for (size_t k = 0; k < count; ++k) {
    for (double& x : row) x = rng.Normal();
    ReorthogonalizeMgs2(q, k, row);
    const double norm = Norm2(row);
    for (size_t i = 0; i < dim; ++i) q(k, i) = row[i] / norm;
  }
  return q;
}

// max_k |q_k · w|.
double MaxProjection(const Matrix& q, size_t count,
                     const std::vector<double>& w) {
  double worst = 0.0;
  for (size_t k = 0; k < count; ++k) {
    double proj = 0.0;
    for (size_t i = 0; i < w.size(); ++i) proj += q(k, i) * w[i];
    worst = std::max(worst, std::abs(proj));
  }
  return worst;
}

TEST(ReorthogonalizeTest, NearlyDependentVectorMatchesMgs2Reference) {
  // w = Qᵀc + 1e-10 noise lies almost inside the basis span: the case where
  // one Gram–Schmidt pass leaves a residue far above working precision
  // relative to what survives. Sizes are off the kernel's 4-row groups and
  // 512-coordinate blocks so every tail path runs.
  Rng rng(401);
  const size_t dim = 3001, count = 37;
  const Matrix q = OrthonormalRows(count + 1, dim, rng);
  std::vector<double> w(dim, 0.0);
  for (size_t k = 0; k < count; ++k) {
    const double c = rng.Normal();
    for (size_t i = 0; i < dim; ++i) w[i] += c * q(k, i);
  }
  for (double& x : w) x += 1e-10 * rng.Normal();
  std::vector<double> reference = w;
  const double input_norm = Norm2(w);

  lanczos_internal::Reorthogonalize(q, count, w);
  ReorthogonalizeMgs2(q, count, reference);

  // Orthogonal to working precision relative to what survives (~5e-9),
  // after one call; a single classical pass misses this by ~1e8.
  EXPECT_LE(MaxProjection(q, count, w), 1e-14 * Norm2(w));
  EXPECT_LE(MaxProjection(q, count, reference), 1e-14 * Norm2(reference));
  // The two survivors agree up to the rounding of cancelling a vector of
  // norm |w_in|.
  double diff = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    diff = std::max(diff, std::abs(w[i] - reference[i]));
  }
  EXPECT_LE(diff, 1e-14 * input_norm);
  // Rows past `count` are not touched: the kernel reads only its prefix.
  EXPECT_GT(MaxProjection(q, count + 1, w), 0.0);
}

TEST(ReorthogonalizeTest, EmptyBasisLeavesVectorUnchanged) {
  const Matrix q(3, 10);
  std::vector<double> w(10, 1.5);
  lanczos_internal::Reorthogonalize(q, 0, w);
  EXPECT_EQ(w, std::vector<double>(10, 1.5));
}

// -- Large clustered eigensolve ----------------------------------------------

// diag(values) as a matrix-free operator.
class DiagonalOperator final : public LinearOperator {
 public:
  explicit DiagonalOperator(std::vector<double> values)
      : values_(std::move(values)) {}
  size_t Dim() const override { return values_.size(); }
  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    y.resize(x.size());
    for (size_t i = 0; i < x.size(); ++i) y[i] = values_[i] * x[i];
  }

 private:
  std::vector<double> values_;
};

TEST(LanczosTest, LargeClusteredSpectrumStaysOrthonormal) {
  // Dimension 2400: eight eigenvalues clustered 1e-3 apart at 10, hidden
  // among a bulk in [0, 1]. The cluster must come out resolved, in order,
  // with orthonormal Ritz vectors that satisfy A x = λ x.
  Rng rng(402);
  const size_t n = 2400, rank = 8;
  std::vector<double> values(n);
  for (double& v : values) v = rng.Uniform(0.0, 1.0);
  for (size_t k = 0; k < rank; ++k) values[(k * 293) % n] = 10.0 + 1e-3 * k;
  const DiagonalOperator op(values);
  const EigResult result = ComputeLanczosEig(op, rank);
  ASSERT_EQ(result.eigenvalues.size(), rank);
  EXPECT_FALSE(result.truncated);
  EXPECT_LE(OrthonormalityError(result.eigenvectors), 1e-10);
  for (size_t k = 0; k < rank; ++k) {
    const double expected = 10.0 + 1e-3 * static_cast<double>(rank - 1 - k);
    EXPECT_NEAR(result.eigenvalues[k], expected, 1e-10 * expected);
    double residual = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double r = (values[i] - result.eigenvalues[k]) *
                       result.eigenvectors(i, k);
      residual += r * r;
    }
    EXPECT_LE(std::sqrt(residual), 1e-8 * expected);
  }
}

TEST(LanczosTest, RepeatedLargeSolvesAreBitIdentical) {
  Rng rng(403);
  std::vector<double> values(2000);
  for (double& v : values) v = rng.Uniform(0.0, 5.0);
  const DiagonalOperator op(values);
  const EigResult first = ComputeLanczosEig(op, 6);
  const EigResult second = ComputeLanczosEig(op, 6);
  EXPECT_EQ(first.eigenvalues, second.eigenvalues);
  EXPECT_TRUE(first.eigenvectors == second.eigenvectors);
}

TEST(LanczosTest, OrthogonalizationTimeRecordedOncePerSolveWhenEnabled) {
  Rng rng(404);
  const Matrix a = RandomSymmetric(40, rng);
  const DenseSymmetricOperator op(a);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto solves = [&registry] {
    return registry.Snapshot()
        .histograms["lanczos.orth.seconds{solver=eig}"]
        .count;
  };
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const uint64_t before = solves();
  ComputeLanczosEig(op, 4);
  EXPECT_EQ(solves(), before + 1);
  // Off (as under IVMF_OBS=off): the histogram is left untouched.
  obs::SetEnabled(false);
  ComputeLanczosEig(op, 4);
  obs::SetEnabled(true);
  EXPECT_EQ(solves(), before + 1);
  obs::SetEnabled(was_enabled);
}

// -- The lock-step pair driver -----------------------------------------------

// Two dense symmetric operators as a pair, counting how the driver reaches
// them: paired applies while both sides run, single applies after.
class DensePair final : public LinearOperatorPair {
 public:
  DensePair(const Matrix& a0, const Matrix& a1)
      : ops_{DenseSymmetricOperator(a0), DenseSymmetricOperator(a1)} {}

  size_t Dim() const override { return ops_[0].Dim(); }

  void Apply(size_t side, const std::vector<double>& x,
             std::vector<double>& y) const override {
    ++single_applies[side];
    ops_[side].Apply(x, y);
  }

  void ApplyPair(const std::vector<double>& x0, const std::vector<double>& x1,
                 std::vector<double>& y0,
                 std::vector<double>& y1) const override {
    ++pair_applies;
    ops_[0].Apply(x0, y0);
    ops_[1].Apply(x1, y1);
  }

  mutable size_t pair_applies = 0;
  mutable size_t single_applies[2] = {0, 0};

 private:
  DenseSymmetricOperator ops_[2];
};

// The lower and upper endpoint Grams of a random non-negative interval
// matrix, rows x cols: the pair ISVD2-4 solve.
std::pair<Matrix, Matrix> EndpointGrams(size_t rows, size_t cols, Rng& rng) {
  const Matrix lo = RandomMatrix(rows, cols, rng, 0.0, 1.0);
  Matrix hi = lo;
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) hi(i, j) += rng.Uniform(0.0, 0.5);
  return {lo.Transpose() * lo, hi.Transpose() * hi};
}

// A pair solve must return what two single solves with the same options
// return: same iteration counts and flags, values within 1e-10, and (the
// dense pair applies each side exactly as a single apply) the same vectors.
void ExpectPairMatchesSingles(const Matrix& a0, const Matrix& a1, size_t rank,
                              const LanczosOptions& o0,
                              const LanczosOptions& o1) {
  const DensePair pair(a0, a1);
  const std::array<EigResult, 2> got = ComputeLanczosEigPair(pair, rank, o0, o1);
  const EigResult want[2] = {
      ComputeLanczosEig(DenseSymmetricOperator(a0), rank, o0),
      ComputeLanczosEig(DenseSymmetricOperator(a1), rank, o1)};
  for (size_t side = 0; side < 2; ++side) {
    SCOPED_TRACE(side);
    EXPECT_EQ(got[side].iterations, want[side].iterations);
    EXPECT_EQ(got[side].truncated, want[side].truncated);
    ASSERT_EQ(got[side].eigenvalues.size(), want[side].eigenvalues.size());
    const double scale = std::abs(want[side].eigenvalues[0]) + 1.0;
    for (size_t j = 0; j < want[side].eigenvalues.size(); ++j) {
      EXPECT_NEAR(got[side].eigenvalues[j], want[side].eigenvalues[j],
                  1e-10 * scale);
    }
    EXPECT_LT(MaxAbsDiff(got[side].eigenvectors, want[side].eigenvectors),
              1e-10);
  }
  // One paired apply per step while both sides run, single applies after.
  const size_t shorter = std::min(want[0].iterations, want[1].iterations);
  EXPECT_EQ(pair.pair_applies, shorter);
  EXPECT_EQ(pair.single_applies[0], want[0].iterations - shorter);
  EXPECT_EQ(pair.single_applies[1], want[1].iterations - shorter);
}

TEST(LanczosPairTest, MatchesTwoSingleSolves) {
  Rng rng(501);
  const auto [a0, a1] = EndpointGrams(40, 30, rng);
  LanczosOptions o0, o1;
  o1.seed = o0.seed + 1;
  ExpectPairMatchesSingles(a0, a1, 5, o0, o1);
}

TEST(LanczosPairTest, OneSideExitsEarlyOnItsWarmBasis) {
  // Only side 0 has a warm basis, so it meets its early exit first; side 1
  // finishes its cold solve on single applies.
  Rng rng(502);
  const auto [a0, a1] = EndpointGrams(60, 50, rng);
  LanczosOptions cold;
  cold.convergence_tol = 1e-10;
  LanczosOptions warm = cold;
  warm.start_basis =
      ComputeLanczosEig(DenseSymmetricOperator(a0), 4, cold).eigenvectors;
  const EigResult warm_alone =
      ComputeLanczosEig(DenseSymmetricOperator(a0), 4, warm);
  const EigResult cold_alone =
      ComputeLanczosEig(DenseSymmetricOperator(a1), 4, cold);
  ASSERT_LT(warm_alone.iterations, cold_alone.iterations);
  ExpectPairMatchesSingles(a0, a1, 4, warm, cold);
  // And with the sides swapped, the warm side is side 1.
  ExpectPairMatchesSingles(a1, a0, 4, cold, warm);
}

TEST(LanczosPairTest, ZeroLowerEndpointRestartsOnItsOwnSide) {
  // A zero lower endpoint stalls at its first step and restarts to the
  // full basis; the upper side runs its normal recurrence beside it.
  Rng rng(503);
  const Matrix zero(20, 20);
  const Matrix f = RandomMatrix(20, 6, rng, 0.0, 1.0);
  const Matrix upper = f * f.Transpose();
  ExpectPairMatchesSingles(zero, upper, 4, {}, {});
  const std::array<EigResult, 2> got =
      ComputeLanczosEigPair(DensePair(zero, upper), 4, {}, {});
  EXPECT_FALSE(got[0].truncated);
  ASSERT_EQ(got[0].eigenvalues.size(), 4u);
  for (const double lambda : got[0].eigenvalues) EXPECT_EQ(lambda, 0.0);
}

TEST(LanczosPairTest, ExhaustedSideAloneIsTruncated) {
  // An unsatisfiable restart tolerance on the zero lower side only: its
  // basis cannot grow, so it stops early and reports `truncated`, while the
  // upper side runs to its cap on single applies and is not truncated.
  Rng rng(504);
  const Matrix zero(20, 20);
  const Matrix f = RandomMatrix(20, 6, rng, 0.0, 1.0);
  const Matrix upper = f * f.Transpose();
  LanczosOptions strict;
  strict.restart_tolerance = 1e9;
  ExpectPairMatchesSingles(zero, upper, 4, strict, {});
  const std::array<EigResult, 2> got =
      ComputeLanczosEigPair(DensePair(zero, upper), 4, strict, {});
  EXPECT_TRUE(got[0].truncated);
  EXPECT_LT(got[0].eigenvalues.size(), 4u);
  EXPECT_FALSE(got[1].truncated);
  EXPECT_EQ(got[1].eigenvalues.size(), 4u);
}

}  // namespace
}  // namespace ivmf
