// Tests for the Golub–Kahan–Lanczos bidiagonalization SVD: agreement with
// the one-sided Jacobi solver, truncation, and — critically for the sparse
// ISVD path — the Krylov-breakdown restart treatment on rank-deficient
// operators (a regression guard next to the symmetric-Lanczos one in
// lanczos_test.cc).

#include "linalg/lanczos_svd.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "data/ratings.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "sparse/sparse_gram_operator.h"
#include "sparse/sparse_interval_matrix.h"
#include "test_util.h"

namespace ivmf {
namespace {

using ::ivmf::testing::MaxAbsDiff;
using ::ivmf::testing::OrthonormalityError;
using ::ivmf::testing::RandomMatrix;

TEST(LanczosSvdTest, FullDecompositionMatchesJacobiSvd) {
  Rng rng(11);
  const Matrix a = RandomMatrix(14, 9, rng, -2.0, 2.0);
  const SvdResult gkl = ComputeLanczosSvd(a, 0);
  const SvdResult jacobi = ComputeSvd(a);
  ASSERT_EQ(gkl.sigma.size(), jacobi.sigma.size());
  for (size_t j = 0; j < gkl.sigma.size(); ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-9);
  // Random spectra are simple, so canonicalized factors agree columnwise.
  EXPECT_LT(MaxAbsDiff(gkl.u, jacobi.u), 1e-8);
  EXPECT_LT(MaxAbsDiff(gkl.v, jacobi.v), 1e-8);
  EXPECT_LT(MaxAbsDiff(gkl.Reconstruct(), a), 1e-9);
}

TEST(LanczosSvdTest, WideMatrixMatchesJacobiSvd) {
  Rng rng(12);
  const Matrix a = RandomMatrix(8, 17, rng, -1.0, 1.0);
  const SvdResult gkl = ComputeLanczosSvd(a, 0);
  const SvdResult jacobi = ComputeSvd(a);
  ASSERT_EQ(gkl.sigma.size(), 8u);
  for (size_t j = 0; j < gkl.sigma.size(); ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-9);
  EXPECT_LT(MaxAbsDiff(gkl.Reconstruct(), a), 1e-9);
  EXPECT_LT(OrthonormalityError(gkl.u), 1e-9);
  EXPECT_LT(OrthonormalityError(gkl.v), 1e-9);
}

TEST(LanczosSvdTest, TruncatedRankMatchesLeadingJacobiTriplets) {
  Rng rng(13);
  // Exactly rank-5 matrix: the truncated solver must nail the spectrum.
  const Matrix b = RandomMatrix(30, 5, rng);
  const Matrix c = RandomMatrix(5, 18, rng);
  const Matrix a = b * c;
  const SvdResult gkl = ComputeLanczosSvd(a, 3);
  const SvdResult jacobi = ComputeSvd(a, 3);
  ASSERT_EQ(gkl.sigma.size(), 3u);
  for (size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-8);
  EXPECT_LT(MaxAbsDiff(gkl.u, jacobi.u), 1e-7);
  EXPECT_LT(MaxAbsDiff(gkl.v, jacobi.v), 1e-7);
}

TEST(LanczosSvdTest, BreakdownRestartDeliversRequestedCountBeyondRank) {
  // Regression guard for the Krylov-breakdown restart: an exactly rank-3
  // matrix asked for 7 triplets breaks down once the singular-invariant
  // subspace is exhausted and must restart until the full count exists —
  // the ISVD0/ISVD1 lower/upper pairing depends on it. Zero-sigma U columns
  // are zero vectors (the ComputeSvd convention), so orthonormality is
  // checked on the genuine triplets and on V (whose columns stay unit).
  Rng rng(14);
  const Matrix a = RandomMatrix(25, 3, rng) * RandomMatrix(3, 16, rng);
  const SvdResult gkl = ComputeLanczosSvd(a, 7);
  const SvdResult jacobi = ComputeSvd(a, 7);
  ASSERT_EQ(gkl.sigma.size(), 7u);
  for (size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-8);
  // The zero tail is a sqrt of eps-level Ritz mass: O(sqrt(eps) * sigma_0).
  for (size_t j = 3; j < 7; ++j) EXPECT_NEAR(gkl.sigma[j], 0.0, 1e-6);
  EXPECT_LT(OrthonormalityError(gkl.u.ColBlock(0, 3)), 1e-8);
  EXPECT_LT(OrthonormalityError(gkl.v), 1e-8);
}

TEST(LanczosSvdTest, ZeroOperatorRestartsToFullRequestedBasis) {
  // The all-zero matrix (the lower endpoint of [0, x] interval data): every
  // left step breaks down immediately; the restart path must still hand
  // back the requested width — zero singular values, zero U columns (the
  // ComputeSvd convention) and an orthonormal V.
  const Matrix a(20, 12);
  const SvdResult gkl = ComputeLanczosSvd(a, 5);
  ASSERT_EQ(gkl.sigma.size(), 5u);
  for (const double s : gkl.sigma) EXPECT_NEAR(s, 0.0, 1e-12);
  EXPECT_LT(gkl.u.MaxAbs(), 1e-10);
  EXPECT_LT(OrthonormalityError(gkl.v), 1e-10);
}

TEST(LanczosSvdTest, DuplicateSingularValuesReconstructExactly) {
  // diag(A, A) duplicates every singular value; the per-cluster basis is
  // not unique, so compare the (invariant) reconstruction and the values.
  Rng rng(15);
  const Matrix a = RandomMatrix(7, 5, rng, -1.5, 1.5);
  Matrix block(14, 10);
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      block(i, j) = a(i, j);
      block(7 + i, 5 + j) = a(i, j);
    }
  }
  const SvdResult gkl = ComputeLanczosSvd(block, 0);
  const SvdResult jacobi = ComputeSvd(block);
  ASSERT_EQ(gkl.sigma.size(), 10u);
  for (size_t j = 0; j < 10; ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-9);
  EXPECT_LT(MaxAbsDiff(gkl.Reconstruct(), block), 1e-8);
}

// A tall matrix (rows = 25 x cols) with a geometrically decaying spectrum:
// the shape where the left basis is long and its reorthogonalization
// dominates the solve.
Matrix TallDecayingMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix a = RandomMatrix(rows, cols, rng);
  double scale = 1.0;
  for (size_t j = 0; j < cols; ++j, scale *= 0.8) {
    for (size_t i = 0; i < rows; ++i) a(i, j) *= scale;
  }
  return a;
}

TEST(LanczosSvdTest, TallMatrixKeepsBasesOrthonormalAndMatchesJacobi) {
  Rng rng(18);
  const Matrix a = TallDecayingMatrix(2000, 80, rng);
  const SvdResult gkl = ComputeLanczosSvd(a, 10);
  const SvdResult jacobi = ComputeSvd(a, 10);
  ASSERT_EQ(gkl.sigma.size(), 10u);
  EXPECT_FALSE(gkl.truncated);
  EXPECT_LE(OrthonormalityError(gkl.u), 1e-10);
  EXPECT_LE(OrthonormalityError(gkl.v), 1e-10);
  for (size_t j = 0; j < 10; ++j) {
    EXPECT_LE(std::abs(gkl.sigma[j] - jacobi.sigma[j]), 1e-10 * jacobi.sigma[j])
        << "sigma " << j;
  }
}

TEST(LanczosSvdTest, TallRankDeficientMatrixRestartsBothBases) {
  // Exactly rank 4 and tall, asked for 10 triplets. Once v_0..v_3 span the
  // row space the right step breaks down (beta = 0) and restarts v with a
  // direction A maps to zero, so the next left step breaks down too
  // (alpha = 0) and restarts u; the pattern repeats to the subspace cap.
  Rng rng(19);
  const Matrix a = RandomMatrix(600, 4, rng) * RandomMatrix(4, 24, rng);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t restarts_before =
      registry.Snapshot().CounterValue("lanczos.svd.restarts");
  const SvdResult gkl = ComputeLanczosSvd(a, 10);
  const uint64_t restarts =
      registry.Snapshot().CounterValue("lanczos.svd.restarts") -
      restarts_before;
  const SvdResult jacobi = ComputeSvd(a, 4);
  ASSERT_EQ(gkl.sigma.size(), 10u);
  EXPECT_FALSE(gkl.truncated);
  if (obs::Enabled()) {
    EXPECT_GE(restarts, 2u);
  }
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_LE(std::abs(gkl.sigma[j] - jacobi.sigma[j]),
              1e-10 * jacobi.sigma[0]);
  }
  for (size_t j = 4; j < 10; ++j) {
    EXPECT_LE(gkl.sigma[j], 1e-10 * jacobi.sigma[0]);
  }
  EXPECT_LE(OrthonormalityError(gkl.u.ColBlock(0, 4)), 1e-10);
  EXPECT_LE(OrthonormalityError(gkl.v), 1e-10);
}

TEST(LanczosSvdTest, RepeatedSolvesAreBitIdentical) {
  Rng rng(20);
  const Matrix a = TallDecayingMatrix(1000, 40, rng);
  const SvdResult first = ComputeLanczosSvd(a, 10);
  const SvdResult second = ComputeLanczosSvd(a, 10);
  EXPECT_EQ(first.sigma, second.sigma);
  EXPECT_TRUE(first.u == second.u);
  EXPECT_TRUE(first.v == second.v);
}

TEST(LanczosSvdTest, OrthogonalizationTimeRecordedOncePerSolveWhenEnabled) {
  Rng rng(21);
  const Matrix a = RandomMatrix(60, 20, rng);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto solves = [&registry] {
    return registry.Snapshot()
        .histograms["lanczos.orth.seconds{solver=svd}"]
        .count;
  };
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const uint64_t before = solves();
  ComputeLanczosSvd(a, 5);
  EXPECT_EQ(solves(), before + 1);
  // Off (as under IVMF_OBS=off): the histogram is left untouched.
  obs::SetEnabled(false);
  ComputeLanczosSvd(a, 5);
  obs::SetEnabled(true);
  EXPECT_EQ(solves(), before + 1);
  obs::SetEnabled(was_enabled);
}

// A rows x cols matrix with orthonormal columns: Gaussian vectors under
// modified Gram–Schmidt applied twice.
Matrix RandomOrthonormal(size_t rows, size_t cols, Rng& rng) {
  Matrix q(cols, rows);  // one vector per contiguous row
  for (size_t j = 0; j < cols; ++j) {
    double* x = q.RowPtr(j);
    for (size_t i = 0; i < rows; ++i) x[i] = rng.Normal();
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t k = 0; k < j; ++k) {
        const double* y = q.RowPtr(k);
        double dot = 0.0;
        for (size_t i = 0; i < rows; ++i) dot += y[i] * x[i];
        for (size_t i = 0; i < rows; ++i) x[i] -= dot * y[i];
      }
    }
    double norm = 0.0;
    for (size_t i = 0; i < rows; ++i) norm += x[i] * x[i];
    norm = std::sqrt(norm);
    for (size_t i = 0; i < rows; ++i) x[i] /= norm;
  }
  return q.Transpose();
}

// A = U diag(sigma) Vᵀ with random orthonormal U (rows x k) and V
// (cols x k), k = sigma.size(), so the singular values of A are `sigma`
// and zeros. `core` is A projected onto the construction's k-dimensional
// range on its shorter side (Uᵀ A when tall, A V when wide): it has the
// same nonzero singular values as A, and the dense Jacobi SVD resolves it
// an order of magnitude faster.
struct SpectrumMap {
  Matrix a;
  Matrix core;
};

SpectrumMap MatrixWithSpectrum(size_t rows, size_t cols,
                               const std::vector<double>& sigma, Rng& rng) {
  const size_t k = sigma.size();
  const Matrix u = RandomOrthonormal(rows, k, rng);
  const Matrix v = RandomOrthonormal(cols, k, rng);
  Matrix scaled = u;
  for (size_t i = 0; i < rows; ++i)
    for (size_t c = 0; c < k; ++c) scaled(i, c) *= sigma[c];
  SpectrumMap map;
  map.a = scaled * v.Transpose();
  map.core = rows >= cols ? u.Transpose() * map.a : map.a * v;
  return map;
}

// Asserts a rank-`rank` Lanczos SVD of `map.a` returns orthonormal factors
// and the leading singular values of the dense Jacobi SVD (of map.core,
// zero past its size) within 1e-10 σ₁. Past the numerical rank, A v minus
// the recurrence is rounding noise of size ε‖A‖; a long Golub–Kahan basis
// that normalizes it without a sweep (no guard) returns σ of 1e39 and
// beyond on the rank-4 maps below, and long factors 0.76 and 3e-7 away
// from orthonormal on the partial isometry and the full-depth decay to ε.
void ExpectMatchesJacobi(const SpectrumMap& map, size_t rank) {
  const SvdResult gkl = ComputeLanczosSvd(map.a, rank);
  const SvdResult jacobi = ComputeSvd(map.core, rank);
  ASSERT_EQ(gkl.sigma.size(), rank);
  EXPECT_FALSE(gkl.truncated);
  EXPECT_LE(OrthonormalityError(gkl.u), 1e-10);
  EXPECT_LE(OrthonormalityError(gkl.v), 1e-10);
  for (size_t j = 0; j < rank; ++j) {
    const double want = j < jacobi.sigma.size() ? jacobi.sigma[j] : 0.0;
    EXPECT_LE(std::abs(gkl.sigma[j] - want), 1e-10 * jacobi.sigma[0])
        << "sigma " << j << " of " << map.a.rows() << " x " << map.a.cols();
  }
}

TEST(LanczosSvdTest, LargeNormRankFourMapsStayOrthonormalBothOrientations) {
  Rng rng(30);
  for (const double norm : {1e6, 1e9}) {
    const std::vector<double> sigma = {norm, 0.6 * norm, 0.3 * norm,
                                       0.1 * norm};
    ExpectMatchesJacobi(MatrixWithSpectrum(2000, 200, sigma, rng), 10);
    ExpectMatchesJacobi(MatrixWithSpectrum(200, 2000, sigma, rng), 10);
  }
}

TEST(LanczosSvdTest, PartialIsometryStaysOrthonormalBothOrientations) {
  // Eight singular values of 1e6 and eight zeros, so the ten triplets
  // asked for reach past the rank.
  Rng rng(31);
  const std::vector<double> sigma(8, 1e6);
  ExpectMatchesJacobi(MatrixWithSpectrum(2000, 16, sigma, rng), 10);
  ExpectMatchesJacobi(MatrixWithSpectrum(16, 2000, sigma, rng), 10);
}

TEST(LanczosSvdTest, GeometricDecayStaysOrthonormalBothOrientations) {
  Rng rng(32);
  std::vector<double> sigma(200);
  for (size_t i = 0; i < sigma.size(); ++i) sigma[i] = std::ldexp(1.0, -int(i));
  ExpectMatchesJacobi(MatrixWithSpectrum(2000, 200, sigma, rng), 10);
  ExpectMatchesJacobi(MatrixWithSpectrum(200, 2000, sigma, rng), 10);
}

// σ_i falls log-linearly from 1 to ε over the whole spectrum.
std::vector<double> DecayToEpsilon(size_t count) {
  std::vector<double> sigma(count);
  const double eps = std::numeric_limits<double>::epsilon();
  for (size_t i = 0; i < count; ++i) {
    sigma[i] = std::pow(eps, static_cast<double>(i) / double(count - 1));
  }
  return sigma;
}

TEST(LanczosSvdTest, DecayToEpsilonAtHighRankStaysOrthonormal) {
  Rng rng(33);
  ExpectMatchesJacobi(MatrixWithSpectrum(2000, 200, DecayToEpsilon(200), rng),
                      60);
  ExpectMatchesJacobi(MatrixWithSpectrum(200, 2000, DecayToEpsilon(200), rng),
                      60);
  ExpectMatchesJacobi(MatrixWithSpectrum(3000, 300, DecayToEpsilon(300), rng),
                      80);
  // Full depth: the Krylov steps cover all 100 columns, down to ε.
  ExpectMatchesJacobi(MatrixWithSpectrum(2000, 100, DecayToEpsilon(100), rng),
                      60);
}

uint64_t LongReorthCount() {
  return obs::MetricsRegistry::Global().Snapshot().CounterValue(
      "lanczos.svd.long_reorth");
}

TEST(LanczosSvdTest, TallCfMapNeedsNoGuardSweeps) {
  // The serve_ingest regime: 20 users per item, about 8 ratings per user.
  // The long left basis keeps its recurrence alone for the whole solve; a
  // guard that fired on every step would still pass the accuracy tests
  // above, so this pins that the one-sided saving holds.
  RatingsConfig config;
  config.num_items = 400;
  config.num_users = 20 * config.num_items;
  config.fill = 8.0 / static_cast<double>(config.num_items);
  config.seed = 34;
  const SparseIntervalMatrix m =
      SparseCfIntervalMatrix(GenerateSparseRatings(config), 0.3);
  const SparseIntervalMatrix mt = m.Transpose();
  const SparseEndpointMap map(m, mt, SparseEndpointMap::Part::kUpper);

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const uint64_t before = LongReorthCount();
  const SvdResult svd = ComputeLanczosSvd(map, 10);
  const uint64_t sweeps = LongReorthCount() - before;
  obs::SetEnabled(was_enabled);
  EXPECT_EQ(sweeps, 0u);
  EXPECT_FALSE(svd.truncated);
  EXPECT_EQ(svd.iterations, 55u);
  EXPECT_LE(OrthonormalityError(svd.u), 1e-10);
  EXPECT_LE(OrthonormalityError(svd.v), 1e-10);
}

TEST(LanczosSvdTest, LongBasisSweepsCountedOnlyWhenEnabled) {
  // A rank-4 tall map asked for 10 triplets: every long step past the rank
  // is rounding noise, so the guard sweeps it.
  Rng rng(35);
  const Matrix a = MatrixWithSpectrum(600, 60, {1e6, 5e5, 2e5, 1e5}, rng).a;
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const uint64_t before = LongReorthCount();
  ComputeLanczosSvd(a, 10);
  const uint64_t counted = LongReorthCount();
  EXPECT_GT(counted, before);
  // Off (as under IVMF_OBS=off): the counter is left untouched.
  obs::SetEnabled(false);
  ComputeLanczosSvd(a, 10);
  obs::SetEnabled(true);
  EXPECT_EQ(LongReorthCount(), counted);
  obs::SetEnabled(was_enabled);
}

TEST(LanczosSvdTest, SparseEndpointMapMatchesDenseOperator) {
  // The three Parts of SparseEndpointMap act exactly like the materialized
  // endpoint / midpoint matrices.
  Rng rng(16);
  IntervalMatrix dense(9, 13);
  for (size_t i = 0; i < 9; ++i) {
    for (size_t j = 0; j < 13; ++j) {
      if (rng.Uniform() < 0.5) continue;
      const double base = rng.Uniform(-1.0, 1.0);
      dense.Set(i, j, Interval(base, base + rng.Uniform(0.0, 0.5)));
    }
  }
  const SparseIntervalMatrix sparse = SparseIntervalMatrix::FromDense(dense);
  const SparseIntervalMatrix sparse_t = sparse.Transpose();

  const Matrix mid = dense.Mid();
  const struct {
    SparseEndpointMap::Part part;
    const Matrix& reference;
  } cases[] = {
      {SparseEndpointMap::Part::kLower, dense.lower()},
      {SparseEndpointMap::Part::kUpper, dense.upper()},
      {SparseEndpointMap::Part::kMid, mid},
  };
  std::vector<double> x(13), xt(9), y, y_ref;
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  for (double& v : xt) v = rng.Uniform(-1.0, 1.0);
  for (const auto& c : cases) {
    const SparseEndpointMap map(sparse, sparse_t, c.part);
    const DenseLinearMap ref(c.reference);
    map.Apply(x, y);
    ref.Apply(x, y_ref);
    for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
    map.ApplyTranspose(xt, y);
    ref.ApplyTranspose(xt, y_ref);
    for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
  }
}

TEST(LanczosSvdTest, DeterministicForSeed) {
  Rng rng(17);
  const Matrix a = RandomMatrix(12, 8, rng);
  const SvdResult first = ComputeLanczosSvd(a, 4);
  const SvdResult second = ComputeLanczosSvd(a, 4);
  EXPECT_EQ(0.0, MaxAbsDiff(first.u, second.u));
  EXPECT_EQ(0.0, MaxAbsDiff(first.v, second.v));
}

TEST(LanczosSvdTest, RestartExhaustionIsSurfacedAsTruncation) {
  // Same regression as the eigensolver's (see lanczos_test.cc): breakdown
  // on an exactly rank-2 matrix with an unsatisfiable restart threshold
  // used to silently shorten the returned triplet list.
  Rng rng(400);
  const Matrix left = RandomMatrix(14, 2, rng);
  const Matrix right = RandomMatrix(9, 2, rng);
  const Matrix a = left * right.Transpose();  // rank 2, 14 x 9

  LanczosOptions strict;
  strict.restart_tolerance = 1e9;
  const SvdResult truncated = ComputeLanczosSvd(a, 5, strict);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_LT(truncated.sigma.size(), 5u);
  const SvdResult exact = ComputeSvd(a, 2);
  ASSERT_GE(truncated.sigma.size(), 2u);
  EXPECT_NEAR(truncated.sigma[0], exact.sigma[0], 1e-8);
  EXPECT_NEAR(truncated.sigma[1], exact.sigma[1], 1e-8);

  const SvdResult full = ComputeLanczosSvd(a, 5);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.sigma.size(), 5u);
}

TEST(LanczosSvdTest, WarmStartFromRightBasisConvergesNoSlower) {
  Rng rng(401);
  const Matrix left = RandomMatrix(50, 5, rng);
  const Matrix right = RandomMatrix(30, 5, rng);
  Matrix a = left * right.Transpose();

  LanczosOptions cold;
  cold.convergence_tol = 1e-10;
  const SvdResult first = ComputeLanczosSvd(a, 3, cold);
  ASSERT_EQ(first.sigma.size(), 3u);

  Rng perturb(402);
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) a(i, j) += perturb.Uniform(0.0, 1e-3);

  const SvdResult recold = ComputeLanczosSvd(a, 3, cold);
  LanczosOptions warm = cold;
  warm.start_basis = first.v;  // previous right singular vectors
  const SvdResult rewarm = ComputeLanczosSvd(a, 3, warm);

  EXPECT_LE(rewarm.iterations, recold.iterations);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(rewarm.sigma[j], recold.sigma[j],
                1e-8 * (recold.sigma[0] + 1.0));
  }
}

}  // namespace
}  // namespace ivmf
