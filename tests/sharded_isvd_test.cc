// The sharded decomposition route end to end: RunIsvd over a
// ShardedSparseIntervalMatrix must agree with the monolithic sparse route
// for every strategy 0-4 and both sign regimes — the sharded operators
// feed the unchanged Lanczos drivers, so only the reduction grouping of
// the Gram/transpose applies differs (roundoff, amplified through the
// eigensolve; the suite compares at the established sparse-vs-dense
// agreement bound). The monolithic reference pins GramSide::kMtM because
// the sharded route has no MMᵀ side (no transposed store exists).
// A second pass runs the mmap-backed store through the same harness — the
// out-of-core decompose path must be numerically indistinguishable from
// the in-memory one. Both eigensolvers run: Lanczos exercises the
// matrix-free Gram operators, Jacobi the dense-Gram statics.
//
// A wide fixture (cols > rows) under GramSide::kAuto covers the one place
// the two stores resolve the Gram side differently: the CSR store picks
// MMᵀ there, while the sharded store stays on MᵀM. ISVD3/4 are not
// invariant under transposition, so the sharded result is compared with
// the CSR route pinned to MᵀM.

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/sparse_isvd.h"
#include "linalg/lanczos.h"
#include "linalg/lanczos_svd.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"
#include "sparse/sparse_gram_operator.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {
namespace {

SparseIntervalMatrix MakeSparseFixture(size_t rows, size_t cols, double fill,
                                       bool signed_values, uint64_t seed) {
  Rng rng(seed);
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.Uniform() >= fill) continue;
      const double a =
          signed_values ? rng.Uniform(-2.0, 2.0) : rng.Uniform(0.5, 4.0);
      triplets.push_back({i, j, Interval(a, a + rng.Uniform())});
    }
  }
  return SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
}

void ExpectResultsAgree(const IsvdResult& want, const IsvdResult& got,
                        double tol) {
  ASSERT_EQ(want.rank(), got.rank());
  for (size_t j = 0; j < want.rank(); ++j) {
    EXPECT_NEAR(want.sigma[j].lo, got.sigma[j].lo, tol) << "sigma " << j;
    EXPECT_NEAR(want.sigma[j].hi, got.sigma[j].hi, tol) << "sigma " << j;
  }
  const IntervalMatrix recon_want = want.Reconstruct();
  const IntervalMatrix recon_got = got.Reconstruct();
  EXPECT_TRUE(recon_got.ApproxEquals(recon_want, tol))
      << "max lower diff "
      << (recon_got.lower() - recon_want.lower()).MaxAbs()
      << ", max upper diff "
      << (recon_got.upper() - recon_want.upper()).MaxAbs();
}

class ShardedIsvdAgreement
    : public ::testing::TestWithParam<::testing::tuple<int, bool, EigSolver>> {
};

TEST_P(ShardedIsvdAgreement, ShardedStrategyMatchesMonolithic) {
  const int strategy = ::testing::get<0>(GetParam());
  const bool signed_values = ::testing::get<1>(GetParam());

  const size_t rows = 120, cols = 40, rank = 5;
  const SparseIntervalMatrix mono = MakeSparseFixture(
      rows, cols, 0.2, signed_values,
      900 + 10 * static_cast<uint64_t>(strategy) + signed_values);
  ASSERT_EQ(mono.IsNonNegative(), !signed_values);

  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.eig_solver = ::testing::get<2>(GetParam());
  // The sharded route is always MᵀM; pin the reference to the same side.
  options.gram_side = GramSide::kMtM;

  const IsvdResult reference = RunIsvd(strategy, mono, rank, options);

  // Unaligned partition: 120 rows in shards of 32 leaves a 24-row tail.
  const ShardedSparseIntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromCsr(mono, 32);
  ExpectResultsAgree(reference, RunIsvd(strategy, sharded, rank, options),
                     1e-8);

  const ShardedSparseIntervalMatrix mapped =
      ShardedSparseIntervalMatrix::FromCsr(mono, 32, BackingPolicy::Mmap());
  ASSERT_TRUE(mapped.mmap_backed());
  ExpectResultsAgree(reference, RunIsvd(strategy, mapped, rank, options),
                     1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesSignsAndSolvers, ShardedIsvdAgreement,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4), ::testing::Bool(),
                       ::testing::Values(EigSolver::kLanczos,
                                         EigSolver::kJacobi)));

class ShardedIsvdWide : public ::testing::TestWithParam<int> {};

TEST_P(ShardedIsvdWide, AutoGramSideMatchesMonolithic) {
  const int strategy = GetParam();
  const size_t rows = 40, cols = 120, rank = 5;
  const SparseIntervalMatrix mono = MakeSparseFixture(
      rows, cols, 0.2, /*signed_values=*/false,
      950 + static_cast<uint64_t>(strategy));
  const ShardedSparseIntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromCsr(mono, 16);

  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.eig_solver = EigSolver::kLanczos;
  options.gram_side = GramSide::kAuto;
  EXPECT_TRUE(ComputeGramEig(mono, rank, options).transposed);
  EXPECT_FALSE(ComputeGramEig(sharded, rank, options).transposed);
  const IsvdResult got = RunIsvd(strategy, sharded, rank, options);

  options.gram_side = GramSide::kMtM;
  ExpectResultsAgree(RunIsvd(strategy, mono, rank, options), got, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Strategies, ShardedIsvdWide,
                         ::testing::Values(0, 1, 2, 3, 4));

// The endpoint pairs over the sharded store, in memory (every backend) and
// mapped: each pair method against two single-endpoint sharded applies,
// and the lock-step Gram eigensolve and Golub-Kahan SVD against two single
// solves, which ISVD1-4 run on this store.
TEST(ShardedPairTest, PairAppliesAndSolvesMatchTwoSingles) {
  const SparseIntervalMatrix base =
      MakeSparseFixture(150, 45, 0.2, /*signed_values=*/false, 970);
  const auto expect_near = [](const std::vector<double>& got,
                              const std::vector<double>& want,
                              const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12 * std::max(1.0, std::fabs(want[i])))
          << what << "[" << i << "]";
    }
  };
  using Endpoint = ShardedSparseIntervalMatrix::Endpoint;
  Rng rng(971);
  std::vector<double> xc_lo(45), xc_hi(45), xr_lo(150), xr_hi(150);
  for (auto* v : {&xc_lo, &xc_hi, &xr_lo, &xr_hi}) {
    for (double& x : *v) x = rng.Uniform(-1.0, 1.0);
  }
  LanczosOptions o0, o1;
  o1.seed = o0.seed + 1;
  for (const spk::Backend backend :
       {spk::Backend::kScalar, spk::Backend::kAvx2, spk::Backend::kSell}) {
    for (const bool mmap : {false, true}) {
      SparseIntervalMatrix mono = base;
      mono.set_kernel(backend);
      const ShardedSparseIntervalMatrix m = ShardedSparseIntervalMatrix::FromCsr(
          mono, 32, mmap ? BackingPolicy::Mmap() : BackingPolicy::Memory());
      SCOPED_TRACE(std::string(spk::BackendName(m.resolved_kernel())) +
                   (mmap ? "/mmap" : "/memory"));
      std::vector<double> lo, hi, want_lo, want_hi;
      m.MultiplyPair(xc_lo, xc_hi, lo, hi);
      m.Multiply(Endpoint::kLower, xc_lo, want_lo);
      m.Multiply(Endpoint::kUpper, xc_hi, want_hi);
      expect_near(lo, want_lo, "multiply_pair.lo");
      expect_near(hi, want_hi, "multiply_pair.hi");
      m.MultiplyTransposePair(xr_lo, xr_hi, lo, hi);
      m.MultiplyTranspose(Endpoint::kLower, xr_lo, want_lo);
      m.MultiplyTranspose(Endpoint::kUpper, xr_hi, want_hi);
      expect_near(lo, want_lo, "transpose_pair.lo");
      expect_near(hi, want_hi, "transpose_pair.hi");
      m.GramMultiplyPair(xc_lo, xc_hi, lo, hi);
      m.GramMultiply(Endpoint::kLower, xc_lo, want_lo);
      m.GramMultiply(Endpoint::kUpper, xc_hi, want_hi);
      expect_near(lo, want_lo, "gram_pair.lo");
      expect_near(hi, want_hi, "gram_pair.hi");

      const std::array<EigResult, 2> eig =
          ComputeLanczosEigPair(GramOperatorPair(m), 5, o0, o1);
      const std::array<SvdResult, 2> svd =
          ComputeLanczosSvdPair(EndpointMapPair(m), 5, o0, o1);
      for (size_t side = 0; side < 2; ++side) {
        const Endpoint e = side == 0 ? Endpoint::kLower : Endpoint::kUpper;
        const EigResult eig_alone = ComputeLanczosEig(
            ShardedGramOperator(m, e), 5, side == 0 ? o0 : o1);
        const SvdResult svd_alone = ComputeLanczosSvd(
            ShardedEndpointMap(m, side == 0 ? ShardedEndpointMap::Part::kLower
                                            : ShardedEndpointMap::Part::kUpper),
            5, side == 0 ? o0 : o1);
        EXPECT_EQ(eig[side].iterations, eig_alone.iterations);
        EXPECT_EQ(svd[side].iterations, svd_alone.iterations);
        ASSERT_EQ(eig[side].eigenvalues.size(), 5u);
        ASSERT_EQ(svd[side].sigma.size(), 5u);
        for (size_t j = 0; j < 5; ++j) {
          EXPECT_NEAR(eig[side].eigenvalues[j], eig_alone.eigenvalues[j],
                      1e-10 * eig_alone.eigenvalues[0]);
          EXPECT_NEAR(svd[side].sigma[j], svd_alone.sigma[j],
                      1e-10 * svd_alone.sigma[0]);
        }
      }
    }
  }
}

// GTest death tests fork, which ThreadSanitizer does not support.
#if defined(__SANITIZE_THREAD__)
#define IVMF_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IVMF_TSAN_BUILD 1
#endif
#endif

#ifndef IVMF_TSAN_BUILD
TEST(ShardedIsvdDeathTest, RejectsTransposedGramEig) {
  // A CSR GramEig of a wide matrix is computed on MMᵀ; the sharded store
  // has no transposed side to run it on.
  const SparseIntervalMatrix mono =
      MakeSparseFixture(20, 60, 0.2, /*signed_values=*/false, 960);
  IsvdOptions options;
  options.gram_side = GramSide::kMMt;
  const GramEig gram = ComputeGramEig(mono, 3, options);
  ASSERT_TRUE(gram.transposed);
  const ShardedSparseIntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromCsr(mono, 8);
  EXPECT_DEATH(Isvd2(sharded, 3, gram, options), "GramEig computed on");
}
#endif

}  // namespace
}  // namespace ivmf
