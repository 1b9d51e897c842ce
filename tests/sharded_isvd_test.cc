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

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/sparse_isvd.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"
#include "sparse/sparse_interval_matrix.h"

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
