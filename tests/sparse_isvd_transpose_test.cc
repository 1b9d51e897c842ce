// How many CSR transposes each sparse ISVD strategy builds.
//
// The Gram route (ISVD2–ISVD4) builds the operator transpose only when the
// Gram operator reads it: the two-pass scalar and SELL backends. The fused
// AVX2 route reads none and builds none, and the ISVD4 recompute scatters
// M†ᵀ S from the rows instead of transposing. ISVD0/ISVD1 keep their
// transpose: the transposed forward matvec beats the scatter there. Counts
// come from the sparse.transpose.calls counter on Transpose().

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/sparse_isvd.h"
#include "obs/metrics.h"
#include "sparse/sparse_gram_operator.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {
namespace {

uint64_t TransposeCalls() {
  return obs::MetricsRegistry::Global()
      .GetCounter("sparse.transpose.calls")
      .value();
}

// Transposes one ISVD call builds.
uint64_t TransposesOf(int strategy, const SparseIntervalMatrix& m,
                      const IsvdOptions& options) {
  const uint64_t before = TransposeCalls();
  const IsvdResult result = RunIsvd(strategy, m, 4, options);
  EXPECT_EQ(result.sigma.size(), 4u);
  return TransposeCalls() - before;
}

// A random entrywise non-negative interval matrix (the matrix-free Gram
// route's domain).
SparseIntervalMatrix RandomNonNegative(size_t rows, size_t cols,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (!rng.Bernoulli(0.2)) continue;
      const double lo = rng.Uniform(0.5, 4.5);
      triplets.push_back({i, j, Interval(lo, lo + rng.Uniform(0.0, 0.5))});
    }
  }
  return SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
}

IsvdOptions LanczosOptions() {
  IsvdOptions options;
  options.eig_solver = EigSolver::kLanczos;
  return options;
}

const spk::Backend kBackends[] = {spk::Backend::kScalar, spk::Backend::kAvx2,
                                  spk::Backend::kSell};

// True when `backend` runs the fused one-pass Gram kernel on this machine
// (AVX2 requested and supported; without AVX2 the request runs scalar).
bool Fused(spk::Backend backend) {
  return spk::Resolve(backend) == spk::Backend::kAvx2;
}

TEST(SparseIsvdTransposeTest, GramRouteTransposesOnlyWhenTheOperatorReads) {
  SparseIntervalMatrix m = RandomNonNegative(300, 60, 7);
  const IsvdOptions options = LanczosOptions();  // GramSide::kMtM
  for (spk::Backend backend : kBackends) {
    m.set_kernel(backend);
    const uint64_t expected = Fused(backend) ? 0 : 1;
    EXPECT_EQ(SparseGramOperator::ReadsTranspose(m), expected == 1);
    for (int strategy = 2; strategy <= 4; ++strategy) {
      EXPECT_EQ(TransposesOf(strategy, m, options), expected)
          << "ISVD" << strategy << " on " << spk::BackendName(backend);
    }
  }
}

TEST(SparseIsvdTransposeTest, Isvd1KeepsOneTranspose) {
  SparseIntervalMatrix m = RandomNonNegative(300, 60, 8);
  for (spk::Backend backend : kBackends) {
    m.set_kernel(backend);
    EXPECT_EQ(TransposesOf(1, m, LanczosOptions()), 1u)
        << spk::BackendName(backend);
  }
}

TEST(SparseIsvdTransposeTest, WideMatrixRecomputesWithoutATranspose) {
  // GramSide::kAuto on a wide matrix decomposes M†ᵀ. ComputeGramEig and
  // the strategy each bind that working matrix (two transposes), the
  // two-pass backends add the operator transpose, and the recompute
  // product workᵀ B is a forward product on M† itself, which adds none.
  SparseIntervalMatrix m = RandomNonNegative(60, 300, 9);
  IsvdOptions options = LanczosOptions();
  options.gram_side = GramSide::kAuto;
  for (spk::Backend backend : kBackends) {
    m.set_kernel(backend);
    const uint64_t expected = Fused(backend) ? 2 : 3;
    EXPECT_EQ(TransposesOf(4, m, options), expected)
        << spk::BackendName(backend);
  }
}

TEST(SparseIsvdTransposeTest, TransposeFreeIsvd4MatchesTwoPassRoute) {
  // The fused route (no transpose, row-scatter recompute) against the
  // scalar two-pass route on the same matrix.
  SparseIntervalMatrix m = RandomNonNegative(300, 60, 10);
  const IsvdOptions options = LanczosOptions();
  m.set_kernel(spk::Backend::kScalar);
  const IsvdResult want = RunIsvd(4, m, 4, options);
  m.set_kernel(spk::Backend::kAvx2);
  const IsvdResult got = RunIsvd(4, m, 4, options);
  ASSERT_EQ(got.sigma.size(), want.sigma.size());
  for (size_t j = 0; j < want.sigma.size(); ++j) {
    EXPECT_NEAR(got.sigma[j].lo, want.sigma[j].lo,
                1e-9 * std::abs(want.sigma[j].lo));
    EXPECT_NEAR(got.sigma[j].hi, want.sigma[j].hi,
                1e-9 * std::abs(want.sigma[j].hi));
  }
  ASSERT_EQ(got.v.rows(), want.v.rows());
  for (size_t i = 0; i < want.v.rows(); ++i) {
    for (size_t j = 0; j < want.v.cols(); ++j) {
      EXPECT_NEAR(got.v.lower()(i, j), want.v.lower()(i, j), 1e-8);
      EXPECT_NEAR(got.v.upper()(i, j), want.v.upper()(i, j), 1e-8);
    }
  }
}

}  // namespace
}  // namespace ivmf
