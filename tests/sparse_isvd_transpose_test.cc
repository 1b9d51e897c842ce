// How many CSR transposes each sparse ISVD strategy builds.
//
// No strategy builds one on the MᵀM Gram side: the Golub–Kahan maps of
// ISVD0/ISVD1 scatter M_eᵀ u from the rows, the Gram operator of
// ISVD2–ISVD4 runs one fused pass over the rows (or SELL chunks), and the
// ISVD4 recompute scatters M†ᵀ S. On a wide matrix the MMᵀ side binds
// M†ᵀ once, in ComputeGramEig; the strategies run their working-matrix
// products as transposed products of M†. Counts come from the
// sparse.transpose.calls counter on Transpose().

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/sparse_isvd.h"
#include "linalg/lanczos_svd.h"
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

TEST(SparseIsvdTransposeTest, NoStrategyTransposesOnTheMtMSide) {
  SparseIntervalMatrix m = RandomNonNegative(300, 60, 7);
  const IsvdOptions options = LanczosOptions();  // GramSide::kMtM
  for (spk::Backend backend : kBackends) {
    m.set_kernel(backend);
    for (int strategy = 0; strategy <= 4; ++strategy) {
      EXPECT_EQ(TransposesOf(strategy, m, options), 0u)
          << "ISVD" << strategy << " on " << spk::BackendName(backend);
    }
  }
}

TEST(SparseIsvdTransposeTest, WideMatrixRecomputesWithoutATranspose) {
  // GramSide::kAuto on a wide matrix decomposes M†ᵀ. ComputeGramEig binds
  // that working matrix (one transpose); the strategy's products run on M†
  // itself, forward or as row scatters, and add none.
  SparseIntervalMatrix m = RandomNonNegative(60, 300, 9);
  IsvdOptions options = LanczosOptions();
  options.gram_side = GramSide::kAuto;
  for (spk::Backend backend : kBackends) {
    m.set_kernel(backend);
    for (int strategy = 2; strategy <= 4; ++strategy) {
      EXPECT_EQ(TransposesOf(strategy, m, options), 1u)
          << "ISVD" << strategy << " on " << spk::BackendName(backend);
    }
  }
}

// |got - want| within `rel` of |want| for every sigma endpoint.
void ExpectSigmaNear(const IsvdResult& got, const IsvdResult& want,
                     double rel, const std::string& what) {
  ASSERT_EQ(got.sigma.size(), want.sigma.size()) << what;
  for (size_t j = 0; j < want.sigma.size(); ++j) {
    EXPECT_NEAR(got.sigma[j].lo, want.sigma[j].lo,
                rel * std::abs(want.sigma[j].lo))
        << what << " sigma " << j;
    EXPECT_NEAR(got.sigma[j].hi, want.sigma[j].hi,
                rel * std::abs(want.sigma[j].hi))
        << what << " sigma " << j;
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
  ExpectSigmaNear(got, want, 1e-9, "ISVD4");
  ASSERT_EQ(got.v.rows(), want.v.rows());
  for (size_t i = 0; i < want.v.rows(); ++i) {
    for (size_t j = 0; j < want.v.cols(); ++j) {
      EXPECT_NEAR(got.v.lower()(i, j), want.v.lower()(i, j), 1e-8);
      EXPECT_NEAR(got.v.upper()(i, j), want.v.upper()(i, j), 1e-8);
    }
  }
}

TEST(SparseIsvdTransposeTest, TransposeFreeGolubKahanMatchesTransposeRoute) {
  // ISVD0 and ISVD1 through the library's transpose-free maps, on every
  // backend, against the same Golub–Kahan solve driven by the scalar
  // (m, mt) reference maps, which apply the transpose forward on mt.
  SparseIntervalMatrix m = RandomNonNegative(300, 60, 11);
  m.set_kernel(spk::Backend::kScalar);
  const SparseIntervalMatrix mt = m.Transpose();
  const IsvdOptions options = LanczosOptions();
  using Part = SparseEndpointMap::Part;
  const SvdResult want_mid = ComputeLanczosSvd(
      SparseEndpointMap(m, mt, Part::kMid), 4, options.lanczos);
  const SvdResult want_lo = ComputeLanczosSvd(
      SparseEndpointMap(m, mt, Part::kLower), 4, options.lanczos);
  const SvdResult want_hi = ComputeLanczosSvd(
      SparseEndpointMap(m, mt, Part::kUpper), 4, options.lanczos);
  for (spk::Backend backend : kBackends) {
    m.set_kernel(backend);
    const std::string what = spk::BackendName(backend);
    const IsvdResult isvd0 = RunIsvd(0, m, 4, options);
    ASSERT_EQ(isvd0.sigma.size(), want_mid.sigma.size()) << what;
    for (size_t j = 0; j < want_mid.sigma.size(); ++j) {
      EXPECT_NEAR(isvd0.sigma[j].lo, want_mid.sigma[j],
                  1e-9 * want_mid.sigma[j])
          << what << " ISVD0 sigma " << j;
    }
    // At target a, ISVD1 pairs the aligned lower spectrum with the upper
    // one; as a set its endpoints are the two spectra.
    IsvdOptions raw = options;
    raw.target = DecompositionTarget::kA;
    const IsvdResult isvd1 = RunIsvd(1, m, 4, raw);
    std::vector<double> got, want;
    for (const Interval& s : isvd1.sigma) {
      got.push_back(s.lo);
      got.push_back(s.hi);
    }
    want.insert(want.end(), want_lo.sigma.begin(), want_lo.sigma.end());
    want.insert(want.end(), want_hi.sigma.begin(), want_hi.sigma.end());
    ASSERT_EQ(got.size(), want.size()) << what;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_NEAR(got[j], want[j], 1e-9 * want[j])
          << what << " ISVD1 sigma endpoint " << j;
    }
  }
}

}  // namespace
}  // namespace ivmf
