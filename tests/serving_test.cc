// Serving-layer unit tests: per-cell Predict must reproduce the full
// Reconstruct for every strategy x target, TopK must match a brute-force
// ranking, the registry must hand out the latest epoch, the engine's
// drain/refresh/publish step must produce snapshots consistent with a
// from-scratch decomposition of the published matrix, Submit must drop
// out-of-shape, non-finite and inverted cells before they reach the
// writer, and the sparse frozen-view handoff must cache until the next
// mutation.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "core/sparse_isvd.h"
#include "obs/metrics.h"
#include "serve/serving_engine.h"
#include "serve/snapshot_registry.h"
#include "serve/serving_snapshot.h"
#include "sparse/dynamic_sparse_interval_matrix.h"

namespace ivmf {
namespace {

using CellMap = std::map<std::pair<size_t, size_t>, Interval>;

std::vector<IntervalTriplet> ToTriplets(const CellMap& cells) {
  std::vector<IntervalTriplet> triplets;
  triplets.reserve(cells.size());
  for (const auto& [key, value] : cells) {
    triplets.push_back({key.first, key.second, value});
  }
  return triplets;
}

// Near-low-rank non-negative cells, like the streaming suite uses: spectra
// the decompositions resolve cleanly.
CellMap RandomBaseCells(size_t n, size_t m, size_t k, double fill, Rng& rng) {
  Matrix u(n, k), v(m, k);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < k; ++j) u(i, j) = rng.Uniform(0.1, 1.0);
  for (size_t i = 0; i < m; ++i)
    for (size_t j = 0; j < k; ++j) v(i, j) = rng.Uniform(0.1, 1.0);
  CellMap cells;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (!rng.Bernoulli(fill)) continue;
      double base = 0.0;
      for (size_t c = 0; c < k; ++c) base += u(i, c) * v(j, c);
      cells[{i, j}] = Interval(base, base + rng.Uniform(0.0, 0.2));
    }
  }
  return cells;
}

ServingSnapshot SnapshotOf(const StreamingIsvd& streaming, uint64_t epoch) {
  return ServingSnapshot(epoch, streaming.result(),
                         streaming.matrix_snapshot());
}

// ---------------------------------------------------------------------------
// ServingSnapshot
// ---------------------------------------------------------------------------

TEST(ServingSnapshotTest, PredictMatchesReconstructEveryStrategyAndTarget) {
  Rng rng(11);
  const size_t n = 20, m = 12, rank = 3;
  const CellMap cells = RandomBaseCells(n, m, 3, 0.5, rng);
  const SparseIntervalMatrix base =
      SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells));

  for (int strategy = 0; strategy <= 4; ++strategy) {
    for (const DecompositionTarget target :
         {DecompositionTarget::kA, DecompositionTarget::kB,
          DecompositionTarget::kC}) {
      StreamingIsvdOptions options;
      options.isvd.target = target;
      StreamingIsvd streaming(strategy, rank, base, options);
      const ServingSnapshot snapshot = SnapshotOf(streaming, 1);
      const IntervalMatrix recon = streaming.result().Reconstruct();
      SCOPED_TRACE(::testing::Message()
                   << "strategy " << strategy << " target "
                   << static_cast<int>(target));
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < m; ++j) {
          const Interval predicted = snapshot.Predict(i, j);
          const Interval expected = recon.At(i, j);
          EXPECT_NEAR(predicted.lo, expected.lo, 1e-10)
              << "cell (" << i << ", " << j << ")";
          EXPECT_NEAR(predicted.hi, expected.hi, 1e-10)
              << "cell (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(ServingSnapshotTest, ObservedReturnsFrozenMatrixCells) {
  Rng rng(12);
  const size_t n = 15, m = 10;
  const CellMap cells = RandomBaseCells(n, m, 2, 0.4, rng);
  StreamingIsvd streaming(
      2, 2, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));
  const ServingSnapshot snapshot = SnapshotOf(streaming, 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const auto it = cells.find({i, j});
      const Interval expected =
          it == cells.end() ? Interval() : it->second;
      EXPECT_EQ(snapshot.Observed(i, j), expected);
    }
  }
}

TEST(ServingSnapshotTest, TopKMatchesBruteForceMidpointRanking) {
  Rng rng(13);
  const size_t n = 18, m = 14, k = 5;
  const CellMap cells = RandomBaseCells(n, m, 3, 0.5, rng);
  StreamingIsvd streaming(
      3, 3, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));
  const ServingSnapshot snapshot = SnapshotOf(streaming, 1);

  for (size_t user = 0; user < n; ++user) {
    // Brute force: all items by (midpoint desc, item asc).
    std::vector<std::pair<double, size_t>> expected;
    for (size_t j = 0; j < m; ++j) {
      expected.emplace_back(-snapshot.Predict(user, j).Mid(), j);
    }
    std::sort(expected.begin(), expected.end());

    const std::vector<ServingSnapshot::ScoredItem> top =
        snapshot.TopK(user, k);
    ASSERT_EQ(top.size(), k);
    for (size_t r = 0; r < k; ++r) {
      EXPECT_EQ(top[r].item, expected[r].second) << "user " << user
                                                 << " rank " << r;
      EXPECT_DOUBLE_EQ(top[r].score.Mid(), -expected[r].first);
    }
  }
}

TEST(ServingSnapshotTest, TopKExcludesObservedItemsWhenAsked) {
  Rng rng(14);
  const size_t n = 12, m = 8;
  const CellMap cells = RandomBaseCells(n, m, 2, 0.6, rng);
  StreamingIsvd streaming(
      2, 2, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));
  const ServingSnapshot snapshot = SnapshotOf(streaming, 1);

  for (size_t user = 0; user < n; ++user) {
    const std::vector<ServingSnapshot::ScoredItem> top =
        snapshot.TopK(user, m, /*exclude_observed=*/true);
    size_t observed = 0;
    for (size_t j = 0; j < m; ++j) {
      if (cells.count({user, j}) > 0) ++observed;
    }
    EXPECT_EQ(top.size(), m - observed);
    for (const ServingSnapshot::ScoredItem& s : top) {
      EXPECT_EQ(cells.count({user, s.item}), 0u)
          << "served an already-rated item";
    }
  }
}

TEST(ServingSnapshotTest, TopKClampsToCandidateCount) {
  Rng rng(15);
  const CellMap cells = RandomBaseCells(6, 4, 2, 0.7, rng);
  StreamingIsvd streaming(
      2, 2, SparseIntervalMatrix::FromTriplets(6, 4, ToTriplets(cells)));
  const ServingSnapshot snapshot = SnapshotOf(streaming, 1);
  EXPECT_EQ(snapshot.TopK(0, 100).size(), 4u);
}

// ---------------------------------------------------------------------------
// SnapshotRegistry
// ---------------------------------------------------------------------------

TEST(SnapshotRegistryTest, AcquireReturnsLatestPublished) {
  Rng rng(16);
  const CellMap cells = RandomBaseCells(8, 6, 2, 0.6, rng);
  StreamingIsvd streaming(
      2, 2, SparseIntervalMatrix::FromTriplets(8, 6, ToTriplets(cells)));

  SnapshotRegistry registry;
  EXPECT_EQ(registry.Acquire(), nullptr);
  EXPECT_EQ(registry.published(), 0u);

  auto first = std::make_shared<const ServingSnapshot>(
      1, streaming.result(), streaming.matrix_snapshot());
  registry.Publish(first);
  EXPECT_EQ(registry.Acquire(), first);
  EXPECT_EQ(registry.published(), 1u);

  auto second = std::make_shared<const ServingSnapshot>(
      2, streaming.result(), streaming.matrix_snapshot());
  registry.Publish(second);
  EXPECT_EQ(registry.Acquire(), second);
  EXPECT_EQ(registry.Acquire()->epoch(), 2u);
  EXPECT_EQ(registry.published(), 2u);

  // An old acquire keeps its epoch alive independently of publication.
  EXPECT_EQ(first->epoch(), 1u);
}

// ---------------------------------------------------------------------------
// ServingEngine
// ---------------------------------------------------------------------------

TEST(ServingEngineTest, ConstructionPublishesEpochOne) {
  Rng rng(17);
  const CellMap cells = RandomBaseCells(10, 8, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(10, 8, ToTriplets(cells)));
  const auto snapshot = engine.Acquire();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.registry().published(), 1u);
}

TEST(ServingEngineTest, StepWithoutWorkKeepsTheEpoch) {
  Rng rng(18);
  const CellMap cells = RandomBaseCells(10, 8, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(10, 8, ToTriplets(cells)));
  const auto before = engine.Acquire();
  EXPECT_EQ(engine.Step(), 0u);
  EXPECT_EQ(engine.Acquire(), before);
  EXPECT_EQ(engine.epoch(), 1u);
}

TEST(ServingEngineTest, StepPublishesConsistentSnapshot) {
  Rng rng(19);
  const size_t n = 30, m = 20, rank = 3;
  CellMap cells = RandomBaseCells(n, m, 3, 0.4, rng);
  ServingEngine engine(
      2, rank, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));

  // Two submitted batches coalesce into one refresh.
  engine.Submit({{0, 0, Interval(2.0, 2.5)}, {5, 5, Interval(1.0, 1.5)}});
  engine.Submit({{0, 0, Interval(3.0, 3.5)}});  // revision: last write wins
  EXPECT_EQ(engine.pending_cells(), 3u);
  EXPECT_EQ(engine.Step(), 3u);
  EXPECT_EQ(engine.pending_cells(), 0u);
  EXPECT_EQ(engine.cells_applied(), 3u);

  const auto snapshot = engine.Acquire();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch(), 2u);
  EXPECT_EQ(snapshot->Observed(0, 0), Interval(3.0, 3.5));
  EXPECT_EQ(snapshot->Observed(5, 5), Interval(1.0, 1.5));

  // The published factors decompose the published matrix: a from-scratch
  // cold run of the same solver family on the frozen view agrees to the
  // streaming suite's tolerance.
  cells[{0, 0}] = Interval(3.0, 3.5);
  cells[{5, 5}] = Interval(1.0, 1.5);
  StreamingIsvdOptions options;
  const IsvdResult from_scratch =
      RunIsvd(2, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)),
              rank, options.isvd);
  ASSERT_EQ(snapshot->rank(), from_scratch.rank());
  for (size_t j = 0; j < from_scratch.rank(); ++j) {
    EXPECT_NEAR(snapshot->result().sigma[j].lo, from_scratch.sigma[j].lo,
                1e-8);
    EXPECT_NEAR(snapshot->result().sigma[j].hi, from_scratch.sigma[j].hi,
                1e-8);
  }
  const IntervalMatrix recon = from_scratch.Reconstruct();
  for (size_t i = 0; i < n; i += 7) {
    for (size_t j = 0; j < m; j += 5) {
      const Interval predicted = snapshot->Predict(i, j);
      EXPECT_NEAR(predicted.lo, recon.At(i, j).lo, 1e-8);
      EXPECT_NEAR(predicted.hi, recon.At(i, j).hi, 1e-8);
    }
  }
}

// With shard_rows set, every published snapshot carries the frozen
// block-row sharded view of its matrix — shape-checked against the matrix
// view and cell-consistent with Observed across epochs.
TEST(ServingEngineTest, ShardedViewRidesThePublishedSnapshot) {
  Rng rng(23);
  const size_t n = 30, m = 20;
  CellMap cells = RandomBaseCells(n, m, 3, 0.4, rng);
  ServingEngineOptions options;
  options.streaming.shard_rows = 8;
  ServingEngine engine(
      3, 3, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)),
      options);

  auto snapshot = engine.Acquire();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(snapshot->has_sharded());
  EXPECT_EQ(snapshot->shared_sharded()->rows(), n);
  EXPECT_EQ(snapshot->shared_sharded()->cols(), m);
  EXPECT_EQ(snapshot->shared_sharded()->num_shards(), 4u);

  engine.Submit({{0, 0, Interval(2.0, 2.5)}});
  EXPECT_EQ(engine.Step(), 1u);
  snapshot = engine.Acquire();
  ASSERT_TRUE(snapshot->has_sharded());
  const Interval sharded_cell = snapshot->shared_sharded()->At(0, 0);
  const Interval observed = snapshot->Observed(0, 0);
  EXPECT_EQ(sharded_cell.lo, observed.lo);
  EXPECT_EQ(sharded_cell.hi, observed.hi);
}

TEST(ServingEngineTest, OnPublishSeesEveryEpochInOrder) {
  Rng rng(20);
  const CellMap cells = RandomBaseCells(12, 8, 2, 0.5, rng);
  std::vector<uint64_t> epochs;
  ServingEngineOptions options;
  options.on_publish =
      [&epochs](const std::shared_ptr<const ServingSnapshot>& s) {
        epochs.push_back(s->epoch());
      };
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(12, 8, ToTriplets(cells)),
      options);
  engine.Submit({{1, 1, Interval(2.0, 2.0)}});
  engine.Step();
  engine.Submit({{2, 2, Interval(3.0, 3.0)}});
  engine.Step();
  EXPECT_EQ(epochs, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(ServingEngineTest, BackgroundWriterPublishesSubmittedWork) {
  Rng rng(21);
  const CellMap cells = RandomBaseCells(15, 10, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(15, 10, ToTriplets(cells)));
  engine.StartWriter();
  EXPECT_TRUE(engine.writer_running());
  engine.Submit({{3, 3, Interval(4.0, 4.5)}});
  engine.StopWriter();  // flushes pending work before returning
  EXPECT_FALSE(engine.writer_running());
  const auto snapshot = engine.Acquire();
  EXPECT_GE(snapshot->epoch(), 2u);
  EXPECT_EQ(snapshot->Observed(3, 3), Interval(4.0, 4.5));
  EXPECT_EQ(engine.pending_cells(), 0u);
}

// Regression guards for the three bad cells Submit used to accept: each is
// dropped at the door, counted under its reason, and leaves the engine
// serving finite factors from the previous matrix.
uint64_t RejectedCells(const char* reason) {
  return obs::MetricsRegistry::Global().Snapshot().CounterValue(
      std::string("serving.rejected_cells{reason=") + reason + "}");
}

bool AllSigmaFinite(const ServingSnapshot& snapshot) {
  for (const Interval& s : snapshot.result().sigma) {
    if (!std::isfinite(s.lo) || !std::isfinite(s.hi)) return false;
  }
  return true;
}

TEST(ServingEngineTest, SubmitRejectsNonFiniteCell) {
  // A NaN cell used to reach the Lanczos solve and abort the process with
  // "tridiagonal QL failed".
  Rng rng(24);
  const CellMap cells = RandomBaseCells(10, 8, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(10, 8, ToTriplets(cells)));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const uint64_t before = RejectedCells("non_finite");
  EXPECT_EQ(engine.Submit({{3, 7, Interval(nan, nan)}}), 0u);
  EXPECT_EQ(engine.Submit({{3, 7, Interval(1.0, inf)},
                           {4, 4, Interval(2.0, 2.5)}}),
            1u);
  EXPECT_EQ(RejectedCells("non_finite") - before, 2u);
  EXPECT_EQ(engine.pending_cells(), 1u);
  EXPECT_EQ(engine.Step(), 1u);
  const auto snapshot = engine.Acquire();
  EXPECT_EQ(snapshot->epoch(), 2u);
  EXPECT_EQ(snapshot->Observed(4, 4), Interval(2.0, 2.5));
  EXPECT_TRUE(AllSigmaFinite(*snapshot));
}

TEST(ServingEngineTest, SubmitRejectsInvertedInterval) {
  // [4, 2] used to be applied and served, leaving an improper matrix.
  Rng rng(25);
  const CellMap cells = RandomBaseCells(10, 8, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(10, 8, ToTriplets(cells)));
  const Interval original = engine.Acquire()->Observed(3, 5);
  const uint64_t before = RejectedCells("inverted");
  EXPECT_EQ(engine.Submit({{3, 5, Interval(4.0, 2.0)}}), 0u);
  EXPECT_EQ(RejectedCells("inverted") - before, 1u);
  EXPECT_EQ(engine.Step(), 0u);
  const auto snapshot = engine.Acquire();
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_EQ(snapshot->Observed(3, 5), original);
}

TEST(ServingEngineTest, SubmitRejectsOutOfShapeCell) {
  // An out-of-shape cell used to hit the IVMF_CHECK in
  // DynamicSparseIntervalMatrix::Upsert on the writer.
  Rng rng(26);
  const CellMap cells = RandomBaseCells(10, 8, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(10, 8, ToTriplets(cells)));
  const uint64_t before = RejectedCells("out_of_shape");
  EXPECT_EQ(engine.Submit({{10, 0, Interval(1.0, 1.5)},
                           {0, 8, Interval(1.0, 1.5)},
                           {9, 7, Interval(1.0, 1.5)}}),
            1u);
  EXPECT_EQ(RejectedCells("out_of_shape") - before, 2u);
  EXPECT_EQ(engine.Step(), 1u);
  const auto snapshot = engine.Acquire();
  EXPECT_EQ(snapshot->Observed(9, 7), Interval(1.0, 1.5));
  EXPECT_TRUE(AllSigmaFinite(*snapshot));
}

// ---------------------------------------------------------------------------
// DynamicSparseIntervalMatrix::SharedSnapshot (the frozen-view handoff)
// ---------------------------------------------------------------------------

TEST(SharedSnapshotTest, CachesUntilMutation) {
  DynamicSparseIntervalMatrix m(5, 4);
  m.Upsert(0, 1, Interval(1.0, 2.0));
  m.Upsert(3, 2, Interval(2.0, 3.0));

  const auto first = m.SharedSnapshot();
  const auto again = m.SharedSnapshot();
  EXPECT_EQ(first.get(), again.get());  // same epoch: no new merge

  m.Upsert(4, 0, Interval(5.0, 5.0));
  const auto after = m.SharedSnapshot();
  EXPECT_NE(after.get(), first.get());

  // The old view is frozen at its epoch; the new one sees the mutation.
  EXPECT_EQ(first->At(4, 0), Interval());
  EXPECT_EQ(after->At(4, 0), Interval(5.0, 5.0));
  EXPECT_EQ(after->nnz(), 3u);
}

TEST(SharedSnapshotTest, CompactionKeepsTheFrozenViewValid) {
  DynamicSparseIntervalMatrix m(4, 4);
  m.Upsert(1, 1, Interval(1.0, 1.0));
  m.Upsert(2, 3, Interval(2.0, 2.0));
  const auto view = m.SharedSnapshot();

  // Compaction folds the log without changing content: the cached view
  // stays current (pointer-equal on re-acquire) and the base adopts it.
  m.Compact();
  EXPECT_EQ(m.delta_size(), 0u);
  EXPECT_EQ(m.base_nnz(), 2u);
  EXPECT_EQ(m.SharedSnapshot().get(), view.get());
  EXPECT_EQ(m.At(1, 1), Interval(1.0, 1.0));
  EXPECT_EQ(m.At(2, 3), Interval(2.0, 2.0));
}

TEST(SharedSnapshotTest, StreamingExportsTheDecomposedMatrix) {
  Rng rng(22);
  const size_t n = 20, m = 12;
  CellMap cells = RandomBaseCells(n, m, 2, 0.4, rng);
  StreamingIsvd streaming(
      2, 2, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));
  ASSERT_NE(streaming.matrix_snapshot(), nullptr);
  EXPECT_EQ(streaming.refresh_count(), 1u);

  // The exported view stays paired with result() across later ApplyBatch
  // calls — it reflects the matrix at the last refresh, not the log.
  const auto at_refresh = streaming.matrix_snapshot();
  streaming.ApplyBatch({{0, 0, Interval(9.0, 9.0)}});
  EXPECT_EQ(streaming.matrix_snapshot().get(), at_refresh.get());
  EXPECT_EQ(streaming.matrix_snapshot()->At(0, 0).hi, at_refresh->At(0, 0).hi);

  streaming.Refresh();
  EXPECT_EQ(streaming.refresh_count(), 2u);
  EXPECT_NE(streaming.matrix_snapshot().get(), at_refresh.get());
  EXPECT_EQ(streaming.matrix_snapshot()->At(0, 0), Interval(9.0, 9.0));
}

}  // namespace
}  // namespace ivmf
