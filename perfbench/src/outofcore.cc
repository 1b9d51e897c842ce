// outofcore: a 44k x 4.8k CF-style interval matrix (5% fill) stream-built
// row by row into an mmap-backed block-row store (~200 MiB of .ivsh segment
// files) under a 48 MiB memory budget, then decomposed cold, repeatedly:
// ISVD3 at rank 8 on the Gram route, then ISVD1 on the Golub-Kahan route.
// The sharded block matrix and the shard store do the work here and nowhere
// else; the store is about twice the L3 and four times the budget.
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.h"
#include "layers.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ivmf::ShardedSparseIntervalMatrix;
using Endpoint = ShardedSparseIntervalMatrix::Endpoint;

constexpr size_t kUsers = 44000;
constexpr size_t kItems = 4800;
constexpr double kFill = 0.05;
constexpr size_t kShardRows = 1024;
constexpr size_t kBudgetBytes = size_t{48} << 20;
constexpr size_t kRank = 8;
constexpr int kGramStrategy = 3;
// The store build writes ~200 MiB through the page cache and its time
// varies more than the other workloads' set-ups, so it is repeated more.
constexpr int kSetups = 5;
constexpr int kMinReps = 3;
// Share of the timed phase given to the Gram route; the rest runs ISVD1.
constexpr double kGramShare = 0.4;

// Streams the matrix into a fresh store under `dir`. Row i's cells depend
// only on (seed, i), so the builder holds one shard of heap at a time.
ShardedSparseIntervalMatrix BuildStore(const std::string& dir, uint64_t seed) {
  ivmf::BackingPolicy policy = ivmf::BackingPolicy::Mmap(dir);
  policy.budget_bytes = kBudgetBytes;  // drop shard residency after passes
  ShardedSparseIntervalMatrix::Builder builder(kUsers, kItems, kShardRows,
                                               policy);
  for (size_t i = 0; i < kUsers; ++i) {
    ivmf::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    for (size_t j = 0; j < kItems; ++j) {
      if (rng.Uniform() >= kFill) continue;
      const double rating = rng.Uniform(1.0, 5.0);
      const double delta = 0.25 * rng.Uniform();
      builder.Append(i, j, ivmf::Interval(std::max(0.0, rating - delta),
                                          rating + delta));
    }
  }
  return builder.Finish();
}

// Per-decomposition resource deltas of the store layer.
struct StoreCost {
  double minor_faults = 0.0;
  double major_faults = 0.0;
  double residency_drops = 0.0;
  double block_calls = 0.0;
  double block_nnz = 0.0;
};

StoreCost MeasureGramDecomposition(const ShardedSparseIntervalMatrix& m,
                                   Decomposition* out) {
  ivmf::obs::MetricsRegistry& registry = ivmf::obs::MetricsRegistry::Global();
  const ivmf::obs::MetricsSnapshot before = registry.Snapshot();
  const PageFaults faults_before = ReadPageFaults();
  *out = DecomposeGram(kGramStrategy, m, kRank);
  const PageFaults faults_after = ReadPageFaults();
  const ivmf::obs::MetricsSnapshot after = registry.Snapshot();
  StoreCost cost;
  cost.minor_faults =
      static_cast<double>(faults_after.minor - faults_before.minor);
  cost.major_faults =
      static_cast<double>(faults_after.major - faults_before.major);
  cost.residency_drops = static_cast<double>(
      CounterDelta(before, after, "sparse.shard.residency.drops"));
  cost.block_calls = static_cast<double>(
      CounterDelta(before, after, "sparse.sharded.matvec.calls"));
  cost.block_nnz = static_cast<double>(
      CounterDelta(before, after, "sparse.sharded.matvec.nnz"));
  return cost;
}

}  // namespace

void RunOutOfCore(const Args& args, Report& report) {
  const std::string dir =
      args.work_dir + "/store_" + std::to_string(::getpid());

  // Set-up: the store build, repeated for a steady median.
  std::vector<Cost> setup;
  ShardedSparseIntervalMatrix m;
  for (int i = 0; i < kSetups; ++i) {
    m = ShardedSparseIntervalMatrix();
    ivmf::RemoveStoreDir(dir);
    const CostTimer timer;
    m = BuildStore(dir, args.seed);
    setup.push_back(timer.Elapsed());
  }
  const size_t store_bytes = ivmf::MappedBytesTotal();
  report.Note(Format("outofcore: %zu x %zu, %zu nnz in %zu shards, mmap "
                     "store %.1f MiB = %.1fx the %zu MiB budget, backend %s",
                     m.rows(), m.cols(), m.nnz(), m.num_shards(),
                     static_cast<double>(store_bytes) / (1 << 20),
                     static_cast<double>(store_bytes) / kBudgetBytes,
                     kBudgetBytes >> 20,
                     ivmf::spk::BackendName(m.resolved_kernel())));

  const double untraced_gram_cpu_s =
      args.trace ? BeginTracedRun(kGramStrategy, m, kRank) : 0.0;

  // Gram-route phase: the budgeted out-of-core path.
  ivmf::obs::MetricsRegistry& registry = ivmf::obs::MetricsRegistry::Global();
  const ivmf::obs::MetricsSnapshot before = registry.Snapshot();
  std::vector<Decomposition> gram;
  std::vector<StoreCost> costs;
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < kGramShare * args.seconds ||
         gram.size() < kMinReps) {
    gram.emplace_back();
    costs.push_back(MeasureGramDecomposition(m, &gram.back()));
  }
  const ivmf::obs::MetricsSnapshot after = registry.Snapshot();
  using Part = ivmf::ShardedEndpointMap::Part;
  const ReferenceSpectrum gram_ref =
      CertifyGram(ivmf::ShardedGramOperator(m, Endpoint::kLower),
                  ivmf::ShardedGramOperator(m, Endpoint::kUpper), kRank);
  for (const Decomposition& d : gram) CheckGram(d, gram_ref, "ISVD3", report);

  // Peak RSS covers set-up, the Gram-route phase and its reference, and
  // must stay within the budget the store was built for. It is read before
  // the SVD phase: the Golub-Kahan bases hold two vectors of the 44k rows
  // per Krylov step, which no budget on the store bounds.
  const double peak_rss = PeakRssMib();
  report.Op(peak_rss * (1 << 20) < static_cast<double>(kBudgetBytes),
            Format("peak RSS %.1f MiB exceeds the %zu MiB budget", peak_rss,
                   kBudgetBytes >> 20));

  // SVD-route phase on the same store.
  std::vector<Decomposition> svd;
  start = Clock::now();
  while (SecondsSince(start) < (1.0 - kGramShare) * args.seconds ||
         svd.size() < kMinReps) {
    svd.push_back(DecomposeSvd(m, kRank));
  }
  const ReferenceSpectrum svd_ref =
      CertifySvd(ivmf::ShardedEndpointMap(m, Part::kLower),
                 ivmf::ShardedEndpointMap(m, Part::kUpper), kRank);
  ivmf::IsvdOptions ref_options = DecomposeOptions();
  ref_options.lanczos.seed = kReferenceSeed;
  const Decomposition svd_ref_result =
      DecomposeSvd(m, kRank, ref_options);
  for (const Decomposition& d : svd) {
    CheckCore(d, svd_ref_result, svd_ref, "ISVD1", report);
  }

  report.Costs("setup_s", "setup_wall_s", setup);
  report.EndToEnd("peak_rss_mib", peak_rss, "MiB", 1);
  report.Costs("decompose_svd_cpu_s", "decompose_svd_s", CostsOf(svd));
  report.Costs("decompose_gram_cpu_s", "decompose_gram_s", CostsOf(gram));
  report.Note(Format("checks: %zu leading Gram and %zu leading SVD values "
                     "certified; peak RSS through the Gram phase %.1f MiB "
                     "against the %zu MiB budget",
                     gram_ref.resolvable, svd_ref.resolvable, peak_rss,
                     kBudgetBytes >> 20));

  if (args.trace) {
    ReportTraceOverhead(gram, untraced_gram_cpu_s, report);
    const auto median_of = [&](double StoreCost::*field) {
      std::vector<double> values;
      for (const StoreCost& c : costs) values.push_back(c.*field);
      return Median(values);
    };
    report.Layer("store.minor_faults", median_of(&StoreCost::minor_faults),
                 "count", costs.size());
    report.Layer("store.major_faults", median_of(&StoreCost::major_faults),
                 "count", costs.size());
    report.Layer("store.residency_drops",
                 median_of(&StoreCost::residency_drops), "count", costs.size());
    report.Layer("block.matvec_calls", median_of(&StoreCost::block_calls),
                 "count", costs.size());
    report.Layer("block.matvec_nnz", median_of(&StoreCost::block_nnz), "count",
                 costs.size());
    std::vector<double> build_s;
    for (const Cost& c : setup) build_s.push_back(c.wall_s);
    report.Layer("store.build_s", Median(build_s), "s", build_s.size());
    ReportPool(before, after, report);
    ReportStages(MedianStages(gram), "isvd", gram.size(), report);
    ReportStages(MedianStages(svd), "isvd1", svd.size(), report);
    ProbeLanczos(ivmf::ShardedGramOperator(m, Endpoint::kUpper),
                 ivmf::ShardedEndpointMap(m, Part::kUpper), kRank, report);
    {
      ivmf::obs::TraceSpan span("bench.block_kernels");
      constexpr int kReps = 11;
      std::vector<double> x(m.cols(), 0.5), y;
      report.Layer("block.gram_apply_us",
                   1e6 * MedianSeconds(kReps, [&] {
                     m.GramMultiply(Endpoint::kUpper, x, y);
                   }),
                   "us", kReps);
    }
    // The triad's arrays are far over the budget, so it runs after the
    // RSS reading.
    ReportMachine(report);
  }

  m = ShardedSparseIntervalMatrix();
  ivmf::RemoveStoreDir(dir);
}

}  // namespace perfbench
