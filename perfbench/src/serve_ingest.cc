// serve_ingest: a ServingEngine running ISVD2 at rank 10 over 100k users x
// 5k items at a mean of 8 ratings per user (~0.8M nonzeros, short rows), its
// background writer refreshing while two loads run at once:
//  - ingest, an open loop on one thread: 50 batches/s of 20 cells, zipfian
//    users (theta 0.99), uniform items;
//  - reads, an open loop on 2 client threads at 1000 requests/s each, well
//    below saturation: 90% `score` (one Acquire, then Predict for 100
//    candidate items of one user), 10% `rank` (TopK(user, 10) of unseen
//    items).
// Ingest and reads follow their own schedules, so a faster read path does
// not submit more writes. Before the live phase, the timed phase runs cold
// ISVD1 and ISVD2 decompositions of the base matrix (what an engine rebuild
// pays), in the short-row SELL regime. The streaming refresh, engine and
// snapshot layers do the work of the live phase.
#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "data/ratings.h"
#include "layers.h"
#include "serve/serving_engine.h"
#include "serve/workload.h"
#include "sparse/sparse_gram_operator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ivmf::IntervalTriplet;
using ivmf::ServingEngine;
using ivmf::ServingSnapshot;
using ivmf::SparseIntervalMatrix;
using Endpoint = SparseIntervalMatrix::Endpoint;

constexpr size_t kUsers = 100000;
constexpr size_t kItems = 5000;
constexpr double kRatingsPerUser = 8.0;
constexpr double kAlpha = 0.3;
constexpr size_t kRank = 10;
constexpr int kStrategy = 2;
constexpr int kSetups = 3;
// ISVD1 of the 100k-row base takes seconds (Golub-Kahan bases of 100k-long
// vectors), so the cold phase runs a fixed few of them and fills the rest
// of its share with ISVD2.
constexpr size_t kSvdReps = 3;
constexpr size_t kMinGramReps = 20;
// Share of the timed phase spent on cold decompositions; the rest is live.
constexpr double kColdShare = 0.3;
constexpr double kBatchesPerSecond = 50.0;
constexpr size_t kCellsPerBatch = 20;
constexpr double kZipfTheta = 0.99;
constexpr int kReaders = 2;
constexpr double kReadsPerSecond = 1000.0;  // per reader thread
constexpr double kScoreShare = 0.9;
constexpr size_t kScoreItems = 100;
constexpr size_t kTopK = 10;
// Every refresh allocates multi-megabyte arrays (factors, the merged CSR
// snapshot and its sidecars). Under glibc's default dynamic mmap threshold
// they are recycled inside the per-thread arenas, whose retained free
// memory varied by run timing alone: peak RSS 410-557 MiB over ten seeds,
// against 236-257 MiB over ten seeds with the threshold fixed. A fixed threshold maps such
// arrays and unmaps them on free, so peak RSS follows the memory the engine
// keeps live.
constexpr int kMmapThresholdBytes = 4 << 20;

SparseIntervalMatrix MakeBase(uint64_t seed) {
  ivmf::RatingsConfig config;
  config.num_users = kUsers;
  config.num_items = kItems;
  config.fill = kRatingsPerUser / static_cast<double>(kItems);
  config.seed = seed;
  return ivmf::SparseCfIntervalMatrix(ivmf::GenerateSparseRatings(config),
                                      kAlpha);
}

// The ingest stream, generated before the run. Cell 0 of batch k is its
// sentinel: a cell no other batch writes, holding a value unique to k, so
// the first snapshot that observes it is the first that contains batch k.
std::vector<std::vector<IntervalTriplet>> MakeBatches(size_t count,
                                                      uint64_t seed) {
  ivmf::Rng rng(seed ^ 0xB47C4E5ULL);
  ivmf::ZipfianGenerator zipf(kUsers, kZipfTheta, seed ^ 0x21FULL);
  std::set<std::pair<size_t, size_t>> sentinels;
  std::vector<std::vector<IntervalTriplet>> batches(count);
  for (size_t k = 0; k < count; ++k) {
    std::pair<size_t, size_t> cell;
    do {
      cell = {rng.UniformIndex(kUsers), rng.UniformIndex(kItems)};
    } while (!sentinels.insert(cell).second);
    batches[k].push_back(
        {cell.first, cell.second, ivmf::Interval(2.5, 3.0 + 1e-6 * (k + 1))});
  }
  for (std::vector<IntervalTriplet>& batch : batches) {
    while (batch.size() < kCellsPerBatch) {
      const size_t user = zipf.Next();
      const size_t item = rng.UniformIndex(kItems);
      if (sentinels.count({user, item}) > 0) continue;
      const double rating = 1.0 + static_cast<double>(rng.UniformIndex(5));
      const double delta = 0.3 * rng.Uniform();
      batch.push_back({user, item, ivmf::Interval(rating - delta,
                                                  rating + delta)});
    }
  }
  return batches;
}

// Follows submitted batches until a published snapshot observes their
// sentinel. Published() runs on the publishing thread (on_publish).
class Visibility {
 public:
  void Submitted(Clock::time_point due, const IntervalTriplet& sentinel) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back({due, sentinel});
  }
  // The traced writer marks when the Step that will publish next began.
  void BeginStep(Clock::time_point start) {
    std::lock_guard<std::mutex> lock(mu_);
    step_start_ = start;
  }
  void Published(const ServingSnapshot& snapshot) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    // Batches apply in submission order, so visibility is a prefix.
    while (!pending_.empty()) {
      const Pending& front = pending_.front();
      const ivmf::Interval seen =
          snapshot.Observed(front.sentinel.row, front.sentinel.col);
      if (seen.hi != front.sentinel.value.hi) break;
      freshness_s_.push_back(Seconds(now - front.due));
      if (step_start_) queue_wait_s_.push_back(Seconds(*step_start_ - front.due));
      pending_.pop_front();
    }
  }
  size_t pending() {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }
  std::vector<double> freshness_s() {
    std::lock_guard<std::mutex> lock(mu_);
    return freshness_s_;
  }
  std::vector<double> queue_wait_s() {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_wait_s_;
  }

 private:
  struct Pending {
    Clock::time_point due;
    IntervalTriplet sentinel;
  };
  std::mutex mu_;
  std::deque<Pending> pending_;
  std::optional<Clock::time_point> step_start_;
  std::vector<double> freshness_s_;
  std::vector<double> queue_wait_s_;
};

struct ReaderStats {
  std::vector<double> score_us;
  std::vector<double> rank_us;
  std::vector<double> late_us;
  size_t ops = 0;
  size_t failed = 0;
};

Clock::time_point Due(Clock::time_point t0, size_t index, double rate) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(index / rate));
}

// One open-loop read client; each request is timed from its due time.
void ReadLoop(const ServingEngine& engine, uint64_t seed, Clock::time_point t0,
              Clock::time_point end, ReaderStats* stats) {
  prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not 50 us later
  ivmf::Rng rng(seed);
  uint64_t last_epoch = 0;
  for (size_t j = 0;; ++j) {
    const Clock::time_point due = Due(t0, j, kReadsPerSecond);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    stats->late_us.push_back(1e6 * SecondsSince(due));
    const size_t user = rng.UniformIndex(kUsers);
    bool ok = true;
    std::shared_ptr<const ServingSnapshot> snapshot;
    if (rng.Uniform() < kScoreShare) {
      ivmf::obs::TraceSpan span("bench.score");
      snapshot = engine.Acquire();
      const uint64_t epoch = snapshot->epoch();
      const size_t first = rng.UniformIndex(kItems);
      double sum = 0.0;
      for (size_t t = 0; t < kScoreItems; ++t) {
        sum += snapshot->Predict(user, (first + 47 * t) % kItems).Mid();
      }
      stats->score_us.push_back(1e6 * SecondsSince(due));
      ok = std::isfinite(sum) && snapshot->epoch() == epoch;
    } else {
      ivmf::obs::TraceSpan span("bench.rank");
      snapshot = engine.Acquire();
      const size_t found =
          snapshot->TopK(user, kTopK, /*exclude_observed=*/true).size();
      stats->rank_us.push_back(1e6 * SecondsSince(due));
      ok = found == kTopK;
    }
    ok = ok && snapshot->epoch() >= last_epoch;
    last_epoch = snapshot->epoch();
    ++stats->ops;
    if (!ok) ++stats->failed;
  }
}

// The traced run's writer: drives ServingEngine::Step() from a benchmark
// thread so the start, publish and end of every step are timed.
class StepWriter {
 public:
  StepWriter(ServingEngine& engine, Visibility& visibility)
      : engine_(engine), visibility_(visibility), thread_([this] { Loop(); }) {}
  ~StepWriter() { Stop(); }
  StepWriter(const StepWriter&) = delete;
  StepWriter& operator=(const StepWriter&) = delete;

  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      work_ = true;
    }
    cv_.notify_one();
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  const std::vector<double>& step_s() const { return step_s_; }
  const std::vector<double>& cells() const { return cells_; }

 private:
  void Loop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return work_ || stop_; });
        if (!work_) break;
        work_ = false;
      }
      RunStep();
    }
    while (RunStep() > 0) {
    }
  }
  size_t RunStep() {
    const Clock::time_point start = Clock::now();
    visibility_.BeginStep(start);
    ivmf::obs::TraceSpan span("bench.step");
    const size_t cells = engine_.Step();
    if (cells > 0) {
      step_s_.push_back(SecondsSince(start));
      cells_.push_back(static_cast<double>(cells));
    }
    return cells;
  }

  ServingEngine& engine_;
  Visibility& visibility_;
  std::mutex mu_;  // guards work_, stop_
  std::condition_variable cv_;
  bool work_ = false;
  bool stop_ = false;
  std::vector<double> step_s_;  // writer thread only until joined
  std::vector<double> cells_;
  std::thread thread_;
};

struct LiveResult {
  // From the start of the schedules until the writer drained.
  double writer_window_s = 0.0;
  size_t batches = 0;
  std::vector<double> ingest_late_s;
  ReaderStats reads;
  std::vector<double> step_s;
  std::vector<double> step_cells;
};

// The live phase: ingest and reads on their own open-loop schedules while
// the writer refreshes and publishes.
LiveResult RunLive(ServingEngine& engine, Visibility& visibility,
                   std::vector<std::vector<IntervalTriplet>> batches,
                   double seconds, bool traced_writer, uint64_t seed) {
  LiveResult live;
  live.batches = batches.size();
  std::unique_ptr<StepWriter> writer;
  if (traced_writer) {
    writer = std::make_unique<StepWriter>(engine, visibility);
  } else {
    engine.StartWriter();
  }
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  ReaderStats reader_stats[kReaders];
  {
    std::vector<std::thread> readers;
    // Joins the readers on every path out of this block.
    struct JoinAll {
      std::vector<std::thread>& threads;
      ~JoinAll() {
        for (std::thread& t : threads) t.join();
      }
    } join_all{readers};
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back(ReadLoop, std::cref(engine), seed * 31 + r, t0, end,
                           &reader_stats[r]);
    }
    prctl(PR_SET_TIMERSLACK, 1UL);
    for (size_t k = 0; k < batches.size(); ++k) {
      const Clock::time_point due = Due(t0, k, kBatchesPerSecond);
      std::this_thread::sleep_until(due);
      live.ingest_late_s.push_back(SecondsSince(due));
      ivmf::obs::TraceSpan span("bench.submit");
      visibility.Submitted(due, batches[k].front());
      engine.Submit(std::move(batches[k]));
      if (writer) writer->Notify();
    }
  }
  if (writer) {
    writer->Stop();
    live.step_s = writer->step_s();
    live.step_cells = writer->cells();
  } else {
    engine.StopWriter();  // flushes what is still queued
  }
  live.writer_window_s = SecondsSince(t0);
  for (const ReaderStats& s : reader_stats) {
    live.reads.score_us.insert(live.reads.score_us.end(), s.score_us.begin(),
                               s.score_us.end());
    live.reads.rank_us.insert(live.reads.rank_us.end(), s.rank_us.begin(),
                              s.rank_us.end());
    live.reads.late_us.insert(live.reads.late_us.end(), s.late_us.begin(),
                              s.late_us.end());
    live.reads.ops += s.ops;
    live.reads.failed += s.failed;
  }
  return live;
}

// A snapshot's core as a Decomposition, for CheckCore.
Decomposition CoreOf(const ServingSnapshot& snapshot) {
  Decomposition d;
  d.sigma = snapshot.result().sigma;
  return d;
}

}  // namespace

void RunServeIngest(const Args& args, Report& report) {
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  const double cold_seconds = kColdShare * args.seconds;
  const double live_seconds = args.seconds - cold_seconds;
  Visibility visibility;
  ivmf::ServingEngineOptions engine_options;
  engine_options.on_publish =
      [&visibility](const std::shared_ptr<const ServingSnapshot>& snapshot) {
        visibility.Published(*snapshot);
      };

  // Set-up: generation, engine cold start (the first decomposition and
  // epoch 1) and a warm-up read, repeated for a steady median.
  std::vector<Cost> setup;
  SparseIntervalMatrix base;
  std::unique_ptr<ServingEngine> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    base = SparseIntervalMatrix();
    const CostTimer timer;
    base = MakeBase(args.seed);
    engine = std::make_unique<ServingEngine>(kStrategy, kRank, base,
                                             engine_options);
    (void)engine->Acquire()->TopK(0, kTopK, true);
    setup.push_back(timer.Elapsed());
  }
  std::vector<std::vector<IntervalTriplet>> batches = MakeBatches(
      static_cast<size_t>(live_seconds * kBatchesPerSecond), args.seed);
  report.Note(Format("serve_ingest: %zu x %zu, %zu nnz (%.1f per row), in "
                     "memory, backend %s; ingest %.0f batches/s x %zu cells, "
                     "reads %d x %.0f/s (%.0f%% score of %zu items, rest "
                     "top-%zu)",
                     base.rows(), base.cols(), base.nnz(),
                     static_cast<double>(base.nnz()) / base.rows(),
                     ivmf::spk::BackendName(base.ResolvedKernel()),
                     kBatchesPerSecond, kCellsPerBatch, kReaders,
                     kReadsPerSecond, 100 * kScoreShare, kScoreItems, kTopK));

  const double untraced_gram_cpu_s =
      args.trace ? BeginTracedRun(kStrategy, base, kRank) : 0.0;

  // Cold phase: what rebuilding the engine's factors costs.
  ivmf::obs::MetricsRegistry& registry = ivmf::obs::MetricsRegistry::Global();
  std::vector<Decomposition> svd, gram;
  uint64_t calls_per_gram = 0, nnz_per_gram = 0;
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < cold_seconds || svd.size() < kSvdReps ||
         gram.size() < kMinGramReps) {
    if (svd.size() < kSvdReps) svd.push_back(DecomposeSvd(base, kRank));
    const ivmf::obs::MetricsSnapshot pre = registry.Snapshot();
    gram.push_back(DecomposeGram(kStrategy, base, kRank));
    if (gram.size() == 1) {
      const ivmf::obs::MetricsSnapshot post = registry.Snapshot();
      calls_per_gram = CounterDelta(pre, post, "sparse.matvec.calls");
      nnz_per_gram = CounterDelta(pre, post, "sparse.matvec.nnz");
    }
  }

  // Live phase.
  const double cold_peak_rss = PeakRssMib();
  const ivmf::obs::MetricsSnapshot live_before = registry.Snapshot();
  const LiveResult live = RunLive(*engine, visibility, std::move(batches),
                                  live_seconds, args.trace, args.seed);
  const ivmf::obs::MetricsSnapshot live_after = registry.Snapshot();
  const double peak_rss = PeakRssMib();
  report.Note(Format("peak RSS: %.1f MiB through the cold phase, %.1f MiB "
                     "through the live phase",
                     cold_peak_rss, peak_rss));

  report.Costs("setup_s", "setup_wall_s", setup);
  report.EndToEnd("peak_rss_mib", peak_rss, "MiB", 1);
  report.Costs("decompose_svd_cpu_s", "decompose_svd_s", CostsOf(svd));
  report.Costs("decompose_gram_cpu_s", "decompose_gram_s", CostsOf(gram));

  // Live-phase checks: every batch visible once the writer drained, and
  // every read consistent.
  const std::vector<double> freshness = visibility.freshness_s();
  report.Ops(live.batches, visibility.pending(),
             "ingest batches not visible after the writer drained");
  report.Ops(live.reads.ops, live.reads.failed,
             "reads (epoch order per client, TopK size, one-epoch score page)");

  const auto add_live = [&](const std::string& name, double value,
                            const char* unit, size_t samples) {
    if (args.trace) {
      report.Layer(name, value, unit, samples);
    } else {
      report.Note(Format("live: %-24s %12.6g %-3s n=%zu", name.c_str(), value,
                         unit, samples));
    }
  };
  add_live("freshness_p50_s", Percentile(freshness, 50), "s", freshness.size());
  add_live("freshness_p99_s", Percentile(freshness, 99), "s", freshness.size());
  add_live("rank_p50_us", Percentile(live.reads.rank_us, 50), "us",
           live.reads.rank_us.size());
  add_live("rank_p99_us", Percentile(live.reads.rank_us, 99), "us",
           live.reads.rank_us.size());
  add_live("score_p50_us", Percentile(live.reads.score_us, 50), "us",
           live.reads.score_us.size());
  add_live("score_p99_us", Percentile(live.reads.score_us, 99), "us",
           live.reads.score_us.size());
  add_live("load.ingest_late_max_s", Percentile(live.ingest_late_s, 100), "s",
           live.ingest_late_s.size());
  add_live("load.read_late_p99_us", Percentile(live.reads.late_us, 99), "us",
           live.reads.late_us.size());

  if (args.trace) {
    ReportTraceOverhead(gram, untraced_gram_cpu_s, report);
    report.Layer("sparse.matvec_calls", static_cast<double>(calls_per_gram),
                 "count", 1);
    report.Layer("sparse.matvec_nnz", static_cast<double>(nnz_per_gram),
                 "count", 1);
    ReportStages(MedianStages(gram), "isvd", gram.size(), report);
    ReportStages(MedianStages(svd), "isvd1", svd.size(), report);

    // Engine: queue wait (due time to the start of the draining Step) plus
    // the step up to its publish make up freshness.
    const std::vector<double> queue_wait = visibility.queue_wait_s();
    double busy_s = 0.0;
    for (const double s : live.step_s) busy_s += s;
    report.Layer("engine.queue_wait_p50_s", Percentile(queue_wait, 50), "s",
                 queue_wait.size());
    report.Layer("engine.queue_wait_p99_s", Percentile(queue_wait, 99), "s",
                 queue_wait.size());
    report.Layer("engine.step_p50_s", Percentile(live.step_s, 50), "s",
                 live.step_s.size());
    report.Layer("engine.step_p99_s", Percentile(live.step_s, 99), "s",
                 live.step_s.size());
    report.Layer("engine.busy_ratio", busy_s / live.writer_window_s, "ratio",
                 live.step_s.size());
    report.Layer("engine.batch_cells_p50", Percentile(live.step_cells, 50),
                 "count", live.step_cells.size());
    report.Note(Format("reconcile: freshness p50 %.6f s vs queue wait p50 "
                       "%.6f s + step p50 %.6f s = %.6f s",
                       Percentile(freshness, 50), Percentile(queue_wait, 50),
                       Percentile(live.step_s, 50),
                       Percentile(queue_wait, 50) + Percentile(live.step_s, 50)));

    const auto histogram_p50 = [&](const char* key) {
      const auto it = live_after.histograms.find(key);
      return it == live_after.histograms.end() ? 0.0 : it->second.p50;
    };
    const double warm = static_cast<double>(CounterDelta(
        live_before, live_after, "streaming.refresh.count{mode=warm}"));
    const double cold = static_cast<double>(CounterDelta(
        live_before, live_after, "streaming.refresh.count{mode=cold}"));
    const double iterations = static_cast<double>(
        CounterDelta(live_before, live_after, "lanczos.eig.iterations") +
        CounterDelta(live_before, live_after, "lanczos.svd.iterations"));
    const size_t refreshes = static_cast<size_t>(warm + cold);
    report.Layer("streaming.snapshot_p50_s",
                 histogram_p50("streaming.refresh.snapshot.seconds"), "s",
                 refreshes);
    report.Layer("streaming.decompose_p50_s",
                 histogram_p50("streaming.refresh.decompose.seconds"), "s",
                 refreshes);
    report.Layer("streaming.warm_ratio",
                 refreshes > 0 ? warm / (warm + cold) : 0.0, "ratio",
                 refreshes);
    report.Layer("streaming.iterations_per_refresh",
                 refreshes > 0 ? iterations / (warm + cold) : 0.0, "count",
                 refreshes);
    ReportPool(live_before, live_after, report);

    // Snapshot reads with no writer running.
    {
      ivmf::obs::TraceSpan span("bench.snapshot_reads");
      constexpr int kAcquires = 100000;
      constexpr int kPages = 2000;
      Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kAcquires; ++i) (void)engine->Acquire();
      report.Layer("serve.acquire_ns", 1e9 * SecondsSince(t0) / kAcquires,
                   "ns", kAcquires);
      const std::shared_ptr<const ServingSnapshot> snapshot = engine->Acquire();
      double sum = 0.0;
      t0 = Clock::now();
      for (int p = 0; p < kPages; ++p) {
        for (size_t t = 0; t < kScoreItems; ++t) {
          sum += snapshot->Predict(p * 37 % kUsers, (p + 47 * t) % kItems).Mid();
        }
      }
      report.Layer("serve.predict_ns",
                   1e9 * SecondsSince(t0) / (kPages * kScoreItems), "ns",
                   kPages * kScoreItems);
      report.Op(std::isfinite(sum), "idle predictions not finite");
      std::vector<double> topk_us;
      for (int p = 0; p < kPages; ++p) {
        t0 = Clock::now();
        const size_t found = snapshot->TopK(p * 37 % kUsers, kTopK, true).size();
        topk_us.push_back(1e6 * SecondsSince(t0));
        if (found != kTopK) report.Op(false, "idle TopK returned too few items");
      }
      report.Layer("serve.topk_idle_us", Median(topk_us), "us", topk_us.size());
    }
    const SparseIntervalMatrix base_t = base.Transpose();
    ProbeLanczos(ivmf::SparseGramOperator(base, base_t, Endpoint::kUpper),
                 ivmf::SparseEndpointMap(base, base_t,
                                         ivmf::SparseEndpointMap::Part::kUpper),
                 kRank, report);
    ProbeKernels(base, ReportMachine(report), report);
  }

  // Decomposition checks on the scalar-kernel route: the cold decompositions
  // of the base matrix, and the last published epoch (a warm refresh)
  // against a cold decomposition of its own matrix.
  using Part = ivmf::SparseEndpointMap::Part;
  base.set_kernel(ivmf::spk::Backend::kScalar);
  const SparseIntervalMatrix base_t = base.Transpose();
  const ReferenceSpectrum gram_ref =
      CertifyGram(ivmf::SparseGramOperator(base, base_t, Endpoint::kLower),
                  ivmf::SparseGramOperator(base, base_t, Endpoint::kUpper),
                  kRank);
  const ReferenceSpectrum svd_ref =
      CertifySvd(ivmf::SparseEndpointMap(base, base_t, Part::kLower),
                 ivmf::SparseEndpointMap(base, base_t, Part::kUpper), kRank);
  ivmf::IsvdOptions ref_options = DecomposeOptions();
  ref_options.lanczos.seed = kReferenceSeed;
  const Decomposition svd_ref_result = DecomposeSvd(base, kRank, ref_options);
  for (const Decomposition& d : gram) CheckGram(d, gram_ref, "ISVD2", report);
  for (const Decomposition& d : svd) {
    CheckCore(d, svd_ref_result, svd_ref, "ISVD1", report);
  }

  const std::shared_ptr<const ServingSnapshot> last = engine->Acquire();
  SparseIntervalMatrix final_matrix = last->matrix();
  final_matrix.set_kernel(ivmf::spk::Backend::kScalar);
  const SparseIntervalMatrix final_t = final_matrix.Transpose();
  const ReferenceSpectrum final_ref = CertifyGram(
      ivmf::SparseGramOperator(final_matrix, final_t, Endpoint::kLower),
      ivmf::SparseGramOperator(final_matrix, final_t, Endpoint::kUpper), kRank);
  // The last epoch may come from a warm refresh, which stops early.
  const ReferenceSpectrum warm_ref = ResolvedAtTolerance(
      final_ref, engine_options.streaming.convergence_tol);
  CheckCore(CoreOf(*last), DecomposeGram(kStrategy, final_matrix, kRank),
            warm_ref, "last published epoch", report);
  report.Note(Format("checks: %zu leading Gram and %zu leading SVD values of "
                     "the base certified; last epoch %llu, %zu values "
                     "certified, %zu resolved at the warm refresh tolerance; "
                     "%zu batches, %zu reads",
                     gram_ref.resolvable, svd_ref.resolvable,
                     static_cast<unsigned long long>(last->epoch()),
                     final_ref.resolvable, warm_ref.resolvable, live.batches,
                     live.reads.ops));
}

}  // namespace perfbench
