#include "serve/serving_engine.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ivmf {

namespace {

struct EngineInstruments {
  obs::Gauge& queue_cells;
  obs::Counter& epochs;
  obs::Counter& cells;
  obs::Histogram& batch_cells;
  obs::Histogram& refresh_seconds;

  static EngineInstruments& Get() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static EngineInstruments instruments{
        registry.GetGauge("serving.queue.cells"),
        registry.GetCounter("serving.epochs.published"),
        registry.GetCounter("serving.cells.applied"),
        registry.GetHistogram("serving.batch.cells"),
        registry.GetHistogram("serving.refresh.seconds")};
    return instruments;
  }
};

}  // namespace

ServingEngine::ServingEngine(int strategy, size_t rank,
                             SparseIntervalMatrix base,
                             ServingEngineOptions options)
    : options_(std::move(options)),
      streaming_(strategy, rank, std::move(base), options_.streaming),
      rows_(streaming_.matrix().rows()),
      cols_(streaming_.matrix().cols()) {
  PublishCurrent();  // epoch 1: the construction-time cold decomposition
}

ServingEngine::~ServingEngine() {
  if (writer_running()) StopWriter();
}

void ServingEngine::PublishCurrent() {
  auto snapshot = std::make_shared<const ServingSnapshot>(
      streaming_.refresh_count(), streaming_.result(),
      streaming_.matrix_snapshot(), streaming_.sharded_snapshot());
  registry_.Publish(snapshot);
  epoch_.store(snapshot->epoch(), std::memory_order_release);
  EngineInstruments::Get().epochs.Add(1);
  obs::LogDebug("serve", "published snapshot",
                {{"epoch", snapshot->epoch()}});
  if (options_.on_publish) options_.on_publish(snapshot);
}

size_t ServingEngine::Submit(std::vector<IntervalTriplet> batch) {
  // remove_if keeps the accepted cells in submission order, which
  // last-write-wins depends on.
  const auto rejected =
      std::remove_if(batch.begin(), batch.end(), [&](const IntervalTriplet& t) {
        const TripletDefect defect = ValidateTriplet(t, rows_, cols_);
        if (defect == TripletDefect::kNone) return false;
        obs::MetricsRegistry::Global()
            .GetCounter("serving.rejected_cells",
                        {{"reason", TripletDefectName(defect)}})
            .Add(1);
        return true;
      });
  batch.erase(rejected, batch.end());
  const size_t accepted = batch.size();
  if (accepted == 0) return 0;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_cells_ += batch.size();
    depth = pending_cells_;
    pending_.push_back(std::move(batch));
  }
  EngineInstruments::Get().queue_cells.Set(static_cast<double>(depth));
  cv_.notify_one();
  return accepted;
}

size_t ServingEngine::pending_cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_cells_;
}

std::vector<std::vector<IntervalTriplet>> ServingEngine::Drain() {
  std::vector<std::vector<IntervalTriplet>> drained;
  std::lock_guard<std::mutex> lock(mu_);
  drained.swap(pending_);
  pending_cells_ = 0;
  return drained;
}

size_t ServingEngine::Step() {
  obs::TraceSpan span("serving.step");
  EngineInstruments& instruments = EngineInstruments::Get();
  const std::vector<std::vector<IntervalTriplet>> drained = Drain();
  instruments.queue_cells.Set(0.0);
  size_t cells = 0;
  for (const std::vector<IntervalTriplet>& batch : drained) {
    streaming_.ApplyBatch(batch);
    cells += batch.size();
  }
  if (cells == 0) return 0;  // nothing new: keep the current epoch
  // Coalesced batch: how many submitted cells one refresh absorbed.
  instruments.batch_cells.Record(static_cast<double>(cells));

  {
    obs::ScopedTimer timer(instruments.refresh_seconds);
    streaming_.Refresh();
  }
  PublishCurrent();
  cells_applied_.fetch_add(cells, std::memory_order_relaxed);
  instruments.cells.Add(cells);
  return cells;
}

void ServingEngine::StartWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    IVMF_CHECK_MSG(!running_, "writer thread already running");
    running_ = true;
    stop_ = false;
  }
  writer_ = std::thread([this] { WriterLoop(); });
  obs::LogInfo("serve", "writer thread started", {{"epoch", epoch()}});
}

void ServingEngine::StopWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    IVMF_CHECK_MSG(running_, "no writer thread to stop");
    stop_ = true;
  }
  cv_.notify_one();
  writer_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  Step();  // flush anything submitted during shutdown
  obs::LogInfo("serve", "writer thread stopped",
               {{"epoch", epoch()},
                {"cells_applied", cells_applied()}});
}

bool ServingEngine::writer_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void ServingEngine::WriterLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;  // StopWriter flushes the remainder
    }
    // Drain + refresh + publish outside the lock: submitters never wait on
    // the decomposition.
    Step();
  }
}

}  // namespace ivmf
