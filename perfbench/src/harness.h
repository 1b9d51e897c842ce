// Measurement harness shared by the workloads: clocks, sample statistics,
// process resource readings, the triad bandwidth probe, and the Report that
// collects checks and metrics and prints the result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return Seconds(Clock::now() - t0);
}

// Process CPU time, user + system, summed over all threads.
double ProcessCpuSeconds();

// Host speed. Co-tenants of the shared host slowed every CPU time measured
// here by one common factor, up to 2x within an hour, single-threaded
// generation and parallel memory-bound decompositions alike, which no
// number of repetitions averages away. So each timed interval is preceded
// by one slice of fixed compute work on every hardware thread, and the
// gated CPU times are scaled by the run's median slice:
//   reference seconds = cpu_s * kReferenceSliceS / median slice CPU seconds.
// The slice runs on threads of its own, not the library's pool, so no
// change to the program moves it.
class HostSpeed {
 public:
  static HostSpeed& Global();
  // Runs one slice and records its CPU seconds. Not thread-safe: timed
  // intervals start on the workload's main thread.
  void Sample();
  double median_s() const;
  size_t samples() const { return slices_.size(); }
  double ToReference(double cpu_s) const;

 private:
  std::vector<double> slices_;
};
// CPU seconds of a slice on the reference host, the 4-vCPU Xeon VM of
// perfbench/README.md, when quiet: slices of 0.053-0.065 s came with raw
// CPU times 1.4-1.6x the quiet ones. Only the scale of the metrics
// depends on it, not their run-to-run comparison.
constexpr double kReferenceSliceS = 0.04;

// Wall and process CPU time of one interval. On a shared host the wall time
// of a parallel region swings with how the hypervisor schedules the vCPUs;
// the CPU time it costs is steadier, so the gated metrics use it, scaled to
// the reference host. Starting the timer samples the host speed first.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
class CostTimer {
 public:
  CostTimer() {
    HostSpeed::Global().Sample();
    wall0_ = Clock::now();
    cpu0_ = ProcessCpuSeconds();
  }
  Cost Elapsed() const {
    return {SecondsSince(wall0_), ProcessCpuSeconds() - cpu0_};
  }

 private:
  Clock::time_point wall0_;
  double cpu0_ = 0.0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout: the out-of-core store and the
  // Chrome trace land here.
  std::string work_dir;
};

// Nearest-rank percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}
// Index of the sample at the median rank (the sample Median returns).
size_t MedianIndex(const std::vector<double>& samples);

// Process resource readings (getrusage).
double PeakRssMib();
struct PageFaults {
  uint64_t minor = 0;
  uint64_t major = 0;
};
PageFaults ReadPageFaults();

struct HostInfo {
  size_t nproc = 0;
  size_t l3_bytes = 0;
};
HostInfo ReadHostInfo();

// STREAM-style triad a = b + s * c over three arrays of `array_bytes` each,
// run on every hardware thread. Returns the best of `reps` passes in GB/s,
// counting 3 * array_bytes moved per pass (two reads, one write; the
// write-allocate read is not counted).
double TriadGbps(size_t array_bytes, int reps);

// Collects one run's checks and metrics. Every operation the workload
// attempts is recorded with Op(); a failed operation counts toward the
// error rate and makes the run incorrect.
class Report {
 public:
  // One attempted operation; `ok` false counts it failed and prints `what`.
  bool Op(bool ok, const std::string& what);
  // `attempted` operations of which `failed` failed, counted elsewhere.
  void Ops(size_t attempted, size_t failed, const std::string& what);

  // Metrics. `samples` is the count behind a timing (1 for a single value).
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                size_t samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t samples);
  // The median CPU time of `costs`, scaled to the reference host, as
  // end-to-end metric `cpu_name`, and their median wall time as per-layer
  // metric `wall_name`, with a note giving both raw ranges.
  void Costs(const std::string& cpu_name, const std::string& wall_name,
             const std::vector<Cost>& costs);
  // A human-readable line printed before the metrics.
  void Note(const std::string& line);

  bool HasLayer(const std::string& name) const;

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  // Prints notes, every metric with unit and sample count, and as the last
  // line the JSON result: end-to-end metrics when !trace, per-layer
  // metrics when trace.
  void Print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  void Failed(const std::string& line);
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// printf into a std::string.
std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
