#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include "base/parallel.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

size_t MedianIndex(const std::vector<double>& samples) {
  const double median = Median(samples);
  return static_cast<size_t>(
      std::find(samples.begin(), samples.end(), median) - samples.begin());
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

PageFaults ReadPageFaults() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return {static_cast<uint64_t>(usage.ru_minflt),
          static_cast<uint64_t>(usage.ru_majflt)};
}

HostInfo ReadHostInfo() {
  HostInfo info;
  info.nproc = std::thread::hardware_concurrency();
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  info.l3_bytes = l3 > 0 ? static_cast<size_t>(l3) : 0;
  return info;
}

double TriadGbps(size_t array_bytes, int reps) {
  const size_t n = array_bytes / sizeof(double);
  std::vector<double> a(n), b(n), c(n);
  const size_t threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t chunk = (n + threads - 1) / threads;
  const auto for_chunks = [&](auto&& body) {
    ivmf::ParallelFor(0, threads, [&](size_t t) {
      const size_t begin = t * chunk;
      const size_t end = std::min(n, begin + chunk);
      for (size_t i = begin; i < end; ++i) body(i);
    });
  };
  // First touch on the same threads that run the triad.
  for_chunks([&](size_t i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  });
  double best = 0.0;
  const double s = 3.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    for_chunks([&](size_t i) { a[i] = b[i] + s * c[i]; });
    const double seconds = SecondsSince(t0);
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) /
                              seconds / 1e9);
  }
  // Keep the stores observable.
  if (a[n / 2] != 7.0) std::fprintf(stderr, "triad: unexpected value\n");
  return best;
}

namespace {

// One slice: on every hardware thread, passes over an L2-resident array
// mixing a serial integer hash, loads, stores and floating-point adds.
constexpr size_t kSliceDoubles = 32 * 1024;
constexpr int kSlicePasses = 150;

void SliceWork(uint64_t seed, double* out) {
  std::vector<double> a(kSliceDoubles, 1.0);
  uint64_t x = 0x9E3779B97F4A7C15ULL + seed;
  double sum = 0.0;
  for (int pass = 0; pass < kSlicePasses; ++pass) {
    for (double& v : a) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = v * 0.999 + static_cast<double>(x >> 40) * 1e-12;
      sum += v;
    }
  }
  *out = sum;
}

}  // namespace

HostSpeed& HostSpeed::Global() {
  static HostSpeed speed;
  return speed;
}

void HostSpeed::Sample() {
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<double> sums(threads);
  const double cpu0 = ProcessCpuSeconds();
  {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) workers.emplace_back(SliceWork, t, &sums[t]);
    for (std::thread& w : workers) w.join();
  }
  slices_.push_back(ProcessCpuSeconds() - cpu0);
  double total = 0.0;
  for (const double s : sums) total += s;
  // Keeps the work observable.
  if (!std::isfinite(total)) std::fprintf(stderr, "host speed: bad slice\n");
}

double HostSpeed::median_s() const { return Median(slices_); }

double HostSpeed::ToReference(double cpu_s) const {
  return slices_.empty() ? cpu_s : cpu_s * kReferenceSliceS / median_s();
}

bool Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    Failed("FAILED: " + what);
  }
  return ok;
}

void Report::Ops(size_t attempted, size_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    Failed(Format("FAILED: %zu of %zu %s", failed, attempted, what.c_str()));
  }
}

void Report::Failed(const std::string& line) {
  notes_.push_back(line);
  // Also on stderr, where it shows when only the result line is kept.
  std::fprintf(stderr, "%s\n", line.c_str());
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, size_t samples) {
  end_to_end_.push_back({name, value, unit, samples});
}

void Report::Costs(const std::string& cpu_name, const std::string& wall_name,
                   const std::vector<Cost>& costs) {
  std::vector<double> cpu, wall;
  for (const Cost& c : costs) {
    cpu.push_back(c.cpu_s);
    wall.push_back(c.wall_s);
  }
  EndToEnd(cpu_name, HostSpeed::Global().ToReference(Median(cpu)), "s",
           costs.size());
  Layer(wall_name, Median(wall), "s", costs.size());
  notes_.push_back(Format("%s: n=%zu cpu min %.6g median %.6g max %.6g s; "
                          "wall min %.6g median %.6g max %.6g s",
                          cpu_name.c_str(), costs.size(), Percentile(cpu, 0),
                          Median(cpu), Percentile(cpu, 100), Percentile(wall, 0),
                          Median(wall), Percentile(wall, 100)));
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, size_t samples) {
  layers_.push_back({name, value, unit, samples});
}

bool Report::HasLayer(const std::string& name) const {
  for (const Metric& m : layers_) {
    if (m.name == name) return true;
  }
  return false;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print(bool trace) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  const auto print_table = [](const char* title,
                              const std::vector<Metric>& metrics) {
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
      std::printf("  %-32s %16.6g %-8s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  };
  print_table("end-to-end:", end_to_end_);
  if (trace) print_table("per-layer:", layers_);
  std::printf("error_rate %.6g (%zu failed of %zu attempted)\n",
              attempted_ == 0 ? 1.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              failed_, attempted_);

  std::string json = Format("{\"correct\": %s, \"attempted\": %zu, "
                            "\"failed\": %zu, \"metrics\": {",
                            failed_ == 0 && attempted_ > 0 ? "true" : "false",
                            attempted_, failed_);
  const std::vector<Metric>& chosen = trace ? layers_ : end_to_end_;
  for (size_t i = 0; i < chosen.size(); ++i) {
    json += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", chosen[i].name.c_str(),
                   std::isfinite(chosen[i].value) ? chosen[i].value : 0.0,
                   chosen[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buffer[1024];
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n < static_cast<int>(sizeof(buffer))) return std::string(buffer);
  std::string out(static_cast<size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(out.data(), out.size(), fmt, args);
  va_end(args);
  out.resize(static_cast<size_t>(n));
  return out;
}

}  // namespace perfbench
