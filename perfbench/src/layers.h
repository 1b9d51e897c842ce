// Calls into the library layers shared by the workloads: timed cold
// decompositions, the residual-certified reference spectra the correctness
// checks compare against, and the per-layer probes of the traced run.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/isvd.h"
#include "core/sparse_isvd.h"
#include "harness.h"
#include "linalg/linear_operator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparse/sparse_interval_matrix.h"

namespace perfbench {

// Decomposition policy of every timed run: target b, Lanczos, cold start.
ivmf::IsvdOptions DecomposeOptions();

// The bound the library's property suites hold singular values to.
constexpr double kSigmaTolerance = 1e-8;

// What the checks and stage reports keep of one decomposition; the factors
// are dropped so that holding many runs does not grow the resident set.
struct Decomposition {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<ivmf::Interval> sigma;
  ivmf::PhaseTimings timings;
  // Endpoint singular values as the solver produced them, before target
  // construction rescales the core (Gram route only: sqrt of the
  // endpoint eigenvalues).
  std::vector<double> sigma_lo;
  std::vector<double> sigma_hi;
};

// One cold Gram-route decomposition (ISVD2-4): ComputeGramEig plus the
// strategy's solve, which is exactly what RunIsvd does, split so the
// endpoint eigenvalues stay visible to the checks. Any per-decomposition
// transpose is inside the timed region, as users pay it on every call.
template <typename Matrix>
Decomposition DecomposeGram(int strategy, const Matrix& m, size_t rank) {
  const ivmf::IsvdOptions options = DecomposeOptions();
  ivmf::obs::TraceSpan span("bench.decompose_gram");
  Decomposition out;
  const CostTimer timer;
  const ivmf::GramEig gram = ivmf::ComputeGramEig(m, rank, options);
  ivmf::IsvdResult result;
  switch (strategy) {
    case 2:
      result = ivmf::Isvd2(m, rank, gram, options);
      break;
    case 3:
      result = ivmf::Isvd3(m, rank, gram, options);
      break;
    default:
      result = ivmf::Isvd4(m, rank, gram, options);
      break;
  }
  const Cost cost = timer.Elapsed();
  out.wall_s = cost.wall_s;
  out.cpu_s = cost.cpu_s;
  out.sigma = result.sigma;
  out.timings = result.timings;
  for (const double v : gram.lo.eigenvalues) {
    out.sigma_lo.push_back(std::sqrt(std::max(0.0, v)));
  }
  for (const double v : gram.hi.eigenvalues) {
    out.sigma_hi.push_back(std::sqrt(std::max(0.0, v)));
  }
  return out;
}

// One cold ISVD1 decomposition (Golub-Kahan-Lanczos on both endpoints).
template <typename Matrix>
Decomposition DecomposeSvd(const Matrix& m, size_t rank,
                           const ivmf::IsvdOptions& options = DecomposeOptions()) {
  ivmf::obs::TraceSpan span("bench.decompose_svd");
  Decomposition out;
  const CostTimer timer;
  const ivmf::IsvdResult result = ivmf::RunIsvd(1, m, rank, options);
  const Cost cost = timer.Elapsed();
  out.wall_s = cost.wall_s;
  out.cpu_s = cost.cpu_s;
  out.sigma = result.sigma;
  out.timings = result.timings;
  return out;
}

// Leading endpoint spectrum of one route, computed independently of the
// timed decompositions (another Krylov seed, and the caller's choice of
// operator) and certified through that operator: the first `resolvable`
// values on both endpoints have Ritz residual at most kCertifyTolerance of
// the largest value, and residual over the gap to their neighbours at most
// kVectorTolerance. Values past that prefix are start-vector dependent and
// are not compared.
struct ReferenceSpectrum {
  std::vector<double> lo;
  std::vector<double> hi;
  size_t resolvable = 0;
  bool truncated = false;
};
constexpr double kCertifyTolerance = 1e-10;
constexpr double kVectorTolerance = 1e-9;
constexpr uint64_t kReferenceSeed = 0x5eed2024;

// Gram endpoints given as symmetric operators; values are sqrt(eigenvalue).
ReferenceSpectrum CertifyGram(const ivmf::LinearOperator& lo,
                              const ivmf::LinearOperator& hi, size_t rank);
// Endpoint matrices given as rectangular maps. The core an SVD-route check
// compares folds in singular vectors, so the prefix must also hold for a
// solve from the timed runs' own Krylov seed.
ReferenceSpectrum CertifySvd(const ivmf::LinearMap& lo,
                             const ivmf::LinearMap& hi, size_t rank);

// A Gram-route reference shortened to the prefix that a solve stopping at
// Ritz residual `convergence_tol` of the largest eigenvalue (a warm-started,
// early-exiting streaming refresh) still resolves: that residual over the
// gap at most kVectorTolerance, the bound the reference itself meets. The
// target-b core folds in factor norms, so a component whose vectors the
// solve leaves unresolved differs by residual/gap, not by kSigmaTolerance.
ReferenceSpectrum ResolvedAtTolerance(const ReferenceSpectrum& ref,
                                      double convergence_tol);

// Checks a Gram-route decomposition's endpoint singular values against the
// reference; records one operation in `report`.
void CheckGram(const Decomposition& d, const ReferenceSpectrum& ref,
               const std::string& label, Report& report);
// Checks a decomposition's core (the target-b interval singular values)
// against a reference decomposition of the same strategy from an
// independent route, over the certified prefix.
void CheckCore(const Decomposition& d, const Decomposition& ref,
              const ReferenceSpectrum& cert, const std::string& label,
              Report& report);

// The costs of a set of decompositions.
std::vector<Cost> CostsOf(const std::vector<Decomposition>& runs);

// Median wall time of a set of decompositions, and the per-stage split of
// the median one. The stages plus `unattributed` add up to its wall time.
struct StageSplit {
  double wall_s = 0.0;
  ivmf::PhaseTimings stages;
  double unattributed_s = 0.0;
};
StageSplit MedianStages(const std::vector<Decomposition>& runs);
void ReportStages(const StageSplit& split, const std::string& prefix,
                  size_t samples, Report& report);

// Linear operators that time every application, for the Lanczos layer
// probe: solver wall time minus operator time is orthogonalization and the
// small tridiagonal/bidiagonal work.
class TimedOperator final : public ivmf::LinearOperator {
 public:
  explicit TimedOperator(const ivmf::LinearOperator& inner) : inner_(inner) {}
  size_t Dim() const override { return inner_.Dim(); }
  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override;
  double seconds() const { return seconds_; }

 private:
  const ivmf::LinearOperator& inner_;
  mutable double seconds_ = 0.0;
};

class TimedMap final : public ivmf::LinearMap {
 public:
  explicit TimedMap(const ivmf::LinearMap& inner) : inner_(inner) {}
  size_t Rows() const override { return inner_.Rows(); }
  size_t Cols() const override { return inner_.Cols(); }
  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override;
  void ApplyTranspose(const std::vector<double>& x,
                      std::vector<double>& y) const override;
  double seconds() const { return seconds_; }

 private:
  const ivmf::LinearMap& inner_;
  mutable double seconds_ = 0.0;
};

// lanczos.* metrics: one eigensolve of `gram` and one SVD of `map`, each
// wrapped in the timing decorator, with iteration and restart counts.
void ProbeLanczos(const ivmf::LinearOperator& gram, const ivmf::LinearMap& map,
                  size_t rank, Report& report);

// sparse.* kernel metrics on an in-memory matrix: GramMultiply, Multiply,
// MultiplyTranspose and Transpose, plus the Gram apply's computed GB/s as a
// share of the measured triad bandwidth.
void ProbeKernels(const ivmf::SparseIntervalMatrix& m, double triad_gbps,
                  Report& report);

// Median seconds of `reps` calls of fn, at least one.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(SecondsSince(t0));
  }
  return Median(std::move(samples));
}

// Turns on the obs registry and starts span collection.
void StartTracing();

// Start of a traced run: times a few Gram-route decompositions with every
// instrument still off, then starts tracing. Returns their median CPU
// seconds, the base of trace_overhead_ratio.
template <typename Matrix>
double BeginTracedRun(int strategy, const Matrix& m, size_t rank) {
  std::vector<double> cpu;
  for (int i = 0; i < 3; ++i) {
    cpu.push_back(DecomposeGram(strategy, m, rank).cpu_s);
  }
  StartTracing();
  return Median(std::move(cpu));
}

// trace_overhead_ratio: traced over untraced median CPU seconds of the
// Gram-route decomposition.
void ReportTraceOverhead(const std::vector<Decomposition>& traced,
                         double untraced_cpu_s, Report& report);

// pool.* metrics between two registry snapshots.
void ReportPool(const ivmf::obs::MetricsSnapshot& before,
                const ivmf::obs::MetricsSnapshot& after, Report& report);

// Counter deltas of the obs registry between two snapshots.
uint64_t CounterDelta(const ivmf::obs::MetricsSnapshot& before,
                      const ivmf::obs::MetricsSnapshot& after,
                      const std::string& prefix);

// Host record shared by every traced run: nproc, L3, triad bandwidth with
// arrays sized to at least 4x the L3. Returns the triad GB/s.
double ReportMachine(Report& report);

// Every per-layer metric name a workload does not exercise, reported as 0
// so each traced run prints the full set (an idle layer does no work).
void ReportIdleLayers(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
