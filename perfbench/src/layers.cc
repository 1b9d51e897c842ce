#include "layers.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "base/parallel.h"
#include "linalg/lanczos.h"
#include "linalg/lanczos_svd.h"
#include "sparse/sparse_kernels.h"

namespace perfbench {

namespace {

double Norm(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x * x;
  return std::sqrt(sum);
}

// ||A v_j - theta_j v_j|| for each returned eigenpair.
std::vector<double> EigResiduals(const ivmf::LinearOperator& op,
                                 const ivmf::EigResult& eig) {
  std::vector<double> residuals;
  std::vector<double> y;
  for (size_t j = 0; j < eig.eigenvalues.size(); ++j) {
    const std::vector<double> v = eig.eigenvectors.Col(j);
    op.Apply(v, y);
    for (size_t i = 0; i < v.size(); ++i) y[i] -= eig.eigenvalues[j] * v[i];
    residuals.push_back(Norm(y));
  }
  return residuals;
}

// max(||A v_j - s_j u_j||, ||A^T u_j - s_j v_j||) for each triplet.
std::vector<double> SvdResiduals(const ivmf::LinearMap& map,
                                 const ivmf::SvdResult& svd) {
  std::vector<double> residuals;
  std::vector<double> y;
  for (size_t j = 0; j < svd.sigma.size(); ++j) {
    const std::vector<double> u = svd.u.Col(j);
    const std::vector<double> v = svd.v.Col(j);
    map.Apply(v, y);
    for (size_t i = 0; i < u.size(); ++i) y[i] -= svd.sigma[j] * u[i];
    const double forward = Norm(y);
    map.ApplyTranspose(u, y);
    for (size_t i = 0; i < v.size(); ++i) y[i] -= svd.sigma[j] * v[i];
    residuals.push_back(std::max(forward, Norm(y)));
  }
  return residuals;
}

// Length of the leading run of Ritz pairs that have converged: residual at
// most kCertifyTolerance of the largest value, and residual over the gap to
// the neighbouring values (which bounds the vector error) at most
// kVectorTolerance. `values` are descending.
size_t CertifiedPrefix(const std::vector<double>& residuals,
                       const std::vector<double>& values) {
  size_t k = 0;
  while (k + 1 < values.size()) {
    double gap = values[k] - values[k + 1];
    if (k > 0) gap = std::min(gap, values[k - 1] - values[k]);
    if (residuals[k] > kCertifyTolerance * values[0] ||
        residuals[k] > kVectorTolerance * gap) {
      break;
    }
    ++k;
  }
  return k;
}

ivmf::LanczosOptions ReferenceLanczos() {
  ivmf::LanczosOptions options;
  options.seed = kReferenceSeed;
  return options;
}

// Empty when `got` agrees with `ref` within kSigmaTolerance, else a
// description of component j's disagreement.
std::string Mismatch(size_t j, double got, double ref) {
  const double rel = std::fabs(got - ref) / std::fabs(ref);
  if (rel <= kSigmaTolerance) return "";
  return Format(" (component %zu: %.17g vs %.17g, relative %.3g)", j, got, ref,
                rel);
}

struct LayerName {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerName kLayerMetrics[] = {
    {"setup_wall_s", "s"},
    {"decompose_svd_s", "s"},
    {"decompose_gram_s", "s"},
    {"sparse.gram_apply_us", "us"},
    {"sparse.matvec_us", "us"},
    {"sparse.matvec_t_us", "us"},
    {"sparse.transpose_s", "s"},
    {"sparse.gram_apply_gbps", "GB/s"},
    {"sparse.bw_fraction", "ratio"},
    {"sparse.matvec_calls", "count"},
    {"sparse.matvec_nnz", "count"},
    {"block.gram_apply_us", "us"},
    {"block.matvec_calls", "count"},
    {"block.matvec_nnz", "count"},
    {"store.minor_faults", "count"},
    {"store.major_faults", "count"},
    {"store.residency_drops", "count"},
    {"store.build_s", "s"},
    {"lanczos.matvec_s", "s"},
    {"lanczos.orth_s", "s"},
    {"lanczos.iterations", "count"},
    {"lanczos.restarts", "count"},
    {"lanczos.svd_matvec_s", "s"},
    {"lanczos.svd_orth_s", "s"},
    {"lanczos.svd_iterations", "count"},
    {"isvd.preprocess_s", "s"},
    {"isvd.decompose_s", "s"},
    {"isvd.solve_s", "s"},
    {"isvd.align_s", "s"},
    {"isvd.recompute_s", "s"},
    {"isvd.renormalize_s", "s"},
    {"isvd.unattributed_s", "s"},
    {"isvd1.preprocess_s", "s"},
    {"isvd1.decompose_s", "s"},
    {"isvd1.align_s", "s"},
    {"isvd1.renormalize_s", "s"},
    {"isvd1.unattributed_s", "s"},
    {"freshness_p50_s", "s"},
    {"freshness_p99_s", "s"},
    {"rank_p50_us", "us"},
    {"rank_p99_us", "us"},
    {"score_p50_us", "us"},
    {"score_p99_us", "us"},
    {"engine.queue_wait_p50_s", "s"},
    {"engine.queue_wait_p99_s", "s"},
    {"engine.step_p50_s", "s"},
    {"engine.step_p99_s", "s"},
    {"engine.busy_ratio", "ratio"},
    {"engine.batch_cells_p50", "count"},
    {"streaming.snapshot_p50_s", "s"},
    {"streaming.decompose_p50_s", "s"},
    {"streaming.warm_ratio", "ratio"},
    {"streaming.iterations_per_refresh", "count"},
    {"serve.acquire_ns", "ns"},
    {"serve.predict_ns", "ns"},
    {"serve.topk_idle_us", "us"},
    {"pool.tasks", "count"},
    {"pool.helper_share", "ratio"},
    {"load.ingest_late_max_s", "s"},
    {"load.read_late_p99_us", "us"},
    {"mem.triad_gbps", "GB/s"},
    {"mem.triad_array_mib", "MiB"},
    {"mem.l3_mib", "MiB"},
    {"host.nproc", "count"},
    {"host.slice_cpu_s", "s"},
    {"trace_overhead_ratio", "ratio"},
};

// Bytes the fused Gram apply streams per call, from array sizes: one column
// index (packed to 16 or 32 bits on the AVX2 CSR variant) and one endpoint
// value per nonzero, the row offsets, and the input and output vectors.
double GramApplyBytes(const ivmf::SparseIntervalMatrix& m) {
  const bool packed =
      ivmf::spk::CsrVariant(m.ResolvedKernel()) == ivmf::spk::Backend::kAvx2;
  const double index_bytes =
      packed ? (m.cols() <= 65536 ? 2.0 : 4.0) : sizeof(size_t);
  return static_cast<double>(m.nnz()) * (index_bytes + 8.0) +
         static_cast<double>(m.rows() + 1) * 8.0 +
         2.0 * static_cast<double>(m.cols()) * 8.0;
}

}  // namespace

void ProbeKernels(const ivmf::SparseIntervalMatrix& m, double triad_gbps,
                  Report& report) {
  ivmf::obs::TraceSpan span("bench.sparse_kernels");
  constexpr auto kUpper = ivmf::SparseIntervalMatrix::Endpoint::kUpper;
  constexpr int kReps = 21;
  std::vector<double> x_cols(m.cols(), 0.5), x_rows(m.rows(), 0.5), y;
  const double gram_s =
      MedianSeconds(kReps, [&] { m.GramMultiply(kUpper, x_cols, y); });
  const double matvec_s =
      MedianSeconds(kReps, [&] { m.Multiply(kUpper, x_cols, y); });
  const double matvec_t_s =
      MedianSeconds(kReps, [&] { m.MultiplyTranspose(kUpper, x_rows, y); });
  const double transpose_s = MedianSeconds(3, [&] { (void)m.Transpose(); });
  const double gbps = GramApplyBytes(m) / gram_s / 1e9;
  report.Layer("sparse.gram_apply_us", gram_s * 1e6, "us", kReps);
  report.Layer("sparse.matvec_us", matvec_s * 1e6, "us", kReps);
  report.Layer("sparse.matvec_t_us", matvec_t_s * 1e6, "us", kReps);
  report.Layer("sparse.transpose_s", transpose_s, "s", 3);
  report.Layer("sparse.gram_apply_gbps", gbps, "GB/s", kReps);
  report.Layer("sparse.bw_fraction", gbps / triad_gbps, "ratio", kReps);
  report.Note(Format("sparse: backend %s; gram apply %.2f GB/s computed from "
                     "array sizes = %.3f of the measured triad",
                     ivmf::spk::BackendName(m.ResolvedKernel()), gbps,
                     gbps / triad_gbps));
}

ivmf::IsvdOptions DecomposeOptions() {
  ivmf::IsvdOptions options;
  options.target = ivmf::DecompositionTarget::kB;
  options.eig_solver = ivmf::EigSolver::kLanczos;
  return options;
}

ReferenceSpectrum CertifyGram(const ivmf::LinearOperator& lo,
                              const ivmf::LinearOperator& hi, size_t rank) {
  ivmf::obs::TraceSpan span("bench.reference_gram");
  ivmf::EigResult eig[2];
  ivmf::ParallelFor(0, 2, [&](size_t side) {
    eig[side] = ivmf::ComputeLanczosEig(side == 0 ? lo : hi, rank,
                                        ReferenceLanczos());
  });
  ReferenceSpectrum ref;
  ref.truncated = eig[0].truncated || eig[1].truncated;
  if (ref.truncated || eig[0].eigenvalues.empty()) return ref;
  for (const double v : eig[0].eigenvalues) {
    ref.lo.push_back(std::sqrt(std::max(0.0, v)));
  }
  for (const double v : eig[1].eigenvalues) {
    ref.hi.push_back(std::sqrt(std::max(0.0, v)));
  }
  ref.resolvable =
      std::min(CertifiedPrefix(EigResiduals(lo, eig[0]), eig[0].eigenvalues),
               CertifiedPrefix(EigResiduals(hi, eig[1]), eig[1].eigenvalues));
  return ref;
}

ReferenceSpectrum CertifySvd(const ivmf::LinearMap& lo,
                             const ivmf::LinearMap& hi, size_t rank) {
  ivmf::obs::TraceSpan span("bench.reference_svd");
  ReferenceSpectrum ref;
  // The reference seed gives the values; the timed runs' own seed gives a
  // solve as converged as theirs, so the prefix holds for both routes.
  for (const uint64_t seed : {kReferenceSeed, ivmf::LanczosOptions().seed}) {
    ivmf::LanczosOptions options;
    options.seed = seed;
    ivmf::SvdResult svd[2];
    ivmf::ParallelFor(0, 2, [&](size_t side) {
      svd[side] = ivmf::ComputeLanczosSvd(side == 0 ? lo : hi, rank, options);
    });
    ref.truncated = ref.truncated || svd[0].truncated || svd[1].truncated;
    if (ref.truncated || svd[0].sigma.empty()) return ref;
    const size_t resolvable =
        std::min(CertifiedPrefix(SvdResiduals(lo, svd[0]), svd[0].sigma),
                 CertifiedPrefix(SvdResiduals(hi, svd[1]), svd[1].sigma));
    if (seed == kReferenceSeed) {
      ref.lo = svd[0].sigma;
      ref.hi = svd[1].sigma;
      ref.resolvable = resolvable;
    } else {
      ref.resolvable = std::min(ref.resolvable, resolvable);
    }
  }
  return ref;
}

ReferenceSpectrum ResolvedAtTolerance(const ReferenceSpectrum& ref,
                                      double convergence_tol) {
  ReferenceSpectrum out = ref;
  for (const std::vector<double>* sigma : {&ref.lo, &ref.hi}) {
    if (sigma->empty()) continue;
    std::vector<double> theta;
    for (const double s : *sigma) theta.push_back(s * s);
    const std::vector<double> residuals(theta.size(),
                                        convergence_tol * theta[0]);
    out.resolvable =
        std::min(out.resolvable, CertifiedPrefix(residuals, theta));
  }
  return out;
}

void CheckGram(const Decomposition& d, const ReferenceSpectrum& ref,
               const std::string& label, Report& report) {
  if (ref.truncated || ref.resolvable == 0 ||
      d.sigma_lo.size() < ref.resolvable || d.sigma_hi.size() < ref.resolvable) {
    report.Op(false, label + ": truncated or uncertified spectrum");
    return;
  }
  std::string mismatch;
  for (size_t j = 0; j < ref.resolvable && mismatch.empty(); ++j) {
    mismatch = Mismatch(j, d.sigma_lo[j], ref.lo[j]) +
               Mismatch(j, d.sigma_hi[j], ref.hi[j]);
  }
  report.Op(mismatch.empty(), label + ": endpoint singular value differs "
                                     "from the certified reference" + mismatch);
}

void CheckCore(const Decomposition& d, const Decomposition& ref,
               const ReferenceSpectrum& cert, const std::string& label,
               Report& report) {
  if (cert.truncated || cert.resolvable == 0 ||
      d.sigma.size() < cert.resolvable || ref.sigma.size() < cert.resolvable) {
    report.Op(false, label + ": truncated or uncertified spectrum");
    return;
  }
  std::string mismatch;
  for (size_t j = 0; j < cert.resolvable && mismatch.empty(); ++j) {
    mismatch = Mismatch(j, d.sigma[j].lo, ref.sigma[j].lo) +
               Mismatch(j, d.sigma[j].hi, ref.sigma[j].hi);
  }
  report.Op(mismatch.empty(),
            label + ": core differs from the reference decomposition" +
                mismatch);
}

std::vector<Cost> CostsOf(const std::vector<Decomposition>& runs) {
  std::vector<Cost> costs;
  for (const Decomposition& d : runs) costs.push_back({d.wall_s, d.cpu_s});
  return costs;
}

StageSplit MedianStages(const std::vector<Decomposition>& runs) {
  StageSplit split;
  if (runs.empty()) return split;
  std::vector<double> walls;
  for (const Decomposition& d : runs) walls.push_back(d.wall_s);
  const Decomposition& median = runs[MedianIndex(walls)];
  split.wall_s = median.wall_s;
  split.stages = median.timings;
  split.unattributed_s = median.wall_s - split.stages.Total();
  return split;
}

void ReportStages(const StageSplit& split, const std::string& prefix,
                  size_t samples, Report& report) {
  const ivmf::PhaseTimings& t = split.stages;
  const std::pair<const char*, double> stages[] = {
      {"preprocess_s", t.preprocess}, {"decompose_s", t.decompose},
      {"solve_s", t.solve},           {"align_s", t.align},
      {"recompute_s", t.recompute},   {"renormalize_s", t.renormalize},
      {"unattributed_s", split.unattributed_s}};
  for (const auto& [name, value] : stages) {
    // ISVD1 has no solve or recompute stage, so it lists neither metric.
    const std::string metric = prefix + "." + name;
    const bool listed = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&](const LayerName& layer) { return metric == layer.name; });
    if (listed) report.Layer(metric, value, "s", samples);
  }
  report.Note(Format("%s stages of the median decomposition: %.6f s wall = "
                     "%.6f s in stages + %.6f s unattributed (%.2f%%)",
                     prefix.c_str(), split.wall_s, t.Total(),
                     split.unattributed_s,
                     split.wall_s > 0 ? 100.0 * split.unattributed_s / split.wall_s
                                      : 0.0));
}

void TimedOperator::Apply(const std::vector<double>& x,
                          std::vector<double>& y) const {
  const Clock::time_point t0 = Clock::now();
  inner_.Apply(x, y);
  seconds_ += SecondsSince(t0);
}

void TimedMap::Apply(const std::vector<double>& x,
                     std::vector<double>& y) const {
  const Clock::time_point t0 = Clock::now();
  inner_.Apply(x, y);
  seconds_ += SecondsSince(t0);
}

void TimedMap::ApplyTranspose(const std::vector<double>& x,
                              std::vector<double>& y) const {
  const Clock::time_point t0 = Clock::now();
  inner_.ApplyTranspose(x, y);
  seconds_ += SecondsSince(t0);
}

void ProbeLanczos(const ivmf::LinearOperator& gram, const ivmf::LinearMap& map,
                  size_t rank, Report& report) {
  ivmf::obs::MetricsRegistry& registry = ivmf::obs::MetricsRegistry::Global();
  const ivmf::obs::MetricsSnapshot before = registry.Snapshot();
  const ivmf::LanczosOptions options;

  const TimedOperator timed_gram(gram);
  Clock::time_point t0 = Clock::now();
  ivmf::EigResult eig;
  {
    ivmf::obs::TraceSpan span("bench.lanczos_eig");
    eig = ivmf::ComputeLanczosEig(timed_gram, rank, options);
  }
  const double eig_wall = SecondsSince(t0);

  const TimedMap timed_map(map);
  t0 = Clock::now();
  ivmf::SvdResult svd;
  {
    ivmf::obs::TraceSpan span("bench.lanczos_svd");
    svd = ivmf::ComputeLanczosSvd(timed_map, rank, options);
  }
  const double svd_wall = SecondsSince(t0);
  const ivmf::obs::MetricsSnapshot after = registry.Snapshot();

  report.Op(!eig.truncated && !svd.truncated,
            "lanczos probe: truncated Krylov result");
  report.Layer("lanczos.matvec_s", timed_gram.seconds(), "s", 1);
  report.Layer("lanczos.orth_s", eig_wall - timed_gram.seconds(), "s", 1);
  report.Layer("lanczos.iterations", static_cast<double>(eig.iterations),
               "count", 1);
  report.Layer("lanczos.restarts",
               static_cast<double>(CounterDelta(before, after, "lanczos.eig.restarts") +
                                   CounterDelta(before, after, "lanczos.svd.restarts")),
               "count", 1);
  report.Layer("lanczos.svd_matvec_s", timed_map.seconds(), "s", 1);
  report.Layer("lanczos.svd_orth_s", svd_wall - timed_map.seconds(), "s", 1);
  report.Layer("lanczos.svd_iterations", static_cast<double>(svd.iterations),
               "count", 1);
}

void StartTracing() {
  ivmf::obs::SetEnabled(true);
  ivmf::obs::TraceCollector::Global().Start();
}

void ReportTraceOverhead(const std::vector<Decomposition>& traced,
                         double untraced_cpu_s, Report& report) {
  std::vector<double> cpu;
  for (const Decomposition& d : traced) cpu.push_back(d.cpu_s);
  report.Layer("trace_overhead_ratio", Median(cpu) / untraced_cpu_s, "ratio",
               cpu.size());
}

void ReportPool(const ivmf::obs::MetricsSnapshot& before,
                const ivmf::obs::MetricsSnapshot& after, Report& report) {
  const uint64_t tasks = CounterDelta(before, after, "pool.tasks.executed");
  const uint64_t helper =
      CounterDelta(before, after, "pool.tasks.executed{executor=helper}");
  report.Layer("pool.tasks", static_cast<double>(tasks), "count", 1);
  report.Layer("pool.helper_share",
               tasks > 0 ? static_cast<double>(helper) / tasks : 0.0, "ratio",
               1);
}

uint64_t CounterDelta(const ivmf::obs::MetricsSnapshot& before,
                      const ivmf::obs::MetricsSnapshot& after,
                      const std::string& prefix) {
  return after.CounterSum(prefix) - before.CounterSum(prefix);
}

double ReportMachine(Report& report) {
  const HostInfo host = ReadHostInfo();
  // Three arrays whose total is at least 4x the L3 (64 MiB each when the
  // L3 size is unknown).
  const size_t l3 = host.l3_bytes > 0 ? host.l3_bytes : (48u << 20);
  const size_t array_bytes = (4 * l3 + 2) / 3;
  double gbps = 0.0;
  {
    ivmf::obs::TraceSpan span("bench.triad");
    gbps = TriadGbps(array_bytes, 5);
  }
  report.Layer("mem.triad_gbps", gbps, "GB/s", 5);
  report.Layer("mem.triad_array_mib",
               static_cast<double>(array_bytes) / (1 << 20), "MiB", 1);
  report.Layer("mem.l3_mib", static_cast<double>(host.l3_bytes) / (1 << 20),
               "MiB", 1);
  report.Layer("host.nproc", static_cast<double>(host.nproc), "count", 1);
  report.Note(Format("machine: %zu hardware threads, L3 %.1f MiB, triad "
                     "%.2f GB/s over 3 x %.1f MiB arrays (measured on this "
                     "host, not comparable across machines)",
                     host.nproc, static_cast<double>(host.l3_bytes) / (1 << 20),
                     gbps, static_cast<double>(array_bytes) / (1 << 20)));
  return gbps;
}

void ReportIdleLayers(Report& report) {
  for (const LayerName& layer : kLayerMetrics) {
    if (!report.HasLayer(layer.name)) report.Layer(layer.name, 0.0, layer.unit, 0);
  }
}

}  // namespace perfbench
