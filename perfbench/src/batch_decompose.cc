// batch_decompose: repeated cold decompositions of a 20k x 5k CF interval
// matrix held in memory (5% fill, ~250 nonzeros per row), rank 10, target b,
// Lanczos: ISVD1 on the Golub-Kahan route and ISVD4 on the Gram route with
// recompute. The sparse kernels, the Lanczos solvers and the ISVD stages do
// the work; serving, streaming and the sharded store stay idle.
#include <vector>

#include "data/ratings.h"
#include "layers.h"
#include "sparse/sparse_gram_operator.h"
#include "sparse/sparse_interval_matrix.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ivmf::SparseIntervalMatrix;
using Endpoint = SparseIntervalMatrix::Endpoint;

constexpr size_t kUsers = 20000;
constexpr size_t kItems = 5000;
constexpr double kFill = 0.05;
constexpr double kAlpha = 0.3;
constexpr size_t kRank = 10;
constexpr int kGramStrategy = 4;
constexpr int kSetups = 3;
constexpr int kMinReps = 3;

SparseIntervalMatrix MakeMatrix(uint64_t seed) {
  ivmf::RatingsConfig config;
  config.num_users = kUsers;
  config.num_items = kItems;
  config.fill = kFill;
  config.seed = seed;
  return ivmf::SparseCfIntervalMatrix(ivmf::GenerateSparseRatings(config),
                                      kAlpha);
}

// Resolves the kernel backend and builds the lazily made sidecars of the
// base matrix, so no timed decomposition pays for them.
void WarmUp(const SparseIntervalMatrix& m) {
  std::vector<double> x(m.cols(), 1.0), y;
  m.GramMultiply(Endpoint::kUpper, x, y);
  m.Multiply(Endpoint::kUpper, x, y);
}

}  // namespace

void RunBatchDecompose(const Args& args, Report& report) {
  // Set-up: generation and sidecar warm-up, repeated for a steady median.
  std::vector<Cost> setup;
  SparseIntervalMatrix m;
  for (int i = 0; i < kSetups; ++i) {
    m = SparseIntervalMatrix();
    const CostTimer timer;
    m = MakeMatrix(args.seed);
    WarmUp(m);
    setup.push_back(timer.Elapsed());
  }
  report.Note(Format("batch_decompose: %zu x %zu, %zu nnz (%.1f per row), "
                     "in memory, backend %s",
                     m.rows(), m.cols(), m.nnz(),
                     static_cast<double>(m.nnz()) / static_cast<double>(m.rows()),
                     ivmf::spk::BackendName(m.ResolvedKernel())));

  const double untraced_gram_cpu_s =
      args.trace ? BeginTracedRun(kGramStrategy, m, kRank) : 0.0;

  // Timed phase: alternate the two routes until the time is spent.
  ivmf::obs::MetricsRegistry& registry = ivmf::obs::MetricsRegistry::Global();
  const ivmf::obs::MetricsSnapshot before = registry.Snapshot();
  std::vector<Decomposition> svd, gram;
  uint64_t calls_per_gram = 0, nnz_per_gram = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < args.seconds || gram.size() < kMinReps) {
    svd.push_back(DecomposeSvd(m, kRank));
    const ivmf::obs::MetricsSnapshot pre = registry.Snapshot();
    gram.push_back(DecomposeGram(kGramStrategy, m, kRank));
    if (gram.size() == 1) {
      const ivmf::obs::MetricsSnapshot post = registry.Snapshot();
      calls_per_gram = CounterDelta(pre, post, "sparse.matvec.calls");
      nnz_per_gram = CounterDelta(pre, post, "sparse.matvec.nnz");
    }
  }
  const ivmf::obs::MetricsSnapshot after = registry.Snapshot();
  const double peak_rss = PeakRssMib();

  report.Costs("setup_s", "setup_wall_s", setup);
  report.EndToEnd("peak_rss_mib", peak_rss, "MiB", 1);
  report.Costs("decompose_svd_cpu_s", "decompose_svd_s", CostsOf(svd));
  report.Costs("decompose_gram_cpu_s", "decompose_gram_s", CostsOf(gram));

  if (args.trace) {
    ReportTraceOverhead(gram, untraced_gram_cpu_s, report);
    report.Layer("sparse.matvec_calls", static_cast<double>(calls_per_gram),
                 "count", 1);
    report.Layer("sparse.matvec_nnz", static_cast<double>(nnz_per_gram),
                 "count", 1);
    ReportPool(before, after, report);
    ReportStages(MedianStages(gram), "isvd", gram.size(), report);
    ReportStages(MedianStages(svd), "isvd1", svd.size(), report);
    const SparseIntervalMatrix mt = m.Transpose();
    ProbeLanczos(ivmf::SparseGramOperator(m, mt, Endpoint::kUpper),
                 ivmf::SparseEndpointMap(m, mt,
                                         ivmf::SparseEndpointMap::Part::kUpper),
                 kRank, report);
    ProbeKernels(m, ReportMachine(report), report);
  }

  // Checks: every decomposition against the scalar-kernel route, which
  // applies the Gram as two separate CSR passes instead of the fused kernel.
  m.set_kernel(ivmf::spk::Backend::kScalar);
  const SparseIntervalMatrix mt = m.Transpose();
  using Part = ivmf::SparseEndpointMap::Part;
  const ReferenceSpectrum gram_ref =
      CertifyGram(ivmf::SparseGramOperator(m, mt, Endpoint::kLower),
                  ivmf::SparseGramOperator(m, mt, Endpoint::kUpper), kRank);
  const ReferenceSpectrum svd_ref =
      CertifySvd(ivmf::SparseEndpointMap(m, mt, Part::kLower),
                 ivmf::SparseEndpointMap(m, mt, Part::kUpper), kRank);
  ivmf::IsvdOptions ref_options = DecomposeOptions();
  ref_options.lanczos.seed = kReferenceSeed;
  const Decomposition svd_ref_result =
      DecomposeSvd(m, kRank, ref_options);
  for (const Decomposition& d : gram) {
    CheckGram(d, gram_ref, "ISVD4", report);
  }
  for (const Decomposition& d : svd) {
    CheckCore(d, svd_ref_result, svd_ref, "ISVD1", report);
  }
  report.Note(Format("checks: %zu leading Gram and %zu leading SVD values "
                     "certified and compared at %.0e",
                     gram_ref.resolvable, svd_ref.resolvable,
                     kSigmaTolerance));
}

}  // namespace perfbench
