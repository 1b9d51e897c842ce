// Google-benchmark microbenchmarks for the computational kernels under the
// ISVD pipeline: scalar/interval matrix products, sparse CSR matvec
// variants (with the obs matvec/nnz counters surfaced per iteration), a
// cold Golub–Kahan–Lanczos SVD of a tall and of a wide sparse map,
// one-sided Jacobi SVD, symmetric Jacobi eigendecomposition, Hungarian
// assignment, ILSA, and a full ISVD4-b decomposition.
//
// Like the fig10 benches, accepts --json[=PATH] (default
// BENCH_microbench_kernels.json) and emits one flat record per benchmark
// run next to Google Benchmark's own console output.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "align/assignment.h"
#include "align/ilsa.h"
#include "base/rng.h"
#include "bench_util.h"
#include "core/isvd.h"
#include "data/ratings.h"
#include "data/synthetic.h"
#include "interval/interval_matrix.h"
#include "linalg/eig.h"
#include "linalg/lanczos_svd.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "sparse/sparse_gram_operator.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  return m;
}

IntervalMatrix RandomInterval(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config;
  config.rows = rows;
  config.cols = cols;
  return GenerateUniformIntervalMatrix(config, rng);
}

void BM_MatrixProduct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatrixProduct)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_IntervalMatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalMatrix a = RandomInterval(n, n, 3);
  const IntervalMatrix b = RandomInterval(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalMatMul(a, b));
  }
}
BENCHMARK(BM_IntervalMatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_IntervalMatMulExact(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalMatrix a = RandomInterval(n, n, 3);
  const IntervalMatrix b = RandomInterval(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalMatMulExact(a, b));
  }
}
BENCHMARK(BM_IntervalMatMulExact)->Arg(32)->Arg(64);

void BM_Svd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix m = RandomMatrix(2 * n, n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSvd(m));
  }
}
BENCHMARK(BM_Svd)->Arg(16)->Arg(32)->Arg(64);

void BM_SymmetricEig(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix base = RandomMatrix(n, n, 6);
  const Matrix sym = base * base.Transpose();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSymmetricEig(sym));
  }
}
BENCHMARK(BM_SymmetricEig)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_Hungarian(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix w = RandomMatrix(n, n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignmentMax(w));
  }
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64)->Arg(128);

void BM_Ilsa(benchmark::State& state) {
  const size_t r = static_cast<size_t>(state.range(0));
  const Matrix v_min = RandomMatrix(256, r, 8);
  const Matrix v_max = RandomMatrix(256, r, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeIlsa(v_min, v_max));
  }
}
BENCHMARK(BM_Ilsa)->Arg(8)->Arg(20)->Arg(40);

void BM_Isvd4FullPipeline(benchmark::State& state) {
  const size_t cols = static_cast<size_t>(state.range(0));
  const IntervalMatrix m = RandomInterval(40, cols, 10);
  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Isvd4(m, 10, options));
  }
}
BENCHMARK(BM_Isvd4FullPipeline)->Arg(60)->Arg(120)->Arg(250);

// -- Sparse CSR kernels -------------------------------------------------------
//
// The matvec variants under every matrix-free solve, on the same synthetic
// CF interval construction the fig10 benches use. Each benchmark brackets
// its timing loop with registry snapshots and reports the per-iteration
// matvec / nnz counter deltas, so the counters the solvers log are visible
// (and sanity-checkable) at kernel granularity.

SparseIntervalMatrix CfMatrix(size_t users,
                              spk::Backend backend = spk::Backend::kAuto) {
  RatingsConfig config;
  config.num_users = users;
  config.num_items = users / 4;
  config.fill = 0.05;
  config.seed = 404;
  SparseIntervalMatrix m =
      SparseCfIntervalMatrix(GenerateSparseRatings(config), 0.3);
  m.set_kernel(backend);
  return m;
}

// The kernel variant a matrix's forward matvec actually runs, for labels.
std::string ResolvedName(const SparseIntervalMatrix& m) {
  return spk::BackendName(spk::Resolve(m.ResolvedKernel()));
}

// Per-iteration counter deltas into the benchmark's user counters.
void ReportMatvecCounters(benchmark::State& state,
                          const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  const double iterations = static_cast<double>(state.iterations());
  if (iterations <= 0.0) return;
  state.counters["matvecs"] =
      static_cast<double>(after.CounterSum("sparse.matvec.calls") -
                          before.CounterSum("sparse.matvec.calls")) /
      iterations;
  state.counters["nnz_streamed"] =
      static_cast<double>(after.CounterSum("sparse.matvec.nnz") -
                          before.CounterSum("sparse.matvec.nnz")) /
      iterations;
}

// The sparse matvec benchmarks run once per backend: the plain name is the
// dispatched (auto) path — what every solver call site gets — and the
// Scalar / Sell suffixes pin the portable reference and the SELL-C-sigma
// pack so the speedup is measurable from one JSON file. Labels carry the
// variant the auto path resolved to on this machine.
void SparseMultiplyBench(benchmark::State& state, spk::Backend backend) {
  const SparseIntervalMatrix m =
      CfMatrix(static_cast<size_t>(state.range(0)), backend);
  state.SetLabel(ResolvedName(m));
  std::vector<double> x(m.cols(), 1.0), y;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    m.Multiply(SparseIntervalMatrix::Endpoint::kLower, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  ReportMatvecCounters(state, before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()));
}
void BM_SparseMultiply(benchmark::State& state) {
  SparseMultiplyBench(state, spk::Backend::kAuto);
}
void BM_SparseMultiplyScalar(benchmark::State& state) {
  SparseMultiplyBench(state, spk::Backend::kScalar);
}
void BM_SparseMultiplySell(benchmark::State& state) {
  SparseMultiplyBench(state, spk::Backend::kSell);
}
BENCHMARK(BM_SparseMultiply)->Arg(2000)->Arg(8000)->Arg(20000);
BENCHMARK(BM_SparseMultiplyScalar)->Arg(2000)->Arg(8000)->Arg(20000);
BENCHMARK(BM_SparseMultiplySell)->Arg(2000)->Arg(8000)->Arg(20000);

void BM_SparseMultiplyMid(benchmark::State& state) {
  const SparseIntervalMatrix m = CfMatrix(static_cast<size_t>(state.range(0)));
  std::vector<double> x(m.cols(), 1.0), y;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    m.MultiplyMid(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  ReportMatvecCounters(state, before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()));
}
BENCHMARK(BM_SparseMultiplyMid)->Arg(2000)->Arg(8000)->Arg(20000);

void BM_SparseMultiplyTranspose(benchmark::State& state) {
  const SparseIntervalMatrix m = CfMatrix(static_cast<size_t>(state.range(0)));
  std::vector<double> x(m.rows(), 1.0), y;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    m.MultiplyTranspose(SparseIntervalMatrix::Endpoint::kLower, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  ReportMatvecCounters(state, before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()));
}
BENCHMARK(BM_SparseMultiplyTranspose)->Arg(2000)->Arg(8000)->Arg(20000);

// The ISVD4 recompute product V† = M†ᵀ S at rank 10: both endpoints'
// transposed dense products scattered from the rows, then min / max.
void BM_SparseIntervalMultiplyDenseTranspose(benchmark::State& state) {
  const SparseIntervalMatrix m = CfMatrix(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  Matrix b(m.rows(), 10);
  for (size_t i = 0; i < b.rows(); ++i)
    for (size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.Uniform(-1.0, 1.0);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    const IntervalMatrix v = m.IntervalMultiplyDenseTranspose(b);
    benchmark::DoNotOptimize(v.lower().data());
  }
  ReportMatvecCounters(state, before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()));
}
BENCHMARK(BM_SparseIntervalMultiplyDenseTranspose)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(20000);

void SparseGramApplyBench(benchmark::State& state, spk::Backend backend) {
  const SparseIntervalMatrix m =
      CfMatrix(static_cast<size_t>(state.range(0)), backend);
  state.SetLabel(ResolvedName(m));
  const SparseIntervalMatrix mt = m.Transpose();
  const SparseGramOperator gram(m, mt,
                                SparseIntervalMatrix::Endpoint::kUpper);
  std::vector<double> x(gram.Dim(), 1.0), y;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    gram.Apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  ReportMatvecCounters(state, before);
  // One Gram apply streams the nonzeros twice (M_e x, then M_eᵀ ·).
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(m.nnz()));
}
void BM_SparseGramApply(benchmark::State& state) {
  SparseGramApplyBench(state, spk::Backend::kAuto);
}
void BM_SparseGramApplyScalar(benchmark::State& state) {
  SparseGramApplyBench(state, spk::Backend::kScalar);
}
void BM_SparseGramApplySell(benchmark::State& state) {
  SparseGramApplyBench(state, spk::Backend::kSell);
}
BENCHMARK(BM_SparseGramApply)->Arg(2000)->Arg(8000)->Arg(20000);
BENCHMARK(BM_SparseGramApplyScalar)->Arg(2000)->Arg(8000)->Arg(20000);
BENCHMARK(BM_SparseGramApplySell)->Arg(2000)->Arg(8000)->Arg(20000);

// One cold rank-10 Golub–Kahan–Lanczos SVD (the ISVD0/ISVD1 solve) of the
// upper endpoint of a short-row CF matrix: 20 users per item and ~8
// ratings per user, the serve_ingest regime. The users x items orientation
// (Tall) makes the left basis the long one, items x users (Wide) the right
// one; either way only the short basis is swept every step. Arg = items.
void RunLanczosSvd(benchmark::State& state, bool tall) {
  RatingsConfig config;
  config.num_items = static_cast<size_t>(state.range(0));
  config.num_users = 20 * config.num_items;
  config.fill = 8.0 / static_cast<double>(config.num_items);
  config.seed = 404;
  const SparseIntervalMatrix users_items =
      SparseCfIntervalMatrix(GenerateSparseRatings(config), 0.3);
  const SparseIntervalMatrix items_users = users_items.Transpose();
  const SparseEndpointMap map(tall ? users_items : items_users,
                              tall ? items_users : users_items,
                              SparseEndpointMap::Part::kUpper);
  size_t steps = 0;
  for (auto _ : state) {
    const SvdResult svd = ComputeLanczosSvd(map, 10);
    benchmark::DoNotOptimize(svd.sigma.data());
    steps = svd.iterations;
  }
  // Items are Krylov steps: items_per_second is steps solved per second.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(steps));
}
void BM_LanczosSvdTall(benchmark::State& state) { RunLanczosSvd(state, true); }
void BM_LanczosSvdWide(benchmark::State& state) {
  RunLanczosSvd(state, false);
}
BENCHMARK(BM_LanczosSvdTall)->Arg(2000);
BENCHMARK(BM_LanczosSvdWide)->Arg(2000);

// -- Differential self-check (--check) ---------------------------------------
//
// Compares every dispatched kernel entry point against the scalar reference
// on the benchmark's own CF construction before any timing runs. A mismatch
// fails the process, so a CI bench run cannot publish numbers from a kernel
// that diverged. Tolerance matches the differential tests: blocked + FMA
// summation vs left-to-right, |diff| <= 1e-12 * max(1, |ref|).

bool VectorsAgree(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what) {
  if (got.size() != want.size()) {
    std::fprintf(stderr, "check FAILED: %s size %zu vs %zu\n", what,
                 got.size(), want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(want[i]));
    if (std::fabs(got[i] - want[i]) > tol) {
      std::fprintf(stderr, "check FAILED: %s entry %zu: %.17g vs %.17g\n",
                   what, i, got[i], want[i]);
      return false;
    }
  }
  return true;
}

bool CheckBackendAgainstScalar(const SparseIntervalMatrix& scalar,
                               spk::Backend backend) {
  SparseIntervalMatrix m = scalar;
  m.set_kernel(backend);
  const SparseIntervalMatrix scalar_t = scalar.Transpose();
  const SparseIntervalMatrix mt = m.Transpose();
  const std::string label = spk::BackendName(backend);
  Rng rng(99);
  std::vector<double> x(m.cols()), xt(m.rows());
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  for (double& v : xt) v = rng.Uniform(-1.0, 1.0);
  Matrix b(m.cols(), 4);
  for (size_t i = 0; i < b.rows(); ++i)
    for (size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.Uniform(-1.0, 1.0);

  bool ok = true;
  std::vector<double> want, got;
  const auto kLower = SparseIntervalMatrix::Endpoint::kLower;
  const auto kUpper = SparseIntervalMatrix::Endpoint::kUpper;

  scalar.Multiply(kLower, x, want);
  m.Multiply(kLower, x, got);
  ok &= VectorsAgree(got, want, (label + "/multiply.lo").c_str());
  scalar.Multiply(kUpper, x, want);
  m.Multiply(kUpper, x, got);
  ok &= VectorsAgree(got, want, (label + "/multiply.hi").c_str());
  scalar.MultiplyMid(x, want);
  m.MultiplyMid(x, got);
  ok &= VectorsAgree(got, want, (label + "/mid").c_str());
  scalar.MultiplyTranspose(kUpper, xt, want);
  m.MultiplyTranspose(kUpper, xt, got);
  ok &= VectorsAgree(got, want, (label + "/transpose").c_str());
  const Matrix dense_want = scalar.MultiplyDense(kUpper, b);
  const Matrix dense_got = m.MultiplyDense(kUpper, b);
  std::vector<double> dw(dense_want.data(),
                         dense_want.data() + dense_want.rows() * 4);
  std::vector<double> dg(dense_got.data(),
                         dense_got.data() + dense_got.rows() * 4);
  ok &= VectorsAgree(dg, dw, (label + "/dense").c_str());
  Matrix bt(m.rows(), 4);
  for (size_t i = 0; i < bt.rows(); ++i)
    for (size_t j = 0; j < bt.cols(); ++j) bt(i, j) = rng.Uniform(-1.0, 1.0);
  const IntervalMatrix dense_t_want = scalar_t.IntervalMultiplyDense(bt);
  const IntervalMatrix dense_t_got = m.IntervalMultiplyDenseTranspose(bt);
  for (const bool upper : {false, true}) {
    const Matrix& w = upper ? dense_t_want.upper() : dense_t_want.lower();
    const Matrix& g = upper ? dense_t_got.upper() : dense_t_got.lower();
    ok &= VectorsAgree(
        std::vector<double>(g.data(), g.data() + g.rows() * g.cols()),
        std::vector<double>(w.data(), w.data() + w.rows() * w.cols()),
        (label + (upper ? "/dense_t.hi" : "/dense_t.lo")).c_str());
  }
  for (const auto e : {kLower, kUpper}) {
    SparseGramOperator(scalar, scalar_t, e).Apply(x, want);
    SparseGramOperator(m, mt, e).Apply(x, got);
    ok &= VectorsAgree(
        got, want, (label + (e == kLower ? "/gram.lo" : "/gram.hi")).c_str());
  }
  return ok;
}

// Returns true when every backend reproduces the scalar reference.
bool RunKernelSelfCheck() {
  bool ok = true;
  for (size_t users : {501u, 4000u}) {
    SparseIntervalMatrix scalar = CfMatrix(users, spk::Backend::kScalar);
    for (spk::Backend backend :
         {spk::Backend::kAuto, spk::Backend::kAvx2, spk::Backend::kSell}) {
      ok &= CheckBackendAgainstScalar(scalar, backend);
    }
  }
  std::fprintf(stderr, "kernel self-check (dispatched=%s): %s\n",
               spk::BackendName(spk::Resolve(spk::Backend::kAuto)),
               ok ? "OK" : "FAILED");
  return ok;
}

}  // namespace

// -- JSON capture -------------------------------------------------------------

// Forwards to the console reporter while capturing one flat record per run,
// so --json output matches the fig10 benches' shape. Keyed by run name:
// Google Benchmark may repeat a benchmark (warmup, aggregates); the last
// report wins.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      Record record;
      record.real_time_ns = run.GetAdjustedRealTime();
      record.cpu_time_ns = run.GetAdjustedCPUTime();
      record.iterations = static_cast<size_t>(run.iterations);
      record.label = run.report_label;  // kernel variant for sparse benches
      for (const auto& [name, counter] : run.counters) {
        record.counters.emplace_back(name, counter.value);
      }
      records_[run.benchmark_name()] = record;
    }
    ConsoleReporter::ReportRuns(reports);
  }

  bool WriteJson(const std::string& path) const {
    bench::JsonWriter json(path);
    for (const auto& [name, record] : records_) {
      json.BeginRecord();
      json.Field("bench", "microbench_kernels");
      json.Field("name", name);
      json.Field("real_time_ns", record.real_time_ns);
      json.Field("cpu_time_ns", record.cpu_time_ns);
      json.Field("iterations", record.iterations);
      if (!record.label.empty()) json.Field("kernel", record.label);
      for (const auto& [counter, value] : record.counters) {
        json.Field(counter.c_str(), value);
      }
      bench::WriteMemoryFields(json);
    }
    return json.Finish();
  }

 private:
  struct Record {
    double real_time_ns = 0.0;
    double cpu_time_ns = 0.0;
    size_t iterations = 0;
    std::string label;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::map<std::string, Record> records_;
};

}  // namespace ivmf

int main(int argc, char** argv) {
  // Resolve and strip --json[=PATH] and --check before Google Benchmark
  // sees the arguments (it rejects flags it does not recognize).
  const std::string json_path =
      ivmf::bench::JsonPathFlag(argc, argv, "microbench_kernels");
  bool check = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json", 6) == 0 &&
        (arg[6] == '\0' || arg[6] == '=')) {
      continue;
    }
    if (std::strcmp(arg, "--check") == 0) {
      check = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  // Differential gate: with --check, every vectorized backend must
  // reproduce the scalar reference on the bench's own construction before
  // any timing runs — a diverged kernel cannot publish numbers.
  if (check && !ivmf::RunKernelSelfCheck()) return 1;
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  ivmf::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !reporter.WriteJson(json_path)) {
    std::fprintf(stderr, "error: failed writing JSON output\n");
    return 1;
  }
  return 0;
}
