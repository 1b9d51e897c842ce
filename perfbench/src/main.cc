// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload <batch_decompose|serve_ingest|outofcore>
//             --seed <n> --seconds <s> --trace <0|1> --work_dir <dir>
//
// Prints each metric with its unit and sample count, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A traced run also writes a Chrome trace to <work_dir>.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "layers.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work_dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->work_dir.empty();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work_dir <dir>\n");
    return 2;
  }
  // End-to-end runs measure with every instrument off.
  ivmf::obs::SetEnabled(false);
  ivmf::obs::SetLogStderr(false);

  Report report;
  if (args.workload == "batch_decompose") {
    RunBatchDecompose(args, report);
  } else if (args.workload == "serve_ingest") {
    RunServeIngest(args, report);
  } else if (args.workload == "outofcore") {
    RunOutOfCore(args, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    ivmf::obs::TraceCollector& collector = ivmf::obs::TraceCollector::Global();
    collector.Stop();
    const std::string path = args.work_dir + "/trace_" + args.workload + ".json";
    report.Op(collector.WriteChromeTrace(path), "writing the Chrome trace");
    report.Note(Format("trace: %s (%zu spans dropped by ring wraparound)",
                       path.c_str(), collector.total_dropped()));
  }
  const HostSpeed& speed = HostSpeed::Global();
  report.Note(Format("host speed: median slice %.6f CPU s over %zu slices; "
                     "gated CPU times scaled by %.4f to the reference host",
                     speed.median_s(), speed.samples(),
                     kReferenceSliceS / speed.median_s()));
  if (args.trace) {
    report.Layer("host.slice_cpu_s", speed.median_s(), "s", speed.samples());
  }
  report.EndToEnd("success_rate",
                  1.0 - static_cast<double>(report.failed()) /
                            static_cast<double>(report.attempted()),
                  "ratio", report.attempted());
  if (args.trace) ReportIdleLayers(report);
  report.Print(args.trace);
  return 0;
}
