// The three workloads. Each runs set-up, its timed phase and its checks,
// and fills `report`. With args.trace a workload starts tracing after its
// set-up (BeginTracedRun) and also measures the per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

void RunBatchDecompose(const Args& args, Report& report);
void RunServeIngest(const Args& args, Report& report);
void RunOutOfCore(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
