//===- kccbench/src/Workloads.h - The three workloads -----------*- C++ -*-===//
//
// Part of cundef's benchmark (kccbench).
//
// Each workload builds its system through public entry points only,
// sets it up several times (setup_s is the median), measures a timed
// window, grades every verdict against its known answer, and finally
// re-runs a seeded sample of the committed verdicts on a one-worker
// engine and byte-compares them. A traced run splits the window in two
// halves: untraced, then traced, so the tracing overhead is measured
// against the same engine.
//
//===----------------------------------------------------------------------===//

#ifndef KCCBENCH_WORKLOADS_H
#define KCCBENCH_WORKLOADS_H

#include "Common.h"

namespace kccbench {

RunResult runSearchDeep(const Options &Opt);
RunResult runCiCorpus(const Options &Opt);
RunResult runServeMixed(const Options &Opt);

} // namespace kccbench

#endif // KCCBENCH_WORKLOADS_H
