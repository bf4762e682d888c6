//===- bench/bench_timing.cpp - Section 5.1.2 runtime comparison -------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The paper reports mean runtimes on the Juliet tests: Valgrind and
// Value Analysis ~0.5 s, kcc ~23 s, CheckPointer ~80 s. The absolute
// numbers reflect the authors' testbed; what carries over is the shape:
// the strict semantics pays a large interpretation overhead relative to
// lighter instrumentation. These google-benchmark timings measure each
// tool end-to-end on representative programs, plus the core machine's
// raw stepping rate.
//
//===----------------------------------------------------------------------===//

#include "analysis/Tool.h"
#include "core/Machine.h"
#include "driver/Driver.h"
#include "suites/JulietGen.h"

#include <benchmark/benchmark.h>

using namespace cundef;

namespace {

const char *WorkloadSource =
    "#include <stdlib.h>\n"
    "#include <string.h>\n"
    "static int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }\n"
    "int main(void) {\n"
    "  int acc = 0; int i;\n"
    "  char buf[32];\n"
    "  int *heap = (int*)malloc(16 * sizeof(int));\n"
    "  if (!heap) { return 1; }\n"
    "  for (i = 0; i < 16; i++) { heap[i] = i; }\n"
    "  for (i = 0; i < 10; i++) { acc += fib(i) + heap[i]; }\n"
    "  strcpy(buf, \"benchmark\");\n"
    "  acc += (int)strlen(buf);\n"
    "  free(heap);\n"
    "  return acc % 256;\n}\n";

/// One tool analyzing the workload end to end. The monitor tools build
/// a fresh driver inside every analysis. KccTool keeps one persistent
/// Driver, so a reused kcc tool answers every repeat from its warm
/// result cache; \p FreshTool instead creates (and destroys) the tool
/// inside each iteration, which then pays engine start, compile and
/// search like the other tools do.
void BM_ToolEndToEnd(benchmark::State &State, ToolKind Kind, bool FreshTool) {
  std::unique_ptr<Tool> Reused = Tool::create(Kind);
  for (auto _ : State) {
    std::unique_ptr<Tool> Fresh = FreshTool ? Tool::create(Kind) : nullptr;
    ToolResult R =
        (Fresh ? *Fresh : *Reused).analyze(WorkloadSource, "workload.c");
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.SetLabel(Kind != ToolKind::Kcc ? "fresh driver per analysis"
                 : FreshTool           ? "cold: fresh tool per iteration"
                                       : "warm: result-cache hit");
}

void BM_MachineSteps(benchmark::State &State) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(WorkloadSource, "workload.c");
  if (!C->ok()) {
    State.SkipWithError("compile failed");
    return;
  }
  uint64_t Steps = 0;
  for (auto _ : State) {
    UbSink Sink;
    MachineOptions Opts;
    Machine M(C->ast(), Opts, Sink);
    M.run();
    Steps += M.config().Steps;
  }
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}

void BM_PermissiveMachineSteps(benchmark::State &State) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(WorkloadSource, "workload.c");
  if (!C->ok()) {
    State.SkipWithError("compile failed");
    return;
  }
  uint64_t Steps = 0;
  for (auto _ : State) {
    UbSink Sink;
    MachineOptions Opts;
    Opts.Strict = false;
    Machine M(C->ast(), Opts, Sink);
    M.run();
    Steps += M.config().Steps;
  }
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}

void BM_CompileOnly(benchmark::State &State) {
  Driver Drv;
  for (auto _ : State) {
    Driver::Compiled C = Drv.compile(WorkloadSource, "workload.c");
    benchmark::DoNotOptimize(C->ok());
  }
}

void BM_JulietGeneration(benchmark::State &State) {
  for (auto _ : State) {
    JulietGenerator Gen(static_cast<unsigned>(State.range(0)));
    auto Tests = Gen.generate();
    benchmark::DoNotOptimize(Tests.size());
  }
}

} // namespace

BENCHMARK_CAPTURE(BM_ToolEndToEnd, kcc_cold, ToolKind::Kcc, true);
BENCHMARK_CAPTURE(BM_ToolEndToEnd, kcc_warm, ToolKind::Kcc, false);
BENCHMARK_CAPTURE(BM_ToolEndToEnd, memgrind, ToolKind::MemGrind, false);
BENCHMARK_CAPTURE(BM_ToolEndToEnd, ptrcheck, ToolKind::PtrCheck, false);
BENCHMARK_CAPTURE(BM_ToolEndToEnd, valueanalysis, ToolKind::ValueAnalysis,
                  false);
BENCHMARK(BM_MachineSteps);
BENCHMARK(BM_PermissiveMachineSteps);
BENCHMARK(BM_CompileOnly);
BENCHMARK(BM_JulietGeneration)->Arg(100)->Arg(10);

BENCHMARK_MAIN();
