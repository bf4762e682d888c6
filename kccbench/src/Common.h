//===- kccbench/src/Common.h - Shared benchmark vocabulary ------*- C++ -*-===//
//
// Part of cundef's benchmark (kccbench).
//
// The types every workload shares: run options, the seeded generator,
// known answers and how a verdict is graded against one, the canonical
// rendering of an outcome's deterministic fields (the determinism
// check byte-compares it), and the metric record the program prints.
//
//===----------------------------------------------------------------------===//

#ifndef KCCBENCH_COMMON_H
#define KCCBENCH_COMMON_H

#include "driver/Engine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace kccbench {

/// Command-line configuration of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// A fixed, tiny amount of work instead of a timed window: every
  /// count the run reports is then a deterministic function of the
  /// seed (selftest.py compares two such runs).
  bool Tiny = false;
  /// Where the run writes its record and its Unix socket.
  std::string OutDir = ".bench_build";
};

/// SplitMix64: a fully specified generator, so a seed yields the same
/// inputs on every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// The answer a generator or manifest gives for one program, never
/// one computed by kcc.
struct KnownAnswer {
  bool Ub = false;
  /// For Ub: the catalog codes that answer the case (empty = any).
  std::vector<uint16_t> Codes;
  /// Codes[0] must be the first finding's code (the desktop manifest's
  /// contract); otherwise any finding in Codes answers it (the catalog
  /// coverage contract).
  bool FirstCodeOnly = false;
  /// For defined programs with a known exit status (generated trees).
  bool CheckExit = false;
  int ExitCode = 0;
  /// A mismatch fails the run. Catalog rows are graded but not strict:
  /// the coverage harness documents rows kcc does not detect yet.
  bool Strict = true;
};

/// One translation unit a workload submits.
struct Program {
  std::string Name;
  std::string Source;
  KnownAnswer Answer;
};

bool matchesAnswer(const cundef::DriverOutcome &O, const KnownAnswer &A);
/// The request produced a verdict: not refused, not an Internal
/// outcome of a program that compiled.
bool gotVerdict(const cundef::DriverOutcome &O);
/// The verdict is exhaustive: UB was found, or the search was neither
/// truncated nor stopped by the step limit.
bool decided(const cundef::DriverOutcome &O);
/// Every deterministic field of an outcome (verdict, findings, output,
/// exit code, committed search counters, witness), rendered as bytes.
std::string canonicalOutcome(const cundef::DriverOutcome &O);

/// Grading of one request.
struct Graded {
  bool Verdict = false;
  bool Correct = false;
  bool Decided = false;
  bool StrictMiss = false;
};
Graded grade(const cundef::DriverOutcome &O, const KnownAnswer &A);

/// The search pool every workload uses: two search workers and one
/// frontend worker, so the bench process's busy threads stay within
/// four cores.
cundef::EngineConfig benchEngineConfig(unsigned SearchWorkers = 2);

//===--- Timing and statistics ------------------------------------------===//

double nowSeconds();
/// User + system CPU seconds of this process.
double cpuSeconds();
/// Peak resident set of this process in MiB.
double peakRssMb();
/// CPU seconds the hypervisor took from this machine's virtual CPUs
/// (the steal column of /proc/stat, summed over CPUs); 0 where the
/// kernel does not report it.
double stolenSeconds();

/// On a shared virtual machine the hypervisor can take a large share of
/// the CPUs for minutes at a time, stretching every wall-clock figure.
/// A StealScale taken over an interval gives the factor that removes
/// it: stolen time lands on runnable virtual CPUs, which here run the
/// benchmark's threads, so those threads were runnable for Cpu + Stolen
/// seconds of which Cpu were served, and the same work without steal
/// takes Cpu / (Cpu + Stolen) of the wall time measured.
class StealScale {
public:
  StealScale() : Cpu(cpuSeconds()), Stolen(stolenSeconds()) {}
  /// The factor for the interval since construction (1 without steal).
  double factor() const {
    double C = cpuSeconds() - Cpu, S = stolenSeconds() - Stolen;
    return C > 0 && S > 0 ? C / (C + S) : 1.0;
  }
  /// The share of the machine's CPU time stolen over \p Wall seconds.
  double share(double Wall, unsigned Cpus) const;

private:
  double Cpu, Stolen;
};

/// Linear-interpolated percentile (P in [0, 100]) of \p V.
double percentile(std::vector<double> V, double P);

/// The highest percentile of {99, 95, 75, 50} that still has at least
/// ten samples beyond it (the median when fewer than 20). The rungs are
/// far apart so that each workload's sample count, which varies with
/// the machine's speed, stays on one rung: p75 for search-deep, p95 for
/// ci-corpus, p99 for serve-mixed.
struct Tail {
  double Pct = 50.0;
  double Value = 0.0;
  size_t Samples = 0;
};
Tail tailOf(const std::vector<double> &V);

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What a workload run hands back to main().
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable lines printed before the final JSON line.
  std::vector<std::string> Notes;
  /// Extra JSON members for the run record file.
  std::string RecordJson;
};

/// The rates of one stretch of the measured window. Rates are reported
/// as the median over slices, so a load spike on the machine moves one
/// slice, not the run's figure.
struct Slice {
  double Start = 0.0, End = 0.0;
  double Seconds = 0.0;
  /// StealScale::factor() over the slice; its rates and the latencies
  /// of requests that completed in it are scaled by it.
  double StealFactor = 1.0;
  double StealShare = 0.0;
  double CpuSeconds = 0.0;
  uint64_t Tus = 0;
  uint64_t RunsCommitted = 0;
};

/// One request's submit-to-verdict latency and when it completed.
struct Latency {
  double End = 0.0;
  double Ms = 0.0;
};

/// Accumulates the ten end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> SetupSeconds;
  std::vector<Latency> Latencies; ///< one per request (a batch in ci-corpus)
  std::vector<Slice> Slices;
  uint64_t Attempted = 0;
  uint64_t Verdicts = 0;
  uint64_t Correct = 0;
  uint64_t Decided = 0;
  /// The process's peak resident memory when the measured window
  /// ended: set-up and workload, not the reference check after it.
  double PeakRssMb = 0.0;

  /// Scales the set-up times by the steal factor of the set-up loop,
  /// which \p Since began.
  void scaleSetups(const StealScale &Since) {
    const double F = Since.factor();
    for (double &S : SetupSeconds)
      S *= F;
  }
  void add(const Graded &G) {
    ++Attempted;
    Verdicts += G.Verdict;
    Correct += G.Correct;
    Decided += G.Decided;
  }
  /// Adds the attempted/failed counts to \p R, and the ten metrics
  /// unless this is a traced run (which reports per-layer metrics).
  void emit(RunResult &R, bool Traced) const;
};

/// Grades \p O against \p P's known answer into \p E: a request
/// without a verdict is noted, a strict miss also fails \p R.
void tally(RunResult &R, EndToEnd &E, const Program &P,
           const cundef::DriverOutcome &O);

} // namespace kccbench

#endif // KCCBENCH_COMMON_H
