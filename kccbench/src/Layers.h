//===- kccbench/src/Layers.h - Per-layer accounting -------------*- C++ -*-===//
//
// Part of cundef's benchmark (kccbench).
//
// What the traced run measures, layer by layer:
//
//  * Probes. The frontend's phase classes (Preprocessor, Parser, Sema,
//    StaticChecker, FlowChecker) run on each traced unit in the order
//    compileTranslationUnit composes them, each inside its own span,
//    Machine::run executes the unit once in the default order, and the
//    serve codec encodes and decodes the request's frames. The engine
//    does the same work again for the request, so probe time is kept
//    out of the tracing-overhead figure.
//  * Engine jobs. A job's frontend and search intervals come from the
//    engine's own timers (DriverOutcome::FrontendMicros / SearchMicros):
//    the search ends at the verdict and the frontend ends where the
//    search starts. The search timer runs from hand-off to the pool, so
//    it includes waiting for a worker. A request's spans follow its
//    blocking path: an instant where any job's frontend ran belongs to
//    the frontend (one frontend worker serves the jobs in order, so it
//    holds up the request's last verdict), an instant where only
//    searches were pending belongs to the search, and the rest of the
//    request's span is queueing, the request's own ("bench") self time.
//  * Counters. Pool, translation-cache and result-cache counters are
//    read at the traced window's boundaries and reported as deltas.
//
//===----------------------------------------------------------------------===//

#ifndef KCCBENCH_LAYERS_H
#define KCCBENCH_LAYERS_H

#include "Common.h"
#include "Trace.h"

#include "driver/Request.h"
#include "text/Preprocessor.h"

#include <map>
#include <mutex>
#include <thread>

namespace kccbench {

class LayerStats {
public:
  /// Probes request \p Request, whose unit \p P the engine answered
  /// with \p O after \p WallMicros, under a root span: the frontend
  /// phases and one default-order machine run on the unit (unless the
  /// engine took it from its translation cache), the wire
  /// codec on the request's submit and finished frames, and, with
  /// \p Render, the unit's --json document. Returns false when the
  /// finished frame does not decode.
  bool probe(Tracer &T, const cundef::HeaderRegistry &Headers,
             const cundef::AnalysisRequest &Req, const Program &P,
             const cundef::DriverOutcome &O, double WallMicros, bool Render,
             uint64_t Request);

  /// One finished engine job: it ended at End after WallMicros.
  struct Job {
    const cundef::DriverOutcome *Outcome = nullptr;
    double WallMicros = 0;
    double End = 0;
  };
  /// Records a request's jobs: their frontend and search spans under
  /// \p Parent, and the per-job timings.
  void jobs(Tracer &T, const std::vector<Job> &Jobs, uint64_t Request,
            int64_t Parent);

  void jsonRendered(double Seconds, size_t Bytes, size_t Tus);
  /// Time from the engine's verdict to the requester seeing it: the
  /// wire and poll loop for a daemon, the job handle's wake-up in
  /// process.
  void serverOverhead(double Ms);

  /// Counter snapshots at a traced window's boundaries; the deltas of
  /// every traced window add up.
  void windowStart(const cundef::AnalysisEngine &E, uint64_t Rejected);
  void windowEnd(Tracer &T, const cundef::AnalysisEngine &E,
                 uint64_t Rejected);

  /// Appends every per-layer metric to \p R.
  void emit(RunResult &R, const Tracer &T, double OverheadPct) const;

private:
  mutable std::mutex Mu;
  uint64_t Probed = 0, Tokens = 0, MustFindings = 0;
  double PreS = 0, ParseS = 0, SemaS = 0, SyntacticS = 0, FlowS = 0;
  uint64_t MachineRuns = 0, Steps = 0;
  double MachineS = 0;
  std::vector<double> FrontendMs, QueueMs, SearchMs, MissCompileUs;
  double JsonS = 0;
  uint64_t JsonBytes = 0, JsonTus = 0;
  double EncodeS = 0, DecodeS = 0;
  uint64_t Messages = 0, MessageBytes = 0;
  std::vector<double> OverheadMs;
  // Window-start snapshots, and the summed deltas of traced windows.
  cundef::SchedulerStats Pool0;
  cundef::TranslationCacheStats TC0;
  cundef::ResultCacheStats RC0;
  uint64_t Rejected0 = 0;
  std::map<std::string, double> Deltas;
  uint64_t PeakFrontier = 0, CommitLagPeak = 0;
};

/// One measured window's totals.
struct Window {
  double Seconds = 0;
  double ProbeSeconds = 0; ///< spent in probes, not in the workload
  uint64_t Tus = 0;
};

/// A traced run: four quarter windows, untraced and traced in turn, so
/// drift over the run does not bias the comparison. \p RunWindow(S,
/// Traced) measures one window of S seconds. Returns the tracing
/// overhead in percent: how much faster the untraced windows completed
/// units than the traced ones did outside their probes.
template <typename Fn> double alternateWindows(double Seconds, Fn &&RunWindow) {
  Window Untraced, Traced;
  for (int I = 0; I < 4; ++I) {
    Window W = RunWindow(Seconds / 4, I % 2 == 1);
    Window &Acc = I % 2 ? Traced : Untraced;
    Acc.Seconds += W.Seconds;
    Acc.ProbeSeconds += W.ProbeSeconds;
    Acc.Tus += W.Tus;
  }
  double Plain = Untraced.Tus / Untraced.Seconds;
  double WithSpans = Traced.Tus / (Traced.Seconds - Traced.ProbeSeconds);
  return (Plain / WithSpans - 1.0) * 100.0;
}

/// Cuts an untraced window into slices (EndToEnd::Slices): each cut()
/// closes the slice since the previous one.
class Slicer {
public:
  Slicer(const cundef::AnalysisEngine &Eng, EndToEnd &E) : Eng(Eng), E(E) {
    Start = nowSeconds();
    Cpu = cpuSeconds();
    Runs = Eng.poolStats().RunsCommitted;
  }
  /// Seconds since the open slice began.
  double open() const { return nowSeconds() - Start; }

  /// Closes the open slice; \p Tus counts units finished in the window
  /// so far.
  void cut(uint64_t Tus) {
    Slice S;
    double Now = nowSeconds(), NowCpu = cpuSeconds();
    uint64_t NowRuns = Eng.poolStats().RunsCommitted;
    S.Seconds = Now - Start;
    S.CpuSeconds = NowCpu - Cpu;
    S.Tus = Tus - DoneTus;
    S.RunsCommitted = NowRuns - Runs;
    S.StealFactor = Steal.factor();
    S.StealShare =
        Steal.share(S.Seconds, std::thread::hardware_concurrency());
    S.Start = Start;
    S.End = Now;
    Steal = StealScale();
    if (S.Seconds > 0)
      E.Slices.push_back(S);
    Start = Now;
    Cpu = NowCpu;
    Runs = NowRuns;
    DoneTus = Tus;
  }

private:
  const cundef::AnalysisEngine &Eng;
  EndToEnd &E;
  double Start = 0, Cpu = 0;
  uint64_t Runs = 0, DoneTus = 0;
  StealScale Steal;
};

/// The measured part of a workload. \p Run(S, T, L, Cut) measures one
/// window of S seconds: traced when T and L are given, cut into slices
/// when Cut is. Untraced, one window of the run's length fills \p E.
/// Traced, alternateWindows() splits it and the traced windows' counter
/// deltas go to \p L; \p Rejected() reads the daemon's rejection
/// counter (0 without a daemon). Returns the tracing overhead in
/// percent (0 untraced).
template <typename RunFn, typename RejectedFn>
double measure(const Options &Opt, const cundef::AnalysisEngine &Eng,
               EndToEnd &E, Tracer &T, LayerStats &L, RunFn &&Run,
               RejectedFn &&Rejected) {
  if (Opt.Trace)
    return alternateWindows(Opt.Seconds, [&](double S, bool Traced) {
      if (!Traced)
        return Run(S, nullptr, nullptr, nullptr);
      L.windowStart(Eng, Rejected());
      Window W = Run(S, &T, &L, nullptr);
      L.windowEnd(T, Eng, Rejected());
      return W;
    });
  Slicer Cut(Eng, E);
  Run(Opt.Seconds, nullptr, nullptr, &Cut);
  E.PeakRssMb = peakRssMb();
  return 0.0;
}

} // namespace kccbench

#endif // KCCBENCH_LAYERS_H
