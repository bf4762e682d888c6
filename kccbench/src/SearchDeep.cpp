//===- kccbench/src/SearchDeep.cpp - The search-deep workload -------------===//
//
// Part of cundef's benchmark (kccbench).
//
// One developer checking hard files one at a time: a closed loop with
// one client and one request in flight, over deep trees with distinct
// salts, so no cache ever hits. The machine, fingerprinting, snapshot
// fork/replay and the commit wavefront do nearly all the work.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Layers.h"
#include "Reference.h"
#include "Workloads.h"

#include "driver/Request.h"

#include <memory>

using namespace cundef;

namespace kccbench {

namespace {

constexpr unsigned SearchBudget = 5000;
constexpr int Setups = 9;

} // namespace

RunResult runSearchDeep(const Options &Opt) {
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(SearchBudget).buildOrDie();
  RunResult R;
  EndToEnd E;

  // Set-up: engine construction, pool spawn (lazy, on the first
  // submission) and one small warm-up search.
  const Program Warm = deepTree(4, 64, 0, 3, false, "warmup.c");
  std::unique_ptr<AnalysisEngine> Eng;
  const StealScale SetupSteal;
  for (int I = 0; I < Setups; ++I) {
    Eng.reset();
    double T0 = nowSeconds();
    Eng = std::make_unique<AnalysisEngine>(benchEngineConfig());
    Eng->submit(Req, Warm.Source, Warm.Name).wait();
    E.SetupSeconds.push_back(nowSeconds() - T0);
  }
  E.scaleSetups(SetupSteal);


  Rng Gen(Opt.Seed);
  Sample Ref(Opt.Seed, 2);
  unsigned Cycle = 0;
  uint64_t RequestId = 0;

  // Whole cycles only, so every window measures the same size mix.
  auto Run = [&](double Seconds, Tracer *T, LayerStats *L, Slicer *Cut) {
    Window W;
    const double Start = nowSeconds();
    for (unsigned Done = 0;; ++Done) {
      if (Opt.Tiny ? Done >= 1 : nowSeconds() - Start >= Seconds)
        break;
      for (const Program &P : searchDeepCycle(Gen, Cycle++, Opt.Tiny)) {
        const uint64_t Id = ++RequestId;
        JobHandle H;
        {
          ScopedSpan Span(T, "bench.request", Id);
          double S = nowSeconds();
          H = Eng->submit(Req, P.Source, P.Name);
          const DriverOutcome &O = H.wait();
          double End = nowSeconds();
          E.Latencies.push_back({End, (End - S) * 1e3});
          if (L) {
            L->jobs(*T, {{&O, H.wallMicros(), End}}, Id, Span.id());
            L->serverOverhead((End - S) * 1e3 - H.wallMicros() / 1e3);
          }
          tally(R, E, P, O);
          Ref.offer(P, O);
        }
        // Reclaims the finished job's search state, as a service does
        // between requests.
        Eng->drain();
        ++W.Tus;
        if (L) {
          double S = nowSeconds();
          if (!L->probe(*T, Eng->headers(), Req, P, H.wait(), H.wallMicros(),
                        true, Id)) {
            R.Correct = false;
            R.Notes.push_back("finished frame does not decode: " + P.Name);
          }
          W.ProbeSeconds += nowSeconds() - S;
        }
      }
      if (Cut) // one slice per cycle: every slice measures the same mix
        Cut->cut(W.Tus);
    }
    W.Seconds = nowSeconds() - Start;
    return W;
  };

  Tracer T;
  LayerStats L;
  const double OverheadPct =
      measure(Opt, *Eng, E, T, L, Run, [] { return uint64_t(0); });

  Eng.reset();

  std::string Why;
  if (!referenceCheck(Ref, Req, Why)) {
    R.Correct = false;
    R.Notes.push_back(Why);
  }
  if (Opt.Trace) {
    L.emit(R, T, OverheadPct);
    R.RecordJson = T.toJson();
  }
  E.emit(R, Opt.Trace);
  return R;
}

} // namespace kccbench
