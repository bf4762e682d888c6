//===- kccbench/src/CiCorpus.cpp - The ci-corpus workload -----------------===//
//
// Part of cundef's benchmark (kccbench).
//
// A CI job over the paper's suites: thousands of small translation
// units with shallow searches, shuffled by the seed and submitted in
// batches (one CI job each, one job in flight) to one warm engine with
// default caches. Each batch's --json document is rendered the way CI
// consumes it. Preprocess, parse, sema, the static layers, engine
// queueing and JSON rendering dominate; the search layers do little.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Layers.h"
#include "Reference.h"
#include "Workloads.h"

#include "driver/JsonOutput.h"
#include "driver/Request.h"
#include "suites/JulietGen.h"

#include <memory>

using namespace cundef;

namespace kccbench {

namespace {

/// The shallow search the suite scorers give kcc (analysis/Tool.cpp):
/// most suite programs have more orders than this, so decided_rate
/// reads well below 1 here and shows any further cut.
constexpr unsigned SearchBudget = 8;
constexpr size_t BatchSize = 100;
constexpr int Setups = 9;

} // namespace

RunResult runCiCorpus(const Options &Opt) {
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(SearchBudget).buildOrDie();
  RunResult R;
  EndToEnd E;

  Rng Gen(Opt.Seed);
  std::vector<Program> Corpus;
  std::string Err;
  if (!ciCorpus(Gen, Opt.Tiny, "tests/suites/desktop", Corpus, Err)) {
    R.Correct = false;
    R.Notes.push_back(Err);
    return R;
  }

  // Set-up: engine construction, pool spawn and one warm-up batch of
  // Juliet-like programs under names the corpus never uses.
  std::vector<BatchInput> Warm;
  for (const TestCase &Test : JulietGenerator(64).generate()) {
    Warm.push_back({Test.Bad, "warmup/" + Test.Name + "_bad.c"});
    Warm.push_back({Test.Good, "warmup/" + Test.Name + "_good.c"});
  }
  std::unique_ptr<AnalysisEngine> Eng;
  const StealScale SetupSteal;
  for (int I = 0; I < Setups; ++I) {
    Eng.reset();
    double T0 = nowSeconds();
    Eng = std::make_unique<AnalysisEngine>(benchEngineConfig());
    for (JobHandle &H : Eng->submitBatch(Req, Warm))
      H.wait();
    E.SetupSeconds.push_back(nowSeconds() - T0);
  }
  E.scaleSetups(SetupSteal);
  R.Notes.push_back(heldOutNote(*Eng, Req));

  Sample Ref(Opt.Seed, 48);
  size_t Next = 0;
  unsigned Revision = 0;
  uint64_t RequestId = 0;

  auto Run = [&](double Seconds, Tracer *T, LayerStats *L, Slicer *Cut) {
    Window W;
    const double Start = nowSeconds();
    for (unsigned Done = 0;; ++Done) {
      if (Opt.Tiny ? Done >= 1 : nowSeconds() - Start >= Seconds)
        break;
      if (Next == Corpus.size()) {
        // The next CI job checks a new checkout of the suites: the same
        // files under new paths, so nothing is served from a cache.
        Gen.shuffle(Corpus);
        Next = 0;
        ++Revision;
      }
      const uint64_t Id = ++RequestId;
      const size_t End = std::min(Corpus.size(), Next + BatchSize);
      std::vector<Program> Batch(Corpus.begin() + Next, Corpus.begin() + End);
      std::vector<BatchInput> Inputs;
      for (Program &P : Batch) {
        P.Name = "rev" + std::to_string(Revision) + "/" + P.Name;
        Inputs.push_back({P.Source, P.Name});
      }
      std::vector<JobHandle> Jobs;
      {
        ScopedSpan Span(T, "bench.request", Id);
        const SchedulerStats Pool0 = Eng->poolStats();
        double S = nowSeconds();
        Jobs = Eng->submitBatch(Req, Inputs);
        for (JobHandle &H : Jobs)
          H.wait();
        double Finished = nowSeconds();
        E.Latencies.push_back({Finished, (Finished - S) * 1e3});

        // The job's --json document, as kcc --json renders it.
        ScopedSpan Render(T, "driver.json.render", Id, Span.id());
        double RS = nowSeconds();
        std::vector<JsonProgram> Docs;
        bool AnyUb = false, AnyCompileError = false;
        for (size_t I = 0; I < Jobs.size(); ++I) {
          const DriverOutcome &O = Jobs[I].wait();
          Docs.push_back({&O, Inputs[I].Name, Jobs[I].wallMicros(), "on"});
          AnyUb |= O.anyUb();
          AnyCompileError |= !O.CompileOk;
        }
        SchedulerStats Pool = Eng->poolStats();
        Pool.RunsCommitted -= Pool0.RunsCommitted;
        Pool.RunsExecuted -= Pool0.RunsExecuted;
        std::string Doc = renderJsonDocument(
            Docs, Pool, Eng->translationStats(), Eng->resultCacheStats(),
            (Finished - S) * 1e3, AnyUb ? 139 : AnyCompileError ? 1 : 0);
        if (L)
          L->jsonRendered(nowSeconds() - RS, Doc.size(), Jobs.size());

        std::vector<LayerStats::Job> Timings;
        double LastWall = 0;
        for (size_t I = 0; I < Jobs.size(); ++I) {
          const DriverOutcome &O = Jobs[I].wait();
          const Program &P = Batch[I];
          // Jobs finish in any order; each ended WallMicros after the
          // batch was submitted.
          Timings.push_back({&O, Jobs[I].wallMicros(),
                             S + Jobs[I].wallMicros() / 1e6});
          LastWall = std::max(LastWall, Jobs[I].wallMicros());
          tally(R, E, P, O);
          Ref.offer(P, O);
        }
        if (L) {
          L->jobs(*T, Timings, Id, Span.id());
          L->serverOverhead((Finished - S) * 1e3 - LastWall / 1e3);
        }
        // Reclaims the finished jobs' search state, as a service does
        // between jobs.
        Eng->drain();
      }
      if (L) {
        double S = nowSeconds();
        for (size_t I = 0; I < Batch.size(); ++I)
          if (!L->probe(*T, Eng->headers(), Req, Batch[I], Jobs[I].wait(),
                        Jobs[I].wallMicros(), false, Id)) {
            R.Correct = false;
            R.Notes.push_back("finished frame does not decode: " +
                              Batch[I].Name);
          }
        W.ProbeSeconds += nowSeconds() - S;
      }
      W.Tus += End - Next;
      Next = End;
      if (Cut && Cut->open() >= 1.0)
        Cut->cut(W.Tus);
    }
    if (Cut && (E.Slices.empty() || Cut->open() >= 0.5))
      Cut->cut(W.Tus);
    W.Seconds = nowSeconds() - Start;
    return W;
  };

  Tracer T;
  LayerStats L;
  const double OverheadPct =
      measure(Opt, *Eng, E, T, L, Run, [] { return uint64_t(0); });

  Eng.reset();

  if (!referenceCheck(Ref, Req, Err)) {
    R.Correct = false;
    R.Notes.push_back(Err);
  }
  if (Opt.Trace) {
    L.emit(R, T, OverheadPct);
    R.RecordJson = T.toJson();
  }
  E.emit(R, Opt.Trace);
  return R;
}

} // namespace kccbench
