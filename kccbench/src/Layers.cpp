//===- kccbench/src/Layers.cpp - Per-layer accounting ---------------------===//
//
// Part of cundef's benchmark (kccbench).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "core/Machine.h"
#include "driver/JsonOutput.h"
#include "libc/Builtins.h"
#include "parse/Parser.h"
#include "sema/Sema.h"
#include "serve/Protocol.h"
#include "static/FlowChecker.h"
#include "ub/StaticChecks.h"

#include <algorithm>

using namespace cundef;

namespace kccbench {

bool LayerStats::probe(Tracer &T, const HeaderRegistry &Headers,
                       const AnalysisRequest &Req, const Program &P,
                       const DriverOutcome &O, double WallMicros,
                       bool Render, uint64_t Request) {
  ScopedSpan Root(&T, "bench.probe", Request);
  StringInterner Interner;
  DiagnosticEngine Diags;
  std::unique_ptr<AstContext> Ast;
  UbSink StaticSink, HintSink;
  double Pre = 0, Parse = 0, Sema_ = 0, Syn = 0, Flow = 0;
  size_t Toks = 0;
  auto Timed = [&](const char *Name, int64_t Parent, double &Acc, auto &&Fn) {
    int64_t Id = T.begin(Name, Request, Parent);
    double Start = nowSeconds();
    Fn();
    Acc += nowSeconds() - Start;
    T.end(Id);
  };
  // A unit the engine took from its translation cache ran neither the
  // frontend nor, on a result-cache hit, the machine; its probe skips
  // them too, so layer times are work the requests really caused.
  const bool Frontend = !O.TranslationCacheHit;
  bool Compiled = false;
  if (Frontend) {
    ScopedSpan Compile(&T, "frontend.compile", Request, Root.id());
    std::vector<Token> Stream;
    Timed("text.preprocess", Compile.id(), Pre, [&] {
      Preprocessor PP(Interner, Diags, Headers);
      Stream = PP.run(P.Source, P.Name);
    });
    Toks = Stream.size();
    if (!Diags.hasErrors()) {
      Ast = std::make_unique<AstContext>(TargetConfig::lp64(), Interner);
      bool ParseOk = false;
      Timed("parse.parse", Compile.id(), Parse, [&] {
        Parser Pr(std::move(Stream), *Ast, Diags);
        ParseOk = Pr.parseTranslationUnit();
      });
      if (ParseOk) {
        Timed("sema.sema", Compile.id(), Sema_, [&] {
          Sema S(*Ast, Diags, StaticSink);
          S.run();
        });
        assignBuiltinIds(*Ast);
        Timed("static.syntactic", Compile.id(), Syn, [&] {
          StaticChecker Checker(*Ast, StaticSink);
          Checker.run();
        });
        if (!Diags.hasErrors())
          Timed("static.flow", Compile.id(), Flow, [&] {
            FlowChecker Checker(*Ast, StaticSink, HintSink);
            Checker.run();
          });
        Compiled = !Diags.hasErrors();
      }
    }
  }
  uint64_t RunSteps = 0;
  double RunS = 0;
  bool Ran = false;
  if (Compiled) {
    Timed("core.machine.run", Root.id(), RunS, [&] {
      UbSink RunSink;
      Machine M(*Ast, MachineOptions(), RunSink);
      M.run();
      RunSteps = M.config().Steps;
    });
    Ran = true;
  }
  // The frames kcc --remote and kcc-serve exchange for this request.
  double Encode = 0, Decode = 0;
  std::string Submit, Finished;
  Timed("serve.protocol.encode", Root.id(), Encode, [&] {
    Submit = submitFrame(Request, P.Name, P.Source, Req);
    Finished = finishedFrame(Request, O, WallMicros);
  });
  bool Decoded = false;
  Timed("serve.protocol.decode", Root.id(), Decode, [&] {
    JsonValue V;
    DriverOutcome Back;
    std::string Err;
    Decoded = JsonValue::parse(Finished, V, Err) && V.get("outcome") &&
              parseOutcome(*V.get("outcome"), Back, Err);
  });
  if (Render) {
    double Rendered = 0;
    size_t Bytes = 0;
    Timed("driver.json.render", Root.id(), Rendered, [&] {
      Bytes = renderJsonDocument({{&O, P.Name, WallMicros, "on"}},
                                 SchedulerStats(), TranslationCacheStats(),
                                 ResultCacheStats(), WallMicros / 1e3,
                                 O.anyUb() ? 139 : O.CompileOk ? 0 : 1)
                  .size();
    });
    jsonRendered(Rendered, Bytes, 1);
  }

  std::lock_guard<std::mutex> Lock(Mu);
  EncodeS += Encode;
  DecodeS += Decode;
  Messages += 2;
  MessageBytes += Submit.size() + Finished.size();
  Probed += Frontend;
  Tokens += Toks;
  MustFindings += StaticSink.all().size();
  PreS += Pre;
  ParseS += Parse;
  SemaS += Sema_;
  SyntacticS += Syn;
  FlowS += Flow;
  if (Ran) {
    ++MachineRuns;
    Steps += RunSteps;
    MachineS += RunS;
  }
  return Decoded;
}

using Interval = std::pair<double, double>;

/// Sorted, disjoint union of \p V.
static std::vector<Interval> unite(std::vector<Interval> V) {
  std::sort(V.begin(), V.end());
  std::vector<Interval> Out;
  for (const Interval &I : V) {
    if (I.second <= I.first)
      continue;
    if (!Out.empty() && I.first <= Out.back().second)
      Out.back().second = std::max(Out.back().second, I.second);
    else
      Out.push_back(I);
  }
  return Out;
}

/// \p A minus \p B, both sorted and disjoint.
static std::vector<Interval> subtract(const std::vector<Interval> &A,
                                      const std::vector<Interval> &B) {
  std::vector<Interval> Out;
  for (Interval I : A) {
    for (const Interval &X : B) {
      if (X.second <= I.first || X.first >= I.second)
        continue;
      if (X.first > I.first)
        Out.push_back({I.first, X.first});
      I.first = std::max(I.first, X.second);
      if (I.first >= I.second)
        break;
    }
    if (I.first < I.second)
      Out.push_back(I);
  }
  return Out;
}

void LayerStats::jobs(Tracer &T, const std::vector<Job> &Jobs,
                      uint64_t Request, int64_t Parent) {
  std::vector<Interval> Front, Search;
  std::lock_guard<std::mutex> Lock(Mu);
  for (const Job &J : Jobs) {
    const DriverOutcome &O = *J.Outcome;
    const double Wall = J.WallMicros / 1e6;
    const double S = O.ResultCacheHit ? 0.0 : O.SearchMicros / 1e6;
    const double F = O.FrontendMicros / 1e6;
    Front.push_back({J.End - S - F, J.End - S});
    Search.push_back({J.End - S, J.End});
    FrontendMs.push_back(F * 1e3);
    QueueMs.push_back(std::max(0.0, Wall - F - S) * 1e3);
    if (S > 0)
      SearchMs.push_back(S * 1e3);
    if (!O.TranslationCacheHit && !O.ResultCacheHit)
      MissCompileUs.push_back(O.FrontendMicros);
  }
  Front = unite(Front);
  for (const Interval &I : Front)
    T.add("frontend.engine", I.first, I.second, Request, Parent);
  for (const Interval &I : subtract(unite(Search), Front))
    T.add("core.scheduler.search", I.first, I.second, Request, Parent);
}

void LayerStats::jsonRendered(double Seconds, size_t Bytes, size_t Tus) {
  std::lock_guard<std::mutex> Lock(Mu);
  JsonS += Seconds;
  JsonBytes += Bytes;
  JsonTus += Tus;
}

void LayerStats::serverOverhead(double Ms) {
  std::lock_guard<std::mutex> Lock(Mu);
  OverheadMs.push_back(Ms);
}

void LayerStats::windowStart(const AnalysisEngine &E, uint64_t Rejected) {
  Pool0 = E.poolStats();
  TC0 = E.translationStats();
  RC0 = E.resultCacheStats();
  Rejected0 = Rejected;
}

void LayerStats::windowEnd(Tracer &T, const AnalysisEngine &E,
                           uint64_t Rejected) {
  const SchedulerStats P = E.poolStats();
  const TranslationCacheStats TC = E.translationStats();
  const ResultCacheStats RC = E.resultCacheStats();
  const uint64_t TcSkips = TC.Hits + TC.InflightJoins;
  const uint64_t TcSkips0 = TC0.Hits + TC0.InflightJoins;
  const uint64_t RcSkips = RC.Hits + RC.InflightJoins;
  const uint64_t RcSkips0 = RC0.Hits + RC0.InflightJoins;
  const std::pair<const char *, uint64_t> Window[] = {
      {"core.scheduler.runs_executed", P.RunsExecuted - Pool0.RunsExecuted},
      {"core.scheduler.runs_committed",
       P.RunsCommitted - Pool0.RunsCommitted},
      {"core.scheduler.snapshot_takes",
       P.SnapshotTakes - Pool0.SnapshotTakes},
      {"core.scheduler.snapshot_hits", P.SnapshotHits - Pool0.SnapshotHits},
      {"core.scheduler.evictions",
       P.SnapshotEvictions - Pool0.SnapshotEvictions},
      {"core.scheduler.steals", P.Steals - Pool0.Steals},
      {"core.scheduler.dedup_hits", P.DedupHits - Pool0.DedupHits},
      {"frontend.tcache_lookups", TC.Lookups - TC0.Lookups},
      {"frontend.tcache_skips", TcSkips - TcSkips0},
      {"frontend.tcache_joins", TC.InflightJoins - TC0.InflightJoins},
      {"driver.result_cache.lookups", RC.Lookups - RC0.Lookups},
      {"driver.result_cache.skips", RcSkips - RcSkips0},
      {"driver.result_cache.joins", RC.InflightJoins - RC0.InflightJoins},
      {"serve.server.rejected", Rejected - Rejected0},
  };
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &[Name, Delta] : Window) {
    Deltas[Name] += double(Delta);
    T.count(Name, double(Delta));
  }
  PeakFrontier = std::max<uint64_t>(PeakFrontier, P.PeakFrontier);
  CommitLagPeak = std::max<uint64_t>(CommitLagPeak, P.CommitLagPeak);
}

void LayerStats::emit(RunResult &R, const Tracer &T,
                      double OverheadPct) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto Add = [&](const char *Name, double V, const char *Unit) {
    R.Metrics.push_back({Name, V, Unit});
  };
  auto PerTu = [&](double S) { return Probed ? S * 1e6 / Probed : 0.0; };
  auto Mean = [](const std::vector<double> &V) {
    double S = 0;
    for (double X : V)
      S += X;
    return V.empty() ? 0.0 : S / V.size();
  };
  Add("text.preprocess_us", PerTu(PreS), "us");
  Add("text.tokens_per_s", PreS > 0 ? Tokens / PreS : 0.0, "1/s");
  Add("parse.parse_us", PerTu(ParseS), "us");
  Add("sema.sema_us", PerTu(SemaS), "us");
  Add("static.syntactic_us", PerTu(SyntacticS), "us");
  Add("static.flow_us", PerTu(FlowS), "us");
  Add("static.must_findings", double(MustFindings), "count");
  Add("frontend.compile_us", Mean(MissCompileUs), "us");

  auto D = [&](const char *Name) {
    auto It = Deltas.find(Name);
    return It == Deltas.end() ? 0.0 : It->second;
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  Add("frontend.tcache_hit_rate",
      Ratio(D("frontend.tcache_skips"), D("frontend.tcache_lookups")), "ratio");
  Add("frontend.tcache_joins", D("frontend.tcache_joins"), "count");

  Add("core.machine.steps_per_s", MachineS > 0 ? Steps / MachineS : 0.0,
      "1/s");
  Add("core.machine.steps_per_run",
      MachineRuns ? double(Steps) / MachineRuns : 0.0, "count");

  const double Exec = D("core.scheduler.runs_executed");
  const double Commit = D("core.scheduler.runs_committed");
  Add("core.scheduler.search_ms_p50", percentile(SearchMs, 50), "ms");
  Add("core.scheduler.runs_executed", Exec, "count");
  Add("core.scheduler.runs_committed", Commit, "count");
  Add("core.scheduler.waste_ratio", Ratio(Exec - Commit, Commit), "ratio");
  Add("core.scheduler.fork_ratio",
      Ratio(D("core.scheduler.snapshot_hits"),
            D("core.scheduler.snapshot_takes")),
      "ratio");
  Add("core.scheduler.evictions", D("core.scheduler.evictions"), "count");
  Add("core.scheduler.steals", D("core.scheduler.steals"), "count");
  Add("core.scheduler.dedup_hits", D("core.scheduler.dedup_hits"), "count");
  Add("core.scheduler.peak_frontier", double(PeakFrontier), "count");
  Add("core.scheduler.commit_lag_peak", double(CommitLagPeak), "count");

  Add("driver.engine.frontend_ms_p50", percentile(FrontendMs, 50), "ms");
  Add("driver.engine.queue_ms_p50", percentile(QueueMs, 50), "ms");
  Add("driver.result_cache.hit_rate",
      Ratio(D("driver.result_cache.skips"), D("driver.result_cache.lookups")),
      "ratio");
  Add("driver.result_cache.joins", D("driver.result_cache.joins"), "count");
  Add("driver.json.render_us_per_tu", JsonTus ? JsonS * 1e6 / JsonTus : 0.0,
      "us");
  Add("driver.json.bytes_per_tu", JsonTus ? double(JsonBytes) / JsonTus : 0.0,
      "B");

  Add("serve.protocol.encode_us", Messages ? EncodeS * 1e6 / Messages : 0.0,
      "us");
  Add("serve.protocol.decode_us", Messages ? DecodeS * 1e6 / Messages : 0.0,
      "us");
  Add("serve.protocol.bytes_per_msg",
      Messages ? double(MessageBytes) / Messages : 0.0, "B");
  Add("serve.server.overhead_ms_p50", percentile(OverheadMs, 50), "ms");
  Add("serve.server.rejected", D("serve.server.rejected"), "count");

  // Shares of the time layers worked: the "bench" layer's self time is
  // the benchmark's own loop and the requests' queueing, not a layer's.
  std::map<std::string, double> Layers = T.selfByLayer();
  double Total = 0, Core = Layers["core"], Front = 0;
  for (const auto &[Name, Sec] : Layers)
    if (Name != "bench")
      Total += Sec;
  for (const char *L : {"text", "parse", "sema", "static", "frontend"})
    Front += Layers[L];
  Add("trace.core_self_share", Total > 0 ? Core / Total : 0.0, "ratio");
  Add("trace.frontend_self_share", Total > 0 ? Front / Total : 0.0, "ratio");
  Add("trace.overhead_pct", OverheadPct, "%");
}

} // namespace kccbench
