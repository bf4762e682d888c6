//===- tests/test_engine.cpp - AnalysisEngine service-layer tests -------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The persistent engine (driver/Engine.h) is the single submission
// path every entry point adapts to, so two properties carry the whole
// redesign:
//
//  * Request validation is total and typed: the builder rejects
//    nonsense combinations (zero budgets, absurd pools) once, at build
//    time, instead of every call site clamping differently.
//  * Pool persistence is invisible in the results: repeated submit()
//    batches through ONE engine — its worker pool, visited-set
//    generations, and snapshot cache reused across batches — produce
//    outcomes byte-identical to fresh per-batch drivers, at forced
//    worker counts 1 and 8 (the hardware clamp disabled so 8 really
//    means 8 interleaving workers, even on 1-core CI). Under
//    -DCUNDEF_TSAN=ON this suite runs instrumented (ctest -L tsan).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/ToolRunner.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace cundef;

namespace {

/// The batch every persistence round resubmits: order-dependent UB,
/// program output + exit code, a compile error, commuting clean trees.
const std::vector<BatchInput> &corpus() {
  static const std::vector<BatchInput> Inputs = {
      {"int d = 5;\n"
       "int setDenom(int x) { return d = x; }\n"
       "int main(void) { return (10 / d) + setDenom(0); }\n",
       "paper.c"},
      {"#include <stdio.h>\n"
       "int main(void) { printf(\"out-%d\\n\", 42); return 7; }\n",
       "hello.c"},
      {"int main(void) { return 0 }\n", "broken.c"},
      {"int a = 1;\n"
       "int set(int v) { a = v; return 0; }\n"
       "int main(void) { return (8 / a) + (set(0) + set(1)); }\n",
       "nested.c"},
      {"static int g(int x) { return x + 1; }\n"
       "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
       "  t += g(4) + g(5); return t > 0 ? 0 : 1; }\n",
       "commute.c"},
  };
  return Inputs;
}

void expectIdentical(const DriverOutcome &A, const DriverOutcome &B,
                     const std::string &Tag) {
  EXPECT_EQ(A.CompileOk, B.CompileOk) << Tag;
  EXPECT_EQ(A.CompileErrors, B.CompileErrors) << Tag;
  EXPECT_EQ(A.Status, B.Status) << Tag;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << Tag;
  EXPECT_EQ(A.Output, B.Output) << Tag;
  EXPECT_EQ(A.SearchWitness, B.SearchWitness) << Tag;
  EXPECT_EQ(A.OrdersExplored, B.OrdersExplored) << Tag;
  EXPECT_EQ(A.OrdersDeduped, B.OrdersDeduped) << Tag;
  EXPECT_EQ(A.SearchTruncated, B.SearchTruncated) << Tag;
  EXPECT_EQ(A.SearchDropped, B.SearchDropped) << Tag;
  EXPECT_EQ(A.SearchPeakFrontier, B.SearchPeakFrontier) << Tag;
  EXPECT_EQ(A.renderReport(), B.renderReport()) << Tag;
  ASSERT_EQ(A.DynamicUb.size(), B.DynamicUb.size()) << Tag;
  for (size_t I = 0; I < A.DynamicUb.size(); ++I) {
    EXPECT_EQ(A.DynamicUb[I].Kind, B.DynamicUb[I].Kind) << Tag;
    EXPECT_EQ(A.DynamicUb[I].Loc.Line, B.DynamicUb[I].Loc.Line) << Tag;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Request builder validation.
//===----------------------------------------------------------------------===//

TEST(RequestBuilder, DefaultsAreValid) {
  AnalysisRequest::Builder B;
  auto R = B.build();
  ASSERT_TRUE(R.ok()) << R.Err.Message;
  EXPECT_EQ(R.Request.searchRuns(), 1u);
  EXPECT_EQ(R.Request.searchJobs(), 1u);
  EXPECT_TRUE(R.Request.staticChecks());
  EXPECT_TRUE(R.Request.searchDedup());
}

TEST(RequestBuilder, RejectsZeroSearchBudget) {
  auto R = AnalysisRequest::Builder().searchRuns(0).build();
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, RequestError::Code::ZeroSearchBudget);
  EXPECT_NE(R.Err.Message.find("budget"), std::string::npos);
}

TEST(RequestBuilder, RejectsOversizedWorkerCounts) {
  auto Bad = AnalysisRequest::Builder().searchJobs(MaxSearchJobs + 1).build();
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.Err.Kind, RequestError::Code::OversizedSearchJobs);
  // The cap itself and the auto-detect sentinel are both fine.
  EXPECT_TRUE(AnalysisRequest::Builder().searchJobs(MaxSearchJobs).build().ok());
  EXPECT_TRUE(AnalysisRequest::Builder().searchJobs(0).build().ok());
}

TEST(RequestBuilder, RejectsMachinesThatCannotStep) {
  MachineOptions NoFuel;
  NoFuel.StepLimit = 0;
  auto R1 = AnalysisRequest::Builder().machine(NoFuel).build();
  ASSERT_FALSE(R1.ok());
  EXPECT_EQ(R1.Err.Kind, RequestError::Code::ZeroStepLimit);

  MachineOptions NoStack;
  NoStack.MaxCallDepth = 0;
  auto R2 = AnalysisRequest::Builder().machine(NoStack).build();
  ASSERT_FALSE(R2.ok());
  EXPECT_EQ(R2.Err.Kind, RequestError::Code::ZeroCallDepth);
}

TEST(RequestBuilder, BuiltRequestIsReusable) {
  // "Validated once, reused across submissions": one request drives
  // many drivers and many runs without re-validation or drift.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(16).buildOrDie();
  Driver D1(Req), D2(Req);
  DriverOutcome A = D1.runSource(corpus()[0].Source, "a.c");
  DriverOutcome B = D2.runSource(corpus()[0].Source, "a.c");
  expectIdentical(A, B, "one request, two drivers");
  EXPECT_TRUE(A.anyUb());
}

//===----------------------------------------------------------------------===//
// Engine persistence.
//===----------------------------------------------------------------------===//

TEST(Engine, PersistentPoolMatchesFreshBatches) {
  // Three consecutive batches through one engine vs a fresh engine per
  // batch: byte-identical outcomes (witnesses, reports, dedup hits) at
  // forced worker counts 1 and 8.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  for (unsigned Workers : {1u, 8u}) {
    EngineConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.ClampWorkersToHardware = false;

    AnalysisEngine Reused(Cfg);
    for (int Round = 0; Round < 3; ++Round) {
      AnalysisEngine Fresh(Cfg);
      std::vector<JobHandle> Ref = Fresh.submitBatch(Req, corpus());
      std::vector<JobHandle> Got = Reused.submitBatch(Req, corpus());
      ASSERT_EQ(Ref.size(), Got.size());
      for (size_t I = 0; I < Ref.size(); ++I) {
        DriverOutcome A = Ref[I].take();
        DriverOutcome B = Got[I].take();
        expectIdentical(A, B,
                        corpus()[I].Name + " workers=" +
                            std::to_string(Workers) + " round=" +
                            std::to_string(Round));
      }
      // Between batches the service reclaims search state; results of
      // the next round must not notice.
      Reused.drain();
    }
  }
}

TEST(Engine, PeakFrontierIsPerProgram) {
  // A program's peak frontier is its own search's largest generation,
  // not the pool's queued-task peak: a small program reports the same
  // number on a fresh engine as after a large program on a shared one.
  const std::string Small = "static int g(int x) { return x + 1; }\n"
                            "int main(void) { return g(1) + g(2) > 0; }\n";
  std::string Large = "static int g(int x) { return x + 1; }\n"
                      "int main(void) { int t = g(0)";
  for (int I = 1; I < 8; ++I)
    Large += " + g(" + std::to_string(I) + ")";
  Large += "; return t > 0 ? 0 : 1; }\n";
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(5000).buildOrDie();
  EngineConfig Cfg;
  Cfg.Workers = 1;

  AnalysisEngine Fresh(Cfg);
  const unsigned Alone =
      Fresh.submit(Req, Small, "small.c").take().SearchPeakFrontier;
  AnalysisEngine Shared(Cfg);
  const DriverOutcome LargeO = Shared.submit(Req, Large, "large.c").take();
  const DriverOutcome SmallO = Shared.submit(Req, Small, "small.c").take();
  EXPECT_GT(LargeO.SearchPeakFrontier, Alone);
  EXPECT_EQ(SmallO.SearchPeakFrontier, Alone);
}

TEST(Engine, DriverFacadeMatchesDirectSubmission) {
  // The blocking Driver adapters add nothing to the outcome.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  Driver Drv(Req);
  AnalysisEngine Eng(engineConfigFor(Req));
  for (const BatchInput &In : corpus()) {
    DriverOutcome A = Drv.runSource(In.Source, In.Name);
    DriverOutcome B = Eng.submit(Req, In.Source, In.Name).take();
    expectIdentical(A, B, In.Name);
  }
}

//===----------------------------------------------------------------------===//
// Streaming events and job handles.
//===----------------------------------------------------------------------===//

namespace {

/// Thread-safe counting sink (callbacks fire on worker threads).
struct CountingSink : EngineSink {
  std::atomic<unsigned> Finished{0};
  std::atomic<unsigned> UbEvents{0};
  std::atomic<unsigned> Truncations{0};
  std::atomic<unsigned> EmptyReportEvents{0};
  std::atomic<unsigned> NonPositiveWalls{0};

  void onProgramFinished(const EngineJobInfo &Job,
                         const DriverOutcome &Outcome,
                         double WallMicros) override {
    Finished.fetch_add(1);
    if (WallMicros <= 0.0)
      NonPositiveWalls.fetch_add(1);
  }
  void onUbFound(const EngineJobInfo &Job,
                 const std::vector<UbReport> &Reports) override {
    UbEvents.fetch_add(1);
    if (Reports.empty())
      EmptyReportEvents.fetch_add(1);
  }
  void onFrontierTruncated(const EngineJobInfo &Job,
                           unsigned DroppedSubtrees) override {
    Truncations.fetch_add(1);
  }
};

} // namespace

TEST(Engine, SinkStreamsPerJobEvents) {
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  AnalysisEngine Eng;
  CountingSink Sink;
  std::vector<JobHandle> Handles = Eng.submitBatch(Req, corpus(), &Sink);
  Eng.drain();
  EXPECT_EQ(Sink.Finished.load(), corpus().size());
  // paper.c and nested.c are undefined by order.
  EXPECT_EQ(Sink.UbEvents.load(), 2u);
  EXPECT_EQ(Sink.EmptyReportEvents.load(), 0u);
  EXPECT_EQ(Sink.NonPositiveWalls.load(), 0u);
  for (JobHandle &H : Handles) {
    EXPECT_TRUE(H.done());
    EXPECT_GT(H.wallMicros(), 0.0);
  }
}

TEST(Engine, SinkReportsFrontierTruncation) {
  // A 2-run budget cannot cover commute.c's first wave: the truncation
  // event must fire (the verdict is not exhaustive).
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(2).buildOrDie();
  AnalysisEngine Eng;
  CountingSink Sink;
  DriverOutcome O =
      Eng.submit(Req, corpus()[4].Source, corpus()[4].Name, &Sink).take();
  EXPECT_TRUE(O.SearchTruncated);
  EXPECT_GT(O.SearchDropped, 0u);
  EXPECT_EQ(Sink.Truncations.load(), 1u);
  EXPECT_EQ(Sink.Finished.load(), 1u);
}

TEST(Engine, PerJobMicrosAreHonest) {
  // The batched tool runner's Micros comes from per-job completion
  // timestamps now, not from dividing batch wall-clock evenly: every
  // job reports a positive wall time of its own.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(16).searchJobs(2).buildOrDie();
  std::vector<ToolResult> Results = runKccBatched(Req, corpus());
  ASSERT_EQ(Results.size(), corpus().size());
  for (const ToolResult &R : Results)
    EXPECT_GT(R.Micros, 0.0);
  EXPECT_TRUE(Results[0].flagged());  // paper.c
  EXPECT_FALSE(Results[4].flagged()); // commute.c
  EXPECT_EQ(Results[1].Output, "out-42\n");
}

//===----------------------------------------------------------------------===//
// Shutdown semantics.
//===----------------------------------------------------------------------===//

TEST(Engine, ShutdownIsGracefulAndFinal) {
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(16).buildOrDie();
  AnalysisEngine Eng;
  JobHandle H = Eng.submit(Req, corpus()[0].Source, "pre.c");
  Eng.shutdown(); // drains outstanding work first
  EXPECT_TRUE(H.done());
  EXPECT_TRUE(H.wait().anyUb());
  EXPECT_TRUE(Eng.isShutdown());

  // Submissions after shutdown are rejected, not analyzed.
  JobHandle Rejected = Eng.submit(Req, corpus()[1].Source, "post.c");
  EXPECT_TRUE(Rejected.done());
  const DriverOutcome &O = Rejected.wait();
  EXPECT_FALSE(O.CompileOk);
  EXPECT_EQ(O.Status, RunStatus::Internal);
  EXPECT_NE(O.CompileErrors.find("shut down"), std::string::npos);

  Eng.shutdown(); // idempotent
  Eng.drain();    // harmless on a stopped engine
}
