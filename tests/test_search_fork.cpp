//===- tests/test_search_fork.cpp - Fork-vs-replay equivalence ----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The fork engine (core/Search.h: children resume from configuration
// snapshots captured at their choice points) must be observationally
// identical to forced prefix replay (SnapshotBudget = 0): same decision
// traces, same fingerprint streams, same witnesses, at any job count.
// This suite asserts that equivalence on the seed UB-sequence programs,
// plus the foundations it rests on: incremental fingerprints equal
// full-state rehashes at every choice point, and the visited-set key
// does not alias structured (depth, fingerprint) pairs.
//
//===----------------------------------------------------------------------===//

#include "core/Search.h"
#include "driver/Driver.h"
#include "reference/WaveSearch.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <set>

using namespace cundef;

namespace {

/// Seed UB-sequence and order-dependence programs (tests/test_ub_sequence
/// and the paper's section 2.5.2 example), plus defined controls: the
/// corpus every engine comparison runs over.
const char *Corpus[] = {
    // Order-dependent division by zero (paper 2.5.2).
    "int d = 5;\n"
    "int setDenom(int x) { return d = x; }\n"
    "int main(void) { return (10 / d) + setDenom(0); }\n",
    // Unsequenced read/write pairs.
    "int main(void) { int x = 1; return x + x++; }\n",
    "int main(void) { int i = 0; i = i++; return i; }\n",
    "int main(void) { int x = 0; return (x = 1) + (x = 2); }\n",
    "static int f(int a, int b) { return a + b; }\n"
    "int main(void) { int x = 0; return f(x = 1, x = 2); }\n",
    // Nested order dependence: needs two flips.
    "int a = 1;\n"
    "int set(int v) { a = v; return 0; }\n"
    "int main(void) { return (8 / a) + (set(0) + set(1)); }\n",
    // Defined controls with commuting choice points.
    "static int f(void) { return 1; }\n"
    "static int g(void) { return 2; }\n"
    "int main(void) { return f() + g() - 3; }\n",
    "static int g(int x) { return x + 1; }\n"
    "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
    "  t += g(4) + g(5); return t > 0 ? 0 : 1; }\n",
};

SearchResult searchWith(const Driver::Compiled &C, SearchOptions SO) {
  MachineOptions Opts;
  OrderSearch Search(C->ast(), Opts, SO);
  return Search.run();
}

void expectSameVerdict(const SearchResult &A, const SearchResult &B,
                       const char *Source) {
  EXPECT_EQ(A.UbFound, B.UbFound) << Source;
  EXPECT_EQ(A.Witness, B.Witness) << Source;
  ASSERT_EQ(A.Reports.size(), B.Reports.size()) << Source;
  for (size_t I = 0; I < A.Reports.size(); ++I) {
    EXPECT_EQ(A.Reports[I].Kind, B.Reports[I].Kind) << Source;
    EXPECT_EQ(A.Reports[I].Loc.Line, B.Reports[I].Loc.Line) << Source;
  }
}

} // namespace

TEST(ForkSearch, EquivalentToReplayAtJobs1) {
  // At one thread everything is deterministic, so the comparison is
  // total: every run's pinned prefix, full decision trace, fingerprint
  // stream, status, and dedup outcome must match between engines. Only
  // the Forked start-mode marker may differ.
  for (const char *Source : Corpus) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "fork1.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions Fork;
    Fork.MaxRuns = 256;
    Fork.Jobs = 1;
    Fork.CollectRuns = true;
    SearchOptions Replay = Fork;
    Replay.SnapshotBudget = 0;

    SearchResult RF = searchWith(C, Fork);
    SearchResult RR = searchWith(C, Replay);
    expectSameVerdict(RF, RR, Source);
    EXPECT_EQ(RF.RunsExplored, RR.RunsExplored) << Source;
    EXPECT_EQ(RF.DedupHits, RR.DedupHits) << Source;
    EXPECT_EQ(RF.SubtreesPruned, RR.SubtreesPruned) << Source;
    EXPECT_EQ(RF.Waves, RR.Waves) << Source;
    EXPECT_EQ(RR.ForkedRuns, 0u) << Source;

    ASSERT_EQ(RF.Runs.size(), RR.Runs.size()) << Source;
    for (size_t I = 0; I < RF.Runs.size(); ++I) {
      const SearchRunRecord &F = RF.Runs[I];
      const SearchRunRecord &R = RR.Runs[I];
      EXPECT_EQ(F.Pinned, R.Pinned) << Source << " run " << I;
      EXPECT_EQ(F.Trace, R.Trace) << Source << " run " << I
                                  << ": decision traces diverge";
      EXPECT_EQ(F.FpStream, R.FpStream)
          << Source << " run " << I << ": fingerprint streams diverge";
      EXPECT_EQ(F.Status, R.Status) << Source << " run " << I;
      EXPECT_EQ(F.DedupAborted, R.DedupAborted) << Source << " run " << I;
    }
  }
}

TEST(ForkSearch, EquivalentToReplayAtJobs4) {
  // With workers, runs cancelled by a concurrently found witness may
  // record partial streams, but the committed outputs — verdict,
  // witness, reports — are deterministic and must match across engines
  // and repetitions.
  for (const char *Source : Corpus) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "fork4.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions Fork;
    Fork.MaxRuns = 256;
    Fork.Jobs = 4;
    SearchOptions Replay = Fork;
    Replay.SnapshotBudget = 0;

    SearchResult RF0 = searchWith(C, Fork);
    for (int Round = 0; Round < 3; ++Round) {
      SearchResult RF = searchWith(C, Fork);
      SearchResult RR = searchWith(C, Replay);
      expectSameVerdict(RF, RR, Source);
      expectSameVerdict(RF, RF0, Source);
    }
  }
}

TEST(ForkSearch, ForkingActuallyHappens) {
  // Guard against the engine silently degrading to replay-only: on a
  // multi-wave program with the default budget, children must fork.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[7], "forked.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 256;
  SearchResult R = searchWith(C, SO);
  EXPECT_GT(R.ForkedRuns, 0u);
  EXPECT_GT(R.RunsExplored, 1u);
}

TEST(ForkSearch, SnapshotBudgetZeroFallsBackToReplay) {
  for (const char *Source : {Corpus[0], Corpus[5], Corpus[7]}) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "budget.c");
    ASSERT_TRUE(C->ok());
    SearchOptions Capped;
    Capped.MaxRuns = 256;
    Capped.SnapshotBudget = 0; // every capture is declined
    SearchOptions Free = Capped;
    Free.SnapshotBudget = 1024;

    SearchResult RCap = searchWith(C, Capped);
    SearchResult RFree = searchWith(C, Free);
    EXPECT_EQ(RCap.ForkedRuns, 0u) << Source;
    expectSameVerdict(RCap, RFree, Source);
    EXPECT_EQ(RCap.RunsExplored, RFree.RunsExplored) << Source;
  }
}

TEST(ForkSearch, TinySnapshotBudgetStillCorrect) {
  // A budget of 1 forces constant admission churn: most children fall
  // back to replay, a few fork. Outcomes must not change.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[5], "tiny.c");
  ASSERT_TRUE(C->ok());
  SearchOptions Tiny;
  Tiny.MaxRuns = 256;
  Tiny.SnapshotBudget = 1;
  SearchOptions Free = Tiny;
  Free.SnapshotBudget = 1024;
  expectSameVerdict(searchWith(C, Tiny), searchWith(C, Free), Corpus[5]);
}

/// Programs that hit arrays, structs, heap allocation, strings, and
/// scope exit: the incremental-fingerprint checks run over these.
const char *FingerprintPrograms[] = {
    Corpus[0],
    Corpus[7],
    "int buf[64];\n"
    "static int g(int x) { buf[x % 64] += x; return x + 1; }\n"
    "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
    "  return t > 0 ? 0 : 1; }\n",
    "typedef struct { int a; int b; } P;\n"
    "static int f(P *p) { p->a += p->b; return p->a; }\n"
    "int main(void) { P p; p.a = 1; p.b = 2;\n"
    "  return f(&p) + f(&p) - 8 ? 1 : 0; }\n",
    "#include <stdlib.h>\n"
    "static int g(int x) {\n"
    "  int *p = malloc(sizeof(int)); *p = x; x = *p; free(p);\n"
    "  return x; }\n"
    "int main(void) { int t = g(1) + g(2); return t - 3; }\n",
};

TEST(ForkSearch, IncrementalFingerprintEqualsFullRehash) {
  // The incremental digests (cached memory objects, lazy k prefix
  // digests, sequencing-set sums, frame caches) must agree with a
  // from-scratch rehash at every choice point of a real run — this is
  // the correctness argument for every cache.
  for (const char *Source : FingerprintPrograms) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "incr.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    MachineOptions Opts;
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    unsigned Checked = 0;
    M.setChoiceHook([&](Machine &Mach) {
      EXPECT_EQ(Mach.configFingerprint(), Mach.configFingerprintFull())
          << Source << " at choice point " << Mach.decisionTrace().size();
      ++Checked;
      return true;
    });
    M.run();
    EXPECT_GT(Checked, 0u) << Source;
    EXPECT_EQ(M.configFingerprint(), M.configFingerprintFull()) << Source;
  }
}

TEST(ForkSearch, ForkedMachinesKeepFingerprintsExact) {
  // The caches travel through configuration copies: a snapshot carries
  // the k cell's valid digest prefix as of the parent's last
  // fingerprint, and shares memory objects whose cached digests either
  // side may refresh. A machine forked from each captured snapshot, down
  // the flipped branch, must still agree with a full rehash at every
  // one of its own choice points.
  for (const char *Source : FingerprintPrograms) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "fork.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    MachineOptions Opts;
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    std::vector<std::pair<size_t, MachineSnapshot>> Snaps;
    M.setBeforeChoiceHook([&](Machine &Mach, unsigned) {
      if (!Mach.inSyncCall() && Snaps.size() < 24)
        Snaps.emplace_back(Mach.decisionTrace().size(),
                           Mach.captureChoiceSnapshot());
    });
    M.setChoiceHook([](Machine &Mach) {
      (void)Mach.configFingerprint(); // extend the parent's caches
      return true;
    });
    M.run();
    ASSERT_FALSE(Snaps.empty()) << Source;

    const auto &Trace = M.decisionTrace();
    unsigned Checked = 0;
    for (const auto &[Depth, Snap] : Snaps) {
      std::vector<uint8_t> Decisions;
      for (size_t I = 0; I < Depth; ++I)
        Decisions.push_back(Trace[I].first);
      Decisions.push_back(Trace[Depth].first ? 0 : 1); // the other branch
      UbSink ForkSink;
      Machine F(C->ast(), Opts, ForkSink, Snap, Decisions);
      F.setChoiceHook([&](Machine &Mach) {
        EXPECT_EQ(Mach.configFingerprint(), Mach.configFingerprintFull())
            << Source << " fork at " << Depth << ", choice point "
            << Mach.decisionTrace().size();
        ++Checked;
        return true;
      });
      F.resume();
      EXPECT_EQ(F.configFingerprint(), F.configFingerprintFull()) << Source;
    }
    EXPECT_GT(Checked, 0u) << Source;
    // The parent's caches survive the forks' writes to shared objects.
    EXPECT_EQ(M.configFingerprint(), M.configFingerprintFull()) << Source;
  }
}

TEST(ForkSearch, KCellLazyDigestProperty) {
  // Seeded random sequences of push, take, pop, copy and digest() keep
  // the lazily filled prefix digest equal to a from-scratch one.
  std::mt19937 Rng(20261020);
  auto RandomItem = [&]() {
    KItem Item = KItem::simple(static_cast<KKind>(Rng() % 8));
    Item.Offset = Rng() % 4;
    Item.Idx = static_cast<uint8_t>(Rng() % 3);
    if (Rng() % 4 == 0)
      Item.Perm = {1, 0};
    return Item;
  };
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::vector<KCell> Cells(1);
    for (int Op = 0; Op < 400; ++Op) {
      KCell &K = Cells[Rng() % Cells.size()];
      switch (Rng() % 6) {
      case 0:
      case 1:
        K.push_back(RandomItem());
        break;
      case 2:
        if (!K.empty())
          (void)K.take();
        break;
      case 3:
        if (!K.empty())
          K.pop_back();
        break;
      case 4:
        if (Cells.size() < 4)
          Cells.push_back(K);
        else
          Cells[Rng() % Cells.size()] = K;
        break;
      default:
        ASSERT_EQ(K.digest(), K.computeDigest())
            << "trial " << Trial << " op " << Op;
        break;
      }
    }
    for (const KCell &K : Cells)
      EXPECT_EQ(K.digest(), K.computeDigest()) << "trial " << Trial;
  }
}

TEST(ForkSearch, EveryKItemFieldReachesTheDigest) {
  // A field the digest skipped would let the search merge two states
  // that differ in it. Each single-field change must move kItemDigest.
  auto Fake = [](uintptr_t Addr) {
    return reinterpret_cast<const void *>(Addr);
  };
  Value V = Value::makeInt(static_cast<const Type *>(Fake(0x100)), 7);
  V.AggBytes = {Byte::concrete(3), Byte::ptrFrag(SymPointer(2, 4), 1, 8)};
  KItem Base = KItem::simple(KKind::EvalOperands);
  Base.E = static_cast<const Expr *>(Fake(0x200));
  Base.Operands = {static_cast<const Expr *>(Fake(0x300))};
  Base.Results = {V};
  Base.Perm = {0};
  Base.D = static_cast<const VarDecl *>(Fake(0x400));
  Base.ObjectsToKill = {5};

  using Mutator = std::function<void(KItem &)>;
  auto OnValue = [](std::function<void(Value &)> F) {
    return Mutator([F](KItem &I) { F(I.Results[0]); });
  };
  auto OnByte = [](std::function<void(Byte &)> F) {
    return std::vector<Mutator>{
        [F](KItem &I) { F(I.Results[0].Payload); },
        [F](KItem &I) { F(I.Results[0].AggBytes[1]); }};
  };
  std::vector<Mutator> Changes = {
      [](KItem &I) { I.K = KKind::Expr; },
      [&](KItem &I) { I.E = static_cast<const Expr *>(Fake(0x208)); },
      [&](KItem &I) { I.S = static_cast<const Stmt *>(Fake(0x500)); },
      [&](KItem &I) { I.Operands.push_back(nullptr); },
      [&](KItem &I) { I.Operands[0] = static_cast<const Expr *>(Fake(0x308)); },
      [](KItem &I) { I.Results.push_back(Value()); },
      [](KItem &I) { I.Perm = {1}; },
      [](KItem &I) { I.Perm.push_back(1); },
      [](KItem &I) { I.Idx = 1; },
      [&](KItem &I) { I.D = static_cast<const VarDecl *>(Fake(0x408)); },
      [](KItem &I) { I.Offset = 8; },
      [&](KItem &I) { I.Ty.Ty = static_cast<const Type *>(Fake(0x600)); },
      [](KItem &I) { I.Ty.Quals = 1; },
      [](KItem &I) { I.ObjectsToKill[0] = 6; },
      [](KItem &I) { I.ObjectsToKill.push_back(6); },
      [&](KItem &I) {
        I.Callee = static_cast<const FunctionDecl *>(Fake(0x700));
      },
      [](KItem &I) { I.HasValue = true; },
      OnValue([](Value &X) { X.K = Value::Kind::Pointer; }),
      OnValue([&](Value &X) { X.Ty = static_cast<const Type *>(Fake(0x108)); }),
      OnValue([](Value &X) { X.Bits = 8; }),
      OnValue([](Value &X) { X.F = 0.5; }),
      OnValue([](Value &X) { X.Ptr.Base = 9; }),
      OnValue([](Value &X) { X.Ptr.Offset = -1; }),
      OnValue([](Value &X) { X.Ptr.FromInteger = true; }),
      OnValue([](Value &X) { X.Ptr.RawInt = 0x1000; }),
      OnValue([](Value &X) { X.LvQuals = 1; }),
      OnValue([](Value &X) { X.AggBytes.pop_back(); }),
      OnValue([](Value &X) { X.MissingReturn = true; }),
      OnValue([](Value &X) { X.SubStart = 4; }),
      OnValue([](Value &X) { X.SubLen = 4; }),
  };
  for (auto ByteChange : std::vector<std::function<void(Byte &)>>{
           [](Byte &B) {
             B.K = B.isConcrete() ? Byte::Kind::PtrFrag : Byte::Kind::Concrete;
           },
           [](Byte &B) { B.Value = 0x55; },
           [](Byte &B) { B.Ptr.Base = 11; },
           [](Byte &B) { B.Ptr.Offset = 12; },
           [](Byte &B) { B.Ptr.FromInteger = !B.Ptr.FromInteger; },
           [](Byte &B) { B.Ptr.RawInt = 13; },
           [](Byte &B) { B.FragIndex = 5; },
           [](Byte &B) { B.FragCount = 6; },
       })
    for (Mutator &M : OnByte(ByteChange))
      Changes.push_back(M);

  const uint64_t BaseDigest = kItemDigest(Base);
  for (size_t I = 0; I < Changes.size(); ++I) {
    KItem Changed = Base;
    Changes[I](Changed);
    EXPECT_NE(kItemDigest(Changed), BaseDigest) << "change " << I;
  }
}

TEST(ForkSearch, FullRehashSearchMatchesIncremental) {
  // End-to-end version of the same equivalence: a search whose dedup
  // keys come from full rehashes (the reference wave engine's
  // full-rehash mode) must make the identical decisions — runs, hits,
  // fingerprint streams — as the scheduler's incremental path.
  for (const char *Source : {Corpus[0], Corpus[5], Corpus[7]}) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "rehash.c");
    ASSERT_TRUE(C->ok());
    SearchOptions SO;
    SO.MaxRuns = 256;
    SO.Jobs = 1;
    SO.CollectRuns = true;

    SearchResult RI = searchWith(C, SO);
    SearchResult RO = reference::waveSearch(C->ast(), MachineOptions(), SO,
                                            /*FullRehash=*/true);
    expectSameVerdict(RI, RO, Source);
    EXPECT_EQ(RI.DedupHits, RO.DedupHits) << Source;
    EXPECT_EQ(RI.PeakFrontier, RO.PeakFrontier) << Source;
    ASSERT_EQ(RI.Runs.size(), RO.Runs.size()) << Source;
    for (size_t I = 0; I < RI.Runs.size(); ++I)
      EXPECT_EQ(RI.Runs[I].FpStream, RO.Runs[I].FpStream)
          << Source << " run " << I;
  }
}

TEST(ForkSearch, VisitKeyCollisionRegression) {
  // The old key was fp ^ (depth * phi): every pair on a phi-stride line
  // collapsed to one key — (d, X ^ d*phi) aliased for all d. The mixed
  // key must keep all such adversarial families distinct.
  constexpr uint64_t Phi = 0x9e3779b97f4a7c15ull;
  std::set<std::pair<uint64_t, uint64_t>> Pairs;
  for (uint64_t Base : {uint64_t(0), uint64_t(1), Phi,
                        uint64_t(0xdeadbeef)}) {
    for (uint64_t Depth = 0; Depth < 64; ++Depth) {
      // Adversarial: the old scheme maps every one of these to Base.
      Pairs.emplace(Depth, Base ^ (Depth * Phi));
      // And the plain grid around small fingerprints.
      Pairs.emplace(Depth, Base + Depth);
    }
  }
  std::set<uint64_t> Keys;
  for (const auto &[Depth, Fp] : Pairs)
    Keys.insert(searchVisitKey(Depth, Fp));
  EXPECT_EQ(Keys.size(), Pairs.size()) << "distinct (depth, fp) pairs alias";

  // The concrete aliases that motivated the fix.
  EXPECT_NE(searchVisitKey(0, Phi), searchVisitKey(1, 0));
  EXPECT_NE(searchVisitKey(2, 0), searchVisitKey(0, 2 * Phi));
}

TEST(ForkSearch, JobsZeroAutoDetects) {
  // --search-jobs=0 resolves to hardware concurrency inside the search;
  // verdict and witness are job-count independent, so the observable
  // contract is simply "same results, no crash".
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[0], "auto.c");
  ASSERT_TRUE(C->ok());
  SearchOptions One;
  One.MaxRuns = 64;
  One.Jobs = 1;
  SearchOptions Auto = One;
  Auto.Jobs = 0;
  expectSameVerdict(searchWith(C, Auto), searchWith(C, One), Corpus[0]);

  Driver DrvAuto(AnalysisRequest::Builder()
                     .searchRuns(64)
                     .searchJobs(0)
                     .buildOrDie());
  DriverOutcome O = DrvAuto.runSource(Corpus[0], "auto_drv.c");
  ASSERT_TRUE(O.CompileOk);
  EXPECT_FALSE(O.DynamicUb.empty());
}

TEST(ForkSearch, TruncationIsReported) {
  // A budget too small for the frontier must be called out, never
  // silently absorbed. The symmetric program's first wave alone exceeds
  // MaxRuns=2.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[7], "trunc.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 2;
  SearchResult R = searchWith(C, SO);
  EXPECT_FALSE(R.UbFound);
  EXPECT_TRUE(R.FrontierTruncated);
  EXPECT_GT(R.DroppedSubtrees, 0u);

  // An ample budget explores everything: no truncation flag.
  SO.MaxRuns = 4096;
  SearchResult RFull = searchWith(C, SO);
  EXPECT_FALSE(RFull.FrontierTruncated);
  EXPECT_EQ(RFull.DroppedSubtrees, 0u);

  // The driver surfaces it for kcc --show-witness.
  Driver DrvT(AnalysisRequest::Builder().searchRuns(2).buildOrDie());
  DriverOutcome O = DrvT.runSource(Corpus[7], "trunc_drv.c");
  ASSERT_TRUE(O.CompileOk);
  EXPECT_TRUE(O.SearchTruncated);
  EXPECT_GT(O.SearchDropped, 0u);
}

TEST(ForkSearch, WitnessReplaysOutsideTheEngine) {
  // A witness found by the fork engine must reproduce on a plain
  // machine via setReplayDecisions — forks never leak into the
  // reported decision vector.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[5], "replayw.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 256;
  SearchResult R = searchWith(C, SO);
  ASSERT_TRUE(R.UbFound);
  ASSERT_FALSE(R.Witness.empty());
  for (int Round = 0; Round < 3; ++Round) {
    MachineOptions Opts;
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    M.setReplayDecisions(R.Witness);
    EXPECT_EQ(M.run(), RunStatus::UbDetected);
    ASSERT_FALSE(Sink.all().empty());
    EXPECT_EQ(Sink.all().front().Kind, R.Reports.front().Kind);
  }
}
