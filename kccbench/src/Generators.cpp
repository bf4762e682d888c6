//===- kccbench/src/Generators.cpp - Seeded workload inputs ---------------===//
//
// Part of cundef's benchmark (kccbench).
//
//===----------------------------------------------------------------------===//

#include "Generators.h"

#include "suites/CatalogCoverage.h"
#include "suites/DesktopSuite.h"
#include "suites/JulietGen.h"
#include "suites/UndefSuite.h"
#include "ub/UbKind.h"

#include <cstdio>

using namespace cundef;

namespace kccbench {

Program deepTree(unsigned K, unsigned Cells, unsigned Salt, unsigned Late,
                 bool PlantUb, const std::string &Name) {
  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "int buf[%u];\n"
                "int d = 5;\n"
                "static int g(int x) { buf[(x + %u) %% %u] += x; "
                "return x + 1; }\n"
                "static int setDenom(int x) { return d = x; }\n"
                "int main(void) {\n  int t = 0;\n",
                Cells, Salt, Cells);
  Program P;
  P.Name = Name;
  P.Source = Line;
  for (unsigned I = 0; I < K; ++I) {
    std::snprintf(Line, sizeof(Line), "  t += g(%u) + g(%u);\n", 2 * I,
                  2 * I + 1);
    P.Source += Line;
    if (I == Late) {
      std::snprintf(Line, sizeof(Line), "  t += (10 / d) + setDenom(%d);\n",
                    PlantUb ? 0 : 5);
      P.Source += Line;
    }
  }
  P.Source += "  return t > 0 ? 0 : 1;\n}\n";
  P.Answer.Ub = PlantUb;
  if (PlantUb)
    P.Answer.Codes = {ubCode(UbKind::DivisionByZero)};
  P.Answer.CheckExit = !PlantUb;
  P.Answer.ExitCode = 0;
  return P;
}

std::vector<Program> searchDeepCycle(Rng &R, unsigned Cycle, bool Tiny) {
  // Sizes fixed per cycle so every seed measures nearly the same mix:
  // the seed picks salts, the order, where the UB is planted, and which
  // tree of each of two neighbouring-size pairs carries it.
  static const unsigned Full[] = {8, 9, 10, 11, 12, 13, 14, 16};
  static const unsigned Small[] = {2, 2, 3, 3, 3, 4, 4, 5};
  const unsigned *Ks = Tiny ? Small : Full;
  const unsigned N = 8;
  std::vector<char> Ub(N, false);
  Ub[1 + R.below(2)] = true;
  Ub[5 + R.below(2)] = true;
  std::vector<Program> Out;
  for (unsigned I = 0; I < N; ++I) {
    unsigned K = Ks[I];
    unsigned Late = K - 1 - static_cast<unsigned>(R.below(2));
    unsigned Salt = static_cast<unsigned>(R.below(1u << 20));
    char Name[96];
    std::snprintf(Name, sizeof(Name), "deep_c%u_k%u_s%u%s.c", Cycle, K, Salt,
                  Ub[I] ? "_ub" : "");
    Out.push_back(deepTree(K, Tiny ? 64 : 512, Salt, Late, Ub[I], Name));
  }
  R.shuffle(Out);
  return Out;
}

/// Both halves of each test: the bad half is undefined, the good half
/// defined. \p StrictBad says whether a missed bad half fails the run:
/// the undefinedness suite holds behaviours kcc does not detect (the
/// paper's Figure 3 is below 100% too), so there a miss only lowers
/// verdict_accuracy. A flagged good half always fails the run.
static void addPairs(const std::vector<TestCase> &Tests, const char *Prefix,
                     bool StrictBad, std::vector<Program> &Out) {
  for (const TestCase &T : Tests) {
    Program Bad{std::string(Prefix) + T.Name + "_bad.c", T.Bad, {}};
    Bad.Answer.Ub = true;
    Bad.Answer.Strict = StrictBad;
    Out.push_back(std::move(Bad));
    Program Good{std::string(Prefix) + T.Name + "_good.c", T.Good, {}};
    Out.push_back(std::move(Good));
  }
}

std::vector<Program> heldOut() {
  std::vector<Program> Out;
  for (const TestCase &T : undefSuite())
    if (T.Name == "ub057_incomplete_array") {
      Program P{"undef/" + T.Name + "_bad.c", T.Bad, {}};
      P.Answer.Ub = true;
      Out.push_back(std::move(P));
    }
  return Out;
}

std::string heldOutNote(AnalysisEngine &Eng, const AnalysisRequest &Req) {
  static const char *const Status[] = {"running",  "completed", "ub",
                                       "fault",    "step-limit", "internal",
                                       "cancelled"};
  static_assert(static_cast<int>(RunStatus::Cancelled) == 6,
                "one name per RunStatus");
  std::string Note = "held out of the stream, run once:";
  for (const Program &P : heldOut()) {
    JobHandle H = Eng.submit(Req, P.Source, P.Name);
    const DriverOutcome &O = H.wait();
    const Graded G = grade(O, P.Answer);
    Note += " " + P.Name + " ends " +
            (O.CompileOk ? Status[static_cast<int>(O.Status)]
                         : "with a compile error") +
            (G.Verdict ? G.Correct ? " (right verdict)" : " (wrong verdict)"
                       : " (no verdict)");
  }
  return Note;
}

/// Drops the held-out programs (matched by source) from \p Out.
static void dropHeldOut(std::vector<Program> &Out) {
  const std::vector<Program> Held = heldOut();
  std::vector<Program> Kept;
  for (Program &P : Out) {
    bool Drop = false;
    for (const Program &H : Held)
      Drop |= P.Source == H.Source;
    if (!Drop)
      Kept.push_back(std::move(P));
  }
  Out = std::move(Kept);
}

bool ciCorpus(Rng &R, bool Tiny, const std::string &DesktopDir,
              std::vector<Program> &Out, std::string &Err) {
  Out.clear();
  addPairs(JulietGenerator(1).generate(), "juliet/", true, Out);
  addPairs(undefSuite(), "undef/", false, Out);
  for (const CoverageCase &C : catalogCoverageCases()) {
    if (!C.expressible())
      continue;
    char Name[64];
    std::snprintf(Name, sizeof(Name), "catalog/cov_ub%03u.c", C.Id);
    Program P{Name, C.Program, {}};
    P.Answer.Ub = true;
    P.Answer.Codes = C.ExpectedCodes;
    P.Answer.Strict = false;
    Out.push_back(std::move(P));
  }
  DesktopSuite Desktop = loadDesktopSuite(DesktopDir);
  if (!Desktop.ok()) {
    Err = "desktop suite: " + Desktop.Error;
    return false;
  }
  for (const DesktopCase &C : Desktop.Cases) {
    Program Bad{"desktop/" + C.Test.Name + "_bad.c", C.Test.Bad, {}};
    Bad.Answer.Ub = C.ExpectFlagged;
    if (C.ExpectFlagged) {
      Bad.Answer.Codes = {C.ExpectedCode};
      Bad.Answer.FirstCodeOnly = true;
    }
    Out.push_back(std::move(Bad));
    Out.push_back({"desktop/" + C.Test.Name + "_good.c", C.Test.Good, {}});
  }
  dropHeldOut(Out);
  R.shuffle(Out);
  if (Tiny)
    Out.resize(std::min<size_t>(Out.size(), 96));
  return true;
}

/// About \p Bytes of defined helper functions no one calls: the rest of
/// a project-sized file around a hot program.
static std::string moduleBody(Rng &R, size_t Bytes) {
  std::string Out = "/* helpers of this module */\n";
  char Fn[320];
  for (unsigned I = 0; Out.size() < Bytes; ++I) {
    unsigned A = static_cast<unsigned>(R.below(1u << 16)) | 1u;
    unsigned B = static_cast<unsigned>(R.below(64)) + 1;
    std::snprintf(Fn, sizeof(Fn),
                  "static unsigned module_step%u(unsigned seed, unsigned n) {\n"
                  "  unsigned acc = seed ^ %uu;\n"
                  "  for (unsigned i = 0; i < n %% %uu; ++i)\n"
                  "    acc = acc * %uu + (i << 3);\n"
                  "  return acc;\n"
                  "}\n\n",
                  I, A, B, A);
    Out += Fn;
  }
  return Out;
}

ServeStream::ServeStream(uint64_t Seed, bool Tiny) : Tiny(Tiny) {
  Rng R(Seed ^ 0x5E7E5E7Eull);
  addPairs(JulietGenerator(20).generate(), "", true, SuitePool);
  R.shuffle(SuitePool);
  // Hot programs repeat hundreds of times a run, so they come from the
  // Juliet-like suite, whose every answer is strict. The undefinedness
  // suite, which holds behaviours kcc misses, feeds only the fresh
  // stream: its misses then show at a rate that does not hinge on which
  // programs the seed made hot.
  const size_t JulietPrograms = SuitePool.size();
  addPairs(undefSuite(), "", false, SuitePool);
  dropHeldOut(SuitePool);

  const unsigned HotTrees = Tiny ? 4 : 16, HotSuite = Tiny ? 4 : 16;
  for (unsigned I = 0; I < HotTrees; ++I) {
    char Name[64];
    std::snprintf(Name, sizeof(Name), "hot_tree%u.c", I);
    Hot.push_back(deepTree(3, 64, static_cast<unsigned>(R.below(1u << 20)),
                           2, I % 4 == 0, Name));
  }
  for (unsigned I = 0; I < HotSuite && I < JulietPrograms; ++I) {
    Program P = SuitePool[I];
    P.Name = "hot_" + P.Name;
    Hot.push_back(std::move(P));
  }
  // Each hot program is a file-sized unit, so a hit ships and hashes
  // a real file's worth of source and its latency is that work, not
  // only the thread wake-ups of a round trip.
  for (Program &P : Hot)
    P.Source = moduleBody(R, Tiny ? 2048 : 48 * 1024) + P.Source;
  for (unsigned C = 0; C < 2; ++C)
    Clients.emplace_back(R.next());
  Blocks.resize(Clients.size());
  Issued.assign(Clients.size(), 0);
}

Program ServeStream::fresh(Rng &R, unsigned Client) {
  char Name[96];
  uint64_t N = Issued[Client];
  if (R.below(2) == 0) {
    unsigned K = Tiny ? 2 : 3 + static_cast<unsigned>(R.below(2));
    std::snprintf(Name, sizeof(Name), "fresh%u_%llu_tree.c", Client,
                  static_cast<unsigned long long>(N));
    return deepTree(K, 64, static_cast<unsigned>(R.below(1u << 20)), K - 1,
                    R.below(4) == 0, Name);
  }
  Program P = SuitePool[R.below(SuitePool.size())];
  std::snprintf(Name, sizeof(Name), "fresh%u_%llu_", Client,
                static_cast<unsigned long long>(N));
  P.Name = Name + P.Name;
  return P;
}

Program ServeStream::next(unsigned Client) {
  Rng &R = Clients[Client];
  std::vector<char> &Block = Blocks[Client];
  if (Block.empty()) {
    Block.assign(10, 1); // 1 = hot
    Block[0] = Block[1] = 0;
    R.shuffle(Block);
  }
  bool IsHot = Block.back();
  Block.pop_back();
  Program P = IsHot ? Hot[R.below(Hot.size())] : fresh(R, Client);
  ++Issued[Client];
  return P;
}

} // namespace kccbench
