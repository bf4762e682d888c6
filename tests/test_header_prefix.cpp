//===- tests/test_header_prefix.cpp - Prefix snapshot tests ------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// The prefix snapshot (text/Preprocessor.h) must be invisible: a unit
// preprocessed against a warm header registry, whose leading #include
// run is replayed from the cache, must come out byte-identical to the
// same unit against a cold registry — tokens, diagnostics, interned
// names, static findings, and the kcc --json document.
//
//===----------------------------------------------------------------------===//

#include "PrefixProbe.h"

#include "driver/Driver.h"
#include "driver/JsonOutput.h"
#include "suites/CatalogCoverage.h"
#include "suites/DesktopSuite.h"
#include "suites/JulietGen.h"
#include "suites/UndefSuite.h"

#include <gtest/gtest.h>

#include <thread>

using namespace cundef;

namespace {

struct Unit {
  std::string Name;
  std::string Source;
};

/// The desktop suite, the undefinedness suite, the expressible catalog
/// coverage cases and a 1/8 Juliet sample, both halves of each pair.
const std::vector<Unit> &corpus() {
  static const std::vector<Unit> Units = [] {
    std::vector<Unit> U;
    auto Pair = [&](const TestCase &T) {
      U.push_back({T.Name + "_bad.c", T.Bad});
      U.push_back({T.Name + "_good.c", T.Good});
    };
    DesktopSuite Desktop = loadDesktopSuite();
    EXPECT_TRUE(Desktop.ok()) << Desktop.Error;
    for (const DesktopCase &C : Desktop.Cases)
      Pair(C.Test);
    for (const TestCase &T : undefSuite())
      Pair(T);
    for (const CoverageCase &C : catalogCoverageCases())
      if (C.expressible())
        U.push_back({strFormat("row%u.c", C.Id), C.Program});
    for (const TestCase &T : JulietGenerator(8).generate())
      Pair(T);
    return U;
  }();
  return Units;
}

TEST(HeaderPrefix, CorpusColdMatchesWarm) {
  auto Warm = coldRegistry();
  for (const Unit &U : corpus()) {
    // The first warm run may be the one that publishes; the second
    // replays the snapshot.
    preprocessTrace(*Warm, U.Source, U.Name);
    EXPECT_EQ(preprocessTrace(*Warm, U.Source, U.Name),
              preprocessTrace(*coldRegistry(), U.Source, U.Name))
        << U.Name;
    EXPECT_EQ(compileTrace(*Warm, U.Source, U.Name),
              compileTrace(*coldRegistry(), U.Source, U.Name))
        << U.Name;
  }
  HeaderPrefixStats S = Warm->prefixStats();
  EXPECT_GT(S.Hits, corpus().size()) << "the warm side barely replayed";
  EXPECT_EQ(S.Misses, Warm->prefixEntries() + S.Evictions + S.Abandoned)
      << "every miss published or abandoned";
}

/// The program's `--json` entry with the timings zeroed.
std::string jsonOf(DriverOutcome O, const std::string &Name) {
  O.FrontendMicros = 0;
  O.SearchMicros = 0;
  return renderJsonDocument({{&O, Name, 0.0, "on"}}, SchedulerStats(), {},
                            {}, 0.0, 0);
}

TEST(HeaderPrefix, CorpusJsonColdMatchesWarm) {
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(8).searchJobs(1).buildOrDie();
  EngineConfig Cfg = engineConfigFor(Req);
  Cfg.TranslationCacheEntries = 0;
  Cfg.ResultCacheEntries = 0;
  AnalysisEngine Cold(Cfg), Warm(Cfg);
  const std::string Stddef = *Cold.headers().find("stddef.h");
  for (const Unit &U : corpus()) {
    // Registering a header again empties the prefix cache (and, the
    // content being the same, keeps the fingerprint).
    Cold.headers().add("stddef.h", Stddef);
    EXPECT_EQ(jsonOf(Warm.submit(Req, U.Source, U.Name).take(), U.Name),
              jsonOf(Cold.submit(Req, U.Source, U.Name).take(), U.Name))
        << U.Name;
  }
  EXPECT_EQ(Cold.headers().prefixStats().Hits, 0u);
  EXPECT_GT(Warm.headers().prefixStats().Hits, corpus().size() / 2);
}

//===----------------------------------------------------------------------===//
// Edge cases: each unit is run twice against one registry (the second
// run replays whatever the first published) and once against a fresh
// one; all three must agree.
//===----------------------------------------------------------------------===//

const std::string LongA = std::string(63, 'x') + "_first";
const std::string LongB = std::string(63, 'x') + "_second";

std::unique_ptr<HeaderRegistry> testRegistry() {
  auto R = coldRegistry();
  R->add("where.h", "#define WHERE __FILE__\n#define HERE __LINE__\n"
                    "static const char *header_file = __FILE__;\n"
                    "static int header_line = __LINE__;\n");
  R->add("boom.h", "#define BEFORE 1\n#error header says no\n");
  R->add("self.h", "#include \"self.h\"\n");
  R->add("paste.h", "#define CAT(a, b) a ## b\nint CAT(pasted_, name);\n"
                    "#include \"after.h\"\n");
  R->add("after.h", "int after_paste;\n");
  R->add("mode.h",
         "#ifdef MODE\nint with_mode;\n#else\nint without_mode;\n#endif\n");
  R->add("long.h", "int " + LongA + ";\nint " + LongB + ";\n");
  R->add("open.h", "int open_decl(int a,\n");
  return R;
}

/// Checks cold == warm for \p Src and returns the warm registry's
/// counters.
HeaderPrefixStats expectColdWarmAgree(const std::string &Src,
                                      const Defines &Defs = {}) {
  auto Warm = testRegistry();
  const std::string Cold = preprocessTrace(*testRegistry(), Src, "u.c", Defs);
  EXPECT_EQ(preprocessTrace(*Warm, Src, "u.c", Defs), Cold) << Src;
  EXPECT_EQ(preprocessTrace(*Warm, Src, "u.c", Defs), Cold) << Src;
  if (Defs.empty()) {
    EXPECT_EQ(compileTrace(*Warm, Src, "u.c"),
              compileTrace(*testRegistry(), Src, "u.c"))
        << Src;
  }
  return Warm->prefixStats();
}

TEST(HeaderPrefix, ReplaysALeadingIncludeRun) {
  HeaderPrefixStats S = expectColdWarmAgree(
      "// a comment\n\n#include <stdio.h>\n/* another */\n#include "
      "<stdlib.h>\nint main(void) { printf(\"%d\\n\", RAND_MAX); return "
      "EXIT_SUCCESS; }\n");
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
}

TEST(HeaderPrefix, DefineBeforeIncludeLooksNothingUp) {
  HeaderPrefixStats S = expectColdWarmAgree(
      "#define N 3\n#include <stdlib.h>\nint main(void) { return N; }\n");
  EXPECT_EQ(S.Lookups, 0u);
}

TEST(HeaderPrefix, IncludeAfterCodeLooksNothingUp) {
  HeaderPrefixStats S = expectColdWarmAgree(
      "int x;\n#include <stdio.h>\nint main(void) { return x; }\n");
  EXPECT_EQ(S.Lookups, 0u);
}

TEST(HeaderPrefix, MissingHeaderEndsThePrefix) {
  const std::string Src =
      "#include <stdio.h>\n#include <nope.h>\nint main(void) { return 0; }\n";
  expectColdWarmAgree(Src);
  EXPECT_NE(preprocessTrace(*testRegistry(), Src).find(
                "header 'nope.h' not found"),
            std::string::npos);
}

TEST(HeaderPrefix, HeaderHittingErrorIsNotCached) {
  const std::string Src = "#include <stdio.h>\n#include \"boom.h\"\nint x;\n";
  HeaderPrefixStats S = expectColdWarmAgree(Src);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Abandoned, S.Misses);
  EXPECT_NE(preprocessTrace(*testRegistry(), Src).find("#error header says no"),
            std::string::npos);
}

TEST(HeaderPrefix, DefineBeforeRunIsPartOfTheKey) {
  const std::string Src = "#include \"mode.h\"\nint main(void) { return 0; }\n";
  const Defines WithMode = {{"MODE", "1"}};
  expectColdWarmAgree(Src, WithMode);
  // One registry serves both macro sets: neither may see the other's
  // snapshot.
  auto Warm = testRegistry();
  for (int Round = 0; Round < 2; ++Round) {
    EXPECT_EQ(preprocessTrace(*Warm, Src, "u.c", WithMode),
              preprocessTrace(*testRegistry(), Src, "u.c", WithMode));
    EXPECT_EQ(preprocessTrace(*Warm, Src, "u.c"),
              preprocessTrace(*testRegistry(), Src, "u.c"));
  }
  EXPECT_EQ(Warm->prefixStats().Misses, 2u);
  EXPECT_EQ(Warm->prefixStats().Hits, 2u);
  EXPECT_NE(preprocessTrace(*Warm, Src, "u.c", WithMode).find("with_mode"),
            std::string::npos);
}

TEST(HeaderPrefix, HeaderEditInvalidates) {
  auto Warm = testRegistry();
  const std::string Src = "#include \"cfg.h\"\nint v = V;\n";
  Warm->add("cfg.h", "#define V 7\n");
  preprocessTrace(*Warm, Src);
  ASSERT_EQ(Warm->prefixEntries(), 1u);
  Warm->add("cfg.h", "#define V 9\n");
  EXPECT_EQ(Warm->prefixEntries(), 0u) << "add() empties the prefix cache";
  auto Cold = testRegistry();
  Cold->add("cfg.h", "#define V 9\n");
  const std::string Expected = preprocessTrace(*Cold, Src);
  EXPECT_NE(Expected.find("\"9\""), std::string::npos);
  EXPECT_EQ(preprocessTrace(*Warm, Src), Expected);
  EXPECT_EQ(preprocessTrace(*Warm, Src), Expected);
}

TEST(HeaderPrefix, FileAndLineInsideHeaderMacros) {
  const std::string Src = "#include \"where.h\"\nconst char *f = WHERE;\n"
                          "int l = HERE;\n";
  expectColdWarmAgree(Src);
  const std::string T = preprocessTrace(*testRegistry(), Src);
  // The header's own __FILE__ names the header; the body's expansions
  // name the unit and its line.
  EXPECT_NE(T.find("\"where.h\""), std::string::npos);
  EXPECT_NE(T.find("\"t.c\""), std::string::npos);
  EXPECT_NE(T.find("\"3\""), std::string::npos);
}

TEST(HeaderPrefix, ErrorsInsideAReplayedHeaderNameIt) {
  // The parse error sits on the header's last token, so rendering it
  // needs the replayed file registrations.
  const std::string Src = "#include \"open.h\"\n";
  expectColdWarmAgree(Src);
  auto Warm = testRegistry();
  preprocessTrace(*Warm, Src);
  EXPECT_NE(compileTrace(*Warm, Src).find("open.h:"), std::string::npos);
  EXPECT_EQ(Warm->prefixStats().Hits, 1u);
}

TEST(HeaderPrefix, SecondRunOfOnePreprocessorKeysItsFileIds) {
  // A second run() on one Preprocessor numbers its files after the
  // first run's, so a snapshot from a fresh Preprocessor must not serve
  // it.
  const std::string Src = "#include <stdio.h>\nint b;\n";
  auto SecondRun = [&](const HeaderRegistry &R) {
    StringInterner Interner;
    DiagnosticEngine Diags;
    Preprocessor PP(Interner, Diags, R);
    PP.run("int a;\n", "a.c");
    std::string Out;
    for (const Token &T : PP.run(Src, "b.c"))
      Out += strFormat("%u:%u:%u %s\n", T.Loc.File, T.Loc.Line, T.Loc.Col,
                       Interner.str(T.Sym).c_str());
    return Out + Diags.render();
  };
  auto Warm = testRegistry();
  preprocessTrace(*Warm, Src);
  SecondRun(*Warm);
  EXPECT_EQ(SecondRun(*Warm), SecondRun(*testRegistry()));
  EXPECT_EQ(Warm->prefixStats().Misses, 2u);
}

TEST(HeaderPrefix, PastedNamesAreReplayed) {
  // A name made by ## is interned before the names of a header
  // included after it; the replay must intern it in that order too.
  expectColdWarmAgree("#include \"paste.h\"\nint main(void) { return 0; }\n");
  expectColdWarmAgree(
      "#include \"paste.h\"\nint main(void) { return pasted_name; }\n");
}

TEST(HeaderPrefix, LaterIncludesNumberTheirFilesAfterThePrefix) {
  HeaderPrefixStats S = expectColdWarmAgree(
      "#include <stdio.h>\nint x;\n#include <stdlib.h>\n"
      "int main(void) { return x + RAND_MAX; }\n");
  EXPECT_EQ(S.Hits, 2u);
}

bool reportsIdentifiersNotDistinct(const HeaderRegistry &R,
                                   const std::string &Src) {
  CompiledProgramRef C = compileTranslationUnit(FrontendOptions(), Src, "u.c", R);
  for (const UbReport &F : C->staticUb())
    if (F.Kind == UbKind::IdentifiersNotDistinct)
      return true;
  return false;
}

TEST(HeaderPrefix, UnincludedHeaderNamesStayOut) {
  // long.h holds two identifiers that agree in their first 63
  // characters. A unit that does not include it must not report them,
  // cold or warm; one that does must, cold or warm.
  auto Warm = testRegistry();
  const std::string Without = "#include <stdio.h>\nint main(void) { return 0; }\n";
  const std::string With = "#include \"long.h\"\nint main(void) { return 0; }\n";
  for (int Round = 0; Round < 2; ++Round) {
    EXPECT_FALSE(reportsIdentifiersNotDistinct(*Warm, Without));
    EXPECT_TRUE(reportsIdentifiersNotDistinct(*Warm, With));
  }
  EXPECT_FALSE(reportsIdentifiersNotDistinct(*testRegistry(), Without));
  EXPECT_TRUE(reportsIdentifiersNotDistinct(*testRegistry(), With));
  EXPECT_EQ(Warm->prefixStats().Hits, 2u);
}

TEST(HeaderPrefix, ConcurrentUnitsAgreeWithCold) {
  // Distinct units sharing one include list, compiled at once against
  // one registry: one owns the key, the rest join or hit it, and every
  // result equals a cold compile.
  constexpr unsigned Threads = 8;
  auto Shared = coldRegistry();
  std::vector<std::string> Srcs, Got(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Srcs.push_back(strFormat("#include <stdio.h>\n#include <stdlib.h>\n"
                             "int main(void) { return %u; }\n",
                             I));
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < Threads; ++I)
    Pool.emplace_back([&, I] { Got[I] = compileTrace(*Shared, Srcs[I]); });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned I = 0; I < Threads; ++I)
    EXPECT_EQ(Got[I], compileTrace(*coldRegistry(), Srcs[I]));
  HeaderPrefixStats S = Shared->prefixStats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits + S.InflightJoins, Threads - 1);
}

//===----------------------------------------------------------------------===//
// Hostile inputs.
//===----------------------------------------------------------------------===//

TEST(HeaderPrefix, SelfIncludingHeaderIsNotCached) {
  auto R = testRegistry();
  const std::string Src = "#include \"self.h\"\nint main(void) { return 0; }\n";
  for (int Round = 0; Round < 2; ++Round)
    EXPECT_NE(preprocessTrace(*R, Src).find("#include nested too deeply"),
              std::string::npos);
  HeaderPrefixStats S = R->prefixStats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Abandoned, 2u);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(R->prefixEntries(), 0u);
}

TEST(HeaderPrefix, DistinctIncludeListsStayWithinCapacity) {
  const unsigned Cap = HeaderRegistry::PrefixCacheCapacity;
  const unsigned N = 2 * Cap + 3;
  auto R = coldRegistry();
  for (unsigned I = 0; I < N; ++I)
    R->add(strFormat("h%u.h", I), strFormat("int v%u;\n", I));
  for (unsigned I = 0; I < N; ++I) {
    preprocessTrace(*R, strFormat("#include \"h%u.h\"\nint x;\n", I));
    EXPECT_LE(R->prefixEntries(), Cap);
  }
  HeaderPrefixStats S = R->prefixStats();
  EXPECT_EQ(R->prefixEntries(), Cap);
  EXPECT_EQ(S.Misses, N);
  EXPECT_EQ(S.Evictions, N - Cap);
}

} // namespace
