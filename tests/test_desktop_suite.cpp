//===- tests/test_desktop_suite.cpp - The desktop-C scored suite ------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The desktop suite (suites/DesktopSuite.h) is test data on disk:
// slice-sized argv/file-I/O/string-munging pairs with manifest
// expectations. These tests pin down the loader (including its
// rejection of malformed manifests — a partially loaded suite would
// silently shrink the contract), the scored verdicts against the
// manifest, and the scheduler-independence of every verdict and
// witness at forced worker counts 1 and 4.
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"
#include "reference/WaveSearch.h"
#include "suites/CatalogCoverage.h"
#include "suites/SuiteRunner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <unistd.h>

using namespace cundef;

namespace {

const DesktopSuite &suite() {
  static const DesktopSuite S = loadDesktopSuite();
  return S;
}

/// Writes a throwaway suite directory for loader-failure tests.
class TempSuiteDir {
public:
  TempSuiteDir() {
    static unsigned Counter = 0;
    Dir = ::testing::TempDir() + "cundef_desktop_" +
          std::to_string(::getpid()) + "_" + std::to_string(Counter++);
    std::string Cmd = "mkdir -p " + Dir;
    EXPECT_EQ(std::system(Cmd.c_str()), 0);
  }
  const std::string &path() const { return Dir; }
  void write(const std::string &Name, const std::string &Text) const {
    std::ofstream Out(Dir + "/" + Name);
    Out << Text;
  }

private:
  std::string Dir;
};

} // namespace

//===----------------------------------------------------------------------===//
// Loading.
//===----------------------------------------------------------------------===//

TEST(DesktopSuite, LoadsTheCommittedSuite) {
  const DesktopSuite &S = suite();
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_GE(S.Cases.size(), 25u);
  std::set<std::string> Names;
  unsigned KnownMisses = 0;
  for (const DesktopCase &Case : S.Cases) {
    EXPECT_TRUE(Names.insert(Case.Test.Name).second)
        << "duplicate case " << Case.Test.Name;
    EXPECT_FALSE(Case.Test.Bad.empty()) << Case.Test.Name;
    EXPECT_FALSE(Case.Test.Good.empty()) << Case.Test.Name;
    EXPECT_NE(Case.Test.Bad, Case.Test.Good) << Case.Test.Name;
    if (Case.ExpectFlagged) {
      EXPECT_GE(Case.ExpectedCode, 1u) << Case.Test.Name;
      EXPECT_LE(Case.ExpectedCode, 221u) << Case.Test.Name;
    } else {
      ++KnownMisses;
      EXPECT_EQ(Case.ExpectedCode, 0u) << Case.Test.Name;
    }
  }
  // The suite deliberately documents model gaps alongside detections.
  EXPECT_GE(KnownMisses, 1u);
  EXPECT_LT(KnownMisses, S.Cases.size() / 2);
}

TEST(DesktopSuite, RejectsMissingManifest) {
  TempSuiteDir Dir;
  DesktopSuite S = loadDesktopSuite(Dir.path());
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.Error.find("manifest.txt"), std::string::npos);
}

TEST(DesktopSuite, RejectsMalformedManifestLines) {
  struct BadLine {
    const char *Line;
    const char *WhyFragment;
  };
  const BadLine Cases[] = {
      {"lonely", "flag|miss"},
      {"c flag 9 extra", "trailing"},
      {"c maybe 9", "'flag' or 'miss'"},
      {"c flag 0", "nonzero code"},
      {"c miss 7", "code 0"},
      {"ghost flag 9", "ghost_bad.c"},
  };
  for (const BadLine &Bad : Cases) {
    TempSuiteDir Dir;
    Dir.write("manifest.txt", std::string(Bad.Line) + "\n");
    DesktopSuite S = loadDesktopSuite(Dir.path());
    EXPECT_FALSE(S.ok()) << Bad.Line;
    EXPECT_TRUE(S.Cases.empty()) << Bad.Line;
    EXPECT_NE(S.Error.find(Bad.WhyFragment), std::string::npos)
        << Bad.Line << " -> " << S.Error;
  }
}

TEST(DesktopSuite, LoadsMinimalValidDirectory) {
  TempSuiteDir Dir;
  Dir.write("manifest.txt", "# comment line\n\nmini flag 1\n");
  Dir.write("mini_bad.c", "int main(void) { return 1 / 0; }\n");
  Dir.write("mini_good.c", "int main(void) { return 0; }\n");
  DesktopSuite S = loadDesktopSuite(Dir.path());
  ASSERT_TRUE(S.ok()) << S.Error;
  ASSERT_EQ(S.Cases.size(), 1u);
  EXPECT_EQ(S.Cases[0].Test.Name, "mini");
  EXPECT_TRUE(S.Cases[0].ExpectFlagged);
  EXPECT_EQ(S.Cases[0].ExpectedCode, 1u);
}

//===----------------------------------------------------------------------===//
// Scoring against the manifest.
//===----------------------------------------------------------------------===//

TEST(DesktopSuite, EveryCaseMeetsItsManifestExpectation) {
  const DesktopSuite &S = suite();
  ASSERT_TRUE(S.ok()) << S.Error;
  DesktopScores Scores = scoreDesktopBatched(coverageRequest(true), S.Cases);
  ASSERT_EQ(Scores.PerCase.size(), S.Cases.size());
  for (const DesktopCaseScore &Case : Scores.PerCase)
    EXPECT_TRUE(Case.asExpected())
        << Case.Name << ": expected "
        << (Case.ExpectFlagged ? "flag" : "miss") << " "
        << Case.ExpectedCode << ", bad half "
        << (Case.FlaggedBad ? "flagged" : "clean") << " code "
        << Case.ReportedCode
        << (Case.FlaggedGood ? " (good half FLAGGED)" : "");
  EXPECT_EQ(Scores.AsExpected, Scores.PerCase.size());
  EXPECT_EQ(Scores.FalsePositives, 0u);
  EXPECT_EQ(Scores.WrongCode, 0u);
  EXPECT_EQ(Scores.MissedExpected, 0u);
  EXPECT_EQ(Scores.Detected + Scores.KnownMisses, Scores.PerCase.size());
  // Committed floor: the flow-sensitive static layer alone proves at
  // least these many bad halves without executing them (currently
  // scratch_return, lookup_signed, stats_uninit, and lower_const).
  EXPECT_GE(Scores.StaticDetected, 4u);
  EXPECT_LE(Scores.StaticDetected, Scores.Detected);

  std::string Table = renderDesktopTable(Scores);
  EXPECT_NE(Table.find("desktop: as-expected="), std::string::npos);
  EXPECT_NE(Table.find(" static="), std::string::npos);
  EXPECT_EQ(Table.find("UNEXPECTED"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Wave-vs-steal byte equality over the whole suite.
//===----------------------------------------------------------------------===//

namespace {

void expectIdentical(const DriverOutcome &A, const DriverOutcome &B,
                     const std::string &Tag) {
  EXPECT_EQ(A.CompileOk, B.CompileOk) << Tag;
  EXPECT_EQ(A.Status, B.Status) << Tag;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << Tag;
  EXPECT_EQ(A.Output, B.Output) << Tag;
  EXPECT_EQ(A.SearchWitness, B.SearchWitness) << Tag;
  EXPECT_EQ(A.OrdersExplored, B.OrdersExplored) << Tag;
  EXPECT_EQ(A.OrdersDeduped, B.OrdersDeduped) << Tag;
  EXPECT_EQ(A.SearchTruncated, B.SearchTruncated) << Tag;
  EXPECT_EQ(A.SearchPeakFrontier, B.SearchPeakFrontier) << Tag;
  EXPECT_EQ(A.renderReport(), B.renderReport()) << Tag;
}

} // namespace

TEST(DesktopSuite, WaveVsStealVerdictsAndWitnessesIdentical) {
  // The desktop programs are pointer-heavy and order-sensitive — the
  // shapes where a scheduler bug would first show. Every half of every
  // pair must produce byte-identical outcomes (verdict, witness,
  // report, program output) between the reference wave engine and the
  // stealing pool at forced widths 1 and 4.
  const DesktopSuite &S = suite();
  ASSERT_TRUE(S.ok()) << S.Error;
  std::vector<BatchInput> Programs;
  for (const DesktopCase &Case : S.Cases) {
    Programs.push_back({Case.Test.Bad, Case.Test.Name + "_bad.c"});
    Programs.push_back({Case.Test.Good, Case.Test.Name + "_good.c"});
  }

  AnalysisRequest Req = AnalysisRequest::Builder()
                            .searchRuns(16)
                            .searchJobs(1)
                            .buildOrDie();

  const std::vector<DriverOutcome> Ref = reference::waveBatch(Req, Programs);
  for (unsigned Workers : {1u, 4u}) {
    EngineConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.ClampWorkersToHardware = false;
    AnalysisEngine Eng(Cfg);
    std::vector<JobHandle> Jobs = Eng.submitBatch(Req, Programs);
    ASSERT_EQ(Jobs.size(), Ref.size());
    for (size_t I = 0; I < Jobs.size(); ++I)
      expectIdentical(Ref[I], Jobs[I].wait(),
                      Programs[I].Name + " workers=" +
                          std::to_string(Workers));
    Eng.shutdown();
  }
}
