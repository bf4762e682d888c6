//===- tests/test_undef_suite.cpp - Custom suite conformance ----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The custom suite doubles as a conformance corpus for kcc itself:
// every control program must compile and run clean (no false
// positives), and the suite's shape must match the paper's numbers
// (178 tests, 70 behaviors, all 42 dynamic core behaviors covered).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "suites/UndefSuite.h"
#include "ub/Catalog.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

TEST(UndefSuite, PaperShape) {
  UndefSuiteStats Stats = undefSuiteStats();
  EXPECT_EQ(Stats.Tests, 178u);
  EXPECT_EQ(Stats.Behaviors, 70u);
  EXPECT_EQ(Stats.StaticBehaviors, 22u);
  EXPECT_EQ(Stats.DynamicBehaviors, 48u);
  EXPECT_EQ(Stats.DynamicCorePortableCovered, 42u)
      << "every dynamic core portable behavior needs at least one test";
}

TEST(UndefSuite, AboutTwoTestsPerBehavior) {
  UndefSuiteStats Stats = undefSuiteStats();
  double Ratio = double(Stats.Tests) / Stats.Behaviors;
  EXPECT_GE(Ratio, 2.0);
  EXPECT_LE(Ratio, 3.0); // the paper reports ~2 tests per behavior
}

TEST(UndefSuite, EveryBehaviorIdExistsInCatalog) {
  for (const TestCase &Test : undefSuite()) {
    const CatalogEntry *Entry = catalogEntry(Test.CatalogId);
    ASSERT_NE(Entry, nullptr) << Test.Name;
    EXPECT_EQ(Entry->isStatic(), Test.StaticBehavior) << Test.Name;
  }
}

/// Every *control* must be clean under kcc: controls are the
/// false-positive guard the paper insists on.
TEST(UndefSuite, ControlsAreCleanUnderKcc) {
  AnalysisRequest Req = AnalysisRequest::Builder().searchRuns(4).buildOrDie();
  unsigned Failures = 0;
  for (const TestCase &Test : undefSuite()) {
    Driver Drv(Req);
    DriverOutcome O = Drv.runSource(Test.Good, Test.Name + "_good.c");
    if (!O.CompileOk || O.anyUb() || O.Status != RunStatus::Completed) {
      ++Failures;
      ADD_FAILURE() << Test.Name << " control flagged or failed:\n"
                    << O.CompileErrors << O.renderReport()
                    << "status=" << static_cast<int>(O.Status);
      if (Failures > 8)
        break; // keep the log readable
    }
  }
}

/// kcc's overall detection on the undefined programs: the paper's
/// Figure 3 shows kcc detecting most dynamic behaviors; this asserts a
/// floor so regressions surface.
TEST(UndefSuite, KccDetectsMostDynamicTests) {
  AnalysisRequest Req = AnalysisRequest::Builder().searchRuns(8).buildOrDie();
  unsigned Dynamic = 0, Detected = 0;
  for (const TestCase &Test : undefSuite()) {
    if (Test.StaticBehavior)
      continue;
    ++Dynamic;
    Driver Drv(Req);
    DriverOutcome O = Drv.runSource(Test.Bad, Test.Name + "_bad.c");
    if (O.anyUb())
      ++Detected;
  }
  EXPECT_GE(Detected * 100, Dynamic * 60)
      << "kcc detected only " << Detected << "/" << Dynamic
      << " dynamic undefined tests";
}

TEST(UndefSuite, KccDetectsNamedStaticBehaviors) {
  // The implemented static checks (catalog ids 40-51) must all fire.
  AnalysisRequest Req;
  for (const TestCase &Test : undefSuite()) {
    if (!Test.StaticBehavior || Test.CatalogId > 51)
      continue;
    Driver Drv(Req);
    DriverOutcome O = Drv.runSource(Test.Bad, Test.Name + "_bad.c");
    EXPECT_TRUE(O.anyUb()) << Test.Name << " not flagged";
  }
}

TEST(UndefSuite, ExternWithoutDefinitionReportsRow161) {
  // ub057_incomplete_array's bad half reads an extern array the unit
  // never defines. That run used to end Internal with no report, which
  // kcc --json rendered as a "clean" verdict with exit 0; it must report
  // catalog row 161 (6.9:5) at the use instead.
  const TestCase *Test = nullptr;
  for (const TestCase &T : undefSuite())
    if (T.Name == "ub057_incomplete_array")
      Test = &T;
  ASSERT_NE(Test, nullptr);
  DriverOutcome O = runKcc(Test->Bad, 8);
  ASSERT_TRUE(O.CompileOk) << O.CompileErrors;
  EXPECT_EQ(O.Status, RunStatus::UbDetected);
  ASSERT_EQ(O.DynamicUb.size(), 1u) << O.renderReport();
  EXPECT_EQ(ubCode(O.DynamicUb[0].Kind), 161u);
  EXPECT_EQ(O.DynamicUb[0].Loc.Line, 2u) << "reported at the use";
  expectClean(Test->Good, 0, 8);

  // Block-scope externs and taking the address are uses too.
  expectUb("int main(void) { extern int y; return y; }\n",
           static_cast<UbKind>(161));
  expectUb("extern int x;\nint main(void) { return &x != 0; }\n",
           static_cast<UbKind>(161));
}

TEST(UndefSuite, ExternDeclarationsDenoteTheUnitsDefinition) {
  // Not a false positive of the above: an extern declaration of a name
  // the unit defines, before or after it, at file or block scope,
  // designates that one object.
  expectClean("extern int z;\n"
              "int f(void) { return z; }\n"
              "int z = 3;\n"
              "int main(void) { return f() - 3; }\n");
  expectClean("int y = 2;\n"
              "int main(void) { extern int y; y = y + 1; return y - 3; }\n");
  expectClean("extern int table[];\n"
              "int main(void) { return sizeof(int) - 4; }\n");
}

} // namespace
