//===- tests/test_interp_defined.cpp - Defined-program semantics --------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// A miniature torture suite: the positive semantics must compute the
// right answers for defined programs (the paper's sister-paper goal);
// every test here must be clean AND produce the expected result.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace cundef;

namespace {

TEST(InterpDefined, ArithmeticPrecedence) {
  expectClean("int main(void) { return 2 + 3 * 4 - 14; }");
  expectClean("int main(void) { return (2 + 3) * 4 - 20; }");
  expectClean("int main(void) { return 17 % 5 - 2; }");
  expectClean("int main(void) { return (1 << 4) - 16; }");
}

TEST(InterpDefined, ComparisonAndLogic) {
  expectClean("int main(void) { return (3 < 4 && 4 <= 4 && 5 > 4 &&"
              " 4 >= 4 && 3 != 4 && 4 == 4) ? 0 : 1; }");
  expectClean("int main(void) { int x = 0;"
              " return (x || 1) && !(x && 1) ? 0 : 1; }");
}

TEST(InterpDefined, MixedSignednessComparison) {
  // -1 converts to UINT_MAX when compared against unsigned (defined,
  // surprising, and a classic torture-test case).
  expectClean("int main(void) { unsigned u = 1;"
              " return (-1 < u) ? 1 : 0; }");
}

TEST(InterpDefined, WhileLoopSum) {
  expectClean("int main(void) {\n"
              "  int n = 10, sum = 0;\n"
              "  while (n) { sum += n; n--; }\n"
              "  return sum - 55;\n}\n");
}

TEST(InterpDefined, DoWhileRunsOnce) {
  expectClean("int main(void) {\n"
              "  int n = 0;\n"
              "  do { n++; } while (0);\n"
              "  return n - 1;\n}\n");
}

TEST(InterpDefined, ForWithBreakContinue) {
  expectClean("int main(void) {\n"
              "  int sum = 0; int i;\n"
              "  for (i = 0; i < 100; i++) {\n"
              "    if (i % 2) { continue; }\n"
              "    if (i > 8) { break; }\n"
              "    sum += i;\n"
              "  }\n"
              "  return sum - 20;\n}\n");
}

TEST(InterpDefined, NestedLoopsAndBreak) {
  expectClean("int main(void) {\n"
              "  int hits = 0; int i; int j;\n"
              "  for (i = 0; i < 3; i++) {\n"
              "    for (j = 0; j < 3; j++) {\n"
              "      if (j == 2) { break; }\n"
              "      hits++;\n"
              "    }\n"
              "  }\n"
              "  return hits - 6;\n}\n");
}

TEST(InterpDefined, SwitchFallthrough) {
  expectClean("int main(void) {\n"
              "  int r = 0;\n"
              "  switch (2) {\n"
              "  case 1: r += 1;\n"
              "  case 2: r += 2;\n"
              "  case 3: r += 3; break;\n"
              "  case 4: r += 100;\n"
              "  default: r += 1000;\n"
              "  }\n"
              "  return r - 5;\n}\n");
}

TEST(InterpDefined, SwitchDefault) {
  expectClean("int main(void) {\n"
              "  switch (42) { case 1: return 1; default: return 0; }\n"
              "}\n");
}

TEST(InterpDefined, SwitchNoMatchFallsThrough) {
  expectClean("int main(void) {\n"
              "  switch (9) { case 1: return 1; case 2: return 2; }\n"
              "  return 0;\n}\n");
}

TEST(InterpDefined, GotoForwardAndBackward) {
  expectClean("int main(void) {\n"
              "  int n = 0;\n"
              "  goto middle;\n"
              "top:\n"
              "  n += 10;\n"
              "  goto end;\n"
              "middle:\n"
              "  n += 1;\n"
              "  goto top;\n"
              "end:\n"
              "  return n - 11;\n}\n");
}

TEST(InterpDefined, TernaryChains) {
  expectClean("int main(void) {\n"
              "  int grade = 77;\n"
              "  int band = grade > 90 ? 4 : grade > 75 ? 3 :"
              " grade > 60 ? 2 : 1;\n"
              "  return band - 3;\n}\n");
}

TEST(InterpDefined, RecursionAckermannSmall) {
  expectClean("static int ack(int m, int n) {\n"
              "  if (m == 0) { return n + 1; }\n"
              "  if (n == 0) { return ack(m - 1, 1); }\n"
              "  return ack(m - 1, ack(m, n - 1));\n}\n"
              "int main(void) { return ack(2, 3) - 9; }\n");
}

TEST(InterpDefined, MutualRecursion) {
  expectClean("static int isOdd(int n);\n"
              "static int isEven(int n) {"
              " return n == 0 ? 1 : isOdd(n - 1); }\n"
              "static int isOdd(int n) {"
              " return n == 0 ? 0 : isEven(n - 1); }\n"
              "int main(void) { return isEven(10) - 1 + isOdd(7) - 1; }\n");
}

TEST(InterpDefined, ArraysAndPointerWalk) {
  expectClean("int main(void) {\n"
              "  int a[5]; int *p; int sum = 0; int i;\n"
              "  for (i = 0; i < 5; i++) { a[i] = i * i; }\n"
              "  for (p = a; p < a + 5; p++) { sum += *p; }\n"
              "  return sum - 30;\n}\n");
}

TEST(InterpDefined, TwoDimensionalArray) {
  expectClean("int main(void) {\n"
              "  int m[3][4]; int i; int j; int sum = 0;\n"
              "  for (i = 0; i < 3; i++) {\n"
              "    for (j = 0; j < 4; j++) { m[i][j] = i * 4 + j; }\n"
              "  }\n"
              "  for (i = 0; i < 3; i++) { sum += m[i][i]; }\n"
              "  return sum - 15;\n}\n");
}

TEST(InterpDefined, StructsByValue) {
  expectClean("struct vec { int x; int y; };\n"
              "static struct vec add(struct vec a, struct vec b) {\n"
              "  struct vec r; r.x = a.x + b.x; r.y = a.y + b.y;"
              " return r;\n}\n"
              "int main(void) {\n"
              "  struct vec p = {1, 2};\n"
              "  struct vec q = {30, 40};\n"
              "  struct vec s = add(p, q);\n"
              "  return s.x + s.y - 73;\n}\n");
}

TEST(InterpDefined, StructAssignmentCopies) {
  expectClean("struct pair { int a; int b; };\n"
              "int main(void) {\n"
              "  struct pair x = {1, 2};\n"
              "  struct pair y;\n"
              "  y = x;\n"
              "  x.a = 100;\n"
              "  return y.a - 1 + y.b - 2;\n}\n");
}

TEST(InterpDefined, UnionPunningViaMembers) {
  expectClean("union u { int i; unsigned char bytes[4]; };\n"
              "int main(void) {\n"
              "  union u v;\n"
              "  v.i = 0x01020304;\n"
              "  return v.bytes[0] - 4;\n}\n");
}

TEST(InterpDefined, EnumsInSwitch) {
  expectClean("enum mode { OFF, ON = 10, AUTO };\n"
              "int main(void) {\n"
              "  enum mode m = AUTO;\n"
              "  switch (m) { case OFF: return 1; case ON: return 2;"
              " case AUTO: return 0; }\n"
              "  return 3;\n}\n");
}

TEST(InterpDefined, FunctionPointerTable) {
  expectClean("static int inc(int x) { return x + 1; }\n"
              "static int dbl(int x) { return x * 2; }\n"
              "int main(void) {\n"
              "  int (*ops[2])(int);\n"
              "  ops[0] = inc; ops[1] = dbl;\n"
              "  return ops[0](3) + ops[1](5) - 14;\n}\n");
}

TEST(InterpDefined, CharArithmeticAndPromotion) {
  expectClean("int main(void) {\n"
              "  char a = 'A';\n"
              "  char z = a + 25;\n"
              "  return z - 'Z';\n}\n");
}

TEST(InterpDefined, FloatDoubleArithmetic) {
  expectClean("int main(void) {\n"
              "  double d = 0.5;\n"
              "  float f = 0.25f;\n"
              "  double sum = d + f + 0.25;\n"
              "  return sum == 1.0 ? 0 : 1;\n}\n");
}

TEST(InterpDefined, SizeofValues) {
  expectClean("int main(void) {\n"
              "  int a[10];\n"
              "  return (int)(sizeof a / sizeof a[0]) - 10\n"
              "       + (int)sizeof(char) - 1\n"
              "       + (int)sizeof(int) - 4\n"
              "       + (int)sizeof(long) - 8\n"
              "       + (int)sizeof(int*) - 8;\n}\n");
}

TEST(InterpDefined, GlobalInitializersRunInOrder) {
  expectClean("int a = 5;\n"
              "int b[3] = {1, 2, 3};\n"
              "const char *msg = \"hi\";\n"
              "int main(void) { return a + b[2] - 8 + (msg[0] - 'h'); }\n");
}

TEST(InterpDefined, RedefinitionsWithLinkageShareOneObject) {
  // C11 6.2.2p2, 6.9.2p2: a tentative definition and a later definition
  // of one name denote one object, so f reads the initialized value.
  expectClean("int x; int f(void){return x;} int x = 2;\n"
              "int main(void){return f() - 2;}\n");
  expectClean("static int x; int f(void){return x;} static int x = 2;\n"
              "int main(void){return f() - 2;}\n");
  expectClean("int a[4]; int f(void){return a[3];} int a[4] = {0, 0, 0, 7};\n"
              "int main(void){return f() - 7;}\n");
}

TEST(InterpDefined, TentativeArrayDefinitionsAreComplete) {
  // C11 6.9.2p2: `int a[];` with external linkage is a tentative
  // definition; a later definition completes it, otherwise the array
  // has one element.
  expectClean("int a[]; int main(void){return a[0];}\n");
  expectClean("int a[]; int a[4] = {0,1,2,3}; int main(void){return a[1]-1;}\n");
  // Internal linkage (6.9.2p3) and a never-completed struct stay
  // objects of incomplete type (catalog row 50).
  for (const char *Source : {"static int s[]; int main(void){return 0;}\n",
                             "struct opaque box; int main(void){return 0;}\n"}) {
    DriverOutcome O = runKcc(Source);
    ASSERT_FALSE(O.StaticUb.empty()) << Source;
    EXPECT_EQ(ubCode(O.StaticUb.front().Kind), 50u) << Source;
  }
  // Only a definition of the same element type completes the array;
  // another element type or a second size is an incompatible
  // redeclaration (C11 6.2.7p2, catalog row 44).
  for (const char *Source :
       {"int a[]; char a[4]; int main(void){return a[0];}\n",
        "int a[]; const int a[4]; int main(void){return a[0];}\n",
        "int a[]; int a[3]; int a[4]; int main(void){return a[0];}\n"}) {
    DriverOutcome O = runKcc(Source);
    ASSERT_FALSE(O.StaticUb.empty()) << Source;
    EXPECT_EQ(ubCode(O.StaticUb.front().Kind), 44u) << Source;
  }
}

TEST(InterpDefined, SecondExternalDefinitionIsUndefined) {
  // C11 6.9p5 allows one external definition per name; J.2 lists a
  // second as undefined (catalog row 162). A tentative definition is
  // not a second one.
  expectUb("int x = 1; int x = 2; int main(void){return x - 2;}\n",
           static_cast<UbKind>(162));
  expectClean("int x; int x = 2; int main(void){return x - 2;}\n");
}

TEST(InterpDefined, PrintfFormats) {
  std::string Out = outputOf(
      "#include <stdio.h>\n"
      "int main(void) {\n"
      "  printf(\"%d %u %x %c %s\\n\", -3, 7u, 255, 'q', \"str\");\n"
      "  printf(\"%05d|%-4d|\\n\", 42, 7);\n"
      "  printf(\"%g\\n\", 1.5);\n"
      "  return 0;\n}\n");
  EXPECT_EQ(Out, "-3 7 ff q str\n00042|7   |\n1.5\n");
}

TEST(InterpDefined, ExitCodePropagates) {
  DriverOutcome O = runKcc("#include <stdlib.h>\n"
                           "static void die(void) { exit(3); }\n"
                           "int main(void) { die(); return 0; }\n");
  EXPECT_EQ(O.Status, RunStatus::Completed);
  EXPECT_EQ(O.ExitCode, 3);
}

TEST(InterpDefined, ShadowingScopes) {
  expectClean("int x = 1;\n"
              "int main(void) {\n"
              "  int x = 2;\n"
              "  { int x = 3; if (x != 3) { return 1; } }\n"
              "  return x - 2;\n}\n");
}

} // namespace
