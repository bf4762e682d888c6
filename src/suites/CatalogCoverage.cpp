//===- suites/CatalogCoverage.cpp - The UB-catalog coverage harness ----------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// The generator table. Three sources, in priority order:
//
//  1. Handwritten cases (rows with no suite test): a minimal triggering
//     program plus the codes the behavior legitimately reports under.
//  2. Alias rows (suite-covered rows >= 52, which have no UbKind of
//     their own): the suite's first undefined program plus an explicit
//     alias-code set justified by the C11 clause.
//  3. Suite rows 1-51: the suite's first undefined program, matching
//     exactly code Id.
//
// Inexpressible rows name the missing feature (FILE streams, setjmp,
// scanf, ...) so the note doubles as a to-do list for the libc model.
//
//===----------------------------------------------------------------------===//

#include "suites/CatalogCoverage.h"

#include "driver/Engine.h"
#include "driver/JsonOutput.h"
#include "suites/UndefSuite.h"
#include "support/Strings.h"
#include "ub/Catalog.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>

using namespace cundef;

namespace {

/// A handwritten triggering program (rows the suite does not cover), an
/// alias-code annotation for a suite-covered row (Program == nullptr,
/// Codes non-empty), or an inexpressibility record (Program == nullptr,
/// Codes empty, Note says which modelled feature is missing).
struct RowSpec {
  uint16_t Id;
  const char *Program; ///< null: suite program (alias row) or inexpressible
  std::vector<uint16_t> Codes;
  const char *Note;
};

/// Shorthand for inexpressible rows.
RowSpec none(uint16_t Id, const char *Note) { return {Id, nullptr, {}, Note}; }

/// Shorthand for alias rows: suite program, explicit code set.
RowSpec alias(uint16_t Id, std::vector<uint16_t> Codes, const char *Note) {
  return {Id, nullptr, std::move(Codes), Note};
}

std::vector<RowSpec> buildSpecs() {
  std::vector<RowSpec> R;

  //===--- Rows 1-51: UbKind rows needing a non-suite program ------------===//

  // The suite's subscript/use-after-free programs are flagged earlier
  // (pointer arithmetic, dangling-value use) than the row's own kind;
  // these library-shaped triggers hit exactly the row's code.
  R.push_back({9,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char a[4]; char b[8];\n"
      "  memset(a, 'x', 4);\n"
      "  memcpy(b, a, 8);\n"
      "  return b[0];\n}\n",
      {9}, "strict: row mirrors UbKind 9 (read past the source object)"});
  R.push_back({10,
      "#include <string.h>\n"
      "int main(void) { char b[4]; memset(b, 0, 8); return b[0]; }\n",
      {10}, "strict: row mirrors UbKind 10 (write past the object)"});
  R.push_back({11,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  int *p = (int*)malloc(sizeof(int));\n"
      "  if (!p) { return 1; }\n"
      "  *p = 5;\n  free(p);\n  return *p;\n}\n",
      {11}, "strict: row mirrors UbKind 11 (read of freed storage)"});
  R.push_back(none(31,
      "the LP64 model defines every integer conversion result (wraps); no "
      "trapping target is modelled, so the behavior cannot be triggered"));
  R.push_back({33,
      "#include <stdlib.h>\n"
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char *p = (char*)malloc(1200000);\n"
      "  if (!p) { return 1; }\n"
      "  memset(p, 'x', 1200000);\n"
      "  int n = (int)strlen(p);\n"
      "  free(p);\n  return n;\n}\n",
      {33}, "strict: row mirrors UbKind 33 (an endless string walk)"});
  R.push_back({35,
      "static int rec(int n) { return rec(n + 1); }\n"
      "int main(void) { return rec(0); }\n",
      {35}, "strict: row mirrors UbKind 35"});
  R.push_back({37,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  int x = 0;\n"
      "  char *q = (char*)realloc(&x, 8);\n"
      "  if (q) { free(q); }\n  return x;\n}\n",
      {37}, "strict: row mirrors UbKind 37"});
  R.push_back({38,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  char *p = (char*)malloc(0);\n"
      "  if (!p) { return 1; }\n"
      "  p[0] = 'x';\n  free(p);\n  return 0;\n}\n",
      {38}, "strict: row mirrors UbKind 38"});
  R.push_back({39,
      "#include <string.h>\n"
      "struct padded { char c; int i; };\n"
      "int main(void) {\n"
      "  struct padded a, b;\n"
      "  memset(&a, 0, sizeof a); memset(&b, 0, sizeof b);\n"
      "  a.c = b.c = 'x'; a.i = b.i = 1;\n"
      "  return memcmp(&a, &b, sizeof a) != 0;\n}\n",
      {39}, "strict: row mirrors UbKind 39"});

  //===--- Rows 52-69: further core dynamic (suite-covered get aliases) --===//

  R.push_back(alias(52, {12},
      "lifetime-ended access is reported as code 12 (6.2.4:2 is the same "
      "clause)"));
  R.push_back(alias(53, {53},
      "strict: the evaluator reports this row's own catalog code"));
  R.push_back(alias(54, {19, 30},
      "trap representations surface as indeterminate-value reads"));
  R.push_back(alias(55, {19},
      "the trap-producing store is caught when the stored indeterminate "
      "value is read"));
  R.push_back({56,
      "int main(void) {\n"
      "  double d = 1e300;\n"
      "  float f = (float)d;\n"
      "  return f > 0.0f;\n}\n",
      {26}, "float demotion overflow would report under the float-"
            "conversion code"});
  // Not the suite's ub057 program: that one reads an extern array the
  // unit never defines, which is row 161's undefinedness (reported as
  // such) before it is this row's.
  R.push_back({57,
      "struct S;\n"
      "struct S *get(void);\n"
      "int main(void) { (void)*get(); return 0; }\n"
      "struct S { int a; };\n"
      "struct S obj;\n"
      "struct S *get(void) { return &obj; }\n",
      {50, 19}, "needs an lvalue-conversion check for types incomplete at "
                "the point of use"});
  R.push_back(alias(58, {19},
      "register-eligible uninitialized use is an indeterminate-value "
      "read"));
  R.push_back({59,
      "int main(void) {\n"
      "  int a[2]; a[0] = 1; a[1] = 2;\n"
      "  int *p = (int*)((char*)a + 1);\n"
      "  return *p;\n}\n",
      {8, 9, 25},
      "a misaligned converted pointer is caught at the dereference under "
      "the invalid-pointer codes"});
  R.push_back(alias(60, {22},
      "incompatible call through a converted pointer is code 22 (6.5.2.2:9)"));
  R.push_back(alias(61, {3, 1},
      "the modelled exceptional conditions are signed overflow and "
      "INT_MIN / -1"));
  R.push_back(alias(62, {8, 11},
      "unary * on an invalid value reports under the dangling/freed "
      "codes"));
  R.push_back(alias(63, {9, 13},
      "subscripting a non-array pointer is an out-of-bounds access "
      "(6.5.6:8)"));
  R.push_back(alias(64, {64},
      "strict: the evaluator reports this row's own catalog code"));
  R.push_back(alias(65, {9, 10, 13},
      "inexactly overlapping assignment reads/writes outside the source "
      "object"));
  R.push_back(none(66,
      "variable length arrays are outside the modelled language subset"));
  R.push_back(alias(67, {22, 23},
      "a call/definition type mismatch reports under the call-mismatch "
      "codes"));
  R.push_back(alias(68, {19},
      "padding bytes are indeterminate; reading one is code 19"));
  R.push_back(none(69,
      "setjmp/longjmp are outside the modelled library subset"));

  //===--- Rows 70-141: library dynamic ----------------------------------===//

  R.push_back({70,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char b[4];\n"
      "  memset(b, 0, 1000000);\n"
      "  return b[0];\n}\n",
      {10, 33}, "an invalid length argument is caught as the resulting "
                "out-of-bounds write"});
  R.push_back({71,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  return (int)strlen((char*)0);\n}\n",
      {33, 6}, "a null object argument reports under the string-argument "
               "or null-dereference codes"});
  R.push_back(alias(72, {72},
      "strict: the evaluator reports this row's own catalog code"));
  R.push_back({73,
      "#include <stdio.h>\n"
      "int main(void) { int x = 1; printf(\"%d\\n\", &x); return 0; }\n",
      {34}, "printf argument/conversion mismatch is the modelled va_arg "
            "mismatch"});
  R.push_back({74,
      "#include <stdio.h>\n"
      "int main(void) { printf(\"%*d\\n\", 1.5, 7); return 0; }\n",
      {34}, "a non-int width argument is a variadic-argument type "
            "mismatch"});
  R.push_back({75,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  char *p = (char*)malloc(8);\n"
      "  if (!p) { return 1; }\n"
      "  free(p + 4);\n  return 0;\n}\n",
      {20}, "an interior free() argument is an invalid free (code 20)"});
  R.push_back({76,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  char *p = (char*)malloc(8);\n"
      "  if (!p) { return 1; }\n"
      "  free(p);\n"
      "  char *q = (char*)realloc(p, 16);\n"
      "  if (q) { free(q); }\n  return 0;\n}\n",
      {37}, "realloc of a freed pointer is an invalid realloc argument"});
  R.push_back({77,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char src[4]; char dst[4];\n"
      "  memset(src, 'a', 4);\n"
      "  memcpy(dst, src, 16);\n"
      "  return dst[0];\n}\n",
      {9, 10}, "a too-small memcpy operand is an out-of-bounds access"});
  R.push_back({78,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char dst[4];\n"
      "  memmove(dst, (char*)1234, 4);\n"
      "  return dst[0];\n}\n",
      {8, 9, 33}, "an invalid memmove operand is a forged-pointer access"});
  R.push_back({79,
      "#include <string.h>\n"
      "int main(void) { char dst[4]; strcpy(dst, \"much too long\");"
      " return dst[0]; }\n",
      {10, 33, 29}, "the overflowing store lands one past the destination "
                    "(6.5.6:8)"});
  R.push_back({80,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char src[4]; char dst[64];\n"
      "  src[0] = 'a'; src[1] = 'b'; src[2] = 'c'; src[3] = 'd';\n"
      "  strcpy(dst, src);\n"
      "  return dst[0];\n}\n",
      {33, 9, 29}, "a non-terminated strcpy source reads one past its "
                   "object (6.5.6:8)"});
  R.push_back({81,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char dst[4];\n"
      "  dst[0] = 'a'; dst[1] = 'b'; dst[2] = 'c'; dst[3] = 'd';\n"
      "  strcat(dst, \"ef\");\n"
      "  return dst[0];\n}\n",
      {33, 9, 10, 29}, "a non-terminated strcat destination reads one past "
                       "its object (6.5.6:8)"});
  R.push_back({82,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char a[3]; a[0] = 'x'; a[1] = 'y'; a[2] = 'z';\n"
      "  return strcmp(a, \"xyz\");\n}\n",
      {33, 9, 29}, "a non-terminated strcmp argument reads one past its "
                   "object (6.5.6:8)"});
  R.push_back({83,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char a[2]; a[0] = 'q'; a[1] = 'r';\n"
      "  return strchr(a, 'z') != 0;\n}\n",
      {33, 9, 29}, "a non-terminated strchr argument reads one past its "
                   "object (6.5.6:8)"});
  R.push_back({84,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char a[4]; a[0] = 'a'; a[1] = 'b'; a[2] = 'c'; a[3] = 'd';\n"
      "  return (int)strlen(a);\n}\n",
      {33, 9, 29}, "a non-terminated strlen argument reads one past its "
                   "object (6.5.6:8)"});
  R.push_back({85,
      "#include <stdlib.h>\n"
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char *p = (char*)malloc(3);\n"
      "  if (!p) { return 1; }\n"
      "  p[0] = 'h'; p[1] = 'i'; p[2] = '!';\n"
      "  int n = (int)strlen(p);\n  free(p);\n  return n;\n}\n",
      {33, 9, 29}, "strlen walking one past the end of a heap object "
                   "(6.5.6:8)"});
  R.push_back(none(86, "FILE streams are outside the modelled library "
                       "subset"));
  R.push_back(none(87, "FILE streams are outside the modelled library "
                       "subset"));
  R.push_back(none(88, "FILE streams are outside the modelled library "
                       "subset"));
  R.push_back(none(89, "the strtol family is outside the modelled library "
                       "subset"));
  R.push_back({90,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  int m = 0;\n"
      "  return rand() % m;\n}\n",
      {2}, "the zero modulus is caught as remainder by zero"});
  R.push_back(none(91, "getenv is outside the modelled library subset"));
  R.push_back({92,
      "#include <stdlib.h>\n"
      "static int cmp(const void *a, const void *b) {\n"
      "  *(int*)a = 0;\n"
      "  return *(const int*)a - *(const int*)b;\n}\n"
      "int main(void) {\n"
      "  int key = 2;\n"
      "  int arr[3]; arr[0] = 1; arr[1] = 2; arr[2] = 3;\n"
      "  return bsearch(&key, arr, 3, sizeof(int), cmp) != 0;\n}\n",
      {17}, "needs a comparator-purity check; the mutation itself is not "
            "otherwise undefined in the model"});
  R.push_back({93,
      "#include <stdlib.h>\n"
      "static int flip = 0;\n"
      "static int cmp(const void *a, const void *b) {\n"
      "  (void)a; (void)b;\n"
      "  flip = 1 - flip;\n"
      "  return flip ? -1 : 1;\n}\n"
      "int main(void) {\n"
      "  int arr[4]; arr[0] = 3; arr[1] = 1; arr[2] = 2; arr[3] = 0;\n"
      "  qsort(arr, 4, sizeof(int), cmp);\n"
      "  return arr[0];\n}\n",
      {}, "needs a comparator-consistency check; no existing UbKind names "
          "this behavior"});
  R.push_back({94,
      "#include <stdlib.h>\n"
      "static int cmp(const void *a, const void *b) {\n"
      "  return *(const int*)a - *(const int*)b;\n}\n"
      "int main(void) {\n"
      "  int x = 5;\n"
      "  qsort(&x, 3, sizeof(int), cmp);\n"
      "  return x;\n}\n",
      {9, 10, 13, 29}, "sorting past a non-array object is an out-of-"
                       "bounds (one-past) access"});
  R.push_back({95,
      "#include <stdio.h>\n"
      "int main(void) { printf(\"%f\\n\", 7); return 0; }\n",
      {34}, "the modelled va_arg mismatch (printf-style)"});
  R.push_back(none(96, "the modelled va_list is a bare index; va_start/"
                       "va_end carry no state that a second va_start "
                       "could corrupt"));
  R.push_back(none(97, "the modelled va_list is a bare index; va_end "
                       "leaves no invalid state to use"));
  R.push_back({98,
      "#include <stdarg.h>\n"
      "static int second(int n, ...) {\n"
      "  va_list ap;\n"
      "  va_start(ap, n);\n"
      "  int a = va_arg(ap, int);\n"
      "  int b = va_arg(ap, int);\n"
      "  va_end(ap);\n"
      "  return a + b;\n}\n"
      "int main(void) { return second(1, 7) - 7; }\n",
      {98}, "strict: the evaluator reports this row's own catalog code"});
  R.push_back(none(99, "setjmp/longjmp are outside the modelled library "
                       "subset"));
  R.push_back(none(100, "setjmp/longjmp are outside the modelled library "
                        "subset"));
  R.push_back(none(101, "scanf is outside the modelled library subset"));
  R.push_back(none(102, "scanf is outside the modelled library subset"));
  R.push_back({103,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  unsigned long n = 0xffffffffffffffffUL;\n"
      "  char *p = (char*)malloc(n + 2);\n"
      "  if (!p) { return 1; }\n"
      "  p[1] = 'x';\n  free(p);\n  return 0;\n}\n",
      {10, 29}, "the wrapped size allocates 1 byte; the write at [1] is "
                "one past the object"});
  R.push_back({104,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char b[8] = \"abcdefg\";\n"
      "  strncpy(b + 1, b, 4);\n"
      "  return b[1];\n}\n",
      {27, 33}, "overlap family (reported like the memcpy overlap when "
                "detected)"});
  R.push_back({105,
      "#include <string.h>\n"
      "int main(void) { char b[4]; memset(b, 0, 8); return b[0]; }\n",
      {10}, "an oversized memset length is an out-of-bounds write"});
  R.push_back({106,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char a[4]; char b[4];\n"
      "  memset(a, 'x', 4); memset(b, 'x', 4);\n"
      "  return memcmp(a, b, 16);\n}\n",
      {9, 33, 29}, "a memcmp operand extending past its object reads one "
                   "past it"});
  R.push_back(none(107, "FILE streams are outside the modelled library "
                        "subset"));
  R.push_back(none(108, "atexit is outside the modelled library subset, so "
                        "exit() cannot re-enter"));
  R.push_back(none(109, "atexit is outside the modelled library subset"));
  R.push_back(none(110, "the filesystem is outside the modelled library "
                        "subset"));
  R.push_back(none(111, "signal handling is outside the modelled library "
                        "subset"));
  R.push_back(none(112, "signal handling is outside the modelled library "
                        "subset"));
  R.push_back(none(113, "signal handling is outside the modelled library "
                        "subset"));
  R.push_back({114,
      "#include <stdio.h>\n"
      "int main(void) { printf(\"\\x80\\xff\\n\"); return 0; }\n",
      {34}, "needs a format-string validity check in the printf model"});
  R.push_back({115,
      "#include <stdio.h>\n"
      "int main(void) { printf(\"%n\\n\", (int*)0); return 0; }\n",
      {34, 6, 204}, "the printf model treats %n as an invalid conversion "
                    "specifier (row 204's code)"});
  R.push_back(none(116, "strtod is outside the modelled library subset"));
  R.push_back(none(117, "strstr is outside the modelled library subset"));
  R.push_back(none(118, "strtok is outside the modelled library subset"));
  R.push_back({119,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  unsigned long big = 0x8000000000000000UL;\n"
      "  int *p = (int*)calloc(big, 16);\n"
      "  if (!p) { return 1; }\n"
      "  p[0] = 1;\n  free(p);\n  return 0;\n}\n",
      {10}, "a wrapped calloc size under-allocates; the first write is out "
            "of bounds"});
  R.push_back(none(120, "gets is outside the modelled library subset"));
  R.push_back({121,
      "#include <string.h>\n"
      "int main(void) { char b[2]; memset(b, 300, 2); return b[0]; }\n",
      {19}, "needs a value-range check in the memset model (trap-value "
            "row)"});
  R.push_back(none(122, "vprintf is outside the modelled library subset"));
  R.push_back({123,
      "#include <stdlib.h>\n"
      "static int cmp(const void *a, const void *b) {\n"
      "  return *(const int*)a - *(const int*)b;\n}\n"
      "int main(void) {\n"
      "  int key = 2;\n"
      "  int arr[4]; arr[0] = 9; arr[1] = 2; arr[2] = 7; arr[3] = 1;\n"
      "  return bsearch(&key, arr, 4, sizeof(int), cmp) != 0;\n}\n",
      {}, "needs a sortedness check in the bsearch model; no existing "
          "UbKind names this behavior"});
  R.push_back(none(124, "the modelled va_start ignores its parmN operand "
                        "entirely, so its declaration cannot matter"));
  R.push_back(none(125, "FILE streams are outside the modelled library "
                        "subset"));
  R.push_back(none(126, "signal handling is outside the modelled library "
                        "subset"));
  R.push_back(none(127, "FILE streams are outside the modelled library "
                        "subset"));
  R.push_back({128,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char b[4] = \"abc\";\n"
      "  return (int)strlen(b + 4);\n}\n",
      {33, 9, 29}, "a one-past-the-end string start reads out of bounds"});
  R.push_back({129,
      "#include <stdlib.h>\n"
      "static int keep = 3;\n"
      "int main(void) { free(&keep); return 0; }\n",
      {20}, "freeing static storage is an invalid free argument"});
  R.push_back({130,
      "#include <stdlib.h>\n"
      "int main(void) { int a[2]; a[0] = 1; free(a); return a[0]; }\n",
      {20}, "freeing automatic storage is an invalid free argument"});
  R.push_back({131,
      "#include <stdio.h>\n"
      "int main(void) {\n"
      "  char b[3]; b[0] = 'a'; b[1] = 'b'; b[2] = 'c';\n"
      "  printf(\"%s\\n\", b);\n"
      "  return 0;\n}\n",
      {33, 34, 9, 29}, "a non-terminated %s argument reads one past its "
                       "object"});
  R.push_back({132,
      "#include <stdio.h>\n"
      "int main(void) { printf(\"%p\\n\", 5); return 0; }\n",
      {34}, "a non-pointer %p argument is a va_arg type mismatch"});
  R.push_back({133,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char a[4]; char b[4];\n"
      "  memset(a, 'x', 4);\n"
      "  memmove(b, a, 12);\n"
      "  return b[0];\n}\n",
      {9, 10}, "an oversized memmove length is an out-of-bounds access"});
  R.push_back({134,
      "#include <stdlib.h>\n"
      "int main(void) { return atoi(\"not a number\"); }\n",
      {33}, "needs an input-validity check in the atoi model (trap-value "
            "row)"});
  R.push_back({135,
      "#include <string.h>\n"
      "int main(void) {\n"
      "  char a[3]; a[0] = 'x'; a[1] = 'y'; a[2] = 'z';\n"
      "  return strncmp(a, \"xyz!\", 8);\n}\n",
      {33, 9, 29}, "an strncmp length past a non-terminated operand reads "
                   "one past it"});
  R.push_back(none(136, "FILE objects are outside the modelled library "
                        "subset"));
  R.push_back({137,
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  char *p = (char*)malloc(8);\n"
      "  if (!p) { return 1; }\n"
      "  char *q = (char*)realloc(p + 4, 16);\n"
      "  if (q) { free(q); } else { free(p); }\n  return 0;\n}\n",
      {37}, "an interior realloc argument is an invalid realloc"});
  R.push_back(none(138, "strncat is outside the modelled library subset"));
  R.push_back({139,
      "#include <stdio.h>\n"
      "int main(void) {\n"
      "  char b[8] = \"seed\";\n"
      "  snprintf(b, 8, \"x%s\", b);\n"
      "  return b[0];\n}\n",
      {27, 33}, "needs an overlap check in the snprintf model"});
  R.push_back({140,
      "#include <stdlib.h>\n"
      "static int cmp(const void *a, const void *b) {\n"
      "  return *(const int*)a - *(const int*)b;\n}\n"
      "int main(void) {\n"
      "  int arr[4]; arr[0] = 3; arr[1] = 1; arr[2] = 2; arr[3] = 0;\n"
      "  qsort(arr, 4, 1, cmp);\n"
      "  return arr[0];\n}\n",
      {9, 19, 25}, "a wrong element size misreads elements through the "
                   "comparator"});
  R.push_back(none(141, "the modelled va_list is a bare index passed by "
                        "value; caller and callee cannot share state"));

  //===--- Rows 142-221: statically detectable (suite rows get aliases) --===//

  R.push_back({142,
      "int main(void) { return 0; }",
      {}, "needs a lexer-level end-of-file check; no existing UbKind "
          "names this behavior"});
  R.push_back({143,
      "int @bad = 1;\n"
      "int main(void) { return 0; }\n",
      {}, "needs a lexer-level character-set check"});
  R.push_back({144,
      "#define MKDEF defined\n"
      "#if MKDEF(MKDEF)\n"
      "#endif\n"
      "int main(void) { return 0; }\n",
      {}, "needs a preprocessor check for generated 'defined'"});
  R.push_back({145,
      "#include bad-include-form\n"
      "int main(void) { return 0; }\n",
      {}, "needs a preprocessor header-name-form check"});
  R.push_back({146,
      "#define TAKES(a) a\n"
      "int main(void) { return TAKES(0",
      {}, "needs a preprocessor end-of-file-in-arguments check"});
  R.push_back(none(147,
      "the modelled # operator always produces a valid string literal, so "
      "the behavior cannot be triggered"));
  R.push_back({148,
      "#define PASTE(a, b) a##b\n"
      "int main(void) { return PASTE(1, ++x); }\n",
      {}, "needs a preprocessor invalid-paste check"});
  R.push_back({149,
      "#line 0\n"
      "int main(void) { return 0; }\n",
      {}, "needs a preprocessor #line range check (the model ignores "
          "#line)"});
  R.push_back({150,
      "#pragma nonstandard_thing\n"
      "int main(void) { return 0; }\n",
      {}, "needs a preprocessor pragma check (the model ignores #pragma)"});
  R.push_back({151,
      "#undef __LINE__\n"
      "int main(void) { return 0; }\n",
      {}, "needs a preprocessor predefined-macro guard"});
  R.push_back({152,
      "#include <bad'name.h>\n"
      "int main(void) { return 0; }\n",
      {}, "needs a preprocessor header-name character check"});
  R.push_back(alias(153, {},
      "needs a lexer-level constant-range check; no existing UbKind names "
      "this behavior"));
  R.push_back(none(154,
      "encoding-prefixed string literals are outside the modelled "
      "subset"));
  R.push_back({155,
      "int main(void) { // comment ending in backslash \\\n"
      "  return 0;\n}\n",
      {}, "needs a lexer-level line-splice check in // comments"});
  R.push_back({156,
      "extern int both_linkages;\n"
      "static int both_linkages = 1;\n"
      "int main(void) { return both_linkages - 1; }\n",
      {44}, "linkage disagreement is an incompatible redeclaration "
            "(6.2.2 via 6.2.7)"});
  R.push_back(none(157,
      "cross-translation-unit declarations are outside the modelled "
      "subset (one TU per analysis)"));
  R.push_back({158,
      "int main(void) { int twice = 1; int twice = 2; return twice; }\n",
      {44}, "a no-linkage redeclaration in one scope is an incompatible "
            "redeclaration"});
  R.push_back({159,
      "inline int counter(void) { static int c = 0; c = c + 1; return c; }\n"
      "int main(void) { return counter() - 1; }\n",
      {}, "needs an inline-definition static-object check"});
  R.push_back({160,
      "static int secret = 3;\n"
      "inline int reveal(void) { return secret; }\n"
      "int main(void) { return reveal() - 3; }\n",
      {}, "needs an inline-definition internal-linkage-reference check"});
  R.push_back({161,
      "extern int never_defined(int x);\n"
      "int main(void) { return never_defined(1); }\n",
      {161}, "strict: the evaluator reports this row's own catalog code"});
  R.push_back({162,
      "int doubled = 1;\n"
      "int doubled = 2;\n"
      "int main(void) { return doubled; }\n",
      {162}, "strict: sema reports this row's own catalog code at the "
             "second definition"});
  R.push_back({163,
      "int not_a_function { return 0; }\n"
      "int main(void) { return 0; }\n",
      {}, "needs a declarator-form check (the frontend rejects the parse "
          "without a UB report)"});
  R.push_back({164,
      "static int identity(a) { return a; }\n"
      "int main(void) { return identity(0); }\n",
      {}, "needs an identifier-list parameter-type check"});
  R.push_back(alias(165, {50},
      "a memberless struct leaves its objects effectively incomplete"));
  R.push_back({166,
      "struct bad_flex { int tail[]; int after; };\n"
      "int main(void) { return 0; }\n",
      {}, "needs a flexible-array-placement check"});
  R.push_back(alias(167, {},
      "needs an enumerator-range check; no existing UbKind names this "
      "behavior"));
  R.push_back({168,
      "struct tag_kind { int a; };\n"
      "int main(void) { union tag_kind { int b; } u; u.b = 1;"
      " return u.b - 1; }\n",
      {44}, "a tag redeclared as a different kind is an incompatible "
            "redeclaration"});
  R.push_back({169,
      "int main(void) { int restrict plain = 1; return plain - 1; }\n",
      {}, "needs a restrict-applicability check"});
  R.push_back({170,
      "typedef int fn(void);\n"
      "const fn croak;\n"
      "int main(void) { return 0; }\n",
      {41}, "a qualified function type through a typedef is code 41 "
            "(6.7.3:9)"});
  R.push_back(none(171,
      "alignment specifiers are outside the modelled language subset"));
  R.push_back({172,
      "int main(void) { void (* restrict fp)(void) = 0; (void)fp;"
      " return 0; }\n",
      {}, "needs a restrict-applicability check (pointer to function)"});
  R.push_back(alias(173, {},
      "needs a parameter-list form check; the frontend rejects the parse "
      "without a UB report"));
  R.push_back({174,
      "int main(void) { int a[2] = {1, 2, 3}; return a[0] - 1; }\n",
      {}, "needs an excess-initializer check"});
  R.push_back({175,
      "static int supply(void) { return 4; }\n"
      "int from_call = supply();\n"
      "int main(void) { return from_call - 4; }\n",
      {}, "needs a constant-initializer check for static storage"});
  R.push_back({176,
      "int main(void) { int x = {1, 2}; return x - 1; }\n",
      {}, "needs a scalar-brace-list check"});
  R.push_back({177,
      "int main(void) {\n"
      "again: ;\n"
      "again: ;\n"
      "  return 0;\n}\n",
      {}, "needs a duplicate-label check"});
  R.push_back({178,
      "int main(void) {\n"
      "  case 1: ;\n"
      "  return 0;\n}\n",
      {}, "needs a label-placement check"});
  R.push_back({179,
      "int main(void) {\n"
      "  int x = 1;\n"
      "  switch (x) { case 1: return 1; case 1: return 2; }\n"
      "  return 0;\n}\n",
      {}, "needs a duplicate-case check"});
  R.push_back({180,
      "int main(void) { goto nowhere; return 0; }\n",
      {}, "needs an undefined-label check"});
  R.push_back({181,
      "int main(void) { continue; return 0; }\n",
      {}, "needs a continue-placement check"});
  R.push_back({182,
      "int main(void) { break; return 0; }\n",
      {}, "needs a break-placement check"});
  R.push_back(alias(183, {24},
      "the empty return is caught when the caller uses the missing value "
      "(code 24)"));
  R.push_back(alias(184, {23},
      "an argument-count mismatch is code 23 (6.5.2.2)"));
  R.push_back(alias(185, {23},
      "an argument-count mismatch is code 23 (6.5.2.2)"));
  R.push_back({186,
      "int main(void) { return (int)sizeof(main); }\n",
      {}, "needs a sizeof-operand check"});
  R.push_back({187,
      "struct whole { int v; };\n"
      "int main(void) { struct whole w = (struct whole)5; return w.v; }\n",
      {}, "needs a cast-type check (the frontend rejects the parse "
          "without a UB report)"});
  R.push_back(alias(188, {},
      "needs a pointer-compatibility check in assignment; the frontend "
      "accepts or rejects without a UB report"));
  R.push_back({189,
      "int main(void) { return mystery_value; }\n",
      {}, "needs an undeclared-identifier UB report (the frontend rejects "
          "the parse without one)"});
  R.push_back({190,
      "int main(void) { return 5[6]; }\n",
      {}, "needs a subscript-operand check"});
  R.push_back({191,
      "int main(void) { register int r = 1; return *(&r); }\n",
      {}, "needs an address-of-register check"});
  R.push_back({192,
      "#define int struct\n"
      "#include <string.h>\n"
      "int main(void) { return 0; }\n",
      {}, "needs a keyword-macro-at-include check"});
  R.push_back(alias(193, {},
      "needs a reserved-identifier check; code 45 covers distinctness, "
      "not reservation"));
  R.push_back({194,
      "int strextra = 1;\n"
      "int main(void) { return strextra - 1; }\n",
      {}, "needs a reserved-library-prefix check"});
  R.push_back({195,
      "#define strlen(s) 0\n"
      "#include <string.h>\n"
      "int main(void) { return 0; }\n",
      {}, "needs a macro-before-header check"});
  R.push_back({196,
      "int strlen(int x);\n"
      "int main(void) { return 0; }\n",
      {44}, "an incompatible library declaration clashes with the "
            "modelled prototype"});
  R.push_back(none(197, "assert.h is outside the modelled library subset"));
  R.push_back(none(198, "setjmp is outside the modelled library subset"));
  R.push_back(none(199, "setjmp is outside the modelled library subset"));
  R.push_back({200,
      "#include <stdarg.h>\n"
      "static int fixed_args(int n) {\n"
      "  va_list ap;\n"
      "  va_start(ap, n);\n"
      "  int v = va_arg(ap, int);\n"
      "  va_end(ap);\n"
      "  return v;\n}\n"
      "int main(void) { return fixed_args(3); }\n",
      {200}, "strict: the syntactic checker flags variadic machinery in a "
             "fixed-argument function"});
  R.push_back({201,
      "#include <stdarg.h>\n"
      "static int voids(int n, ...) {\n"
      "  va_list ap;\n"
      "  va_start(ap, n);\n"
      "  va_arg(ap, void);\n"
      "  va_end(ap);\n"
      "  return 0;\n}\n"
      "int main(void) { return voids(1, 2); }\n",
      {201}, "strict: the syntactic checker flags a va_arg type argument "
             "that is not a complete object type"});
  R.push_back(none(202, "offsetof is outside the modelled library subset"));
  R.push_back(none(203, "offsetof is outside the modelled library subset"));
  R.push_back({204,
      "#include <stdio.h>\n"
      "int main(void) { printf(\"%q\\n\", 1); return 0; }\n",
      {204}, "strict: the evaluator reports this row's own catalog code"});
  R.push_back(none(205, "scanf is outside the modelled library subset"));
  R.push_back({206,
      "#include <stddef.h>\n"
      "#undef NULL\n"
      "#define NULL 5\n"
      "int main(void) { return NULL - 5; }\n",
      {}, "needs a NULL-redefinition check"});
  R.push_back({207,
      "char *strcpy(char *d, int wrong);\n"
      "int main(void) { return 0; }\n",
      {44}, "a mismatched local prototype clashes with the modelled "
            "declaration"});
  R.push_back({208,
      "int memextra = 1;\n"
      "int main(void) { return memextra - 1; }\n",
      {}, "needs a future-library-direction reserved-name check"});
  R.push_back(alias(209, {},
      "needs a preprocessor predefined-macro guard; no existing UbKind "
      "names this behavior"));
  R.push_back({210,
      "#define __LINE__ 5\n"
      "int main(void) { return 0; }\n",
      {}, "needs a preprocessor predefined-macro guard"});
  R.push_back(none(211,
      "universal character names are outside the modelled subset"));
  R.push_back(none(212,
      "universal character names are outside the modelled subset"));
  R.push_back({213,
      "int main(void) { int c = 'ab'; return c != 0; }\n",
      {}, "needs a multi-character-constant check"});
  R.push_back({214,
      "int main(void) { double d = 1e99999; return d > 0; }\n",
      {}, "needs a floating-constant range check"});
  R.push_back({215,
      "extern int sized[5];\n"
      "int sized[6];\n"
      "int main(void) { return 0; }\n",
      {44}, "inconsistent completion is an incompatible redeclaration"});
  R.push_back({216,
      "struct outer_tag { int a; };\n"
      "int main(void) {\n"
      "  struct outer_tag *p = 0;\n"
      "  { struct outer_tag { int b; } inner; inner.b = 1;"
      " p = (struct outer_tag*)&inner; }\n"
      "  return p == 0;\n}\n",
      {}, "needs a shadowed-forward-reference check"});
  R.push_back({217,
      "int static lately = 1;\n"
      "int main(void) { return lately - 1; }\n",
      {}, "needs a storage-class-position check (obsolescent form)"});
  R.push_back({218,
      "static int bare() { return 0; }\n"
      "int main(void) { return bare(); }\n",
      {}, "needs an empty-identifier-list definition check (obsolescent "
          "form)"});
  R.push_back({219,
      "int main(void) { int a[static 5]; a[0] = 1; return a[0] - 1; }\n",
      {}, "needs an array-declarator qualifier-placement check"});
  R.push_back(none(220,
      "compound literals are outside the modelled language subset"));
  R.push_back({221,
      "#error deliberate failure\n"
      "int main(void) { return 0; }\n",
      {}, "the directive stops translation without a UB report; needs a "
          "static finding"});

  return R;
}

std::vector<CoverageCase> buildCases() {
  // First undefined program per suite-covered behavior.
  std::map<uint16_t, const TestCase *> SuiteFirst;
  for (const TestCase &Test : undefSuite())
    SuiteFirst.emplace(Test.CatalogId, &Test);

  std::map<uint16_t, RowSpec> Specs;
  for (RowSpec &Spec : buildSpecs()) {
    bool Inserted = Specs.emplace(Spec.Id, std::move(Spec)).second;
    assert(Inserted && "duplicate coverage row spec");
    (void)Inserted;
  }

  const unsigned Total = catalogStats().Total;
  std::vector<CoverageCase> Cases;
  Cases.reserve(Total);
  for (uint16_t Id = 1; Id <= Total; ++Id) {
    CoverageCase Case;
    Case.Id = Id;
    auto SpecIt = Specs.find(Id);
    auto SuiteIt = SuiteFirst.find(Id);
    if (SpecIt == Specs.end()) {
      // Plain suite row: program from the suite, strict code match.
      assert(SuiteIt != SuiteFirst.end() &&
             "catalog row without a coverage case");
      Case.Program = SuiteIt->second->Bad;
      Case.ExpectedCodes = {Id};
      Case.Note = "strict: row mirrors a UbKind; program from the custom "
                  "suite";
    } else {
      const RowSpec &Spec = SpecIt->second;
      Case.Note = Spec.Note;
      Case.ExpectedCodes = Spec.Codes;
      if (Spec.Program) {
        Case.Program = Spec.Program;
      } else if (!Spec.Codes.empty() || SuiteIt != SuiteFirst.end()) {
        // Alias row: suite program with an explicit code set.
        assert(SuiteIt != SuiteFirst.end() &&
               "alias row without a suite program");
        Case.Program = SuiteIt->second->Bad;
      }
      // else: inexpressible (Program stays empty).
    }
    Cases.push_back(std::move(Case));
  }
  return Cases;
}

} // namespace

const std::vector<CoverageCase> &cundef::catalogCoverageCases() {
  static const std::vector<CoverageCase> Cases = buildCases();
  return Cases;
}

const char *cundef::coverageVerdictName(CoverageVerdict V) {
  switch (V) {
  case CoverageVerdict::Covered:       return "covered";
  case CoverageVerdict::WrongCode:     return "wrong-code";
  case CoverageVerdict::Missed:        return "missed";
  case CoverageVerdict::Inexpressible: return "inexpressible";
  }
  return "?";
}

const char *cundef::coverageSourceName(CoverageSource S) {
  switch (S) {
  case CoverageSource::None:    return "none";
  case CoverageSource::Static:  return "static";
  case CoverageSource::Dynamic: return "dynamic";
  case CoverageSource::Both:    return "both";
  }
  return "?";
}

AnalysisRequest cundef::coverageRequest(bool Quick) {
  return AnalysisRequest::Builder()
      .searchRuns(Quick ? 4 : 64)
      .searchJobs(0)
      .buildOrDie();
}

CoverageReport cundef::runCatalogCoverage(AnalysisEngine &Eng,
                                          const AnalysisRequest &Req) {
  const std::vector<CoverageCase> &Cases = catalogCoverageCases();
  const auto Start = std::chrono::steady_clock::now();

  // One batch: every expressible case, in catalog order.
  std::vector<BatchInput> Inputs;
  std::vector<size_t> InputCase; // batch index -> case index
  for (size_t I = 0; I < Cases.size(); ++I) {
    if (!Cases[I].expressible())
      continue;
    Inputs.push_back(
        {Cases[I].Program, strFormat("cov_ub%03u.c", Cases[I].Id)});
    InputCase.push_back(I);
  }
  std::vector<JobHandle> Jobs = Eng.submitBatch(Req, Inputs);

  CoverageReport Report;
  Report.Entries.resize(Cases.size());
  for (size_t I = 0; I < Cases.size(); ++I) {
    Report.Entries[I].Id = Cases[I].Id;
    Report.Entries[I].Verdict = CoverageVerdict::Inexpressible;
  }

  for (size_t J = 0; J < Jobs.size(); ++J) {
    const DriverOutcome &Outcome = Jobs[J].wait();
    const CoverageCase &Case = Cases[InputCase[J]];
    EntryCoverage &Entry = Report.Entries[InputCase[J]];

    uint16_t First = 0, FirstMatch = 0;
    bool MatchedStatic = false, MatchedDynamic = false;
    auto Scan = [&](const std::vector<UbReport> &Reports, bool &Matched) {
      for (const UbReport &R : Reports) {
        uint16_t Code = ubCode(R.Kind);
        if (!First)
          First = Code;
        if (std::find(Case.ExpectedCodes.begin(), Case.ExpectedCodes.end(),
                      Code) != Case.ExpectedCodes.end()) {
          Matched = true;
          if (!FirstMatch)
            FirstMatch = Code;
        }
      }
    };
    Scan(Outcome.StaticUb, MatchedStatic);
    Scan(Outcome.DynamicUb, MatchedDynamic);

    // Prefer the code that answered the row: a static 00049 ahead of a
    // dynamic 00017 must not grade the row by the bystander code.
    Entry.ReportedCode = FirstMatch ? FirstMatch : First;
    if (MatchedStatic || MatchedDynamic) {
      Entry.Verdict = CoverageVerdict::Covered;
      Entry.Source = MatchedStatic && MatchedDynamic ? CoverageSource::Both
                     : MatchedStatic ? CoverageSource::Static
                                     : CoverageSource::Dynamic;
    } else if (First)
      Entry.Verdict = CoverageVerdict::WrongCode;
    else
      Entry.Verdict = CoverageVerdict::Missed; // clean run or plain
                                               // compile error
  }
  Eng.drain();

  for (const EntryCoverage &Entry : Report.Entries) {
    switch (Entry.Verdict) {
    case CoverageVerdict::Covered:       ++Report.Covered; break;
    case CoverageVerdict::WrongCode:     ++Report.WrongCode; break;
    case CoverageVerdict::Missed:        ++Report.Missed; break;
    case CoverageVerdict::Inexpressible: ++Report.Inexpressible; break;
    }
    switch (Entry.Source) {
    case CoverageSource::None: break;
    case CoverageSource::Static:  ++Report.CoveredStatic; break;
    case CoverageSource::Dynamic: ++Report.CoveredDynamic; break;
    case CoverageSource::Both:    ++Report.CoveredBoth; break;
    }
  }
  Report.WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  return Report;
}

CoverageReport cundef::runCatalogCoverage(const AnalysisRequest &Req) {
  AnalysisEngine Eng(engineConfigFor(Req));
  CoverageReport Report = runCatalogCoverage(Eng, Req);
  Eng.shutdown();
  return Report;
}

std::string cundef::renderCoverageReport(const CoverageReport &R) {
  std::string Out;
  Out += "UB-catalog coverage: one triggering program per catalog entry,\n"
         "graded against the codes the evaluator reports.\n\n";
  Out += padRight("Verdict", 16) + padLeft("Entries", 8) + "\n";
  Out += std::string(24, '-') + "\n";
  Out += padRight("covered", 16) + padLeft(strFormat("%u", R.Covered), 8) +
         strFormat("   (static %u, dynamic %u, both %u)", R.CoveredStatic,
                   R.CoveredDynamic, R.CoveredBoth) +
         "\n";
  Out += padRight("wrong-code", 16) +
         padLeft(strFormat("%u", R.WrongCode), 8) + "\n";
  Out += padRight("missed", 16) + padLeft(strFormat("%u", R.Missed), 8) +
         "\n";
  Out += padRight("inexpressible", 16) +
         padLeft(strFormat("%u", R.Inexpressible), 8) + "\n";
  Out += padRight("total", 16) + padLeft(strFormat("%u", R.total()), 8) +
         "\n\n";

  // Per-entry lines for everything that is not covered: the work list.
  const std::vector<CoverageCase> &Cases = catalogCoverageCases();
  Out += "Entries not covered:\n";
  for (const EntryCoverage &Entry : R.Entries) {
    if (Entry.Verdict == CoverageVerdict::Covered)
      continue;
    const CatalogEntry *Row = catalogEntry(Entry.Id);
    std::string Line = strFormat(
        "  %3u  %-13s", Entry.Id, coverageVerdictName(Entry.Verdict));
    if (Entry.Verdict == CoverageVerdict::WrongCode)
      Line += strFormat(" reported %05u", Entry.ReportedCode);
    if (Row)
      Line += strFormat("  %s", Row->Description);
    // Inexpressible rows carry the reason instead of the description.
    if (Entry.Verdict == CoverageVerdict::Inexpressible &&
        Entry.Id >= 1 && Entry.Id <= Cases.size())
      Line = strFormat("  %3u  %-13s  %s", Entry.Id,
                       coverageVerdictName(Entry.Verdict),
                       Cases[Entry.Id - 1].Note);
    Out += Line + "\n";
  }
  // The stable machine-greppable summary (CheckCoverageBaseline.cmake);
  // the trailing triple partitions covered by the detecting layer.
  Out += strFormat("\ncoverage: covered=%u wrong-code=%u missed=%u "
                   "inexpressible=%u total=%u static=%u dynamic=%u "
                   "both=%u\n",
                   R.Covered, R.WrongCode, R.Missed, R.Inexpressible,
                   R.total(), R.CoveredStatic, R.CoveredDynamic,
                   R.CoveredBoth);
  return Out;
}

CatalogCoverageColumn cundef::coverageColumn(const CoverageReport &R) {
  CatalogCoverageColumn Col;
  Col.Covered = R.Covered;
  Col.WrongCode = R.WrongCode;
  Col.Missed = R.Missed;
  Col.Inexpressible = R.Inexpressible;
  Col.Cells.reserve(R.Entries.size());
  for (const EntryCoverage &Entry : R.Entries) {
    std::string Cell = coverageVerdictName(Entry.Verdict);
    if (Entry.Verdict == CoverageVerdict::Covered)
      Cell += strFormat(" (%s)", coverageSourceName(Entry.Source));
    if (Entry.Verdict == CoverageVerdict::WrongCode)
      Cell += strFormat(" (reports %05u)", Entry.ReportedCode);
    Col.Cells.push_back(std::move(Cell));
  }
  return Col;
}

std::string cundef::renderCoverageJson(const CoverageReport &R,
                                       const char *Mode, double WallMs) {
  const std::vector<CoverageCase> &Cases = catalogCoverageCases();
  std::string Out;
  Out += "{\n";
  Out += "  \"schema\": \"cundef-kcc-v1\",\n";
  Out += "  \"coverage\": {\n";
  Out += strFormat("    \"mode\": \"%s\",\n", Mode);
  Out += strFormat("    \"total\": %u,\n", R.total());
  Out += strFormat("    \"covered\": %u,\n", R.Covered);
  Out += strFormat("    \"covered_static\": %u,\n", R.CoveredStatic);
  Out += strFormat("    \"covered_dynamic\": %u,\n", R.CoveredDynamic);
  Out += strFormat("    \"covered_both\": %u,\n", R.CoveredBoth);
  Out += strFormat("    \"wrong_code\": %u,\n", R.WrongCode);
  Out += strFormat("    \"missed\": %u,\n", R.Missed);
  Out += strFormat("    \"inexpressible\": %u,\n", R.Inexpressible);
  Out += strFormat("    \"wall_ms\": %.2f,\n", WallMs);
  Out += "    \"entries\": [\n";
  for (size_t I = 0; I < R.Entries.size(); ++I) {
    const EntryCoverage &Entry = R.Entries[I];
    const CoverageCase &Case = Cases[I];
    Out += strFormat("      {\"id\": %u, \"verdict\": \"%s\"", Entry.Id,
                     coverageVerdictName(Entry.Verdict));
    if (Entry.Verdict == CoverageVerdict::Covered)
      Out += strFormat(", \"source\": \"%s\"",
                       coverageSourceName(Entry.Source));
    if (Entry.ReportedCode)
      Out += strFormat(", \"reported_code\": %u", Entry.ReportedCode);
    if (!Case.ExpectedCodes.empty()) {
      Out += ", \"expected_codes\": [";
      for (size_t C = 0; C < Case.ExpectedCodes.size(); ++C)
        Out += strFormat(C ? ", %u" : "%u", Case.ExpectedCodes[C]);
      Out += "]";
    }
    if (Case.Note[0])
      Out += strFormat(", \"note\": \"%s\"",
                       jsonEscape(Case.Note).c_str());
    Out += I + 1 < R.Entries.size() ? "},\n" : "}\n";
  }
  Out += "    ]\n";
  Out += "  },\n";
  Out += "  \"exit_code\": 0\n";
  Out += "}\n";
  return Out;
}
