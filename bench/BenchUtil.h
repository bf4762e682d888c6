//===- bench/BenchUtil.h - Shared bench helpers -----------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// Workload generators and reporting helpers shared by the search and
// batch benches, so the two measure the *same* program shapes and emit
// their BENCH_*.json files the same way.
//
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_BENCH_BENCHUTIL_H
#define CUNDEF_BENCH_BENCHUTIL_H

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace cundef_bench {

/// The deep-tree workload: K commuting pairs whose calls write into a
/// sizable global array. Wide waves with uneven run lengths and a
/// memory-heavy configuration — the shape where prefix replay,
/// full-state rehashing, and wave barriers all hurt. \p Salt offsets
/// the array indexing so batched fleets get distinct (non-dedupable
/// across programs) variants of the same shape.
inline std::string deepTreeProgram(unsigned K, unsigned Cells,
                                   unsigned Salt = 0) {
  char Head[160];
  std::snprintf(Head, sizeof(Head),
                "int buf[%u];\n"
                "static int g(int x) { buf[(x + %u) %% %u] += x; "
                "return x + 1; }\n"
                "int main(void) {\n  int t = 0;\n",
                Cells, Salt, Cells);
  std::string S = Head;
  for (unsigned I = 0; I < K; ++I) {
    char Line[64];
    std::snprintf(Line, sizeof(Line), "  t += g(%u) + g(%u);\n", 2 * I,
                  2 * I + 1);
    S += Line;
  }
  S += "  return t > 0 ? 0 : 1;\n}\n";
  return S;
}

/// The median of repeated wall-clock samples (the upper middle one for
/// an even count), which timing gates compare instead of one sample.
inline double median(std::vector<double> Ms) {
  std::sort(Ms.begin(), Ms.end());
  return Ms.empty() ? 0.0 : Ms[Ms.size() / 2];
}

/// Writes \p Json to \p Path, reporting on stdout like the benches'
/// human-readable tail expects. Returns false (with a stderr note) on
/// failure; the bench exit code should not depend on it.
inline bool writeJsonFile(const char *Bench, const char *Path,
                          const std::string &Json) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "%s: cannot write %s\n", Bench, Path);
    return false;
  }
  std::fputs(Json.c_str(), F);
  std::fclose(F);
  std::printf("wrote %s\n", Path);
  return true;
}

} // namespace cundef_bench

#endif // CUNDEF_BENCH_BENCHUTIL_H
