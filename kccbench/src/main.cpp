//===- kccbench/src/main.cpp - Benchmark entry point ----------------------===//
//
// Part of cundef's benchmark (kccbench).
//
// kccbench --workload search-deep|ci-corpus|serve-mixed --seed N
//          --seconds S --trace 0|1 [--tiny] [--out DIR]
//
// Run from the repository root (the ci-corpus workload reads
// tests/suites/desktop). Prints notes, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}; a traced run
// reports the per-layer metrics, an untraced one the end-to-end ones.
// The full record (notes, metrics, and for a traced run every span)
// goes to DIR/kccbench-results/<workload>-seed<N>-trace<T>.json.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

using namespace kccbench;

static int usage(const char *Why) {
  std::fprintf(stderr,
               "kccbench: %s\nusage: kccbench --workload "
               "search-deep|ci-corpus|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--tiny] [--out DIR]\n",
               Why);
  return 2;
}

static bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  if (!*Text || *Text == '-')
    return false;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*End)
    return false;
  Out = V;
  return true;
}

static std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

static std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C == '\n' ? ' ' : C;
  }
  return Out + "\"";
}

int main(int argc, char **argv) {
  Options Opt;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *Val = I + 1 < argc ? argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (Arg == "--tiny") {
      Opt.Tiny = true;
      continue;
    }
    if (!Val)
      return usage(("missing value for " + Arg).c_str());
    ++I;
    if (Arg == "--workload") {
      Opt.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed" && parseUnsigned(Val, N)) {
      Opt.Seed = N;
      HaveSeed = true;
    } else if (Arg == "--seconds" && parseUnsigned(Val, N) && N > 0 &&
               N <= 3600) {
      Opt.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Arg == "--trace" && parseUnsigned(Val, N) && N <= 1) {
      Opt.Trace = N == 1;
      HaveTrace = true;
    } else if (Arg == "--out") {
      Opt.OutDir = Val;
    } else {
      return usage(("bad argument " + Arg + " " + Val).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  mkdir(Opt.OutDir.c_str(), 0755); // serve-mixed binds its socket here
  RunResult R;
  if (Opt.Workload == "search-deep")
    R = runSearchDeep(Opt);
  else if (Opt.Workload == "ci-corpus")
    R = runCiCorpus(Opt);
  else if (Opt.Workload == "serve-mixed")
    R = runServeMixed(Opt);
  else
    return usage(("unknown workload " + Opt.Workload).c_str());
  if (R.Metrics.empty()) { // the workload could not be set up
    for (const std::string &Note : R.Notes)
      std::fprintf(stderr, "kccbench: %s\n", Note.c_str());
    return 1;
  }

  std::string Metrics = "{";
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    Metrics += (I ? ", " : "") + quoted(R.Metrics[I].Name) +
               ": {\"value\": " + jsonNumber(R.Metrics[I].Value) +
               ", \"unit\": " + quoted(R.Metrics[I].Unit) + "}";
  Metrics += "}";
  std::string Result = std::string("{\"correct\": ") +
                       (R.Correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(R.Attempted) +
                       ", \"failed\": " + std::to_string(R.Failed) +
                       ", \"metrics\": " + Metrics + "}";

  std::string Notes = "[";
  for (size_t I = 0; I < R.Notes.size(); ++I) {
    std::printf("# %s\n", R.Notes[I].c_str());
    Notes += (I ? ", " : "") + quoted(R.Notes[I]);
  }
  Notes += "]";

  std::string Dir = Opt.OutDir + "/kccbench-results";
  mkdir(Dir.c_str(), 0755);
  std::string Path = Dir + "/" + Opt.Workload + "-seed" +
                     std::to_string(Opt.Seed) + "-trace" +
                     (Opt.Trace ? "1" : "0") + (Opt.Tiny ? "-tiny" : "") +
                     ".json";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fprintf(F, "{\"workload\": %s, \"seed\": %llu, \"notes\": %s,\n"
                    "\"result\": %s,\n\"trace\": %s}\n",
                 quoted(Opt.Workload).c_str(),
                 static_cast<unsigned long long>(Opt.Seed), Notes.c_str(),
                 Result.c_str(),
                 R.RecordJson.empty() ? "null" : R.RecordJson.c_str());
    std::fclose(F);
  }
  std::printf("%s\n", Result.c_str());
  return 0;
}
