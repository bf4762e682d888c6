//===- kccbench/src/Common.cpp - Shared benchmark vocabulary --------------===//
//
// Part of cundef's benchmark (kccbench).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ub/UbKind.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sys/resource.h>
#include <unistd.h>

using namespace cundef;

namespace kccbench {

static std::vector<uint16_t> findingCodes(const DriverOutcome &O) {
  std::vector<uint16_t> Codes;
  for (const UbReport &R : O.StaticUb)
    Codes.push_back(ubCode(R.Kind));
  for (const UbReport &R : O.DynamicUb)
    Codes.push_back(ubCode(R.Kind));
  return Codes;
}

bool matchesAnswer(const DriverOutcome &O, const KnownAnswer &A) {
  if (O.anyUb() != A.Ub)
    return false;
  if (!A.Ub)
    return !A.CheckExit || (O.Status == RunStatus::Completed &&
                            O.ExitCode == A.ExitCode);
  if (A.Codes.empty())
    return true;
  std::vector<uint16_t> Codes = findingCodes(O);
  if (A.FirstCodeOnly)
    return Codes.front() == A.Codes.front();
  for (uint16_t C : Codes)
    if (std::find(A.Codes.begin(), A.Codes.end(), C) != A.Codes.end())
      return true;
  return false;
}

bool gotVerdict(const DriverOutcome &O) {
  if (O.CompileOk)
    return O.Status != RunStatus::Internal;
  // A compile error is kcc's verdict on the unit; an engine refusal
  // carries no findings and no frontend diagnostics of the unit.
  return O.anyUb() || O.CompileErrors.find("engine is shut down") ==
                          std::string::npos;
}

bool decided(const DriverOutcome &O) {
  return O.anyUb() ||
         (!O.SearchTruncated && O.Status != RunStatus::StepLimit);
}

std::string canonicalOutcome(const DriverOutcome &O) {
  char Head[256];
  std::snprintf(Head, sizeof(Head),
                "ok=%d static_only=%d status=%d exit=%d orders=%u "
                "deduped=%u truncated=%d dropped=%u hints=%zu\n",
                O.CompileOk, O.StaticOnly, static_cast<int>(O.Status),
                O.ExitCode, O.OrdersExplored, O.OrdersDeduped,
                O.SearchTruncated, O.SearchDropped, O.StaticHints.size());
  std::string S = Head;
  S += "witness=";
  for (uint8_t D : O.SearchWitness)
    S += std::to_string(D) + ",";
  S += "\nreport:\n" + O.renderReport() + "\noutput:\n" + O.Output;
  return S;
}

Graded grade(const DriverOutcome &O, const KnownAnswer &A) {
  Graded G;
  G.Verdict = gotVerdict(O);
  G.Correct = G.Verdict && matchesAnswer(O, A);
  G.Decided = G.Verdict && decided(O);
  G.StrictMiss = A.Strict && !G.Correct;
  return G;
}

void tally(RunResult &R, EndToEnd &E, const Program &P,
           const DriverOutcome &O) {
  Graded G = grade(O, P.Answer);
  E.add(G);
  if (!G.Verdict) {
    R.Notes.push_back("no verdict: " + P.Name);
  } else if (G.StrictMiss) {
    R.Correct = false;
    R.Notes.push_back("wrong verdict: " + P.Name);
  }
}

EngineConfig benchEngineConfig(unsigned SearchWorkers) {
  EngineConfig Cfg;
  Cfg.Workers = SearchWorkers;
  Cfg.FrontendWorkers = 1;
  return Cfg;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

static double readStolenTicks() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return 0;
  unsigned long long V[8] = {};
  int N = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                      &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  return N == 8 ? double(V[7]) : 0.0;
}

double stolenSeconds() {
  static const double Tick = 1.0 / double(sysconf(_SC_CLK_TCK));
  return readStolenTicks() * Tick;
}

double StealScale::share(double Wall, unsigned Cpus) const {
  return Wall > 0 ? (stolenSeconds() - Stolen) / (Wall * Cpus) : 0.0;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

Tail tailOf(const std::vector<double> &V) {
  Tail T;
  T.Samples = V.size();
  for (double P : {99.0, 95.0, 75.0, 50.0}) {
    if (static_cast<double>(V.size()) * (100.0 - P) / 100.0 >= 10.0 ||
        P == 50.0) {
      T.Pct = P;
      break;
    }
  }
  T.Value = percentile(V, T.Pct);
  return T;
}

void EndToEnd::emit(RunResult &R, bool Traced) const {
  R.Attempted += Attempted;
  R.Failed += Attempted - Verdicts;
  if (Traced)
    return;
  auto Add = [&](const char *Name, double Value, const char *Unit) {
    R.Metrics.push_back({Name, Value, Unit});
  };
  // Rates and latencies per unstolen second (StealScale).
  std::vector<double> LatencyMs;
  for (const Latency &L : Latencies)
    for (const Slice &S : Slices)
      if (L.End > S.Start && L.End <= S.End) {
        LatencyMs.push_back(L.Ms * S.StealFactor);
        break;
      }
  Tail T = tailOf(LatencyMs);
  Add("setup_s", percentile(SetupSeconds, 50), "s");
  Add("verdict_ms_p50", percentile(LatencyMs, 50), "ms");
  Add("verdict_ms_tail", T.Value, "ms");
  std::vector<double> TuRate, OrderRate, CpuPerTu;
  double Steal = 0;
  for (const Slice &S : Slices) {
    const double Unstolen = S.Seconds * S.StealFactor;
    TuRate.push_back(S.Tus / Unstolen);
    OrderRate.push_back(S.RunsCommitted / Unstolen);
    Steal += S.StealShare / Slices.size();
    if (S.Tus)
      CpuPerTu.push_back(S.CpuSeconds * 1000.0 / S.Tus);
  }
  Add("tu_per_s", percentile(TuRate, 50), "1/s");
  Add("orders_per_s", percentile(OrderRate, 50), "1/s");
  Add("cpu_ms_per_tu", percentile(CpuPerTu, 50), "ms");
  Add("peak_rss_mb", PeakRssMb, "MB");
  Add("success_rate", Attempted ? double(Verdicts) / Attempted : 0.0, "ratio");
  Add("verdict_accuracy", Attempted ? double(Correct) / Attempted : 0.0,
      "ratio");
  Add("decided_rate", Attempted ? double(Decided) / Attempted : 0.0, "ratio");

  char Note[200];
  std::snprintf(Note, sizeof(Note),
                "verdict_ms_tail is p%g of %zu samples; setup_s is the "
                "median of %zu set-ups; rates are medians of %zu slices; "
                "the hypervisor stole %.1f%% of the CPUs",
                T.Pct, T.Samples, SetupSeconds.size(), Slices.size(),
                100 * Steal);
  R.Notes.push_back(Note);
  std::string Rates = "slices, tu_per_s/steal factor:";
  for (size_t I = 0; I < Slices.size(); ++I) {
    std::snprintf(Note, sizeof(Note), " %.4g/%.2f", TuRate[I],
                  Slices[I].StealFactor);
    Rates += Note;
  }
  R.Notes.push_back(Rates);
}

} // namespace kccbench
