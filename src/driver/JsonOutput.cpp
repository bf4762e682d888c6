//===- driver/JsonOutput.cpp - Machine-readable kcc output ---------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "driver/JsonOutput.h"

#include "support/Strings.h"

using namespace cundef;

std::string cundef::jsonEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size() + 8);
  for (unsigned char C : Text) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\b': Out += "\\b"; break;
    case '\f': Out += "\\f"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      // Byte-transparent escaping: subject programs of a UB checker
      // emit arbitrary bytes, and a raw non-UTF-8 byte would make the
      // whole document unparseable (RFC 8259 mandates UTF-8). Every
      // non-ASCII byte becomes \u00XX, so the document is pure ASCII
      // and consumers recover the exact bytes by latin-1-encoding the
      // decoded string (documented in docs/JSON_OUTPUT.md).
      if (C < 0x20 || C >= 0x7f)
        Out += strFormat("\\u%04x", C);
      else
        Out += static_cast<char>(C);
    }
  }
  return Out;
}

const char *cundef::runStatusName(RunStatus Status) {
  switch (Status) {
  case RunStatus::Running:    return "running";
  case RunStatus::Completed:  return "completed";
  case RunStatus::UbDetected: return "ub-detected";
  case RunStatus::Fault:      return "fault";
  case RunStatus::StepLimit:  return "step-limit";
  case RunStatus::Internal:   return "internal";
  case RunStatus::Cancelled:  return "cancelled";
  }
  return "internal";
}

namespace {

void appendFinding(std::string &Out, const UbReport &R, bool Last) {
  Out += strFormat("        {\"code\": \"%05u\", \"description\": \"%s\", "
                   "\"function\": \"%s\", \"line\": %u, \"column\": %u, "
                   "\"static\": %s}%s\n",
                   ubCode(R.Kind), jsonEscape(R.Description).c_str(),
                   jsonEscape(R.Function).c_str(), R.Loc.Line, R.Loc.Col,
                   R.StaticFinding ? "true" : "false", Last ? "" : ",");
}

const char *verdictName(FindingVerdict V) {
  switch (V) {
  case FindingVerdict::Must: return "must";
  case FindingVerdict::May:  return "may";
  case FindingVerdict::None: break;
  }
  return "none";
}

void appendStaticFinding(std::string &Out, const UbReport &R, bool Last) {
  Out += strFormat("          {\"code\": \"%05u\", \"verdict\": \"%s\", "
                   "\"domain\": \"%s\", \"description\": \"%s\", "
                   "\"function\": \"%s\", \"line\": %u, \"column\": %u}%s\n",
                   ubCode(R.Kind), verdictName(R.Verdict), R.Domain,
                   jsonEscape(R.Description).c_str(),
                   jsonEscape(R.Function).c_str(), R.Loc.Line, R.Loc.Col,
                   Last ? "" : ",");
}

void appendProgram(std::string &Out, const JsonProgram &P, bool Last) {
  const DriverOutcome &O = *P.Outcome;
  const char *Verdict = !O.CompileOk && !O.anyUb() ? "compile-error"
                        : O.anyUb()                ? "undefined"
                        : O.internalError()        ? "internal-error"
                                                   : "clean";
  Out += "    {\n";
  Out += strFormat("      \"name\": \"%s\",\n", jsonEscape(P.Name).c_str());
  Out += strFormat("      \"verdict\": \"%s\",\n", Verdict);
  Out += strFormat("      \"compile_ok\": %s,\n",
                   O.CompileOk ? "true" : "false");
  Out += strFormat("      \"compile_errors\": \"%s\",\n",
                   jsonEscape(O.CompileErrors).c_str());
  Out += strFormat("      \"status\": \"%s\",\n", runStatusName(O.Status));
  Out += strFormat("      \"exit_code\": %d,\n", O.ExitCode);
  Out += strFormat("      \"output\": \"%s\",\n",
                   jsonEscape(O.Output).c_str());
  Out += strFormat("      \"wall_micros\": %.3f,\n", P.WallMicros);

  // The cundef-kcc-v1 compile block (a backward-compatible addition):
  // where this job's artifact came from and how the job's wall time
  // split between the two pipeline halves.
  Out += "      \"compile\": {\n";
  Out += strFormat("        \"cache_hit\": %s,\n",
                   O.TranslationCacheHit ? "true" : "false");
  Out += strFormat("        \"result_cache_hit\": %s,\n",
                   O.ResultCacheHit ? "true" : "false");
  Out += strFormat("        \"frontend_micros\": %.3f,\n", O.FrontendMicros);
  Out += strFormat("        \"search_micros\": %.3f\n", O.SearchMicros);
  Out += "      },\n";

  std::vector<UbReport> All = O.StaticUb;
  All.insert(All.end(), O.DynamicUb.begin(), O.DynamicUb.end());
  if (All.empty()) {
    Out += "      \"findings\": [],\n";
  } else {
    Out += "      \"findings\": [\n";
    for (size_t I = 0; I < All.size(); ++I)
      appendFinding(Out, All[I], I + 1 == All.size());
    Out += "      ],\n";
  }

  // The cundef-kcc-v1 static_analysis block (backward-compatible
  // addition): the flow layer's mode and findings with their must/may
  // verdict and producing domain. Must findings repeat entries of the
  // combined findings array (with richer attribution); may findings
  // appear ONLY here — they are hints, not part of the verdict.
  size_t StaticCount = O.StaticUb.size() + O.StaticHints.size();
  Out += "      \"static_analysis\": {\n";
  Out += strFormat("        \"mode\": \"%s\",\n", P.StaticMode);
  Out += strFormat("        \"static_only\": %s,\n",
                   O.StaticOnly ? "true" : "false");
  Out += strFormat("        \"must_count\": %zu,\n", O.StaticUb.size());
  Out += strFormat("        \"may_count\": %zu,\n", O.StaticHints.size());
  if (StaticCount == 0) {
    Out += "        \"findings\": []\n";
  } else {
    Out += "        \"findings\": [\n";
    size_t Emitted = 0;
    for (const UbReport &R : O.StaticUb)
      appendStaticFinding(Out, R, ++Emitted == StaticCount);
    for (const UbReport &R : O.StaticHints)
      appendStaticFinding(Out, R, ++Emitted == StaticCount);
    Out += "        ]\n";
  }
  Out += "      },\n";

  std::string Witness;
  for (uint8_t D : O.SearchWitness)
    Witness += strFormat("%s%u", Witness.empty() ? "" : ", ", D);
  Out += "      \"search\": {\n";
  Out += strFormat("        \"orders_explored\": %u,\n", O.OrdersExplored);
  Out += strFormat("        \"orders_deduped\": %u,\n", O.OrdersDeduped);
  Out += strFormat("        \"truncated\": %s,\n",
                   O.SearchTruncated ? "true" : "false");
  Out += strFormat("        \"dropped_subtrees\": %u,\n", O.SearchDropped);
  Out += strFormat("        \"steals\": %u,\n", O.SearchSteals);
  Out += strFormat("        \"snapshot_evictions\": %u,\n",
                   O.SearchEvictions);
  Out += strFormat("        \"peak_frontier\": %u,\n", O.SearchPeakFrontier);
  Out += strFormat("        \"witness\": [%s]\n", Witness.c_str());
  Out += "      }\n";
  Out += strFormat("    }%s\n", Last ? "" : ",");
}

} // namespace

std::string
cundef::renderJsonDocument(const std::vector<JsonProgram> &Programs,
                           const SchedulerStats &Pool,
                           const TranslationCacheStats &TCache,
                           const ResultCacheStats &RCache, double WallMs,
                           int ExitCode) {
  std::string Out;
  Out += "{\n";
  Out += "  \"schema\": \"cundef-kcc-v1\",\n";
  Out += strFormat("  \"exit_code\": %d,\n", ExitCode);
  if (Programs.empty()) {
    Out += "  \"programs\": [],\n";
  } else {
    Out += "  \"programs\": [\n";
    for (size_t I = 0; I < Programs.size(); ++I)
      appendProgram(Out, Programs[I], I + 1 == Programs.size());
    Out += "  ],\n";
  }
  // Speculation accounting (cundef-kcc-v1 additions): the waste ratio
  // is the executed surplus over committed runs — 0.0 at jobs=1, where
  // speculation cannot outrun the wavefront.
  const double Waste =
      Pool.RunsCommitted
          ? static_cast<double>(Pool.RunsExecuted - Pool.RunsCommitted) /
                static_cast<double>(Pool.RunsCommitted)
          : 0.0;
  Out += "  \"pool\": {\n";
  Out += strFormat("    \"programs\": %u,\n", Pool.Programs);
  Out += strFormat("    \"workers\": %u,\n", Pool.Jobs);
  Out += strFormat("    \"runs_executed\": %llu,\n",
                   static_cast<unsigned long long>(Pool.RunsExecuted));
  Out += strFormat("    \"runs_committed\": %llu,\n",
                   static_cast<unsigned long long>(Pool.RunsCommitted));
  Out += strFormat("    \"speculative_waste\": %.4f,\n", Waste);
  Out += strFormat("    \"provisional_hits\": %llu,\n",
                   static_cast<unsigned long long>(Pool.ProvisionalHits));
  Out += strFormat("    \"provisional_requeues\": %llu,\n",
                   static_cast<unsigned long long>(Pool.ProvisionalRequeues));
  Out += strFormat("    \"commit_lag_peak\": %llu,\n",
                   static_cast<unsigned long long>(Pool.CommitLagPeak));
  Out += strFormat("    \"steals\": %llu,\n",
                   static_cast<unsigned long long>(Pool.Steals));
  Out += strFormat("    \"dedup_hits\": %llu,\n",
                   static_cast<unsigned long long>(Pool.DedupHits));
  Out += strFormat("    \"snapshot_shards\": %u,\n", Pool.SnapshotShards);
  Out += strFormat("    \"snapshot_takes\": %llu,\n",
                   static_cast<unsigned long long>(Pool.SnapshotTakes));
  Out += strFormat("    \"snapshot_hits\": %llu,\n",
                   static_cast<unsigned long long>(Pool.SnapshotHits));
  Out += strFormat("    \"snapshot_slot_steals\": %llu,\n",
                   static_cast<unsigned long long>(Pool.SnapshotSlotSteals));
  Out += strFormat("    \"snapshot_evictions\": %llu,\n",
                   static_cast<unsigned long long>(Pool.SnapshotEvictions));
  Out += strFormat("    \"peak_frontier\": %llu,\n",
                   static_cast<unsigned long long>(Pool.PeakFrontier));
  Out += strFormat("    \"wall_ms\": %.3f\n", WallMs);
  Out += "  },\n";
  // Engine-wide translation-cache counters (cundef-kcc-v1 addition;
  // all zero when --translation-cache=off).
  Out += "  \"translation_cache\": {\n";
  Out += strFormat("    \"lookups\": %llu,\n",
                   static_cast<unsigned long long>(TCache.Lookups));
  Out += strFormat("    \"hits\": %llu,\n",
                   static_cast<unsigned long long>(TCache.Hits));
  Out += strFormat("    \"inflight_joins\": %llu,\n",
                   static_cast<unsigned long long>(TCache.InflightJoins));
  Out += strFormat("    \"misses\": %llu,\n",
                   static_cast<unsigned long long>(TCache.Misses));
  Out += strFormat("    \"evictions\": %llu\n",
                   static_cast<unsigned long long>(TCache.Evictions));
  Out += "  },\n";
  // Engine-wide result-cache counters (cundef-kcc-v1 addition; all
  // zero when --result-cache=off). hits + inflight_joins is the
  // "served from cache" count; misses is the searches actually
  // executed — honest cached-vs-executed accounting.
  Out += "  \"result_cache\": {\n";
  Out += strFormat("    \"lookups\": %llu,\n",
                   static_cast<unsigned long long>(RCache.Lookups));
  Out += strFormat("    \"hits\": %llu,\n",
                   static_cast<unsigned long long>(RCache.Hits));
  Out += strFormat("    \"inflight_joins\": %llu,\n",
                   static_cast<unsigned long long>(RCache.InflightJoins));
  Out += strFormat("    \"misses\": %llu,\n",
                   static_cast<unsigned long long>(RCache.Misses));
  Out += strFormat("    \"evictions\": %llu,\n",
                   static_cast<unsigned long long>(RCache.Evictions));
  Out += strFormat("    \"abandoned\": %llu\n",
                   static_cast<unsigned long long>(RCache.Abandoned));
  Out += "  }\n";
  Out += "}\n";
  return Out;
}
