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

namespace {

void appendFinding(std::string &Out, const UbReport &R, bool Last) {
  Out += strFormat("        {\"code\": \"%05u\", \"description\": \"%s\", "
                   "\"function\": \"%s\", \"line\": %u, \"column\": %u, "
                   "\"static\": %s}%s\n",
                   ubCode(R.Kind), jsonEscape(R.Description).c_str(),
                   jsonEscape(R.Function).c_str(), R.Loc.Line, R.Loc.Col,
                   R.StaticFinding ? "true" : "false", Last ? "" : ",");
}

void appendStaticFinding(std::string &Out, const UbReport &R, bool Last) {
  Out += strFormat("          {\"code\": \"%05u\", \"verdict\": \"%s\", "
                   "\"domain\": \"%s\", \"description\": \"%s\", "
                   "\"function\": \"%s\", \"line\": %u, \"column\": %u}%s\n",
                   ubCode(R.Kind), enumName(FindingVerdictNames, R.Verdict),
                   R.Domain,
                   jsonEscape(R.Description).c_str(),
                   jsonEscape(R.Function).c_str(), R.Loc.Line, R.Loc.Col,
                   Last ? "" : ",");
}

void appendProgram(std::string &Out, const JsonProgram &P, bool Last) {
  const DriverOutcome &O = *P.Outcome;
  Out += "    {\n";
  Out += strFormat("      \"name\": \"%s\",\n", jsonEscape(P.Name).c_str());
  Out += strFormat("      \"verdict\": \"%s\",\n",
                   enumName(OutcomeVerdictNames, O.verdict()));
  Out += strFormat("      \"compile_ok\": %s,\n",
                   O.CompileOk ? "true" : "false");
  Out += strFormat("      \"compile_errors\": \"%s\",\n",
                   jsonEscape(O.CompileErrors).c_str());
  Out += strFormat("      \"status\": \"%s\",\n",
                   enumName(RunStatusNames, O.Status));
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
  appendJsonCounters(Out, O, "        ", true);
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
                           int ExitCode,
                           const HeaderPrefixStats &HeaderPrefix) {
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
  Out += "  \"pool\": {\n";
  appendJsonCounters(Out, Pool, "    ", true);
  Out += strFormat("    \"wall_ms\": %.3f\n", WallMs);
  Out += "  },\n";
  // Engine-wide cache counters (all zero when the cache is off). For
  // the result cache, hits + inflight_joins is the "served from cache"
  // count and misses the searches actually executed.
  Out += "  \"translation_cache\": {\n";
  appendJsonCounters(Out, TCache, "    ", false);
  Out += "  },\n";
  Out += "  \"result_cache\": {\n";
  appendJsonCounters(Out, RCache, "    ", false);
  Out += "  },\n";
  // Units whose leading #include run was replayed (hits) or computed
  // (misses); units with no leading #include look nothing up.
  Out += "  \"header_prefix\": {\n";
  appendJsonCounters(Out, HeaderPrefix, "    ", false);
  Out += "  }\n";
  Out += "}\n";
  return Out;
}
