//===- serve/Protocol.cpp - The cundef-kcc-v1 wire protocol ---------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "driver/JsonOutput.h"
#include "support/Strings.h"
#include "ub/Catalog.h"

#include <cerrno>
#include <cstring>
#include <limits>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cundef;

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

void cundef::appendFrame(std::string &Buffer, const std::string &Payload) {
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  char Prefix[4] = {static_cast<char>((Len >> 24) & 0xFF),
                    static_cast<char>((Len >> 16) & 0xFF),
                    static_cast<char>((Len >> 8) & 0xFF),
                    static_cast<char>(Len & 0xFF)};
  Buffer.append(Prefix, 4);
  Buffer.append(Payload);
}

int cundef::extractFrame(std::string &Buffer, std::string &Payload,
                         size_t MaxBytes) {
  if (Buffer.size() < 4)
    return 0;
  const unsigned char *B = reinterpret_cast<const unsigned char *>(
      Buffer.data());
  uint32_t Len = (static_cast<uint32_t>(B[0]) << 24) |
                 (static_cast<uint32_t>(B[1]) << 16) |
                 (static_cast<uint32_t>(B[2]) << 8) |
                 static_cast<uint32_t>(B[3]);
  if (Len > MaxBytes)
    return -1;
  if (Buffer.size() < 4 + static_cast<size_t>(Len))
    return 0;
  Payload.assign(Buffer, 4, Len);
  Buffer.erase(0, 4 + static_cast<size_t>(Len));
  return 1;
}

bool cundef::writeFrameBlocking(int Fd, const std::string &Payload) {
  std::string Framed;
  Framed.reserve(Payload.size() + 4);
  appendFrame(Framed, Payload);
  size_t Sent = 0;
  while (Sent < Framed.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-write must surface as an
    // error return, never as a process-killing SIGPIPE.
    ssize_t N = ::send(Fd, Framed.data() + Sent, Framed.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

bool cundef::readFrameBlocking(int Fd, std::string &Buffer,
                               std::string &Payload, std::string &Err,
                               int TimeoutMs, size_t MaxBytes) {
  // The stream buffer is caller-owned and persists across calls: one
  // recv may deliver several back-to-back frames (the daemon batches
  // ub_found + finished into one flush), and whatever follows the
  // extracted frame must survive for the next call.
  char Chunk[4096];
  while (true) {
    int Got = extractFrame(Buffer, Payload, MaxBytes);
    if (Got == 1)
      return true;
    if (Got == -1) {
      Err = "oversized frame announced by peer";
      return false;
    }
    if (TimeoutMs >= 0) {
      struct pollfd P = {Fd, POLLIN, 0};
      int R = ::poll(&P, 1, TimeoutMs);
      if (R == 0) {
        Err = "timed out waiting for a frame";
        return false;
      }
      if (R < 0 && errno != EINTR) {
        Err = strFormat("poll failed: %s", std::strerror(errno));
        return false;
      }
      if (R < 0)
        continue;
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N == 0) {
      Err = "connection closed by peer";
      return false;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = strFormat("recv failed: %s", std::strerror(errno));
      return false;
    }
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

namespace {

/// UbReport::Domain is documented as "always a string literal, never
/// owned", so the wire decoder must map names back onto the closed set
/// of literals the static layer uses (unknown names — a newer peer —
/// degrade to the empty domain rather than dangling).
const char *internDomain(const std::string &Name) {
  if (Name == "syntactic")
    return "syntactic";
  if (Name == "nullness")
    return "nullness";
  if (Name == "init")
    return "init";
  if (Name == "interval")
    return "interval";
  return "";
}

/// Reads the whole-number field \p Key of \p Obj into \p Out. An absent
/// field keeps \p Out's default; anything other than an integer literal
/// in [0, max of T] — a fraction, an exponent, a negative or too-large
/// value, a string — is an error naming \p Where.Key, never a clamp.
template <typename T>
bool readCount(const JsonValue &Obj, const char *Where, const char *Key,
               T &Out, std::string &Err) {
  const JsonValue *V = Obj.get(Key);
  if (!V)
    return true;
  uint64_t N = 0;
  if (!V->toU64(N) || N > std::numeric_limits<T>::max()) {
    Err = strFormat("%s%s must be an integer in [0, %llu]", Where, Key,
                    static_cast<unsigned long long>(
                        std::numeric_limits<T>::max()));
    return false;
  }
  Out = static_cast<T>(N);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// AnalysisRequest
//===----------------------------------------------------------------------===//

std::string cundef::serializeRequest(const AnalysisRequest &Req) {
  const TargetConfig &T = Req.target();
  const MachineOptions &M = Req.machine();
  std::string Out = "{";
  Out += strFormat(
      "\"target\":{\"short_size\":%u,\"int_size\":%u,\"long_size\":%u,"
      "\"long_long_size\":%u,\"pointer_size\":%u,\"float_size\":%u,"
      "\"double_size\":%u,\"bool_size\":%u,\"max_align\":%u,"
      "\"char_is_signed\":%s,\"arithmetic_right_shift\":%s},",
      T.ShortSize, T.IntSize, T.LongSize, T.LongLongSize, T.PointerSize,
      T.FloatSize, T.DoubleSize, T.BoolSize, T.MaxAlign,
      T.CharIsSigned ? "true" : "false",
      T.ArithmeticRightShift ? "true" : "false");
  Out += strFormat(
      "\"machine\":{\"strict\":%s,\"track_sequencing\":%s,\"track_const\":%s,"
      "\"symbolic_pointers\":%s,\"pointer_bytes\":%s,\"unknown_bytes\":%s,"
      "\"check_effective_types\":%s,\"stop_at_first_ub\":%s,"
      "\"step_limit\":%llu,\"order\":\"%s\",\"seed\":%u,"
      "\"max_call_depth\":%u,\"style\":\"%s\"},",
      M.Strict ? "true" : "false", M.TrackSequencing ? "true" : "false",
      M.TrackConst ? "true" : "false", M.SymbolicPointers ? "true" : "false",
      M.PointerBytes ? "true" : "false", M.UnknownBytes ? "true" : "false",
      M.CheckEffectiveTypes ? "true" : "false",
      M.StopAtFirstUb ? "true" : "false",
      static_cast<unsigned long long>(M.StepLimit),
      enumName(EvalOrderNames, M.Order), M.Seed, M.MaxCallDepth,
      enumName(RuleStyleNames, M.Style));
  Out += strFormat(
      "\"static_checks\":%s,\"static_analyze\":\"%s\",\"search_runs\":%u,"
      "\"search_jobs\":%u,\"dedup\":%s,\"result_cache\":%s}",
      Req.staticChecks() ? "true" : "false",
      enumName(StaticModeNames, Req.staticAnalyze()), Req.searchRuns(),
      Req.searchJobs(),
      Req.searchDedup() ? "true" : "false",
      Req.useResultCache() ? "true" : "false");
  return Out;
}

bool cundef::parseRequest(const JsonValue &V, AnalysisRequest &Out,
                          std::string &Err) {
  if (!V.isObject()) {
    Err = "request must be a JSON object";
    return false;
  }
  AnalysisRequest Defaults;
  TargetConfig T = Defaults.target();
  if (const JsonValue *TV = V.get("target")) {
    if (!TV->isObject()) {
      Err = "request.target must be an object";
      return false;
    }
    const char *W = "request.target.";
    if (!readCount(*TV, W, "short_size", T.ShortSize, Err) ||
        !readCount(*TV, W, "int_size", T.IntSize, Err) ||
        !readCount(*TV, W, "long_size", T.LongSize, Err) ||
        !readCount(*TV, W, "long_long_size", T.LongLongSize, Err) ||
        !readCount(*TV, W, "pointer_size", T.PointerSize, Err) ||
        !readCount(*TV, W, "float_size", T.FloatSize, Err) ||
        !readCount(*TV, W, "double_size", T.DoubleSize, Err) ||
        !readCount(*TV, W, "bool_size", T.BoolSize, Err) ||
        !readCount(*TV, W, "max_align", T.MaxAlign, Err))
      return false;
    T.CharIsSigned = TV->getBool("char_is_signed", T.CharIsSigned);
    T.ArithmeticRightShift =
        TV->getBool("arithmetic_right_shift", T.ArithmeticRightShift);
  }
  MachineOptions M = Defaults.machine();
  if (const JsonValue *MV = V.get("machine")) {
    if (!MV->isObject()) {
      Err = "request.machine must be an object";
      return false;
    }
    M.Strict = MV->getBool("strict", M.Strict);
    M.TrackSequencing = MV->getBool("track_sequencing", M.TrackSequencing);
    M.TrackConst = MV->getBool("track_const", M.TrackConst);
    M.SymbolicPointers = MV->getBool("symbolic_pointers", M.SymbolicPointers);
    M.PointerBytes = MV->getBool("pointer_bytes", M.PointerBytes);
    M.UnknownBytes = MV->getBool("unknown_bytes", M.UnknownBytes);
    M.CheckEffectiveTypes =
        MV->getBool("check_effective_types", M.CheckEffectiveTypes);
    M.StopAtFirstUb = MV->getBool("stop_at_first_ub", M.StopAtFirstUb);
    const char *W = "request.machine.";
    if (!readCount(*MV, W, "step_limit", M.StepLimit, Err) ||
        !readCount(*MV, W, "seed", M.Seed, Err) ||
        !readCount(*MV, W, "max_call_depth", M.MaxCallDepth, Err))
      return false;
    if (const JsonValue *OV = MV->get("order"))
      if (!parseEnumName(EvalOrderNames, OV->asString(), M.Order)) {
        Err = "unknown machine.order '" + OV->asString() + "'";
        return false;
      }
    if (const JsonValue *SV = MV->get("style"))
      if (!parseEnumName(RuleStyleNames, SV->asString(), M.Style)) {
        Err = "unknown machine.style '" + SV->asString() + "'";
        return false;
      }
  }

  AnalysisRequest::Builder B;
  B.target(T).machine(M);
  B.staticChecks(V.getBool("static_checks", Defaults.staticChecks()));
  StaticAnalysisMode Mode = Defaults.staticAnalyze();
  if (const JsonValue *SM = V.get("static_analyze"))
    if (!parseEnumName(StaticModeNames, SM->asString(), Mode)) {
      Err = "unknown static_analyze mode '" + SM->asString() + "'";
      return false;
    }
  B.staticAnalyze(Mode);
  unsigned Runs = Defaults.searchRuns();
  unsigned Jobs = Defaults.searchJobs();
  if (!readCount(V, "request.", "search_runs", Runs, Err) ||
      !readCount(V, "request.", "search_jobs", Jobs, Err))
    return false;
  B.searchRuns(Runs);
  B.searchJobs(Jobs);
  B.dedup(V.getBool("dedup", Defaults.searchDedup()));
  B.resultCache(V.getBool("result_cache", Defaults.useResultCache()));
  // "sched" and "snapshots" are retired: older clients still send them,
  // and they are ignored (one scheduler, and forced replay is no longer
  // a request option), whatever their value.

  // The same validation gate a local kcc runs: a remote peer cannot
  // smuggle in a configuration the Builder would reject.
  AnalysisRequest::Builder::Result Built = B.build();
  if (!Built.ok()) {
    Err = Built.Err.Message;
    return false;
  }
  Out = Built.Request;
  return true;
}

//===----------------------------------------------------------------------===//
// Findings and outcomes
//===----------------------------------------------------------------------===//

std::string cundef::serializeFindings(const std::vector<UbReport> &Reports) {
  std::string Out = "[";
  for (size_t I = 0; I < Reports.size(); ++I) {
    const UbReport &R = Reports[I];
    Out += strFormat(
        "%s{\"code\":%u,\"description\":\"%s\",\"function\":\"%s\","
        "\"file\":%u,\"line\":%u,\"column\":%u,\"static\":%s,"
        "\"verdict\":\"%s\",\"domain\":\"%s\"}",
        I ? "," : "", ubCode(R.Kind), jsonEscape(R.Description).c_str(),
        jsonEscape(R.Function).c_str(), R.Loc.File, R.Loc.Line, R.Loc.Col,
        R.StaticFinding ? "true" : "false",
        enumName(FindingVerdictNames, R.Verdict), R.Domain);
  }
  Out += "]";
  return Out;
}

bool cundef::parseFindings(const JsonValue &V, std::vector<UbReport> &Out,
                           std::string &Err) {
  if (!V.isArray()) {
    Err = "findings must be an array";
    return false;
  }
  Out.clear();
  Out.reserve(V.items().size());
  for (const JsonValue &F : V.items()) {
    if (!F.isObject()) {
      Err = "finding must be an object";
      return false;
    }
    UbReport R;
    R.Kind = static_cast<UbKind>(F.getU64("code", 0));
    R.Description = F.getString("description");
    R.Function = F.getString("function");
    R.Loc = SourceLoc(static_cast<uint32_t>(F.getU64("file", 0)),
                      static_cast<uint32_t>(F.getU64("line", 0)),
                      static_cast<uint32_t>(F.getU64("column", 0)));
    R.StaticFinding = F.getBool("static", false);
    const std::string Verdict = F.getString("verdict");
    if (!parseEnumName(FindingVerdictNames,
                       Verdict.empty() ? std::string("none") : Verdict,
                       R.Verdict)) {
      Err = "unknown finding verdict '" + Verdict + "'";
      return false;
    }
    R.Domain = internDomain(F.getString("domain"));
    Out.push_back(std::move(R));
  }
  return true;
}

std::string cundef::serializeOutcome(const DriverOutcome &O) {
  std::string Out = "{";
  Out += strFormat("\"compile_ok\":%s,", O.CompileOk ? "true" : "false");
  Out += strFormat("\"compile_errors\":\"%s\",",
                   jsonEscape(O.CompileErrors).c_str());
  Out += "\"static_ub\":" + serializeFindings(O.StaticUb) + ",";
  Out += "\"static_hints\":" + serializeFindings(O.StaticHints) + ",";
  Out += "\"dynamic_ub\":" + serializeFindings(O.DynamicUb) + ",";
  Out += strFormat("\"static_only\":%s,", O.StaticOnly ? "true" : "false");
  Out += strFormat("\"status\":\"%s\",", enumName(RunStatusNames, O.Status));
  Out += strFormat("\"exit_code\":%d,", O.ExitCode);
  Out += strFormat("\"output\":\"%s\",", jsonEscape(O.Output).c_str());
  appendWireCounters(Out, O);
  Out += ',';
  Out += strFormat("\"translation_cache_hit\":%s,",
                   O.TranslationCacheHit ? "true" : "false");
  Out += strFormat("\"result_cache_hit\":%s,",
                   O.ResultCacheHit ? "true" : "false");
  Out += strFormat("\"frontend_micros\":%.3f,", O.FrontendMicros);
  Out += strFormat("\"search_micros\":%.3f,", O.SearchMicros);
  std::string Witness;
  for (uint8_t D : O.SearchWitness)
    Witness += strFormat("%s%u", Witness.empty() ? "" : ",", D);
  Out += strFormat("\"witness\":[%s]}", Witness.c_str());
  return Out;
}

bool cundef::parseOutcome(const JsonValue &V, DriverOutcome &Out,
                          std::string &Err) {
  if (!V.isObject()) {
    Err = "outcome must be a JSON object";
    return false;
  }
  Out = DriverOutcome();
  Out.CompileOk = V.getBool("compile_ok", false);
  Out.CompileErrors = V.getString("compile_errors");
  const JsonValue *F = V.get("static_ub");
  if (!F || !parseFindings(*F, Out.StaticUb, Err))
    return false;
  F = V.get("static_hints");
  if (!F || !parseFindings(*F, Out.StaticHints, Err))
    return false;
  F = V.get("dynamic_ub");
  if (!F || !parseFindings(*F, Out.DynamicUb, Err))
    return false;
  Out.StaticOnly = V.getBool("static_only", false);
  if (!parseEnumName(RunStatusNames, V.getString("status"), Out.Status)) {
    Err = "unknown run status '" + V.getString("status") + "'";
    return false;
  }
  Out.ExitCode = static_cast<int>(V.get("exit_code")
                                      ? V.get("exit_code")->asI64(0)
                                      : 0);
  Out.Output = V.getString("output");
  readWireCounters(V, Out);
  Out.TranslationCacheHit = V.getBool("translation_cache_hit", false);
  Out.ResultCacheHit = V.getBool("result_cache_hit", false);
  Out.FrontendMicros = V.getDouble("frontend_micros", 0.0);
  Out.SearchMicros = V.getDouble("search_micros", 0.0);
  if (const JsonValue *W = V.get("witness")) {
    if (!W->isArray()) {
      Err = "outcome.witness must be an array";
      return false;
    }
    Out.SearchWitness.reserve(W->items().size());
    for (const JsonValue &D : W->items()) {
      uint64_t Digit = 0;
      if (!D.toU64(Digit) || Digit > 255) {
        Err = "outcome.witness entries must be integers in [0, 255]";
        return false;
      }
      Out.SearchWitness.push_back(static_cast<uint8_t>(Digit));
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

std::string cundef::serializeStats(const SchedulerStats &Pool,
                                   const EngineMemoryStats &Memory,
                                   const TranslationCacheStats &Translation,
                                   const ResultCacheStats &ResultC,
                                   const HeaderPrefixStats &HeaderPrefix) {
  std::string Out = "{\"pool\":{";
  appendWireCounters(Out, Pool);
  Out += "},\"memory\":{";
  appendWireCounters(Out, Memory);
  Out += "},\"translation\":{";
  appendWireCounters(Out, Translation);
  Out += "},\"result_cache\":{";
  appendWireCounters(Out, ResultC);
  Out += "},\"header_prefix\":{";
  appendWireCounters(Out, HeaderPrefix);
  Out += "}}";
  return Out;
}

bool cundef::parseStats(const JsonValue &V, SchedulerStats &Pool,
                        EngineMemoryStats &Memory,
                        TranslationCacheStats &Translation,
                        ResultCacheStats &ResultC,
                        HeaderPrefixStats &HeaderPrefix, std::string &Err) {
  const JsonValue *P = V.get("pool");
  const JsonValue *M = V.get("memory");
  const JsonValue *T = V.get("translation");
  const JsonValue *R = V.get("result_cache");
  if (!P || !P->isObject() || !M || !M->isObject() || !T || !T->isObject() ||
      !R || !R->isObject()) {
    Err = "stats body must carry pool, memory, translation, and "
          "result_cache objects";
    return false;
  }
  readWireCounters(*P, Pool);
  readWireCounters(*M, Memory);
  readWireCounters(*T, Translation);
  readWireCounters(*R, ResultC);
  // Optional: a daemon older than the prefix cache sends none.
  HeaderPrefix = HeaderPrefixStats();
  if (const JsonValue *H = V.get("header_prefix"); H && H->isObject())
    readWireCounters(*H, HeaderPrefix);
  return true;
}

//===----------------------------------------------------------------------===//
// Whole frames
//===----------------------------------------------------------------------===//

std::string cundef::helloFrame(unsigned Workers) {
  return strFormat("{\"type\":\"hello\",\"schema\":\"%s\",\"workers\":%u}",
                   ServeProtocolName, Workers);
}

std::string cundef::submitFrame(uint64_t Id, const std::string &Name,
                                const std::string &Source,
                                const AnalysisRequest &Req) {
  return strFormat("{\"type\":\"submit\",\"id\":%llu,\"name\":\"%s\","
                   "\"source\":\"%s\",\"request\":%s}",
                   static_cast<unsigned long long>(Id),
                   jsonEscape(Name).c_str(), jsonEscape(Source).c_str(),
                   serializeRequest(Req).c_str());
}

std::string cundef::statsFrame(uint64_t Id) {
  return strFormat("{\"type\":\"stats\",\"id\":%llu}",
                   static_cast<unsigned long long>(Id));
}

std::string cundef::errorFrame(uint64_t Id, const char *Code,
                               const std::string &Message) {
  return strFormat("{\"type\":\"error\",\"id\":%llu,\"code\":\"%s\","
                   "\"message\":\"%s\"}",
                   static_cast<unsigned long long>(Id), Code,
                   jsonEscape(Message).c_str());
}

std::string cundef::ubFoundFrame(uint64_t Id,
                                 const std::vector<UbReport> &Reports) {
  return strFormat("{\"type\":\"ub_found\",\"id\":%llu,\"findings\":%s}",
                   static_cast<unsigned long long>(Id),
                   serializeFindings(Reports).c_str());
}

std::string cundef::frontierTruncatedFrame(uint64_t Id,
                                           unsigned DroppedSubtrees) {
  return strFormat(
      "{\"type\":\"frontier_truncated\",\"id\":%llu,\"dropped_subtrees\":%u}",
      static_cast<unsigned long long>(Id), DroppedSubtrees);
}

std::string cundef::finishedFrame(uint64_t Id, const DriverOutcome &Outcome,
                                  double WallMicros) {
  return strFormat(
      "{\"type\":\"finished\",\"id\":%llu,\"wall_micros\":%.3f,"
      "\"outcome\":%s}",
      static_cast<unsigned long long>(Id), WallMicros,
      serializeOutcome(Outcome).c_str());
}

std::string cundef::statsResultFrame(uint64_t Id, const SchedulerStats &Pool,
                                     const EngineMemoryStats &Memory,
                                     const TranslationCacheStats &Translation,
                                     const ResultCacheStats &ResultC,
                                     const HeaderPrefixStats &HeaderPrefix) {
  return strFormat(
      "{\"type\":\"stats_result\",\"id\":%llu,\"stats\":%s}",
      static_cast<unsigned long long>(Id),
      serializeStats(Pool, Memory, Translation, ResultC, HeaderPrefix)
          .c_str());
}
