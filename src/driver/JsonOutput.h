//===- driver/JsonOutput.h - Machine-readable kcc output --------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders DriverOutcomes as the stable `cundef-kcc-v1` JSON schema
/// (docs/JSON_OUTPUT.md), so build pipelines consume kcc verdicts,
/// findings, witness bytes, scheduler counters, and per-job wall times
/// without parsing the paper's human-oriented error format. The schema
/// is versioned: additions bump the minor shape compatibly, removals
/// or renames would bump the version string — external consumers pin
/// on it.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_DRIVER_JSONOUTPUT_H
#define CUNDEF_DRIVER_JSONOUTPUT_H

#include "driver/Engine.h"
#include "support/EnumNames.h"

#include <string>
#include <vector>

namespace cundef {

/// JSON string escaping per RFC 8259 (control characters, quotes,
/// backslashes; UTF-8 passes through).
std::string jsonEscape(const std::string &Text);

/// The schema's name for each enum it carries, declared once: the
/// `--json` renderer, the wire codec (serve/Protocol.cpp) and kcc's
/// flags all read these tables.
inline constexpr EnumName<RunStatus> RunStatusNames[] = {
    {RunStatus::Internal, "internal"},
    {RunStatus::Running, "running"},
    {RunStatus::Completed, "completed"},
    {RunStatus::UbDetected, "ub-detected"},
    {RunStatus::Fault, "fault"},
    {RunStatus::StepLimit, "step-limit"},
    {RunStatus::Cancelled, "cancelled"},
};
inline constexpr EnumName<OutcomeVerdict> OutcomeVerdictNames[] = {
    {OutcomeVerdict::Undefined, "undefined"},
    {OutcomeVerdict::CompileError, "compile-error"},
    {OutcomeVerdict::InternalError, "internal-error"},
    {OutcomeVerdict::Clean, "clean"},
};
inline constexpr EnumName<FindingVerdict> FindingVerdictNames[] = {
    {FindingVerdict::None, "none"},
    {FindingVerdict::Must, "must"},
    {FindingVerdict::May, "may"},
};
inline constexpr EnumName<StaticAnalysisMode> StaticModeNames[] = {
    {StaticAnalysisMode::On, "on"},
    {StaticAnalysisMode::Off, "off"},
    {StaticAnalysisMode::Only, "only"},
};
inline constexpr EnumName<EvalOrderKind> EvalOrderNames[] = {
    {EvalOrderKind::LeftToRight, "ltr"},
    {EvalOrderKind::RightToLeft, "rtl"},
    {EvalOrderKind::Random, "random"},
};
inline constexpr EnumName<RuleStyle> RuleStyleNames[] = {
    {RuleStyle::SideConditions, "cond"},
    {RuleStyle::PrecedenceChain, "chain"},
    {RuleStyle::Declarative, "decl"},
};

/// One entry of the top-level "programs" array: the outcome plus its
/// per-job submit-to-completion wall time (engine attribution; see
/// EngineSink::onProgramFinished for the shared-pool caveat).
struct JsonProgram {
  const DriverOutcome *Outcome = nullptr;
  std::string Name;
  double WallMicros = 0.0;
  /// The request's flow-layer mode ("off", "on", "only"), echoed in the
  /// program's static_analysis block so consumers know what the static
  /// findings mean without reconstructing the command line.
  const char *StaticMode = "on";
};

/// Renders the whole `cundef-kcc-v1` document: programs (each with its
/// `compile` block — translation/result cache hit flags,
/// frontend/search micros), the shared pool counters plus the engine's
/// translation-cache and result-cache counters, the header registry's
/// prefix-cache counters (`header_prefix`), and the process exit code
/// the verdicts imply (139 if any program is undefined, else 1 if any
/// failed to compile, else the single program's exit code / 0 for
/// batches).
std::string renderJsonDocument(const std::vector<JsonProgram> &Programs,
                               const SchedulerStats &Pool,
                               const TranslationCacheStats &TCache,
                               const ResultCacheStats &RCache, double WallMs,
                               int ExitCode,
                               const HeaderPrefixStats &HeaderPrefix = {});

} // namespace cundef

#endif // CUNDEF_DRIVER_JSONOUTPUT_H
