//===- frontend/Frontend.cpp - The frontend pipeline ---------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"

#include "libc/Builtins.h"
#include "parse/Parser.h"
#include "sema/Sema.h"
#include "support/Hash.h"
#include "static/FlowChecker.h"
#include "text/Preprocessor.h"
#include "ub/StaticChecks.h"

#include <chrono>

using namespace cundef;

uint64_t cundef::targetConfigFingerprint(const TargetConfig &T) {
  Hasher H;
  H.u32(T.ShortSize);
  H.u32(T.IntSize);
  H.u32(T.LongSize);
  H.u32(T.LongLongSize);
  H.u32(T.PointerSize);
  H.u32(T.FloatSize);
  H.u32(T.DoubleSize);
  H.u32(T.BoolSize);
  H.u32(T.MaxAlign);
  H.u8(T.CharIsSigned ? 1 : 0);
  H.u8(T.ArithmeticRightShift ? 1 : 0);
  return H.digest();
}

TranslationKey cundef::translationKeyFor(const FrontendOptions &Opts,
                                         const std::string &Source,
                                         const std::string &Name,
                                         uint64_t HeadersFingerprint) {
  TranslationKey Key;
  // Length-prefixed fields (Hasher::str) so ("ab", "c") never collides
  // with ("a", "bc").
  Hasher Src;
  Src.str(Name);
  Src.str(Source);
  Key.SourceHash = Src.digest();

  Hasher Ctx;
  Ctx.u64(targetConfigFingerprint(Opts.Target));
  Ctx.u8(Opts.StaticChecks ? 1 : 0);
  Ctx.u8(Opts.StaticChecks && Opts.FlowChecks ? 1 : 0);
  Ctx.u64(HeadersFingerprint);
  Key.ContextHash = Ctx.digest();
  return Key;
}

namespace cundef {

/// The one producer of CompiledProgram (its friend): assembles the
/// artifact mutably, then releases it as shared-const.
class FrontendPipeline {
public:
  static CompiledProgramRef run(const FrontendOptions &Opts,
                                const std::string &Source,
                                const std::string &Name,
                                const HeaderRegistry &Headers) {
    auto Start = std::chrono::steady_clock::now();
    auto Result = std::shared_ptr<CompiledProgram>(new CompiledProgram());
    Result->Interner = std::make_unique<StringInterner>();
    DiagnosticEngine Diags;
    Preprocessor PP(*Result->Interner, Diags, Headers);
    std::vector<Token> Toks = PP.run(Source, Name);
    if (Diags.hasErrors()) {
      Result->Errors = Diags.render();
      finish(*Result, Start);
      return Result;
    }
    Result->Ast = std::make_unique<AstContext>(Opts.Target,
                                               *Result->Interner);
    Parser P(std::move(Toks), *Result->Ast, Diags);
    bool ParseOk = P.parseTranslationUnit();
    UbSink StaticSink;
    UbSink HintSink;
    if (ParseOk) {
      Sema S(*Result->Ast, Diags, StaticSink);
      S.run();
      // Builtin ids come before the syntactic checker: its va_start/
      // va_arg checks recognize __cundef_va_arg by builtin id.
      assignBuiltinIds(*Result->Ast);
      if (Opts.StaticChecks) {
        StaticChecker Checker(*Result->Ast, StaticSink);
        Checker.run();
      }
      // The flow layer reads Sema-computed facts (cast kinds, field
      // indices, case values), so it only runs on clean units.
      if (Opts.StaticChecks && Opts.FlowChecks && !Diags.hasErrors()) {
        FlowChecker Flow(*Result->Ast, StaticSink, HintSink);
        Flow.run();
      }
    }
    Result->StaticUb = StaticSink.all();
    Result->StaticHints = HintSink.all();
    // Syntactic findings are definite by construction (constant
    // expressions evaluated at compile time); stamp the ones the flow
    // layer didn't already annotate.
    for (UbReport &R : Result->StaticUb)
      if (R.Verdict == FindingVerdict::None) {
        R.Verdict = FindingVerdict::Must;
        R.Domain = "syntactic";
      }
    Result->Errors = Diags.render();
    Result->Ok = !Diags.hasErrors();
    finish(*Result, Start);
    return Result;
  }

private:
  static void finish(CompiledProgram &P,
                     std::chrono::steady_clock::time_point Start) {
    P.FrontendMicros = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  }
};

} // namespace cundef

CompiledProgramRef
cundef::compileTranslationUnit(const FrontendOptions &Opts,
                               const std::string &Source,
                               const std::string &Name,
                               const HeaderRegistry &Headers) {
  return FrontendPipeline::run(Opts, Source, Name, Headers);
}
