//===- tests/PrefixProbe.h - Cold-vs-warm frontend traces -------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders what the frontend made of one unit as text, so a run against
/// a cold header registry (no prefix snapshot) and one against a warm
/// registry (the snapshot replayed) can be compared byte for byte:
/// every output token, the diagnostics, and the interner's names in
/// symbol order.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TESTS_PREFIXPROBE_H
#define CUNDEF_TESTS_PREFIXPROBE_H

#include "frontend/Frontend.h"
#include "libc/Headers.h"
#include "serve/Protocol.h"
#include "support/Strings.h"
#include "text/Preprocessor.h"

#include <string>
#include <utility>
#include <vector>

namespace cundef {

/// A registry holding the standard headers and nothing cached yet.
inline std::unique_ptr<HeaderRegistry> coldRegistry() {
  auto R = std::make_unique<HeaderRegistry>();
  registerStandardHeaders(*R);
  return R;
}

using Defines = std::vector<std::pair<std::string, std::string>>;

/// Preprocesses \p Source against \p Headers and renders every token
/// (kind, symbol, spelling, text, location, flags), the rendered
/// diagnostics and every interned name.
inline std::string preprocessTrace(const HeaderRegistry &Headers,
                                   const std::string &Source,
                                   const std::string &Name = "t.c",
                                   const Defines &Defs = {}) {
  StringInterner Interner;
  DiagnosticEngine Diags;
  Preprocessor PP(Interner, Diags, Headers);
  for (const auto &[Macro, Body] : Defs)
    PP.define(Macro, Body);
  std::string Out;
  for (const Token &T : PP.run(Source, Name))
    Out += strFormat("%d %u '%s' \"%s\" %u:%u:%u %d%d\n",
                     static_cast<int>(T.Kind), T.Sym,
                     Interner.str(T.Sym).c_str(),
                     escapeForDisplay(T.Text).c_str(), T.Loc.File, T.Loc.Line,
                     T.Loc.Col, T.AtLineStart, T.LeadingSpace);
  Out += "-- diagnostics\n" + Diags.render();
  Out += "-- names\n";
  for (Symbol S = 1; S < Interner.size(); ++S)
    Out += Interner.str(S) + "\n";
  return Out;
}

/// Compiles \p Source against \p Headers and renders errors(), the
/// static findings and hints, and the artifact's interned names.
inline std::string compileTrace(const HeaderRegistry &Headers,
                                const std::string &Source,
                                const std::string &Name = "t.c") {
  CompiledProgramRef C =
      compileTranslationUnit(FrontendOptions(), Source, Name, Headers);
  std::string Out = strFormat("ok=%d\n", C->ok()) + C->errors();
  Out += "-- static\n" + serializeFindings(C->staticUb());
  Out += "\n-- hints\n" + serializeFindings(C->staticHints());
  Out += "\n-- names\n";
  for (Symbol S = 1; S < C->interner().size(); ++S)
    Out += C->interner().str(S) + "\n";
  return Out;
}

} // namespace cundef

#endif // CUNDEF_TESTS_PREFIXPROBE_H
