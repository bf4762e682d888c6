//===- text/Preprocessor.h - C preprocessor -------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained C preprocessor: object- and function-like macros
/// (with # stringize and ## paste), #include resolved against a virtual
/// header registry (the libc module registers <stdio.h> etc.; tests can
/// register their own headers), #if/#ifdef/#elif/#else/#endif with full
/// integer constant expressions, #undef, #error, and the __LINE__ /
/// __FILE__ builtins. Its output is the keyword-promoted token stream
/// the parser consumes.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TEXT_PREPROCESSOR_H
#define CUNDEF_TEXT_PREPROCESSOR_H

#include "support/Diagnostics.h"
#include "support/Hash.h"
#include "support/StringInterner.h"
#include "text/Token.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace cundef {

/// Maps header names to their contents. There is no real filesystem:
/// every includable file is registered here (standard headers by
/// libc/Headers.cpp, extra files by tests or callers).
class HeaderRegistry {
public:
  void add(std::string Name, std::string Content) {
    Files[std::move(Name)] = std::move(Content);
  }
  const std::string *find(const std::string &Name) const {
    auto It = Files.find(Name);
    return It == Files.end() ? nullptr : &It->second;
  }
  size_t size() const { return Files.size(); }

  /// Content digest of the whole registry (every name and body, in the
  /// map's deterministic order). The translation cache folds this into
  /// its content address, so registering or editing a header — even
  /// after an engine started — invalidates every cached artifact that
  /// could have included it; a mutated registry can never silently
  /// serve stale ASTs. Recomputed per call: registries are a few KB of
  /// standard headers, noise next to one parse, and a cached value
  /// would need its own synchronization story.
  uint64_t fingerprint() const {
    Hasher H;
    H.u64(Files.size());
    for (const auto &[Name, Content] : Files) {
      H.str(Name);
      H.str(Content);
    }
    return H.digest();
  }

private:
  std::map<std::string, std::string> Files;
};

/// A macro definition.
struct MacroDef {
  bool FunctionLike = false;
  bool Variadic = false;
  std::vector<Symbol> Params;
  std::vector<Token> Body;
};

class Preprocessor {
public:
  Preprocessor(StringInterner &Interner, DiagnosticEngine &Diags,
               const HeaderRegistry &Headers);

  /// Preprocesses \p Source (named \p FileName for diagnostics) and
  /// returns the fully expanded, keyword-promoted token stream,
  /// terminated by an Eof token.
  std::vector<Token> run(const std::string &Source,
                         const std::string &FileName);

  /// Predefines an object-like macro, as with a -D command line option.
  /// \p Body is lexed as C tokens.
  void define(const std::string &Name, const std::string &Body);

  bool isDefined(const std::string &Name) const;

private:
  /// Lexes a buffer into raw tokens and registers the file name.
  /// Returns the issued file id.
  uint32_t lexBuffer(const std::string &Source, const std::string &Name,
                     std::vector<Token> &Out);

  /// Processes a raw token vector: executes directives, expands macros,
  /// appends surviving tokens to \p Out.
  void processTokens(const std::vector<Token> &Toks, std::vector<Token> &Out,
                     int IncludeDepth);

  /// Handles one directive beginning at Toks[HashIdx]; returns the index
  /// one past the directive's last token (or past the matched #endif for
  /// skipped conditional groups).
  size_t processDirective(const std::vector<Token> &Toks, size_t HashIdx,
                          std::vector<Token> &Out, int IncludeDepth);

  /// Index one past the last token on the line containing Toks[Idx].
  size_t lineEnd(const std::vector<Token> &Toks, size_t Idx) const;

  /// Skips a failed conditional group: returns the index of the next
  /// #elif/#else/#endif at the same nesting depth (pointing at its '#').
  size_t skipConditionalGroup(const std::vector<Token> &Toks, size_t Idx,
                              bool StopAtElse) const;

  /// After a failed #if/#ifdef/#elif group was skipped, \p Idx points at
  /// the '#' of the continuation directive; decides whether to enter it.
  size_t dispatchConditionalContinuation(const std::vector<Token> &Toks,
                                         size_t Idx, std::vector<Token> &Out,
                                         int IncludeDepth);

  /// Macro expansion: expands \p In (whole run of ordinary tokens)
  /// against the current macro table, with \p Hidden names disabled.
  void expandInto(const std::vector<Token> &In, std::set<Symbol> Hidden,
                  std::vector<Token> &Out);

  /// Substitutes arguments into a macro body (handling # and ##).
  std::vector<Token> substitute(const MacroDef &Macro,
                                const std::vector<std::vector<Token>> &Args,
                                SourceLoc ExpansionLoc);

  /// Evaluates a #if controlling expression.
  long long evaluateCondition(std::vector<Token> Line, SourceLoc Loc);

  /// Spelling of \p Tok as it would appear in source (for # and ##).
  std::string spellingOf(const Token &Tok) const;

  /// Re-lexes pasted text into exactly one token if possible.
  bool relexPasted(const std::string &Text, SourceLoc Loc, Token &Out);

  /// Promotes identifier tokens whose spelling is a keyword.
  void promoteKeywords(std::vector<Token> &Toks) const;

  StringInterner &Interner;
  DiagnosticEngine &Diags;
  const HeaderRegistry &Headers;
  std::map<Symbol, MacroDef> Macros;
  uint32_t NextFileId = 1;
  Symbol SymDefined, SymVaArgs, SymLine, SymFile;
  std::string CurrentFileName;
};

} // namespace cundef

#endif // CUNDEF_TEXT_PREPROCESSOR_H
