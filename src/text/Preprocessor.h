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
/// A unit's leading run of #include lines is preprocessed once per
/// HeaderPrefixKey: the first unit to meet a key runs it and publishes
/// a snapshot into the registry's cache, later units replay it and go
/// on from the line after it (docs/ARCHITECTURE.md, "Prefix snapshot").
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TEXT_PREPROCESSOR_H
#define CUNDEF_TEXT_PREPROCESSOR_H

#include "support/ContentCache.h"
#include "support/Diagnostics.h"
#include "support/Hash.h"
#include "support/StringInterner.h"
#include "text/Token.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace cundef {

/// Content address of one translation unit's leading run of #include
/// lines (Preprocessor::run): two independent 64-bit digests, like
/// TranslationKey. Equal keys mean the run leaves byte-identical
/// output tokens, macro table and file registrations behind.
struct HeaderPrefixKey {
  /// Digest of the state the run starts from: the registry fingerprint,
  /// the macro table in place before run() (the constructor's
  /// predefines plus define() calls) and the main buffer's file id.
  uint64_t ContextHash = 0;
  /// Digest of the ordered list of resolved header names.
  uint64_t IncludesHash = 0;

  bool operator==(const HeaderPrefixKey &O) const {
    return ContextHash == O.ContextHash && IncludesHash == O.IncludesHash;
  }
};

} // namespace cundef

namespace std {
template <> struct hash<cundef::HeaderPrefixKey> {
  size_t operator()(const cundef::HeaderPrefixKey &K) const {
    return static_cast<size_t>(
        cundef::hashCombine(K.ContextHash, K.IncludesHash));
  }
};
} // namespace std

namespace cundef {

/// The frozen preprocessor state after a leading #include run (defined
/// in Preprocessor.cpp; only the preprocessor reads it).
struct HeaderPrefixSnapshot;

/// Counters of a registry's prefix-snapshot cache (`header_prefix` on
/// --json, --batch-stats and the serve stats frame).
using HeaderPrefixStats = ContentCacheStats;

/// Maps header names to their contents. There is no real filesystem:
/// every includable file is registered here (standard headers by
/// libc/Headers.cpp, extra files by tests or callers).
///
/// The registry also owns the cache of prefix snapshots every
/// Preprocessor built on it shares: a unit's leading #include run is
/// preprocessed once per (registry, predefined macros, include list)
/// and replayed into later units. add() empties that cache.
class HeaderRegistry {
public:
  /// Resident prefix snapshots at most (one per distinct include list
  /// and predefined-macro set in use).
  static constexpr unsigned PrefixCacheCapacity = 64;

  HeaderRegistry() : Fingerprint(digest()) {}

  void add(std::string Name, std::string Content) {
    Files[std::move(Name)] = std::move(Content);
    Fingerprint = digest();
    PrefixCache.evictIf([](const HeaderPrefixKey &) { return true; });
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
  /// serve stale ASTs. Computed once per add(), so every compile reads
  /// a stored value (add() and readers must not run concurrently, the
  /// registry's contract throughout).
  uint64_t fingerprint() const { return Fingerprint; }

  HeaderPrefixStats prefixStats() const { return PrefixCache.stats(); }
  /// Resident prefix snapshots (at most PrefixCacheCapacity).
  size_t prefixEntries() const { return PrefixCache.size(); }

private:
  friend class Preprocessor;

  uint64_t digest() const;

  std::map<std::string, std::string> Files;
  uint64_t Fingerprint;
  /// Thread-safe on its own; mutable because every Preprocessor holds
  /// the registry const.
  mutable ContentCache<HeaderPrefixKey, HeaderPrefixSnapshot> PrefixCache{
      PrefixCacheCapacity};
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

  /// Processes a raw token vector from index \p Begin: executes
  /// directives, expands macros, appends surviving tokens to \p Out.
  void processTokens(const std::vector<Token> &Toks, std::vector<Token> &Out,
                     int IncludeDepth, size_t Begin = 0);

  /// What an include run that will be captured touched: every name it
  /// lexed or created, in first-seen order (repeats allowed), and
  /// every file it registered.
  struct PrefixRecording {
    std::vector<Symbol> Names;
    std::vector<std::pair<uint32_t, std::string>> Files;
  };

  /// Processes the leading #include lines of the main buffer \p Raw
  /// (file \p FileId) into \p Out, from the registry's prefix cache
  /// when it holds them. Returns the index of the first token after
  /// them; \p Promoted receives how many tokens of \p Out are already
  /// keyword-promoted.
  size_t processIncludePrefix(const std::vector<Token> &Raw, uint32_t FileId,
                              std::vector<Token> &Out, size_t &Promoted);

  /// Index one past the leading run of well-formed #include lines that
  /// name registered headers; \p Names receives those names in order.
  size_t includePrefixEnd(const std::vector<Token> &Raw,
                          std::vector<std::string> &Names) const;

  /// The key of an include run over \p Names from the current state.
  HeaderPrefixKey prefixKey(const std::vector<std::string> &Names,
                            uint32_t FileId) const;

  /// Freezes the state after an include run that produced \p Out and
  /// touched what \p Rec holds.
  std::shared_ptr<const HeaderPrefixSnapshot>
  capturePrefix(const std::vector<Token> &Out,
                const PrefixRecording &Rec) const;

  /// Restores the state \p Snap froze, appending its tokens to \p Out.
  void replayPrefix(const HeaderPrefixSnapshot &Snap,
                    std::vector<Token> &Out);

  /// The header an #include line names: Toks[Begin, End) is the line
  /// after `# include`. False when it is neither "FILE" nor <FILE>.
  bool includeTarget(const std::vector<Token> &Toks, size_t Begin,
                     size_t End, std::string &Name) const;

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

  /// Promotes identifier tokens from index \p Begin whose spelling is
  /// a keyword.
  void promoteKeywords(std::vector<Token> &Toks, size_t Begin = 0) const;


  StringInterner &Interner;
  DiagnosticEngine &Diags;
  const HeaderRegistry &Headers;
  std::map<Symbol, MacroDef> Macros;
  uint32_t NextFileId = 1;
  Symbol SymDefined, SymVaArgs, SymLine, SymFile;
  std::string CurrentFileName;
  /// Set while an owned include run is being processed.
  PrefixRecording *Recording = nullptr;
};

} // namespace cundef

#endif // CUNDEF_TEXT_PREPROCESSOR_H
