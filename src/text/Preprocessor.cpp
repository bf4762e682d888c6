//===- text/Preprocessor.cpp - C preprocessor -----------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "text/Preprocessor.h"

#include "support/Strings.h"
#include "text/Lexer.h"
#include "text/Numbers.h"

#include <cassert>
#include <unordered_map>

using namespace cundef;

namespace {

/// Precedence-climbing evaluator for #if controlling expressions.
/// Operates over already-expanded tokens; unknown identifiers are 0.
class CondParser {
public:
  CondParser(const std::vector<Token> &Toks, DiagnosticEngine &Diags,
             SourceLoc Loc)
      : Toks(Toks), Diags(Diags), Loc(Loc) {}

  long long parse() {
    long long V = parseTernary();
    if (Pos < Toks.size())
      Diags.error(Loc, "trailing tokens in #if expression");
    return V;
  }

private:
  const Token &peek() const {
    static Token EofTok;
    return Pos < Toks.size() ? Toks[Pos] : EofTok;
  }
  Token take() {
    Token T = peek();
    if (Pos < Toks.size())
      ++Pos;
    return T;
  }
  bool consume(TokenKind K) {
    if (peek().Kind != K)
      return false;
    ++Pos;
    return true;
  }

  long long parseTernary() {
    long long Cond = parseBinary(0);
    if (!consume(TokenKind::Question))
      return Cond;
    long long Then = parseTernary();
    if (!consume(TokenKind::Colon))
      Diags.error(Loc, "expected ':' in #if expression");
    long long Else = parseTernary();
    return Cond ? Then : Else;
  }

  static int precedenceOf(TokenKind K) {
    switch (K) {
    case TokenKind::PipePipe:       return 1;
    case TokenKind::AmpAmp:         return 2;
    case TokenKind::Pipe:           return 3;
    case TokenKind::Caret:          return 4;
    case TokenKind::Amp:            return 5;
    case TokenKind::EqualEqual:
    case TokenKind::BangEqual:      return 6;
    case TokenKind::Less:
    case TokenKind::Greater:
    case TokenKind::LessEqual:
    case TokenKind::GreaterEqual:   return 7;
    case TokenKind::LessLess:
    case TokenKind::GreaterGreater: return 8;
    case TokenKind::Plus:
    case TokenKind::Minus:          return 9;
    case TokenKind::Star:
    case TokenKind::Slash:
    case TokenKind::Percent:        return 10;
    default:                        return -1;
    }
  }

  long long parseBinary(int MinPrec) {
    long long Lhs = parseUnary();
    while (true) {
      int Prec = precedenceOf(peek().Kind);
      if (Prec < MinPrec || Prec < 0)
        return Lhs;
      TokenKind Op = take().Kind;
      long long Rhs = parseBinary(Prec + 1);
      Lhs = apply(Op, Lhs, Rhs);
    }
  }

  long long apply(TokenKind Op, long long L, long long R) {
    switch (Op) {
    case TokenKind::PipePipe:       return (L || R) ? 1 : 0;
    case TokenKind::AmpAmp:         return (L && R) ? 1 : 0;
    case TokenKind::Pipe:           return L | R;
    case TokenKind::Caret:          return L ^ R;
    case TokenKind::Amp:            return L & R;
    case TokenKind::EqualEqual:     return L == R;
    case TokenKind::BangEqual:      return L != R;
    case TokenKind::Less:           return L < R;
    case TokenKind::Greater:        return L > R;
    case TokenKind::LessEqual:      return L <= R;
    case TokenKind::GreaterEqual:   return L >= R;
    case TokenKind::LessLess:       return R >= 0 && R < 63 ? L << R : 0;
    case TokenKind::GreaterGreater: return R >= 0 && R < 63 ? L >> R : 0;
    case TokenKind::Plus:           return L + R;
    case TokenKind::Minus:          return L - R;
    case TokenKind::Star:           return L * R;
    case TokenKind::Slash:
      if (R == 0) {
        Diags.error(Loc, "division by zero in #if expression");
        return 0;
      }
      return L / R;
    case TokenKind::Percent:
      if (R == 0) {
        Diags.error(Loc, "remainder by zero in #if expression");
        return 0;
      }
      return L % R;
    default:
      return 0;
    }
  }

  long long parseUnary() {
    if (consume(TokenKind::Bang))
      return !parseUnary();
    if (consume(TokenKind::Tilde))
      return ~parseUnary();
    if (consume(TokenKind::Minus))
      return -parseUnary();
    if (consume(TokenKind::Plus))
      return parseUnary();
    return parsePrimary();
  }

  long long parsePrimary() {
    const Token &T = peek();
    if (T.Kind == TokenKind::IntLiteral || T.Kind == TokenKind::CharLiteral) {
      DecodedInt D = decodeIntLiteral(take().Text);
      if (!D.Valid)
        Diags.error(Loc, "malformed integer in #if expression");
      return static_cast<long long>(D.Value);
    }
    if (T.Kind == TokenKind::Identifier) {
      take();
      return 0; // Undefined identifiers evaluate to 0 (C11 6.10.1p4).
    }
    if (consume(TokenKind::LParen)) {
      long long V = parseTernary();
      if (!consume(TokenKind::RParen))
        Diags.error(Loc, "expected ')' in #if expression");
      return V;
    }
    Diags.error(Loc, "malformed #if expression");
    take();
    return 0;
  }

  const std::vector<Token> &Toks;
  DiagnosticEngine &Diags;
  SourceLoc Loc;
  size_t Pos = 0;
};

} // namespace

uint64_t HeaderRegistry::digest() const {
  Hasher H;
  H.u64(Files.size());
  for (const auto &[Name, Content] : Files) {
    H.str(Name);
    H.str(Content);
  }
  return H.digest();
}

namespace cundef {

/// The preprocessor's state after a leading #include run, with every
/// symbol rewritten to a snapshot-local one: local symbol I names
/// Names[I - 1] (0 stays NoSymbol), so a replay can intern the names
/// into any unit's interner and remap.
struct HeaderPrefixSnapshot {
  /// Every name the run lexed or created, in first-seen order, then
  /// the other names its macro table mentions (the predefined macros',
  /// which every unit under the same key has interned already).
  std::vector<std::string> Names;
  /// The run's output tokens, keyword-promoted.
  std::vector<Token> Tokens;
  std::vector<std::pair<Symbol, MacroDef>> Macros;
  uint32_t NextFileId = 0;
  /// The (file id, name) registrations the run made, in order.
  std::vector<std::pair<uint32_t, std::string>> Files;
};

} // namespace cundef

Preprocessor::Preprocessor(StringInterner &Interner, DiagnosticEngine &Diags,
                           const HeaderRegistry &Headers)
    : Interner(Interner), Diags(Diags), Headers(Headers) {
  SymDefined = Interner.intern("defined");
  SymVaArgs = Interner.intern("__VA_ARGS__");
  SymLine = Interner.intern("__LINE__");
  SymFile = Interner.intern("__FILE__");
  define("__CUNDEF__", "1");
  define("__STDC__", "1");
}

void Preprocessor::define(const std::string &Name, const std::string &Body) {
  DiagnosticEngine Scratch;
  Lexer Lex(Body, /*FileId=*/0, Interner, Scratch);
  MacroDef Def;
  for (Token T = Lex.next(); T.isNot(TokenKind::Eof); T = Lex.next())
    Def.Body.push_back(T);
  Macros[Interner.intern(Name)] = std::move(Def);
}

bool Preprocessor::isDefined(const std::string &Name) const {
  Symbol Sym = Interner.lookup(Name);
  return Sym != NoSymbol && Macros.count(Sym) != 0;
}

uint32_t Preprocessor::lexBuffer(const std::string &Source,
                                 const std::string &Name,
                                 std::vector<Token> &Out) {
  uint32_t FileId = NextFileId++;
  Diags.registerFile(FileId, Name);
  Lexer Lex(Source, FileId, Interner, Diags);
  for (Token T = Lex.next(); T.isNot(TokenKind::Eof); T = Lex.next()) {
    if (Recording && T.is(TokenKind::Identifier))
      Recording->Names.push_back(T.Sym);
    Out.push_back(T);
  }
  if (Recording)
    Recording->Files.emplace_back(FileId, Name);
  return FileId;
}

std::vector<Token> Preprocessor::run(const std::string &Source,
                                     const std::string &FileName) {
  std::vector<Token> Raw;
  uint32_t FileId = lexBuffer(Source, FileName, Raw);
  CurrentFileName = FileName;
  std::vector<Token> Out;
  size_t Promoted = 0;
  size_t Resume = processIncludePrefix(Raw, FileId, Out, Promoted);
  processTokens(Raw, Out, /*IncludeDepth=*/0, Resume);
  promoteKeywords(Out, Promoted);
  Token Eof;
  Eof.Kind = TokenKind::Eof;
  if (!Out.empty())
    Eof.Loc = Out.back().Loc;
  else
    Eof.Loc = SourceLoc(FileId, 1, 1);
  Out.push_back(Eof);
  return Out;
}

size_t Preprocessor::lineEnd(const std::vector<Token> &Toks,
                             size_t Idx) const {
  size_t End = Idx + 1;
  while (End < Toks.size() && !Toks[End].AtLineStart)
    ++End;
  return End;
}

size_t Preprocessor::processIncludePrefix(const std::vector<Token> &Raw,
                                          uint32_t FileId,
                                          std::vector<Token> &Out,
                                          size_t &Promoted) {
  std::vector<std::string> Names;
  const size_t Boundary = includePrefixEnd(Raw, Names);
  if (Boundary == 0)
    return 0;
  const HeaderPrefixKey Key = prefixKey(Names, FileId);
  auto &Cache = Headers.PrefixCache;
  auto Claim = Cache.begin(Key, nullptr);
  using Kind = decltype(Claim.K);
  if (Claim.K == Kind::Hit) {
    replayPrefix(*Claim.Ready, Out);
    Promoted = Out.size();
    return Boundary;
  }
  // Owner, or Joined (another unit is computing the key right now):
  // run the lines as processTokens would. Only the owner records and
  // publishes, and only a run that emitted no diagnostic.
  PrefixRecording Rec;
  const bool Owner = Claim.K == Kind::Owner;
  if (Owner)
    Recording = &Rec;
  const size_t DiagsBefore = Diags.all().size();
  try {
    for (size_t I = 0; I < Boundary;)
      I = processDirective(Raw, I, Out, /*IncludeDepth=*/0);
  } catch (...) {
    Recording = nullptr;
    if (Owner)
      Cache.publish(Key, nullptr);
    throw;
  }
  Recording = nullptr;
  if (Owner)
    Cache.publish(Key, Diags.all().size() == DiagsBefore
                           ? capturePrefix(Out, Rec)
                           : nullptr);
  return Boundary;
}

size_t Preprocessor::includePrefixEnd(const std::vector<Token> &Raw,
                                      std::vector<std::string> &Names) const {
  size_t I = 0;
  while (I + 1 < Raw.size() && Raw[I].is(TokenKind::Hash) &&
         Raw[I].AtLineStart && Raw[I + 1].is(TokenKind::Identifier) &&
         !Raw[I + 1].AtLineStart && Interner.str(Raw[I + 1].Sym) == "include") {
    size_t End = lineEnd(Raw, I);
    std::string Name;
    if (!includeTarget(Raw, I + 2, End, Name) || !Headers.find(Name))
      break;
    Names.push_back(std::move(Name));
    I = End;
  }
  return I;
}

namespace {

void hashToken(Hasher &H, const Token &T, const StringInterner &Interner) {
  H.u8(static_cast<uint8_t>(T.Kind));
  H.u32(T.Loc.File);
  H.u32(T.Loc.Line);
  H.u32(T.Loc.Col);
  H.str(Interner.str(T.Sym));
  H.str(T.Text);
  H.u8(static_cast<uint8_t>(T.AtLineStart | T.LeadingSpace << 1));
}

} // namespace

HeaderPrefixKey
Preprocessor::prefixKey(const std::vector<std::string> &Names,
                        uint32_t FileId) const {
  Hasher Ctx;
  Ctx.u64(Headers.fingerprint());
  Ctx.u32(FileId);
  Ctx.u64(Macros.size());
  for (const auto &[Sym, Def] : Macros) {
    Ctx.str(Interner.str(Sym));
    Ctx.u8(static_cast<uint8_t>(Def.FunctionLike | Def.Variadic << 1));
    Ctx.u64(Def.Params.size());
    for (Symbol P : Def.Params)
      Ctx.str(Interner.str(P));
    Ctx.u64(Def.Body.size());
    for (const Token &T : Def.Body)
      hashToken(Ctx, T, Interner);
  }
  Hasher Includes;
  Includes.u64(Names.size());
  for (const std::string &Name : Names)
    Includes.str(Name);
  return {Ctx.digest(), Includes.digest()};
}

std::shared_ptr<const HeaderPrefixSnapshot>
Preprocessor::capturePrefix(const std::vector<Token> &Out,
                            const PrefixRecording &Rec) const {
  auto Snap = std::make_shared<HeaderPrefixSnapshot>();
  std::vector<Symbol> Local(Interner.size(), NoSymbol);
  auto LocalOf = [&](Symbol Sym) -> Symbol {
    if (Sym != NoSymbol && Local[Sym] == NoSymbol) {
      Snap->Names.push_back(Interner.str(Sym));
      Local[Sym] = static_cast<Symbol>(Snap->Names.size());
    }
    return Local[Sym];
  };
  for (Symbol Sym : Rec.Names)
    LocalOf(Sym);
  Snap->Tokens = Out;
  promoteKeywords(Snap->Tokens);
  for (Token &T : Snap->Tokens)
    T.Sym = LocalOf(T.Sym);
  Snap->Macros.reserve(Macros.size());
  for (const auto &[Sym, Def] : Macros) {
    MacroDef Copy = Def;
    for (Symbol &P : Copy.Params)
      P = LocalOf(P);
    for (Token &T : Copy.Body)
      T.Sym = LocalOf(T.Sym);
    Snap->Macros.emplace_back(LocalOf(Sym), std::move(Copy));
  }
  Snap->NextFileId = NextFileId;
  Snap->Files = Rec.Files;
  return Snap;
}

void Preprocessor::replayPrefix(const HeaderPrefixSnapshot &Snap,
                                std::vector<Token> &Out) {
  std::vector<Symbol> Remap;
  Remap.reserve(Snap.Names.size() + 1);
  Remap.push_back(NoSymbol);
  for (const std::string &Name : Snap.Names)
    Remap.push_back(Interner.intern(Name));
  const size_t Base = Out.size();
  Out.insert(Out.end(), Snap.Tokens.begin(), Snap.Tokens.end());
  for (size_t I = Base; I < Out.size(); ++I)
    Out[I].Sym = Remap[Out[I].Sym];
  Macros.clear();
  for (const auto &[Sym, Def] : Snap.Macros) {
    MacroDef &Copy = Macros[Remap[Sym]] = Def;
    for (Symbol &P : Copy.Params)
      P = Remap[P];
    for (Token &T : Copy.Body)
      T.Sym = Remap[T.Sym];
  }
  for (const auto &[Id, Name] : Snap.Files)
    Diags.registerFile(Id, Name);
  NextFileId = Snap.NextFileId;
}

void Preprocessor::processTokens(const std::vector<Token> &Toks,
                                 std::vector<Token> &Out, int IncludeDepth,
                                 size_t Begin) {
  size_t I = Begin;
  std::vector<Token> Run; // ordinary tokens awaiting expansion
  auto FlushRun = [&] {
    if (Run.empty())
      return;
    expandInto(Run, {}, Out);
    Run.clear();
  };
  while (I < Toks.size()) {
    const Token &T = Toks[I];
    if (T.is(TokenKind::Hash) && T.AtLineStart) {
      FlushRun();
      I = processDirective(Toks, I, Out, IncludeDepth);
      continue;
    }
    Run.push_back(T);
    ++I;
  }
  FlushRun();
}

size_t Preprocessor::skipConditionalGroup(const std::vector<Token> &Toks,
                                          size_t Idx,
                                          bool StopAtElse) const {
  // Idx points just past the failed directive's line. Scan for the
  // matching #elif/#else (when StopAtElse) or #endif.
  int Depth = 0;
  size_t I = Idx;
  while (I < Toks.size()) {
    const Token &T = Toks[I];
    if (T.is(TokenKind::Hash) && T.AtLineStart && I + 1 < Toks.size() &&
        Toks[I + 1].is(TokenKind::Identifier)) {
      const std::string &Name = Interner.str(Toks[I + 1].Sym);
      if (Name == "if" || Name == "ifdef" || Name == "ifndef") {
        ++Depth;
      } else if (Name == "endif") {
        if (Depth == 0)
          return I;
        --Depth;
      } else if (Depth == 0 && StopAtElse &&
                 (Name == "else" || Name == "elif")) {
        return I;
      }
      I = lineEnd(Toks, I);
      continue;
    }
    ++I;
  }
  return I;
}

size_t Preprocessor::processDirective(const std::vector<Token> &Toks,
                                      size_t HashIdx, std::vector<Token> &Out,
                                      int IncludeDepth) {
  size_t End = lineEnd(Toks, HashIdx);
  SourceLoc Loc = Toks[HashIdx].Loc;
  // A bare '#' is a null directive.
  if (HashIdx + 1 >= End)
    return End;
  const Token &NameTok = Toks[HashIdx + 1];
  if (NameTok.isNot(TokenKind::Identifier)) {
    Diags.error(Loc, "malformed preprocessor directive");
    return End;
  }
  const std::string &Name = Interner.str(NameTok.Sym);
  std::vector<Token> Line(Toks.begin() + HashIdx + 2, Toks.begin() + End);

  if (Name == "define") {
    if (Line.empty() || Line[0].isNot(TokenKind::Identifier)) {
      Diags.error(Loc, "macro name missing in #define");
      return End;
    }
    MacroDef Def;
    size_t BodyStart = 1;
    if (Line.size() > 1 && Line[1].is(TokenKind::LParen) &&
        !Line[1].LeadingSpace) {
      Def.FunctionLike = true;
      size_t P = 2;
      if (P < Line.size() && Line[P].is(TokenKind::RParen)) {
        ++P;
      } else {
        while (P < Line.size()) {
          if (Line[P].is(TokenKind::Ellipsis)) {
            Def.Variadic = true;
            ++P;
          } else if (Line[P].is(TokenKind::Identifier)) {
            Def.Params.push_back(Line[P].Sym);
            ++P;
          } else {
            Diags.error(Loc, "malformed macro parameter list");
            return End;
          }
          if (P < Line.size() && Line[P].is(TokenKind::Comma)) {
            ++P;
            continue;
          }
          break;
        }
        if (P >= Line.size() || Line[P].isNot(TokenKind::RParen)) {
          Diags.error(Loc, "expected ')' in macro parameter list");
          return End;
        }
        ++P;
      }
      BodyStart = P;
    }
    Def.Body.assign(Line.begin() + BodyStart, Line.end());
    Macros[Line[0].Sym] = std::move(Def);
    return End;
  }

  if (Name == "undef") {
    if (Line.empty() || Line[0].isNot(TokenKind::Identifier))
      Diags.error(Loc, "macro name missing in #undef");
    else
      Macros.erase(Line[0].Sym);
    return End;
  }

  if (Name == "include") {
    if (IncludeDepth > 32) {
      Diags.error(Loc, "#include nested too deeply");
      return End;
    }
    std::string HeaderName;
    if (!includeTarget(Toks, HashIdx + 2, End, HeaderName)) {
      Diags.error(Loc, "expected \"FILE\" or <FILE> after #include");
      return End;
    }
    const std::string *Content = Headers.find(HeaderName);
    if (!Content) {
      Diags.error(Loc, strFormat("header '%s' not found", HeaderName.c_str()));
      return End;
    }
    std::vector<Token> HeaderToks;
    lexBuffer(*Content, HeaderName, HeaderToks);
    std::string SavedName = CurrentFileName;
    CurrentFileName = HeaderName;
    processTokens(HeaderToks, Out, IncludeDepth + 1);
    CurrentFileName = SavedName;
    return End;
  }

  if (Name == "ifdef" || Name == "ifndef") {
    bool Defined =
        !Line.empty() && Line[0].is(TokenKind::Identifier) &&
        Macros.count(Line[0].Sym) != 0;
    bool Taken = (Name == "ifdef") ? Defined : !Defined;
    if (Taken)
      return End; // fall into the group; #endif handled when reached
    size_t Next = skipConditionalGroup(Toks, End, /*StopAtElse=*/true);
    return dispatchConditionalContinuation(Toks, Next, Out, IncludeDepth);
  }

  if (Name == "if") {
    long long V = evaluateCondition(Line, Loc);
    if (V != 0)
      return End;
    size_t Next = skipConditionalGroup(Toks, End, /*StopAtElse=*/true);
    return dispatchConditionalContinuation(Toks, Next, Out, IncludeDepth);
  }

  if (Name == "elif" || Name == "else") {
    // Reached from inside a taken group: skip to #endif.
    size_t EndifIdx = skipConditionalGroup(Toks, End, /*StopAtElse=*/false);
    return EndifIdx < Toks.size() ? lineEnd(Toks, EndifIdx) : EndifIdx;
  }

  if (Name == "endif")
    return End;

  if (Name == "error") {
    std::string Msg;
    for (const Token &T : Line) {
      if (!Msg.empty())
        Msg += ' ';
      Msg += spellingOf(T);
    }
    Diags.error(Loc, strFormat("#error %s", Msg.c_str()));
    return End;
  }

  if (Name == "pragma" || Name == "line")
    return End; // accepted and ignored

  Diags.error(Loc, strFormat("unknown directive #%s", Name.c_str()));
  return End;
}

bool Preprocessor::includeTarget(const std::vector<Token> &Toks, size_t Begin,
                                 size_t End, std::string &Name) const {
  if (Begin < End && Toks[Begin].is(TokenKind::StringLiteral)) {
    Name = Toks[Begin].Text;
    return true;
  }
  if (Begin < End && Toks[Begin].is(TokenKind::Less)) {
    for (size_t I = Begin + 1; I < End && Toks[I].isNot(TokenKind::Greater);
         ++I)
      Name += spellingOf(Toks[I]);
    return true;
  }
  return false;
}

size_t Preprocessor::dispatchConditionalContinuation(
    const std::vector<Token> &Toks, size_t Idx, std::vector<Token> &Out,
    int IncludeDepth) {
  // Idx points at the '#' of #elif/#else/#endif (or past the end).
  if (Idx >= Toks.size())
    return Idx;
  size_t End = lineEnd(Toks, Idx);
  const std::string &Name = Interner.str(Toks[Idx + 1].Sym);
  if (Name == "endif")
    return End;
  if (Name == "else")
    return End; // take the else group; its #endif handled when reached
  if (Name == "elif") {
    std::vector<Token> Line(Toks.begin() + Idx + 2, Toks.begin() + End);
    long long V = evaluateCondition(Line, Toks[Idx].Loc);
    if (V != 0)
      return End;
    size_t Next = skipConditionalGroup(Toks, End, /*StopAtElse=*/true);
    return dispatchConditionalContinuation(Toks, Next, Out, IncludeDepth);
  }
  return End;
}

long long Preprocessor::evaluateCondition(std::vector<Token> Line,
                                          SourceLoc Loc) {
  // Replace defined X / defined(X) before macro expansion.
  std::vector<Token> Replaced;
  for (size_t I = 0; I < Line.size(); ++I) {
    if (Line[I].is(TokenKind::Identifier) && Line[I].Sym == SymDefined) {
      bool Defined = false;
      size_t J = I + 1;
      bool Paren = J < Line.size() && Line[J].is(TokenKind::LParen);
      if (Paren)
        ++J;
      if (J < Line.size() && Line[J].is(TokenKind::Identifier)) {
        Defined = Macros.count(Line[J].Sym) != 0;
        ++J;
      } else {
        Diags.error(Loc, "operator 'defined' requires an identifier");
      }
      if (Paren) {
        if (J < Line.size() && Line[J].is(TokenKind::RParen))
          ++J;
        else
          Diags.error(Loc, "expected ')' after 'defined('");
      }
      Token T;
      T.Kind = TokenKind::IntLiteral;
      T.Loc = Line[I].Loc;
      T.Text = Defined ? "1" : "0";
      Replaced.push_back(T);
      I = J - 1;
    } else {
      Replaced.push_back(Line[I]);
    }
  }
  std::vector<Token> Expanded;
  expandInto(Replaced, {}, Expanded);
  CondParser Parser(Expanded, Diags, Loc);
  return Parser.parse();
}

std::string Preprocessor::spellingOf(const Token &Tok) const {
  switch (Tok.Kind) {
  case TokenKind::Identifier:
    return Interner.str(Tok.Sym);
  case TokenKind::IntLiteral:
  case TokenKind::FloatLiteral:
  case TokenKind::CharLiteral:
    return Tok.Text;
  case TokenKind::StringLiteral:
    return "\"" + escapeForDisplay(Tok.Text) + "\"";
  default: {
    std::string Name = tokenKindName(Tok.Kind);
    // Punctuator names are quoted like "'+='": strip the quotes.
    if (Name.size() >= 2 && Name.front() == '\'' && Name.back() == '\'')
      return Name.substr(1, Name.size() - 2);
    return Name;
  }
  }
}

bool Preprocessor::relexPasted(const std::string &Text, SourceLoc Loc,
                               Token &Out) {
  DiagnosticEngine Scratch;
  Lexer Lex(Text, Loc.File, Interner, Scratch);
  Token First = Lex.next();
  Token Second = Lex.next();
  if (Scratch.hasErrors() || First.is(TokenKind::Eof) ||
      Second.isNot(TokenKind::Eof))
    return false;
  if (Recording && First.is(TokenKind::Identifier))
    Recording->Names.push_back(First.Sym);
  First.Loc = Loc;
  Out = First;
  return true;
}

std::vector<Token>
Preprocessor::substitute(const MacroDef &Macro,
                         const std::vector<std::vector<Token>> &Args,
                         SourceLoc ExpansionLoc) {
  auto ParamIndex = [&](Symbol Sym) -> int {
    for (size_t I = 0; I < Macro.Params.size(); ++I)
      if (Macro.Params[I] == Sym)
        return static_cast<int>(I);
    if (Macro.Variadic && Sym == SymVaArgs)
      return static_cast<int>(Macro.Params.size());
    return -1;
  };

  std::vector<Token> Result;
  const std::vector<Token> &Body = Macro.Body;
  for (size_t I = 0; I < Body.size(); ++I) {
    const Token &T = Body[I];
    // Stringize: # param
    if (T.is(TokenKind::Hash) && I + 1 < Body.size() &&
        Body[I + 1].is(TokenKind::Identifier) &&
        ParamIndex(Body[I + 1].Sym) >= 0) {
      int Idx = ParamIndex(Body[I + 1].Sym);
      std::string Text;
      if (static_cast<size_t>(Idx) < Args.size())
        for (const Token &A : Args[Idx]) {
          if (!Text.empty() && A.LeadingSpace)
            Text += ' ';
          Text += spellingOf(A);
        }
      Token Str;
      Str.Kind = TokenKind::StringLiteral;
      Str.Loc = ExpansionLoc;
      Str.Text = Text;
      Result.push_back(Str);
      ++I;
      continue;
    }
    // Paste: A ## B (operate on already-substituted left token).
    if (I + 1 < Body.size() && Body[I + 1].is(TokenKind::HashHash)) {
      // Collect left fragment.
      std::vector<Token> Left;
      int Idx = T.is(TokenKind::Identifier) ? ParamIndex(T.Sym) : -1;
      if (Idx >= 0 && static_cast<size_t>(Idx) < Args.size())
        Left = Args[Idx];
      else
        Left.push_back(T);
      size_t J = I + 2;
      if (J >= Body.size()) {
        Result.insert(Result.end(), Left.begin(), Left.end());
        break;
      }
      const Token &RightTok = Body[J];
      std::vector<Token> Right;
      int RIdx =
          RightTok.is(TokenKind::Identifier) ? ParamIndex(RightTok.Sym) : -1;
      if (RIdx >= 0 && static_cast<size_t>(RIdx) < Args.size())
        Right = Args[RIdx];
      else
        Right.push_back(RightTok);
      // Paste last-of-left with first-of-right.
      std::string Pasted;
      if (!Left.empty())
        Pasted += spellingOf(Left.back());
      if (!Right.empty())
        Pasted += spellingOf(Right.front());
      Token Joined;
      if (!Pasted.empty() && relexPasted(Pasted, ExpansionLoc, Joined)) {
        if (!Left.empty())
          Result.insert(Result.end(), Left.begin(), Left.end() - 1);
        Result.push_back(Joined);
        if (!Right.empty())
          Result.insert(Result.end(), Right.begin() + 1, Right.end());
      } else {
        Diags.error(ExpansionLoc, "## produced an invalid token");
      }
      I = J;
      continue;
    }
    // Ordinary parameter: replace with (recursively pre-expanded) arg.
    if (T.is(TokenKind::Identifier)) {
      int Idx = ParamIndex(T.Sym);
      if (Idx >= 0) {
        std::vector<Token> Expanded;
        if (static_cast<size_t>(Idx) < Args.size())
          expandInto(Args[Idx], {}, Expanded);
        Result.insert(Result.end(), Expanded.begin(), Expanded.end());
        continue;
      }
    }
    Result.push_back(T);
  }
  for (Token &T : Result)
    T.Loc = ExpansionLoc;
  return Result;
}

void Preprocessor::expandInto(const std::vector<Token> &In,
                              std::set<Symbol> Hidden,
                              std::vector<Token> &Out) {
  for (size_t I = 0; I < In.size(); ++I) {
    const Token &T = In[I];
    if (T.isNot(TokenKind::Identifier)) {
      Out.push_back(T);
      continue;
    }
    // Builtins.
    if (T.Sym == SymLine) {
      Token L;
      L.Kind = TokenKind::IntLiteral;
      L.Loc = T.Loc;
      L.Text = strFormat("%u", T.Loc.Line);
      Out.push_back(L);
      continue;
    }
    if (T.Sym == SymFile) {
      Token F;
      F.Kind = TokenKind::StringLiteral;
      F.Loc = T.Loc;
      F.Text = CurrentFileName;
      Out.push_back(F);
      continue;
    }
    auto It = Macros.find(T.Sym);
    if (It == Macros.end() || Hidden.count(T.Sym)) {
      Out.push_back(T);
      continue;
    }
    const MacroDef &Macro = It->second;
    if (!Macro.FunctionLike) {
      std::set<Symbol> NewHidden = Hidden;
      NewHidden.insert(T.Sym);
      std::vector<Token> Subst = substitute(Macro, {}, T.Loc);
      expandInto(Subst, NewHidden, Out);
      continue;
    }
    // Function-like: require '(' as the next token of this sequence.
    if (I + 1 >= In.size() || In[I + 1].isNot(TokenKind::LParen)) {
      Out.push_back(T);
      continue;
    }
    // Parse arguments.
    size_t J = I + 2;
    std::vector<std::vector<Token>> Args;
    std::vector<Token> Current;
    int Depth = 0;
    bool Closed = false;
    for (; J < In.size(); ++J) {
      const Token &A = In[J];
      if (A.is(TokenKind::LParen)) {
        ++Depth;
        Current.push_back(A);
      } else if (A.is(TokenKind::RParen)) {
        if (Depth == 0) {
          Closed = true;
          break;
        }
        --Depth;
        Current.push_back(A);
      } else if (A.is(TokenKind::Comma) && Depth == 0 &&
                 !(Macro.Variadic && Args.size() >= Macro.Params.size())) {
        // Commas inside __VA_ARGS__ (once the named parameters are
        // filled) belong to the argument; all others separate args.
        Args.push_back(Current);
        Current.clear();
      } else {
        Current.push_back(A);
      }
    }
    if (!Closed) {
      Diags.error(T.Loc, "unterminated macro invocation");
      Out.push_back(T);
      continue;
    }
    if (!Current.empty() || !Args.empty() || !Macro.Params.empty() ||
        Macro.Variadic)
      Args.push_back(Current);
    if (Args.size() < Macro.Params.size())
      Args.resize(Macro.Params.size());
    std::set<Symbol> NewHidden = Hidden;
    NewHidden.insert(T.Sym);
    std::vector<Token> Subst = substitute(Macro, Args, T.Loc);
    expandInto(Subst, NewHidden, Out);
    I = J; // skip past ')'
  }
}

void Preprocessor::promoteKeywords(std::vector<Token> &Toks,
                                   size_t Begin) const {
  static const std::unordered_map<std::string, TokenKind> Keywords = {
      {"break", TokenKind::KwBreak},       {"case", TokenKind::KwCase},
      {"char", TokenKind::KwChar},         {"const", TokenKind::KwConst},
      {"continue", TokenKind::KwContinue}, {"default", TokenKind::KwDefault},
      {"do", TokenKind::KwDo},             {"double", TokenKind::KwDouble},
      {"else", TokenKind::KwElse},         {"enum", TokenKind::KwEnum},
      {"extern", TokenKind::KwExtern},     {"float", TokenKind::KwFloat},
      {"for", TokenKind::KwFor},           {"goto", TokenKind::KwGoto},
      {"if", TokenKind::KwIf},             {"inline", TokenKind::KwInline},
      {"int", TokenKind::KwInt},           {"long", TokenKind::KwLong},
      {"register", TokenKind::KwRegister}, {"restrict", TokenKind::KwRestrict},
      {"return", TokenKind::KwReturn},     {"short", TokenKind::KwShort},
      {"signed", TokenKind::KwSigned},     {"sizeof", TokenKind::KwSizeof},
      {"static", TokenKind::KwStatic},     {"struct", TokenKind::KwStruct},
      {"switch", TokenKind::KwSwitch},     {"typedef", TokenKind::KwTypedef},
      {"union", TokenKind::KwUnion},       {"unsigned", TokenKind::KwUnsigned},
      {"void", TokenKind::KwVoid},         {"volatile", TokenKind::KwVolatile},
      {"while", TokenKind::KwWhile},       {"_Bool", TokenKind::KwBool},
  };
  for (size_t I = Begin; I < Toks.size(); ++I) {
    Token &T = Toks[I];
    if (T.isNot(TokenKind::Identifier))
      continue;
    auto It = Keywords.find(Interner.str(T.Sym));
    if (It != Keywords.end())
      T.Kind = It->second;
  }
}
