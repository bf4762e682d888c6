//===- serve/Json.cpp - Minimal JSON value and parser ---------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include "support/Strings.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

using namespace cundef;

const JsonValue *JsonValue::get(const std::string &Key) const {
  if (!isObject())
    return nullptr;
  // Last occurrence wins (see header); objects on this wire are tiny,
  // so a linear scan beats a map's allocations.
  const JsonValue *Found = nullptr;
  for (const auto &Member : ObjectV)
    if (Member.first == Key)
      Found = &Member.second;
  return Found;
}

bool JsonValue::getBool(const std::string &Key, bool Fallback) const {
  const JsonValue *V = get(Key);
  return V ? V->asBool(Fallback) : Fallback;
}

double JsonValue::getDouble(const std::string &Key, double Fallback) const {
  const JsonValue *V = get(Key);
  return V ? V->asDouble(Fallback) : Fallback;
}

uint64_t JsonValue::getU64(const std::string &Key, uint64_t Fallback) const {
  const JsonValue *V = get(Key);
  return V ? V->asU64(Fallback) : Fallback;
}

const std::string &JsonValue::getString(const std::string &Key) const {
  static const std::string Empty;
  const JsonValue *V = get(Key);
  return V ? V->asString() : Empty;
}

namespace cundef {

/// Recursive-descent parser over a byte buffer. Depth is bounded so a
/// hostile frame of ten thousand '[' cannot blow the daemon's stack.
class JsonParser {
public:
  JsonParser(const std::string &Text, std::string &Err)
      : Text(Text), Err(Err) {}

  bool run(JsonValue &Out) {
    skipSpace();
    if (!parseValue(Out, 0))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing bytes after the JSON value");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  const std::string &Text;
  std::string &Err;
  size_t Pos = 0;

  bool fail(const char *Message) {
    Err = strFormat("JSON parse error at byte %zu: %s", Pos, Message);
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail("invalid literal");
    Pos += Len;
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.StringV);
    case 't':
      Out.K = JsonValue::Kind::Bool;
      Out.BoolV = true;
      return literal("true");
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      Out.BoolV = false;
      return literal("false");
    case 'n':
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':' after object key");
      ++Pos;
      skipSpace();
      JsonValue Member;
      if (!parseValue(Member, Depth + 1))
        return false;
      Out.ObjectV.emplace_back(std::move(Key), std::move(Member));
      skipSpace();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      JsonValue Item;
      if (!parseValue(Item, Depth + 1))
        return false;
      Out.ArrayV.push_back(std::move(Item));
      skipSpace();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  static int hexDigit(char C) {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    if (C >= 'A' && C <= 'F')
      return C - 'A' + 10;
    return -1;
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      unsigned char C = static_cast<unsigned char>(Text[Pos]);
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Pos;
        continue;
      }
      ++Pos; // '\\'
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':  Out += '"';  break;
      case '\\': Out += '\\'; break;
      case '/':  Out += '/';  break;
      case 'b':  Out += '\b'; break;
      case 'f':  Out += '\f'; break;
      case 'n':  Out += '\n'; break;
      case 'r':  Out += '\r'; break;
      case 't':  Out += '\t'; break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        int Code = 0;
        for (int I = 0; I < 4; ++I) {
          int D = hexDigit(Text[Pos + I]);
          if (D < 0)
            return fail("invalid \\u escape digit");
          Code = Code * 16 + D;
        }
        Pos += 4;
        if (Code <= 0xFF) {
          // The byte-transparent convention: \u00XX is the raw byte XX
          // (jsonEscape's inverse), so subject-program output survives
          // the wire byte-for-byte.
          Out += static_cast<char>(Code);
        } else {
          // Outside the byte range (never produced by jsonEscape):
          // decode as UTF-8 so foreign documents still parse.
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    bool Negative = false;
    if (Pos < Text.size() && Text[Pos] == '-') {
      ++Pos;
      Negative = true;
    }
    bool AnyDigit = false;
    bool Fits = true;
    uint64_t Magnitude = 0;
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
      const uint64_t Digit = static_cast<uint64_t>(Text[Pos] - '0');
      if (Magnitude > (UINT64_MAX - Digit) / 10)
        Fits = false;
      else
        Magnitude = Magnitude * 10 + Digit;
      ++Pos;
      AnyDigit = true;
    }
    const size_t IntEnd = Pos;
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (!AnyDigit)
      return fail("invalid number");
    Out.K = JsonValue::Kind::Number;
    Out.NumberV = std::strtod(Text.substr(Start, Pos - Start).c_str(), nullptr);
    Out.IsInteger = Fits && Pos == IntEnd;
    Out.IntNegative = Negative;
    Out.IntMagnitude = Out.IsInteger ? Magnitude : 0;
    return true;
  }
};

} // namespace cundef

bool JsonValue::parse(const std::string &Text, JsonValue &Out,
                      std::string &Err) {
  Out = JsonValue();
  JsonParser P(Text, Err);
  return P.run(Out);
}
