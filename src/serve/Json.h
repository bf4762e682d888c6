//===- serve/Json.h - Minimal JSON value and parser -------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reading half of the wire boundary. driver/JsonOutput.h renders
/// documents; the serve layer additionally has to *parse* them — the
/// daemon decodes submit frames, the remote client decodes outcome
/// frames — so this is a small strict recursive-descent JSON parser
/// plus an immutable value tree. It understands exactly RFC 8259 with
/// one repo-specific convention: \u00XX escapes decode to the single
/// raw byte XX (the byte-transparent latin-1 convention jsonEscape
/// emits and docs/JSON_OUTPUT.md documents), so a string survives a
/// serialize/parse round trip byte-for-byte.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SERVE_JSON_H
#define CUNDEF_SERVE_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cundef {

/// An immutable parsed JSON value. Object member order is preserved but
/// lookups are by key; duplicate keys keep the last occurrence (RFC
/// 8259 leaves this undefined; last-wins matches common parsers).
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Value accessors; each returns the fallback when the kind does not
  /// match (wire messages treat absent and mistyped fields alike).
  bool asBool(bool Fallback = false) const {
    return isBool() ? BoolV : Fallback;
  }
  double asDouble(double Fallback = 0.0) const {
    return isNumber() ? NumberV : Fallback;
  }
  /// Integer accessors read the literal's digits, never the double: a
  /// number written with a fraction or an exponent, or one out of the
  /// target type's range, is not an integer and yields the fallback.
  uint64_t asU64(uint64_t Fallback = 0) const {
    uint64_t V = 0;
    return toU64(V) ? V : Fallback;
  }
  int64_t asI64(int64_t Fallback = 0) const {
    if (!IsInteger)
      return Fallback;
    if (!IntNegative)
      return IntMagnitude <= uint64_t(INT64_MAX)
                 ? static_cast<int64_t>(IntMagnitude)
                 : Fallback;
    return IntMagnitude <= uint64_t(INT64_MAX) + 1
               ? static_cast<int64_t>(0 - IntMagnitude)
               : Fallback;
  }
  /// True, with the value in \p Out, when this is a non-negative
  /// integer literal that fits in 64 bits.
  bool toU64(uint64_t &Out) const {
    if (!IsInteger || (IntNegative && IntMagnitude != 0))
      return false;
    Out = IntMagnitude;
    return true;
  }
  const std::string &asString() const {
    static const std::string Empty;
    return isString() ? StringV : Empty;
  }

  const std::vector<JsonValue> &items() const {
    static const std::vector<JsonValue> Empty;
    return isArray() ? ArrayV : Empty;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *get(const std::string &Key) const;

  /// Typed member conveniences (fallback when absent or mistyped).
  bool getBool(const std::string &Key, bool Fallback = false) const;
  double getDouble(const std::string &Key, double Fallback = 0.0) const;
  uint64_t getU64(const std::string &Key, uint64_t Fallback = 0) const;
  const std::string &getString(const std::string &Key) const;

  /// Strictly parses \p Text as one JSON value with nothing but
  /// whitespace after it. On failure returns false and sets \p Err to a
  /// byte-offset diagnostic.
  static bool parse(const std::string &Text, JsonValue &Out,
                    std::string &Err);

private:
  friend class JsonParser;

  Kind K = Kind::Null;
  bool BoolV = false;
  double NumberV = 0.0;
  /// Number literals without fraction or exponent whose magnitude fits
  /// in 64 bits also keep their exact integer value.
  bool IsInteger = false;
  bool IntNegative = false;
  uint64_t IntMagnitude = 0;
  std::string StringV;
  std::vector<JsonValue> ArrayV;
  std::vector<std::pair<std::string, JsonValue>> ObjectV;
};

} // namespace cundef

#endif // CUNDEF_SERVE_JSON_H
