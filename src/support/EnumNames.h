//===- support/EnumNames.h - Enum names declared once -----------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An enum that crosses a text boundary (`--json`, the cundef-kcc-v1
/// wire, kcc's flags) spells its names once, as a table of
/// {value, "name"} rows; enumName renders from it and parseEnumName
/// reads from it.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_ENUMNAMES_H
#define CUNDEF_SUPPORT_ENUMNAMES_H

#include <cstddef>
#include <string_view>

namespace cundef {

template <class E> struct EnumName {
  E Value;
  const char *Name;
};

/// The name of \p V in \p Table (the first row's when \p V has none).
template <class E, size_t N>
const char *enumName(const EnumName<E> (&Table)[N], E V) {
  for (const EnumName<E> &Row : Table)
    if (Row.Value == V)
      return Row.Name;
  return Table[0].Name;
}

/// Sets \p Out to the value \p Table spells \p Name; false if no row
/// does.
template <class E, size_t N>
bool parseEnumName(const EnumName<E> (&Table)[N], std::string_view Name,
                   E &Out) {
  for (const EnumName<E> &Row : Table)
    if (Name == Row.Name) {
      Out = Row.Value;
      return true;
    }
  return false;
}

} // namespace cundef

#endif // CUNDEF_SUPPORT_ENUMNAMES_H
