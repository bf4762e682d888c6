//===- support/Counters.h - Counter tables declared once --------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every counter cundef reports is declared once, as one row of an
/// X-macro table:
///
///   X(Type, Member, "key", "label", Merge)
///
/// `Member` is the struct field, `"key"` names it on `--json` and on
/// the cundef-kcc-v1 wire, `"label"` names it on kcc's text lines
/// (empty: the row is left off them), and `Merge` says how readings
/// combine (CounterMerge). A struct declares its fields with
/// `TABLE(CUNDEF_COUNTER_FIELD)` and its visitor with
/// `CUNDEF_COUNTER_VISITOR(Struct, TABLE)`; the generic writers below
/// render the `--json` block, encode and decode the wire object, print
/// the text line and take per-batch deltas from that visitor alone.
/// Adding a counter is adding one row.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_COUNTERS_H
#define CUNDEF_SUPPORT_COUNTERS_H

#include "support/Strings.h"

#include <cstdint>
#include <string>
#include <type_traits>

namespace cundef {

/// How two readings of one counter combine.
enum class CounterMerge {
  Sum,   ///< monotonic count: a window's value is after - before
  Peak,  ///< high-water mark: a window reports the mark after it
  Gauge, ///< a level or a setting: a window reports the reading after it
  /// Computed by the row's const member function from other rows:
  /// rendered on `--json` (4 decimals) and text lines (a percentage),
  /// never on the wire, never merged.
  Ratio,
};

struct CounterRow {
  const char *Key;
  const char *Label;
  CounterMerge Merge;
};

#define CUNDEF_COUNTER_FIELD(Type, Member, Key, Label, Merge)                 \
  CUNDEF_COUNTER_FIELD_##Merge(Type, Member)
#define CUNDEF_COUNTER_FIELD_Sum(Type, Member) Type Member{};
#define CUNDEF_COUNTER_FIELD_Peak CUNDEF_COUNTER_FIELD_Sum
#define CUNDEF_COUNTER_FIELD_Gauge CUNDEF_COUNTER_FIELD_Sum
#define CUNDEF_COUNTER_FIELD_Ratio(Type, Member)

#define CUNDEF_COUNTER_VISIT(Type, Member, Key, Label, Merge)                 \
  Fn(::cundef::CounterRow{Key, Label, ::cundef::CounterMerge::Merge},         \
     &Self::Member);

/// Declares `forEachCounter(Fn)`, which calls Fn(Row, MemberPointer) for
/// every row of TABLE in table order (a member-function pointer for
/// Ratio rows).
#define CUNDEF_COUNTER_VISITOR(Struct, TABLE)                                 \
  template <class CounterFn> static void forEachCounter(CounterFn &&Fn) {     \
    using Self = Struct;                                                      \
    TABLE(CUNDEF_COUNTER_VISIT)                                               \
  }

namespace counters {
template <class M> constexpr bool isRatio() {
  return std::is_member_function_pointer<M>::value;
}

template <class T> void appendValue(std::string &Out, T V) {
  if constexpr (std::is_same<T, bool>::value)
    Out += V ? "true" : "false";
  else
    Out += std::to_string(static_cast<unsigned long long>(V));
}
} // namespace counters

/// The rows of \p S as pretty-printed `--json` members, one per line,
/// each prefixed by \p Indent and all but the last followed by a comma;
/// \p More adds the comma after the last one too (more members follow).
template <class S>
void appendJsonCounters(std::string &Out, const S &Stats, const char *Indent,
                        bool More) {
  bool First = true;
  S::forEachCounter([&](const CounterRow &Row, auto Member) {
    Out += First ? "" : ",\n";
    First = false;
    Out += Indent;
    Out += '"';
    Out += Row.Key;
    Out += "\": ";
    if constexpr (counters::isRatio<decltype(Member)>())
      Out += strFormat("%.4f", (Stats.*Member)());
    else
      counters::appendValue(Out, Stats.*Member);
  });
  Out += More ? ",\n" : "\n";
}

/// The rows of \p S as compact wire members ("key":value, comma
/// separated, no braces). Ratio rows stay off the wire.
template <class S>
void appendWireCounters(std::string &Out, const S &Stats) {
  bool First = true;
  S::forEachCounter([&](const CounterRow &Row, auto Member) {
    if constexpr (!counters::isRatio<decltype(Member)>()) {
      Out += First ? "\"" : ",\"";
      First = false;
      Out += Row.Key;
      Out += "\":";
      counters::appendValue(Out, Stats.*Member);
    }
  });
}

/// Reads every wire row of \p S from the JSON object \p Obj (a type
/// with getU64/getBool) by key: a missing key reads as zero, an unknown
/// one is ignored, so old and new peers interoperate.
template <class S, class Object>
void readWireCounters(const Object &Obj, S &Stats) {
  S::forEachCounter([&](const CounterRow &Row, auto Member) {
    if constexpr (!counters::isRatio<decltype(Member)>()) {
      using T = std::remove_reference_t<decltype(Stats.*Member)>;
      if constexpr (std::is_same<T, bool>::value)
        Stats.*Member = Obj.getBool(Row.Key, false);
      else
        Stats.*Member = static_cast<T>(Obj.getU64(Row.Key, 0));
    }
  });
}

/// The rows of \p S that carry a text label, as " label=value" pairs.
template <class S>
void appendTextCounters(std::string &Out, const S &Stats) {
  S::forEachCounter([&](const CounterRow &Row, auto Member) {
    if (!*Row.Label)
      return;
    Out += ' ';
    Out += Row.Label;
    Out += '=';
    if constexpr (counters::isRatio<decltype(Member)>())
      Out += strFormat("%.2f%%", (Stats.*Member)() * 100.0);
    else
      counters::appendValue(Out, Stats.*Member);
  });
}

/// What happened between two readings of a monotonic source: Sum rows
/// are differences, Peak and Gauge rows the reading after.
template <class S> S counterDelta(const S &Before, const S &After) {
  S Delta = After;
  S::forEachCounter([&](const CounterRow &Row, auto Member) {
    if constexpr (!counters::isRatio<decltype(Member)>())
      if (Row.Merge == CounterMerge::Sum)
        Delta.*Member -= Before.*Member;
  });
  return Delta;
}

} // namespace cundef

#endif // CUNDEF_SUPPORT_COUNTERS_H
