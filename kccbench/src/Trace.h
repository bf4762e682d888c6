//===- kccbench/src/Trace.h - In-memory spans and counters ------*- C++ -*-===//
//
// Part of cundef's benchmark (kccbench).
//
// The traced run's recorder. Spans are taken by the benchmark around
// each public call it makes into a layer (name, start, end, parent,
// request id); counters are deltas read at the same boundaries. Both
// stay in memory until the run ends. A span whose interval the library
// measured itself (the engine's frontend and search timers) is added
// with add() from those timers, never guessed.
//
// A layer's self time is its spans' durations minus the part of each
// interval covered by the span's children. The layer of a span is the
// first component of its name: "core.scheduler.search" belongs to
// "core".
//
//===----------------------------------------------------------------------===//

#ifndef KCCBENCH_TRACE_H
#define KCCBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace kccbench {

struct Span {
  std::string Name;
  double Start = 0.0; ///< seconds, steady clock
  double End = 0.0;
  int64_t Parent = -1; ///< index into the span list, -1 for a root
  uint64_t Request = 0;
};

class Tracer {
public:
  /// Opens a span now; returns its id.
  int64_t begin(const char *Name, uint64_t Request, int64_t Parent = -1);
  void end(int64_t Id);
  /// Records a span whose interval was measured elsewhere.
  int64_t add(const char *Name, double Start, double End, uint64_t Request,
              int64_t Parent);
  void count(const std::string &Name, double Delta);

  std::vector<Span> spans() const;
  std::map<std::string, double> counters() const;

  /// Self seconds per span name.
  std::map<std::string, double> selfByName() const;
  /// Self seconds per layer (first name component).
  std::map<std::string, double> selfByLayer() const;

  /// JSON object: spans, per-name and per-layer self time, counters.
  std::string toJson() const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  std::map<std::string, double> Counters;
};

/// Opens a span on construction and closes it on destruction; inert
/// when \p T is null (the untraced path).
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, uint64_t Request,
             int64_t Parent = -1)
      : T(T), Id(T ? T->begin(Name, Request, Parent) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int64_t id() const { return Id; }

private:
  Tracer *T;
  int64_t Id;
};

} // namespace kccbench

#endif // KCCBENCH_TRACE_H
