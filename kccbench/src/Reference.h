//===- kccbench/src/Reference.h - The determinism check ---------*- C++ -*-===//
//
// Part of cundef's benchmark (kccbench).
//
// Committed verdicts, witnesses and search counters must not depend on
// the pool width, on what else was in flight, on cache state, or on
// whether the outcome crossed the wire. A seeded sample of the
// requests a run measured is re-run on a fresh one-worker engine with
// its caches empty, and each canonical outcome is byte-compared.
//
//===----------------------------------------------------------------------===//

#ifndef KCCBENCH_REFERENCE_H
#define KCCBENCH_REFERENCE_H

#include "Common.h"

#include "driver/Request.h"

namespace kccbench {

/// A seeded uniform sample (reservoir) of observed requests.
class Sample {
public:
  Sample(uint64_t Seed, size_t Size) : R(Seed ^ 0xD17E5Cull), Size(Size) {}
  void offer(const Program &P, const cundef::DriverOutcome &O);

  struct Entry {
    Program P;
    std::string Canonical;
  };
  const std::vector<Entry> &entries() const { return Kept; }

private:
  Rng R;
  size_t Size;
  size_t Seen = 0;
  std::vector<Entry> Kept;
};

/// Re-runs \p S under \p Req on a one-worker engine. Returns false and
/// names the first differing program in \p Why.
bool referenceCheck(const Sample &S, const cundef::AnalysisRequest &Req,
                    std::string &Why);

} // namespace kccbench

#endif // KCCBENCH_REFERENCE_H
