//===- kccbench/src/Reference.cpp - The determinism check -----------------===//
//
// Part of cundef's benchmark (kccbench).
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

using namespace cundef;

namespace kccbench {

void Sample::offer(const Program &P, const DriverOutcome &O) {
  ++Seen;
  if (Kept.size() < Size) {
    Kept.push_back({P, canonicalOutcome(O)});
    return;
  }
  uint64_t Slot = R.below(Seen);
  if (Slot < Size)
    Kept[Slot] = {P, canonicalOutcome(O)};
}

bool referenceCheck(const Sample &S, const AnalysisRequest &Req,
                    std::string &Why) {
  AnalysisEngine Ref(benchEngineConfig(1));
  std::vector<BatchInput> Inputs;
  for (const Sample::Entry &E : S.entries())
    Inputs.push_back({E.P.Source, E.P.Name});
  std::vector<JobHandle> Jobs = Ref.submitBatch(Req, Inputs);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (canonicalOutcome(Jobs[I].wait()) != S.entries()[I].Canonical) {
      Why = "outcome of " + S.entries()[I].P.Name +
            " differs from the one-worker reference";
      return false;
    }
  }
  return true;
}

} // namespace kccbench
