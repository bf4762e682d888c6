//===- driver/Driver.cpp - The kcc-style driver --------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <chrono>

using namespace cundef;

Driver::Driver(AnalysisRequest Req)
    : Req(std::move(Req)), Eng(engineConfigFor(this->Req)) {}

Driver::Compiled Driver::compile(const std::string &Source,
                                 const std::string &Name) {
  return Eng.compile(Req, Source, Name);
}

DriverOutcome Driver::runSource(const std::string &Source,
                                const std::string &Name) {
  return Eng.submit(Req, Source, Name).take();
}

BatchResult Driver::runBatch(const std::vector<BatchInput> &Inputs) {
  auto Start = std::chrono::steady_clock::now();
  BatchResult Batch;
  const SchedulerStats Pool = Eng.poolStats();
  const TranslationCacheStats Translation = Eng.translationStats();
  const ResultCacheStats Results = Eng.resultCacheStats();
  std::vector<JobHandle> Handles = Eng.submitBatch(Req, Inputs);
  Batch.Outcomes.reserve(Handles.size());
  for (JobHandle &H : Handles)
    Batch.Outcomes.push_back(H.take());
  Batch.Stats.Pool = counterDelta(Pool, Eng.poolStats());
  Batch.Stats.Pool.Programs = static_cast<unsigned>(Inputs.size());
  Batch.Stats.Translation = counterDelta(Translation, Eng.translationStats());
  Batch.Stats.Results = counterDelta(Results, Eng.resultCacheStats());
  Batch.Stats.WallMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  return Batch;
}
