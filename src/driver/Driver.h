//===- driver/Driver.h - The kcc-style driver -------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synchronous convenience facade over the AnalysisEngine: the
/// pipeline the paper wraps in its kcc script (section 3.2), exposed as
/// blocking calls for tests, examples, and one-shot tooling. A Driver
/// is a session — it owns one engine (one persistent worker pool, one
/// snapshot cache, one header registry) sized from its AnalysisRequest,
/// and every runSource/runBatch call submits into that pool, so
/// repeated calls amortize pool startup exactly like a long-lived
/// service. Asynchronous submission, streaming events, and
/// per-job timing live on the engine itself (driver/Engine.h).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_DRIVER_DRIVER_H
#define CUNDEF_DRIVER_DRIVER_H

#include "driver/Engine.h"
#include "driver/Request.h"

#include <string>
#include <vector>

namespace cundef {

/// Aggregate counters of one batched run (per-program numbers live in
/// the individual DriverOutcomes). On a persistent engine these are
/// per-batch deltas of the monotonic pool counters; PeakFrontier is
/// the pool's high-water mark as of this batch.
struct BatchStats {
  unsigned Programs = 0;
  /// Worker threads the shared scheduler resolved to.
  unsigned Jobs = 0;
  uint64_t Steals = 0;
  uint64_t SnapshotEvictions = 0;
  uint64_t PeakFrontier = 0;
  /// Machine runs executed, including speculative surplus.
  uint64_t RunsExecuted = 0;
  /// Runs the commit wavefront finalized (deterministic). The
  /// speculative-waste ratio of the batch is
  /// (RunsExecuted - RunsCommitted) / RunsCommitted.
  uint64_t RunsCommitted = 0;
  /// Provisional-claim rollbacks: runs re-executed because their early
  /// stop was only provisionally justified.
  uint64_t ProvisionalRequeues = 0;
  uint64_t DedupHits = 0;
  /// Translation-cache resolution of this batch's frontend passes:
  /// hits (ready artifact or in-flight join — no compile ran) vs
  /// misses (full frontend pass). Hits + Misses == Programs on a
  /// Driver-owned engine (cache always enabled there); both stay 0 on
  /// an engine whose translation cache is disabled.
  uint64_t TranslationHits = 0;
  uint64_t TranslationMisses = 0;
  /// Result-cache resolution of this batch's submissions: hits (a
  /// completed outcome was replayed, or an in-flight twin's search was
  /// joined — no search ran) vs misses (this submission owned its
  /// search). Honest executed-vs-cached accounting: Hits + Misses ==
  /// Programs on a cache-enabled engine; both stay 0 when the cache is
  /// disabled or the requests opted out.
  uint64_t ResultCacheHits = 0;
  uint64_t ResultCacheMisses = 0;
  double WallMs = 0.0;
};

/// Everything a batched run produced: one outcome per input, in input
/// order (program id = input index), plus the shared-scheduler stats.
/// Each outcome is byte-identical to what runSource would have produced
/// for that input alone, regardless of how the programs' runs
/// interleaved on the shared worker pool.
struct BatchResult {
  std::vector<DriverOutcome> Outcomes;
  BatchStats Stats;
};

/// The kcc-like frontend driver: a blocking adapter over one owned
/// AnalysisEngine. Holds the header registry (through the engine) so
/// callers can add program-specific headers before running.
class Driver {
public:
  explicit Driver(AnalysisRequest Req = AnalysisRequest());

  HeaderRegistry &headers() { return Eng.headers(); }
  const AnalysisRequest &request() const { return Req; }
  /// The engine this driver submits into (for callers that want to mix
  /// blocking and async submission against one pool).
  AnalysisEngine &engine() { return Eng; }

  /// Compiles and executes \p Source: submits one job and blocks on
  /// it. The search's root run doubles as the default-order run (the
  /// engine's root-gated contract), so OrdersExplored counts every
  /// machine run exactly once.
  DriverOutcome runSource(const std::string &Source,
                          const std::string &Name = "test.c");

  /// Batched mode: submits every input into the engine's shared worker
  /// pool and blocks until all complete (kcc a.c b.c --batch-stats).
  /// Each program keeps the single-program contract: its default-order
  /// run executes first, the search fans out only when that run
  /// completed cleanly, and its witness/verdict/output are
  /// deterministic.
  BatchResult runBatch(const std::vector<BatchInput> &Inputs);

  /// Compile-only entry point (used by tests that inspect the AST):
  /// the immutable frontend artifact, shared through the engine's
  /// translation cache. C->ok() is false on parse/sema errors;
  /// C->errors() has the rendered diagnostics, C->staticUb() the
  /// static findings, C->ast() the const AST every downstream machine
  /// reads.
  using Compiled = CompiledProgramRef;
  Compiled compile(const std::string &Source,
                   const std::string &Name = "test.c");

private:
  AnalysisRequest Req;
  AnalysisEngine Eng;
};

} // namespace cundef

#endif // CUNDEF_DRIVER_DRIVER_H
