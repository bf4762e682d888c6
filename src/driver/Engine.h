//===- driver/Engine.h - The persistent analysis engine ---------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer: a long-lived AnalysisEngine owns one persistent
/// work-stealing worker pool (core/Scheduler.h), a shared
/// snapshot cache, and two engine-wide content-addressed caches
/// (support/ContentCache.h): compiled translation units and completed
/// search outcomes. It runs the whole kcc pipeline — frontend
/// (preprocess, parse, sema, static checks) plus strict execution and
/// evaluation-order search — for every translation unit submitted to
/// it.
///
/// Submission is truly asynchronous: submit() copies the source,
/// enqueues a frontend task, and returns a future-backed JobHandle in
/// O(1) — neither the frontend pass nor any search runs on the calling
/// thread. A small frontend worker pool compiles submissions (through
/// the translation cache, so identical units compile once and share
/// one immutable CompiledProgram) and hands clean artifacts to the
/// search pool; frontend work on later submissions overlaps searches
/// already running on the warm pool. Per-job events (program finished,
/// UB found, frontier truncated) stream to an optional EngineSink from
/// engine threads as programs complete.
///
/// Every other entry point — Driver::runSource/runBatch, the batched
/// tool runner, the suite scorers, the kcc CLI — is a thin adapter over
/// this class, so the codebase has exactly one submission path, and a
/// service reusing one engine across batches amortizes pool startup
/// AND frontend work while producing outcomes byte-identical to fresh
/// per-batch drivers (tests/test_engine.cpp and
/// tests/test_translation_cache.cpp pin that down).
///
/// Determinism: per-program results never depend on pool width, steal
/// interleaving, what else is in flight, or whether the artifact came
/// from the cache (equal keys mean interchangeable artifacts —
/// frontend/Frontend.h); sharing pools and artifacts across
/// submissions is a wall-clock optimization only.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_DRIVER_ENGINE_H
#define CUNDEF_DRIVER_ENGINE_H

#include "core/Scheduler.h"
#include "driver/Request.h"
#include "frontend/CompiledProgram.h"
#include "support/ContentCache.h"
#include "support/Counters.h"
#include "text/Preprocessor.h"
#include "ub/Report.h"

#include <memory>
#include <string>
#include <vector>

namespace cundef {

/// A DriverOutcome's search counters, in its `search` block's order.
/// OrdersDeduped counts symmetric interleavings pruned. A truncated
/// search left SearchDropped subtrees unexplored, so a clean verdict is
/// not exhaustive (kcc --show-witness says so on a line of its own).
/// Steals and peak frontier are wall-clock details; each eviction
/// turned one fork into a prefix replay.
#define CUNDEF_SEARCH_COUNTERS(X)                                             \
  X(unsigned, OrdersExplored, "orders_explored", "orders", Sum)               \
  X(unsigned, OrdersDeduped, "orders_deduped", "deduped", Sum)                \
  X(bool, SearchTruncated, "truncated", "", Gauge)                            \
  X(unsigned, SearchDropped, "dropped_subtrees", "", Sum)                     \
  X(unsigned, SearchSteals, "steals", "steals", Sum)                          \
  X(unsigned, SearchEvictions, "snapshot_evictions", "evictions", Sum)        \
  X(unsigned, SearchPeakFrontier, "peak_frontier", "peak-frontier", Peak)

/// What a program's analysis concluded. Ordered gravest first: kcc's
/// exit code follows a batch's gravest verdict (undefined 139, compile
/// error 1, internal error 4).
enum class OutcomeVerdict { Undefined, CompileError, InternalError, Clean };

/// Everything one analysis produced. The outcome carries both halves
/// of kcc's verdict: compile-time findings and runtime findings, plus
/// the program's output and exit code when it completed (the paper's
/// section 3.2 contract).
struct DriverOutcome {
  bool CompileOk = false;
  std::string CompileErrors;
  std::vector<UbReport> StaticUb;
  /// Flow-layer may-findings: triage hints, never part of the verdict
  /// (anyUb() ignores them; kcc prints them only on request).
  std::vector<UbReport> StaticHints;
  std::vector<UbReport> DynamicUb;
  /// The request ran with StaticAnalysisMode::Only: no machine ran, so
  /// Status/ExitCode/Output describe no execution and DynamicUb is
  /// empty by construction.
  bool StaticOnly = false;
  RunStatus Status = RunStatus::Internal;
  int ExitCode = 0;
  std::string Output;
  CUNDEF_SEARCH_COUNTERS(CUNDEF_COUNTER_FIELD)
  /// This job's artifact came from the engine's translation cache: no
  /// frontend pass ran for this submission (kcc --show-witness and the
  /// --json compile block surface it).
  bool TranslationCacheHit = false;
  /// This job's outcome came from the engine's result cache: no search
  /// ran for this submission — every deterministic field below is a
  /// byte-identical copy of the cached outcome. Only
  /// TranslationCacheHit and FrontendMicros describe this submission;
  /// SearchMicros and the search counters replay the original run's (a
  /// cached outcome IS that run's outcome).
  bool ResultCacheHit = false;
  /// Microseconds this job spent in its frontend stage — the compile,
  /// or the cache lookup/in-flight join that replaced it. Together
  /// with SearchMicros this splits per-job cost into the two pipeline
  /// halves the translation cache is amortizing.
  double FrontendMicros = 0.0;
  /// Microseconds from search submission to search completion (0 for
  /// compile failures; includes the default-order run).
  double SearchMicros = 0.0;
  /// Decision prefix that exposed order-dependent undefinedness; replay
  /// it with Machine::setReplayDecisions to reproduce the run
  /// deterministically. Empty when the default order already misbehaved
  /// (or nothing was found).
  std::vector<uint8_t> SearchWitness;

  CUNDEF_COUNTER_VISITOR(DriverOutcome, CUNDEF_SEARCH_COUNTERS)

  bool anyUb() const { return !StaticUb.empty() || !DynamicUb.empty(); }
  /// The one verdict classification every surface prints.
  OutcomeVerdict verdict() const {
    return anyUb()           ? OutcomeVerdict::Undefined
           : !CompileOk      ? OutcomeVerdict::CompileError
           : internalError() ? OutcomeVerdict::InternalError
                             : OutcomeVerdict::Clean;
  }
  /// The program compiled but the machine could not finish its run
  /// (RunStatus::Internal) and nothing undefined was found: there is no
  /// verdict, and it must never read as clean.
  bool internalError() const {
    return CompileOk && !StaticOnly && !anyUb() &&
           Status == RunStatus::Internal;
  }
  /// Renders every finding in the paper's kcc error format.
  std::string renderReport() const;
};

/// One translation unit of a submission.
struct BatchInput {
  std::string Source;
  std::string Name;
};

/// Both engine caches are ContentCaches and count alike.
using TranslationCacheStats = ContentCacheStats;
using ResultCacheStats = ContentCacheStats;

/// Engine-level (pool) configuration. Per-analysis options live in
/// AnalysisRequest; everything here is shared by every job the engine
/// ever runs.
struct EngineConfig {
  /// Worker threads of the persistent pool. 0 = auto-detect
  /// std::thread::hardware_concurrency().
  unsigned Workers = 0;
  /// Cap the pool at hardware concurrency (tests disable this to force
  /// cross-thread interleaving on small CI machines; results are
  /// worker-count-independent either way).
  bool ClampWorkersToHardware = true;
  /// LRU capacity of the shared snapshot cache (core/Scheduler.h).
  unsigned SnapshotBudget = 1024;
  /// Capacity (artifacts) of the engine-wide translation cache. 0
  /// disables content-addressed reuse: every submission runs its own
  /// frontend pass (the kcc --translation-cache=off A/B mode).
  unsigned TranslationCacheEntries = 256;
  /// Capacity (outcomes) of the engine-wide result cache: completed
  /// search outcomes keyed by (translation key, machine fingerprint,
  /// search fingerprint), so a resubmitted (source, config) pair skips
  /// its search entirely. 0 disables it (the kcc --result-cache=off A/B
  /// mode).
  unsigned ResultCacheEntries = 256;
  /// Threads of the frontend pool, which compiles submissions off the
  /// submitting thread. 0 = auto (2): enough to overlap frontend
  /// work with searches without oversubscribing the search workers.
  unsigned FrontendWorkers = 0;
};

/// Pool configuration for an engine dedicated to \p Req: the pool is
/// sized from the request's worker count (clamped to hardware). The
/// Driver facade and the batched tool runner size their engines this
/// way.
EngineConfig engineConfigFor(const AnalysisRequest &Req);

/// Engine memory-observability counters: what the engine currently
/// retains per job, beyond the caches that are *supposed* to persist
/// (the translation cache keeps its artifacts by design). After
/// drain() on an otherwise idle engine, every counter here is zero
/// except ProgramSlots (the scheduler's monotonic index space) — the
/// reclaim contract that keeps a long-lived service's footprint
/// proportional to its largest batch, not its whole history.
/// tests/test_catalog_coverage.cpp pins this down over the 200+-program
/// coverage batch.
///
/// PendingJobs: submitted, outcome not yet final. GraveyardArtifacts:
/// finished jobs' artifact refs awaiting the post-drain reclaim.
/// ProgramSlots: the scheduler's program index (monotonic).
/// RetainedPrograms: un-reclaimed per-program search state.
/// PendingSnapshots: live snapshot-cache entries.
#define CUNDEF_ENGINE_MEMORY_COUNTERS(X)                                      \
  X(size_t, PendingJobs, "pending_jobs", "pending-jobs", Gauge)               \
  X(size_t, GraveyardArtifacts, "graveyard_artifacts", "graveyard-artifacts", \
    Gauge)                                                                    \
  X(size_t, ProgramSlots, "program_slots", "program-slots", Gauge)            \
  X(size_t, RetainedPrograms, "retained_programs", "retained-programs",       \
    Gauge)                                                                    \
  X(size_t, PendingSnapshots, "pending_snapshots", "pending-snapshots", Gauge)

struct EngineMemoryStats {
  CUNDEF_ENGINE_MEMORY_COUNTERS(CUNDEF_COUNTER_FIELD)
  CUNDEF_COUNTER_VISITOR(EngineMemoryStats, CUNDEF_ENGINE_MEMORY_COUNTERS)
};

/// Identifies a job in EngineSink callbacks.
struct EngineJobInfo {
  size_t Job = 0;   ///< engine-wide job id (submission order, from 1)
  std::string Name; ///< translation unit name
};

/// Streaming event interface. Callbacks fire on engine threads —
/// frontend workers for jobs that end there (compile failures,
/// static-only analyses, result-cache hits), search workers for pooled
/// jobs — so implementations must be thread-safe. A callback may call
/// back into the engine — including submit() — but must not block on
/// the job it is being called for. Event order per job:
/// onFrontierTruncated / onUbFound (as applicable), then
/// onProgramFinished last.
class EngineSink {
public:
  virtual ~EngineSink() = default;

  /// The job completed; \p Outcome is final. \p WallMicros measures
  /// submit()-to-completion wall time — honest per-job attribution,
  /// with the shared-pool caveat that concurrent jobs' times overlap
  /// (they sum to more than the batch wall-clock).
  virtual void onProgramFinished(const EngineJobInfo &Job,
                                 const DriverOutcome &Outcome,
                                 double WallMicros) {}
  /// Undefinedness was found (static or dynamic).
  virtual void onUbFound(const EngineJobInfo &Job,
                         const std::vector<UbReport> &Reports) {}
  /// The search exhausted its budget with subtrees unexplored: the
  /// verdict is not exhaustive.
  virtual void onFrontierTruncated(const EngineJobInfo &Job,
                                   unsigned DroppedSubtrees) {}
};

namespace detail {
struct JobState;
}

/// Future-backed handle to one submitted job. Cheap to copy (shared
/// state); the default-constructed handle is invalid.
class JobHandle {
public:
  JobHandle() = default;

  bool valid() const { return State != nullptr; }
  /// Engine-wide job id (matches EngineJobInfo::Job).
  size_t id() const;
  const std::string &name() const;
  /// True once the outcome is final (never blocks).
  bool done() const;
  /// Blocks until the job completed; the reference stays valid while
  /// any handle to this job is alive.
  const DriverOutcome &wait() const;
  /// Blocks, then moves the outcome out (call at most once).
  DriverOutcome take();
  /// Submit-to-completion wall time in microseconds (blocks like
  /// wait()). See EngineSink::onProgramFinished for the shared-pool
  /// attribution caveat.
  double wallMicros() const;

private:
  friend class AnalysisEngine;
  explicit JobHandle(std::shared_ptr<detail::JobState> S)
      : State(std::move(S)) {}

  std::shared_ptr<detail::JobState> State;
};

/// The persistent analysis service. Construction is cheap; the worker
/// pools spawn lazily on the first submission and live until
/// shutdown() (or destruction). One engine serves any number of
/// submissions, concurrent or sequential, with any mix of requests.
class AnalysisEngine {
public:
  explicit AnalysisEngine(EngineConfig Cfg = EngineConfig());
  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine &) = delete;
  AnalysisEngine &operator=(const AnalysisEngine &) = delete;

  /// The header registry every compilation uses. The registry is NOT
  /// synchronized: mutate it only while no submission is in flight
  /// (before the first submit, or after every outstanding JobHandle
  /// completed / drain() returned) — submit() is asynchronous, so "the
  /// call returned" no longer means "the compile finished". Mutating
  /// at a quiescent point is fully supported even on a started engine:
  /// the registry's content fingerprint is part of every cache key, so
  /// edits can never serve stale cached artifacts
  /// (tests/test_translation_cache.cpp pins the invalidation down).
  HeaderRegistry &headers();

  /// Resolved search-pool width.
  unsigned workers() const;

  /// Compile-only entry point: the frontend half of the pipeline, run
  /// synchronously on the calling thread through the translation cache
  /// (no machine runs, no pool interaction). The artifact is immutable
  /// and may be shared with past or future submissions of the same
  /// content.
  CompiledProgramRef compile(const AnalysisRequest &Req,
                             const std::string &Source,
                             const std::string &Name);

  /// Submits one translation unit for analysis under \p Req and
  /// returns immediately: O(1), no frontend or search work on the
  /// calling thread (the source is copied into the job). \p Sink, when
  /// given, streams this job's events from engine threads; it must
  /// outlive the job. Submissions after shutdown() complete
  /// immediately with an Internal outcome (no events fire).
  JobHandle submit(const AnalysisRequest &Req, std::string Source,
                   std::string Name, EngineSink *Sink = nullptr);

  /// Submits every input under one request; handles come back in input
  /// order. Equivalent to N submit() calls.
  std::vector<JobHandle> submitBatch(const AnalysisRequest &Req,
                                     const std::vector<BatchInput> &Inputs,
                                     EngineSink *Sink = nullptr);

  /// Blocks until every outstanding job completed (events fired,
  /// futures set), then reclaims finished per-program search state.
  /// The pools stay alive, idle, ready for the next submission; the
  /// translation cache keeps its artifacts (that is the point of a
  /// persistent service).
  void drain();

  /// Graceful shutdown: drain(), then stop and join both pools.
  /// Idempotent. Submissions after shutdown complete immediately with
  /// an Internal outcome explaining the rejection (no events fire).
  void shutdown();
  bool isShutdown() const;

  /// Live search-pool counters (monotonic; diff two snapshots for
  /// per-batch numbers). Jobs is the resolved pool width even before
  /// the pool spawned.
  SchedulerStats poolStats() const;

  /// Live translation-cache counters (monotonic): hits, misses,
  /// in-flight joins, evictions, abandoned compiles.
  TranslationCacheStats translationStats() const;

  /// Live result-cache counters (monotonic): searches skipped because
  /// an identical outcome was resident (hits) or in flight (joins).
  ResultCacheStats resultCacheStats() const;

  /// Live retained-state counters (see EngineMemoryStats for the
  /// post-drain reclaim contract).
  EngineMemoryStats memoryStats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace cundef

#endif // CUNDEF_DRIVER_ENGINE_H
