//===- core/Search.h - Parallel search over evaluation orders ---*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whether a program is undefined can depend on the unspecified
/// evaluation order (paper section 2.5.2: `(10/d) + setDenom(0)` is
/// miscompilable because *some* order divides by zero); "any tool
/// seeking to identify all undefined behaviors must search all possible
/// evaluation strategies". This header holds the search's shared
/// types; the one engine that runs it is the work-stealing scheduler
/// (core/Scheduler.h):
///
///  * The search space is a tree of decision prefixes: a prefix's run
///    executes its pinned decisions, then continues with the policy
///    default; its children flip one later flippable choice point each.
///  * A run starts from a **snapshot** its parent captured at the
///    flipped choice point — the paper's "clone the configuration at
///    choice points" — so only the new suffix executes. When no
///    snapshot exists (SnapshotBudget 0, LRU eviction, sync-call choice
///    points, the Random policy) the run replays its pinned prefix from
///    main(). Both start modes are step-for-step identical; witnesses
///    never depend on which was used.
///  * A visited-set keyed by (decision depth, configuration
///    fingerprint) recognizes symmetric interleavings, so commuting
///    choice points cost linear instead of exponential work.
///    Fingerprints are maintained incrementally (O(state touched),
///    core/Fingerprint.cpp).
///
/// The committed outputs (verdict, witness, reports, runs, dedup hits,
/// truncation) are deterministic: independent of the number of worker
/// threads, of thread scheduling, and of the start mode. The scheduler
/// commits runs through a canonical wavefront; tests byte-compare it
/// against a wave-synchronous oracle kept under tests/reference/. See
/// docs/SEARCH.md.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_SEARCH_H
#define CUNDEF_CORE_SEARCH_H

#include "core/Machine.h"

namespace cundef {

/// Visited-set key. Depth is mixed in because the chooser consumes
/// replay decisions positionally, making depth part of the machine's
/// effective state. Depth is avalanched through splitmix64 *before*
/// combining: the previous bare `fp ^ depth*phi` aliased structured
/// (depth, fp) pairs (every pair on a phi-stride line collapsed to one
/// key — a mix applied only after the xor would keep those collisions,
/// since equal inputs stay equal through any bijection). A regression
/// test pins the adversarial families down.
inline uint64_t searchVisitKey(size_t Depth, uint64_t Fp) {
  return mix64(Fp ^ mix64(static_cast<uint64_t>(Depth) *
                              0x9e3779b97f4a7c15ull +
                          1));
}

struct SearchOptions {
  /// Replay budget: at most this many machine runs (including runs the
  /// dedup cancels mid-flight).
  unsigned MaxRuns = 64;
  /// Worker threads of OrderSearch's scheduler (and of the reference
  /// wave engine); 0 = auto-detect std::thread::hardware_concurrency().
  /// The verdict and witness do not depend on this; only wall-clock
  /// does.
  unsigned Jobs = 1;
  /// Deduplicate symmetric interleavings through configuration
  /// fingerprints. Off = pure prefix enumeration (the exhaustive
  /// baseline bench_search compares against). Ignored under
  /// EvalOrderKind::Random: replay cannot reproduce the policy's
  /// shuffle stream, so the dedup invariant does not hold there.
  bool Dedup = true;
  /// Capacity of the LRU snapshot cache (core/Scheduler.h). Every
  /// capture is admitted; going over capacity evicts the *oldest*
  /// pending snapshot, whose child falls back to prefix replay (the old
  /// scheme refused new captures instead, so deep programs thrashed
  /// against a budget full of stale entries). 0 = pure replay: every
  /// child replays its prefix from main() (the fork-vs-replay
  /// equivalence suite and bench_search compare against it). Snapshots
  /// are never taken under Random (the chooser's RNG stream position
  /// would diverge between fork and replay) or RuleStyle::Declarative
  /// (its monitors keep state outside the configuration). Snapshots
  /// are copy-on-write-cheap but not free: each pins the unshared parts
  /// of one configuration.
  unsigned SnapshotBudget = 1024;
  /// Record every run's decision trace and fingerprint stream in
  /// SearchResult::Runs (testing: the fork-vs-replay equivalence
  /// suite). Deterministic at Jobs=1; with more jobs, runs cancelled by
  /// a concurrent witness may record partial streams.
  bool CollectRuns = false;
};

/// Stable digest over the *outcome-affecting* SearchOptions
/// fields: MaxRuns and Dedup change what the search explores. Jobs,
/// SnapshotBudget, and CollectRuns shape only wall-clock and test
/// instrumentation (committed outcomes are independent of them by the
/// scheduler's determinism contract), so they are deliberately
/// excluded: a 4-job and an 8-job search of the same program share one
/// cache entry.
inline uint64_t searchOptionsFingerprint(const SearchOptions &S) {
  Hasher H;
  H.u32(S.MaxRuns);
  H.u8(S.Dedup);
  return H.digest();
}

/// One explored run, recorded when SearchOptions::CollectRuns is set.
struct SearchRunRecord {
  std::vector<uint8_t> Pinned;
  /// The full decision trace (decision, arity) the run recorded.
  std::vector<std::pair<uint8_t, uint8_t>> Trace;
  /// (depth, fingerprint) observed at flippable choice points at or
  /// beyond the divergence.
  std::vector<std::pair<uint64_t, uint64_t>> FpStream;
  RunStatus Status = RunStatus::Completed;
  bool DedupAborted = false;
  /// Whether the run started from a snapshot (perf detail — excluded
  /// from equivalence comparisons, which assert everything above is
  /// identical across start modes).
  bool Forked = false;
};

struct SearchResult {
  unsigned RunsExplored = 0;
  /// Runs cancelled mid-flight because their configuration fingerprint
  /// was already visited (a subset of RunsExplored).
  unsigned DedupHits = 0;
  /// Whole subtrees dropped at generation commit because two entries of
  /// one generation diverged into the same state (in-generation twins).
  /// These never became runs.
  unsigned SubtreesPruned = 0;
  /// Runs that started from a forked snapshot (the rest replayed their
  /// prefix from main()). Wall-clock detail: under parallel execution
  /// the fork/replay split depends on snapshot-cache timing.
  unsigned ForkedRuns = 0;
  /// Committed frontier generations.
  unsigned Waves = 0;
  /// Pending snapshots of this search evicted by the LRU cache; each
  /// eviction turned one fork into a prefix replay.
  unsigned SnapshotEvictions = 0;
  /// Tasks of this program taken from another worker's deque
  /// (wall-clock detail).
  unsigned Steals = 0;
  /// Peak frontier size: the largest generation of orders the search
  /// sealed, counted before the budget truncates it (the root
  /// generation is 1). Deterministic, like the run counts.
  unsigned PeakFrontier = 0;
  /// True when the search ran out of budget with unexplored subtrees
  /// still on the frontier: a clean verdict is then *not* exhaustive.
  /// Callers must surface this (kcc --show-witness prints it); the
  /// previous behavior of silently resizing the frontier made partial
  /// results look like full enumerations.
  bool FrontierTruncated = false;
  /// Subtrees dropped unexplored on budget edges (frontier entries cut
  /// by MaxRuns plus children left when the budget ran out).
  unsigned DroppedSubtrees = 0;
  bool UbFound = false;
  /// Reports of the first undefined run (empty when none found).
  std::vector<UbReport> Reports;
  /// Status of the last run (Completed when no UB was ever found).
  RunStatus LastStatus = RunStatus::Completed;
  /// Outcome of the root run (the empty prefix = the policy default
  /// order): its status, program output, and exit code. The batched
  /// driver reads these instead of executing the default order a second
  /// time outside the search.
  RunStatus RootStatus = RunStatus::Internal;
  std::string RootOutput;
  int RootExitCode = 0;
  /// The decision prefix that exposed the undefinedness: pin it with
  /// Machine::setReplayDecisions to reproduce the run. Empty when the
  /// default order is already undefined.
  std::vector<uint8_t> Witness;
  /// Per-run records (only when SearchOptions::CollectRuns).
  std::vector<SearchRunRecord> Runs;
};

/// Parallel deduplicated search over evaluation orders: run() submits
/// one program to a SearchScheduler of its own (Opts.Jobs workers,
/// Opts.SnapshotBudget snapshots), waits for it, and returns its result;
/// the scheduler is stopped when run() returns. Defined in
/// core/Scheduler.cpp.
class OrderSearch {
public:
  OrderSearch(const AstContext &Ctx, MachineOptions BaseOpts,
              unsigned MaxRuns = 64)
      : Ctx(Ctx), BaseOpts(BaseOpts) {
    Opts.MaxRuns = MaxRuns;
  }
  OrderSearch(const AstContext &Ctx, MachineOptions BaseOpts,
              SearchOptions Opts)
      : Ctx(Ctx), BaseOpts(BaseOpts), Opts(Opts) {}

  SearchResult run();

private:
  const AstContext &Ctx;
  MachineOptions BaseOpts;
  SearchOptions Opts;
};

} // namespace cundef

#endif // CUNDEF_CORE_SEARCH_H
