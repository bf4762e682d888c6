//===- tests/reference/WaveSearch.h - Wave-synchronous oracle ---*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wave-synchronous order search, kept out of the library as the
/// test oracle the work-stealing scheduler (core/Scheduler.h) is
/// byte-compared against. It enumerates order decisions in parallel
/// waves:
///
///  * The frontier is a wave of decision prefixes. Workers claim
///    entries from a shared index; children (one per flippable choice
///    point beyond the prefix) form the next wave.
///  * A run starts from a snapshot its parent captured at the flipped
///    choice point, or, when none exists (SnapshotBudget 0, sync-call
///    choice points, the Random policy), replays its pinned prefix from
///    main(). Both start modes are step-for-step identical.
///  * A visited-set keyed by (decision depth, configuration
///    fingerprint) cancels runs that reach a state an earlier prefix
///    already reached; it is committed at wave barriers.
///  * A cancellation token stops in-flight machines once a canonically
///    (lex) smaller prefix is known to be undefined.
///
/// Waves are processed as sorted batches, per-run outcomes depend only
/// on (prefix, committed visited-set), and ties break canonically, so
/// the committed outputs (verdict, witness, reports, runs, dedup hits,
/// truncation) are independent of worker count and start mode — the
/// same contract the production scheduler's commit wavefront keeps
/// without the barriers. Only tests and bench_search link this.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TESTS_REFERENCE_WAVESEARCH_H
#define CUNDEF_TESTS_REFERENCE_WAVESEARCH_H

#include "core/Search.h"
#include "driver/Engine.h"

namespace cundef::reference {

/// Runs the wave engine over \p Ctx. \p FullRehash fingerprints through
/// Configuration::fingerprintFull() at every choice point instead of
/// the incremental digests (the replay-era cost model bench_search
/// measures; the committed outputs are identical).
SearchResult waveSearch(const AstContext &Ctx, const MachineOptions &BaseOpts,
                        const SearchOptions &Opts, bool FullRehash = false);

/// The outcome an AnalysisEngine produces for \p C under \p Req,
/// computed through the wave engine: the compile half copied from the
/// artifact, then a default-order run and, when that run completed
/// cleanly and the budget allows, a one-worker wave search over the
/// remaining orders. Every committed field (verdict, witness, reports, output,
/// exit code, OrdersExplored, OrdersDeduped, truncation) must equal
/// the engine's; timing and cache flags are this call's own.
DriverOutcome waveOutcome(const CompiledProgram &C,
                          const AnalysisRequest &Req);

/// Compiles each input with the standard headers (as an engine does)
/// and returns its waveOutcome, in input order.
std::vector<DriverOutcome> waveBatch(const AnalysisRequest &Req,
                                     const std::vector<BatchInput> &Inputs);

} // namespace cundef::reference

#endif // CUNDEF_TESTS_REFERENCE_WAVESEARCH_H
