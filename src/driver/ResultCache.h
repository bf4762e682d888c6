//===- driver/ResultCache.h - Content-addressed search results -*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressing one rung above the TranslationCache: an
/// engine-wide, sharded, LRU-bounded cache of completed DriverOutcome
/// artifacts, keyed by everything a search's observable outcome depends
/// on — the frontend content address (TranslationKey) plus stable
/// fingerprints of the MachineOptions and the outcome-affecting
/// SearchOptions. A duplicate-heavy service workload (templated
/// corpora, resubmitted files, identical configs — exactly what a
/// long-lived kcc-serve daemon sees) pays one search per unique
/// (program, config), ever.
///
/// Semantics, mirroring frontend/TranslationCache.h:
///
///  * **Singleflight.** Concurrent submissions of one key run exactly
///    one search: the first caller claims the key as Owner; everyone
///    else Joins the in-flight entry. Unlike the translation cache —
///    whose callers block on a shared_future — the engine must never
///    block a frontend worker on another job's search, so a join
///    registers a completion waiter instead: the owner's publish()
///    fires every waiter (outside all cache locks) with the shared
///    outcome, and each joined job finishes through its normal
///    completion path.
///  * **Immutability.** Published outcomes are held behind
///    shared_ptr<const DriverOutcome> and never mutated; observers copy
///    and adjust only their own per-job fields (this job's frontend
///    timing, this job's cache flags). Byte-equality of every
///    deterministic field is the contract.
///  * **LRU per shard, in-flight pinned.** Capacity bounds ready
///    entries (split across shards); eviction drops only the cache's
///    reference. In-flight entries are pinned until their publish.
///  * **No validation.** Equal keys mean interchangeable outcomes by
///    construction: the TranslationKey folds in source, name, target,
///    static-checks flag, and the header-registry fingerprint (so a
///    live header edit re-keys — and thereby invalidates — every
///    affected entry), and the fingerprints fold in every
///    outcome-affecting machine/search option.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_DRIVER_RESULTCACHE_H
#define CUNDEF_DRIVER_RESULTCACHE_H

#include "frontend/CompiledProgram.h"
#include "support/Counters.h"
#include "support/Hash.h"

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace cundef {

struct DriverOutcome;

/// How cached outcomes travel: shared, immutable, reference-counted.
using CachedOutcome = std::shared_ptr<const DriverOutcome>;

/// Content address of one completed analysis: the frontend artifact's
/// address plus the two configuration fingerprints
/// (machineOptionsFingerprint / the engine's request-level search
/// fingerprint, which also folds in the static-analysis mode).
struct ResultKey {
  TranslationKey Translation;
  uint64_t MachineFp = 0;
  uint64_t SearchFp = 0;

  bool operator==(const ResultKey &O) const {
    return Translation == O.Translation && MachineFp == O.MachineFp &&
           SearchFp == O.SearchFp;
  }
  bool operator!=(const ResultKey &O) const { return !(*this == O); }
};

/// Monotonic cache counters (diff two snapshots for per-batch rates).
///
/// Hits: a ready outcome served; the search was skipped outright.
/// InflightJoins: joined another submission's in-flight search (no
/// search ran for this caller). Misses: a full search ran (this caller
/// owns the entry until publish). Hits + InflightJoins + Misses ==
/// Lookups. Evictions: ready entries dropped by the LRU bound.
/// Abandoned: entries whose owner completed without a cacheable outcome
/// (engine shutdown mid-job): the claim is released, waiters still
/// fire, nothing is stored.
#define CUNDEF_RESULT_CACHE_COUNTERS(X)                                       \
  X(uint64_t, Lookups, "lookups", "", Sum)                                    \
  X(uint64_t, Hits, "hits", "hits", Sum)                                      \
  X(uint64_t, InflightJoins, "inflight_joins", "joins", Sum)                  \
  X(uint64_t, Misses, "misses", "misses", Sum)                                \
  X(uint64_t, Evictions, "evictions", "evictions", Sum)                       \
  X(uint64_t, Abandoned, "abandoned", "", Sum)

struct ResultCacheStats {
  CUNDEF_RESULT_CACHE_COUNTERS(CUNDEF_COUNTER_FIELD)
  CUNDEF_COUNTER_VISITOR(ResultCacheStats, CUNDEF_RESULT_CACHE_COUNTERS)

  /// Fraction of lookups that skipped the search entirely.
  double hitRate() const {
    return Lookups ? static_cast<double>(Hits + InflightJoins) / Lookups : 0.0;
  }
};

/// Thread-safe content-addressed cache of completed search outcomes.
/// Capacity 0 disables it entirely (every begin() returns Disabled —
/// the kcc --result-cache=off A/B path).
class ResultCache {
public:
  /// Completion waiter of a joined submission: fired exactly once by
  /// the owner's publish (or abandon), outside all cache locks, with
  /// the shared outcome (null when the owner abandoned — the joiner
  /// must then fall back to running its own search or failing).
  using Waiter = std::function<void(CachedOutcome)>;

  /// How a lookup resolved.
  struct Claim {
    enum class Kind : uint8_t {
      Disabled, ///< cache off (capacity 0): run the search, don't publish
      Owner,    ///< first submission of this key: run, then publish()
      Hit,      ///< Ready holds the completed outcome; skip the search
      Joined,   ///< in-flight elsewhere; the waiter was registered
    } K = Kind::Disabled;
    CachedOutcome Ready; ///< set iff K == Hit
  };

  explicit ResultCache(unsigned Capacity, unsigned ShardCount = 8);

  ResultCache(const ResultCache &) = delete;
  ResultCache &operator=(const ResultCache &) = delete;

  /// One atomic lookup-or-claim-or-join. \p OnReady is registered (and
  /// later fired by the owner's publish) only when the result is
  /// Joined; it is never invoked from inside begin(). An Owner MUST
  /// eventually call publish() for the key, or waiters leak.
  Claim begin(const ResultKey &Key, Waiter OnReady);

  /// Completes an owned entry: stores \p Outcome (when \p Store and the
  /// outcome is non-null) as the key's ready artifact and fires every
  /// registered waiter with it, outside the shard lock. A null
  /// \p Outcome (or Store == false) releases the claim instead —
  /// waiters fire with null and the next submission of the key starts
  /// fresh. No-op when the key holds no in-flight entry.
  void publish(const ResultKey &Key, CachedOutcome Outcome, bool Store = true);

  /// Drops every resident entry whose TranslationKey context digest
  /// differs from \p ContextHash — the live-header-edit sweep. Entries
  /// are content-addressed, so stale ones could only be reached again
  /// if the registry reverted byte-for-byte; dropping them keeps the
  /// LRU from carrying dead weight after an edit. In-flight entries
  /// stay pinned (their owners publish into a then-unreachable key).
  void invalidateContextsExcept(uint64_t ContextHash);

  bool enabled() const { return Capacity > 0; }
  /// Ready entries currently resident (in-flight ones excluded).
  size_t size() const;
  ResultCacheStats stats() const;

private:
  struct KeyHash {
    size_t operator()(const ResultKey &K) const {
      uint64_t H = K.Translation.SourceHash;
      H = mix64(H ^ (K.Translation.ContextHash * 0x9e3779b97f4a7c15ull));
      H = mix64(H ^ (K.MachineFp * 0x9e3779b97f4a7c15ull));
      H = mix64(H ^ (K.SearchFp * 0x9e3779b97f4a7c15ull));
      return static_cast<size_t>(H);
    }
  };

  struct Entry {
    CachedOutcome Ready;
    /// Set once the outcome landed; only done entries join the LRU
    /// list and are eviction candidates.
    bool Done = false;
    /// Joined submissions waiting on the owner's publish.
    std::vector<Waiter> Waiters;
    std::list<ResultKey>::iterator LruIt;
  };

  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<ResultKey, Entry, KeyHash> Entries;
    /// Front = least recently used = next eviction victim.
    std::list<ResultKey> Lru;
    size_t DoneCount = 0;
  };

  Shard &shardFor(const ResultKey &Key) {
    return Shards[KeyHash{}(Key) >> 56 & (Shards.size() - 1)];
  }

  const unsigned Capacity;
  const unsigned PerShardCapacity;
  std::vector<Shard> Shards;

  /// Lock-free counters: the stats path must not reintroduce the
  /// single mutex that sharding exists to avoid.
  struct Counters {
    std::atomic<uint64_t> Lookups{0};
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Misses{0};
    std::atomic<uint64_t> InflightJoins{0};
    std::atomic<uint64_t> Evictions{0};
    std::atomic<uint64_t> Abandoned{0};
  };
  mutable Counters Stats;

  /// Counts one lookup resolved as \p Counter (Hits/Misses/Joins).
  void bump(std::atomic<uint64_t> Counters::*Counter) const {
    Stats.Lookups.fetch_add(1, std::memory_order_relaxed);
    (Stats.*Counter).fetch_add(1, std::memory_order_relaxed);
  }
};

} // namespace cundef

#endif // CUNDEF_DRIVER_RESULTCACHE_H
