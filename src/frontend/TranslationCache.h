//===- frontend/TranslationCache.h - Content-addressed artifacts -*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An engine-wide, sharded, LRU-bounded cache of CompiledProgram
/// artifacts, keyed by content address (TranslationKey). Repeat traffic
/// — regenerated suite cases, duplicate files in a batch, resubmissions
/// of an unchanged translation unit — skips the whole frontend pass and
/// shares one immutable artifact.
///
/// Semantics:
///
///  * **Singleflight.** Concurrent lookups of one key compile exactly
///    once: the first caller inserts an in-flight entry and runs the
///    compile; everyone else blocks on its shared future and receives
///    the same artifact (counted as InflightJoins — they paid a wait,
///    not a compile). The compile runs outside all cache locks, so
///    distinct keys never serialize behind each other.
///  * **LRU per shard.** Capacity bounds the number of *ready* entries
///    (approximately: it is split evenly across shards). Insertion
///    beyond a shard's bound evicts its least-recently-used ready
///    entry. In-flight entries are pinned — an eviction can only drop
///    the cache's reference; jobs holding the artifact keep it alive
///    (shared_ptr), so eviction is always safe, never an error.
///  * **Sharding.** Key-hash sharding keeps concurrent submissions of
///    *different* units from contending on one mutex; the per-shard
///    critical sections are pointer swaps and list splices only.
///
/// The cache never validates: equal keys mean interchangeable
/// artifacts by the frontend's purity contract (frontend/Frontend.h),
/// and anything that could change the output — source, name, target,
/// static-checks flag, header registry — is folded into the key.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_FRONTEND_TRANSLATIONCACHE_H
#define CUNDEF_FRONTEND_TRANSLATIONCACHE_H

#include "frontend/CompiledProgram.h"
#include "support/Counters.h"
#include "support/Hash.h"

#include <atomic>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace cundef {

/// Monotonic cache counters (diff two snapshots for per-batch rates).
///
/// Hits: a ready entry served without waiting. InflightJoins: joined
/// another caller's in-flight compile (no compile, but a wait).
/// Misses: a full frontend pass ran. Hits + InflightJoins + Misses ==
/// Lookups. Evictions: ready entries dropped by the LRU bound.
#define CUNDEF_TRANSLATION_CACHE_COUNTERS(X)                                  \
  X(uint64_t, Lookups, "lookups", "", Sum)                                    \
  X(uint64_t, Hits, "hits", "hits", Sum)                                      \
  X(uint64_t, InflightJoins, "inflight_joins", "joins", Sum)                  \
  X(uint64_t, Misses, "misses", "misses", Sum)                                \
  X(uint64_t, Evictions, "evictions", "evictions", Sum)

struct TranslationCacheStats {
  CUNDEF_TRANSLATION_CACHE_COUNTERS(CUNDEF_COUNTER_FIELD)
  CUNDEF_COUNTER_VISITOR(TranslationCacheStats,
                         CUNDEF_TRANSLATION_CACHE_COUNTERS)

  /// Fraction of lookups that skipped the frontend pass.
  double hitRate() const {
    return Lookups ? static_cast<double>(Hits + InflightJoins) / Lookups : 0.0;
  }
};

/// Thread-safe content-addressed artifact cache. Capacity 0 disables
/// it entirely (getOrCompile always compiles — the kcc
/// --translation-cache=off A/B path).
class TranslationCache {
public:
  explicit TranslationCache(unsigned Capacity, unsigned ShardCount = 8);

  TranslationCache(const TranslationCache &) = delete;
  TranslationCache &operator=(const TranslationCache &) = delete;

  /// Returns the artifact for \p Key, running \p Compile at most once
  /// per key across all concurrent callers. \p WasHit (optional)
  /// reports whether this caller skipped the compile (ready hit or
  /// in-flight join). \p Compile must not re-enter the cache.
  CompiledProgramRef
  getOrCompile(const TranslationKey &Key,
               const std::function<CompiledProgramRef()> &Compile,
               bool *WasHit = nullptr);

  bool enabled() const { return Capacity > 0; }
  /// Ready entries currently resident (in-flight ones excluded).
  size_t size() const;
  TranslationCacheStats stats() const;

private:
  struct Entry {
    std::shared_future<CompiledProgramRef> Ready;
    /// Set once the artifact landed; only done entries join the LRU
    /// list and are eviction candidates.
    bool Done = false;
    std::list<TranslationKey>::iterator LruIt;
  };

  struct KeyHash {
    size_t operator()(const TranslationKey &K) const {
      return static_cast<size_t>(mix64(K.SourceHash ^
                                       (K.ContextHash * 0x9e3779b97f4a7c15ull)));
    }
  };

  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<TranslationKey, Entry, KeyHash> Entries;
    /// Front = least recently used = next eviction victim.
    std::list<TranslationKey> Lru;
    size_t DoneCount = 0;
  };

  Shard &shardFor(const TranslationKey &Key) {
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
  };
  mutable Counters Stats;

  /// Counts one lookup resolved as \p Counter (Hits/Misses/Joins).
  void bump(std::atomic<uint64_t> Counters::*Counter) const {
    Stats.Lookups.fetch_add(1, std::memory_order_relaxed);
    (Stats.*Counter).fetch_add(1, std::memory_order_relaxed);
  }
};

} // namespace cundef

#endif // CUNDEF_FRONTEND_TRANSLATIONCACHE_H
