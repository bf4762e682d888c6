//===- support/ContentCache.h - One content-addressed cache -----*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one cache class, instantiated three times: compiled translation
/// units by TranslationKey (frontend/CompiledProgram.h), completed
/// search outcomes by the engine's result key (driver/Engine.cpp), and
/// preprocessed leading #include runs by HeaderPrefixKey
/// (text/Preprocessor.h, owned by the header registry).
/// Values are immutable and shared (`std::shared_ptr<const T>`); equal
/// keys mean interchangeable values by construction, so the cache never
/// validates.
///
///  * **Claim, join, publish.** begin() resolves a lookup in one step:
///    a resident value is a Hit; the first caller of a cold key becomes
///    its Owner and must publish(); a caller that finds the key in
///    flight Joins and registers a waiter, which the owner's publish()
///    fires outside the lock. Blocking is the caller's choice: the
///    engine's frontend blocks on a promise its waiter fulfils, its
///    search half finishes a joined job from the waiter itself.
///  * **Abandon.** publish(Key, nullptr) releases the claim: waiters
///    fire with null, nothing is stored (counted as Abandoned), and the
///    next lookup of the key starts fresh.
///  * **Exact LRU.** Capacity bounds the resident values exactly; an
///    in-flight claim is pinned and does not count. Eviction drops only
///    the cache's reference, so a holder's value stays alive.
///  * **One lock.** A lookup or publish holds it for one map probe and
///    one list splice; the counters are kept under it.
///
/// Capacity 0 disables the cache: begin() answers Disabled, publish()
/// is a no-op, and no counter moves.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_CONTENTCACHE_H
#define CUNDEF_SUPPORT_CONTENTCACHE_H

#include "support/Counters.h"

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace cundef {

/// Monotonic cache counters (diff two snapshots for per-batch rates).
///
/// Hits: a resident value served. InflightJoins: joined another
/// caller's claim (no work of its own, but a wait). Misses: the caller
/// became the owner and did the work. Hits + InflightJoins + Misses ==
/// Lookups. Evictions: resident values dropped by the LRU bound or a
/// sweep. Abandoned: claims released without a value (the owner's work
/// failed); their joiners fired with null.
#define CUNDEF_CONTENT_CACHE_COUNTERS(X)                                      \
  X(uint64_t, Lookups, "lookups", "", Sum)                                    \
  X(uint64_t, Hits, "hits", "hits", Sum)                                      \
  X(uint64_t, InflightJoins, "inflight_joins", "joins", Sum)                  \
  X(uint64_t, Misses, "misses", "misses", Sum)                                \
  X(uint64_t, Evictions, "evictions", "evictions", Sum)                       \
  X(uint64_t, Abandoned, "abandoned", "", Sum)

struct ContentCacheStats {
  CUNDEF_CONTENT_CACHE_COUNTERS(CUNDEF_COUNTER_FIELD)
  CUNDEF_COUNTER_VISITOR(ContentCacheStats, CUNDEF_CONTENT_CACHE_COUNTERS)

  /// Fraction of lookups that skipped the work.
  double hitRate() const {
    return Lookups ? static_cast<double>(Hits + InflightJoins) / Lookups : 0.0;
  }
};

/// Thread-safe content-addressed cache of shared immutable values.
/// \p Key needs operator== and a std::hash specialization.
template <class Key, class T> class ContentCache {
public:
  using Value = std::shared_ptr<const T>;
  /// Fired exactly once, by the owner's publish(), for a Joined lookup:
  /// with the published value, or null when the owner abandoned.
  using Waiter = std::function<void(Value)>;

  /// How a lookup resolved.
  struct Claim {
    enum class Kind : uint8_t {
      Disabled, ///< capacity 0: do the work, do not publish
      Owner,    ///< first caller of the key: do the work, then publish()
      Hit,      ///< Ready holds the resident value
      Joined,   ///< in flight elsewhere; the waiter was registered
    } K = Kind::Disabled;
    Value Ready; ///< set iff K == Hit
  };

  explicit ContentCache(unsigned Capacity) : Capacity(Capacity) {}

  ContentCache(const ContentCache &) = delete;
  ContentCache &operator=(const ContentCache &) = delete;

  bool enabled() const { return Capacity > 0; }

  /// One lookup-or-claim-or-join. \p OnReady is kept only when the
  /// result is Joined, and is never invoked from inside begin(). An
  /// Owner must eventually publish() the key, or its joiners wait
  /// forever.
  Claim begin(const Key &K, Waiter OnReady) {
    Claim C;
    if (!enabled())
      return C;
    std::lock_guard<std::mutex> Lock(Mu);
    auto [It, Claimed] = Entries.try_emplace(K);
    Entry &E = It->second;
    if (Claimed) {
      ++Stats.Misses;
      C.K = Claim::Kind::Owner;
    } else if (E.Ready) {
      Lru.splice(Lru.end(), Lru, E.LruIt);
      ++Stats.Hits;
      C.K = Claim::Kind::Hit;
      C.Ready = E.Ready;
    } else {
      E.Waiters.push_back(std::move(OnReady));
      ++Stats.InflightJoins;
      C.K = Claim::Kind::Joined;
    }
    return C;
  }

  /// Completes an owned claim: stores \p V as the key's resident value
  /// (evicting the least recently used beyond capacity), or, when \p V
  /// is null, releases the claim. Either way every joiner's waiter
  /// fires with \p V, outside the lock. No-op unless \p K is in flight.
  void publish(const Key &K, Value V) {
    if (!enabled())
      return;
    std::vector<Waiter> Fire;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Entries.find(K);
      if (It == Entries.end() || It->second.Ready)
        return;
      Fire.swap(It->second.Waiters);
      if (V) {
        It->second.Ready = V;
        It->second.LruIt = Lru.insert(Lru.end(), K);
        while (Lru.size() > Capacity) {
          Entries.erase(Lru.front());
          Lru.pop_front();
          ++Stats.Evictions;
        }
      } else {
        Entries.erase(It);
        ++Stats.Abandoned;
      }
    }
    for (Waiter &W : Fire)
      if (W)
        W(V);
  }

  /// Drops every resident value whose key satisfies \p Stale, counted
  /// as evictions. In-flight claims stay pinned.
  template <class Pred> void evictIf(Pred Stale) {
    std::lock_guard<std::mutex> Lock(Mu);
    for (auto It = Lru.begin(); It != Lru.end();) {
      if (!Stale(*It)) {
        ++It;
        continue;
      }
      Entries.erase(*It);
      It = Lru.erase(It);
      ++Stats.Evictions;
    }
  }

  /// Resident values (in-flight claims excluded).
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Lru.size();
  }

  ContentCacheStats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    ContentCacheStats S = Stats;
    S.Lookups = S.Hits + S.InflightJoins + S.Misses;
    return S;
  }

private:
  struct Entry {
    /// Null while the claim is in flight.
    Value Ready;
    std::vector<Waiter> Waiters;
    /// Valid once Ready is set: the entry's place in Lru.
    typename std::list<Key>::iterator LruIt;
  };

  const unsigned Capacity;
  mutable std::mutex Mu;
  std::unordered_map<Key, Entry> Entries;
  /// Resident keys, least recently used first.
  std::list<Key> Lru;
  ContentCacheStats Stats;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_CONTENTCACHE_H
