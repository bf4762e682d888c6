//===- tests/test_content_cache.cpp - The one content-addressed cache -----===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// ContentCache (support/ContentCache.h) backs both engine caches: the
// translation cache and the result cache. Its contract, unit by unit:
//
//  * **Capacity is exact.** A capacity-N cache keeps exactly the N most
//    recently used values, whatever their keys hash to.
//  * **Claim, join, publish.** One Owner per cold key; concurrent
//    lookups join and their waiters fire once with the owner's value.
//    Under -DCUNDEF_TSAN=ON this suite runs instrumented (ctest -L tsan).
//  * **Abandon releases.** A null publish fires waiters with null and
//    leaves the key claimable.
//  * **Sweeps.** evictIf drops resident values by key predicate.
//
// The engine-level behaviour of each cache is pinned in
// tests/test_translation_cache.cpp and tests/test_result_cache.cpp.
//
//===----------------------------------------------------------------------===//

#include "frontend/CompiledProgram.h"
#include "support/ContentCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace cundef;

namespace {

using Cache = ContentCache<TranslationKey, int>;
using Kind = Cache::Claim::Kind;

TranslationKey key(uint64_t Source, uint64_t Context = 0) {
  TranslationKey K;
  K.SourceHash = Source;
  K.ContextHash = Context;
  return K;
}

Cache::Value value(int V) {
  return std::make_shared<const int>(V);
}

/// Claims \p K and publishes \p V under it; false if \p K was not cold.
bool fill(Cache &C, const TranslationKey &K, int V) {
  if (C.begin(K, nullptr).K != Kind::Owner)
    return false;
  C.publish(K, value(V));
  return true;
}

} // namespace

TEST(ContentCache, CapacityZeroDisables) {
  Cache C(0);
  EXPECT_FALSE(C.enabled());
  EXPECT_EQ(C.begin(key(1), nullptr).K, Kind::Disabled);
  C.publish(key(1), value(1));
  EXPECT_EQ(C.begin(key(1), nullptr).K, Kind::Disabled);
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.stats().Lookups, 0u);
}

TEST(ContentCache, OwnerPublishesThenHitsShareOneValue) {
  Cache C(8);
  ASSERT_EQ(C.begin(key(1), nullptr).K, Kind::Owner);
  Cache::Value Published = value(7);
  C.publish(key(1), Published);
  EXPECT_EQ(C.size(), 1u);

  Cache::Claim Again = C.begin(key(1), nullptr);
  ASSERT_EQ(Again.K, Kind::Hit);
  EXPECT_EQ(Again.Ready.get(), Published.get()) << "hits share one value";
  // Another context digest is another key: a fresh claim.
  EXPECT_EQ(C.begin(key(1, 2), nullptr).K, Kind::Owner);

  ContentCacheStats St = C.stats();
  EXPECT_EQ(St.Lookups, 3u);
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 2u);
  EXPECT_EQ(St.InflightJoins, 0u);
  EXPECT_DOUBLE_EQ(St.hitRate(), 1.0 / 3.0);
}

TEST(ContentCache, EvictsLeastRecentlyUsed) {
  Cache C(2);
  ASSERT_TRUE(fill(C, key(1), 1));
  ASSERT_TRUE(fill(C, key(2), 2));
  // Touch key 1: key 2 becomes the LRU victim.
  ASSERT_EQ(C.begin(key(1), nullptr).K, Kind::Hit);
  ASSERT_TRUE(fill(C, key(3), 3));
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.begin(key(1), nullptr).K, Kind::Hit)
      << "the recently touched entry survived";
  EXPECT_EQ(C.begin(key(2), nullptr).K, Kind::Owner)
      << "the LRU entry was evicted";
}

TEST(ContentCache, CapacityIsAnExactBound) {
  // 64 distinct publishes into a capacity-3 cache leave exactly the
  // last three resident.
  Cache C(3);
  for (uint64_t K = 1; K <= 64; ++K)
    ASSERT_TRUE(fill(C, key(K), static_cast<int>(K)));
  EXPECT_EQ(C.size(), 3u);
  EXPECT_EQ(C.stats().Evictions, 61u);
  for (uint64_t K = 62; K <= 64; ++K)
    EXPECT_EQ(C.begin(key(K), nullptr).K, Kind::Hit) << K;
}

TEST(ContentCache, SecondPassOverCapacityKeysHitsEveryKey) {
  // A working set of exactly the capacity stays resident.
  constexpr uint64_t N = 12;
  Cache C(N);
  for (uint64_t K = 1; K <= N; ++K)
    ASSERT_TRUE(fill(C, key(K * 0x51ed27ull, K), static_cast<int>(K)));
  unsigned Hits = 0;
  for (uint64_t K = 1; K <= N; ++K)
    Hits += C.begin(key(K * 0x51ed27ull, K), nullptr).K == Kind::Hit;
  EXPECT_EQ(Hits, N);
  EXPECT_EQ(C.stats().Evictions, 0u);
}

TEST(ContentCache, SingleflightFromEightThreads) {
  // 8 threads race one cold key: exactly one Owner; every joiner's
  // waiter fires once with the owner's value; a thread arriving after
  // the publish hits.
  Cache C(8);
  constexpr unsigned N = 8;
  std::atomic<unsigned> Owners{0};
  std::atomic<unsigned> WaitersFired{0};
  Cache::Value Published = value(42);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&] {
      Cache::Claim Claim = C.begin(key(9, 9), [&](Cache::Value V) {
        EXPECT_EQ(V.get(), Published.get());
        WaitersFired.fetch_add(1);
      });
      if (Claim.K == Kind::Owner) {
        Owners.fetch_add(1);
        // Linger so joiners really do arrive in flight on most runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        C.publish(key(9, 9), Published);
      } else if (Claim.K == Kind::Hit) {
        EXPECT_EQ(Claim.Ready.get(), Published.get());
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Owners.load(), 1u);
  ContentCacheStats St = C.stats();
  EXPECT_EQ(St.Lookups, N);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Hits + St.InflightJoins, N - 1);
  EXPECT_EQ(WaitersFired.load(), St.InflightJoins);
}

TEST(ContentCache, AbandonReleasesTheClaim) {
  // An owner whose work failed publishes null: its joiners fire with
  // null, nothing is stored, and the next lookup claims the key afresh.
  Cache C(8);
  ASSERT_EQ(C.begin(key(1), nullptr).K, Kind::Owner);
  bool Fired = false;
  bool GotValue = true;
  ASSERT_EQ(C.begin(key(1),
                    [&](Cache::Value V) {
                      Fired = true;
                      GotValue = V != nullptr;
                    })
                .K,
            Kind::Joined);
  C.publish(key(1), nullptr);
  EXPECT_TRUE(Fired);
  EXPECT_FALSE(GotValue) << "abandon fires waiters with null";
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.stats().Abandoned, 1u);
  EXPECT_EQ(C.begin(key(1), nullptr).K, Kind::Owner)
      << "the key is claimable again";
}

TEST(ContentCache, EvictIfSweepsStaleContexts) {
  Cache C(16);
  for (uint64_t K = 1; K <= 3; ++K)
    ASSERT_TRUE(fill(C, key(K, /*Context=*/100), static_cast<int>(K)));
  ASSERT_TRUE(fill(C, key(4, /*Context=*/200), 4));
  // An in-flight claim under the stale context stays pinned.
  ASSERT_EQ(C.begin(key(5, 100), nullptr).K, Kind::Owner);
  ASSERT_EQ(C.size(), 4u);

  C.evictIf([](const TranslationKey &K) { return K.ContextHash != 200; });
  EXPECT_EQ(C.size(), 1u);
  EXPECT_EQ(C.stats().Evictions, 3u);
  EXPECT_EQ(C.begin(key(4, 200), nullptr).K, Kind::Hit);
  EXPECT_EQ(C.begin(key(1, 100), nullptr).K, Kind::Owner);
  EXPECT_EQ(C.begin(key(5, 100), nullptr).K, Kind::Joined);
}
