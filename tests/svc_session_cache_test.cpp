// Two-tier extraction cache sharing across sessions: a private tier backed
// by a shared read-mostly global tier serves bit-identical values, publishes
// computed entries for later sessions, and keeps its monotone counters sane
// under N concurrent sessions with overlapping geometries. The concurrency
// battery here is the `ctest -L serve` TSan target for the cache layer.
#include "src/peec/extraction_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/peec/component_model.hpp"
#include "src/peec/coupling.hpp"
#include "src/svc/session.hpp"

namespace emi::peec {
namespace {

MutualCacheKey key_of(std::uint64_t seed) {
  MutualCacheKey k;
  k.digest_lo = seed;
  k.digest_hi = seed ^ 0x9e3779b97f4a7c15ull;
  k.quad = 4;
  return k;
}

TEST(ExtractionCacheTiers, PrivateStorePublishesToRoot) {
  auto global = std::make_shared<ExtractionCache>();
  ExtractionCache session_a(global);
  ExtractionCache session_b(global);

  session_a.store_mutual(key_of(1), 42.0);
  session_a.store_self(11, 7.0);

  // Session B has never seen the keys locally, but the published root copy
  // serves it: miss on B's tier, hit on the global tier.
  EXPECT_EQ(session_b.lookup_mutual(key_of(1)), 42.0);
  EXPECT_EQ(session_b.lookup_self(11), 7.0);
  EXPECT_EQ(session_b.stats().mutual_misses, 1u);
  EXPECT_EQ(session_b.stats().self_misses, 1u);
  EXPECT_EQ(global->stats().mutual_hits, 1u);
  EXPECT_EQ(global->stats().self_hits, 1u);
}

TEST(ExtractionCacheTiers, PrivateTierServesBeforeParent) {
  auto global = std::make_shared<ExtractionCache>();
  ExtractionCache session(global);
  session.store_mutual(key_of(2), 5.0);
  EXPECT_EQ(session.lookup_mutual(key_of(2)), 5.0);
  EXPECT_EQ(session.stats().mutual_hits, 1u);
  // The probe never reached the global tier.
  EXPECT_EQ(global->stats().mutual_hits, 0u);
  EXPECT_EQ(global->stats().mutual_misses, 0u);
}

TEST(ExtractionCacheTiers, MissFallsThroughEveryTier) {
  auto global = std::make_shared<ExtractionCache>();
  ExtractionCache session(global);
  EXPECT_FALSE(session.lookup_mutual(key_of(3)).has_value());
  EXPECT_EQ(session.stats().mutual_misses, 1u);
  EXPECT_EQ(global->stats().mutual_misses, 1u);
}

TEST(ExtractionCacheTiers, BatchLookupMixesTiers) {
  auto global = std::make_shared<ExtractionCache>();
  ExtractionCache session(global);
  global->store_mutual(key_of(10), 1.0);
  session.store_mutual(key_of(11), 2.0);

  const MutualCacheKey keys[3] = {key_of(10), key_of(11), key_of(12)};
  double out[3] = {0, 0, 0};
  char found[3] = {0, 0, 0};
  session.lookup_mutual_batch(keys, out, found);
  EXPECT_TRUE(found[0]);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_TRUE(found[1]);
  EXPECT_EQ(out[1], 2.0);
  EXPECT_FALSE(found[2]);
}

// Session-tier publish-to-root racing the root's evict-oldest-half ring:
// several session tiers push disjoint key ranges far past kMutualCap (every
// store publishes to the shared root, so the root evicts repeatedly) while
// readers hammer single and batched lookups. Values are pure functions of
// their keys, so the only legal outcomes are "absent" or "exact stored
// bits" - and the whole storm must be TSan-clean (the gap PR 6 left open).
TEST(ExtractionCacheTiers, PublishToRootRacesEvictOldestHalf) {
  auto global = std::make_shared<ExtractionCache>();
  constexpr std::uint64_t kPerWriter = ExtractionCache::kMutualCap +
                                       ExtractionCache::kMutualCap / 2;
  constexpr int kWriters = 2;
  const auto value_of = [](std::uint64_t seed) {
    return 0.25 + 1e-9 * static_cast<double>(seed);
  };
  const auto writer_key = [&](int w, std::uint64_t i) {
    return key_of((static_cast<std::uint64_t>(w + 1) << 40) | i);
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ExtractionCache session(global);
      // Alternate single stores and batched stores so both publish paths
      // race the eviction ring.
      std::vector<MutualCacheKey> keys;
      std::vector<double> vals;
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const MutualCacheKey k = writer_key(w, i);
        if (i % 3 == 0) {
          session.store_mutual(k, value_of(k.digest_lo));
        } else {
          keys.push_back(k);
          vals.push_back(value_of(k.digest_lo));
          if (keys.size() == 64) {
            session.store_mutual_batch(keys, vals);
            keys.clear();
            vals.clear();
          }
        }
      }
      if (!keys.empty()) session.store_mutual_batch(keys, vals);
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  threads.emplace_back([&] {
    // Reader: single probes through a session tier plus batched probes on
    // the root, across both writers' ranges, while eviction churns.
    ExtractionCache session(global);
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const MutualCacheKey k = writer_key(static_cast<int>(i % kWriters),
                                          (i * 977) % kPerWriter);
      if (const std::optional<double> v = session.lookup_mutual(k)) {
        EXPECT_EQ(*v, value_of(k.digest_lo));
        served.fetch_add(1, std::memory_order_relaxed);
      }
      std::array<MutualCacheKey, 8> bk;
      std::array<double, 8> bv{};
      std::array<char, 8> bf{};
      for (std::size_t j = 0; j < bk.size(); ++j) {
        bk[j] = writer_key(static_cast<int>(j % kWriters),
                           (i + j * 131) % kPerWriter);
      }
      global->lookup_mutual_batch(bk, bv, bf);
      for (std::size_t j = 0; j < bk.size(); ++j) {
        if (bf[j]) {
          EXPECT_EQ(bv[j], value_of(bk[j].digest_lo));
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ++i;
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  // The reader raced real traffic (the tail of each writer's range outlives
  // eviction, so probes do land).
  EXPECT_GT(served.load(), 0u);
  // The storm leaves the root fully functional: a fresh key round-trips,
  // and whatever survived the eviction churn still carries exact bits (a
  // writer's tail can legitimately be evicted by the *other* writer's later
  // stores, so presence is not asserted - purity is).
  global->store_mutual(key_of(0xdeadull), 9.5);
  EXPECT_EQ(global->lookup_mutual(key_of(0xdeadull)), 9.5);
  std::uint64_t resident = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (std::uint64_t i = kPerWriter - 64; i < kPerWriter; ++i) {
      const MutualCacheKey k = writer_key(w, i);
      if (const std::optional<double> v = global->lookup_mutual(k)) {
        EXPECT_EQ(*v, value_of(k.digest_lo));
        ++resident;
      }
    }
  }
  // Both ranges together exceed capacity only 3:2, so the newest tails
  // cannot all have been evicted.
  EXPECT_GT(resident, 0u);
}

TEST(SessionManager, SessionsAreStableAndShareOneGlobal) {
  svc::SessionManager sessions;
  const auto a1 = sessions.session_cache("alice");
  const auto a2 = sessions.session_cache("alice");
  const auto b = sessions.session_cache("bob");
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_NE(a1.get(), b.get());
  EXPECT_EQ(a1->parent().get(), sessions.global_cache().get());
  EXPECT_EQ(b->parent().get(), sessions.global_cache().get());
  EXPECT_EQ(sessions.session_count(), 2u);
}

// Two extractors in different sessions over the same geometry: the second
// session is served entirely from the first session's published entries and
// the values are bit-identical.
TEST(SessionManager, SecondSessionServedFromGlobalBitIdentical) {
  svc::SessionManager sessions;
  const ComponentFieldModel ca = x_capacitor("CA");
  const ComponentFieldModel cb = x_capacitor("CB");
  const PlacedModel a{&ca, {{0.0, 0.0, 0.0}, 30.0}};
  const PlacedModel b{&cb, {{25.0, 4.0, 0.0}, 75.0}};

  CouplingExtractor ex1({}, {}, sessions.session_cache("one"));
  const double m1 = ex1.mutual(a, b).raw();
  ASSERT_EQ(ex1.cache_stats().mutual_misses, 1u);

  const CacheTierStats global_before = sessions.global_cache()->stats();
  CouplingExtractor ex2({}, {}, sessions.session_cache("two"));
  const double m2 = ex2.mutual(a, b).raw();
  EXPECT_EQ(m1, m2);
  // Served from cache (per-extractor hit), computed nothing new: the global
  // tier's miss count did not move.
  EXPECT_EQ(ex2.cache_stats().mutual_hits, 1u);
  EXPECT_EQ(ex2.cache_stats().mutual_misses, 0u);
  EXPECT_EQ(sessions.global_cache()->stats().mutual_misses,
            global_before.mutual_misses);
}

// N concurrent sessions with overlapping geometries hammer one shared global
// tier. Every session must read the same bits, counters stay monotone, and
// once the global tier is warm a fresh session causes zero new global misses
// (a deterministic hit/miss ledger, not a race).
TEST(SessionManager, ConcurrentSessionsShareDeterministically) {
  svc::SessionManager sessions;
  const ComponentFieldModel model = x_capacitor("C");
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kPairs = 6;

  // Warm the global tier once, serially, to get the reference bits.
  std::vector<double> reference(kPairs);
  {
    CouplingExtractor warm({}, {}, sessions.session_cache("warm"));
    for (std::size_t p = 0; p < kPairs; ++p) {
      const PlacedModel a{&model, {{0.0, 0.0, 0.0}, 0.0}};
      const PlacedModel b{&model, {{20.0 + 3.0 * static_cast<double>(p), 5.0, 0.0}, 90.0}};
      reference[p] = warm.mutual(a, b).raw();
    }
  }
  const CacheTierStats warm_stats = sessions.global_cache()->stats();

  std::vector<std::thread> threads;
  std::vector<std::vector<double>> got(kSessions,
                                       std::vector<double>(kPairs, 0.0));
  for (std::size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      CouplingExtractor ex({}, {},
                           sessions.session_cache("client-" + std::to_string(s)));
      for (std::size_t p = 0; p < kPairs; ++p) {
        const PlacedModel a{&model, {{0.0, 0.0, 0.0}, 0.0}};
        const PlacedModel b{&model, {{20.0 + 3.0 * static_cast<double>(p), 5.0, 0.0}, 90.0}};
        got[s][p] = ex.mutual(a, b).raw();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t p = 0; p < kPairs; ++p) EXPECT_EQ(got[s][p], reference[p]);
  }
  const CacheTierStats after = sessions.global_cache()->stats();
  // Warm tier: no concurrent session computed anything new.
  EXPECT_EQ(after.mutual_misses, warm_stats.mutual_misses);
  EXPECT_EQ(after.self_misses, warm_stats.self_misses);
  // And every session's probes were served (hits are monotone counters).
  EXPECT_EQ(after.mutual_hits,
            warm_stats.mutual_hits + kSessions * kPairs);
}

}  // namespace
}  // namespace emi::peec
