// Tests for src/flow: the bounded sharded flow table — geometry from the
// byte budget, the four eviction policies, generation/orphan semantics,
// the shedding layer's latch + deterministic tiebreak, and the counter
// invariants the chaos conservation ledger builds on.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "flow/flow_table.hpp"
#include "util/rng.hpp"

namespace affinity::flow {
namespace {

// A single-shard table whose probe window spans every slot: with 8 slots
// and window 8, any 9th distinct flow must evict, and the victim is chosen
// across the full table — which makes policy behavior exactly observable.
FlowTableConfig tinyConfig(EvictPolicy policy) {
  FlowTableConfig cfg;
  cfg.budget_bytes = 8 * 24;  // 8 entries
  cfg.shards = 1;
  cfg.policy = policy;
  return cfg;
}

TEST(FlowTableGeometry, CapacityComesFromTheByteBudget) {
  FlowTableConfig cfg;
  cfg.budget_bytes = 1u << 20;
  cfg.shards = 8;
  const FlowTable t(cfg);
  // 1 MiB / 24 B = 43690 entries, floored per shard to a power of two.
  EXPECT_EQ(t.shardCount(), 8u);
  EXPECT_EQ(t.capacity(), 8u * 4096u);
  EXPECT_EQ(t.stats().capacity, t.capacity());
  EXPECT_EQ(t.stats().occupancy, 0u);
}

TEST(FlowTableGeometry, ShardCountRoundsDownToPowerOfTwo) {
  FlowTableConfig cfg;
  cfg.shards = 3;
  EXPECT_EQ(FlowTable(cfg).shardCount(), 2u);
  cfg.shards = 0;
  EXPECT_EQ(FlowTable(cfg).shardCount(), 1u);
}

TEST(FlowTableGeometry, NeverSmallerThanOneProbeWindowPerShard) {
  FlowTableConfig cfg;
  cfg.budget_bytes = 1;  // absurdly small budget still yields a working table
  cfg.shards = 2;
  const FlowTable t(cfg);
  EXPECT_GE(t.capacity(), 2u * 8u);
}

TEST(FlowTableAdmit, HitVsInsertAccounting) {
  FlowTable t(tinyConfig(EvictPolicy::kLru));
  const auto a = t.admit(7);
  EXPECT_EQ(a.status, AdmitResult::Status::kAdmitted);
  EXPECT_TRUE(a.inserted);
  EXPECT_FALSE(a.evicted);
  const auto b = t.admit(7);
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(b.gen, a.gen);  // same entry, same generation
  const FlowTableStats s = t.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.occupancy, 1u);
  EXPECT_EQ(s.evictions(), 0u);
}

TEST(FlowTableAdmit, DisabledTableAdmitsEverythingTracksNothing) {
  FlowTableConfig cfg = tinyConfig(EvictPolicy::kLru);
  cfg.enabled = false;
  FlowTable t(cfg);
  for (std::uint32_t k = 0; k < 100; ++k) {
    const auto r = t.admit(k);
    EXPECT_EQ(r.status, AdmitResult::Status::kAdmitted);
    EXPECT_FALSE(r.inserted);
    EXPECT_TRUE(t.release(k, r.gen));
  }
  EXPECT_EQ(t.stats().inserts, 0u);
  EXPECT_EQ(t.stats().occupancy, 0u);
}

TEST(FlowTableEvict, LruEvictsLeastRecentlyAdmitted) {
  FlowTable t(tinyConfig(EvictPolicy::kLru));
  for (std::uint32_t k = 1; k <= 8; ++k) (void)t.admit(k);
  (void)t.admit(1);  // refresh flow 1's recency; flow 2 is now the LRU
  const auto r = t.admit(9);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_key, 2u);
  EXPECT_EQ(t.stats().evicted_by_reason[static_cast<std::size_t>(EvictReason::kCapacity)], 1u);
}

TEST(FlowTableEvict, FifoEvictsOldestInsertionEvenWhenRecentlyTouched) {
  FlowTable t(tinyConfig(EvictPolicy::kFifo));
  for (std::uint32_t k = 1; k <= 8; ++k) (void)t.admit(k);
  (void)t.admit(1);  // a hit refreshes recency but not insertion order
  const auto r = t.admit(9);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_key, 1u);
}

TEST(FlowTableEvict, RandomPolicyIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    FlowTableConfig cfg = tinyConfig(EvictPolicy::kRandom);
    cfg.seed = seed;
    FlowTable t(cfg);
    std::vector<std::uint32_t> victims;
    for (std::uint32_t k = 0; k < 64; ++k) {
      const auto r = t.admit(k);
      if (r.evicted) victims.push_back(r.victim_key);
    }
    return victims;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_FALSE(run(42).empty());
  EXPECT_NE(run(42), run(43));  // different seed, different victim sequence
}

TEST(FlowTableEvict, DirectMappedDisplacesWithCollisionReason) {
  FlowTableConfig cfg = tinyConfig(EvictPolicy::kDirect);
  FlowTable t(cfg);
  // Window of one: any insert landing on an occupied slot displaces it.
  for (std::uint32_t k = 0; k < 100; ++k) (void)t.admit(k);
  const FlowTableStats s = t.stats();
  EXPECT_EQ(s.inserts, 100u);
  const auto collisions = s.evicted_by_reason[static_cast<std::size_t>(EvictReason::kCollision)];
  EXPECT_GT(collisions, 0u);
  EXPECT_EQ(s.evicted_by_reason[static_cast<std::size_t>(EvictReason::kCapacity)], 0u);
  // Nothing ever leaves the table except by eviction.
  EXPECT_EQ(s.inserts, s.occupancy + s.evictions());
}

TEST(FlowTableInvariant, InsertsEqualOccupancyPlusEvictionsUnderChurn) {
  for (const auto policy :
       {EvictPolicy::kLru, EvictPolicy::kFifo, EvictPolicy::kRandom, EvictPolicy::kDirect}) {
    FlowTableConfig cfg;
    cfg.budget_bytes = 64 * 24;
    cfg.shards = 4;
    cfg.policy = policy;
    FlowTable t(cfg);
    for (std::uint32_t k = 0; k < 5000; ++k) (void)t.admit(k % 1000);
    const FlowTableStats s = t.stats();
    EXPECT_EQ(s.inserts, s.occupancy + s.evictions()) << evictPolicyName(policy);
    EXPECT_EQ(s.inserts + s.hits, 5000u) << evictPolicyName(policy);
    EXPECT_LE(s.occupancy, t.capacity()) << evictPolicyName(policy);
  }
}

TEST(FlowTableRelease, EvictionOrphansInflightFramesExactlyOnce) {
  FlowTable t(tinyConfig(EvictPolicy::kLru));
  const auto a = t.admit(1);  // one frame in flight on flow 1, never released
  for (std::uint32_t k = 2; k <= 8; ++k) {
    const auto r = t.admit(k);
    EXPECT_TRUE(t.release(k, r.gen));
  }
  const auto evict = t.admit(9);  // LRU victim is flow 1, carrying 1 in flight
  ASSERT_TRUE(evict.evicted);
  EXPECT_EQ(evict.victim_key, 1u);
  EXPECT_EQ(t.stats().evicted_inflight, 1u);
  // The orphaned frame surfaces later: release misses and says so.
  EXPECT_FALSE(t.release(1, a.gen));
  EXPECT_EQ(t.stats().stale_releases, 1u);
  // Re-admitting flow 1 starts a fresh generation.
  const auto again = t.admit(1);
  EXPECT_TRUE(again.inserted);
  EXPECT_NE(again.gen, a.gen);
}

TEST(FlowTableRelease, StaleGenerationAfterReinsertionIsRejected) {
  FlowTable t(tinyConfig(EvictPolicy::kFifo));
  const auto first = t.admit(3);
  for (std::uint32_t k = 10; k < 18; ++k) (void)t.admit(k);  // evicts flow 3
  const auto second = t.admit(3);  // re-inserted under a new generation
  ASSERT_NE(second.gen, first.gen);
  EXPECT_FALSE(t.release(3, first.gen));  // old frame: orphaned
  EXPECT_TRUE(t.release(3, second.gen));  // new frame: fine
}

// admitState() is admit()+release() in one critical section: twin tables
// fed the same seeded key sequence, one through each path, must agree on
// every AdmitResult and on the final ledger. The sequence is sized to force
// evictions and both kinds of shedding (occupancy latch and external
// pressure) under every policy, so no branch of the shared body is skipped.
TEST(FlowTableAdmitState, MatchesAdmitThenReleaseUnderEveryPolicy) {
  for (const auto policy :
       {EvictPolicy::kLru, EvictPolicy::kFifo, EvictPolicy::kRandom, EvictPolicy::kDirect}) {
    FlowTableConfig cfg;
    cfg.budget_bytes = 64 * 24;
    cfg.shards = 4;
    cfg.policy = policy;
    cfg.shed_enabled = true;
    cfg.shed_high_water = 0.6;
    cfg.shed_low_water = 0.4;
    cfg.shed_admit_fraction = 0.5;
    FlowTable state_only(cfg);
    FlowTable admit_release(cfg);
    Rng keys(0xd1ff + static_cast<std::uint64_t>(policy));
    for (int i = 0; i < 20'000; ++i) {
      // A hot set of 48 flows plus a churning tail of 400.
      const auto key = static_cast<std::uint32_t>(
          keys.uniform_u64(4) == 0 ? 1000 + keys.uniform_u64(400) : keys.uniform_u64(48));
      const bool pressure = keys.uniform_u64(16) == 0;
      const AdmitResult a = state_only.admitState(key, pressure);
      const AdmitResult b = admit_release.admit(key, pressure);
      if (b.status == AdmitResult::Status::kAdmitted) {
        ASSERT_TRUE(admit_release.release(key, b.gen));
      }
      ASSERT_EQ(a.status, b.status) << evictPolicyName(policy) << " step " << i;
      ASSERT_EQ(a.inserted, b.inserted) << evictPolicyName(policy) << " step " << i;
      ASSERT_EQ(a.evicted, b.evicted) << evictPolicyName(policy) << " step " << i;
      ASSERT_EQ(a.gen, b.gen) << evictPolicyName(policy) << " step " << i;
      ASSERT_EQ(a.victim_key, b.victim_key) << evictPolicyName(policy) << " step " << i;
      ASSERT_EQ(state_only.shedActive(), admit_release.shedActive());
    }
    const FlowTableStats sa = state_only.stats();
    const FlowTableStats sb = admit_release.stats();
    EXPECT_EQ(sa.inserts, sb.inserts);
    EXPECT_EQ(sa.hits, sb.hits);
    EXPECT_EQ(sa.evicted_by_reason, sb.evicted_by_reason);
    EXPECT_EQ(sa.evicted_inflight, sb.evicted_inflight);
    EXPECT_EQ(sa.shed, sb.shed);
    EXPECT_EQ(sa.stale_releases, sb.stale_releases);
    EXPECT_EQ(sa.occupancy, sb.occupancy);
    EXPECT_EQ(sa.capacity, sb.capacity);
    EXPECT_EQ(sa.shed_engaged, sb.shed_engaged);
    // The sequence exercised what it was built to.
    EXPECT_GT(sa.evictions(), 0u) << evictPolicyName(policy);
    EXPECT_GT(sa.shed, 0u) << evictPolicyName(policy);
    EXPECT_GT(sa.shed_engaged, 0u) << evictPolicyName(policy);
    EXPECT_EQ(sa.evicted_inflight, 0u);  // nothing is ever left in flight
  }
}

TEST(FlowShed, EngagesAtHighWaterAndRefusesOnlyNewFlows) {
  FlowTableConfig cfg = tinyConfig(EvictPolicy::kLru);
  cfg.shed_enabled = true;
  cfg.shed_high_water = 0.5;  // 4 of 8 entries
  cfg.shed_low_water = 0.25;
  cfg.shed_admit_fraction = 0.0;  // shed every new flow under pressure
  FlowTable t(cfg);
  for (std::uint32_t k = 1; k <= 4; ++k) EXPECT_EQ(t.admit(k).status, AdmitResult::Status::kAdmitted);
  EXPECT_TRUE(t.shedActive());
  EXPECT_EQ(t.admit(5).status, AdmitResult::Status::kShed);
  // Established flows always get through, shedding or not.
  EXPECT_EQ(t.admit(1).status, AdmitResult::Status::kAdmitted);
  const FlowTableStats s = t.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.shed_engaged, 1u);
  EXPECT_EQ(s.occupancy, 4u);
}

TEST(FlowShed, AdmitFractionOneSpareEverything) {
  FlowTableConfig cfg = tinyConfig(EvictPolicy::kLru);
  cfg.shed_enabled = true;
  cfg.shed_high_water = 0.25;
  cfg.shed_admit_fraction = 1.0;
  FlowTable t(cfg);
  for (std::uint32_t k = 0; k < 8; ++k)
    EXPECT_EQ(t.admit(k).status, AdmitResult::Status::kAdmitted) << k;
  EXPECT_EQ(t.stats().shed, 0u);
}

TEST(FlowShed, TiebreakIsAPureFunctionOfKeyAndSeed) {
  // The same flow is either shed or spared on every attempt, in any order:
  // two identically configured tables agree key-by-key.
  const auto shedSet = [](const std::vector<std::uint32_t>& keys) {
    FlowTableConfig cfg;
    cfg.budget_bytes = 16 * 24;
    cfg.shards = 1;
    cfg.shed_enabled = true;
    cfg.shed_high_water = 0.25;
    cfg.shed_low_water = 0.125;
    cfg.shed_admit_fraction = 0.5;
    FlowTable t(cfg);
    for (std::uint32_t k = 0; k < 16; ++k) (void)t.admit(1000 + k);  // engage the latch
    std::set<std::uint32_t> shed;
    for (const auto k : keys) {
      if (t.admit(k).status == AdmitResult::Status::kShed) shed.insert(k);
    }
    return shed;
  };
  std::vector<std::uint32_t> forward, backward;
  for (std::uint32_t k = 0; k < 200; ++k) forward.push_back(k);
  backward.assign(forward.rbegin(), forward.rend());
  const auto a = shedSet(forward);
  EXPECT_EQ(a, shedSet(backward));
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), forward.size());  // fraction 0.5 spares roughly half
}

TEST(FlowShed, ExternalPressureSignalAlsoTriggers) {
  FlowTableConfig cfg = tinyConfig(EvictPolicy::kLru);
  cfg.shed_enabled = true;
  cfg.shed_high_water = 1.0;  // occupancy latch never engages on its own
  cfg.shed_admit_fraction = 0.0;
  FlowTable t(cfg);
  EXPECT_EQ(t.admit(1, /*shed_pressure=*/false).status, AdmitResult::Status::kAdmitted);
  EXPECT_EQ(t.admit(2, /*shed_pressure=*/true).status, AdmitResult::Status::kShed);
  EXPECT_EQ(t.admit(1, /*shed_pressure=*/true).status, AdmitResult::Status::kAdmitted);
}

TEST(FlowShed, DisarmedLayerNeverSheds) {
  FlowTableConfig cfg = tinyConfig(EvictPolicy::kLru);
  cfg.shed_enabled = false;
  cfg.shed_high_water = 0.0;
  FlowTable t(cfg);
  for (std::uint32_t k = 0; k < 64; ++k)
    EXPECT_EQ(t.admit(k, /*shed_pressure=*/true).status, AdmitResult::Status::kAdmitted);
  EXPECT_EQ(t.stats().shed, 0u);
}

TEST(ShedLatchTest, HysteresisBetweenWaterMarks) {
  ShedLatch latch;
  EXPECT_FALSE(latch.update(5, 10, 3));
  EXPECT_TRUE(latch.update(10, 10, 3));   // engage at high water
  EXPECT_TRUE(latch.update(5, 10, 3));    // stays on between the marks
  EXPECT_TRUE(latch.on());
  EXPECT_FALSE(latch.update(3, 10, 3));   // disengage at low water
  EXPECT_FALSE(latch.on());
  EXPECT_FALSE(latch.update(9, 10, 3));   // below high again: stays off
}

TEST(FlowNames, PolicyAndReasonRoundTrip) {
  for (const auto p :
       {EvictPolicy::kLru, EvictPolicy::kFifo, EvictPolicy::kRandom, EvictPolicy::kDirect}) {
    EvictPolicy parsed;
    ASSERT_TRUE(parseEvictPolicy(evictPolicyName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  EvictPolicy out;
  EXPECT_FALSE(parseEvictPolicy("mru", &out));
  EXPECT_STREQ(evictReasonName(EvictReason::kCapacity), "capacity");
  EXPECT_STREQ(evictReasonName(EvictReason::kCollision), "collision");
}

}  // namespace
}  // namespace affinity::flow
