/**
 * @file
 * Behavioral and property tests for the NuRAPID cache itself: distance
 * placement, distance replacement, promotion policies, pointer
 * consistency, port serialization, and the paper's structural claims
 * (miss rate independent of policy and d-group count; any number of a
 * set's blocks may share the fastest d-group).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "nurapid/nurapid_cache.hh"
#include "timing/geometry.hh"

namespace nurapid {
namespace {

const SramMacroModel &
model()
{
    static SramMacroModel m(TechParams::the70nm());
    return m;
}

NuRapidCache::Params
smallParams(std::uint32_t dgroups = 4,
            PromotionPolicy promo = PromotionPolicy::NextFastest,
            DistanceRepl drepl = DistanceRepl::Random)
{
    NuRapidCache::Params p;
    p.capacity_bytes = 64 * 1024;
    p.assoc = 4;
    p.block_bytes = 128;
    p.num_dgroups = dgroups;
    p.promotion = promo;
    p.distance_repl = drepl;
    p.seed = 3;
    return p;
}

/** Set stride: blocks this far apart share a tag set. */
Addr
setStride(const NuRapidCache::Params &p)
{
    return Addr{p.capacity_bytes} / p.assoc;
}

TEST(NuRapid, MissThenHit)
{
    NuRapidCache c(model(), smallParams());
    auto m = c.access(0x1000, AccessType::Read, 0);
    EXPECT_FALSE(m.hit);
    auto h = c.access(0x1000, AccessType::Read, 1000);
    EXPECT_TRUE(h.hit);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(NuRapid, NewBlocksPlacedInFastestDGroup)
{
    // Section 2.1: every fill goes to d-group 0.
    NuRapidCache c(model(), smallParams());
    for (int i = 0; i < 16; ++i)
        c.access(i * 0x1000, AccessType::Read, i * 1000);
    for (int i = 0; i < 16; ++i) {
        auto h = c.access(i * 0x1000, AccessType::Read, 100000 + i * 1000);
        EXPECT_TRUE(h.hit);
    }
    EXPECT_EQ(c.regionHits().count(0), 16u);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(NuRapid, WholeHotSetFitsInFastestDGroup)
{
    // The headline flexibility claim: ALL ways of a hot set can live in
    // d-group 0 simultaneously (a coupled cache could hold only
    // assoc/num_dgroups of them there).
    auto p = smallParams();
    NuRapidCache c(model(), p);
    const Addr stride = setStride(p);
    for (std::uint32_t w = 0; w < p.assoc; ++w)
        c.access(w * stride, AccessType::Read, w * 1000);
    const std::uint32_t set = c.tags().setOf(0);
    EXPECT_EQ(c.blocksOfSetInGroup(set, 0), p.assoc);
}

TEST(NuRapid, HitLatencyMatchesDGroup)
{
    auto p = smallParams();
    NuRapidCache c(model(), p);
    c.access(0x0, AccessType::Read, 0);
    auto h = c.access(0x0, AccessType::Read, 100000);
    EXPECT_EQ(h.latency, c.timing().dgroups[0].total_latency);
}

TEST(NuRapid, MissLatencyIsTagPlusMemory)
{
    auto p = smallParams();
    NuRapidCache c(model(), p);
    auto m = c.access(0x0, AccessType::Read, 0);
    MainMemory mem;
    EXPECT_EQ(m.latency, c.timing().tag_latency + mem.latency(128));
}

TEST(NuRapid, EvictionIsSetLru)
{
    auto p = smallParams();
    NuRapidCache c(model(), p);
    const Addr stride = setStride(p);
    // Fill the set, touch block 0 again, then overflow: block 1 (LRU)
    // must be the one evicted.
    for (std::uint32_t w = 0; w < p.assoc; ++w)
        c.access(w * stride, AccessType::Read, w * 1000);
    c.access(0, AccessType::Read, 50000);
    c.access(p.assoc * stride, AccessType::Read, 60000);  // eviction
    EXPECT_TRUE(c.access(0, AccessType::Read, 70000).hit);
    EXPECT_FALSE(c.access(1 * stride, AccessType::Read, 80000).hit);
}

TEST(NuRapid, DirtyEvictionWritesMemory)
{
    auto p = smallParams();
    NuRapidCache c(model(), p);
    const Addr stride = setStride(p);
    c.access(0, AccessType::Write, 0);
    for (std::uint32_t w = 1; w <= p.assoc; ++w)
        c.access(w * stride, AccessType::Read, w * 1000);
    EXPECT_GE(c.memory().stats().counterValue("writes"), 1u);
}

TEST(NuRapid, DemotionChainOnPressure)
{
    // Filling beyond d-group 0's frame count forces demotions but
    // never drops blocks (distance replacement does not evict).
    auto p = smallParams();
    NuRapidCache c(model(), p);
    const std::uint32_t frames_per_group =
        p.capacity_bytes / p.num_dgroups / p.block_bytes;  // 128
    for (std::uint32_t i = 0; i < 2 * frames_per_group; ++i)
        c.access(Addr{i} * p.block_bytes, AccessType::Read, i * 100);
    EXPECT_GT(c.stats().counterValue("demotions"), 0u);
    EXPECT_EQ(c.stats().counterValue("evictions"), 0u);  // capacity fits
    // Everything still hits: nothing was lost to demotion.
    for (std::uint32_t i = 0; i < 2 * frames_per_group; ++i) {
        EXPECT_TRUE(c.access(Addr{i} * p.block_bytes, AccessType::Read,
                             1000000 + i * 100).hit);
    }
    EXPECT_TRUE(c.checkInvariants());
}

TEST(NuRapid, NextFastestPromotesOneGroupCloser)
{
    auto p = smallParams(4, PromotionPolicy::NextFastest);
    NuRapidCache c(model(), p);
    // Fill 2 d-groups worth of blocks; early blocks end up demoted.
    const std::uint32_t frames_per_group =
        p.capacity_bytes / p.num_dgroups / p.block_bytes;
    for (std::uint32_t i = 0; i < 2 * frames_per_group; ++i)
        c.access(Addr{i} * p.block_bytes, AccessType::Read, i * 100);
    // Find a block currently in d-group 1 via the tag state.
    c.resetStats();
    Addr demoted = kInvalidAddr;
    for (std::uint32_t i = 0; i < 2 * frames_per_group; ++i) {
        const Addr a = Addr{i} * p.block_bytes;
        auto l = c.tags().lookup(a);
        if (l.hit && c.tags().entry(l.set, l.way).group == 1) {
            demoted = a;
            break;
        }
    }
    ASSERT_NE(demoted, kInvalidAddr);
    c.access(demoted, AccessType::Read, 10'000'000);
    auto l = c.tags().lookup(demoted);
    EXPECT_EQ(c.tags().entry(l.set, l.way).group, 0u);
    EXPECT_EQ(c.stats().counterValue("promotions"), 1u);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(NuRapid, FastestPromotesStraightToGroupZero)
{
    auto p = smallParams(4, PromotionPolicy::Fastest);
    NuRapidCache c(model(), p);
    const std::uint32_t frames_per_group =
        p.capacity_bytes / p.num_dgroups / p.block_bytes;
    for (std::uint32_t i = 0; i < 3 * frames_per_group; ++i)
        c.access(Addr{i} * p.block_bytes, AccessType::Read, i * 100);
    Addr deep = kInvalidAddr;
    for (std::uint32_t i = 0; i < 3 * frames_per_group; ++i) {
        const Addr a = Addr{i} * p.block_bytes;
        auto l = c.tags().lookup(a);
        if (l.hit && c.tags().entry(l.set, l.way).group == 2) {
            deep = a;
            break;
        }
    }
    ASSERT_NE(deep, kInvalidAddr);
    c.access(deep, AccessType::Read, 10'000'000);
    auto l = c.tags().lookup(deep);
    EXPECT_EQ(c.tags().entry(l.set, l.way).group, 0u);
}

TEST(NuRapid, DemotionOnlyNeverPromotes)
{
    auto p = smallParams(4, PromotionPolicy::DemotionOnly);
    NuRapidCache c(model(), p);
    Rng rng(9);
    for (int i = 0; i < 20000; ++i) {
        c.access(rng.below64(8 * p.capacity_bytes) & ~Addr{127},
                 AccessType::Read, Cycle{static_cast<Cycle>(i)} * 50);
    }
    EXPECT_EQ(c.stats().counterValue("promotions"), 0u);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(NuRapid, SinglePortSerializesSwaps)
{
    // Two back-to-back accesses where the first triggers promotion
    // work: the second must start later than it would on an idle port.
    auto p = smallParams();
    NuRapidCache c(model(), p);
    const std::uint32_t frames_per_group =
        p.capacity_bytes / p.num_dgroups / p.block_bytes;
    for (std::uint32_t i = 0; i < 2 * frames_per_group; ++i)
        c.access(Addr{i} * p.block_bytes, AccessType::Read, i * 1000);
    // Find a demoted block and hit it (promotion) then immediately
    // access another resident block.
    Addr demoted = kInvalidAddr, fast = kInvalidAddr;
    for (std::uint32_t i = 0; i < 2 * frames_per_group; ++i) {
        const Addr a = Addr{i} * p.block_bytes;
        auto l = c.tags().lookup(a);
        if (!l.hit)
            continue;
        const auto g = c.tags().entry(l.set, l.way).group;
        if (g == 1 && demoted == kInvalidAddr)
            demoted = a;
        if (g == 0 && fast == kInvalidAddr)
            fast = a;
    }
    ASSERT_NE(demoted, kInvalidAddr);
    ASSERT_NE(fast, kInvalidAddr);
    const Cycle t0 = 10'000'000;
    c.access(demoted, AccessType::Read, t0);      // promotes: swap work
    auto r = c.access(fast, AccessType::Read, t0);
    EXPECT_GT(r.latency, c.timing().dgroups[0].total_latency);
}

TEST(NuRapid, IdealModeConstantHitLatency)
{
    auto p = smallParams();
    p.ideal_fastest = true;
    NuRapidCache c(model(), p);
    const std::uint32_t frames_per_group =
        p.capacity_bytes / p.num_dgroups / p.block_bytes;
    for (std::uint32_t i = 0; i < 3 * frames_per_group; ++i)
        c.access(Addr{i} * p.block_bytes, AccessType::Read, i);
    for (std::uint32_t i = 0; i < 3 * frames_per_group; ++i) {
        auto r = c.access(Addr{i} * p.block_bytes, AccessType::Read,
                          1'000'000 + i);
        ASSERT_TRUE(r.hit);
        EXPECT_EQ(r.latency, c.timing().dgroups[0].total_latency);
    }
}

TEST(NuRapid, WritebackHitMarksDirtyWithoutPromotion)
{
    auto p = smallParams();
    NuRapidCache c(model(), p);
    const std::uint32_t frames_per_group =
        p.capacity_bytes / p.num_dgroups / p.block_bytes;
    for (std::uint32_t i = 0; i < 2 * frames_per_group; ++i)
        c.access(Addr{i} * p.block_bytes, AccessType::Read, i * 100);
    Addr demoted = kInvalidAddr;
    for (std::uint32_t i = 0; i < 2 * frames_per_group; ++i) {
        const Addr a = Addr{i} * p.block_bytes;
        auto l = c.tags().lookup(a);
        if (l.hit && c.tags().entry(l.set, l.way).group == 1) {
            demoted = a;
            break;
        }
    }
    ASSERT_NE(demoted, kInvalidAddr);
    c.resetStats();
    auto r = c.access(demoted, AccessType::Writeback, 10'000'000);
    EXPECT_EQ(r.latency, 0u);
    EXPECT_EQ(c.stats().counterValue("promotions"), 0u);
    auto l = c.tags().lookup(demoted);
    EXPECT_EQ(c.tags().entry(l.set, l.way).group, 1u);  // stayed put
    EXPECT_TRUE(c.tags().entry(l.set, l.way).dirty);
}

using StormParam = std::tuple<std::uint32_t, PromotionPolicy,
                              DistanceRepl, std::uint32_t>;

class NuRapidStorm : public ::testing::TestWithParam<StormParam>
{
};

TEST_P(NuRapidStorm, InvariantsSurviveRandomStorm)
{
    const auto [dgroups, promo, drepl, restriction] = GetParam();
    auto p = smallParams(dgroups, promo, drepl);
    p.frame_restriction = restriction;
    NuRapidCache c(model(), p);
    Rng rng(dgroups * 1000 + static_cast<unsigned>(promo) * 10 +
            static_cast<unsigned>(drepl));
    Cycle now = 0;
    for (int i = 0; i < 30000; ++i) {
        const Addr a =
            rng.below64(4 * p.capacity_bytes) & ~Addr{127};
        const double u = rng.uniform();
        const AccessType t = u < 0.6 ? AccessType::Read
            : u < 0.85 ? AccessType::Write
                       : AccessType::Writeback;
        now += rng.below(30);
        c.access(a, t, now);
        if (i % 5000 == 4999) {
            ASSERT_TRUE(c.checkInvariants()) << "at access " << i;
        }
    }
    ASSERT_TRUE(c.checkInvariants());
    // Conservation: hits + misses == demand accesses.
    const auto &s = c.stats();
    EXPECT_EQ(s.counterValue("hits") + s.counterValue("misses"),
              s.counterValue("demand_accesses"));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, NuRapidStorm,
    ::testing::Combine(
        ::testing::Values(2u, 4u, 8u),
        ::testing::Values(PromotionPolicy::DemotionOnly,
                          PromotionPolicy::NextFastest,
                          PromotionPolicy::Fastest),
        ::testing::Values(DistanceRepl::Random, DistanceRepl::LRU,
                          DistanceRepl::TreePLRU),
        ::testing::Values(0u, 32u)));

TEST(NuRapid, MissCountIndependentOfPromotionPolicy)
{
    // Section 5.2.2: "miss rates remain the same for the three policies
    // because distance replacement does not cause evictions."
    std::uint64_t misses[3];
    int idx = 0;
    for (auto promo : {PromotionPolicy::DemotionOnly,
                       PromotionPolicy::NextFastest,
                       PromotionPolicy::Fastest}) {
        NuRapidCache c(model(), smallParams(4, promo));
        Rng rng(77);
        Cycle now = 0;
        for (int i = 0; i < 40000; ++i) {
            now += 20;
            c.access(rng.below64(3 * 64 * 1024) & ~Addr{127},
                     AccessType::Read, now);
        }
        misses[idx++] = c.stats().counterValue("misses");
    }
    EXPECT_EQ(misses[0], misses[1]);
    EXPECT_EQ(misses[1], misses[2]);
}

TEST(NuRapid, MissCountIndependentOfDGroupCount)
{
    // Section 5.3.2: total capacity is unchanged, so miss rates match
    // across 2/4/8 d-group configurations.
    std::uint64_t misses[3];
    int idx = 0;
    for (std::uint32_t ndg : {2u, 4u, 8u}) {
        NuRapidCache c(model(), smallParams(ndg));
        Rng rng(88);
        Cycle now = 0;
        for (int i = 0; i < 40000; ++i) {
            now += 20;
            c.access(rng.below64(3 * 64 * 1024) & ~Addr{127},
                     AccessType::Read, now);
        }
        misses[idx++] = c.stats().counterValue("misses");
    }
    EXPECT_EQ(misses[0], misses[1]);
    EXPECT_EQ(misses[1], misses[2]);
}

TEST(NuRapid, TreePlruDistanceReplacementAvoidsHotVictims)
{
    // Section 2.4.2: approximate LRU should rarely demote the block it
    // just touched. Hammer one block while filling the d-group; the
    // hammered block must stay in d-group 0.
    auto p = smallParams(4, PromotionPolicy::DemotionOnly,
                         DistanceRepl::TreePLRU);
    NuRapidCache c(model(), p);
    const std::uint32_t frames_per_group =
        p.capacity_bytes / p.num_dgroups / p.block_bytes;
    const Addr hot = 0x0;
    Cycle now = 0;
    c.access(hot, AccessType::Read, now);
    for (std::uint32_t i = 1; i < 2 * frames_per_group; ++i) {
        c.access(Addr{i} * p.block_bytes, AccessType::Read, now += 50);
        c.access(hot, AccessType::Read, now += 50);  // keep it MRU
    }
    auto l = c.tags().lookup(hot);
    ASSERT_TRUE(l.hit);
    EXPECT_EQ(c.tags().entry(l.set, l.way).group, 0u);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(NuRapid, RestrictionCanEvictButUnrestrictedCannotOverflow)
{
    auto p = smallParams();
    p.frame_restriction = 8;  // 16 regions of 8 frames per d-group
    NuRapidCache c(model(), p);
    Rng rng(5);
    Cycle now = 0;
    for (int i = 0; i < 30000; ++i) {
        now += 10;
        c.access(rng.below64(2 * p.capacity_bytes) & ~Addr{127},
                 AccessType::Read, now);
    }
    EXPECT_TRUE(c.checkInvariants());
    // With such small regions, some restriction evictions occur.
    EXPECT_GT(c.stats().counterValue("restriction_evictions"), 0u);
}

TEST(NuRapidDeath, BadRestrictionIsFatal)
{
    // None divides 128 frames per group; 3 and 200 used to die in
    // DataArray with a region-count message instead.
    for (const std::uint32_t restriction : {100u, 3u, 200u}) {
        auto p = smallParams();
        p.frame_restriction = restriction;
        EXPECT_DEATH(NuRapidCache(model(), p), "frame restriction")
            << restriction;
    }
}

} // namespace
} // namespace nurapid
