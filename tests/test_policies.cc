/**
 * @file
 * Direct coverage of the Section 2.4 policy space: every promotion
 * policy crossed with every distance-victim selection policy, plus the
 * victim-selection policies themselves on a bare DataArray. The LRU
 * cases pin down exact blocks (fill order is LRU order); the
 * Random/TreePLRU cases assert the policy-invariant properties
 * (promotion target d-group, seed determinism, not-most-recent).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "nurapid/data_array.hh"
#include "nurapid/nurapid_cache.hh"
#include "nurapid/policies.hh"
#include "timing/geometry.hh"

namespace nurapid {
namespace {

const SramMacroModel &
model()
{
    static SramMacroModel m(TechParams::the70nm());
    return m;
}

/** Tiny geometry: 16 frames per d-group, 16 sets of 4 ways. */
NuRapidCache::Params
tinyParams(PromotionPolicy promo, DistanceRepl drepl)
{
    NuRapidCache::Params p;
    p.capacity_bytes = 8 * 1024;
    p.assoc = 4;
    p.block_bytes = 128;
    p.num_dgroups = 4;
    p.promotion = promo;
    p.distance_repl = drepl;
    p.seed = 11;
    return p;
}

/** D-group currently holding @p addr's block (asserts residency). */
std::uint32_t
groupOf(const NuRapidCache &c, Addr addr)
{
    const auto look = c.tags().lookup(addr);
    EXPECT_TRUE(look.hit) << "block 0x" << std::hex << addr
                          << " not resident";
    return c.tags().entry(look.set, look.way).group;
}

/**
 * Fills 33 distinct blocks. Under DistanceRepl::LRU the demotion
 * cascade is fully deterministic: fill order is LRU order, so d-group
 * 0 ends holding blocks 17..32, d-group 1 blocks 1..16, and block 0 —
 * demoted twice — sits alone in d-group 2.
 */
void
fillToDepthTwo(NuRapidCache &c)
{
    for (Addr i = 0; i < 33; ++i) {
        const auto r = c.access(i * 128, AccessType::Read, i * 1000);
        ASSERT_FALSE(r.hit);
    }
}

TEST(PolicyNames, AreStable)
{
    EXPECT_STREQ(promotionPolicyName(PromotionPolicy::DemotionOnly),
                 "demotion-only");
    EXPECT_STREQ(promotionPolicyName(PromotionPolicy::NextFastest),
                 "next-fastest");
    EXPECT_STREQ(promotionPolicyName(PromotionPolicy::Fastest),
                 "fastest");
    EXPECT_STREQ(distanceReplName(DistanceRepl::Random), "random");
    EXPECT_STREQ(distanceReplName(DistanceRepl::LRU), "lru");
    EXPECT_STREQ(distanceReplName(DistanceRepl::TreePLRU), "tree-plru");
}

TEST(Promotion, DemotionOnlyLeavesHitBlockInPlace)
{
    NuRapidCache c(model(), tinyParams(PromotionPolicy::DemotionOnly,
                                       DistanceRepl::LRU));
    fillToDepthTwo(c);
    ASSERT_EQ(groupOf(c, 0), 2u);

    const auto h = c.access(0, AccessType::Read, 1'000'000);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(groupOf(c, 0), 2u);
    EXPECT_EQ(c.stats().counterValue("promotions"), 0u);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(Promotion, NextFastestMovesHitBlockOneGroupInward)
{
    NuRapidCache c(model(), tinyParams(PromotionPolicy::NextFastest,
                                       DistanceRepl::LRU));
    fillToDepthTwo(c);
    ASSERT_EQ(groupOf(c, 0), 2u);

    const auto h = c.access(0, AccessType::Read, 1'000'000);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(groupOf(c, 0), 1u);
    // D-group 1 was full, so its LRU block (block 1, the second fill)
    // demoted into the vacated frame — a swap, not an eviction.
    EXPECT_EQ(groupOf(c, 1 * 128), 2u);
    EXPECT_EQ(c.stats().counterValue("promotions"), 1u);
    EXPECT_EQ(c.stats().counterValue("evictions"), 0u);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(Promotion, FastestMovesHitBlockToDGroupZero)
{
    NuRapidCache c(model(), tinyParams(PromotionPolicy::Fastest,
                                       DistanceRepl::LRU));
    fillToDepthTwo(c);
    ASSERT_EQ(groupOf(c, 0), 2u);

    const auto h = c.access(0, AccessType::Read, 1'000'000);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(groupOf(c, 0), 0u);
    // D-group 0's LRU block (block 17) swapped out to d-group 2.
    EXPECT_EQ(groupOf(c, 17 * 128), 2u);
    EXPECT_EQ(c.stats().counterValue("promotions"), 1u);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(Promotion, SecondHitFinishesTheClimbUnderNextFastest)
{
    NuRapidCache c(model(), tinyParams(PromotionPolicy::NextFastest,
                                       DistanceRepl::LRU));
    fillToDepthTwo(c);
    c.access(0, AccessType::Read, 1'000'000);
    ASSERT_EQ(groupOf(c, 0), 1u);
    c.access(0, AccessType::Read, 2'000'000);
    EXPECT_EQ(groupOf(c, 0), 0u);
    EXPECT_EQ(c.stats().counterValue("promotions"), 2u);
    EXPECT_TRUE(c.checkInvariants());
}

TEST(Promotion, WritebackHitsNeverMigrateTheBlock)
{
    NuRapidCache c(model(), tinyParams(PromotionPolicy::Fastest,
                                       DistanceRepl::LRU));
    fillToDepthTwo(c);
    ASSERT_EQ(groupOf(c, 0), 2u);
    c.access(0, AccessType::Writeback, 1'000'000);
    EXPECT_EQ(groupOf(c, 0), 2u);
    EXPECT_EQ(c.stats().counterValue("promotions"), 0u);
}

/**
 * The promotion-target rule must hold whichever victim-selection
 * policy fills the cache: record the hit block's d-group, access it,
 * and check the landing d-group the policy prescribes.
 */
TEST(Promotion, TargetGroupHoldsAcrossVictimPolicies)
{
    for (const PromotionPolicy promo :
         {PromotionPolicy::DemotionOnly, PromotionPolicy::NextFastest,
          PromotionPolicy::Fastest}) {
        for (const DistanceRepl drepl :
             {DistanceRepl::Random, DistanceRepl::LRU,
              DistanceRepl::TreePLRU}) {
            SCOPED_TRACE(testing::Message()
                         << promotionPolicyName(promo) << " / "
                         << distanceReplName(drepl));
            NuRapidCache c(model(), tinyParams(promo, drepl));
            for (Addr i = 0; i < 33; ++i)
                c.access(i * 128, AccessType::Read, i * 1000);

            const std::uint32_t before = groupOf(c, 0);
            const auto h = c.access(0, AccessType::Read, 1'000'000);
            ASSERT_TRUE(h.hit);
            const std::uint32_t after = groupOf(c, 0);

            std::uint32_t expected = before;
            if (before > 0 && promo == PromotionPolicy::NextFastest)
                expected = before - 1;
            else if (before > 0 && promo == PromotionPolicy::Fastest)
                expected = 0;
            EXPECT_EQ(after, expected);
            EXPECT_EQ(c.stats().counterValue("promotions"),
                      expected != before ? 1u : 0u);
            EXPECT_TRUE(c.checkInvariants());
        }
    }
}

TEST(DistanceVictim, LruPicksLeastRecentlyUsedFrame)
{
    DataArray data(2, 8, 1, DistanceRepl::LRU, 5);
    std::uint32_t first = DataArray::kNoFrame;
    std::uint32_t second = DataArray::kNoFrame;
    for (std::uint32_t i = 0; i < 8; ++i) {
        const std::uint32_t f = data.allocFrame(0, 0);
        data.place(0, f, i, 0);
        if (i == 0)
            first = f;
        if (i == 1)
            second = f;
    }
    EXPECT_EQ(data.victimFrame(0, 0), first);
    data.touch(0, first);  // now the second-placed frame is LRU
    EXPECT_EQ(data.victimFrame(0, 0), second);
}

TEST(DistanceVictim, RandomIsSeedDeterministicAndInRange)
{
    DataArray a(1, 16, 1, DistanceRepl::Random, 42);
    DataArray b(1, 16, 1, DistanceRepl::Random, 42);
    for (std::uint32_t i = 0; i < 16; ++i) {
        const std::uint32_t fa = a.allocFrame(0, 0);
        a.place(0, fa, i, 0);
        const std::uint32_t fb = b.allocFrame(0, 0);
        b.place(0, fb, i, 0);
    }
    for (int i = 0; i < 32; ++i) {
        const std::uint32_t va = a.victimFrame(0, 0);
        EXPECT_EQ(va, b.victimFrame(0, 0)) << "seed determinism";
        EXPECT_LT(va, 16u);
        EXPECT_TRUE(a.frame(0, va).valid);
    }
}

TEST(DistanceVictim, TreePlruNeverNominatesTheMostRecentTouch)
{
    DataArray data(1, 8, 1, DistanceRepl::TreePLRU, 5);
    for (std::uint32_t i = 0; i < 8; ++i) {
        const std::uint32_t f = data.allocFrame(0, 0);
        data.place(0, f, i, 0);
    }
    for (std::uint32_t f = 0; f < 8; ++f) {
        data.touch(0, f);
        const std::uint32_t v = data.victimFrame(0, 0);
        EXPECT_NE(v, f) << "tree-PLRU nominated the frame just touched";
        EXPECT_LT(v, 8u);
        EXPECT_TRUE(data.frame(0, v).valid);
    }
}

TEST(DistanceVictim, TreePlruCountsAFillAsAUse)
{
    // A block just filled (or demoted) into a region must not be the
    // very next distance victim: the fill touches the tree as well as
    // the region-LRU chain.
    DataArray data(1, 2, 1, DistanceRepl::TreePLRU, 5);
    ASSERT_EQ(data.allocFrame(0, 0), 1u);
    data.place(0, 1, 0, 0);
    ASSERT_EQ(data.allocFrame(0, 0), 0u);
    data.place(0, 0, 1, 0);
    EXPECT_EQ(data.victimFrame(0, 0), 1u);
}

TEST(DistanceVictim, RegionsAreIndependentUnderRestriction)
{
    // Two regions of four frames: filling and victimizing region 0
    // must never nominate a region-1 frame.
    DataArray data(1, 8, 2, DistanceRepl::LRU, 5);
    for (std::uint32_t i = 0; i < 4; ++i) {
        const std::uint32_t f = data.allocFrame(0, 0);
        EXPECT_EQ(data.regionOfFrame(f), 0u);
        data.place(0, f, i, 0);
    }
    EXPECT_TRUE(data.hasFree(0, 1));
    EXPECT_FALSE(data.hasFree(0, 0));
    const std::uint32_t v = data.victimFrame(0, 0);
    EXPECT_EQ(data.regionOfFrame(v), 0u);
}

} // namespace
} // namespace nurapid
