/** @file Tests for the set-associative-placement NUCA (Figure 4's "a"). */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "nurapid/coupled_nuca.hh"
#include "timing/geometry.hh"

namespace nurapid {
namespace {

const SramMacroModel &
model()
{
    static SramMacroModel m(TechParams::the70nm());
    return m;
}

CoupledNucaCache::Params
smallParams(PromotionPolicy promo = PromotionPolicy::NextFastest)
{
    CoupledNucaCache::Params p;
    p.capacity_bytes = 64 * 1024;
    p.assoc = 8;
    p.block_bytes = 128;
    p.num_dgroups = 4;
    p.promotion = promo;
    return p;
}

Addr
setStride(const CoupledNucaCache::Params &p)
{
    return Addr{p.capacity_bytes} / p.assoc;
}

TEST(CoupledNuca, MissThenHitInFastestGroup)
{
    CoupledNucaCache c(model(), smallParams());
    EXPECT_FALSE(c.access(0x0, AccessType::Read, 0).hit);
    auto h = c.access(0x0, AccessType::Read, 10000);
    EXPECT_TRUE(h.hit);
    // Initial placement in the fastest d-group (the isolation setup of
    // Section 5.2.1): the re-access hits region 0.
    EXPECT_EQ(c.regionHits().count(0), 1u);
}

TEST(CoupledNuca, OnlyTwoSetBlocksFitInFastestGroup)
{
    // The restriction NuRAPID removes: with 8 ways over 4 d-groups,
    // exactly 2 ways of a set live in each d-group, so a hot set with
    // more than 2 blocks cannot keep them all fast.
    auto p = smallParams();
    CoupledNucaCache c(model(), p);
    const Addr stride = setStride(p);
    Cycle now = 0;
    // Touch 8 blocks of one set repeatedly.
    for (int round = 0; round < 4; ++round)
        for (std::uint32_t w = 0; w < p.assoc; ++w)
            c.access(w * stride, AccessType::Read, now += 10000);
    c.resetStats();
    for (std::uint32_t w = 0; w < p.assoc; ++w)
        c.access(w * stride, AccessType::Read, now += 10000);
    // At most 2 of the 8 hits can come from d-group 0.
    EXPECT_LE(c.regionHits().count(0), 2u);
    EXPECT_EQ(c.regionHits().total(), 8u);
}

TEST(CoupledNuca, PromotionSwapsWithinSet)
{
    auto p = smallParams();
    CoupledNucaCache c(model(), p);
    const Addr stride = setStride(p);
    Cycle now = 0;
    // Fill 4 blocks of a set; the later fills bubble older ones out of
    // d-group 0.
    for (std::uint32_t w = 0; w < 4; ++w)
        c.access(w * stride, AccessType::Read, now += 10000);
    c.resetStats();
    // Re-access block 0 twice; the second access must be faster or
    // equal (it was promoted on the first hit).
    auto first = c.access(0, AccessType::Read, now += 10000);
    auto second = c.access(0, AccessType::Read, now += 10000);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(second.hit);
    EXPECT_LE(second.latency, first.latency);
    EXPECT_GE(c.stats().counterValue("promotions"), 1u);
}

TEST(CoupledNuca, MissCountMatchesNuRapidShape)
{
    // Both caches are 64 KB with the same set mapping, so a plain
    // conflict pattern misses identically (hits/misses conservation).
    CoupledNucaCache c(model(), smallParams());
    Rng rng(31);
    Cycle now = 0;
    std::uint64_t accesses = 25000;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        now += 15;
        c.access(rng.below64(3 * 64 * 1024) & ~Addr{127},
                 AccessType::Read, now);
    }
    const auto &s = c.stats();
    EXPECT_EQ(s.counterValue("hits") + s.counterValue("misses"),
              s.counterValue("demand_accesses"));
    EXPECT_EQ(s.counterValue("demand_accesses"), accesses);
}

TEST(CoupledNuca, DemotionOnlyNeverPromotes)
{
    CoupledNucaCache c(model(), smallParams(PromotionPolicy::DemotionOnly));
    Rng rng(7);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        now += 15;
        c.access(rng.below64(2 * 64 * 1024) & ~Addr{127},
                 AccessType::Read, now);
    }
    EXPECT_EQ(c.stats().counterValue("promotions"), 0u);
}

TEST(CoupledNuca, EnergyGrowsWithActivity)
{
    CoupledNucaCache c(model(), smallParams());
    EXPECT_DOUBLE_EQ(c.cacheEnergyNJ(), 0.0);
    c.access(0x0, AccessType::Read, 0);
    const double one = c.cacheEnergyNJ();
    EXPECT_GT(one, 0.0);
    c.access(0x0, AccessType::Read, 10000);
    EXPECT_GT(c.cacheEnergyNJ(), one);
}

TEST(CoupledNucaDeath, MoreThanSixteenWaysIsFatal)
{
    CoupledNucaCache::Params p = smallParams();
    p.name = "wide-sa";
    p.assoc = 17;
    EXPECT_DEATH(CoupledNucaCache(model(), p),
                 "wide-sa: coupled NUCA associativity 17 outside the "
                 "rank-plane range 1\\.\\.16");
}

} // namespace
} // namespace nurapid
