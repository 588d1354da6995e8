/** @file Tests for the D-NUCA baseline. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "nuca/dnuca.hh"
#include "timing/geometry.hh"

namespace nurapid {
namespace {

const SramMacroModel &
model()
{
    static SramMacroModel m(TechParams::the70nm());
    return m;
}

DNucaCache::Params
smallParams(DNucaSearch search = DNucaSearch::SsPerformance)
{
    DNucaCache::Params p;
    p.capacity_bytes = 256 * 1024;
    p.assoc = 16;
    p.block_bytes = 128;
    p.rows = 8;
    p.cols = 4;
    p.search = search;
    return p;
}

Addr
setStride(const DNucaCache::Params &p)
{
    return Addr{p.capacity_bytes} / p.assoc;
}

TEST(DNuca, MissThenHit)
{
    DNucaCache c(model(), smallParams());
    EXPECT_FALSE(c.access(0x0, AccessType::Read, 0).hit);
    EXPECT_TRUE(c.access(0x0, AccessType::Read, 10000).hit);
}

TEST(DNuca, InsertionAtSlowestRows)
{
    // D-NUCA's conservative screening: new blocks enter far banks, so
    // a block's first re-access is slow.
    auto p = smallParams();
    DNucaCache c(model(), p);
    const Addr stride = setStride(p);
    // Fill all 16 ways of one set.
    Cycle now = 0;
    for (std::uint32_t w = 0; w < p.assoc; ++w)
        c.access(w * stride, AccessType::Read, now += 10000);
    c.resetStats();
    c.access(16 * stride, AccessType::Read, now += 10000);  // new fill
    auto h = c.access(16 * stride, AccessType::Read, now += 10000);
    EXPECT_TRUE(h.hit);
    // First hit lands in the slowest row (minus the one bubble step it
    // may already have taken is not possible: this IS the first hit).
    EXPECT_EQ(c.regionHits().count(p.rows - 1), 1u);
}

TEST(DNuca, BubblePromotionMovesBlockCloserHitByHit)
{
    auto p = smallParams();
    DNucaCache c(model(), p);
    const Addr stride = setStride(p);
    Cycle now = 0;
    for (std::uint32_t w = 0; w < p.assoc; ++w)
        c.access(w * stride, AccessType::Read, now += 10000);
    // Hammer one block: it must bubble one row per hit until row 0.
    Cycles prev = 0xffffffff;
    for (unsigned hit = 0; hit < p.rows; ++hit) {
        auto r = c.access(5 * stride, AccessType::Read, now += 10000);
        ASSERT_TRUE(r.hit);
        EXPECT_LE(r.latency, prev);
        prev = r.latency;
    }
    // After enough hits the block serves from the fastest row.
    c.resetStats();
    auto final_hit = c.access(5 * stride, AccessType::Read, now += 10000);
    EXPECT_TRUE(final_hit.hit);
    EXPECT_EQ(c.regionHits().count(0), 1u);
}

TEST(DNuca, EvictsSlowestWayNotNecessarilyLru)
{
    // Section 2.2: bubble data replacement evicts the block in the
    // slowest way, which may not be the set-LRU block.
    auto p = smallParams();
    DNucaCache c(model(), p);
    const Addr stride = setStride(p);
    Cycle now = 0;
    for (std::uint32_t w = 0; w < p.assoc; ++w)
        c.access(w * stride, AccessType::Read, now += 10000);
    // Promote block 0 away from the tail...
    c.access(0, AccessType::Read, now += 10000);
    // ...then make block 1 the most recently used overall.
    c.access(1 * stride, AccessType::Read, now += 10000);
    c.access(1 * stride, AccessType::Read, now += 10000);
    // A new fill evicts from the slowest row — block 1 was promoted
    // out of it too; some *other* block leaves even though older
    // blocks exist elsewhere. Block 0 and 1 must survive.
    c.access(16 * stride, AccessType::Read, now += 10000);
    EXPECT_TRUE(c.access(0, AccessType::Read, now += 10000).hit);
    EXPECT_TRUE(c.access(1 * stride, AccessType::Read, now += 10000).hit);
}

TEST(DNuca, SsEnergyAccessesFewerBanksThanMulticast)
{
    auto run = [&](DNucaSearch s) {
        DNucaCache c(model(), smallParams(s));
        Rng rng(4);
        Cycle now = 0;
        for (int i = 0; i < 20000; ++i) {
            now += 25;
            c.access(rng.below64(512 * 1024) & ~Addr{127},
                     AccessType::Read, now);
        }
        return std::pair{c.stats().counterValue("bank_data_accesses") +
                             c.stats().counterValue("bank_search_probes"),
                         c.cacheEnergyNJ()};
    };
    auto [probes_perf, energy_perf] = run(DNucaSearch::SsPerformance);
    auto [probes_energy, energy_energy] = run(DNucaSearch::SsEnergy);
    EXPECT_LT(probes_energy, probes_perf);
    EXPECT_LT(energy_energy, energy_perf);
}

TEST(DNuca, MissCountIndependentOfSearchPolicy)
{
    std::uint64_t misses[3];
    int idx = 0;
    for (auto s : {DNucaSearch::Multicast, DNucaSearch::SsPerformance,
                   DNucaSearch::SsEnergy}) {
        DNucaCache c(model(), smallParams(s));
        Rng rng(11);
        Cycle now = 0;
        for (int i = 0; i < 20000; ++i) {
            now += 25;
            c.access(rng.below64(512 * 1024) & ~Addr{127},
                     AccessType::Read, now);
        }
        misses[idx++] = c.stats().counterValue("misses");
    }
    EXPECT_EQ(misses[0], misses[1]);
    EXPECT_EQ(misses[1], misses[2]);
}

TEST(DNuca, FalsePartialHitsHappenAndAreCounted)
{
    // With only 2 partial-tag bits, aliases are common; the ss-energy
    // walk then probes non-matching banks.
    auto p = smallParams(DNucaSearch::SsEnergy);
    p.partial_tag_bits = 2;
    DNucaCache c(model(), p);
    Rng rng(6);
    Cycle now = 0;
    for (int i = 0; i < 30000; ++i) {
        now += 25;
        c.access(rng.below64(2 * 1024 * 1024) & ~Addr{127},
                 AccessType::Read, now);
    }
    EXPECT_GT(c.stats().counterValue("false_partial_hits"), 0u);
}

TEST(DNuca, SsPerformanceEarlyMissIsFast)
{
    DNucaCache c(model(), smallParams(DNucaSearch::SsPerformance));
    // Cold miss with an empty cache: no partial match anywhere, so the
    // smart-search array determines the miss early.
    auto r = c.access(0x0, AccessType::Read, 0);
    MainMemory mem;
    EXPECT_EQ(r.latency, c.timing().ss_latency + mem.latency(128));
}

TEST(DNuca, WritebacksDoNotPromoteOrCount)
{
    auto p = smallParams();
    DNucaCache c(model(), p);
    const Addr stride = setStride(p);
    Cycle now = 0;
    for (std::uint32_t w = 0; w < p.assoc; ++w)
        c.access(w * stride, AccessType::Read, now += 10000);
    c.resetStats();
    c.access(3 * stride, AccessType::Writeback, now += 10000);
    EXPECT_EQ(c.stats().counterValue("promotions"), 0u);
    EXPECT_EQ(c.stats().counterValue("demand_accesses"), 0u);
    EXPECT_EQ(c.stats().counterValue("writeback_accesses"), 1u);
}

TEST(DNuca, BankContentionDelaysColocatedAccesses)
{
    auto p = smallParams();
    DNucaCache c(model(), p);
    const Addr stride = setStride(p);
    Cycle now = 0;
    for (std::uint32_t w = 0; w < p.assoc; ++w)
        c.access(w * stride, AccessType::Read, now += 10000);
    // Two immediate accesses to blocks in the same bank set: the
    // second sees bank occupancy from the first's multicast.
    auto a = c.access(0 * stride, AccessType::Read, now += 10000);
    auto b = c.access(1 * stride, AccessType::Read, now);
    EXPECT_TRUE(a.hit);
    EXPECT_TRUE(b.hit);
    EXPECT_GT(c.stats().counterValue("bank_wait_cycles"), 0u);
}

TEST(DNucaDeath, MoreThanSixteenWaysIsFatal)
{
    DNucaCache::Params p = smallParams();
    p.name = "wide-dnuca";
    p.assoc = 17;
    EXPECT_DEATH(DNucaCache(model(), p),
                 "wide-dnuca: D-NUCA associativity 17 outside the "
                 "rank-plane range 1\\.\\.16");
}

} // namespace
} // namespace nurapid
