/** @file Unit tests for the conventional L2/L3 baseline hierarchy. */

#include <gtest/gtest.h>

#include "mem/conventional_l2l3.hh"
#include "timing/geometry.hh"

namespace nurapid {
namespace {

const SramMacroModel &
model()
{
    static SramMacroModel m(TechParams::the70nm());
    return m;
}

ConventionalL2L3::Params
tinyParams()
{
    ConventionalL2L3::Params p;
    p.l2 = {"t.l2", 8 * 1024, 2, 128};
    p.l3 = {"t.l3", 64 * 1024, 4, 128};
    p.l2_latency = 11;
    p.l3_latency = 43;
    return p;
}

TEST(Conventional, L2HitLatency)
{
    ConventionalL2L3 h(model(), tinyParams());
    h.access(0x0, AccessType::Read, 0);           // miss to memory
    auto r = h.access(0x0, AccessType::Read, 10); // L2 hit
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 11u);
}

TEST(Conventional, L3HitAfterL2Eviction)
{
    auto p = tinyParams();
    ConventionalL2L3 h(model(), p);
    // Fill one L2 set (2 ways) plus one more mapping to the same set;
    // the evicted block should still hit in L3.
    const Addr stride = 8 * 1024 / 2;  // L2 set stride
    h.access(0 * stride, AccessType::Read, 0);
    h.access(1 * stride, AccessType::Read, 0);
    h.access(2 * stride, AccessType::Read, 0);  // evicts block 0 from L2
    auto r = h.access(0, AccessType::Read, 0);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 43u);  // L3 pipelined probe
    EXPECT_GE(h.stats().counterValue("l3_hits"), 1u);
}

TEST(Conventional, MissGoesToMemoryWithTagOnlyDetection)
{
    ConventionalL2L3 h(model(), tinyParams());
    auto r = h.access(0x100000, AccessType::Read, 0);
    EXPECT_FALSE(r.hit);
    // Miss latency = both tag probes + memory, well below the
    // full-data path but above raw memory latency.
    MainMemory mem;
    EXPECT_GT(r.latency, mem.latency(128));
    EXPECT_LT(r.latency, 11u + 43u + mem.latency(128));
    EXPECT_EQ(h.stats().counterValue("memory_fills"), 1u);
}

TEST(Conventional, WritebackAbsorbedOffCriticalPath)
{
    ConventionalL2L3 h(model(), tinyParams());
    auto r = h.access(0x40, AccessType::Writeback, 0);
    EXPECT_EQ(r.latency, 0u);
    // Writebacks are not demand accesses.
    EXPECT_EQ(h.stats().counterValue("accesses"), 0u);
    // But the block is now resident (write-allocate).
    EXPECT_TRUE(h.l2().contains(0x40));
}

TEST(Conventional, RegionHistogramTracksLevels)
{
    ConventionalL2L3 h(model(), tinyParams());
    h.access(0x0, AccessType::Read, 0);   // miss
    h.access(0x0, AccessType::Read, 0);   // L2 hit -> region 0
    EXPECT_EQ(h.regionHits().count(0), 1u);
}

TEST(Conventional, EnergyAccumulatesAndResets)
{
    ConventionalL2L3 h(model(), tinyParams());
    h.access(0x0, AccessType::Read, 0);
    EXPECT_GT(h.dynamicEnergyNJ(), 0.0);
    EXPECT_GT(h.cacheEnergyNJ(), 0.0);
    EXPECT_GE(h.dynamicEnergyNJ(), h.cacheEnergyNJ());
    h.resetStats();
    EXPECT_DOUBLE_EQ(h.dynamicEnergyNJ(), 0.0);
}

TEST(Conventional, DirtyL3EvictionWritesMemory)
{
    auto p = tinyParams();
    p.l3 = {"t.l3", 2 * 1024, 1, 128};  // tiny L3
    p.l2 = {"t.l2", 1 * 1024, 1, 128};
    ConventionalL2L3 h(model(), p);
    // Write a block, then conflict it out of both levels.
    h.access(0x0, AccessType::Write, 0);
    for (Addr a = 0x10000; a < 0x80000; a += 0x1000)
        h.access(a, AccessType::Read, 0);
    EXPECT_GE(h.memory().stats().counterValue("writes"), 1u);
}

} // namespace
} // namespace nurapid
