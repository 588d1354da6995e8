/** @file Unit tests for the generic set-associative cache. */

#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/set_assoc_cache.hh"

namespace nurapid {
namespace {

CacheOrg
smallOrg(std::uint32_t assoc = 2, std::uint64_t capacity = 4096,
         std::uint32_t block = 64)
{
    return {"test", capacity, assoc, block};
}

TEST(CacheOrg, Arithmetic)
{
    CacheOrg org = smallOrg(2, 4096, 64);
    EXPECT_EQ(org.numBlocks(), 64u);
    EXPECT_EQ(org.numSets(), 32u);
}

TEST(SetAssocCache, ColdMissThenHit)
{
    SetAssocCache c(smallOrg());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1030, false).hit);  // same 64 B block
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, LruEvictionOrder)
{
    // 2-way: fill both ways of one set, touch the first, then force an
    // eviction: the second (LRU) must leave.
    SetAssocCache c(smallOrg(2, 4096, 64));
    const Addr set_stride = 64 * 32;  // same set index
    c.access(0 * set_stride, false);
    c.access(1 * set_stride, false);
    c.access(0 * set_stride, false);          // way A becomes MRU
    auto r = c.access(2 * set_stride, false); // evicts way B
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.evicted_addr, 1 * set_stride);
    EXPECT_TRUE(c.contains(0 * set_stride));
    EXPECT_FALSE(c.contains(1 * set_stride));
}

TEST(SetAssocCache, DirtyEvictionReported)
{
    SetAssocCache c(smallOrg(1, 1024, 64));
    c.access(0x0, true);  // write -> dirty
    auto r = c.access(0x0 + 1024, false);  // same set (direct-mapped)
    ASSERT_TRUE(r.evicted);
    EXPECT_TRUE(r.evicted_dirty);
    EXPECT_EQ(r.evicted_addr, 0x0u);
}

TEST(SetAssocCache, CleanEvictionNotDirty)
{
    SetAssocCache c(smallOrg(1, 1024, 64));
    c.access(0x0, false);
    auto r = c.access(0x0 + 1024, false);
    ASSERT_TRUE(r.evicted);
    EXPECT_FALSE(r.evicted_dirty);
}

TEST(SetAssocCache, MarkDirtyAndInvalidate)
{
    SetAssocCache c(smallOrg());
    c.access(0x40, false);
    EXPECT_TRUE(c.markDirty(0x40));
    EXPECT_FALSE(c.markDirty(0x123456));
    EXPECT_TRUE(c.invalidate(0x40));   // returns was-dirty
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40));  // already gone
}

TEST(SetAssocCache, WriteSetsDirtyOnHit)
{
    SetAssocCache c(smallOrg(1, 1024, 64));
    c.access(0x0, false);
    c.access(0x0, true);  // hit, becomes dirty
    auto r = c.access(0x0 + 1024, false);
    EXPECT_TRUE(r.evicted_dirty);
}

TEST(SetAssocCache, MissRatio)
{
    SetAssocCache c(smallOrg());
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.25);
}

struct OrgCase
{
    std::uint32_t assoc;
    std::uint64_t capacity;
    std::uint32_t block;
};

// Names each case by its fields and the cache's one replacement
// policy. Without this gtest prints the raw bytes, padding included,
// so the test names would change between builds.
void
PrintTo(const OrgCase &c, std::ostream *os)
{
    *os << "assoc" << c.assoc << "_cap" << c.capacity << "_block"
        << c.block << "_lru";
}

class CachePropertyTest : public ::testing::TestWithParam<OrgCase>
{
};

TEST_P(CachePropertyTest, WorkingSetWithinCapacityAlwaysHitsSteadyState)
{
    const auto [assoc, capacity, block] = GetParam();
    SetAssocCache c({"p", capacity, assoc, block});
    // A working set equal to half the capacity, touched round-robin,
    // must fully reside after the first pass (no aliasing possible).
    const std::uint64_t blocks = capacity / block / 2;
    for (std::uint64_t i = 0; i < blocks; ++i)
        c.access(i * block, false);
    const auto misses_after_warm = c.misses();
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t i = 0; i < blocks; ++i)
            EXPECT_TRUE(c.access(i * block, false).hit);
    EXPECT_EQ(c.misses(), misses_after_warm);
}

TEST_P(CachePropertyTest, NeverMoreValidBlocksThanCapacity)
{
    const auto [assoc, capacity, block] = GetParam();
    SetAssocCache c({"p", capacity, assoc, block});
    Rng rng(5);
    std::uint64_t evictions = 0, fills = 0;
    for (int i = 0; i < 20000; ++i) {
        auto r = c.access(rng.below64(capacity * 8) & ~Addr{block - 1},
                          rng.chance(0.3));
        if (!r.hit)
            ++fills;
        if (r.evicted)
            ++evictions;
    }
    // fills - evictions = live blocks <= capacity/block.
    EXPECT_LE(fills - evictions, capacity / block);
}

INSTANTIATE_TEST_SUITE_P(
    Orgs, CachePropertyTest,
    ::testing::Values(OrgCase{1, 8192, 64}, OrgCase{2, 8192, 64},
                      OrgCase{4, 16384, 32}, OrgCase{8, 65536, 128},
                      OrgCase{4, 16384, 64}, OrgCase{16, 131072, 128}));

TEST(SetAssocCacheDeath, BadConfigIsFatal)
{
    EXPECT_DEATH(SetAssocCache({"bad", 0, 2, 64}), "empty|zero capacity");
    EXPECT_DEATH(SetAssocCache({"bad", 4096, 2, 48}), "not pow2");
}

TEST(SetAssocCacheDeath, MoreThanSixteenWaysIsFatal)
{
    // 17 ways x 64 sets x 64 B: every other check passes, so only the
    // rank plane's 16-way cap can fire, and it names the cache.
    EXPECT_DEATH(SetAssocCache({"wide.l2", 17 * 64 * 64, 17, 64}),
                 "wide\\.l2: associativity 17 outside the rank-plane "
                 "range 1\\.\\.16");
    SetAssocCache sixteen({"ok", 16 * 64 * 64, 16, 64});
    EXPECT_EQ(sixteen.org().assoc, 16u);
}

} // namespace
} // namespace nurapid
