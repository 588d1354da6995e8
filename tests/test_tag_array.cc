/** @file Unit tests for NuRAPID's tag array (forward-pointer side). */

#include <gtest/gtest.h>

#include "nurapid/tag_array.hh"

namespace nurapid {
namespace {

/** Flips entry (set, way) valid through the by-value view. */
void
markValid(TagArray &t, std::uint32_t set, std::uint32_t way)
{
    TagArray::Entry e = t.entry(set, way);
    e.valid = true;
    t.setEntry(set, way, e);
}

TEST(TagArray, Shape)
{
    TagArray t(8ull << 20, 8, 128);
    EXPECT_EQ(t.numSets(), 8192u);
    EXPECT_EQ(t.assoc(), 8u);
    EXPECT_EQ(t.blockBytes(), 128u);
}

TEST(TagArray, MissOnEmpty)
{
    TagArray t(64 * 1024, 4, 128);
    auto l = t.lookup(0x1234500);
    EXPECT_FALSE(l.hit);
    EXPECT_EQ(l.set, t.setOf(0x1234500));
}

TEST(TagArray, InsertAndLookup)
{
    TagArray t(64 * 1024, 4, 128);
    const Addr addr = 0x7f3480;
    const auto set = t.setOf(addr);
    TagArray::Entry e = t.entry(set, 2);
    e.valid = true;
    e.tag = t.tagOf(addr);
    e.group = 1;
    e.frame = 77;
    t.setEntry(set, 2, e);
    auto l = t.lookup(addr);
    ASSERT_TRUE(l.hit);
    EXPECT_EQ(l.set, set);
    EXPECT_EQ(l.way, 2u);
    EXPECT_EQ(t.entry(l.set, l.way).frame, 77u);
}

TEST(TagArray, BlockAddrRoundTrip)
{
    TagArray t(64 * 1024, 4, 128);
    for (Addr addr : {Addr{0}, Addr{0x80}, Addr{0xdeadbe00},
                      Addr{0x123456780}}) {
        const Addr block = addr & ~Addr{127};
        const auto set = t.setOf(block);
        TagArray::Entry e = t.entry(set, 0);
        e.valid = true;
        e.tag = t.tagOf(block);
        t.setEntry(set, 0, e);
        EXPECT_EQ(t.blockAddr(set, 0), block);
    }
}

TEST(TagArray, VictimPrefersInvalidWay)
{
    TagArray t(64 * 1024, 4, 128);
    markValid(t, 3, 0);
    markValid(t, 3, 1);
    t.touch(3, 0);
    t.touch(3, 1);
    EXPECT_EQ(t.victimWay(3), 2u);  // first invalid way
}

TEST(TagArray, VictimIsSetLru)
{
    TagArray t(64 * 1024, 4, 128);
    for (std::uint32_t w = 0; w < 4; ++w) {
        markValid(t, 5, w);
        t.touch(5, w);
    }
    t.touch(5, 0);  // way 1 is now LRU
    EXPECT_EQ(t.victimWay(5), 1u);
    t.touch(5, 1);
    EXPECT_EQ(t.victimWay(5), 2u);
}

TEST(TagArray, ValidCount)
{
    TagArray t(64 * 1024, 4, 128);
    EXPECT_EQ(t.validCount(), 0u);
    markValid(t, 0, 0);
    markValid(t, 9, 3);
    EXPECT_EQ(t.validCount(), 2u);
}

TEST(TagArray, SetIndexUsesLowBlockBits)
{
    TagArray t(64 * 1024, 4, 128);
    // Consecutive blocks map to consecutive sets.
    EXPECT_EQ(t.setOf(0x0) + 1, t.setOf(0x80));
    // Same set after wrapping numSets blocks.
    EXPECT_EQ(t.setOf(0x0),
              t.setOf(static_cast<Addr>(t.numSets()) * 128));
}

TEST(TagArrayDeath, MoreThanSixteenWaysIsFatal)
{
    EXPECT_DEATH(TagArray(64 * 1024, 17, 128),
                 "NuRAPID tag array: associativity 17 outside the "
                 "rank-plane range 1\\.\\.16");
}

} // namespace
} // namespace nurapid
