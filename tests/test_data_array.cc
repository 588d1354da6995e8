/** @file Unit tests for NuRAPID's d-group data arrays. */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "nurapid/data_array.hh"

namespace nurapid {
namespace {

TEST(DataArray, AllFramesStartFree)
{
    DataArray d(4, 16, 1, DistanceRepl::LRU, 1);
    for (std::uint32_t g = 0; g < 4; ++g)
        EXPECT_TRUE(d.hasFree(g, 0));
    EXPECT_EQ(d.validCount(), 0u);
}

TEST(DataArray, AllocPlaceRemoveCycle)
{
    DataArray d(2, 4, 1, DistanceRepl::LRU, 1);
    std::set<std::uint32_t> frames;
    for (int i = 0; i < 4; ++i) {
        const auto f = d.allocFrame(0, 0);
        EXPECT_TRUE(frames.insert(f).second) << "duplicate frame";
        d.place(0, f, i, 0);
    }
    EXPECT_FALSE(d.hasFree(0, 0));
    EXPECT_EQ(d.validCount(), 4u);
    d.remove(0, *frames.begin());
    EXPECT_TRUE(d.hasFree(0, 0));
    EXPECT_EQ(d.validCount(), 3u);
}

TEST(DataArray, ReversePointersStored)
{
    DataArray d(2, 4, 1, DistanceRepl::LRU, 1);
    const auto f = d.allocFrame(1, 0);
    d.place(1, f, 123, 5);
    EXPECT_TRUE(d.frame(1, f).valid);
    EXPECT_EQ(d.frame(1, f).set, 123u);
    EXPECT_EQ(d.frame(1, f).way, 5u);
}

TEST(DataArray, LruVictimIsLeastRecentlyTouched)
{
    DataArray d(1, 3, 1, DistanceRepl::LRU, 1);
    std::uint32_t f0 = d.allocFrame(0, 0);
    std::uint32_t f1 = d.allocFrame(0, 0);
    std::uint32_t f2 = d.allocFrame(0, 0);
    d.place(0, f0, 0, 0);
    d.place(0, f1, 1, 0);
    d.place(0, f2, 2, 0);
    d.touch(0, f0);
    d.touch(0, f2);
    // f1 is oldest.
    EXPECT_EQ(d.victimFrame(0, 0), f1);
    d.touch(0, f1);
    EXPECT_EQ(d.victimFrame(0, 0), f0);
}

TEST(DataArray, RandomVictimOnlyWhenFullAndValid)
{
    DataArray d(1, 8, 1, DistanceRepl::Random, 7);
    for (int i = 0; i < 8; ++i)
        d.place(0, d.allocFrame(0, 0), i, 0);
    std::set<std::uint32_t> victims;
    for (int i = 0; i < 200; ++i) {
        const auto v = d.victimFrame(0, 0);
        EXPECT_TRUE(d.frame(0, v).valid);
        victims.insert(v);
    }
    EXPECT_GT(victims.size(), 4u);  // spreads across the d-group
}

TEST(DataArray, SwapFramesExchangesPointers)
{
    DataArray d(2, 4, 1, DistanceRepl::LRU, 1);
    const auto fa = d.allocFrame(0, 0);
    const auto fb = d.allocFrame(1, 0);
    d.place(0, fa, 10, 1);
    d.place(1, fb, 20, 2);
    d.swapFrames(0, fa, 1, fb);
    EXPECT_EQ(d.frame(0, fa).set, 20u);
    EXPECT_EQ(d.frame(0, fa).way, 2u);
    EXPECT_EQ(d.frame(1, fb).set, 10u);
    EXPECT_EQ(d.frame(1, fb).way, 1u);
    EXPECT_EQ(d.validCount(), 2u);
}

TEST(DataArray, RegionsPartitionFrames)
{
    DataArray d(2, 16, 4, DistanceRepl::LRU, 1);
    // 4 frames per region; regionOfFrame is the static partition.
    for (std::uint32_t f = 0; f < 16; ++f)
        EXPECT_EQ(d.regionOfFrame(f), f / 4);
    // Region allocation stays within the region's frames.
    for (int i = 0; i < 4; ++i) {
        const auto f = d.allocFrame(0, 2);
        EXPECT_EQ(d.regionOfFrame(f), 2u);
        d.place(0, f, i, 0);
    }
    EXPECT_FALSE(d.hasFree(0, 2));
    EXPECT_TRUE(d.hasFree(0, 1));
}

TEST(DataArray, RegionOfBlockIsStableAndInRange)
{
    DataArray d(2, 64, 8, DistanceRepl::Random, 1);
    for (Addr b = 0; b < 1000; ++b) {
        const auto r = d.regionOf(b);
        EXPECT_LT(r, 8u);
        EXPECT_EQ(r, d.regionOf(b));
    }
    // A single-region array maps everything to region 0.
    DataArray u(2, 64, 1, DistanceRepl::Random, 1);
    EXPECT_EQ(u.regionOf(0xdeadbeef), 0u);
}

TEST(DataArray, RegionLruIsIndependent)
{
    DataArray d(1, 8, 2, DistanceRepl::LRU, 1);
    // Fill both regions.
    std::uint32_t r0_first = d.allocFrame(0, 0);
    d.place(0, r0_first, 0, 0);
    for (int i = 1; i < 4; ++i)
        d.place(0, d.allocFrame(0, 0), i, 0);
    for (int i = 0; i < 4; ++i)
        d.place(0, d.allocFrame(0, 1), 10 + i, 0);
    // Touching region 1 frames must not change region 0's victim.
    for (std::uint32_t f = 4; f < 8; ++f)
        d.touch(0, f);
    EXPECT_EQ(d.victimFrame(0, 0), r0_first);
}

TEST(DataArrayDeath, PlaceIntoOccupiedFrame)
{
    DataArray d(1, 2, 1, DistanceRepl::LRU, 1);
    const auto f = d.allocFrame(0, 0);
    d.place(0, f, 0, 0);
    EXPECT_DEATH(d.place(0, f, 1, 0), "occupied");
}

TEST(DataArrayDeath, RemoveInvalidFrame)
{
    DataArray d(1, 2, 1, DistanceRepl::LRU, 1);
    const auto f = d.allocFrame(0, 0);
    EXPECT_DEATH(d.remove(0, f), "invalid frame");
}

TEST(DataArrayDeath, VictimWhileFreeFramesExist)
{
    DataArray d(1, 2, 1, DistanceRepl::LRU, 1);
    const auto f = d.allocFrame(0, 0);
    d.place(0, f, 0, 0);
    // One frame still free: nominating a victim is a logic error.
    EXPECT_DEATH(d.victimFrame(0, 0), "free");
}

/** A TreePLRU array of one d-group and one region of @p frames
 *  frames, every frame filled. */
DataArray
fullTreePlruRegion(std::uint32_t frames)
{
    DataArray d(1, frames, 1, DistanceRepl::TreePLRU, 1);
    for (std::uint32_t i = 0; i < frames; ++i)
        d.place(0, d.allocFrame(0, 0), i, 0);
    return d;
}

class TreePlruTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TreePlruTest, VictimNeverMostRecentlyTouched)
{
    const std::uint32_t frames = GetParam();
    DataArray d = fullTreePlruRegion(frames);
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t f = rng.below(frames);
        d.touch(0, f);
        EXPECT_NE(d.victimFrame(0, 0), f);
    }
}

TEST_P(TreePlruTest, TouchAllThenVictimIsFirstTouched)
{
    const std::uint32_t frames = GetParam();
    DataArray d = fullTreePlruRegion(frames);
    for (std::uint32_t f = 0; f < frames; ++f)
        d.touch(0, f);
    // Tree-PLRU approximates LRU: after touching 0..n-1 in order, the
    // victim must come from the older half of the touch sequence.
    EXPECT_LT(d.victimFrame(0, 0), frames / 2);
}

INSTANTIATE_TEST_SUITE_P(Ways, TreePlruTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(DataArrayDeath, TreePlruRequiresPow2FramesPerRegion)
{
    EXPECT_DEATH(DataArray(1, 12, 4, DistanceRepl::TreePLRU, 1),
                 "power-of-two count >= 2 of frames per region, got 3");
    EXPECT_DEATH(DataArray(1, 4, 4, DistanceRepl::TreePLRU, 1),
                 "frames per region, got 1");
}

} // namespace
} // namespace nurapid
