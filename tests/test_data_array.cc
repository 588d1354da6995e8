/** @file Unit tests for NuRAPID's d-group data arrays. */

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "common/rng.hh"
#include "nurapid/data_array.hh"
#include "nurapid/tag_array.hh"
#include "sim/audit/audit.hh"

namespace nurapid {

/** Names the policy in test names ("# GetParam() = lru"); outside the
 *  anonymous namespace so argument-dependent lookup finds it. */
static void
PrintTo(DistanceRepl d, std::ostream *os)
{
    *os << distanceReplName(d);
}

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

/** True if @p sink kept a violation of invariant @p inv. */
bool
reported(const CountingAuditSink &sink, const std::string &inv)
{
    for (const AuditViolation &v : sink.first()) {
        if (v.invariant == inv)
            return true;
    }
    return false;
}

/** Every policy: alloc/place/victim/remove/touch/swap churn over
 *  two regions of four d-groups leaves the audit clean. */
class DataArrayPolicyTest : public ::testing::TestWithParam<DistanceRepl>
{
};

TEST_P(DataArrayPolicyTest, AuditCleanAfterChurn)
{
    constexpr std::uint32_t kGroups = 4;
    constexpr std::uint32_t kFrames = 32;
    DataArray d(kGroups, kFrames, 2, GetParam(), 41);
    Rng rng(43, 0xda7a);
    std::uint64_t live = 0;
    for (int op = 0; op < 20000; ++op) {
        const std::uint32_t g = rng.below(kGroups);
        const std::uint32_t region = rng.below(d.numRegions());
        const std::uint32_t first = region * (kFrames / d.numRegions());
        switch (rng.below(4)) {
          case 0:  // fill, evicting a distance victim when full
            if (!d.hasFree(g, region)) {
                d.remove(g, d.victimFrame(g, region));
                --live;
            }
            d.place(g, d.allocFrame(g, region), rng.below(1024),
                    rng.below(DataArray::kMaxWays));
            ++live;
            break;
          case 1:  // hit
          case 2: {  // promotion swap between two d-groups
            const std::uint32_t f = first + rng.below(kFrames / 2);
            const std::uint32_t h = rng.below(kGroups);
            const std::uint32_t hf = first + rng.below(kFrames / 2);
            if (!d.frame(g, f).valid)
                break;
            if (rng.below(2) == 0 || !d.frame(h, hf).valid ||
                (h == g && hf == f)) {
                d.touch(g, f);
            } else {
                const DataArray::Frame a = d.frame(g, f);
                const DataArray::Frame b = d.frame(h, hf);
                d.swapFrames(g, f, h, hf);
                EXPECT_EQ(d.frame(g, f).set, b.set);
                EXPECT_EQ(d.frame(h, hf).way, a.way);
            }
            break;
          }
          case 3: {  // eviction
            const std::uint32_t f = first + rng.below(kFrames / 2);
            if (d.frame(g, f).valid) {
                d.remove(g, f);
                --live;
            }
            break;
          }
        }
    }
    EXPECT_EQ(d.validCount(), live);
    CountingAuditSink sink;
    EXPECT_TRUE(d.audit(sink)) << sink.summary();
}

TEST_P(DataArrayPolicyTest, AuditFlagsFrameFlippedValidBehindFreeList)
{
    DataArray d(2, 8, 1, GetParam(), 5);
    const std::uint32_t placed = d.allocFrame(0, 0);
    d.place(0, placed, 1, 1);
    // A free frame flipped valid without allocating: the free list and
    // the valid partition now disagree.
    const std::uint32_t f = (placed + 1) % 8;
    DataArray::Frame fr = d.frame(0, f);
    ASSERT_FALSE(fr.valid);
    fr.valid = true;
    d.setFrame(0, f, fr);
    CountingAuditSink sink(/*keep=*/16);
    EXPECT_FALSE(d.audit(sink));
    EXPECT_TRUE(reported(sink, "free-valid-frame")) << sink.summary();
}

TEST_P(DataArrayPolicyTest, AuditFlagsPlacedFrameFlippedInvalid)
{
    DataArray d(2, 8, 1, GetParam(), 5);
    const std::uint32_t f = d.allocFrame(0, 0);
    d.place(0, f, 0, 0);
    DataArray::Frame fr = d.frame(0, f);
    fr.valid = false;
    d.setFrame(0, f, fr);
    CountingAuditSink sink(/*keep=*/16);
    EXPECT_FALSE(d.audit(sink));
    EXPECT_TRUE(reported(sink, "invalid-not-free")) << sink.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DataArrayPolicyTest,
    ::testing::Values(DistanceRepl::Random, DistanceRepl::LRU,
                      DistanceRepl::TreePLRU),
    [](const ::testing::TestParamInfo<DistanceRepl> &info) {
        return info.param == DistanceRepl::Random ? std::string("Random")
               : info.param == DistanceRepl::LRU  ? std::string("LRU")
                                                  : std::string("TreePLRU");
    });

TEST(DataArray, ChainPlanesOnlyUnderLru)
{
    // 4 d-groups x 64 frames = 256 frames, 4 bitmap words.
    const DataArray random(4, 64, 1, DistanceRepl::Random, 1);
    const DataArray lru(4, 64, 1, DistanceRepl::LRU, 1);
    const DataArray tree(4, 64, 1, DistanceRepl::TreePLRU, 1);
    // Reverse pointers (4 B each) + valid bits.
    EXPECT_EQ(random.hotBytes(), 256u * 4 + 4 * 8);
    // LRU adds the prev/next planes and the linked bitmap ...
    EXPECT_EQ(lru.hotBytes() - random.hotBytes(), 2u * 256 * 4 + 4 * 8);
    // ... tree-PLRU only its node bytes.
    EXPECT_EQ(tree.hotBytes() - random.hotBytes(), 4u * 63);
}

TEST(DataArray, ReversePointerRoundTripsAtFieldLimits)
{
    const std::uint32_t set = DataArray::kMaxSets - 1;
    const std::uint16_t way = DataArray::kMaxWays - 1;
    DataArray d(2, 4, 1, DistanceRepl::Random, 1);
    const std::uint32_t f = d.allocFrame(1, 0);
    d.place(1, f, set, way);
    EXPECT_EQ(d.frame(1, f).set, set);
    EXPECT_EQ(d.frame(1, f).way, way);
    EXPECT_EQ(d.revSetOf(1, f), set);
    EXPECT_EQ(d.revWayOf(1, f), way);
    // A raw write of the limits reads back too, and a swap carries them.
    DataArray::Frame fr;
    fr.set = set;
    fr.way = 0;
    fr.valid = true;
    d.setFrame(0, 2, fr);
    EXPECT_EQ(d.frame(0, 2).set, set);
    EXPECT_EQ(d.frame(0, 2).way, 0u);
    EXPECT_TRUE(d.frame(0, 2).valid);
    fr.set = 0;
    fr.way = way;
    d.setFrame(0, 3, fr);
    EXPECT_EQ(d.frame(0, 3).set, 0u);
    EXPECT_EQ(d.frame(0, 3).way, way);
    d.swapFrames(0, 3, 1, f);
    EXPECT_EQ(d.frame(0, 3).set, set);
    EXPECT_EQ(d.frame(0, 3).way, way);
    EXPECT_EQ(d.frame(1, f).set, 0u);
}

TEST(DataArrayDeath, ReversePointerPastFieldRejected)
{
    DataArray d(1, 4, 1, DistanceRepl::Random, 1);
    DataArray::Frame fr;
    fr.way = DataArray::kMaxWays;
    EXPECT_DEATH(d.setFrame(0, 0, fr), "reverse pointer .* does not fit");
    fr.way = 0;
    fr.set = DataArray::kMaxSets;
    EXPECT_DEATH(d.setFrame(0, 0, fr), "reverse pointer .* does not fit");
    EXPECT_DEATH(d.place(0, d.allocFrame(0, 0), 0, DataArray::kMaxWays),
                 "reverse pointer .* does not fit");
}

TEST(DataArrayDeath, GeometryPastPointerFieldsIsFatal)
{
    // Each check runs before any frame plane is allocated.
    EXPECT_DEATH(DataArray(TagArray::kMaxGroups + 1, 4, 1,
                           DistanceRepl::Random, 1),
                 "does not fit the pointer fields");
    EXPECT_DEATH(DataArray(1, TagArray::kMaxFrames + 1, 1,
                           DistanceRepl::Random, 1),
                 "does not fit the pointer fields");
    // 32 x 2^23 frames still fit a set index; 64 x 2^23 do not.
    EXPECT_DEATH(DataArray(64, TagArray::kMaxFrames / 2, 1,
                           DistanceRepl::Random, 1),
                 "does not fit the pointer fields");
}

} // namespace
} // namespace nurapid
