/**
 * @file
 * Packed rank-plane correctness: RankPlane (SWAR, 4-bit fields)
 * against a 64-bit stamp model — the recency encoding the plane
 * replaced — under identical random churn, from one way up to the
 * 16-way cap. The model's ranks (ways with a newer stamp) must match
 * the plane's field by field, and its LRU picks decision by decision.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/rank_plane.hh"

namespace nurapid {
namespace {

/**
 * The recency model PR 8's organizations actually used: one 64-bit
 * stamp per way plus a monotonic clock, LRU = minimum stamp with
 * first-way-wins ties (ties never happen — the clock is monotonic).
 * Initialised with descending stamps so way 0 is MRU, matching
 * RankPlane's rank[w] = w seed.
 */
class StampModel
{
  public:
    StampModel(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), stamps_(std::size_t{sets} * ways)
    {
        for (std::uint32_t s = 0; s < sets; ++s)
            for (std::uint32_t w = 0; w < ways; ++w)
                stamps_[std::size_t{s} * ways + w] = ways - w;
        clock_ = ways + 1;
    }

    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        stamps_[std::size_t{set} * ways_ + way] = clock_++;
    }

    /** Recency rank: how many ways hold a newer stamp (0 = MRU). */
    std::uint32_t
    rankOf(std::uint32_t set, std::uint32_t way) const
    {
        const std::uint64_t *s = &stamps_[std::size_t{set} * ways_];
        std::uint32_t newer = 0;
        for (std::uint32_t w = 0; w < ways_; ++w)
            newer += s[w] > s[way];
        return newer;
    }

    void
    swapWays(std::uint32_t set, std::uint32_t a, std::uint32_t b)
    {
        std::uint64_t *s = &stamps_[std::size_t{set} * ways_];
        std::swap(s[a], s[b]);
    }

    std::uint32_t
    lruWay(std::uint32_t set) const
    {
        return lruWayMasked(set, (std::uint64_t{1} << ways_) - 1);
    }

    std::uint32_t
    lruWayMasked(std::uint32_t set, std::uint64_t mask) const
    {
        const std::uint64_t *s = &stamps_[std::size_t{set} * ways_];
        std::uint32_t best = 0;
        std::uint64_t best_stamp = ~std::uint64_t{0};
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (((mask >> w) & 1) && s[w] < best_stamp) {
                best_stamp = s[w];
                best = w;
            }
        }
        return best;
    }

  private:
    std::uint32_t ways_;
    std::uint64_t clock_;
    std::vector<std::uint64_t> stamps_;
};

TEST(RankPlane, MatchesReferenceAndStampModelUnderChurn)
{
    constexpr std::uint32_t kSets = 16;
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 15u, 16u}) {
        RankPlane plane(kSets, ways);
        StampModel stamps(kSets, ways);
        Rng rng(0x5eedull * ways);

        const std::uint64_t all = (std::uint64_t{1} << ways) - 1;
        for (std::uint32_t s = 0; s < kSets; ++s)
            ASSERT_TRUE(plane.isPermutation(s)) << ways << " ways";

        for (int step = 0; step < 20'000; ++step) {
            const std::uint32_t set = rng.below(kSets);
            const std::uint32_t way = rng.below(ways);
            switch (rng.below(3)) {
              case 0:
                plane.touch(set, way);
                stamps.touch(set, way);
                break;
              case 1: {
                const std::uint32_t other = rng.below(ways);
                plane.swapWays(set, way, other);
                stamps.swapWays(set, way, other);
                break;
              }
              default: {
                // Query-only step: full-set and random-subset LRU.
                ASSERT_EQ(stamps.lruWay(set), plane.lruWay(set))
                    << ways << " ways, step " << step;
                std::uint64_t mask =
                    (rng.below64(all) | (std::uint64_t{1} << way)) & all;
                ASSERT_EQ(stamps.lruWayMasked(set, mask),
                          plane.lruWayMasked(set, mask))
                    << ways << " ways, step " << step;
                break;
              }
            }
            ASSERT_EQ(stamps.rankOf(set, way), plane.rankOf(set, way))
                << ways << " ways, step " << step;
        }
        for (std::uint32_t s = 0; s < kSets; ++s) {
            ASSERT_TRUE(plane.isPermutation(s)) << ways << " ways";
            for (std::uint32_t w = 0; w < ways; ++w)
                ASSERT_EQ(stamps.rankOf(s, w), plane.rankOf(s, w));
        }
    }
}

TEST(RankPlane, TouchOfMruAndDeepLruIsExact)
{
    // Directed edges: repeated MRU touches are no-ops; touching the
    // LRU way rotates the whole permutation by one.
    for (const std::uint32_t ways : {4u, 15u, 16u}) {
        RankPlane plane(1, ways);
        plane.touch(0, 3 % ways);
        const std::uint64_t before =
            plane.rankOf(0, 0) | (plane.rankOf(0, ways - 1) << 8);
        plane.touch(0, 3 % ways);
        plane.touch(0, 3 % ways);
        EXPECT_EQ(before, plane.rankOf(0, 0) |
                              (plane.rankOf(0, ways - 1) << 8));

        const std::uint32_t lru = plane.lruWay(0);
        EXPECT_EQ(plane.rankOf(0, lru), ways - 1);
        plane.touch(0, lru);
        EXPECT_EQ(plane.rankOf(0, lru), 0u);
        EXPECT_TRUE(plane.isPermutation(0));
    }
}

} // namespace
} // namespace nurapid
