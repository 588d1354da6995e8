/** @file Unit tests for the deterministic PCG32 generator. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"

namespace nurapid {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    std::vector<std::uint32_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next());
    a.reseed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

class RngBoundTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(RngBoundTest, BelowStaysInRange)
{
    Rng r(123);
    const std::uint32_t bound = GetParam();
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(bound), bound);
}

TEST_P(RngBoundTest, BelowCoversRange)
{
    Rng r(99);
    const std::uint32_t bound = GetParam();
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 5000 && seen.size() < bound; ++i)
        seen.insert(r.below(bound));
    if (bound <= 64) {
        EXPECT_EQ(seen.size(), bound);
    }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 64u, 1000u));

TEST(Rng, Below64LargeBounds)
{
    Rng r(5);
    const std::uint64_t bound = (1ull << 40) + 12345;
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below64(bound), bound);
}

TEST(Rng, Below64WideDrawIsPinned)
{
    // A bound above 2^32 composes two 32-bit draws, the first into the
    // high word. These values pin that order so it cannot depend on
    // how a compiler sequences the two draws.
    Rng r(2024);
    const std::uint64_t bound = std::uint64_t{1} << 40;
    const std::uint64_t expected[] = {1011114107987ull, 452040329924ull,
                                      35739819711ull, 940897330616ull,
                                      549533361019ull, 386238594356ull};
    for (const std::uint64_t e : expected)
        EXPECT_EQ(r.below64(bound), e);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Rng, StreamsAreIndependent)
{
    Rng a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

} // namespace
} // namespace nurapid
