/**
 * @file
 * Differential tests: degenerate configurations of the NUCA caches
 * must behave *exactly* like the plain set-associative reference.
 *
 * With a single d-group there is no distance dimension: placement,
 * promotion and distance replacement all collapse, and the NuRAPID /
 * coupled caches reduce to an ordinary LRU set-associative cache. Any
 * divergence in per-access hit/miss behaviour is a bug in the pointer
 * machinery, not a modeling choice.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/set_assoc_cache.hh"
#include "nurapid/coupled_nuca.hh"
#include "nurapid/nurapid_cache.hh"
#include "timing/geometry.hh"

namespace nurapid {
namespace {

const SramMacroModel &
model()
{
    static SramMacroModel m(TechParams::the70nm());
    return m;
}

constexpr std::uint64_t kCapacity = 64 * 1024;
constexpr std::uint32_t kAssoc = 4;
constexpr std::uint32_t kBlock = 128;

CacheOrg
referenceOrg()
{
    return {"ref", kCapacity, kAssoc, kBlock};
}

/** Drives reference and candidate with one random stream; every access
 *  must agree on hit/miss. */
template <typename Candidate>
void
compareAgainstReference(Candidate &candidate, std::uint64_t seed,
                        int accesses)
{
    SetAssocCache reference(referenceOrg());
    Rng rng(seed);
    Cycle now = 0;
    for (int i = 0; i < accesses; ++i) {
        const Addr a = rng.below64(4 * kCapacity) & ~Addr{kBlock - 1};
        const bool write = rng.chance(0.3);
        now += rng.below(40);
        const bool ref_hit = reference.access(a, write).hit;
        const bool cand_hit =
            candidate
                .access(a, write ? AccessType::Write : AccessType::Read,
                        now)
                .hit;
        ASSERT_EQ(cand_hit, ref_hit) << "diverged at access " << i;
    }
}

class DifferentialSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DifferentialSeeds, SingleDGroupNuRapidEqualsSetAssociative)
{
    NuRapidCache::Params p;
    p.capacity_bytes = kCapacity;
    p.assoc = kAssoc;
    p.block_bytes = kBlock;
    p.num_dgroups = 1;
    NuRapidCache c(model(), p);
    compareAgainstReference(c, GetParam(), 30000);
    EXPECT_TRUE(c.checkInvariants());
    // With one d-group nothing can be promoted or demoted.
    EXPECT_EQ(c.stats().counterValue("promotions"), 0u);
    EXPECT_EQ(c.stats().counterValue("demotions"), 0u);
}

TEST_P(DifferentialSeeds, SingleDGroupCoupledEqualsSetAssociative)
{
    CoupledNucaCache::Params p;
    p.capacity_bytes = kCapacity;
    p.assoc = kAssoc;
    p.block_bytes = kBlock;
    p.num_dgroups = 1;
    CoupledNucaCache c(model(), p);
    compareAgainstReference(c, GetParam(), 30000);
}

TEST_P(DifferentialSeeds, MultiDGroupNuRapidMissesMatchSetAssociative)
{
    // Even with 4 d-groups, *data replacement* is plain set-LRU, so
    // the hit/miss sequence still matches the reference exactly —
    // distance replacement only moves blocks, never evicts them.
    NuRapidCache::Params p;
    p.capacity_bytes = kCapacity;
    p.assoc = kAssoc;
    p.block_bytes = kBlock;
    p.num_dgroups = 4;
    NuRapidCache c(model(), p);
    compareAgainstReference(c, GetParam(), 30000);
    EXPECT_TRUE(c.checkInvariants());
}

TEST_P(DifferentialSeeds, PromotionPolicyNeverChangesHitMiss)
{
    // Same stream through demotion-only and fastest: identical
    // hit/miss outcomes access by access.
    auto make_params = [](PromotionPolicy promo) {
        NuRapidCache::Params p;
        p.capacity_bytes = kCapacity;
        p.assoc = kAssoc;
        p.block_bytes = kBlock;
        p.num_dgroups = 4;
        p.promotion = promo;
        return p;
    };
    NuRapidCache a(model(), make_params(PromotionPolicy::DemotionOnly));
    NuRapidCache b(model(), make_params(PromotionPolicy::Fastest));
    Rng rng(GetParam() + 99);
    Cycle now = 0;
    for (int i = 0; i < 30000; ++i) {
        const Addr addr =
            rng.below64(4 * kCapacity) & ~Addr{kBlock - 1};
        now += rng.below(40);
        const bool ha = a.access(addr, AccessType::Read, now).hit;
        const bool hb = b.access(addr, AccessType::Read, now).hit;
        ASSERT_EQ(ha, hb) << "policies diverged at access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeeds,
                         ::testing::Values(1ull, 42ull, 20260706ull));

} // namespace
} // namespace nurapid
