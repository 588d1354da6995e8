/**
 * @file
 * The organization shell (mem/organization.hh), checked once over all
 * five organizations: each is built the way the simulator builds it,
 * driven through hits, misses, writebacks and evictions, and then
 * resetStats() must leave every book it keeps at zero.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mem/organization.hh"
#include "sim/config.hh"
#include "sim/system.hh"

namespace nurapid {
namespace {

struct ShellCase
{
    OrgKind kind;
    const char *label;
    std::string name;     //!< expected name()
    std::size_t regions;  //!< expected regionHits() buckets
};

void
PrintTo(const ShellCase &c, std::ostream *os)
{
    *os << c.label;
}

OrgSpec
specFor(const ShellCase &c)
{
    switch (c.kind) {
      case OrgKind::BaseL2L3: return OrgSpec::baseline();
      case OrgKind::DNuca: {
        OrgSpec s = OrgSpec::dnucaSsPerformance();
        s.dnuca.name = c.name;
        return s;
      }
      case OrgKind::SNuca: {
        OrgSpec s = OrgSpec::snucaDefault();
        s.snuca.name = c.name;
        return s;
      }
      case OrgKind::NuRapid: {
        OrgSpec s = OrgSpec::nurapidDefault();
        s.nurapid.name = c.name;
        return s;
      }
      case OrgKind::CoupledSA: {
        OrgSpec s = OrgSpec::coupledSA();
        s.coupled.name = c.name;
        return s;
      }
    }
    return {};
}

class OrganizationShell : public ::testing::TestWithParam<ShellCase>
{
};

TEST_P(OrganizationShell, ResetZeroesEveryBook)
{
    const ShellCase &c = GetParam();
    std::unique_ptr<LowerMemory> lower = makeOrganization(specFor(c));
    auto &org = dynamic_cast<Organization &>(*lower);

    EXPECT_EQ(org.name(), c.name);
    EXPECT_EQ(org.regionHits().buckets(), c.regions);
    ASSERT_NE(org.energyBreakdown(), nullptr);
    EXPECT_EQ(org.energyBreakdown()->data_nj.size(), c.regions);

    // 40 blocks 1 MB apart share one set in every organization (and
    // one S-NUCA bank), so the second pass evicts dirty blocks the
    // first pass wrote; the tail reads its blocks twice, so the second
    // read hits, and L1 writebacks land on absent and resident blocks.
    constexpr Addr kStride = Addr{1} << 20;
    constexpr Addr kBlocks = 40;
    Cycle now = 0;
    unsigned evicted = 0;
    unsigned hits = 0;
    for (Addr i = 0; i < kBlocks; ++i)
        evicted += org.access(i * kStride, AccessType::Write, now += 50)
                       .num_evicted;
    for (Addr i = 0; i < kBlocks; ++i) {
        org.access(i * kStride + kStride / 2, AccessType::Writeback,
                   now += 50);
        evicted += org.access(i * kStride, AccessType::Read, now += 50)
                       .num_evicted;
    }
    for (Addr i = kBlocks - 4; i < kBlocks; ++i) {
        org.access(i * kStride, AccessType::Read, now += 50);
        hits += org.access(i * kStride, AccessType::Read, now += 50).hit;
    }
    org.access((kBlocks - 1) * kStride, AccessType::Writeback, now += 50);

    // The drive reached every book before the reset.
    EXPECT_GT(evicted, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(org.regionHits().total(), 0u);
    EXPECT_GT(org.cacheEnergyNJ(), 0.0);
    EXPECT_GT(org.memory().stats().counterValue("writes"), 0u);
    EXPECT_GT(org.memory().stats().counterValue("reads"), 0u);

    org.resetStats();

    EXPECT_EQ(org.name(), c.name);
    for (const auto &[name, value] : org.stats().counterValues())
        EXPECT_EQ(value, 0u) << name;
    for (const auto &[name, value] : org.memory().stats().counterValues())
        EXPECT_EQ(value, 0u) << "memory." << name;

    const Histogram &h = org.regionHits();
    ASSERT_EQ(h.buckets(), c.regions);
    for (std::size_t b = 0; b < h.buckets(); ++b)
        EXPECT_EQ(h.count(b), 0u) << "bucket " << b;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.clamped(), 0u);

    const EnergyBreakdown &e = *org.energyBreakdown();
    EXPECT_EQ(e.total_nj, 0.0);
    EXPECT_EQ(e.tag_nj, 0.0);
    EXPECT_EQ(e.swap_nj, 0.0);
    EXPECT_EQ(e.writeback_nj, 0.0);
    ASSERT_EQ(e.data_nj.size(), c.regions);
    for (std::size_t r = 0; r < e.data_nj.size(); ++r)
        EXPECT_EQ(e.data_nj[r], 0.0) << "region " << r;
    EXPECT_EQ(org.cacheEnergyNJ(), 0.0);
    EXPECT_EQ(org.dynamicEnergyNJ(), 0.0);

    // The sub-caches' own stat groups reset with their owner.
    if (auto *base = dynamic_cast<ConventionalL2L3 *>(&org)) {
        for (SetAssocCache *level : {&base->l2(), &base->l3()}) {
            for (const auto &[name, value] :
                 level->stats().counterValues())
                EXPECT_EQ(value, 0u) << level->org().name << "." << name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Orgs, OrganizationShell,
    ::testing::Values(
        ShellCase{OrgKind::BaseL2L3, "base", "conventional-l2l3", 2},
        ShellCase{OrgKind::DNuca, "dnuca", "shell-dnuca", 8},
        ShellCase{OrgKind::SNuca, "snuca", "shell-snuca", 8},
        ShellCase{OrgKind::NuRapid, "nurapid", "shell-nurapid", 4},
        ShellCase{OrgKind::CoupledSA, "sa_placement", "shell-coupled", 4}),
    [](const ::testing::TestParamInfo<ShellCase> &info) {
        return std::string(info.param.label);
    });

} // namespace
} // namespace nurapid
