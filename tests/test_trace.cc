/** @file Tests for workload profiles and the synthetic generator. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/profiles.hh"
#include "trace/synthetic.hh"

namespace nurapid {
namespace {

TEST(Profiles, SuiteHasFifteenBenchmarks)
{
    // The paper evaluates 15 SPEC2K applications (Table 3).
    EXPECT_EQ(workloadSuite().size(), 15u);
    EXPECT_EQ(highLoadSuite().size() + lowLoadSuite().size(), 15u);
    EXPECT_GE(highLoadSuite().size(), 10u);
    EXPECT_GE(lowLoadSuite().size(), 2u);
}

TEST(Profiles, NamesUniqueAndFindable)
{
    std::set<std::string> names;
    for (const auto &p : workloadSuite()) {
        EXPECT_TRUE(names.insert(p.name).second) << p.name;
        EXPECT_EQ(findProfile(p.name).name, p.name);
    }
}

TEST(Profiles, WeightsWellFormed)
{
    for (const auto &p : workloadSuite()) {
        double total = 0;
        for (const auto &l : p.layers) {
            EXPECT_GT(l.bytes, 0u) << p.name;
            EXPECT_GE(l.weight, 0.0) << p.name;
            EXPECT_GE(l.segments, 1u) << p.name;
            total += l.weight;
        }
        EXPECT_LE(total, 1.0 + 1e-9) << p.name;
        EXPECT_GT(p.table3_l2_apki, 0.0) << p.name;
    }
}

TEST(Profiles, HighLoadHasHigherApkiTargets)
{
    double high_min = 1e9, low_max = 0;
    for (const auto &p : workloadSuite()) {
        if (p.high_load)
            high_min = std::min(high_min, p.table3_l2_apki);
        else
            low_max = std::max(low_max, p.table3_l2_apki);
    }
    EXPECT_GT(high_min, low_max);
}

TEST(ProfilesDeath, UnknownNameIsFatal)
{
    EXPECT_DEATH(findProfile("quake3"), "no workload profile");
}

TEST(SyntheticDeath, GapsPast16BitsAreFatal)
{
    // Gaps reach 1.5x the mean of 1000 / mem_refs_per_kinst, so below
    // ~0.0229 refs per kinst they would overflow the 16-bit inst_gap.
    WorkloadProfile p = findProfile("gzip");
    p.mem_refs_per_kinst = 0.02;
    EXPECT_DEATH(SyntheticTrace{p}, "past 16 bits");
    p.mem_refs_per_kinst = 0.03;
    SyntheticTrace t(p);
    TraceRecord r;
    ASSERT_TRUE(t.next(r));
}

TEST(Synthetic, DeterministicStream)
{
    const auto &p = findProfile("applu");
    SyntheticTrace a(p), b(p);
    TraceRecord ra, rb;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.op, rb.op);
        EXPECT_EQ(ra.inst_gap, rb.inst_gap);
    }
}

TEST(Synthetic, ResetReproducesStream)
{
    // Long enough for working-set drift (every drift_period deep
    // references) to have moved segment bases before the reset.
    const auto &p = findProfile("mcf");
    ASSERT_GT(p.drift_period, 0u);
    constexpr int kRecords = 200000;
    SyntheticTrace t(p);
    std::vector<Addr> first;
    TraceRecord r;
    for (int i = 0; i < kRecords; ++i) {
        t.next(r);
        first.push_back(r.addr);
    }
    t.reset();
    int differing = 0;
    int first_diff = -1;
    for (int i = 0; i < kRecords; ++i) {
        t.next(r);
        if (r.addr != first[i] && differing++ == 0)
            first_diff = i;
    }
    EXPECT_EQ(differing, 0) << "first at record " << first_diff;
}

TEST(Synthetic, SeedMixDecorrelates)
{
    const auto &p = findProfile("applu");
    SyntheticTrace a(p, 0), b(p, 1);
    TraceRecord ra, rb;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a.next(ra);
        b.next(rb);
        same += ra.addr == rb.addr;
    }
    EXPECT_LT(same, 100);
}

TEST(Synthetic, StoreFractionApproximatesProfile)
{
    const auto &p = findProfile("bzip2");
    SyntheticTrace t(p);
    TraceRecord r;
    int stores = 0, data = 0;
    for (int i = 0; i < 50000; ++i) {
        t.next(r);
        if (r.op == TraceOp::Ifetch)
            continue;
        ++data;
        stores += r.op == TraceOp::Store;
    }
    // Chase bursts are load-only, so the measured rate sits at or a
    // little under the configured fraction.
    EXPECT_NEAR(stores / double(data), p.store_frac, 0.08);
}

TEST(Synthetic, MeanInstGapMatchesRefRate)
{
    const auto &p = findProfile("galgel");
    SyntheticTrace t(p);
    TraceRecord r;
    double insts = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        t.next(r);
        insts += r.inst_gap + 1;
    }
    const double refs_per_kinst = 1000.0 * n / insts;
    // The realized rate sits near the configured one (the reference
    // record itself counts as an instruction, pulling it slightly
    // below; chase bursts pull it up).
    EXPECT_GT(refs_per_kinst, p.mem_refs_per_kinst * 0.7);
    EXPECT_LT(refs_per_kinst, p.mem_refs_per_kinst * 2.5);
}

TEST(Synthetic, BranchesPresentWithOutcomes)
{
    const auto &p = findProfile("parser");
    SyntheticTrace t(p);
    TraceRecord r;
    int branches = 0, taken = 0;
    std::set<std::uint32_t> pcs;
    for (int i = 0; i < 50000; ++i) {
        t.next(r);
        if (r.has_branch) {
            ++branches;
            taken += r.branch_taken;
            pcs.insert(r.branch_pc);
        }
    }
    EXPECT_GT(branches, 10000);
    EXPECT_GT(pcs.size(), 100u);          // many static branches
    EXPECT_GT(taken, branches / 4);       // mixed outcomes
    EXPECT_LT(taken, branches);
}

TEST(Synthetic, ChaseBurstsAreDependentLoads)
{
    const auto &p = findProfile("mcf");  // highest dep_frac
    SyntheticTrace t(p);
    TraceRecord r;
    int dependent = 0;
    for (int i = 0; i < 50000; ++i) {
        t.next(r);
        if (r.depends_on_prev) {
            ++dependent;
            EXPECT_EQ(r.op, TraceOp::Load);
        }
    }
    EXPECT_GT(dependent, 500);
}

TEST(Synthetic, IfetchOnlyWhenConfigured)
{
    SyntheticTrace with(findProfile("parser"));
    SyntheticTrace without(findProfile("applu"));
    TraceRecord r;
    int wi = 0, wo = 0;
    for (int i = 0; i < 30000; ++i) {
        with.next(r);
        wi += r.op == TraceOp::Ifetch;
        without.next(r);
        wo += r.op == TraceOp::Ifetch;
    }
    EXPECT_GT(wi, 0);
    EXPECT_EQ(wo, 0);
}

TEST(Synthetic, AddressesStayInLayerRegions)
{
    const auto &p = findProfile("apsi");
    SyntheticTrace t(p);
    TraceRecord r;
    for (int i = 0; i < 50000; ++i) {
        t.next(r);
        // All data addresses live in the synthetic layout's regions
        // (above 2 GB for layers, the cold region, or the code region).
        if (r.op != TraceOp::Ifetch) {
            EXPECT_GE(r.addr, Addr{2} << 30);
        }
    }
}

TEST(Synthetic, DriftRelocatesHotSegments)
{
    auto p = findProfile("applu");
    p.drift_period = 500;  // aggressive drift for the test
    SyntheticTrace t(p);
    TraceRecord r;
    std::set<Addr> hot_segments_seen;
    const std::uint64_t seg_bytes =
        p.layers[1].bytes / p.layers[1].segments;
    for (int i = 0; i < 200000; ++i) {
        t.next(r);
        if (r.op != TraceOp::Ifetch && r.addr >= (Addr{3} << 30) &&
            r.addr < (Addr{4} << 30)) {
            hot_segments_seen.insert(r.addr / seg_bytes);
        }
    }
    // With relocations, far more distinct segment slots are touched
    // than the layer's static segment count.
    EXPECT_GT(hot_segments_seen.size(), p.layers[1].segments * 2);
}

} // namespace
} // namespace nurapid
