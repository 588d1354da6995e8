/**
 * @file
 * Integration tests: full systems (core + L1s + L2 organization +
 * workload) and the energy model, at reduced simulation lengths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "energy/energy_model.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

namespace nurapid {
namespace {

SimLength
shortLength()
{
    return {60'000, 200'000};
}

TEST(OrgSpec, DescriptionsDistinct)
{
    EXPECT_NE(OrgSpec::baseline().description(),
              OrgSpec::nurapidDefault().description());
    EXPECT_NE(OrgSpec::dnucaSsPerformance().description(),
              OrgSpec::dnucaSsEnergy().description());
    EXPECT_NE(OrgSpec::nurapidDefault(4).description(),
              OrgSpec::nurapidDefault(8).description());
}

TEST(SimLength, EnvScaling)
{
    setenv("NURAPID_SIM_SCALE", "0.5", 1);
    auto len = SimLength::fromEnv();
    EXPECT_EQ(len.warmup_records, 500'000u);
    EXPECT_EQ(len.measure_records, 1'500'000u);
    // A scale that truncates the measured length to zero is refused.
    setenv("NURAPID_SIM_SCALE", "1e-9", 1);
    auto tiny = SimLength::fromEnv();
    EXPECT_EQ(tiny.warmup_records, 1'000'000u);
    EXPECT_EQ(tiny.measure_records, 3'000'000u);
    unsetenv("NURAPID_SIM_SCALE");
    auto len2 = SimLength::fromEnv();
    EXPECT_EQ(len2.warmup_records, 1'000'000u);
}

TEST(System, RunProducesCoherentMetrics)
{
    auto m = runOne(OrgSpec::nurapidDefault(), findProfile("applu"),
                    shortLength());
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_LT(m.ipc, 8.0);
    EXPECT_GT(m.instructions, 0u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.l2_demand, 0u);
    EXPECT_EQ(m.l2_hits + m.l2_misses, m.l2_demand);
    double frac = m.miss_frac;
    for (double f : m.region_frac)
        frac += f;
    EXPECT_NEAR(frac, 1.0, 0.01);
    EXPECT_GT(m.energy.total_nj, 0.0);
    EXPECT_GT(m.energy.edp, 0.0);
}

TEST(System, DistilledRunBuildsNoPackedTrace)
{
    // The distiller generates its records itself; only the live loop
    // reads a packed buffer.
    setenv("NURAPID_DISTILL", "1", 1);
    dropUnusedDistilledTraces();
    dropUnusedPackedTraces();
    {
        System sys(OrgSpec::nurapidDefault(), findProfile("gzip"),
                   SimLength{10'000, 30'000});
        EXPECT_GT(sys.runAll().instructions, 0u);
    }
    EXPECT_EQ(dropUnusedPackedTraces(), 0u)
        << "a distilled run built a packed trace";
    unsetenv("NURAPID_DISTILL");
}

TEST(System, MissCountsMatchAcrossOrganizations)
{
    // All four organizations have 8 MB of on-chip capacity below L1
    // (base: 1 MB L2 + 8 MB L3), and the L1-filtered stream is
    // identical, so total off-chip fills must be very close.
    const auto &prof = findProfile("galgel");
    auto nr = runOne(OrgSpec::nurapidDefault(), prof, shortLength());
    auto dn = runOne(OrgSpec::dnucaSsPerformance(), prof, shortLength());
    EXPECT_NEAR(static_cast<double>(dn.l2_misses),
                static_cast<double>(nr.l2_misses),
                0.15 * nr.l2_misses);
    EXPECT_EQ(nr.l2_demand, dn.l2_demand);
}

TEST(System, NuRapidOutperformsBaseOnHighLoad)
{
    const auto &prof = findProfile("swim");
    auto base = runOne(OrgSpec::baseline(), prof, shortLength());
    auto nr = runOne(OrgSpec::nurapidDefault(), prof, shortLength());
    EXPECT_GT(nr.ipc, base.ipc);
}

TEST(System, IdealBoundsNuRapid)
{
    const auto &prof = findProfile("equake");
    auto nr = runOne(OrgSpec::nurapidDefault(), prof, shortLength());
    auto ideal = runOne(OrgSpec::nurapidIdeal(), prof, shortLength());
    EXPECT_GE(ideal.ipc, nr.ipc * 0.999);
}

TEST(System, NuRapidHasFewerDataArrayAccessesThanDNuca)
{
    // The abstract's "61% fewer d-group accesses" claim, directionally.
    const auto &prof = findProfile("applu");
    auto nr = runOne(OrgSpec::nurapidDefault(), prof, shortLength());
    auto dn = runOne(OrgSpec::dnucaSsPerformance(), prof, shortLength());
    EXPECT_LT(nr.data_array_accesses, dn.data_array_accesses);
    EXPECT_LT(nr.promotions, dn.promotions);
}

TEST(System, NuRapidLowerL2EnergyThanDNuca)
{
    const auto &prof = findProfile("mgrid");
    auto nr = runOne(OrgSpec::nurapidDefault(), prof, shortLength());
    auto dperf = runOne(OrgSpec::dnucaSsPerformance(), prof,
                        shortLength());
    auto den = runOne(OrgSpec::dnucaSsEnergy(), prof, shortLength());
    EXPECT_LT(nr.energy.l2_cache_nj, den.energy.l2_cache_nj);
    EXPECT_LT(den.energy.l2_cache_nj, dperf.energy.l2_cache_nj);
    // The reduction is substantial (paper: 77%); require > 40% even at
    // this reduced simulation length.
    EXPECT_LT(nr.energy.l2_cache_nj, 0.6 * den.energy.l2_cache_nj);
}

TEST(System, CoupledSAKeepsFewerFastHitsThanNuRapid)
{
    // Figure 4's claim: distance-associative placement beats
    // set-associative placement on fastest-d-group hit fraction.
    const auto &prof = findProfile("applu");
    auto sa = runOne(OrgSpec::coupledSA(), prof, shortLength());
    auto nr = runOne(OrgSpec::nurapidDefault(), prof, shortLength());
    EXPECT_GT(nr.region_frac[0], sa.region_frac[0]);
}

TEST(System, DemotionOnlyHasFewerFastHitsThanNextFastest)
{
    // Needs enough accesses for demotion pressure to build up.
    const SimLength len{300'000, 900'000};
    const auto &prof = findProfile("swim");
    auto demo = runOne(
        OrgSpec::nurapidDefault(4, PromotionPolicy::DemotionOnly), prof,
        len);
    auto next = runOne(OrgSpec::nurapidDefault(), prof, len);
    EXPECT_GT(next.region_frac[0], demo.region_frac[0]);
    EXPECT_EQ(demo.l2_misses, next.l2_misses);  // policy-independent
}

TEST(System, DGroupCountTradeoff)
{
    // Figure 7: first-group fraction 2dg > 4dg > 8dg, equal misses.
    // Longer run: capacity pressure must reach the 2 MB d-groups.
    const SimLength len{300'000, 900'000};
    const auto &prof = findProfile("equake");
    auto n2 = runOne(OrgSpec::nurapidDefault(2), prof, len);
    auto n4 = runOne(OrgSpec::nurapidDefault(4), prof, len);
    auto n8 = runOne(OrgSpec::nurapidDefault(8), prof, len);
    EXPECT_GT(n2.region_frac[0], n4.region_frac[0]);
    EXPECT_GT(n4.region_frac[0], n8.region_frac[0]);
    EXPECT_EQ(n2.l2_misses, n4.l2_misses);
    EXPECT_EQ(n4.l2_misses, n8.l2_misses);
    // 8 d-groups swap much more (paper: 2.2x the promotions of 4).
    EXPECT_GT(n8.promotions, n4.promotions);
}

TEST(System, DeterministicAcrossRuns)
{
    const auto &prof = findProfile("vpr");
    auto a = runOne(OrgSpec::nurapidDefault(), prof, shortLength());
    auto b = runOne(OrgSpec::nurapidDefault(), prof, shortLength());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2_hits, b.l2_hits);
    EXPECT_DOUBLE_EQ(a.energy.total_nj, b.energy.total_nj);
}

TEST(Energy, ReportComponentsAddUp)
{
    const auto &prof = findProfile("gzip");
    System sys(OrgSpec::nurapidDefault(), prof, shortLength());
    auto m = sys.runAll();
    const auto &e = m.energy;
    EXPECT_NEAR(e.total_nj,
                e.core_nj + e.l1_nj + e.l2_cache_nj + e.memory_nj,
                1e-6 * e.total_nj);
    EXPECT_GT(e.core_nj, 0.0);
    EXPECT_GT(e.l1_nj, 0.0);
    EXPECT_GT(e.l2_cache_nj, 0.0);
    EXPECT_GE(e.memory_nj, 0.0);
    EXPECT_DOUBLE_EQ(e.edp, e.total_nj * static_cast<double>(e.cycles));
}

TEST(Energy, MeanRelativePerformanceIdentity)
{
    const auto suite = lowLoadSuite();
    auto runs = runSuite(OrgSpec::baseline(), suite, {20'000, 50'000});
    EXPECT_DOUBLE_EQ(meanRelativePerformance(runs, runs), 1.0);
}

TEST(System, SNucaRunsAndSpreadsHitsAcrossRows)
{
    auto m = runOne(OrgSpec::snucaDefault(), findProfile("applu"),
                    shortLength());
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_EQ(m.region_frac.size(), 8u);
    // Static mapping: hits spread over several rows; no row dominates
    // the way d-group 0 does for NuRAPID (the workload's layout, not
    // the cache, decides where hits land).
    int populated = 0;
    double biggest = 0;
    for (double f : m.region_frac) {
        populated += f > 0.02;
        biggest = std::max(biggest, f);
    }
    EXPECT_GE(populated, 3);
    EXPECT_LT(biggest, 0.65);
}

TEST(System, AdaptiveDesignsBeatStaticNuca)
{
    const auto &prof = findProfile("swim");
    const SimLength len{150'000, 450'000};
    auto sn = runOne(OrgSpec::snucaDefault(), prof, len);
    auto nr = runOne(OrgSpec::nurapidDefault(), prof, len);
    EXPECT_GT(nr.ipc, sn.ipc);
    EXPECT_GT(nr.region_frac[0], sn.region_frac[0]);
}

TEST(System, TreePlruDistanceReplacementRunsBetweenRandomAndLru)
{
    const auto &prof = findProfile("equake");
    const SimLength len{300'000, 900'000};
    auto rnd = runOne(OrgSpec::nurapidDefault(
                          4, PromotionPolicy::NextFastest,
                          DistanceRepl::Random), prof, len);
    auto plru = runOne(OrgSpec::nurapidDefault(
                           4, PromotionPolicy::NextFastest,
                           DistanceRepl::TreePLRU), prof, len);
    auto lru = runOne(OrgSpec::nurapidDefault(
                          4, PromotionPolicy::NextFastest,
                          DistanceRepl::LRU), prof, len);
    // Approximate LRU lands at or above random and at or below LRU
    // (with slack for noise at this run length).
    EXPECT_GT(plru.region_frac[0], rnd.region_frac[0] - 0.03);
    EXPECT_LT(plru.region_frac[0], lru.region_frac[0] + 0.03);
    EXPECT_EQ(rnd.l2_misses, plru.l2_misses);
    EXPECT_EQ(plru.l2_misses, lru.l2_misses);
}

TEST(System, FileTraceDrivesACoreLikeTheGenerator)
{
    // Capture a slice of a synthetic stream, then drive two identical
    // systems — one from the generator, one from the file — and demand
    // identical timing.
    const auto &prof = findProfile("gzip");
    const std::string path =
        std::string(::testing::TempDir()) + "/nurapid_sys_trace.bin";
    {
        SyntheticTrace gen(prof);
        captureTrace(gen, path, 150'000);
    }

    auto run = [&](TraceSource &src) {
        System sys(OrgSpec::nurapidDefault(), prof, {0, 0});
        sys.core().run(src, 150'000);
        return sys.core().cycles();
    };
    SyntheticTrace gen(prof);
    FileTraceSource file(path);
    const auto gen_cycles = run(gen);
    const auto file_cycles = run(file);
    EXPECT_EQ(gen_cycles, file_cycles);
    EXPECT_GT(gen_cycles, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace nurapid
