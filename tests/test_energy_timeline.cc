/**
 * @file
 * Energy-attribution reconciliation: the per-epoch energy timeline is
 * a *bitwise* sampling of the same accumulators the end-of-run energy
 * report reads. For every organization the final timeline snapshot
 * must equal the EnergyBreakdown fields exactly (no tolerance — the
 * snapshots copy cumulative doubles, so the telescoping epoch deltas
 * re-sum to the end-of-run totals by construction), and the timeline
 * must be identical between the live interpreter and the distilled
 * fast path. Also locks the run-cache bypass marker the
 * exporter writes for observed runs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/obs/export.hh"
#include "sim/runner/run_cache.hh"
#include "sim/runner/run_engine.hh"
#include "sim/system.hh"
#include "trace/distilled_trace.hh"
#include "trace/profiles.hh"

namespace nurapid {
namespace {

/** The five final organizations, in sweep order. */
std::vector<OrgSpec>
allOrgs()
{
    return {OrgSpec::baseline(), OrgSpec::nurapidDefault(),
            OrgSpec::dnucaSsPerformance(), OrgSpec::coupledSA(),
            OrgSpec::snucaDefault()};
}

ObsConfig
metricsOnly(std::uint64_t interval = 4096)
{
    ObsConfig cfg;
    cfg.record_metrics = true;
    cfg.interval = interval;
    return cfg;
}

struct EnergyRun
{
    RunMetrics metrics;
    std::vector<IntervalSnapshot> timeline;
    EnergyBreakdown breakdown{0};  //!< copy of the org's accumulator
    double lower_nj = 0;           //!< off-chip share at end of run
};

/** Observed run with the distilled fast path forced on or off. */
EnergyRun
observedRun(const OrgSpec &spec, const std::string &profile,
            const SimLength &len, bool distill)
{
    ::setenv("NURAPID_DISTILL", distill ? "1" : "0", 1);
    System sys(spec, findProfile(profile), len);
    sys.enableObservability(metricsOnly());
    EnergyRun run;
    run.metrics = sys.runAll();
    run.timeline = sys.observabilityRecorder()->timeline();
    run.breakdown = *sys.lower().energyBreakdown();
    run.lower_nj =
        sys.lower().dynamicEnergyNJ() - sys.lower().cacheEnergyNJ();
    ::unsetenv("NURAPID_DISTILL");
    return run;
}

void
expectSameEnergyTimeline(const std::vector<IntervalSnapshot> &a,
                         const std::vector<IntervalSnapshot> &b,
                         const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what << ": epoch counts differ";
    for (std::size_t i = 0; i < a.size(); ++i) {
        const IntervalSnapshot &x = a[i];
        const IntervalSnapshot &y = b[i];
        ASSERT_EQ(x.has_energy, y.has_energy) << what << " epoch " << i;
        EXPECT_EQ(x.energy_total_nj, y.energy_total_nj)
            << what << " epoch " << i;
        EXPECT_EQ(x.energy_tag_nj, y.energy_tag_nj)
            << what << " epoch " << i;
        EXPECT_EQ(x.energy_swap_nj, y.energy_swap_nj)
            << what << " epoch " << i;
        EXPECT_EQ(x.energy_writeback_nj, y.energy_writeback_nj)
            << what << " epoch " << i;
        EXPECT_EQ(x.energy_data_nj, y.energy_data_nj)
            << what << " epoch " << i;
        EXPECT_EQ(x.energy_lower_nj, y.energy_lower_nj)
            << what << " epoch " << i;
    }
}

// The final snapshot is a bitwise image of the organization's energy
// accumulator, and the total reconciles exactly with the end-of-run
// energy report, for every organization. EXPECT_EQ on doubles is
// deliberate: the contract is bit-identity, not closeness.
TEST(EnergyTimeline, FinalSnapshotReconcilesWithRunTotalsForAllOrgs)
{
    const SimLength len{10'000, 50'000};
    for (const OrgSpec &spec : allOrgs()) {
        const EnergyRun run =
            observedRun(spec, "mcf", len, distillEnabled());
        const std::string what = spec.description();
        ASSERT_GE(run.timeline.size(), 2u) << what;
        const IntervalSnapshot &last = run.timeline.back();
        ASSERT_TRUE(last.has_energy) << what;

        const EnergyBreakdown &bd = run.breakdown;
        EXPECT_EQ(last.energy_total_nj, bd.total_nj) << what;
        EXPECT_EQ(last.energy_tag_nj, bd.tag_nj) << what;
        EXPECT_EQ(last.energy_swap_nj, bd.swap_nj) << what;
        EXPECT_EQ(last.energy_writeback_nj, bd.writeback_nj) << what;
        EXPECT_EQ(last.energy_data_nj, bd.data_nj) << what;

        // total_nj IS cacheEnergyNJ(), which IS the report's L2 slice;
        // the sampled off-chip share is the report's memory slice.
        EXPECT_EQ(last.energy_total_nj, run.metrics.energy.l2_cache_nj)
            << what;
        EXPECT_EQ(last.energy_lower_nj, run.metrics.energy.memory_nj)
            << what;

        // Components never exceed the total they feed (each charge
        // adds the same amount to both sides).
        double parts = bd.tag_nj + bd.swap_nj + bd.writeback_nj;
        for (double d : bd.data_nj) {
            EXPECT_GE(d, 0.0) << what;
            parts += d;
        }
        EXPECT_LE(parts, bd.total_nj * (1 + 1e-12)) << what;
        EXPECT_GT(bd.total_nj, 0.0) << what;
    }
}

// Epoch energy samples are cumulative and nondecreasing, so render
// time deltas (epoch N minus epoch N-1) are always well defined.
TEST(EnergyTimeline, CumulativeSamplesAreMonotone)
{
    const EnergyRun run =
        observedRun(OrgSpec::nurapidDefault(), "art",
                    SimLength{10'000, 50'000}, distillEnabled());
    ASSERT_GE(run.timeline.size(), 2u);
    for (std::size_t i = 1; i < run.timeline.size(); ++i) {
        const IntervalSnapshot &p = run.timeline[i - 1];
        const IntervalSnapshot &s = run.timeline[i];
        EXPECT_GE(s.energy_total_nj, p.energy_total_nj) << i;
        EXPECT_GE(s.energy_lower_nj, p.energy_lower_nj) << i;
        ASSERT_EQ(s.energy_data_nj.size(), p.energy_data_nj.size());
        for (std::size_t r = 0; r < s.energy_data_nj.size(); ++r)
            EXPECT_GE(s.energy_data_nj[r], p.energy_data_nj[r]) << i;
    }
}

// The distilled fast path must attribute energy exactly like the live
// interpreter, epoch by epoch — not just in the final totals.
TEST(EnergyTimeline, LiveAndDistilledTimelinesAreBitIdentical)
{
    if (!distillEnabled())
        GTEST_SKIP() << "distilled fast path disabled "
                        "(NURAPID_DISTILL=0)";
    const SimLength len{20'000, 60'000};
    for (const OrgSpec &spec : allOrgs()) {
        const EnergyRun live = observedRun(spec, "swim", len, false);
        const EnergyRun fast = observedRun(spec, "swim", len, true);
        expectSameEnergyTimeline(live.timeline, fast.timeline,
                                 spec.description());
        EXPECT_TRUE(identicalMetrics(live.metrics, fast.metrics))
            << spec.description();
    }
}

// An observed run through the engine is marked as a cache bypass in
// its JSONL header, and every exported epoch carries the energy
// object the report's timeline section reads.
TEST(EnergyTimeline, EngineMarksBypassAndExportsEnergyPerEpoch)
{
    RunEngineOptions opts;
    opts.jobs = 1;
    opts.use_cache = true;
    RunEngine engine(opts);
    RunRequest observed{OrgSpec::nurapidDefault(), findProfile("twolf"),
                        SimLength{2'000, 8'000}, ObsConfig{}};
    observed.obs.record_metrics = true;
    observed.obs.interval = 1024;
    observed.obs.metrics_path =
        ::testing::TempDir() + "energy_bypass_metrics.jsonl";

    const RunMetrics m = engine.runMany({observed}).front();
    EXPECT_FALSE(m.from_cache);
    ASSERT_EQ(m.metrics_file, observed.obs.metrics_path);

    MetricsDoc doc;
    std::string err;
    ASSERT_TRUE(readJsonlFile(observed.obs.metrics_path, doc, &err))
        << err;
    EXPECT_TRUE(doc.meta.get("run_cache_bypassed").asBool());
    ASSERT_GT(doc.epochs.size(), 0u);
    for (const Json &e : doc.epochs) {
        ASSERT_TRUE(e.has("energy"));
        const Json &en = e.get("energy");
        EXPECT_TRUE(en.has("total_nj"));
        EXPECT_TRUE(en.has("tag_nj"));
        EXPECT_TRUE(en.has("data_nj"));
        EXPECT_TRUE(en.has("lower_nj"));
    }

    // A run that never touches the engine's cache machinery (direct
    // System use) is not marked.
    System sys(observed.spec, observed.profile, observed.length);
    ObsConfig direct = metricsOnly(1024);
    direct.metrics_path = ::testing::TempDir() + "energy_direct.jsonl";
    sys.enableObservability(direct);
    (void)sys.runAll();
    MetricsDoc plain;
    ASSERT_TRUE(readJsonlFile(direct.metrics_path, plain, &err)) << err;
    EXPECT_FALSE(plain.meta.has("run_cache_bypassed"));
}

} // namespace
} // namespace nurapid
