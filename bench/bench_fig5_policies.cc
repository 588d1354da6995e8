/**
 * @file
 * Reproduces Figure 5: distribution of d-group accesses for the
 * demotion-only, next-fastest and fastest distance-replacement
 * policies (4 x 2 MB NuRAPID, random distance replacement).
 * Exits 1 if the miss counts differ across policies.
 */

#include "bench/bench_util.hh"

using namespace nurapid;

int
main()
{
    benchHeader("Figure 5: d-group access distribution per promotion "
                "policy",
                "paper averages for d-group 1: demotion-only 50%, "
                "next-fastest 84%, fastest 86%; miss rates identical");

    const auto suite = highLoadSuite();
    auto all = runSuites(
        {OrgSpec::nurapidDefault(4, PromotionPolicy::DemotionOnly),
         OrgSpec::nurapidDefault(),
         OrgSpec::nurapidDefault(4, PromotionPolicy::Fastest)}, suite);
    const auto &demo = all[0];
    const auto &next = all[1];
    const auto &fast = all[2];

    TextTable t;
    t.header({"Benchmark", "a:demo g1", "a:g2+", "b:next g1", "b:g2+",
              "c:fast g1", "c:g2+", "miss"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        auto rest = [](const RunMetrics &m) {
            double r = 0;
            for (std::size_t g = 1; g < m.region_frac.size(); ++g)
                r += m.region_frac[g];
            return r;
        };
        t.row({suite[i].name,
               TextTable::pct(demo[i].region_frac[0]),
               TextTable::pct(rest(demo[i])),
               TextTable::pct(next[i].region_frac[0]),
               TextTable::pct(rest(next[i])),
               TextTable::pct(fast[i].region_frac[0]),
               TextTable::pct(rest(fast[i])),
               TextTable::pct(next[i].miss_frac)});
    }
    t.print();

    std::printf("\nAverages (d-group 1 accesses): demotion-only %s, "
                "next-fastest %s, fastest %s (paper: 50%% / 84%% / "
                "86%%)\n",
                TextTable::pct(meanRegionFrac(demo, 0)).c_str(),
                TextTable::pct(meanRegionFrac(next, 0)).c_str(),
                TextTable::pct(meanRegionFrac(fast, 0)).c_str());

    // Invariant the paper calls out: distance replacement never evicts,
    // so miss rates match across policies.
    bool equal = true;
    for (std::size_t i = 0; i < suite.size(); ++i)
        equal &= demo[i].l2_misses == next[i].l2_misses &&
            next[i].l2_misses == fast[i].l2_misses;
    std::printf("Miss counts identical across policies: %s\n",
                equal ? "yes" : "NO (unexpected)");
    benchFooter();
    return equal ? 0 : 1;
}
