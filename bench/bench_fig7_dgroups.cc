/**
 * @file
 * Reproduces Figure 7: distribution of d-group accesses for NuRAPID
 * with 2, 4 and 8 d-groups (next-fastest, random distance repl).
 * Exits 1 if the miss counts differ across d-group counts.
 */

#include "bench/bench_util.hh"

using namespace nurapid;

int
main()
{
    benchHeader("Figure 7: d-group access distribution for 2/4/8 "
                "d-groups",
                "paper averages for first-d-group accesses: 90% (2dg), "
                "85% (4dg), 77% (8dg); identical miss rates");

    const auto suite = highLoadSuite();
    auto all = runSuites({OrgSpec::nurapidDefault(2),
                          OrgSpec::nurapidDefault(4),
                          OrgSpec::nurapidDefault(8)}, suite);
    const auto &n2 = all[0];
    const auto &n4 = all[1];
    const auto &n8 = all[2];

    auto rest = [](const RunMetrics &m) {
        double r = 0;
        for (std::size_t g = 1; g < m.region_frac.size(); ++g)
            r += m.region_frac[g];
        return r;
    };

    TextTable t;
    t.header({"Benchmark", "2dg:g1", "2dg:rest", "4dg:g1", "4dg:rest",
              "8dg:g1", "8dg:rest", "miss"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        t.row({suite[i].name,
               TextTable::pct(n2[i].region_frac[0]),
               TextTable::pct(rest(n2[i])),
               TextTable::pct(n4[i].region_frac[0]),
               TextTable::pct(rest(n4[i])),
               TextTable::pct(n8[i].region_frac[0]),
               TextTable::pct(rest(n8[i])),
               TextTable::pct(n4[i].miss_frac)});
    }
    t.print();

    std::printf("\nAverages (first-d-group): 2dg %s, 4dg %s, 8dg %s "
                "(paper: 90%% / 85%% / 77%%)\n",
                TextTable::pct(meanRegionFrac(n2, 0)).c_str(),
                TextTable::pct(meanRegionFrac(n4, 0)).c_str(),
                TextTable::pct(meanRegionFrac(n8, 0)).c_str());

    // Paper: the 8-d-group cache incurs ~2.2x the promotion swaps of
    // the 4-d-group cache.
    double promo4 = 0, promo8 = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        promo4 += static_cast<double>(n4[i].promotions);
        promo8 += static_cast<double>(n8[i].promotions);
    }
    std::printf("Promotion swaps, 8dg vs 4dg: %.2fx (paper: 2.2x)\n",
                promo4 > 0 ? promo8 / promo4 : 0.0);

    // The tag side ignores data placement, so the d-group count cannot
    // change which references miss.
    bool equal = true;
    for (std::size_t i = 0; i < suite.size(); ++i)
        equal &= n2[i].l2_misses == n4[i].l2_misses &&
            n4[i].l2_misses == n8[i].l2_misses;
    std::printf("Miss counts identical across d-group counts: %s\n",
                equal ? "yes" : "NO (unexpected)");
    benchFooter();
    return equal ? 0 : 1;
}
