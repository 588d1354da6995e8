/**
 * @file
 * Reproduces Table 3: the benchmark suite with base-case IPC and L2
 * accesses per kilo-instruction, measured on the conventional L2/L3
 * hierarchy.
 */

#include "bench/bench_util.hh"

using namespace nurapid;

int
main()
{
    benchHeader("Table 3: SPEC2K-stand-in applications — base IPC and "
                "L2 accesses per 1000 instructions",
                "Chishti et al., MICRO-36 2003, Table 3 (paper columns "
                "are the calibration targets of our synthetic profiles)");

    TextTable t;
    t.header({"Benchmark", "Type", "Class", "paper IPC", "ours IPC",
              "paper APKI", "ours APKI", "L2 miss%"});
    // One batch, so the fifteen workloads share the engine's worker
    // pool instead of running one after another.
    const auto &suite = workloadSuite();
    const std::vector<RunMetrics> runs =
        runSuite(OrgSpec::baseline(), suite);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const WorkloadProfile &p = suite[i];
        const RunMetrics &m = runs[i];
        t.row({p.name, p.fp ? "FP" : "Int",
               p.high_load ? "high-load" : "low-load",
               TextTable::num(p.table3_ipc, 1), TextTable::num(m.ipc, 2),
               TextTable::num(p.table3_l2_apki, 0),
               TextTable::num(m.l2_apki, 1),
               TextTable::pct(m.miss_frac)});
    }
    t.print();
    std::printf("\nBenchmark identities are synthetic stand-ins "
                "calibrated to the paper's Table 3 (see DESIGN.md, "
                "substitution table).\n");
    benchFooter();
    return 0;
}
