/**
 * @file
 * Golden end-to-end counters: fixed-seed small runs across all five
 * final organizations with the exact hit/miss/promotion/writeback
 * counters checked in. Any change to these numbers is a change to
 * simulated behavior — intentional ones must regenerate the table
 * (run the suite with NURAPID_GOLDEN_PRINT=1 and paste the output).
 * Stale caches need no action: the source edit changes modelDigest(),
 * which leads every run-cache and .dtc key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace/profiles.hh"

namespace nurapid {
namespace {

struct Golden
{
    const char *org;
    const char *workload;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t l2_demand;
    std::uint64_t l2_hits;
    std::uint64_t l2_misses;
    std::uint64_t promotions;
    std::uint64_t demotions;
    std::uint64_t block_moves;
    std::uint64_t data_array_accesses;
};

OrgSpec
specFor(const std::string &org)
{
    if (org == "base")
        return OrgSpec::baseline();
    if (org == "nurapid")
        return OrgSpec::nurapidDefault();
    if (org == "dnuca")
        return OrgSpec::dnucaSsPerformance();
    if (org == "sa-place")
        return OrgSpec::coupledSA();
    if (org == "snuca")
        return OrgSpec::snucaDefault();
    ADD_FAILURE() << "unknown org tag " << org;
    return OrgSpec::baseline();
}

void
checkGolden(const Golden &g)
{
    const SimLength length{250'000, 750'000};
    System sys(specFor(g.org), findProfile(g.workload), length);
    const RunMetrics m = sys.runAll();

    if (std::getenv("NURAPID_GOLDEN_PRINT")) {
        std::printf("    {\"%s\", \"%s\", %lluull, %lluull, %lluull, "
                    "%lluull, %lluull, %lluull, %lluull, %lluull, "
                    "%lluull},\n",
                    g.org, g.workload,
                    static_cast<unsigned long long>(m.cycles),
                    static_cast<unsigned long long>(m.instructions),
                    static_cast<unsigned long long>(m.l2_demand),
                    static_cast<unsigned long long>(m.l2_hits),
                    static_cast<unsigned long long>(m.l2_misses),
                    static_cast<unsigned long long>(m.promotions),
                    static_cast<unsigned long long>(m.demotions),
                    static_cast<unsigned long long>(m.block_moves),
                    static_cast<unsigned long long>(
                        m.data_array_accesses));
        return;
    }

    const std::string what =
        std::string(g.org) + " / " + g.workload;
    EXPECT_EQ(m.cycles, g.cycles) << what;
    EXPECT_EQ(m.instructions, g.instructions) << what;
    EXPECT_EQ(m.l2_demand, g.l2_demand) << what;
    EXPECT_EQ(m.l2_hits, g.l2_hits) << what;
    EXPECT_EQ(m.l2_misses, g.l2_misses) << what;
    EXPECT_EQ(m.promotions, g.promotions) << what;
    EXPECT_EQ(m.demotions, g.demotions) << what;
    EXPECT_EQ(m.block_moves, g.block_moves) << what;
    EXPECT_EQ(m.data_array_accesses, g.data_array_accesses) << what;
}

// Generated with NURAPID_GOLDEN_PRINT=1 on the seed trace pipeline;
// columns: cycles, instructions, l2_demand, l2_hits, l2_misses,
// promotions, demotions, block_moves, data_array_accesses.
const Golden kGoldens[] = {
    {"base", "applu", 4559713ull, 2515468ull, 78762ull, 61918ull, 16844ull, 0ull, 0ull, 0ull, 0ull},
    {"nurapid", "applu", 4169175ull, 2515468ull, 78762ull, 61912ull, 16850ull, 8138ull, 20712ull, 28850ull, 169611ull},
    {"dnuca", "applu", 4294677ull, 2515468ull, 78762ull, 61921ull, 16841ull, 32809ull, 0ull, 65618ull, 1042668ull},
    {"sa-place", "applu", 4210704ull, 2515468ull, 78762ull, 61912ull, 16850ull, 13676ull, 31558ull, 45234ull, 202379ull},
    {"snuca", "applu", 8838189ull, 2515468ull, 78762ull, 31976ull, 46786ull, 0ull, 0ull, 0ull, 0ull},
    {"base", "mcf", 9957727ull, 2521341ull, 132528ull, 110731ull, 21797ull, 0ull, 0ull, 0ull, 0ull},
    {"nurapid", "mcf", 9012052ull, 2521341ull, 132528ull, 110734ull, 21794ull, 22469ull, 50518ull, 72987ull, 325229ull},
    {"dnuca", "mcf", 9255618ull, 2521341ull, 132528ull, 110866ull, 21662ull, 54585ull, 0ull, 109170ull, 1668599ull},
    {"sa-place", "mcf", 9057001ull, 2521341ull, 132528ull, 110734ull, 21794ull, 25106ull, 56419ull, 81525ull, 342305ull},
    {"snuca", "mcf", 18655164ull, 2521341ull, 132528ull, 58716ull, 73812ull, 0ull, 0ull, 0ull, 0ull},
    {"base", "twolf", 4131769ull, 2516098ull, 56330ull, 50219ull, 6111ull, 0ull, 0ull, 0ull, 0ull},
    {"nurapid", "twolf", 4007275ull, 2516098ull, 56330ull, 50219ull, 6111ull, 0ull, 0ull, 0ull, 76400ull},
    {"dnuca", "twolf", 4204975ull, 2516098ull, 56330ull, 50219ull, 6111ull, 31911ull, 0ull, 63822ull, 744955ull},
    {"sa-place", "twolf", 4029345ull, 2516098ull, 56330ull, 50219ull, 6111ull, 5182ull, 7676ull, 12858ull, 102116ull},
    {"snuca", "twolf", 8594701ull, 2516098ull, 56330ull, 23655ull, 32675ull, 0ull, 0ull, 0ull, 0ull},
};

TEST(GoldenMetrics, FiveOrganizationsMatchCheckedInCounters)
{
    for (const Golden &g : kGoldens)
        checkGolden(g);
}

} // namespace
} // namespace nurapid
