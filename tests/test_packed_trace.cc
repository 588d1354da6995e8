/**
 * @file
 * Packed-trace tests: the pre-generated buffer must replay
 * record-for-record identically to live SyntheticTrace generation for
 * every workload profile (this is what makes the devirtualized sweep
 * path bit-identical to the original), the process-wide registry must
 * share and extend buffers correctly, and RunEngine workers sharing
 * one buffer must produce bit-identical metrics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/runner/run_engine.hh"
#include "sim/system.hh"
#include "trace/packed_trace.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"

namespace nurapid {
namespace {

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 const char *what, std::uint64_t index)
{
    ASSERT_EQ(a.addr, b.addr) << what << " record " << index;
    ASSERT_EQ(a.op, b.op) << what << " record " << index;
    ASSERT_EQ(a.inst_gap, b.inst_gap) << what << " record " << index;
    ASSERT_EQ(a.depends_on_prev, b.depends_on_prev)
        << what << " record " << index;
    ASSERT_EQ(a.latency_critical, b.latency_critical)
        << what << " record " << index;
    ASSERT_EQ(a.has_branch, b.has_branch) << what << " record " << index;
    ASSERT_EQ(a.branch_taken, b.branch_taken)
        << what << " record " << index;
    ASSERT_EQ(a.branch_pc, b.branch_pc) << what << " record " << index;
}

TEST(PackedTrace, ReplayMatchesLiveGenerationForEveryWorkload)
{
    constexpr std::uint64_t kRecords = 30'000;
    for (const WorkloadProfile &prof : workloadSuite()) {
        const PackedTrace packed(prof, kRecords);
        ASSERT_EQ(packed.size(), kRecords) << prof.name;

        SyntheticTrace live(prof);
        PackedTrace::Cursor cur = packed.cursorAll();
        TraceRecord a, b;
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            ASSERT_TRUE(cur.next(a)) << prof.name;
            ASSERT_TRUE(live.next(b)) << prof.name;
            expectSameRecord(a, b, prof.name.c_str(), i);
        }
        EXPECT_FALSE(cur.next(a)) << prof.name
            << ": cursor must drain after its range";
        EXPECT_EQ(cur.remaining(), 0u);
    }
}

TEST(PackedTrace, ExtensionEqualsOneLongerGeneration)
{
    const WorkloadProfile prof = findProfile("mcf");
    const PackedTrace prefix(prof, 10'000);
    const PackedTrace extended(prefix, 25'000);
    const PackedTrace fresh(prof, 25'000);

    ASSERT_EQ(extended.size(), 25'000u);
    PackedTrace::Cursor a = extended.cursorAll();
    PackedTrace::Cursor b = fresh.cursorAll();
    TraceRecord ra, rb;
    for (std::uint64_t i = 0; i < 25'000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        expectSameRecord(ra, rb, "extension", i);
    }
}

TEST(PackedTrace, CursorRangeReplaysTheMiddleOfTheStream)
{
    const WorkloadProfile prof = findProfile("gzip");
    const PackedTrace packed(prof, 5'000);

    SyntheticTrace live(prof);
    TraceRecord skip;
    for (int i = 0; i < 1'000; ++i)
        ASSERT_TRUE(live.next(skip));

    PackedTrace::Cursor cur = packed.cursorRange(1'000, 5'000);
    EXPECT_EQ(cur.remaining(), 4'000u);
    TraceRecord a, b;
    for (std::uint64_t i = 0; i < 4'000; ++i) {
        ASSERT_TRUE(cur.next(a));
        ASSERT_TRUE(live.next(b));
        expectSameRecord(a, b, "range", i);
    }
    EXPECT_FALSE(cur.next(a));
}

TEST(PackedTrace, RegistrySharesAndExtendsBuffers)
{
    const WorkloadProfile prof = findProfile("applu");
    const auto p1 = sharedPackedTrace(prof, 5'000);
    const auto p2 = sharedPackedTrace(prof, 4'000);
    EXPECT_EQ(p1.get(), p2.get())
        << "a shorter request must reuse the longer buffer";

    const auto p3 = sharedPackedTrace(prof, 8'000);
    EXPECT_GE(p3->size(), 8'000u);
    PackedTrace::Cursor a = p1->cursorAll();
    PackedTrace::Cursor b = p3->cursor(p1->size());
    TraceRecord ra, rb;
    std::uint64_t i = 0;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        expectSameRecord(ra, rb, "registry extension prefix", i++);
    }
}

TEST(PackedTrace, WorkersSharingOneBufferStayBitIdentical)
{
    // Four organizations against the *same* workload: every worker
    // replays the same shared packed buffer concurrently.
    const SimLength len{20'000, 60'000};
    const WorkloadProfile prof = findProfile("mcf");
    std::vector<RunRequest> reqs;
    for (const auto &org :
         {OrgSpec::baseline(), OrgSpec::nurapidDefault(),
          OrgSpec::dnucaSsPerformance(), OrgSpec::coupledSA()}) {
        reqs.push_back(RunRequest{org, prof, len});
    }

    RunEngineOptions serial_opts;
    serial_opts.jobs = 1;
    serial_opts.use_cache = false;
    RunEngineOptions parallel_opts = serial_opts;
    parallel_opts.jobs = 2;

    RunEngine serial(serial_opts);
    RunEngine parallel(parallel_opts);
    const auto a = serial.runMany(reqs);
    const auto b = parallel.runMany(reqs);

    ASSERT_EQ(a.size(), reqs.size());
    ASSERT_EQ(b.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_TRUE(identicalMetrics(a[i], b[i]))
            << reqs[i].spec.description()
            << ": workers sharing one packed buffer diverged";
        EXPECT_GT(b[i].instructions, 0u);
    }
}

} // namespace
} // namespace nurapid
