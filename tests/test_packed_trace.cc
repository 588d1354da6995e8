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

#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>

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

TEST(PackedTrace, SourceAdapterMatchesLiveTraceAndResets)
{
    const WorkloadProfile prof = findProfile("twolf");
    const auto shared = sharedPackedTrace(prof, 3'000);
    PackedTraceSource src(shared);
    SyntheticTrace live(prof);

    TraceRecord a, b;
    for (std::uint64_t i = 0; i < 3'000; ++i) {
        ASSERT_TRUE(src.next(a));
        ASSERT_TRUE(live.next(b));
        expectSameRecord(a, b, "adapter", i);
    }
    EXPECT_FALSE(src.next(a));

    src.reset();
    live.reset();
    for (std::uint64_t i = 0; i < 3'000; ++i) {
        ASSERT_TRUE(src.next(a));
        ASSERT_TRUE(live.next(b));
        expectSameRecord(a, b, "adapter after reset", i);
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

TEST(PackedTrace, DiskCacheRoundTripIsBitIdentical)
{
    // A distinct seed mix keeps this test's registry entries and cache
    // files disjoint from every other test in the binary.
    constexpr std::uint64_t kMix = 99;
    const WorkloadProfile prof = findProfile("swim");
    // Fresh directory per run: a leftover file from an earlier run
    // would satisfy the very first request from disk.
    std::string dir = ::testing::TempDir() + "nurapid_trace_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);

    // First request generates and persists.
    auto generated = sharedPackedTrace(prof, 6'000, kMix);
    ASSERT_TRUE(generated->extendable());
    const PackedTrace reference(prof, 9'000, kMix);

    // Drop the in-memory buffer so the next request must hit the file.
    generated.reset();
    dropUnusedPackedTraces();
    auto loaded = sharedPackedTrace(prof, 6'000, kMix);
    EXPECT_FALSE(loaded->extendable())
        << "second process-equivalent request should load from disk";
    PackedTrace::Cursor a = loaded->cursor(6'000);
    PackedTrace::Cursor b = reference.cursor(6'000);
    TraceRecord ra, rb;
    for (std::uint64_t i = 0; i < 6'000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        expectSameRecord(ra, rb, "disk round-trip", i);
    }

    // A longer request cannot extend a loaded buffer: it regenerates
    // from scratch and rewrites the file, still bit-identical.
    auto longer = sharedPackedTrace(prof, 9'000, kMix);
    ASSERT_GE(longer->size(), 9'000u);
    a = longer->cursor(9'000);
    b = reference.cursor(9'000);
    for (std::uint64_t i = 0; i < 9'000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        expectSameRecord(ra, rb, "regenerated past loaded buffer", i);
    }

    // And the rewritten longer file loads back too.
    longer.reset();
    loaded.reset();
    dropUnusedPackedTraces();
    auto reloaded = sharedPackedTrace(prof, 9'000, kMix);
    EXPECT_FALSE(reloaded->extendable());
    a = reloaded->cursor(9'000);
    b = reference.cursor(9'000);
    for (std::uint64_t i = 0; i < 9'000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        expectSameRecord(ra, rb, "reloaded longer file", i);
    }

    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
}

} // namespace
} // namespace nurapid
