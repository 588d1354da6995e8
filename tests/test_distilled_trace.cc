/**
 * @file
 * Distilled-trace tests: replaying the precomputed L2-event stream
 * must be bit-identical to the live per-record loop — same RunMetrics
 * and same statistics, for every workload profile and every
 * organization kind (this is the guarantee that lets the sweep skip
 * the org-independent work 18 times over). Also covers the disk
 * round-trip, recompute of corrupt files, fingerprint invalidation,
 * the record-index limit, and the NURAPID_DISTILL=0 fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/runner/run_engine.hh"
#include "sim/system.hh"
#include "trace/distilled_trace.hh"
#include "trace/profiles.hh"

namespace nurapid {
namespace {

/** The five organization kinds, one preset each. */
std::vector<OrgSpec>
oneOrgPerKind()
{
    return {OrgSpec::baseline(), OrgSpec::dnucaSsPerformance(),
            OrgSpec::snucaDefault(), OrgSpec::nurapidDefault(),
            OrgSpec::coupledSA()};
}

/** Runs (org, prof, len) once with distillation forced on or off and
 *  returns the metrics plus every statistic the replay folds. */
struct Observed
{
    RunMetrics metrics;
    std::string core_stats;
    std::string l1i_stats;
    std::string l1d_stats;
    std::string bpred_stats;
    std::string mshr_stats;
    std::string lower_stats;
};

Observed
observe(const OrgSpec &org, const WorkloadProfile &prof,
        const SimLength &len, bool distill)
{
    ::setenv("NURAPID_DISTILL", distill ? "1" : "0", 1);
    System sys(org, prof, len);
    Observed o;
    o.metrics = sys.runAll();
    o.core_stats = sys.core().stats().dump();
    o.l1i_stats = sys.l1i().stats().dump();
    o.l1d_stats = sys.l1d().stats().dump();
    o.bpred_stats = sys.core().branchPredictor().stats().dump();
    o.mshr_stats = sys.core().mshrFile().stats().dump();
    o.lower_stats = sys.lower().stats().dump();
    ::unsetenv("NURAPID_DISTILL");
    return o;
}

void
expectSameObservation(const Observed &live, const Observed &distilled,
                      const std::string &what)
{
    EXPECT_TRUE(identicalMetrics(live.metrics, distilled.metrics))
        << what << ": metrics diverged (ipc " << live.metrics.ipc
        << " vs " << distilled.metrics.ipc << ", cycles "
        << live.metrics.cycles << " vs " << distilled.metrics.cycles
        << ")";
    EXPECT_EQ(live.core_stats, distilled.core_stats) << what;
    EXPECT_EQ(live.l1i_stats, distilled.l1i_stats) << what;
    EXPECT_EQ(live.l1d_stats, distilled.l1d_stats) << what;
    EXPECT_EQ(live.bpred_stats, distilled.bpred_stats) << what;
    EXPECT_EQ(live.mshr_stats, distilled.mshr_stats) << what;
    EXPECT_EQ(live.lower_stats, distilled.lower_stats) << what;
    EXPECT_GT(distilled.metrics.instructions, 0u) << what;
}

TEST(DistilledTrace, ReplayMatchesLiveLoopForEveryWorkload)
{
    // Every workload profile, cycling through the five organization
    // kinds so each kind sees several workloads.
    const SimLength len{20'000, 60'000};
    const std::vector<OrgSpec> orgs = oneOrgPerKind();
    std::size_t i = 0;
    for (const WorkloadProfile &prof : workloadSuite()) {
        const OrgSpec &org = orgs[i++ % orgs.size()];
        const Observed live = observe(org, prof, len, false);
        const Observed dist = observe(org, prof, len, true);
        expectSameObservation(live, dist,
                              prof.name + " / " + org.description());
    }
}

TEST(DistilledTrace, ReplayMatchesLiveLoopForEveryOrganizationKind)
{
    // One memory-intensive workload against all five kinds: the replay
    // must agree on every org-dependent path (search, migration,
    // writeback handling) too.
    const SimLength len{25'000, 75'000};
    const WorkloadProfile prof = findProfile("mcf");
    for (const OrgSpec &org : oneOrgPerKind()) {
        const Observed live = observe(org, prof, len, false);
        const Observed dist = observe(org, prof, len, true);
        expectSameObservation(live, dist,
                              prof.name + " / " + org.description());
    }
}

TEST(DistilledTrace, FallbackMatchesWhenDisabled)
{
    ::setenv("NURAPID_DISTILL", "0", 1);
    EXPECT_FALSE(distillEnabled());
    ::unsetenv("NURAPID_DISTILL");
    EXPECT_TRUE(distillEnabled());

    // Disabled and enabled runs of the same config agree (the
    // fallback is the live loop the replay is tested against).
    const SimLength len{10'000, 30'000};
    const WorkloadProfile prof = findProfile("gzip");
    const Observed off = observe(OrgSpec::nurapidDefault(), prof, len,
                                 false);
    const Observed on = observe(OrgSpec::nurapidDefault(), prof, len,
                                true);
    expectSameObservation(off, on, "NURAPID_DISTILL fallback");
}

TEST(DistilledTrace, DiskRoundTripIsBitIdentical)
{
    // A distinct seed mix keeps this test's registry entries and cache
    // files disjoint from every other test in the binary.
    constexpr std::uint64_t kMix = 77;
    constexpr std::uint64_t kRecords = 6'000;
    const std::vector<std::uint64_t> cuts{2'000, kRecords};
    const WorkloadProfile prof = findProfile("swim");
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();

    std::string dir = ::testing::TempDir() + "nurapid_distill_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);

    auto generated =
        sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    ASSERT_NE(generated, nullptr);
    EXPECT_FALSE(generated->fromFile());
    ASSERT_EQ(generated->size(), kRecords);
    ASSERT_GT(generated->eventCount(), 0u);
    EXPECT_TRUE(generated->isCut(2'000));
    EXPECT_TRUE(generated->isCut(kRecords));
    EXPECT_FALSE(generated->isCut(1'000));

    // Keep copies, drop the in-memory entry, and force a file load.
    const std::vector<std::uint16_t> gaps(
        generated->gapData(), generated->gapData() + generated->size());
    const std::vector<DistilledTrace::Event> events(
        generated->eventData(),
        generated->eventData() + generated->eventCount());
    generated.reset();
    dropUnusedDistilledTraces();

    auto loaded = sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->fromFile())
        << "second process-equivalent request should load from disk";
    ASSERT_EQ(loaded->size(), kRecords);
    ASSERT_EQ(loaded->eventCount(), events.size());
    EXPECT_EQ(loaded->cutList(), cuts);
    EXPECT_EQ(std::memcmp(loaded->gapData(), gaps.data(),
                          gaps.size() * sizeof(gaps[0])), 0);
    EXPECT_EQ(std::memcmp(loaded->eventData(), events.data(),
                          events.size() * sizeof(events[0])), 0);

    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
}

TEST(DistilledTrace, CorruptFileIsRecomputedWithAWarning)
{
    constexpr std::uint64_t kMix = 79;
    constexpr std::uint64_t kRecords = 6'000;
    const std::vector<std::uint64_t> cuts{kRecords};
    const WorkloadProfile prof = findProfile("swim");
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();

    std::string dir = ::testing::TempDir() + "nurapid_distill_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);
    const std::string path = dir + "/" + prof.name + "-" +
        distillFingerprint(prof, kMix, kRecords, cuts, params).digest() +
        ".dtc";

    // A missing file is the normal cold case: no warning.
    ::testing::internal::CaptureStderr();
    auto original =
        sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    EXPECT_EQ(::testing::internal::GetCapturedStderr().find("recomputing"),
              std::string::npos);
    ASSERT_FALSE(original->fromFile());
    ASSERT_TRUE(std::filesystem::exists(path));
    const std::vector<std::uint16_t> gaps(
        original->gapData(), original->gapData() + original->size());
    const std::vector<DistilledTrace::Event> events(
        original->eventData(),
        original->eventData() + original->eventCount());
    original.reset();
    dropUnusedDistilledTraces();

    // Damages the cached file, then requests the stream again: the
    // file must be refused with a warning and the stream recomputed
    // (which rewrites the file whole).
    auto reloadAfter = [&](const char *what, auto &&damage) {
        damage();
        ::testing::internal::CaptureStderr();
        auto t = sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_FALSE(t->fromFile()) << what;
        EXPECT_NE(err.find("recomputing"), std::string::npos) << what;
        ASSERT_EQ(t->size(), kRecords) << what;
        ASSERT_EQ(t->eventCount(), events.size()) << what;
        EXPECT_EQ(std::memcmp(t->gapData(), gaps.data(),
                              gaps.size() * sizeof(gaps[0])), 0)
            << what;
        EXPECT_EQ(std::memcmp(t->eventData(), events.data(),
                              events.size() * sizeof(events[0])), 0)
            << what;
        t.reset();
        dropUnusedDistilledTraces();
    };
    // event_count sits after the 8-byte magic and the record count;
    // 2^59 events of 32 bytes wrap a 64-bit length check to zero.
    reloadAfter("event_count patched to 2^59", [&] {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        const std::uint64_t huge = std::uint64_t{1} << 59;
        f.seekp(16);
        f.write(reinterpret_cast<const char *>(&huge), sizeof(huge));
    });
    reloadAfter("truncated by one byte", [&] {
        std::filesystem::resize_file(path,
                                     std::filesystem::file_size(path) - 1);
    });

    // The rewritten file loads again.
    auto reloaded =
        sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    EXPECT_TRUE(reloaded->fromFile());

    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
}

TEST(DistilledTrace, RefusesStreamsPastTheRecordIndexWidth)
{
    // Event::rec is 32 bits wide: a longer stream would wrap it.
    const std::uint64_t records = DistilledTrace::kMaxRecords + 1;
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();
    EXPECT_EXIT(DistilledTrace(findProfile("gzip"), records, {records},
                               params),
                ::testing::ExitedWithCode(1), "NURAPID_DISTILL=0");
}

TEST(DistilledTrace, FingerprintChangesWithEveryKeyedParameter)
{
    const WorkloadProfile prof = findProfile("art");
    const std::vector<std::uint64_t> cuts{1'000, 4'000};
    DistillParams base;
    base.l1i = l1iOrg();
    base.l1d = l1dOrg();
    const std::string key =
        distillFingerprint(prof, 0, 4'000, cuts, base).key();

    auto differs = [&](const DistillParams &p, const char *what) {
        EXPECT_NE(distillFingerprint(prof, 0, 4'000, cuts, p).key(), key)
            << what << " must invalidate the fingerprint";
    };

    DistillParams p = base;
    p.l1d.capacity_bytes *= 2;
    differs(p, "L1D capacity");
    p = base;
    p.l1d.assoc *= 2;
    differs(p, "L1D associativity");
    p = base;
    p.l1i.block_bytes *= 2;
    differs(p, "L1I block size");
    p = base;
    p.bp_entries *= 2;
    differs(p, "predictor entries");
    p = base;
    p.bp_history_bits += 1;
    differs(p, "predictor history bits");
    p = base;
    p.mshr_block_bytes *= 4;
    differs(p, "MSHR sector size");

    // Trace identity and segment cuts are keyed too.
    EXPECT_NE(distillFingerprint(prof, 1, 4'000, cuts, base).key(), key)
        << "seed mix must invalidate the fingerprint";
    EXPECT_NE(distillFingerprint(prof, 0, 5'000,
                                 {1'000, 5'000}, base).key(), key)
        << "record count must invalidate the fingerprint";
    EXPECT_NE(distillFingerprint(prof, 0, 4'000, {4'000}, base).key(),
              key)
        << "segment cuts must invalidate the fingerprint";
    const WorkloadProfile other = findProfile("mcf");
    EXPECT_NE(distillFingerprint(other, 0, 4'000, cuts, base).key(), key)
        << "workload must invalidate the fingerprint";
}

/** True for an event whose only replay effect is a mispredict. */
bool
mispredictOnly(const DistilledTrace::Event &e)
{
    using DT = DistilledTrace;
    return (e.flags & (DT::kMispredict | DT::kDepCheck | DT::kL1Miss)) ==
        DT::kMispredict;
}

/** Non-event gap words carrying the folded-mispredict flag (an event
 *  record's gap word is its full 16-bit inst_gap). */
std::uint64_t
flaggedGaps(const DistilledTrace &t)
{
    std::uint64_t n = 0;
    const DistilledTrace::Event *ev = t.eventData();
    const DistilledTrace::Event *ev_end = ev + t.eventCount();
    for (std::uint64_t k = 0; k < t.size(); ++k) {
        if (ev != ev_end && ev->rec == k) {
            ++ev;
            continue;
        }
        n += (t.gapData()[k] & DistilledTrace::kGapMispredict) ? 1 : 0;
    }
    return n;
}

std::uint64_t
sumFoldedMispredicts(const DistilledTrace &t)
{
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < t.eventCount(); ++i)
        n += t.eventData()[i].d_misp;
    return n;
}

TEST(DistilledTrace, EventStreamFoldsTheInertMajority)
{
    // The point of distillation: events are a small fraction of the
    // records (L1 miss + dep-check + cut rate; mispredicts fold into
    // the gap words).
    constexpr std::uint64_t kMix = 78;
    constexpr std::uint64_t kRecords = 50'000;
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();
    const WorkloadProfile prof = findProfile("gzip");
    auto t = sharedDistilledTrace(prof, kRecords, {kRecords}, params,
                                  kMix);
    ASSERT_NE(t, nullptr);
    // Past the cold-L1 first half, gzip makes ~16 events per 1 k
    // records; ~160 more would be mispredicts if they did not fold.
    const DistilledTrace::Event *ev = t->eventData();
    const auto warm = std::count_if(
        ev, ev + t->eventCount(), [](const DistilledTrace::Event &e) {
            return e.rec >= kRecords / 2;
        });
    EXPECT_LE(warm * 1000, 40 * (kRecords / 2))
        << "more than 40 events per 1 k warm records: folding regressed";
    // Events are strictly ordered and end on the forced cut record.
    for (std::uint64_t i = 1; i < t->eventCount(); ++i)
        ASSERT_GT(ev[i].rec, ev[i - 1].rec) << "event " << i;
    EXPECT_EQ(ev[t->eventCount() - 1].rec, kRecords - 1)
        << "an event must be forced at the final cut record";
    // gzip's gaps all fit in 15 bits and no run of folded mispredicts
    // nears 0xffff, so only a cut makes a mispredict-only event.
    for (std::uint64_t i = 0; i < t->eventCount(); ++i) {
        EXPECT_FALSE(mispredictOnly(ev[i]) && !t->isCut(ev[i].rec + 1))
            << "mispredict-only event at record " << ev[i].rec;
    }
    EXPECT_GT(flaggedGaps(*t), 0u);
    EXPECT_EQ(flaggedGaps(*t), sumFoldedMispredicts(*t));
}

TEST(DistilledTrace, WideGapsReplayIdenticallyToTheLiveLoop)
{
    // At 0.03 memory references per kinst the gaps span 16.7 k–50 k
    // instructions, straddling the 0x8000 folded-mispredict flag. Wide
    // gaps must become events (never read as a flag), narrow
    // mispredict-only records must still fold, and the replay must
    // stay bit-identical to the live loop.
    WorkloadProfile prof = findProfile("gzip");
    prof.name = "gzip-sparse";
    prof.mem_refs_per_kinst = 0.03;
    const SimLength len{4'000, 12'000};

    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();
    auto t = sharedDistilledTrace(prof, 16'000, {4'000, 16'000}, params);
    ASSERT_NE(t, nullptr);
    std::uint64_t wide_events = 0;
    for (std::uint64_t i = 0; i < t->eventCount(); ++i) {
        const DistilledTrace::Event &e = t->eventData()[i];
        wide_events += t->gapData()[e.rec] > DistilledTrace::kGapInstMask;
    }
    EXPECT_GT(wide_events, 0u);
    EXPECT_GT(flaggedGaps(*t), 0u);
    EXPECT_EQ(flaggedGaps(*t), sumFoldedMispredicts(*t));
    t.reset();

    for (const OrgSpec &org : {OrgSpec::baseline(),
                               OrgSpec::nurapidDefault()}) {
        const Observed live = observe(org, prof, len, false);
        const Observed dist = observe(org, prof, len, true);
        expectSameObservation(live, dist,
                              prof.name + " / " + org.description());
    }
}

} // namespace
} // namespace nurapid
