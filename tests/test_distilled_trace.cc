/**
 * @file
 * Distilled-trace tests: replaying the precomputed L2-event stream
 * must be bit-identical to the live per-record loop — same RunMetrics
 * and same statistics, for every workload profile and every
 * organization kind (this is the guarantee that lets the sweep skip
 * the org-independent work 18 times over). Also covers the disk
 * round-trip, recompute of corrupt files (checksum included) and of
 * another build's files, fingerprint invalidation (every profile and
 * CacheOrg field), the record-index and block-index limits,
 * and the NURAPID_DISTILL=0 fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner/run_engine.hh"
#include "sim/system.hh"
#include "trace/distilled_trace.hh"
#include "trace/packed_trace.hh"
#include "trace/profiles.hh"

namespace nurapid {
namespace {

static_assert(sizeof(DistilledTrace::Event) == 16,
              "an event is 16 bytes: block, victim, record, flags, gap");

/** A distilled stream's three arrays, copied out of it. */
struct StreamCopy
{
    std::vector<std::uint8_t> gaps;
    std::vector<DistilledTrace::Event> events;
    std::vector<DistilledTrace::SegmentFold> folds;

    explicit StreamCopy(const DistilledTrace &t)
        : gaps(t.gapData(), t.gapData() + t.size()),
          events(t.eventData(), t.eventData() + t.eventCount()),
          folds(t.foldData(), t.foldData() + t.cutList().size())
    {}
};

/** True when @p t holds exactly the arrays of @p want. */
::testing::AssertionResult
sameStream(const DistilledTrace &t, const StreamCopy &want)
{
    if (t.size() != want.gaps.size() ||
        t.eventCount() != want.events.size() ||
        t.cutList().size() != want.folds.size()) {
        return ::testing::AssertionFailure() << "array lengths differ";
    }
    if (std::memcmp(t.gapData(), want.gaps.data(), want.gaps.size()) != 0)
        return ::testing::AssertionFailure() << "gap words differ";
    if (std::memcmp(t.eventData(), want.events.data(),
                    want.events.size() * sizeof(want.events[0])) != 0) {
        return ::testing::AssertionFailure() << "events differ";
    }
    if (std::memcmp(t.foldData(), want.folds.data(),
                    want.folds.size() * sizeof(want.folds[0])) != 0) {
        return ::testing::AssertionFailure() << "segment folds differ";
    }
    return ::testing::AssertionSuccess();
}

/** The files in @p dir, sorted. */
std::vector<std::string>
filesIn(const std::string &dir)
{
    std::vector<std::string> out;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        out.push_back(entry.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

/** How many fields aggregate T has: the most braced initializers it
 *  accepts. The key-coverage tests pin it, so a new field cannot slip
 *  past them. */
struct AnyField
{
    template <class T> operator T() const;
};

template <class T, std::size_t... I>
constexpr bool
bracedWith(std::index_sequence<I...>)
{
    return requires { T{(void(I), AnyField{})...}; };
}

template <class T, std::size_t N = 0>
constexpr std::size_t
fieldCount()
{
    if constexpr (bracedWith<T>(std::make_index_sequence<N + 1>{}))
        return fieldCount<T, N + 1>();
    else
        return N;
}

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
    const StreamCopy copy(*generated);
    EXPECT_GT(copy.folds[0].l1d_hits + copy.folds[1].l1d_hits, 0u);
    generated.reset();
    dropUnusedDistilledTraces();

    auto loaded = sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->fromFile())
        << "second process-equivalent request should load from disk";
    ASSERT_EQ(loaded->size(), kRecords);
    EXPECT_EQ(loaded->cutList(), cuts);
    EXPECT_TRUE(sameStream(*loaded, copy));

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

    // A missing file is the normal cold case: no warning.
    ::testing::internal::CaptureStderr();
    auto original =
        sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    EXPECT_EQ(::testing::internal::GetCapturedStderr().find("recomputing"),
              std::string::npos);
    ASSERT_FALSE(original->fromFile());
    ASSERT_EQ(filesIn(dir).size(), 1u);
    const std::string path = filesIn(dir)[0];
    const StreamCopy copy(*original);
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
        EXPECT_TRUE(sameStream(*t, copy)) << what;
        t.reset();
        dropUnusedDistilledTraces();
    };
    // event_count sits after the 8-byte magic and the record count;
    // 2^60 events of 16 bytes wrap a 64-bit length check to zero.
    reloadAfter("event_count patched to 2^60", [&] {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        const std::uint64_t huge = std::uint64_t{1} << 60;
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

    // Every CacheOrg field of either L1.
    static_assert(fieldCount<CacheOrg>() == 4,
                  "a new CacheOrg field needs a case here and a line in "
                  "fingerprintCacheOrg");
    using OrgEdit = void (*)(CacheOrg &);
    const std::pair<const char *, OrgEdit> org_edits[] = {
        {"name", [](CacheOrg &o) { o.name += "'"; }},
        {"capacity", [](CacheOrg &o) { o.capacity_bytes *= 2; }},
        {"associativity", [](CacheOrg &o) { o.assoc *= 2; }},
        {"block size", [](CacheOrg &o) { o.block_bytes *= 2; }},
    };
    for (const auto &[what, edit] : org_edits) {
        DistillParams p = base;
        edit(p.l1i);
        differs(p, (std::string("L1I ") + what).c_str());
        p = base;
        edit(p.l1d);
        differs(p, (std::string("L1D ") + what).c_str());
    }

    DistillParams p = base;
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

TEST(CacheKeys, EveryProfileFieldSeparatesEveryKey)
{
    // fingerprintProfile is the one profile field list behind the run
    // key, the distilled-stream key and the packed-trace registry:
    // changing any field must separate all three. table3_ipc and
    // table3_l2_apki are exempt: they are the paper's Table 3 numbers
    // the calibration aims at, and nothing simulated reads them.
    static_assert(fieldCount<WorkloadProfile>() == 20,
                  "a new profile field needs a case here and a line in "
                  "fingerprintProfile (or an exemption)");
    static_assert(fieldCount<WorkingSetLayer>() == 4,
                  "a new layer field needs a case here and a line in "
                  "fingerprintProfile");
    using P = WorkloadProfile;
    using Edit = void (*)(P &);
    const std::pair<const char *, Edit> edits[] = {
        {"name", [](P &p) { p.name += "'"; }},
        {"fp", [](P &p) { p.fp = !p.fp; }},
        {"high_load", [](P &p) { p.high_load = !p.high_load; }},
        {"base_cpi", [](P &p) { p.base_cpi *= 2; }},
        {"mem_refs_per_kinst", [](P &p) { p.mem_refs_per_kinst *= 2; }},
        {"store_frac", [](P &p) { p.store_frac /= 2; }},
        {"seq_frac", [](P &p) { p.seq_frac /= 2; }},
        {"dep_frac", [](P &p) { p.dep_frac /= 2; }},
        {"critical_frac", [](P &p) { p.critical_frac /= 2; }},
        {"drift_period", [](P &p) { p.drift_period *= 2; }},
        {"layers", [](P &p) { p.layers.pop_back(); }},
        {"layer bytes", [](P &p) { p.layers[1].bytes *= 2; }},
        {"layer weight", [](P &p) { p.layers[1].weight /= 2; }},
        {"layer segments", [](P &p) { p.layers[1].segments += 1; }},
        {"layer colliding segments",
         [](P &p) { p.layers[1].colliding_segments += 1; }},
        {"ifetch_refs_per_kinst",
         [](P &p) { p.ifetch_refs_per_kinst += 10; }},
        {"code_bytes", [](P &p) { p.code_bytes *= 2; }},
        {"branches_per_kinst", [](P &p) { p.branches_per_kinst /= 2; }},
        {"hard_branch_frac", [](P &p) { p.hard_branch_frac /= 2; }},
        {"hard_branch_bias", [](P &p) { p.hard_branch_bias /= 2; }},
        {"footprint_bytes", [](P &p) { p.footprint_bytes *= 2; }},
        {"seed", [](P &p) { p.seed += 1; }},
    };

    const P base = findProfile("art");
    ASSERT_GE(base.layers.size(), 2u);
    constexpr std::uint64_t kMix = 97;  // registry entries of its own
    constexpr std::uint64_t kRecords = 200;
    DistillParams dp;
    dp.l1i = l1iOrg();
    dp.l1d = l1dOrg();
    auto runKey = [](const P &p) {
        return fingerprintRun(OrgSpec::baseline(), p, {100, 100}).key;
    };
    auto streamKey = [&dp](const P &p) {
        return distillFingerprint(p, kMix, kRecords, {kRecords}, dp).key();
    };
    const auto packed = sharedPackedTrace(base, kRecords, kMix);

    for (const auto &[what, edit] : edits) {
        P p = base;
        edit(p);
        EXPECT_NE(runKey(p), runKey(base)) << what;
        EXPECT_NE(streamKey(p), streamKey(base)) << what;
        EXPECT_NE(sharedPackedTrace(p, kRecords, kMix), packed) << what;
    }

    P anchors = base;
    anchors.table3_ipc *= 2;
    anchors.table3_l2_apki *= 2;
    EXPECT_EQ(runKey(anchors), runKey(base));
    EXPECT_EQ(streamKey(anchors), streamKey(base));
    EXPECT_EQ(sharedPackedTrace(anchors, kRecords, kMix), packed);
}

TEST(DistilledTrace, AnotherBuildsFileIsSilentlyRecomputed)
{
    // A .dtc file name leaves the model digest out, so a rebuilt
    // binary finds the previous build's file of the same stream. That
    // is the normal cold case: the stream is recomputed, never
    // replayed, with no warning, and the old file is overwritten
    // rather than joined by a second one.
    constexpr std::uint64_t kMix = 83;
    constexpr std::uint64_t kRecords = 6'000;
    const std::vector<std::uint64_t> cuts{kRecords};
    const WorkloadProfile prof = findProfile("swim");
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();

    std::string dir = ::testing::TempDir() + "nurapid_distill_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);

    auto original =
        sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    ASSERT_FALSE(original->fromFile());
    const StreamCopy copy(*original);
    original.reset();
    dropUnusedDistilledTraces();
    const std::vector<std::string> files = filesIn(dir);
    ASSERT_EQ(files.size(), 1u);

    // Rewrite the stored key's digest as another build's would read.
    {
        const std::string field = std::string("digest=") + modelDigest();
        std::fstream f(files[0], std::ios::in | std::ios::out |
                                     std::ios::binary);
        std::string head(512, '\0');
        f.read(head.data(), static_cast<std::streamsize>(head.size()));
        const std::size_t at = head.find(field);
        ASSERT_NE(at, std::string::npos);
        const char other = modelDigest()[0] == '0' ? '1' : '0';
        f.clear();
        f.seekp(static_cast<std::streamoff>(at + 7));
        f.write(&other, 1);
    }

    ::testing::internal::CaptureStderr();
    auto t = sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(t->fromFile()) << "another build's stream was replayed";
    EXPECT_EQ(err, "");
    EXPECT_TRUE(sameStream(*t, copy));
    t.reset();
    dropUnusedDistilledTraces();
    EXPECT_EQ(filesIn(dir), files);

    // The overwritten file is this build's and loads again.
    auto reloaded =
        sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    EXPECT_TRUE(reloaded->fromFile());

    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
}

/** True for an event whose only replay effect is a mispredict. */
bool
mispredictOnly(const DistilledTrace::Event &e)
{
    using DT = DistilledTrace;
    return (e.flags & (DT::kMispredict | DT::kDepCheck | DT::kL1Miss)) ==
        DT::kMispredict;
}

/** Gap words carrying the folded-mispredict flag (an event record's
 *  gap word is 0, so only non-event records count). */
std::uint64_t
flaggedGaps(const DistilledTrace &t)
{
    std::uint64_t n = 0;
    for (std::uint64_t k = 0; k < t.size(); ++k)
        n += (t.gapData()[k] & DistilledTrace::kGapMispredict) ? 1 : 0;
    return n;
}

std::uint64_t
sumFoldedMispredicts(const DistilledTrace &t)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < t.cutList().size(); ++i)
        n += t.foldData()[i].mispredicts;
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
    // gzip's gaps all fit in 7 bits, so only a cut makes a
    // mispredict-only event.
    for (std::uint64_t i = 0; i < t->eventCount(); ++i) {
        EXPECT_FALSE(mispredictOnly(ev[i]) && !t->isCut(ev[i].rec + 1))
            << "mispredict-only event at record " << ev[i].rec;
    }
    EXPECT_GT(flaggedGaps(*t), 0u);
    EXPECT_EQ(flaggedGaps(*t), sumFoldedMispredicts(*t));
}

/** Events of @p t whose record's inst_gap exceeds @p gap. */
std::uint64_t
eventsWithGapAbove(const DistilledTrace &t, std::uint32_t gap)
{
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < t.eventCount(); ++i)
        n += t.eventData()[i].inst_gap > gap ? 1 : 0;
    return n;
}

TEST(DistilledTrace, WideGapsReplayIdenticallyToTheLiveLoop)
{
    // Gaps past the gap word's 7 bits must become events (never read
    // as a folded-mispredict flag) carrying their full inst_gap, narrow
    // mispredict-only records must still fold, and the replay must
    // stay bit-identical to the live loop. The first case draws gaps
    // of about 64-192 instructions, straddling the 127/128 fold limit;
    // the second 16.7 k-50 k, past 0x7fff, so Event::inst_gap must
    // carry all 16 bits (there only the branchless pointer-chase
    // loads have gaps narrow enough to fold).
    struct Case
    {
        const char *name;
        double mem_refs_per_kinst;
        std::uint32_t wide_gap;  //!< some events' gaps exceed this
        bool folds_mispredicts;
    };
    for (const Case &c : {Case{"gzip-wide", 1000.0 / 128, 127, true},
                          Case{"gzip-sparse", 0.03, 0x7fff, false}}) {
        WorkloadProfile prof = findProfile("gzip");
        prof.name = c.name;
        prof.mem_refs_per_kinst = c.mem_refs_per_kinst;
        const SimLength len{4'000, 12'000};

        DistillParams params;
        params.l1i = l1iOrg();
        params.l1d = l1dOrg();
        auto t =
            sharedDistilledTrace(prof, 16'000, {4'000, 16'000}, params);
        ASSERT_NE(t, nullptr);
        EXPECT_GT(eventsWithGapAbove(*t, c.wide_gap), 0u) << c.name;
        EXPECT_EQ(flaggedGaps(*t) > 0, c.folds_mispredicts) << c.name;
        EXPECT_EQ(flaggedGaps(*t), sumFoldedMispredicts(*t)) << c.name;
        t.reset();

        for (const OrgSpec &org : {OrgSpec::baseline(),
                                   OrgSpec::nurapidDefault()}) {
            const Observed live = observe(org, prof, len, false);
            const Observed dist = observe(org, prof, len, true);
            expectSameObservation(live, dist,
                                  prof.name + " / " + org.description());
        }
    }
}

TEST(DistilledTrace, RefusesBlockIndicesPastThirtyTwoBits)
{
    // Events hold addresses as 32-bit block indices. With 1-byte MSHR
    // blocks the index is the address itself, and the profiles' data
    // layers sit at 2 GiB and up, so some reference needs bit 32.
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();
    params.mshr_block_bytes = 1;
    EXPECT_EXIT(DistilledTrace(findProfile("mcf"), 20'000, {20'000},
                               params),
                ::testing::ExitedWithCode(1), "past the 32 bits");
}

TEST(DistilledTrace, FlippedPayloadByteIsCaughtByTheChecksum)
{
    // A bit flip inside a stored stream leaves its header, key and
    // length intact; only the checksum can refuse it. The run that
    // maps the damaged file must warn, recompute, and report the
    // statistics of the run that wrote it.
    WorkloadProfile prof = findProfile("gzip");
    prof.name = "gzip-flip";
    prof.seed += 4242;  // a stream no other test shares
    const SimLength len{4'000, 12'000};
    const OrgSpec org = OrgSpec::nurapidDefault();

    std::string dir = ::testing::TempDir() + "nurapid_distill_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);

    const Observed original = observe(org, prof, len, true);
    dropUnusedDistilledTraces();
    ASSERT_EQ(filesIn(dir).size(), 1u) << "the run stored no stream";
    const std::string path = filesIn(dir)[0];

    {
        // The gap words start where the arrays behind them end:
        // header counts are at bytes 8 (records) and 16 (events), and
        // a warmup + measure run has two segment folds.
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        std::uint64_t counts[2];
        f.seekg(8);
        f.read(reinterpret_cast<char *>(counts), sizeof(counts));
        const std::uint64_t size = std::filesystem::file_size(path);
        const std::uint64_t gaps_at = size -
            2 * sizeof(DistilledTrace::SegmentFold) -
            counts[1] * sizeof(DistilledTrace::Event) -
            ((counts[0] + 15) & ~std::uint64_t{15});
        const std::uint64_t at = gaps_at + counts[0] / 2;
        char byte = 0;
        f.seekg(static_cast<std::streamoff>(at));
        f.read(&byte, 1);
        byte ^= 1;
        f.seekp(static_cast<std::streamoff>(at));
        f.write(&byte, 1);
    }

    ::testing::internal::CaptureStderr();
    const Observed again = observe(org, prof, len, true);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("fails its checksum; recomputing"),
              std::string::npos)
        << err;
    expectSameObservation(original, again, "flipped gap byte");
    dropUnusedDistilledTraces();

    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
}

} // namespace
} // namespace nurapid
