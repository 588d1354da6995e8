/**
 * @file
 * Observability-layer tests: the flight-recorder event stream must be
 * identical between the live per-record loop and the distilled replay
 * (the hooks live in organization code both paths share), the interval
 * timeline must conserve counters (the final snapshot equals the
 * end-of-run statistics exactly), detached hooks must not allocate,
 * and the exporters must round-trip through the common JSON parser.
 *
 * This translation unit replaces the global allocator with a counting
 * malloc shim so the detached-hook test can assert "zero allocations";
 * the shim is thread-safe and pass-through, so every other test in the
 * binary is unaffected.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/obs/export.hh"
#include "sim/obs/obs.hh"
#include "sim/runner/run_engine.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

namespace {
std::atomic<std::uint64_t> g_news{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace nurapid {
namespace {

bool
sameEvent(const ObsEvent &a, const ObsEvent &b)
{
    return a.cycle == b.cycle && a.addr == b.addr &&
        a.latency == b.latency && a.kind == b.kind && a.from == b.from &&
        a.to == b.to && a.flags == b.flags;
}

struct ObsRun
{
    std::vector<ObsEvent> events;
    std::vector<IntervalSnapshot> timeline;
    std::vector<std::pair<std::string, std::uint64_t>> final_counters;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

ObsRun
observedRun(const OrgSpec &org, const WorkloadProfile &prof,
            const SimLength &len, bool distill)
{
    ::setenv("NURAPID_DISTILL", distill ? "1" : "0", 1);
    System sys(org, prof, len);
    ObsConfig cfg;
    cfg.record_events = true;
    cfg.record_metrics = true;
    cfg.interval = 4096;
    sys.enableObservability(cfg);
    sys.runAll();
    ObsRun r;
    r.events = sys.observabilitySink()->events();
    r.timeline = sys.observabilityRecorder()->timeline();
    r.final_counters = sys.lower().stats().counterValues();
    const StatGroup &ls = sys.lower().stats();
    r.hits = ls.hasCounter("hits") ? ls.counterValue("hits") : 0;
    r.misses = ls.hasCounter("misses") ? ls.counterValue("misses") : 0;
    ::unsetenv("NURAPID_DISTILL");
    return r;
}

void
expectSameEventStream(const ObsRun &live, const ObsRun &dist,
                      const std::string &what)
{
    ASSERT_EQ(live.events.size(), dist.events.size()) << what;
    for (std::size_t i = 0; i < live.events.size(); ++i) {
        ASSERT_TRUE(sameEvent(live.events[i], dist.events[i]))
            << what << ": event " << i << " diverged ("
            << obsEventKindName(live.events[i].kind) << " @cycle "
            << live.events[i].cycle << " vs "
            << obsEventKindName(dist.events[i].kind) << " @cycle "
            << dist.events[i].cycle << ")";
    }
    ASSERT_EQ(live.timeline.size(), dist.timeline.size()) << what;
    for (std::size_t i = 0; i < live.timeline.size(); ++i) {
        const IntervalSnapshot &a = live.timeline[i];
        const IntervalSnapshot &b = dist.timeline[i];
        EXPECT_EQ(a.refs, b.refs) << what << " epoch " << i;
        EXPECT_EQ(a.cycles, b.cycles) << what << " epoch " << i;
        EXPECT_EQ(a.instructions, b.instructions)
            << what << " epoch " << i;
        EXPECT_EQ(a.counters, b.counters) << what << " epoch " << i;
        EXPECT_EQ(a.region_hits, b.region_hits)
            << what << " epoch " << i;
        EXPECT_EQ(a.occupancy, b.occupancy) << what << " epoch " << i;
        EXPECT_EQ(a.epoch_accesses, b.epoch_accesses)
            << what << " epoch " << i;
        EXPECT_EQ(a.epoch_hits, b.epoch_hits) << what << " epoch " << i;
    }
}

TEST(Obs, EventStreamIdenticalLiveVsDistilledNuRapid)
{
    const SimLength len{20'000, 60'000};
    const WorkloadProfile prof = findProfile("mcf");
    const OrgSpec org = OrgSpec::nurapidDefault();
    const ObsRun live = observedRun(org, prof, len, false);
    const ObsRun dist = observedRun(org, prof, len, true);
    ASSERT_GT(live.events.size(), 0u);
    expectSameEventStream(live, dist, "nurapid/mcf");
}

TEST(Obs, EventStreamIdenticalLiveVsDistilledDNuca)
{
    const SimLength len{20'000, 60'000};
    const WorkloadProfile prof = findProfile("art");
    const OrgSpec org = OrgSpec::dnucaSsPerformance();
    const ObsRun live = observedRun(org, prof, len, false);
    const ObsRun dist = observedRun(org, prof, len, true);
    ASSERT_GT(live.events.size(), 0u);
    expectSameEventStream(live, dist, "dnuca/art");
}

TEST(Obs, TimelineConservesCounters)
{
    const SimLength len{10'000, 50'000};
    const ObsRun r = observedRun(OrgSpec::nurapidDefault(),
                                 findProfile("swim"), len, true);
    ASSERT_GE(r.timeline.size(), 3u) << "want several epochs";

    // Epoch 0 is the post-warmup baseline: everything zero.
    const IntervalSnapshot &base = r.timeline.front();
    EXPECT_EQ(base.refs, 0u);
    for (const auto &kv : base.counters)
        EXPECT_EQ(kv.second, 0u) << kv.first << " nonzero at baseline";

    // The final snapshot equals the end-of-run statistics exactly, so
    // the per-epoch deltas sum to the totals by construction.
    const IntervalSnapshot &last = r.timeline.back();
    EXPECT_EQ(last.refs, len.measure_records);
    EXPECT_EQ(last.counters, r.final_counters);

    // Epoch-local access aggregates are conserved too: summed over all
    // epochs they equal the organization's demand hits + misses.
    std::uint64_t accesses = 0, hits = 0;
    for (const IntervalSnapshot &s : r.timeline) {
        accesses += s.epoch_accesses;
        hits += s.epoch_hits;
    }
    EXPECT_EQ(accesses, r.hits + r.misses);
    EXPECT_EQ(hits, r.hits);

    // refs are strictly increasing and epoch-aligned in the middle.
    for (std::size_t i = 1; i < r.timeline.size(); ++i) {
        EXPECT_GT(r.timeline[i].refs, r.timeline[i - 1].refs);
        if (i + 1 < r.timeline.size()) {
            EXPECT_EQ(r.timeline[i].refs % 4096, 0u);
        }
    }
}

TEST(Obs, DetachedHooksDoNotAllocate)
{
    // Exercise an organization's full access path (hits, misses,
    // promotions, evictions) with no sink attached; the always-compiled
    // hooks must stay allocation-free.
    auto org = makeOrganization(OrgSpec::nurapidDefault());
    auto drive = [&](std::uint64_t salt) {
        for (std::uint64_t i = 0; i < 20'000; ++i) {
            const Addr addr =
                ((i * 2654435761u + salt) % 100'000) * 64;
            const AccessType type = i % 7 == 0 ? AccessType::Writeback
                : i % 3 == 0 ? AccessType::Write
                             : AccessType::Read;
            org->access(addr, type, i * 4);
        }
    };
    drive(1);  // warm: container growth etc. may allocate here
    const std::uint64_t before = g_news.load();
    drive(2);
    EXPECT_EQ(g_news.load(), before)
        << "detached observability hooks allocated";

    // Sanity: the same loop with a sink attached does record events,
    // so the zero-allocation result covers live hook sites.
    EventSink sink(true, 0);
    org->attachObserver(&sink);
    drive(3);
    EXPECT_GT(sink.recorded(), 0u);
}

TEST(Obs, EventSinkRingOverwritesOldest)
{
    EventSink sink(true, 4);
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.hit(i, i * 64, 0, 10);
    EXPECT_EQ(sink.recorded(), 6u);
    EXPECT_EQ(sink.dropped(), 2u);
    const std::vector<ObsEvent> ev = sink.events();
    ASSERT_EQ(ev.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(ev[i].cycle, i + 2) << "oldest-first after wrap";
}

TEST(Obs, MetricsOnlySinkKeepsAggregatesWithoutBuffering)
{
    EventSink sink(false, 0);
    sink.hit(1, 64, 0, 10);
    sink.miss(2, 128, 200);
    EXPECT_FALSE(sink.buffering());
    EXPECT_EQ(sink.events().size(), 0u);
    const EventSink::EpochAggregates agg = sink.takeEpochAggregates();
    EXPECT_EQ(agg.accesses, 2u);
    EXPECT_EQ(agg.hits, 1u);
    EXPECT_DOUBLE_EQ(agg.avg_latency, 105.0);
    EXPECT_EQ(agg.lat_p50, 10u);
    EXPECT_EQ(agg.lat_p95, 200u);
    // take* resets the epoch-local state.
    const EventSink::EpochAggregates next = sink.takeEpochAggregates();
    EXPECT_EQ(next.accesses, 0u);
}

/** One observed D-NUCA run exported to all three files and parsed
 *  back. */
void
checkExportsRoundTrip()
{
    constexpr std::uint64_t kInterval = 2048;
    const SimLength len{5'000, 20'000};
    System sys(OrgSpec::dnucaSsPerformance(), findProfile("gzip"), len);
    ObsConfig cfg;
    cfg.record_events = true;
    cfg.record_metrics = true;
    cfg.interval = kInterval;
    const std::string dir = ::testing::TempDir();
    cfg.events_path = dir + "obs_events.jsonl";
    cfg.metrics_path = dir + "obs_metrics.jsonl";
    cfg.perfetto_path = dir + "obs_trace.json";
    sys.enableObservability(cfg);
    const RunMetrics m = sys.runAll();
    EXPECT_EQ(m.metrics_file, cfg.metrics_path);

    MetricsDoc events;
    std::string err;
    ASSERT_TRUE(readJsonlFile(cfg.events_path, events, &err)) << err;
    EXPECT_EQ(events.meta.get("meta").asString(), "nurapid-events");
    EXPECT_EQ(events.meta.get("recorded").asUint(),
              sys.observabilitySink()->recorded());
    ASSERT_GT(events.epochs.size(), 0u);
    for (const Json &e : events.epochs)
        EXPECT_TRUE(e.has("kind") && e.has("cycle") && e.has("addr"));

    MetricsDoc metrics;
    ASSERT_TRUE(readJsonlFile(cfg.metrics_path, metrics, &err)) << err;
    EXPECT_EQ(metrics.meta.get("meta").asString(), "nurapid-metrics");
    EXPECT_EQ(metrics.meta.get("interval").asUint(), kInterval);
    ASSERT_EQ(metrics.epochs.size(),
              sys.observabilityRecorder()->timeline().size());
    const Json &last = metrics.epochs.back();
    EXPECT_EQ(last.get("refs").asUint(), len.measure_records);
    EXPECT_EQ(last.get("counters").get("hits").asUint(),
              sys.lower().stats().counterValue("hits"));

    MetricsDoc perfetto;
    ASSERT_TRUE(readJsonlFile(cfg.perfetto_path, perfetto, &err)) << err;
    EXPECT_TRUE(perfetto.meta.get("traceEvents").isArray());
    EXPECT_GT(perfetto.meta.get("traceEvents").size(), 0u);
}

TEST(Obs, ExportsRoundTripThroughJsonParser)
{
    // An unset interval means the default epoch length.
    EXPECT_EQ(ObsConfig{}.resolvedInterval(), ObsConfig::kDefaultInterval);

    // Besides the plain run, negative or huge env values must fall back
    // to the defaults instead of wrapping to 2^64-1 or reserving a ring
    // the process cannot allocate.
    struct EnvInput
    {
        const char *name;
        const char *value;
    };
    for (const EnvInput &in :
         {EnvInput{nullptr, nullptr},
          EnvInput{"NURAPID_OBS_EVENT_CAP", "-1"},
          EnvInput{"NURAPID_OBS_EVENT_CAP", "99999999999"}}) {
        SCOPED_TRACE(in.name ? std::string(in.name) + "=" + in.value
                             : std::string("no env"));
        if (in.name)
            ::setenv(in.name, in.value, 1);
        checkExportsRoundTrip();
        if (in.name)
            ::unsetenv(in.name);
    }
}

TEST(Obs, ObservedRunsBypassTheRunCache)
{
    RunEngineOptions opts;
    opts.jobs = 1;
    opts.use_cache = true;
    RunEngine engine(opts);
    const SimLength len{2'000, 8'000};
    RunRequest plain{OrgSpec::snucaDefault(), findProfile("twolf"), len,
                     ObsConfig{}};
    RunRequest observed = plain;
    observed.obs.record_metrics = true;
    observed.obs.interval = 1024;
    observed.obs.metrics_path =
        ::testing::TempDir() + "obs_bypass_metrics.jsonl";

    // Prime the cache, then confirm a replay of the plain request hits.
    EXPECT_FALSE(engine.runMany({plain}).front().from_cache);
    EXPECT_TRUE(engine.runMany({plain}).front().from_cache);

    // The observed twin must simulate (and write its file) both times.
    const RunMetrics first = engine.runMany({observed}).front();
    EXPECT_FALSE(first.from_cache);
    EXPECT_EQ(first.metrics_file, observed.obs.metrics_path);
    EXPECT_FALSE(engine.runMany({observed}).front().from_cache);

    // Observing changed nothing about the simulation itself: the
    // cached plain result and the observed run agree exactly.
    const RunMetrics again = engine.runMany({plain}).front();
    EXPECT_TRUE(again.from_cache);
    EXPECT_EQ(first.cycles, again.cycles);
    EXPECT_EQ(first.instructions, again.instructions);
    EXPECT_DOUBLE_EQ(first.ipc, again.ipc);
}

TEST(Obs, WarnOnceDeduplicatesAndWarnCanBeSilenced)
{
    ::testing::internal::CaptureStderr();
    warnOnce("obs-test dedup marker %d", 7);
    warnOnce("obs-test dedup marker %d", 7);
    std::string out = ::testing::internal::GetCapturedStderr();
    std::size_t n = 0;
    for (std::size_t pos = 0;
         (pos = out.find("obs-test dedup marker 7", pos)) !=
         std::string::npos;
         ++pos) {
        ++n;
    }
    EXPECT_EQ(n, 1u) << out;

    setWarnEnabled(false);
    ::testing::internal::CaptureStderr();
    warn("obs-test silenced warn");
    warnOnce("obs-test silenced warnOnce");
    out = ::testing::internal::GetCapturedStderr();
    setWarnEnabled(true);
    EXPECT_EQ(out.find("obs-test silenced"), std::string::npos) << out;
}

} // namespace
} // namespace nurapid
