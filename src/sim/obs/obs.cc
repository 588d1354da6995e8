#include "sim/obs/obs.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace nurapid {

namespace {

/** Latency histogram width: plenty for on-chip latencies; longer
 *  memory latencies clamp into the last bucket, which still orders
 *  percentiles correctly. */
constexpr std::size_t kLatencyBuckets = 512;

std::uint64_t
envUint(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    // strtoull negates "-1" into 2^64-1 instead of failing.
    if (end == v || *end != '\0' || std::strchr(v, '-')) {
        warnOnce("ignoring unparseable %s='%s'", name, v);
        return fallback;
    }
    return parsed;
}

} // namespace

const char *
obsEventKindName(ObsEventKind kind)
{
    switch (kind) {
      case ObsEventKind::Hit: return "hit";
      case ObsEventKind::Miss: return "miss";
      case ObsEventKind::Promotion: return "promotion";
      case ObsEventKind::Demotion: return "demotion";
      case ObsEventKind::Swap: return "swap";
      case ObsEventKind::Eviction: return "eviction";
      case ObsEventKind::Writeback: return "writeback";
      case ObsEventKind::MshrStall: return "mshr_stall";
    }
    return "unknown";
}

EventSink::EventSink(bool keep_events, std::uint64_t ring_cap)
    : keepEvents(keep_events), cap(ring_cap)
{
    epochLatencyHist.resize(kLatencyBuckets);
    // A small head start; push() grows the ring up to cap.
    if (keepEvents)
        buffer.reserve(cap && cap < 4096 ? cap : 4096);
}

void
EventSink::push(const ObsEvent &e)
{
    ++recordedCount;
    if (cap == 0 || buffer.size() < cap) {
        buffer.push_back(e);
        return;
    }
    // Ring full: flight-recorder semantics, overwrite the oldest.
    buffer[head] = e;
    head = (head + 1) % cap;
    ++droppedCount;
}

std::vector<ObsEvent>
EventSink::events() const
{
    std::vector<ObsEvent> out;
    out.reserve(buffer.size());
    // head is the oldest slot once the ring has wrapped.
    for (std::uint64_t i = head; i < buffer.size(); ++i)
        out.push_back(buffer[i]);
    for (std::uint64_t i = 0; i < head; ++i)
        out.push_back(buffer[i]);
    return out;
}

EventSink::EpochAggregates
EventSink::takeEpochAggregates()
{
    EpochAggregates agg;
    agg.accesses = epochAccessCount;
    agg.hits = epochHitCount;
    agg.avg_latency = epochLatency.mean();
    if (epochLatencyHist.total() > 0) {
        agg.lat_p50 = static_cast<std::uint32_t>(
            epochLatencyHist.percentileBucket(0.50));
        agg.lat_p95 = static_cast<std::uint32_t>(
            epochLatencyHist.percentileBucket(0.95));
    }
    epochAccessCount = 0;
    epochHitCount = 0;
    epochLatency.reset();
    epochLatencyHist.reset();
    return agg;
}

std::uint64_t
IntervalSnapshot::counter(const std::string &name) const
{
    for (const auto &kv : counters) {
        if (kv.first == name)
            return kv.second;
    }
    return 0;
}

IntervalRecorder::IntervalRecorder(std::uint64_t interval,
                                   IntervalSources sources,
                                   EventSink *event_sink)
    : epochInterval(interval), countdown(interval),
      src(std::move(sources)), sink(event_sink)
{
    panic_if(epochInterval == 0, "interval recorder with a zero epoch");
}

void
IntervalRecorder::begin()
{
    panic_if(!snapshots.empty(), "interval recorder started twice");
    takeSnapshot();
}

void
IntervalRecorder::finish()
{
    if (!snapshots.empty() && snapshots.back().refs == refCount)
        return;
    takeSnapshot();
}

void
IntervalRecorder::takeSnapshot()
{
    IntervalSnapshot s;
    s.refs = refCount;
    if (src.cycles)
        s.cycles = src.cycles();
    if (src.instructions)
        s.instructions = src.instructions();
    if (src.org_counters)
        s.counters = src.org_counters->counterValues();
    if (src.region_hits) {
        s.region_hits.resize(src.region_hits->buckets());
        for (std::size_t b = 0; b < s.region_hits.size(); ++b)
            s.region_hits[b] = src.region_hits->count(b);
    }
    if (src.occupancy)
        src.occupancy(s.occupancy);
    if (src.energy) {
        // Bitwise copies of the cumulative accumulators — no
        // re-summation, so the final snapshot equals the end-of-run
        // totals exactly.
        s.has_energy = true;
        s.energy_total_nj = src.energy->total_nj;
        s.energy_tag_nj = src.energy->tag_nj;
        s.energy_swap_nj = src.energy->swap_nj;
        s.energy_writeback_nj = src.energy->writeback_nj;
        s.energy_data_nj = src.energy->data_nj;
        if (src.lower_energy)
            s.energy_lower_nj = src.lower_energy();
    }
    if (sink) {
        const EventSink::EpochAggregates agg = sink->takeEpochAggregates();
        s.epoch_accesses = agg.accesses;
        s.epoch_hits = agg.hits;
        s.epoch_avg_latency = agg.avg_latency;
        s.epoch_lat_p50 = agg.lat_p50;
        s.epoch_lat_p95 = agg.lat_p95;
    }
    snapshots.push_back(std::move(s));
}

std::uint64_t
ObsConfig::resolvedInterval() const
{
    return interval ? interval : kDefaultInterval;
}

std::uint64_t
ObsConfig::resolvedEventCap() const
{
    return envUint("NURAPID_OBS_EVENT_CAP", 0);
}

} // namespace nurapid
