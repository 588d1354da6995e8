/**
 * @file
 * Flight-recorder observability layer: per-run event tracing and an
 * interval-metrics timeline for the lower-memory organizations.
 *
 * The paper's central claims are distributional — Figure 4/5 describe
 * where hits land across d-groups and how placement policies shift
 * that distribution over time — but end-of-run counters collapse the
 * whole run into one bar. This layer records *when* things happen:
 *
 *  - EventSink: a per-run, thread-confined recorder the five
 *    organizations feed with typed events (hit/miss with d-group or
 *    bank-row distance, promotion, demotion, swap, eviction,
 *    writeback, MSHR stall). Hooks are always compiled and cost one
 *    predictably-not-taken branch when no sink is attached; each run's
 *    sink is owned by exactly one worker thread, so recording is
 *    lock-free by construction. Hooks live at the organization layer
 *    (inside access()/promote()/demote paths shared by the live loop
 *    and the distilled replay), so both execution modes produce the
 *    identical event stream for the same (config, trace) pair.
 *
 *  - IntervalRecorder: epoch-sliced snapshots of every registered
 *    organization counter plus derived series (per-region occupancy
 *    and hit share, average/percentile access latency, demotion
 *    rate). Epochs are reference-count windows (default 64K refs,
 *    --obs-interval); the core ticks the recorder once per
 *    retired reference in runTyped and runDistilled alike. Snapshots
 *    are restricted to values that are per-record exact in both paths
 *    (cycles, instructions, organization counters, region hits,
 *    occupancy), so the timeline too is bit-identical live vs
 *    distilled.
 *
 *    Snapshots also sample the organization's cumulative
 *    EnergyBreakdown accumulators (plus off-chip energy), giving the
 *    Figure-10-style where-does-the-energy-go series; because the
 *    cumulative doubles are copied bitwise, the final snapshot
 *    reconciles exactly with the end-of-run energy totals.
 *
 * Layering: like sim/audit, this header depends only on common/ and
 * the header-only energy accumulator (energy/energy_breakdown.hh) so
 * the mem/nuca/nurapid/cpu libraries can include it without an upward
 * link dependency; runtime state lives in the nurapid_obs library.
 */

#ifndef NURAPID_SIM_OBS_OBS_HH
#define NURAPID_SIM_OBS_OBS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "energy/energy_breakdown.hh"

namespace nurapid {

/** What happened inside the lower-memory organization. */
enum class ObsEventKind : std::uint8_t
{
    Hit,        //!< demand hit; region = d-group / bank row / level
    Miss,       //!< demand miss to memory
    Promotion,  //!< block moved inward into a free frame/way
    Demotion,   //!< block moved outward (cascade or swap partner)
    Swap,       //!< atomic exchange: hit block inward, victim outward
    Eviction,   //!< block left the organization entirely
    Writeback,  //!< L1 dirty eviction absorbed by the organization
    MshrStall,  //!< core stalled for a free miss register
};

const char *obsEventKindName(ObsEventKind kind);

/** One recorded event; 24 bytes, trivially copyable. */
struct ObsEvent
{
    /** Region value for events where no region is meaningful. */
    static constexpr std::uint8_t kNoRegion = 0xff;

    std::uint64_t cycle = 0;  //!< core cycle the access arrived
    Addr addr = 0;            //!< block-aligned address (0 if unknown)
    std::uint32_t latency = 0;  //!< access latency / stall cycles
    ObsEventKind kind = ObsEventKind::Hit;
    std::uint8_t from = kNoRegion;  //!< source region
    std::uint8_t to = kNoRegion;    //!< destination region
    std::uint8_t flags = 0;         //!< bit 0: dirty
};

/**
 * Per-run event recorder. Owned by one System (hence one worker
 * thread); organizations hold a raw pointer that is null unless
 * observability was enabled for the run.
 *
 * Always maintains cheap epoch-local latency aggregates (read and
 * reset by the IntervalRecorder at each epoch boundary) so the
 * metrics timeline works even when event buffering is off.
 */
class EventSink
{
  public:
    /** @param keep_events buffer events (vs aggregates only);
     *  @param cap ring capacity, 0 = unbounded. When the ring is full
     *  the oldest events are overwritten (flight-recorder semantics)
     *  and dropped() counts the overwrites. */
    explicit EventSink(bool keep_events = true, std::uint64_t cap = 0);

    void
    record(const ObsEvent &e)
    {
        if (keepEvents)
            push(e);
        if (e.kind == ObsEventKind::Hit || e.kind == ObsEventKind::Miss) {
            ++epochAccessCount;
            epochHitCount += e.kind == ObsEventKind::Hit;
            epochLatency.sample(e.latency);
            epochLatencyHist.sample(e.latency);
        }
    }

    void
    hit(Cycle now, Addr addr, std::uint8_t region, Cycles latency)
    {
        record({now, addr, latency, ObsEventKind::Hit,
                ObsEvent::kNoRegion, region, 0});
    }

    void
    miss(Cycle now, Addr addr, Cycles latency)
    {
        record({now, addr, latency, ObsEventKind::Miss,
                ObsEvent::kNoRegion, ObsEvent::kNoRegion, 0});
    }

    void
    promotion(Cycle now, Addr addr, std::uint8_t from, std::uint8_t to)
    {
        record({now, addr, 0, ObsEventKind::Promotion, from, to, 0});
    }

    void
    demotion(Cycle now, Addr addr, std::uint8_t from, std::uint8_t to)
    {
        record({now, addr, 0, ObsEventKind::Demotion, from, to, 0});
    }

    void
    swap(Cycle now, Addr addr, std::uint8_t from, std::uint8_t to)
    {
        record({now, addr, 0, ObsEventKind::Swap, from, to, 0});
    }

    void
    eviction(Cycle now, Addr addr, bool dirty)
    {
        record({now, addr, 0, ObsEventKind::Eviction, ObsEvent::kNoRegion,
                ObsEvent::kNoRegion,
                static_cast<std::uint8_t>(dirty ? 1 : 0)});
    }

    void
    writeback(Cycle now, Addr addr)
    {
        record({now, addr, 0, ObsEventKind::Writeback, ObsEvent::kNoRegion,
                ObsEvent::kNoRegion, 1});
    }

    void
    mshrStall(Cycle now, Addr addr, Cycles waited)
    {
        record({now, addr, waited, ObsEventKind::MshrStall,
                ObsEvent::kNoRegion, ObsEvent::kNoRegion, 0});
    }

    /** Recorded events in order (oldest first, even after wrap). */
    std::vector<ObsEvent> events() const;

    std::uint64_t recorded() const { return recordedCount; }
    std::uint64_t dropped() const { return droppedCount; }
    bool buffering() const { return keepEvents; }

    /** Epoch-local aggregates, read+reset at each epoch boundary. */
    struct EpochAggregates
    {
        std::uint64_t accesses = 0;  //!< demand hits + misses
        std::uint64_t hits = 0;
        double avg_latency = 0;
        std::uint32_t lat_p50 = 0;
        std::uint32_t lat_p95 = 0;
    };
    EpochAggregates takeEpochAggregates();

  private:
    void push(const ObsEvent &e);

    bool keepEvents;
    std::uint64_t cap;            //!< 0 = unbounded
    std::uint64_t recordedCount = 0;
    std::uint64_t droppedCount = 0;
    std::uint64_t head = 0;       //!< next overwrite slot once wrapped
    std::vector<ObsEvent> buffer;

    std::uint64_t epochAccessCount = 0;
    std::uint64_t epochHitCount = 0;
    Average epochLatency;
    Histogram epochLatencyHist;
};

/**
 * One cumulative snapshot of the observable run state at an epoch
 * boundary. All values except occupancy and the epoch-local latency
 * aggregates are cumulative since measurement start, so consumers
 * difference adjacent snapshots to get per-epoch deltas and the final
 * snapshot equals the end-of-run Stats counters exactly.
 */
struct IntervalSnapshot
{
    std::uint64_t refs = 0;          //!< references retired so far
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    /** Every organization counter, in registration order. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /** Cumulative demand hits per region (regionHits histogram). */
    std::vector<std::uint64_t> region_hits;
    /** Instantaneous valid-block count per region. */
    std::vector<std::uint64_t> occupancy;

    /**
     * Cumulative dynamic-energy attribution, sampled straight from the
     * organization's EnergyBreakdown accumulators — doubles copied
     * bitwise, never re-summed, so the final snapshot reconciles
     * exactly with the end-of-run EnergyModel totals. Per-epoch
     * figures are deltas of consecutive snapshots, derived at render
     * time only. has_energy is false when the organization exposes no
     * breakdown (the series is then omitted from exports).
     */
    bool has_energy = false;
    double energy_total_nj = 0;      //!< == cacheEnergyNJ() at sample time
    double energy_tag_nj = 0;
    double energy_swap_nj = 0;
    double energy_writeback_nj = 0;
    std::vector<double> energy_data_nj;  //!< per latency region
    /** Off-chip energy: dynamicEnergyNJ() - cacheEnergyNJ(), the same
     *  expression EnergyReport::memory_nj uses. */
    double energy_lower_nj = 0;

    /** Epoch-local (since the previous snapshot). */
    std::uint64_t epoch_accesses = 0;
    std::uint64_t epoch_hits = 0;
    double epoch_avg_latency = 0;
    std::uint32_t epoch_lat_p50 = 0;
    std::uint32_t epoch_lat_p95 = 0;

    std::uint64_t counter(const std::string &name) const;
};

/** Where the recorder samples its snapshot values from. */
struct IntervalSources
{
    const StatGroup *org_counters = nullptr;
    const Histogram *region_hits = nullptr;
    std::function<std::uint64_t()> cycles;
    std::function<std::uint64_t()> instructions;
    std::function<void(std::vector<std::uint64_t> &)> occupancy;
    /** Cumulative per-component cache energy; null = no energy series. */
    const EnergyBreakdown *energy = nullptr;
    /** Cumulative off-chip (lower-memory) dynamic energy in nJ. */
    std::function<double()> lower_energy;
};

/**
 * Epoch clock: the core ticks it once per retired reference; every
 * @p interval ticks it snapshots the sources. begin() records the
 * epoch-0 baseline, finish() the final (possibly partial) epoch.
 */
class IntervalRecorder
{
  public:
    IntervalRecorder(std::uint64_t interval, IntervalSources sources,
                     EventSink *sink);

    /** Snapshot the baseline; call at measurement start. */
    void begin();

    /** One retired reference. Inline countdown: the common case is a
     *  decrement and a not-taken branch. */
    void
    tick()
    {
        ++refCount;
        if (--countdown == 0) [[unlikely]] {
            countdown = epochInterval;
            takeSnapshot();
        }
    }

    /** Snapshot the final partial epoch (no-op when the run ended
     *  exactly on a boundary or nothing ticked since). Idempotent. */
    void finish();

    std::uint64_t interval() const { return epochInterval; }
    std::uint64_t refs() const { return refCount; }

    /** timeline()[0] is the begin() baseline (refs = 0). */
    const std::vector<IntervalSnapshot> &timeline() const
    {
        return snapshots;
    }

  private:
    void takeSnapshot();

    std::uint64_t epochInterval;
    std::uint64_t countdown;
    std::uint64_t refCount = 0;
    IntervalSources src;
    EventSink *sink;
    std::vector<IntervalSnapshot> snapshots;
};

/** Per-run observability request, carried by RunRequest / System. */
struct ObsConfig
{
    /** Default epoch length (references) when the config sets none. */
    static constexpr std::uint64_t kDefaultInterval = 65536;

    bool record_events = false;   //!< buffer the typed event stream
    bool record_metrics = false;  //!< build the interval timeline
    std::uint64_t interval = 0;   //!< refs/epoch; 0 = kDefaultInterval

    std::string events_path;    //!< JSONL event dump (--trace-out)
    std::string metrics_path;   //!< JSONL timeline (--metrics-out)
    std::string perfetto_path;  //!< Chrome trace.json (--perfetto-out)

    /** Set by the run engine (not callers): this observed run was
     *  simulated fresh because observed runs never consult or fill
     *  the run cache. Exports note it in the JSONL header so
     *  nurapid_report can flag uncacheable runs. */
    bool run_cache_bypassed = false;

    bool enabled() const { return record_events || record_metrics; }

    /** interval, else kDefaultInterval. */
    std::uint64_t resolvedInterval() const;

    /** NURAPID_OBS_EVENT_CAP, else 0 (unbounded). */
    std::uint64_t resolvedEventCap() const;
};

} // namespace nurapid

#endif // NURAPID_SIM_OBS_OBS_HH
