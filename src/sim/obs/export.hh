/**
 * @file
 * Exporters for the observability layer: JSONL event and metrics
 * dumps plus a Chrome/Perfetto trace.json view of the epoch timeline.
 *
 * File formats (all plain text, one JSON value per line for JSONL):
 *
 *  events JSONL   line 1: {"meta":"nurapid-events", workload, org,
 *                 recorded}; then one line per event with
 *                 cycle, kind, addr, latency, from/to region, dirty.
 *
 *  metrics JSONL  line 1: {"meta":"nurapid-metrics", workload, org,
 *                 interval, regions, run_cache_bypassed}; then one
 *                 line per snapshot
 *                 (epoch 0 is the measurement-start baseline) with
 *                 cumulative refs/cycles/instructions/counters/
 *                 region_hits, instantaneous occupancy, epoch-local
 *                 latency aggregates, and (when the organization has
 *                 an EnergyBreakdown) a cumulative "energy" object
 *                 with total/tag/swap/writeback/lower plus per-region
 *                 data nJ. Consumers difference adjacent lines for
 *                 per-epoch deltas; the final line equals the
 *                 end-of-run Stats counters and energy totals exactly.
 *
 *  perfetto       a {"traceEvents":[...]} Chrome trace: one "X" slice
 *                 per epoch (microsecond timeline = simulated cycles)
 *                 and "C" counter tracks for per-region occupancy,
 *                 hit share, average access latency, and per-epoch
 *                 energy by component. Load in chrome://tracing or
 *                 ui.perfetto.dev.
 */

#ifndef NURAPID_SIM_OBS_EXPORT_HH
#define NURAPID_SIM_OBS_EXPORT_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/obs/obs.hh"

namespace nurapid {

/** Run identity stamped into every export header. */
struct ObsExportMeta
{
    std::string workload;
    std::string organization;
    /** Observed runs are always simulated fresh (never served from or
     *  stored into the run cache); noted in the header so report
     *  tooling can flag uncacheable runs. */
    bool run_cache_bypassed = false;
};

/** One event as a JSONL line value (shared by writer and tests). */
Json obsEventToJson(const ObsEvent &e);

/** One snapshot as a JSONL line value. */
Json intervalSnapshotToJson(const IntervalSnapshot &s);

/** Writes the sink's event buffer as JSONL; false on I/O failure. */
bool writeEventsJsonl(const std::string &path, const ObsExportMeta &meta,
                      const EventSink &sink);

/** Writes the recorder's timeline as JSONL; false on I/O failure. */
bool writeMetricsJsonl(const std::string &path, const ObsExportMeta &meta,
                       const IntervalRecorder &recorder);

/** Writes the timeline as a Chrome trace; false on I/O failure. */
bool writePerfettoTrace(const std::string &path, const ObsExportMeta &meta,
                        const IntervalRecorder &recorder);

/** A metrics JSONL read back: header line + one Json per snapshot. */
struct MetricsDoc
{
    Json meta;
    std::vector<Json> epochs;
};

/** Parses a metrics (or events) JSONL file line by line with the
 *  common/ JSON parser; false (with *error set) on the first
 *  unparseable line or unreadable file. */
bool readJsonlFile(const std::string &path, MetricsDoc &out,
                   std::string *error);

} // namespace nurapid

#endif // NURAPID_SIM_OBS_EXPORT_HH
