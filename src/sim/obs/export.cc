#include "sim/obs/export.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace nurapid {

namespace {

Json
metaHeader(const char *kind, const ObsExportMeta &meta)
{
    Json j = Json::object();
    j.set("meta", kind);
    j.set("workload", meta.workload);
    j.set("organization", meta.organization);
    if (meta.run_cache_bypassed)
        j.set("run_cache_bypassed", true);
    return j;
}

bool
writeLines(const std::string &path, const std::vector<Json> &lines)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    for (const Json &j : lines)
        os << j.dump() << "\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace

Json
obsEventToJson(const ObsEvent &e)
{
    Json j = Json::object();
    j.set("cycle", e.cycle);
    j.set("kind", obsEventKindName(e.kind));
    j.set("addr", e.addr);
    if (e.latency)
        j.set("latency", static_cast<std::uint64_t>(e.latency));
    if (e.from != ObsEvent::kNoRegion)
        j.set("from", static_cast<std::uint64_t>(e.from));
    if (e.to != ObsEvent::kNoRegion)
        j.set("to", static_cast<std::uint64_t>(e.to));
    if (e.flags & 1)
        j.set("dirty", true);
    return j;
}

Json
intervalSnapshotToJson(const IntervalSnapshot &s)
{
    Json j = Json::object();
    j.set("refs", s.refs);
    j.set("cycles", s.cycles);
    j.set("instructions", s.instructions);
    Json counters = Json::object();
    for (const auto &kv : s.counters)
        counters.set(kv.first, kv.second);
    j.set("counters", std::move(counters));
    Json hits = Json::array();
    for (std::uint64_t h : s.region_hits)
        hits.push(h);
    j.set("region_hits", std::move(hits));
    Json occ = Json::array();
    for (std::uint64_t o : s.occupancy)
        occ.push(o);
    j.set("occupancy", std::move(occ));
    j.set("epoch_accesses", s.epoch_accesses);
    j.set("epoch_hits", s.epoch_hits);
    j.set("epoch_avg_latency", s.epoch_avg_latency);
    j.set("epoch_lat_p50", static_cast<std::uint64_t>(s.epoch_lat_p50));
    j.set("epoch_lat_p95", static_cast<std::uint64_t>(s.epoch_lat_p95));
    if (s.has_energy) {
        Json e = Json::object();
        e.set("total_nj", s.energy_total_nj);
        e.set("tag_nj", s.energy_tag_nj);
        e.set("swap_nj", s.energy_swap_nj);
        e.set("writeback_nj", s.energy_writeback_nj);
        Json data = Json::array();
        for (double d : s.energy_data_nj)
            data.push(d);
        e.set("data_nj", std::move(data));
        e.set("lower_nj", s.energy_lower_nj);
        j.set("energy", std::move(e));
    }
    return j;
}

bool
writeEventsJsonl(const std::string &path, const ObsExportMeta &meta,
                 const EventSink &sink)
{
    std::vector<Json> lines;
    Json header = metaHeader("nurapid-events", meta);
    header.set("recorded", sink.recorded());
    lines.push_back(std::move(header));
    for (const ObsEvent &e : sink.events())
        lines.push_back(obsEventToJson(e));
    return writeLines(path, lines);
}

bool
writeMetricsJsonl(const std::string &path, const ObsExportMeta &meta,
                  const IntervalRecorder &recorder)
{
    std::vector<Json> lines;
    Json header = metaHeader("nurapid-metrics", meta);
    header.set("interval", recorder.interval());
    const auto &timeline = recorder.timeline();
    const std::uint64_t regions =
        timeline.empty() ? 0 : timeline.front().region_hits.size();
    header.set("regions", regions);
    lines.push_back(std::move(header));
    for (const IntervalSnapshot &s : timeline)
        lines.push_back(intervalSnapshotToJson(s));
    return writeLines(path, lines);
}

bool
writePerfettoTrace(const std::string &path, const ObsExportMeta &meta,
                   const IntervalRecorder &recorder)
{
    const std::string track = meta.workload + " / " + meta.organization;
    Json events = Json::array();
    const auto &timeline = recorder.timeline();
    for (std::size_t i = 1; i < timeline.size(); ++i) {
        const IntervalSnapshot &prev = timeline[i - 1];
        const IntervalSnapshot &cur = timeline[i];
        // One slice per epoch; "microseconds" on the Perfetto axis are
        // simulated core cycles.
        Json slice = Json::object();
        slice.set("name", strprintf("epoch %zu", i - 1));
        slice.set("ph", "X");
        slice.set("cat", "epoch");
        slice.set("ts", prev.cycles);
        slice.set("dur", cur.cycles - prev.cycles);
        slice.set("pid", 1);
        slice.set("tid", 1);
        Json sargs = Json::object();
        sargs.set("refs", cur.refs - prev.refs);
        sargs.set("instructions", cur.instructions - prev.instructions);
        slice.set("args", std::move(sargs));
        events.push(std::move(slice));

        Json occ = Json::object();
        occ.set("name", "occupancy");
        occ.set("ph", "C");
        occ.set("ts", cur.cycles);
        occ.set("pid", 1);
        Json oargs = Json::object();
        for (std::size_t r = 0; r < cur.occupancy.size(); ++r)
            oargs.set(strprintf("region%zu", r), cur.occupancy[r]);
        occ.set("args", std::move(oargs));
        events.push(std::move(occ));

        Json derived = Json::object();
        derived.set("name", "access");
        derived.set("ph", "C");
        derived.set("ts", cur.cycles);
        derived.set("pid", 1);
        Json dargs = Json::object();
        const double hit_share = cur.epoch_accesses
            ? static_cast<double>(cur.epoch_hits) /
                static_cast<double>(cur.epoch_accesses)
            : 0.0;
        dargs.set("hit_share", hit_share);
        dargs.set("avg_latency", cur.epoch_avg_latency);
        derived.set("args", std::move(dargs));
        events.push(std::move(derived));

        if (cur.has_energy) {
            // Per-epoch energy deltas by component; the data arrays
            // are folded into one series for a readable stacked track.
            Json en = Json::object();
            en.set("name", "energy (nJ/epoch)");
            en.set("ph", "C");
            en.set("ts", cur.cycles);
            en.set("pid", 1);
            double data_cur = 0, data_prev = 0;
            for (double d : cur.energy_data_nj)
                data_cur += d;
            for (double d : prev.energy_data_nj)
                data_prev += d;
            Json eargs = Json::object();
            eargs.set("tag", cur.energy_tag_nj - prev.energy_tag_nj);
            eargs.set("data", data_cur - data_prev);
            eargs.set("swap", cur.energy_swap_nj - prev.energy_swap_nj);
            eargs.set("writeback",
                      cur.energy_writeback_nj - prev.energy_writeback_nj);
            eargs.set("lower",
                      cur.energy_lower_nj - prev.energy_lower_nj);
            en.set("args", std::move(eargs));
            events.push(std::move(en));
        }
    }
    Json root = Json::object();
    root.set("displayTimeUnit", "ns");
    Json mdata = Json::object();
    mdata.set("run", track);
    root.set("metadata", std::move(mdata));
    root.set("traceEvents", std::move(events));

    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    os << root.dump() << "\n";
    os.flush();
    return static_cast<bool>(os);
}

bool
readJsonlFile(const std::string &path, MetricsDoc &out, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    out.meta = Json();
    out.epochs.clear();
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string err;
        Json j = Json::parse(line, &err);
        if (j.isNull()) {
            if (error) {
                *error = strprintf("%s:%zu: %s", path.c_str(), lineno,
                                   err.c_str());
            }
            return false;
        }
        if (lineno == 1)
            out.meta = std::move(j);
        else
            out.epochs.push_back(std::move(j));
    }
    if (out.meta.isNull()) {
        if (error)
            *error = path + ": empty file";
        return false;
    }
    return true;
}

} // namespace nurapid
