#include "sim/runner/run_cache.hh"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/fingerprint.hh"
#include "common/logging.hh"

namespace nurapid {

namespace {

void
fingerprintMemory(Fingerprint &fp, const MainMemory::Params &m)
{
    fp.field("mem.base_latency", static_cast<std::uint64_t>(m.base_latency));
    fp.field("mem.cycles_per_8b",
             static_cast<std::uint64_t>(m.cycles_per_8b));
    fp.field("mem.access_nj", m.access_nj);
}

void
fingerprintCacheOrg(Fingerprint &fp, const char *tag, const CacheOrg &org)
{
    fp.field(tag, org.name);
    fp.field("capacity", org.capacity_bytes);
    fp.field("assoc", org.assoc);
    fp.field("block", org.block_bytes);
}

void
fingerprintSpec(Fingerprint &fp, const OrgSpec &spec)
{
    fp.field("org", spec.description());
    fp.field("kind", static_cast<std::uint64_t>(spec.kind));
    switch (spec.kind) {
      case OrgKind::BaseL2L3:
        fingerprintCacheOrg(fp, "l2", spec.base.l2);
        fingerprintCacheOrg(fp, "l3", spec.base.l3);
        fp.field("l2_latency",
                 static_cast<std::uint64_t>(spec.base.l2_latency));
        fp.field("l3_latency",
                 static_cast<std::uint64_t>(spec.base.l3_latency));
        fingerprintMemory(fp, spec.base.memory);
        break;
      case OrgKind::DNuca:
        fp.field("capacity", spec.dnuca.capacity_bytes);
        fp.field("assoc", spec.dnuca.assoc);
        fp.field("block", spec.dnuca.block_bytes);
        fp.field("rows", spec.dnuca.rows);
        fp.field("cols", spec.dnuca.cols);
        fp.field("search", dnucaSearchName(spec.dnuca.search));
        fp.field("partial_tag_bits", spec.dnuca.partial_tag_bits);
        fp.field("promote_on_hit", spec.dnuca.promote_on_hit);
        fingerprintMemory(fp, spec.dnuca.memory);
        break;
      case OrgKind::SNuca:
        fp.field("capacity", spec.snuca.capacity_bytes);
        fp.field("assoc", spec.snuca.assoc);
        fp.field("block", spec.snuca.block_bytes);
        fp.field("rows", spec.snuca.rows);
        fp.field("cols", spec.snuca.cols);
        fingerprintMemory(fp, spec.snuca.memory);
        break;
      case OrgKind::NuRapid:
        fp.field("capacity", spec.nurapid.capacity_bytes);
        fp.field("assoc", spec.nurapid.assoc);
        fp.field("block", spec.nurapid.block_bytes);
        fp.field("dgroups", spec.nurapid.num_dgroups);
        fp.field("promotion",
                 promotionPolicyName(spec.nurapid.promotion));
        fp.field("drepl", distanceReplName(spec.nurapid.distance_repl));
        fp.field("single_port", spec.nurapid.single_port);
        fp.field("ideal", spec.nurapid.ideal_fastest);
        fp.field("restriction", spec.nurapid.frame_restriction);
        fp.field("seed", spec.nurapid.seed);
        fingerprintMemory(fp, spec.nurapid.memory);
        break;
      case OrgKind::CoupledSA:
        fp.field("capacity", spec.coupled.capacity_bytes);
        fp.field("assoc", spec.coupled.assoc);
        fp.field("block", spec.coupled.block_bytes);
        fp.field("dgroups", spec.coupled.num_dgroups);
        fp.field("promotion",
                 promotionPolicyName(spec.coupled.promotion));
        fp.field("single_port", spec.coupled.single_port);
        fingerprintMemory(fp, spec.coupled.memory);
        break;
    }
}

void
fingerprintProfile(Fingerprint &fp, const WorkloadProfile &p)
{
    fp.field("workload", p.name);
    fp.field("fp", p.fp);
    fp.field("high_load", p.high_load);
    fp.field("base_cpi", p.base_cpi);
    fp.field("mem_refs_per_kinst", p.mem_refs_per_kinst);
    fp.field("store_frac", p.store_frac);
    fp.field("seq_frac", p.seq_frac);
    fp.field("dep_frac", p.dep_frac);
    fp.field("critical_frac", p.critical_frac);
    fp.field("drift_period", p.drift_period);
    fp.field("ifetch_refs_per_kinst", p.ifetch_refs_per_kinst);
    fp.field("code_bytes", p.code_bytes);
    fp.field("branches_per_kinst", p.branches_per_kinst);
    fp.field("hard_branch_frac", p.hard_branch_frac);
    fp.field("hard_branch_bias", p.hard_branch_bias);
    fp.field("footprint", p.footprint_bytes);
    fp.field("seed", p.seed);
    fp.field("layers", static_cast<std::uint64_t>(p.layers.size()));
    for (const auto &layer : p.layers) {
        fp.field("layer.bytes", layer.bytes);
        fp.field("layer.weight", layer.weight);
        fp.field("layer.segments", layer.segments);
        fp.field("layer.colliding", layer.colliding_segments);
    }
}

Json
energyToJson(const EnergyReport &e)
{
    Json j = Json::object();
    j.set("core_nj", Json(e.core_nj));
    j.set("l1_nj", Json(e.l1_nj));
    j.set("l2_cache_nj", Json(e.l2_cache_nj));
    j.set("memory_nj", Json(e.memory_nj));
    j.set("total_nj", Json(e.total_nj));
    j.set("cycles", Json(e.cycles));
    j.set("edp", Json(e.edp));
    return j;
}

void
energyFromJson(const Json &j, EnergyReport &e)
{
    e.core_nj = j.get("core_nj").asDouble();
    e.l1_nj = j.get("l1_nj").asDouble();
    e.l2_cache_nj = j.get("l2_cache_nj").asDouble();
    e.memory_nj = j.get("memory_nj").asDouble();
    e.total_nj = j.get("total_nj").asDouble();
    e.cycles = j.get("cycles").asUint();
    e.edp = j.get("edp").asDouble();
}

} // namespace

RunKey
fingerprintRun(const OrgSpec &spec, const WorkloadProfile &profile,
               const SimLength &length)
{
    Fingerprint fp;
    fp.field("schema", kRunCacheSchema);
    fingerprintSpec(fp, spec);
    fingerprintProfile(fp, profile);
    fp.field("warmup", length.warmup_records);
    fp.field("measure", length.measure_records);
    return {fp.key(), fp.digest()};
}

Json
runMetricsToJson(const RunMetrics &m)
{
    Json j = Json::object();
    j.set("workload", Json(m.workload));
    j.set("organization", Json(m.organization));
    j.set("ipc", Json(m.ipc));
    j.set("cycles", Json(m.cycles));
    j.set("instructions", Json(m.instructions));
    j.set("l2_demand", Json(m.l2_demand));
    j.set("l2_hits", Json(m.l2_hits));
    j.set("l2_misses", Json(m.l2_misses));
    j.set("l2_apki", Json(m.l2_apki));
    Json frac = Json::array();
    for (double f : m.region_frac)
        frac.push(Json(f));
    j.set("region_frac", std::move(frac));
    j.set("miss_frac", Json(m.miss_frac));
    j.set("promotions", Json(m.promotions));
    j.set("demotions", Json(m.demotions));
    j.set("block_moves", Json(m.block_moves));
    j.set("data_array_accesses", Json(m.data_array_accesses));
    j.set("energy", energyToJson(m.energy));
    j.set("wall_seconds", Json(m.wall_seconds));
    return j;
}

bool
runMetricsFromJson(const Json &j, RunMetrics &out)
{
    if (!j.isObject() || !j.has("ipc") || !j.has("energy"))
        return false;
    out = RunMetrics{};
    out.workload = j.get("workload").asString();
    out.organization = j.get("organization").asString();
    out.ipc = j.get("ipc").asDouble();
    out.cycles = j.get("cycles").asUint();
    out.instructions = j.get("instructions").asUint();
    out.l2_demand = j.get("l2_demand").asUint();
    out.l2_hits = j.get("l2_hits").asUint();
    out.l2_misses = j.get("l2_misses").asUint();
    out.l2_apki = j.get("l2_apki").asDouble();
    for (const Json &f : j.get("region_frac").items())
        out.region_frac.push_back(f.asDouble());
    out.miss_frac = j.get("miss_frac").asDouble();
    out.promotions = j.get("promotions").asUint();
    out.demotions = j.get("demotions").asUint();
    out.block_moves = j.get("block_moves").asUint();
    out.data_array_accesses = j.get("data_array_accesses").asUint();
    energyFromJson(j.get("energy"), out.energy);
    out.wall_seconds = j.get("wall_seconds").asDouble();
    return true;
}

bool
identicalMetrics(const RunMetrics &a, const RunMetrics &b)
{
    return a.workload == b.workload &&
        a.organization == b.organization &&
        a.ipc == b.ipc && a.cycles == b.cycles &&
        a.instructions == b.instructions &&
        a.l2_demand == b.l2_demand && a.l2_hits == b.l2_hits &&
        a.l2_misses == b.l2_misses && a.l2_apki == b.l2_apki &&
        a.region_frac == b.region_frac && a.miss_frac == b.miss_frac &&
        a.promotions == b.promotions && a.demotions == b.demotions &&
        a.block_moves == b.block_moves &&
        a.data_array_accesses == b.data_array_accesses &&
        a.energy.core_nj == b.energy.core_nj &&
        a.energy.l1_nj == b.energy.l1_nj &&
        a.energy.l2_cache_nj == b.energy.l2_cache_nj &&
        a.energy.memory_nj == b.energy.memory_nj &&
        a.energy.total_nj == b.energy.total_nj &&
        a.energy.cycles == b.energy.cycles &&
        a.energy.edp == b.energy.edp;
}

bool
RunCache::lookup(const RunKey &key, RunMetrics &out) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.find(key.digest);
    if (it == entries.end() || it->second.key != key.key)
        return false;
    out = it->second.metrics;
    return true;
}

void
RunCache::store(const RunKey &key, const RunMetrics &metrics)
{
    std::lock_guard<std::mutex> lock(mtx);
    entries[key.digest] = Entry{key.key, metrics};
}

std::size_t
RunCache::size() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return entries.size();
}

void
RunCache::forEachEntry(
    const std::function<void(const std::string &,
                             const RunMetrics &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mtx);
    for (const auto &kv : entries)
        fn(kv.second.key, kv.second.metrics);
}

std::size_t
RunCache::mergeLocked(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    const Json root = Json::parse(ss.str(), &err);
    if (!root.isObject()) {
        warnOnce("run cache %s: unreadable (%s); ignoring", path.c_str(),
             err.c_str());
        return 0;
    }
    if (root.get("schema").asUint() != kRunCacheSchema) {
        warnOnce("run cache %s: schema %llu != %u; ignoring", path.c_str(),
             static_cast<unsigned long long>(root.get("schema").asUint()),
             kRunCacheSchema);
        return 0;
    }
    std::size_t loaded = 0;
    for (const auto &kv : root.get("entries").members()) {
        const Json &e = kv.second;
        RunMetrics m;
        if (!e.isObject() || !e.get("key").isString() ||
            !runMetricsFromJson(e.get("metrics"), m)) {
            continue;
        }
        // In-memory entries win: they are this process's fresh results.
        if (entries.find(kv.first) == entries.end()) {
            entries[kv.first] = Entry{e.get("key").asString(), m};
            ++loaded;
        }
    }
    return loaded;
}

std::size_t
RunCache::loadFile(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mtx);
    return mergeLocked(path);
}

namespace {

/** Holds an exclusive advisory flock on `<path>.lock` for its lifetime:
 *  serializes the merge-then-rename of concurrent savers, so no process
 *  renames over entries another merged in but has not yet written. */
class SaveLock
{
  public:
    explicit SaveLock(const std::string &path)
        : fd(::open((path + ".lock").c_str(),
                    O_RDWR | O_CREAT | O_CLOEXEC, 0644))
    {
        if (fd < 0) {
            warnOnce("run cache: cannot open %s.lock; saving unlocked",
                     path.c_str());
            return;
        }
        while (::flock(fd, LOCK_EX) != 0 && errno == EINTR) {
        }
    }
    ~SaveLock()
    {
        if (fd >= 0)
            ::close(fd);  // releases the lock
    }
    SaveLock(const SaveLock &) = delete;
    SaveLock &operator=(const SaveLock &) = delete;

  private:
    int fd;
};

} // namespace

bool
RunCache::saveFile(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mtx);
    const SaveLock file_lock(path);
    mergeLocked(path);

    Json root = Json::object();
    root.set("schema", Json(static_cast<std::uint64_t>(kRunCacheSchema)));
    Json ents = Json::object();
    for (const auto &kv : entries) {
        Json e = Json::object();
        e.set("key", Json(kv.second.key));
        e.set("metrics", runMetricsToJson(kv.second.metrics));
        ents.set(kv.first, std::move(e));
    }
    root.set("entries", std::move(ents));

    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("run cache: cannot write %s", tmp.c_str());
        return false;
    }
    out << root.dump() << '\n';
    out.close();
    if (!out) {
        warn("run cache: short write to %s", tmp.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("run cache: cannot rename %s to %s", tmp.c_str(),
             path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace nurapid
