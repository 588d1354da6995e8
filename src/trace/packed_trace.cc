#include "trace/packed_trace.hh"

#include <cstdio>
#include <list>
#include <mutex>

#include "common/fingerprint.hh"

namespace nurapid {

PackedTrace::PackedTrace(const WorkloadProfile &profile,
                         std::uint64_t records, std::uint64_t seed_mix)
    : gen(profile, seed_mix)
{
    generate(records);
}

PackedTrace::PackedTrace(const PackedTrace &prefix, std::uint64_t records)
    : buf(prefix.buf), gen(prefix.gen)
{
    generate(records);
}

void
PackedTrace::generate(std::uint64_t upto)
{
    if (upto > buf.size()) {
        buf.reserve(upto);
        TraceRecord r;
        for (std::uint64_t n = buf.size(); n < upto; ++n) {
            if (!gen.next(r))
                break;
            PackedRecord p;
            p.addr = r.addr;
            p.branch_pc = r.branch_pc;
            p.inst_gap = r.inst_gap;
            p.op = static_cast<std::uint8_t>(r.op);
            p.flags = static_cast<std::uint8_t>(
                (r.depends_on_prev ? kDependsOnPrev : 0) |
                (r.latency_critical ? kLatencyCritical : 0) |
                (r.has_branch ? kHasBranch : 0) |
                (r.branch_taken ? kBranchTaken : 0));
            buf.push_back(p);
        }
    }
}

namespace {

bool
sameLayers(const std::vector<WorkingSetLayer> &a,
           const std::vector<WorkingSetLayer> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].bytes != b[i].bytes || a[i].weight != b[i].weight ||
            a[i].segments != b[i].segments ||
            a[i].colliding_segments != b[i].colliding_segments) {
            return false;
        }
    }
    return true;
}

/** Field-for-field equality over everything the generator reads. */
bool
sameProfile(const WorkloadProfile &a, const WorkloadProfile &b)
{
    return a.name == b.name && a.seed == b.seed &&
        a.mem_refs_per_kinst == b.mem_refs_per_kinst &&
        a.store_frac == b.store_frac && a.seq_frac == b.seq_frac &&
        a.dep_frac == b.dep_frac && a.critical_frac == b.critical_frac &&
        a.drift_period == b.drift_period &&
        a.ifetch_refs_per_kinst == b.ifetch_refs_per_kinst &&
        a.code_bytes == b.code_bytes &&
        a.branches_per_kinst == b.branches_per_kinst &&
        a.hard_branch_frac == b.hard_branch_frac &&
        a.hard_branch_bias == b.hard_branch_bias &&
        a.footprint_bytes == b.footprint_bytes &&
        sameLayers(a.layers, b.layers);
}

/** Generator version, part of every distilled-stream key: bump it
 *  whenever SyntheticTrace's output for a fixed profile changes. */
constexpr std::uint64_t kTraceFormatVersion = 2;

} // namespace

Fingerprint
packedTraceFingerprint(const WorkloadProfile &p, std::uint64_t seed_mix)
{
    Fingerprint fp;
    fp.field("format", kTraceFormatVersion);
    fp.field("name", p.name);
    fp.field("seed", p.seed);
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
    fp.field("footprint_bytes", p.footprint_bytes);
    fp.field("layer_count", std::uint64_t{p.layers.size()});
    for (std::size_t i = 0; i < p.layers.size(); ++i) {
        char nm[48];
        std::snprintf(nm, sizeof(nm), "layer%zu.bytes", i);
        fp.field(nm, p.layers[i].bytes);
        std::snprintf(nm, sizeof(nm), "layer%zu.weight", i);
        fp.field(nm, p.layers[i].weight);
        std::snprintf(nm, sizeof(nm), "layer%zu.segments", i);
        fp.field(nm, p.layers[i].segments);
        std::snprintf(nm, sizeof(nm), "layer%zu.colliding", i);
        fp.field(nm, p.layers[i].colliding_segments);
    }
    fp.field("seed_mix", seed_mix);
    return fp;
}

namespace {

struct RegistryEntry
{
    WorkloadProfile profile;
    std::uint64_t seed_mix = 0;
    std::shared_ptr<const PackedTrace> buf;
    std::mutex gen_mutex;  //!< serializes generation per entry only
};

struct Registry
{
    std::mutex mtx;  //!< guards the entry list, never generation
    std::list<RegistryEntry> entries;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

std::shared_ptr<const PackedTrace>
sharedPackedTrace(const WorkloadProfile &profile, std::uint64_t records,
                  std::uint64_t seed_mix)
{
    Registry &reg = registry();
    RegistryEntry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(reg.mtx);
        for (RegistryEntry &e : reg.entries) {
            if (e.seed_mix == seed_mix &&
                sameProfile(e.profile, profile)) {
                entry = &e;
                break;
            }
        }
        if (!entry) {
            reg.entries.emplace_back();
            entry = &reg.entries.back();
            entry->profile = profile;
            entry->seed_mix = seed_mix;
        }
    }

    // Generation happens outside the registry lock so concurrent
    // workers only serialize against requests for the same workload.
    std::lock_guard<std::mutex> lock(entry->gen_mutex);
    if (!entry->buf) {
        entry->buf = std::make_shared<const PackedTrace>(
            profile, records, seed_mix);
    } else if (entry->buf->size() < records) {
        entry->buf = std::make_shared<const PackedTrace>(
            *entry->buf, records);
    }
    return entry->buf;
}

std::size_t
dropUnusedPackedTraces()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mtx);
    std::size_t freed = 0;
    for (auto it = reg.entries.begin(); it != reg.entries.end();) {
        std::unique_lock<std::mutex> gen_lock(it->gen_mutex,
                                              std::try_to_lock);
        if (gen_lock.owns_lock() &&
            (!it->buf || it->buf.use_count() == 1)) {
            gen_lock.unlock();
            it = reg.entries.erase(it);
            ++freed;
        } else {
            ++it;
        }
    }
    return freed;
}

} // namespace nurapid
