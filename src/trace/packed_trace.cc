#include "trace/packed_trace.hh"

#include "trace/stream_registry.hh"

namespace nurapid {

namespace {

StreamRegistry<PackedTrace> &
registry()
{
    static StreamRegistry<PackedTrace> r;
    return r;
}

} // namespace

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

std::shared_ptr<const PackedTrace>
sharedPackedTrace(const WorkloadProfile &profile, std::uint64_t records,
                  std::uint64_t seed_mix)
{
    Fingerprint fp;
    fingerprintProfile(fp, profile);
    fp.field("seed_mix", seed_mix);
    return registry().get(
        fp.key(), [&](const std::shared_ptr<const PackedTrace> &cur) {
            if (!cur)
                return std::make_shared<const PackedTrace>(profile, records,
                                                           seed_mix);
            // A longer request extends the stored buffer.
            if (cur->size() < records)
                return std::make_shared<const PackedTrace>(*cur, records);
            return cur;
        });
}

std::size_t
dropUnusedPackedTraces()
{
    return registry().dropUnused();
}

} // namespace nurapid
