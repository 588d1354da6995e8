#include "trace/distilled_trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <string_view>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "cpu/branch_predictor.hh"
#include "trace/packed_trace.hh"

namespace nurapid {

namespace {

void
checkCuts(const std::vector<std::uint64_t> &cuts, std::uint64_t records)
{
    fatal_if(cuts.empty(), "distilled stream with no segment cuts");
    std::uint64_t prev = 0;
    for (std::uint64_t c : cuts) {
        fatal_if(c <= prev, "distilled cuts must be ascending and > 0");
        prev = c;
    }
    fatal_if(cuts.back() != records,
             "last distilled cut (%llu) must equal the record count "
             "(%llu)",
             static_cast<unsigned long long>(cuts.back()),
             static_cast<unsigned long long>(records));
}

} // namespace

DistilledTrace::DistilledTrace(const WorkloadProfile &profile,
                               std::uint64_t records,
                               const std::vector<std::uint64_t> &cuts,
                               const DistillParams &params,
                               std::uint64_t seed_mix)
{
    // Event::rec is a 32-bit record index; refuse before allocating.
    fatal_if(records > kMaxRecords,
             "a distilled stream indexes at most %llu records, %llu "
             "requested; set NURAPID_DISTILL=0 for runs this long",
             static_cast<unsigned long long>(kMaxRecords),
             static_cast<unsigned long long>(records));
    checkCuts(cuts, records);
    cuts_ = cuts;

    SyntheticTrace gen(profile, seed_mix);
    SetAssocCache l1i(params.l1i);
    SetAssocCache l1d(params.l1d);
    BranchPredictor bpred(params.bp_entries, params.bp_history_bits);

    gap_buf.resize(records);
    // The event rate is the L1 miss rate plus dep-check points —
    // reserve for a generous 25% (untouched capacity is never made
    // resident) and let the vector grow in the rare workloads beyond
    // that.
    event_buf.reserve(records / 4);

    TraceRecord r;
    auto next_cut = cuts_.begin();
    std::uint32_t acc_bp_pred = 0;  //!< correct predictions since event
    std::uint32_t acc_l1i = 0;      //!< inert ifetch refs since event
    std::uint16_t acc_misp = 0;     //!< folded mispredicts since event
    bool dep_pending = false;       //!< a dep load must replay its check

    for (std::uint64_t k = 0; k < records; ++k) {
        const bool got = gen.next(r);
        panic_if(!got, "workload stream ended mid-distillation");
        gap_buf[k] = r.inst_gap;

        std::uint16_t flags = 0;
        if (r.has_branch &&
            !bpred.predictAndUpdate(r.branch_pc, r.branch_taken)) {
            flags |= kMispredict;
        }

        const bool ifetch = r.op == TraceOp::Ifetch;
        const bool store = r.op == TraceOp::Store;
        if (r.depends_on_prev && !store && !ifetch && dep_pending) {
            flags |= kDepCheck;
            dep_pending = false;
        }

        SetAssocCache &l1 = ifetch ? l1i : l1d;
        const SetAssocCache::Access a = l1.access(r.addr, store);
        if (!a.hit) {
            flags |= kL1Miss;
            if (a.evicted)
                flags |= kL1Evict;
            if (a.evicted && a.evicted_dirty)
                flags |= kWriteback;
            // A deep load updates lastMissCompletion: the next
            // dependent load must check against the new value.
            if (!store && !ifetch)
                dep_pending = true;
        }

        const bool at_cut = next_cut != cuts_.end() && k + 1 == *next_cut;
        if (at_cut)
            ++next_cut;

        // An inst_gap that needs bit 15 makes its record an event, so
        // the gap word of a non-event record never misreads as a
        // folded mispredict.
        const bool foldable = !at_cut && r.inst_gap <= kGapInstMask;
        if (flags == 0 && foldable) {
            // Inert L1 hit: fold into the running deltas.
            if (r.has_branch)
                ++acc_bp_pred;
            if (ifetch)
                ++acc_l1i;
            continue;
        }
        if (flags == kMispredict && foldable && acc_misp < 0xffff) {
            // Mispredict-only L1 hit: its penalty rides the gap word.
            gap_buf[k] |= kGapMispredict;
            ++acc_misp;
            if (ifetch)
                ++acc_l1i;
            continue;
        }

        Event e;
        e.addr = r.addr;
        e.evicted_addr = a.evicted_addr;
        e.rec = static_cast<std::uint32_t>(k);
        e.flags = static_cast<std::uint16_t>(
            flags | (ifetch ? kIfetch : 0) | (store ? kStore : 0) |
            (r.has_branch ? kHasBranch : 0) |
            (r.latency_critical ? kLatencyCritical : 0));
        e.d_misp = acc_misp;
        e.d_bp_pred = acc_bp_pred;
        e.d_l1i = acc_l1i;
        acc_misp = 0;
        acc_bp_pred = 0;
        acc_l1i = 0;
        event_buf.push_back(e);
    }

    gaps_ = gap_buf.data();
    events_ = event_buf.data();
    nrecs = records;
    nevents = event_buf.size();
}

DistilledTrace::DistilledTrace(const WorkloadProfile &, std::uint64_t,
                               const std::vector<std::uint64_t> &cuts,
                               const DistillParams &, void *base,
                               std::size_t len, std::size_t gaps_offset,
                               std::size_t events_offset,
                               std::uint64_t records,
                               std::uint64_t event_count)
    : gaps_(reinterpret_cast<const std::uint16_t *>(
          static_cast<const char *>(base) + gaps_offset)),
      events_(reinterpret_cast<const Event *>(
          static_cast<const char *>(base) + events_offset)),
      nrecs(records), nevents(event_count), cuts_(cuts), map_base(base),
      map_len(len)
{
    checkCuts(cuts_, records);
}

DistilledTrace::~DistilledTrace()
{
    if (map_base != nullptr)
        ::munmap(map_base, map_len);
}

bool
DistilledTrace::isCut(std::uint64_t record) const
{
    return std::binary_search(cuts_.begin(), cuts_.end(), record);
}

Fingerprint
distillFingerprint(const WorkloadProfile &profile, std::uint64_t seed_mix,
                   std::uint64_t records,
                   const std::vector<std::uint64_t> &cuts,
                   const DistillParams &p)
{
    // Format version: bump whenever the event layout or fold semantics
    // change, so stale .dtc files can never replay the old scheme.
    constexpr std::uint64_t kDistillFormatVersion = 2;

    Fingerprint fp;
    fp.field("distill_format", kDistillFormatVersion);
    fp.field("trace", packedTraceFingerprint(profile, seed_mix).key());
    auto cache = [&fp](const char *prefix, const CacheOrg &org) {
        char nm[48];
        std::snprintf(nm, sizeof(nm), "%s.capacity", prefix);
        fp.field(nm, org.capacity_bytes);
        std::snprintf(nm, sizeof(nm), "%s.assoc", prefix);
        fp.field(nm, org.assoc);
        std::snprintf(nm, sizeof(nm), "%s.block", prefix);
        fp.field(nm, org.block_bytes);
    };
    cache("l1i", p.l1i);
    cache("l1d", p.l1d);
    fp.field("bp_entries", p.bp_entries);
    fp.field("bp_history_bits", p.bp_history_bits);
    fp.field("mshr_block_bytes", p.mshr_block_bytes);
    fp.field("records", records);
    fp.field("cut_count", std::uint64_t{cuts.size()});
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        char nm[32];
        std::snprintf(nm, sizeof(nm), "cut%zu", i);
        fp.field(nm, cuts[i]);
    }
    return fp;
}

namespace {

// ---------------------------------------------------------------------
// Cross-process disk cache: header + full canonical key (collision
// guard) + 16-byte-aligned gap and event arrays, written via tmp-file
// + rename so a concurrent or killed writer never leaves a half-written
// file under the final name.
// ---------------------------------------------------------------------

constexpr char kDistillFileMagic[8] = {'N', 'R', 'P', 'D', 'S', 'T', '1',
                                       '\0'};

struct DistillFileHeader
{
    char magic[8];
    std::uint64_t record_count;
    std::uint64_t event_count;
    std::uint64_t key_bytes;
};

std::size_t
alignUp16(std::size_t n)
{
    return (n + 15) & ~std::size_t{15};
}

std::size_t
gapsOffset(std::uint64_t key_bytes)
{
    return alignUp16(sizeof(DistillFileHeader) +
                     static_cast<std::size_t>(key_bytes));
}

std::string
distillCacheDir()
{
    const char *s = std::getenv("NURAPID_TRACE_CACHE_DIR");
    return s != nullptr ? std::string(s) : std::string();
}

std::string
distillFilePath(const std::string &dir, const WorkloadProfile &p,
                const Fingerprint &fp)
{
    return dir + "/" + p.name + "-" + fp.digest() + ".dtc";
}

std::shared_ptr<const DistilledTrace>
loadDistilledFile(const WorkloadProfile &profile, std::uint64_t records,
                  const std::vector<std::uint64_t> &cuts,
                  const DistillParams &params, std::uint64_t seed_mix)
{
    const std::string dir = distillCacheDir();
    if (dir.empty())
        return nullptr;

    const Fingerprint fp =
        distillFingerprint(profile, seed_mix, records, cuts, params);
    const std::string path = distillFilePath(dir, profile, fp);
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;  // not cached yet: the normal cold case

    struct stat st;
    std::size_t len = 0;
    void *base = MAP_FAILED;
    if (::fstat(fd, &st) == 0 &&
        st.st_size >= static_cast<off_t>(sizeof(DistillFileHeader))) {
        len = static_cast<std::size_t>(st.st_size);
        base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    }
    ::close(fd);
    if (base == MAP_FAILED) {
        warn("distilled trace %s is truncated or unreadable; "
             "recomputing", path.c_str());
        return nullptr;
    }

    DistillFileHeader hdr;
    std::memcpy(&hdr, base, sizeof(hdr));
    const char *bad = nullptr;
    std::size_t goff = 0;
    std::size_t eoff = 0;
    if (std::memcmp(hdr.magic, kDistillFileMagic, sizeof(hdr.magic)) != 0 ||
        hdr.record_count != records || hdr.key_bytes != fp.key().size()) {
        bad = "has a stale or foreign header";
    } else if (hdr.event_count > hdr.record_count) {
        // At most one event per record; this also keeps the length
        // product below from wrapping.
        bad = "claims more events than records";
    } else {
        goff = gapsOffset(hdr.key_bytes);
        eoff = alignUp16(goff + static_cast<std::size_t>(records) *
                                    sizeof(std::uint16_t));
        if (len < eoff + hdr.event_count * sizeof(DistilledTrace::Event)) {
            bad = "is truncated";
        } else if (std::memcmp(static_cast<const char *>(base) +
                                   sizeof(hdr),
                               fp.key().data(), fp.key().size()) != 0) {
            // The stored key must match byte for byte — the digest in
            // the file name already matched, this guards collisions.
            bad = "has a colliding key";
        }
    }
    if (bad != nullptr) {
        ::munmap(base, len);
        warn("distilled trace %s %s; recomputing", path.c_str(), bad);
        return nullptr;
    }
    return std::make_shared<const DistilledTrace>(
        profile, seed_mix, cuts, params, base, len, goff, eoff, records,
        hdr.event_count);
}

/** Persists @p t; failures (missing dir, no space) are ignored. */
void
storeDistilledFile(const DistilledTrace &t, const WorkloadProfile &profile,
                   const std::vector<std::uint64_t> &cuts,
                   const DistillParams &params, std::uint64_t seed_mix)
{
    const std::string dir = distillCacheDir();
    if (dir.empty())
        return;

    const Fingerprint fp =
        distillFingerprint(profile, seed_mix, t.size(), cuts, params);
    const std::string path = distillFilePath(dir, profile, fp);
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%ld",
                  static_cast<long>(::getpid()));
    const std::string tmp = path + suffix;

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return;

    DistillFileHeader hdr;
    std::memcpy(hdr.magic, kDistillFileMagic, sizeof(hdr.magic));
    hdr.record_count = t.size();
    hdr.event_count = t.eventCount();
    hdr.key_bytes = fp.key().size();

    const char pad[16] = {};
    const std::size_t goff = gapsOffset(hdr.key_bytes);
    const std::size_t gap_bytes =
        static_cast<std::size_t>(t.size()) * sizeof(std::uint16_t);
    const std::size_t head_pad = goff - sizeof(hdr) - fp.key().size();
    const std::size_t mid_pad = alignUp16(goff + gap_bytes) -
        (goff + gap_bytes);
    const bool ok = std::fwrite(&hdr, sizeof(hdr), 1, f) == 1 &&
        std::fwrite(fp.key().data(), 1, fp.key().size(), f) ==
            fp.key().size() &&
        std::fwrite(pad, 1, head_pad, f) == head_pad &&
        std::fwrite(t.gapData(), sizeof(std::uint16_t), t.size(), f) ==
            t.size() &&
        std::fwrite(pad, 1, mid_pad, f) == mid_pad &&
        std::fwrite(t.eventData(), sizeof(DistilledTrace::Event),
                    t.eventCount(), f) == t.eventCount();
    if (std::fclose(f) != 0 || !ok) {
        std::remove(tmp.c_str());
        return;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        std::remove(tmp.c_str());
}

struct RegistryEntry
{
    std::string key;  //!< full fingerprint key
    std::shared_ptr<const DistilledTrace> buf;
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

std::shared_ptr<const DistilledTrace>
sharedDistilledTrace(const WorkloadProfile &profile, std::uint64_t records,
                     const std::vector<std::uint64_t> &cuts,
                     const DistillParams &params, std::uint64_t seed_mix)
{
    const Fingerprint fp =
        distillFingerprint(profile, seed_mix, records, cuts, params);

    Registry &reg = registry();
    RegistryEntry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(reg.mtx);
        for (RegistryEntry &e : reg.entries) {
            if (e.key == fp.key()) {
                entry = &e;
                break;
            }
        }
        if (!entry) {
            reg.entries.emplace_back();
            entry = &reg.entries.back();
            entry->key = fp.key();
        }
    }

    // Distillation happens outside the registry lock so concurrent
    // workers only serialize against requests for the same stream.
    std::lock_guard<std::mutex> lock(entry->gen_mutex);
    if (!entry->buf) {
        entry->buf =
            loadDistilledFile(profile, records, cuts, params, seed_mix);
        if (!entry->buf) {
            entry->buf = std::make_shared<const DistilledTrace>(
                profile, records, cuts, params, seed_mix);
            storeDistilledFile(*entry->buf, profile, cuts, params,
                               seed_mix);
        }
    }
    return entry->buf;
}

std::size_t
dropUnusedDistilledTraces()
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

bool
distillEnabled()
{
    const char *s = std::getenv("NURAPID_DISTILL");
    return s == nullptr || std::string_view(s) != "0";
}

} // namespace nurapid
