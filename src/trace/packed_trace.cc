#include "trace/packed_trace.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fingerprint.hh"
#include "common/logging.hh"

namespace nurapid {

PackedTrace::PackedTrace(const WorkloadProfile &profile,
                         std::uint64_t records, std::uint64_t seed_mix)
    : gen(profile, seed_mix), mix(seed_mix)
{
    generate(records);
}

PackedTrace::PackedTrace(const PackedTrace &prefix, std::uint64_t records)
    : buf(prefix.buf), gen(prefix.gen), mix(prefix.mix)
{
    panic_if(!prefix.extendable(),
             "cannot extend a disk-loaded trace buffer");
    generate(records);
}

PackedTrace::PackedTrace(const WorkloadProfile &profile,
                         std::uint64_t seed_mix, void *base,
                         std::size_t len, std::size_t records_offset,
                         std::uint64_t records)
    : recs(reinterpret_cast<const PackedRecord *>(
          static_cast<const char *>(base) + records_offset)),
      nrecs(records), map_base(base), map_len(len),
      gen(profile, seed_mix), mix(seed_mix), from_file(true)
{
}

PackedTrace::~PackedTrace()
{
    if (map_base != nullptr)
        ::munmap(map_base, map_len);
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
    recs = buf.data();
    nrecs = buf.size();
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

// ---------------------------------------------------------------------
// Cross-process disk cache. A trace file is raw PackedRecords behind a
// small header plus the full canonical fingerprint key; the key embeds
// every profile field the generator reads, the seed mix, and a format
// version (bump kTraceFormatVersion whenever SyntheticTrace's output
// for a fixed profile changes — otherwise stale files would replay the
// old stream). Files are written via tmp-file + rename so a concurrent
// or killed writer can never leave a half-written file under the final
// name.
// ---------------------------------------------------------------------

constexpr char kTraceFileMagic[8] = {'N', 'R', 'P', 'T', 'R', 'C', '1',
                                     '\0'};
constexpr std::uint64_t kTraceFormatVersion = 2;

struct TraceFileHeader
{
    char magic[8];
    std::uint64_t seed_mix;
    std::uint64_t record_count;
    std::uint64_t key_bytes;
};

/** Records start 16-byte aligned so the mmap'd buffer can be read as
 *  PackedRecords directly (the header is 32 bytes; only the key's
 *  length varies). */
std::size_t
recordsOffset(std::uint64_t key_bytes)
{
    const std::size_t raw = sizeof(TraceFileHeader) +
        static_cast<std::size_t>(key_bytes);
    return (raw + 15) & ~std::size_t{15};
}

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

/** Empty when the disk cache is disabled. */
std::string
traceCacheDir()
{
    const char *s = std::getenv("NURAPID_TRACE_CACHE_DIR");
    return s != nullptr ? std::string(s) : std::string();
}

std::string
traceFilePath(const std::string &dir, const WorkloadProfile &p,
              const Fingerprint &fp)
{
    return dir + "/" + p.name + "-" + fp.digest() + ".trc";
}

/**
 * Maps a cached stream of at least @p records (extra records are
 * adopted too — the cursors clamp). Returns nullptr when the file is
 * absent, too short, or fails any validation; the caller regenerates.
 */
std::shared_ptr<const PackedTrace>
loadPackedFile(const WorkloadProfile &profile, std::uint64_t records,
               std::uint64_t seed_mix)
{
    const std::string dir = traceCacheDir();
    if (dir.empty())
        return nullptr;

    const Fingerprint fp = packedTraceFingerprint(profile, seed_mix);
    const std::string path = traceFilePath(dir, profile, fp);
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;

    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        st.st_size < static_cast<off_t>(sizeof(TraceFileHeader))) {
        ::close(fd);
        return nullptr;
    }
    const auto len = static_cast<std::size_t>(st.st_size);
    void *base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED)
        return nullptr;

    TraceFileHeader hdr;
    std::memcpy(&hdr, base, sizeof(hdr));
    bool ok =
        std::memcmp(hdr.magic, kTraceFileMagic, sizeof(hdr.magic)) == 0 &&
        hdr.seed_mix == seed_mix && hdr.record_count >= records &&
        hdr.key_bytes == fp.key().size();
    const std::size_t off = ok ? recordsOffset(hdr.key_bytes) : 0;
    if (ok) {
        ok = len >= off + hdr.record_count *
                 sizeof(PackedTrace::PackedRecord) &&
            // The stored key must match byte for byte — the digest in
            // the file name already matched, this guards collisions.
            std::memcmp(static_cast<const char *>(base) + sizeof(hdr),
                        fp.key().data(), fp.key().size()) == 0;
    }
    if (!ok) {
        ::munmap(base, len);
        return nullptr;
    }
    return std::make_shared<const PackedTrace>(
        profile, seed_mix, base, len, off, hdr.record_count);
}

/** Persists @p trace; failures (missing dir, no space) are ignored. */
void
storePackedFile(const PackedTrace &trace)
{
    const std::string dir = traceCacheDir();
    if (dir.empty())
        return;

    const Fingerprint fp =
        packedTraceFingerprint(trace.profile(), trace.seedMix());
    const std::string path =
        traceFilePath(dir, trace.profile(), fp);
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%ld",
                  static_cast<long>(::getpid()));
    const std::string tmp = path + suffix;

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return;

    TraceFileHeader hdr;
    std::memcpy(hdr.magic, kTraceFileMagic, sizeof(hdr.magic));
    hdr.seed_mix = trace.seedMix();
    hdr.record_count = trace.size();
    hdr.key_bytes = fp.key().size();

    const char pad[16] = {};
    const std::size_t pad_len =
        recordsOffset(hdr.key_bytes) - sizeof(hdr) - fp.key().size();
    const bool ok = std::fwrite(&hdr, sizeof(hdr), 1, f) == 1 &&
        std::fwrite(fp.key().data(), 1, fp.key().size(), f) ==
            fp.key().size() &&
        std::fwrite(pad, 1, pad_len, f) == pad_len &&
        std::fwrite(trace.rawRecords(),
                    sizeof(PackedTrace::PackedRecord),
                    trace.size(), f) == trace.size();
    if (std::fclose(f) != 0 || !ok) {
        std::remove(tmp.c_str());
        return;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        std::remove(tmp.c_str());
}

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
        entry->buf = loadPackedFile(profile, records, seed_mix);
        if (!entry->buf) {
            entry->buf = std::make_shared<const PackedTrace>(
                profile, records, seed_mix);
            storePackedFile(*entry->buf);
        }
    } else if (entry->buf->size() < records) {
        // A loaded buffer carries no generator state past its end, so
        // it cannot be extended in place — regenerate from scratch and
        // replace the too-short file.
        if (entry->buf->extendable()) {
            entry->buf = std::make_shared<const PackedTrace>(
                *entry->buf, records);
        } else {
            entry->buf = std::make_shared<const PackedTrace>(
                profile, records, seed_mix);
        }
        storePackedFile(*entry->buf);
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
