#include "trace/distilled_trace.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "cpu/branch_predictor.hh"
#include "trace/stream_registry.hh"

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

/** @p addr's index in blocks of 2^@p shift bytes, as an Event stores
 *  it; fatal past 32 bits. */
std::uint32_t
blockIndex(Addr addr, unsigned shift)
{
    const Addr index = addr >> shift;
    fatal_if(index > UINT32_MAX,
             "address %#llx has block index %#llx, past the 32 bits a "
             "distilled event holds; set NURAPID_DISTILL=0",
             static_cast<unsigned long long>(addr),
             static_cast<unsigned long long>(index));
    return static_cast<std::uint32_t>(index);
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
    setShifts(params);

    SyntheticTrace gen(profile, seed_mix);
    SetAssocCache l1i(params.l1i);
    SetAssocCache l1d(params.l1d);
    BranchPredictor bpred(params.bp_entries, params.bp_history_bits);

    // Zero-filled: an event record's gap word stays 0.
    gap_buf.resize(records);
    // The event rate is the L1 miss rate plus dep-check points —
    // reserve for a generous 25% (untouched capacity is never made
    // resident) and let the vector grow in the rare workloads beyond
    // that.
    event_buf.reserve(records / 4);
    fold_buf.resize(cuts_.size());

    TraceRecord r;
    auto next_cut = cuts_.begin();
    SegmentFold *fold = fold_buf.data();  //!< the open segment's fold
    bool dep_pending = false;       //!< a dep load must replay its check

    for (std::uint64_t k = 0; k < records; ++k) {
        const bool got = gen.next(r);
        panic_if(!got, "workload stream ended mid-distillation");

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

        // An inst_gap that needs bit 7 makes its record an event, so
        // the gap word of a non-event record never misreads as a
        // folded mispredict.
        const bool foldable = !at_cut && r.inst_gap <= kGapInstMask;
        if (foldable && (flags == 0 || flags == kMispredict)) {
            // An L1 hit whose only stall is an optional mispredict: its
            // penalty rides the gap word, its counters the segment's
            // fold.
            const bool misp = flags == kMispredict;
            gap_buf[k] = static_cast<std::uint8_t>(
                r.inst_gap | (misp ? kGapMispredict : 0));
            ++(ifetch ? fold->l1i_hits : fold->l1d_hits);
            if (misp)
                ++fold->mispredicts;
            else if (r.has_branch)
                ++fold->bp_correct;
            continue;
        }

        Event e;
        e.block = blockIndex(r.addr, blockShift);
        // Only stores dirty a line, so every victim is an L1D block.
        if (flags & kWriteback)
            e.victim = blockIndex(a.evicted_addr, victimShift);
        e.rec = static_cast<std::uint32_t>(k);
        e.flags = static_cast<std::uint16_t>(
            flags | (ifetch ? kIfetch : 0) | (store ? kStore : 0) |
            (r.has_branch ? kHasBranch : 0) |
            (r.latency_critical ? kLatencyCritical : 0) |
            (at_cut ? kSegmentEnd : 0));
        e.inst_gap = r.inst_gap;
        event_buf.push_back(e);
        if (at_cut)
            ++fold;
    }

    gaps_ = gap_buf.data();
    events_ = event_buf.data();
    folds_ = fold_buf.data();
    nrecs = records;
    nevents = event_buf.size();
}

DistilledTrace::DistilledTrace(const std::vector<std::uint64_t> &cuts,
                               const DistillParams &params, void *base,
                               std::size_t len, std::size_t gaps_offset,
                               std::size_t events_offset,
                               std::size_t folds_offset,
                               std::uint64_t records,
                               std::uint64_t event_count)
    : gaps_(static_cast<const std::uint8_t *>(base) + gaps_offset),
      events_(reinterpret_cast<const Event *>(
          static_cast<const char *>(base) + events_offset)),
      folds_(reinterpret_cast<const SegmentFold *>(
          static_cast<const char *>(base) + folds_offset)),
      nrecs(records), nevents(event_count), cuts_(cuts), map_base(base),
      map_len(len)
{
    checkCuts(cuts_, records);
    setShifts(params);
}

void
DistilledTrace::setShifts(const DistillParams &params)
{
    fatal_if(!isPowerOf2(params.mshr_block_bytes),
             "MSHR block size %u not a power of 2",
             params.mshr_block_bytes);
    blockShift = floorLog2(params.mshr_block_bytes);
    victimShift = floorLog2(params.l1d.block_bytes);
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
    Fingerprint fp;
    fp.field("digest", modelDigest());
    fingerprintProfile(fp, profile);
    fp.field("seed_mix", seed_mix);
    fingerprintCacheOrg(fp, "l1i", p.l1i);
    fingerprintCacheOrg(fp, "l1d", p.l1d);
    fp.field("bp_entries", p.bp_entries);
    fp.field("bp_history_bits", p.bp_history_bits);
    fp.field("mshr_block_bytes", p.mshr_block_bytes);
    fp.field("records", records);
    fp.field("cuts", std::uint64_t{cuts.size()});
    for (std::uint64_t c : cuts)
        fp.field("cut", c);
    return fp;
}

namespace {

// ---------------------------------------------------------------------
// Cross-process disk cache: header + full canonical key (collision
// guard) + 16-byte-aligned gap array, then the event and fold arrays
// (one fold per cut), written via tmp-file + rename so a concurrent or
// killed writer never leaves a half-written file under the final name.
// The header's checksum covers the three arrays, so a flipped bit in
// the payload is recomputed rather than replayed.
// ---------------------------------------------------------------------

constexpr char kDistillFileMagic[8] = {'N', 'R', 'P', 'D', 'S', 'T', '1',
                                       '\0'};

struct DistillFileHeader
{
    char magic[8];
    std::uint64_t record_count;
    std::uint64_t event_count;
    std::uint64_t key_bytes;
    std::uint64_t checksum;  //!< payloadChecksum() of the arrays
};

/** Folds @p n bytes at @p p into @p h, 8 bytes a step (the last word
 *  zero-padded). A rotate after each multiply carries every input bit
 *  into the low bits too. Catches corruption, not adversaries. */
std::uint64_t
checksumBytes(std::uint64_t h, const void *p, std::size_t n)
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
    const auto *b = static_cast<const unsigned char *>(p);
    auto step = [&h](std::uint64_t w) {
        h = std::rotl((h ^ w) * kMul, 29);
    };
    for (; n >= 8; b += 8, n -= 8) {
        std::uint64_t w;
        std::memcpy(&w, b, 8);
        step(w);
    }
    if (n > 0) {
        std::uint64_t w = 0;
        std::memcpy(&w, b, n);
        step(w);
    }
    return h;
}

/** Checksum of @p t's gap, event and fold arrays. */
std::uint64_t
payloadChecksum(const DistilledTrace &t)
{
    std::uint64_t h = 0x243f6a8885a308d3ull;
    h = checksumBytes(h, t.gapData(), static_cast<std::size_t>(t.size()));
    h = checksumBytes(h, t.eventData(),
                      static_cast<std::size_t>(t.eventCount()) *
                          sizeof(DistilledTrace::Event));
    return checksumBytes(h, t.foldData(),
                         t.cutList().size() *
                             sizeof(DistilledTrace::SegmentFold));
}

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

/** Bytes of @p fp's leading "digest=...;" field. */
std::size_t
digestFieldBytes(const Fingerprint &fp)
{
    return fp.key().find(';') + 1;
}

/** @p fp's file under NURAPID_TRACE_CACHE_DIR, or "" when it is unset.
 *  The name hashes the key past its digest field, so a rebuilt binary
 *  overwrites the previous build's file of a stream instead of adding
 *  one beside it. */
std::string
distillFilePath(const WorkloadProfile &p, const Fingerprint &fp)
{
    const char *dir = std::getenv("NURAPID_TRACE_CACHE_DIR");
    if (dir == nullptr || *dir == '\0')
        return {};
    const std::string_view key = fp.key();
    return std::string(dir) + "/" + p.name + "-" +
        Fingerprint::hash(key.substr(digestFieldBytes(fp))) + ".dtc";
}

std::shared_ptr<const DistilledTrace>
loadDistilledFile(const std::string &path, const Fingerprint &fp,
                  std::uint64_t records,
                  const std::vector<std::uint64_t> &cuts,
                  const DistillParams &params)
{
    const int fd = path.empty() ? -1 : ::open(path.c_str(), O_RDONLY);
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
    const char *stored_key = static_cast<const char *>(base) + sizeof(hdr);
    const std::size_t digest_bytes = digestFieldBytes(fp);
    const char *bad = nullptr;
    std::size_t goff = 0;
    std::size_t eoff = 0;
    std::size_t foff = 0;
    if (std::memcmp(hdr.magic, kDistillFileMagic, sizeof(hdr.magic)) != 0) {
        bad = "has a foreign header";
    } else if (len >= sizeof(hdr) + digest_bytes &&
               std::memcmp(stored_key, fp.key().data(), digest_bytes) !=
                   0) {
        // Another build's copy of this stream: the normal cold case,
        // recomputed and overwritten without a warning.
        ::munmap(base, len);
        return nullptr;
    } else if (hdr.record_count != records ||
               hdr.key_bytes != fp.key().size()) {
        bad = "has a foreign header";
    } else if (hdr.event_count > hdr.record_count) {
        // At most one event per record; this also keeps the length
        // product below from wrapping.
        bad = "claims more events than records";
    } else {
        goff = gapsOffset(hdr.key_bytes);
        eoff = alignUp16(goff + static_cast<std::size_t>(records));
        foff = eoff + hdr.event_count * sizeof(DistilledTrace::Event);
        if (len < foff + cuts.size() * sizeof(DistilledTrace::SegmentFold)) {
            bad = "is truncated";
        } else if (std::memcmp(stored_key, fp.key().data(),
                               fp.key().size()) != 0) {
            // The stored key must match byte for byte — the hash in
            // the file name already matched, this guards collisions.
            bad = "has a colliding key";
        }
    }
    if (bad != nullptr) {
        ::munmap(base, len);
        warn("distilled trace %s %s; recomputing", path.c_str(), bad);
        return nullptr;
    }
    auto t = std::make_shared<const DistilledTrace>(
        cuts, params, base, len, goff, eoff, foff, records,
        hdr.event_count);
    if (payloadChecksum(*t) != hdr.checksum) {
        warn("distilled trace %s fails its checksum; recomputing",
             path.c_str());
        return nullptr;  // t unmaps the file
    }
    return t;
}

/** Persists @p t to @p path under key @p fp; failures (no path, missing
 *  dir, no space) are ignored. */
void
storeDistilledFile(const DistilledTrace &t, const std::string &path,
                   const Fingerprint &fp)
{
    if (path.empty())
        return;
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
    hdr.checksum = payloadChecksum(t);

    const char pad[16] = {};
    const std::size_t goff = gapsOffset(hdr.key_bytes);
    const auto gap_bytes = static_cast<std::size_t>(t.size());
    const std::size_t folds = t.cutList().size();
    const std::size_t head_pad = goff - sizeof(hdr) - fp.key().size();
    const std::size_t mid_pad = alignUp16(goff + gap_bytes) -
        (goff + gap_bytes);
    const bool ok = std::fwrite(&hdr, sizeof(hdr), 1, f) == 1 &&
        std::fwrite(fp.key().data(), 1, fp.key().size(), f) ==
            fp.key().size() &&
        std::fwrite(pad, 1, head_pad, f) == head_pad &&
        std::fwrite(t.gapData(), 1, gap_bytes, f) == gap_bytes &&
        std::fwrite(pad, 1, mid_pad, f) == mid_pad &&
        std::fwrite(t.eventData(), sizeof(DistilledTrace::Event),
                    t.eventCount(), f) == t.eventCount() &&
        std::fwrite(t.foldData(), sizeof(DistilledTrace::SegmentFold),
                    folds, f) == folds;
    if (std::fclose(f) != 0 || !ok) {
        std::remove(tmp.c_str());
        return;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        std::remove(tmp.c_str());
}

StreamRegistry<DistilledTrace> &
registry()
{
    static StreamRegistry<DistilledTrace> r;
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
    return registry().get(
        fp.key(), [&](const std::shared_ptr<const DistilledTrace> &cur) {
            if (cur)
                return cur;
            const std::string path = distillFilePath(profile, fp);
            auto t = loadDistilledFile(path, fp, records, cuts, params);
            if (!t) {
                t = std::make_shared<const DistilledTrace>(
                    profile, records, cuts, params, seed_mix);
                storeDistilledFile(*t, path, fp);
            }
            return t;
        });
}

std::size_t
dropUnusedDistilledTraces()
{
    return registry().dropUnused();
}

bool
distillEnabled()
{
    const char *s = std::getenv("NURAPID_DISTILL");
    return s == nullptr || std::string_view(s) != "0";
}

} // namespace nurapid
