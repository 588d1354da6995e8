/**
 * @file
 * Pre-generated, packed workload reference streams.
 *
 * A synthetic workload's record sequence depends only on its profile,
 * seed mix, and length — never on the cache organization being
 * simulated. The sweep, however, replays every workload against ~18
 * organizations, and live generation (~30 ns/record of RNG and layer
 * bookkeeping, plus a virtual next() per record) was the single
 * largest slice of per-reference cost.
 *
 * PackedTrace generates a stream once into a flat 16-byte-per-record
 * buffer; Cursor replays it with a non-virtual, fully-inlinable
 * next(). sharedPackedTrace() memoizes buffers per (profile, seed mix)
 * for the life of the process so every run of the same workload —
 * including the RunEngine's concurrent workers — shares one read-only
 * buffer. Replay is record-for-record identical to SyntheticTrace
 * (asserted by tests/test_packed_trace.cc), so every System replays
 * packed streams; SyntheticTrace stays as the generator behind them.
 */

#ifndef NURAPID_TRACE_PACKED_TRACE_HH
#define NURAPID_TRACE_PACKED_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fingerprint.hh"
#include "trace/synthetic.hh"

namespace nurapid {

class PackedTrace
{
  public:
    /** One trace record, packed to 16 bytes. */
    struct PackedRecord
    {
        Addr addr = 0;
        std::uint32_t branch_pc = 0;
        std::uint16_t inst_gap = 0;
        std::uint8_t op = 0;
        std::uint8_t flags = 0;
    };
    static_assert(sizeof(PackedRecord) == 16,
                  "packed records must stay 16 bytes");

    static constexpr std::uint8_t kDependsOnPrev = 1u << 0;
    static constexpr std::uint8_t kLatencyCritical = 1u << 1;
    static constexpr std::uint8_t kHasBranch = 1u << 2;
    static constexpr std::uint8_t kBranchTaken = 1u << 3;

    /** Non-virtual replay cursor over a packed buffer. */
    class Cursor
    {
      public:
        Cursor() = default;
        Cursor(const PackedRecord *begin, const PackedRecord *end)
            : pos(begin), last(end)
        {
        }

        /** Unpacks the next record; false when the buffer is drained. */
        bool
        next(TraceRecord &r)
        {
            if (pos == last)
                return false;
            const PackedRecord &p = *pos++;
            r.addr = p.addr;
            r.op = static_cast<TraceOp>(p.op);
            r.inst_gap = p.inst_gap;
            r.depends_on_prev = (p.flags & kDependsOnPrev) != 0;
            r.latency_critical = (p.flags & kLatencyCritical) != 0;
            r.has_branch = (p.flags & kHasBranch) != 0;
            r.branch_taken = (p.flags & kBranchTaken) != 0;
            r.branch_pc = p.branch_pc;
            return true;
        }

        std::uint64_t remaining() const
        {
            return static_cast<std::uint64_t>(last - pos);
        }

      private:
        const PackedRecord *pos = nullptr;
        const PackedRecord *last = nullptr;
    };

    /** Generates @p records of @p profile's stream eagerly. */
    PackedTrace(const WorkloadProfile &profile, std::uint64_t records,
                std::uint64_t seed_mix = 0);

    /** Extends @p prefix by generating up to @p records total (the
     *  common prefix is copied, generation continues from the stored
     *  generator state — the result equals one longer generation).
     *  @p prefix must be extendable(). */
    PackedTrace(const PackedTrace &prefix, std::uint64_t records);

    /**
     * Internal (disk cache): adopts an mmap'd trace file whose records
     * start @p records_offset bytes into the mapping (16-byte aligned).
     * Mapping instead of reading skips both the copy and the
     * zero-initialization of a multi-hundred-MB buffer, and the page
     * cache shares the pages across the sweep's processes. The mapping
     * is unmapped on destruction. The embedded generator state is
     * *not* advanced past the records, so a loaded trace is not
     * extendable — a longer request regenerates from scratch instead.
     */
    PackedTrace(const WorkloadProfile &profile, std::uint64_t seed_mix,
                void *map_base, std::size_t map_len,
                std::size_t records_offset, std::uint64_t records);

    ~PackedTrace();
    PackedTrace(const PackedTrace &) = delete;
    PackedTrace &operator=(const PackedTrace &) = delete;

    /** False for buffers adopted from the disk cache. */
    bool extendable() const { return !from_file; }

    std::uint64_t size() const { return nrecs; }
    const WorkloadProfile &profile() const { return gen.profile(); }
    std::uint64_t seedMix() const { return mix; }

    /** Raw packed buffer (disk-cache serialization). */
    const PackedRecord *rawRecords() const { return recs; }

    /** Cursor over the first @p records (clamped to size()). */
    Cursor
    cursor(std::uint64_t records) const
    {
        const std::uint64_t n = records < nrecs ? records : nrecs;
        return Cursor(recs, recs + n);
    }

    Cursor cursorAll() const { return cursor(nrecs); }

    /** Cursor over records [first, last), both clamped to size(). */
    Cursor
    cursorRange(std::uint64_t first, std::uint64_t last) const
    {
        const std::uint64_t hi = last < nrecs ? last : nrecs;
        const std::uint64_t lo = first < hi ? first : hi;
        return Cursor(recs + lo, recs + hi);
    }

  private:
    void generate(std::uint64_t upto);

    std::vector<PackedRecord> buf;  //!< generated storage (else empty)
    const PackedRecord *recs = nullptr;  //!< buf.data() or the mapping
    std::uint64_t nrecs = 0;
    void *map_base = nullptr;  //!< mmap'd trace file (loaded traces)
    std::size_t map_len = 0;
    SyntheticTrace gen;  //!< generator state advanced past buf
    std::uint64_t mix;
    bool from_file = false;
};

/** TraceSource adapter over a shared packed buffer (tools/tests). */
class PackedTraceSource : public TraceSource
{
  public:
    explicit PackedTraceSource(std::shared_ptr<const PackedTrace> trace)
        : buf(std::move(trace)), cur(buf->cursorAll())
    {
    }

    bool next(TraceRecord &record) override { return cur.next(record); }
    void reset() override { cur = buf->cursorAll(); }

  private:
    std::shared_ptr<const PackedTrace> buf;
    PackedTrace::Cursor cur;
};

/**
 * Process-wide buffer registry: returns a packed stream of at least
 * @p records for (profile, seed_mix), generating or extending at most
 * once per process. Thread-safe; concurrent requests for different
 * workloads generate in parallel. Buffers live for the process (the
 * full 15-workload suite at default lengths is < 1 GB).
 *
 * When NURAPID_TRACE_CACHE_DIR names a directory, generated buffers
 * are additionally persisted there and later processes load instead of
 * regenerating — this is how the 17-binary bench sweep pays the
 * generation cost for each workload once per *sweep* rather than once
 * per binary. Files are keyed by a canonical fingerprint of every
 * profile field the generator reads (plus seed mix and a format
 * version), so a stale file can never alias a different workload.
 */
std::shared_ptr<const PackedTrace>
sharedPackedTrace(const WorkloadProfile &profile, std::uint64_t records,
                  std::uint64_t seed_mix = 0);

/** Drops registry entries no one else holds; returns entries freed. */
std::size_t dropUnusedPackedTraces();

/** Canonical fingerprint of (generator version, profile, seed mix) —
 *  the disk-cache key of a packed stream, also embedded in derived
 *  caches (distilled streams) so they inherit trace invalidation. */
Fingerprint packedTraceFingerprint(const WorkloadProfile &profile,
                                   std::uint64_t seed_mix);

} // namespace nurapid

#endif // NURAPID_TRACE_PACKED_TRACE_HH
