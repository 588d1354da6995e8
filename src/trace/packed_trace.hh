/**
 * @file
 * In-memory packed workload reference streams for the live loop.
 *
 * A synthetic workload's record sequence depends only on its profile,
 * seed mix, and length — never on the cache organization being
 * simulated. Distilled runs (the default) never read records: the
 * distiller consumes SyntheticTrace directly. The live per-record
 * loop (NURAPID_DISTILL=0, or a phase schedule that misses the
 * distillation cuts) replays a PackedTrace instead.
 *
 * PackedTrace generates a stream once into a flat 16-byte-per-record
 * buffer; Cursor replays it with a non-virtual, fully-inlinable
 * next(). sharedPackedTrace() memoizes buffers per (profile, seed mix)
 * for the life of the process so every live run of the same workload —
 * including the RunEngine's concurrent workers — shares one read-only
 * buffer. Replay is record-for-record identical to SyntheticTrace
 * (asserted by tests/test_packed_trace.cc). Buffers are never
 * persisted: a new process regenerates them.
 */

#ifndef NURAPID_TRACE_PACKED_TRACE_HH
#define NURAPID_TRACE_PACKED_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

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
     *  generator state — the result equals one longer generation). */
    PackedTrace(const PackedTrace &prefix, std::uint64_t records);

    PackedTrace(const PackedTrace &) = delete;
    PackedTrace &operator=(const PackedTrace &) = delete;

    std::uint64_t size() const { return buf.size(); }

    /** Cursor over the first @p records (clamped to size()). */
    Cursor
    cursor(std::uint64_t records) const
    {
        const std::uint64_t n = records < size() ? records : size();
        return Cursor(buf.data(), buf.data() + n);
    }

    Cursor cursorAll() const { return cursor(size()); }

    /** Cursor over records [first, last), both clamped to size(). */
    Cursor
    cursorRange(std::uint64_t first, std::uint64_t last) const
    {
        const std::uint64_t hi = last < size() ? last : size();
        const std::uint64_t lo = first < hi ? first : hi;
        return Cursor(buf.data() + lo, buf.data() + hi);
    }

  private:
    void generate(std::uint64_t upto);

    std::vector<PackedRecord> buf;  //!< generated records
    SyntheticTrace gen;  //!< generator state advanced past buf
};

/**
 * Process-wide buffer registry: returns a packed stream of at least
 * @p records for (profile, seed_mix), keyed by fingerprintProfile and
 * the seed mix, generating or extending at most once per process.
 * Thread-safe; concurrent requests for different workloads generate in
 * parallel. Buffers live for the process (the full 15-workload suite
 * at default lengths is < 1 GB) unless dropUnusedPackedTraces() frees
 * them.
 */
std::shared_ptr<const PackedTrace>
sharedPackedTrace(const WorkloadProfile &profile, std::uint64_t records,
                  std::uint64_t seed_mix = 0);

/** Drops registry entries no one else holds; returns entries freed. */
std::size_t dropUnusedPackedTraces();

} // namespace nurapid

#endif // NURAPID_TRACE_PACKED_TRACE_HH
