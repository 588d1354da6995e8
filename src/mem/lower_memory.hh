/**
 * @file
 * The interface every lower-level cache organization implements.
 *
 * The CPU+L1 front end sees "everything below L1" through this one
 * interface, so the conventional L2/L3 hierarchy, D-NUCA, and NuRAPID
 * are interchangeable in the simulated system.
 */

#ifndef NURAPID_MEM_LOWER_MEMORY_HH
#define NURAPID_MEM_LOWER_MEMORY_HH

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "energy/energy_breakdown.hh"
#include "sim/audit/audit.hh"
#include "sim/obs/obs.hh"

namespace nurapid {

class LowerMemory
{
  public:
    /** A block that left the organization entirely during one access
     *  (evicted to memory or dropped clean). */
    struct Evicted
    {
        Addr addr;   //!< block-aligned address
        bool dirty;  //!< written back to memory
    };

    /** Outcome of one L1-miss access into the lower hierarchy. */
    struct Result
    {
        /** Most departures any organization can cause in one access:
         *  NuRAPID's set-LRU eviction plus a Section 2.4.3 restriction
         *  eviction; the conventional hierarchy's L2 and L3 victims. */
        static constexpr std::uint32_t kMaxEvicted = 2;

        Cycles latency = 0;  //!< cycles until data returns to L1
        bool hit = false;    //!< hit anywhere on chip below L1

        /** Blocks that left the organization during this access, in
         *  departure order — the differential oracle mirrors residency
         *  from these. A block moving *within* the organization (a
         *  demotion, an L2 victim caught by the L3) is not reported. */
        /** Only the first num_evicted entries are meaningful; the rest
         *  stay uninitialized so the hot path never pays for them. */
        std::uint8_t num_evicted = 0;
        std::array<Evicted, kMaxEvicted> evicted;

        void noteEvicted(Addr addr, bool dirty)
        {
            panic_if(num_evicted >= kMaxEvicted,
                     "more than %u evictions in one access", kMaxEvicted);
            evicted[num_evicted++] = Evicted{addr, dirty};
        }
    };

    /** Callback for forEachResident: block-aligned address + dirty. */
    using ResidentFn = std::function<void(Addr, bool)>;

    virtual ~LowerMemory() = default;

    /**
     * Performs one access at time @p now; @p addr need not be aligned.
     * Writebacks complete off the critical path (latency still models
     * any port/bank occupancy they caused).
     */
    virtual Result access(Addr addr, AccessType type, Cycle now) = 0;

    /** Total dynamic energy consumed so far (caches + any memory the
     *  organization itself touched are accounted by the owner). */
    virtual EnergyNJ dynamicEnergyNJ() const = 0;

    /** On-chip (cache-only) dynamic energy — the paper's "L2 cache
     *  energy" metric excludes DRAM. */
    virtual EnergyNJ cacheEnergyNJ() const = 0;

    /** Per-component view of cacheEnergyNJ() for the observability
     *  timeline (its total_nj IS the cacheEnergyNJ() accumulator).
     *  Null for organizations without a breakdown (toy caches, the
     *  oracle) — the timeline then omits the energy series. */
    virtual const EnergyBreakdown *energyBreakdown() const
    {
        return nullptr;
    }

    /** Organization name for reports. */
    virtual const std::string &name() const = 0;

    /** Statistics registry. */
    virtual StatGroup &stats() = 0;
    virtual const StatGroup &stats() const = 0;

    /**
     * Distribution of *hits* across latency regions (d-groups for
     * NuRAPID, bank rows for D-NUCA, levels for the conventional
     * hierarchy). Used by the Figure 4/5/7 benches.
     */
    virtual const Histogram &regionHits() const = 0;

    /** Zeroes statistics after cache warmup. */
    virtual void resetStats() = 0;

    /**
     * Enumerates every block currently resident in the organization.
     * The conventional hierarchy may report a block twice (L2 and L3
     * copies); single-residence organizations report each block once.
     * Test/audit path — not called during simulation.
     */
    virtual void forEachResident(const ResidentFn &fn) const = 0;

    /**
     * Checks the organization's structural invariants, reporting every
     * violation to @p sink with full (set, way, d-group, frame)
     * context. Always compiled; the fuzzer and tests call it directly.
     * Returns true when no violation was reported.
     */
    virtual bool audit(AuditSink &sink) const = 0;

    /**
     * Attaches (or detaches, with nullptr) a flight-recorder event
     * sink. The organizations' hot paths carry always-compiled hooks
     * that cost one predictably-not-taken branch while detached; the
     * sink is thread-confined, so attach only the owning run's sink.
     */
    void attachObserver(EventSink *sink) { obsSink = sink; }

    /**
     * Instantaneous valid-block count per latency region (same region
     * axis as regionHits()). Default: no occupancy series — the
     * observability timeline then omits it. Snapshot path, not called
     * during simulation unless an interval recorder is attached.
     */
    virtual void regionOccupancy(std::vector<std::uint64_t> &out) const
    {
        out.clear();
    }

    /**
     * Bytes of host memory the organization's per-reference hot state
     * occupies (tag/rank/pointer planes, bitmaps) — the working set
     * its access() path walks, reported by the benchmark harness as a
     * per-organization footprint. Default 0 = "free" (toy caches, the
     * oracle).
     */
    virtual std::size_t hotStateBytes() const { return 0; }

  protected:
    /** Flight-recorder sink; null (the common case) when detached. */
    EventSink *obsSink = nullptr;

    /** Result::noteEvicted plus the paired flight-recorder event —
     *  every block departure the organizations report goes through
     *  here, so the event stream sees exactly what the differential
     *  oracle sees. */
    void
    recordEviction(Result &r, Addr addr, bool dirty, Cycle now)
    {
        r.noteEvicted(addr, dirty);
        if (obsSink) [[unlikely]]
            obsSink->eviction(now, addr, dirty);
    }
};

} // namespace nurapid

#endif // NURAPID_MEM_LOWER_MEMORY_HH
