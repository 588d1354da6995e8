/**
 * @file
 * The NuRAPID cache: Non-uniform access with Replacement And Placement
 * using Distance associativity (the paper's contribution).
 *
 * Key behaviors, with paper sections:
 *  - sequential tag-data access through a centralized tag array (S1);
 *  - distance-associative placement: new blocks always fill the fastest
 *    d-group, regardless of how many set-mates already live there (S2.1);
 *  - distance replacement decoupled from data replacement: making room
 *    in a d-group demotes some block (any set) outward, never evicting
 *    it; cache eviction is set-LRU in the tag array (S2.2);
 *  - promotion policies demotion-only / next-fastest / fastest (S2.4.1)
 *    and random / true-LRU distance-victim selection (S2.4.2);
 *  - one port, non-banked: outstanding swaps must complete before a new
 *    access begins (S2.3), modeled by a port-free cycle;
 *  - optional pointer restriction (S2.4.3) via frame regions.
 */

#ifndef NURAPID_NURAPID_NURAPID_CACHE_HH
#define NURAPID_NURAPID_NURAPID_CACHE_HH

#include <memory>
#include <string>

#include "mem/lower_memory.hh"
#include "mem/main_memory.hh"
#include "nurapid/data_array.hh"
#include "nurapid/policies.hh"
#include "nurapid/tag_array.hh"
#include "timing/latency_tables.hh"

namespace nurapid {

class NuRapidCache final : public LowerMemory
{
  public:
    struct Params
    {
        std::string name = "nurapid";
        std::uint64_t capacity_bytes = 8ull << 20;
        std::uint32_t assoc = 8;
        std::uint32_t block_bytes = 128;
        std::uint32_t num_dgroups = 4;
        PromotionPolicy promotion = PromotionPolicy::NextFastest;
        DistanceRepl distance_repl = DistanceRepl::Random;
        bool single_port = true;    //!< false = infinite ports (ablation)
        bool ideal_fastest = false; //!< Figure 6's "ideal" bound
        /**
         * Section 2.4.3: frames of a d-group a block may occupy
         * (shrinks the forward/reverse pointers). 0 = unrestricted.
         */
        std::uint32_t frame_restriction = 0;
        std::uint64_t seed = 1;
        MainMemory::Params memory{};
    };

    NuRapidCache(const SramMacroModel &model, const Params &params);

    Result access(Addr addr, AccessType type, Cycle now) override;

    EnergyNJ dynamicEnergyNJ() const override;
    EnergyNJ cacheEnergyNJ() const override { return cacheEnergy.total_nj; }
    const EnergyBreakdown *energyBreakdown() const override
    {
        return &cacheEnergy;
    }
    const std::string &name() const override { return p.name; }
    StatGroup &stats() override { return statGroup; }
    const StatGroup &stats() const override { return statGroup; }
    const Histogram &regionHits() const override { return regionHist; }
    void resetStats() override;
    void forEachResident(const ResidentFn &fn) const override;

    /** Valid-frame count per d-group. */
    void regionOccupancy(std::vector<std::uint64_t> &out) const override;

    /**
     * Full structural audit: tag-array and data-array local invariants,
     * the forward/reverse pointer bijection in both directions,
     * matching valid-entry/valid-frame counts, and (when restricted)
     * region-correct placement. Violations carry (set, way, d-group,
     * frame) context.
     */
    bool audit(AuditSink &sink) const override;

    const Params &params() const { return p; }
    const NuRapidTiming &timing() const { return times; }
    MainMemory &memory() { return mem; }

    /** Deep consistency check — audit() into a counting sink. */
    bool checkInvariants() const;

    /** Frames of the fastest d-group holding blocks of @p set (tests
     *  and the hot-set example). */
    std::uint32_t blocksOfSetInGroup(std::uint32_t set,
                                     std::uint32_t group) const;

    const TagArray &tags() const { return tagArray; }
    const DataArray &data() const { return dataArray; }

    /** Tag + data plane footprint. */
    std::size_t
    hotStateBytes() const override
    {
        return tagArray.hotBytes() + dataArray.hotBytes();
    }

    /** Mutable views for fault-injection tests: corrupt a pointer, then
     *  assert audit() pinpoints it. Never used by the simulator. */
    TagArray &tagsForTesting() { return tagArray; }
    DataArray &dataForTesting() { return dataArray; }

  private:
    /**
     * Guarantees a free frame in @p region of @p group by cascading
     * demotions outward; returns the freed frame. Accumulates swap
     * port-occupancy into @p busy.
     */
    std::uint32_t ensureFree(std::uint32_t group, std::uint32_t region,
                             Cycles &busy, Result &result, Cycle now);

    /** Moves the block in (group, frame) to (dest_group, dest_frame),
     *  updating the forward and reverse pointers. */
    void moveBlock(std::uint32_t group, std::uint32_t frame,
                   std::uint32_t dest_group, std::uint32_t dest_frame);

    /** Handles promotion of a just-hit block per the policy. */
    void promote(std::uint32_t set, std::uint32_t way, Cycles &busy,
                 Cycle now);

    Params p;
    NuRapidTiming times;
    unsigned blockShift = 0;  //!< log2(block_bytes)
    TagArray tagArray;
    DataArray dataArray;
    MainMemory mem;
    Cycle portFree = 0;
    /** Regions = d-groups; total_nj is the pre-refactor accumulator. */
    EnergyBreakdown cacheEnergy{p.num_dgroups};
    std::uint64_t auditTick = 0;  //!< periodic-audit access counter

    StatGroup statGroup;
    /** Counters packed into two cache lines (hot-path updates stay in
     *  the first) so an access stops dirtying 13 scattered lines. */
    struct alignas(64) Counters
    {
        Counter demandAccesses;
        Counter writebackAccesses;
        Counter hits;
        Counter misses;
        Counter tagProbes;
        Counter dgroupAccesses;  //!< every data-array read or write
        Counter portWaitCycles;
        Counter evictions;
        Counter dirtyEvictions;
        Counter promotions;
        Counter demotions;
        Counter blockMoves;
        Counter restrictionEvictions;
    };
    Counters cnt;
    Histogram regionHist;
};

} // namespace nurapid

#endif // NURAPID_NURAPID_NURAPID_CACHE_HH
