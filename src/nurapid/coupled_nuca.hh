/**
 * @file
 * The set-associative-placement non-uniform cache of Figure 4 ("a" bars).
 *
 * Same d-group geometry as NuRAPID, but tag and data placement stay
 * coupled: with an 8-way cache over 4 d-groups, exactly two specific
 * ways of every set live in each d-group. To isolate the placement
 * effect, the paper gives this cache NuRAPID's *initial placement in
 * the fastest d-group* and the *next-fastest promotion* policy, with
 * bubble-style swaps confined to the set (Section 5.2.1).
 */

#ifndef NURAPID_NURAPID_COUPLED_NUCA_HH
#define NURAPID_NURAPID_COUPLED_NUCA_HH

#include <string>
#include <vector>

#include "mem/lower_memory.hh"
#include "mem/main_memory.hh"
#include "mem/rank_plane.hh"
#include "nurapid/policies.hh"
#include "timing/latency_tables.hh"

namespace nurapid {

class CoupledNucaCache final : public LowerMemory
{
  public:
    struct Params
    {
        std::string name = "sa-placement";
        std::uint64_t capacity_bytes = 8ull << 20;
        std::uint32_t assoc = 8;
        std::uint32_t block_bytes = 128;
        std::uint32_t num_dgroups = 4;
        PromotionPolicy promotion = PromotionPolicy::NextFastest;
        bool single_port = true;
        MainMemory::Params memory{};
    };

    CoupledNucaCache(const SramMacroModel &model, const Params &params);

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

    /** Valid-block count per latency region. */
    void regionOccupancy(std::vector<std::uint64_t> &out) const override;
    bool audit(AuditSink &sink) const override;
    std::size_t hotStateBytes() const override;

    MainMemory &memory() { return mem; }
    const NuRapidTiming &timing() const { return times; }

  private:
    std::uint32_t groupOfWay(std::uint32_t way) const;
    std::uint32_t lruWayInGroup(std::uint32_t set,
                                std::uint32_t group) const;
    void touch(std::uint32_t set, std::uint32_t way);

    /** First word of @p set's row in the way-indexed planes. */
    std::size_t
    rowBase(std::uint32_t set) const
    {
        return std::size_t{set} << strideShift;
    }

    Params p;
    NuRapidTiming times;
    std::uint32_t sets;
    std::uint32_t waysPerGroup;
    unsigned blockShift = 0;  //!< log2(block_bytes)
    unsigned tagShift = 0;    //!< log2(block_bytes * sets)
    std::uint32_t wayStride = 1;  //!< pow2 plane row width >= assoc
    unsigned strideShift = 0;     //!< log2(wayStride)
    std::uint64_t waysMask = 0;   //!< low assoc bits set

    // Structure-of-arrays tag state: [set << strideShift | way] planes
    // plus one valid/dirty bitmap word per set. Recency is a packed
    // exact-LRU rank plane (mem/rank_plane.hh): one word per 8-way
    // set instead of eight 64-bit stamps.
    std::vector<std::uint64_t> tagPlane;
    std::vector<std::uint64_t> validBits;  //!< [set]
    std::vector<std::uint64_t> dirtyBits;  //!< [set]
    RankPlane ranks;
    MainMemory mem;
    Cycle portFree = 0;
    /** Regions = d-groups; total_nj is the pre-refactor accumulator. */
    EnergyBreakdown cacheEnergy{p.num_dgroups};
    std::uint64_t auditTick = 0;  //!< periodic-audit access counter

    StatGroup statGroup;
    /** Counters packed into one cache-line-aligned block so an access
     *  stops dirtying 9 scattered counter lines. */
    struct alignas(64) Counters
    {
        Counter demandAccesses;
        Counter writebackAccesses;
        Counter hits;
        Counter misses;
        Counter dgroupAccesses;
        Counter evictions;
        Counter promotions;
        Counter demotions;
        Counter blockMoves;
    };
    Counters cnt;
    Histogram regionHist;
};

} // namespace nurapid

#endif // NURAPID_NURAPID_COUPLED_NUCA_HH
