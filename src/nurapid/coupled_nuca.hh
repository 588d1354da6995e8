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
#include "mem/tag_store.hh"
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

    /** The tag store itself, for tests that corrupt it. */
    TagStore &tagsForTesting() { return tags; }

  private:
    std::uint32_t groupOfWay(std::uint32_t way) const;

    Params p;
    NuRapidTiming times;
    /** D-group g holds ways [g * waysPerGroup, (g + 1) * waysPerGroup)
     *  of every set. */
    TagStore tags;
    std::uint32_t waysPerGroup;
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
