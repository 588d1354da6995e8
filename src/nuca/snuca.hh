/**
 * @file
 * S-NUCA: the *static* NUCA baseline (Kim, Burger, Keckler —
 * ASPLOS'02; discussed in the paper's related work as the design
 * D-NUCA improves on).
 *
 * Blocks map statically to one bank by address — no migration, no
 * search, no smart-search array. An access routes directly to its bank
 * and pays that bank's non-uniform latency. Simple and cheap, but hot
 * data enjoys no locality-of-distance: its latency is whatever its
 * address hashes to. Included as the library's third NUCA point and
 * for the `bench_ablation_snuca` comparison.
 */

#ifndef NURAPID_NUCA_SNUCA_HH
#define NURAPID_NUCA_SNUCA_HH

#include <string>
#include <vector>

#include "mem/lower_memory.hh"
#include "mem/main_memory.hh"
#include "mem/set_assoc_cache.hh"
#include "timing/latency_tables.hh"

namespace nurapid {

class SNucaCache final : public LowerMemory
{
  public:
    struct Params
    {
        std::string name = "snuca";
        std::uint64_t capacity_bytes = 8ull << 20;
        std::uint32_t assoc = 16;   //!< per-bank associativity
        std::uint32_t block_bytes = 128;
        std::uint32_t rows = 8;
        std::uint32_t cols = 16;
        MainMemory::Params memory{};
    };

    SNucaCache(const SramMacroModel &model, const Params &params);

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

    MainMemory &memory() { return mem; }
    const DNucaTiming &timing() const { return times; }

    /** Static bank of an address (row-major index). */
    std::uint32_t bankOf(Addr block) const;

    /** Sum of the banks' plane footprints. */
    std::size_t
    hotStateBytes() const override
    {
        std::size_t n = bankFree.size() * sizeof(Cycle);
        for (const SetAssocCache &b : banks)
            n += b.hotBytes();
        return n;
    }

  private:
    Params p;
    DNucaTiming times;  //!< same grid timing as D-NUCA
    std::vector<SetAssocCache> banks;
    std::vector<Cycle> bankFree;
    MainMemory mem;
    /** Regions = bank rows; total_nj is the pre-refactor accumulator. */
    EnergyBreakdown cacheEnergy{p.rows};

    StatGroup statGroup;
    /** Counters packed into one cache-line-aligned block so an access
     *  stops dirtying 5 scattered counter lines. */
    struct alignas(64) Counters
    {
        Counter demandAccesses;
        Counter writebackAccesses;
        Counter hits;
        Counter misses;
        Counter bankWaitCycles;
    };
    Counters cnt;
    Histogram regionHist;
};

} // namespace nurapid

#endif // NURAPID_NUCA_SNUCA_HH
