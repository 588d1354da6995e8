/**
 * @file
 * The paper's base case: a conventional on-chip two-level lower
 * hierarchy (1 MB L2 @ 11 cycles + 8 MB L3 @ 43 cycles, Table 1), both
 * uniform-access with sequential tag-data probes.
 */

#ifndef NURAPID_MEM_CONVENTIONAL_L2L3_HH
#define NURAPID_MEM_CONVENTIONAL_L2L3_HH

#include <memory>
#include <string>

#include "mem/lower_memory.hh"
#include "mem/main_memory.hh"
#include "mem/set_assoc_cache.hh"
#include "timing/latency_tables.hh"

namespace nurapid {

class ConventionalL2L3 final : public LowerMemory
{
  public:
    struct Params
    {
        CacheOrg l2{"base.l2", 1ull << 20, 8, 128};
        CacheOrg l3{"base.l3", 8ull << 20, 8, 128};
        Cycles l2_latency = 11;   //!< Table 1 input
        Cycles l3_latency = 43;   //!< Table 1 input
        MainMemory::Params memory{};
    };

    explicit ConventionalL2L3(const SramMacroModel &model)
        : ConventionalL2L3(model, Params{}) {}
    ConventionalL2L3(const SramMacroModel &model, const Params &params);

    Result access(Addr addr, AccessType type, Cycle now) override;

    EnergyNJ dynamicEnergyNJ() const override;
    EnergyNJ cacheEnergyNJ() const override { return cacheEnergy.total_nj; }
    const EnergyBreakdown *energyBreakdown() const override
    {
        return &cacheEnergy;
    }
    const std::string &name() const override { return orgName; }
    StatGroup &stats() override { return statGroup; }
    const StatGroup &stats() const override { return statGroup; }
    const Histogram &regionHits() const override { return regionHist; }
    void resetStats() override;

    /** Reports each on-chip block once per level it resides in. */
    void forEachResident(const ResidentFn &fn) const override
    {
        l2Cache.forEachValid(fn);
        l3Cache.forEachValid(fn);
    }

    /** Regions: 0 = L2 blocks, 1 = L3 blocks. */
    void regionOccupancy(std::vector<std::uint64_t> &out) const override
    {
        out.assign({l2Cache.validCount(), l3Cache.validCount()});
    }

    bool audit(AuditSink &sink) const override
    {
        const bool l2_ok = l2Cache.audit(sink);
        const bool l3_ok = l3Cache.audit(sink);
        return l2_ok && l3_ok;
    }

    SetAssocCache &l2() { return l2Cache; }
    SetAssocCache &l3() { return l3Cache; }
    MainMemory &memory() { return mem; }

    /** L2 + L3 plane footprint. */
    std::size_t
    hotStateBytes() const override
    {
        return l2Cache.hotBytes() + l3Cache.hotBytes();
    }

  private:
    std::string orgName = "conventional-l2l3";
    Params p;
    SetAssocCache l2Cache;
    SetAssocCache l3Cache;
    MainMemory mem;
    UniformCacheTiming l2Timing;
    UniformCacheTiming l3Timing;
    /** Regions = levels (0 = L2, 1 = L3); total_nj is the
     *  pre-refactor accumulator. */
    EnergyBreakdown cacheEnergy{2};

    StatGroup statGroup;
    Counter statAccesses;
    Counter statL2Hits;
    Counter statL3Hits;
    Counter statMemFills;
    Histogram regionHist{2};  //!< 0 = L2 hit, 1 = L3 hit
};

} // namespace nurapid

#endif // NURAPID_MEM_CONVENTIONAL_L2L3_HH
