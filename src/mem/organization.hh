/**
 * @file
 * The bookkeeping shell every lower-hierarchy organization shares.
 *
 * The paper compares its designs on where hits land (d-groups, bank
 * rows, levels; Figures 4, 5 and 7) and on what on-chip and off-chip
 * accesses cost (Figures 10 and 11), so every organization keeps the
 * same books: a name, a stat group, a region-hit histogram, an
 * on-chip energy breakdown and the main memory behind it. This class
 * owns them and implements the LowerMemory views of them once. An
 * organization derives from it and keeps only its own policy:
 * access(), its counter block and their registrations, and its
 * residency walks, audit and footprint.
 *
 * The members are protected, not private: each access() path charges
 * them directly, so the shell adds no call to the hot path.
 */

#ifndef NURAPID_MEM_ORGANIZATION_HH
#define NURAPID_MEM_ORGANIZATION_HH

#include <cstdint>
#include <string>

#include "mem/lower_memory.hh"
#include "mem/main_memory.hh"

namespace nurapid {

class Organization : public LowerMemory
{
  public:
    /** The stat group's name: counters dump as "<name>.<counter>". */
    const std::string &name() const final { return statGroup.name(); }
    StatGroup &stats() final { return statGroup; }
    const StatGroup &stats() const final { return statGroup; }
    const Histogram &regionHits() const final { return regionHist; }

    EnergyNJ cacheEnergyNJ() const final { return cacheEnergy.total_nj; }
    const EnergyBreakdown *energyBreakdown() const final
    {
        return &cacheEnergy;
    }

    /** On-chip energy plus the main memory's. */
    EnergyNJ dynamicEnergyNJ() const final
    {
        return cacheEnergy.total_nj + mem.dynamicEnergyNJ();
    }

    /** Zeroes the stat group, the histogram, the energy breakdown and
     *  the main memory's counters. An organization with sub-caches
     *  extends it to reset their stat groups too. */
    void resetStats() override;

    MainMemory &memory() { return mem; }

  protected:
    /** @p regions sizes both the region-hit histogram and the energy
     *  breakdown's per-region data components. */
    Organization(std::string name, std::uint32_t regions,
                 const MainMemory::Params &memory);

    /** Regions as regionHits(); total_nj is the cacheEnergyNJ()
     *  accumulator. */
    EnergyBreakdown cacheEnergy;
    Histogram regionHist;
    MainMemory mem;
    StatGroup statGroup;
    std::uint64_t auditTick = 0;  //!< periodic-audit access counter
};

} // namespace nurapid

#endif // NURAPID_MEM_ORGANIZATION_HH
