/**
 * @file
 * The D-NUCA baseline (Kim, Burger, Keckler — ASPLOS'02), configured as
 * the paper's comparison point (Section 4): 8 MB, 16-way, 128 x 64 KB
 * banks arranged as 16 bank sets (columns) of 8 bank-d-groups (rows),
 * parallel tag-data access within banks, a partial-tag smart-search
 * array (7 LSBs per tag), bubble promotion/demotion within the set,
 * insertion in the slowest bank, and eviction of the slowest way.
 *
 * Idealizations the paper grants D-NUCA (we grant them too):
 *  - an infinite-bandwidth switched network (swaps and accesses proceed
 *    concurrently; only per-bank occupancy is modeled);
 *  - an infinite-bandwidth smart-search array kept perfectly in sync;
 *  - zero switch energy.
 */

#ifndef NURAPID_NUCA_DNUCA_HH
#define NURAPID_NUCA_DNUCA_HH

#include <string>
#include <vector>

#include "mem/lower_memory.hh"
#include "mem/main_memory.hh"
#include "mem/rank_plane.hh"
#include "timing/latency_tables.hh"

namespace nurapid {

/** How D-NUCA locates the matching bank (Section 5.4). */
enum class DNucaSearch : std::uint8_t {
    Multicast,      //!< search every bank of the bank set in parallel
    SsPerformance,  //!< multicast + smart-search for early miss detect
    SsEnergy,       //!< smart-search first, then only matching banks
};

constexpr const char *
dnucaSearchName(DNucaSearch s)
{
    switch (s) {
      case DNucaSearch::Multicast: return "multicast";
      case DNucaSearch::SsPerformance: return "ss-performance";
      case DNucaSearch::SsEnergy: return "ss-energy";
    }
    return "unknown";
}

class DNucaCache final : public LowerMemory
{
  public:
    struct Params
    {
        std::string name = "dnuca";
        std::uint64_t capacity_bytes = 8ull << 20;
        std::uint32_t assoc = 16;
        std::uint32_t block_bytes = 128;
        std::uint32_t rows = 8;    //!< bank d-groups per set
        std::uint32_t cols = 16;   //!< bank sets
        DNucaSearch search = DNucaSearch::SsPerformance;
        std::uint32_t partial_tag_bits = 7;
        bool promote_on_hit = true;  //!< bubble promotion policy
        MainMemory::Params memory{};
    };

    DNucaCache(const SramMacroModel &model, const Params &params);

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
    const DNucaTiming &timing() const { return times; }

  private:
    std::uint32_t setOf(Addr block) const;
    Addr tagOf(Addr block) const;
    std::uint32_t colOf(std::uint32_t set) const;
    std::uint32_t rowOfWay(std::uint32_t way) const;
    std::uint32_t lruWayInRow(std::uint32_t set, std::uint32_t row) const;
    void touch(std::uint32_t set, std::uint32_t way);

    /** First word of @p set's row in the way-indexed planes. */
    std::size_t
    rowBase(std::uint32_t set) const
    {
        return std::size_t{set} << strideShift;
    }

    /** Waits for and occupies bank (row, col) for @p busy cycles
     *  (0 = the standard per-access occupancy); returns the start. */
    Cycle acquireBank(std::uint32_t row, std::uint32_t col, Cycle at,
                      Cycles busy = 0);

    Params p;
    DNucaTiming times;
    std::uint32_t sets;
    std::uint32_t waysPerRow;
    unsigned blockShift = 0;  //!< log2(block_bytes)
    unsigned tagShift = 0;    //!< log2(block_bytes * sets)
    std::uint32_t wayStride = 1;  //!< pow2 plane row width >= assoc
    unsigned strideShift = 0;     //!< log2(wayStride)
    std::uint64_t waysMask = 0;   //!< low assoc bits set
    Addr partialMask;

    // Structure-of-arrays tag state: [set << strideShift | way] planes
    // plus one bitmap word per set. Recency is a packed exact-LRU
    // rank plane (mem/rank_plane.hh): one word per 16-way set instead
    // of sixteen 64-bit stamps.
    std::vector<std::uint64_t> tagPlane;
    std::vector<std::uint64_t> validBits;  //!< [set]
    std::vector<std::uint64_t> dirtyBits;  //!< [set]
    RankPlane ranks;
    std::vector<Cycle> bankFree;  //!< [row * cols + col]
    MainMemory mem;
    /** Regions = bank rows; total_nj is the pre-refactor accumulator. */
    EnergyBreakdown cacheEnergy{p.rows};
    std::uint64_t auditTick = 0;  //!< periodic-audit access counter

    StatGroup statGroup;
    /** Counters packed into one cache-line-aligned block so an access
     *  stops dirtying 12 scattered counter lines. */
    struct alignas(64) Counters
    {
        Counter demandAccesses;
        Counter writebackAccesses;
        Counter hits;
        Counter misses;
        Counter bankDataAccesses;   //!< data-array reads/writes
        Counter bankSearchProbes;   //!< tag-only probes during search
        Counter ssProbes;
        Counter bankWaitCycles;
        Counter evictions;
        Counter promotions;
        Counter blockMoves;
        Counter falsePartialHits;
    };
    Counters cnt;
    Histogram regionHist;
};

} // namespace nurapid

#endif // NURAPID_NUCA_DNUCA_HH
