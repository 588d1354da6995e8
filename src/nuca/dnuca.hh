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

#include "mem/organization.hh"
#include "mem/tag_store.hh"
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

class DNucaCache final : public Organization
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

    void forEachResident(const ResidentFn &fn) const override;

    /** Valid-block count per latency region. */
    void regionOccupancy(std::vector<std::uint64_t> &out) const override;
    bool audit(AuditSink &sink) const override;
    std::size_t hotStateBytes() const override;

    const DNucaTiming &timing() const { return times; }

  private:
    std::uint32_t colOf(std::uint32_t set) const;
    std::uint32_t rowOfWay(std::uint32_t way) const;

    /** Waits for and occupies bank (row, col) for @p busy cycles
     *  (0 = the standard per-access occupancy); returns the start. */
    Cycle acquireBank(std::uint32_t row, std::uint32_t col, Cycle at,
                      Cycles busy = 0);

    Params p;
    DNucaTiming times;
    /** Bank row r holds ways [r * waysPerRow, (r + 1) * waysPerRow)
     *  of every set. */
    TagStore tags;
    std::uint32_t waysPerRow;
    Addr partialMask;
    std::vector<Cycle> bankFree;  //!< [row * cols + col]

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
};

} // namespace nurapid

#endif // NURAPID_NUCA_DNUCA_HH
