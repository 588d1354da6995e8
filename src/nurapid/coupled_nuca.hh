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

#include "mem/organization.hh"
#include "mem/tag_store.hh"
#include "nurapid/policies.hh"
#include "timing/latency_tables.hh"

namespace nurapid {

class CoupledNucaCache final : public Organization
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

    void forEachResident(const ResidentFn &fn) const override;

    /** Valid-block count per latency region. */
    void regionOccupancy(std::vector<std::uint64_t> &out) const override;
    bool audit(AuditSink &sink) const override;
    std::size_t hotStateBytes() const override;

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
    Cycle portFree = 0;

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
};

} // namespace nurapid

#endif // NURAPID_NURAPID_COUPLED_NUCA_HH
