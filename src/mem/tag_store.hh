/**
 * @file
 * The set-associative tag store every organization shares.
 *
 * Distance associativity keeps the tag side conventionally
 * set-associative (Section 2.1): NuRAPID's tag array, D-NUCA's
 * bank-set tags, the coupled cache of Figure 4 and every conventional
 * cache hold the same structure, and this class owns its one layout:
 *
 *  - a contiguous std::uint64_t tag plane, one row per set padded to a
 *    power-of-two stride, so way w of a set sits at
 *    (set << strideShift) + w;
 *  - one valid and one dirty bitmap word per set (bit w = way w);
 *  - a packed exact-LRU rank plane (mem/rank_plane.hh), whose 4-bit
 *    fields cap associativity at 16 — which also lets one mask word
 *    cover a row.
 *
 * A probe is the scalar loop of mem/tag_probe.hh over one dense row,
 * ANDed with the valid word (which also clears the padding lanes).
 * Owners keep only what is theirs: SetAssocCache its access policy
 * and counters, TagArray its forward-pointer planes (indexed by
 * slot()), D-NUCA its bank rows and the coupled cache its d-groups —
 * both contiguous way ranges, "regions" of ways_per_region ways.
 *
 * Every per-reference method is defined here so it inlines into the
 * owners' access paths; construction, the walks and the audit are
 * cold and live in tag_store.cc.
 */

#ifndef NURAPID_MEM_TAG_STORE_HH
#define NURAPID_MEM_TAG_STORE_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "mem/rank_plane.hh"
#include "mem/tag_probe.hh"
#include "sim/audit/audit.hh"

namespace nurapid {

class TagStore
{
  public:
    struct Lookup
    {
        bool hit = false;
        std::uint32_t set = 0;
        std::uint32_t way = 0;  //!< lowest matching way when hit
    };

    /**
     * Lays out @p capacity_bytes as sets of @p num_ways ways of
     * @p block_bytes blocks, every line invalid. fatal()s unless the
     * ways are 1..16, the capacity is non-zero and divides into
     * power-of-two many sets, and the block size is a power of two.
     * @p label opens each message ("<label> associativity 17 ...").
     */
    TagStore(const std::string &label, std::uint64_t capacity_bytes,
             std::uint32_t num_ways, std::uint32_t block_bytes);

    /** Block size and set count are powers of two: index math is
     *  shifts, not per-access divisions. */
    std::uint32_t
    setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(
            (addr >> blockShift) & (sets - 1));
    }

    Addr tagOf(Addr addr) const { return addr >> tagShift; }

    /** Reconstructs the block address stored at (set, way). */
    Addr
    blockAddr(std::uint32_t set, std::uint32_t way) const
    {
        return (tagAt(set, way) * sets + set) * blockSize;
    }

    Addr tagAt(std::uint32_t set, std::uint32_t way) const
    {
        return tagPlane[slot(set, way)];
    }

    /** Ways of @p set holding @p tag (bit w = way w). */
    std::uint64_t
    match(std::uint32_t set, Addr tag) const
    {
        return probeMatch(&tagPlane[slot(set, 0)], wayStride, tag) &
            validBits[set];
    }

    /** Ways of @p set whose tag bits under @p mask equal @p needle —
     *  D-NUCA's partial-tag smart-search compare. */
    std::uint64_t
    matchPartial(std::uint32_t set, Addr mask, Addr needle) const
    {
        return probeMatchMasked(&tagPlane[slot(set, 0)], wayStride, mask,
                                needle) &
            validBits[set];
    }

    /** Probes @p addr; set names the addressed set, hit or miss. */
    Lookup
    lookup(Addr addr) const
    {
        Lookup result;
        result.set = setOf(addr);
        const std::uint64_t m = match(result.set, tagOf(addr));
        if (m) {
            result.hit = true;
            result.way = static_cast<std::uint32_t>(std::countr_zero(m));
        }
        return result;
    }

    bool
    isValid(std::uint32_t set, std::uint32_t way) const
    {
        return (validBits[set] >> way) & 1;
    }

    bool
    isDirty(std::uint32_t set, std::uint32_t way) const
    {
        return (dirtyBits[set] >> way) & 1;
    }

    /** Invalid ways of @p set (bit w = way w). */
    std::uint64_t
    invalidWays(std::uint32_t set) const
    {
        return ~validBits[set] & waysMask;
    }

    /** Writes @p tag into (set, way) and marks it valid, dirty as
     *  given. Recency is the caller's: fill does not touch(). */
    void
    fill(std::uint32_t set, std::uint32_t way, Addr tag, bool dirty)
    {
        tagPlane[slot(set, way)] = tag;
        validBits[set] |= std::uint64_t{1} << way;
        setDirty(set, way, dirty);
    }

    /** Clears valid and dirty of (set, way); its tag goes stale. */
    void
    invalidate(std::uint32_t set, std::uint32_t way)
    {
        const std::uint64_t bit = std::uint64_t{1} << way;
        validBits[set] &= ~bit;
        dirtyBits[set] &= ~bit;
    }

    void
    setDirty(std::uint32_t set, std::uint32_t way, bool dirty)
    {
        const std::uint64_t bit = std::uint64_t{1} << way;
        if (dirty)
            dirtyBits[set] |= bit;
        else
            dirtyBits[set] &= ~bit;
    }

    /** Exchanges ways @p a and @p b of @p set — tag, valid, dirty and
     *  recency rank — the bubble swap of D-NUCA and the coupled cache.
     *  Swapping with an invalid way moves the line into it. */
    void
    swapWays(std::uint32_t set, std::uint32_t a, std::uint32_t b)
    {
        std::swap(tagPlane[slot(set, a)], tagPlane[slot(set, b)]);
        swapBits(validBits[set], a, b);
        swapBits(dirtyBits[set], a, b);
        ranks.swapWays(set, a, b);
    }

    /** Makes (set, way) the set's MRU way. */
    void touch(std::uint32_t set, std::uint32_t way) { ranks.touch(set, way); }

    /** The lowest invalid way of @p set if one exists, else its LRU
     *  way. */
    std::uint32_t
    victimWay(std::uint32_t set) const
    {
        const std::uint64_t invalid = invalidWays(set);
        if (invalid)
            return static_cast<std::uint32_t>(std::countr_zero(invalid));
        return ranks.lruWay(set);
    }

    /** victimWay() confined to ways [first, first + count): the lowest
     *  invalid way of the range, else its LRU way. */
    std::uint32_t
    victimIn(std::uint32_t set, std::uint32_t first,
             std::uint32_t count) const
    {
        const std::uint64_t range = (std::uint64_t{1} << count) - 1;
        const std::uint64_t invalid = (~validBits[set] >> first) & range;
        if (invalid)
            return first +
                static_cast<std::uint32_t>(std::countr_zero(invalid));
        return ranks.lruWayMasked(set, range << first);
    }

    /** Calls @p fn(block_addr, dirty) for every valid line, in set
     *  then way order. */
    void forEachResident(const std::function<void(Addr, bool)> &fn) const;

    /** Count of valid lines. */
    std::uint64_t validCount() const;

    /** Valid lines per region of @p ways_per_region consecutive ways
     *  (region r = ways [r * ways_per_region, ...)). */
    void occupancy(std::uint32_t ways_per_region,
                   std::vector<std::uint64_t> &out) const;

    /**
     * Audits the store: no set holds two valid lines with the same tag
     * (a duplicate halves effective capacity and makes the hit way
     * order-dependent), and each set's recency ranks are a
     * permutation of its ways. Violations go to @p sink under
     * @p component with (set, way) context, plus the way's region when
     * @p ways_per_region is non-zero. Returns true if clean;
     * allocation-free on the clean path.
     */
    bool audit(AuditSink &sink, std::string_view component,
               std::uint32_t ways_per_region) const;

    std::uint32_t numSets() const { return sets; }
    std::uint32_t assoc() const { return ways; }
    std::uint32_t blockBytes() const { return blockSize; }

    /** Index of (set, way) in any plane laid out like the tag plane;
     *  slots() is such a plane's length. */
    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return (std::size_t{set} << strideShift) + way;
    }

    std::size_t slots() const { return tagPlane.size(); }

    /** Bytes of per-reference hot state (planes + bitmaps). */
    std::size_t
    hotBytes() const
    {
        return (tagPlane.size() + validBits.size() + dirtyBits.size()) *
                   sizeof(std::uint64_t) +
               ranks.bytes();
    }

    /** The rank plane itself, for tests that corrupt it. */
    RankPlane &ranksForTesting() { return ranks; }

  private:
    std::uint32_t ways;
    std::uint32_t blockSize;
    std::uint32_t sets = 0;
    unsigned blockShift = 0;      //!< log2(blockSize)
    unsigned tagShift = 0;        //!< log2(blockSize * sets)
    std::uint32_t wayStride = 1;  //!< pow2 plane row width >= ways
    unsigned strideShift = 0;     //!< log2(wayStride)
    std::uint64_t waysMask = 0;   //!< low `ways` bits set

    std::vector<std::uint64_t> tagPlane;   //!< [slot(set, way)]
    std::vector<std::uint64_t> validBits;  //!< [set]
    std::vector<std::uint64_t> dirtyBits;  //!< [set]
    RankPlane ranks;                       //!< per-set LRU permutation
};

} // namespace nurapid

#endif // NURAPID_MEM_TAG_STORE_HH
