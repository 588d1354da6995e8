/**
 * @file
 * A generic behavioral set-associative cache.
 *
 * Used for the L1 I/D caches, the conventional baseline's L2 and L3,
 * and the per-bank tag state of the D-NUCA model. Tracks tags, valid
 * and dirty bits only (this is a performance/energy simulator; no data
 * payloads are stored).
 *
 * Hot state is laid out structure-of-arrays: one contiguous
 * std::uint64_t tag plane (rows padded to a power-of-two stride), one
 * valid and one dirty bitmap word per set, and a packed exact-LRU
 * rank plane (mem/rank_plane.hh) — the probe path touches one dense
 * row plus three words instead of walking an array of per-Line
 * records. The tag compare is the scalar loop of mem/tag_probe.hh.
 * Associativity is capped at 16, the rank plane's 4-bit field limit.
 *
 * Replacement is LRU only (every cache the experiments build is
 * LRU, Section 2.4.2). The per-set permutation of way ranks (rank 0 =
 * MRU, max rank = victim) is exactly equivalent to chain- or
 * stamp-based LRU because ranks are always distinct, so there are no
 * ties for an encoding to break differently.
 */

#ifndef NURAPID_MEM_SET_ASSOC_CACHE_HH
#define NURAPID_MEM_SET_ASSOC_CACHE_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/rank_plane.hh"
#include "mem/tag_probe.hh"
#include "sim/audit/audit.hh"

namespace nurapid {

/** Static organization of a SetAssocCache. */
struct CacheOrg
{
    std::string name = "cache";
    std::uint64_t capacity_bytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t block_bytes = 64;

    std::uint32_t numSets() const;
    std::uint32_t numBlocks() const;
};

class SetAssocCache
{
  public:
    /** Outcome of one access (state already updated when returned). */
    struct Access
    {
        bool hit = false;
        std::uint32_t way = 0;       //!< way hit or filled
        bool evicted = false;        //!< a valid block was displaced
        Addr evicted_addr = kInvalidAddr;
        bool evicted_dirty = false;
    };

    explicit SetAssocCache(const CacheOrg &org);

    /**
     * Performs a demand access: on a miss the block is allocated
     * (write-allocate) and the displaced victim, if any, is reported.
     * The hit scan is defined here so it inlines into the callers'
     * per-reference loops; the fill path lives out of line.
     */
    Access
    access(Addr addr, bool is_write)
    {
        const std::uint32_t set = setIndex(addr);
        const Addr tag = tagOf(addr);

        const std::uint64_t match =
            probeMatch(&tagPlane[rowOf(set)], wayStride, tag) &
            validBits[set];
        if (match) {
            const auto w = static_cast<std::uint32_t>(
                std::countr_zero(match));
            ++cnt.hits;
            lruRanks.touch(set, w);
            if (is_write)
                dirtyBits[set] |= std::uint64_t{1} << w;
            Access result;
            result.hit = true;
            result.way = w;
            return result;
        }
        return accessMiss(set, tag, is_write);
    }

    /** Looks up @p addr without changing any state. */
    bool contains(Addr addr) const;

    /** Marks @p addr dirty if present (e.g. writeback arriving). */
    bool markDirty(Addr addr);

    /** Invalidates @p addr; returns true if it was present and dirty. */
    bool invalidate(Addr addr);

    const CacheOrg &org() const { return organization; }
    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

    std::uint64_t hits() const { return cnt.hits.value(); }
    std::uint64_t misses() const { return cnt.misses.value(); }
    double missRatio() const;

    /** Folds precomputed access outcomes into the counters without
     *  touching the tag or replacement state — the distilled-replay
     *  path (trace/distilled_trace.hh) already ran this cache over the
     *  stream once at distillation time. */
    void
    foldStats(std::uint64_t fold_hits, std::uint64_t fold_misses,
              std::uint64_t fold_evictions, std::uint64_t fold_writebacks)
    {
        cnt.hits += fold_hits;
        cnt.misses += fold_misses;
        cnt.evictions += fold_evictions;
        cnt.writebacks += fold_writebacks;
    }

    /** Set index of an address (exposed for hot-set analyses). Block
     *  size and set count are enforced powers of two, so the index
     *  math is shifts — no per-access integer division. */
    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(
            (addr >> blockShift) & (sets - 1));
    }

    /** Calls @p fn(block_addr, dirty) for every valid line. */
    void forEachValid(const std::function<void(Addr, bool)> &fn) const;

    /** Count of valid lines. */
    std::uint64_t validCount() const;

    /**
     * Audits tag-store integrity: no set holds two valid lines with
     * the same tag (a duplicate silently halves effective capacity and
     * makes hit way selection order-dependent), and each set's
     * recency ranks are a permutation of its ways.
     * Violations go to @p sink under component name "<org name>";
     * returns true if clean. Allocation-free on the clean path.
     */
    bool audit(AuditSink &sink) const;

    /** Bytes of per-reference hot state (planes + bitmaps), summed
     *  into the owning organization's hotStateBytes(). */
    std::size_t
    hotBytes() const
    {
        return (tagPlane.size() + validBits.size() + dirtyBits.size()) *
                   sizeof(std::uint64_t) +
               lruRanks.bytes();
    }

  private:
    Addr tagOf(Addr addr) const { return addr >> tagShift; }

    /** First word of @p set's row in the way-indexed planes. */
    std::size_t
    rowOf(std::uint32_t set) const
    {
        return std::size_t{set} << strideShift;
    }

    /** Miss path of access(): victim selection and fill. */
    Access accessMiss(std::uint32_t set, Addr tag, bool is_write);

    CacheOrg organization;
    std::uint32_t sets;
    unsigned blockShift = 0;   //!< log2(block_bytes)
    unsigned tagShift = 0;     //!< log2(block_bytes * sets)
    std::uint32_t wayStride = 1;  //!< pow2 plane row width >= assoc
    unsigned strideShift = 0;     //!< log2(wayStride)
    std::uint64_t waysMask = 0;   //!< low assoc bits set

    // Structure-of-arrays tag state: [set << strideShift | way] planes
    // plus one bitmap word per set.
    std::vector<std::uint64_t> tagPlane;
    std::vector<std::uint64_t> validBits;  //!< [set]
    std::vector<std::uint64_t> dirtyBits;  //!< [set]

    RankPlane lruRanks;  //!< per-set LRU rank permutation

    StatGroup statGroup;
    /** Counters grouped into one cache line so the stat updates of one
     *  access dirty a single line instead of four scattered ones. */
    struct alignas(64) Counters
    {
        Counter hits;
        Counter misses;
        Counter evictions;
        Counter writebacks;
    };
    Counters cnt;
};

} // namespace nurapid

#endif // NURAPID_MEM_SET_ASSOC_CACHE_HH
