/**
 * @file
 * A generic behavioral set-associative cache.
 *
 * Used for the L1 I/D caches and the conventional baseline's L2 and
 * L3. Tracks tags, valid
 * and dirty bits only (this is a performance/energy simulator; no data
 * payloads are stored).
 *
 * Tag, valid, dirty and recency state is one TagStore
 * (mem/tag_store.hh), the structure-of-arrays layout every
 * organization shares; this class adds the demand-access policy
 * (write-allocate, lowest invalid way else LRU victim) and counters.
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

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/tag_store.hh"
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
        const std::uint32_t set = tags.setOf(addr);
        const Addr tag = tags.tagOf(addr);

        const std::uint64_t match = tags.match(set, tag);
        if (match) {
            const auto w = static_cast<std::uint32_t>(
                std::countr_zero(match));
            ++cnt.hits;
            tags.touch(set, w);
            if (is_write)
                tags.setDirty(set, w, true);
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

    /** Calls @p fn(block_addr, dirty) for every valid line. */
    void
    forEachValid(const std::function<void(Addr, bool)> &fn) const
    {
        tags.forEachResident(fn);
    }

    /** Count of valid lines. */
    std::uint64_t validCount() const { return tags.validCount(); }

    /**
     * Audits the tag store (TagStore::audit) under component name
     * "<org name>"; returns true if clean. Allocation-free on the
     * clean path.
     */
    bool
    audit(AuditSink &sink) const
    {
        return tags.audit(sink, organization.name, 0);
    }

    /** Bytes of per-reference hot state, summed into the owning
     *  organization's hotStateBytes(). */
    std::size_t hotBytes() const { return tags.hotBytes(); }

    /** The tag store itself, for tests that corrupt it. */
    TagStore &tagsForTesting() { return tags; }

  private:
    /** Miss path of access(): victim selection and fill. */
    Access accessMiss(std::uint32_t set, Addr tag, bool is_write);

    CacheOrg organization;
    TagStore tags;

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
