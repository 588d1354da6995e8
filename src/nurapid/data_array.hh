/**
 * @file
 * NuRAPID's distance-associative data arrays.
 *
 * The data side is organized as a few large d-groups, each a pool of
 * block frames. Any number of blocks from one set may sit in one
 * d-group. Every frame carries a *reverse pointer* (set, way) back to
 * its tag entry so demotions can update forward pointers (Section 2.2,
 * Figure 2).
 *
 * Frame state is structure-of-arrays: parallel 32-bit planes (reverse
 * set pointers, region-LRU prev/next pointers, with kNoFrame stored
 * directly) and byte ways, plus packed valid/linked bitmaps (one bit
 * per frame) — replacing the per-Frame and per-Node records so a
 * touch or swap writes a few dense words. Frames are read through a
 * by-value Frame view (frame()); tests that need to corrupt state
 * write raw fields back with setFrame().
 *
 * Distance replacement (Section 2.4.2) picks a victim frame within a
 * region: the region-LRU chain's tail, a uniformly random frame, or
 * (our extension) the leaf a binary tree-PLRU walk selects. The tree
 * is one plane of per-region node bytes next to the region lists,
 * walked and updated only under DistanceRepl::TreePLRU.
 *
 * Section 2.4.3's pointer-restriction option is modeled by statically
 * partitioning each d-group's frames into *regions*; a block may only
 * occupy frames of the region its address hashes to, which shortens the
 * forward/reverse pointers. The unrestricted cache is the special case
 * of a single region.
 */

#ifndef NURAPID_NURAPID_DATA_ARRAY_HH
#define NURAPID_NURAPID_DATA_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "nurapid/policies.hh"
#include "sim/audit/audit.hh"

namespace nurapid {

class DataArray
{
  public:
    /** By-value view of one frame, assembled from the planes. */
    struct Frame
    {
        std::uint32_t set = 0;   //!< reverse pointer: tag set
        std::uint16_t way = 0;   //!< reverse pointer: tag way
        bool valid = false;
    };

    static constexpr std::uint32_t kNoFrame = 0xffffffff;

    DataArray(std::uint32_t num_groups, std::uint32_t frames_per_group,
              std::uint32_t num_regions, DistanceRepl repl,
              std::uint64_t seed);

    /** Region a block address maps to (hash of its block index). */
    std::uint32_t regionOf(Addr block_index) const;

    /** True if (group, region) has a free frame. */
    bool hasFree(std::uint32_t group, std::uint32_t region) const;

    /** Pops a free frame of (group, region); panics if none. */
    std::uint32_t allocFrame(std::uint32_t group, std::uint32_t region);

    /**
     * Nominates a distance-replacement victim among the valid frames of
     * (group, region): the region-LRU frame under DistanceRepl::LRU, a
     * uniformly random frame under DistanceRepl::Random, the tree's
     * pseudo-LRU leaf under DistanceRepl::TreePLRU. Must only be
     * called when the region has no free frame.
     */
    std::uint32_t victimFrame(std::uint32_t group, std::uint32_t region);

    /** Fills @p frame with the block of tag entry (set, way); the
     *  frame becomes the region's most recent use. */
    void place(std::uint32_t group, std::uint32_t frame, std::uint32_t set,
               std::uint32_t way);

    /** Invalidates @p frame and returns it to the free pool. */
    void remove(std::uint32_t group, std::uint32_t frame);

    /**
     * Exchanges the blocks held by two (valid) frames — the data-array
     * half of a promotion/demotion swap. Both blocks become MRU in
     * their new d-groups. Free lists are untouched.
     */
    void swapFrames(std::uint32_t group_a, std::uint32_t frame_a,
                    std::uint32_t group_b, std::uint32_t frame_b);

    /**
     * Records a use of @p f for region-LRU ordering. Inline (with the
     * chain splice it performs): this runs on every L2 hit.
     */
    void
    touch(std::uint32_t group, std::uint32_t f)
    {
        panic_if(!validBit(group, f), "touching invalid frame");
        unlink(group, f);
        linkFront(group, f);
        if (replPolicy == DistanceRepl::TreePLRU)
            plruTouch(group, f);
    }

    /** Reads frame (group, f) as a value (range-checked). */
    Frame
    frame(std::uint32_t group, std::uint32_t f) const
    {
        panic_if(group >= nGroups || f >= nFrames,
                 "frame (%u, %u) out of range", group, f);
        const std::size_t idx = frameIdx(group, f);
        Frame fr;
        fr.set = revSet[idx];
        fr.way = revWay[idx];
        fr.valid = validBit(group, f);
        return fr;
    }

    /**
     * Raw-writes the fields of frame (group, f) without touching the
     * LRU chains or free lists — the moral equivalent of poking the
     * old Frame record's fields directly. For tests (state corruption
     * for audit coverage) and trusted plumbing only.
     */
    void
    setFrame(std::uint32_t group, std::uint32_t f, const Frame &fr)
    {
        panic_if(group >= nGroups || f >= nFrames,
                 "frame (%u, %u) out of range", group, f);
        const std::size_t idx = frameIdx(group, f);
        revSet[idx] = fr.set;
        revWay[idx] = static_cast<std::uint8_t>(fr.way);
        const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
        if (fr.valid)
            validWords[idx >> 6] |= bit;
        else
            validWords[idx >> 6] &= ~bit;
    }

    /** Unchecked reverse-pointer reads for the per-reference paths. */
    std::uint32_t
    revSetOf(std::uint32_t group, std::uint32_t f) const
    {
        return revSet[frameIdx(group, f)];
    }

    std::uint16_t
    revWayOf(std::uint32_t group, std::uint32_t f) const
    {
        return revWay[frameIdx(group, f)];
    }

    std::uint32_t numGroups() const { return nGroups; }
    std::uint32_t framesPerGroup() const { return nFrames; }
    std::uint32_t numRegions() const { return nRegions; }

    /** Region of a frame index (table lookup — frames are touched too
     *  often for a divide by framesPerRegion here). */
    std::uint32_t regionOfFrame(std::uint32_t f) const
    {
        return frameRegion[f];
    }

    /** Bytes of per-reference hot state (pointer planes + bitmaps). */
    std::size_t
    hotBytes() const
    {
        return (revSet.size() + prevPlane.size() + nextPlane.size() +
                frameRegion.size()) *
                   sizeof(std::uint32_t) +
               revWay.size() +
               (validWords.size() + linkedWords.size()) *
                   sizeof(std::uint64_t) +
               plruTree.size();
    }

    /** Valid-frame count (for invariant checks in tests). */
    std::uint64_t validCount() const;

    /**
     * Audits data-side invariants for every (d-group, region): the LRU
     * chain links exactly the valid frames of the region (acyclic, with
     * consistent prev/next and head/tail), the free list holds exactly
     * the invalid frames (no duplicates, no valid frames), and both
     * partitions sum to the region's frame count. Violations carry
     * (group, frame) context; returns true if clean. Allocation-free
     * after the calling thread's first audit (scratch bitmaps persist).
     */
    bool audit(AuditSink &sink) const;

  private:
    struct RegionList
    {
        std::uint32_t head = kNoFrame;  //!< MRU frame
        std::uint32_t tail = kNoFrame;  //!< LRU frame
        std::vector<std::uint32_t> free;
    };

    std::size_t
    frameIdx(std::uint32_t group, std::uint32_t f) const
    {
        return std::size_t{group} * nFrames + f;
    }

    bool
    validBit(std::uint32_t group, std::uint32_t f) const
    {
        const std::size_t idx = frameIdx(group, f);
        return (validWords[idx >> 6] >> (idx & 63)) & 1;
    }

    bool
    linkedBit(std::uint32_t group, std::uint32_t f) const
    {
        const std::size_t idx = frameIdx(group, f);
        return (linkedWords[idx >> 6] >> (idx & 63)) & 1;
    }

    RegionList &
    region(std::uint32_t group, std::uint32_t region_idx)
    {
        return lists[std::size_t{group} * nRegions + region_idx];
    }

    void
    unlink(std::uint32_t group, std::uint32_t f)
    {
        if (!linkedBit(group, f))
            return;
        const std::size_t base = std::size_t{group} * nFrames;
        const std::uint32_t prev = prevPlane[base + f];
        const std::uint32_t next = nextPlane[base + f];
        RegionList &r = region(group, regionOfFrame(f));
        if (prev != kNoFrame)
            nextPlane[base + prev] = next;
        else
            r.head = next;
        if (next != kNoFrame)
            prevPlane[base + next] = prev;
        else
            r.tail = prev;
        prevPlane[base + f] = kNoFrame;
        nextPlane[base + f] = kNoFrame;
        const std::size_t idx = base + f;
        linkedWords[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    void
    linkFront(std::uint32_t group, std::uint32_t f)
    {
        panic_if(linkedBit(group, f), "frame %u already linked", f);
        const std::size_t base = std::size_t{group} * nFrames;
        RegionList &r = region(group, regionOfFrame(f));
        prevPlane[base + f] = kNoFrame;
        nextPlane[base + f] = r.head;
        if (r.head != kNoFrame)
            prevPlane[base + r.head] = f;
        r.head = f;
        if (r.tail == kNoFrame)
            r.tail = f;
        const std::size_t idx = base + f;
        linkedWords[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    /** Root node of (group, region)'s tree in plruTree. */
    std::size_t
    plruBase(std::uint32_t group, std::uint32_t region_idx) const
    {
        return (std::size_t{group} * nRegions + region_idx) *
               (framesPerRegion - 1);
    }

    /** Tree-PLRU use of @p f: walk from the root towards its leaf,
     *  pointing every node *away* from the path taken. */
    void
    plruTouch(std::uint32_t group, std::uint32_t f)
    {
        const std::uint32_t region_idx = regionOfFrame(f);
        const std::uint32_t leaf = f - region_idx * framesPerRegion;
        std::uint8_t *tree = &plruTree[plruBase(group, region_idx)];
        std::uint32_t node = 0;
        std::uint32_t lo = 0;
        std::uint32_t hi = framesPerRegion;
        while (hi - lo > 1) {
            const std::uint32_t mid = (lo + hi) / 2;
            const bool went_right = leaf >= mid;
            tree[node] = static_cast<std::uint8_t>(!went_right);
            node = 2 * node + (went_right ? 2 : 1);
            if (went_right)
                lo = mid;
            else
                hi = mid;
        }
    }

    /** Region-relative frame the tree-PLRU walk selects. */
    std::uint32_t plruVictim(std::uint32_t group,
                             std::uint32_t region_idx) const;

    std::uint32_t nGroups;
    std::uint32_t nFrames;
    std::uint32_t nRegions;
    std::uint32_t framesPerRegion;
    DistanceRepl replPolicy;
    Rng rng;

    // Structure-of-arrays frame planes, indexed [group * nFrames + f];
    // valid/linked are packed one bit per frame (ways fit a byte: the
    // tag array caps associativity at 16).
    std::vector<std::uint32_t> revSet;       //!< reverse ptr: tag set
    std::vector<std::uint8_t> revWay;        //!< reverse ptr: tag way
    std::vector<std::uint64_t> validWords;   //!< [idx / 64]
    std::vector<std::uint64_t> linkedWords;  //!< [idx / 64]
    std::vector<std::uint32_t> prevPlane;    //!< LRU chain prev
    std::vector<std::uint32_t> nextPlane;    //!< LRU chain next

    std::vector<std::uint32_t> frameRegion;  //!< frame -> region index
    std::vector<RegionList> lists;  //!< [group * nRegions + region]
    /** Tree-PLRU node bits, framesPerRegion - 1 per (group, region);
     *  empty unless DistanceRepl::TreePLRU. */
    std::vector<std::uint8_t> plruTree;
};

} // namespace nurapid

#endif // NURAPID_NURAPID_DATA_ARRAY_HH
