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
 * Frame state is structure-of-arrays: parallel reverse-pointer planes
 * (set indices and LRU prev/next pointers in mem/narrow_plane.hh
 * planes sized to the geometry the constructor is told about —
 * 2-byte elements for the paper's 16 Ki-frame d-groups — and byte
 * ways), plus packed valid/linked bitmaps (one bit per frame) —
 * replacing the per-Frame and per-Node records so a touch or swap
 * writes a few dense words. Frames are read through a by-value Frame
 * view (frame()); tests that need to corrupt state write raw fields
 * back with setFrame().
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

#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/narrow_plane.hh"
#include "mem/replacement.hh"
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
    static_assert(kNoFrame == NarrowPlane::kNone,
                  "narrow pointer planes reuse the kNoFrame sentinel");

    /** @p num_sets bounds the reverse set pointers (0 = unknown,
     *  keeps the full 4-byte reverse-set plane). */
    DataArray(std::uint32_t num_groups, std::uint32_t frames_per_group,
              std::uint32_t num_regions, DistanceRepl repl,
              std::uint64_t seed, std::uint32_t num_sets = 0);

    /** Region a block address maps to (hash of its block index). */
    std::uint32_t regionOf(Addr block_index) const;

    /** True if (group, region) has a free frame. */
    bool hasFree(std::uint32_t group, std::uint32_t region) const;

    /** Pops a free frame of (group, region); panics if none. */
    std::uint32_t allocFrame(std::uint32_t group, std::uint32_t region);

    /**
     * Nominates a distance-replacement victim among the valid frames of
     * (group, region): the region-LRU frame under DistanceRepl::LRU, a
     * uniformly random frame under DistanceRepl::Random. Must only be
     * called when the region has no free frame.
     */
    std::uint32_t victimFrame(std::uint32_t group, std::uint32_t region);

    /** Fills @p frame with the block of tag entry (set, way). */
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
            plru[group]->touch(regionOfFrame(f), f % framesPerRegion);
    }

    /** Reads frame (group, f) as a value (range-checked). */
    Frame
    frame(std::uint32_t group, std::uint32_t f) const
    {
        panic_if(group >= nGroups || f >= nFrames,
                 "frame (%u, %u) out of range", group, f);
        const std::size_t idx = frameIdx(group, f);
        Frame fr;
        fr.set = revSet.get(idx);
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
        revSet.set(idx, fr.set);
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
        return revSet.get(frameIdx(group, f));
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
        return frameRegion.get(f);
    }

    /** Bytes of per-reference hot state (pointer planes + bitmaps). */
    std::size_t
    hotBytes() const
    {
        return revSet.bytes() + revWay.size() +
               (validWords.size() + linkedWords.size()) *
                   sizeof(std::uint64_t) +
               prevPlane.bytes() + nextPlane.bytes() +
               frameRegion.bytes();
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
        const std::uint32_t prev = prevPlane.get(base + f);
        const std::uint32_t next = nextPlane.get(base + f);
        RegionList &r = region(group, regionOfFrame(f));
        if (prev != kNoFrame)
            nextPlane.set(base + prev, next);
        else
            r.head = next;
        if (next != kNoFrame)
            prevPlane.set(base + next, prev);
        else
            r.tail = prev;
        prevPlane.set(base + f, kNoFrame);
        nextPlane.set(base + f, kNoFrame);
        const std::size_t idx = base + f;
        linkedWords[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    void
    linkFront(std::uint32_t group, std::uint32_t f)
    {
        panic_if(linkedBit(group, f), "frame %u already linked", f);
        const std::size_t base = std::size_t{group} * nFrames;
        RegionList &r = region(group, regionOfFrame(f));
        prevPlane.set(base + f, kNoFrame);
        nextPlane.set(base + f, r.head);
        if (r.head != kNoFrame)
            prevPlane.set(base + r.head, f);
        r.head = f;
        if (r.tail == kNoFrame)
            r.tail = f;
        const std::size_t idx = base + f;
        linkedWords[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    std::uint32_t nGroups;
    std::uint32_t nFrames;
    std::uint32_t nRegions;
    std::uint32_t framesPerRegion;
    DistanceRepl replPolicy;
    Rng rng;

    // Structure-of-arrays frame planes, indexed [group * nFrames + f];
    // valid/linked are packed one bit per frame, pointer planes are
    // narrowed to the geometry's minimal width (ways fit a byte: the
    // tag array caps associativity at 64).
    NarrowPlane revSet;                      //!< reverse ptr: tag set
    std::vector<std::uint8_t> revWay;        //!< reverse ptr: tag way
    std::vector<std::uint64_t> validWords;   //!< [idx / 64]
    std::vector<std::uint64_t> linkedWords;  //!< [idx / 64]
    NarrowPlane prevPlane;                   //!< LRU chain prev
    NarrowPlane nextPlane;                   //!< LRU chain next

    NarrowPlane frameRegion;                 //!< frame -> region index
    std::vector<RegionList> lists;  //!< [group * nRegions + region]
    /** Per-group tree-PLRU state (regions as sets, frames as ways);
     *  only allocated under DistanceRepl::TreePLRU. */
    std::vector<std::unique_ptr<TreePlruReplacer>> plru;
};

} // namespace nurapid

#endif // NURAPID_NURAPID_DATA_ARRAY_HH
