/**
 * @file
 * NuRAPID's centralized set-associative tag array.
 *
 * Tag placement stays conventionally set-associative (an n-way cache
 * holds at most n blocks of a set), but every entry carries a *forward
 * pointer* (d-group, frame) to an arbitrary data frame — the decoupling
 * that enables distance associativity (Section 2.1, Figure 1).
 *
 * State is structure-of-arrays: a contiguous std::uint64_t tag plane
 * (rows padded to a power-of-two stride), per-set valid/dirty bitmap
 * words, and parallel forward-pointer planes (byte-wide d-group,
 * 32-bit frame). The probe is the scalar loop of mem/tag_probe.hh
 * over one dense row. Entries are read and written through by-value
 * Entry views (entry()/setEntry()) so the audit hooks and tests keep
 * checking the same facts against the packed planes.
 *
 * Set recency is a packed exact-LRU rank plane (mem/rank_plane.hh):
 * per set, a permutation of way ranks in 4-bit fields, which caps
 * associativity at 16. touch() is one word-sized SWAR update instead
 * of a chain unlink/relink, and victimWay() scans ranks. Equivalent
 * to chain or stamp LRU because ranks are always distinct — no ties
 * for an encoding to break differently.
 */

#ifndef NURAPID_NURAPID_TAG_ARRAY_HH
#define NURAPID_NURAPID_TAG_ARRAY_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/rank_plane.hh"
#include "mem/tag_probe.hh"
#include "sim/audit/audit.hh"

namespace nurapid {

class TagArray
{
  public:
    /** By-value view of one tag entry, assembled from the planes. */
    struct Entry
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint8_t group = 0;    //!< forward pointer: d-group
        std::uint32_t frame = 0;   //!< forward pointer: frame in group
    };

    struct Lookup
    {
        bool hit = false;
        std::uint32_t set = 0;
        std::uint32_t way = 0;
    };

    TagArray(std::uint64_t capacity_bytes, std::uint32_t assoc,
             std::uint32_t block_bytes);

    /** Probes the array; also fills set/way of the addressed set. */
    Lookup
    lookup(Addr addr) const
    {
        Lookup result;
        result.set = setOf(addr);
        const std::uint64_t match =
            probeMatch(&tagPlane[rowOf(result.set)], wayStride,
                       tagOf(addr)) &
            validBits[result.set];
        if (match) {
            result.hit = true;
            result.way =
                static_cast<std::uint32_t>(std::countr_zero(match));
        }
        return result;
    }

    /** Reads entry (set, way) as a value (range-checked). */
    Entry entry(std::uint32_t set, std::uint32_t way) const;

    /** Overwrites every field of entry (set, way) (range-checked). */
    void setEntry(std::uint32_t set, std::uint32_t way, const Entry &e);

    // Unchecked single-field accessors for the per-reference paths.
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

    std::uint8_t
    groupOf(std::uint32_t set, std::uint32_t way) const
    {
        return groupPlane[rowOf(set) + way];
    }

    std::uint32_t
    frameOf(std::uint32_t set, std::uint32_t way) const
    {
        return framePlane[rowOf(set) + way];
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

    /** Redirects the forward pointer of (set, way). */
    void
    setForward(std::uint32_t set, std::uint32_t way,
               std::uint8_t group, std::uint32_t frame)
    {
        groupPlane[rowOf(set) + way] = group;
        framePlane[rowOf(set) + way] = frame;
    }

    /** Fills (set, way): tag + forward pointer, valid, dirty as given. */
    void
    fillEntry(std::uint32_t set, std::uint32_t way, Addr tag, bool dirty,
              std::uint8_t group, std::uint32_t frame)
    {
        const std::size_t row = rowOf(set);
        const std::uint64_t bit = std::uint64_t{1} << way;
        tagPlane[row + way] = tag;
        validBits[set] |= bit;
        if (dirty)
            dirtyBits[set] |= bit;
        else
            dirtyBits[set] &= ~bit;
        groupPlane[row + way] = group;
        framePlane[row + way] = frame;
    }

    /** Clears valid and dirty of (set, way); tag/pointer go stale. */
    void
    invalidateEntry(std::uint32_t set, std::uint32_t way)
    {
        const std::uint64_t bit = std::uint64_t{1} << way;
        validBits[set] &= ~bit;
        dirtyBits[set] &= ~bit;
    }

    /** Records a use for set-LRU data replacement. */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        ranks.touch(set, way);
    }

    /** An invalid way of @p set if one exists, else the set-LRU way. */
    std::uint32_t
    victimWay(std::uint32_t set) const
    {
        const std::uint64_t invalid = ~validBits[set] & waysMask;
        if (invalid)
            return static_cast<std::uint32_t>(std::countr_zero(invalid));
        return ranks.lruWay(set);
    }

    /** Reconstructs the block address stored at (set, way). */
    Addr blockAddr(std::uint32_t set, std::uint32_t way) const;

    /** Block size and set count are powers of two: index math is
     *  shifts, not per-access divisions. */
    std::uint32_t
    setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(
            (addr >> blockShift) & (sets - 1));
    }

    Addr tagOf(Addr addr) const { return addr >> tagShift; }

    std::uint32_t numSets() const { return sets; }
    std::uint32_t assoc() const { return ways; }
    std::uint32_t blockBytes() const { return blockSize; }

    /** Count of valid entries (for invariant checks in tests). */
    std::uint64_t validCount() const;

    /**
     * Audits tag-side invariants: no set holds two valid entries with
     * the same tag (set-associative placement, Section 2.1), and each
     * set's recency chain visits every way exactly once. Violations
     * carry (set, way) context; returns true if clean. Allocation-free.
     */
    bool audit(AuditSink &sink) const;

    /** Bytes of per-reference hot state (planes + bitmaps). */
    std::size_t
    hotBytes() const
    {
        return (tagPlane.size() + validBits.size() + dirtyBits.size()) *
                   sizeof(std::uint64_t) +
               groupPlane.size() +
               framePlane.size() * sizeof(std::uint32_t) + ranks.bytes();
    }

  private:
    /** First word of @p set's row in the way-indexed planes. */
    std::size_t
    rowOf(std::uint32_t set) const
    {
        return std::size_t{set} << strideShift;
    }

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint32_t blockSize;
    unsigned blockShift = 0;  //!< log2(blockSize)
    unsigned tagShift = 0;    //!< log2(blockSize * sets)
    std::uint32_t wayStride = 1;  //!< pow2 plane row width >= ways
    unsigned strideShift = 0;     //!< log2(wayStride)
    std::uint64_t waysMask = 0;   //!< low `ways` bits set

    // Structure-of-arrays planes: [set << strideShift | way], plus one
    // bitmap word per set.
    std::vector<std::uint64_t> tagPlane;
    std::vector<std::uint64_t> validBits;   //!< [set]
    std::vector<std::uint64_t> dirtyBits;   //!< [set]
    std::vector<std::uint8_t> groupPlane;   //!< forward ptr: d-group
    std::vector<std::uint32_t> framePlane;  //!< forward ptr: frame

    // Packed exact-LRU recency ranks (mem/rank_plane.hh).
    RankPlane ranks;
};

} // namespace nurapid

#endif // NURAPID_NURAPID_TAG_ARRAY_HH
