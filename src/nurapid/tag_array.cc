#include "nurapid/tag_array.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

TagArray::TagArray(std::uint64_t capacity_bytes, std::uint32_t assoc,
                   std::uint32_t block_bytes)
    : sets(static_cast<std::uint32_t>(
          capacity_bytes / (std::uint64_t{assoc} * block_bytes))),
      ways(assoc), blockSize(block_bytes)
{
    fatal_if(assoc == 0 || assoc > RankPlane::kMaxWays,
             "NuRAPID tag array: associativity %u outside the rank-plane "
             "range 1..%u", assoc, RankPlane::kMaxWays);
    fatal_if(!isPowerOf2(block_bytes), "block size %u not a power of two",
             block_bytes);
    fatal_if(!isPowerOf2(sets), "set count %u not a power of two", sets);
    blockShift = floorLog2(blockSize);
    tagShift = blockShift + floorLog2(sets);

    strideShift = ceilLog2(ways);
    wayStride = std::uint32_t{1} << strideShift;
    waysMask = (std::uint64_t{1} << ways) - 1;

    const std::size_t plane = std::size_t{sets} << strideShift;
    tagPlane.assign(plane, 0);
    validBits.assign(sets, 0);
    dirtyBits.assign(sets, 0);
    groupPlane.assign(plane, 0);
    framePlane.assign(plane, 0);

    // Initial rank order (way index order) is arbitrary: the LRU way
    // is only consulted once every way is valid, and valid ways have
    // all been touched.
    ranks.init(sets, ways);
}

TagArray::Entry
TagArray::entry(std::uint32_t set, std::uint32_t way) const
{
    panic_if(set >= sets || way >= ways, "tag entry (%u, %u) out of range",
             set, way);
    const std::size_t idx = rowOf(set) + way;
    Entry e;
    e.tag = tagPlane[idx];
    e.valid = isValid(set, way);
    e.dirty = isDirty(set, way);
    e.group = groupPlane[idx];
    e.frame = framePlane[idx];
    return e;
}

void
TagArray::setEntry(std::uint32_t set, std::uint32_t way, const Entry &e)
{
    panic_if(set >= sets || way >= ways, "tag entry (%u, %u) out of range",
             set, way);
    const std::size_t idx = rowOf(set) + way;
    const std::uint64_t bit = std::uint64_t{1} << way;
    tagPlane[idx] = e.tag;
    if (e.valid)
        validBits[set] |= bit;
    else
        validBits[set] &= ~bit;
    if (e.dirty)
        dirtyBits[set] |= bit;
    else
        dirtyBits[set] &= ~bit;
    groupPlane[idx] = e.group;
    framePlane[idx] = e.frame;
}

Addr
TagArray::blockAddr(std::uint32_t set, std::uint32_t way) const
{
    panic_if(set >= sets || way >= ways, "tag entry (%u, %u) out of range",
             set, way);
    return (tagPlane[rowOf(set) + way] * sets + set) * blockSize;
}

std::uint64_t
TagArray::validCount() const
{
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < sets; ++s)
        n += static_cast<std::uint64_t>(std::popcount(validBits[s]));
    return n;
}

bool
TagArray::audit(AuditSink &sink) const
{
    bool clean = true;
    for (std::uint32_t s = 0; s < sets; ++s) {
        const std::size_t base = rowOf(s);
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!((validBits[s] >> w) & 1))
                continue;
            for (std::uint32_t w2 = w + 1; w2 < ways; ++w2) {
                if (((validBits[s] >> w2) & 1) &&
                    tagPlane[base + w2] == tagPlane[base + w]) {
                    clean = false;
                    sink.violation({"tag-array", "duplicate-tag",
                                    strprintf("tag %#llx also in "
                                              "way %u",
                                              static_cast<
                                                  unsigned long long>(
                                                  tagPlane[base + w]), w2),
                                    s, w, AuditViolation::kNoIndex,
                                    AuditViolation::kNoIndex});
                }
            }
        }

        // The rank plane must hold a permutation of 0..ways-1 per
        // set; a duplicated or out-of-range rank corrupts LRU victims.
        if (!ranks.isPermutation(s)) {
            clean = false;
            sink.violation({"tag-array", "lru-rank",
                            strprintf("set %u recency ranks are not a "
                                      "permutation of %u ways", s, ways),
                            s, AuditViolation::kNoIndex,
                            AuditViolation::kNoIndex,
                            AuditViolation::kNoIndex});
        }
    }
    return clean;
}

} // namespace nurapid
