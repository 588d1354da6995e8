#include "mem/set_assoc_cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

std::uint32_t
CacheOrg::numSets() const
{
    return static_cast<std::uint32_t>(
        capacity_bytes / (std::uint64_t{assoc} * block_bytes));
}

std::uint32_t
CacheOrg::numBlocks() const
{
    return static_cast<std::uint32_t>(capacity_bytes / block_bytes);
}

SetAssocCache::SetAssocCache(const CacheOrg &org)
    : organization(org), sets(org.numSets()), statGroup(org.name)
{
    fatal_if(org.capacity_bytes == 0, "%s: zero capacity",
             org.name.c_str());
    fatal_if(!isPowerOf2(org.block_bytes), "%s: block size %u not pow2",
             org.name.c_str(), org.block_bytes);
    fatal_if(org.capacity_bytes %
                 (std::uint64_t{org.assoc} * org.block_bytes) != 0,
             "%s: capacity not divisible by assoc*block", org.name.c_str());
    fatal_if(!isPowerOf2(sets), "%s: set count %u not pow2",
             org.name.c_str(), sets);
    fatal_if(org.assoc == 0 || org.assoc > RankPlane::kMaxWays,
             "%s: associativity %u outside the rank-plane range 1..%u",
             org.name.c_str(), org.assoc, RankPlane::kMaxWays);
    blockShift = floorLog2(org.block_bytes);
    tagShift = blockShift + floorLog2(sets);

    strideShift = ceilLog2(org.assoc);
    wayStride = std::uint32_t{1} << strideShift;
    waysMask = (std::uint64_t{1} << org.assoc) - 1;

    tagPlane.assign(std::size_t{sets} << strideShift, 0);
    validBits.assign(sets, 0);
    dirtyBits.assign(sets, 0);

    // Rank each set's ways in index order; the order is arbitrary
    // (every way is touched at fill before a victim is consulted).
    lruRanks.init(sets, org.assoc);

    statGroup.addCounter("hits", cnt.hits);
    statGroup.addCounter("misses", cnt.misses);
    statGroup.addCounter("evictions", cnt.evictions);
    statGroup.addCounter("writebacks", cnt.writebacks);
}

SetAssocCache::Access
SetAssocCache::accessMiss(std::uint32_t set, Addr tag, bool is_write)
{
    ++cnt.misses;

    Access result;
    // Prefer the lowest invalid way; otherwise evict the LRU way.
    std::uint32_t victim_way;
    const std::uint64_t invalid = ~validBits[set] & waysMask;
    if (invalid)
        victim_way = static_cast<std::uint32_t>(std::countr_zero(invalid));
    else
        victim_way = lruRanks.lruWay(set);

    const std::size_t row = rowOf(set);
    const std::uint64_t way_bit = std::uint64_t{1} << victim_way;
    if (validBits[set] & way_bit) {
        ++cnt.evictions;
        result.evicted = true;
        result.evicted_addr =
            (tagPlane[row + victim_way] * sets + set) *
            organization.block_bytes;
        result.evicted_dirty = (dirtyBits[set] & way_bit) != 0;
        if (result.evicted_dirty)
            ++cnt.writebacks;
    }

    tagPlane[row + victim_way] = tag;
    validBits[set] |= way_bit;
    if (is_write)
        dirtyBits[set] |= way_bit;
    else
        dirtyBits[set] &= ~way_bit;
    lruRanks.touch(set, victim_way);

    result.way = victim_way;
    return result;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const std::uint32_t set = setIndex(addr);
    return (probeMatch(&tagPlane[rowOf(set)], wayStride, tagOf(addr)) &
            validBits[set]) != 0;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t match =
        probeMatch(&tagPlane[rowOf(set)], wayStride, tagOf(addr)) &
        validBits[set];
    if (!match)
        return false;
    dirtyBits[set] |= match & (~match + 1);  // lowest matching way
    return true;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t match =
        probeMatch(&tagPlane[rowOf(set)], wayStride, tagOf(addr)) &
        validBits[set];
    if (!match)
        return false;
    const std::uint64_t way_bit = match & (~match + 1);
    validBits[set] &= ~way_bit;
    const bool was_dirty = (dirtyBits[set] & way_bit) != 0;
    dirtyBits[set] &= ~way_bit;
    return was_dirty;
}

void
SetAssocCache::forEachValid(const std::function<void(Addr, bool)> &fn) const
{
    for (std::uint32_t s = 0; s < sets; ++s) {
        const std::size_t row = rowOf(s);
        for (std::uint64_t vb = validBits[s]; vb; vb &= vb - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(vb));
            fn((tagPlane[row + w] * sets + s) * organization.block_bytes,
               (dirtyBits[s] >> w) & 1);
        }
    }
}

std::uint64_t
SetAssocCache::validCount() const
{
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < sets; ++s)
        n += static_cast<std::uint64_t>(std::popcount(validBits[s]));
    return n;
}

bool
SetAssocCache::audit(AuditSink &sink) const
{
    bool clean = true;
    for (std::uint32_t s = 0; s < sets; ++s) {
        const std::size_t row = rowOf(s);
        for (std::uint32_t w = 0; w < organization.assoc; ++w) {
            if (!((validBits[s] >> w) & 1))
                continue;
            for (std::uint32_t w2 = w + 1; w2 < organization.assoc; ++w2) {
                if (((validBits[s] >> w2) & 1) &&
                    tagPlane[row + w2] == tagPlane[row + w]) {
                    clean = false;
                    sink.violation({organization.name, "duplicate-tag",
                                    strprintf("tag %#llx also in way %u",
                                              static_cast<unsigned long long>(
                                                  tagPlane[row + w]), w2),
                                    s, w, AuditViolation::kNoIndex,
                                    AuditViolation::kNoIndex});
                }
            }
        }
    }

    // The rank plane must hold a permutation of 0..assoc-1 per set; a
    // duplicated or out-of-range rank corrupts victim choice (and
    // voids the exact-LRU tie-free guarantee).
    for (std::uint32_t s = 0; s < sets; ++s) {
        if (!lruRanks.isPermutation(s)) {
            clean = false;
            sink.violation({organization.name, "lru-rank",
                            strprintf("set %u recency ranks are not a "
                                      "permutation of %u ways", s,
                                      organization.assoc),
                            s, AuditViolation::kNoIndex,
                            AuditViolation::kNoIndex,
                            AuditViolation::kNoIndex});
        }
    }

    return clean;
}

double
SetAssocCache::missRatio() const
{
    const double total =
        static_cast<double>(cnt.hits.value() + cnt.misses.value());
    return total > 0 ? cnt.misses.value() / total : 0.0;
}

} // namespace nurapid
