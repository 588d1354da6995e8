#include "mem/tag_store.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

TagStore::TagStore(const std::string &label, std::uint64_t capacity_bytes,
                   std::uint32_t num_ways, std::uint32_t block_bytes)
    : ways(num_ways), blockSize(block_bytes)
{
    const char *who = label.c_str();
    fatal_if(ways == 0 || ways > RankPlane::kMaxWays,
             "%s associativity %u outside the rank-plane range 1..%u", who,
             ways, RankPlane::kMaxWays);
    fatal_if(capacity_bytes == 0, "%s zero capacity", who);
    fatal_if(!isPowerOf2(block_bytes), "%s block size %u not pow2", who,
             block_bytes);
    const std::uint64_t set_bytes = std::uint64_t{ways} * block_bytes;
    fatal_if(capacity_bytes % set_bytes != 0,
             "%s capacity %llu not divisible into %u-way sets of %u B "
             "blocks", who, static_cast<unsigned long long>(capacity_bytes),
             ways, block_bytes);
    sets = static_cast<std::uint32_t>(capacity_bytes / set_bytes);
    fatal_if(!isPowerOf2(sets), "%s set count %u not pow2", who, sets);

    blockShift = floorLog2(block_bytes);
    tagShift = blockShift + floorLog2(sets);
    strideShift = ceilLog2(ways);
    wayStride = std::uint32_t{1} << strideShift;
    waysMask = (std::uint64_t{1} << ways) - 1;

    tagPlane.assign(std::size_t{sets} << strideShift, 0);
    validBits.assign(sets, 0);
    dirtyBits.assign(sets, 0);
    // Each set's ways start ranked in index order; the order is
    // arbitrary, since every way is touched at fill before an LRU
    // victim is consulted.
    ranks.init(sets, ways);
}

void
TagStore::forEachResident(const std::function<void(Addr, bool)> &fn) const
{
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (std::uint64_t vb = validBits[s]; vb; vb &= vb - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(vb));
            fn(blockAddr(s, w), isDirty(s, w));
        }
    }
}

std::uint64_t
TagStore::validCount() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t vb : validBits)
        n += static_cast<std::uint64_t>(std::popcount(vb));
    return n;
}

void
TagStore::occupancy(std::uint32_t ways_per_region,
                    std::vector<std::uint64_t> &out) const
{
    out.assign(ways / ways_per_region, 0);
    for (const std::uint64_t valid : validBits) {
        for (std::uint64_t vb = valid; vb; vb &= vb - 1)
            ++out[static_cast<std::uint32_t>(std::countr_zero(vb)) /
                  ways_per_region];
    }
}

bool
TagStore::audit(AuditSink &sink, std::string_view component,
                std::uint32_t ways_per_region) const
{
    bool clean = true;
    for (std::uint32_t s = 0; s < sets; ++s) {
        const std::uint64_t vb = validBits[s];
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!((vb >> w) & 1))
                continue;
            for (std::uint32_t w2 = w + 1; w2 < ways; ++w2) {
                if (((vb >> w2) & 1) && tagAt(s, w2) == tagAt(s, w)) {
                    clean = false;
                    sink.violation({std::string(component), "duplicate-tag",
                                    strprintf("tag %#llx also in way %u",
                                              static_cast<unsigned long long>(
                                                  tagAt(s, w)), w2),
                                    s, w,
                                    ways_per_region
                                        ? w / ways_per_region
                                        : AuditViolation::kNoIndex,
                                    AuditViolation::kNoIndex});
                }
            }
        }

        // A duplicated or out-of-range rank corrupts victim choice and
        // voids the exact-LRU tie-free guarantee.
        if (!ranks.isPermutation(s)) {
            clean = false;
            sink.violation({std::string(component), "lru-rank",
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
