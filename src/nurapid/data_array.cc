#include "nurapid/data_array.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "nurapid/tag_array.hh"

namespace nurapid {

DataArray::DataArray(std::uint32_t num_groups,
                     std::uint32_t frames_per_group,
                     std::uint32_t num_regions, DistanceRepl repl,
                     std::uint64_t seed)
    : nGroups(num_groups), nFrames(frames_per_group), nRegions(num_regions),
      framesPerRegion(frames_per_group / num_regions), replPolicy(repl),
      rng(seed),
      lists(std::size_t{num_groups} * num_regions)
{
    fatal_if(num_groups == 0 || frames_per_group == 0,
             "empty data array");
    fatal_if(num_regions == 0 || frames_per_group % num_regions != 0,
             "frames per d-group (%u) not divisible into %u regions",
             frames_per_group, num_regions);
    // Every (d-group, frame) must fit a tag entry's forward pointer,
    // and every set index (below the frame count) a reverse pointer.
    fatal_if(num_groups > TagArray::kMaxGroups ||
                 frames_per_group > TagArray::kMaxFrames ||
                 std::uint64_t{num_groups} * frames_per_group > kMaxSets,
             "data array of %u d-groups x %u frames does not fit the "
             "pointer fields (at most %u d-groups, %u frames per d-group, "
             "%u frames)", num_groups, frames_per_group,
             TagArray::kMaxGroups, TagArray::kMaxFrames, kMaxSets);
    const std::size_t total = std::size_t{nGroups} * nFrames;
    revPlane.assign(total, 0);
    validWords.assign((total + 63) / 64, 0);
    if (replPolicy == DistanceRepl::LRU) {
        linkedWords.assign((total + 63) / 64, 0);
        prevPlane.assign(total, kNoFrame);
        nextPlane.assign(total, kNoFrame);
    }
    // Pre-populate free lists: every frame starts free.
    for (std::uint32_t g = 0; g < nGroups; ++g) {
        for (std::uint32_t f = 0; f < nFrames; ++f)
            region(g, regionOfFrame(f)).free.push_back(f);
    }
    if (replPolicy == DistanceRepl::TreePLRU) {
        fatal_if(framesPerRegion < 2 || !isPowerOf2(framesPerRegion),
                 "tree-PLRU distance replacement needs a power-of-two "
                 "count >= 2 of frames per region, got %u",
                 framesPerRegion);
        plruTree.assign(std::size_t{nGroups} * nRegions *
                            (framesPerRegion - 1), 0);
    }
}

std::uint32_t
DataArray::regionOf(Addr block_index) const
{
    if (nRegions == 1)
        return 0;
    // Knuth multiplicative hash spreads consecutive blocks (and the
    // blocks of one hot set) across regions.
    const std::uint64_t h = block_index * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::uint32_t>((h >> 32) % nRegions);
}

bool
DataArray::hasFree(std::uint32_t group, std::uint32_t region_idx) const
{
    const RegionList &r =
        lists[std::size_t{group} * nRegions + region_idx];
    return !r.free.empty();
}

std::uint32_t
DataArray::allocFrame(std::uint32_t group, std::uint32_t region_idx)
{
    RegionList &r = region(group, region_idx);
    panic_if(r.free.empty(), "allocFrame on full region %u of d-group %u",
             region_idx, group);
    const std::uint32_t f = r.free.back();
    r.free.pop_back();
    return f;
}

std::uint32_t
DataArray::victimFrame(std::uint32_t group, std::uint32_t region_idx)
{
    RegionList &r = region(group, region_idx);
    panic_if(!r.free.empty(),
             "victimFrame called while region %u of d-group %u has free "
             "frames", region_idx, group);
    if (replPolicy == DistanceRepl::LRU) {
        panic_if(r.tail == kNoFrame, "LRU victim in empty region");
        return r.tail;
    }
    if (replPolicy == DistanceRepl::TreePLRU)
        return region_idx * framesPerRegion + plruVictim(group, region_idx);
    // Random: the region is full, so any frame in it is a valid victim.
    return region_idx * framesPerRegion + rng.below(framesPerRegion);
}

std::uint32_t
DataArray::plruVictim(std::uint32_t group, std::uint32_t region_idx) const
{
    const std::uint8_t *tree = &plruTree[plruBase(group, region_idx)];
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = framesPerRegion;
    while (hi - lo > 1) {
        const std::uint32_t mid = (lo + hi) / 2;
        const bool go_right = tree[node] != 0;
        node = 2 * node + (go_right ? 2 : 1);
        if (go_right)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

void
DataArray::place(std::uint32_t group, std::uint32_t f, std::uint32_t set,
                 std::uint32_t way)
{
    panic_if(group >= nGroups || f >= nFrames,
             "frame (%u, %u) out of range", group, f);
    panic_if(validBit(group, f),
             "placing into occupied frame %u of d-group %u", f, group);
    panic_if(set >= kMaxSets || way >= kMaxWays,
             "reverse pointer (%u, %u) does not fit", set, way);
    const std::size_t idx = frameIdx(group, f);
    revPlane[idx] = (set << kWayBits) | way;
    validWords[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    // A fill is a use under both recency policies.
    if (replPolicy == DistanceRepl::LRU)
        linkFront(group, f);
    else if (replPolicy == DistanceRepl::TreePLRU)
        plruTouch(group, f);
}

void
DataArray::remove(std::uint32_t group, std::uint32_t f)
{
    panic_if(group >= nGroups || f >= nFrames,
             "frame (%u, %u) out of range", group, f);
    panic_if(!validBit(group, f),
             "removing invalid frame %u of d-group %u", f, group);
    const std::size_t idx = frameIdx(group, f);
    validWords[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    if (replPolicy == DistanceRepl::LRU)
        unlink(group, f);
    region(group, regionOfFrame(f)).free.push_back(f);
}

void
DataArray::swapFrames(std::uint32_t group_a, std::uint32_t frame_a,
                      std::uint32_t group_b, std::uint32_t frame_b)
{
    panic_if(!validBit(group_a, frame_a) || !validBit(group_b, frame_b),
             "swapping with an invalid frame");
    const std::size_t ia = frameIdx(group_a, frame_a);
    const std::size_t ib = frameIdx(group_b, frame_b);
    std::swap(revPlane[ia], revPlane[ib]);
    touch(group_a, frame_a);
    touch(group_b, frame_b);
}

std::uint64_t
DataArray::validCount() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t w : validWords)
        n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
}

bool
DataArray::audit(AuditSink &sink) const
{
    bool clean = true;
    const auto report = [&](const char *inv, std::string detail,
                            std::uint32_t g, std::uint32_t f) {
        clean = false;
        sink.violation({"data-array", inv, std::move(detail),
                        AuditViolation::kNoIndex, AuditViolation::kNoIndex,
                        g, f});
    };

    // Per-region membership bitmaps, one bit per frame of the region.
    // thread_local so the periodic audit hook never allocates on a
    // steady-state access path (each org is driven by one engine
    // thread); they grow once to the largest region audited.
    thread_local std::vector<std::uint64_t> chained;
    thread_local std::vector<std::uint64_t> freed;
    const std::size_t words = (std::size_t{framesPerRegion} + 63) / 64;
    if (chained.size() < words) {
        chained.resize(words);
        freed.resize(words);
    }
    const auto testSet = [](std::vector<std::uint64_t> &bm,
                            std::uint32_t i) {
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        const bool was = (bm[i >> 6] & bit) != 0;
        bm[i >> 6] |= bit;
        return was;
    };
    const bool lru = replPolicy == DistanceRepl::LRU;

    for (std::uint32_t g = 0; g < nGroups; ++g) {
        const std::size_t base = std::size_t{g} * nFrames;
        for (std::uint32_t r = 0; r < nRegions; ++r) {
            const RegionList &rl = lists[std::size_t{g} * nRegions + r];
            const std::uint32_t lo = r * framesPerRegion;

            // Frames in use: the LRU chain's length, else the region's
            // valid frames.
            std::uint32_t in_use = 0;
            if (lru) {
                // Walk the LRU chain head→tail, bounding the walk so a
                // cycle cannot hang the audit.
                std::fill_n(chained.begin(), words, 0);
                std::uint32_t prev = kNoFrame;
                std::uint32_t f = rl.head;
                while (f != kNoFrame && in_use <= framesPerRegion) {
                    if (regionOfFrame(f) != r) {
                        report("chain-crosses-region",
                               strprintf("frame of region %u on region "
                                         "%u's chain", regionOfFrame(f),
                                         r), g, f);
                        break;
                    }
                    if (testSet(chained, f - lo)) {
                        report("chain-cycle",
                               strprintf("frame revisited after %u links",
                                         in_use), g, f);
                        break;
                    }
                    ++in_use;
                    if (!linkedBit(g, f))
                        report("chain-unlinked-node",
                               "frame on chain but not marked linked", g,
                               f);
                    if (!validBit(g, f))
                        report("chain-invalid-frame",
                               "invalid frame on the LRU chain", g, f);
                    if (prevPlane[base + f] != prev) {
                        report("chain-bad-prev",
                               strprintf("prev is %u, expected %u",
                                         prevPlane[base + f], prev), g,
                               f);
                    }
                    prev = f;
                    f = nextPlane[base + f];
                }
                if (f == kNoFrame && rl.tail != prev) {
                    report("chain-bad-tail",
                           strprintf("tail is %u, chain ends at %u",
                                     rl.tail, prev), g,
                           rl.tail == kNoFrame ? AuditViolation::kNoIndex
                                               : rl.tail);
                }
            } else {
                for (std::uint32_t i = 0; i < framesPerRegion; ++i)
                    in_use += validBit(g, lo + i);
            }

            // Free list: exactly the invalid frames of the region.
            std::fill_n(freed.begin(), words, 0);
            for (const std::uint32_t ff : rl.free) {
                if (regionOfFrame(ff) != r) {
                    report("free-crosses-region",
                           strprintf("frame of region %u on region %u's "
                                     "free list", regionOfFrame(ff), r),
                           g, ff);
                    continue;
                }
                if (testSet(freed, ff - lo)) {
                    report("free-duplicate",
                           "frame on the free list twice", g, ff);
                    continue;
                }
                if (validBit(g, ff))
                    report("free-valid-frame",
                           "valid frame on the free list", g, ff);
                if (lru && linkedBit(g, ff))
                    report("free-linked-frame",
                           "free frame still on the LRU chain", g, ff);
            }

            // Every frame is on exactly one of the two structures (the
            // valid side is a structure only under LRU).
            for (std::uint32_t i = 0; i < framesPerRegion; ++i) {
                const std::uint32_t ff = lo + i;
                const bool valid = validBit(g, ff);
                const bool in_free = (freed[i >> 6] >> (i & 63)) & 1;
                if (lru && valid && !((chained[i >> 6] >> (i & 63)) & 1))
                    report("valid-not-chained",
                           "valid frame missing from the LRU chain",
                           g, ff);
                if (!valid && !in_free)
                    report("invalid-not-free",
                           "invalid frame missing from the free list",
                           g, ff);
            }
            if (in_use + rl.free.size() != framesPerRegion) {
                report("occupancy-mismatch",
                       strprintf("%s %u + free %zu != region frames %u "
                                 "in region %u", lru ? "chain" : "valid",
                                 in_use, rl.free.size(), framesPerRegion,
                                 r),
                       g, AuditViolation::kNoIndex);
            }
        }
    }
    return clean;
}

} // namespace nurapid
