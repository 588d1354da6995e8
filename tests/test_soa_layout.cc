/**
 * @file
 * Structure-of-arrays layout tests: the packed tag/valid/dirty/LRU
 * planes of TagStore (bare, and as NuRAPID's TagArray with forward
 * pointers) must stay consistent with a plain array-of-structs
 * reference model under randomized fill/evict/touch/swap churn, and
 * the probe kernels
 * must agree bit-for-bit with a per-way expected mask on randomized
 * rows of every stride up to 64 (including duplicate tags).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/tag_probe.hh"
#include "mem/tag_store.hh"
#include "nurapid/data_array.hh"
#include "nurapid/tag_array.hh"

namespace nurapid {
namespace {

std::uint64_t
rand64(Rng &rng)
{
    return (std::uint64_t{rng.next()} << 32) | rng.next();
}

/** Expected match mask built way by way: bit w set iff
 *  (row[w] & mask) == needle. */
std::uint64_t
expectedMask(const std::vector<std::uint64_t> &row, std::uint64_t mask,
             std::uint64_t needle)
{
    std::uint64_t m = 0;
    for (std::size_t w = 0; w < row.size(); ++w) {
        if ((row[w] & mask) == needle)
            m |= std::uint64_t{1} << w;
    }
    return m;
}

TEST(TagProbe, MatchesScalarOnRandomRows)
{
    Rng rng(11, 0x50a);
    for (std::uint32_t stride = 1; stride <= 64; ++stride) {
        for (unsigned round = 0; round < 50; ++round) {
            std::vector<std::uint64_t> row(stride);
            // Small tag alphabet so matches (and duplicates) are common.
            for (auto &t : row)
                t = rng.below(8);
            const std::uint64_t needle = rng.below(8);
            EXPECT_EQ(probeMatch(row.data(), stride, needle),
                      expectedMask(row, ~std::uint64_t{0}, needle))
                << "stride " << stride;

            // Random wide tags exercise full 64-bit compares.
            for (auto &t : row)
                t = rand64(rng);
            row[rng.below(stride)] = needle;
            EXPECT_EQ(probeMatch(row.data(), stride, needle),
                      expectedMask(row, ~std::uint64_t{0}, needle))
                << "stride " << stride;
        }
    }
}

TEST(TagProbe, MaskedMatchesScalarOnRandomRows)
{
    Rng rng(13, 0x50b);
    for (std::uint32_t stride = 1; stride <= 64; ++stride) {
        for (unsigned round = 0; round < 50; ++round) {
            std::vector<std::uint64_t> row(stride);
            for (auto &t : row)
                t = rand64(rng);
            // The smart-search shape: compare only the low k bits.
            const std::uint64_t mask =
                (std::uint64_t{1} << (1 + rng.below(63))) - 1;
            const std::uint64_t needle = row[rng.below(stride)] & mask;
            EXPECT_EQ(probeMatchMasked(row.data(), stride, mask, needle),
                      expectedMask(row, mask, needle))
                << "stride " << stride << " mask " << mask;
        }
    }
}

TEST(TagProbe, SwapBitsExchangesExactlyTwoBits)
{
    Rng rng(17, 0x50c);
    for (unsigned round = 0; round < 500; ++round) {
        const std::uint64_t word = rand64(rng);
        const std::uint32_t a = rng.below(64);
        const std::uint32_t b = rng.below(64);
        std::uint64_t got = word;
        swapBits(got, a, b);
        std::uint64_t want = word;
        const std::uint64_t bit_a = (word >> a) & 1;
        const std::uint64_t bit_b = (word >> b) & 1;
        want &= ~((std::uint64_t{1} << a) | (std::uint64_t{1} << b));
        want |= (bit_b << a) | (bit_a << b);
        EXPECT_EQ(got, want);
    }
}

/** Plain array-of-structs shadow of one tag entry. */
struct RefEntry
{
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint8_t group = 0;
    std::uint32_t frame = 0;
};

/**
 * Drives @p store through randomized fill/evict/touch/dirty/swap churn
 * beside an array-of-structs reference with list-based recency, then
 * checks every plane, probe, walk and count against it. With
 * @p forward set (the same object as @p store) forward pointers ride
 * along. Victims are picked both set-wide (victimWay) and within
 * regions of @p ways_per_region ways (victimIn).
 */
void
churnAgainstReference(TagStore &store, TagArray *forward,
                      std::uint32_t ways_per_region, std::uint64_t seed)
{
    const std::uint32_t sets = store.numSets();
    const std::uint32_t ways = store.assoc();
    const std::uint32_t block = store.blockBytes();
    std::vector<std::vector<RefEntry>> ref(
        sets, std::vector<RefEntry>(ways));
    // Recency per set, most recent first; seeded in way order to match
    // the store's initial ranks.
    std::vector<std::list<std::uint32_t>> recency(sets);
    for (auto &r : recency) {
        for (std::uint32_t w = 0; w < ways; ++w)
            r.push_back(w);
    }

    const auto promote = [&](std::uint32_t s, std::uint32_t w) {
        recency[s].remove(w);
        recency[s].push_front(w);
    };
    // Reference victim among ways [first, first + count): the first
    // invalid way, else the one latest in recency order.
    const auto refVictim = [&](std::uint32_t s, std::uint32_t first,
                               std::uint32_t count) {
        for (std::uint32_t w = first; w < first + count; ++w) {
            if (!ref[s][w].valid)
                return w;
        }
        for (auto it = recency[s].rbegin(); it != recency[s].rend(); ++it) {
            if (*it >= first && *it < first + count)
                return *it;
        }
        return ways;
    };

    Rng rng(seed, 0x50d);
    for (unsigned op = 0; op < 20000; ++op) {
        const std::uint32_t s = rng.below(sets);
        switch (rng.below(forward ? 7 : 6)) {
          case 0:    // fill the set-wide victim (miss path)
          case 1: {  // fill a region's victim (bubble placement)
            std::uint32_t w;
            if (rng.below(2) == 0) {
                w = store.victimWay(s);
                ASSERT_EQ(w, refVictim(s, 0, ways)) << "set " << s;
            } else {
                const std::uint32_t first =
                    rng.below(ways / ways_per_region) * ways_per_region;
                w = store.victimIn(s, first, ways_per_region);
                ASSERT_EQ(w, refVictim(s, first, ways_per_region))
                    << "set " << s << " first " << first;
            }
            RefEntry &e = ref[s][w];
            e.tag = rng.below(64);
            e.valid = true;
            e.dirty = rng.below(2) != 0;
            if (forward) {
                e.group = static_cast<std::uint8_t>(rng.below(4));
                e.frame = rng.below(512);
                forward->fillEntry(s, w, e.tag, e.dirty, e.group, e.frame);
            } else {
                store.fill(s, w, e.tag, e.dirty);
            }
            store.touch(s, w);
            promote(s, w);
            break;
          }
          case 2: {  // touch a random way (hit path)
            const std::uint32_t w = rng.below(ways);
            store.touch(s, w);
            promote(s, w);
            break;
          }
          case 3: {  // evict a random way
            const std::uint32_t w = rng.below(ways);
            store.invalidate(s, w);
            ref[s][w].valid = false;
            ref[s][w].dirty = false;
            break;
          }
          case 4: {  // flip dirty (writeback / store hit)
            const std::uint32_t w = rng.below(ways);
            const bool d = rng.below(2) != 0;
            store.setDirty(s, w, d);
            ref[s][w].dirty = d;
            break;
          }
          case 5: {  // bubble swap: lines and recency ranks trade ways
            const std::uint32_t a = rng.below(ways);
            const std::uint32_t b = rng.below(ways);
            store.swapWays(s, a, b);
            if (forward) {
                // The forward pointer travels with its line.
                forward->setForward(s, a, ref[s][b].group, ref[s][b].frame);
                forward->setForward(s, b, ref[s][a].group, ref[s][a].frame);
            }
            std::swap(ref[s][a], ref[s][b]);
            for (auto &w : recency[s])
                w = w == a ? b : w == b ? a : w;
            break;
          }
          case 6: {  // retarget the forward pointer (promote/demote)
            const std::uint32_t w = rng.below(ways);
            ref[s][w].group = static_cast<std::uint8_t>(rng.below(4));
            ref[s][w].frame = rng.below(512);
            forward->setForward(s, w, ref[s][w].group, ref[s][w].frame);
            break;
          }
        }
    }

    std::uint64_t want_valid = 0;
    std::vector<std::uint64_t> want_occupancy(ways / ways_per_region, 0);
    std::vector<std::pair<Addr, bool>> want_resident;
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (std::uint32_t w = 0; w < ways; ++w) {
            const RefEntry &r = ref[s][w];
            EXPECT_EQ(store.isValid(s, w), r.valid) << s << "/" << w;
            EXPECT_EQ(store.isDirty(s, w), r.dirty) << s << "/" << w;
            if (forward) {
                const TagArray::Entry e = forward->entry(s, w);
                EXPECT_EQ(e.valid, r.valid);
                EXPECT_EQ(e.dirty, r.dirty);
            }
            if (!r.valid)
                continue;
            EXPECT_EQ(store.tagAt(s, w), r.tag);
            const Addr addr = (r.tag * sets + s) * block;
            EXPECT_EQ(store.blockAddr(s, w), addr);
            if (forward) {
                const TagArray::Entry e = forward->entry(s, w);
                EXPECT_EQ(e.tag, r.tag);
                EXPECT_EQ(e.group, r.group);
                EXPECT_EQ(e.frame, r.frame);
                EXPECT_EQ(forward->groupOf(s, w), r.group);
                EXPECT_EQ(forward->frameOf(s, w), r.frame);
            }
            ++want_valid;
            ++want_occupancy[w / ways_per_region];
            want_resident.emplace_back(addr, r.dirty);
        }
        // The probe-based lookup agrees with a first-match scan, and
        // match() names every matching valid way.
        for (std::uint64_t tag = 0; tag < 64; ++tag) {
            std::uint32_t want_way = ways;
            std::uint64_t want_mask = 0;
            for (std::uint32_t w = ways; w-- > 0;) {
                if (ref[s][w].valid && ref[s][w].tag == tag) {
                    want_way = w;
                    want_mask |= std::uint64_t{1} << w;
                }
            }
            EXPECT_EQ(store.match(s, tag), want_mask);
            const TagStore::Lookup look =
                store.lookup((static_cast<Addr>(tag) * sets + s) * block);
            EXPECT_EQ(look.set, s);
            EXPECT_EQ(look.hit, want_way != ways);
            if (look.hit) {
                EXPECT_EQ(look.way, want_way);
            }
        }
    }
    EXPECT_EQ(store.validCount(), want_valid);
    std::vector<std::uint64_t> occupancy;
    store.occupancy(ways_per_region, occupancy);
    EXPECT_EQ(occupancy, want_occupancy);
    std::vector<std::pair<Addr, bool>> resident;
    store.forEachResident(
        [&](Addr a, bool d) { resident.emplace_back(a, d); });
    EXPECT_EQ(resident, want_resident);
}

TEST(SoaLayout, TagArrayPlanesTrackReferenceModel)
{
    constexpr std::uint32_t kSets = 16;
    constexpr std::uint32_t kAssoc = 8;
    TagArray t(std::uint64_t{kSets} * kAssoc * 128, kAssoc, 128);
    ASSERT_EQ(t.numSets(), kSets);
    churnAgainstReference(t, &t, 2, 23);
}

TEST(SoaLayout, TagStorePlanesTrackReferenceModel)
{
    // D-NUCA's shape (16 ways in 8 bank rows of 2, an unpadded row)
    // and a padded row (12 ways in regions of 4).
    for (const std::uint32_t ways : {16u, 12u}) {
        TagStore store("test:", std::uint64_t{32} * ways * 64, ways, 64);
        ASSERT_EQ(store.numSets(), 32u);
        churnAgainstReference(store, nullptr, ways == 16 ? 2 : 4, 37);
    }
}

TEST(SoaLayout, DataArrayPlanesSurviveChurnAndStayAudited)
{
    constexpr std::uint32_t kGroups = 4;
    constexpr std::uint32_t kFrames = 32;
    DataArray data(kGroups, kFrames, 2, DistanceRepl::LRU, 29);

    Rng rng(31, 0x50e);
    std::vector<std::vector<bool>> live(
        kGroups, std::vector<bool>(kFrames, false));
    std::vector<std::vector<std::uint32_t>> liveInRegion(
        kGroups, std::vector<std::uint32_t>(data.numRegions(), 0));
    for (unsigned op = 0; op < 20000; ++op) {
        const std::uint32_t g = rng.below(kGroups);
        const std::uint32_t region = rng.below(data.numRegions());
        if (data.hasFree(g, region) && rng.below(3) != 0) {
            const std::uint32_t f = data.allocFrame(g, region);
            const std::uint32_t set = rng.below(64);
            const std::uint16_t way =
                static_cast<std::uint16_t>(rng.below(8));
            data.place(g, f, set, way);
            live[g][f] = true;
            ++liveInRegion[g][region];
            EXPECT_EQ(data.revSetOf(g, f), set);
            EXPECT_EQ(data.revWayOf(g, f), way);
            EXPECT_TRUE(data.frame(g, f).valid);
        } else if (liveInRegion[g][region] > 0) {
            // victimFrame is only legal on a full region; when it is,
            // it must name a live frame.
            if (!data.hasFree(g, region)) {
                const std::uint32_t v = data.victimFrame(g, region);
                ASSERT_TRUE(live[g][v]);
            }
            // Churn a uniformly random live frame of this region.
            std::uint32_t f = kFrames;
            std::uint32_t skip = rng.below(liveInRegion[g][region]);
            for (std::uint32_t c = 0; c < kFrames; ++c) {
                if (live[g][c] && data.regionOfFrame(c) == region) {
                    if (skip == 0) {
                        f = c;
                        break;
                    }
                    --skip;
                }
            }
            ASSERT_LT(f, kFrames);
            if (rng.below(2) == 0)
                data.touch(g, f);
            else {
                data.remove(g, f);
                live[g][f] = false;
                --liveInRegion[g][region];
                EXPECT_FALSE(data.frame(g, f).valid);
            }
        }
    }

    std::uint64_t want_valid = 0;
    for (std::uint32_t g = 0; g < kGroups; ++g) {
        for (std::uint32_t f = 0; f < kFrames; ++f) {
            EXPECT_EQ(data.frame(g, f).valid, bool{live[g][f]});
            want_valid += live[g][f];
        }
    }
    EXPECT_EQ(data.validCount(), want_valid);

    CountingAuditSink sink;
    EXPECT_TRUE(data.audit(sink)) << sink.summary();
}

} // namespace
} // namespace nurapid
