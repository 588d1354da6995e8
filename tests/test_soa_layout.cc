/**
 * @file
 * Structure-of-arrays layout tests: the packed tag/valid/dirty/LRU
 * planes must stay consistent with a plain array-of-structs reference
 * model under randomized fill/evict/touch churn, and the probe kernels
 * must agree bit-for-bit with a per-way expected mask on randomized
 * rows of every stride up to 64 (including duplicate tags).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <vector>

#include "common/rng.hh"
#include "mem/tag_probe.hh"
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

/** Plain array-of-structs shadow of one TagArray set. */
struct RefEntry
{
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint8_t group = 0;
    std::uint32_t frame = 0;
};

TEST(SoaLayout, TagArrayPlanesTrackReferenceModel)
{
    constexpr std::uint32_t kSets = 16;
    constexpr std::uint32_t kAssoc = 8;
    TagArray t(std::uint64_t{kSets} * kAssoc * 128, kAssoc, 128);
    ASSERT_EQ(t.numSets(), kSets);

    std::vector<std::vector<RefEntry>> ref(
        kSets, std::vector<RefEntry>(kAssoc));
    // Recency per set, most recent first; seeded in way order to match
    // the array's initial intrusive chain.
    std::vector<std::list<std::uint32_t>> recency(kSets);
    for (auto &r : recency) {
        for (std::uint32_t w = 0; w < kAssoc; ++w)
            r.push_back(w);
    }

    const auto promote = [&](std::uint32_t s, std::uint32_t w) {
        recency[s].remove(w);
        recency[s].push_front(w);
    };

    Rng rng(23, 0x50d);
    for (unsigned op = 0; op < 20000; ++op) {
        const std::uint32_t s = rng.below(kSets);
        switch (rng.below(5)) {
          case 0: {  // fill the replacement victim (miss path)
            const std::uint32_t w = t.victimWay(s);
            // Reference victim: first invalid way, else the LRU way.
            std::uint32_t want = kAssoc;
            for (std::uint32_t cand = 0; cand < kAssoc; ++cand) {
                if (!ref[s][cand].valid) {
                    want = cand;
                    break;
                }
            }
            if (want == kAssoc)
                want = recency[s].back();
            ASSERT_EQ(w, want) << "set " << s;
            RefEntry &e = ref[s][w];
            e.tag = rng.below(64);
            e.valid = true;
            e.dirty = rng.below(2) != 0;
            e.group = static_cast<std::uint8_t>(rng.below(4));
            e.frame = rng.below(512);
            t.fillEntry(s, w, e.tag, e.dirty, e.group, e.frame);
            t.touch(s, w);
            promote(s, w);
            break;
          }
          case 1: {  // touch a random way (hit path)
            const std::uint32_t w = rng.below(kAssoc);
            t.touch(s, w);
            promote(s, w);
            break;
          }
          case 2: {  // evict a random way
            const std::uint32_t w = rng.below(kAssoc);
            t.invalidateEntry(s, w);
            ref[s][w].valid = false;
            ref[s][w].dirty = false;
            break;
          }
          case 3: {  // flip dirty (writeback / store hit)
            const std::uint32_t w = rng.below(kAssoc);
            const bool d = rng.below(2) != 0;
            t.setDirty(s, w, d);
            ref[s][w].dirty = d;
            break;
          }
          case 4: {  // retarget the forward pointer (promote/demote)
            const std::uint32_t w = rng.below(kAssoc);
            ref[s][w].group = static_cast<std::uint8_t>(rng.below(4));
            ref[s][w].frame = rng.below(512);
            t.setForward(s, w, ref[s][w].group, ref[s][w].frame);
            break;
          }
        }
    }

    std::uint64_t want_valid = 0;
    for (std::uint32_t s = 0; s < kSets; ++s) {
        for (std::uint32_t w = 0; w < kAssoc; ++w) {
            const RefEntry &r = ref[s][w];
            const TagArray::Entry e = t.entry(s, w);
            EXPECT_EQ(e.valid, r.valid) << s << "/" << w;
            EXPECT_EQ(t.isValid(s, w), r.valid);
            EXPECT_EQ(t.isDirty(s, w), r.dirty);
            if (r.valid) {
                EXPECT_EQ(e.tag, r.tag);
                EXPECT_EQ(e.dirty, r.dirty);
                EXPECT_EQ(e.group, r.group);
                EXPECT_EQ(e.frame, r.frame);
                EXPECT_EQ(t.groupOf(s, w), r.group);
                EXPECT_EQ(t.frameOf(s, w), r.frame);
                ++want_valid;
            }
        }
        // The probe-based lookup agrees with a first-match scan.
        for (std::uint64_t tag = 0; tag < 64; ++tag) {
            std::uint32_t want_way = kAssoc;
            for (std::uint32_t w = 0; w < kAssoc; ++w) {
                if (ref[s][w].valid && ref[s][w].tag == tag) {
                    want_way = w;
                    break;
                }
            }
            const Addr block =
                (static_cast<Addr>(tag) * kSets + s) * 128;
            const TagArray::Lookup look = t.lookup(block);
            EXPECT_EQ(look.set, s);
            EXPECT_EQ(look.hit, want_way != kAssoc);
            if (look.hit) {
                EXPECT_EQ(look.way, want_way);
            }
        }
    }
    EXPECT_EQ(t.validCount(), want_valid);
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
