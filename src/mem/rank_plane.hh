/**
 * @file
 * Packed exact-LRU rank planes.
 *
 * A RankPlane stores each set's recency order as a permutation of
 * 0..ways-1 packed into 4-bit fields, one u64 per set, instead of one
 * 64-bit stamp per way plus a monotonic clock — 16x fewer recency
 * bytes touched per reference. The 4-bit fields cap every user at 16
 * ways (kMaxWays); the one user, TagStore (mem/tag_store.hh), checks
 * its associativity against the cap and names its owner when it fails.
 *
 * Invariant: for every set, the ranks of ALL ways (valid or not) form
 * a permutation of 0..ways-1; rank 0 is MRU, rank ways-1 is LRU.
 * That makes the encoding *exact*: every rank is distinct, so any
 * scan over a subset of ways (a D-NUCA row, a coupled d-group, the
 * valid mask) has a unique max and reproduces the stamp/chain model's
 * decisions bit for bit.
 *
 * The three mutators preserve the permutation:
 *  - touch(set, way): move-to-front.  Every rank below the touched
 *    way's old rank r increments by one, the touched way becomes 0.
 *    Done branchlessly with a SWAR increment-below-rank kernel: set
 *    the per-field guard bit, subtract the broadcast rank, and the
 *    guard survives exactly in fields >= r.  Fields padded to the
 *    word boundary hold 15, never satisfy "< r", and so never
 *    increment.
 *  - swapWays(set, a, b): exchange two rank fields.
 *  - init: rank[w] = w, matching a virtual stamp plane initialised
 *    with descending stamps.
 *
 * tests/test_rank_planes.cc drives a plane and a 64-bit stamp model
 * under identical churn and requires bit-equal answers.
 */

#ifndef NURAPID_MEM_RANK_PLANE_HH
#define NURAPID_MEM_RANK_PLANE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace nurapid {

class RankPlane
{
  public:
    /** Ways one 4-bit-field word can rank. */
    static constexpr std::uint32_t kMaxWays = 16;

    RankPlane() = default;
    RankPlane(std::uint32_t sets, std::uint32_t ways) { init(sets, ways); }

    void
    init(std::uint32_t sets, std::uint32_t ways)
    {
        panic_if(ways == 0 || ways > kMaxWays,
                 "RankPlane supports 1..%u ways, got %u", kMaxWays, ways);
        ways_ = ways;
        std::uint64_t seed = 0;
        for (std::uint32_t w = 0; w < kMaxWays; ++w) {
            const std::uint64_t f = w < ways ? w : 0xF;
            seed |= f << (w * 4);
        }
        words_.assign(sets, seed);
    }

    std::uint32_t ways() const { return ways_; }
    std::size_t bytes() const { return words_.size() * sizeof(std::uint64_t); }

    std::uint32_t
    rankOf(std::uint32_t set, std::uint32_t way) const
    {
        return (words_[set] >> (way * 4)) & 0xF;
    }

    /** Move @p way to MRU (rank 0); every way ranked above it slides
     *  down by one.  No-op when already MRU. */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        constexpr std::uint64_t kH = 0x8080808080808080ULL;
        constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
        constexpr std::uint64_t kM = 0x0F0F0F0F0F0F0F0FULL;
        std::uint64_t &w = words_[set];
        const unsigned sh = way * 4;
        const std::uint64_t r = (w >> sh) & 0xF;
        if (r == 0)
            return;
        // Per-byte "field < r" guard on the low and high nibble lanes;
        // v <= 15 and r <= 15 keep (v|0x80) - r borrow-free and
        // v+1 <= 15 keeps the increments from carrying.
        const std::uint64_t rb = r * kOnes;
        const std::uint64_t lo = w & kM;
        const std::uint64_t hi = (w >> 4) & kM;
        const std::uint64_t incLo = ~((lo | kH) - rb) & kH;
        const std::uint64_t incHi = ~((hi | kH) - rb) & kH;
        w = (w + ((incLo >> 7) | ((incHi >> 7) << 4))) & ~(0xFULL << sh);
    }

    /** Exchange the ranks of two ways (promotion/demotion swaps). */
    void
    swapWays(std::uint32_t set, std::uint32_t a, std::uint32_t b)
    {
        std::uint64_t &w = words_[set];
        const unsigned sa = a * 4, sb = b * 4;
        const std::uint64_t ra = (w >> sa) & 0xF;
        const std::uint64_t rb = (w >> sb) & 0xF;
        w &= ~((0xFULL << sa) | (0xFULL << sb));
        w |= (ra << sb) | (rb << sa);
    }

    /** Way holding the maximum rank (the LRU way) over all ways. */
    std::uint32_t
    lruWay(std::uint32_t set) const
    {
        std::uint32_t best = 0, bestRank = rankOf(set, 0);
        for (std::uint32_t w = 1; w < ways_; ++w) {
            const std::uint32_t r = rankOf(set, w);
            if (r > bestRank) {
                bestRank = r;
                best = w;
            }
        }
        return best;
    }

    /** LRU way among the ways named by @p mask (bit w = way w).
     *  The permutation invariant makes the max unique, so this is
     *  exactly the stamp model's min-stamp scan. */
    std::uint32_t
    lruWayMasked(std::uint32_t set, std::uint64_t mask) const
    {
        std::uint32_t best = 0;
        std::int32_t bestRank = -1;
        while (mask) {
            const std::uint32_t w =
                static_cast<std::uint32_t>(std::countr_zero(mask));
            mask &= mask - 1;
            const std::int32_t r =
                static_cast<std::int32_t>(rankOf(set, w));
            if (r > bestRank) {
                bestRank = r;
                best = w;
            }
        }
        return best;
    }

    /** Audit helper: the set's ranks form a permutation of
     *  0..ways-1. */
    bool
    isPermutation(std::uint32_t set) const
    {
        std::uint32_t seen = 0;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint32_t r = rankOf(set, w);
            if (r >= ways_ || (seen & (std::uint32_t{1} << r)))
                return false;
            seen |= std::uint32_t{1} << r;
        }
        return true;
    }

    /** Overwrites @p set's packed ranks (tests that corrupt them). */
    void
    setWordForTesting(std::uint32_t set, std::uint64_t word)
    {
        words_[set] = word;
    }

  private:
    std::vector<std::uint64_t> words_;
    std::uint32_t ways_ = 0;
};

} // namespace nurapid

#endif // NURAPID_MEM_RANK_PLANE_HH
