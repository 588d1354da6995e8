/**
 * @file
 * Tag-probe kernels over structure-of-arrays tag planes.
 *
 * Every set-indexed array in the simulator keeps its tags in one
 * TagStore (mem/tag_store.hh): a contiguous plane of std::uint64_t
 * words, one row per set, padded to a power-of-two stride. A probe is
 * then a dense linear compare of one row against a needle, returning
 * a bitmask with bit w set when tags[w] == needle.
 *
 * TagStore::match/matchPartial, the only callers, AND the result with
 * the set's valid bitmap, which also clears any padding lanes past the
 * real associativity — the kernels may therefore read (and match) pad
 * words freely. TagStore caps the way count at 16 (the rank plane's
 * limit), so one mask word always covers a row.
 *
 * The masked variant implements D-NUCA's partial-tag smart-search
 * compare, (tags[w] & mask) == needle, with the same lane order.
 *
 * Bit-identity with the old per-Line scalar loops: a match mask is
 * order-free, and every consumer reduces it with countr_zero (first
 * match) or 63 - countl_zero (last match) to reproduce its historical
 * scan direction exactly. The audited no-duplicate-tag invariant makes
 * first and last match coincide on clean state anyway.
 */

#ifndef NURAPID_MEM_TAG_PROBE_HH
#define NURAPID_MEM_TAG_PROBE_HH

#include <cstdint>

namespace nurapid {

/** Masked match mask of one tag row: bit w set iff
 *  (tags[w] & mask) == needle, w < n (@p n is the row's padded
 *  stride) — the partial-tag smart-search compare. */
inline std::uint64_t
probeMatchMasked(const std::uint64_t *tags, std::uint32_t n,
                 std::uint64_t mask, std::uint64_t needle)
{
    std::uint64_t m = 0;
    for (std::uint32_t w = 0; w < n; ++w)
        m |= std::uint64_t{(tags[w] & mask) == needle} << w;
    return m;
}

/** Match mask of one tag row: bit w set iff tags[w] == needle. */
inline std::uint64_t
probeMatch(const std::uint64_t *tags, std::uint32_t n,
           std::uint64_t needle)
{
    return probeMatchMasked(tags, n, ~std::uint64_t{0}, needle);
}

/** Exchanges bits @p a and @p b of @p word (plane-swap helper for the
 *  promotion/demotion paths that exchange two ways' valid/dirty bits). */
inline void
swapBits(std::uint64_t &word, std::uint32_t a, std::uint32_t b)
{
    const std::uint64_t diff =
        ((word >> a) ^ (word >> b)) & 1;
    word ^= (diff << a) | (diff << b);
}

} // namespace nurapid

#endif // NURAPID_MEM_TAG_PROBE_HH
