#include "cpu/inert_clock.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nurapid {

namespace {
/** K's leading bit: a binade's doubles are K·u with K in [kLead, 2·kLead). */
constexpr std::uint64_t kLead = std::uint64_t{1} << 52;
constexpr std::uint64_t kFrac = kLead - 1;
constexpr int kExpBias = 1023;

#if defined(__x86_64__)
/** Commits whole 16-record blocks from @p g while each holds only
 *  inst_gaps < 16 and its end stays inside the binade; returns where
 *  it stopped. */
[[gnu::target("sse4.1,popcnt")]] const std::uint8_t *
kernelSteps(std::uint64_t &k_out, std::uint64_t &insts_out,
            const std::uint8_t *g, const std::uint8_t *end,
            const InertClock::Binade &b)
{
    const __m128i delta =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(b.delta.data()));
    const __m128i wide = _mm_set1_epi8(0x70);  // inst_gap bits 4-6
    const __m128i low = _mm_set1_epi8(0x0f);
    const __m128i zero = _mm_setzero_si128();
    std::uint64_t k = k_out;
    std::uint64_t insts = insts_out;
    for (; end - g >= InertClock::kBlock; g += InertClock::kBlock) {
        const __m128i w =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(g));
        if (!_mm_testz_si128(w, wide))
            break;
        const __m128i gap = _mm_and_si128(w, low);
        // Σ inst_gap in bits 0-15 and Σδ from bit 16 of each half.
        __m128i sums = _mm_add_epi64(
            _mm_sad_epu8(gap, zero),
            _mm_slli_epi64(_mm_sad_epu8(_mm_shuffle_epi8(delta, gap),
                                        zero),
                           16));
        sums = _mm_add_epi64(sums, _mm_unpackhi_epi64(sums, sums));
        const auto packed = static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(sums));
        const std::uint64_t n = (packed & 0xffff) + InertClock::kBlock;
        const auto folds = static_cast<std::uint64_t>(
            std::popcount(static_cast<unsigned>(_mm_movemask_epi8(w))));
        const std::uint64_t k2 =
            k + b.slope * n + (packed >> 16) + folds * b.pen_step;
        if (k2 >= 2 * kLead)
            break;
        k = k2;
        insts += n;
    }
    k_out = k;
    insts_out = insts;
    return g;
}
#else
/** Never reached: kernelAvailable() is false, so no binade is exact. */
const std::uint8_t *
kernelSteps(std::uint64_t &, std::uint64_t &, const std::uint8_t *g,
            const std::uint8_t *, const InertClock::Binade &)
{
    return g;
}
#endif
} // namespace

bool
InertClock::kernelAvailable()
{
#if defined(__x86_64__)
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.1") &&
            __builtin_cpu_supports("popcnt");
    }();
    return available;
#else
    return false;
#endif
}

const InertClock::Binade &
InertClock::binadeOf(double c)
{
    const int e = static_cast<int>(std::bit_cast<std::uint64_t>(c) >> 52) -
        kExpBias;
    if (e != binade.exp)
        buildBinade(e);
    return binade;
}

void
InertClock::buildBinade(int e)
{
    binade.exp = e;
    binade.exact = false;
    if (e < kMinExactExp || e > 52 || !kernelAvailable())
        return;
    // A step of 2^53 or more never commits; refusing it also keeps the
    // kernel's multiply-adds far from 64 bits.
    const double per_u = std::ldexp(1.0, 52 - e);  // 1/u: scales exactly
    const double max_step = 0x1p53;
    const double pen_steps = pen[1] * per_u;
    if (pen_steps >= max_step)
        return;
    std::array<std::uint64_t, kBlock> steps{};
    for (std::uint32_t n = 1; n <= kBlock; ++n) {
        const double a_u = (n * cpi) * per_u;  // a/u, exactly
        const double whole = std::floor(a_u);
        const double frac = a_u - whole;       // exact
        if (frac == 0.5 || a_u >= max_step)
            return;
        steps[n - 1] = static_cast<std::uint64_t>(whole) +
            (frac > 0.5 ? 1 : 0);
    }
    std::uint64_t slope = steps[0];
    for (std::uint32_t n = 2; n <= kBlock; ++n)
        slope = std::min(slope, steps[n - 1] / n);
    for (std::uint32_t n = 1; n <= kBlock; ++n) {
        const std::uint64_t delta = steps[n - 1] - n * slope;
        if (delta > std::numeric_limits<std::uint8_t>::max())
            return;
        binade.delta[n - 1] = static_cast<std::uint8_t>(delta);
    }
    binade.slope = slope;
    binade.pen_step = static_cast<std::uint64_t>(pen_steps);
    binade.exact = true;
}

InertClock::Clock
InertClock::exactSteps(Clock clock, const std::uint8_t *g,
                       const std::uint8_t *end)
{
    auto &[c, insts] = clock;
    while (g != end) {
        if (end - g >= kBlock && binadeOf(c).exact) {
            const std::uint64_t bits = std::bit_cast<std::uint64_t>(c);
            std::uint64_t k = (bits & kFrac) | kLead;
            const std::uint8_t *const from = g;
            g = kernelSteps(k, insts, g, end, binade);
            kernelRecs += static_cast<std::uint64_t>(g - from);
            c = std::bit_cast<double>((bits & ~kFrac) | (k & kFrac));
        }
        // The block that stopped the kernel (an inst_gap >= 16 or the
        // binade's end), the run's tail, or a refused binade, record
        // by record.
        g = doubleSteps(c, insts, g, g + std::min(end - g, kBlock),
                        kNoClockLimit, kNoInstLimit);
    }
    return clock;
}

} // namespace nurapid
