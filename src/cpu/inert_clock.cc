#include "cpu/inert_clock.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace nurapid {

namespace {
/** K's leading bit: a binade's doubles are K·u with K in [kLead, 2·kLead). */
constexpr std::uint64_t kLead = std::uint64_t{1} << 52;
constexpr std::uint64_t kFrac = kLead - 1;
constexpr int kExpBias = 1023;
/** Low table-entry bits hold the record's instruction count. */
constexpr unsigned kInstBits = 10;
constexpr std::uint64_t kInstMask = (std::uint64_t{1} << kInstBits) - 1;
static_assert(InertClock::kBlock * 64 <= kInstMask,
              "a block's instruction counts overflow their field");
/** Largest step whose packed entries sum kBlock at a time in 64 bits. */
constexpr std::uint64_t kMaxStep =
    std::numeric_limits<std::uint64_t>::max() / InertClock::kBlock >>
    kInstBits;
/** Gap-word bits that mark an inst_gap >= 64 (no table entry). */
constexpr std::uint8_t kWideGap = DistilledTrace::kGapInstMask & ~63u;

unsigned
tableIndex(std::uint8_t w)
{
    return std::rotl(w, 1) & 127u;
}
} // namespace

bool
InertClock::exactBinade(double c)
{
    const int e = static_cast<int>(std::bit_cast<std::uint64_t>(c) >> 52) -
        kExpBias;
    if (e != tableExp)
        buildTable(e);
    return tableExact;
}

void
InertClock::buildTable(int e)
{
    tableExp = e;
    tableExact = false;
    if (e < kMinExactExp || e > 52)
        return;
    const double per_u = std::ldexp(1.0, 52 - e);  // 1/u: scales exactly
    const auto max_step = static_cast<double>(kMaxStep);
    const double pen_steps = pen[1] * per_u;
    if (pen_steps > max_step)
        return;
    for (unsigned i = 0; i < table.size(); ++i) {
        const std::uint32_t n = (i >> 1) + 1;
        const double a_u = (n * cpi) * per_u;  // a/u, exactly
        const double whole = std::floor(a_u);
        const double frac = a_u - whole;       // exact
        if (frac == 0.5 || whole + 1 + pen_steps > max_step)
            return;
        const auto step = static_cast<std::uint64_t>(whole) +
            (frac > 0.5 ? 1 : 0) +
            ((i & 1) ? static_cast<std::uint64_t>(pen_steps) : 0);
        table[i] = (step << kInstBits) | n;
    }
    tableExact = true;
}

InertClock::Clock
InertClock::exactSteps(Clock clock, const std::uint8_t *g,
                       const std::uint8_t *end)
{
    auto &[c, insts] = clock;
    while (g != end) {
        if (end - g >= kBlock && exactBinade(c)) {
            const std::uint64_t bits = std::bit_cast<std::uint64_t>(c);
            std::uint64_t k = (bits & kFrac) | kLead;
            for (; end - g >= kBlock; g += kBlock) {
                // Byte loads feed the table directly; extracting the
                // bytes from one 8-byte load measured slower.
                std::uint8_t any = 0;
                std::uint64_t sum = 0;
                for (std::ptrdiff_t j = 0; j < kBlock; ++j) {
                    any |= g[j];
                    sum += table[tableIndex(g[j])];
                }
                const std::uint64_t k2 = k + (sum >> kInstBits);
                if ((any & kWideGap) || k2 >= 2 * kLead)
                    break;
                k = k2;
                insts += sum & kInstMask;
            }
            c = std::bit_cast<double>((bits & ~kFrac) | (k & kFrac));
        }
        // The block that stopped the integer steps (an inst_gap >= 64
        // or the binade's end), the run's tail, or a binade without a
        // table, record by record.
        g = doubleSteps(c, insts, g, g + std::min(end - g, kBlock),
                        kNoClockLimit, kNoInstLimit);
    }
    return clock;
}

} // namespace nurapid
