/**
 * @file
 * InertClock tests: the integer stepping of runDistilled's inert
 * records must leave the dispatch clock and instruction count
 * bit-identical to the live loop's two FP additions per record, from
 * any start clock, across binade boundaries, ties, wide inst_gaps,
 * window limits that trip and clear, and the short-run gate.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "cpu/inert_clock.hh"

namespace nurapid {
namespace {

constexpr double kNoClockLimit = InertClock::kNoClockLimit;
constexpr std::uint64_t kNoInstLimit = InertClock::kNoInstLimit;

/** The live loop's per-record clock, written out independently. */
struct Reference
{
    double cpi;
    double penalty;

    const std::uint8_t *
    advance(double &c, std::uint64_t &insts, const std::uint8_t *g,
            const std::uint8_t *end, double lim_c,
            std::uint64_t lim_i) const
    {
        while (g != end) {
            const std::uint8_t w = *g++;
            const std::uint32_t n = (w & 0x7fu) + 1u;
            insts += n;
            c += n * cpi;
            if (w & 0x80u)
                c += penalty;
            if (c >= lim_c || insts >= lim_i)
                break;
        }
        return g;
    }
};

/** One run of gap words replayed the way OooCore::replayInert does:
 *  after each limit trip the window may move the clock forward and
 *  set new limits (or none, as when the window empties). */
struct Scenario
{
    double cpi = 0.125;
    unsigned penalty = 9;
    double c0 = 0;
    std::uint64_t insts0 = 0;
    std::vector<std::uint8_t> words;
    std::uint64_t limit_seed = 0;
    bool unlimited = false;  //!< never set a limit
};

/** Next limits after a trip (or at the start): none at all (an empty
 *  window: the only case the integer path steps), or a mix of none,
 *  ahead of the clock and already passed. */
void
drawLimits(Rng &rng, double c, std::uint64_t insts, double span,
           double &lim_c, std::uint64_t &lim_i)
{
    if (rng.chance(0.4)) {
        lim_c = kNoClockLimit;
        lim_i = kNoInstLimit;
        return;
    }
    switch (rng.below(5)) {
      case 0:
        lim_c = kNoClockLimit;
        break;
      case 1:
        lim_c = std::floor(c);  // passed: trips on the next record
        break;
      case 2:  // not a whole cycle (a load's completion always is)
        lim_c = c + rng.uniform() * span;
        break;
      default:
        lim_c = std::floor(c + rng.uniform() * span) + 1;
        break;
    }
    lim_i = rng.chance(0.5) ? kNoInstLimit : insts + 1 + rng.below(512);
}

struct Outcome
{
    std::vector<std::uint64_t> trips;  //!< (record, clock bits, insts)
    std::uint64_t c_bits = 0;
    std::uint64_t insts = 0;
};

template <class Clock>
Outcome
replay(Clock &clock, const Scenario &s)
{
    Outcome out;
    Rng rng(s.limit_seed);
    double c = s.c0;
    std::uint64_t insts = s.insts0;
    const double span = 80.0 * s.cpi + s.penalty;
    double lim_c = kNoClockLimit;
    std::uint64_t lim_i = kNoInstLimit;
    if (!s.unlimited)
        drawLimits(rng, c, insts, span, lim_c, lim_i);
    const std::uint8_t *g = s.words.data();
    const std::uint8_t *const end = g + s.words.size();
    while (g != end) {
        g = clock.advance(c, insts, g, end, lim_c, lim_i);
        if (c >= lim_c || insts >= lim_i) {
            out.trips.push_back(static_cast<std::uint64_t>(
                g - s.words.data()));
            out.trips.push_back(std::bit_cast<std::uint64_t>(c));
            out.trips.push_back(insts);
            // A window stall jumps the clock to a load's completion.
            if (rng.chance(0.3))
                c = std::max(c, std::floor(c + rng.uniform() * span));
            drawLimits(rng, c, insts, span, lim_c, lim_i);
        }
    }
    out.c_bits = std::bit_cast<std::uint64_t>(c);
    out.insts = insts;
    return out;
}

void
expectIdentical(const Scenario &s, std::uint64_t id)
{
    InertClock clock(s.cpi, s.penalty);
    Reference ref{s.cpi, static_cast<double>(s.penalty)};
    const Outcome want = replay(ref, s);
    const Outcome got = replay(clock, s);
    ASSERT_EQ(got.trips, want.trips) << "scenario " << id;
    ASSERT_EQ(got.c_bits, want.c_bits)
        << "scenario " << id << ": clock " << std::bit_cast<double>(
               got.c_bits) << " vs " << std::bit_cast<double>(want.c_bits);
    ASSERT_EQ(got.insts, want.insts) << "scenario " << id;
}

/** Gap words: mostly the short gaps real streams hold, some folded
 *  mispredicts (bit 7), and (in some runs) inst_gaps of 64-127, the
 *  widest a gap word holds, which have no table entry. */
std::vector<std::uint8_t>
drawWords(Rng &rng, std::size_t len, double wide_frac)
{
    std::vector<std::uint8_t> w(len);
    for (auto &x : w) {
        std::uint32_t gap = rng.chance(0.8) ? rng.below(8) : rng.below(64);
        if (rng.chance(wide_frac))
            gap = 64 + rng.below(0x7f - 64 + 1);
        x = static_cast<std::uint8_t>(gap | (rng.chance(0.12) ? 0x80u
                                                              : 0u));
    }
    return w;
}

TEST(InertClock, ExactOnlyInOrdinaryBinades)
{
    InertClock clock(0.125, 9);
    EXPECT_FALSE(clock.exactBinade(0.0));
    EXPECT_FALSE(clock.exactBinade(4095.75));
    EXPECT_TRUE(clock.exactBinade(4096.0));
    EXPECT_TRUE(clock.exactBinade(0x1p40 + 3.5));
    EXPECT_TRUE(clock.exactBinade(0x1p50 - 1));
    // In [2^52, 2^53), u = 1: n = 4 dispatches 0.5 cycles, a tie.
    EXPECT_FALSE(clock.exactBinade(0x1p52));
    // From 2^53 on, u >= 2 and the 9-cycle penalty is no whole number
    // of steps, even where dispatch has no tie.
    InertClock whole_cpi(2.0, 9);
    EXPECT_TRUE(whole_cpi.exactBinade(0x1p52));
    EXPECT_FALSE(whole_cpi.exactBinade(0x1p53));

    // dispatch_cpi = 1 + 2^-20: in [2^33, 2^34), u = 2^-19, so every
    // odd n makes a/u = n·2^19 + n/2 a half-integer tie.
    InertClock tie(1 + 0x1p-20, 9);
    EXPECT_TRUE(tie.exactBinade(0x1p32));
    EXPECT_FALSE(tie.exactBinade(0x1p33));
    EXPECT_FALSE(tie.exactBinade(0x1p34 - 1));
}

TEST(InertClock, TieBinadeMatchesTheDoubleLoop)
{
    Rng rng(7);
    for (std::uint64_t i = 0; i < 2000; ++i) {
        Scenario s;
        s.cpi = 1 + 0x1p-20;
        s.penalty = i % 2 ? 9 : 0;
        s.c0 = i % 3 == 0 ? 0x1p33 - std::floor(rng.uniform() * 200)
                          : 0x1p33 + std::floor(rng.uniform() * 0x1p32);
        s.insts0 = rng.below64(std::uint64_t{1} << 40);
        s.words = drawWords(rng, 32 + rng.below(400), 0.0);
        s.limit_seed = rng.next();
        expectIdentical(s, i);
    }
}

TEST(InertClock, GateEdge)
{
    Rng rng(31);
    for (std::uint64_t i = 0; i < 3000; ++i) {
        Scenario s;
        s.cpi = 0.125 + rng.uniform() * 1.5;
        s.penalty = 9;
        s.c0 = std::ldexp(1 + rng.uniform(), 12 + rng.below(30));
        s.words = drawWords(rng, InertClock::kMinExactRun - 1 + i % 3,
                            0.0);
        s.unlimited = true;
        expectIdentical(s, i);
    }
}

TEST(InertClock, WidestTableGapsFillTheInstructionField)
{
    // Eight inst_gap-63 records sum to 512 instructions, the packed
    // entries' largest instruction field.
    Rng rng(63);
    for (std::uint64_t i = 0; i < 200; ++i) {
        Scenario s;
        s.cpi = 0.125 + rng.uniform();
        s.c0 = std::ldexp(1 + rng.uniform(), 12 + rng.below(30));
        s.words.assign(32 + rng.below(64), 63);
        for (auto &w : s.words)
            w |= rng.chance(0.2) ? 0x80u : 0u;
        s.unlimited = true;
        expectIdentical(s, i);
    }
}

TEST(InertClock, MatchesTheDoubleLoopBitForBit)
{
    Rng rng(2024);
    std::uint64_t exact_runs = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        Scenario s;
        switch (rng.below(4)) {
          case 0: s.cpi = 0.125; break;
          case 1: s.cpi = 1 + 0x1p-20; break;
          default: s.cpi = 0.125 + rng.uniform() * 1.9; break;
        }
        const std::uint32_t pen_kind = rng.below(3);
        s.penalty = pen_kind == 0 ? 0 : pen_kind == 1 ? 9 : rng.below(200);
        switch (rng.below(5)) {
          case 0:  // below the integer path's floor, from zero
            s.c0 = rng.chance(0.2) ? 0.0 : rng.uniform() * 4200;
            break;
          case 1: {  // just below a power of two
            const int k = 12 + static_cast<int>(rng.below(40));
            s.c0 = std::ldexp(1.0, k) -
                (rng.chance(0.5)
                     ? rng.below(300) * std::ldexp(1.0, k - 53)
                     : std::floor(rng.uniform() * 200 * s.cpi));
            break;
          }
          default:
            s.c0 = std::ldexp(1 + rng.uniform(),
                              static_cast<int>(rng.below(50)));
            break;
        }
        s.insts0 = rng.below64(std::uint64_t{1} << 48);
        std::size_t len;
        switch (rng.below(4)) {
          case 0: len = rng.below(40); break;
          case 1: len = 30 + rng.below(5); break;
          default: len = rng.below(300); break;
        }
        s.words = drawWords(rng, len, rng.chance(0.2) ? 0.02 : 0.0);
        s.limit_seed = rng.next();
        s.unlimited = rng.chance(0.2);
        if (s.unlimited && len >= InertClock::kMinExactRun &&
            InertClock(s.cpi, s.penalty).exactBinade(s.c0)) {
            ++exact_runs;
        }
        expectIdentical(s, i);
    }
    // The integer path must actually have run (from the start of a
    // run; more runs reach it after a trip empties the window).
    EXPECT_GT(exact_runs, 5000u);
}

} // namespace
} // namespace nurapid
