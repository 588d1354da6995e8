/**
 * @file
 * InertClock tests: the integer stepping of runDistilled's inert
 * records must leave the dispatch clock and instruction count
 * bit-identical to the live loop's two FP additions per record, from
 * any start clock, across binade boundaries, ties, wide inst_gaps,
 * window limits that trip and clear, and the short-run gate. The
 * kernel must also actually step the records it is built for: a
 * fallback to the double loop would keep every result and lose the
 * speed.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "cpu/inert_clock.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

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

/** Replays @p s through InertClock and the reference; returns the
 *  records the kernel committed. */
std::uint64_t
expectIdentical(const Scenario &s, std::uint64_t id)
{
    InertClock clock(s.cpi, s.penalty);
    Reference ref{s.cpi, static_cast<double>(s.penalty)};
    const Outcome want = replay(ref, s);
    const Outcome got = replay(clock, s);
    EXPECT_EQ(got.trips, want.trips) << "scenario " << id;
    EXPECT_EQ(got.c_bits, want.c_bits)
        << "scenario " << id << ": clock " << std::bit_cast<double>(
               got.c_bits) << " vs " << std::bit_cast<double>(want.c_bits);
    EXPECT_EQ(got.insts, want.insts) << "scenario " << id;
    return clock.kernelRecords();
}

/** Gap words with inst_gaps 0-15 only, the kernel's range: mostly the
 *  profiles' 1-4, some folded mispredicts. */
std::vector<std::uint8_t>
drawShortWords(Rng &rng, std::size_t len)
{
    std::vector<std::uint8_t> w(len);
    for (auto &x : w) {
        const std::uint32_t gap =
            rng.chance(0.8) ? 1 + rng.below(4) : rng.below(16);
        x = static_cast<std::uint8_t>(gap | (rng.chance(0.1) ? 0x80u
                                                             : 0u));
    }
    return w;
}

/** A start clock in an ordinary binade, far from its ends. */
double
midBinadeClock(Rng &rng)
{
    return std::ldexp(1.25 + rng.uniform() * 0.5,
                      12 + static_cast<int>(rng.below(30)));
}

/** Records the kernel steps in one unlimited run of @p s's short
 *  gap words that never nears a binade end: none in a binade with a
 *  tie (Rng::uniform's CPIs hold ties in about one binade in ten),
 *  else every whole block of a run long enough for the kernel. */
std::uint64_t
wholeBlocks(const Scenario &s)
{
    const auto n = static_cast<std::ptrdiff_t>(s.words.size());
    if (n < InertClock::kMinExactRun ||
        !InertClock(s.cpi, s.penalty).binadeOf(s.c0).exact) {
        return 0;
    }
    return static_cast<std::uint64_t>(n / InertClock::kBlock *
                                      InertClock::kBlock);
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
    EXPECT_FALSE(clock.binadeOf(0.0).exact);
    EXPECT_FALSE(clock.binadeOf(4095.75).exact);
    EXPECT_TRUE(clock.binadeOf(4096.0).exact);
    EXPECT_TRUE(clock.binadeOf(0x1p40 + 3.5).exact);
    EXPECT_TRUE(clock.binadeOf(0x1p50 - 1).exact);
    // In [2^52, 2^53), u = 1: n = 4 dispatches 0.5 cycles, a tie.
    EXPECT_FALSE(clock.binadeOf(0x1p52).exact);
    // From 2^53 on, u >= 2 and the 9-cycle penalty is no whole number
    // of steps, even where dispatch has no tie.
    InertClock whole_cpi(2.0, 9);
    EXPECT_TRUE(whole_cpi.binadeOf(0x1p52).exact);
    EXPECT_FALSE(whole_cpi.binadeOf(0x1p53).exact);

    // dispatch_cpi = 1 + 2^-20: in [2^33, 2^34), u = 2^-19, so every
    // odd n makes a/u = n·2^19 + n/2 a half-integer tie.
    InertClock tie(1 + 0x1p-20, 9);
    EXPECT_TRUE(tie.binadeOf(0x1p32).exact);
    EXPECT_FALSE(tie.binadeOf(0x1p33).exact);
    EXPECT_FALSE(tie.binadeOf(0x1p34 - 1).exact);
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

TEST(InertClock, WideGapsTakeTheDoubleLoop)
{
    // inst_gap-63 words, past the kernel's 0-15: every block is
    // refused and stepped by the double loop.
    Rng rng(63);
    for (std::uint64_t i = 0; i < 200; ++i) {
        Scenario s;
        s.cpi = 0.125 + rng.uniform();
        s.c0 = std::ldexp(1 + rng.uniform(), 12 + rng.below(30));
        s.words.assign(32 + rng.below(64), 63);
        for (auto &w : s.words)
            w |= rng.chance(0.2) ? 0x80u : 0u;
        s.unlimited = true;
        EXPECT_EQ(expectIdentical(s, i), 0u);
    }
}

TEST(InertClock, KernelStepsShortGaps)
{
    ASSERT_TRUE(InertClock::kernelAvailable());
    Rng rng(16);
    std::uint64_t records = 0;
    std::uint64_t kernel = 0;
    for (std::uint64_t i = 0; i < 3000; ++i) {
        Scenario s;
        s.cpi = i % 3 == 0 ? 0.125 : 0.125 + rng.uniform() * 1.9;
        s.penalty = i % 5 == 0 ? 0 : 9;
        s.c0 = midBinadeClock(rng);
        s.insts0 = rng.below64(std::uint64_t{1} << 40);
        s.words = drawShortWords(rng, 32 + rng.below(400));
        s.limit_seed = rng.next();
        s.unlimited = i % 2 == 0;
        records += s.words.size();
        kernel += expectIdentical(s, i);
    }
    // Half the runs have no limit and start mid-binade; window-limited
    // runs reach the kernel only after a trip empties the window.
    EXPECT_GT(kernel, records / 3);
}

TEST(InertClock, RunLengthsAroundTheBlock)
{
    ASSERT_TRUE(InertClock::kernelAvailable());
    Rng rng(48);
    std::uint64_t kernel = 0;
    for (const std::size_t len : {15, 16, 17, 31, 32, 33, 48}) {
        for (std::uint64_t i = 0; i < 200; ++i) {
            Scenario s;
            s.cpi = 0.125 + rng.uniform() * 1.9;
            s.c0 = midBinadeClock(rng);
            s.words = drawShortWords(rng, len);
            s.unlimited = true;
            const std::uint64_t got = expectIdentical(s, len * 1000 + i);
            EXPECT_EQ(got, wholeBlocks(s)) << "run of " << len;
            kernel += got;
        }
    }
    // Runs of 32, 33 and 48 records: 2 + 2 + 3 blocks each.
    EXPECT_GT(kernel, 200u * 7 * InertClock::kBlock * 3 / 4);
}

TEST(InertClock, OneWideGapRefusesOnlyItsBlock)
{
    ASSERT_TRUE(InertClock::kernelAvailable());
    Rng rng(17);
    for (std::uint64_t i = 0; i < 480; ++i) {
        Scenario s;
        s.cpi = 0.125 + rng.uniform() * 1.9;
        s.c0 = midBinadeClock(rng);
        s.words = drawShortWords(rng, 48);
        // inst_gap 16, the narrowest the kernel refuses (bit 4), in
        // one of the three blocks; inst_gap 15 next to it is stepped.
        const std::size_t at = i % 48;
        s.words[at] = static_cast<std::uint8_t>(16 | (s.words[at] & 0x80));
        s.words[(at + 1) % 48] = 15;
        s.unlimited = true;
        const std::uint64_t want = wholeBlocks(s);
        EXPECT_EQ(expectIdentical(s, i),
                  want ? want - InertClock::kBlock : 0)
            << "wide word at " << at;
    }
}

TEST(InertClock, BlocksEndingAtTheBinadeBoundary)
{
    ASSERT_TRUE(InertClock::kernelAvailable());
    // dispatch_cpi 0.125 in [2^20, 2^21): u = 2^-32, and a block of
    // inst_gap-0 words with no fold steps K by exactly 2^33 (two
    // cycles). The run's last block ends one u short of 2^21, exactly
    // on it, or one record past it.
    constexpr double kU = 0x1p-32;
    for (const std::size_t blocks : {2, 3, 4}) {
        const double reach = 2.0 * static_cast<double>(blocks);
        struct Case
        {
            double c0;
            std::uint64_t kernel;
        };
        const std::size_t len = blocks * InertClock::kBlock;
        const Case cases[] = {
            {0x1p21 - reach - kU, len},          // ends inside: commits
            {0x1p21 - reach, len - InertClock::kBlock},  // ends on 2^21
            {0x1p21 - reach + 0.125, len - InertClock::kBlock},
        };
        for (const Case &c : cases) {
            Scenario s;
            s.c0 = c.c0;
            s.words.assign(len, 0);
            s.unlimited = true;
            EXPECT_EQ(expectIdentical(s, blocks), c.kernel)
                << blocks << " blocks from " << c.c0;
        }
    }
    // The same edges under random short gaps and folds: the clock
    // starts within a few blocks of a power of two and crosses it.
    Rng rng(2121);
    std::uint64_t kernel = 0;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        Scenario s;
        s.cpi = 0.125 + rng.uniform() * 1.9;
        s.penalty = 9;
        const int e = 13 + static_cast<int>(rng.below(30));
        s.c0 = std::ldexp(1.0, e) -
            std::floor(rng.uniform() * 4 * InertClock::kBlock * s.cpi);
        s.words = drawShortWords(rng, 64 + rng.below(64));
        s.unlimited = true;
        kernel += expectIdentical(s, i);
    }
    EXPECT_GT(kernel, 0u);
}

TEST(InertClock, DeltaAtItsLargest)
{
    ASSERT_TRUE(InertClock::kernelAvailable());
    // In [2^30, 2^31), u = 2^-22, so dispatch_cpi 1 + f·2^-22 steps
    // n·2^22 + round(n·f) per record. f just under 31/32 puts δ(16) at
    // 15, the largest δ a binade without a tie holds (f = 31/32 ties
    // at n = 16); f just over 1/2 puts it at 8.
    for (const double f : {31.0 / 32 - 0x1p-10, 0.5 + 0x1p-10}) {
        const double cpi = 1 + f * 0x1p-22;
        InertClock probe(cpi, 9);
        const InertClock::Binade &b = probe.binadeOf(0x1p30 + 7);
        ASSERT_TRUE(b.exact) << f;
        EXPECT_EQ(b.delta.back(), f > 0.75 ? 15 : 8) << f;
        Rng rng(30);
        std::uint64_t kernel = 0;
        for (std::uint64_t i = 0; i < 500; ++i) {
            Scenario s;
            s.cpi = cpi;
            s.c0 = std::ldexp(1 + rng.uniform(), 30);
            s.words = drawShortWords(rng, 32 + rng.below(200));
            s.limit_seed = rng.next();
            s.unlimited = i % 2 == 0;
            kernel += expectIdentical(s, i);
        }
        EXPECT_GT(kernel, 0u) << f;
    }
    // The tie itself is refused.
    InertClock tie(1 + 31.0 / 32 * 0x1p-22, 9);
    EXPECT_FALSE(tie.binadeOf(0x1p30).exact);
}

TEST(InertClock, KernelStepsMostOfALowLoadStream)
{
    ASSERT_TRUE(InertClock::kernelAvailable());
    // A real replay of each low-load profile's distilled stream: most
    // of its inert records must be kernel-stepped. If the ISA gate or
    // the binade check refused them all, every result would still be
    // right and only the speed would be lost.
    for (const WorkloadProfile &prof : lowLoadSuite()) {
        System sys(OrgSpec::baseline(), prof, SimLength{50'000, 150'000});
        sys.runAll();
        const DistilledTrace *trace = sys.distilledTrace();
        if (!trace)
            GTEST_SKIP() << "distillation is off (NURAPID_DISTILL=0)";
        const std::uint64_t inert = trace->size() - trace->eventCount();
        const std::uint64_t kernel =
            sys.core().inertStepper().kernelRecords();
        EXPECT_GT(kernel, inert / 2)
            << prof.name << ": " << kernel << " of " << inert
            << " inert records kernel-stepped";
    }
}

TEST(InertClock, MatchesTheDoubleLoopBitForBit)
{
    Rng rng(2024);
    std::uint64_t exact_runs = 0;
    std::uint64_t kernel_runs = 0;
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
            InertClock(s.cpi, s.penalty).binadeOf(s.c0).exact) {
            ++exact_runs;
        }
        if (expectIdentical(s, i) > 0)
            ++kernel_runs;
    }
    // The integer path must actually have run (from the start of a
    // run; more runs reach it after a trip empties the window), and
    // the kernel must have committed blocks in it.
    EXPECT_GT(exact_runs, 5000u);
    EXPECT_GT(kernel_runs, 2000u);
}

} // namespace
} // namespace nurapid
