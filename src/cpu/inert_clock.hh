/**
 * @file
 * The dispatch clock of runDistilled's inert records, stepped exactly
 * in integers.
 *
 * An inert record (an L1 hit whose only stall is an optional folded
 * mispredict) advances the core's double dispatch clock c by the live
 * loop's two additions, in its order:
 *
 *     c += n * dispatch_cpi;    c += pen[fold];
 *
 * with n = inst_gap + 1 and pen = {0.0, mispredict_penalty}. InertClock
 * reproduces those additions bit for bit, but steps runs of at least
 * kMinExactRun records with integers. While c is in one binade
 * [2^e, 2^(e+1)), every double there is K·u with u = 2^(e-52) and K in
 * [2^52, 2^53). For a = RN(n·dispatch_cpi) >= 0,
 * RN(K·u + a) = (K + round(a/u))·u as long as the sum stays below
 * 2^53·u and a/u is not a half-integer (a tie, which round-to-even
 * would settle by K's parity). The folded penalty then adds the integer
 * penalty/u exactly (e <= 52). So within a binade each gap word with
 * inst_gap < 64 is an integer step of K that depends only on
 * (e, word); integer steps are associative, so kBlock records are
 * summed from a per-binade table and committed with one add when the
 * block's end stays inside the binade.
 *
 * Everything else takes the double additions themselves: runs shorter
 * than kMinExactRun, runs with a window limit set (see advance()),
 * c < 2^kMinExactExp, blocks holding an inst_gap >= 64, blocks that
 * would leave the binade, and binades whose table holds a tie or a
 * step too large for kBlock packed entries to sum in 64 bits.
 */

#ifndef NURAPID_CPU_INERT_CLOCK_HH
#define NURAPID_CPU_INERT_CLOCK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/types.hh"
#include "trace/distilled_trace.hh"

namespace nurapid {

class InertClock
{
  public:
    /** Shorter runs take the double loop: the integer path's entry
     *  cost does not pay off on them. */
    static constexpr std::ptrdiff_t kMinExactRun = 32;
    /** Records summed per integer commit. */
    static constexpr std::ptrdiff_t kBlock = 8;
    /** Binades below 2^kMinExactExp take the double loop. */
    static constexpr int kMinExactExp = 12;
    /** No limit on the clock or on the instruction count. */
    static constexpr double kNoClockLimit =
        std::numeric_limits<double>::infinity();
    static constexpr std::uint64_t kNoInstLimit =
        std::numeric_limits<std::uint64_t>::max();

    InertClock() = default;
    InertClock(double dispatch_cpi, Cycles mispredict_penalty)
        : cpi(dispatch_cpi),
          pen{0.0, static_cast<double>(mispredict_penalty)}
    {}

    /**
     * Steps clock @p c and instruction count @p insts over the gap
     * words [@p g, @p end), stopping after the first record at which
     * c >= @p lim_c or insts >= @p lim_i. Returns one past the last
     * record stepped. Bit-identical to doubleSteps(); c must be >= 0.
     *
     * Only a run of at least kMinExactRun records with no limit set
     * is stepped in integers. A set limit is a pending load, which
     * trips the window within an RUU's worth of instructions (about
     * 16 records on the profiles' streams), too soon for integer
     * blocks to pay for their entry.
     */
    const std::uint16_t *
    advance(double &c, std::uint64_t &insts, const std::uint16_t *g,
            const std::uint16_t *end, double lim_c, std::uint64_t lim_i)
    {
        if (end - g < kMinExactRun || lim_c != kNoClockLimit ||
            lim_i != kNoInstLimit) {
            return doubleSteps(c, insts, g, end, lim_c, lim_i);
        }
        const Clock done = exactSteps({c, insts}, g, end);
        c = done.c;
        insts = done.insts;
        return end;
    }

    /** advance() by the live loop's two FP additions per record. */
    const std::uint16_t *
    doubleSteps(double &c, std::uint64_t &insts, const std::uint16_t *g,
                const std::uint16_t *end, double lim_c,
                std::uint64_t lim_i) const
    {
        while (g != end) {
            const std::uint16_t w = *g++;
            const std::uint32_t n =
                (w & DistilledTrace::kGapInstMask) + 1u;
            insts += n;
            c += n * cpi;
            c += pen[w >> 15];
            if (c >= lim_c || insts >= lim_i) [[unlikely]]
                break;
        }
        return g;
    }

    /** True if c's binade is stepped in integers (builds its table). */
    bool exactBinade(double c);

  private:
    /** Passed and returned by value (in registers), so the caller's
     *  clock need not live in memory around the call. */
    struct Clock
    {
        double c;
        std::uint64_t insts;
    };

    /** advance() over a whole run with no limit set. */
    [[gnu::noinline]] Clock exactSteps(Clock clock, const std::uint16_t *g,
                                       const std::uint16_t *end);

    void buildTable(int e);

    double cpi = 0.125;
    double pen[2] = {0.0, 0.0};
    int tableExp = 0;            //!< binade the table was built for
    bool tableExact = false;     //!< table valid (no tie, no overflow)
    /** Indexed by rotl16(word, 1) & 127 (inst_gap 0-63 × fold bit):
     *  (K step << 10) | (inst_gap + 1). */
    std::array<std::uint64_t, 128> table{};
};

} // namespace nurapid

#endif // NURAPID_CPU_INERT_CLOCK_HH
