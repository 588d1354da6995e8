/**
 * @file
 * The dispatch clock of runDistilled's inert records, stepped exactly
 * in integers, sixteen records at a time.
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
 * p = penalty/u exactly (e <= 52). So within a binade each gap word is
 * an integer step of K that depends only on (e, word), and integer
 * steps are associative.
 *
 * For n <= 16 the step is written s·n + δ(n) + fold·p, where s is the
 * largest slope leaving every δ(n) >= 0 (the least ⌊step(n)/n⌋) and
 * δ(n) is checked, when the binade is entered, to fit a byte (a guard:
 * δ(n) <= n + 1 in any binade where a block can commit). The kernel
 * then sums kBlock = 16 gap words with SSE4.1: one 16-byte load, a
 * refusal if any inst_gap >= 16, psadbw for Σ inst_gap, a pshufb of
 * the 16-byte δ table and psadbw for Σδ, pmovmskb and popcount for the
 * folds, and one multiply-add into K, committed when the block's end
 * stays inside the binade. The kernel is gated once, on the host's
 * SSE4.1 and POPCNT (__builtin_cpu_supports); elsewhere every binade
 * is refused.
 *
 * Everything the kernel refuses takes the double additions themselves
 * (doubleSteps): runs shorter than kMinExactRun, runs with a window
 * limit set (see advance()), c < 2^kMinExactExp, tails under kBlock
 * records, blocks holding an inst_gap >= 16, blocks that would leave
 * the binade, binades above 2^52 or whose steps hold a tie or a δ past
 * a byte, and hosts without the kernel's ISA.
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
    /** Shorter runs take the double loop: the kernel's entry cost does
     *  not pay off on them. */
    static constexpr std::ptrdiff_t kMinExactRun = 32;
    /** Records summed per kernel commit: one 16-byte load. */
    static constexpr std::ptrdiff_t kBlock = 16;
    /** Binades below 2^kMinExactExp take the double loop. */
    static constexpr int kMinExactExp = 12;
    /** No limit on the clock or on the instruction count. */
    static constexpr double kNoClockLimit =
        std::numeric_limits<double>::infinity();
    static constexpr std::uint64_t kNoInstLimit =
        std::numeric_limits<std::uint64_t>::max();

    /** One binade's integer steps: a gap word with n = inst_gap + 1
     *  <= 16 steps K by slope·n + delta[inst_gap] + fold·pen_step. */
    struct Binade
    {
        std::array<std::uint8_t, kBlock> delta{};
        std::uint64_t slope = 0;
        std::uint64_t pen_step = 0;
        int exp = 0;         //!< e: the binade is [2^e, 2^(e+1))
        bool exact = false;  //!< no tie, every δ fits, kernel available
    };

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
     * reaches the kernel. A set limit is a pending load, which trips
     * the window within an RUU's worth of instructions (about 16
     * records on the profiles' streams), too soon for blocks to pay
     * for their entry.
     */
    const std::uint8_t *
    advance(double &c, std::uint64_t &insts, const std::uint8_t *g,
            const std::uint8_t *end, double lim_c, std::uint64_t lim_i)
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
    const std::uint8_t *
    doubleSteps(double &c, std::uint64_t &insts, const std::uint8_t *g,
                const std::uint8_t *end, double lim_c,
                std::uint64_t lim_i) const
    {
        while (g != end) {
            const std::uint8_t w = *g++;
            const std::uint32_t n =
                (w & DistilledTrace::kGapInstMask) + 1u;
            insts += n;
            c += n * cpi;
            c += pen[w >> 7];
            if (c >= lim_c || insts >= lim_i) [[unlikely]]
                break;
        }
        return g;
    }

    /** c's binade (built when c enters a new one); the kernel steps
     *  it when exact is set. */
    const Binade &binadeOf(double c);

    /** Records the kernel has committed over this clock's life. */
    std::uint64_t kernelRecords() const { return kernelRecs; }

    /** True when this host runs the kernel (SSE4.1 and POPCNT). */
    static bool kernelAvailable();

  private:
    /** Passed and returned by value (in registers), so the caller's
     *  clock need not live in memory around the call. */
    struct Clock
    {
        double c;
        std::uint64_t insts;
    };

    /** advance() over a whole run with no limit set. */
    [[gnu::noinline]] Clock exactSteps(Clock clock, const std::uint8_t *g,
                                       const std::uint8_t *end);

    void buildBinade(int e);

    double cpi = 0.125;
    double pen[2] = {0.0, 0.0};
    Binade binade;
    std::uint64_t kernelRecs = 0;
};

} // namespace nurapid

#endif // NURAPID_CPU_INERT_CLOCK_HH
