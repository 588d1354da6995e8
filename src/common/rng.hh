/**
 * @file
 * Deterministic PCG32 random-number generator.
 *
 * Every stochastic component (random distance replacement, synthetic
 * trace generation) draws from an explicitly-seeded Rng so that runs are
 * reproducible; the simulator never touches std::random_device.
 */

#ifndef NURAPID_COMMON_RNG_HH
#define NURAPID_COMMON_RNG_HH

#include <cstdint>

namespace nurapid {

/**
 * PCG32 (Melissa O'Neill's pcg32_random_r), a small, fast, statistically
 * strong generator with a 64-bit state and a selectable stream.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        reseed(seed, stream);
    }

    /** Restarts the sequence from @p seed on stream @p stream. */
    void
    reseed(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state = 0;
        inc = (stream << 1) | 1u;
        next();
        state += seed;
        next();
    }

    /** Next 32 uniformly random bits. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        auto xorshifted =
            static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
        auto rot = static_cast<std::uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
    }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        // Lemire-style rejection to avoid modulo bias.
        std::uint64_t m =
            static_cast<std::uint64_t>(next()) * bound;
        auto lo = static_cast<std::uint32_t>(m);
        if (lo < bound) {
            std::uint32_t t = (0u - bound) % bound;
            while (lo < t) {
                m = static_cast<std::uint64_t>(next()) * bound;
                lo = static_cast<std::uint32_t>(m);
            }
        }
        return static_cast<std::uint32_t>(m >> 32);
    }

    /** Uniform 64-bit integer in [0, bound). */
    std::uint64_t
    below64(std::uint64_t bound)
    {
        if (bound <= 0xffffffffULL)
            return below(static_cast<std::uint32_t>(bound));
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t limit =
            ~std::uint64_t{0} - (~std::uint64_t{0} % bound) - 1;
        std::uint64_t v;
        do {
            // Two statements: the operands of one `|` are unsequenced.
            const std::uint64_t hi = next();
            const std::uint64_t lo = next();
            v = (hi << 32) | lo;
        } while (v > limit);
        return v % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    std::uint64_t state = 0;
    std::uint64_t inc = 0;
};

} // namespace nurapid

#endif // NURAPID_COMMON_RNG_HH
