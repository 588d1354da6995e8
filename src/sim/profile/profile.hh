/**
 * @file
 * Cycle-budget profiler for the per-reference simulation loop.
 *
 * Attributes sweep wall time to four buckets so perf claims are
 * measured, not asserted:
 *
 *   trace-gen  pre-generating packed workload streams (trace/)
 *   distill    building/loading distilled L2-event streams (trace/)
 *   core       the warmup/measure loop (cpu/ + L1s + replay)
 *   l2-org     LowerMemory::access calls made from that loop
 *              (a subset of the core bucket, reported separately)
 *   probe      tag-array probes inside the NUCA organizations'
 *              access paths (a slice of l2-org, reported separately
 *              so SoA probe-kernel wins are visible)
 *   recency    LRU rank-plane touches and victim scans (a slice of
 *              l2-org, reported separately so packed-rank wins over
 *              the old stamp/chain recency state are visible)
 *   stats      metrics extraction + energy accounting
 *
 * Like the audit hooks, the probes are compiled out by default:
 * configure with -DNURAPID_PROFILE=ON to enable them. An enabled build
 * prints a one-line footer per process to stderr at exit (stderr so
 * bench stdout stays byte-comparable across builds). Accumulation is
 * atomic, so the RunEngine's worker threads can share the buckets.
 */

#ifndef NURAPID_SIM_PROFILE_PROFILE_HH
#define NURAPID_SIM_PROFILE_PROFILE_HH

#include <chrono>
#include <cstdint>

namespace nurapid {
namespace prof {

enum class Bucket : unsigned {
    TraceGen,
    Distill,
    Core,
    L2Org,
    Probe,    //!< NUCA tag-array probes (a slice of the l2-org bucket)
    Recency,  //!< LRU rank touches/scans (a slice of the l2-org bucket)
    Stats,
    kCount,
};

/** Adds @p nanos to @p bucket (thread-safe); arms the exit footer. */
void add(Bucket bucket, std::uint64_t nanos);

/** Nanoseconds accumulated in @p bucket so far. */
std::uint64_t nanos(Bucket bucket);

/** Zeroes every bucket (tests). */
void resetAll();

/** RAII probe: charges its lifetime to one bucket. */
class Scope
{
  public:
    explicit Scope(Bucket b)
        : bucket(b), start(std::chrono::steady_clock::now())
    {
    }

    ~Scope()
    {
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start).count();
        add(bucket, static_cast<std::uint64_t>(ns));
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Bucket bucket;
    std::chrono::steady_clock::time_point start;
};

} // namespace prof
} // namespace nurapid

#if defined(NURAPID_PROFILE_ENABLED)
#define NURAPID_PROFILE_CAT2(a, b) a##b
#define NURAPID_PROFILE_CAT(a, b) NURAPID_PROFILE_CAT2(a, b)
/** Charges the rest of the enclosing scope to @p bucket. */
#define NURAPID_PROFILE_SCOPE(bucket)                                    \
    ::nurapid::prof::Scope NURAPID_PROFILE_CAT(nurapid_prof_scope_,      \
                                               __LINE__)(               \
        ::nurapid::prof::Bucket::bucket)
#else
#define NURAPID_PROFILE_SCOPE(bucket) ((void)0)
#endif

#endif // NURAPID_SIM_PROFILE_PROFILE_HH
