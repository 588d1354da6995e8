/**
 * @file
 * Parallel experiment engine: fans independent (organization, workload)
 * simulations out over a thread pool and memoizes finished runs.
 *
 * Every run is an isolated System — its own cache organization, core
 * model and explicitly-seeded RNGs, replaying a read-only packed or
 * distilled stream from the process-wide registries — so runs share no
 * mutable state and jobs=N produces bit-identical RunMetrics to the
 * serial jobs=1 path (verified by tests/test_runner.cc and a TSan
 * build, -DNURAPID_SANITIZE=thread). A batch is plain batching: one
 * System per cache-missed request, fanned out over the pool.
 *
 * Thread-safety audit of the shared state a worker touches:
 *  - sharedSramModel() (sim/system.cc) and TechParams::the70nm() are
 *    const singletons behind C++11 magic statics: initialization is
 *    synchronized by the compiler, and every member is const after
 *    construction. The engine additionally touches them once before
 *    spawning workers so no worker pays the init path.
 *  - workloadSuite() (trace/profiles.cc) is a const magic static.
 *  - Rng state lives in per-System objects (the NuRAPID distance
 *    replacer) and in each stream's generator, all seeded from the
 *    spec/profile, never from a global.
 *  - The packed/distilled trace registries (trace/packed_trace.hh,
 *    trace/distilled_trace.hh) build each stream once under a lock and
 *    hand out shared const buffers.
 *  - logging's inform/warn write whole lines with one fprintf; workers
 *    do not log on the simulation fast path.
 *
 * Knobs (also see RunEngineOptions::fromEnv):
 *  - NURAPID_JOBS     worker count; 0/unset = hardware_concurrency().
 *  - NURAPID_RUN_CACHE  path of a JSON cache file shared across
 *    binaries; loaded on engine construction, saved after every batch.
 */

#ifndef NURAPID_SIM_RUNNER_RUN_ENGINE_HH
#define NURAPID_SIM_RUNNER_RUN_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner/run_cache.hh"
#include "sim/system.hh"

namespace nurapid {

/** One independent simulation the engine may run or recall. */
struct RunRequest
{
    OrgSpec spec;
    WorkloadProfile profile;
    SimLength length{};

    /** Observability request for this run. An enabled config makes
     *  the run uncacheable: its point is the side-effect trace and
     *  metrics files, which a memoized result would silently skip, so
     *  the engine bypasses both cache lookup and store. */
    ObsConfig obs{};
};

struct RunEngineOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Consult/populate the memoization cache. */
    bool use_cache = true;

    /** JSON cache file shared across binaries; empty = in-process only. */
    std::string cache_file;

    /** Reads NURAPID_JOBS and NURAPID_RUN_CACHE. */
    static RunEngineOptions fromEnv();
};

class RunEngine
{
  public:
    explicit RunEngine(const RunEngineOptions &options =
                           RunEngineOptions::fromEnv());

    /**
     * Runs every request, in parallel for cache misses, and returns
     * results in request order. Cached results come back with
     * from_cache set and their original wall_seconds.
     */
    std::vector<RunMetrics> runMany(const std::vector<RunRequest> &requests);

    /** Engine-backed equivalents of the sim/system.hh free functions. */
    RunMetrics runOne(const OrgSpec &spec, const WorkloadProfile &profile,
                      const SimLength &length = SimLength::fromEnv());
    std::vector<RunMetrics> runSuite(const OrgSpec &spec,
                                     const std::vector<WorkloadProfile> &suite,
                                     const SimLength &length =
                                         SimLength::fromEnv());

    /**
     * Runs the cross product specs x suite in one batch and returns
     * result[i][j] for (specs[i], suite[j]), so every organization's
     * misses share one worker pool instead of one pool per suite.
     */
    std::vector<std::vector<RunMetrics>>
    runSuites(const std::vector<OrgSpec> &specs,
              const std::vector<WorkloadProfile> &suite,
              const SimLength &length = SimLength::fromEnv());

    /** Resolved worker count for a batch of @p pending runs. */
    unsigned jobsFor(std::size_t pending) const;

    /** Runs actually simulated (cache misses) over the engine's life. */
    std::uint64_t simulatedRuns() const { return simulated.load(); }

    /** Sum of wall_seconds over simulated runs (CPU cost paid). */
    double simulatedSeconds() const { return simSecs.load(); }

    /** Results served from the memoization cache. */
    std::uint64_t cacheHits() const { return hits.load(); }

    /** Sum of wall_seconds of cache-hit results: simulation avoided. */
    double savedSeconds() const { return saved.load(); }

    const RunEngineOptions &options() const { return opts; }
    RunCache &cache() { return memo; }

  private:
    RunEngineOptions opts;
    RunCache memo;
    std::atomic<std::uint64_t> simulated{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<double> saved{0.0};
    std::atomic<double> simSecs{0.0};

    static void atomicAdd(std::atomic<double> &target, double delta);
};

/**
 * The process-wide engine behind the runOne/runSuite free functions in
 * sim/system.hh; configured from the environment on first use.
 */
RunEngine &globalRunEngine();

} // namespace nurapid

#endif // NURAPID_SIM_RUNNER_RUN_ENGINE_HH
