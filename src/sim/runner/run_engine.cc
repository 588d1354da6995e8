#include "sim/runner/run_engine.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "sim/runner/span_trace.hh"

namespace nurapid {

RunEngineOptions
RunEngineOptions::fromEnv()
{
    RunEngineOptions opts;
    if (const char *s = std::getenv("NURAPID_JOBS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(s, &end, 10);
        if (end && *end == '\0' && *s != '\0' && v <= 4096) {
            opts.jobs = static_cast<unsigned>(v);
        } else {
            warnOnce("ignoring invalid NURAPID_JOBS '%s'", s);
        }
    }
    if (const char *f = std::getenv("NURAPID_RUN_CACHE"))
        opts.cache_file = f;
    return opts;
}

RunEngine::RunEngine(const RunEngineOptions &options)
    : opts(options)
{
    if (opts.use_cache && !opts.cache_file.empty()) {
        EngineSpan span("cache-load", "load " + opts.cache_file);
        memo.loadFile(opts.cache_file);
    }
}

unsigned
RunEngine::jobsFor(std::size_t pending) const
{
    unsigned base = opts.jobs;
    if (base == 0) {
        base = std::max(1u, std::thread::hardware_concurrency());
    }
    const auto cap = static_cast<unsigned>(
        std::min<std::size_t>(pending, 4096));
    return std::max(1u, std::min(base, cap));
}

std::vector<RunMetrics>
RunEngine::runMany(const std::vector<RunRequest> &requests)
{
    const std::size_t n = requests.size();
    std::vector<RunMetrics> results(n);
    std::vector<RunKey> keys(n);
    std::vector<std::size_t> misses;
    misses.reserve(n);

    // Duplicate requests inside one batch coalesce onto the first
    // occurrence: (duplicate index, index it copies from).
    std::map<std::string, std::size_t> first_of_key;
    std::vector<std::pair<std::size_t, std::size_t>> dups;

    {
        EngineSpan span("cache-probe",
                        strprintf("probe %zu requests", n));
        for (std::size_t i = 0; i < n; ++i) {
            if (opts.use_cache && !requests[i].obs.enabled()) {
                keys[i] = fingerprintRun(requests[i].spec,
                                         requests[i].profile,
                                         requests[i].length);
                if (memo.lookup(keys[i], results[i])) {
                    results[i].from_cache = true;
                    hits.fetch_add(1);
                    atomicAdd(saved, results[i].wall_seconds);
                    continue;
                }
                auto [it, inserted] =
                    first_of_key.emplace(keys[i].key, i);
                if (!inserted) {
                    dups.emplace_back(i, it->second);
                    continue;
                }
            } else if (opts.use_cache && requests[i].obs.enabled()) {
                // Observed runs are always simulated fresh: the run
                // cache stores end-of-run metrics only, not the event
                // stream or timeline a sink would have recorded.
                warnOnce("observability enabled: %s / %s bypasses the "
                         "run cache (observed runs are never memoized)",
                         requests[i].profile.name.c_str(),
                         requests[i].spec.description().c_str());
            }
            misses.push_back(i);
        }
    }

    if (!misses.empty()) {
        auto work = [&](std::size_t idx) {
            const RunRequest &r = requests[idx];
            // Top-level span over the whole run, so System set-up and
            // metrics finalization around the nested simulate span
            // still count toward footer coverage; its *self* time is
            // exactly that per-run overhead.
            EngineSpan wspan("run-unit", r.profile.name);
            System sys(r.spec, r.profile, r.length);
            ObsConfig cfg = r.obs;
            cfg.run_cache_bypassed = opts.use_cache && cfg.enabled();
            sys.enableObservability(cfg);
            results[idx] = sys.runAll();
        };

        const unsigned jobs = jobsFor(misses.size());
        if (jobs <= 1) {
            for (std::size_t idx : misses)
                work(idx);
        } else {
            // Touch the shared const singletons (SRAM model, tech
            // point, workload table) on this thread; workers then only
            // ever read them.
            touchSharedSimulationState();
            std::atomic<std::size_t> next{0};
            std::vector<std::thread> pool;
            pool.reserve(jobs);
            for (unsigned t = 0; t < jobs; ++t) {
                pool.emplace_back([&] {
                    for (;;) {
                        const std::size_t k = next.fetch_add(1);
                        if (k >= misses.size())
                            break;
                        work(misses[k]);
                    }
                });
            }
            for (auto &th : pool)
                th.join();
        }
        simulated.fetch_add(misses.size());
        for (std::size_t idx : misses)
            atomicAdd(simSecs, results[idx].wall_seconds);

        if (opts.use_cache) {
            EngineSpan span("cache-store",
                            strprintf("store %zu results",
                                      misses.size()));
            for (std::size_t idx : misses) {
                if (!requests[idx].obs.enabled())
                    memo.store(keys[idx], results[idx]);
            }
            if (!opts.cache_file.empty())
                memo.saveFile(opts.cache_file);
        }
    }
    for (const auto &[dup, src] : dups) {
        results[dup] = results[src];
        results[dup].from_cache = true;
        hits.fetch_add(1);
        atomicAdd(saved, results[dup].wall_seconds);
    }
    return results;
}

RunMetrics
RunEngine::runOne(const OrgSpec &spec, const WorkloadProfile &profile,
                  const SimLength &length)
{
    return runMany({RunRequest{spec, profile, length}}).front();
}

std::vector<RunMetrics>
RunEngine::runSuite(const OrgSpec &spec,
                    const std::vector<WorkloadProfile> &suite,
                    const SimLength &length)
{
    std::vector<RunRequest> requests;
    requests.reserve(suite.size());
    for (const auto &profile : suite)
        requests.push_back(RunRequest{spec, profile, length});
    return runMany(requests);
}

std::vector<std::vector<RunMetrics>>
RunEngine::runSuites(const std::vector<OrgSpec> &specs,
                     const std::vector<WorkloadProfile> &suite,
                     const SimLength &length)
{
    std::vector<RunRequest> requests;
    requests.reserve(specs.size() * suite.size());
    for (const auto &spec : specs)
        for (const auto &profile : suite)
            requests.push_back(RunRequest{spec, profile, length});
    std::vector<RunMetrics> flat = runMany(requests);

    std::vector<std::vector<RunMetrics>> out(specs.size());
    auto it = flat.begin();
    for (auto &row : out) {
        row.assign(std::make_move_iterator(it),
                   std::make_move_iterator(it + suite.size()));
        it += suite.size();
    }
    return out;
}

void
RunEngine::atomicAdd(std::atomic<double> &target, double delta)
{
    double cur = target.load();
    while (!target.compare_exchange_weak(cur, cur + delta)) {
    }
}

RunEngine &
globalRunEngine()
{
    static RunEngine engine;
    return engine;
}

} // namespace nurapid
