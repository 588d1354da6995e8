/**
 * @file
 * perfbench_sim: the simulator's benchmark. One process, a fixed pool
 * of kWorkers threads, three workloads (see README.md for why each
 * exists):
 *
 *  - replay-lowload / replay-highload: traces are built during set-up;
 *    each timed iteration re-runs the whole (organization x profile)
 *    batch through RunEngine::runSuites with the run cache off.
 *  - cold-pipeline: each timed iteration generates, distills and stores
 *    fresh streams, runs NuRAPID and saves the run cache, drops the
 *    registries, runs D-NUCA on the streams mmap-loaded back, and
 *    re-requests NuRAPID from the run cache.
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics of a separate traced run. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hh"
#include "sim/org_dispatch.hh"
#include "sim/runner/run_cache.hh"
#include "sim/runner/run_engine.hh"
#include "timing/geometry.hh"
#include "timing/latency_tables.hh"
#include "timing/tech.hh"
#include "trace/distilled_trace.hh"
#include "trace/packed_trace.hh"
#include "trace/profiles.hh"

namespace perfbench {
namespace {

using namespace nurapid;
namespace fs = std::filesystem;

/** Taken during static initialization, i.e. at process start. */
const Clock::time_point kProcessStart = Clock::now();

/**
 * Fixed worker count of the timed iterations and set-up. One worker:
 * on the 4-vCPU VM this was tuned on, two busy workers lose about a
 * third of their time to hypervisor steal, and their wall-clock
 * throughput then spreads by 13-17% across processes (interquartile
 * range over seeds) against about 3% on one worker.
 */
constexpr unsigned kWorkers = 1;
/** Workers of the traced run's parallel-efficiency batches. */
constexpr unsigned kParallelJobs = 2;
constexpr std::uint64_t kDefaultSeed = 0;
/** Set-up is repeated and its median reported: one pass swings by
 *  ~10% with the host's speed. */
constexpr int kSetupPasses = 7;
constexpr int kMinIterations = 5;
/** Repetitions of each layer measurement in a traced run. */
constexpr int kLayerReps = 3;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += kGolden;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

struct NamedOrg
{
    std::string layer;  //!< metric prefix, "<module>.<org>"
    OrgSpec spec;
};

/** The five organizations of the paper's comparison. */
std::vector<NamedOrg>
defaultOrgs()
{
    return {{"mem.base", OrgSpec::baseline()},
            {"nuca.snuca", OrgSpec::snucaDefault()},
            {"nuca.dnuca", OrgSpec::dnucaSsPerformance()},
            {"nurapid.sa_place", OrgSpec::coupledSA()},
            {"nurapid.nurapid", OrgSpec::nurapidDefault()}};
}

struct Workload
{
    std::string name;
    bool cold = false;
    std::vector<WorkloadProfile> profiles;  //!< before the seed is applied
    std::vector<OrgSpec> orgs;              //!< the timed batch
    SimLength length;
};

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    for (const NamedOrg &o : defaultOrgs())
        w.orgs.push_back(o.spec);
    w.length.warmup_records = 250'000;
    w.length.measure_records = 750'000;
    if (name == "replay-lowload") {
        w.profiles = lowLoadSuite();
    } else if (name == "replay-highload") {
        w.profiles = highLoadSuite();
        // The NuRAPID variants of Figures 5-8.
        w.orgs.push_back(OrgSpec::nurapidDefault(2));
        w.orgs.push_back(OrgSpec::nurapidDefault(8));
        w.orgs.push_back(
            OrgSpec::nurapidDefault(4, PromotionPolicy::Fastest));
        w.orgs.push_back(
            OrgSpec::nurapidDefault(4, PromotionPolicy::DemotionOnly));
        w.orgs.push_back(OrgSpec::nurapidDefault(
            4, PromotionPolicy::NextFastest, DistanceRepl::LRU));
        // Half-length runs: 120 of them per iteration still take ~2.5 s.
        w.length.warmup_records = 125'000;
        w.length.measure_records = 375'000;
    } else if (name == "cold-pipeline") {
        w.cold = true;
        for (const char *p : {"mcf", "swim", "gzip"})
            w.profiles.push_back(findProfile(p));
        w.orgs = {OrgSpec::nurapidDefault(), OrgSpec::dnucaSsPerformance()};
        w.length.warmup_records = 100'000;
        w.length.measure_records = 300'000;
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        std::exit(2);
    }
    return w;
}

std::uint64_t
totalRecords(const SimLength &l)
{
    return l.warmup_records + l.measure_records;
}

/** The segment cuts System asks the distiller for. */
std::vector<std::uint64_t>
cutsOf(const SimLength &l)
{
    std::vector<std::uint64_t> cuts;
    if (l.warmup_records > 0 && l.warmup_records < totalRecords(l))
        cuts.push_back(l.warmup_records);
    cuts.push_back(totalRecords(l));
    return cuts;
}

/** The benchmark seed shifts every profile's stream seed; the default
 *  seed leaves the repository's calibrated streams unchanged. */
std::vector<WorkloadProfile>
seededProfiles(const Workload &w, std::uint64_t seed)
{
    std::vector<WorkloadProfile> out = w.profiles;
    for (WorkloadProfile &p : out)
        p.seed += seed * kGolden;
    return out;
}

/** Fresh stream seeds for one cold-pipeline iteration. */
std::vector<WorkloadProfile>
coldProfiles(const Workload &w, std::uint64_t seed, std::uint64_t iteration)
{
    std::vector<WorkloadProfile> out = w.profiles;
    for (WorkloadProfile &p : out)
        p.seed += splitmix(seed * kGolden + iteration + 1);
    return out;
}

DistillParams
distillParamsOf(System &sys)
{
    DistillParams dp;
    dp.l1i = sys.l1i().org();
    dp.l1d = sys.l1d().org();
    dp.bp_entries = sys.core().branchPredictor().entries();
    dp.bp_history_bits = sys.core().branchPredictor().historyBits();
    dp.mshr_block_bytes = sys.core().params().mshr_block_bytes;
    return dp;
}

/** The distillation parameters System uses, read off a tiny probe
 *  System whose stream no workload shares. */
DistillParams
probeDistillParams()
{
    WorkloadProfile p = findProfile("gzip");
    p.seed = splitmix(0x9e0be);
    DistillParams dp;
    {
        System sys(OrgSpec::baseline(), p, SimLength{0, 1024});
        dp = distillParamsOf(sys);
    }
    dropUnusedDistilledTraces();
    dropUnusedPackedTraces();
    return dp;
}

void
dropRegistries()
{
    dropUnusedDistilledTraces();
    dropUnusedPackedTraces();
}

/** Runs fn(0..n-1) on up to @p jobs threads; joins them all. */
void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t k; (k = next.fetch_add(1)) < n;)
            fn(k);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::min<std::size_t>(jobs, n); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
}

RunEngineOptions
engineOptions(unsigned jobs, const std::string &cache_file, bool use_cache)
{
    RunEngineOptions opts;
    opts.jobs = jobs;
    opts.use_cache = use_cache;
    opts.cache_file = cache_file;
    return opts;
}

std::string
runKey(const RunMetrics &m)
{
    return m.organization + " / " + m.workload;
}

/** The correctness gate: accounting invariants on every run, and one
 *  digest per run position that must repeat bit-for-bit. */
class Gate
{
  public:
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** Returns true when the run passes; a failing run is counted.
     *  @p slot is the run's position in the batch; kNoSlot for runs
     *  whose inputs never repeat (cold-pipeline). */
    bool
    check(const RunMetrics &m, std::size_t slot)
    {
        ++attempted;
        std::string err = checkRun(m);
        if (err.empty() && slot != kNoSlot) {
            const std::uint64_t d = runDigest(m);
            if (slot == digests.size())
                digests.push_back(d);
            else if (digests.at(slot) != d)
                err = "digest changed across iterations";
        }
        if (err.empty())
            return true;
        fail(runKey(m) + ": " + err);
        return false;
    }

    void
    fail(const std::string &why)
    {
        ++failed;
        error(why);
    }

    /** A check that is not about one run (the result stays incorrect
     *  without counting a failed operation). */
    void
    error(const std::string &why)
    {
        ok = false;
        if (errors.size() < 8)
            errors.push_back(why);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool ok = true;
    std::vector<std::string> errors;
    std::vector<std::uint64_t> digests;  //!< first digest of each slot
};

/** One timed iteration's host-side cost. */
struct Iteration
{
    double wall = 0;
    double cpu = 0;
    double refs = 0;         //!< simulated references of passing runs
    double run_seconds = 0;  //!< sum of the runs' own wall_seconds
    double engine_wall = 0;  //!< wall time inside the run engine
};

struct Context
{
    Workload w;
    std::uint64_t seed = kDefaultSeed;
    DistillParams dp;
    std::string work_dir;  //!< trace and run cache files (cold-pipeline)
};

using Spans = SpanRecorder *;

/** One replay iteration: the whole batch through the run engine. */
Iteration
replayIteration(RunEngine &engine, const Context &cx,
                const std::vector<WorkloadProfile> &profiles, Gate &gate,
                Spans spans, std::vector<RunMetrics> *out = nullptr)
{
    Iteration it;
    const Clock::time_point t0 = Clock::now();
    const double c0 = processCpuSeconds();
    std::vector<std::vector<RunMetrics>> res;
    if (spans) {
        SpanRecorder::Scope s(*spans, "sim.runner.run_suites", cx.w.name,
                              cx.w.orgs.size() * profiles.size());
        res = engine.runSuites(cx.w.orgs, profiles, cx.w.length);
    } else {
        res = engine.runSuites(cx.w.orgs, profiles, cx.w.length);
    }
    it.wall = secondsSince(t0);
    it.cpu = processCpuSeconds() - c0;
    it.engine_wall = it.wall;
    std::size_t slot = 0;
    for (const auto &row : res) {
        for (const RunMetrics &m : row) {
            if (gate.check(m, slot++)) {
                it.refs += totalRecords(cx.w.length);
                it.run_seconds += m.wall_seconds;
            }
            if (out)
                out->push_back(m);
        }
    }
    return it;
}

void
clearDirectory(const std::string &dir)
{
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        fs::remove_all(entry.path(), ec);
}

/**
 * One cold-pipeline iteration on fresh stream seeds. @p digests_out
 * receives every run's digest in request order. Everything between
 * the two clock reads is timed; checks and clean-up are not.
 */
Iteration
coldIteration(const Context &cx, std::uint64_t iteration, unsigned jobs,
              Gate &gate, Spans spans,
              std::vector<std::uint64_t> *digests_out = nullptr)
{
    const Workload &w = cx.w;
    const std::vector<WorkloadProfile> profiles =
        coldProfiles(w, cx.seed, iteration);
    const std::uint64_t total = totalRecords(w.length);
    const std::vector<std::uint64_t> cuts = cutsOf(w.length);
    const OrgSpec nurapid = OrgSpec::nurapidDefault();
    const OrgSpec dnuca = OrgSpec::dnucaSsPerformance();
    const std::string cache_file = cx.work_dir + "/run_cache.json";
    const RunEngineOptions opts = engineOptions(jobs, cache_file, true);
    auto span = [&](const char *name, std::uint64_t count) {
        return spans ? std::make_unique<SpanRecorder::Scope>(
                           *spans, name, w.name, count)
                     : nullptr;
    };

    Iteration it;
    std::vector<RunMetrics> fresh, second;
    std::uint64_t hits = 0;
    const Clock::time_point t0 = Clock::now();
    const double c0 = processCpuSeconds();
    {
        // 1-2. Generate and distill; the trace-cache directory makes
        // both registries store what they build.
        auto s = span("trace.shared_distilled_trace",
                      total * profiles.size());
        parallelFor(profiles.size(), jobs, [&](std::size_t k) {
            sharedDistilledTrace(profiles[k], total, cuts, cx.dp);
        });
    }
    {
        // 3. NuRAPID; the engine saves the run cache after the batch.
        auto s = span("sim.runner.run_suite", profiles.size());
        const Clock::time_point e0 = Clock::now();
        RunEngine engine(opts);
        fresh = engine.runSuite(nurapid, profiles, w.length);
        it.engine_wall += secondsSince(e0);
    }
    {
        // 4. Forget the streams, so D-NUCA maps them back from disk;
        // the NuRAPID re-requests come back from the loaded run cache.
        auto s = span("trace.drop_unused_traces", 0);
        dropRegistries();
    }
    {
        std::vector<RunRequest> requests;
        for (const OrgSpec &spec : {dnuca, nurapid})
            for (const WorkloadProfile &p : profiles)
                requests.push_back(RunRequest{spec, p, w.length});
        auto s = span("sim.runner.run_many", requests.size());
        const Clock::time_point e0 = Clock::now();
        RunEngine engine(opts);
        second = engine.runMany(requests);
        hits = engine.cacheHits();
        it.engine_wall += secondsSince(e0);
    }
    it.wall = secondsSince(t0);
    it.cpu = processCpuSeconds() - c0;

    const std::size_t n = profiles.size();
    for (const RunMetrics &m : fresh) {
        if (gate.check(m, Gate::kNoSlot)) {
            it.refs += total;
            it.run_seconds += m.wall_seconds;
        }
    }
    for (std::size_t k = 0; k < second.size(); ++k) {
        const RunMetrics &m = second[k];
        const bool hit = k >= n;
        bool pass = gate.check(m, Gate::kNoSlot);
        if (pass && hit &&
            (!m.from_cache || runDigest(m) != runDigest(fresh[k - n]))) {
            gate.fail(runKey(m) + ": run-cache hit differs from the "
                                  "simulated result");
            pass = false;
        }
        if (pass && !hit) {
            it.refs += total;
            it.run_seconds += m.wall_seconds;
        }
    }
    if (hits != n) {
        gate.error(strprintf("cold-pipeline: %llu run-cache hits, expected %zu",
                             static_cast<unsigned long long>(hits), n));
    }
    for (const WorkloadProfile &p : profiles) {
        if (!sharedDistilledTrace(p, total, cuts, cx.dp)->fromFile()) {
            gate.error("cold-pipeline: " + p.name +
                       " stream was not loaded back from the trace cache");
        }
    }
    if (digests_out) {
        for (const RunMetrics &m : fresh)
            digests_out->push_back(runDigest(m));
        for (const RunMetrics &m : second)
            digests_out->push_back(runDigest(m));
    }
    dropRegistries();
    clearDirectory(cx.work_dir);
    return it;
}

/** Builds the SRAM macro model and the latency/energy tables of the
 *  five default organizations, as their constructors do. */
double
buildTimingModel()
{
    const SramMacroModel model(TechParams::the70nm());
    const OrgSpec base = OrgSpec::baseline();
    const OrgSpec dn = OrgSpec::dnucaSsPerformance();
    const OrgSpec nr = OrgSpec::nurapidDefault();
    const OrgSpec sa = OrgSpec::coupledSA();
    const UniformCacheTiming l2 = makeUniformTiming(
        model, base.base.l2.capacity_bytes, base.base.l2.assoc,
        base.base.l2.block_bytes, true, 1, base.base.l2_latency);
    const UniformCacheTiming l3 = makeUniformTiming(
        model, base.base.l3.capacity_bytes, base.base.l3.assoc,
        base.base.l3.block_bytes, true, 1, base.base.l3_latency);
    const DNucaTiming dt = makeDNucaTiming(model, dn.dnuca.capacity_bytes,
                                           dn.dnuca.rows, dn.dnuca.cols,
                                           dn.dnuca.block_bytes);
    const NuRapidTiming nt = makeNuRapidTiming(
        model, nr.nurapid.capacity_bytes, nr.nurapid.num_dgroups,
        nr.nurapid.assoc, nr.nurapid.block_bytes);
    const NuRapidTiming st = makeNuRapidTiming(
        model, sa.coupled.capacity_bytes, sa.coupled.num_dgroups,
        sa.coupled.assoc, sa.coupled.block_bytes);
    // Consume the tables so none of the work can be elided.
    return l2.read_nj + l3.read_nj + dt.ss_access_nj +
        static_cast<double>(nt.numDGroups() + st.numDGroups());
}

/**
 * One set-up pass: the timing model, the seeded profile table, and
 * either every replay stream (generated and distilled on the worker
 * pool) or, for cold-pipeline, one untimed warm-up iteration.
 */
void
setupPass(const Context &cx, int pass, Spans spans,
          std::vector<std::shared_ptr<const DistilledTrace>> *keep)
{
    volatile double sink = 0;
    {
        auto s = spans ? std::make_unique<SpanRecorder::Scope>(
                             *spans, "timing.model_build", cx.w.name, 1)
                       : nullptr;
        sink = sink + buildTimingModel();
    }
    if (cx.w.cold) {
        Gate scratch;
        coldIteration(cx, ~std::uint64_t{0} - pass, kWorkers, scratch,
                      nullptr);
        return;
    }
    const std::vector<WorkloadProfile> profiles =
        seededProfiles(cx.w, cx.seed);
    const std::uint64_t total = totalRecords(cx.w.length);
    const std::vector<std::uint64_t> cuts = cutsOf(cx.w.length);
    std::vector<std::shared_ptr<const DistilledTrace>> streams(
        profiles.size());
    parallelFor(profiles.size(), kWorkers, [&](std::size_t k) {
        streams[k] = sharedDistilledTrace(profiles[k], total, cuts, cx.dp);
    });
    if (keep)
        *keep = std::move(streams);
}

/** Median of a ratio over iterations. */
double
medianOf(const std::vector<Iteration> &its,
         const std::function<double(const Iteration &)> &f)
{
    std::vector<double> v;
    for (const Iteration &it : its)
        v.push_back(f(it));
    return median(v);
}

double
parallelEfficiencyPct(const std::vector<Iteration> &its, unsigned jobs)
{
    return 100.0 * medianOf(its, [jobs](const Iteration &it) {
        return it.run_seconds / (jobs * it.engine_wall);
    });
}

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 30;
    bool trace = false;
    std::string reference;  //!< expected batch digest at the default seed
    std::string work_dir;
    std::string spans_out;
    std::string source = "unknown";  //!< commit / source digest
    bool self_test = false;
};

std::vector<std::string>
provenance(const Args &a, const Context &cx)
{
    const Workload &w = cx.w;
    return {
        strprintf("perfbench workload=%s seed=%llu seconds=%g trace=%d",
                  w.name.c_str(), static_cast<unsigned long long>(a.seed),
                  a.seconds, a.trace ? 1 : 0),
        "source: " + a.source,
        strprintf("build: type=%s lto=%s flags=%s compiler=%s",
                  PERFBENCH_BUILD_TYPE, PERFBENCH_LTO, PERFBENCH_FLAGS,
                  compilerName().c_str()),
        strprintf("host: nproc=%u cpu=%s workers=%u",
                  std::thread::hardware_concurrency(), cpuModel().c_str(),
                  kWorkers),
        strprintf("run length: %llu warm-up + %llu measured records per "
                  "run; %zu profiles x %zu organizations; %d set-up passes",
                  static_cast<unsigned long long>(w.length.warmup_records),
                  static_cast<unsigned long long>(w.length.measure_records),
                  w.profiles.size(), w.orgs.size(), kSetupPasses),
    };
}

void
printResult(const Gate &gate, const std::vector<Metric> &metrics)
{
    for (const std::string &e : gate.errors)
        std::printf("check failed: %s\n", e.c_str());
    for (const Metric &m : metrics)
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                gate.ok && gate.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    gate.attempted, 1)),
                static_cast<unsigned long long>(gate.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Base-organization IPC and L2 APKI against the paper's Table 3. */
void
printAccuracy(const std::vector<RunMetrics> &runs)
{
    double ipc_err = 0, apki_err = 0;
    int n = 0;
    for (const RunMetrics &m : runs) {
        if (m.organization != OrgSpec::baseline().description())
            continue;
        const WorkloadProfile &p = findProfile(m.workload);
        ipc_err += std::fabs(m.ipc - p.table3_ipc) / p.table3_ipc;
        apki_err += std::fabs(m.l2_apki - p.table3_l2_apki) / p.table3_l2_apki;
        ++n;
    }
    if (n == 0) {
        std::printf("accuracy: no base-organization runs in this workload; "
                    "the simulated results are unvalidated here\n");
        return;
    }
    std::printf("accuracy: base L2/L3 vs Table 3 over %d profiles: mean "
                "|IPC error| %.1f%%, mean |L2 APKI error| %.1f%%; NuRAPID "
                "and the other organizations are unvalidated beyond the "
                "paper's shape claims\n",
                n, 100.0 * ipc_err / n, 100.0 * apki_err / n);
}

/** Runs iterations until @p seconds have passed (and at least
 *  kMinIterations have run). */
template <class Fn>
std::vector<Iteration>
timedLoop(double seconds, Fn &&iterate)
{
    std::vector<Iteration> its;
    const Clock::time_point start = Clock::now();
    while (its.size() < kMinIterations || secondsSince(start) < seconds)
        its.push_back(iterate(its.size()));
    return its;
}

double
setup(const Context &cx, Spans spans,
      std::vector<std::shared_ptr<const DistilledTrace>> &streams)
{
    std::vector<double> passes;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
        if (pass > 0)
            dropRegistries();
        const Clock::time_point t0 = pass == 0 ? kProcessStart : Clock::now();
        std::unique_ptr<SpanRecorder::Scope> s;
        if (spans)
            s = std::make_unique<SpanRecorder::Scope>(*spans, "bench.setup",
                                                      cx.w.name);
        setupPass(cx, pass, spans, pass + 1 == kSetupPasses ? &streams
                                                            : nullptr);
        passes.push_back(secondsSince(t0));
    }
    return median(passes);
}

/** The batch digest of the first timed iteration, checked against the
 *  stored reference at the default seed. */
void
checkReference(const Args &a, const std::vector<std::uint64_t> &digests,
               Gate &gate)
{
    const std::string got = hex(combineDigests(digests));
    std::printf("digest: %s (seed %llu)\n", got.c_str(),
                static_cast<unsigned long long>(a.seed));
    if (a.seed != kDefaultSeed)
        return;
    if (a.reference.empty())
        gate.error("no stored reference digest for the default seed");
    else if (got != a.reference)
        gate.error("batch digest " + got + " != stored reference " +
                   a.reference);
}

/** Checks that the timed iterations replayed the streams set-up built
 *  instead of building their own. */
void
checkStreamsReused(
    const Context &cx,
    const std::vector<std::shared_ptr<const DistilledTrace>> &streams,
    Gate &gate)
{
    const std::vector<WorkloadProfile> profiles =
        seededProfiles(cx.w, cx.seed);
    for (std::size_t k = 0; k < profiles.size(); ++k) {
        if (sharedDistilledTrace(profiles[k], totalRecords(cx.w.length),
                                 cutsOf(cx.w.length), cx.dp) != streams[k])
            gate.error(profiles[k].name +
                       ": timed iterations did not reuse the set-up stream");
    }
}

// ---------------------------------------------------------------------
// Per-layer measurements (traced run)
// ---------------------------------------------------------------------

/** Layer times of one (organization, profile) run, seconds: medians
 *  over kLayerReps. */
struct RunLayers
{
    double build = 0;
    double access = 0;
};

class LayerProbe
{
  public:
    LayerProbe(const Context &cx, SpanRecorder &spans, Gate &gate)
        : cx(cx), spans(spans), gate(gate)
    {
    }

    /**
     * Captures @p spec's L2 stream on @p p through the recording
     * wrapper (checking that the wrapped run matches @p reference, a
     * System::runAll digest), then replays it kLayerReps times into a
     * fresh organization (checking that each replay reproduces the
     * organization's statistics). Returns the median build and access
     * times.
     */
    RunLayers
    orgRun(const std::string &layer, const OrgSpec &spec,
           const WorkloadProfile &p, std::uint64_t reference)
    {
        const SimLength &L = cx.w.length;
        const std::string detail = spec.description() + " / " + p.name;
        std::unique_ptr<System> sys;
        for (int r = 0; r < kLayerReps; ++r) {
            sys.reset();
            SpanRecorder::Scope s(spans, "sim.system.build", detail, 1);
            sys = std::make_unique<System>(spec, p, L);
        }

        std::vector<L2Access> log;
        std::size_t warm_mark = 0;
        {
            auto stream = sharedDistilledTrace(p, totalRecords(L), cutsOf(L),
                                               distillParamsOf(*sys));
            DistilledTrace::Cursor cur = stream->cursor();
            RecordingMemory rec(sys->lower(), log);
            sys->core().runDistilled(rec, cur, L.warmup_records);
            sys->core().resetStats();
            sys->lower().resetStats();
            warm_mark = log.size();
            sys->core().runDistilled(rec, cur, L.measure_records);
        }
        const RunMetrics wrapped = sys->metrics();
        const std::string err = checkRun(wrapped);
        if (!err.empty())
            gate.error(detail + " (wrapped): " + err);
        if (runDigest(wrapped) != reference)
            gate.error(detail + ": recording wrapper changed the run's "
                                "digest");

        for (int r = 0; r < kLayerReps; ++r) {
            std::unique_ptr<LowerMemory> org = makeOrganization(spec);
            {
                SpanRecorder::Scope s(spans, layer + ".access", detail,
                                      log.size());
                withConcreteOrg(*org, spec.kind, [&](auto &o) {
                    for (std::size_t i = 0; i < log.size(); ++i) {
                        if (i == warm_mark)
                            o.resetStats();
                        o.access(log[i].addr, log[i].type, log[i].now);
                    }
                    if (warm_mark == log.size())
                        o.resetStats();
                });
            }
            if (!sameOrgStats(*org, sys->lower()))
                gate.error(detail + ": replaying the captured stream did "
                                    "not reproduce the statistics");
        }
        RunLayers out;
        out.build = median(spans.durations("sim.system.build", detail));
        out.access = median(spans.durations(layer + ".access", detail));
        return out;
    }

    /** Times the core's distilled replay of @p p over the null
     *  organization; checks it consumes exactly the records asked. */
    double
    nullReplay(const WorkloadProfile &p)
    {
        const SimLength &L = cx.w.length;
        const std::uint64_t total = totalRecords(L);
        System sys(OrgSpec::baseline(), p, L);  // for core and L1 params
        auto stream = sharedDistilledTrace(p, total, cutsOf(L),
                                           distillParamsOf(sys));
        events += stream->eventCount();
        for (int r = 0; r < kLayerReps; ++r) {
            SetAssocCache l1i(sys.l1i().org());
            SetAssocCache l1d(sys.l1d().org());
            NullMemory null;
            OooCore core(sys.core().params(), l1i, l1d, null);
            DistilledTrace::Cursor cur = stream->cursor();
            {
                SpanRecorder::Scope s(spans, "cpu.replay", p.name, total);
                core.runDistilled(null, cur, total);
            }
            if (cur.pos != total || core.instructions() == 0)
                gate.error(strprintf("%s: null replay consumed %llu of "
                                     "%llu records",
                                     p.name.c_str(),
                                     static_cast<unsigned long long>(cur.pos),
                                     static_cast<unsigned long long>(total)));
        }
        return median(spans.durations("cpu.replay", p.name));
    }

    std::uint64_t events = 0;  //!< distilled events over nullReplay calls

  private:
    const Context &cx;
    SpanRecorder &spans;
    Gate &gate;
};

/**
 * Generation, distillation, and the trace-cache store and load, on the
 * first (up to) three profiles. Leaves the registries empty.
 */
void
traceLayers(const Context &cx, const std::vector<WorkloadProfile> &all,
            SpanRecorder &spans, std::map<std::string, double> &out)
{
    const SimLength &L = cx.w.length;
    const std::uint64_t total = totalRecords(L);
    const std::vector<std::uint64_t> cuts = cutsOf(L);
    dropRegistries();

    std::uint64_t records = 0, events = 0;
    for (int r = 0; r < kLayerReps; ++r) {
        for (const WorkloadProfile &p : all) {
            std::unique_ptr<PackedTrace> packed;
            {
                SpanRecorder::Scope s(spans, "trace.gen", p.name, total);
                packed = std::make_unique<PackedTrace>(p, total);
            }
            packed.reset();
            const auto input = sharedPackedTrace(p, total);
            SpanRecorder::Scope s(spans, "trace.distill", p.name, total);
            const DistilledTrace dt(p, total, cuts, cx.dp);
            if (r == 0) {
                records += total;
                events += dt.eventCount();
            }
        }
        dropRegistries();
    }
    out["trace.gen_mrec_per_s"] = spans.totalCount("trace.gen") /
        spans.totalSeconds("trace.gen") / 1e6;
    out["trace.distill_mrec_per_s"] = spans.totalCount("trace.distill") /
        spans.totalSeconds("trace.distill") / 1e6;
    out["trace.events_per_krec"] = 1000.0 * events / records;

    // Store: the extra time a build takes when the trace-cache directory
    // is set (and cold). Load: the same requests with it warm.
    const std::vector<WorkloadProfile> some(
        all.begin(), all.begin() + std::min<std::size_t>(3, all.size()));
    const std::string dir = cx.work_dir + "/trace-layer";
    auto build = [&](const char *name) {
        SpanRecorder::Scope s(spans, name, "layer", total * some.size());
        for (const WorkloadProfile &p : some) {
            sharedPackedTrace(p, total);
            sharedDistilledTrace(p, total, cuts, cx.dp);
        }
    };
    for (int r = 0; r < kLayerReps; ++r) {
        fs::create_directories(dir);
        unsetenv("NURAPID_TRACE_CACHE_DIR");
        build("trace.build_nodir");
        dropRegistries();
        setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);
        build("trace.build_store");
        dropRegistries();
        build("trace.load");
        dropRegistries();
        fs::remove_all(dir);
    }
    unsetenv("NURAPID_TRACE_CACHE_DIR");
    out["trace.store_ms"] =
        1e3 * (median(spans.durations("trace.build_store")) -
               median(spans.durations("trace.build_nodir")));
    out["trace.load_ms"] = 1e3 * median(spans.durations("trace.load"));
}

/**
 * Run-cache save and load of the batch's results, and the hit rate of
 * re-requesting the batch from the saved file.
 */
void
cacheLayers(const Context &cx, const std::vector<WorkloadProfile> &profiles,
            const std::vector<OrgSpec> &orgs, SpanRecorder &spans,
            Gate &gate, std::map<std::string, double> &out)
{
    const std::string path = cx.work_dir + "/layer_run_cache.json";
    RunEngine engine(engineOptions(kWorkers, "", true));
    engine.runSuites(orgs, profiles, cx.w.length);
    for (int r = 0; r < kLayerReps; ++r) {
        std::remove(path.c_str());
        {
            SpanRecorder::Scope s(spans, "sim.runner.cache_save", cx.w.name,
                                  engine.cache().size());
            if (!engine.cache().saveFile(path))
                gate.error("run cache save failed");
        }
        RunCache loaded;
        SpanRecorder::Scope s(spans, "sim.runner.cache_load", cx.w.name,
                              engine.cache().size());
        loaded.loadFile(path);
    }
    RunEngine again(engineOptions(kWorkers, path, true));
    again.runSuites(orgs, profiles, cx.w.length);
    const double requests = static_cast<double>(orgs.size() * profiles.size());
    out["sim.runner.cache_save_ms"] =
        1e3 * median(spans.durations("sim.runner.cache_save"));
    out["sim.runner.cache_load_ms"] =
        1e3 * median(spans.durations("sim.runner.cache_load"));
    out["sim.runner.cache_hit_pct"] = 100.0 * again.cacheHits() / requests;
    std::remove(path.c_str());
}

std::map<std::string, double>
measureLayers(const Context &cx, const std::vector<WorkloadProfile> &profiles,
              const std::map<std::string, std::uint64_t> &batch_digests,
              double serial_wall, SpanRecorder &spans, Gate &gate)
{
    std::map<std::string, double> out;
    const SimLength &L = cx.w.length;

    for (int r = 0; r < 20; ++r) {
        volatile double sink = 0;
        SpanRecorder::Scope s(spans, "timing.model_build", "layer", 1);
        sink = sink + buildTimingModel();
    }
    out["timing.model_build_ms"] =
        1e3 * median(spans.durations("timing.model_build", "layer"));

    for (const NamedOrg &o : defaultOrgs())
        out[o.layer + ".hot_state_kib"] =
            makeOrganization(o.spec)->hotStateBytes() / 1024.0;

    // Organizations to capture: the batch's plus any of the five
    // defaults it lacks (those need a System::runAll reference).
    std::vector<NamedOrg> capture;
    std::set<std::string> in_batch;
    for (const OrgSpec &spec : cx.w.orgs) {
        std::string layer = "nurapid.variant";
        for (const NamedOrg &d : defaultOrgs())
            if (d.spec.description() == spec.description())
                layer = d.layer;
        capture.push_back({layer, spec});
        in_batch.insert(spec.description());
    }
    for (const NamedOrg &d : defaultOrgs())
        if (!in_batch.count(d.spec.description()))
            capture.push_back(d);

    LayerProbe probe(cx, spans, gate);
    double layered = 0;  //!< layer time of one serial batch, seconds
    for (const WorkloadProfile &p : profiles) {
        const double cpu = probe.nullReplay(p);
        for (const NamedOrg &o : capture) {
            const std::string key = o.spec.description() + " / " + p.name;
            std::uint64_t reference = 0;
            if (auto it = batch_digests.find(key); it != batch_digests.end()) {
                reference = it->second;
            } else {
                System sys(o.spec, p, L);
                reference = runDigest(sys.runAll());
            }
            const RunLayers t = probe.orgRun(o.layer, o.spec, p, reference);
            if (in_batch.count(o.spec.description()))
                layered += t.build + cpu + t.access;
        }
    }
    for (const NamedOrg &d : defaultOrgs()) {
        out[d.layer + ".access_ns"] = 1e9 *
            spans.totalSeconds(d.layer + ".access") /
            static_cast<double>(spans.totalCount(d.layer + ".access"));
    }
    const double replay_s = spans.totalSeconds("cpu.replay");
    out["cpu.replay_ns_per_record"] =
        1e9 * replay_s / spans.totalCount("cpu.replay");
    out["cpu.replay_ns_per_event"] =
        1e9 * replay_s / (static_cast<double>(probe.events) * kLayerReps);
    out["sim.system.build_ms"] =
        1e3 * median(spans.durations("sim.system.build"));

    cacheLayers(cx, profiles, cx.w.cold
                    ? std::vector<OrgSpec>{OrgSpec::nurapidDefault()}
                    : cx.w.orgs,
                spans, gate, out);
    traceLayers(cx, profiles, spans, out);

    if (cx.w.cold) {
        // A cold iteration also generates, distills, stores and loads
        // every stream and saves and loads the run cache twice.
        const double per_profile_gen =
            (spans.totalSeconds("trace.gen") +
             spans.totalSeconds("trace.distill")) /
            (kLayerReps * profiles.size());
        layered += profiles.size() * per_profile_gen +
            (out["trace.store_ms"] + out["trace.load_ms"]) * 1e-3 +
            (2 * out["sim.runner.cache_save_ms"] +
             2 * out["sim.runner.cache_load_ms"]) * 1e-3;
    }
    out["sim.unattributed_pct"] = 100.0 * (serial_wall - layered) / serial_wall;
    return out;
}

// ---------------------------------------------------------------------
// Self-test of the harness and of seed handling
// ---------------------------------------------------------------------

int
selfTest(const Args &a)
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };

    Context cx;
    cx.w = makeWorkload("replay-lowload");
    cx.w.length = SimLength{20'000, 60'000};
    cx.dp = probeDistillParams();
    cx.work_dir = a.work_dir;

    auto batchDigest = [&](std::uint64_t seed,
                           std::vector<RunMetrics> *runs) {
        dropRegistries();
        cx.seed = seed;
        RunEngine engine(engineOptions(kWorkers, "", false));
        Gate gate;
        replayIteration(engine, cx, seededProfiles(cx.w, seed), gate, nullptr,
                        runs);
        return std::make_pair(combineDigests(gate.digests), gate.ok);
    };
    std::vector<RunMetrics> runs;
    const auto first = batchDigest(kDefaultSeed, &runs);
    const auto again = batchDigest(kDefaultSeed, nullptr);
    const auto other = batchDigest(kDefaultSeed + 1, nullptr);
    expect(first.second, "accounting invariants hold on every run");
    expect(first.first == again.first, "the same seed reproduces the digest");
    expect(first.first != other.first, "another seed changes the digest");

    cx.seed = kDefaultSeed;
    std::map<std::string, std::uint64_t> digests;
    for (const RunMetrics &m : runs)
        digests[runKey(m)] = runDigest(m);
    SpanRecorder spans;
    Gate gate;
    LayerProbe probe(cx, spans, gate);
    const WorkloadProfile p = seededProfiles(cx.w, cx.seed).front();
    probe.nullReplay(p);
    for (const NamedOrg &o : defaultOrgs())
        probe.orgRun(o.layer, o.spec, p,
                     digests[o.spec.description() + " / " + p.name]);
    for (const std::string &e : gate.errors)
        std::printf("  %s\n", e.c_str());
    expect(gate.ok, "recording wrapper is transparent, captured streams "
                    "replay to the same statistics, null replay consumes "
                    "exactly the records requested");

    // The harness must catch a broken replay: a captured stream replayed
    // into an organization of another kind cannot match.
    Gate broken;
    LayerProbe bad(cx, spans, broken);
    bad.orgRun("mem.base", OrgSpec::baseline(), p,
               digests[OrgSpec::snucaDefault().description() + " / " +
                       p.name]);
    expect(!broken.ok, "a digest mismatch is reported");
    return failures == 0 ? 0 : 1;
}

int
run(const Args &a)
{
    Context cx;
    cx.w = makeWorkload(a.workload);
    cx.seed = a.seed;
    cx.dp = probeDistillParams();
    cx.work_dir = a.work_dir;
    if (cx.w.cold)
        setenv("NURAPID_TRACE_CACHE_DIR", cx.work_dir.c_str(), 1);

    for (const std::string &line : provenance(a, cx))
        std::printf("%s\n", line.c_str());

    SpanRecorder spans;
    Gate gate;
    std::vector<std::shared_ptr<const DistilledTrace>> streams;
    const double setup_s = setup(cx, a.trace ? &spans : nullptr, streams);

    const std::vector<WorkloadProfile> profiles =
        cx.w.cold ? coldProfiles(cx.w, cx.seed, 0)
                  : seededProfiles(cx.w, cx.seed);
    RunEngine engine(engineOptions(kWorkers, "", false));
    std::vector<RunMetrics> first_runs;
    std::vector<std::uint64_t> first_digests;
    auto iterate = [&](std::size_t i, Spans s) {
        if (cx.w.cold) {
            return coldIteration(cx, i, kWorkers, gate, s,
                                 i == 0 ? &first_digests : nullptr);
        }
        return replayIteration(engine, cx, profiles, gate, s,
                               i == 0 ? &first_runs : nullptr);
    };

    std::vector<Iteration> plain, traced;
    std::size_t next = 0;  //!< next iteration number
    if (!a.trace) {
        plain = timedLoop(a.seconds, [&](std::size_t i) {
            return iterate(i, nullptr);
        });
    } else {
        // Alternate untraced and traced iterations over the same
        // inputs; their difference is the tracing overhead.
        const Clock::time_point start = Clock::now();
        while (traced.size() < kMinIterations ||
               secondsSince(start) < a.seconds) {
            plain.push_back(iterate(next++, nullptr));
            traced.push_back(iterate(next++, &spans));
        }
    }

    if (!cx.w.cold) {
        for (const RunMetrics &m : first_runs)
            first_digests.push_back(runDigest(m));
        checkStreamsReused(cx, streams, gate);
    } else {
        // Iteration 0 again, outside the timed loop: the cold pipeline
        // must be as deterministic as the replay batches.
        std::vector<std::uint64_t> repeat;
        Gate scratch;
        coldIteration(cx, 0, kWorkers, scratch, nullptr, &repeat);
        if (repeat != first_digests)
            gate.error("cold-pipeline iteration 0 did not reproduce its "
                       "digest");
    }
    checkReference(a, first_digests, gate);
    printAccuracy(first_runs);

    std::vector<Metric> metrics;
    if (!a.trace) {
        auto per_wall = [](const Iteration &it) { return it.refs / it.wall; };
        auto per_cpu = [](const Iteration &it) { return it.refs / it.cpu; };
        metrics = {
            {"sim_mrefs_per_s", medianOf(plain, per_wall) / 1e6, "Mref/s"},
            {"sim_mrefs_per_cpu_s", medianOf(plain, per_cpu) / 1e6,
             "Mref/s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", peakRssMiB(), "MiB"},
        };
        std::vector<double> rates;
        for (const Iteration &it : plain)
            rates.push_back(per_wall(it) / 1e6);
        std::sort(rates.begin(), rates.end());
        std::printf("%zu timed iterations, Mref/s: min %.2f, p10 %.2f, "
                    "median %.2f, p90 %.2f, max %.2f\n",
                    rates.size(), rates.front(), rates[rates.size() / 10],
                    median(rates), rates[rates.size() * 9 / 10],
                    rates.back());
        printResult(gate, metrics);
        return 0;
    }

    const double overhead =
        100.0 *
        (medianOf(traced, [](const Iteration &it) { return it.wall; }) /
             medianOf(plain, [](const Iteration &it) { return it.wall; }) -
         1.0);

    // The timed iterations are serial: what the layers must add up to.
    const double serial_wall =
        medianOf(plain, [](const Iteration &it) { return it.wall; });

    // The run engine's parallel efficiency on kParallelJobs workers.
    std::vector<Iteration> parallel;
    {
        Gate scratch;
        RunEngine wide(engineOptions(kParallelJobs, "", false));
        for (int r = 0; r < kLayerReps; ++r) {
            SpanRecorder::Scope s(spans, "sim.runner.parallel_batch",
                                  cx.w.name);
            parallel.push_back(
                cx.w.cold ? coldIteration(cx, next++, kParallelJobs, scratch,
                                          nullptr)
                          : replayIteration(wide, cx, profiles, scratch,
                                            nullptr));
        }
    }
    const double eff = parallelEfficiencyPct(parallel, kParallelJobs);
    // The layer measurements keep their streams in memory (traceLayers
    // sets the trace-cache directory itself).
    unsetenv("NURAPID_TRACE_CACHE_DIR");
    std::map<std::string, std::uint64_t> batch_digests;
    if (cx.w.cold) {
        // Iteration 0's fresh NuRAPID and D-NUCA runs, rebuilt in memory.
        for (const OrgSpec &spec : cx.w.orgs)
            for (const WorkloadProfile &p : profiles) {
                System sys(spec, p, cx.w.length);
                const RunMetrics m = sys.runAll();
                batch_digests[runKey(m)] = runDigest(m);
            }
    } else {
        for (const RunMetrics &m : first_runs)
            batch_digests[runKey(m)] = runDigest(m);
    }
    streams.clear();
    std::map<std::string, double> layers =
        measureLayers(cx, profiles, batch_digests, serial_wall, spans, gate);
    layers["sim.runner.parallel_eff_pct"] = eff;
    layers["bench.trace_overhead_pct"] = overhead;

    std::vector<Metric> units = {
        {"trace.gen_mrec_per_s", 0, "Mrec/s"},
        {"trace.distill_mrec_per_s", 0, "Mrec/s"},
        {"trace.events_per_krec", 0, "count"},
        {"trace.store_ms", 0, "ms"},
        {"trace.load_ms", 0, "ms"},
        {"cpu.replay_ns_per_record", 0, "ns"},
        {"cpu.replay_ns_per_event", 0, "ns"},
    };
    for (const NamedOrg &o : defaultOrgs())
        units.push_back({o.layer + ".access_ns", 0, "ns"});
    for (const NamedOrg &o : defaultOrgs())
        units.push_back({o.layer + ".hot_state_kib", 0, "KiB"});
    for (const Metric &m : std::vector<Metric>{
             {"sim.system.build_ms", 0, "ms"},
             {"sim.runner.parallel_eff_pct", 0, "%"},
             {"sim.runner.cache_save_ms", 0, "ms"},
             {"sim.runner.cache_load_ms", 0, "ms"},
             {"sim.runner.cache_hit_pct", 0, "%"},
             {"timing.model_build_ms", 0, "ms"},
             {"sim.unattributed_pct", 0, "%"},
             {"bench.trace_overhead_pct", 0, "%"}})
        units.push_back(m);
    for (Metric &m : units) {
        auto it = layers.find(m.name);
        if (it == layers.end()) {
            gate.error("layer metric " + m.name + " was not measured");
            continue;
        }
        m.value = it->second;
        metrics.push_back(m);
    }
    if (!a.spans_out.empty() &&
        !spans.writeJson(a.spans_out, provenance(a, cx)))
        gate.error("could not write " + a.spans_out);
    std::printf("%zu untraced + %zu traced iterations; serial iteration "
                "%.3f s; spans: %s\n",
                plain.size(), traced.size(), serial_wall,
                a.spans_out.empty() ? "(not written)" : a.spans_out.c_str());
    printResult(gate, metrics);
    return 0;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    auto number = [](const std::string &s, const char *flag) {
        char *end = nullptr;
        errno = 0;
        const double v = std::strtod(s.c_str(), &end);
        if (s.empty() || *end != '\0' || errno || !std::isfinite(v) || v < 0) {
            std::fprintf(stderr, "bad value '%s' for %s\n", s.c_str(), flag);
            std::exit(2);
        }
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--workload") {
            a.workload = need(i);
        } else if (f == "--seed") {
            const std::string s = need(i);
            char *end = nullptr;
            errno = 0;
            a.seed = std::strtoull(s.c_str(), &end, 10);
            if (s.empty() || *end != '\0' || errno || s[0] == '-') {
                std::fprintf(stderr, "bad value '%s' for --seed\n", s.c_str());
                std::exit(2);
            }
        } else if (f == "--seconds") {
            a.seconds = number(need(i), "--seconds");
        } else if (f == "--trace") {
            a.trace = number(need(i), "--trace") != 0;
        } else if (f == "--reference-digest") {
            a.reference = need(i);
        } else if (f == "--work-dir") {
            a.work_dir = need(i);
        } else if (f == "--spans-out") {
            a.spans_out = need(i);
        } else if (f == "--source") {
            a.source = need(i);
        } else if (f == "--self-test") {
            a.self_test = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", f.c_str());
            std::exit(2);
        }
    }
    if (a.work_dir.empty() || (!a.self_test && a.workload.empty())) {
        std::fprintf(stderr, "usage: perfbench_sim --workload NAME --work-dir "
                             "DIR [--seed N] [--seconds S] [--trace 0|1] "
                             "[--reference-digest HEX] [--spans-out FILE] "
                             "[--source TEXT] | --self-test --work-dir DIR\n");
        std::exit(2);
    }
    return a;
}

/** Removes the work directory however the run ends normally. */
struct WorkDir
{
    explicit WorkDir(const std::string &path) : path(path)
    {
        fs::create_directories(path);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    std::string path;
};

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    const perfbench::WorkDir dir(args.work_dir);
    return args.self_test ? perfbench::selfTest(args) : perfbench::run(args);
}
