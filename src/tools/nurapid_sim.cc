/**
 * @file
 * Command-line simulator driver — the front door for downstream users.
 *
 * Runs one (organization, workload) pair on the full simulated system
 * and prints the run metrics, the d-group/bank hit distribution, and
 * the energy report.
 *
 * Examples:
 *   nurapid_sim --list
 *   nurapid_sim --org nurapid --benchmark applu
 *   nurapid_sim --org nurapid --dgroups 8 --promotion fastest \
 *               --distance-repl lru --benchmark mcf --scale 0.5
 *   nurapid_sim --org dnuca --search ss-energy --benchmark swim
 *   nurapid_sim --org base --benchmark gzip --stats
 */

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/runner/run_cache.hh"
#include "sim/runner/run_engine.hh"
#include "sim/runner/span_trace.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

using namespace nurapid;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --list                 list workloads and organizations\n"
        "  --benchmark NAME       workload profile (default: applu)\n"
        "  --suite                run all 15 workloads (parallel engine)\n"
        "  --jobs N               worker threads for --suite (default:\n"
        "                         NURAPID_JOBS or hardware concurrency)\n"
        "  --org KIND             base | dnuca | snuca | sa-place |\n"
        "                         nurapid; 'all' (with --suite) runs\n"
        "                         every organization in one batch\n"
        "  --dgroups N            NuRAPID d-groups (2/4/8; default 4)\n"
        "  --promotion P          demotion-only | next-fastest | fastest\n"
        "  --distance-repl R      random | lru | tree-plru\n"
        "  --restriction N        frames-per-d-group pointer restriction\n"
        "  --multi-port           idealized infinite-port data arrays\n"
        "  --ideal                constant fastest-d-group hit latency\n"
        "  --search S             D-NUCA: multicast | ss-performance |\n"
        "                         ss-energy\n"
        "  --scale X              scale simulation length (default 1.0)\n"
        "  --dump-cache FILE      print a normalized view of the run\n"
        "                         cache at FILE and exit: wall_seconds\n"
        "                         zeroed, sorted by key — two caches\n"
        "                         compare byte-equal iff their runs\n"
        "                         were bit-identical\n"
        "  --stats                dump full statistic groups\n"
        "  --trace-out FILE       write the typed event stream (hits,\n"
        "                         misses, promotions, demotions, swaps,\n"
        "                         evictions, writebacks, MSHR stalls)\n"
        "                         as JSONL\n"
        "  --metrics-out FILE     write the interval-metrics timeline\n"
        "                         as JSONL (one snapshot per epoch)\n"
        "  --perfetto-out FILE    write the timeline as a Chrome\n"
        "                         trace.json (chrome://tracing,\n"
        "                         ui.perfetto.dev)\n"
        "  --obs-interval N       references per observability epoch\n"
        "                         (default 65536)\n"
        "  --engine-trace-out F   record host-time engine spans (trace\n"
        "                         pregen, distill decode, run-cache\n"
        "                         probe/store, per-config\n"
        "                         simulate) into a Chrome trace at F\n"
        "                         (one track per worker thread) and\n"
        "                         print an [engine] wall-time footer;\n"
        "                         same as NURAPID_ENGINE_TRACE\n"
        "\n"
        "With --suite, observability paths get a per-workload suffix\n"
        "(events.jsonl -> events.applu.jsonl). Observed runs bypass the\n"
        "run cache so the trace files are always written.\n"
        "\n"
        "environment knobs:\n"
        "  NURAPID_JOBS            worker threads for parallel batches\n"
        "                          (default: hardware concurrency)\n"
        "  NURAPID_RUN_CACHE       path of the cross-binary run\n"
        "                          memoization cache (JSON)\n"
        "  NURAPID_TRACE_CACHE_DIR directory of on-disk distilled\n"
        "                          L2-event streams (.dtc)\n"
        "  NURAPID_DISTILL         0 disables distilled L2-event replay\n"
        "  NURAPID_SIM_SCALE       global simulation-length multiplier\n"
        "  NURAPID_AUDIT           1 enables the invariant-audit layer\n"
        "  NURAPID_AUDIT_INTERVAL  accesses between audit sweeps\n"
        "                          (default 4096)\n"
        "  NURAPID_OBS_EVENT_CAP   flight-recorder ring capacity;\n"
        "                          0/unset = unbounded\n"
        "  NURAPID_ENGINE_TRACE    engine span trace output path\n"
        "                          (appended, so one sweep's processes\n"
        "                          share a single whole-sweep trace)\n",
        argv0);
}

/** events.jsonl -> events.applu.jsonl (suffix before the extension). */
std::string
perWorkloadPath(const std::string &path, const std::string &workload)
{
    if (path.empty())
        return path;
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + "." + workload;
    }
    return path.substr(0, dot) + "." + workload + path.substr(dot);
}

/** Strict decimal parse of @p v into [lo, hi]; fatal() on garbage. */
std::uint64_t
parseUint(const char *flag, const std::string &v, std::uint64_t lo,
          std::uint64_t hi)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long raw = std::strtoull(v.c_str(), &end, 10);
    fatal_if(v.empty() || v[0] == '-' || !end || *end != '\0' ||
                 errno == ERANGE,
             "%s: '%s' is not a valid non-negative integer", flag,
             v.c_str());
    fatal_if(raw < lo || raw > hi,
             "%s: %llu is out of range [%llu, %llu]", flag, raw,
             static_cast<unsigned long long>(lo),
             static_cast<unsigned long long>(hi));
    return raw;
}

/** Strict parse of @p v into (lo, hi]; fatal() on garbage or NaN/inf. */
double
parseDouble(const char *flag, const std::string &v, double lo, double hi)
{
    errno = 0;
    char *end = nullptr;
    const double raw = std::strtod(v.c_str(), &end);
    fatal_if(v.empty() || !end || *end != '\0' || errno == ERANGE ||
                 !std::isfinite(raw),
             "%s: '%s' is not a valid number", flag, v.c_str());
    fatal_if(raw <= lo || raw > hi,
             "%s: %g is out of range (%g, %g]", flag, raw, lo, hi);
    return raw;
}

bool
parsePromotion(const std::string &s, PromotionPolicy &out)
{
    if (s == "demotion-only")
        out = PromotionPolicy::DemotionOnly;
    else if (s == "next-fastest")
        out = PromotionPolicy::NextFastest;
    else if (s == "fastest")
        out = PromotionPolicy::Fastest;
    else
        return false;
    return true;
}

bool
parseSearch(const std::string &s, DNucaSearch &out)
{
    if (s == "multicast")
        out = DNucaSearch::Multicast;
    else if (s == "ss-performance")
        out = DNucaSearch::SsPerformance;
    else if (s == "ss-energy")
        out = DNucaSearch::SsEnergy;
    else
        return false;
    return true;
}

/**
 * Prints the run cache at @p path in a normalized form: one
 * "key<TAB>metrics" line per entry, wall_seconds zeroed and from_cache
 * cleared, sorted by key. scripts/check.sh diffs two of these dumps to
 * assert the distilled and packed-record replay paths produced
 * bit-identical results.
 */
int
dumpCache(const std::string &path)
{
    RunCache cache;
    const std::size_t n = cache.loadFile(path);
    fatal_if(n == 0, "--dump-cache: no entries loaded from '%s'",
             path.c_str());
    std::vector<std::string> lines;
    lines.reserve(n);
    cache.forEachEntry([&](const std::string &key, const RunMetrics &m) {
        RunMetrics norm = m;
        norm.wall_seconds = 0.0;
        norm.from_cache = false;
        lines.push_back(key + "\t" + runMetricsToJson(norm).dump());
    });
    std::sort(lines.begin(), lines.end());
    for (const auto &line : lines)
        std::printf("%s\n", line.c_str());
    return 0;
}

void
listEverything()
{
    std::printf("workloads (synthetic SPEC2K stand-ins, Table 3):\n");
    TextTable t;
    t.header({"name", "type", "class", "target IPC", "target APKI"});
    for (const auto &p : workloadSuite()) {
        t.row({p.name, p.fp ? "FP" : "Int",
               p.high_load ? "high-load" : "low-load",
               TextTable::num(p.table3_ipc, 1),
               TextTable::num(p.table3_l2_apki, 0)});
    }
    t.print();
    std::printf("\norganizations: base, dnuca, snuca, sa-place, nurapid\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmark = "applu";
    std::string org = "nurapid";
    OrgSpec spec = OrgSpec::nurapidDefault();
    bool dump_stats = false;
    bool run_suite = false;
    unsigned jobs = 0;
    double scale = 0.0;

    std::uint32_t dgroups = 4;
    PromotionPolicy promotion = PromotionPolicy::NextFastest;
    DistanceRepl drepl = DistanceRepl::Random;
    std::uint32_t restriction = 0;
    bool multi_port = false;
    bool ideal = false;
    DNucaSearch search = DNucaSearch::SsPerformance;

    std::string trace_out;
    std::string metrics_out;
    std::string perfetto_out;
    std::uint64_t obs_interval = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--list") {
            listEverything();
            return 0;
        } else if (arg == "--benchmark") {
            benchmark = value("--benchmark");
        } else if (arg == "--suite") {
            run_suite = true;
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                parseUint("--jobs", value("--jobs"), 1, 4096));
        } else if (arg == "--org") {
            org = value("--org");
        } else if (arg == "--dgroups") {
            dgroups = static_cast<std::uint32_t>(
                parseUint("--dgroups", value("--dgroups"), 1, 64));
        } else if (arg == "--promotion") {
            if (!parsePromotion(value("--promotion"), promotion))
                fatal("unknown promotion policy");
        } else if (arg == "--distance-repl") {
            const std::string v = value("--distance-repl");
            if (v == "random")
                drepl = DistanceRepl::Random;
            else if (v == "lru")
                drepl = DistanceRepl::LRU;
            else if (v == "tree-plru")
                drepl = DistanceRepl::TreePLRU;
            else
                fatal("unknown distance replacement '%s'", v.c_str());
        } else if (arg == "--restriction") {
            restriction = static_cast<std::uint32_t>(
                parseUint("--restriction", value("--restriction"), 0,
                          1u << 20));
        } else if (arg == "--multi-port") {
            multi_port = true;
        } else if (arg == "--ideal") {
            ideal = true;
        } else if (arg == "--search") {
            if (!parseSearch(value("--search"), search))
                fatal("unknown D-NUCA search policy");
        } else if (arg == "--scale") {
            scale = parseDouble("--scale", value("--scale"), 0.0, 1e6);
        } else if (arg == "--dump-cache") {
            return dumpCache(value("--dump-cache"));
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--trace-out") {
            trace_out = value("--trace-out");
        } else if (arg == "--metrics-out") {
            metrics_out = value("--metrics-out");
        } else if (arg == "--perfetto-out") {
            perfetto_out = value("--perfetto-out");
        } else if (arg == "--obs-interval") {
            obs_interval = parseUint("--obs-interval",
                                     value("--obs-interval"), 1,
                                     std::uint64_t{1} << 40);
        } else if (arg == "--engine-trace-out") {
            const std::string f = value("--engine-trace-out");
            // Forward through the env so child-visible config stays
            // consistent with the NURAPID_ENGINE_TRACE spelling.
            setenv("NURAPID_ENGINE_TRACE", f.c_str(), 1);
            EngineTrace::instance().enable(f);
        } else {
            usage(argv[0]);
            fatal("unknown option '%s'", arg.c_str());
        }
    }

    if (org == "all") {
        fatal_if(!run_suite, "--org all requires --suite");
        fatal_if(!trace_out.empty() || !metrics_out.empty() ||
                     !perfetto_out.empty(),
                 "--org all does not support observability exports "
                 "(pick one organization)");
    } else if (org == "base") {
        spec = OrgSpec::baseline();
    } else if (org == "dnuca") {
        spec = OrgSpec::dnucaSsPerformance();
        spec.dnuca.search = search;
    } else if (org == "snuca") {
        spec = OrgSpec::snucaDefault();
    } else if (org == "sa-place") {
        spec = OrgSpec::coupledSA();
    } else if (org == "nurapid") {
        spec = OrgSpec::nurapidDefault(dgroups, promotion, drepl);
        spec.nurapid.frame_restriction = restriction;
        spec.nurapid.single_port = !multi_port;
        spec.nurapid.ideal_fastest = ideal;
    } else {
        fatal("unknown organization '%s' (try --list)", org.c_str());
    }

    ObsConfig obs;
    obs.record_events = !trace_out.empty();
    obs.record_metrics = !metrics_out.empty() || !perfetto_out.empty();
    obs.interval = obs_interval;
    obs.events_path = trace_out;
    obs.metrics_path = metrics_out;
    obs.perfetto_path = perfetto_out;

    SimLength length = SimLength::fromEnv();
    if (scale > 0) {
        const std::optional<SimLength> scaled = length.scaled(scale);
        fatal_if(!scaled, "--scale: %g leaves no measured references",
                 scale);
        length = *scaled;
    }

    if (run_suite && org == "all") {
        // One batch over every organization through one engine — what
        // scripts/check.sh dumps and diffs for bit-identity.
        RunEngineOptions eopts = RunEngineOptions::fromEnv();
        if (jobs)
            eopts.jobs = jobs;
        RunEngine engine(eopts);
        std::vector<OrgSpec> specs;
        specs.push_back(OrgSpec::baseline());
        specs.push_back(OrgSpec::snucaDefault());
        specs.push_back(OrgSpec::dnucaSsPerformance());
        specs.push_back(OrgSpec::coupledSA());
        specs.push_back(OrgSpec::nurapidDefault(dgroups, promotion,
                                                drepl));
        std::printf("running the %zu-workload suite on %zu "
                    "organizations...\n", workloadSuite().size(),
                    specs.size());

        const auto t0 = std::chrono::steady_clock::now();
        const auto runs = engine.runSuites(specs, workloadSuite(),
                                           length);
        const double wall = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();

        TextTable t;
        std::vector<std::string> head{"workload"};
        for (const auto &s : specs)
            head.push_back(s.description());
        t.header(head);
        for (std::size_t j = 0; j < workloadSuite().size(); ++j) {
            std::vector<std::string> row{workloadSuite()[j].name};
            for (std::size_t i = 0; i < specs.size(); ++i)
                row.push_back(TextTable::num(runs[i][j].ipc, 3));
            t.row(row);
        }
        t.print();
        std::printf("\nIPC per organization; suite wall-clock %.2f s, "
                    "%llu simulated, %llu cache hits\n", wall,
                    static_cast<unsigned long long>(
                        engine.simulatedRuns()),
                    static_cast<unsigned long long>(engine.cacheHits()));
        return 0;
    }

    if (run_suite) {
        RunEngineOptions eopts = RunEngineOptions::fromEnv();
        if (jobs)
            eopts.jobs = jobs;
        RunEngine engine(eopts);
        std::printf("running the %zu-workload suite on %s with %u "
                    "worker thread(s)...\n", workloadSuite().size(),
                    spec.description().c_str(),
                    engine.jobsFor(workloadSuite().size()));

        const auto t0 = std::chrono::steady_clock::now();
        std::vector<RunRequest> requests;
        requests.reserve(workloadSuite().size());
        for (const auto &profile : workloadSuite()) {
            RunRequest r{spec, profile, length, obs};
            r.obs.events_path =
                perWorkloadPath(trace_out, profile.name);
            r.obs.metrics_path =
                perWorkloadPath(metrics_out, profile.name);
            r.obs.perfetto_path =
                perWorkloadPath(perfetto_out, profile.name);
            requests.push_back(std::move(r));
        }
        auto runs = engine.runMany(requests);
        const double wall = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();

        TextTable t;
        t.header({"workload", "IPC", "L2 APKI", "miss", "EDP",
                  "run wall (s)", "source"});
        for (const auto &m : runs) {
            t.row({m.workload, TextTable::num(m.ipc, 3),
                   TextTable::num(m.l2_apki, 1),
                   TextTable::pct(m.miss_frac),
                   strprintf("%.3e", m.energy.edp),
                   TextTable::num(m.wall_seconds, 2),
                   m.from_cache ? "cache" : "simulated"});
        }
        t.print();
        std::printf("\nsuite wall-clock %.2f s; %llu simulated "
                    "(%.2f s), %llu cache hits (saved ~%.2f s)\n", wall,
                    static_cast<unsigned long long>(
                        engine.simulatedRuns()),
                    engine.simulatedSeconds(),
                    static_cast<unsigned long long>(engine.cacheHits()),
                    engine.savedSeconds());
        return 0;
    }

    const WorkloadProfile &profile = findProfile(benchmark);
    std::printf("running '%s' on %s (%llu warmup + %llu measured "
                "references)...\n", profile.name.c_str(),
                spec.description().c_str(),
                static_cast<unsigned long long>(length.warmup_records),
                static_cast<unsigned long long>(length.measure_records));

    System sys(spec, profile, length);
    sys.enableObservability(obs);
    auto m = sys.runAll();

    TextTable t;
    t.header({"metric", "value"});
    t.row({"IPC", TextTable::num(m.ipc, 3)});
    t.row({"cycles", std::to_string(m.cycles)});
    t.row({"instructions", std::to_string(m.instructions)});
    t.row({"L2 demand accesses", std::to_string(m.l2_demand)});
    t.row({"L2 accesses / kinst", TextTable::num(m.l2_apki, 1)});
    t.row({"L2 miss ratio", TextTable::pct(m.miss_frac)});
    t.row({"promotions", std::to_string(m.promotions)});
    t.row({"demotions", std::to_string(m.demotions)});
    t.row({"block moves", std::to_string(m.block_moves)});
    t.row({"data-array accesses", std::to_string(m.data_array_accesses)});
    t.row({"core+L1 energy (uJ)",
           TextTable::num((m.energy.core_nj + m.energy.l1_nj) / 1000.0)});
    t.row({"L2 energy (uJ)",
           TextTable::num(m.energy.l2_cache_nj / 1000.0)});
    t.row({"DRAM energy (uJ)",
           TextTable::num(m.energy.memory_nj / 1000.0)});
    t.row({"energy-delay (nJ*cyc)", strprintf("%.3e", m.energy.edp)});
    t.row({"wall-clock (s)", TextTable::num(m.wall_seconds, 2)});
    t.print();

    std::printf("\nhit distribution over latency regions:\n");
    for (std::size_t g = 0; g < m.region_frac.size(); ++g) {
        std::printf("  region %zu: %5.1f%%\n", g,
                    100.0 * m.region_frac[g]);
    }
    std::printf("  miss:     %5.1f%%\n", 100.0 * m.miss_frac);

    if (const EventSink *sink = sys.observabilitySink()) {
        std::printf("\nobservability: %llu events recorded",
                    static_cast<unsigned long long>(sink->recorded()));
        if (sink->dropped()) {
            std::printf(" (%llu overwritten by the flight-recorder "
                        "ring)",
                        static_cast<unsigned long long>(
                            sink->dropped()));
        }
        std::printf("\n");
        if (!trace_out.empty())
            std::printf("  events:   %s\n", trace_out.c_str());
        if (!metrics_out.empty())
            std::printf("  metrics:  %s\n", metrics_out.c_str());
        if (!perfetto_out.empty())
            std::printf("  perfetto: %s\n", perfetto_out.c_str());
    }

    if (dump_stats) {
        std::printf("\n%s", sys.lower().stats().dump().c_str());
        std::printf("%s", sys.core().stats().dump().c_str());
        std::printf("%s",
                    sys.core().branchPredictor().stats().dump().c_str());
    }
    return 0;
}
