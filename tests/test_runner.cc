/**
 * @file
 * Run-engine tests: parallel determinism (jobs=4 bit-identical to
 * jobs=1 across organizations), memoization (warm cache returns
 * identical metrics without re-simulating), batch layout, busy-time
 * accounting, fingerprint stability, and cache-file persistence round
 * trips, including another build's model digest and a concurrent
 * writer's temp file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fingerprint.hh"
#include "common/json.hh"
#include "sim/runner/run_engine.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

namespace nurapid {
namespace {

SimLength
tinyLength()
{
    return {20'000, 60'000};
}

std::vector<RunRequest>
crossProduct()
{
    const std::vector<OrgSpec> orgs = {
        OrgSpec::baseline(),
        OrgSpec::nurapidDefault(),
        OrgSpec::dnucaSsPerformance(),
        OrgSpec::coupledSA(),
    };
    const std::vector<std::string> names = {"applu", "mcf", "gzip"};
    std::vector<RunRequest> reqs;
    for (const auto &org : orgs) {
        for (const auto &name : names)
            reqs.push_back(RunRequest{org, findProfile(name),
                                      tinyLength()});
    }
    return reqs;
}

RunEngineOptions
uncached(unsigned jobs)
{
    RunEngineOptions opts;
    opts.jobs = jobs;
    opts.use_cache = false;
    return opts;
}

TEST(RunEngine, ParallelBitIdenticalToSerial)
{
    const auto reqs = crossProduct();

    RunEngine serial(uncached(1));
    RunEngine parallel(uncached(4));
    auto a = serial.runMany(reqs);
    auto b = parallel.runMany(reqs);

    ASSERT_EQ(a.size(), reqs.size());
    ASSERT_EQ(b.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_TRUE(identicalMetrics(a[i], b[i]))
            << reqs[i].spec.description() << " / "
            << reqs[i].profile.name << ": parallel run diverged "
            << "(serial ipc " << a[i].ipc << ", parallel ipc "
            << b[i].ipc << ")";
        EXPECT_FALSE(b[i].from_cache);
        EXPECT_GT(b[i].instructions, 0u);
    }
    EXPECT_EQ(serial.simulatedRuns(), reqs.size());
    EXPECT_EQ(parallel.simulatedRuns(), reqs.size());
}

TEST(RunEngine, RepeatedRequestsInOneBatchSimulateOnce)
{
    RunEngineOptions opts;
    opts.jobs = 2;
    RunEngine engine(opts);
    const RunRequest req{OrgSpec::nurapidDefault(), findProfile("gzip"),
                         tinyLength()};
    auto runs = engine.runMany({req, req, req});
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(engine.simulatedRuns(), 1u);
    EXPECT_EQ(engine.cacheHits(), 2u);
    EXPECT_TRUE(identicalMetrics(runs[0], runs[1]));
    EXPECT_TRUE(identicalMetrics(runs[0], runs[2]));
    EXPECT_FALSE(runs[0].from_cache);
    EXPECT_TRUE(runs[1].from_cache);
}

TEST(RunEngine, SimulatedSecondsCoverWholeRunUnits)
{
    // The engine's busy time counts each run unit whole: System
    // construction (stream distillation included) as well as runAll,
    // which is all a run's wall_seconds covers.
    const auto reqs = crossProduct();
    RunEngine engine(uncached(2));
    const auto runs = engine.runMany(reqs);
    double run_seconds = 0;
    for (const RunMetrics &m : runs) {
        ASSERT_FALSE(m.from_cache);
        run_seconds += m.wall_seconds;
    }
    EXPECT_GT(run_seconds, 0.0);
    EXPECT_GE(engine.simulatedSeconds(), run_seconds);
}

TEST(RunEngine, WarmCacheReturnsIdenticalMetricsWithoutSimulating)
{
    const auto reqs = crossProduct();
    RunEngineOptions opts;
    opts.jobs = 2;
    RunEngine engine(opts);

    auto cold = engine.runMany(reqs);
    const auto simulated_after_cold = engine.simulatedRuns();
    EXPECT_EQ(simulated_after_cold, reqs.size());

    auto warm = engine.runMany(reqs);
    EXPECT_EQ(engine.simulatedRuns(), simulated_after_cold)
        << "warm cache re-simulated";
    EXPECT_EQ(engine.cacheHits(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_TRUE(identicalMetrics(cold[i], warm[i]));
        EXPECT_TRUE(warm[i].from_cache);
    }
}

TEST(RunEngine, RunSuitesMatchesPerRequestRunOne)
{
    // runSuites is plain batching: one batch over specs x suite must
    // return exactly what one runOne per request returns, laid out as
    // result[spec][profile].
    const std::vector<OrgSpec> specs = {
        OrgSpec::baseline(),
        OrgSpec::nurapidDefault(),
        OrgSpec::dnucaSsPerformance(),
    };
    const std::vector<WorkloadProfile> suite = {findProfile("mcf"),
                                                findProfile("art")};

    RunEngine batch(uncached(2));
    const auto grid = batch.runSuites(specs, suite, tinyLength());
    ASSERT_EQ(grid.size(), specs.size());
    RunEngine single(uncached(1));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_EQ(grid[i].size(), suite.size());
        for (std::size_t j = 0; j < suite.size(); ++j) {
            const RunMetrics one =
                single.runOne(specs[i], suite[j], tinyLength());
            EXPECT_EQ(grid[i][j].organization, specs[i].description());
            EXPECT_EQ(grid[i][j].workload, suite[j].name);
            EXPECT_TRUE(identicalMetrics(grid[i][j], one))
                << specs[i].description() << " / " << suite[j].name
                << ": batched run diverged from runOne";
        }
    }
    EXPECT_EQ(batch.simulatedRuns(), specs.size() * suite.size());
}

TEST(RunEngine, CacheFilePersistsAcrossEngines)
{
    const std::string path = "test_runner_cache.json";
    std::remove(path.c_str());

    const std::vector<RunRequest> reqs = {
        RunRequest{OrgSpec::nurapidDefault(), findProfile("applu"),
                   tinyLength()},
        RunRequest{OrgSpec::baseline(), findProfile("applu"),
                   tinyLength()},
    };

    RunEngineOptions opts;
    opts.jobs = 1;
    opts.cache_file = path;
    std::vector<RunMetrics> first;
    {
        RunEngine engine(opts);
        first = engine.runMany(reqs);
        EXPECT_EQ(engine.simulatedRuns(), reqs.size());
    }
    {
        RunEngine engine(opts);  // loads the file written above
        auto second = engine.runMany(reqs);
        EXPECT_EQ(engine.simulatedRuns(), 0u)
            << "persisted cache was not used";
        EXPECT_EQ(engine.cacheHits(), reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i)
            EXPECT_TRUE(identicalMetrics(first[i], second[i]));
    }
    std::remove(path.c_str());
}

TEST(RunCache, FingerprintSeparatesRunInputs)
{
    const auto &prof = findProfile("applu");
    const auto base = fingerprintRun(OrgSpec::baseline(), prof,
                                     tinyLength());
    EXPECT_EQ(base.key.rfind(std::string("digest=") + modelDigest() + ";",
                             0),
              0u)
        << "the model digest must lead the key";

    EXPECT_EQ(fingerprintRun(OrgSpec::baseline(), prof, tinyLength()).key,
              base.key);
    EXPECT_NE(fingerprintRun(OrgSpec::nurapidDefault(), prof,
                             tinyLength()).key, base.key);
    EXPECT_NE(fingerprintRun(OrgSpec::baseline(), findProfile("mcf"),
                             tinyLength()).key, base.key);
    EXPECT_NE(fingerprintRun(OrgSpec::baseline(), prof,
                             SimLength{20'000, 60'001}).key, base.key);

    // Policy fields beyond the description string must participate.
    OrgSpec restricted = OrgSpec::nurapidDefault();
    restricted.nurapid.frame_restriction = 8;
    EXPECT_NE(fingerprintRun(restricted, prof, tinyLength()).key,
              fingerprintRun(OrgSpec::nurapidDefault(), prof,
                             tinyLength()).key);
}

TEST(RunCache, MetricsJsonRoundTripIsExact)
{
    RunMetrics m;
    m.workload = "applu";
    m.organization = "NuRAPID 4 d-groups (next-fastest, random)";
    m.ipc = 0.912345678901234567;
    m.cycles = 123456789;
    m.instructions = 987654321;
    m.l2_demand = 44'000;
    m.l2_hits = 40'000;
    m.l2_misses = 4'000;
    m.l2_apki = 44.25;
    m.region_frac = {0.5, 0.25, 0.125, 0.0625};
    m.miss_frac = 1.0 / 3.0;
    m.promotions = 777;
    m.demotions = 888;
    m.block_moves = 999;
    m.data_array_accesses = 123;
    m.energy.core_nj = 1.0e9 / 3.0;
    m.energy.l1_nj = 0.1;
    m.energy.l2_cache_nj = 2.5e8;
    m.energy.memory_nj = 3.14159265358979;
    m.energy.total_nj = 5.0e9;
    m.energy.cycles = 123456789;
    m.energy.edp = 6.17e17;
    m.wall_seconds = 1.25;

    RunMetrics out;
    ASSERT_TRUE(runMetricsFromJson(
        Json::parse(runMetricsToJson(m).dump()), out));
    EXPECT_TRUE(identicalMetrics(m, out));
    EXPECT_EQ(out.wall_seconds, m.wall_seconds);
}

TEST(RunCache, DigestCollisionDegradesToMiss)
{
    // The stored full key guards against digest collisions: a lookup
    // whose key disagrees with the stored one must miss, never return
    // the colliding entry's metrics.
    RunMetrics m;
    m.workload = "applu";
    m.ipc = 1.25;

    RunCache cache;
    cache.store(RunKey{"key-A", "00000000deadbeef"}, m);

    RunMetrics out;
    EXPECT_TRUE(cache.lookup(RunKey{"key-A", "00000000deadbeef"}, out));
    EXPECT_EQ(out.ipc, m.ipc);
    EXPECT_FALSE(cache.lookup(RunKey{"key-B", "00000000deadbeef"}, out))
        << "colliding digest returned the wrong run's metrics";
}

TEST(RunCache, TamperedPersistedKeyDegradesToMiss)
{
    // A cache file whose stored key was corrupted (bit rot, manual
    // editing) must degrade to a miss for the real fingerprint.
    const std::string path = "test_runner_tampered.json";
    std::remove(path.c_str());

    const auto key = fingerprintRun(OrgSpec::baseline(),
                                    findProfile("applu"), tinyLength());
    RunMetrics m;
    m.workload = "applu";
    m.ipc = 0.5;
    {
        RunCache cache;
        cache.store(key, m);
        ASSERT_TRUE(cache.saveFile(path));
    }

    // Rewrite the file with the entry's key field replaced.
    Json root;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::string text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        root = Json::parse(text);
    }
    ASSERT_TRUE(root.isObject());
    Json entries = Json::object();
    for (const auto &kv : root.get("entries").members()) {
        Json e = Json::object();
        e.set("key", Json(std::string("tampered")));
        e.set("metrics", kv.second.get("metrics"));
        entries.set(kv.first, std::move(e));
    }
    root.set("entries", std::move(entries));
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        const std::string text = root.dump();
        std::fputs(text.c_str(), f);
        std::fclose(f);
    }

    RunCache reloaded;
    EXPECT_EQ(reloaded.loadFile(path), 1u);
    RunMetrics out;
    EXPECT_FALSE(reloaded.lookup(key, out))
        << "tampered entry served as a hit";
    std::remove(path.c_str());
}

TEST(RunCache, CorruptFileIsIgnored)
{
    const std::string path = "test_runner_corrupt.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{ not json", f);
        std::fclose(f);
    }
    RunCache cache;
    EXPECT_EQ(cache.loadFile(path), 0u);
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());

    // Missing file: silently empty.
    EXPECT_EQ(cache.loadFile("does_not_exist_12345.json"), 0u);

    // A well-formed file written by another build of the model (a
    // foreign digest at its root) is ignored whole, and an engine
    // reading it recomputes the run instead of serving it.
    const RunRequest req{OrgSpec::baseline(), findProfile("applu"),
                         tinyLength()};
    RunMetrics stale;
    stale.workload = "applu";
    stale.ipc = 123.0;
    {
        RunCache fresh;
        fresh.store(fingerprintRun(req.spec, req.profile, req.length),
                    stale);
        ASSERT_TRUE(fresh.saveFile(path));
    }
    std::string text;
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    Json root = Json::parse(text);
    ASSERT_TRUE(root.isObject());
    std::string foreign = root.get("digest").asString();
    ASSERT_EQ(foreign, modelDigest());
    foreign[0] = foreign[0] == '0' ? '1' : '0';
    root.set("digest", Json(foreign));
    {
        std::ofstream out(path, std::ios::trunc);
        out << root.dump();
    }
    EXPECT_EQ(RunCache().loadFile(path), 0u)
        << "a cache file from another model digest was served";

    RunEngineOptions opts;
    opts.jobs = 1;
    opts.cache_file = path;
    RunEngine engine(opts);
    const RunMetrics got = engine.runOne(req.spec, req.profile, req.length);
    EXPECT_EQ(engine.simulatedRuns(), 1u);
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_NE(got.ipc, stale.ipc);
    std::remove(path.c_str());
}

TEST(RunCache, SaveSurvivesAnotherWritersTempFile)
{
    // Another process mid-save owns its temp file; a directory at the
    // legacy shared temp name stands in for it (no file can be opened
    // there). Saves must use a per-process temp name and still land.
    const std::string path = "test_runner_concurrent.json";
    const std::string other_tmp = path + ".tmp";
    std::remove(path.c_str());
    std::filesystem::remove_all(other_tmp);
    ASSERT_TRUE(std::filesystem::create_directory(other_tmp));

    RunCache cache;
    for (const char *name : {"applu", "mcf", "gzip"}) {
        RunMetrics m;
        m.workload = name;
        m.ipc = 0.75;
        cache.store(fingerprintRun(OrgSpec::baseline(), findProfile(name),
                                   tinyLength()),
                    m);
    }
    EXPECT_TRUE(cache.saveFile(path));

    RunCache reloaded;
    EXPECT_EQ(reloaded.loadFile(path), cache.size());
    for (const char *name : {"applu", "mcf", "gzip"}) {
        RunMetrics out;
        EXPECT_TRUE(reloaded.lookup(
            fingerprintRun(OrgSpec::baseline(), findProfile(name),
                           tinyLength()),
            out))
            << name;
        EXPECT_EQ(out.workload, name);
    }
    std::filesystem::remove_all(other_tmp);
    std::remove(path.c_str());
}

TEST(RunCache, ConcurrentSaversLoseNoEntries)
{
    // Two processes save disjoint entries to one file, one entry per
    // save from a fresh cache, so their merge-then-rename steps
    // interleave and an entry renamed over is never written again. The
    // save lock must keep either from renaming over entries the other
    // has written: both sets survive.
    const std::string path = "test_runner_two_savers.json";
    std::remove(path.c_str());
    constexpr int kPerChild = 25;
    auto digest = [](int child, int i) {
        char d[17];
        std::snprintf(d, sizeof(d), "%08x%08x", child + 1, i);
        return std::string(d);
    };

    pid_t kids[2];
    for (int child = 0; child < 2; ++child) {
        kids[child] = ::fork();
        ASSERT_GE(kids[child], 0);
        if (kids[child] == 0) {
            bool ok = true;
            for (int i = 0; i < kPerChild; ++i) {
                RunCache cache;
                RunMetrics m;
                m.workload = "applu";
                m.ipc = child + i / 100.0;
                cache.store(RunKey{digest(child, i), digest(child, i)}, m);
                ok = cache.saveFile(path) && ok;
            }
            ::_exit(ok ? 0 : 1);
        }
    }
    for (pid_t kid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(kid, &status, 0), kid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    RunCache merged;
    EXPECT_EQ(merged.loadFile(path), 2u * kPerChild);
    for (int child = 0; child < 2; ++child) {
        for (int i = 0; i < kPerChild; ++i) {
            RunMetrics out;
            EXPECT_TRUE(merged.lookup(
                RunKey{digest(child, i), digest(child, i)}, out))
                << "child " << child << " entry " << i << " was lost";
        }
    }
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

} // namespace
} // namespace nurapid
