/**
 * @file
 * Differential fuzzing CLI: every cache organization vs. the flat
 * fully-associative reference oracle.
 *
 *   nurapid_fuzz [--iters N] [--seed S] [--target SUBSTR]
 *                [--conservation N] [--dump-dir DIR] [--list]
 *   nurapid_fuzz --replay FILE --target NAME
 *
 * Without --replay, runs the whole fuzz matrix (see fuzzTargetMatrix);
 * --target keeps only targets whose name contains SUBSTR. A mismatch
 * prints the minimized failing trace's dump path; exit status is the
 * number of failing targets (0 = all clean).
 *
 * --replay re-executes a dumped .trace against the named target
 * (exact match) and reports the first mismatch, for debugging a
 * failure the fuzzer found.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "testing/fuzzer.hh"
#include "trace/trace_file.hh"

using namespace nurapid;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--iters N] [--seed S] [--target SUBSTR]\n"
                 "          [--conservation N] [--dump-dir DIR] [--list]\n"
                 "       %s --replay FILE --target NAME\n",
                 argv0, argv0);
}

std::vector<TraceRecord>
loadTrace(const std::string &path)
{
    FileTraceSource source(path);
    std::vector<TraceRecord> out;
    out.reserve(source.recordCount());
    TraceRecord rec;
    while (source.next(rec))
        out.push_back(rec);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzConfig cfg;
    std::string filter;
    std::string dump_dir = ".";
    std::string replay_path;
    bool list_only = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--iters") {
            cfg.iterations = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--target") {
            filter = value();
        } else if (arg == "--conservation") {
            cfg.conservation_interval =
                std::strtoull(value(), nullptr, 10);
        } else if (arg == "--dump-dir") {
            dump_dir = value();
        } else if (arg == "--replay") {
            replay_path = value();
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    fatal_if(cfg.iterations == 0, "--iters must be positive");
    fatal_if(cfg.conservation_interval == 0,
             "--conservation must be positive");

    const std::vector<FuzzTarget> matrix = fuzzTargetMatrix();

    if (list_only) {
        for (const FuzzTarget &t : matrix)
            std::printf("%s\n", t.name.c_str());
        return 0;
    }

    if (!replay_path.empty()) {
        const FuzzTarget *target = nullptr;
        for (const FuzzTarget &t : matrix) {
            if (t.name == filter)
                target = &t;
        }
        if (!target) {
            std::fprintf(stderr,
                         "--replay needs --target with an exact name "
                         "from --list\n");
            return 2;
        }
        const std::vector<TraceRecord> trace = loadTrace(replay_path);
        std::printf("replaying %zu records against %s\n", trace.size(),
                    target->name.c_str());
        if (auto fail = TraceFuzzer::replay(*target, trace,
                                            cfg.conservation_interval)) {
            std::printf("MISMATCH: %s\n", fail->c_str());
            return 1;
        }
        std::printf("clean replay\n");
        return 0;
    }

    int failures = 0;
    std::uint64_t ran = 0;
    for (const FuzzTarget &target : matrix) {
        if (!filter.empty() &&
            target.name.find(filter) == std::string::npos) {
            continue;
        }
        ++ran;
        TraceFuzzer fuzzer(target, cfg);
        const FuzzResult result = fuzzer.run(dump_dir);
        if (result.passed) {
            std::printf("PASS %-36s %llu iters\n", target.name.c_str(),
                        static_cast<unsigned long long>(cfg.iterations));
        } else {
            ++failures;
            std::printf("FAIL %-36s at access %llu\n",
                        target.name.c_str(),
                        static_cast<unsigned long long>(
                            result.failing_step));
            std::printf("     %s\n", result.message.c_str());
            std::printf("     minimized to %zu records%s%s\n",
                        result.minimized.size(),
                        result.dump_path.empty() ? "" : ", dumped to ",
                        result.dump_path.c_str());
        }
    }
    if (ran == 0) {
        std::fprintf(stderr, "no target matches '%s' (see --list)\n",
                     filter.c_str());
        return 2;
    }
    return failures;
}
