#!/usr/bin/env sh
# Full correctness gate: builds the simulator under three compiler
# configurations and runs the tier-1 unit suite plus a 10k-iteration
# differential-fuzz smoke (audit hooks compiled in and forced on) under
# each:
#
#   release  RelWithDebInfo, audit hooks compiled in. Also runs the
#            tier-1 suite again with the live per-record loop
#            (NURAPID_DISTILL=0), the observability and engine-trace
#            smokes, and a short cold sweep of all 17 bench binaries
#            twice, distilled and live: the two sweeps must leave
#            bit-identical 267-entry run caches, and the distilled
#            sweep's [engine] footers must cover >= 95% of its wall.
#            Last, perfbench's self-test and a 1 s seed-0 run of each
#            benchmark workload, whose result digests must match
#            perfbench/reference_digests.json
#   asan     AddressSanitizer + UndefinedBehaviorSanitizer
#   tsan     ThreadSanitizer (checks the parallel run engine)
#
# Host time is not gated here: perfbench/ measures it end to end and
# per layer (python3 perfbench/run.py; see perfbench/README.md).
#
# Usage:
#   scripts/check.sh [--fuzz-iters N] [--configs "release asan tsan"]
#
# Build trees live in build-check-<config>/ so the default build/ tree
# is never disturbed. Exits non-zero on the first failure.

set -eu

fuzz_iters=10000
configs="release asan tsan"
while [ $# -gt 0 ]; do
    case "$1" in
      --fuzz-iters)
        fuzz_iters="$2"; shift 2 ;;
      --configs)
        configs="$2"; shift 2 ;;
      -h|--help)
        # The whole header comment: every line after the shebang up
        # to the first non-comment line.
        awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' \
            "$0"
        exit 0 ;;
      *)
        echo "unknown option '$1' (see --help)" >&2; exit 2 ;;
    esac
done

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
start=$(date +%s)

# Runs a command with its full output captured in a log file, then
# prints only the log's last few lines. A plain `cmd | tail` pipeline
# would report tail's exit status and let a failing cmd slip past
# `set -e`; here the command's own status is what propagates, and a
# failure replays the whole log.
run_logged() {
    rl_log="$1"
    rl_lines="$2"
    shift 2
    rl_status=0
    "$@" > "$rl_log" 2>&1 || rl_status=$?
    if [ "$rl_status" -ne 0 ]; then
        cat "$rl_log" >&2
        return "$rl_status"
    fi
    tail -n "$rl_lines" "$rl_log"
}

for config in $configs; do
    case "$config" in
      release) flags="-DCMAKE_BUILD_TYPE=RelWithDebInfo" ;;
      asan)    flags="-DNURAPID_SANITIZE=address,undefined" ;;
      tsan)    flags="-DNURAPID_SANITIZE=thread" ;;
      *)
        echo "unknown config '$config'" >&2; exit 2 ;;
    esac
    dir="build-check-$config"

    echo "=== [$config] configure ($flags) ==="
    # shellcheck disable=SC2086  # flags is a word list on purpose
    cmake -B "$dir" -S . -DNURAPID_AUDIT=ON $flags >/dev/null
    echo "=== [$config] build ==="
    cmake --build "$dir" -j "$jobs" >/dev/null

    echo "=== [$config] ctest -L tier1 ==="
    (cd "$dir" && run_logged ctest_tier1.log 3 \
        ctest -L tier1 -j "$jobs" --output-on-failure)

    if [ "$config" = "release" ]; then
        # The distilled-replay fast path defaults on; the whole suite
        # must also hold with the live per-record loop.
        echo "=== [$config] ctest -L tier1 (NURAPID_DISTILL=0) ==="
        (cd "$dir" && export NURAPID_DISTILL=0 &&
            run_logged ctest_tier1_distill0.log 3 \
                ctest -L tier1 -j "$jobs" --output-on-failure)

        echo "=== [$config] obs smoke (flight recorder + report) ==="
        obs_dir="$dir/obs_smoke"
        rm -rf "$obs_dir"
        mkdir -p "$obs_dir"
        NURAPID_SIM_SCALE=0.05 "$dir/src/tools/nurapid_sim" \
            --org nurapid --benchmark mcf --obs-interval 8192 \
            --trace-out "$obs_dir/events.jsonl" \
            --metrics-out "$obs_dir/metrics.jsonl" \
            --perfetto-out "$obs_dir/trace.json" > "$obs_dir/sim.log"
        for f in events.jsonl metrics.jsonl trace.json; do
            [ -s "$obs_dir/$f" ] || {
                echo "obs smoke: $f missing or empty" >&2; exit 1; }
        done
        # nurapid_report re-parses both JSONL files with the in-tree
        # JSON parser and exits non-zero on any unparseable line.
        "$dir/src/tools/nurapid_report" "$obs_dir/metrics.jsonl" \
            --events "$obs_dir/events.jsonl" > "$obs_dir/report.log"
        grep -q 'per-epoch timelines' "$obs_dir/report.log" || {
            echo "obs smoke: report printed no timelines" >&2; exit 1; }
        grep -q 'hit distribution' "$obs_dir/report.log" || {
            echo "obs smoke: report printed no distribution table" >&2
            exit 1; }
        # Energy attribution rides the same timeline: every epoch
        # carries an energy object and the report renders the
        # Figure-10-style component table from it.
        grep -q '"energy"' "$obs_dir/metrics.jsonl" || {
            echo "obs smoke: metrics timeline has no energy samples" >&2
            exit 1; }
        grep -q 'energy breakdown' "$obs_dir/report.log" || {
            echo "obs smoke: report printed no energy breakdown" >&2
            exit 1; }

        # Observability must not perturb the simulation and observed
        # runs must never seed the run cache: a fresh-cache suite, an
        # observed suite (which bypasses the cache), and a second
        # fresh-cache suite must leave bit-identical caches modulo
        # wall-clock.
        echo "=== [$config] obs-off determinism (run-cache identity) ==="
        NURAPID_SIM_SCALE=0.02 NURAPID_RUN_CACHE="$obs_dir/cache_a.json" \
            "$dir/src/tools/nurapid_sim" --org dnuca --suite \
            > /dev/null
        NURAPID_SIM_SCALE=0.02 NURAPID_RUN_CACHE="$obs_dir/cache_b.json" \
            "$dir/src/tools/nurapid_sim" --org dnuca --suite \
            --metrics-out "$obs_dir/suite_metrics.jsonl" > /dev/null
        [ -s "$obs_dir/suite_metrics.applu.jsonl" ] || {
            echo "obs: suite run wrote no per-workload metrics" >&2
            exit 1; }
        NURAPID_SIM_SCALE=0.02 NURAPID_RUN_CACHE="$obs_dir/cache_b.json" \
            "$dir/src/tools/nurapid_sim" --org dnuca --suite \
            > /dev/null
        strip_wall() {
            sed 's/"wall_seconds":[-0-9.eE+]*/"wall_seconds":0/g' "$1"
        }
        strip_wall "$obs_dir/cache_a.json" > "$obs_dir/cache_a.norm"
        strip_wall "$obs_dir/cache_b.json" > "$obs_dir/cache_b.norm"
        cmp -s "$obs_dir/cache_a.norm" "$obs_dir/cache_b.norm" || {
            echo "obs: run cache diverged around an observed suite" >&2
            exit 1; }

        # Engine-trace smoke: one all-organizations suite with span
        # tracing attached must write a trace with spans in it, and the
        # [engine] footer must account for >= 95% of the process wall
        # time: the top-level run-unit spans cover everything the
        # workers do, leaving only a few fixed ms of startup/teardown
        # outside any span. The scale matches the cold sweep's 0.05 so
        # that fixed part stays well under 5% of the wall.
        echo "=== [$config] engine-trace smoke (span coverage) ==="
        trace_dir="$dir/engine_trace_smoke"
        rm -rf "$trace_dir"
        mkdir -p "$trace_dir"
        NURAPID_SIM_SCALE=0.05 NURAPID_RUN_CACHE="$trace_dir/cache.json" \
            "$dir/src/tools/nurapid_sim" --org all --suite \
            --engine-trace-out "$trace_dir/engine_trace.json" \
            > /dev/null 2> "$trace_dir/engine.log"
        [ -s "$trace_dir/engine_trace.json" ] || {
            echo "engine trace: no trace written" >&2; exit 1; }
        grep -q '"ph":"X"' "$trace_dir/engine_trace.json" || {
            echo "engine trace: no spans in trace" >&2; exit 1; }
        awk '/^\[engine\] wall/ { gsub(/,/, ""); w += $3; c += $7 }
             END { pct = w > 0 ? 100 * c / w : 0;
                   printf "engine trace: %.1f%% of wall covered\n", pct;
                   exit !(pct >= 95) }' "$trace_dir/engine.log" || {
            echo "engine trace: span coverage below 95%" \
                 "(see $trace_dir/engine.log)" >&2
            exit 1; }

        # Short cold sweep: all 17 bench binaries at scale 0.05 with a
        # fresh run cache, engine-span tracing attached. Cached
        # distilled streams are dropped first so the sweep distills
        # rather than only mapping what the stages above left behind.
        echo "=== [$config] cold sweep (scale 0.05, engine spans) ==="
        sweep_cache="$dir/sweep_cache.json"
        rm -f "$sweep_cache"
        rm -f "$dir/trace_cache"/*.dtc
        sweep_log="$dir/sweep.log"
        sweep_trace="$dir/engine_sweep_trace.json"
        (export NURAPID_SIM_SCALE=0.05 NURAPID_RUN_CACHE="$sweep_cache" &&
            run_logged "$sweep_log" 2 \
                sh scripts/regen_bench.sh "$dir" --quiet --repeat 1 \
                    --engine-trace-out "$sweep_trace")
        [ -s "$sweep_cache" ] || {
            echo "cold sweep: sweep left no run cache" >&2
            exit 1
        }
        # All 17 bench binaries appended into one whole-sweep trace,
        # and their [engine] footers together must attribute >= 95%
        # of the sweep's summed process wall time to engine stages.
        [ -s "$sweep_trace" ] || {
            echo "cold sweep: sweep wrote no engine trace" >&2
            exit 1
        }
        awk '/^\[engine\] wall/ { gsub(/,/, ""); n++; w += $3; c += $7 }
             END { pct = w > 0 ? 100 * c / w : 0;
                   printf "cold sweep: engine spans cover %.1f%%" \
                          " of sweep wall (%d footers)\n", pct, n;
                   exit !(n >= 17 && pct >= 95) }' "$sweep_log" || {
            echo "cold sweep: engine footer coverage below 95% of the" \
                 "sweep wall (see $sweep_log)" >&2
            exit 1
        }

        # The same sweep with the live per-record loop.
        echo "=== [$config] cold sweep (NURAPID_DISTILL=0) ==="
        live_cache="$dir/sweep_cache_live.json"
        rm -f "$live_cache"
        (export NURAPID_DISTILL=0 NURAPID_SIM_SCALE=0.05 \
            NURAPID_RUN_CACHE="$live_cache" &&
            run_logged "$dir/sweep_live.log" 1 \
                sh scripts/regen_bench.sh "$dir" --quiet --repeat 1)

        # Sweep dump-cache identity: the distilled and live sweeps
        # simulated the same 267 configurations; their caches must be
        # bit-identical modulo wall_seconds (--dump-cache zeroes it),
        # or a replay path diverged somewhere the unit suite did not
        # reach.
        echo "=== [$config] sweep dump-cache identity (267 configs) ==="
        "$dir/src/tools/nurapid_sim" --dump-cache "$sweep_cache" \
            > "$dir/sweep_distilled.dump"
        "$dir/src/tools/nurapid_sim" --dump-cache "$live_cache" \
            > "$dir/sweep_live.dump"
        cmp -s "$dir/sweep_distilled.dump" "$dir/sweep_live.dump" || {
            echo "sweep identity: distilled and live sweeps left" \
                 "different caches (diff $dir/sweep_distilled.dump" \
                 "$dir/sweep_live.dump)" >&2
            exit 1
        }
        sweep_entries=$(grep -o '"key"' "$sweep_cache" | wc -l)
        [ "$sweep_entries" -eq 267 ] || {
            echo "sweep identity: expected 267 unique configurations," \
                 "cache holds $sweep_entries" >&2
            exit 1
        }

        # The benchmark's result gate: perfbench's self-test, then a
        # 1 s seed-0 run of each workload. perfbench exits 0 either
        # way; its last line must say "correct": true, which requires
        # the simulated-result digest to match
        # perfbench/reference_digests.json, and no failed operation.
        # perfbench builds into $dir/perfbench.
        echo "=== [$config] perfbench self-test and seed-0 digests ==="
        (export CARGO_TARGET_DIR="$dir" &&
            run_logged "$dir/perfbench_self_test.log" 1 \
                python3 perfbench/run.py --self-test)
        for workload in replay-lowload replay-highload cold-pipeline; do
            pb_log="$dir/perfbench_$workload.log"
            (export CARGO_TARGET_DIR="$dir" &&
                run_logged "$pb_log" 0 \
                    python3 perfbench/run.py --workload "$workload" \
                        --seed 0 --seconds 1 --trace 0)
            tail -n 1 "$pb_log" | grep -q \
                '^{"correct": true, "attempted": [0-9]*, "failed": 0,' || {
                echo "perfbench $workload: result gate failed" \
                     "(see $pb_log)" >&2
                exit 1
            }
            grep '^digest:' "$pb_log"
        done
    fi

    echo "=== [$config] fuzz smoke ($fuzz_iters iters, audits on) ==="
    NURAPID_AUDIT=1 NURAPID_AUDIT_INTERVAL=512 \
        "$dir/src/tools/nurapid_fuzz" --iters "$fuzz_iters" \
        --dump-dir "$dir"
done

end=$(date +%s)
echo "check.sh: all configs ($configs) clean in $((end - start)) s"
