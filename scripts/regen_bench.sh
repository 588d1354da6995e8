#!/usr/bin/env sh
# Regenerates every paper table/figure by running all bench binaries
# with a shared run cache, so the repeated suites (the base hierarchy
# alone is re-used by 7+ binaries) are simulated exactly once and every
# later regeneration is served almost entirely from the cache file.
#
# Usage:
#   scripts/regen_bench.sh [BUILD_DIR] [--jobs N] [--repeat N]
#                          [--no-cache] [--quiet]
#                          [--engine-trace-out FILE]
#
# --engine-trace-out FILE records host-time engine spans (trace
# pregen, distill decode, run-cache probe/store, per-config
# simulate) from every bench binary into ONE Chrome trace
# at FILE — the format is append-friendly, so all 17 processes share
# the whole-sweep file; load it in ui.perfetto.dev. Each binary also
# prints an [engine] wall-time footer. Same as NURAPID_ENGINE_TRACE.
#
# --repeat N (default 3) runs every bench binary N times and records
# the *median* per-binary wall_ms, taming host noise in the tracked
# timings. The shared run cache is snapshotted before each binary's
# first run and restored before every repeat, so all N runs redo the
# same simulation work instead of hitting the first run's cache
# entries; repeats past the first print nothing.
#
# Environment (forwarded to the binaries' run engine):
#   NURAPID_JOBS             worker threads per binary (default: all cores)
#   NURAPID_RUN_CACHE        cache file (default: BUILD_DIR/bench_run_cache.json)
#   NURAPID_SIM_SCALE        simulation length scale
#   NURAPID_TRACE_CACHE_DIR  distilled-stream (.dtc) disk cache shared
#                            by the 17 binaries (default:
#                            BUILD_DIR/trace_cache) — each workload is
#                            generated and distilled once per sweep, not
#                            once per binary
#
# Besides the per-table stdout, the sweep writes BUILD_DIR/BENCH_sweep.json
# with machine-readable timings: per-binary and total wall milliseconds,
# whether the sweep started cold (no pre-existing cache file), and the
# unique-configuration count in the resulting run cache. Timings use
# `date +%s%N` (this container has no /usr/bin/time or bc).
#
# The CMake target `regen-bench` invokes this script with BUILD_DIR set.

set -eu

build_dir=build
quiet=0
repeat=3
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs)
        NURAPID_JOBS="$2"; export NURAPID_JOBS; shift 2 ;;
      --repeat)
        repeat="$2"; shift 2 ;;
      --no-cache)
        unset NURAPID_RUN_CACHE || true
        no_cache=1; shift ;;
      --engine-trace-out)
        NURAPID_ENGINE_TRACE="$2"; export NURAPID_ENGINE_TRACE
        rm -f "$NURAPID_ENGINE_TRACE"; shift 2 ;;
      --quiet)
        quiet=1; shift ;;
      -h|--help)
        sed -n '2,41p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
      *)
        build_dir="$1"; shift ;;
    esac
done

case "$repeat" in
  ''|*[!0-9]*|0)
    echo "error: --repeat needs a positive integer, got '$repeat'" >&2
    exit 2 ;;
esac

if [ ! -d "$build_dir/bench" ]; then
    echo "error: '$build_dir/bench' not found (configure and build first:" >&2
    echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j)" >&2
    exit 1
fi

cold=true
if [ "${no_cache:-0}" -eq 0 ]; then
    NURAPID_RUN_CACHE="${NURAPID_RUN_CACHE:-$build_dir/bench_run_cache.json}"
    export NURAPID_RUN_CACHE
    echo "run cache: $NURAPID_RUN_CACHE"
    [ -s "$NURAPID_RUN_CACHE" ] && cold=false
fi
echo "jobs per binary: ${NURAPID_JOBS:-auto}"

NURAPID_TRACE_CACHE_DIR="${NURAPID_TRACE_CACHE_DIR:-$build_dir/trace_cache}"
export NURAPID_TRACE_CACHE_DIR
mkdir -p "$NURAPID_TRACE_CACHE_DIR"

benches="bench_table1_config bench_table2_energies bench_table3_workloads \
bench_table4_latencies bench_fig4_placement bench_fig5_policies \
bench_fig6_policy_perf bench_lru_approximation bench_fig7_dgroups \
bench_fig8_dgroup_perf bench_fig9_dnuca_perf bench_fig10_energy \
bench_fig11_energy_delay bench_ablation_pointers bench_ablation_port \
bench_ablation_seq_tag bench_ablation_snuca"

sweep_json="$build_dir/BENCH_sweep.json"
binaries_json=""

start_ns=$(date +%s%N)
for b in $benches; do
    echo "=== $b ==="
    # Snapshot the shared run cache so repeats 2..N redo the first
    # run's simulation work instead of reading its cache entries; the
    # last repeat's (identical) cache state is what later binaries see.
    snap=""
    if [ "${no_cache:-0}" -eq 0 ] && [ -n "${NURAPID_RUN_CACHE:-}" ]; then
        snap="$NURAPID_RUN_CACHE.repeat-snap"
        rm -f "$snap"
        [ -s "$NURAPID_RUN_CACHE" ] && cp "$NURAPID_RUN_CACHE" "$snap"
    fi
    times_ms=""
    i=1
    while [ "$i" -le "$repeat" ]; do
        if [ "$i" -gt 1 ] && [ -n "$snap" ]; then
            if [ -s "$snap" ]; then
                cp "$snap" "$NURAPID_RUN_CACHE"
            else
                rm -f "$NURAPID_RUN_CACHE"
            fi
        fi
        b_start_ns=$(date +%s%N)
        if [ "$i" -gt 1 ]; then
            "$build_dir/bench/$b" > /dev/null
        elif [ "$quiet" -eq 1 ]; then
            "$build_dir/bench/$b" | tail -n 2
        else
            "$build_dir/bench/$b"
        fi
        b_end_ns=$(date +%s%N)
        times_ms="$times_ms $(( (b_end_ns - b_start_ns) / 1000000 ))"
        i=$((i + 1))
    done
    [ -n "$snap" ] && rm -f "$snap"
    b_ms=$(printf '%s\n' $times_ms | sort -n | awk \
        '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }')
    [ -n "$binaries_json" ] && binaries_json="$binaries_json,"
    binaries_json="$binaries_json
    {\"name\": \"$b\", \"wall_ms\": $b_ms}"
done
end_ns=$(date +%s%N)
total_ms=$(( (end_ns - start_ns) / 1000000 ))

# Unique simulated configurations = "key" entries in the run cache.
unique_configs=0
if [ "${no_cache:-0}" -eq 0 ] && [ -s "$NURAPID_RUN_CACHE" ]; then
    unique_configs=$(grep -o '"key"' "$NURAPID_RUN_CACHE" | wc -l)
fi

host=$(uname -n 2>/dev/null || echo unknown)
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)
cat > "$sweep_json" <<EOF
{
  "schema": 1,
  "host": "$host",
  "host_cores": "$cores",
  "host_note": "wall-clock comparable only to sweeps from the same host state; see EXPERIMENTS.md",
  "cold": $cold,
  "jobs": "${NURAPID_JOBS:-auto}",
  "sim_scale": "${NURAPID_SIM_SCALE:-1}",
  "repeat": $repeat,
  "unique_configs": $unique_configs,
  "total_wall_ms": $total_ms,
  "binaries": [$binaries_json
  ]
}
EOF

# Track the perf trajectory across PRs: a full-scale sweep's timing
# summary is copied to the repo root (checked in). Scaled-down smokes
# (check.sh runs with NURAPID_SIM_SCALE=0.05) stay in the build dir so
# they never clobber the tracked numbers.
if [ "${NURAPID_SIM_SCALE:-1}" = "1" ]; then
    repo_root=$(cd "$(dirname "$0")/.." && pwd)
    cp "$sweep_json" "$repo_root/BENCH_sweep.json"
    echo "regen-bench: timings copied to $repo_root/BENCH_sweep.json"
fi

echo "regen-bench: full sweep in $((total_ms / 1000)) s ($total_ms ms," \
     "$unique_configs unique configs; timings in $sweep_json)"
