#!/usr/bin/env python3
"""Builds and runs the simulator's benchmark (perfbench_sim).

Usage, from the repository root:

    python3 perfbench/run.py --workload replay-lowload --seed 0 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The simulator is built from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the spans next to the build.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-lowload", "replay-highload", "cold-pipeline")
DEFAULT_SEED = 0
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures once and builds perfbench_sim; its output goes to stderr."""
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_sim",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_sim")


def source_id():
    """The commit when there is one, and a digest of the model sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "commit=%s src_sha256=%s" % (commit, h.hexdigest()[:16])


def reference_digest(workload):
    with open(os.path.join(HERE, "reference_digests.json")) as f:
        return json.load(f).get(workload, "")


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    work = os.path.join(bdir, "work-%d" % os.getpid())
    cmd = [binary, "--work-dir", work]
    if args.self_test:
        cmd += ["--self-test"]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--source", source_id()]
        if args.seed == DEFAULT_SEED:
            cmd += ["--reference-digest", reference_digest(args.workload)]
        if args.trace:
            cmd += ["--spans-out", os.path.join(
                bdir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    # The benchmark fixes every setting itself; the simulator's
    # environment knobs (jobs, caches, scale, gang, prefetch) must not
    # leak in from the caller.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NURAPID_")}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if args.self_test:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError("perfbench_sim exited with %d" % proc.returncode)
        check_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        log("perfbench: %s" % e)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
