#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The first run configures and builds the
library, mgrts_serverd, mgrts_workerd and the perfbench program into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
The last line of stdout is the result object.  --smoke runs every workload
at a tiny size in both modes and checks every printed metric name and unit
against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    for needed in ("src/core/solve.hpp", "tools/mgrts_serverd.cpp",
                   "tools/mgrts_workerd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"repository source {needed} is missing; run from a full "
                 "checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "mgrts_serverd", "mgrts_workerd"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def provenance():
    """The measured tree: its git commit (with -dirty when the working tree
    differs from it) and a content hash of every source file it builds."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=True)
            dirty = subprocess.run(["git", "status", "--porcelain", "--",
                                    "src", "tools", "perfbench"], cwd=ROOT,
                                   capture_output=True, text=True, check=True)
            commit = head.stdout.strip() + ("-dirty" if dirty.stdout.strip()
                                            else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    return commit, digest.hexdigest()[:16]


def run_perfbench(out, workload, seed, seconds, trace, smoke):
    """Runs one measurement; returns (exit code, stdout text)."""
    commit, tree = provenance()
    run_dir = os.path.join(out, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [os.path.join(out, "perfbench"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--bin-dir", os.path.relpath(out, ROOT),
               "--run-dir", os.path.relpath(run_dir, ROOT),
               "--commit", commit, "--tree", tree]
    if smoke:
        command.append("--smoke")
    # Its own session, so a timeout takes the daemons it spawned down too.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stray daemons, if any
        except ProcessLookupError:
            pass
    if child.returncode == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"perfbench: daemon logs kept in {run_dir}", file=sys.stderr)
    return child.returncode, stdout


def smoke(out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, stdout = run_perfbench(out, workload, 1, 1, trace, True)
            lines = stdout.strip().splitlines()
            tag = f"{workload} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{tag}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{tag}: correct is not true")
            printed = {name: m.get("unit")
                       for name, m in result.get("metrics", {}).items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                units = sorted(n for n in printed if n in expected[trace]
                               and printed[n] != expected[trace][n])
                problems.append(f"{tag}: missing {missing}, extra {extra}, "
                                f"unit mismatch {units}")
            print(f"smoke {tag}: ok={code == 0} metrics={len(printed)}")
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    out = build()
    if args.smoke:
        sys.exit(smoke(out))
    code, stdout = run_perfbench(out, args.workload, args.seed,
                                 args.seconds, args.trace, False)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
