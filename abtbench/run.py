#!/usr/bin/env python3
"""End-to-end benchmark of the abt library and its abtd daemon.

Run from the root of a checkout:

    python3 abtbench/run.py --workload svc-miss --seed 1 --seconds 10 --trace 0

Builds abtd and the benchmark driver from source (CMake, Release) into
$CARGO_TARGET_DIR/abtbench (default .bench_build/abtbench), then runs one
workload and relays the driver's output. The last line of stdout is the
JSON result. Workloads, metrics and settings are described in README.md
next to this file.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("svc-miss", "svc-hit", "campaign")
# One run is split into segments, each a fresh driver process with a fresh
# abtd and inputs of its own; each metric is the median over the segments,
# which evens out both the inputs and the host's slow phases.
SEGMENTS = {"svc-miss": 10, "svc-hit": 10, "campaign": 10}
# Except peak memory, which is the lowest segment peak: the campaign's
# peak is bimodal (~60 MB for most input sets, 75-100 MB for some) and its
# low mode repeats within a few percent.
LOWEST_OF_SEGMENTS = ("peak_rss_mb",)
# Diagnostics that add up over segments; the others are medians.
SUMMED_DIAGNOSTICS = ("requests", "passes", "ctxt_switches", "stats_")
# personality(2) flag: the driver and abtd get the same memory layout in
# every segment (address-space randomization off), which halved the spread
# of the service latencies between runs.
ADDR_NO_RANDOMIZE = 0x0040000
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(message):
    print(f"abtbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "abtbench"


def build(out):
    """Configures (once) and builds the driver and abtd; returns the two paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no abt sources at {ROOT}: cannot build the benchmark")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "abtd", "abtbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out / "abtbench", out / "abt" / "abtd"


def fixed_layout():
    """In the child before exec: turn address-space randomization off for
    it and everything it starts. Where that is not allowed, runs go on
    randomized."""
    libc = ctypes.CDLL(None)
    libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)


def run_driver(cmd, timeout_s):
    """Runs the driver in its own process group; kills the whole group
    (driver and abtd) on timeout or when this script is signalled."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True,
                            preexec_fn=fixed_layout)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(1)

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, kill_group)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        log(f"driver exceeded the {RUN_TIMEOUT_S} s run limit")
        kill_group()
    return proc.returncode, stdout.decode(errors="replace")


def combine(segments):
    """One result from the segments' results: sums of the counts, the
    median of every metric (lowest for LOWEST_OF_SEGMENTS), ok_share
    recomputed over all operations."""
    attempted = sum(r["attempted"] for r, _ in segments)
    failed = sum(r["failed"] for r, _ in segments)
    metrics = {}
    for name, first in segments[0][0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r, _ in segments]
        value = min(values) if name in LOWEST_OF_SEGMENTS else statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    if "ok_share" in metrics:
        metrics["ok_share"]["value"] = (attempted - failed) / attempted
    result = {"correct": all(r["correct"] for r, _ in segments),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    diagnostics = {}
    for name in segments[0][1]:
        values = [d[name] for _, d in segments]
        summed = any(key in name for key in SUMMED_DIAGNOSTICS)
        diagnostics[name] = sum(values) if summed else statistics.median(values)
    diagnostics["segments"] = len(segments)
    return result, diagnostics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        driver, abtd = build(build_dir())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        log(str(err))
        return 2

    run_dir = ROOT / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    count = SEGMENTS[args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    segments = []
    for segment in range(count):
        cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
               "--segment", str(segment), "--seconds", str(args.seconds / count),
               "--trace", str(args.trace), "--abtd", str(abtd),
               "--grids", str(HERE / "grids"),
               # Relative: Unix socket paths are limited to 107 bytes.
               "--run-dir", os.path.relpath(run_dir)]
        code, stdout = run_driver(cmd, deadline - time.monotonic())
        lines = stdout.strip().splitlines()
        if code != 0 or len(lines) < 2:
            log(f"driver exited with {code} in segment {segment}")
            return 1
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            log("driver printed no result line")
            return 1
        segments.append((result, json.loads(lines[-2])["diagnostics"]))
    result, diagnostics = combine(segments)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
