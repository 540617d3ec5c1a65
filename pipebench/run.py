#!/usr/bin/env python3
"""Streaming-inference pipeline benchmark: build, run one workload, print its metrics.

    python3 pipebench/run.py --workload stem-replay --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds qnet and the driver into .bench_build (a no-op
when nothing changed), runs the harness tests, then starts driver processes on the
workload until --seconds have passed (at least MIN_PROCESSES of them). Every process
generates the same inputs from --seed, runs its passes and checks its outputs.
--trace 0 prints the end-to-end metrics (timings from the run's best pass, the rest
per process and then the median, see aggregate), --trace 1 the per-layer metrics of
traced runs (the median over processes). The last stdout line is the JSON result; a failed
check names itself on stderr and makes the exit status 1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "pipebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "pipebench")
TESTS = os.path.join(BUILD_DIR, "pipebench_tests")

MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150

# Metric names and units are declared once, in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "qnet")
    ):
        log("pipebench: no qnet sources next to the benchmark; run from a full checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("pipebench: build failed: " + " ".join(cmd))
            return False
    return True


def harness_tests_pass():
    if not os.path.isfile(TESTS):
        log("pipebench: harness tests not built (GTest not found); skipping them")
        return True
    result = subprocess.run([TESTS, "--gtest_brief=1"], stdout=sys.stderr,
                            stderr=sys.stderr, timeout=PROCESS_TIMEOUT_S)
    if result.returncode != 0:
        log("pipebench: check failed: harness_tests")
    return result.returncode == 0


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown (not a git checkout)"


def percentile(values, q):
    """Nearest-rank percentile, the rule harness.h's Percentile implements."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


# Timings are best-of: the host's speed shifts between states that last seconds to
# minutes (README, "Host noise"), and interference only ever slows work down, so the
# fastest repetition is the one the host disturbed least. Throughput and CPU per task
# come from the run's best full-speed pass. Every paced pass replays the same windows,
# so each window's latency is its lowest over the run's paced passes, and the latency
# percentiles and the miss share are taken over those per-window bests.
BEST_PASS = {"tasks_per_s": max, "cpu_us_per_task": min}
LATENCY_PERCENTILE = {"window_latency_p50_ms": 0.5, "window_latency_p90_ms": 0.9}


def window_bests(results):
    """Each window's lowest latency over the run's paced passes (same seed, same windows)."""
    passes = [p for r in results for p in r["window_latencies_ms"]]
    return [min(window) for window in zip(*passes)]


def aggregate(name, results):
    """One end-to-end metric of a run from its processes' raw measurements."""
    if name in BEST_PASS:
        return BEST_PASS[name](x for r in results for x in r[name])
    if name in LATENCY_PERCENTILE:
        return percentile(window_bests(results), LATENCY_PERCENTILE[name])
    if name == "window_miss_share":
        # A window misses when even its best latency is over the limit, or when a pass
        # left it without a usable estimate. Reported as (misses + 1) / (windows + 2),
        # the rule-of-succession miss probability, never 0.
        limit = results[0]["latency_limit_ms"]
        misses = (sum(1 for latency in window_bests(results) if latency > limit)
                  + max(r["unusable_windows"] for r in results))
        return (misses + 1) / (results[0]["windows_per_pass"] + 2)
    # setup_s, peak_rss_mb and rate_rel_error: one value per process.
    return statistics.median(r[name] for r in results)


def run_process(workload, seed, traced, spans_out):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--mode", "traced" if traced else "e2e"]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 1) or not lines:
        log(f"pipebench: driver exited with {result.returncode}: {' '.join(cmd)}")
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build() or not harness_tests_pass():
        return 1

    traced = args.trace == 1
    spans_out = os.path.join(BUILD_DIR, f"spans-{args.workload}-{args.seed}.csv")
    start = time.monotonic()
    deadline = start + args.seconds
    results = []
    # Another process starts while one of the run's mean length fits before the deadline.
    while len(results) < MIN_PROCESSES or (
            deadline - time.monotonic() > (time.monotonic() - start) / len(results)):
        result = run_process(args.workload, args.seed, traced,
                             spans_out if traced and not results else None)
        if result is None:
            return 1
        results.append(result)
        if not result["correct"]:
            break
    with open(os.path.join(BUILD_DIR, f"last-{args.workload}-{args.seed}.json"), "w") as out:
        json.dump(results, out)

    failed_checks = sorted({name for r in results
                            for name, ok in r["checks"].items() if not ok})
    if traced:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in results),
                          "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": aggregate(name, results), "unit": unit}
                   for name, unit in END_TO_END.items()}

    fingerprint = dict(results[0]["fingerprint"], git_commit=git_commit())
    print("# fingerprint " + json.dumps(fingerprint))
    print(f"# {args.workload} seed {args.seed}: {len(results)} processes, "
          f"{sum(len(r['tasks_per_s']) for r in results)} full-speed passes, "
          f"{sum(len(r['window_latencies_ms']) for r in results)} paced passes "
          f"in {time.monotonic() - start:.1f} s")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    if traced:
        shares = {k: round(statistics.median(r["self_share"][k] for r in results), 4)
                  for k in results[0]["self_share"]}
        print("# self-time share of the traced pass " + json.dumps(shares))
    for name in failed_checks:
        log(f"pipebench: check failed: {name}")
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
