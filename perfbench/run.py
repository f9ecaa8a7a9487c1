#!/usr/bin/env python3
"""Build and run the knlmem benchmark.

    python3 perfbench/run.py --workload repro|serve|capacity|all \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a knlmem checkout. The first call configures and
builds the perfbench binary (the knlmem library plus the harness, Release)
into $CARGO_TARGET_DIR or .bench_build/; later calls reuse that build.
Each workload runs in its own process. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("repro", "serve", "capacity")
RUN_TIMEOUT_S = 170

# The end-to-end metrics each workload prints in its human report (a tail
# is spelled with whichever percentile the sample supports, hence the
# patterns).
REPORT_METRICS = {
    "repro": [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("fail_ratio", "ratio"),
              ("repro_p50_ms", "ms"), (r"repro_p\d+_ms", "ms"), ("repro_cpu_ms", "ms"),
              ("repro_serial_p50_ms", "ms")],
    "serve": [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("fail_ratio", "ratio"),
              ("serve_qps", "req/s"), ("serve_p50_ms", "ms"), (r"serve_p\d+_ms", "ms"),
              ("serve_placement_p50_ms", "ms"), ("serve_inproc_placement_p50_ms", "ms"),
              ("serve_cpu_us_per_req", "us"),
              (r"generator_late_p\d+_ms", "ms")],
    "capacity": [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("fail_ratio", "ratio"),
                 ("capacity_regular_cold_ms", "ms"), ("capacity_random_cold_ms", "ms"),
                 ("capacity_warm_us", "us")],
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def git_sha():
    try:
        # Look no higher than the checkout: a copy without .git reads "unknown".
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def build():
    """Configure (once) and build the Release perfbench binary; returns its path."""
    for needed in ("src/CMakeLists.txt", "golden/manifest.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found: run from a knlmem checkout")
    tree = os.path.join(build_dir(), "perfbench-release")
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return os.path.join(tree, "perfbench")


def run_one(binary, workload, args):
    """Run one workload in its own process; returns (exit code, stdout)."""
    scratch = os.path.join(build_dir(), "scratch")
    os.makedirs(os.path.join(scratch, "traces"), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-rate", str(args.serve_rate),
           "--scratch-dir", os.path.join(scratch, "artifacts"),
           "--golden-dir", os.path.join(ROOT, "golden")]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(scratch, "traces", f"{workload}-seed{args.seed}.json")]
    sha = git_sha()
    if sha:
        cmd += ["--git-sha", sha]
    if args.record:
        cmd += ["--record", args.record]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, ""
    return out.returncode, out.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def report_rows(stdout):
    """name -> unit of every printed metric row."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            rows[parts[0]] = parts[2]
    return rows


def self_test(binary, args):
    """Short runs of every workload: every metric emitted with its unit,
    fail_ratio 0, and the seed moving the serve log and the capacity trace
    but not repro."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    args.seconds = 2
    for workload in WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layers)):
            args.trace = trace
            code, stdout = run_one(binary, workload, args)
            result = result_of(stdout)
            tag = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(wanted))} "
                                "differ from BENCHMARK.json")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{tag}: fail_ratio is not 0")
            rows = report_rows(stdout)
            for pattern, unit in REPORT_METRICS[workload]:
                if not any(re.fullmatch(pattern, n) and u == unit for n, u in rows.items()):
                    problems.append(f"{tag}: {pattern} [{unit}] not printed")
    for workload, should_move in (("repro", False), ("serve", True), ("capacity", True)):
        digests = []
        for seed in (1, 2):
            out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                                  "--digest-only"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=RUN_TIMEOUT_S)
            digests.append(out.stdout.strip())
        if (digests[0] != digests[1]) != should_move:
            problems.append(f"{workload}: seed {'did not change' if should_move else 'changed'}"
                            " its inputs")
    for problem in problems:
        print("FAIL", problem)
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rate", type=float, default=1000.0,
                        help="offered rate of the serve open loop, requests/s")
    parser.add_argument("--record", help="also write the result with its host record "
                        "to this file (Release builds only)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    binary = build()
    if args.self_test:
        return self_test(binary, args)
    if args.workload != "all":
        code, stdout = run_one(binary, args.workload, args)
        sys.stdout.write(stdout)
        return code

    # All three, each in its own process; the last line merges their results.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, stdout = run_one(binary, workload, args)
        sys.stdout.write(stdout)
        worst = worst or code
        result = result_of(stdout)
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
