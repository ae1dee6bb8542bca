#!/usr/bin/env python3
"""Verified-batch benchmark: builds vcbench from source and runs one workload.

Usage (from the repository root):
  python3 vcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 vcbench/run.py --smoke

The first form builds (or refreshes) the binary under $CARGO_TARGET_DIR
(default .bench_build), runs the workload, checks that its result line names
exactly the metrics BENCHMARK.json lists for that mode, and passes the
binary's report through; the last line of stdout is the JSON result. Build
output goes to stderr. The exit code is nonzero if the build fails, an output
is wrong, or the metric names disagree with BENCHMARK.json.

--smoke runs the small smoke workloads (small programs, light PCP parameters)
in both modes and asserts that together they name every metric in
BENCHMARK.json. See vcbench/METRICS.md for what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
SMOKE_WORKLOADS = ("smoke_f128", "smoke_f220")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "apps" / "harness.h").is_file():
        sys.exit("vcbench: zaatar sources not found under %s" % (ROOT / "src"))
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("vcbench: build failed: %s" % " ".join(cmd))
    return out / "vcbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (report lines, result dict, exit code)."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("vcbench: %s printed no result (exit %d)"
                 % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1]), proc.returncode


def smoke(binary):
    seen = set()
    ok = True
    for workload in SMOKE_WORKLOADS:
        for trace in (0, 1):
            lines, result, code = run(binary, workload, 1, 1, trace)
            print("\n".join(lines))
            names = set(result["metrics"])
            missing = expected_metrics(trace) - names
            if code != 0 or not result["correct"] or missing:
                print("# FAIL: %s trace %d: exit %d, correct %s, missing %s"
                      % (workload, trace, code, result["correct"],
                         sorted(missing)))
                ok = False
            seen |= names
    listed = expected_metrics(0) | expected_metrics(1)
    print("# smoke %s: %d of %d BENCHMARK.json metrics named"
          % ("ok" if ok and listed <= seen else "FAILED",
             len(listed & seen), len(listed)))
    return 0 if ok and listed <= seen else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    if args.smoke:
        return smoke(binary)

    lines, result, code = run(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    print("\n".join(lines))
    expected = expected_metrics(args.trace)
    if set(result["metrics"]) != expected:
        print("# FAIL: metrics %s differ from BENCHMARK.json %s"
              % (sorted(result["metrics"]), sorted(expected)))
        result["correct"] = False
        code = code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
