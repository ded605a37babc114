#!/usr/bin/env python3
"""End-to-end benchmark of the NotebookOS reproduction.

Builds the engine libraries and the benchmark program from ../src in
Release (the first call builds; later calls only check the build is up to
date), then runs a workload and passes its output through. The last line
of standard output is the result JSON.

  python3 e2ebench/run.py --workload fast_scale --seed 2026 --seconds 30 --trace 0
  python3 e2ebench/run.py --workload all      # every workload, one process each
  python3 e2ebench/run.py --selftest          # self-test of the output checks

The workload names, and the names and units of the metrics each mode must
print, come from BENCHMARK.json at the repository root.

Exit status: 0 when every output check passed and the printed metrics
are the ones BENCHMARK.json lists; non-zero when the build failed, a check
failed, the metrics differ or a run did not finish.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
# One run measures for --seconds, plus a warm-up and a last repetition of
# at most a few seconds each; a run this much longer than --seconds has
# hung.
RUN_SLACK_S = 150


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    """BENCHMARK.json: the workload names and the metrics each mode must
    print, with their units."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read {ROOT / 'BENCHMARK.json'}: {error}")


def check_metrics(benchmark, trace, result):
    """The names and units of @p result's metrics, against BENCHMARK.json.
    Returns the list of mismatches."""
    listed = {m["name"]: m["unit"]
              for m in benchmark["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    return [f"{name}: BENCHMARK.json says {listed.get(name)}, "
            f"the run printed {printed.get(name)}"
            for name in sorted(listed.keys() | printed.keys())
            if listed.get(name) != printed.get(name)]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))


def run(command, timeout):
    """Run @p command to completion; return (exit code, stdout)."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(command)} did not finish in {timeout} s")
    return done.returncode, done.stdout


def run_workload(benchmark, name, seed, seconds, trace):
    """Run one workload and pass its output through; return (exit code,
    result), the result being None when the run failed."""
    command = [str(BUILD / "nbos_e2e"), "--workload", name, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans", str(spans / f"{name}-seed{seed}.tsv")]
    code, out = run(command, seconds + RUN_SLACK_S)
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return max(code, 1), None
    result = json.loads(lines[-1])
    mismatches = check_metrics(benchmark, trace, result)
    for mismatch in mismatches:
        print(f"e2ebench: metric mismatch: {mismatch}", file=sys.stderr)
    return (1, None) if mismatches else (0, result)


def main():
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")
    if not args.selftest and args.workload is None:
        parser.error("give --workload or --selftest")

    build()
    if args.selftest:
        code, out = run([str(BUILD / "nbos_e2e_selftest")], RUN_SLACK_S)
        sys.stdout.write(out)
        return code

    if args.workload != "all":
        return run_workload(benchmark, args.workload, args.seed,
                            args.seconds, args.trace)[0]

    # Every workload in a process of its own, so each peak RSS is its own.
    results, worst = {}, 0
    for name in workloads:
        code, results[name] = run_workload(benchmark, name, args.seed,
                                           args.seconds, args.trace)
        worst = max(worst, code)
    print()
    print(f"{'metric':30s}" + "".join(f"{name:>16s}" for name in workloads))
    metrics = next((r["metrics"] for r in results.values() if r), {})
    for metric, entry in metrics.items():
        row = "".join(
            f"{results[name]['metrics'][metric]['value']:16.6g}"
            if results[name] else f"{'FAILED':>16s}" for name in workloads)
        print(f"{metric:30s}{row}  {entry['unit']}")
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
