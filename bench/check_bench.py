#!/usr/bin/env python3
"""Bench-regression gate for the smoke bench tier.

Runs every bench binary under NBOS_BENCH_SMOKE=1, parses its stdout
tables (percentile rows and key=value columns) into JSON, and checks two
things against the committed bench/baseline.json:

  * correctness: the deterministic stdout (minus "# TIMING" wall-clock
    lines) must hash to the baseline value — the benches are seeded and
    the engines are bit-deterministic, so any drift is a behaviour
    change and needs a deliberate `--update`;
  * throughput: each bench's wall time must stay inside the tolerance
    band (relative tolerance plus a small absolute guard so millisecond
    jitter on tiny benches cannot trip the gate).

Modes:
  compare (default)  exit 1 on any regression; writes --out JSON either way
  --update           re-measure, print every bench whose hash moved against
                     the old baseline (its changed rows and its time), then
                     rewrite the baseline file

The NBOS_BENCH_INJECT_SLOWDOWN_PCT env hook in bench_common.hpp slows
every run_policies/run_specs_or_exit scope proportionally, so the gate's
red path is testable without committing a slowdown:

  NBOS_BENCH_INJECT_SLOWDOWN_PCT=25 check_bench.py --build build  # red
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

TIMING_PREFIX = "# TIMING"

# Google Benchmark binaries: their whole stdout is wall-clock measurement
# (no deterministic figure tables) and they self-calibrate their run
# time, so neither the hash nor the seconds comparison is meaningful.
# Their bench-rot coverage stays in the `ctest -L smoke` tier.
SKIP_BENCHES = {"micro_raft", "micro_simcore"}

# Percentile-table rows printed by bench_common's print_percentiles:
#   label n=123  p10=1.0 p25=... max=... [unit]
ROW_RE = re.compile(r"^(?P<label>\S.*?)\s+n=(?P<n>\d+)\s+(?P<rest>p10=.*)$")
PAIR_RE = re.compile(r"(p\d+|max)=([-+0-9.eE]+)")


def discover_benches(build_dir: str) -> list[str]:
    bench_dir = os.path.join(build_dir, "bench")
    if not os.path.isdir(bench_dir):
        sys.exit(f"error: {bench_dir} not found (build the benches first)")
    benches = []
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if (
            os.path.isfile(path)
            and os.access(path, os.X_OK)
            and name not in SKIP_BENCHES
        ):
            benches.append(name)
    if not benches:
        sys.exit(f"error: no bench executables in {bench_dir}")
    return benches


def parse_metrics(stdout: str) -> dict:
    """Extract the numeric figure rows (the run_policies tables) as JSON."""
    metrics: dict[str, dict] = {}
    for line in stdout.splitlines():
        match = ROW_RE.match(line.rstrip())
        if not match:
            continue
        label = match.group("label").strip()
        row = {"n": int(match.group("n"))}
        for key, value in PAIR_RE.findall(match.group("rest")):
            row[key] = float(value)
        # Benches print one table per engine; repeated labels get suffixed
        # so every row survives into the artifact.
        key = label
        suffix = 2
        while key in metrics:
            key = f"{label}#{suffix}"
            suffix += 1
        metrics[key] = row
    return metrics


def deterministic_hash(stdout: str) -> str:
    """SHA-256 of stdout minus the wall-clock '# TIMING' lines."""
    lines = [
        line
        for line in stdout.splitlines()
        if not line.startswith(TIMING_PREFIX)
    ]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()


def run_bench(build_dir: str, name: str) -> dict:
    env = dict(os.environ)
    env["NBOS_BENCH_SMOKE"] = "1"
    # The gate measures the deterministic single-seed tier, each bench at
    # its own shard count, routing policy and workload profile, and
    # chaos_raft's canonical fault sweep (no seed, rate or schedule file
    # from the caller's shell).
    for knob in (
        "NBOS_BENCH_SEEDS",
        "NBOS_BENCH_POLICIES",
        "NBOS_BENCH_SHARDS",
        "NBOS_BENCH_ROUTING",
        "NBOS_BENCH_PROFILE",
        "NBOS_CHAOS_SEED",
        "NBOS_CHAOS_RATE",
        "NBOS_CHAOS_RECORD",
        "NBOS_CHAOS_REPLAY",
    ):
        env.pop(knob, None)
    path = os.path.join(build_dir, "bench", name)
    start = time.monotonic()
    proc = subprocess.run(
        [path], env=env, capture_output=True, text=True, timeout=600
    )
    seconds = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(
            f"error: {name} exited with {proc.returncode}\n{proc.stderr}"
        )
    return {
        "seconds": round(seconds, 4),
        "stdout_sha256": deterministic_hash(proc.stdout),
        "metrics": parse_metrics(proc.stdout),
    }


def changed_rows(base: dict, got: dict) -> list[str]:
    """Labels of the parsed rows that differ between two measurements."""
    old = base.get("metrics", {})
    new = got.get("metrics", {})
    return [
        label
        for label in sorted(old.keys() | new.keys())
        if old.get(label) != new.get(label)
    ]


def report_moves(baseline: dict, measured: dict) -> None:
    """Print each bench whose hash moved against @p baseline, with its
    changed rows (old -> new values) and its old and new time."""
    moved = 0
    for name, got in sorted(measured.items()):
        base = baseline["benches"].get(name)
        if base is None:
            print(f"new {name}: {got['seconds']:.3f}s")
            continue
        if got["stdout_sha256"] == base["stdout_sha256"]:
            continue
        moved += 1
        print(
            f"moved {name}: sha {base['stdout_sha256'][:12]} -> "
            f"{got['stdout_sha256'][:12]}, {base['seconds']:.3f}s -> "
            f"{got['seconds']:.3f}s"
        )
        rows = changed_rows(base, got)
        if not rows:
            print("  (no parsed row changed)")
        for label in rows:
            old = base.get("metrics", {}).get(label, {})
            new = got["metrics"].get(label, {})
            changes = ", ".join(
                f"{key} {old.get(key)} -> {new.get(key)}"
                for key in sorted(old.keys() | new.keys())
                if old.get(key) != new.get(key)
            )
            print(f"  {label}: {changes}")
    for name in sorted(baseline["benches"].keys() - measured.keys()):
        print(f"dropped {name}")
    print(f"{moved} bench hash(es) moved against the old baseline")


def compare(
    baseline: dict, measured: dict, tolerance: float, abs_guard: float
) -> list[str]:
    failures = []
    for name, base in sorted(baseline["benches"].items()):
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: bench missing from this build")
            continue
        if got["stdout_sha256"] != base["stdout_sha256"]:
            diffs = changed_rows(base, got)
            detail = f" (changed rows: {', '.join(diffs)})" if diffs else ""
            failures.append(
                f"{name}: deterministic output drifted from baseline"
                f"{detail} — a behaviour change; rerun with --update if "
                "intended"
            )
        limit = base["seconds"] * (1.0 + tolerance)
        if (
            got["seconds"] > limit
            and got["seconds"] - base["seconds"] > abs_guard
        ):
            failures.append(
                f"{name}: {got['seconds']:.3f}s vs baseline "
                f"{base['seconds']:.3f}s exceeds the +{tolerance:.0%} band"
            )
    for name in sorted(set(measured) - set(baseline["benches"])):
        print(
            f"note: {name} has no baseline entry (new bench?) — "
            "run --update to pin it"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build", help="build directory")
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "baseline.json"),
    )
    parser.add_argument("--out", default="", help="write measured JSON here")
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline file"
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=None,
        help="relative wall-time band (default: baseline file's value, "
        "overridable via NBOS_BENCH_TIME_TOLERANCE)",
    )
    args = parser.parse_args()

    measured = {}
    for name in discover_benches(args.build):
        measured[name] = run_bench(args.build, name)
        print(
            f"measured {name}: {measured[name]['seconds']:.3f}s "
            f"sha={measured[name]['stdout_sha256'][:12]}"
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump({"benches": measured}, out, indent=1, sort_keys=True)
        print(f"wrote {args.out}")

    if args.update:
        # Show what the re-pin changes, then preserve a previously
        # configured tolerance band; only the measurements are re-pinned.
        tolerance = 0.15
        if os.path.exists(args.baseline):
            try:
                with open(args.baseline, encoding="utf-8") as handle:
                    old = json.load(handle)
            except (OSError, ValueError):
                old = None
            if old is not None:
                report_moves(old, measured)
                tolerance = old.get("time_tolerance", tolerance)
        payload = {"time_tolerance": tolerance, "benches": measured}
        with open(args.baseline, "w", encoding="utf-8") as out:
            json.dump(payload, out, indent=1, sort_keys=True)
            out.write("\n")
        print(f"updated {args.baseline}")
        return 0

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    tolerance = baseline.get("time_tolerance", 0.15)
    if os.environ.get("NBOS_BENCH_TIME_TOLERANCE"):
        tolerance = float(os.environ["NBOS_BENCH_TIME_TOLERANCE"])
    if args.time_tolerance is not None:
        tolerance = args.time_tolerance

    failures = compare(baseline, measured, tolerance, abs_guard=0.1)
    if failures:
        print("\nbench-regression gate: RED")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(
        f"\nbench-regression gate: green "
        f"({len(baseline['benches'])} benches within +{tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
