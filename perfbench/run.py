#!/usr/bin/env python3
"""Builds and runs the host-time benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload pipeline|fleet|recovery --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark and the library modules it links (Release) under .bench_build/;
later runs rebuild only what changed. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) named in BENCHMARK.json.
Exits non-zero, without a result line, if the build or the run breaks, and
with a result line marked incorrect if any correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        result = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        tail = log_path.read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "Makefile").exists():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], BUILD_DIR / "configure.log")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs],
               BUILD_DIR / "build.log")
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "fleet", "recovery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    spans_path = BUILD_DIR / f"spans-{args.workload}-{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(spans_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")

    lines = proc.stdout.splitlines()
    reports = [l for l in lines if l.startswith("PERFBENCH_REPORT ")]
    for line in lines:
        if not line.startswith("PERFBENCH_REPORT "):
            print(line)
    if not reports:
        fail(f"no report from the benchmark (exit code {proc.returncode})")
    report = json.loads(reports[-1][len("PERFBENCH_REPORT "):])

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[kind]]
    measured = report[kind]
    if report["failed"] == 0 and sorted(measured) != sorted(wanted):
        fail(f"{kind} metrics {sorted(measured)} do not match BENCHMARK.json {sorted(wanted)}")

    references = json.loads((HERE / "digests.json").read_text())["digests"]
    expected = references.get(args.workload, {}).get(str(args.seed))
    if expected is None:
        status = "no reference digest for this seed"
    elif expected == report["digest"]:
        status = "matches the reference"
    else:
        status = f"CHANGED (reference {expected})"
    print(f"outcome digest: {report['digest']} ({status}); build type: {report['build_type']}")
    # Sim-time results depend only on the seed and the code: any change is a
    # change in behaviour, never host noise.
    sim_time = {**report["reported"], **report["end_to_end"]}
    deterministic = json.loads((HERE / "metrics.json").read_text())["deterministic"]
    print("deterministic: " + " ".join(f"{name}={sim_time[name]['value']!r}"
                                       for name in deterministic if name in sim_time))
    if args.trace:
        print(f"spans: {spans_path}")

    metrics = {name: measured[name] for name in wanted if name in measured}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if report["failed"] == 0 and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
