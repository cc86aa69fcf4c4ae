#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (an optimized build of the classifier library plus the
benchmark program) under .bench_build/perfbench; later calls rebuild only
what changed. The program's output is checked against BENCHMARK.json, its
provenance and result are saved under .bench_build/perfbench/results/,
and a traced run's chrome trace under .bench_build/perfbench/traces/.

Standard output ends with one JSON line holding exactly `correct`,
`attempted`, `failed` and `metrics`. The exit status is 0 only when the
run completed and every correctness check passed; a checkout without the
classifier sources fails before printing any result.
"""
import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Every run must end within this many seconds of starting to measure.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def expected_metrics(spec, trace):
    """{name: unit} of the metrics a run with --trace <trace> must print."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Parse perfbench's last line and check it against the result format.

    Returns the parsed object; raises ValueError naming the first problem.
    """
    try:
        r = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"last line is not JSON: {e}") from None
    if not isinstance(r, dict) or set(r) != RESULT_KEYS:
        raise ValueError(f"result keys are {sorted(r) if isinstance(r, dict) else r!r}")
    if not isinstance(r["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(r[k], int) or isinstance(r[k], bool) or r[k] < 0:
            raise ValueError(f"{k} is not a whole number")
    if r["attempted"] < 1:
        raise ValueError("attempted is below 1")
    got = r["metrics"]
    if not isinstance(got, dict) or set(got) != set(expected):
        missing = sorted(set(expected) - set(got or {}))
        extra = sorted(set(got or {}) - set(expected))
        raise ValueError(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = got[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise ValueError(f"metric {name} is not {{value, unit: {unit}}}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"metric {name} has no finite value")
    return r


def build():
    if not (ROOT / "src" / "core" / "classifier.hpp").is_file():
        raise RuntimeError("no classifier sources under src/ to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        binary = build()
    except (OSError, ValueError, KeyError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"cannot build the benchmark: {e}")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(BUILD / "traces" / f"{stem}.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench exited with status {proc.returncode}")
        return proc.returncode or 1
    try:
        result = check_result(lines[-1], expected_metrics(spec, args.trace))
    except ValueError as e:
        log(f"perfbench output breaks the result format: {e}")
        return 1

    provenance = json.loads(lines[0])["provenance"] if len(lines) > 1 else {}
    (BUILD / "results").mkdir(exist_ok=True)
    (BUILD / "results" / f"{stem}.json").write_text(json.dumps(
        {"provenance": provenance, "wall_s": time.monotonic() - started,
         "result": result}, indent=1) + "\n")
    print(lines[0] if len(lines) > 1 else "{}")
    print(lines[-1], flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
