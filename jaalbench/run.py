#!/usr/bin/env python3
"""Builds and runs the Jaal benchmark.

Run from the repository root:

    python3 jaalbench/run.py --workload isp_steady --seed 1 --seconds 30 --trace 0
    python3 jaalbench/run.py --selftest

The first call configures and builds jaalbench/ (the library from src/ plus
the benchmark binary) under .bench_build/; later calls rebuild
incrementally.  The binary's output is passed through: one "metric" line per
metric with its unit and sample count, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  A copy of each
result, with the host context, is kept under .bench_build/results/.

--selftest runs every workload for a few epochs, checks that every metric in
BENCHMARK.json is printed with its unit, and checks that a corrupted
reference digest makes the run fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "jaalbench"
BINARY = BUILD_DIR / "jaalbench"
RUN_DIR = ROOT / ".bench_build" / "run"
RESULTS_DIR = ROOT / ".bench_build" / "results"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "jaal.hpp").is_file():
        log("jaalbench: library sources (src/) not found next to jaalbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("jaalbench: build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def source_identity():
    """Git SHA when the tree is a git checkout, plus a digest of the sources
    the binary is built from (the checkout may not be a git repository)."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return sha, h.hexdigest()[:16]


def run_binary(args, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("jaalbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    return proc.returncode, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def printed_metrics(lines):
    """name -> unit from the binary's "metric <name> <value> <unit>" lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            out[parts[1]] = parts[3]
    return out


def run(args):
    sha, digest = source_identity()
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    code, lines = run_binary([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(RUN_DIR), "--git-sha", sha])
    result = parse_result(lines)
    if result is None:
        log("jaalbench: no result line")
        return 1
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")),
                {})
    host["source_sha256"] = digest
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (RESULTS_DIR / name).write_text(json.dumps(
        {"host": host, "result": result,
         "detection": [l for l in lines if l.startswith("detect ")]},
        indent=1) + "\n")
    return code


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            code, lines = run_binary([
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--epochs", "10",
                "--workdir", str(RUN_DIR)], echo=False)
            result = parse_result(lines)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(tag + ": run failed (exit %d)" % code)
                continue
            printed = printed_metrics(lines)
            for name, unit in expected[trace].items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit:
                    problems.append("%s: %s missing or not in %s in the "
                                    "result" % (tag, name, unit))
                if printed.get(name) != unit:
                    problems.append("%s: %s not printed with unit %s"
                                    % (tag, name, unit))
            extra = set(result["metrics"]) - set(expected[trace])
            if extra:
                problems.append("%s: undeclared metrics %s"
                                % (tag, sorted(extra)))
            log("selftest: %s ok" % tag)
        # A broken output check must fail the run and yield no numbers.
        code, lines = run_binary([
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", "0", "--epochs", "6", "--workdir", str(RUN_DIR),
            "--corrupt-reference"], echo=False)
        result = parse_result(lines)
        if code == 0 or result is None or result["correct"] \
                or result["failed"] < 1 or result["metrics"]:
            problems.append("%s: corrupted reference digest did not fail the "
                            "run" % workload)
        else:
            log("selftest: %s corrupted reference fails the run" % workload)
    for p in problems:
        log("selftest FAILED: " + p)
    print("selftest %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    # The window the bounds in BENCHMARK.json were set from.
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"] if (ROOT / "BENCHMARK.json").is_file() else 30
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    return selftest() if args.selftest else run(args)


if __name__ == "__main__":
    sys.exit(main())
