#!/usr/bin/env python3
"""Build somrm_bench from this checkout and run one workload, or all.

Usage, from the repository root:
    python3 somrm_bench/run.py --workload table2 --seed 1 --seconds 20 \\
        --trace 0 [--json out.json]
    python3 somrm_bench/run.py --workload all --seed 1 --seconds 20 \\
        --trace 0 [--json out]      # writes out-<workload>.json

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
repository root, and is refreshed before every run. Build output goes to
stderr; the benchmark's own output goes to stdout, whose last line is one
JSON object {"correct", "attempted", "failed", "metrics"}. With
``--workload all`` every workload runs in a fresh process and the last line
merges them, metric names prefixed with "<workload>.".

Exits 0 when every output was correct, 1 when one was not or the run did
not finish, 2 when the checkout cannot be built.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["table2", "hits_small", "mixed_churn"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Content hash of everything the binary is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in tree.rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def build(build_dir):
    """Configures (once) and builds somrm_bench; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no project sources under {ROOT}; cannot build")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "somrm_bench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "somrm_bench"


def run_one(binary, build_dir, workload, args, json_path):
    """Runs one workload; returns (exit code, last stdout line)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_dir / "work"),
           "--golden-dir", str(BENCH_DIR / "golden"),
           "--source-id", source_id()]
    if json_path:
        cmd += ["--json", json_path]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir / f"trace-{workload}-{args.seed}.json")]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1, None
    lines = out.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return proc.returncode, lines[-1] if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--json", help="write the full result here "
                        "(with --workload all: a prefix)")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    if args.workload != "all":
        code, last = run_one(binary, build_dir, args.workload, args,
                             args.json)
        if last is None:
            return 1
        print(last)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        json_path = f"{args.json}-{workload}.json" if args.json else None
        code, last = run_one(binary, build_dir, workload, args, json_path)
        worst = max(worst, code)
        if last is None:
            return 1
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
