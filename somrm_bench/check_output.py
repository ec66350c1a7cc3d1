#!/usr/bin/env python3
"""Check that somrm_bench outputs carry every metric BENCHMARK.json declares.

Usage:
    check_output.py BENCHMARK.json RUN.json [RUN.json ...]

A RUN.json is either a run's --json output, whose "end_to_end" section must
hold every end-to-end metric and, for a traced run, whose "per_layer"
section must hold every per-layer metric; or a saved last stdout line
{"correct", "attempted", "failed", "metrics"}, whose metrics must be exactly
the end-to-end set or exactly the per-layer set. A metric fails when it is
missing, has no unit or another unit than declared, or its value is not a
finite number.

Exit status: 0 when every file passes, 1 otherwise.
"""

import json
import math
import sys

LAST_LINE_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_metrics(section, declared, where):
    problems = []
    for metric in declared:
        name = metric["name"]
        got = section.get(name)
        if got is None:
            problems.append(f"{where}: {name} is missing")
            continue
        if not got.get("unit"):
            problems.append(f"{where}: {name} has no unit")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{where}: {name} has unit {got['unit']!r}, "
                            f"declared {metric['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} has value {value!r}")
    return problems


def check_run(run, benchmark, where):
    e2e, layer = benchmark["end_to_end"], benchmark["per_layer"]
    if set(run) == LAST_LINE_KEYS:
        names = set(run["metrics"])
        declared = layer if names == {m["name"] for m in layer} else e2e
        problems = check_metrics(run["metrics"], declared, where)
        extra = names - {m["name"] for m in declared}
        problems += [f"{where}: {name} is not declared" for name in extra]
        attempted = run["attempted"]
        if not isinstance(attempted, int) or attempted < 1:
            problems.append(f"{where}: attempted = {attempted!r}")
        return problems
    problems = check_metrics(run.get("end_to_end", {}), e2e, where)
    if run.get("trace"):
        problems += check_metrics(run.get("per_layer", {}), layer, where)
    return problems


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    with open(argv[1], encoding="utf-8") as f:
        benchmark = json.load(f)
    problems = []
    for path in argv[2:]:
        try:
            with open(path, encoding="utf-8") as f:
                run = json.load(f)
        except (OSError, ValueError) as e:
            problems.append(f"{path}: {e}")
            continue
        problems += check_run(run, benchmark, path)
    for problem in problems:
        print(problem)
    if not problems:
        print(f"ok: {len(argv) - 2} output(s) carry every declared metric")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
