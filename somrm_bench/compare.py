#!/usr/bin/env python3
"""Compare sets of somrm_bench runs against the bounds in BENCHMARK.json.

Usage:
    compare.py [--benchmark BENCHMARK.json] RUN.json [RUN.json ...]
               [--vs RUN.json [RUN.json ...]]
    compare.py --layers RUN.json

Each RUN.json is the --json output of one run (``run.py ... --json PATH``).
Runs are grouped by workload. For every (workload, end-to-end metric) the
table gives each set's run count, median, first and third quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and spread,
(Q3 - Q1) / median. A spread above the metric's bound is marked NOISY when
the set has at least MIN_RUNS_FOR_SPREAD runs (the quartiles of fewer runs
are their extremes), except for setup_s, whose bound only limits how far
its median may move.

With ``--vs`` the second set is compared with the first: the change of the
median, signed so that positive means worse for that metric, must stay
within the metric's bound; a larger worsening is marked WORSE.

Exit status: 0 when nothing is NOISY or WORSE, 1 otherwise, 2 on bad
input. ``--layers`` prints a traced run's self time per layer and its
per-layer metrics instead.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_RUNS_FOR_SPREAD = 5


def quartiles(values):
    """(q1, median, q3) of a non-empty list, by statistics.quantiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """(Q3 - Q1) / median; 0 for a single value or a zero median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worsening(metric, base, new):
    """Relative change from base to new, positive when new is worse."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def load_runs(paths):
    """{workload: [run, ...]} from --json outputs."""
    by_workload = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            run = json.load(f)
        if "workload" not in run or "end_to_end" not in run:
            raise ValueError(f"{path}: not a somrm_bench --json output")
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def metric_values(runs, name):
    return [run["end_to_end"][name]["value"] for run in runs
            if name in run.get("end_to_end", {})
            and run["end_to_end"][name]["value"] is not None]


def compare(benchmark, base, other=None):
    """Rows of the comparison table and whether every check passed."""
    rows = []
    ok = True
    for workload in sorted(set(base) | set(other or {})):
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {"workload": workload, "metric": name, "bound": bound,
                   "flags": []}
            sets = [("a", base.get(workload, []))]
            if other is not None:
                sets.append(("b", other.get(workload, [])))
            for key, runs in sets:
                values = metric_values(runs, name)
                if not values:
                    row[key] = None
                    row["flags"].append(f"MISSING({key})")
                    ok = False
                    continue
                q1, med, q3 = quartiles(values)
                row[key] = {"n": len(values), "median": med, "q1": q1,
                            "q3": q3, "spread": spread(values)}
                if (name != "setup_s" and len(values) >= MIN_RUNS_FOR_SPREAD
                        and row[key]["spread"] > bound):
                    row["flags"].append(f"NOISY({key})")
                    ok = False
            if other is not None and row.get("a") and row.get("b"):
                row["worse_by"] = worsening(metric, row["a"]["median"],
                                            row["b"]["median"])
                if row["worse_by"] > bound:
                    row["flags"].append("WORSE")
                    ok = False
            rows.append(row)
    return rows, ok


def render(rows, two_sets):
    def cell(stats):
        if stats is None:
            return f"{'-':>4} {'-':>12} {'-':>12} {'-':>12} {'-':>7}"
        return (f"{stats['n']:>4} {stats['median']:>12.6g} "
                f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} "
                f"{stats['spread']:>7.2%}")

    head = (f"{'workload':<12} {'metric':<14} {'bound':>6} | "
            f"{'n':>4} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    if two_sets:
        head += (f" | {'n':>4} {'median':>12} {'q1':>12} {'q3':>12} "
                 f"{'spread':>7} | {'worse by':>8}")
    lines = [head, "-" * len(head)]
    for row in rows:
        line = (f"{row['workload']:<12} {row['metric']:<14} "
                f"{row['bound']:>6.2f} | {cell(row.get('a'))}")
        if two_sets:
            worse = row.get("worse_by")
            line += f" | {cell(row.get('b'))} | " + (
                f"{worse:>8.2%}" if worse is not None else f"{'-':>8}")
        if row["flags"]:
            line += "  " + " ".join(row["flags"])
        lines.append(line)
    return "\n".join(lines)


def render_layers(run):
    """Self time per layer and the per-layer metrics of one traced run."""
    layers = run.get("layers", {})
    total = sum(layer["self_ms"] for layer in layers.values()) or 1.0
    lines = [f"{run['workload']} seed {run['seed']}: self time by layer",
             f"{'layer':<10} {'spans':>10} {'self ms':>14} {'share':>8}"]
    for name, layer in sorted(layers.items(),
                              key=lambda item: -item[1]["self_ms"]):
        lines.append(f"{name:<10} {layer['spans']:>10} "
                     f"{layer['self_ms']:>14.3f} "
                     f"{layer['self_ms'] / total:>8.2%}")
    lines.append("")
    lines.append(f"{'per-layer metric':<26} {'value':>14} unit")
    for name, metric in run.get("per_layer", {}).items():
        value = metric["value"]
        shown = f"{value:>14.6g}" if value is not None else f"{'-':>14}"
        lines.append(f"{name:<26} {shown} {metric['unit']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs", nargs="*", help="--json outputs of set A")
    parser.add_argument("--vs", nargs="+", metavar="RUN",
                        help="--json outputs of set B")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    parser.add_argument("--layers", metavar="RUN",
                        help="render one traced run's layer table")
    args = parser.parse_args(argv)

    try:
        if args.layers:
            with open(args.layers, encoding="utf-8") as f:
                print(render_layers(json.load(f)))
            return 0
        if not args.runs:
            parser.error("no runs given")
        with open(args.benchmark, encoding="utf-8") as f:
            benchmark = json.load(f)
        base = load_runs(args.runs)
        other = load_runs(args.vs) if args.vs else None
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    rows, ok = compare(benchmark, base, other)
    print(render(rows, other is not None))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
