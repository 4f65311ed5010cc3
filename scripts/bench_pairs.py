#!/usr/bin/env python3
"""Paired benchmark runs of this checkout against another one.

Runs ``perfbench/run.py --trace 0`` of each checkout, from its own root, on
seeds 1..N, one pair of runs per seed, alternating which side runs first
(this checkout on odd seeds).  Each run's last line of standard output is
read as its JSON result.  One line per pair gives both sides' end-to-end
metrics; then, for each end-to-end metric of BENCHMARK.json, the median of
each side, their ratio (this over OTHER), the pairs this checkout won
(strictly better in the metric's direction) and OTHER's interquartile
range.  A gain claim needs a median gap larger than that range.

The script exits 1 if any run reads ``"correct": false``, and 2 if a run
exits non-zero or prints no JSON result.  It writes nothing under
``perfbench/``: the runs are started without writing bytecode, and
``perfbench/run.py`` keeps its records in ``.perfbench_out/`` of the
checkout it runs in.

Usage:
    python3 scripts/bench_pairs.py --against OTHER_CHECKOUT \\
        --workload matsubara-grid [--pairs 10] [--seconds 50] [--max-ops 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout, workload, seed, seconds, max_ops):
    """The JSON result of one ``perfbench/run.py --trace 0`` run of
    checkout; SystemExit(2) naming the run if it fails or prints none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            "--max-ops", str(max_ops)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode:
            raise ValueError(f"exit code {proc.returncode}")
        return json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        sys.exit(f"bench_pairs: {checkout} seed {seed}: no result ({exc}): "
                 f"{proc.stderr.strip()[-500:]}")


def quartiles(values):
    """(q1, q3) of values, inclusive method; (v, v) for one value."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, required=True,
                    metavar="OTHER_CHECKOUT",
                    help="root of the checkout to compare with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--max-ops", type=int, default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"this": ROOT, "other": args.against.resolve()}

    runs = {"this": [], "other": []}
    correct = True
    for seed in range(1, args.pairs + 1):
        order = ("this", "other") if seed % 2 else ("other", "this")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds,
                              args.max_ops)
            correct &= result["correct"] is True
            runs[side].append({name: m["value"]
                               for name, m in result["metrics"].items()})
        print(f"pair {seed} (seed {seed}, {order[0]} first): " + "  ".join(
            f"{name} {runs['this'][-1][name]:.6g}/"
            f"{runs['other'][-1][name]:.6g}" for name in better))

    print(f"{'metric':<12} {'better':<7} {'this':>12} {'other':>12} "
          f"{'ratio':>8} {'won':>6} {'other IQR':>25}")
    for name, direction in better.items():
        this = [r[name] for r in runs["this"]]
        other = [r[name] for r in runs["other"]]
        sign = 1.0 if direction == "higher" else -1.0
        won = sum(sign * (a - b) > 0.0 for a, b in zip(this, other))
        med_this, med_other = statistics.median(this), statistics.median(other)
        ratio = med_this / med_other if med_other else float("nan")
        q1, q3 = quartiles(other)
        print(f"{name:<12} {direction:<7} {med_this:>12.6g} "
              f"{med_other:>12.6g} {ratio:>8.4f} {won:>3}/{len(this):<2} "
              f"{f'{q1:.6g}-{q3:.6g}':>25}")
    if not correct:
        print("bench_pairs: a run read \"correct\": false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
