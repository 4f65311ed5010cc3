#!/usr/bin/env python3
"""Benchmark of the casimir-bvl package, run from the root of a checkout.

    python3 perfbench/run.py --workload matsubara-grid --seed 1 --seconds 15 --trace 0

One client thread runs the workload's ops closed-loop (the next op starts
when the previous one returns).  The ops of a run are a fixed list, the
workload's first ``TIMED_BLOCKS`` blocks, generated in set-up.  The run
makes passes over that list, in the same order each pass, until the ops
have taken ``--seconds`` of wall time and every op has run at least
``MIN_PASSES`` times; each op's latency is its fastest pass.  On a shared
host the speed of a core drifts by up to 2x over tens of seconds, and the
passes spread each op's repeats over the whole run, so the fastest one is
the op's cost with the least interference from other tenants.  The first
pass's result of each op is checked by an oracle, outside the op's timed
span; every later pass must reproduce it exactly.  ``ok_per_s`` is ops
that passed, per second of their summed latencies.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it are a readable
table with sample counts, every failure with its reason, and the run
metadata.  Per-op records go to ``.perfbench_out/`` in the checkout.

The traced run takes a fixed number of ops from the same stream, plus the
ops only the trace runs (on matsubara-grid, the real-frequency
cross-check), runs them once untraced and once traced (the difference is
the tracing overhead, and the two results must be bit-identical), then
runs the workload's known-defect probes traced and records how each one
ends.

The package is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PACKAGE = "casimir_bvl"
MODULES = ("materials", "fresnel", "quadrature", "lifshitz", "bvl", "cli")
#: Set-ups per run; setup_s is their median.  The first one serves the
#: run, the others are spread evenly over its op time, so the median samples
#: the host's speed over the whole run, not over one stretch of it.
SETUP_REPEATS = 11
#: Fewest passes over the op list in a timed run.
MIN_PASSES = 3

END_TO_END = [("setup_s", "s"), ("ok_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("materials.eval_epsilon.calls", "count"),
    ("materials.eval_epsilon.self_ms", "ms"),
    ("materials.eval_epsilon_tabulated.calls", "count"),
    ("materials.eval_epsilon_tabulated.self_ms", "ms"),
    ("fresnel.imag_axis_coefficients.calls", "count"),
    ("fresnel.imag_axis_coefficients.points", "count"),
    ("fresnel.imag_axis_coefficients.self_ms", "ms"),
    ("fresnel.branch_sqrt.calls", "count"),
    ("fresnel.branch_sqrt.points", "count"),
    ("fresnel.branch_sqrt.self_ms", "ms"),
    ("fresnel.branch_sqrt.wall_share", "ratio"),
    ("fresnel.reflection.calls", "count"),
    ("fresnel.reflection.self_ms", "ms"),
    ("fresnel.static_rte.calls", "count"),
    ("quadrature.adaptive_gk.calls", "count"),
    ("quadrature.adaptive_gk.evals", "count"),
    ("quadrature.adaptive_gk.self_ms", "ms"),
    ("quadrature.adaptive_gk.fails", "count"),
    ("quadrature.composite_gk.calls", "count"),
    ("quadrature.composite_gk.evals", "count"),
    ("quadrature.composite_gk.self_ms", "ms"),
    ("quadrature.composite_gk.fails", "count"),
    ("quadrature.integrate_semi_infinite.calls", "count"),
    ("quadrature.integrate_real_frequency.calls", "count"),
    ("quadrature.integrate_real_frequency.evals", "count"),
    ("quadrature.integrate_real_frequency.fails", "count"),
    ("quadrature.matsubara_sum.calls", "count"),
    ("quadrature.matsubara_sum.terms", "count"),
    ("quadrature.matsubara_sum.fails", "count"),
    ("lifshitz.term.calls", "count"),
    ("lifshitz.term.self_ms", "ms"),
    ("lifshitz.integrand.calls", "count"),
    ("lifshitz.integrand.points", "count"),
    ("lifshitz.integrand.self_ms", "ms"),
    ("lifshitz.n0_term.calls", "count"),
    ("lifshitz.n0_term.total_ms", "ms"),
    ("lifshitz.pressure_matsubara.total_ms", "ms"),
    ("lifshitz.pressure_real_frequency.total_ms", "ms"),
    ("bvl.bvl_verdict.calls", "count"),
    ("bvl.bvl_verdict.total_ms", "ms"),
    ("bvl.bvl_verdict.self_ms", "ms"),
    ("bvl.integrand.self_ms", "ms"),
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("cli.main.nonzero_exits", "count"),
    ("cli.parse_material.calls", "count"),
    ("cli.parse_material.self_ms", "ms"),
    ("cli.sweep_overlap", "ratio"),
    ("defects.attempted", "count"),
    ("defects.failed", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

#: Spans whose thread CPU time inside a sweep, over the sweep's wall time,
#: is the sweep overlap: at most 1 when the pool runs one thread at a time.
PRESSURE_SPANS = ("lifshitz.pressure_matsubara",
                  "lifshitz.pressure_real_frequency")


class SetupError(Exception):
    """The checkout does not hold the package sources."""


@dataclass
class Record:
    """How one op ended, over every time it ran."""

    op: object
    phase: str
    reason: str | None   # None when the op finished and passed its oracle
    latencies_s: list = field(default_factory=list)
    failures: int = 0    # runs of the op that failed

    @property
    def latency_s(self):
        return min(self.latencies_s)

    def to_json(self):
        return {"case": self.op.case, "kind": self.op.kind,
                "phase": self.phase, "defect": self.op.defect,
                "outcome": "ok" if self.reason is None else "failed",
                "reason": self.reason, "failures": self.failures,
                "latency_ms": self.latency_s * 1e3,
                "runs_ms": [t * 1e3 for t in self.latencies_s]}


def import_package():
    """Import a fresh copy of the package from SRC; return its modules."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    origin = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"{PACKAGE} imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def run_op(workload, ctx, op, phase):
    """Time one op; return its record and output (None if it raised)."""
    t0 = time.perf_counter()
    try:
        output = workload.execute(ctx, op)
    except Exception as exc:  # a failed op is recorded and the run goes on
        reason = workloads.failure_reason(exc)
        return Record(op, phase, reason, [time.perf_counter() - t0], 1), None
    return Record(op, phase, None, [time.perf_counter() - t0]), output


def check(workload, ctx, record, output):
    """Apply the op's oracle, untimed; an op that misses it is failed."""
    if record.reason is None:
        try:
            workload.check(ctx, record.op, output)
        except Exception as exc:  # a miss, an unparsable output or a
            record.reason = "oracle: " + workloads.failure_reason(exc)
            record.failures = 1
    return record


def digest(output):
    return hashlib.sha256(repr(output).encode()).hexdigest()


def resolve_models(ctx, ops):
    for op in ops:
        for key in ("m1", "m2", "spec"):
            if key in op.params:
                ctx.model(op.params[key])


def set_up(workload, seed):
    """Import, generate the op stream and run one warm-up op."""
    t0 = time.perf_counter()
    ctx = workloads.Context(import_package())
    blocks = workload.blocks(ctx, np.random.default_rng(seed))
    first = [next(blocks) for _ in range(workload.TIMED_BLOCKS)]
    resolve_models(ctx, itertools.chain.from_iterable(first))
    warm = workload.warmup()
    resolve_models(ctx, [warm])
    workload.execute(ctx, warm)
    return time.perf_counter() - t0, ctx, itertools.chain(first, blocks)


def timed_run(workload, ctx, blocks, seconds, max_ops, after_op):
    """Passes over the first ``TIMED_BLOCKS`` blocks until ``seconds`` of
    op time and at least ``MIN_PASSES`` passes; return one record per op.
    ``after_op(busy)`` is called, untimed, after each op with the op time
    so far.

    Only a digest of each first-pass output is kept, so memory does not
    grow with the number of passes.
    """
    ops = list(itertools.chain.from_iterable(
        itertools.islice(blocks, workload.TIMED_BLOCKS)))[:max_ops or None]
    records, digests = [], []
    busy, passes = 0.0, 0
    while passes < MIN_PASSES or busy < seconds:
        for i, op in enumerate(ops):
            if passes >= MIN_PASSES and busy >= seconds:
                break
            record, output = run_op(workload, ctx, op, "timed")
            busy += record.latency_s
            after_op(busy)
            if passes == 0:
                records.append(check(workload, ctx, record, output))
                digests.append(digest(output))
                continue
            first = records[i]
            first.latencies_s.append(record.latency_s)
            reason = record.reason
            if reason is None and digest(output) != digests[i]:
                reason = "output differs from the first pass"
            if reason is not None:
                first.failures += 1
                first.reason = first.reason or reason
        passes += 1
    return records


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, records):
    latencies = [r.latency_s * 1e3 for r in records]
    ok = sum(r.reason is None for r in records)
    n = len(latencies)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ok_per_s": (ok / (sum(latencies) / 1e3), n),
        "op_p50_ms": (statistics.median(latencies), n),
        "op_p90_ms": (percentile(latencies, 90), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }


def traced_run(workload, ctx, blocks, seed, max_ops):
    """Untraced and traced passes over the same ops, then defect probes."""
    limit = min(workload.TRACE_OPS, max_ops or workload.TRACE_OPS)
    ops = list(itertools.islice(itertools.chain.from_iterable(blocks), limit))
    extra = workload.trace_extra(np.random.default_rng([seed, 2]))
    ops += extra[:max_ops or None]
    probes = workload.defects(np.random.default_rng([seed, 1]))
    probes = probes[:max_ops or None]
    resolve_models(ctx, ops + probes)

    t0 = time.perf_counter()
    untraced = [run_op(workload, ctx, op, "untraced") for op in ops]
    wall_untraced = time.perf_counter() - t0

    trace = tracer.Tracer()
    before = tracer.originals(ctx.pkg)
    sweep_busy = sweep_wall = 0.0
    with tracer.patched(trace, ctx.pkg):
        t0 = time.perf_counter()
        traced = []
        for op in ops:
            cpu0 = trace.cpu_s(PRESSURE_SPANS)
            traced.append(run_op(workload, ctx, op, "traced"))
            if op.kind == "sweep":
                sweep_busy += trace.cpu_s(PRESSURE_SPANS) - cpu0
                sweep_wall += traced[-1][0].latency_s
        wall_traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        probed = [run_op(workload, ctx, op, "probe") for op in probes]
        wall_probes = time.perf_counter() - t0
    restored = all(a is b for a, b in zip(before, tracer.originals(ctx.pkg)))

    # checks call the package for references, so they run after tracing
    identical = all(repr(u) == repr(t)
                    for (_, u), (_, t) in zip(untraced, traced))
    untraced, traced, probed = ([check(workload, ctx, r, out) for r, out in
                                 recs] for recs in (untraced, traced, probed))
    stats = trace.stats()
    wall = wall_traced + wall_probes
    extras = {
        "quadrature.matsubara_sum.terms":
            stats.get("lifshitz.term", tracer.Stat()).calls,
        "fresnel.branch_sqrt.wall_share": share(
            stats, "fresnel.branch_sqrt", "lifshitz.pressure_real_frequency"),
        "cli.sweep_overlap": sweep_busy / sweep_wall if sweep_wall else 0.0,
        "defects.attempted": len(probed),
        "defects.failed": sum(r.reason is not None for r in probed),
        "trace.wall_s": wall,
        "trace.overhead_s": wall_traced - wall_untraced,
    }
    values = {name: (layer_value(name, stats, extras), None)
              for name, _ in PER_LAYER}
    checks = {"wrappers_restored": restored, "bit_identical": identical}
    return untraced + traced + probed, traced, values, checks


def share(stats, part, whole):
    """Self time of ``part`` over the total time of ``whole`` (0 if none)."""
    total = stats.get(whole, tracer.Stat()).total_s
    return stats.get(part, tracer.Stat()).self_s / total if total else 0.0


def layer_value(name, stats, extras):
    if name in extras:
        return extras[name]
    span, _, field = name.rpartition(".")
    stat = stats.get(span, tracer.Stat())
    if field.endswith("_ms"):
        return getattr(stat, field[:-3] + "_s") * 1e3
    return getattr(stat, field)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": git_commit(), "src_sha256": src_digest(),
            "machine": platform.machine()}


def report(meta, records, values, units, result):
    OUT.mkdir(exist_ok=True)
    fname = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.jsonl"
    with open(OUT / fname, "w") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec.to_json()) + "\n")
    print("# meta " + json.dumps(meta))
    for rec in records:
        if rec.op.defect is not None:
            outcome = rec.reason or "passed its oracle"
            print(f"# defect probe {rec.op.case} [{rec.op.defect}]: {outcome}")
        elif rec.reason is not None:
            print(f"# FAILED {rec.phase} {rec.op.case}: {rec.reason}")
    print(f"# records: {OUT.name}/{fname}")
    for name, (value, samples) in values.items():
        count = "" if samples is None else f"  (n={samples})"
        print(f"{name:<45} {value:>16.6g} {units[name]}{count}")
    print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="cap on ops per run and per traced list "
                             "(0: no cap); for smoke tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / PACKAGE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    try:
        seconds, ctx, blocks = set_up(workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups = [seconds]

    def another_setup(busy):
        # a fresh import; ctx keeps the modules the run started with
        if (len(setups) < SETUP_REPEATS
                and busy >= args.seconds * len(setups) / SETUP_REPEATS):
            setups.append(set_up(workload, args.seed)[0])

    meta = metadata(args)
    if args.trace:
        records, counted, values, checks = traced_run(
            workload, ctx, blocks, args.seed, args.max_ops)
        units = dict(PER_LAYER)
        meta["checks"] = checks
        sound = all(checks.values())
    else:
        counted = timed_run(workload, ctx, blocks, args.seconds,
                            args.max_ops, another_setup)
        while len(setups) < SETUP_REPEATS:
            another_setup(args.seconds)
        records = counted
        values = end_to_end(setups, counted)
        units = dict(END_TO_END)
        sound = True
    failed = sum(r.failures for r in counted)
    result = {"correct": sound and failed == 0,
              "attempted": sum(len(r.latencies_s) for r in counted),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _) in values.items()}}
    report(meta, records, values, units, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
