#!/usr/bin/env python3
"""Op-by-op timing of this checkout against another one, in one process.

Loads the ``casimir_bvl`` package of each checkout under its own name and
builds a workload's timed ops, the first ``TIMED_BLOCKS`` blocks of
``perfbench/workloads.py`` of this checkout, for each seed.  Each pass
runs every op on both packages back to back, alternating which goes
first, and keeps each op's fastest run on each side.  A side's ok/s is
its ops that did not raise over the sum of those best latencies, as
``perfbench/run.py`` reads ``ok_per_s``.  Interleaving op by op puts both
sides under the same load from other tenants of a shared host, so the
ratio holds still where separate 50 s runs spread more than a few
percent.

Every seed is run twice:
- ``shared``: each package keeps one model per material spec, as the
  benchmark does, so later ops reuse what earlier ones kept per model;
- ``fresh``: each op gets new model instances (``dataclasses.replace``,
  made outside the timed span), so every op takes the first-use path.

One line per (mode, seed) gives each side's ok/s, their ratio (this
checkout over OTHER) and how many ops gave outputs whose ``repr`` differ
between the two packages; one line per mode sums over the seeds.  Nothing
is written under ``perfbench/``: bytecode writing is switched off before
the workload module is imported.

Usage:
    python3 scripts/interleave_ops.py --against OTHER_CHECKOUT \\
        [--workload matsubara-grid] [--seeds 1 2 3] [--passes 200] \\
        [--max-ops 0]
"""

import argparse
import dataclasses
import importlib
import importlib.util
import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("bvl", "cli", "fresnel", "lifshitz", "materials", "quadrature")


def load(checkout, name):
    """The modules of ``checkout``'s src/casimir_bvl, imported as the
    package ``name``."""
    pkg = Path(checkout).resolve() / "src" / "casimir_bvl"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def workload_module():
    """This checkout's perfbench/workloads.py, imported without writing
    bytecode."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def timed_ops(workload, seed, max_ops):
    """The ops of ``workload``'s timed run on ``seed``."""
    blocks = workload.blocks(None, np.random.default_rng(seed))
    ops = [op for _ in range(workload.TIMED_BLOCKS) for op in next(blocks)]
    return ops[:max_ops or None]


def specs(op):
    return [op.params[k] for k in ("m1", "m2", "spec") if k in op.params]


def run(workload, ctx, op):
    """(seconds, passed, output) of one op; an op that raises did not pass,
    and its output is the exception's type and message."""
    t0 = time.perf_counter()
    try:
        out = workload.execute(ctx, op)
    except Exception as exc:    # a failure is an output to compare too
        return (time.perf_counter() - t0, False,
                f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, True, out


def interleave(workloads, workload, pkgs, ops, passes, fresh):
    """(best latency, passed) per op of each package and how many ops'
    first outputs differ between them, over ``passes`` interleaved
    passes."""
    ctxs = [workloads.Context(pkg) for pkg in pkgs]
    for ctx in ctxs:
        for op in ops + [workload.warmup()]:
            for spec in specs(op):
                ctx.model(spec)
        workload.execute(ctx, workload.warmup())
    shared = [dict(ctx.models) for ctx in ctxs]
    best = [[float("inf")] * len(ops) for _ in pkgs]
    passed = [[True] * len(ops) for _ in pkgs]
    outputs = [[None] * len(ops) for _ in pkgs]
    for p in range(passes):
        for i, op in enumerate(ops):
            for side in (0, 1) if (p + i) % 2 == 0 else (1, 0):
                ctx = ctxs[side]
                if fresh:
                    ctx.models = {s: dataclasses.replace(shared[side][s])
                                  for s in specs(op)}
                seconds, ok, out = run(workload, ctx, op)
                best[side][i] = min(best[side][i], seconds)
                passed[side][i] &= ok
                if p == 0:
                    outputs[side][i] = repr(out)
    return best, passed, sum(a != b for a, b in zip(*outputs))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="OTHER_CHECKOUT")
    parser.add_argument("--workload", default="matsubara-grid",
                        choices=["matsubara-grid", "cli-mixed"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--passes", type=int, default=200)
    parser.add_argument("--max-ops", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = workload_module()
    workload = {"matsubara-grid": workloads.MatsubaraGrid,
                "cli-mixed": workloads.CliMixed}[args.workload]()
    pkgs = [load(ROOT, "casimir_bvl_this"),
            load(args.against, "casimir_bvl_other")]
    for mode in ("shared", "fresh"):
        seconds, ok = [0.0, 0.0], [0, 0]
        for seed in args.seeds:
            ops = timed_ops(workload, seed, args.max_ops)
            best, passed, differ = interleave(
                workloads, workload, pkgs, ops, args.passes, mode == "fresh")
            rates = [sum(p) / sum(b) for b, p in zip(best, passed)]
            for side in (0, 1):
                seconds[side] += sum(best[side])
                ok[side] += sum(passed[side])
            print(f"{mode} seed {seed}: this {rates[0]:.1f} ok/s, other "
                  f"{rates[1]:.1f} ok/s, ratio x{rates[0] / rates[1]:.4f}; "
                  f"{differ} of {len(ops)} outputs differ", flush=True)
        rates = [k / s for k, s in zip(ok, seconds)]
        print(f"{mode} total: this {rates[0]:.1f} ok/s, other "
              f"{rates[1]:.1f} ok/s, ratio x{rates[0] / rates[1]:.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
