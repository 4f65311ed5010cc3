"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs at a tiny size, untraced and traced; the printed metric
names must match BENCHMARK.json; the oracles must reject a result scaled by
1.1; the tracer must restore what it wraps and keep per-thread self time
non-negative under the CLI sweep's thread pool.
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--max-ops", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_tiny_size(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES   # one op, every pass
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_declared_layers(workload):
    result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == declared("per_layer")
    assert result["metrics"]["defects.attempted"]["value"] == 1


def test_names_match_code():
    assert dict(run.END_TO_END) == declared("end_to_end")
    assert dict(run.PER_LAYER) == declared("per_layer")
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def ctx():
    return workloads.Context(run.import_package())


def scaled(result, factor):
    return dataclasses.replace(
        result, pressure=result.pressure * factor,
        per_n=[(n, te * factor, tm * factor) for n, te, tm in result.per_n])


def test_matsubara_oracle_rejects_scaled_result(ctx):
    grid = workloads.MatsubaraGrid()
    op = grid._op("t", "300K", 4, 1e-6, 300.0, 1e-9)   # ideal pair
    result = grid.execute(ctx, op)
    grid.check(ctx, op, result)
    with pytest.raises(oracles.OracleMiss, match="ideal series"):
        grid.check(ctx, op, scaled(result, 1.1))
    with pytest.raises(oracles.OracleMiss, match="per_n"):
        grid.check(ctx, op, dataclasses.replace(
            result, pressure=result.pressure * 1.1))


def test_realfreq_oracle_rejects_scaled_result(ctx):
    ref = ctx.pkg.lifshitz.pressure_matsubara(
        ctx.cavity("ideal", "ideal", 1e-6, 300.0)).pressure

    def fake(p):
        return types.SimpleNamespace(pressure=p, evanescent=0.25 * p,
                                     propagating=0.75 * p)

    oracles.check_real_frequency(fake(ref * 1.01), ref)
    with pytest.raises(oracles.OracleMiss, match="dev"):
        oracles.check_real_frequency(fake(ref * 1.1), ref)


def test_cli_oracle_rejects_scaled_result(ctx):
    cli = workloads.CliMixed()
    op = cli.warmup()
    out = cli.execute(ctx, op)
    cli.check(ctx, op, out)
    doc = json.loads(out)
    doc["result"]["pressure_pa"] *= 1.1
    with pytest.raises(oracles.OracleMiss, match="in-process"):
        cli.check(ctx, op, json.dumps(doc))


def test_bvl_oracle_rejects_wrong_verdict(ctx):
    report = ctx.pkg.bvl.bvl_verdict(ctx.model(workloads.CATALOG["plasma"]),
                                     1e-6, 300.0, 1e-7)
    doc = {"verdict": "Pass", "b_correlator_norm": report.b_correlator_norm,
           "cavity_classical_te_pa": report.cavity_classical_te,
           "reference_scale": report.reference_scale}
    with pytest.raises(oracles.OracleMiss, match="catalog"):
        oracles.check_cli_bvl(doc, "plasma", report)


def test_tracer_restores_wrappers_and_splits_threads(ctx):
    before = tracer.originals(ctx.pkg)
    trace = tracer.Tracer()
    argv = ["sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6",
            "--T", "300", "--sweep-param", "d", "--sweep-from", "1e-6",
            "--sweep-to", "3e-6", "--sweep-points", "8"]
    with tracer.patched(trace, ctx.pkg):
        assert tracer.originals(ctx.pkg) != before
        with contextlib.redirect_stdout(io.StringIO()):
            assert ctx.pkg.cli.main(argv) == 0
    assert all(a is b for a, b in zip(tracer.originals(ctx.pkg), before))
    stats = trace.stats()
    assert stats["lifshitz.pressure_matsubara"].calls == 8
    assert stats["cli.main"].calls == 1
    assert all(s.self_s >= -1e-9 for s in stats.values())
