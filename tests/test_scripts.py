"""The scripts under ``scripts/`` run end to end."""

import csv
import json
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from casimir_bvl import lifshitz as L, quadrature as Q

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    """The module of scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drude_vs_plasma_sweep_reports_a_failed_gap_and_goes_on(
        capsys, tmp_path, monkeypatch):
    # the n = 1 TE row of the 0.1 um gap is made to fail
    rows_of = L._matsubara_rows

    def failing_first_gap(m1, m2, d, xi):
        res = rows_of(m1, m2, d, xi)
        if d == 1e-7:
            res.failures[0] = Q.NoConvergence("injected")
        return res

    monkeypatch.setattr(L, "_matsubara_rows", failing_first_gap)
    sweep = _script("drude_vs_plasma_sweep")
    out = tmp_path / "sweep.csv"
    code = sweep.main(["--d-min", "1e-7", "--d-max", "1e-5", "--points", "3",
                       "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 3
    assert lines[0].split()[0] == "1.0000e-07"
    assert lines[0].endswith("failed: k_perp integral of Matsubara row "
                             "(n=1, TE): injected")
    ratios = [float(line.split()[-1]) for line in lines[1:]]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [float(r[0]) for r in rows] == pytest.approx([1e-6, 1e-5])
    assert [float(r[3]) for r in rows] == pytest.approx(ratios, abs=5e-6)
    drude = L.pressure_matsubara(L.CavityConfig(
        sweep.M.drude(sweep.OMEGA_P, sweep.GAMMA),
        sweep.M.drude(sweep.OMEGA_P, sweep.GAMMA), 1e-6, 300.0)).pressure
    assert float(rows[0][1]) == drude
    # the Drude/plasma ratio falls toward 1/2 as the gap grows
    assert 0.8 < ratios[0] < 0.9
    assert ratios[1] == pytest.approx(0.5, abs=0.01)


def test_drude_vs_plasma_sweep_exits_0_when_every_gap_converges(capsys):
    sweep = _script("drude_vs_plasma_sweep")
    assert sweep.main(["--d-min", "1e-6", "--d-max", "1e-5",
                       "--points", "2"]) == 0
    assert "failed" not in capsys.readouterr().out


def test_bvl_catalog_passes_only_where_static_r_te_vanishes():
    # the theorem holds for the insulator and Drude, whose r_TE(0) = 0, and
    # fails for the plasma-like models and the ideal metal
    run = subprocess.run([sys.executable, str(SCRIPTS / "bvl_catalog.py")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split()[-1] == "verdict"
    assert [row.split()[-1] for row in rows] == [
        "Pass", "Pass", "Fail", "Fail", "Fail"]
    assert [row.split("(")[0].split()[0] for row in rows] == [
        "insulator", "drude", "plasma", "gplasma", "ideal"]


def test_route_digest_prints_its_five_totals():
    # the hashes depend on the BLAS, so only the lines are checked
    run = subprocess.run([sys.executable, str(SCRIPTS / "route_digest.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    totals = [line.split()[0] for line in run.stdout.splitlines()
              if "total " in line]
    assert totals == ["total", "reflect-total", "cli-total", "config-total",
                      "scalar-total"]


def test_bench_pairs_runs_one_pair_against_this_checkout():
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--against",
         str(SCRIPTS.parent), "--workload", "matsubara-grid", "--pairs", "1",
         "--seconds", "0", "--max-ops", "1"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    pair, header, *rows = run.stdout.splitlines()
    assert pair.startswith("pair 1 (seed 1, this first): setup_s ")
    assert header.split()[:4] == ["metric", "better", "this", "other"]
    assert [row.split()[:2] for row in rows] == [
        ["setup_s", "lower"], ["ok_per_s", "higher"], ["op_p50_ms", "lower"],
        ["op_p90_ms", "lower"], ["peak_rss_mb", "lower"]]


_FAKE_RUN = '''
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
side = Path.cwd().name
with open(Path.cwd().parent / "order.txt", "a") as fh:
    fh.write(f"{side}{seed} ")
value = {"this": 10.0 + seed, "other": 10.0}[side]
print("# a readable table")
print(json.dumps({"correct": not (side == "other" and seed == 3),
                  "metrics": {"ok_per_s": {"value": value},
                              "op_p50_ms": {"value": value}}}))
'''


def test_bench_pairs_alternates_counts_wins_and_flags_a_wrong_run(
        tmp_path, capsys):
    # two fake checkouts whose run.py logs its turn: "this" is faster on
    # every seed in ok_per_s and slower in op_p50_ms, and OTHER's third
    # run reads "correct": false
    for side in ("this", "other"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(_FAKE_RUN)
    (tmp_path / "this" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "ok_per_s", "better": "higher"},
                        {"name": "op_p50_ms", "better": "lower"}]}))
    pairs = _script("bench_pairs")
    pairs.ROOT = tmp_path / "this"
    code = pairs.main(["--against", str(tmp_path / "other"), "--workload",
                       "w", "--pairs", "4", "--seconds", "0"])
    assert code == 1
    assert (tmp_path / "order.txt").read_text().split() == [
        "this1", "other1", "other2", "this2", "this3", "other3", "other4",
        "this4"]
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "pair 2 (seed 2, other first): ok_per_s 12/10  " \
                     "op_p50_ms 12/10"
    ok, p50 = out[-2].split(), out[-1].split()
    assert ok[:6] == ["ok_per_s", "higher", "12.5", "10", "1.2500", "4/4"]
    assert p50[:6] == ["op_p50_ms", "lower", "12.5", "10", "1.2500", "0/4"]
    assert ok[6] == p50[6] == "10-10"
