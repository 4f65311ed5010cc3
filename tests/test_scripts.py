"""The scripts under ``scripts/`` run end to end."""

import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from casimir_bvl import lifshitz as L

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    """The module of scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drude_vs_plasma_sweep_reports_a_failed_gap_and_goes_on(
        capsys, tmp_path):
    sweep = _script("drude_vs_plasma_sweep")
    out = tmp_path / "sweep.csv"
    code = sweep.main(["--d-min", "1e-7", "--d-max", "1e-5", "--points", "3",
                       "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 3
    # at 0.1 um and 300 K the sum stops at the index ceiling
    assert lines[0].split()[0] == "1.0000e-07"
    assert "failed: Matsubara sum reached n = 61 of the index ceiling 61" \
        in lines[0]
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
