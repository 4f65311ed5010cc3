"""Command-line interface: material grammar, subcommands, emission formats."""

import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casimir_bvl import cli
from casimir_bvl import fresnel as F
from casimir_bvl import lifshitz as L
from casimir_bvl import materials as M
from casimir_bvl import quadrature as Q


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "casimir_bvl.cli", *args],
                          capture_output=True, text=True, timeout=600)


def main_in_process(capsys, *args):
    """(exit code, stdout, stderr) of one cli.main call in this process."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- grammar

def test_parse_material_grammar():
    assert cli.parse_material("ideal").kind is M.Kind.IDEAL_METAL
    ins = cli.parse_material("insulator:3.0")
    assert ins.kind is M.Kind.INSULATOR and ins.eps0 == 3.0
    dr = cli.parse_material("drude:1.37e16,5.32e13")
    assert (dr.omega_p, dr.gamma) == (1.37e16, 5.32e13)
    pl = cli.parse_material("plasma:1.37e16")
    assert pl.kind is M.Kind.PLASMA
    gp = cli.parse_material("gplasma:1.37e16;2e31,3e15,1e14")
    assert gp.kind is M.Kind.GENERALIZED_PLASMA
    assert gp.oscillators[0].center == 3e15


def test_parse_material_table(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text("1e14 5.0\n1e15 3.0\n")
    model = cli.parse_material(f"table:{path},finite")
    assert model.kind is M.Kind.TABULATED
    assert model.extrapolation is M.Extrapolation.FINITE


def test_parse_material_errors():
    for spec in ("unobtainium:1", "drude:1e16", "plasma:-1", "insulator:0.2",
                 "table:/nonexistent,finite", "table:/nonexistent,bogus"):
        with pytest.raises(cli.ConfigParse):
            cli.parse_material(spec)


# ---------------------------------------------------------------- reflect

def test_reflect_static_ideal():
    proc = run_cli("reflect", "--mat", "ideal", "--static", "--kperp", "1e6")
    assert proc.returncode == 0
    row = proc.stdout.strip().splitlines()[-1].split(",")
    assert [float(v) for v in row[1:]] == [-1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


def test_reflect_static_plasma_known_value():
    wp = 1.37e16
    kperp = wp / 2.99792458e8
    proc = run_cli("reflect", "--mat", f"plasma:{wp}", "--static",
                   "--kperp", repr(kperp))
    assert proc.returncode == 0
    r_te = float(proc.stdout.strip().splitlines()[-1].split(",")[1])
    expected = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
    assert r_te == pytest.approx(expected, rel=1e-9)


def test_reflect_imaginary_axis_rows_are_real():
    proc = run_cli("reflect", "--mat", "drude:1.37e16,5.32e13",
                   "--xi", "1e14", "--kperp", "1e4:1e8:5")
    assert proc.returncode == 0
    rows = [l for l in proc.stdout.splitlines() if not l.startswith(("#", "k_"))]
    assert len(rows) == 5
    for row in rows:
        vals = [float(v) for v in row.split(",")]
        assert vals[2] == 0.0 and vals[4] == 0.0 and vals[6] == 0.0


def test_reflect_at_zero_frequency_is_config_error():
    proc = run_cli("reflect", "--mat", "plasma:1e16",
                   "--omega", "0", "--kperp", "1e6")
    assert proc.returncode == 2


def test_reflect_negative_kperp_is_config_error():
    proc = run_cli("reflect", "--mat", "drude:1.37e16,5.32e13",
                   "--xi", "1e14", "--kperp=-1e6")
    assert proc.returncode == 2


DRUDE = "drude:1.37e16,5.32e13"
REFLECT_SPECS = ["insulator:3.0", DRUDE, "plasma:1.37e16",
                 "gplasma:1.37e16;2e31,3e15,1e14", "ideal", "table"]


def _table_spec(tmp_path):
    src = M.drude(1.37e16, 5.32e13)
    path = tmp_path / "eps.dat"
    path.write_text("".join(
        f"{x!r} {M.eval_epsilon(src, 1j * x).real!r}\n"
        for x in np.geomspace(1e12, 1e18, 200).tolist()))
    return f"table:{path},drude_like"


def _per_k_rows(model, axis, value, kperps):
    """The reflect table built from one scalar fresnel call per k_perp."""
    rows = ["k_perp,re_r_te,im_r_te,re_r_tm,im_r_tm,re_r_bar,im_r_bar"]
    for k in kperps:
        if axis == "static":
            r = F.reflection_static(model, k)
        else:
            r = F.reflection(model, 1j * value if axis == "xi" else value, k)
        rows.append(",".join(cli._fmt(v) for v in (
            k, r.r_te.real, r.r_te.imag, r.r_tm.real, r.r_tm.imag,
            r.r_bar.real, r.r_bar.imag)))
    return rows


@pytest.mark.parametrize("spec", REFLECT_SPECS)
def test_reflect_table_is_the_per_k_scalar_table(spec, tmp_path, capsys):
    if spec == "table":
        spec = _table_spec(tmp_path)
    model = cli.parse_material(spec)
    probes = [("xi", xi) for xi in (1e12, 1e14, 1e16)] + [("static", None)]
    if spec == "ideal":
        probes += [("omega", w) for w in (1e12, 1e14, 1e16)]
    # a one-row table, and one whose every column is constant
    for kperp, kperps in (("1e3:1e9:41", np.geomspace(1e3, 1e9, 41)),
                          ("3e5,1e6,2.5e7", [3e5, 1e6, 2.5e7]),
                          ("1e6", [1e6]), ("2e6,2e6,2e6", [2e6] * 3)):
        for axis, value in probes:
            flag = ["--static"] if axis == "static" else [f"--{axis}",
                                                          repr(value)]
            code, out, _ = main_in_process(capsys, "reflect", "--mat", spec,
                                           *flag, "--kperp", kperp)
            assert code == 0
            rows = [l for l in out.splitlines() if not l.startswith("#")]
            assert rows == _per_k_rows(model, axis, value, kperps)


def test_main_calls_share_the_parser_and_carry_no_state(capsys):
    assert cli._parsers()[0] is cli._parsers()[0]
    pressure = ["pressure", "--mat1", "ideal", "--mat2", "ideal",
                "--d", "1e-6", "--T", "300"]
    code, out, _ = main_in_process(capsys, *pressure, "--rel-tol", "1e-6")
    assert code == 0 and json.loads(out)["config"]["rel_tol"] == 1e-6
    code, out, _ = main_in_process(capsys, *pressure)
    assert code == 0 and "rel_tol" not in json.loads(out)["config"]

    reflect = ["reflect", "--mat", DRUDE, "--kperp", "1e6"]
    code, out, _ = main_in_process(capsys, *reflect, "--xi", "1e14")
    assert code == 0
    assert '# probe = {"axis":"xi","value":100000000000000.0,' \
           '"kperp":"1e6"}' in out.splitlines()
    code, out, _ = main_in_process(capsys, *reflect, "--static")
    assert code == 0
    assert '# probe = {"axis":"static","kperp":"1e6"}' in out.splitlines()
    assert out.splitlines()[-1] == _per_k_rows(
        cli.parse_material(DRUDE), "static", None, [1e6])[-1]


@pytest.mark.parametrize("args, names", [
    (["reflect", "--mat", DRUDE, "--xi", "1e14", "--kperp", "nan"], "k_perp"),
    (["reflect", "--mat", DRUDE, "--xi", "1e14", "--kperp", "inf"], "k_perp"),
    (["reflect", "--mat", DRUDE, "--static", "--kperp", "1e6,nan"], "k_perp"),
    (["reflect", "--mat", DRUDE, "--omega", "nan", "--kperp", "1e6"], "omega"),
    (["reflect", "--mat", DRUDE, "--xi", "nan", "--kperp", "1e6"], "omega"),
    (["reflect", "--mat", DRUDE, "--omega", "1e14", "--kperp", "1e3:1e8:0"],
     "kperp"),
    (["bvl-check", "--mat", "plasma:1e16", "--d", "1e-6", "--T", "300",
      "--z", "nan"], "z_probe"),
    (["bvl-check", "--mat", "plasma:1e16", "--d", "1e-6", "--T", "300",
      "--z", "inf"], "z_probe"),
    (["reflect", "--mat", "drude:nan,1e13", "--xi", "1e14", "--kperp", "1e6"],
     "finite"),
    (["reflect", "--mat", "insulator:nan", "--xi", "1e14", "--kperp", "1e6"],
     "finite"),
    (["reflect", "--mat", "plasma:inf", "--omega", "1e14", "--kperp", "1e6"],
     "finite"),
    (["reflect", "--mat", "gplasma:1e16;2e31,nan,1e14", "--xi", "1e14",
      "--kperp", "1e6"], "finite"),
    (["bvl-check", "--mat", "drude:1e16,inf", "--d", "1e-6", "--T", "300",
      "--z", "1e-7"], "finite"),
    (["reflect", "--mat", DRUDE, "--xi", "1e14", "--kperp", "1e3:inf:3"],
     "finite positive ends"),
    (["reflect", "--mat", DRUDE, "--xi", "1e14", "--kperp=-1e3:1e6:3"],
     "finite positive ends"),
    (["sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6", "--T",
      "300", "--sweep-param", "d", "--sweep-from", "1e-6", "--sweep-to",
      "inf", "--sweep-points", "3"], "finite positive ends"),
    (["sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6", "--T",
      "300", "--sweep-param", "T", "--sweep-from", "nan", "--sweep-to",
      "300", "--sweep-points", "3"], "finite positive ends"),
    (["bvl-check", "--mat", "plasma:1e16", "--d", "1e-6", "--T", "300",
      "--z", "4e-13"], "z + z' below 1e-12 m"),
    # r_te squares about 2 k_perp, which overflows from the bound on
    (["reflect", "--mat", DRUDE, "--omega", "1e14", "--kperp", "1.35e154"],
     "half of sqrt(float max)"),
    (["reflect", "--mat", DRUDE, "--xi", "1e14", "--kperp", "1.35e154"],
     "half of sqrt(float max)"),
    (["reflect", "--mat", DRUDE, "--omega", "1e14", "--kperp",
      "1e6,6.71e153"], "half of sqrt(float max)"),
    (["reflect", "--mat", DRUDE, "--xi", "1e14", "--kperp", "1e6,1e200"],
     "half of sqrt(float max)"),
])
def test_non_finite_or_empty_input_exits_2(args, names, capsys):
    # tier-1 turns a RuntimeWarning into an error, so none may be raised
    code, out, err = main_in_process(capsys, *args)
    assert code == 2
    assert out == ""
    assert names in err and "config error" in err
    assert "Warning" not in err


@pytest.mark.parametrize("spec", ["insulator:3.0", "insulator:1.0", DRUDE,
                                  "plasma:1.37e16"])
def test_reflect_real_axis_rows_are_the_array_call_row_by_row(spec, capsys):
    # real-axis arrays round differently from the scalar calls, so the
    # reference is the array call, formatted one row at a time
    model = cli.parse_material(spec)
    row_fmt = ",".join([cli.FLOAT_FMT] * 7)
    for kperp, kperps in (("1e3:1e9:17", np.geomspace(1e3, 1e9, 17)),
                          ("1e6", np.array([1e6])),
                          ("2e6,2e6,2e6", np.full(3, 2e6))):
        for omega in (1e14, 1e16):
            code, out, _ = main_in_process(capsys, "reflect", "--mat", spec,
                                           "--omega", repr(omega),
                                           "--kperp", kperp)
            assert code == 0
            r = F.reflection(model, omega, kperps)
            want = [row_fmt % row for row in zip(*(
                part.tolist() for part in (kperps, r.r_te.real, r.r_te.imag,
                                           r.r_tm.real, r.r_tm.imag,
                                           r.r_bar.real, r.r_bar.imag)))]
            assert len(want) == len(kperps)
            assert [l for l in out.splitlines()
                    if not l.startswith(("#", "k_"))] == want


#: argv, exit code, standard output and standard error of cli.main for the
#: help of every subcommand and the usage and error texts, with help 80
#: columns wide; scripts/route_digest.py runs these argvs too.
CLI_TEXTS = json.loads(
    (pathlib.Path(__file__).parent / "cli_texts.json").read_text())


@pytest.mark.parametrize("row", CLI_TEXTS,
                         ids=lambda row: " ".join(row["argv"]) or "none")
def test_cli_texts_byte_for_byte(row, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(list(row["argv"]))
    except SystemExit as exc:     # argparse's help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (row["exit"], row["stdout"], row["stderr"])


def test_table_rows_tell_signed_zeros_apart():
    cols = [np.array([1.0, 2.0, 3.0]), np.array([0.0, -0.0, 0.0]),
            np.full(3, -0.0), np.zeros(3), np.full(3, 0.5)]
    fmt = ",".join([cli.FLOAT_FMT] * 5)
    want = [fmt % row for row in zip(*(c.tolist() for c in cols))]
    assert cli._table_rows(cols) == want
    assert "-0.00000000000000000e+00" in want[1].split(",")[1]
    assert cli._table_rows([np.full(2, -0.0), np.ones(2)]) == \
        ["-0.00000000000000000e+00,1.00000000000000000e+00"] * 2


_JSON_SCALARS = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(), st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))


@given(st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner),
    st.dictionaries(st.text(), inner, max_size=4)), max_leaves=24))
def test_json_writer_is_indented_sorted_json_dumps(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_config_of_flags_is_the_document():
    # the flags give the document --config reads, without unset fields,
    # and the document reads back to itself
    args = cli._parse_args([
        "sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6", "--T",
        "300", "--rel-tol", "1e-6", "--sweep-param", "d", "--sweep-from",
        "1e-6", "--sweep-to", "2e-6", "--sweep-points", "2"])
    want = {"subcommand": "sweep", "materials": ["ideal", "ideal"],
            "d": 1e-6, "T": 300.0, "method": "matsubara", "rel_tol": 1e-6,
            "sweep": {"param": "d", "from": 1e-6, "to": 2e-6, "points": 2},
            "output": {"format": "csv"}}
    config = cli._config_from_args(args)
    assert config == want
    assert cli._check_fields(json.loads(json.dumps(config))) == want


# ---------------------------------------------------------------- pressure

def test_pressure_json_drude_n0_te_zero():
    proc = run_cli("pressure", "--mat1", "drude:1.37e16,5.32e13",
                   "--mat2", "drude:1.37e16,5.32e13", "--d", "1e-6",
                   "--T", "300")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["n0_te_pa"] == 0.0
    assert doc["result"]["pressure_pa"] < 0.0


def test_pressure_ideal_low_temperature():
    proc = run_cli("pressure", "--mat1", "ideal", "--mat2", "ideal",
                   "--d", "1e-6", "--T", "1", "--rel-tol", "2e-3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["pressure_pa"] == pytest.approx(-1.2963e-3, rel=5e-3)


def test_pressure_unreachable_tolerance_is_numerical_failure(monkeypatch,
                                                            capsys):
    # a sum that reaches its index ceiling before its tolerance: with the
    # ideal-metal stop cut to x* = 3, the 1 um, 300 K sum of two ideal
    # metals (nu = 0.607) gets the ceiling 2 (ceil(3 nu) + 3) = 10, and it
    # needs 18 indices
    monkeypatch.setattr(L, "_ideal_stop", lambda rel_tol: 3.0)
    code, out, err = main_in_process(
        capsys, "pressure", "--mat1", "ideal", "--mat2", "ideal", "--d",
        "1e-6", "--T", "300")
    assert code == 3 and out == ""
    assert err.startswith("casimir-bvl: numerical failure: NoConvergence: "
                          "Matsubara sum reached n = 10 of the index "
                          "ceiling 10")


@pytest.mark.parametrize("mat, T", [("ideal", "1e-300"),
                                    ("plasma:1e10", "1e-300"),
                                    ("ideal", "1e-310")])
def test_pressure_past_the_index_cap_exits_2_at_once(mat, T, capsys):
    # 1e-300 K asks for some 4.5e303 Matsubara indices, and at 1e-310 K
    # xi_1 underflows to 0: each is rejected before any row, with no numpy
    # warning, where the ideal sum ran on and the plasma one warned
    argv = ("pressure", "--mat1", mat, "--mat2", mat, "--d", "1e-6",
            "--T", T)
    proc = subprocess.run([sys.executable, "-W", "error", "-m",
                           "casimir_bvl.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("casimir-bvl: config error: the Matsubara "
                                  "sum would need ")
    assert f"above the cap MAX_REACH = {L.MAX_REACH}" in proc.stderr
    t0 = time.perf_counter()
    assert main_in_process(capsys, *argv)[0] == 2
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("rel_tol", ["0", "-1", "2", "nan", "inf"])
def test_pressure_rel_tol_outside_unit_interval_exits_2(rel_tol):
    proc = run_cli("pressure", "--mat1", "ideal", "--mat2", "ideal",
                   "--d", "1e-6", "--T", "1", f"--rel-tol={rel_tol}")
    assert proc.returncode == 2
    assert "rel_tol" in proc.stderr and "Traceback" not in proc.stderr


def test_pressure_csv_format():
    proc = run_cli("pressure", "--mat1", "ideal", "--mat2", "ideal",
                   "--d", "1e-6", "--T", "300", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "# casimir-bvl report"
    assert "n,te_pa,tm_pa" in lines


def test_pressure_malformed_material_exits_2():
    proc = run_cli("pressure", "--mat1", "bogus:1", "--mat2", "ideal",
                   "--d", "1e-6", "--T", "300")
    assert proc.returncode == 2


def test_realfreq_lossless_material_exits_2():
    proc = run_cli("pressure", "--mat1", "plasma:1.37e16",
                   "--mat2", "insulator:3.0", "--d", "1e-6", "--T", "300",
                   "--method", "realfreq")
    assert proc.returncode == 2
    assert "lossless" in proc.stderr


# ---------------------------------------------------------------- sweep

def test_sweep_two_points_two_rows_and_determinism():
    args = ("sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6",
            "--T", "300", "--sweep-param", "d", "--sweep-from", "1e-6",
            "--sweep-to", "2e-6", "--sweep-points", "2")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    rows = [l for l in first.stdout.splitlines() if not l.startswith("#")]
    assert len(rows) == 3  # header + 2 data rows
    d0 = float(rows[1].split(",")[0])
    d1 = float(rows[2].split(",")[0])
    assert d0 < d1


def test_sweep_omega_p_rebuilds_materials():
    proc = run_cli("sweep", "--mat1", "plasma:1e16", "--mat2", "plasma:1e16",
                   "--d", "5e-6", "--T", "300", "--sweep-param", "omega_p",
                   "--sweep-from", "1e15", "--sweep-to", "1e17",
                   "--sweep-points", "3")
    assert proc.returncode == 0
    rows = [l for l in proc.stdout.splitlines() if not l.startswith("#")][1:]
    pressures = [float(r.split(",")[1]) for r in rows]
    # stronger plasma -> more negative pressure
    assert pressures[0] > pressures[1] > pressures[2]


def test_sweep_invalid_range_exits_2():
    proc = run_cli("sweep", "--mat1", "ideal", "--mat2", "ideal", "--d",
                   "1e-6", "--T", "300", "--sweep-param", "d",
                   "--sweep-from", "2e-6", "--sweep-to", "1e-6",
                   "--sweep-points", "2")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6", "--T",
      "300", "--sweep-param", "d", "--sweep-from", "1e-6", "--sweep-to",
      "2e-6", "--sweep-points", str(cli.MAX_POINTS + 1)],
     {"subcommand": "sweep", "materials": ["ideal", "ideal"], "d": 1e-6,
      "T": 300.0, "sweep": {"param": "d", "from": 1e-6, "to": 2e-6,
                            "points": 10 ** 11}}),
    (["reflect", "--mat", DRUDE, "--xi", "1e14", "--kperp",
      f"1e3:1e9:{cli.MAX_POINTS + 1}"],
     {"subcommand": "reflect", "materials": [DRUDE],
      "probe": {"axis": "xi", "value": 1e14,
                "kperp": "1e3:1e9:100000000000"}}),
])
def test_point_count_above_the_bound_exits_2(argv, config, tmp_path, capsys):
    # 1e11 points would ask np.geomspace for 745 GiB
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    for args in (argv, ["--config", str(path)]):
        code, out, err = main_in_process(capsys, *args)
        assert code == 2 and out == ""
        assert f"to {cli.MAX_POINTS} points" in err and "config error" in err


def test_point_count_at_the_bound_is_accepted():
    assert cli._kperp_list(f"1:2:{cli.MAX_POINTS}").size == cli.MAX_POINTS
    values = cli._sweep_values({"from": 1.0, "to": 2.0,
                                "points": cli.MAX_POINTS})
    assert values.size == cli.MAX_POINTS


def test_reflect_kperp_just_below_the_bound_is_finite(capsys):
    # tier-1 turns an overflow warning into an error
    k = math.nextafter(0.5 * math.sqrt(sys.float_info.max), 0.0)
    for axis in ("--omega", "--xi"):
        for spec in ("insulator:3.0", DRUDE, "plasma:1.37e16"):
            code, out, _ = main_in_process(capsys, "reflect", "--mat", spec,
                                           axis, "1e14", "--kperp", repr(k))
            assert code == 0
            row = [float(v) for v in out.splitlines()[-1].split(",")]
            assert all(map(math.isfinite, row))
    code, out, _ = main_in_process(capsys, "reflect", "--mat", DRUDE,
                                   "--static", "--kperp", "1e200")
    assert code == 0 and "nan" not in out


#: The first float whose square overflows, and the float just below it.
SQUARE_BOUND = math.sqrt(sys.float_info.max)
BELOW_SQUARE_BOUND = math.nextafter(SQUARE_BOUND, 0.0)


def _square_bound_cases():
    """(id, argv, config, value) of each front door of a square bound:
    the frequency of reflect on either axis, and omega_p and the oscillator
    center of a model under pressure, bvl-check and reflect."""
    for value, side in ((BELOW_SQUARE_BOUND, "below"), (SQUARE_BOUND, "at")):
        v = repr(value)
        for axis in ("omega", "xi"):
            yield (f"reflect-{axis}-{side}",
                   ["reflect", "--mat", DRUDE, f"--{axis}", v, "--kperp",
                    "1e3:1e12:4"],
                   {"subcommand": "reflect", "materials": [DRUDE],
                    "probe": {"axis": axis, "value": value,
                              "kperp": "1e3:1e12:4"}}, value)
        for name, spec in (("omega_p", f"plasma:{v}"),
                           ("drude-omega_p", f"drude:{v},5.32e13"),
                           ("center", f"gplasma:1.37e16;2e31,{v},1e14")):
            yield (f"pressure-{name}-{side}",
                   ["pressure", "--mat1", spec, "--mat2", spec, "--d", "1e-6",
                    "--T", "300"],
                   {"subcommand": "pressure", "materials": [spec, spec],
                    "d": 1e-6, "T": 300.0}, value)
            yield (f"bvl-check-{name}-{side}",
                   ["bvl-check", "--mat", spec, "--d", "1e-6", "--T", "300",
                    "--z", "1e-7"],
                   {"subcommand": "bvl-check", "materials": [spec],
                    "d": 1e-6, "T": 300.0, "z": 1e-7}, value)
            yield (f"reflect-{name}-{side}",
                   ["reflect", "--mat", spec, "--xi", "1e14", "--kperp",
                    "1e3:1e12:4"],
                   {"subcommand": "reflect", "materials": [spec],
                    "probe": {"axis": "xi", "value": 1e14,
                              "kperp": "1e3:1e12:4"}}, value)


@pytest.mark.parametrize("argv, config, value", [
    pytest.param(*case[1:], id=case[0]) for case in _square_bound_cases()])
def test_square_bounds_accept_below_and_name_the_bound_at(
        argv, config, value, tmp_path, capsys):
    # a frequency, omega_p or oscillator center just below sqrt(float max)
    # runs to finite output and the bound itself exits 2 naming it, given
    # by flags or by --config; tier-1 turns an overflow warning into an
    # error, and an OverflowError would escape cli.main
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    for args in (argv, ["--config", str(path)]):
        code, out, err = main_in_process(capsys, *args)
        if value < SQUARE_BOUND:
            assert code == 0 and err == ""
            assert not re.search("nan|inf", out, re.IGNORECASE)
        else:
            assert code == 2 and out == ""
            assert f"below {SQUARE_BOUND:.4g} rad/s" in err
            assert "sqrt(float max)" in err and "config error" in err


@pytest.mark.parametrize("argv, bound", [
    *[(("bvl-check", "--mat", spec, "--d", "1e-6", "--T", "300", "--z",
        "1e110"), "cbrt(float max)")
      for spec in ("insulator:3.0", DRUDE, "plasma:1.37e16",
                   "gplasma:1.37e16;2e31,3e15,1e14", "ideal")],
    (("bvl-check", "--mat", "plasma:1.34e154", "--d", "1e-6", "--T", "300",
      "--z", "1e4"), "a term of eps overflows float max"),
    (("reflect", "--mat", "plasma:1e10", "--xi", "1e-300", "--kperp", "1"),
     "a term of eps overflows float max"),
    *[(("reflect", "--mat", "plasma:1.34e154", f"--{axis}", "1e3", "--kperp",
        "1e7"), "eps k_z of r_tm overflows float max")
      for axis in ("omega", "xi")],
])
def test_overflowing_probes_exit_2_naming_the_bound(argv, bound, capsys):
    # tier-1 turns an overflow warning into an error, and an OverflowError
    # would escape cli.main
    code, out, err = main_in_process(capsys, *argv)
    assert code == 2 and out == ""
    assert bound in err and "config error" in err


@pytest.mark.parametrize("argv, bound", [
    *[(("pressure", "--mat1", f"insulator:{eps}", "--mat2",
        f"insulator:{eps}", "--d", d, "--T", "300"),
       f"nw = (1 - eps)(xi/c)^2 of the insulator model overflows float max, "
       f"1.798e+308, at the Matsubara frequency xi_{n} = ")
      for eps, d, n in (("1e300", "1e-6", 1), ("1e296", "1e-6", 2),
                        ("1e290", "1e-9", 1629))],
    (("bvl-check", "--mat", "insulator:1e300", "--d", "1e-6", "--T", "300",
      "--z", "1e-7"), "eps k0^2 of the medium wavevector overflows float "
     "max, 1.798e+308"),
])
def test_huge_eps_exits_2_without_a_numpy_warning(argv, bound):
    # nw overflows at an index the Matsubara sum needs, or eps k0^2 on the
    # real axis of bvl-check; either would print NaN or warn
    proc = subprocess.run([sys.executable, "-W", "error", "-m",
                           "casimir_bvl.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("casimir-bvl: config error: " + bound)


def test_bvl_check_just_below_the_distance_ceiling_is_finite(capsys):
    for spec in ("insulator:3.0", DRUDE, "plasma:1.37e16",
                 "gplasma:1.37e16;2e31,3e15,1e14", "ideal"):
        code, out, err = main_in_process(capsys, "bvl-check", "--mat", spec,
                                         "--d", "1e-6", "--T", "300",
                                         "--z", "2.82e102")
        assert code == 0 and err == ""
        assert not re.search("nan|inf", out, re.IGNORECASE)


# ---------------------------------------------------------------- bvl-check

def test_bvl_check_json_schema_and_verdicts():
    for spec, verdict in (("plasma:1.37e16", "Fail"), ("insulator:3.0", "Pass")):
        proc = run_cli("bvl-check", "--mat", spec, "--d", "1e-6",
                       "--T", "300", "--z", "1e-7")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, cli.BVL_REPORT_SCHEMA)
        assert doc["verdict"] == verdict


def test_bvl_check_missing_z_exits_2():
    proc = run_cli("bvl-check", "--mat", "plasma:1e16", "--d", "1e-6",
                   "--T", "300")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["pressure", "--help"], 0),
    (["pressure", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6"], 2),
    (["no-such-subcommand"], 2), (["pressure", "--d"], 2)])
def test_argparse_exits_return_their_code_in_process(argv, code, capsys):
    # help and usage errors return argparse's code instead of raising
    # SystemExit, like every other config error
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert ("usage: casimir-bvl" in out) if code == 0 else \
        ("usage: casimir-bvl" in err and out == "")


# ---------------------------------------------------------------- config file

def test_config_file_round_trip(tmp_path):
    config = {"subcommand": "pressure", "materials": ["ideal", "ideal"],
              "d": 1e-6, "T": 300.0, "method": "matsubara", "rel_tol": 1e-6}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    proc = run_cli("--config", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["config"] == config
    assert cli._check_fields(doc["config"]) == config


def test_config_file_unknown_key_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"subcommand": "pressure", "bogus": 1}))
    proc = run_cli("--config", str(path))
    assert proc.returncode == 2


def test_config_file_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli("--config", str(path))
    assert proc.returncode == 2


#: The config document of an ideal-metal pressure run.
_IDEAL_PRESSURE = {"subcommand": "pressure", "materials": ["ideal", "ideal"],
                   "d": 1e-6, "T": 300.0}


def _ideal_pressure_file(tmp_path):
    """Path of the config file of an ideal-metal pressure run."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_IDEAL_PRESSURE))
    return path


def test_config_file_given_as_one_argument(tmp_path, capsys):
    path = _ideal_pressure_file(tmp_path)
    code, out, err = main_in_process(capsys, "--config", str(path))
    assert code == 0 and err == ""
    assert main_in_process(capsys, f"--config={path}") == (code, out, err)


@pytest.mark.parametrize("extra, message", [
    (["--d", "5e-6", "bogus"], "before the subcommand: --d"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["pressure", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6",
      "--T", "300"], "--config replaces the subcommand and its flags")])
def test_config_file_with_other_arguments_exits_2(extra, message, tmp_path,
                                                  capsys):
    path = _ideal_pressure_file(tmp_path)
    for argv in (["--config", str(path)] + extra,
                 [f"--config={path}"] + extra):
        code, out, err = main_in_process(capsys, *argv)
        assert code == 2 and out == ""
        assert "usage: casimir-bvl" in err and message in err


@pytest.mark.parametrize("config, names", [
    ({"subcommand": "reflect", "materials": [DRUDE],
      "probe": {"axis": "xi", "value": 1e14}}, "probe.kperp"),
    ({"subcommand": "reflect", "materials": [DRUDE],
      "probe": {"axis": "xi", "value": "1e14", "kperp": "1e6"}},
     "probe.value"),
    ({"subcommand": "pressure", "materials": ["ideal"], "d": 1e-6,
      "T": 300.0}, "materials"),
    ({"subcommand": "bvl-check", "materials": ["ideal"], "d": 1e-6,
      "T": "300"}, "'T'"),
    ({"subcommand": "sweep", "materials": ["ideal", "ideal"], "d": 1e-6,
      "T": 300.0, "sweep": {"param": "d", "from": 1e-6, "to": 2e-6}},
     "sweep.points"),
    ({"subcommand": "sweep", "materials": ["ideal", "ideal"], "d": 1e-6,
      "T": 300.0, "sweep": {"param": "x", "from": 1e-6, "to": 2e-6,
                            "points": 2}},
     "sweep.param"),
])
def test_config_file_missing_or_mistyped_field_exits_2(config, names,
                                                       tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = main_in_process(capsys, "--config", str(path))
    assert code == 2
    assert out == ""
    assert names in err and "config error" in err


@pytest.mark.parametrize("config, name", [
    ({"subcommand": "reflect", "materials": [DRUDE],
      "probe": {"axis": "xi", "value": 1e14, "kperp": "1e6"},
      "output": {"format": "json"}}, "output.format"),
    ({"subcommand": "reflect", "materials": [DRUDE],
      "probe": {"axis": "static", "value": 1e14, "kperp": "1e6"}},
     "probe.value"),
    ({"subcommand": "reflect", "materials": [DRUDE], "d": 1e-6,
      "probe": {"axis": "xi", "value": 1e14, "kperp": "1e6"}}, "'d'"),
    ({"subcommand": "bvl-check", "materials": ["plasma:1.37e16"], "d": 1e-6,
      "T": 300.0, "z": 1e-7, "output": {"format": "csv"}}, "output.format"),
    ({"subcommand": "bvl-check", "materials": ["plasma:1.37e16"], "d": 1e-6,
      "T": 300.0, "z": 1e-7, "method": "realfreq"}, "'method'"),
    ({"subcommand": "bvl-check", "materials": ["plasma:1.37e16"], "d": 1e-6,
      "T": 300.0, "z": 1e-7, "rel_tol": 1e-3}, "'rel_tol'"),
    ({"subcommand": "pressure", "materials": ["ideal", "ideal"], "d": 1e-6,
      "T": 300.0, "z": 1e-7}, "'z'"),
    ({"subcommand": "sweep", "materials": ["ideal", "ideal"], "d": 1e-6,
      "T": 300.0, "sweep": {"param": "d", "from": 1e-6, "to": 2e-6,
                            "points": 2, "step": 1}}, "sweep.step"),
])
def test_config_file_field_the_subcommand_ignores_exits_2(config, name,
                                                         tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = main_in_process(capsys, "--config", str(path))
    assert code == 2 and out == ""
    assert name in err and "not read" in err


@pytest.mark.parametrize("argv", [
    ("pressure", "--mat1", "ideal", "--mat2", "ideal", "--d", "2e-6",
     "--T", "300", "--rel-tol", "1e-6"),
    ("sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6", "--T",
     "300", "--sweep-param", "d", "--sweep-from", "1e-6", "--sweep-to",
     "2e-6", "--sweep-points", "2", "--format", "json"),
    ("bvl-check", "--mat", "plasma:1.37e16", "--d", "1e-6", "--T", "300",
     "--z", "1e-7"),
    ("reflect", "--mat", DRUDE, "--xi", "1e14", "--kperp", "1e6"),
    ("reflect", "--mat", DRUDE, "--static", "--kperp", "1e6"),
])
def test_echoed_config_parses_back(argv, tmp_path, capsys):
    code, out, _ = main_in_process(capsys, *argv)
    assert code == 0
    if argv[0] == "reflect":
        # CSV: one "# key = value" comment per field, the value in JSON
        echoed = dict(line[2:].split(" = ", 1)
                      for line in out.splitlines()[1:] if " = " in line)
        echoed = {k: json.loads(v) for k, v in echoed.items()}
    else:
        echoed = json.loads(out)["config"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(echoed))
    assert main_in_process(capsys, "--config", str(path)) == (code, out, "")
    assert cli._check_fields(echoed) == echoed


@pytest.mark.parametrize("doc, message", [
    ([_IDEAL_PRESSURE], f"config must be a JSON object, got "
                        f"[{_IDEAL_PRESSURE!r}]"),
    ({k: v for k, v in _IDEAL_PRESSURE.items() if k != "subcommand"},
     "missing subcommand"),
    ({**_IDEAL_PRESSURE, "foo": 1},
     "pressure does not read config field 'foo'"),
    # a null field is an unset one, also where the subcommand reads none
    ({**_IDEAL_PRESSURE, "rel_tol": None, "z": None, "probe": None,
      "output": None}, None),
])
def test_config_document_messages(doc, message, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, out, err = main_in_process(capsys, "--config", str(path))
    if message is None:
        assert code == 0 and err == ""
        assert json.loads(out)["config"] == {**_IDEAL_PRESSURE,
                                             "method": "matsubara"}
    else:
        assert (code, out) == (2, "")
        assert err == f"casimir-bvl: config error: {message}\n"


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("pressure", "--mat1", "insulator:3.0", "--mat2",
                   "insulator:3.0", "--d", "1e-6", "--T", "300",
                   "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["result"]["pressure_pa"] < 0.0


# --------------------------------------------------------- sweep parsing

def _sweep_rows(out):
    return [l for l in out.splitlines() if not l.startswith("#")][1:]


def test_sweep_parses_each_material_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "eps.dat"
    path.write_text("1e12 30.0\n1e13 12.0\n1e14 3.0\n1e15 1.5\n1e16 1.01\n")
    loads, parses = [], []
    load_table, parse_material = M.load_table, cli.parse_material
    monkeypatch.setattr(M, "load_table",
                        lambda p: loads.append(p) or load_table(p))
    monkeypatch.setattr(cli, "parse_material",
                        lambda s: parses.append(s) or parse_material(s))
    code, out, _ = main_in_process(
        capsys, "sweep", "--mat1", f"table:{path},finite", "--mat2", DRUDE,
        "--d", "5e-6", "--T", "300", "--sweep-param", "T", "--sweep-from",
        "77", "--sweep-to", "300", "--sweep-points", "5")
    assert code == 0 and len(_sweep_rows(out)) == 5
    assert len(loads) == 1
    parses.clear()
    code, out, _ = main_in_process(
        capsys, "sweep", "--mat1", DRUDE, "--mat2", "plasma:1e16", "--d",
        "2e-6", "--T", "300", "--sweep-param", "omega_p", "--sweep-from",
        "1e15", "--sweep-to", "3e16", "--sweep-points", "5")
    assert code == 0 and len(_sweep_rows(out)) == 5
    assert parses == [DRUDE, "plasma:1e16"]


@pytest.mark.parametrize("param, lo, hi", [
    ("d", 5e-7, 5e-6), ("T", 77.0, 300.0), ("omega_p", 1e15, 3e16)])
def test_sweep_rows_are_pressure_runs_at_each_value(param, lo, hi, capsys):
    # each row is what the pressure subcommand prints for the swept value,
    # with an omega_p value written into the material specs
    base = {"d": 2e-6, "T": 300.0}
    specs = lambda wp: (f"drude:{wp!r},5.32e13", f"plasma:{wp!r}")
    code, out, _ = main_in_process(
        capsys, "sweep", "--mat1", *specs(1.37e16)[:1], "--mat2",
        specs(1.37e16)[1], "--d", "2e-6", "--T", "300", "--sweep-param",
        param, "--sweep-from", repr(lo), "--sweep-to", repr(hi),
        "--sweep-points", "3")
    assert code == 0
    rows = _sweep_rows(out)
    for v, row in zip(np.geomspace(lo, hi, 3).tolist(), rows):
        args = {**base, param: v} if param != "omega_p" else base
        m1, m2 = specs(v if param == "omega_p" else 1.37e16)
        code, out, _ = main_in_process(
            capsys, "pressure", "--mat1", m1, "--mat2", m2, "--d",
            repr(args["d"]), "--T", repr(args["T"]), "--format", "csv")
        assert code == 0
        assert row == f"{cli._fmt(v)},{out.splitlines()[-1]}"


#: A gap sweep of two ideal metals from 0.3 um at 300 K.
GAP_SWEEP = ("sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6",
             "--T", "300", "--sweep-param", "d", "--sweep-from", "3e-7",
             "--sweep-to", "1e-5", "--sweep-points", "9")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_keeps_the_gaps_that_converge(fmt, capsys, monkeypatch):
    # the first gap's n = 1 TE row is made to fail; the sweep reports that
    # gap and keeps the other eight
    gaps = np.geomspace(3e-7, 1e-5, 9).tolist()
    rows_of = L._matsubara_rows

    def failing_first_gap(d, *columns):
        res = rows_of(d, *columns)
        if d == gaps[0]:
            res.failures[0] = Q.NoConvergence("injected")
        return res

    monkeypatch.setattr(L, "_matsubara_rows", failing_first_gap)
    code, out, err = main_in_process(capsys, *GAP_SWEEP, "--format", fmt)
    assert code == 3
    assert err.count("\n") == 1
    assert err.startswith("casimir-bvl: numerical failure: NoConvergence: ")
    message = err.split("numerical failure: ", 1)[1].strip()
    assert message == ("NoConvergence: k_perp integral of Matsubara row "
                       "(n=1, TE): injected")
    if fmt == "json":
        entries = json.loads(out)["result"]
        assert entries[0] == {"d": gaps[0], "error": message}
        rows = [(e["d"], e["pressure_pa"], e["error_estimate_pa"],
                 e["n_max"]) for e in entries[1:]]
    else:
        lines = out.splitlines()
        failed = f"# d={cli._fmt(gaps[0])}: {message}"
        assert lines[lines.index(failed) - 1].startswith("d,pressure_pa")
        rows = [(float(r[0]), float(r[1]), float(r[2]), int(r[5]))
                for r in (row.split(",") for row in _sweep_rows(out))]
    assert len(rows) == 8
    for d, (v, p, err_est, n_max) in zip(gaps[1:], rows):
        alone = L.pressure_matsubara(L.CavityConfig(
            M.ideal_metal(), M.ideal_metal(), d, 300.0, rel_tol=1e-9))
        assert (v, p, err_est, n_max) == (d, alone.pressure,
                                          alone.error_estimate, alone.n_max)


def test_omega_p_sweep_of_other_materials_exits_2(capsys):
    code, out, err = main_in_process(
        capsys, "sweep", "--mat1", "ideal", "--mat2", "plasma:1e16", "--d",
        "5e-6", "--T", "300", "--sweep-param", "omega_p", "--sweep-from",
        "1e15", "--sweep-to", "1e17", "--sweep-points", "3")
    assert code == 2 and out == ""
    assert "omega_p sweep needs drude or plasma" in err


def test_bvl_check_vacuum_passes_with_infinite_exponent(capsys):
    code, out, _ = main_in_process(
        capsys, "bvl-check", "--mat", "insulator:1.0", "--d", "1e-6", "--T",
        "300", "--z", "1e-7")
    assert code == 0
    assert '"e_limit_exponent": "inf"' in out
    doc = json.loads(out)
    jsonschema.validate(doc, cli.BVL_REPORT_SCHEMA)
    assert doc["verdict"] == "Pass"


# ------------------------------------------------------------ README examples

def _readme_commands():
    """The casimir-bvl commands of the README's Examples block, with their
    backslash continuations joined."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Examples:", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines()
            if line.startswith("casimir-bvl ")]


def test_readme_lists_its_example_commands():
    assert [argv[1] for argv in _readme_commands()] == [
        "pressure", "pressure", "sweep", "bvl-check", "reflect"]


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv[1:3]))
    for argv in _readme_commands()
    # the --method realfreq example takes 21-30 s on 2 cores; the
    # real-frequency route has its own tests
    if "realfreq" not in argv])
def test_readme_example_exits_0(argv, capsys):
    code, out, err = main_in_process(capsys, *argv[1:])
    assert code == 0, err
    assert out and err == ""
