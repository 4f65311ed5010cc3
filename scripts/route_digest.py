#!/usr/bin/env python3
"""SHA-256 digest of the production route's outputs over a fixed matrix.

Runs ``pressure_matsubara`` on every unordered pair of six models (21
pairs) x 7 gaps from 0.3 to 20 um x T in {30, 77, 300} K x rel_tol in
{1e-9, 1e-6}, on the nine pairs of the benchmark's matsubara-grid workload
at d in {1, 2} um x T in {5, 10} K with rel_tol 2e-3 (its long sums), and
``bvl_verdict`` on the six models at four geometries.
For each case it prints the SHA-256 of ``repr`` of the result, or of the
exception's type and message, then one total over all cases.  Two
checkouts that print the same total give bit-identical results on every
case: every ``PressureResult`` field, ``error_estimate`` and ``per_n``
included, every failure message and every verdict.

A second total, ``reflect-total``, digests the text of ``cli.main``
``reflect`` tables of the six models on the imaginary axis and in the
static limit (exit code, standard output and standard error), so two
checkouts that print it alike print those tables byte for byte alike.

A third total, ``scalar-total``, digests scalar-argument calls of the six
models: ``fresnel.reflection`` at five imaginary frequencies and
``fresnel.reflection_static`` and ``fresnel.static_rte`` at 61 k_perp
each, and ``materials.eval_epsilon`` at the five imaginary frequencies.
Each value enters as the ``repr`` of a Python complex, so the total reads
the bits of the values and not their Python or numpy types.

A fourth total, ``cli-total``, digests the text of ``cli.main`` (exit code,
standard output and standard error) on a fixed list of argvs: ``pressure``
with JSON and with CSV output, ``sweep`` with JSON and with CSV output,
``bvl-check`` on each of the six models, and the argvs of
``tests/cli_texts.json``, which cover help, usage and error texts.  An argparse exit counts as the exit code its ``SystemExit`` carries,
and help is formatted 80 columns wide.

A fifth total, ``config-total``, digests the text of ``cli.main`` on
``--config`` documents: the config echoed by each ``cli-total`` argv that
exits 0 with a report on standard output (the ``config`` of a JSON report,
or the ``# key = value`` lines of a CSV one), and the malformed documents
of MALFORMED_CONFIGS.  Two checkouts that print it alike read their
echoed configs back alike and reject those documents in the same words.

Usage:
    python3 scripts/route_digest.py [--src DIR] | grep total
    python3 scripts/route_digest.py [--src DIR] --against OTHER_SRC

``--src`` names the ``src`` directory to import the package from; by
default it is the one of this checkout, so the script can be pointed at
another checkout to compare the two.

A change that moves values within tolerance moves ``total`` even when it is
sound.  ``--against OTHER_SRC`` then runs the pressure and verdict cases on
both packages and prints the cases whose n_max, failure message or verdict
differ, the largest |dP| over the ``error_estimate`` of the OTHER_SRC
package and over |P|, the cases whose n = 0 terms moved, and the largest
relative move of each verdict's ``b_correlator_norm``, ``e_limit_exponent``
and ``cavity_classical_te``.  For each package it prints how many
``integrate_rows`` calls of the pressures took more than one refinement
round, and over its converging pressures the ``integrate_rows`` calls,
the Matsubara indices computed past n_max, the cost of the pass sizing,
and the largest n_max over the reach ceil(nu x*) + 3, the margin that the
index ceiling, twice the reach, relies on.
It prints, for each package, the tracemalloc peak bytes per Matsubara
index of one long sum, two ideal metals at 10 nm, 10 K and rel_tol 1e-6,
run once untraced first so that the seed tables are built.
It also compares the entries of the reflect
tables and of the scalar reflection calls one by one, and prints the
largest relative move of r_te, r_tm and r_bar, apart on the imaginary axis
and in the static limit.  It runs ``pressure_real_frequency`` on both
packages for a low-omega_p Drude pair (1e15, 1e13 rad/s) at 1 um and 300 K,
about 2 s each, and prints |dP| over the ``error_estimate`` of the
OTHER_SRC package, the relative moves of the pressure, the evanescent part
and the propagating part, and the wall time of each package's run.  It
lists the ``cli-total`` argvs whose text differs, with the first line that
differs, and likewise the ``config-total`` documents whose text differs.
It exits 1 if any n_max, failure message or verdict differs, if
any static-limit entry or any r_bar moves, or if either package's
evanescent + propagating misses its real-frequency pressure by more than
1e-12 of |evanescent| + |propagating|.
"""

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

GAPS = np.geomspace(0.3e-6, 20e-6, 7)
TEMPERATURES = (30.0, 77.0, 300.0)
REL_TOLS = (1e-9, 1e-6)
#: The material pairs of the benchmark's matsubara-grid workload, and the
#: (d [m], T [K]) and rel_tol of their long sums.
LONG_SUM_PAIRS = [("insulator", "insulator"), ("drude", "drude"),
                  ("plasma", "plasma"), ("gplasma", "gplasma"),
                  ("ideal", "ideal"), ("table", "table"), ("drude", "plasma"),
                  ("insulator", "ideal"), ("table", "drude")]
LONG_SUMS = list(itertools.product((1e-6, 2e-6), (5.0, 10.0)))
LONG_SUM_REL_TOL = 2e-3
#: (d [m], T [K], z_probe [m]) of the verdicts.
VERDICT_GEOMETRIES = [(1e-6, 300.0, 1e-7), (1e-7, 300.0, 1e-8),
                      (1e-5, 77.0, 1e-6), (1e-4, 30.0, 1e-5)]
OMEGA_P, GAMMA = 1.37e16, 5.32e13
#: CLI flags of the reflect tables: three xi [rad/s] and the static limit.
REFLECT_PROBES = (["--xi", "1e12"], ["--xi", "1e14"], ["--xi", "1e16"],
                  ["--static"])
REFLECT_KPERP = "1e3:1e9:61"
#: Imaginary frequencies [rad/s] of the scalar calls.
SCALAR_XI = (1e10, 1e12, 1e14, 1e16, 1e18)
#: The argv table of tests/test_cli.py, whose argvs ``cli-total`` runs too.
CLI_TEXTS = Path(__file__).resolve().parents[1] / "tests" / "cli_texts.json"
_IDEAL_PRESSURE = {"subcommand": "pressure", "materials": ["ideal", "ideal"],
                   "d": 1e-6, "T": 300.0}
#: --config documents that ``config-total`` runs besides the echoed ones: no
#: JSON object, no subcommand, a field no subcommand reads.
MALFORMED_CONFIGS = ([_IDEAL_PRESSURE],
                     {k: v for k, v in _IDEAL_PRESSURE.items()
                      if k != "subcommand"},
                     {**_IDEAL_PRESSURE, "foo": 1})


def models(M):
    """The six model kinds of the regression pin, by name."""
    src = M.drude(OMEGA_P, GAMMA)
    table = [(float(x), float(M.eval_epsilon(src, 1j * x).real))
             for x in np.geomspace(1e12, 1e18, 200)]
    return {
        "insulator": M.insulator(3.0),
        "drude": M.drude(OMEGA_P, GAMMA),
        "plasma": M.plasma(OMEGA_P),
        "gplasma": M.generalized_plasma(
            OMEGA_P, (M.Oscillator(2e31, 3e15, 1e14),)),
        "ideal": M.ideal_metal(),
        "table": M.tabulated(table, M.Extrapolation.DRUDE_LIKE),
    }


def cases(L, M, bvl):
    """(label, thunk) of every case, in a fixed order."""
    mods = models(M)
    for (n1, m1), (n2, m2) in itertools.combinations_with_replacement(
            mods.items(), 2):
        for d, T, tol in itertools.product(GAPS, TEMPERATURES, REL_TOLS):
            cfg = L.CavityConfig(m1, m2, float(d), T, tol)
            yield (f"pressure {n1}/{n2} d={d:.4g} T={T:g} rel_tol={tol:g}",
                   lambda cfg=cfg: L.pressure_matsubara(cfg))
    for (n1, n2), (d, T) in itertools.product(LONG_SUM_PAIRS, LONG_SUMS):
        cfg = L.CavityConfig(mods[n1], mods[n2], d, T, LONG_SUM_REL_TOL)
        yield (f"pressure {n1}/{n2} d={d:.4g} T={T:g} "
               f"rel_tol={LONG_SUM_REL_TOL:g}",
               lambda cfg=cfg: L.pressure_matsubara(cfg))
    for name, m in mods.items():
        for d, T, z in VERDICT_GEOMETRIES:
            yield (f"bvl {name} d={d:g} T={T:g} z={z:g}",
                   lambda m=m, d=d, T=T, z=z: bvl.bvl_verdict(m, d, T, z))


def reflect_specs(M, table_path):
    """CLI material specs of the six models of :func:`models`, by name.

    The tabulated model's table is written to ``table_path``.
    """
    table_path.write_text("".join(f"{x!r} {e!r}\n"
                                  for x, e in models(M)["table"].table))
    return {
        "insulator": "insulator:3.0",
        "drude": f"drude:{OMEGA_P!r},{GAMMA!r}",
        "plasma": f"plasma:{OMEGA_P!r}",
        "gplasma": f"gplasma:{OMEGA_P!r};2e31,3e15,1e14",
        "ideal": "ideal",
        "table": f"table:{table_path},drude_like",
    }


def cli_run(cli, argv):
    """(exit code, standard output, standard error) of ``cli.main(argv)``
    in this process.

    An argparse exit gives the code of its ``SystemExit``; help is
    formatted for 80 columns, whatever the terminal.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_text(cli, argv, table_path):
    """The :func:`cli_run` of argv as one text, with the table path written
    as ``<table>``."""
    code, out, err = cli_run(cli, argv)
    return f"exit {code}\n{out}{err}".replace(str(table_path), "<table>")


def reflect_cases(cli, specs, table_path):
    """(label, thunk) of every reflect table; the thunk returns its text."""
    for name, spec in specs.items():
        for flags in REFLECT_PROBES:
            argv = ["reflect", "--mat", spec, *flags, "--kperp", REFLECT_KPERP]
            yield (f"reflect {name} {' '.join(flags)}",
                   lambda argv=argv: cli_text(cli, argv, table_path))


def cli_argvs(specs):
    """The argvs of ``cli-total``, in a fixed order."""
    drude, plasma = specs["drude"], specs["plasma"]
    argvs = [
        ["pressure", "--mat1", drude, "--mat2", plasma, "--d", "1e-6",
         "--T", "300"],
        ["pressure", "--mat1", specs["gplasma"], "--mat2", specs["table"],
         "--d", "2e-6", "--T", "77", "--format", "csv"],
        ["sweep", "--mat1", drude, "--mat2", drude, "--d", "1e-6", "--T",
         "300", "--sweep-param", "T", "--sweep-from", "77", "--sweep-to",
         "300", "--sweep-points", "3", "--format", "json"],
        ["sweep", "--mat1", "ideal", "--mat2", "ideal", "--d", "1e-6", "--T",
         "300", "--sweep-param", "d", "--sweep-from", "3e-7", "--sweep-to",
         "1e-5", "--sweep-points", "5"],
    ]
    argvs += [["bvl-check", "--mat", spec, "--d", "1e-6", "--T", "300",
               "--z", "1e-7"] for spec in specs.values()]
    table = json.loads(CLI_TEXTS.read_text())
    return argvs + [row["argv"] for row in table]


def cli_cases(cli, specs, table_path):
    """(label, thunk) of every ``cli-total`` argv; the thunk returns its
    text."""
    for argv in cli_argvs(specs):
        label = " ".join(argv).replace(str(table_path), "<table>")
        yield (f"cli {label}",
               lambda argv=argv: cli_text(cli, argv, table_path))


def echoed_config(cli, argv):
    """The config document that ``cli.main(argv)`` echoes on standard
    output, or None if it exits nonzero or prints no report."""
    code, out, _ = cli_run(cli, argv)
    lines = out.splitlines()
    if code != 0 or not lines:
        return None
    if lines[0] == "{":
        return json.loads(out)["config"]
    if lines[0] != "# casimir-bvl report":
        return None
    fields = itertools.takewhile(lambda line: line.startswith("# "),
                                 lines[1:])
    return {key: json.loads(value)
            for key, value in (line[2:].split(" = ", 1) for line in fields)}


def config_cases(cli, specs, table_path):
    """(label, thunk) of every ``config-total`` document; the thunk returns
    the text of ``cli.main`` on it, given by ``--config``."""
    path = table_path.parent / "run.json"

    def run(doc):
        path.write_text(json.dumps(doc))
        return cli_text(cli, ["--config", str(path)], table_path)

    for argv in cli_argvs(specs):
        doc = echoed_config(cli, argv)
        if doc is not None:
            label = " ".join(argv).replace(str(table_path), "<table>")
            yield f"config echoed by {label}", lambda doc=doc: run(doc)
    for doc in MALFORMED_CONFIGS:
        yield f"config {json.dumps(doc)}", lambda doc=doc: run(doc)


def scalar_cases(F, M):
    """(label, thunk) of every scalar call; the thunk returns a list of
    Python complex numbers."""
    kperps = [float(k) for k in np.geomspace(1e3, 1e9, 61)]

    def sets(calls):
        return [complex(v) for r in calls for v in (r.r_te, r.r_tm, r.r_bar)]

    for name, m in models(M).items():
        for xi in SCALAR_XI:
            yield (f"eval_epsilon {name} xi={xi:g}",
                   lambda m=m, xi=xi: [complex(M.eval_epsilon(m, 1j * xi))])
            yield (f"reflection {name} xi={xi:g}",
                   lambda m=m, xi=xi: sets(F.reflection(m, 1j * xi, k)
                                           for k in kperps))
        yield (f"reflection_static {name}",
               lambda m=m: sets(F.reflection_static(m, k) for k in kperps))
        yield (f"static_rte {name}",
               lambda m=m: [complex(F.static_rte(m, k)) for k in kperps])


#: (omega_p [rad/s], gamma [rad/s], d [m], T [K]) of the Drude pair whose
#: real-frequency pressure --against compares.
REALFREQ_CASE = (1e15, 1e13, 1e-6, 300.0)
#: (d [m], T [K], rel_tol) of the long sum of two ideal metals whose traced
#: peak memory per index --against prints.
MEMORY_CASE = (1e-8, 10.0, 1e-6)
#: The numbers of a verdict that --against compares, apart from the verdict.
VERDICT_FIELDS = ("b_correlator_norm", "e_limit_exponent",
                  "cavity_classical_te")
#: The coefficients of a reflection set, in the order of its columns.
COEFFICIENTS = ("r_te", "r_tm", "r_bar")


def coefficient_entries(pkg):
    """(axis, coefficient) -> complex entries of every reflect table and
    every scalar reflection call, in a fixed order; axis is "imaginary" or
    "static".  The tables print each entry to 17 digits, which gives its
    float back exactly."""
    out = collections.defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        table_path = Path(tmp) / "eps.dat"
        specs = reflect_specs(pkg.materials, table_path)
        for label, thunk in reflect_cases(pkg.cli, specs, table_path):
            axis = "static" if label.endswith("--static") else "imaginary"
            rows = [[float(v) for v in line.split(",")]
                    for line in thunk().splitlines() if line[:1].isdigit()]
            for i, name in enumerate(COEFFICIENTS):
                out[axis, name] += [complex(r[1 + 2 * i], r[2 + 2 * i])
                                    for r in rows]
    for label, thunk in scalar_cases(pkg.fresnel, pkg.materials):
        kind = label.split()[0]
        if kind == "static_rte":
            out["static", "r_te"] += thunk()
        elif kind.startswith("reflection"):
            axis = "static" if kind == "reflection_static" else "imaginary"
            values = thunk()
            for i, name in enumerate(COEFFICIENTS):
                out[axis, name] += values[i::3]
    return out


def cli_texts(pkg, labelled):
    """Label -> text of every case of pkg that ``labelled(cli, specs,
    table_path)`` gives, such as :func:`cli_cases`."""
    with tempfile.TemporaryDirectory() as tmp:
        table_path = Path(tmp) / "eps.dat"
        specs = reflect_specs(pkg.materials, table_path)
        return {label: thunk()
                for label, thunk in labelled(pkg.cli, specs, table_path)}


def compare_cli(name, new, old):
    """Print the cases of two :func:`cli_texts` whose text differs, or
    that only one of them has, with the first line that differs."""
    differ = [label for label in old.keys() | new.keys()
              if new.get(label) != old.get(label)]
    print(f"{name}: {len(differ)} of {len(old)} cases print other text")
    for label in sorted(differ):
        pairs = itertools.zip_longest(new.get(label, "").splitlines(),
                                      old.get(label, "").splitlines(),
                                      fillvalue="")
        a, b = next((a, b) for a, b in pairs if a != b)
        print(f"  {label}\n    new {a}\n    old {b}")


def relative_move(a, b):
    """|a - b|/|b|: 0 if a equals b, inf if only b is 0."""
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b else math.inf


def compare_coefficients(new, old):
    """Print the largest relative move of each (axis, coefficient) entry
    list of :func:`coefficient_entries`; the number of static-limit and
    r_bar entries that moved."""
    forbidden = 0
    for key in sorted(old):
        pairs = list(zip(new[key], old[key]))
        moved = [(a, b) for a, b in pairs if a != b]
        worst = max((relative_move(a, b) for a, b in moved), default=0.0)
        print(f"{key[1]} {key[0]}: {len(moved)} of {len(pairs)} entries "
              f"moved, largest relative move {worst:.3g}")
        if key[0] == "static" or key[1] == "r_bar":
            forbidden += len(moved) + abs(len(new[key]) - len(old[key]))
    return forbidden


def real_frequency(pkg):
    """(pkg's ``pressure_real_frequency`` of the REALFREQ_CASE pair, its wall
    time in s)."""
    omega_p, gamma, d, T = REALFREQ_CASE
    m = pkg.materials.drude(omega_p, gamma)
    cfg = pkg.lifshitz.CavityConfig(m, m, d, T)
    start = time.perf_counter()
    result = pkg.lifshitz.pressure_real_frequency(cfg)
    return result, time.perf_counter() - start


def peak_per_index(pkg):
    """(tracemalloc peak bytes per index, indices n = 0..n_max) of pkg's
    ``pressure_matsubara`` of two ideal metals at MEMORY_CASE, traced on a
    second run, after the first has built the seed tables."""
    L = pkg.lifshitz
    m = pkg.materials.ideal_metal()
    cfg = L.CavityConfig(m, m, *MEMORY_CASE)
    L.pressure_matsubara(cfg)
    tracemalloc.start()
    try:
        indices = L.pressure_matsubara(cfg).n_max + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / indices, indices


def compare_real_frequency(new_run, old_run):
    """Print how the real-frequency result of ``new_run`` moved from that of
    ``old_run``, and the wall time of each (two :func:`real_frequency`
    pairs); the number of the two whose evanescent + propagating misses the
    pressure."""
    (new, new_s), (old, old_s) = new_run, old_run
    moves = ", ".join(
        f"{f} {relative_move(getattr(new, f), getattr(old, f)):.3g}"
        for f in ("pressure", "evanescent", "propagating"))
    omega_p, gamma, d, T = REALFREQ_CASE
    print(f"real-frequency drude:{omega_p:g},{gamma:g} d={d:g} T={T:g}: "
          f"|dP|/error_estimate "
          f"{abs(new.pressure - old.pressure) / old.error_estimate:.3g}; "
          f"relative move of {moves}; wall time new {new_s:.3g} s, "
          f"old {old_s:.3g} s")
    broken = 0
    for name, r in (("new", new), ("old", old)):
        e, p = r.evanescent, r.propagating
        if not abs(e + p - r.pressure) <= 1e-12 * (abs(e) + abs(p)):
            broken += 1
            print(f"{name}: evanescent + propagating {e + p!r} misses the "
                  f"pressure {r.pressure!r}")
    return broken


def digest(thunk):
    """SHA-256 hex of repr(result), or of the exception's type and text."""
    try:
        text = repr(thunk())
    except Exception as exc:   # a failure is an output too
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def digest_all(labelled):
    """Print each case's digest; return the total over them and the count."""
    total = hashlib.sha256()
    n = 0
    for label, thunk in labelled:
        h = digest(thunk)
        total.update(h.encode())
        n += 1
        print(f"{h[:16]}  {label}")
    return total.hexdigest(), n


def load(src):
    """Namespace of the casimir_bvl modules imported from the directory src.

    Modules of the package imported before, from any directory, are
    dropped first, so two packages can be loaded one after the other.
    """
    for name in [n for n in sys.modules if n.split(".")[0] == "casimir_bvl"]:
        del sys.modules[name]
    path = str(src.resolve())
    sys.path.insert(0, path)
    try:
        return argparse.Namespace(**{
            m: importlib.import_module(f"casimir_bvl.{m}")
            for m in ("bvl", "cli", "fresnel", "lifshitz", "materials",
                      "quadrature")})
    finally:
        sys.path.remove(path)


def reach(L, cfg):
    """ceil(nu x*) + 3 of cfg, nu = c/(2 d xi_1) and x* the package's
    ``_ideal_stop``: the index by which the sum of two ideal metals stops,
    which sizes the first pass of the kernel."""
    xi1 = 2.0 * math.pi * L.K_B * cfg.T / L.HBAR
    nu = L.C / (2.0 * cfg.d * xi1)
    return math.ceil(nu * L._ideal_stop(cfg.rel_tol)) + 3


def outcomes(pkg):
    """Label -> outcome of every case of :func:`cases`: the result, or the
    exception's type and message as a string; the refinement rounds of
    every ``integrate_rows`` call they made, one per integrand sample; and
    label -> (``integrate_rows`` calls, Matsubara indices n >= 1 of the
    kernel's rows, :func:`reach` of a pressure or None) of every case."""
    Q, L = pkg.quadrature, pkg.lifshitz
    original, kernel, pressure = (Q.integrate_rows, L._matsubara_rows,
                                  L.pressure_matsubara)
    rounds = []
    indices = [0]
    reached = [None]

    def counted(f, *args):
        rounds.append(0)

        def sampled(rows, k):
            rounds[-1] += 1
            return f(rows, k)

        return original(sampled, *args)

    def indexed(m1, m2, d, xi):
        indices[0] += int(np.count_nonzero(xi))
        return kernel(m1, m2, d, xi)

    def sized(cfg):
        reached[0] = reach(L, cfg)
        return pressure(cfg)

    out, work = {}, {}
    Q.integrate_rows, L._matsubara_rows, L.pressure_matsubara = (
        counted, indexed, sized)
    try:
        for label, thunk in cases(L, pkg.materials, pkg.bvl):
            calls, indices[0], reached[0] = len(rounds), 0, None
            try:
                out[label] = thunk()
            except Exception as exc:   # a failure is an output too
                out[label] = f"{type(exc).__name__}: {exc}"
            work[label] = (len(rounds) - calls, indices[0], reached[0])
    finally:
        Q.integrate_rows, L._matsubara_rows, L.pressure_matsubara = (
            original, kernel, pressure)
    return out, rounds, work


def print_passes(name, side):
    """Print how many of the ``integrate_rows`` calls of :func:`outcomes`
    side took more than one round, and the calls, the indices computed
    past n_max and the largest n_max/:func:`reach` of its converging
    pressures."""
    out, rounds, work = side
    more = sum(r > 1 for r in rounds)
    done = [(work[label], res.n_max) for label, res in out.items()
            if label.startswith("pressure") and not isinstance(res, str)]
    calls = sum(c for (c, _, _), _ in done)
    past = sum(n - n_max for (_, n, _), n_max in done)
    margin = max((n_max / r for (_, _, r), n_max in done), default=0.0)
    print(f"{name}: {more} of {len(rounds)} integrate_rows calls took more "
          f"than one round; its {len(done)} converging pressures took "
          f"{calls} calls and computed {past} indices past n_max; largest "
          f"n_max/reach {margin:.4f}")


def compare(new, old):
    """Print how the outcomes ``new`` differ from ``old``; the number of
    n_max, failure-message and verdict mismatches."""
    mismatches = converged = verdicts = 0
    worst_err = worst_rel = 0.0
    moved = []
    verdict_moves = {field: [] for field in VERDICT_FIELDS}
    for label, a in new.items():
        b = old[label]
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                mismatches += 1
                print(f"failure mismatch  {label}\n  new {a}\n  old {b}")
        elif label.startswith("bvl"):
            verdicts += 1
            if a.verdict.value != b.verdict.value:
                mismatches += 1
                print(f"verdict mismatch  {label}: {a.verdict.value} "
                      f"against {b.verdict.value}")
            for field, moves in verdict_moves.items():
                move = relative_move(getattr(a, field), getattr(b, field))
                if move:
                    moves.append(move)
        elif a.n_max != b.n_max:
            mismatches += 1
            print(f"n_max mismatch  {label}: {a.n_max} against {b.n_max}")
        else:
            converged += 1
            dp = abs(a.pressure - b.pressure)
            worst_err = max(worst_err, dp / b.error_estimate)
            worst_rel = max(worst_rel, dp / abs(b.pressure))
            moved += [f"{label} {pol}" for pol in ("n0_te", "n0_tm")
                      if getattr(a, pol) != getattr(b, pol)]
    print(f"{len(new)} cases, {mismatches} n_max, failure or verdict "
          f"mismatches")
    print(f"{converged} pressures converged in both: largest "
          f"|dP|/error_estimate {worst_err:.3g}, largest |dP|/|P| "
          f"{worst_rel:.3g}; {len(moved)} of their n = 0 terms moved")
    for line in moved:
        print(f"  {line}")
    for field, moves in verdict_moves.items():
        print(f"{field}: {len(moves)} of {verdicts} verdicts moved, largest "
              f"relative move {max(moves, default=0.0):.3g}")
    return mismatches


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src",
                    help="directory holding the casimir_bvl package")
    ap.add_argument("--against", type=Path, metavar="OTHER_SRC",
                    help="compare the pressures and verdicts with those of "
                         "the package in OTHER_SRC instead of digesting")
    args = ap.parse_args(argv)
    if args.against is not None:
        pkg = load(args.src)
        new, new_r, new_c, new_g, new_f, new_m = (
            outcomes(pkg), coefficient_entries(pkg),
            cli_texts(pkg, cli_cases), cli_texts(pkg, config_cases),
            real_frequency(pkg), peak_per_index(pkg))
        pkg = load(args.against)
        old, old_r, old_c, old_g, old_f, old_m = (
            outcomes(pkg), coefficient_entries(pkg),
            cli_texts(pkg, cli_cases), cli_texts(pkg, config_cases),
            real_frequency(pkg), peak_per_index(pkg))
        d, T, tol = MEMORY_CASE
        for name, side, (per_index, indices) in (("new", new, new_m),
                                                 ("old", old, old_m)):
            print_passes(name, side)
            print(f"{name}: traced peak {per_index:.0f} bytes per index of "
                  f"ideal/ideal d={d:g} T={T:g} rel_tol={tol:g} "
                  f"({indices} indices)")
        bad = compare(new[0], old[0])
        bad += compare_coefficients(new_r, old_r)
        compare_cli("cli", new_c, old_c)
        compare_cli("config", new_g, old_g)
        bad += compare_real_frequency(new_f, old_f)
        sys.exit(1 if bad else 0)
    pkg = load(args.src)

    where = Path(pkg.lifshitz.__file__).parent
    total, n = digest_all(cases(pkg.lifshitz, pkg.materials, pkg.bvl))
    print(f"total {total}  ({n} cases, package at {where})")
    with tempfile.TemporaryDirectory() as tmp:
        table_path = Path(tmp) / "eps.dat"
        specs = reflect_specs(pkg.materials, table_path)
        total, n = digest_all(reflect_cases(pkg.cli, specs, table_path))
        print(f"reflect-total {total}  ({n} tables, package at {where})")
        total, n = digest_all(cli_cases(pkg.cli, specs, table_path))
        print(f"cli-total {total}  ({n} argvs, package at {where})")
        total, n = digest_all(config_cases(pkg.cli, specs, table_path))
    print(f"config-total {total}  ({n} documents, package at {where})")
    total, n = digest_all(scalar_cases(pkg.fresnel, pkg.materials))
    print(f"scalar-total {total}  ({n} cases, package at {where})")


if __name__ == "__main__":
    main()
