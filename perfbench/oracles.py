"""Correctness oracles, independent of the package's quadrature.

Every check raises :class:`OracleMiss` with a one-line reason when a result
is wrong; it returns nothing when the result passes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# CODATA 2018, as used by the package; restated so the oracles do not lean
# on package code.
HBAR = 1.054571817e-34
K_B = 1.380649e-23
C = 2.99792458e8
ZETA3 = 1.2020569031595943

#: Agreement gate between the real-frequency and Matsubara routes.
REALFREQ_AGREEMENT = 5e-2
#: Tolerance between a CLI-printed value and the in-process reference.
CLI_REL_TOL = 1e-8
#: Expected Bohr-van Leeuwen verdicts of the acceptance catalog.
BVL_CATALOG = {"insulator": "Pass", "drude": "Pass", "plasma": "Fail",
               "gplasma": "Fail", "ideal": "Fail"}


class OracleMiss(Exception):
    """A result disagrees with its oracle."""


def _close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


def ideal_pressure_series(d, T):
    """Ideal-metal pressure from the double series over n and round trips m.

    The round-trip bracket is expanded into exp(-2 m q d) terms; each
    k-integral is then elementary after substituting q for k.  The n = 0
    term sums to zeta(3) in closed form.  Rows of n are summed in blocks
    until a block's contribution is below 1e-14 of the total.
    """
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    b = 2.0 * d * np.arange(1, 400)[None, :]
    total = 2.0 / (8.0 * d ** 3) * ZETA3
    start = 1
    while True:
        a = (np.arange(start, start + 256) * xi1 / C)[:, None]
        rows = 2.0 * np.sum(np.exp(-b * a) * (a * a / b + 2.0 * a / b ** 2
                                              + 2.0 / b ** 3), axis=1)
        total += float(np.sum(rows))
        if rows[-1] < 1e-14 * total:
            break
        start += 256
    return -(K_B * T / math.pi) * total


def check_matsubara(result, like_pair, ideal_pair, d, T):
    """Finite, attractive, equal to the sum of its per_n, series for ideal."""
    p, err = result.pressure, result.error_estimate
    if not (math.isfinite(p) and math.isfinite(err) and err >= 0.0):
        raise OracleMiss(f"non-finite result {p!r} +- {err!r}")
    if like_pair and not p < 0.0:
        raise OracleMiss(f"like pair not attractive: {p:.6e} Pa")
    terms = [te + tm for _, te, tm in result.per_n]
    summed = math.fsum(terms)
    scale = math.fsum(abs(t) for t in terms)
    if abs(p - summed) > 1e-12 * scale:
        raise OracleMiss(f"pressure {p:.17e} != sum of per_n {summed:.17e}")
    if ideal_pair:
        want = ideal_pressure_series(d, T)
        if abs(p - want) > err:
            raise OracleMiss(f"ideal series {want:.10e} outside "
                             f"{p:.10e} +- {err:.3e}")


def check_real_frequency(result, matsubara_pressure):
    """Agreement with the Matsubara route and the evanescent split."""
    p = result.pressure
    if not math.isfinite(p):
        raise OracleMiss(f"non-finite result {p!r}")
    dev = p / matsubara_pressure - 1.0
    if not abs(dev) <= REALFREQ_AGREEMENT:
        raise OracleMiss(f"real-frequency {p:.6e} vs Matsubara "
                         f"{matsubara_pressure:.6e}: dev {dev:+.3e}")
    parts = result.evanescent + result.propagating
    if abs(parts - p) > 1e-12 * (abs(result.evanescent)
                                 + abs(result.propagating)):
        raise OracleMiss(f"evanescent + propagating {parts:.17e} != "
                         f"total {p:.17e}")


def _data_rows(text):
    """Non-comment CSV rows, header first."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def parse_pressure(text, fmt):
    """pressure_pa printed by ``pressure``."""
    if fmt == "json":
        return json.loads(text)["result"]["pressure_pa"]
    rows = _data_rows(text)
    if rows[0] != ["n", "te_pa", "tm_pa"]:
        raise OracleMiss(f"unexpected CSV header {rows[0]}")
    return float(rows[-1][0])


def parse_sweep(text, fmt, param):
    """[(value, pressure_pa)] printed by ``sweep``."""
    if fmt == "json":
        return [(row[param], row["pressure_pa"])
                for row in json.loads(text)["result"]]
    rows = _data_rows(text)
    if rows[0][:2] != [param, "pressure_pa"]:
        raise OracleMiss(f"unexpected CSV header {rows[0]}")
    return [(float(r[0]), float(r[1])) for r in rows[1:]]


def parse_reflect(text):
    """ndarray of rows (k, re/im r_te, re/im r_tm, re/im r_bar)."""
    rows = _data_rows(text)
    if rows[0][0] != "k_perp" or len(rows[0]) != 7:
        raise OracleMiss(f"unexpected CSV header {rows[0]}")
    return np.array([[float(v) for v in r] for r in rows[1:]])


def check_cli_pressure(printed, reference):
    if not _close(printed, reference, CLI_REL_TOL):
        raise OracleMiss(f"printed {printed:.17e} vs in-process "
                         f"{reference:.17e}")


def check_cli_sweep(rows, values, references):
    if len(rows) != len(values):
        raise OracleMiss(f"{len(rows)} rows for {len(values)} sweep points")
    for (v, p), want_v, want_p in zip(rows, values, references):
        if not _close(v, want_v, 1e-12):
            raise OracleMiss(f"sweep value {v!r} != {want_v!r}")
        if not _close(p, want_p, CLI_REL_TOL):
            raise OracleMiss(f"row {v:.6e}: printed {p:.17e} vs in-process "
                             f"{want_p:.17e}")


def check_cli_bvl(doc, model_key, reference):
    want = BVL_CATALOG[model_key]
    if doc["verdict"] != want:
        raise OracleMiss(f"{model_key}: verdict {doc['verdict']}, "
                         f"catalog says {want}")
    for key, ref in (("b_correlator_norm", reference.b_correlator_norm),
                     ("cavity_classical_te_pa", reference.cavity_classical_te),
                     ("reference_scale", reference.reference_scale)):
        if not _close(doc[key], ref, CLI_REL_TOL):
            raise OracleMiss(f"{key}: printed {doc[key]!r} vs in-process "
                             f"{ref!r}")


def check_cli_reflect(table, kperps, references):
    if table.shape != (len(kperps), 7):
        raise OracleMiss(f"table shape {table.shape} for {len(kperps)} k")
    want = np.array([[k, r.r_te.real, r.r_te.imag, r.r_tm.real, r.r_tm.imag,
                      r.r_bar.real, r.r_bar.imag]
                     for k, r in zip(kperps, references)])
    bad = np.abs(table - want) > 1e-12 * np.abs(want) + 1e-15
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise OracleMiss(f"row {i} column {j}: printed {table[i, j]!r} vs "
                         f"in-process {want[i, j]!r}")
