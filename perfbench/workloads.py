"""The benchmark's workloads: seeded op streams, the call each op makes
into the package, and the oracle each result must pass.

Each workload yields ops in blocks of fixed composition, so every run sees
the same mix of cases whatever its seed; the seed moves the inputs inside
each case.  A timed run repeats the workload's first ``TIMED_BLOCKS``
blocks.  All inputs lie where the program is expected to succeed.  Inputs
that fail today are kept apart as named known-defect probes, which the
traced run executes and records.  Ops too long or too thread-bound to time
steadily on a shared 2-vCPU host (the real-frequency route, CLI sweeps) run
only in the traced run, through ``trace_extra``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

import oracles

OMEGA_P_AU = 1.37e16
GAMMA_AU = 5.32e13
OSCILLATOR = (2e31, 3e15, 1e14)   # strength, center, width of the gplasma term

CATALOG = {
    "insulator": "insulator:3.0",
    "drude": f"drude:{OMEGA_P_AU!r},{GAMMA_AU!r}",
    "plasma": f"plasma:{OMEGA_P_AU!r}",
    "gplasma": f"gplasma:{OMEGA_P_AU!r};{OSCILLATOR[0]!r},{OSCILLATOR[1]!r},"
               f"{OSCILLATOR[2]!r}",
    "ideal": "ideal",
}
#: Tabulated drude-like model sampled from Drude gold's eps(i xi).
TABLE = "table:drude-like"

# Golden-ratio step of the low-discrepancy draws: over any number of blocks
# the draws of a case cover its range nearly evenly, which keeps the
# per-run cost steady across seeds.
_GOLDEN = 0.6180339887498949


def _draw(offset, block, lo, hi):
    """Log-uniform value in [lo, hi] for the given block of a stream."""
    u = (float(offset) + block * _GOLDEN) % 1.0
    return lo * (hi / lo) ** u


@dataclass
class Op:
    case: str                 # case id, unique within a stream
    kind: str
    params: dict
    defect: str | None = None  # known defect a probe exercises


@dataclass
class Context:
    """Package modules plus the state a workload builds in set-up."""

    pkg: object
    models: dict = field(default_factory=dict)
    memo: dict = field(default_factory=dict)

    def model(self, spec):
        model = self.models.get(spec)
        if model is None:
            model = self.models[spec] = _build_model(self.pkg, spec)
        return model

    def cached(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def cavity(self, m1, m2, d, T, rel_tol=1e-9):
        return self.pkg.lifshitz.CavityConfig(self.model(m1), self.model(m2),
                                              d, T, rel_tol=rel_tol)


def _build_model(pkg, spec):
    """MaterialModel for a material spec, built without the CLI parser."""
    M = pkg.materials
    if spec == TABLE:
        src = M.drude(OMEGA_P_AU, GAMMA_AU)
        table = [(float(x), float(M.eval_epsilon(src, 1j * x).real))
                 for x in np.geomspace(1e12, 1e18, 200)]
        return M.tabulated(table, M.Extrapolation.DRUDE_LIKE)
    if spec == "ideal":
        return M.ideal_metal()
    kind, _, rest = spec.partition(":")
    if kind == "insulator":
        return M.insulator(float(rest))
    if kind == "drude":
        wp, gamma = rest.split(",")
        return M.drude(float(wp), float(gamma))
    if kind == "plasma":
        return M.plasma(float(rest))
    if kind == "gplasma":
        wp, osc = rest.split(";")
        return M.generalized_plasma(
            float(wp), (M.Oscillator(*(float(v) for v in osc.split(","))),))
    raise ValueError(f"unknown material spec {spec!r}")


class CliExit(Exception):
    """The CLI returned a nonzero exit code."""


# ------------------------------------------------- real-frequency cross-check

class RealFreqCrosscheck:
    """Diagnostic route: ``lifshitz.pressure_real_frequency`` cross-checked
    against the Matsubara route.

    Its ops take 4 to 7 s each, and a run of one or two such ops times the
    host's speed over those seconds more than the route: on a shared 2-vCPU
    host ten runs spread by a quarter of their median.  So it is no timed
    workload of its own; the traced run of matsubara-grid runs it, which
    measures its layers (``fresnel.branch_sqrt``, ``quadrature.composite_gk``,
    ``quadrature.integrate_real_frequency``, real-axis permittivities).
    """

    #: Matsubara tolerance of the references; far below the 5e-2 gate.
    REFERENCE_REL_TOL = 1e-6

    def ops(self, rng):
        """A low-plasma-frequency Drude pair at 1 um and gold facing that
        Drude metal at 0.3 um.  Gold's plasma frequency sets the frequency
        cap, so the cost of a cavity with gold grows with d; at 0.3 um it is
        near 6 s, where the gold pair at 1 um takes 35 s."""
        jit = rng.uniform(-1.0, 1.0, size=6).tolist()
        low = (f"drude:{1e15 * (1 + 0.05 * jit[0])!r},"
               f"{1e13 * (1 + 0.05 * jit[1])!r}")
        return [
            self._op("x", "low-drude", low, low,
                     1e-6 * (1 + 0.02 * jit[2]), 300 * (1 + 0.03 * jit[3])),
            self._op("x", "gold/low-drude", CATALOG["drude"], low,
                     3e-7 * (1 + 0.02 * jit[4]), 300 * (1 + 0.03 * jit[5])),
        ]

    def _op(self, tag, label, m1, m2, d, T, defect=None):
        return Op(f"{tag}:{label}:d={d:.4e}:T={T:.4g}", "realfreq",
                  {"m1": m1, "m2": m2, "d": d, "T": T}, defect)

    def defects(self):
        return [
            self._op("defect", "ideal", "ideal", "ideal", 1e-6, 300.0,
                     "lossless ideal metal on the real axis"),
            self._op("defect", "insulator", CATALOG["insulator"],
                     CATALOG["insulator"], 1e-6, 300.0,
                     "insulator with eps(inf) != 1"),
            self._op("defect", "plasma", CATALOG["plasma"], CATALOG["plasma"],
                     1e-6, 300.0, "lossless plasma on the real axis"),
        ]

    def execute(self, ctx, op):
        q = op.params
        return ctx.pkg.lifshitz.pressure_real_frequency(
            ctx.cavity(q["m1"], q["m2"], q["d"], q["T"]))

    def check(self, ctx, op, result):
        q = op.params
        key = ("matsubara", q["m1"], q["m2"], q["d"], q["T"])
        reference = ctx.cached(key, lambda: ctx.pkg.lifshitz
                               .pressure_matsubara(ctx.cavity(
                                   q["m1"], q["m2"], q["d"], q["T"],
                                   self.REFERENCE_REL_TOL)).pressure)
        oracles.check_real_frequency(result, reference)


# ------------------------------------------------------------ matsubara-grid

class MatsubaraGrid:
    """Production route: ``lifshitz.pressure_matsubara`` on seeded draws.

    The traced run adds the real-frequency cross-check and its probes.
    """

    name = "matsubara-grid"
    CROSSCHECK = RealFreqCrosscheck()
    PAIRS = [("insulator", "insulator"), ("drude", "drude"),
             ("plasma", "plasma"), ("gplasma", "gplasma"),
             ("ideal", "ideal"), (TABLE, TABLE), ("drude", "plasma"),
             ("insulator", "ideal"), (TABLE, "drude")]
    # stratum: (T range in K, d range in m, rel_tol); each block draws every
    # pair once at 300 K and at 77 K, plus one long-sum op.  Long sums take
    # ~100 ms, ten times the others; a long op needs a long stretch of fast
    # host to time well, so they are kept to one op in 19, which also keeps
    # op_p90_ms on the 77 K ops.
    STRATA = {"300K": ((300.0, 300.0), (5e-7, 1e-5), 1e-9),
              "77K": ((77.0, 77.0), (2e-6, 1e-5), 1e-9),
              "longsum": ((5.0, 10.0), (1e-6, 2e-6), 2e-3)}
    TRACE_OPS = 38
    TIMED_BLOCKS = 3

    def blocks(self, ctx, rng):
        offsets = rng.random((len(self.STRATA), len(self.PAIRS), 2))
        block = 0
        while True:
            ops = []
            for s, (stratum, (t_rng, d_rng, tol)) in enumerate(
                    self.STRATA.items()):
                if stratum != "longsum":
                    for p in range(len(self.PAIRS)):
                        d = _draw(offsets[s, p, 0], block, *d_rng)
                        T = _draw(offsets[s, p, 1], block, *t_rng)
                        ops.append(self._op(f"b{block}", stratum, p, d, T,
                                            tol))
                    continue
                # one long sum per block, on one low-discrepancy sequence;
                # pairs in steps of 4 (insulator, ideal, table/drude first)
                p = 4 * block % len(self.PAIRS)
                d = _draw(offsets[s, 0, 0], 2 * block, *d_rng)
                T = _draw(offsets[s, 0, 1], block, *t_rng)
                ops.append(self._op(f"b{block}", stratum, p, d, T, tol))
            yield [ops[i] for i in rng.permutation(len(ops))]
            block += 1

    def _op(self, tag, stratum, p, d, T, tol, defect=None):
        m1, m2 = (CATALOG.get(m, m) for m in self.PAIRS[p])
        pair = "/".join(self.PAIRS[p]).replace(TABLE, "table")
        return Op(f"{tag}:{stratum}:{pair}:d={d:.4e}:T={T:.4g}", "matsubara",
                  {"m1": m1, "m2": m2, "d": d, "T": T, "rel_tol": tol},
                  defect)

    def warmup(self):
        return self._op("warmup", "300K", 1, 1e-6, 300.0, 1e-9)

    def defects(self, rng):
        probes = []
        for p in range(len(self.PAIRS)):
            probes.append(self._op(
                "defect", "300K", p, _draw(rng.random(), 0, 1e-7, 2e-7),
                300.0, 1e-9, "NoConvergence at d <= 200 nm, 300 K"))
            probes.append(self._op(
                "defect", "77K", p, _draw(rng.random(), 0, 5e-7, 1e-6),
                77.0, 1e-9, "NoConvergence at 77 K, d <= 1 um"))
        for p in (1, 4):
            probes.append(self._op(
                "defect", "10K", p, 1e-6, 10.0, 1e-6,
                "NoConvergence at 10 K, 1 um, rel_tol 1e-6"))
        return probes + self.CROSSCHECK.defects()

    def trace_extra(self, rng):
        return self.CROSSCHECK.ops(rng)

    def execute(self, ctx, op):
        if op.kind == "realfreq":
            return self.CROSSCHECK.execute(ctx, op)
        q = op.params
        return ctx.pkg.lifshitz.pressure_matsubara(
            ctx.cavity(q["m1"], q["m2"], q["d"], q["T"], q["rel_tol"]))

    def check(self, ctx, op, result):
        if op.kind == "realfreq":
            return self.CROSSCHECK.check(ctx, op, result)
        q = op.params
        oracles.check_matsubara(result, like_pair=q["m1"] == q["m2"],
                                ideal_pair=q["m1"] == q["m2"] == "ideal",
                                d=q["d"], T=q["T"])


# ---------------------------------------------------------------- cli-mixed

class CliMixed:
    """``cli.main(argv)`` in process on a seeded mix of subcommands.

    The traced run adds sweeps over d, T and omega_p.
    """

    name = "cli-mixed"
    MODELS = list(CATALOG)
    TRACE_OPS = 22
    TIMED_BLOCKS = 10
    README_SWEEP = ["sweep", "--mat1", "ideal", "--mat2", "ideal",
                    "--d", "1e-6", "--T", "300", "--sweep-param", "d",
                    "--sweep-from", "1e-7", "--sweep-to", "1e-5",
                    "--sweep-points", "9"]

    def blocks(self, ctx, rng):
        # Materials and point counts cycle over the blocks and pressure gaps
        # follow low-discrepancy draws, so a run's mix hardly depends on the
        # seed; the seed moves the gaps and ranges.
        offsets = rng.random(5)
        block = 0
        while True:
            ops = [self._pressure(block, k, ("json", "csv")[(block + k) % 2],
                                  offsets[k]) for k in range(5)]
            ops += [self._bvl(block, j, rng) for j in range(2)]
            ops += [self._reflect(block, i, axis, rng) for i, axis in
                    enumerate(("xi", "omega", "static", "omega"))]
            yield [ops[i] for i in rng.permutation(len(ops))]
            block += 1

    def trace_extra(self, rng):
        """Sweeps, which only the traced run times: the sweep's 4-thread
        pool hands the interpreter lock between the host's 2 vCPUs, and on
        a shared host ten timed runs of sweeps spread by up to a quarter of
        their median, twice the spread of the single-thread ops."""
        return [self._sweep_d(0, "drude", rng),
                self._sweep_t(1, "plasma", rng), self._sweep_wp(2, rng)]

    @staticmethod
    def _log(rng, lo, hi):
        return float(lo * (hi / lo) ** rng.random())

    def _sweep(self, block, m1, m2, d, T, param, lo, hi, rng):
        # 8 to 16 points in a cycle over the blocks, the same for every seed
        points = 8 + (5 * block + (param != "d")) % 9
        fmt = "json" if rng.random() < 0.5 else "csv"
        argv = ["sweep", "--mat1", m1, "--mat2", m2, "--d", repr(d),
                "--T", repr(T), "--sweep-param", param, "--sweep-from",
                repr(lo), "--sweep-to", repr(hi), "--sweep-points",
                str(points), "--format", fmt]
        return Op(f"b{block}:sweep-{param}:{fmt}:{m1}/{m2}:{lo:.3e}-{hi:.3e}"
                  f"x{points}", "sweep",
                  {"argv": argv, "m1": m1, "m2": m2, "d": d, "T": T,
                   "param": param, "from": lo, "to": hi, "points": points,
                   "format": fmt})

    def _sweep_d(self, block, like, rng):
        spec = CATALOG[like]
        return self._sweep(block, spec, spec, 1e-6, 300.0, "d",
                           self._log(rng, 5e-7, 1e-6),
                           self._log(rng, 3e-6, 1e-5), rng)

    def _sweep_t(self, block, like, rng):
        spec = CATALOG[like]
        return self._sweep(block, spec, spec, self._log(rng, 2e-6, 5e-6),
                           300.0, "T", self._log(rng, 80.0, 150.0),
                           self._log(rng, 300.0, 600.0), rng)

    def _sweep_wp(self, block, rng):
        spec = CATALOG[("drude", "plasma")[block // 2 % 2]]
        return self._sweep(block, spec, spec, self._log(rng, 8e-7, 2e-6),
                           300.0, "omega_p", self._log(rng, 1e15, 3e15),
                           self._log(rng, 3e16, 1e17), rng)

    def _pressure(self, block, k, fmt, offset):
        m1, m2 = (CATALOG[self.MODELS[(block + i) % len(self.MODELS)]]
                  for i in (k, 2 * k + 1))
        d = _draw(offset, block, 5e-7, 1e-5)
        argv = ["pressure", "--mat1", m1, "--mat2", m2, "--d", repr(d),
                "--T", "300.0", "--format", fmt]
        return Op(f"b{block}:pressure{k}:{fmt}:{m1}/{m2}:d={d:.4e}",
                  "pressure", {"argv": argv, "m1": m1, "m2": m2, "d": d,
                               "T": 300.0, "format": fmt})

    def _bvl(self, block, j, rng):
        key = self.MODELS[(2 * block + j) % len(self.MODELS)]
        d, T = self._log(rng, 5e-7, 5e-6), self._log(rng, 100.0, 600.0)
        z = self._log(rng, 5e-8, 1e-6)
        argv = ["bvl-check", "--mat", CATALOG[key], "--d", repr(d),
                "--T", repr(T), "--z", repr(z)]
        return Op(f"b{block}:bvl-check:{key}:d={d:.4e}:z={z:.4e}", "bvl",
                  {"argv": argv, "key": key, "d": d, "T": T, "z": z})

    def _reflect(self, block, i, axis, rng):
        spec = CATALOG[self.MODELS[(block + 2 * i) % len(self.MODELS)]]
        lo, hi = self._log(rng, 1e3, 1e5), self._log(rng, 1e7, 1e9)
        points = 51 + (37 * block + 50 * i) % 151   # 51 to 201
        argv = ["reflect", "--mat", spec]
        value = None
        if axis == "static":
            argv.append("--static")
        else:
            value = self._log(rng, 1e12, 1e16)
            argv += [f"--{axis}", repr(value)]
        argv += ["--kperp", f"{lo!r}:{hi!r}:{points}"]
        return Op(f"b{block}:reflect-{axis}:{spec}:x{points}", "reflect",
                  {"argv": argv, "spec": spec, "axis": axis, "value": value,
                   "lo": lo, "hi": hi, "points": points})

    def warmup(self):
        spec = CATALOG["drude"]
        argv = ["pressure", "--mat1", spec, "--mat2", spec, "--d", "1e-06",
                "--T", "300.0", "--format", "json"]
        return Op("warmup:pressure", "pressure",
                  {"argv": argv, "m1": spec, "m2": spec, "d": 1e-6, "T": 300.0,
                   "format": "json"})

    def defects(self, rng):
        return [Op("defect:readme-sweep", "sweep",
                   {"argv": self.README_SWEEP, "m1": "ideal", "m2": "ideal",
                    "d": 1e-6, "T": 300.0, "param": "d", "from": 1e-7,
                    "to": 1e-5, "points": 9, "format": "csv"},
                   "README ideal sweep from 1e-7 m exits 3")]

    def execute(self, ctx, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.pkg.cli.main(op.params["argv"])
        if code != 0:
            lines = err.getvalue().strip().splitlines() or [""]
            raise CliExit(f"exit {code}: {lines[-1]}")
        return out.getvalue()

    def _pressure_ref(self, ctx, m1, m2, d, T):
        return ctx.cached(("p", m1, m2, d, T), lambda: ctx.pkg.lifshitz
                          .pressure_matsubara(ctx.cavity(m1, m2, d, T))
                          .pressure)

    def check(self, ctx, op, stdout):
        q = op.params
        if op.kind == "pressure":
            oracles.check_cli_pressure(
                oracles.parse_pressure(stdout, q["format"]),
                self._pressure_ref(ctx, q["m1"], q["m2"], q["d"], q["T"]))
        elif op.kind == "sweep":
            rows = oracles.parse_sweep(stdout, q["format"], q["param"])
            values = [float(v) for v in
                      np.geomspace(q["from"], q["to"], q["points"])]
            refs = [self._sweep_ref(ctx, q, v) for v in values]
            oracles.check_cli_sweep(rows, values, refs)
        elif op.kind == "bvl":
            ref = ctx.cached(("bvl", q["key"], q["d"], q["T"], q["z"]),
                             lambda: ctx.pkg.bvl.bvl_verdict(
                                 ctx.model(CATALOG[q["key"]]), q["d"], q["T"],
                                 q["z"]))
            oracles.check_cli_bvl(json.loads(stdout), q["key"], ref)
        else:
            kperps = [float(k) for k in
                      np.geomspace(q["lo"], q["hi"], q["points"])]
            oracles.check_cli_reflect(
                oracles.parse_reflect(stdout), kperps,
                [self._reflection(ctx, q, k) for k in kperps])

    def _sweep_ref(self, ctx, q, value):
        m1, m2, d, T = q["m1"], q["m2"], q["d"], q["T"]
        if q["param"] == "d":
            d = value
        elif q["param"] == "T":
            T = value
        else:
            m1 = m2 = _with_omega_p(m1, value)
        return self._pressure_ref(ctx, m1, m2, d, T)

    @staticmethod
    def _reflection(ctx, q, k):
        fresnel, model = ctx.pkg.fresnel, ctx.model(q["spec"])
        if q["axis"] == "static":
            return fresnel.reflection_static(model, k)
        if q["axis"] == "xi":
            return fresnel.reflection(model, 1j * q["value"], k)
        return fresnel.reflection(model, q["value"], k)


def _with_omega_p(spec, omega_p):
    kind, _, rest = spec.partition(":")
    if kind == "drude":
        return f"drude:{omega_p!r},{rest.split(',')[1]}"
    return f"plasma:{omega_p!r}"


WORKLOADS = {w.name: w for w in (MatsubaraGrid(), CliMixed())}


def failure_reason(exc):
    """One-line failure reason: exception type and message."""
    msg = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {msg[0] if msg else ''}"
