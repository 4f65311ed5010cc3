"""Command-line front end.

Subcommands: ``pressure``, ``sweep``, ``bvl-check``, ``reflect``.  A JSON
config file (``--config``) mirrors the flag set for scripted use.  Exit
codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bvl, fresnel, lifshitz, materials, quadrature

FLOAT_FMT = "%.17e"

BVL_REPORT_SCHEMA = {
    "type": "object",
    "required": ["model_class", "b_correlator_norm", "e_limit_exponent",
                 "cavity_classical_te_pa", "reference_scale", "verdict"],
    "properties": {
        "model_class": {"type": "string"},
        "b_correlator_norm": {"type": "number"},
        "e_limit_exponent": {"type": ["number", "string"]},
        "cavity_classical_te_pa": {"type": "number"},
        "reference_scale": {"type": "number"},
        "verdict": {"enum": ["Pass", "Fail"]},
    },
}


class ConfigParse(Exception):
    """Malformed CLI or config-file input."""


@dataclass
class RunConfig:
    subcommand: str
    materials: list            # material spec strings
    d: float | None = None
    T: float | None = None
    z: float | None = None
    method: str = "matsubara"
    rel_tol: float | None = None
    sweep: dict | None = None  # {param, from, to, points}
    probe: dict | None = None  # reflect: {axis, value, kperp}
    output: dict | None = None  # {path, format}

    def to_dict(self):
        return {k: v for k, v in dataclasses.asdict(self).items()
                if v is not None}

    @classmethod
    def from_dict(cls, data):
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigParse(str(exc)) from None


def parse_material(spec):
    """Parse the material mini-grammar into a MaterialModel.

    ``ideal``, ``insulator:<eps0>``, ``drude:<omega_p>,<gamma>``,
    ``plasma:<omega_p>``, ``gplasma:<omega_p>;<g>,<w>,<gam>;...``,
    ``table:<path>,<extrapolation>``.
    """
    try:
        if spec == "ideal":
            return materials.ideal_metal()
        kind, _, rest = spec.partition(":")
        if kind == "insulator":
            return materials.insulator(float(rest))
        if kind == "drude":
            wp, gamma = rest.split(",")
            return materials.drude(float(wp), float(gamma))
        if kind == "plasma":
            return materials.plasma(float(rest))
        if kind == "gplasma":
            parts = rest.split(";")
            oscs = []
            for p in parts[1:]:
                g, w, gam = p.split(",")
                oscs.append(materials.Oscillator(float(g), float(w), float(gam)))
            return materials.generalized_plasma(float(parts[0]), oscs)
        if kind == "table":
            path, _, tag = rest.rpartition(",")
            extrap = {e.value: e for e in materials.Extrapolation}
            extrap.update({e.name.lower(): e for e in materials.Extrapolation})
            if tag not in extrap:
                raise ConfigParse(f"unknown extrapolation tag {tag!r}")
            return materials.tabulated(materials.load_table(path), extrap[tag])
        raise ConfigParse(f"unknown material kind {kind!r}")
    except ConfigParse:
        raise
    except (ValueError, OSError, materials.MaterialError) as exc:
        raise ConfigParse(f"bad material spec {spec!r}: {exc}") from None


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output and output.get("path"):
        with open(output["path"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_comments(config):
    out = ["# casimir-bvl report"]
    for key, val in sorted(config.to_dict().items()):
        out.append(f"# {key} = {val}")
    return out


def _fmt(x):
    return FLOAT_FMT % x


def _pressure_payload(result):
    payload = {
        "pressure_pa": result.pressure,
        "error_estimate_pa": result.error_estimate,
        "n0_te_pa": result.n0_te,
        "n0_tm_pa": result.n0_tm,
        "n_max": result.n_max,
        "per_n": [{"n": n, "te_pa": te, "tm_pa": tm}
                  for n, te, tm in result.per_n],
    }
    if result.evanescent is not None:
        payload["evanescent_pa"] = result.evanescent
        payload["propagating_pa"] = result.propagating
    return payload


def _compute_pressure(config):
    m1 = parse_material(config.materials[0])
    m2 = parse_material(config.materials[1])
    cavity = lifshitz.CavityConfig(
        m1, m2, config.d, config.T,
        rel_tol=1e-9 if config.rel_tol is None else config.rel_tol)
    if config.method == "realfreq":
        return lifshitz.pressure_real_frequency(cavity)
    return lifshitz.pressure_matsubara(cavity)


def run_pressure(config):
    result = _compute_pressure(config)
    fmt = (config.output or {}).get("format", "json")
    if fmt == "json":
        doc = {"config": config.to_dict(), "result": _pressure_payload(result)}
        _emit([json.dumps(doc, indent=2, sort_keys=True)], config.output)
    else:
        lines = _config_comments(config)
        lines.append("n,te_pa,tm_pa")
        for n, te, tm in result.per_n:
            lines.append(f"{n},{_fmt(te)},{_fmt(tm)}")
        lines.append("# pressure_pa,error_estimate_pa,n0_te_pa,n0_tm_pa,n_max")
        lines.append(",".join([_fmt(result.pressure),
                               _fmt(result.error_estimate),
                               _fmt(result.n0_te), _fmt(result.n0_tm),
                               str(result.n_max)]))
        _emit(lines, config.output)
    return 0


def _sweep_values(sweep):
    lo, hi, points = sweep["from"], sweep["to"], sweep["points"]
    if not lo < hi or points < 2:
        raise ConfigParse("sweep needs from < to and points >= 2")
    return np.geomspace(lo, hi, points)


def _with_omega_p(spec, omega_p):
    model = parse_material(spec)
    if model.kind is materials.Kind.DRUDE:
        return f"drude:{omega_p!r},{model.gamma!r}"
    if model.kind is materials.Kind.PLASMA:
        return f"plasma:{omega_p!r}"
    raise ConfigParse("omega_p sweep needs drude or plasma materials")


def run_sweep(config):
    sweep = config.sweep or {}
    param = sweep.get("param")
    if param not in ("d", "T", "omega_p"):
        raise ConfigParse("sweep parameter must be one of d, T, omega_p")
    values = _sweep_values(sweep)

    def at(value):
        sub = dataclasses.replace(config, sweep=None)
        if param == "d":
            sub.d = float(value)
        elif param == "T":
            sub.T = float(value)
        else:
            sub.materials = [_with_omega_p(s, float(value))
                             for s in config.materials]
        return _compute_pressure(sub)

    rows = [(float(v), at(v)) for v in values]
    fmt = (config.output or {}).get("format", "csv")
    if fmt == "json":
        doc = {"config": config.to_dict(),
               "result": [{param: v, **_pressure_payload(r)} for v, r in rows]}
        for entry in doc["result"]:
            entry.pop("per_n")
        _emit([json.dumps(doc, indent=2, sort_keys=True)], config.output)
    else:
        lines = _config_comments(config)
        lines.append(f"{param},pressure_pa,error_estimate_pa,"
                     "n0_te_pa,n0_tm_pa,n_max")
        for v, r in rows:
            lines.append(",".join([_fmt(v), _fmt(r.pressure),
                                   _fmt(r.error_estimate), _fmt(r.n0_te),
                                   _fmt(r.n0_tm), str(r.n_max)]))
        _emit(lines, config.output)
    return 0


def run_bvl_check(config):
    if config.z is None:
        raise ConfigParse("bvl-check requires --z (probe distance)")
    model = parse_material(config.materials[0])
    report = bvl.bvl_verdict(model, config.d, config.T, config.z)
    exponent = report.e_limit_exponent
    doc = {
        "config": config.to_dict(),
        "model_class": report.model_class.value,
        "b_correlator_norm": report.b_correlator_norm,
        "e_limit_exponent": "inf" if math.isinf(exponent) else exponent,
        "cavity_classical_te_pa": report.cavity_classical_te,
        "reference_scale": report.reference_scale,
        "verdict": report.verdict.value,
    }
    _emit([json.dumps(doc, indent=2, sort_keys=True)], config.output)
    return 0


def _kperp_list(raw):
    if ":" in raw:
        lo, hi, points = raw.split(":")
        return list(np.geomspace(float(lo), float(hi), int(points)))
    return [float(tok) for tok in raw.split(",")]


def run_reflect(config):
    probe = config.probe or {}
    model = parse_material(config.materials[0])
    kperps = _kperp_list(probe["kperp"])
    axis = probe["axis"]

    def coefficients(k):
        if axis == "static":
            return fresnel.reflection_static(model, k)
        if axis == "xi":
            return fresnel.reflection(model, 1j * probe["value"], k)
        return fresnel.reflection(model, probe["value"], k)

    lines = _config_comments(config)
    lines.append("k_perp,re_r_te,im_r_te,re_r_tm,im_r_tm,re_r_bar,im_r_bar")
    for k in kperps:
        r = coefficients(k)
        lines.append(",".join(_fmt(v) for v in (
            k, r.r_te.real, r.r_te.imag, r.r_tm.real, r.r_tm.imag,
            r.r_bar.real, r.r_bar.imag)))
    _emit(lines, config.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="casimir-bvl",
        description="Casimir pressure between plane-parallel slabs and "
                    "Bohr-van Leeuwen consistency checks. Negative pressure "
                    "means attraction.")
    parser.add_argument("--config", help="JSON config file replacing flags")
    sub = parser.add_subparsers(dest="subcommand")

    def add_common(p, two_materials=True):
        if two_materials:
            p.add_argument("--mat1", required=True)
            p.add_argument("--mat2", required=True)
        else:
            p.add_argument("--mat", required=True)
        p.add_argument("--d", type=float, required=True, help="gap width, m")
        p.add_argument("--T", type=float, required=True, help="temperature, K")
        p.add_argument("--output", help="output file path (default stdout)")

    p = sub.add_parser("pressure", help="Casimir pressure for one geometry")
    add_common(p)
    p.add_argument("--method", choices=("matsubara", "realfreq"),
                   default="matsubara")
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("sweep", help="pressure along a parameter sweep")
    add_common(p)
    p.add_argument("--method", choices=("matsubara", "realfreq"),
                   default="matsubara")
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--sweep-param", choices=("d", "T", "omega_p"),
                   required=True)
    p.add_argument("--sweep-from", type=float, required=True)
    p.add_argument("--sweep-to", type=float, required=True)
    p.add_argument("--sweep-points", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("bvl-check", help="Bohr-van Leeuwen verdict for a model")
    add_common(p, two_materials=False)
    p.add_argument("--z", type=float, required=True,
                   help="probe distance from the slab, m")

    p = sub.add_parser("reflect", help="reflection-coefficient probe")
    p.add_argument("--mat", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--omega", type=float, help="real frequency, rad/s")
    group.add_argument("--xi", type=float, help="imaginary frequency, rad/s")
    group.add_argument("--static", action="store_true")
    p.add_argument("--kperp", required=True,
                   help="value, comma list, or lo:hi:points")
    p.add_argument("--output")
    return parser


def _config_from_args(args):
    sc = args.subcommand
    output = None
    if getattr(args, "output", None) or getattr(args, "format", None):
        output = {}
        if getattr(args, "output", None):
            output["path"] = args.output
        if getattr(args, "format", None):
            output["format"] = args.format
    if sc in ("pressure", "sweep"):
        cfg = RunConfig(
            subcommand=sc, materials=[args.mat1, args.mat2],
            d=args.d, T=args.T, method=args.method,
            rel_tol=args.rel_tol, output=output)
        if sc == "sweep":
            cfg.sweep = {"param": args.sweep_param, "from": args.sweep_from,
                         "to": args.sweep_to, "points": args.sweep_points}
        return cfg
    if sc == "bvl-check":
        return RunConfig(subcommand=sc, materials=[args.mat],
                         d=args.d, T=args.T, z=args.z, output=output)
    if sc == "reflect":
        if args.static:
            probe = {"axis": "static", "kperp": args.kperp}
        elif args.xi is not None:
            probe = {"axis": "xi", "value": args.xi, "kperp": args.kperp}
        else:
            probe = {"axis": "omega", "value": args.omega, "kperp": args.kperp}
        return RunConfig(subcommand=sc, materials=[args.mat],
                         probe=probe, output=output)
    raise ConfigParse("missing subcommand")


_DISPATCH = {
    "pressure": run_pressure,
    "sweep": run_sweep,
    "bvl-check": run_bvl_check,
    "reflect": run_reflect,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        if argv[:1] == ["--config"] and len(argv) >= 2:
            with open(argv[1]) as fh:
                config = RunConfig.from_dict(json.load(fh))
        else:
            args = parser.parse_args(argv)
            config = _config_from_args(args)
        if config.subcommand not in _DISPATCH:
            raise ConfigParse(f"unknown subcommand {config.subcommand!r}")
        return _DISPATCH[config.subcommand](config)
    except (ConfigParse, ValueError, OSError, json.JSONDecodeError,
            materials.MaterialError, fresnel.ZeroFrequency) as exc:
        print(f"casimir-bvl: config error: {exc}", file=sys.stderr)
        return 2
    except quadrature.QuadratureError as exc:
        print(f"casimir-bvl: numerical failure: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
