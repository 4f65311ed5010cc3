"""Command-line front end.

Subcommands: ``pressure``, ``sweep``, ``bvl-check``, ``reflect``.  A JSON
config file (``--config``) mirrors the flag set for scripted use.  Exit
codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bvl, fresnel, lifshitz, materials, quadrature

FLOAT_FMT = "%.17e"
SWEEP_PARAMS = ("d", "T", "omega_p")

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
        """The fields that are set; lists and dicts are the config's own."""
        return {f.name: v for f in dataclasses.fields(self)
                if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, data):
        """The config of a JSON document; ConfigParse unless every field
        its subcommand reads is present with the right JSON type."""
        try:
            config = cls(**data)
        except TypeError as exc:
            raise ConfigParse(str(exc)) from None
        _check_fields(config)
        return config


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v):
    return isinstance(v, str)


#: Every top-level field each subcommand reads from a config file.
_READS = {
    "pressure": ("subcommand", "materials", "d", "T", "method", "rel_tol",
                 "output"),
    "sweep": ("subcommand", "materials", "d", "T", "method", "rel_tol",
              "sweep", "output"),
    "bvl-check": ("subcommand", "materials", "d", "T", "z", "output"),
    "reflect": ("subcommand", "materials", "probe", "output")}


def _check_object(value, name, spec):
    """ConfigParse unless value is a dict whose keys are those of spec,
    each passing its type test."""
    if not isinstance(value, dict):
        raise ConfigParse(f"config field {name!r} must be an object, "
                          f"got {value!r}")
    unread = sorted(value.keys() - spec.keys())
    if unread:
        raise ConfigParse(f"config field {name}.{unread[0]} is not read by "
                          f"this subcommand")
    for key, ok in spec.items():
        if not ok(value.get(key)):
            raise ConfigParse(f"config field {name}.{key} is missing or "
                              f"mistyped: {value.get(key)!r}")


def _check_fields(config):
    """ConfigParse naming the first field the subcommand reads that is
    missing or has the wrong JSON type."""
    sc = config.subcommand
    if sc not in _READS:
        raise ConfigParse(f"unknown subcommand {sc!r}")
    reads = _READS[sc]
    for name, value in config.to_dict().items():
        # every output echoes the default method
        if name not in reads and (name, value) != ("method", "matsubara"):
            raise ConfigParse(f"{sc} does not read config field {name!r}")
    n = 2 if sc in ("pressure", "sweep") else 1
    if not (isinstance(config.materials, list)
            and len(config.materials) == n
            and all(map(_is_str, config.materials))):
        raise ConfigParse(f"{sc} needs 'materials' to be a list of {n} "
                          f"material spec strings, got {config.materials!r}")
    for name in ("d", "T", "z"):
        if name in reads and not _is_number(getattr(config, name)):
            raise ConfigParse(f"{sc} needs a number for {name!r}, "
                              f"got {getattr(config, name)!r}")
    if not (config.rel_tol is None or _is_number(config.rel_tol)):
        raise ConfigParse(f"rel_tol must be a number, got {config.rel_tol!r}")
    if config.method not in ("matsubara", "realfreq"):
        raise ConfigParse(f"unknown method {config.method!r}")
    if sc == "sweep":
        _check_object(config.sweep, "sweep",
                      {"param": lambda v: v in SWEEP_PARAMS,
                       "from": _is_number,
                       "to": _is_number, "points": _is_int})
    if sc == "reflect":
        probe = config.probe
        static = isinstance(probe, dict) and probe.get("axis") == "static"
        _check_object(probe, "probe", {
            "axis": lambda v: v in ("xi", "omega", "static"),
            "kperp": _is_str, **({} if static else {"value": _is_number})})
    if config.output is not None:
        output = {"path": lambda v: v is None or _is_str(v)}
        if sc in ("pressure", "sweep"):
            output["format"] = lambda v: v in (None, "csv", "json")
        _check_object(config.output, "output", output)


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


_ESCAPE = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x):
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


#: JSON text of a scalar, by exact type.
_JSON_SCALARS = {str: _ESCAPE, float: _json_float, np.float64: _json_float,
                 int: int.__repr__, bool: lambda b: "true" if b else "false",
                 type(None): lambda _: "null"}


def _json(value):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, bool, None and floats.

    json falls back to its pure-Python encoder whenever ``indent`` is set;
    this writer does the same work in one recursive pass.
    """
    parts = []
    _json_parts(value, "\n", parts)
    return "".join(parts)


def _json_parts(value, pad, parts):
    """Append the JSON text of value to the list parts; pad is the newline
    and indentation that precede its closing bracket."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        parts.append(scalar(value))
        return
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(f"{sep}{_ESCAPE(key)}: ")
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(pad + "]")
    else:
        for kind in (str, int, float):  # subclasses; bool has its own entry
            if isinstance(value, kind):
                parts.append(_JSON_SCALARS[kind](value))
                return
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output and output.get("path"):
        with open(output["path"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: Compact JSON text of one config value.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":")).encode


def _config_comments(config):
    """The config of a CSV report as "# key = value" lines, each value in
    compact JSON, so the lines give back a ``--config`` document."""
    out = ["# casimir-bvl report"]
    for key, val in sorted(config.to_dict().items()):
        out.append(f"# {key} = {_COMPACT_JSON(val)}")
    return out


def _fmt(x):
    return FLOAT_FMT % x


def _failure_text(exc):
    return f"{type(exc).__name__}: {exc}"


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


def _compute_pressure(config, m1, m2):
    cavity = lifshitz.CavityConfig(
        m1, m2, config.d, config.T,
        rel_tol=1e-9 if config.rel_tol is None else config.rel_tol)
    if config.method == "realfreq":
        return lifshitz.pressure_real_frequency(cavity)
    return lifshitz.pressure_matsubara(cavity)


def run_pressure(config):
    result = _compute_pressure(config, *map(parse_material, config.materials))
    fmt = (config.output or {}).get("format", "json")
    if fmt == "json":
        doc = {"config": config.to_dict(), "result": _pressure_payload(result)}
        _emit([_json(doc)], config.output)
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


def _geometric_ends(lo, hi, what):
    """ConfigParse unless both ends of a geometric list are finite and > 0."""
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ConfigParse(f"{what} needs finite positive ends, "
                          f"got {lo!r} and {hi!r}")


def _sweep_values(sweep):
    lo, hi, points = sweep["from"], sweep["to"], sweep["points"]
    _geometric_ends(lo, hi, "sweep")
    if not lo < hi or points < 2:
        raise ConfigParse("sweep needs from < to and points >= 2")
    return np.geomspace(lo, hi, points)


def run_sweep(config):
    sweep = config.sweep
    param = sweep["param"]
    values = _sweep_values(sweep)
    models = [parse_material(s) for s in config.materials]
    if param == "omega_p" and not all(
            m.kind in (materials.Kind.DRUDE, materials.Kind.PLASMA)
            for m in models):
        raise ConfigParse("omega_p sweep needs drude or plasma materials")

    def at(value):
        if param == "omega_p":
            return _compute_pressure(config, *(
                dataclasses.replace(m, omega_p=value) for m in models))
        return _compute_pressure(
            dataclasses.replace(config, **{param: value}), *models)

    rows = []
    for v in map(float, values):
        try:
            rows.append((v, at(v)))
        except quadrature.QuadratureError as exc:
            rows.append((v, exc))
    failures = [r for _, r in rows if isinstance(r, Exception)]
    fmt = (config.output or {}).get("format", "csv")
    if fmt == "json":
        result = []
        for v, r in rows:
            if isinstance(r, Exception):
                result.append({param: v, "error": _failure_text(r)})
            else:
                result.append({param: v, **_pressure_payload(r)})
                result[-1].pop("per_n")
        doc = {"config": config.to_dict(), "result": result}
        _emit([_json(doc)], config.output)
    else:
        lines = _config_comments(config)
        lines.append(f"{param},pressure_pa,error_estimate_pa,"
                     "n0_te_pa,n0_tm_pa,n_max")
        for v, r in rows:
            if isinstance(r, Exception):
                lines.append(f"# {param}={_fmt(v)}: {_failure_text(r)}")
            else:
                lines.append(",".join([_fmt(v), _fmt(r.pressure),
                                       _fmt(r.error_estimate), _fmt(r.n0_te),
                                       _fmt(r.n0_tm), str(r.n_max)]))
        _emit(lines, config.output)
    if failures:
        raise failures[0]
    return 0


def run_bvl_check(config):
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
    _emit([_json(doc)], config.output)
    return 0


def _kperp_list(raw):
    """The --kperp values as an ndarray: a comma list or lo:hi:points."""
    if ":" in raw:
        lo, hi, points = raw.split(":")
        lo, hi, points = float(lo), float(hi), int(points)
        if points < 1:
            raise ConfigParse(
                f"--kperp {raw!r}: lo:hi:points needs points >= 1")
        _geometric_ends(lo, hi, f"--kperp {raw!r}: lo:hi:points")
        return np.geomspace(lo, hi, points)
    return np.array([float(tok) for tok in raw.split(",")])


def run_reflect(config):
    probe = config.probe
    model = parse_material(config.materials[0])
    kperps = _kperp_list(probe["kperp"])
    axis = probe["axis"]
    if axis == "static":
        r = fresnel.reflection_static(model, kperps)
    else:
        omega = 1j * probe["value"] if axis == "xi" else probe["value"]
        r = fresnel.reflection(model, omega, kperps)
    lines = _config_comments(config)
    lines.append("k_perp,re_r_te,im_r_te,re_r_tm,im_r_tm,re_r_bar,im_r_bar")
    lines += _table_rows((kperps, r.r_te.real, r.r_te.imag, r.r_tm.real,
                          r.r_tm.imag, r.r_bar.real, r.r_bar.imag))
    _emit(lines, config.output)
    return 0


def _table_rows(columns):
    """Rows of equal-length float64 columns, FLOAT_FMT fields joined by ",".

    A column whose entries are all the same bits (so -0.0 and 0.0 differ)
    is formatted once and written into the row template.
    """
    n = len(columns[0])
    fields, varying = [], []
    for col in columns:
        bits = col.view(np.int64)
        if (bits == bits[0]).all():
            fields.append(FLOAT_FMT % col[0].item())
        else:
            fields.append(FLOAT_FMT)
            varying.append(col.tolist())
    template = ",".join(fields)
    if not varying:
        return [template] * n
    return [template % row for row in zip(*varying)]


def build_parser():
    """The argument parser, built once per process; parsing leaves it as is."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """(the top-level parser, subcommand -> its parser), built once."""
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
    p.add_argument("--sweep-param", choices=SWEEP_PARAMS,
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
    return parser, sub.choices


def _parse_args(argv):
    """The namespace of argv; argparse prints usage and exits on an error.

    A subcommand's own parser parses its arguments once; the top-level
    parser handles help, a missing or unknown subcommand and the arguments
    that the subcommand's parser leaves, in the words it would use when it
    hands the arguments on itself.
    """
    parser, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.subcommand = argv[0]
    return args


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
    try:
        if argv[:1] == ["--config"] and len(argv) >= 2:
            with open(argv[1]) as fh:
                config = RunConfig.from_dict(json.load(fh))
        else:
            try:
                args = _parse_args(argv)
            except SystemExit as exc:   # argparse's help or usage error
                return exc.code
            config = _config_from_args(args)
        return _DISPATCH[config.subcommand](config)
    except (ConfigParse, ValueError, OSError, json.JSONDecodeError,
            materials.MaterialError, fresnel.ZeroFrequency,
            bvl.SurfaceContact) as exc:
        print(f"casimir-bvl: config error: {exc}", file=sys.stderr)
        return 2
    except quadrature.QuadratureError as exc:
        print(f"casimir-bvl: numerical failure: {_failure_text(exc)}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
