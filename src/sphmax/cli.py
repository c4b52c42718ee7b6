"""Batch front end wiring the library into reproducible experiments.

Configuration lives in one plain-text file (INI style: ``key = value``
under section headers). Each subcommand reads its own section plus the
shared ``[set]``, ``[quadrature]`` and ``[output]`` sections; unknown
sections or keys reject the whole file. All artifacts are CSV. Every
run writes a manifest with a content hash per artifact, so re-running
a config byte-reproduces everything except the manifest timestamp.

Exit codes: 0 success, 2 configuration error, 3 domain error,
4 precision (quadrature budget) error, 1 failed verification suite.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import hashlib
import math
import random
import sys

import numpy as np
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import ConfigError, DomainError, PrecisionError
from .fractal_set import (
    FractalSet,
    binary_covering_number,
    covering_number,
    estimate_dimensions,
    finite_points,
    from_intervals,
    middle_cantor,
    neighborhood_measure,
    parse_set,
    union_of,
)
from .norm_probe import run_probe
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .radial_operator import (
    indicator,
    parse_profile,
    power_profile,
    sphere_average_mc,
    spherical_mean,
)
from .type_set_geometry import (
    CharacteristicFlags,
    membership,
    radial_type_set,
    region,
    supporting_line_value,
    vertex,
)

_TRISTATE = {"yes": True, "true": True, "1": True,
             "no": False, "false": False, "0": False,
             "unknown": None, "none": None}


def _text(text: str, field: str) -> str:
    return text.strip()


def _rational(text: str, field: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"field {field!r}: not a rational: {text!r}") from exc


def _rational_list(text: str, field: str) -> list[Fraction]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"field {field!r}: empty list")
    return [_rational(p, field) for p in parts]


def _rational_tuple(text: str, field: str) -> tuple[Fraction, ...]:
    return tuple(_rational_list(text, field))


def _window(text: str, field: str) -> tuple[Fraction, Fraction]:
    ends = _rational_list(text, field)
    if len(ends) != 2:
        raise ConfigError(f"field {field!r}: expected two endpoints")
    return ends[0], ends[1]


def _scale_list(text: str, field: str) -> list[Fraction]:
    """Either ``base^-lo..base^-hi`` (geometric ladder) or a comma list."""
    if ".." in text:
        head, _, tail = text.partition("..")
        try:
            base_txt, lo_txt = head.split("^-")
            base2_txt, hi_txt = tail.split("^-")
            base = _rational(base_txt, field)
            lo, hi = int(lo_txt), int(hi_txt)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(
                f"field {field!r}: expected base^-lo..base^-hi, got {text!r}"
            ) from exc
        if base <= 1 or base_txt.strip() != base2_txt.strip() or lo > hi:
            raise ConfigError(f"field {field!r}: bad ladder {text!r}")
        return [base ** -k for k in range(lo, hi + 1)]
    scales = _rational_list(text, field)
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ConfigError(f"field {field!r}: scales must strictly decrease")
    return scales


def _exponent(text: str, field: str) -> Fraction | float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return _rational(text, field)


def _pq_list(text: str, field: str) -> list[tuple]:
    pairs = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        p_txt, sep, q_txt = chunk.partition(":")
        if not sep:
            raise ConfigError(f"field {field!r}: expected p:q, got {chunk!r}")
        pairs.append((_exponent(p_txt, field), _exponent(q_txt, field)))
    if not pairs:
        raise ConfigError(f"field {field!r}: empty exponent list")
    return pairs


def _positive_int(text: str, field: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise ConfigError(f"field {field!r}: not an integer: {text!r}") from exc
    if n < 1:
        raise ConfigError(f"field {field!r}: must be >= 1, got {n}")
    return n


def _positive_float(text: str, field: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise ConfigError(f"field {field!r}: not a number: {text!r}") from exc
    if not v > 0:
        raise ConfigError(f"field {field!r}: must be positive, got {v}")
    return v


def _tristate(text: str, field: str) -> bool | None:
    try:
        return _TRISTATE[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"field {field!r}: expected yes/no/unknown") from None


# Every config field: its section, its key and the parser of its value, in
# the order fields are parsed. The [quadrature] keys are QuadratureSpec
# fields.
_FIELDS = {
    "set": {"expression": _text},
    "dims": {"scales": _scale_list, "thetas": _rational_tuple},
    "region": {"d": _positive_int, "beta": _rational, "gamma": _rational,
               "gamma_star": _rational, "minkowski_bounded": _tristate,
               "assouad_bounded": _tristate, "regular": _tristate},
    "probe": {"family": _text, "d": _positive_int, "pq": _pq_list,
              "scales": _scale_list, "t0": _rational, "u": _rational,
              "beta": _rational, "gamma": _rational,
              "gamma_star": _rational, "window": _window},
    "quadrature": {"rel_tol": _positive_float, "abs_tol": _positive_float,
                   "max_refinement": _positive_int},
    "output": {"dir": _text},
}
_REQUIRED = {"dims": ("scales",), "region": ("d", "beta"),
             "probe": ("family", "d", "pq", "scales")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully parsed configuration; construction validates every field.
    sections maps each section present in the file to its parsed fields."""

    path: Path | None
    sha256: str
    sections: dict[str, dict]
    quad: QuadratureSpec
    out_dir: Path

    def section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigError(f"missing [{name}] section")
        return self.sections[name]

    def dilation_set(self) -> FractalSet:
        expr = self.sections.get("set", {}).get("expression")
        if expr is None:
            raise ConfigError("missing [set] section with an expression")
        return parse_set(expr)


def load_config(path: str | None, out_flag: str | None,
                tol_flag: float | None) -> ExperimentConfig:
    raw = b""
    parser = configparser.ConfigParser(interpolation=None)
    cfg_path = None
    if path is not None:
        cfg_path = Path(path)
        try:
            raw = cfg_path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            parser.read_string(raw.decode("utf-8"), source=str(path))
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _FIELDS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _FIELDS[section]:
                raise ConfigError(f"unknown field {key!r} in [{section}]")

    sections = {}
    for section, fields in _FIELDS.items():
        if not parser.has_section(section):
            continue
        sec = parser[section]
        for key in _REQUIRED.get(section, ()):
            if key not in sec:
                raise ConfigError(f"field {key!r} missing in [{section}]")
        sections[section] = {key: parse(sec[key], f"{section}.{key}")
                             for key, parse in fields.items() if key in sec}

    quad = replace(DEFAULT_QUAD, **sections.get("quadrature", {}))
    if tol_flag is not None:
        if not tol_flag > 0:
            raise ConfigError(f"--tol must be positive, got {tol_flag}")
        quad = replace(quad, rel_tol=tol_flag)

    out_txt = (out_flag or sections.get("output", {}).get("dir")
               or "sphmax-out")
    digest = hashlib.sha256(raw).hexdigest() if raw else "-"
    return ExperimentConfig(cfg_path, digest, sections, quad, Path(out_txt))


# ---------------------------------------------------------------------------
# artifact plumbing


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "unknown"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_manifest(out: Path, command: str, config: ExperimentConfig,
                    artifacts: list[Path]) -> Path:
    rows = [("command", command), ("version", __version__),
            ("config_sha256", config.sha256),
            ("generated_at", datetime.datetime.now(
                datetime.timezone.utc).isoformat())]
    for art in sorted(artifacts):
        digest = hashlib.sha256(art.read_bytes()).hexdigest()
        rows.append((art.name, digest))
    path = out / "manifest.csv"
    _write_csv(path, ("key", "value"), rows)
    return path


def _out_dir(config: ExperimentConfig) -> Path:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config.out_dir


# ---------------------------------------------------------------------------
# subcommands


def cmd_mean(args) -> int:
    quad = load_config(args.config, None, args.tol).quad
    profile = parse_profile(args.profile)
    r = _rational(args.r, "r")
    t = _rational(args.t, "t")
    value = spherical_mean(args.d, profile, r, t, quad)
    print(f"{value:.6f}")
    return 0


def cmd_dims(args) -> int:
    config = load_config(args.config, args.out, None)
    E = config.dilation_set()
    dims = config.section("dims")
    kwargs = {"thetas": dims["thetas"]} if "thetas" in dims else {}
    report = estimate_dimensions(E, dims["scales"], **kwargs)

    out = _out_dir(config)
    counts = out / "dims_counts.csv"
    _write_csv(counts, ("delta", "covering_number"), report.covering_table)

    chars = out / "dims_characteristics.csv"
    assouad_at = dict(report.char_assouad)
    _write_csv(chars, ("delta", "minkowski_char", "assouad_char"),
               [(d, v, assouad_at.get(d)) for d, v in report.char_minkowski])

    def trend(table):
        if len(table) < 2 or table[0][1] == 0:
            return math.nan
        return table[-1][1] / table[0][1]

    summary_rows = [
        ("generator", E.generator or "?"),
        ("beta_estimate", report.minkowski_estimate),
        ("beta_residual", report.minkowski_residual),
        ("gamma_estimate", report.quasi_assouad_estimate),
        ("gamma_star_estimate", report.assouad_estimate),
        ("minkowski_char_trend", trend(report.char_minkowski)),
        ("assouad_char_trend", trend(report.char_assouad)),
    ]
    summary_rows += [(f"spectrum@{_fmt(theta)}", value)
                     for theta, value in report.spectrum]
    summary = out / "dims_summary.csv"
    _write_csv(summary, ("field", "value"), summary_rows)

    _write_manifest(out, "dims", config, [counts, chars, summary])
    print(f"beta_estimate={report.minkowski_estimate:.4f} "
          f"gamma_estimate={report.quasi_assouad_estimate:.4f} "
          f"gamma_star_estimate={report.assouad_estimate:.4f}")
    return 0


# tri-state [region] keys and the CharacteristicFlags fields they set
_REGION_FLAGS = (("minkowski_bounded", "minkowski_char_bounded"),
                 ("assouad_bounded", "assouad_char_bounded"),
                 ("regular", "quasi_assouad_regular"))


def cmd_region(args) -> int:
    config = load_config(args.config, args.out, None)
    rp = config.section("region")
    kwargs = {key: rp[key] for key in ("gamma", "gamma_star") if key in rp}
    flags = {attr: rp[key] for key, attr in _REGION_FLAGS if key in rp}
    if flags:
        kwargs["flags"] = CharacteristicFlags(**flags)
    reg = radial_type_set(rp["d"], rp["beta"], **kwargs)

    out = _out_dir(config)
    verts = out / "region_vertices.csv"
    _write_csv(verts, ("index", "x", "y", "status"),
               [(i, v.x, v.y, status)
                for i, (v, status) in enumerate(
                    zip(reg.vertices, reg.vertex_status))])

    edges = out / "region_edges.csv"
    n = len(reg.vertices)
    _write_csv(edges, ("index", "from_x", "from_y", "to_x", "to_y", "status"),
               [(i, reg.vertices[i].x, reg.vertices[i].y,
                 reg.vertices[(i + 1) % n].x, reg.vertices[(i + 1) % n].y,
                 status)
                for i, status in enumerate(reg.edge_status)])

    summary = out / "region_summary.csv"
    _write_csv(summary, ("field", "value"), [
        ("d", rp["d"]),
        ("beta", rp["beta"]),
        ("gamma", rp.get("gamma")),
        ("gamma_star", rp.get("gamma_star")),
        ("provenance", reg.provenance),
        ("exterior_status", reg.exterior_status),
        ("vertex_count", len(reg.vertices)),
    ])

    _write_manifest(out, "region", config, [verts, edges, summary])
    print(f"{len(reg.vertices)} vertices, provenance {reg.provenance}")
    return 0


def cmd_probe(args) -> int:
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    config = load_config(args.config, args.out, args.tol)
    pp = config.section("probe")
    E = config.dilation_set()
    extra = {k: pp[k] for k in ("t0", "u", "window", "beta", "gamma",
                                "gamma_star") if k in pp}
    results = [run_probe(pp["family"], E, pp["d"], p, q, pp["scales"],
                         config.quad, **extra)
               for p, q in pp["pq"]]

    out = _out_dir(config)
    rows_path = out / "probe_rows.csv"
    row_data = []
    for (p, q), res in zip(pp["pq"], results):
        for row in res.rows:
            row_data.append((_fmt(p), _fmt(q), row.scale, row.input_norm,
                             row.output_functional, row.ratio))
    _write_csv(rows_path, ("p", "q", "scale", "input_norm",
                           "output_functional", "ratio"), row_data)

    summary_path = out / "probe_summary.csv"
    _write_csv(summary_path,
               ("p", "q", "fitted_exponent", "residual", "predicted_gap",
                "verdict", "partial"),
               [(_fmt(p), _fmt(q), res.fitted_exponent, res.residual,
                 res.predicted_gap, res.verdict, res.partial)
                for (p, q), res in zip(pp["pq"], results)])

    _write_manifest(out, "probe", config, [rows_path, summary_path])
    for (p, q), res in zip(pp["pq"], results):
        print(f"p={_fmt(p)} q={_fmt(q)} fitted={res.fitted_exponent:+.4f} "
              f"predicted={res.predicted_gap:+.4f} verdict={res.verdict}")
    return 0


# ---------------------------------------------------------------------------
# verification suite


def _random_set(rng: random.Random) -> FractalSet:
    kind = rng.randrange(3)
    if kind == 0:
        alpha = Fraction(rng.randrange(1, 4), 4)
        return middle_cantor(alpha, rng.randrange(2, 7))
    if kind == 1:
        pts = sorted({Fraction(rng.randrange(64, 129), 64)
                      for _ in range(rng.randrange(1, 6))})
        return finite_points(pts)
    cells = []
    for _ in range(rng.randrange(1, 4)):
        a = Fraction(rng.randrange(64, 120), 64)
        cells.append((a, a + Fraction(rng.randrange(1, 8), 64)))
    return union_of(from_intervals(cells), finite_points([Fraction(2)]))


def _check_normalization(rng, quad):
    grid = [2.0 ** (k / 2.0) for k in range(-6, 7)]
    one = parse_profile("one")
    for d in (2, 3, 4, 5):
        for _ in range(6):
            r, t = rng.choice(grid), rng.choice(grid)
            yield abs(spherical_mean(d, one, r, t, quad) - 1.0) <= 1e-6


def _check_closed_form(rng, quad):
    val = spherical_mean(3, parse_profile("pow(1,1,0,0,8)"), 1, 1, quad)
    yield abs(val - 4.0 / 3.0) <= 1e-6


def _check_monte_carlo(rng, quad):
    gen_seed = rng.randrange(2 ** 31)
    profiles = [indicator(Fraction(1, 2), 3), power_profile(1, 2, 0, 0, 6)]
    for d in (2, 3):
        for i, prof in enumerate(profiles):
            r = 0.5 + rng.random() * 2.0
            t = 0.5 + rng.random() * 2.0
            exact = spherical_mean(d, prof, r, t, quad)
            mc = sphere_average_mc(d, prof, r, t, samples=200_000,
                                   rng=np.random.default_rng(gen_seed + i))
            yield abs(mc.value - exact) <= 4.0 * max(mc.stderr, 1e-9)


def _check_covering_sandwich(rng, quad):
    for _ in range(10):
        E = _random_set(rng)
        for n in range(0, 9):
            N = covering_number(E, Fraction(2) ** -n)
            Nt = binary_covering_number(E, -n)
            w = neighborhood_measure(E, n)
            yield (N <= Nt <= 3 * N
                   and Fraction(2) ** (-n - 2) * N <= w
                   <= Fraction(2) ** (-n + 3) * N)


def _check_region_degeneracy(rng, quad):
    for _ in range(10):
        beta = Fraction(rng.randrange(1, 64), 64)
        crit = region("Q", 2, beta=beta, gamma=(beta + 1) / 2)
        tri = region("Delta", 2, beta=beta)
        yield crit.vertices == tri.vertices


def _check_supporting_line(rng, quad):
    for _ in range(8):
        beta = Fraction(rng.randrange(0, 32), 32)
        gamma = max((beta + 1) / 2, Fraction(rng.randrange(16, 33), 32))
        q2 = vertex("Q2", 2, beta=2 * gamma - 1)
        yield supporting_line_value(q2.x, q2.y, beta, gamma) == 0
        if beta + 1 <= 2 * gamma and beta <= gamma:
            q3 = vertex("Q3", 2, beta=beta, gamma=gamma)
            yield supporting_line_value(q3.x, q3.y, beta, gamma) == 0


def _check_membership(rng, quad):
    reg = radial_type_set(3, 1)
    wanted = {
        (2, 2): "boundary-included",
        (Fraction(3, 2), Fraction(3, 2)): "boundary-excluded",
        (2, 4): "interior",
        (4, 2): "outside",
    }
    for (p, q), status in wanted.items():
        yield membership(reg, p, q) == status


_CHECKS = (
    ("kernel-normalization", _check_normalization),
    ("closed-form-mean", _check_closed_form),
    ("monte-carlo-agreement", _check_monte_carlo),
    ("covering-sandwich", _check_covering_sandwich),
    ("region-degeneracy", _check_region_degeneracy),
    ("supporting-line-zeros", _check_supporting_line),
    ("membership-references", _check_membership),
)


def cmd_verify(args) -> int:
    config = load_config(args.config, args.out, args.tol)
    rng = random.Random(args.seed)
    results = []
    for name, fn in _CHECKS:
        passed = list(fn(rng, config.quad))
        results.append((name, len(passed), passed.count(False)))

    width = max(len(name) for name, _, _ in results)
    print(f"{'check':<{width}}  cases  failed")
    total_cases = total_failures = 0
    for name, cases, failures in results:
        print(f"{name:<{width}}  {cases:>5}  {failures:>6}")
        total_cases += cases
        total_failures += failures
    print(f"{'total':<{width}}  {total_cases:>5}  {total_failures:>6}")

    if args.out is not None:
        out = _out_dir(config)
        path = out / "verify_report.csv"
        _write_csv(path, ("check", "cases", "failed"), results)
        _write_manifest(out, "verify", config, [path])
    return 0 if total_failures == 0 else 1


def cmd_report(args) -> int:
    config = load_config(args.config, args.out, None)
    root = config.out_dir
    if not root.exists():
        raise ConfigError(f"output directory {root} does not exist")
    manifests = sorted(root.rglob("manifest.csv"))
    if not manifests:
        raise ConfigError(f"no manifests found under {root}")
    rows = []
    for manifest in manifests:
        source = str(manifest.parent.relative_to(root)) or "."
        with open(manifest, newline="") as fh:
            for record in list(csv.reader(fh))[1:]:
                if len(record) == 2:
                    rows.append((source, record[0], record[1]))
    path = root / "report.csv"
    _write_csv(path, ("source", "key", "value"), rows)
    print(f"{len(manifests)} manifests -> {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_FLAGS = {
    "config": dict(metavar="PATH", help="experiment config file"),
    "out": dict(metavar="DIR",
                help="output directory (overrides [output] dir)"),
    "tol": dict(type=float, metavar="REL",
                help="relative quadrature tolerance override"),
    "threads": dict(type=int, default=1, metavar="N",
                    help="accepted for compatibility and changes nothing: "
                         "exponent pairs run in order"),
    "seed": dict(type=int, default=0, metavar="N",
                 help="seed for the randomized verification oracle"),
}

# subcommand, handler, help, and the flags it reads
_COMMANDS = (
    ("dims", cmd_dims, "covering counts and dimensions", ("config", "out")),
    ("region", cmd_region, "exact type-set polygon", ("config", "out")),
    ("probe", cmd_probe, "scaling-law probe sweep",
     ("config", "out", "tol", "threads")),
    ("verify", cmd_verify, "randomized property suite",
     ("config", "out", "tol", "seed")),
    ("report", cmd_report, "concatenate run manifests", ("config", "out")),
    ("mean", cmd_mean, "one spherical mean to stdout", ("config", "tol")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphmax",
        description="Spherical maximal means over fractal dilation sets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name == "mean":
            p.add_argument("d", type=int)
            for positional in ("profile", "r", "t"):
                p.add_argument(positional)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
