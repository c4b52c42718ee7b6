"""Spherical means of radial profiles and maximal operators over dilation sets.

For radial data the spherical mean in R^d collapses to a one-dimensional
integral of the profile against a distance-distribution kernel supported on
[|r - t|, r + t]. Everything here is built on that reduction; spheres are
never sampled except by the Monte Carlo cross-check.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DivergentNormError, DomainError,
                     InsufficientDataError, ParameterError, SingularityError)
from .fractal_set import FractalSet, as_rational, resolution, separated_points
from .quadrature import (DEFAULT_QUAD, QuadratureSpec, _integrate_rows,
                         integrate)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# radial profiles


@dataclass(frozen=True)
class ProfilePiece:
    """One term c * s**a_pow * log(1/s)**b_pow on the interval [lo, hi]."""

    lo: Fraction
    hi: Fraction
    coeff: float
    a_pow: float = 0.0
    b_pow: float = 0.0


def _piece_values(pc: ProfilePiece, s):
    v = np.full_like(s, pc.coeff)
    if pc.a_pow != 0.0:
        v = v * s ** pc.a_pow
    if pc.b_pow != 0.0:
        v = v * np.log(1.0 / s) ** pc.b_pow
    return v


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise power-log radial function with rational piece endpoints.

    Piece interiors must be pairwise disjoint. Pieces carrying a logarithm
    must stay inside [0, 1] so log(1/s) keeps a sign, strictly below 1 when
    the log power is negative. dim is informational only; norms take the
    dimension explicitly.
    """

    pieces: tuple[ProfilePiece, ...]
    dim: int | None = None
    # float piece endpoints, and every breakpoint of the profile as a sorted
    # tuple (1.0 included: log pieces kink there); derived once, so neither
    # takes part in equality or repr
    _bounds: tuple[tuple[float, float], ...] = field(
        init=False, repr=False, compare=False)
    _breaks: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pcs = sorted(self.pieces, key=lambda pc: (pc.lo, pc.hi))
        for pc in pcs:
            if not isinstance(pc.lo, Fraction) or not isinstance(pc.hi, Fraction):
                raise ParameterError("piece endpoints must be rational")
            if pc.lo < 0 or pc.hi <= pc.lo:
                raise ParameterError(f"bad piece interval [{pc.lo}, {pc.hi}]")
            if not math.isfinite(pc.coeff):
                raise ParameterError("piece coefficient must be finite")
            if pc.b_pow != 0.0:
                if pc.hi > 1:
                    raise ParameterError(
                        "logarithmic pieces must not extend past s = 1")
                if pc.b_pow < 0.0 and pc.hi == 1:
                    raise ParameterError(
                        "negative log powers blow up at s = 1; end the piece below it")
        for prev, nxt in zip(pcs, pcs[1:]):
            if nxt.lo < prev.hi:
                raise ParameterError(
                    f"pieces [{prev.lo}, {prev.hi}] and [{nxt.lo}, {nxt.hi}] overlap")
        if self.dim is not None and (not isinstance(self.dim, int) or self.dim < 2):
            raise ParameterError("dim must be an integer >= 2 when given")
        object.__setattr__(self, "pieces", tuple(pcs))
        bounds = tuple((float(pc.lo), float(pc.hi)) for pc in pcs)
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_breaks",
                           tuple(sorted({1.0, *(e for b in bounds for e in b)})))

    def values(self, s):
        """Vectorized evaluation; zero outside every piece."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for (lo, hi), pc in zip(self._bounds, self.pieces):
            m = (s >= lo) & (s <= hi)
            if m.any():
                out[m] += _piece_values(pc, s[m])
        return out

    def __call__(self, s) -> float:
        return float(self.values(np.array([s], dtype=float))[0])

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if not isinstance(other, RadialProfile):
            return NotImplemented
        dim = self.dim if self.dim == other.dim else None
        return RadialProfile(self.pieces + other.pieces, dim)

    @property
    def support(self) -> tuple[Fraction, Fraction] | None:
        if not self.pieces:
            return None
        return self.pieces[0].lo, max(pc.hi for pc in self.pieces)


def indicator(lo, hi) -> RadialProfile:
    """Characteristic function of the radial shell lo <= s <= hi."""
    return RadialProfile((ProfilePiece(
        as_rational(lo, what="interval endpoint"),
        as_rational(hi, what="interval endpoint"), 1.0),))


def power_profile(coeff, a_pow, b_pow, lo, hi) -> RadialProfile:
    """Single piece coeff * s**a_pow * log(1/s)**b_pow on [lo, hi]."""
    return RadialProfile((ProfilePiece(
        as_rational(lo, what="interval endpoint"),
        as_rational(hi, what="interval endpoint"),
        float(coeff), float(a_pow), float(b_pow)),))


_TERM_RE = re.compile(r"\s*(chi|pow)\s*\(([^()]*)\)\s*$")
_WIDE_SUPPORT = Fraction(2) ** 40


def _real_arg(tok: str) -> float:
    try:
        return float(Fraction(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot read number {tok!r}") from exc


def parse_profile(expr: str) -> RadialProfile:
    """Build a profile from terms chi(a,b) and pow(c,a_pow,b_pow,a,b)
    joined by '+'; the bare term 'one' is the constant 1 on a support wide
    enough for any integral this package performs."""
    if not isinstance(expr, str) or not expr.strip():
        raise ConfigError("empty profile expression")
    pieces = []
    for term in expr.split("+"):
        if term.strip() == "one":
            pieces.append(ProfilePiece(Fraction(0), _WIDE_SUPPORT, 1.0))
            continue
        m = _TERM_RE.match(term)
        if m is None:
            raise ConfigError(f"unrecognized profile term {term.strip()!r}")
        args = [a.strip() for a in m.group(2).split(",")]
        if m.group(1) == "chi":
            if len(args) != 2:
                raise ConfigError("chi takes two arguments (a, b)")
            pieces.append(ProfilePiece(
                as_rational(args[0], ConfigError, "interval endpoint"),
                as_rational(args[1], ConfigError, "interval endpoint"), 1.0))
        else:
            if len(args) != 5:
                raise ConfigError("pow takes five arguments (c, a_pow, b_pow, a, b)")
            pieces.append(ProfilePiece(
                as_rational(args[3], ConfigError, "interval endpoint"),
                as_rational(args[4], ConfigError, "interval endpoint"),
                _real_arg(args[0]), _real_arg(args[1]), _real_arg(args[2])))
    return RadialProfile(tuple(pieces))


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def profile_expression(f: RadialProfile) -> str:
    """Expression that parse_profile maps back to an equal profile."""
    terms = []
    for pc in f.pieces:
        if pc.coeff == 1.0 and pc.a_pow == 0.0 and pc.b_pow == 0.0:
            terms.append(f"chi({pc.lo},{pc.hi})")
        else:
            terms.append("pow({},{},{},{},{})".format(
                _fmt_real(pc.coeff), _fmt_real(pc.a_pow), _fmt_real(pc.b_pow),
                pc.lo, pc.hi))
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# kernel and spherical mean


def _check_dim(d) -> None:
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ParameterError(f"dimension must be an integer >= 2, got {d!r}")


def _kernel_factor(d: int, r: float, t: float, s, dlo, dhi):
    # dlo = s - |r-t| and dhi = r + t - s arrive exactly from the integrator,
    # so the near-endpoint factors never suffer cancellation.
    a = abs(r - t)
    b = r + t
    four = 4.0 * r * t
    if d == 3:
        return s / four
    root = np.sqrt(dlo * (s + a)) * np.sqrt(dhi * (b + s))
    if d == 2:
        return s / root
    return (root / four) ** (d - 3) * (s / four)


def kernel(d: int, t, r, s) -> float:
    """Distance-distribution kernel K_t(r, s) of the sphere of radius t seen
    from distance r, before normalization. Defined for |r - t| <= s <= r + t;
    when d = 2 the endpoints are genuine singularities and are refused."""
    _check_dim(d)
    t = float(t)
    r = float(r)
    s = float(s)
    if r <= 0.0 or t <= 0.0:
        raise DomainError("kernel radii must be positive")
    a = abs(r - t)
    b = r + t
    if s < a or s > b:
        raise DomainError(f"s = {s:g} outside the kernel support [{a:g}, {b:g}]")
    if d == 2 and (s == a or s == b):
        raise SingularityError(
            f"s = {s:g} sits on the d = 2 kernel singularity")
    return float(_kernel_factor(d, r, t, s, s - a, b - s))


def calibrate_normalization(d: int, r, t, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Reciprocal kernel mass over [|r - t|, r + t]; multiplying the raw
    kernel integral by this makes the mean of the constant 1 equal 1. The
    mass is scale invariant, so any (r, t) gives the same constant."""
    _check_dim(d)
    r = float(r)
    t = float(t)
    if r <= 0.0 or t <= 0.0:
        raise DomainError("calibration radii must be positive")

    def g(s, dlo, dhi):
        return _kernel_factor(d, r, t, s, dlo, dhi)

    return 1.0 / integrate(g, abs(r - t), r + t, quad)


@lru_cache(maxsize=64)
def _norm_const(d: int, quad: QuadratureSpec) -> float:
    return calibrate_normalization(d, 1.0, 1.0, quad)


_LONE_ROW = np.zeros((1, 1), dtype=np.intp)


def _profile_integrals(f: RadialProfile, los, his, weight, quad,
                       absolute: bool = False) -> np.ndarray:
    """Integral of weight(s, dlo, dhi, rows) * f(s), or * |f(s)| when
    absolute, over [los[i], his[i]] for every row i; rows indexes los.
    Panels off the support of f are skipped, so a row whose window misses
    the support is exactly 0.0. A lone row goes to integrate, the batch of
    one, and is not integrated at all when its window misses the support."""
    supp = f._bounds

    def g(s, dlo, dhi, rows):
        v = f.values(s)
        return weight(s, dlo, dhi, rows) * (np.abs(v) if absolute else v)

    def off_support(a, b):
        return not any(pl < b and ph > a for pl, ph in supp)

    if len(los) == 1:
        lo = float(los[0])
        hi = float(his[0])
        if off_support(lo, hi):
            return np.zeros(1)
        return np.array([integrate(
            lambda s, dlo, dhi: g(s, dlo, dhi, _LONE_ROW), lo, hi, quad,
            f._breaks, off_support)])

    def skip(a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        hit = np.zeros(len(a), dtype=bool)
        for pl, ph in supp:
            hit |= (pl < b) & (ph > a)
        return ~hit

    return _integrate_rows(g, los, his, quad, f._breaks, skip)


def _spherical_means(d: int, f: RadialProfile, r, ts,
                     quad: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """Averages of the radial profile f over the spheres of radii ts whose
    centers lie at distance r from the origin, integrated together; each
    entry is bitwise the spherical_mean of its radius."""
    _check_dim(d)
    r = float(r)
    ts = np.array(ts, dtype=float).ravel()
    if r <= 0.0 or (ts <= 0.0).any():
        raise DomainError("spherical mean radii must be positive")

    def kern(s, dlo, dhi, rows):
        return _kernel_factor(d, r, ts[rows], s, dlo, dhi)

    raw = _profile_integrals(f, np.abs(r - ts), r + ts, kern, quad)
    return _norm_const(d, quad) * raw


def spherical_mean(d: int, f: RadialProfile, r, t,
                   quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Average of the radial profile f over the sphere of radius t whose
    center lies at distance r from the origin: a batch of one, with the
    kernel of the batch taken at the scalar t."""
    _check_dim(d)
    r = float(r)
    t = float(t)
    if r <= 0.0 or t <= 0.0:
        raise DomainError("spherical mean radii must be positive")

    def kern(s, dlo, dhi, rows):
        return _kernel_factor(d, r, t, s, dlo, dhi)

    raw = _profile_integrals(f, (abs(r - t),), (r + t,), kern, quad)
    return _norm_const(d, quad) * float(raw[0])


class MCEstimate(NamedTuple):
    value: float
    stderr: float


def sphere_average_mc(d: int, f: RadialProfile, r, t, samples: int = 100_000,
                      rng=None) -> MCEstimate:
    """Monte Carlo spherical average for d = 2, 3, bypassing the kernel
    reduction entirely: draws points uniformly on the sphere and averages
    the profile at their distances from the origin."""
    if d not in (2, 3):
        raise ParameterError("the Monte Carlo cross-check supports d = 2 and 3")
    r = float(r)
    t = float(t)
    if r <= 0.0 or t <= 0.0:
        raise DomainError("radii must be positive")
    if samples < 2:
        raise InsufficientDataError("need at least two Monte Carlo samples")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if d == 2:
        u = np.cos(gen.uniform(0.0, 2.0 * math.pi, samples))
    else:
        u = gen.uniform(-1.0, 1.0, samples)
    s = np.sqrt(r * r + t * t - 2.0 * r * t * u)
    vals = f.values(s)
    return MCEstimate(float(vals.mean()),
                      float(vals.std(ddof=1) / math.sqrt(samples)))


# ---------------------------------------------------------------------------
# maximal operator over a dilation set


@dataclass(frozen=True)
class DilationGrid:
    """Candidate dilations inside a set E plus the local search radius used
    to polish the best grid point."""

    points: tuple[Fraction, ...]
    refinement: Fraction

    def __post_init__(self):
        if not self.points:
            raise ParameterError("a dilation grid needs at least one point")
        pts = tuple(as_rational(p, what="grid point") for p in self.points)
        for prev, nxt in zip(pts, pts[1:]):
            if nxt <= prev:
                raise ParameterError("grid points must be strictly increasing")
        ref = as_rational(self.refinement, what="refinement radius")
        if ref < 0:
            raise ParameterError("refinement radius must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "refinement", ref)

    @classmethod
    def from_set(cls, E: FractalSet, spacing=None) -> "DilationGrid":
        """Greedy spacing-separated grid through E. The default spacing is
        the finer of the set's resolution and 2**-12."""
        default = Fraction(1, 4096)
        if spacing is None:
            res = resolution(E)
            spacing = min(res, default) if res > 0 else default
        else:
            spacing = as_rational(spacing, what="grid spacing")
            if spacing <= 0:
                raise ParameterError("grid spacing must be positive")
        return cls(tuple(separated_points(E, spacing)), spacing)


def _require_inside(E: FractalSet, points) -> None:
    """One merge walk of the sorted components of E against the increasing
    points, each component taking the points up to its right end by
    bisection; raises at the first point outside E."""
    j = 0
    for lo, hi in E.intervals:
        if j < len(points) and points[j] < lo:
            break
        j = bisect_right(points, hi, j)
    if j < len(points):
        raise ParameterError(
            f"grid point {points[j]} lies outside the dilation set")


def _golden_max(fn, a: float, b: float, iters: int = 36) -> tuple[float, float]:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fn(c)
    fd = fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def _sup_over_dilations(eval_many, points, E: FractalSet | None,
                        bounds: tuple[float, float], h: float, start: float = 0.0,
                        iters: int = 30, eval_at=None) -> tuple[float, float | None]:
    """Discretized sup of eval_many over the candidate dilations points,
    swept in one batch at their floats: the first strict maximum above
    start, as a sweep keeping v > best finds it, then a golden polish of
    eval_at (by default eval_many on a batch of one) within h of that
    dilation, inside the component of E holding the exact point, cut to
    bounds, or inside bounds when E is None. Returns the value and the
    dilation, which is None when nothing beats start."""
    if not len(points):
        return start, None
    ts = np.array([float(p) for p in points])
    values = eval_many(ts)
    i = int(np.argmax(values))
    if not values[i] > start:
        return start, None
    best_v = float(values[i])
    best_t = float(ts[i])
    lo, hi = bounds
    if E is not None:
        comp = E.component(points[i])
        if comp is None or comp[1] <= comp[0]:
            return best_v, best_t
        lo, hi = max(float(comp[0]), lo), min(float(comp[1]), hi)
    a = max(lo, best_t - h)
    b = min(hi, best_t + h)
    if b > a:
        if eval_at is None:
            eval_at = lambda x: float(eval_many(np.array([x]))[0])
        tt, vv = _golden_max(eval_at, a, b, iters)
        if vv > best_v:
            best_v, best_t = vv, tt
    return best_v, best_t


class MaximalValue(NamedTuple):
    value: float
    t: float


def maximal_value(d: int, f: RadialProfile, r, E: FractalSet,
                  grid: DilationGrid | None = None,
                  quad: QuadratureSpec = DEFAULT_QUAD) -> MaximalValue:
    """sup over t in E of |spherical mean| at radius r, located by a grid
    sweep followed by golden-section polish inside the component of the best
    grid point. Returns the supremum value and the dilation attaining it.

    Every grid point must lie in E; the polish step then cannot leave E, so
    the result is a lower bound for the supremum, up to the quadrature
    error, which is the |G15 - G7| estimate and not a bound. The grid is
    swept in one batch of spherical means; the polish is sequential."""
    _check_dim(d)
    r = float(r)
    if r <= 0.0:
        raise DomainError("radius must be positive")
    if grid is None:
        grid = DilationGrid.from_set(E)
    _require_inside(E, grid.points)
    best_v, t_star = _sup_over_dilations(
        lambda ts: np.abs(_spherical_means(d, f, r, ts, quad)), grid.points,
        E, (-math.inf, math.inf), float(grid.refinement), -1.0, 36,
        lambda x: abs(spherical_mean(d, f, r, x, quad)))
    return MaximalValue(best_v, t_star)


# ---------------------------------------------------------------------------
# norms


def _ess_sup(f: RadialProfile) -> float:
    sup = 0.0
    for pc in f.pieces:
        if pc.coeff == 0.0:
            continue
        lo = float(pc.lo)
        hi = float(pc.hi)
        a, b = pc.a_pow, pc.b_pow
        if lo == 0.0 and (a < 0.0 or (a == 0.0 and b > 0.0)):
            raise DivergentNormError(
                "essential supremum infinite at the origin")
        cands = []
        if lo > 0.0:
            cands.append(lo ** a * (math.log(1.0 / lo) ** b if b else 1.0))
        elif a == 0.0 and b < 0.0:
            cands.append(0.0)
        elif a > 0.0 or (a == 0.0 and b == 0.0):
            cands.append(0.0 if a > 0.0 else 1.0)
        if b != 0.0 and hi == 1.0:
            cands.append(0.0)  # b > 0 here; negative b never reaches 1
        else:
            cands.append(hi ** a * (math.log(1.0 / hi) ** b if b else 1.0))
        if a != 0.0 and b != 0.0:
            s_crit = math.exp(-b / a)
            if lo < s_crit < hi:
                cands.append(s_crit ** a * math.log(1.0 / s_crit) ** b)
        sup = max(sup, abs(pc.coeff) * max(abs(c) for c in cands))
    return sup


def _log_piece_from_origin(cp: float, k: float, bp: float, hi: float,
                           quad: QuadratureSpec) -> float:
    # x = log(1/s) turns the integral into an incomplete-gamma tail, which a
    # truncated exponential integral captures to quadrature accuracy.
    x0 = math.log(1.0 / hi)
    kp1 = k + 1.0
    x1 = max(x0 + 1.0, (60.0 + 20.0 * abs(bp)) / kp1)

    def g(x, dlo, dhi):
        return np.exp(-kp1 * x) * x ** bp

    return cp * integrate(g, x0, x1, quad)


def _piece_lp(pc: ProfilePiece, p: float, d: int, quad: QuadratureSpec) -> float:
    if pc.coeff == 0.0:
        return 0.0
    lo = float(pc.lo)
    hi = float(pc.hi)
    cp = abs(pc.coeff) ** p
    k = pc.a_pow * p + (d - 1)
    bp = pc.b_pow * p
    if bp == 0.0:
        if k == -1.0:
            if lo == 0.0:
                raise DivergentNormError(
                    f"power {pc.a_pow:g} diverges at the origin for p = {p:g}")
            return cp * math.log(hi / lo)
        kp1 = k + 1.0
        if lo == 0.0:
            if kp1 < 0.0:
                raise DivergentNormError(
                    f"power {pc.a_pow:g} diverges at the origin for p = {p:g}")
            return cp * hi ** kp1 / kp1
        return cp * (hi ** kp1 - lo ** kp1) / kp1
    if lo == 0.0:
        if k < -1.0:
            raise DivergentNormError(
                f"power {pc.a_pow:g} diverges at the origin for p = {p:g}")
        if k == -1.0:
            # borderline power: the log decides, with a closed form when it wins
            if bp < -1.0:
                return cp * math.log(1.0 / hi) ** (bp + 1.0) / (-bp - 1.0)
            raise DivergentNormError(
                f"log power {pc.b_pow:g} cannot rescue s**{pc.a_pow:g} "
                f"at the origin for p = {p:g}")
        return _log_piece_from_origin(cp, k, bp, hi, quad)

    def g(s, dlo, dhi):
        return cp * s ** k * np.log(1.0 / s) ** bp

    return integrate(g, lo, hi, quad)


def lp_norm(f: RadialProfile, p, d: int,
            quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """L^p norm of the profile on R^d with respect to s**(d-1) ds (surface
    constant omitted). Pure power pieces use closed forms, including the
    dichotomy for log-tempered pieces reaching the origin; anything else
    integrates numerically. Raises DivergentNormError when infinite."""
    _check_dim(d)
    if p == math.inf:
        return _ess_sup(f)
    p = float(p)
    if not p >= 1.0:
        raise ParameterError(f"p must lie in [1, inf], got {p!r}")
    total = sum(_piece_lp(pc, p, d, quad) for pc in f.pieces)
    return total ** (1.0 / p)


# ---------------------------------------------------------------------------
# pointwise decomposition of the maximal operator


def decomposition_components(d: int, E: FractalSet, f: RadialProfile, p, r,
                             quad: QuadratureSpec = DEFAULT_QUAD,
                             grid: DilationGrid | None = None) -> dict[str, float]:
    """Evaluate each piece of the pointwise decomposition of the maximal
    operator at radius r: the near-diagonal main part (with its reflected
    twin and one-sided remainders when d = 2) and the off-diagonal
    remainders. Suprema in t are discretized exactly as in maximal_value."""
    _check_dim(d)
    r = float(r)
    if r <= 0.0:
        raise DomainError("radius must be positive")
    p = float(p)
    if not p >= 1.0:
        raise ParameterError(f"p must lie in [1, inf), got {p!r}")
    if grid is None:
        grid = DilationGrid.from_set(E)
    h = float(grid.refinement)
    # candidates are split on their floats, which keep the order of the
    # exact grid points
    pts = grid.points
    i_lo = bisect_right(pts, r / 2.0, key=float)
    i_hi = bisect_left(pts, 1.5 * r, key=float)
    near, far_lo, far_hi = pts[i_lo:i_hi], pts[:i_lo], pts[i_hi:]
    out: dict[str, float] = {}

    def integrals(los, his, weight):
        # weight(s, dlo, dhi) against |f| over each window [los[i], his[i]]
        return _profile_integrals(
            f, los, his, lambda s, dlo, dhi, rows: weight(s, dlo, dhi), quad,
            absolute=True)

    def one(s, dlo, dhi):
        return 1.0

    if d >= 3:
        w_pow = (d - 1.0) * (1.0 - 1.0 / p) - 1.0 + (d - 1.0) / p

        def main_at(ts):
            return integrals(np.abs(r - ts), r + ts,
                             lambda s, dlo, dhi: s ** w_pow)

        out["mainpart"] = 0.0 if not (2.0 / 3.0 < r < 4.0) else \
            _sup_over_dilations(main_at, near, E, (r / 2.0, 1.5 * r), h)[0]

        def rem1_at(ts):
            return integrals(r - ts, r + ts, one)

        def rem2_at(ts):
            return integrals(ts - r, ts + r, one) / r

        # the remainders run over the whole dilation interval [1, 2]
        out["remainder1"] = 0.0
        if r >= 2.0:
            hi_t = min(2.0, r / 2.0)
            out["remainder1"] = _sup_over_dilations(
                rem1_at, np.linspace(1.0, hi_t, 33), None, (1.0, hi_t), h)[0]
        out["remainder2"] = 0.0
        lo_t = max(1.0, 1.5 * r)
        if r < 4.0 / 3.0 and lo_t <= 2.0:
            out["remainder2"] = _sup_over_dilations(
                rem2_at, np.linspace(lo_t, 2.0, 33), None, (lo_t, 2.0), h)[0]
        return out

    sqrt_r = math.sqrt(r)

    def main_at(ts):
        # the g-weight s**(1/p) cancels against the s**(1/2 - 1/p) in front
        return integrals(np.abs(r - ts), r + ts,
                         lambda s, dlo, dhi: np.sqrt(s) / np.sqrt(dlo))

    def main_tilde_at(ts):
        return integrals(np.abs(r - ts), r + ts,
                         lambda s, dlo, dhi: np.sqrt(s) / np.sqrt(dhi))

    in_main = 2.0 / 3.0 < r < 4.0
    out["mainpart"] = 0.0 if not in_main else \
        _sup_over_dilations(main_at, near, E, (r / 2.0, 1.5 * r), h)[0]
    out["mainpart_tilde"] = 0.0 if not in_main else \
        _sup_over_dilations(main_tilde_at, near, E, (r / 2.0, 1.5 * r), h)[0]

    def rem1_at(ts):
        return integrals(r - ts, np.full_like(ts, r),
                         lambda s, dlo, dhi: 1.0 / np.sqrt(dlo))

    def rem2_at(ts):
        return integrals(np.full_like(ts, r), r + ts,
                         lambda s, dlo, dhi: 1.0 / np.sqrt(dhi))

    def rem3_at(ts):
        return integrals(ts - r, ts,
                         lambda s, dlo, dhi: 1.0 / np.sqrt(dlo)) / sqrt_r

    def rem4_at(ts):
        return integrals(ts, ts + r,
                         lambda s, dlo, dhi: 1.0 / np.sqrt(dhi)) / sqrt_r

    outer = r >= 2.0
    inner = r < 4.0 / 3.0
    out["remainder1"] = 0.0 if not outer else \
        _sup_over_dilations(rem1_at, far_lo, E, (0.0, r / 2.0), h)[0]
    out["remainder2"] = 0.0 if not outer else \
        _sup_over_dilations(rem2_at, far_lo, E, (0.0, r / 2.0), h)[0]
    out["remainder3"] = 0.0 if not inner else \
        _sup_over_dilations(rem3_at, far_hi, E, (1.5 * r, math.inf), h)[0]
    out["remainder4"] = 0.0 if not inner else \
        _sup_over_dilations(rem4_at, far_hi, E, (1.5 * r, math.inf), h)[0]
    return out


def circular_components(f: RadialProfile, r, steps: int = 4096) -> dict[str, float]:
    """Averaged (U) and sliding-window (R) functionals over dilations in
    [1, 2] that dominate the square of the circular maximal function of a
    piecewise constant profile; evaluated in closed form on a dense grid."""
    r = float(r)
    if r <= 0.0:
        raise DomainError("radius must be positive")
    for pc in f.pieces:
        if pc.a_pow != 0.0 or pc.b_pow != 0.0:
            raise ParameterError(
                "closed-form window functionals need a piecewise constant profile")
    out = {"U": 0.0, "R": 0.0}
    if r > 0.5 and 2.0 * r > 1.0:
        t = np.linspace(1.0, min(2.0, 2.0 * r), steps)
        lo_w = np.abs(r - t)
        hi_w = r + t
        acc = np.zeros_like(t)
        for pc in f.pieces:
            a = np.maximum(lo_w, float(pc.lo))
            b = np.minimum(hi_w, float(pc.hi))
            m = b > a
            acc[m] += abs(pc.coeff) * 0.5 * (b[m] ** 2 - a[m] ** 2)
        out["U"] = float(acc.max() / r)
    if r <= 1.0 and 2.0 * r <= 2.0:
        t = np.linspace(max(1.0, 2.0 * r), 2.0, steps)
        acc = np.zeros_like(t)
        for pc in f.pieces:
            ov = (np.minimum(t + r, float(pc.hi))
                  - np.maximum(t - r, float(pc.lo)))
            acc += abs(pc.coeff) * np.clip(ov, 0.0, None)
        out["R"] = float(acc.max() / r)
    return out
