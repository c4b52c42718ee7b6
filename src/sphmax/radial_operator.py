"""Spherical means of radial profiles and maximal operators over dilation sets.

For radial data the spherical mean in R^d collapses to a one-dimensional
integral of the profile against a distance-distribution kernel supported on
[|r - t|, r + t]. Everything here is built on that reduction; spheres are
never sampled. At d = 2 the mean of a profile whose pieces are all constant
is an arc length on the circle, taken in closed form, exact up to rounding;
every other mean is computed by quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DivergentNormError, DomainError,
                     ParameterError, PrecisionError, SingularityError)
from .fractal_set import (FractalSet, _read_expression, as_rational, resolution,
                          separated_points)
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

    @property
    def indicator(self) -> bool:
        """Whether the piece is 1 on its interval."""
        return self.coeff == 1.0 and self.a_pow == 0.0 and self.b_pow == 0.0


def _piece_values(pc: ProfilePiece, s):
    # the coefficient stays a scalar: c * y has the bits of full(c) * y
    v = pc.coeff
    if pc.a_pow != 0.0:
        v = v * s ** pc.a_pow
    if pc.b_pow != 0.0:
        v = v * np.log(1.0 / s) ** pc.b_pow
    return v


def _constant(pc: ProfilePiece) -> bool:
    return pc.a_pow == 0.0 and pc.b_pow == 0.0


class _PieceTable(NamedTuple):
    """The pieces of one or more profiles, each profile's after those of
    the profiles before it: the coefficient of each constant piece plus
    +0.0 (+0.0 for the others) and the index and ProfilePiece of every
    other piece."""

    consts: np.ndarray
    smooth: tuple[tuple[int, ProfilePiece], ...]

    def values(self, s, tags):
        """The profiles at the nodes s of the panels tagged, by the column
        tags, with their pieces: a constant piece broadcasts its
        coefficient, one per panel, and every other piece present takes
        _piece_values on its own panels, added to +0.0. Both are bitwise
        RadialProfile.values wherever a node lies in its panel's piece and
        in no other."""
        v = self.consts[tags]
        for j, pc in self.smooth:
            m = tags[:, 0] == j
            count = np.count_nonzero(m)
            if count == len(m):
                # every panel lies in this piece, as in most rounds of a
                # profile of one piece: no gather and no scatter
                return v + _piece_values(pc, s)
            if count:
                if v.shape != s.shape:
                    v = v.repeat(s.shape[1], axis=1)
                v[m] += _piece_values(pc, s[m])
        return v


def _batch(profiles) -> tuple[_PieceTable, list]:
    """The piece table of a batch whose rows take their profiles from
    profiles, and per profile its breakpoints with the index in that table
    of the piece each interval between them lies in, -1 in a gap."""
    if len(profiles) == 1:
        f = profiles[0]
        return f._pieces, [(f._breaks, f._owner)]
    smooth, parts, base = [], [], 0
    for f in profiles:
        smooth += [(base + j, pc) for j, pc in f._pieces.smooth]
        parts.append((f._breaks, [j + base if j >= 0 else j
                                  for j in f._owner]))
        base += len(f.pieces)
    return _PieceTable(np.concatenate([f._pieces.consts for f in profiles]),
                       tuple(smooth)), parts


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise power-log radial function with rational piece endpoints.

    Piece interiors must be pairwise disjoint. Pieces carrying a logarithm
    must stay inside [0, 1] so log(1/s) keeps a sign, strictly below 1 when
    the log power is negative.
    """

    pieces: tuple[ProfilePiece, ...]
    # derived once, so none takes part in equality or repr: per piece its
    # float ends, the piece table of the profile, every breakpoint of the
    # profile as a sorted tuple of the piece ends (a log piece stops at or
    # before s = 1, so its kink there is a piece end), and the piece each
    # interval between breakpoints lies in, -1 in a gap, from the one below
    # the first breakpoint to the one above the last
    _table: tuple[tuple[float, float, ProfilePiece], ...] = field(
        init=False, repr=False, compare=False)
    _pieces: _PieceTable = field(init=False, repr=False, compare=False)
    _breaks: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _owner: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pcs = sorted(self.pieces, key=lambda pc: (pc.lo, pc.hi))
        for pc in pcs:
            if not isinstance(pc.lo, Fraction) or not isinstance(pc.hi, Fraction):
                raise ParameterError("piece endpoints must be rational")
            if pc.lo < 0 or pc.hi <= pc.lo:
                raise ParameterError(f"bad piece interval [{pc.lo}, {pc.hi}]")
            if not all(map(math.isfinite, (pc.coeff, pc.a_pow, pc.b_pow))):
                raise ParameterError(
                    "piece coefficient and powers must be finite, got "
                    f"{pc.coeff!r}, {pc.a_pow!r}, {pc.b_pow!r}")
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
        object.__setattr__(self, "pieces", tuple(pcs))
        bounds = tuple((float(pc.lo), float(pc.hi)) for pc in pcs)
        object.__setattr__(self, "_table", tuple(
            (lo, hi, pc) for (lo, hi), pc in zip(bounds, pcs)))
        object.__setattr__(self, "_pieces", _PieceTable(
            np.array([pc.coeff if _constant(pc) else 0.0 for pc in pcs],
                     dtype=float) + 0.0,
            tuple((j, pc) for j, pc in enumerate(pcs) if not _constant(pc))))
        breaks = sorted({e for b in bounds for e in b})
        owner = [-1] * (len(breaks) + 1)
        for j, (lo, hi) in enumerate(bounds):
            # the intervals from the one above lo up to the one below hi;
            # none when the ends round to one float
            for m in range(bisect_right(breaks, lo), bisect_left(breaks, hi)
                           + 1):
                owner[m] = j
        object.__setattr__(self, "_breaks", tuple(breaks))
        object.__setattr__(self, "_owner", tuple(owner))

    def values(self, s):
        """Vectorized evaluation; zero outside every piece."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for lo, hi, pc in self._table:
            m = (s >= lo) & (s <= hi)
            if _constant(pc):
                # a constant piece adds its coefficient where m holds and
                # +0.0 elsewhere, which leaves a sum from +0.0 bitwise as is
                out += np.where(m, pc.coeff, 0.0)
                continue
            x = s[m]
            if x.size:
                out[m] += _piece_values(pc, x)
        return out

    def __call__(self, s) -> float:
        return float(self.values(np.array([s], dtype=float))[0])

    def _gaps(self, a, b) -> list:
        """Whether each panel [a, b] between the ends and breakpoints of a
        lone row lies in a gap: the tag the layouts give it from _owner,
        found by search. The panel lies in interval m when m is both the
        count of breakpoints at or below a and that below b; a panel of one
        point that is a breakpoint lies in none. Meant for the few panels
        of one row, as the skip of integrate."""
        cuts, owner = self._breaks, self._owner
        return [m != bisect_left(cuts, y) or owner[m] < 0
                for x, y in zip(a.tolist(), b.tolist())
                for m in (bisect_right(cuts, x),)]

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return RadialProfile(self.pieces + other.pieces)

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


_WIDE_SUPPORT = Fraction(2) ** 40
_PROFILE_TERMS = {
    "one": lambda: RadialProfile((ProfilePiece(Fraction(0), _WIDE_SUPPORT, 1.0),)),
    "chi": indicator, "pow": power_profile}


def parse_profile(expr: str) -> RadialProfile:
    """Build a profile from terms chi(lo, hi), pow(coeff, a_pow, b_pow, lo,
    hi) and one joined by '+'; one is the constant 1 on a support wide
    enough for any integral this package performs."""
    terms = _read_expression(expr, _PROFILE_TERMS, "profile")
    try:
        return RadialProfile(tuple(pc for f in terms for pc in f.pieces))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def profile_expression(f: RadialProfile) -> str:
    """Expression that parse_profile maps back to an equal profile."""
    terms = []
    for pc in f.pieces:
        if pc.indicator:
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
    # From d = 4 on, root is divided by 2rt, where it peaks at 1, rather
    # than by 4rt: the kernel's mass then stays near 1 / sqrt(d) instead of
    # sinking like 2^-d below the absolute error floor of the quadrature.
    a = abs(r - t)
    b = r + t
    four = 4.0 * r * t
    if d == 3:
        return s / four
    root = np.sqrt(dlo * (s + a)) * np.sqrt(dhi * (b + s))
    if d == 2:
        return s / root
    return (root / (2.0 * r * t)) ** (d - 3) * (s / four)


def _radius(x) -> float:
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"radius must be positive and finite, got {x!r}")
    return x


def kernel(d: int, t, r, s) -> float:
    """Distance-distribution kernel K_t(r, s) of the sphere of radius t seen
    from distance r, before normalization. Defined for |r - t| <= s <= r + t;
    when d = 2 the endpoints are genuine singularities and are refused.
    From d = 4 on it is scaled by 2^(d-3), which _norm_const divides out."""
    _check_dim(d)
    t = _radius(t)
    r = _radius(r)
    s = float(s)
    a = abs(r - t)
    b = r + t
    if s < a or s > b:
        raise DomainError(f"s = {s:g} outside the kernel support [{a:g}, {b:g}]")
    if d == 2 and (s == a or s == b):
        raise SingularityError(
            f"s = {s:g} sits on the d = 2 kernel singularity")
    return float(_kernel_factor(d, r, t, s, s - a, b - s))


@lru_cache(maxsize=64)
def _norm_const(d: int) -> float:
    # 1 / m_d for the kernel mass m_d = B((d-1)/2, (d-1)/2) / 2, found
    # exactly from m_2 = pi/2, m_3 = 1/2 and m_{k+2} = m_k (k-1)/(4k), with
    # pi entering once as its nearest double; from d = 4 on it is divided by
    # the 2^(d-3) that _kernel_factor scales the kernel up by
    m = Fraction(math.pi) / 2 if d % 2 == 0 else Fraction(1, 2)
    for k in range(2 + d % 2, d, 2):
        m *= Fraction(k - 1, 4 * k)
    return float(1 / (m * 2 ** max(d - 3, 0)))


def _window_drift(near, far, a, b):
    """The relative error |(b - a) - 2 near| / (2 near) that rounding makes
    in the width of the kernel window [a, b] = [fl(far - near), fl(far +
    near)], near = min(r, t) and far = max(r, t); both ends' rounding
    errors are exact (Fast2Sum), so only the last steps round."""
    return abs(((far - a) - near) - (near - (b - far))) / (2.0 * near)


def _window_error(d: int, r, t, drift, quad) -> PrecisionError:
    return PrecisionError(
        f"the kernel window of r = {float(r)!r}, t = {float(t)!r} rounds to "
        f"a width off by {drift:.3e} relative, which takes a d = {d} mean "
        f"past rel_tol = {quad.rel_tol:.3e}")


# The d = 2 mean of a profile whose pieces are all constant, in closed form.
# A point at distance p from the origin sits on the circle at the half angle
# phi(p) in [0, pi/2], sin^2 phi = (p - |r - t|)(p + |r - t|) / (4rt) and
# cos^2 phi = (r + t - p)(r + t + p) / (4rt), and the angle is uniform, so
# the piece [lo, hi] takes the share (2/pi)(phi(hi) - phi(lo)), each end
# clipped to the window. The difference is one atan2 of sin(phi_h - phi_l)
# = (sin^2 phi_h - sin^2 phi_l) / (sin phi_h cos phi_l + sin phi_l cos phi_h)
# and cos(phi_h - phi_l), with sin^2 phi_h - sin^2 phi_l = (hi - lo)(hi +
# lo) / (4rt), sin^2 phi_h or cos^2 phi_l when one end is clipped, and 1
# when both are: no term cancels, even on shells 2^-40 wide. p - |r - t|
# and r + t - p come from the rounded window ends and their exact rounding
# errors (Fast2Sum), so they round once near their end: a window narrower
# than an ulp of t resolves, and so does an end next to |r - t| when r and
# t are close, where (p - max(r, t)) + min(r, t) loses every digit.


def _arc_sum(f: RadialProfile, r: float, t: float) -> float:
    """Sum over the pieces of f, in order from 0.0, of coeff * (phi(hi) -
    phi(lo)) at (r, t): the d = 2 mean of a profile with only constant
    pieces, before the factor 2/pi.

    Only d = 2 takes this route. For odd d one Kronrod round already
    integrates a constant piece exactly, the kernel being a polynomial in
    s; for even d >= 4 the difference of two incomplete beta values cancels
    on narrow windows and needs a series there; and at d = 3 the
    benchmark's tracer test pins an indicator mean to the quadrature. This
    one function serves every row, alone or in a batch, so a row has the
    same bits in any batch: at about 1 us per row on a shared 2-CPU host it
    beats numpy's fixed cost per call below some 80 rows, which is more
    than a probe's lockstep polish step or verify's batch holds. The angle
    comes from math.atan2, since numpy's arctan2 changes its last bits with
    the SIMD loop it dispatches to."""
    far = max(r, t)
    near = min(r, t)
    a = far - near
    b = far + near
    # the rounding errors of a and b, exactly (Fast2Sum)
    ea = (far - a) - near
    eb = near - (b - far)
    four = 4.0 * r * t
    total = 0.0
    for lo, hi, pc in f._table:
        up_hi = (hi - a) - ea
        down_lo = (b - lo) + eb
        if not (up_hi > 0.0 and down_lo > 0.0):
            continue                    # the piece misses the window
        up_lo = (lo - a) - ea
        down_hi = (b - hi) + eb
        s2h = up_hi * (hi + a) / four
        c2l = down_lo * (lo + b) / four
        if up_lo > 0.0:
            sl, cl = math.sqrt(up_lo * (lo + a) / four), math.sqrt(c2l)
        else:
            sl, cl = 0.0, 1.0
        if down_hi > 0.0:
            sh, ch = math.sqrt(s2h), math.sqrt(down_hi * (hi + b) / four)
            gap = (hi - lo) * (hi + lo) / four if up_lo > 0.0 else s2h
        else:
            sh, ch = 1.0, 0.0
            gap = c2l if up_lo > 0.0 else 1.0
        total += pc.coeff * math.atan2(gap / (sh * cl + sl * ch),
                                       ch * cl + sh * sl)
    return total


_LONE_ROW = np.zeros((1, 1), dtype=np.intp)


def _profile_integrals(f, los, his, weight, quad,
                       absolute: bool = False) -> np.ndarray:
    """Integral of weight(s, dlo, dhi, rows) * f(s), or * |f(s)| when
    absolute, over [los[i], his[i]] for every row i; rows indexes los.

    f is one profile, or a sequence of one profile per row. A batch lays
    out every row at once, each cut at its own profile's breakpoints, and
    every panel between them carries the index of the piece it lies in,
    from one piece table of all the batch's profiles; a panel in a gap of
    its row's profile is dropped, so a row whose window misses the support
    is exactly 0.0. One integrand call per round then evaluates the tagged
    piece of every panel, however many profiles the batch holds. A lone
    row goes to integrate, the batch of one, which takes values at every
    node and drops the panels that _gaps finds in a gap from the same
    table. Every row is bitwise its integral alone, but for a node that
    rounds onto or past the edge of a panel a few ulp wide: values adds
    every closed piece that holds such a node, a tag only the panel's."""
    kind = None
    if isinstance(f, RadialProfile):
        profiles = [f]
    else:
        profiles = list({id(p): p for p in f}.values())
        if len(profiles) > 1:
            index = {id(p): k for k, p in enumerate(profiles)}
            kind = np.array([index[id(p)] for p in f])

    if len(los) == 1:
        f = profiles[0]

        def lone(s, dlo, dhi):
            v = f.values(s)
            return weight(s, dlo, dhi, _LONE_ROW) * (np.abs(v) if absolute
                                                     else v)

        return np.array([integrate(lone, los[0], his[0], quad, f._breaks,
                                   f._gaps)])
    table, parts = _batch(profiles)

    def g(s, dlo, dhi, rows, tags):
        v = table.values(s, tags)
        return weight(s, dlo, dhi, rows) * (np.abs(v) if absolute else v)

    return _integrate_rows(g, los, his, quad, parts, kind)


def _spherical_means(d: int, f, r, ts,
                     quad: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """Averages of the radial profile f (one for all, or one per radius)
    over the spheres of radii ts whose centers lie at distance r (one for
    all, or one per radius) from the origin, integrated together; each is
    bitwise its spherical_mean. At d = 2 the rows whose profile has only
    constant pieces take the closed form and the others the quadrature."""
    _check_dim(d)
    ts = np.array(ts, dtype=float).ravel()
    rs = np.full(ts.shape, r, dtype=float)
    if not ((ts > 0.0) & (ts < math.inf) & (rs > 0.0) & (rs < math.inf)).all():
        raise DomainError("spherical mean radii must be positive and finite")

    one = isinstance(f, RadialProfile)
    if d == 2 and not (one and f._pieces.smooth):
        # the rows of profiles with only constant pieces in closed form, the
        # others (None here) by quadrature, which gives a row the same bits
        # in any batch
        profiles = [f] * len(ts) if one else f
        raw = [None if p._pieces.smooth else _arc_sum(p, r_i, t_i)
               for p, r_i, t_i in zip(profiles, rs.tolist(), ts.tolist())]
        rest = [i for i, v in enumerate(raw) if v is None]
        if len(rest) < len(raw):
            raw = np.array(raw, dtype=float)
            if rest:
                raw[rest] = _quad_sums([profiles[i] for i in rest], rs[rest],
                                       ts[rest], d, quad)
            return _norm_const(2) * raw
    return _norm_const(d) * _quad_sums(f, rs, ts, d, quad)


def _quad_sums(f, rs: np.ndarray, ts: np.ndarray, d: int,
               quad: QuadratureSpec) -> np.ndarray:
    """The means of _spherical_means by quadrature, before _norm_const.
    Raises _window_error for the first row whose rounded window drifts too
    far: for d >= 3 the kernel scales the drift up about d - 2 times; at
    d = 2 it keeps its mass on any window, but a piece end inside the
    window takes a share off by about the drift, and a window collapsed to
    one float, or to two adjacent ones, is off by much of its width."""
    los = np.abs(rs - ts)
    his = rs + ts
    drift = _window_drift(np.minimum(rs, ts), np.maximum(rs, ts), los, his)
    wide = max(d - 2, 1) * drift > quad.rel_tol
    if wide.any():
        i = int(wide.argmax())
        raise _window_error(d, rs[i], ts[i], drift[i], quad)

    def kern(s, dlo, dhi, rows):
        return _kernel_factor(d, rs[rows], ts[rows], s, dlo, dhi)

    return _profile_integrals(f, los, his, kern, quad)


def spherical_mean(d: int, f: RadialProfile, r, t,
                   quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Average of the radial profile f over the sphere of radius t whose
    center lies at distance r from the origin: a batch of one, with the
    kernel of the batch taken at the scalar t. At d = 2 a profile with only
    constant pieces takes the closed form of _arc_sum, exact up to
    rounding; every other mean is a quadrature."""
    _check_dim(d)
    r = _radius(r)
    t = _radius(t)
    if d == 2 and not f._pieces.smooth:
        return _norm_const(2) * _arc_sum(f, r, t)

    lo = abs(r - t)
    hi = r + t
    drift = _window_drift(min(r, t), max(r, t), lo, hi)
    if max(d - 2, 1) * drift > quad.rel_tol:
        raise _window_error(d, r, t, drift, quad)

    def kern(s, dlo, dhi, rows):
        return _kernel_factor(d, r, t, s, dlo, dhi)

    raw = _profile_integrals(f, (lo,), (hi,), kern, quad)
    return _norm_const(d) * float(raw[0])


# ---------------------------------------------------------------------------
# maximal operator over a dilation set


@dataclass(frozen=True)
class DilationGrid:
    """Candidate dilations inside a set E plus the local search radius used
    to polish the best grid point."""

    points: tuple[Fraction, ...]
    refinement: Fraction
    # derived once, so neither takes part in equality or repr: the floats of
    # the points, read-only, and the set from_set drew the points from,
    # which holds them all
    _floats: np.ndarray = field(init=False, repr=False, compare=False)
    _source: FractalSet | None = field(
        default=None, init=False, repr=False, compare=False)

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
        floats = np.array([float(p) for p in pts])
        floats.flags.writeable = False
        object.__setattr__(self, "_floats", floats)

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
        grid = cls(tuple(separated_points(E, spacing)), spacing)
        object.__setattr__(grid, "_source", E)
        return grid


def _grid_in(E: FractalSet, grid: DilationGrid | None) -> DilationGrid:
    """The grid, or from_set(E) when None, once one merge walk of the
    components of E, each taking the points up to its right end by
    bisection, finds every point inside E; a grid from_set drew from E
    skips the walk. Raises at the first point outside E."""
    if grid is None:
        return DilationGrid.from_set(E)
    if grid._source is E:
        return grid
    points = grid.points
    j = 0
    for lo, hi in E.intervals[max(E._last_start(points[0]), 0):]:
        if points[j] < lo:
            break
        j = bisect_right(points, hi, j)
        if j == len(points):
            return grid
    raise ParameterError(
        f"grid point {points[j]} lies outside the dilation set")


def _golden_search(a: float, b: float, iters: int):
    """Golden-section search for a maximum on [a, b], as a generator that
    is sent the value of each abscissa it yields; it yields the best last."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield d
    yield (c, fc) if fc >= fd else (d, fd)


def _ramp_path(a: float, b: float, iters: int, left: bool) -> list[float]:
    """The abscissae that _golden_search(a, b, iters) asks for after its
    first two when every comparison sends it toward a (left) or toward b:
    its path on the ramp -x or x."""
    search = _golden_search(a, b, iters)
    path = [next(search)]
    for _ in range(iters + 1):
        path.append(search.send(-path[-1] if left else path[-1]))
    return path[2:]


def _values(fn, keys) -> dict:
    """fn's values at the (search, abscissa) pairs keys, in one call."""
    return dict(zip(keys, fn([x for _, x in keys], [j for j, _ in keys])))


def _golden_max(fn, brackets, iters: int, marked) -> list[tuple[float, float]]:
    """Per bracket (a, b), the best pair its golden-section search finds, the
    searches in lockstep: fn(xs, ks) maps the abscissae xs of the searches
    ks to values, in one call per step for the searches whose abscissa has
    no value yet in the table known, keyed by (search, abscissa).

    The first two points of every search, c and then d, go in one call,
    since d does not depend on f(c). marked maps the index of a search to
    a guess of the end its path runs into, True for a and False for b, or
    to None; the first call also takes, for each guess, the rest of the
    path the search follows on a ramp toward that end. f(c) >= f(d) still
    sends a search toward a, else toward b, and when that differs from its
    guess the rest of the path toward that end goes in one more call. A
    search that leaves its path finds no values there and rejoins the
    lockstep. A value depends only on its search and abscissa, so every
    result is bitwise that of the search alone. A PrecisionError in the
    first call retries c and d alone, and one in the second call adds
    nothing, so an error is raised where the lockstep raises it. A 38-point
    call of spherical means costs 0.15 to 1.1 ms, against 1.3 to 6.9 ms
    point by point on a shared 2-CPU host."""
    searches = [_golden_search(a, b, iters) for a, b in brackets]
    xs = [next(search) for search in searches]
    # d = a + _INVPHI * (b - a), as _golden_search computes it
    first = [*enumerate(xs), *((j, a + _INVPHI * (b - a))
                               for j, (a, b) in enumerate(brackets))]
    path = [(j, x) for j in marked if marked[j] is not None
            for x in _ramp_path(*brackets[j], iters, marked[j])]
    try:
        known = _values(fn, first + path)
    except PrecisionError:
        if not path:
            raise
        known = _values(fn, first)
    for step in range(iters + 2):
        vals = [known.get(key) for key in enumerate(xs)]
        if None in vals:
            due = [j for j, v in enumerate(vals) if v is None]
            for j, v in zip(due, fn([xs[j] for j in due], due)):
                vals[j] = v
        if step == 0:
            fcs = vals
        elif step == 1:
            sides = {j: fcs[j] >= vals[j] for j in marked}
            turned = [(j, x) for j, left in sides.items() if left != marked[j]
                      for x in _ramp_path(*brackets[j], iters, left)]
            if turned:
                try:
                    known.update(_values(fn, turned))
                except PrecisionError:
                    pass
        xs = [search.send(v) for search, v in zip(searches, vals)]
    return xs


def _sup_over_dilations(eval_many, sweeps, E: FractalSet, start: float = 0.0,
                        iters: int = 30) -> list[tuple[float, float | None]]:
    """Discretized sups of eval_many(ts, k), ts[i] a dilation of sweep k[i],
    one per sweep (ts, points, bounds, h), all swept in one batch: the first
    strict maximum above start, as a sweep keeping v > best finds it, then
    a golden polish, in lockstep, within h of it, cut to bounds and, unless
    points is None, to the component of E holding the point points[i]
    behind ts[i]. Per sweep the value and the dilation, None if nothing
    beats start.

    A bracket whose grid maximum is one of its ends, which happens exactly
    when the maximum is an end of its component of E or of bounds, is
    marked for _golden_max: its search mostly runs straight into that end,
    so the rest of that path is evaluated in one call. When the other end
    of the bracket is a swept point valued below the maximum, the path is
    guessed to run into the maximum and goes in the first call, with c and
    d; else it follows them. In the maxval-sweep benchmark (seed 1, 6
    decks) 213 of 240 polishes are marked and 208 guessed, so most polishes
    cost one batch. In domination 31 of 365 marked polishes are guessed:
    the candidates of decomposition_components are not grid neighbours,
    and the side of the maximum alone guessed wrong in 157 of 359 (seed
    3)."""
    owner = np.repeat(np.arange(len(sweeps)), [len(sw[0]) for sw in sweeps])
    values = (eval_many(np.concatenate([sw[0] for sw in sweeps]), owner)
              if len(owner) else ())
    best, brackets, polished, marked = [], [], [], {}
    end = 0
    for k, (ts, points, (lo, hi), h) in enumerate(sweeps):
        v = values[end:end + len(ts)]
        end += len(ts)
        i = int(np.argmax(v)) if len(ts) else 0
        if not len(ts) or not v[i] > start:
            best.append((start, None))
            continue
        t = float(ts[i])
        best.append((float(v[i]), t))
        if points is not None:
            c_lo, c_hi = E.component(points[i])
            if c_hi <= c_lo:
                continue
            lo, hi = max(float(c_lo), lo), min(float(c_hi), hi)
        a, b = max(lo, t - h), min(hi, t + h)
        if b > a:
            if t in (a, b):
                # the path is guessed to run into t when the other end of
                # the bracket is a swept point valued below the maximum
                far, other = (i + 1, b) if t == a else (i - 1, a)
                sure = 0 <= far < len(ts) and ts[far] == other and v[far] < v[i]
                marked[len(brackets)] = t == a if sure else None
            brackets.append((a, b))
            polished.append(k)
    if brackets:
        found = _golden_max(
            lambda xs, js: eval_many(xs, [polished[j] for j in js]),
            brackets, iters, marked)
        for k, (tt, vv) in zip(polished, found):
            if vv > best[k][0]:
                best[k] = (float(vv), tt)
    return best


class MaximalValue(NamedTuple):
    value: float
    t: float


def _maximal_values(d: int, f, rs, E: FractalSet, grids,
                    quad: QuadratureSpec = DEFAULT_QUAD) -> list[MaximalValue]:
    """maximal_value of the profile f, or of f[k] when f is a sequence, at
    every radius rs[k] over grids[k], all grids checked against E first.
    Every pair is swept in one batch and polished in lockstep, whatever its
    profile; each entry is bitwise the maximal_value of its pair alone."""
    _check_dim(d)
    rs = [_radius(r) for r in rs]
    grids = [_grid_in(E, grid) for grid in grids]
    one = isinstance(f, RadialProfile)

    def absmeans(ts, k):
        if len(ts) == 1:
            # a lone row, as in a polish step: the scalar kernel is cheaper
            return [abs(spherical_mean(d, f if one else f[k[0]], rs[k[0]],
                                       ts[0], quad))]
        return np.abs(_spherical_means(d, f if one else [f[j] for j in k],
                                       np.take(rs, k), ts, quad))

    return [MaximalValue(*found) for found in _sup_over_dilations(
        absmeans, [(g._floats, g.points, (-math.inf, math.inf),
                    float(g.refinement)) for g in grids], E, -1.0, 36)]


def maximal_value(d: int, f: RadialProfile, r, E: FractalSet,
                  grid: DilationGrid | None = None,
                  quad: QuadratureSpec = DEFAULT_QUAD) -> MaximalValue:
    """sup over t in E of |spherical mean| at radius r, located by a grid
    sweep followed by golden-section polish inside the component of the best
    grid point. Returns the supremum value and the dilation attaining it.

    Every grid point must lie in E; the polish step then cannot leave E, so
    the result is a lower bound for the supremum: up to rounding for a
    profile with only constant pieces at d = 2, whose means are in closed
    form, and otherwise up to the quadrature error, which is the |K15 - G7|
    estimate and not a bound. It is the batch of one of _maximal_values."""
    return _maximal_values(d, f, (r,), E, (grid,), quad)[0]


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
    remainders. Suprema in t are discretized exactly as in maximal_value,
    and every grid point must lie in E.

    p must be at least 1 but changes no sup: for d >= 3 the main part's
    power of s is (d-1)(1-1/p) - 1 + (d-1)/p = d - 2, and for d = 2 the
    g-weight s**(1/p) cancels against the s**(1/2 - 1/p) in front."""
    _check_dim(d)
    r = _radius(r)
    p = float(p)
    if not p >= 1.0:
        raise ParameterError(f"p must lie in [1, inf), got {p!r}")
    grid = _grid_in(E, grid)
    h = float(grid.refinement)
    # the runs of grid points at most r/2, strictly between, and at least
    # 3r/2, cut where the floats, which keep the order of the points, do
    ts, pts = grid._floats, grid.points
    i = int(ts.searchsorted(r / 2.0, "right"))
    j = int(ts.searchsorted(1.5 * r))
    far_lo, near, far_hi = ((ts[:i], pts[:i]), (ts[i:j], pts[i:j]),
                            (ts[j:], pts[j:]))
    main = 2.0 / 3.0 < r < 4.0
    mid = (r / 2.0, 1.5 * r)

    def sup(on, window, weight, cands, bounds, scale=1.0):
        # 0.0 when the regime is off, else the sup over the dilations cands,
        # a pair (floats, exact points or None), of the integral of
        # weight(s, dlo, dhi) against |f| over the windows window(ts),
        # divided by scale
        if not on:
            return 0.0

        def at(ts, _):
            return _profile_integrals(
                f, *window(np.asarray(ts)),
                lambda s, dlo, dhi, rows: weight(s, dlo, dhi),
                quad, absolute=True) / scale

        return _sup_over_dilations(at, [(*cands, bounds, h)], E)[0][0]

    def centred(ts):
        return np.abs(r - ts), r + ts

    if d >= 3:
        w_pow = d - 2.0
        # the remainders run over the whole dilation interval [1, 2]
        hi_t = min(2.0, r / 2.0)
        lo_t = max(1.0, 1.5 * r)
        return {
            "mainpart": sup(main, centred, lambda s, dlo, dhi: s ** w_pow,
                            near, mid),
            "remainder1": sup(r >= 2.0, lambda ts: (r - ts, r + ts),
                              lambda s, dlo, dhi: 1.0,
                              (np.linspace(1.0, hi_t, 33), None), (1.0, hi_t)),
            "remainder2": sup(r < 4.0 / 3.0 and lo_t <= 2.0,
                              lambda ts: (ts - r, ts + r),
                              lambda s, dlo, dhi: 1.0,
                              (np.linspace(lo_t, 2.0, 33), None), (lo_t, 2.0), r),
        }

    outer = r >= 2.0
    inner = r < 4.0 / 3.0
    low = (0.0, r / 2.0)
    high = (1.5 * r, math.inf)
    sqrt_r = math.sqrt(r)
    return {
        "mainpart": sup(main, centred,
                        lambda s, dlo, dhi: np.sqrt(s) / np.sqrt(dlo), near, mid),
        "mainpart_tilde": sup(main, centred,
                              lambda s, dlo, dhi: np.sqrt(s) / np.sqrt(dhi),
                              near, mid),
        "remainder1": sup(outer, lambda ts: (r - ts, np.full_like(ts, r)),
                          lambda s, dlo, dhi: 1.0 / np.sqrt(dlo), far_lo, low),
        "remainder2": sup(outer, lambda ts: (np.full_like(ts, r), r + ts),
                          lambda s, dlo, dhi: 1.0 / np.sqrt(dhi), far_lo, low),
        "remainder3": sup(inner, lambda ts: (ts - r, ts),
                          lambda s, dlo, dhi: 1.0 / np.sqrt(dlo), far_hi, high,
                          scale=sqrt_r),
        "remainder4": sup(inner, lambda ts: (ts, ts + r),
                          lambda s, dlo, dhi: 1.0 / np.sqrt(dhi), far_hi, high,
                          scale=sqrt_r),
    }


_CIRCULAR_STEPS = 4096


def circular_components(f: RadialProfile, r) -> dict[str, float]:
    """Averaged (U) and sliding-window (R) functionals over dilations in
    [1, 2] that dominate the square of the circular maximal function of a
    piecewise constant profile; evaluated in closed form on a dense grid."""
    r = _radius(r)
    for pc in f.pieces:
        if pc.a_pow != 0.0 or pc.b_pow != 0.0:
            raise ParameterError(
                "closed-form window functionals need a piecewise constant profile")
    out = {"U": 0.0, "R": 0.0}
    if r > 0.5:
        t = np.linspace(1.0, min(2.0, 2.0 * r), _CIRCULAR_STEPS)
        lo_w = np.abs(r - t)
        hi_w = r + t
        acc = np.zeros_like(t)
        for pc in f.pieces:
            a = np.maximum(lo_w, float(pc.lo))
            b = np.minimum(hi_w, float(pc.hi))
            m = b > a
            acc[m] += abs(pc.coeff) * 0.5 * (b[m] ** 2 - a[m] ** 2)
        out["U"] = float(acc.max() / r)
    if r <= 1.0:
        t = np.linspace(max(1.0, 2.0 * r), 2.0, _CIRCULAR_STEPS)
        acc = np.zeros_like(t)
        for pc in f.pieces:
            ov = (np.minimum(t + r, float(pc.hi))
                  - np.maximum(t - r, float(pc.lo)))
            acc += abs(pc.coeff) * np.clip(ov, 0.0, None)
        out["R"] = float(acc.max() / r)
    return out
