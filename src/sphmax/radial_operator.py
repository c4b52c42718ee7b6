"""Spherical means of radial profiles and maximal operators over dilation sets.

For radial data the spherical mean in R^d collapses to a one-dimensional
integral of the profile against a distance-distribution kernel supported on
[|r - t|, r + t]. Everything here is built on that reduction; spheres are
never sampled. One predicate of d and the kind of a profile's pieces,
_closed, sends a mean to a closed form, exact up to rounding, where one
exists: a profile whose pieces are all constant at d = 2 (an arc length on
the circle) and from d = 4 on (an incomplete beta function), and one with a
power piece and no log piece at d = 3 (a power of the window ends). Every
other mean is computed by quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DivergentNormError, DomainError,
                     ParameterError, PrecisionError, SingularityError)
from .fractal_set import (FractalSet, _over_lcm, _read_expression, _separated,
                          as_rational, resolution)
from .quadrature import (DEFAULT_QUAD, QuadratureSpec, _integrate_rows,
                         integrate)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# the least normal double, and why a d = 3 closed-form mean or a quadrature
# mean raises for it
_TINY = float(np.finfo(float).tiny)
_UNDERFLOW = "underflows below the normal floating-point range"


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
    # the first breakpoint to the one above the last; and the kind of its
    # pieces, "log" if one has a log power, else "power" if one has a
    # power, else "constant", which _closed routes its means by
    _table: tuple[tuple[float, float, ProfilePiece], ...] = field(
        init=False, repr=False, compare=False)
    _pieces: _PieceTable = field(init=False, repr=False, compare=False)
    _breaks: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _owner: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _kind: str = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_kind", "log" if any(
            pc.b_pow != 0.0 for pc in pcs) else "power" if any(
            pc.a_pow != 0.0 for pc in pcs) else "constant")

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
    if not a <= s <= b:
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
    r, t = float(r), float(t)
    if 4.0 * r * t < _TINY:
        return PrecisionError(f"the d = {d} kernel at r = {r!r}, t = {t!r} "
                              f"{_UNDERFLOW}")
    return PrecisionError(
        f"the kernel window of r = {r!r}, t = {t!r} rounds to "
        f"a width off by {drift:.3e} relative, which takes a d = {d} mean "
        f"past rel_tol = {quad.rel_tol:.3e}")


# Closed-form means, which _closed routes the rows of every profile to that has
# constant pieces only at d = 2 and from d = 4 on, or a power piece and no log
# piece at d = 3; d = 3 profiles of constant pieces, which one Kronrod round
# integrates exactly, and log pieces take the quadrature. A point at distance p
# from the origin sits on the sphere at the half angle phi(p) in [0, pi/2] from
# the sphere's nearest point, sin^2 phi = (p - |r - t|)(p + |r - t|) / (4rt)
# and cos^2 phi = (r + t - p)(r + t + p) / (4rt), with p - |r - t| and r + t -
# p from the rounded window ends and their exact rounding errors (Fast2Sum):
# they round once near their end, so a window narrower than an ulp of t
# resolves and no closed form needs the quadrature's window refusal.
# - d = 2: the angle is uniform, so the piece [lo, hi], each end clipped
#   to the window, takes the share (2/pi)(phi_h - phi_l): one atan2 of
#   sin(phi_h - phi_l) = (sin^2 phi_h - sin^2 phi_l) / (sin phi_h cos phi_l
#   + sin phi_l cos phi_h) and cos(phi_h - phi_l), with sin^2 phi_h - sin^2
#   phi_l = (hi - lo)(hi + lo) / (4rt), sin^2 phi_h or cos^2 phi_l when one
#   end is clipped, and 1 when both are: no term cancels.
# - d >= 4: x = cos^2 phi has the law of the regularized incomplete beta
#   I_x(m, m), m = (d - 1)/2, so the piece takes I_x(lo)(m, m) - I_x(hi)(m,
#   m) (Stein and Weiss 1971; DLMF 8.17), from I_x(1/2, 1/2) = 1 - 2 phi/pi
#   (even d), whose difference is the d = 2 share, or I_x(1, 1) = x (odd
#   d), whose difference is sin^2 phi_h - sin^2 phi_l, by steps I_x(k + 1,
#   k + 1) = I_x(k, k) - (1 - 2x) y^k / C_k, y = 4x(1 - x) <= 1 and C_k = k
#   4^k B(k, k), which neither under- nor overflow. The steps cancel between
#   the ends to some ulp of 1: within 9e-15 absolute of 40-digit mpmath up
#   to d = 600, and 1.3e-14 at d = 2000, so a share far below 1 keeps only
#   that absolute accuracy.
# - d = 3: the normalized kernel is s / (2rt), so the piece c s^a on [y0,
#   y1], cut to the window, takes c (y1^k - y0^k) / (k 2rt), k = a + 2, or
#   c log(y1 / y0) / (2rt) at k = 0, and a constant piece is the case k =
#   2. A narrow difference is y0^k expm1(k log1p(w / y0)), w = y1 - y0 from
#   the Fast2Sum ends: within 7e-16 of 40-digit mpmath, relative to the
#   larger of the mean and 1. At tiny radii the powers underflow, so a row
#   raises unless underflow can have taken at most 2^-43 of its sum and 2rt
#   and the mean are normal; a piece integral below 8 tiny / min(|k|, 1),
#   tiny the least normal double, may have lost all its digits.
# Each closed form takes (r, t) as floats for a row alone and as arrays for
# a batch, through the same IEEE operations, so a row has the same bits
# alone and in any batch. Transcendentals go through math, a row at a time:
# numpy's atan2, log, exp, expm1, log1p and power change their last bits
# with the SIMD loop they dispatch to; its sqrt does not.


def _each(fn, x, y):
    """fn(x[i], y[i]) at each index i of the arrays x and y, as an array."""
    return np.fromiter(map(fn, x.tolist(), y.tolist()), float, len(x))


def _pick(c, x, y):
    return x if c else y


def _call(fn, x, y):
    return fn(x, y)


def _closed_sum(d: int, f: RadialProfile, r, t):
    """The closed form's means of f at d, for one row (r, t) (floats) or
    several (arrays): the sum over the pieces of f, in order from 0.0, of
    coeff times the piece's closed form at each row whose window it meets
    (the angle phi_h - phi_l at d = 2, times 2/pi, the share I_x(lo)(m, m)
    - I_x(hi)(m, m) from d = 4 on, and the integral of s^(a+1) over the
    piece cut to the window at d = 3, over 2rt), but a d = 3 row that
    underflow may have taken digits from: it raises PrecisionError alone,
    and is nan in an array. up_* and down_* are the distances of the
    piece's ends up from |r - t| and down from r + t, from the exact window
    ends, positive when the end lies inside the window. Each window cut
    is written once: pick takes a clipped end's value by a conditional for
    a row alone and by np.where for rows, and call a transcendental by a
    plain call or through _each. Both sides of a pick are computed, so a
    row alone reads a 4rt that underflows to 0 as nan, as x / 0 in an
    array is inf or nan: the side not picked cannot raise."""
    many = isinstance(t, np.ndarray)
    pick, call, sqrt = ((np.where, _each, np.sqrt) if many
                        else (_pick, _call, math.sqrt))
    far, near = pick(r >= t, r, t), pick(r >= t, t, r)
    a = far - near
    b = far + near
    # the rounding errors of a and b, exactly (Fast2Sum)
    ea = (far - a) - near
    eb = near - (b - far)
    four = 4.0 * r * t
    window = a, ea, b, eb, near, four if many else four or math.nan
    total, lost = ((np.zeros(t.shape), np.zeros(t.shape)) if many
                   else (0.0, 0.0))     # lost: the sum's share to underflow
    for lo, hi, pc in f._table:
        a, ea, b, eb, near, four = window
        up_hi = (hi - a) - ea
        down_lo = (b - lo) + eb
        hit = None
        if many:
            hit = np.flatnonzero((up_hi > 0.0) & (down_lo > 0.0))
            if len(hit) == len(t):
                hit = None
            elif not len(hit):
                continue
            else:
                a, ea, b, eb, near, four = (x[hit] for x in window)
                up_hi, down_lo = up_hi[hit], down_lo[hit]
        elif not (up_hi > 0.0 and down_lo > 0.0):
            continue                    # the piece misses the window
        up_lo = (lo - a) - ea
        down_hi = (b - hi) + eb
        inner_lo, inner_hi = up_lo > 0.0, down_hi > 0.0
        if d == 3:
            # the piece cut to the window, [y0, y0 + w]
            y0 = pick(inner_lo, lo, a)
            w = pick(inner_lo, pick(inner_hi, hi - lo, down_lo),
                     pick(inner_hi, up_hi, 2.0 * near))
            v = _power_moment(pc, y0, w)
            # an integral that comes out at most small may have lost all of
            # it to underflow, and its product with coeff a subnormal
            small = 8.0 * _TINY / (min(abs(pc.a_pow + 2.0), 1.0) or 1.0)
            slack = ((abs(v) <= small) * 2.0 * small * abs(pc.coeff)
                     + math.ulp(0.0))
            if hit is None:
                lost += slack
            else:
                lost[hit] += slack
        else:
            # sin^2 and cos^2 of the half angle at each end, and sin^2
            # phi_h - sin^2 phi_l
            s2l = pick(inner_lo, up_lo * (lo + a) / four, 0.0)
            c2l = pick(inner_lo, down_lo * (lo + b) / four, 1.0)
            s2h = pick(inner_hi, up_hi * (hi + a) / four, 1.0)
            c2h = pick(inner_hi, down_hi * (hi + b) / four, 0.0)
            gap = pick(inner_lo, pick(inner_hi, (hi - lo) * (hi + lo) / four,
                                      c2l), s2h)
            if d % 2:
                v = _beta_share(d, s2l, c2l, s2h, c2h, gap, None)
            else:
                sl, cl, sh, ch = sqrt(s2l), sqrt(c2l), sqrt(s2h), sqrt(c2h)
                v = call(math.atan2, gap / (sh * cl + sl * ch),
                         ch * cl + sh * sl)
                if d > 2:
                    v = _beta_share(d, s2l, c2l, s2h, c2h, v,
                                    (sl, cl, sh, ch))
        if hit is None:
            total += pc.coeff * v
        else:
            total[hit] += pc.coeff * v
    if d != 3:
        return _norm_const(2) * total if d == 2 else total
    two = 2.0 * r * t
    # bad refuses a 2rt below the normal range, kept off 0 for a lone row;
    # nan compares false, so an overflow keeps its inf or nan
    mean = total / pick(two < _TINY, _TINY, two)
    bad = ((abs(total) < 2.0 ** 43 * lost) | (two < _TINY)
           | ((abs(mean) < _TINY) & (lost > 0.0)))
    if not many and bad:
        raise PrecisionError(_UNDERFLOW)
    return pick(bad, np.nan, mean)


@lru_cache(maxsize=64)
def _beta_steps(d: int) -> tuple[float, ...]:
    # 1 / C_k for the steps k = 1/2 or 1, ..., (d - 3)/2 from I_x(1/2, 1/2)
    # (even d) or I_x(1, 1) (odd d) to I_x((d - 1)/2, (d - 1)/2): C_{1/2} =
    # pi and C_1 = 4, and C_{k+1} = C_k 2(k + 1) / (2k + 1), with pi entering
    # once as its nearest double
    k = Fraction(1, 2) if d % 2 == 0 else Fraction(1)
    inv = 1 / Fraction(math.pi) if d % 2 == 0 else Fraction(1, 4)
    steps = []
    while k < Fraction(d - 1, 2):
        steps.append(float(inv))
        inv *= (2 * k + 1) / (2 * (k + 1))
        k += 1
    return tuple(steps)


def _horner(steps, y):
    # sum_j steps[j] y^j
    h = steps[-1]
    for inv in steps[-2::-1]:
        h = inv + y * h
    return h


def _beta_share(d: int, s2l, c2l, s2h, c2h, first, roots):
    """I_x(lo)(m, m) - I_x(hi)(m, m), m = (d - 1)/2, for d >= 4, stepped up
    from first: sin^2 phi_h - sin^2 phi_l for odd d, and phi_h - phi_l for
    even d, with the roots (sl, cl, sh, ch) of s2l, c2l, s2h and c2h."""
    yl = 4.0 * s2l * c2l
    yh = 4.0 * s2h * c2h
    if roots is None:
        start, pl, ph = first, yl, yh
    else:
        sl, cl, sh, ch = roots
        start, pl, ph = _norm_const(2) * first, 2.0 * sl * cl, 2.0 * sh * ch
    # the steps at each end, y^k / C_k summed by Horner's rule
    steps = _beta_steps(d)
    hl, hh = _horner(steps, yl), _horner(steps, yh)
    return start - ((s2l - c2l) * pl * hl - (s2h - c2h) * ph * hh)


def _power_gain(k: float, y0: float, w: float) -> float:
    """The integral of s^(k-1) over [y0, y0 + w], w > 0, for y0 > 0 or, when
    k > 0, y0 = 0: log1p(w / y0) at k = 0; else y0^k expm1(k log1p(w /
    y0)) / k while |k log1p(w / y0)| <= 1, where the powers would cancel
    and no factor under- or overflows alone, and the difference of the
    powers over k beyond. Raises PrecisionError where w / y0 or k times its
    log1p is below the normal range. It is the package's one integral of
    a power of s: the d = 3 means take it, through them the d >= 3
    decomposition components, and so do lp_norm's power pieces."""
    grow = math.log1p(w / y0) if y0 > 0.0 else math.inf
    if abs(k * grow) > 1.0:
        return (math.pow(y0 + w, k) - math.pow(y0, k)) / k
    if w > 0.0 and grow * (min(abs(k), 1.0) or 1.0) < _TINY:
        raise PrecisionError(_UNDERFLOW)
    if k == 0.0:
        return grow
    return math.pow(y0, k) * math.expm1(k * grow) / k


def _power_moment(pc: ProfilePiece, y0, w):
    """The integral of s^(a+1), a the power of the piece, over [y0, y0 +
    w], the piece cut to the window, at d = 3: for one row (floats) or
    several (arrays)."""
    k = pc.a_pow + 2.0
    if k <= 0.0 and pc.lo == 0 and np.any(y0 == 0.0):
        # the window reaches s = 0 just when r = t, and the integral of
        # s^(k-1) diverges there
        raise PrecisionError(
            f"diverges at s = 0 in the piece {pc.coeff!r} * s^{pc.a_pow!r} "
            f"on [{pc.lo}, {pc.hi}]")
    if isinstance(y0, np.ndarray):
        return _each(lambda y, x: _power_gain(k, y, x), y0, w)
    return _power_gain(k, y0, w)


# from this many rows of one profile on, a batch takes them at once; below
# it, row by row is cheaper than numpy's fixed cost per call
_ROWS_AT_ONCE = 24


def _closed(d: int, f: RadialProfile) -> bool:
    """Whether the means of f at d take the closed form, not the
    quadrature."""
    return f._kind == ("power" if d == 3 else "constant")


def _closed_row(d: int, f: RadialProfile, r: float, t: float) -> float:
    """The closed form's mean of f at one row (r, t); raises PrecisionError
    where it diverges, over- or underflows to no finite value, or at d = 3
    loses digits to underflow."""
    why = "has no finite value in floating point"
    try:
        v = _closed_sum(d, f, r, t)
    except ArithmeticError:
        v = math.nan
    except PrecisionError as exc:
        v, why = math.nan, str(exc)
    if not math.isfinite(v):
        raise PrecisionError(
            f"the closed-form d = {d} mean of {profile_expression(f)} at "
            f"r = {r!r}, t = {t!r} {why}")
    return v


def _closed_rows(d: int, f: RadialProfile, rs: np.ndarray,
                 ts: np.ndarray) -> np.ndarray:
    """The closed form's means of f at the rows (rs, ts), each bitwise
    _closed_row's: at once when they are _ROWS_AT_ONCE or more, and one by
    one otherwise or when one of them fails, so the first failing row is
    named."""
    if len(ts) >= _ROWS_AT_ONCE:
        with np.errstate(all="ignore"):
            try:
                v = _closed_sum(d, f, rs, ts)
            except (ArithmeticError, PrecisionError):
                v = None
        if v is not None and np.isfinite(v).all():
            return v
    return np.array([_closed_row(d, f, r, t)
                     for r, t in zip(rs.tolist(), ts.tolist())])


_LONE_ROW = np.zeros((1, 1), dtype=np.intp)


def _profile_integrals(f, los, his, weight, quad) -> np.ndarray:
    """Integral of weight(s, dlo, dhi, rows) * f(s) over [los[i], his[i]]
    for every row i; rows indexes los.

    f is one profile, or a sequence of one profile per row. A batch lays
    out every row at once, each cut at its own profile's breakpoints, and
    every panel between them carries the index of the piece it lies in,
    from one piece table of all the batch's profiles; a panel in a gap of
    its row's profile is dropped, so a row whose window misses the support
    is exactly 0.0. One integrand call per round then evaluates the tagged
    piece of every panel, however many profiles the batch holds. A lone
    row goes to integrate, the batch of one, with the profile's
    breakpoints and _owner as its tags, so it drops the panels a batch
    drops, from the same table, and takes values at every other node.
    Every row is bitwise its integral alone, but for a node that rounds
    onto or past the edge of a panel a few ulp wide: values adds every
    closed piece that holds such a node, a tag only the panel's."""
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
            return weight(s, dlo, dhi, _LONE_ROW) * f.values(s)

        return np.array([integrate(lone, los[0], his[0], quad, f._breaks,
                                   f._owner)])
    table, parts = _batch(profiles)

    def g(s, dlo, dhi, rows, tags):
        return weight(s, dlo, dhi, rows) * table.values(s, tags)

    return _integrate_rows(g, los, his, quad, parts, kind)


def _spherical_means(d: int, f, r, ts,
                     quad: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """Averages of the radial profile f (one for all, or one per radius)
    over the spheres of radii ts whose centers lie at distance r (one for
    all, or one per radius) from the origin; each is bitwise its
    spherical_mean. The rows of a sequence are grouped by profile once:
    the rows of each profile that _closed takes go to _closed_rows, the
    profiles in the order of their first rows, and every other row goes,
    in row order, to one quadrature batch. A PrecisionError names the
    first failing row of the first of those profiles that has one, else
    the first failing quadrature row."""
    _check_dim(d)
    ts = np.array(ts, dtype=float).ravel()
    rs = np.full(ts.shape, r, dtype=float)
    if not ((ts > 0.0) & (ts < math.inf) & (rs > 0.0) & (rs < math.inf)).all():
        raise DomainError("spherical mean radii must be positive and finite")

    if isinstance(f, RadialProfile):
        if _closed(d, f):
            return _closed_rows(d, f, rs, ts)
        return _norm_const(d) * _quad_sums(f, rs, ts, d, quad)
    groups = {}
    for i, p in enumerate(f):
        groups.setdefault(id(p), (p, []))[1].append(i)
    out = np.empty(ts.shape)
    rest = []
    for p, rows in groups.values():
        if _closed(d, p):
            rows = np.array(rows)
            out[rows] = _closed_rows(d, p, rs[rows], ts[rows])
        else:
            rest += rows
    if rest:
        rest.sort()
        out[rest] = _norm_const(d) * _quad_sums([f[i] for i in rest], rs[rest],
                                                ts[rest], d, quad)
    return out


def _quad_sums(f, rs: np.ndarray, ts: np.ndarray, d: int,
               quad: QuadratureSpec) -> np.ndarray:
    """The means of _spherical_means by quadrature, before _norm_const.
    Raises _window_error for the first row whose rounded window drifts too
    far or whose 4rt, which the kernel divides by, is below the normal
    range: for d >= 3 the kernel scales the drift up about d - 2 times; at
    d = 2 it keeps its mass on any window, but a piece end inside the
    window takes a share off by about the drift, and a window collapsed to
    one float, or to two adjacent ones, is off by much of its width."""
    los = np.abs(rs - ts)
    his = rs + ts
    drift = _window_drift(np.minimum(rs, ts), np.maximum(rs, ts), los, his)
    wide = (max(d - 2, 1) * drift > quad.rel_tol) | (4.0 * rs * ts < _TINY)
    if wide.any():
        i = int(wide.argmax())
        raise _window_error(d, rs[i], ts[i], drift[i], quad)

    def kern(s, dlo, dhi, rows):
        return _kernel_factor(d, rs[rows], ts[rows], s, dlo, dhi)

    return _profile_integrals(f, los, his, kern, quad)


def spherical_mean(d: int, f: RadialProfile, r, t,
                   quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Average of the radial profile f over the sphere of radius t whose
    center lies at distance r from the origin. _closed, of d and the kind
    of f's pieces, sends a profile of constant pieces at d = 2 or d >= 4,
    and one with a power piece and no log piece at d = 3, to a closed form,
    exact up to rounding; every other mean is a quadrature, a batch of one
    with the kernel taken at the scalar t."""
    _check_dim(d)
    r = _radius(r)
    t = _radius(t)
    if _closed(d, f):
        return _closed_row(d, f, r, t)

    lo = abs(r - t)
    hi = r + t
    drift = _window_drift(min(r, t), max(r, t), lo, hi)
    if max(d - 2, 1) * drift > quad.rel_tol or 4.0 * r * t < _TINY:
        raise _window_error(d, r, t, drift, quad)

    def kern(s, dlo, dhi, rows):
        return _kernel_factor(d, r, t, s, dlo, dhi)

    raw = _profile_integrals(f, (lo,), (hi,), kern, quad)
    return _norm_const(d) * float(raw[0])


# ---------------------------------------------------------------------------
# maximal operator over a dilation set


class _Lattice(Sequence):
    """The strictly increasing rationals numerators[k] / denominator as a
    read-only sequence: reading an element builds its Fraction, and a
    slice, unless it runs backwards, is another _Lattice. It equals the
    tuple of its Fractions, and hashes as that tuple does."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: tuple[int, ...], denominator: int):
        self.numerators = numerators
        self.denominator = denominator

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i):
        if not isinstance(i, slice):
            return Fraction(self.numerators[i], self.denominator)
        if (i.step or 1) < 0:
            return tuple(self)[i]
        return _Lattice(self.numerators[i], self.denominator)

    def __iter__(self):
        return map(Fraction, self.numerators, repeat(self.denominator))

    def __eq__(self, other):
        if isinstance(other, (tuple, _Lattice)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class DilationGrid:
    """Candidate dilations inside a set E plus the local search radius used
    to polish the best grid point. The points are held as integers over
    one denominator, and points reads them as Fractions, each built when
    it is read."""

    points: Sequence[Fraction]
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
        pts = self.points
        if not isinstance(pts, _Lattice):
            # a _Lattice holds points already checked; others are checked
            # and put over the lcm of their denominators
            pts = [as_rational(p, what="grid point") for p in pts]
            for prev, nxt in zip(pts, pts[1:]):
                if nxt <= prev:
                    raise ParameterError("grid points must be strictly increasing")
            Q, nums = _over_lcm(pts)
            pts = _Lattice(tuple(nums), Q)
        ref = as_rational(self.refinement, what="refinement radius")
        if ref < 0:
            raise ParameterError("refinement radius must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "refinement", ref)
        # int / int is correctly rounded, so bitwise float(Fraction)
        Q = pts.denominator
        floats = np.array([n / Q for n in pts.numerators])
        floats.flags.writeable = False
        object.__setattr__(self, "_floats", floats)

    @classmethod
    def from_set(cls, E: FractalSet, spacing=None) -> "DilationGrid":
        """Greedy spacing-separated grid through E, the points of
        separated_points. The default spacing is the finer of the set's
        resolution and 2**-12."""
        default = Fraction(1, 4096)
        if spacing is None:
            res = resolution(E)
            spacing = min(res, default) if res > 0 else default
        else:
            spacing = as_rational(spacing, what="grid spacing")
            if spacing <= 0:
                raise ParameterError("grid spacing must be positive")
        Q, nums = _separated(E, spacing)
        grid = cls(_Lattice(tuple(nums), Q), spacing)
        object.__setattr__(grid, "_source", E)
        return grid


def _grid_in(E: FractalSet, grid: DilationGrid | None) -> DilationGrid:
    """The grid, or from_set(E) when None, once one merge walk of the
    components of E, each taking the points up to its right end by
    bisection, finds every point inside E; the walk compares the integers
    of both, and a grid from_set drew from E skips it. Raises at the first
    point outside E."""
    if grid is None:
        return DilationGrid.from_set(E)
    if grid._source is E:
        return grid
    M, los, his = E._grid
    nums, Q = grid.points.numerators, grid.points.denominator
    # n / Q lies left of lo / M when n M < lo Q, and at most hi / M when
    # n <= hi Q // M
    j = 0
    for k in range(max(bisect_right(los, nums[0] * M // Q) - 1, 0), len(los)):
        if nums[j] * M < los[k] * Q:
            break
        j = bisect_right(nums, his[k] * Q // M, j)
        if j == len(nums):
            return grid
    raise ParameterError(
        f"grid point {grid.points[j]} lies outside the dilation set")


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
    nothing, so an error is raised where the lockstep raises it. On a
    shared 2-CPU host a 38-point call of quadrature means (an indicator at
    d = 3, a power and a log piece at d = 2) costs 0.2 to 0.45 ms, against
    1.1 to 2.4 ms point by point, and one of closed-form means (a power
    profile at d = 3, an indicator at d = 4) 0.06 ms, against 0.1 ms."""
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
    d; else it follows them."""
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
    """sup over t in E of |spherical mean| at radius r, approached by a
    grid sweep followed by golden-section polish inside the component of
    the best grid point. Returns the best value found and the dilation it
    is taken at, not the supremum itself.

    Every grid point must lie in E; the polish step then cannot leave E, so
    the value is a lower bound for the supremum: up to rounding where
    _closed sends the means to a closed form, and otherwise up to the
    quadrature error, which is the |K15 - G7| estimate and not a bound.
    Nothing measures how far below the supremum it lies. It is the batch of
    one of _maximal_values."""
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
        if lo == 0.0 and k <= -1.0:
            raise DivergentNormError(
                f"power {pc.a_pow:g} diverges at the origin for p = {p:g}")
        # the width from the exact ends: a narrow piece's integral is about
        # its width, which the rounded ends would take digits from
        return cp * _power_gain(k + 1.0, lo, float(pc.hi - pc.lo))
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
    integrates numerically. Raises DivergentNormError when infinite, and
    PrecisionError when a power piece is so narrow that its relative width
    underflows below the normal floating-point range."""
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


def _weighted_abs(f: RadialProfile, w: float) -> RadialProfile:
    """The profile s^(w-1) |f|: the pieces of f with |coeff| and a_pow +
    w - 1."""
    return RadialProfile(tuple(ProfilePiece(
        pc.lo, pc.hi, abs(pc.coeff), pc.a_pow + (w - 1.0), pc.b_pow)
        for pc in f.pieces))


def decomposition_components(d: int, E: FractalSet, f: RadialProfile, p, r,
                             quad: QuadratureSpec = DEFAULT_QUAD,
                             grid: DilationGrid | None = None) -> dict[str, float]:
    """Evaluate each piece of the pointwise decomposition of the maximal
    operator at radius r: the near-diagonal main part (with its reflected
    twin and one-sided remainders when d = 2) and the off-diagonal
    remainders, each 0.0 where its regime of r is off. Every grid point
    must lie in E.

    Each is a sup over t, a lower bound found as maximal_value finds one
    but from 0, not -1, in 30 golden steps, not 36, and over its own run of
    candidates, not the whole grid: the main parts take the grid points
    strictly between r/2 and 3r/2; at d = 2 the remainders take those at
    most r/2 or at least 3r/2, and from d = 3 on 33 dilations evenly spaced
    across [1, 2] at most r/2 or at least 3r/2, in E or not. A polish stays
    within the grid's refinement radius, the component's bounds and, from
    a grid point, its component of E. One _sup_over_dilations call sweeps
    every component in one batch and polishes them all in lockstep.

    p must be at least 1 but changes no sup: for d >= 3 the main part's
    power of s is (d-1)(1-1/p) - 1 + (d-1)/p = d - 2, and for d = 2 the
    g-weight s**(1/p) cancels against the s**(1/2 - 1/p) in front.

    For d >= 3 every component is a sup over t of the integral of
    s^w |f(s)| over the window [|r - t|, r + t], w = d - 2 for the main
    part and 0 for the remainders, remainder2's divided by r. The
    normalized d = 3 kernel is s / (2rt) (Stein and Weiss 1971), so that
    integral is 2rt times the d = 3 spherical mean of s^(w-1) |f|, which
    takes the closed form or the quadrature as any mean does. The d = 2
    components integrate |f|, the profile of f's pieces with |coeff|, over
    their windows by quadrature, against sqrt(s) (the main parts) or 1,
    over the root of the distance to the window's lower end (mainpart,
    remainder1 and remainder3) or upper end; remainder3 and remainder4
    are divided by sqrt(r)."""
    _check_dim(d)
    r = _radius(r)
    p = float(p)
    if not p >= 1.0:
        raise ParameterError(f"p must lie in [1, inf), got {p!r}")
    grid = _grid_in(E, grid)
    # the runs of grid points at most r/2, strictly between, and at least
    # 3r/2, cut where the floats, which keep the order of the points, do,
    # each with the bounds of its polish
    ts, pts = grid._floats, grid.points
    i = int(ts.searchsorted(r / 2.0, "right"))
    j = int(ts.searchsorted(1.5 * r))
    near = (ts[i:j], pts[i:j]), (r / 2.0, 1.5 * r)
    main = 2.0 / 3.0 < r < 4.0
    if d >= 3:
        hi_t = min(2.0, r / 2.0)
        lo_t = max(1.0, 1.5 * r)
        # name: (regime, candidates (floats, exact points or None), bounds,
        # w, divisor)
        table = {
            "mainpart": (main, *near, d - 2.0, 1.0),
            "remainder1": (r >= 2.0, (np.linspace(1.0, hi_t, 33), None),
                           (1.0, hi_t), 0.0, 1.0),
            "remainder2": (r < 4.0 / 3.0 and lo_t <= 2.0,
                           (np.linspace(lo_t, 2.0, 33), None), (lo_t, 2.0),
                           0.0, r)}
    else:
        far_lo = (ts[:i], pts[:i]), (0.0, r / 2.0)
        far_hi = (ts[j:], pts[j:]), (1.5 * r, math.inf)
        outer, inner, sqrt_r = r >= 2.0, r < 4.0 / 3.0, math.sqrt(r)
        # name: (regime, candidates, bounds, window ends as indices into
        # (|r - t|, r + t, r, t), whether sqrt(s) is in front, whether the
        # root is of the distance to the lower end, divisor)
        table = {
            "mainpart": (main, *near, (0, 1), True, True, 1.0),
            "mainpart_tilde": (main, *near, (0, 1), True, False, 1.0),
            "remainder1": (outer, *far_lo, (0, 2), False, True, 1.0),
            "remainder2": (outer, *far_lo, (2, 1), False, False, 1.0),
            "remainder3": (inner, *far_hi, (0, 3), False, True, sqrt_r),
            "remainder4": (inner, *far_hi, (3, 1), False, False, sqrt_r)}
    rows = [row for row in table.values() if row[0]]

    if d >= 3:
        profiles = [_weighted_abs(f, row[3]) for row in rows]
        scale = 2.0 * r / np.array([row[4] for row in rows])

        def eval_many(ts, k):
            # 2rt times the d = 3 mean of its s^(w-1) |f|, over the divisor
            ts = np.asarray(ts)
            return scale[k] * ts * _spherical_means(
                3, [profiles[c] for c in k], r, ts, quad)
    else:
        absf = _weighted_abs(f, 1.0)
        ends, root, at_lo, divisor = (np.array([row[n] for row in rows])
                                      for n in range(3, 7))

        def eval_many(ts, k):
            ts = np.asarray(ts)
            spans = np.abs(r - ts), r + ts, np.full_like(ts, r), ts
            root_k, at_lo_k = root[k], at_lo[k]

            def weight(s, dlo, dhi, rows):
                return np.where(root_k[rows], np.sqrt(s), 1.0) / np.sqrt(
                    np.where(at_lo_k[rows], dlo, dhi))

            return _profile_integrals(
                absf, np.choose(ends[k, 0], spans),
                np.choose(ends[k, 1], spans), weight, quad) / divisor[k]

    h = float(grid.refinement)
    found = iter(_sup_over_dilations(
        eval_many, [(*row[1], row[2], h) for row in rows], E))
    return {name: next(found)[0] if row[0] else 0.0
            for name, row in table.items()}


_CIRCULAR_STEPS = 4096


def circular_components(f: RadialProfile, r) -> dict[str, float]:
    """Averaged (U) and sliding-window (R) functionals over dilations in
    [1, 2] that dominate the square of the circular maximal function of a
    piecewise constant profile. Each is exact, up to rounding, at every
    point of a grid of _CIRCULAR_STEPS = 4096 dilations, so its max over
    the grid is a lower bound for its sup over t."""
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
