"""Exact rational geometry of L^p-improving type sets.

Regions live in the (1/p, 1/q) square on or below the diagonal. Every vertex,
edge test, and supporting-line value is computed in Fraction arithmetic, so
boundary membership is a decidable question rather than a float comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConsistencyError, ParameterError
from .fractal_set import as_rational
from .radial_operator import _check_dim

INCLUDED = "included"
EXCLUDED = "excluded"
RESTRICTED_WEAK = "restricted-weak-only"
UNKNOWN = "unknown"
_STATUSES = {INCLUDED, EXCLUDED, RESTRICTED_WEAK, UNKNOWN}

VERTEX_NAMES = ("P1", "P2", "P3", "Q1", "Q2", "Q3", "Q3tilde")
REGION_KINDS = ("Delta", "P", "Q", "Qtilde")


@dataclass(frozen=True, order=True)
class RegionPoint:
    """Exact point (x, y) = (1/p, 1/q) on or below the diagonal."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        x = as_rational(self.x, what="x coordinate")
        y = as_rational(self.y, what="y coordinate")
        if not 0 <= y <= x <= 1:
            raise ParameterError(f"point ({x}, {y}) outside 0 <= 1/q <= 1/p <= 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


_ORIGIN = RegionPoint(Fraction(0), Fraction(0))


def _cross(o: RegionPoint, a: RegionPoint, b: RegionPoint) -> Fraction:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


@dataclass(frozen=True)
class TypeSetRegion:
    """Convex polygon of exponent pairs with per-part provability statuses.

    vertex_status[i] annotates vertices[i]; edge_status[i] annotates the open
    segment from vertices[i] to vertices[i+1] (cyclically). exterior_status
    says what is known outside the polygon: "excluded" when the matching
    necessary condition is proved, "unknown" when only the inclusion half is.
    Collinear vertices are legal; they mark where an edge's status changes.
    """

    vertices: tuple[RegionPoint, ...]
    vertex_status: tuple[str, ...]
    edge_status: tuple[str, ...]
    provenance: str
    exterior_status: str = EXCLUDED

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3:
            raise ParameterError("a region needs at least three vertices")
        if len(self.vertex_status) != n or len(self.edge_status) != n:
            raise ParameterError("status lists must match the vertex count")
        if self.vertices[0] != _ORIGIN:
            raise ConsistencyError("regions start at the origin O")
        if self.vertex_status[0] != INCLUDED:
            raise ConsistencyError("O is always included")
        bad = (set(self.vertex_status) | set(self.edge_status)) - _STATUSES
        if bad:
            raise ParameterError(f"unrecognized statuses {sorted(bad)}")
        if self.exterior_status not in (EXCLUDED, UNKNOWN):
            raise ParameterError(f"bad exterior status {self.exterior_status!r}")
        area2 = Fraction(0)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            c = self.vertices[(i + 2) % n]
            if a == b:
                raise ConsistencyError("duplicate consecutive vertices survive the merge")
            if _cross(a, b, c) < 0:
                raise ConsistencyError("vertices must run counterclockwise and convex")
            area2 += a.x * b.y - b.x * a.y
        if area2 <= 0:
            raise ConsistencyError("region is degenerate")


def _unit(value, what: str) -> Fraction:
    v = as_rational(value, what=what)
    if not 0 <= v <= 1:
        raise ParameterError(f"{what} must lie in [0, 1], got {v}")
    return v


def _theta(beta: Fraction, gamma: Fraction) -> Fraction:
    if beta == 1 and gamma == 1:
        return Fraction(1)
    return (1 - beta) / (2 * (gamma - beta))


def vertex(name: str, d: int, beta=None, gamma=None) -> RegionPoint:
    """Named boundary vertex of the type-set regions; beta feeds the P1/P2/
    Q1/Q2/Q3tilde formulas, gamma feeds P3, and Q3 needs both."""
    _check_dim(d)
    if name not in VERTEX_NAMES:
        raise ParameterError(f"unknown vertex name {name!r}")
    b = _unit(beta, "beta") if beta is not None else None
    g = _unit(gamma, "gamma") if gamma is not None else None
    if b is not None and g is not None and b > g:
        raise ParameterError(f"need beta <= gamma, got {b} > {g}")

    def need(value, label):
        if value is None:
            raise ParameterError(f"vertex {name} needs {label}")
        return value

    if name in ("P1", "Q1"):
        b = need(b, "beta")
        x = Fraction(d - 1) / (d - 1 + b)
        return RegionPoint(x, x)
    if name == "Q2":
        b = need(b, "beta")
        den = d * d - 1 + b
        return RegionPoint(Fraction(d * (d - 1)) / den, Fraction(d - 1) / den)
    if name == "P2":
        b = need(b, "beta")
        den = d - b + 1
        return RegionPoint((d - b) / den, 1 / den)
    if name == "P3":
        g = need(g, "gamma")
        den = d * d - 1 + 2 * g
        return RegionPoint(Fraction(d * (d - 1)) / den, Fraction(d - 1) / den)
    if name == "Q3tilde":
        b = need(b, "beta")
        return RegionPoint((2 - b) / 2, Fraction(1, 2))
    # Q3: two-dimensional critical vertex
    b = need(b, "beta")
    g = need(g, "gamma")
    if d != 2:
        raise ParameterError("Q3 exists only in dimension 2")
    if b + 1 > 2 * g:
        raise ParameterError(f"Q3 needs beta + 1 <= 2*gamma, got beta={b}, gamma={g}")
    th = _theta(b, g)
    den = 2 * (1 + g * th)
    return RegionPoint((2 - b * (1 - th)) / den, 1 / den)


def _dedupe(points: list[RegionPoint]) -> list[RegionPoint]:
    out: list[RegionPoint] = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def region(kind: str, d: int, beta=None, gamma=None) -> TypeSetRegion:
    """Bare closed region of the given kind, every part included. Duplicate
    vertices produced by degenerate parameters are merged."""
    _check_dim(d)
    if kind not in REGION_KINDS:
        raise ParameterError(f"unknown region kind {kind!r}")
    b = _unit(beta, "beta")
    if kind == "Delta":
        points = [_ORIGIN, vertex("Q2", d, b), vertex("Q1", d, b)]
        prov = "triangle"
    elif kind == "P":
        g = _unit(gamma, "gamma")
        if b > g:
            raise ParameterError(f"need beta <= gamma, got {b} > {g}")
        points = [_ORIGIN, vertex("P3", d, gamma=g), vertex("P2", d, b),
                  vertex("P1", d, b)]
        prov = "general-region"
    else:
        g = _unit(gamma, "gamma")
        if d != 2:
            raise ParameterError(f"region kind {kind!r} exists only in dimension 2")
        if 2 * g < 1:
            raise ParameterError(
                f"region kind {kind!r} needs gamma >= 1/2, got {g}")
        # Q3 itself enforces the supercritical constraint 2*gamma >= beta + 1
        mid = vertex("Q3", d, b, g) if kind == "Q" else vertex("Q3tilde", d, b)
        points = [_ORIGIN, vertex("Q2", d, 2 * g - 1), mid, vertex("Q1", d, b)]
        prov = "quadrilateral" if kind == "Q" else "quadrilateral-tilde"
    return _statused_region(points, {}, {}, prov, EXCLUDED,
                            default_v=INCLUDED, default_e=INCLUDED)


@dataclass(frozen=True)
class CharacteristicFlags:
    """What is known about the dilation set's covering characteristics.

    None means "not established"; the region constructor then reports the
    parts of the boundary that depend on it as unknown."""

    minkowski_char_bounded: bool | None = None
    assouad_char_bounded: bool | None = None
    quasi_assouad_regular: bool | None = None


def _statused_region(points, vstat_map, estat_map, provenance, exterior,
                     default_v=UNKNOWN, default_e=UNKNOWN) -> TypeSetRegion:
    verts = _dedupe(points)
    vstat = tuple(vstat_map.get(v, default_v) for v in verts)
    estat = []
    n = len(verts)
    for i in range(n):
        pair = (verts[i], verts[(i + 1) % n])
        estat.append(estat_map.get(pair, default_e))
    return TypeSetRegion(tuple(verts), vstat, tuple(estat), provenance,
                         exterior)


def _inclusion_only(d: int, base, gs, rest, provenance, exterior) -> TypeSetRegion:
    """Region O, Q2(base), *rest (ending in Q1) of which only the interior,
    [O, Q1) and (O, Q2(max{base, 2*gs - 1})) are proved: a cut vertex
    Q2(2*gs - 1) goes in before Q2(base) when it lies beyond it."""
    q2 = vertex("Q2", d, base)
    cut = vertex("Q2", d, 2 * gs - 1) if 2 * gs - 1 > base else q2
    estat = {(rest[-1], _ORIGIN): INCLUDED, (_ORIGIN, cut): INCLUDED}
    return _statused_region([_ORIGIN, cut, q2, *rest], {_ORIGIN: INCLUDED},
                            estat, provenance, exterior)


def radial_type_set(d: int, beta, gamma=None, gamma_star=None,
                    flags: CharacteristicFlags | None = None) -> TypeSetRegion:
    """Type-set region for the maximal operator restricted to radial data,
    with boundary statuses encoding exactly what is provable from the
    dimension data (beta, gamma, gamma_star) and the characteristic flags."""
    _check_dim(d)
    b = _unit(beta, "beta")
    g = _unit(gamma, "gamma") if gamma is not None else b
    gs = _unit(gamma_star, "gamma_star") if gamma_star is not None else g
    if not b <= g <= gs:
        raise ParameterError(
            f"need beta <= gamma <= gamma_star, got {b}, {g}, {gs}")
    flags = flags or CharacteristicFlags()
    if (flags.quasi_assouad_regular is True and g > 0 and gs != g):
        raise ConsistencyError(
            "quasi-Assouad regular flag contradicts gamma_star != gamma")

    q1 = vertex("Q1", d, b)
    q2b = vertex("Q2", d, b)

    # full-interval behaviour: the critical segment [Q1, Q2] drops out
    if b == 1:
        vstat = {_ORIGIN: INCLUDED, q1: EXCLUDED,
                 q2b: RESTRICTED_WEAK if d == 2 else EXCLUDED}
        estat = {(_ORIGIN, q2b): INCLUDED, (q2b, q1): EXCLUDED,
                 (q1, _ORIGIN): INCLUDED}
        return _statused_region([_ORIGIN, q2b, q1], vstat, estat,
                                "interval-endpoint", EXCLUDED)

    if d >= 3:
        known = flags.minkowski_char_bounded
        if known is True:
            seg = INCLUDED
            prov = "higher-dim-characteristic-bounded"
        elif known is False:
            seg = EXCLUDED
            prov = "higher-dim-characteristic-unbounded"
        else:
            seg = UNKNOWN
            prov = "higher-dim-characteristic-unknown"
        vstat = {_ORIGIN: INCLUDED, q1: seg, q2b: seg}
        estat = {(_ORIGIN, q2b): INCLUDED, (q2b, q1): seg,
                 (q1, _ORIGIN): INCLUDED}
        return _statused_region([_ORIGIN, q2b, q1], vstat, estat, prov,
                                EXCLUDED)

    # d == 2 below
    both_bounded = (flags.minkowski_char_bounded is True
                    and flags.assouad_char_bounded is True)

    if 2 * g < b + 1:
        if both_bounded:
            # subcritical with bounded characteristics: the whole closed
            # triangle, matched by the easy outer containment
            return _statused_region(
                [_ORIGIN, q2b, q1], {}, {}, "2d-subcritical-endpoint",
                EXCLUDED, default_v=INCLUDED, default_e=INCLUDED)
        return _inclusion_only(d, b, gs, [q1], "2d-subcritical-inclusion",
                               EXCLUDED)

    # supercritical 2*gamma >= beta + 1
    q2g = vertex("Q2", d, 2 * g - 1)
    q3 = vertex("Q3", d, b, g)
    exterior = EXCLUDED if flags.quasi_assouad_regular is True else UNKNOWN
    if both_bounded:
        vstat = {_ORIGIN: INCLUDED, q2g: RESTRICTED_WEAK, q3: INCLUDED,
                 q1: INCLUDED}
        if q3 == q2g:
            vstat[q3] = RESTRICTED_WEAK
        return _statused_region(
            [_ORIGIN, q2g, q3, q1], vstat, {}, "2d-critical-endpoint",
            exterior, default_v=INCLUDED, default_e=INCLUDED)
    return _inclusion_only(d, 2 * g - 1, gs, [q3, q1],
                           "2d-supercritical-inclusion", exterior)


# ---------------------------------------------------------------------------
# membership


def _xy(p, q) -> tuple[Fraction, Fraction]:
    def coord(v, label):
        if v == math.inf:
            return Fraction(0)
        r = as_rational(v, what=label)
        if r < 1:
            raise ParameterError(f"{label} must be >= 1, got {r}")
        return 1 / r

    return coord(p, "p"), coord(q, "q")


def classify_point(reg: TypeSetRegion, x, y) -> str:
    """Exact location of the point (x, y) = (1/p, 1/q) relative to the
    region, mapped through the boundary statuses."""
    x = as_rational(x, what="x")
    y = as_rational(y, what="y")
    try:
        pt = RegionPoint(x, y)
    except ParameterError:
        return "outside"
    verts = reg.vertices
    n = len(verts)
    on_edge = None
    for i in range(n):
        a, bb = verts[i], verts[(i + 1) % n]
        c = _cross(a, bb, pt)
        if c < 0:
            return "outside"
        if c == 0:
            if pt == a:
                return _boundary(reg.vertex_status[i])
            if pt == bb:
                return _boundary(reg.vertex_status[(i + 1) % n])
            if min(a.x, bb.x) <= pt.x <= max(a.x, bb.x) and \
               min(a.y, bb.y) <= pt.y <= max(a.y, bb.y):
                on_edge = i
    if on_edge is not None:
        return _boundary(reg.edge_status[on_edge])
    return "interior"


def _boundary(status: str) -> str:
    if status == RESTRICTED_WEAK:
        return "boundary-restricted-weak"
    return f"boundary-{status}"


def membership(reg: TypeSetRegion, p, q) -> str:
    """Classify the exponent pair (p, q); p, q rational or math.inf."""
    x, y = _xy(p, q)
    return classify_point(reg, x, y)


# ---------------------------------------------------------------------------
# predicted probe exponents


def supporting_line_value(x, y, beta, gamma) -> Fraction:
    """Linear functional whose zero line supports the upper-right edge of the
    critical quadrilateral; positive strictly inside, negative beyond. It
    vanishes at Q2(2*gamma-1) identically in beta and at Q3(beta, gamma)."""
    x = as_rational(x, what="x")
    y = as_rational(y, what="y")
    b = _unit(beta, "beta")
    g = _unit(gamma, "gamma")
    if g == 0:
        raise ParameterError("the supporting line needs gamma > 0")
    if b > g:
        raise ParameterError(f"need beta <= gamma, got {b} > {g}")
    return (Fraction(1, 2) + (1 - g) * y
            + (1 - b / g) * ((1 + g) * y - Fraction(1, 2)) - x)


PROBE_FAMILIES = ("BallR", "AnnulusDelta", "SmallBallDelta", "SteinLog",
                  "EndpointLog", "Lorentz2D", "LocalAnnulus")


def predicted_probe_exponents(d: int, beta, gamma, gamma_star, p, q,
                              family: str) -> dict:
    """Theoretical scale exponents for one probe family at the exponent pair
    (p, q): the input norm and the lower-bound functional (a grid-and-polish
    lower bound, up to the quadrature's |G15 - G7| error estimate) both
    scale like (probe scale)**exponent, and gap = output - input. The probe
    scale always decreases to 0, so gap < 0 means the ratio blows up and the
    necessary condition at (1/p, 1/q) is violated. log entries refine ties:
    at gap = 0 a positive log_gap still blows up logarithmically."""
    _check_dim(d)
    if family not in PROBE_FAMILIES:
        raise ParameterError(f"unknown probe family {family!r}")
    b = _unit(beta, "beta")
    g = _unit(gamma, "gamma")
    gs = _unit(gamma_star, "gamma_star")
    if not b <= g <= gs:
        raise ParameterError(
            f"need beta <= gamma <= gamma_star, got {b}, {g}, {gs}")
    x, y = _xy(p, q)

    if family == "BallR":
        # scale = 1/R
        inp = -d * x
        out = -d * y
    elif family == "AnnulusDelta":
        inp = x
        out = Fraction(d) * y
    elif family == "SmallBallDelta":
        inp = d * x
        out = (d - 1) + (1 - b) * y
    elif family == "SteinLog":
        crit = Fraction(d, d - 1)
        inp = min(Fraction(0), d * x - (d - 1))
        out = Fraction(0)
        res = {"input_exponent": inp, "output_exponent": out,
               "gap": out - inp}
        res["divergence"] = "log-log" if x == 1 / crit else "none"
        return res
    elif family == "EndpointLog":
        res = {"input_exponent": Fraction(0),
               "output_exponent": (1 - b) * y,
               "gap": (1 - b) * y,
               "input_log_exponent": Fraction(d - 1, d),
               "output_log_exponent": Fraction(1),
               "log_gap": Fraction(1, d)}
        return res
    elif family == "Lorentz2D":
        if d != 2:
            raise ParameterError("the Lorentz shell probe is two-dimensional")
        inp = x
        out = min(Fraction(1, 2), 2 * y)
    else:  # LocalAnnulus
        if d != 2:
            raise ParameterError("the local annulus probe is two-dimensional")
        gap = supporting_line_value(x, y, b, g)
        return {"input_exponent": x, "output_exponent": x + gap, "gap": gap}
    return {"input_exponent": inp, "output_exponent": out, "gap": out - inp}
