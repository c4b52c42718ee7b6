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
from .fractal_set import _over_lcm, as_rational
from .radial_operator import _check_dim

INCLUDED = "included"
EXCLUDED = "excluded"
RESTRICTED_WEAK = "restricted-weak-only"
UNKNOWN = "unknown"
_STATUSES = {INCLUDED, EXCLUDED, RESTRICTED_WEAK, UNKNOWN}

VERTEX_NAMES = ("Q1", "Q2", "Q3")
REGION_KINDS = ("Delta", "Q")


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


def _on_grid(points) -> list[tuple[int, int]]:
    """The points as integer pairs (x M, y M), M the lcm of the
    denominators of their coordinates: exact, so every sign, equality and
    order of the Fractions holds for the integers, which are cheaper."""
    _, nums = _over_lcm(c for p in points for c in (p.x, p.y))
    return list(zip(nums[::2], nums[1::2]))


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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
        grid = _on_grid(self.vertices)
        area2 = 0
        for i in range(n):
            a = grid[i]
            b = grid[(i + 1) % n]
            c = grid[(i + 2) % n]
            if a == b:
                raise ConsistencyError("duplicate consecutive vertices survive the merge")
            if _cross(a, b, c) < 0:
                raise ConsistencyError("vertices must run counterclockwise and convex")
            area2 += a[0] * b[1] - b[0] * a[1]
        if area2 <= 0:
            raise ConsistencyError("region is degenerate")


def _unit(value, what: str) -> Fraction:
    v = as_rational(value, what=what)
    if not 0 <= v <= 1:
        raise ParameterError(f"{what} must lie in [0, 1], got {v}")
    return v


def _dimensions(beta, gamma, gamma_star) -> tuple[Fraction, Fraction, Fraction]:
    """beta <= gamma <= gamma_star as Fractions in [0, 1], or ParameterError."""
    b = _unit(beta, "beta")
    g = _unit(gamma, "gamma")
    gs = _unit(gamma_star, "gamma_star")
    if not b <= g <= gs:
        raise ParameterError(
            f"need beta <= gamma <= gamma_star, got {b}, {g}, {gs}")
    return b, g, gs


def _theta(beta: Fraction, gamma: Fraction) -> Fraction:
    if beta == 1 and gamma == 1:
        return Fraction(1)
    return (1 - beta) / (2 * (gamma - beta))


def vertex(name: str, d: int, beta=None, gamma=None) -> RegionPoint:
    """Named vertex of the paper's two shapes: Q1(beta) on the diagonal,
    Q2(beta) below it, and the two-dimensional Q3(beta, gamma), the one
    that needs gamma."""
    _check_dim(d)
    if name not in VERTEX_NAMES:
        raise ParameterError(f"unknown vertex name {name!r}")
    if gamma is None and name != "Q3":
        b = _unit(beta, "beta")
    else:
        b, g, _ = _dimensions(beta, gamma, gamma)
    if name == "Q1":
        x = Fraction(d - 1) / (d - 1 + b)
        return RegionPoint(x, x)
    if name == "Q2":
        den = d * d - 1 + b
        return RegionPoint(Fraction(d * (d - 1)) / den, Fraction(d - 1) / den)
    # Q3: two-dimensional critical vertex
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
    return out


def _shape(d: int, b: Fraction, g, quadrilateral: bool) -> list[RegionPoint]:
    """Un-merged vertices of the paper's triangle O, Q2(beta), Q1 or of its
    d = 2 quadrilateral O, Q2(2*gamma - 1), Q3(beta, gamma), Q1."""
    q1 = vertex("Q1", d, b)
    if quadrilateral:
        return [_ORIGIN, vertex("Q2", d, 2 * g - 1), vertex("Q3", d, b, g), q1]
    return [_ORIGIN, vertex("Q2", d, b), q1]


def region(kind: str, d: int, beta=None, gamma=None) -> TypeSetRegion:
    """Bare closed polygon, every part included: "Delta" is the triangle
    O, Q2(beta), Q1, "Q" the d = 2 quadrilateral O, Q2(2*gamma - 1),
    Q3(beta, gamma), Q1, the two shapes that radial_type_set annotates.
    Duplicate vertices produced by degenerate parameters are merged."""
    _check_dim(d)
    if kind not in REGION_KINDS:
        raise ParameterError(f"unknown region kind {kind!r}")
    quad = kind == "Q"
    if quad:
        b, g, _ = _dimensions(beta, gamma, gamma)
        if d != 2:
            raise ParameterError(f"region kind {kind!r} exists only in dimension 2")
        if 2 * g < 1:
            raise ParameterError(
                f"region kind {kind!r} needs gamma >= 1/2, got {g}")
        # Q3 itself enforces the supercritical constraint 2*gamma >= beta + 1
    else:
        b, g = _unit(beta, "beta"), None
    return _statused_region(_shape(d, b, g, quad), {}, {},
                            "quadrilateral" if quad else "triangle", EXCLUDED,
                            default=INCLUDED)


@dataclass(frozen=True)
class CharacteristicFlags:
    """What is known about the dilation set's covering characteristics.

    None means "not established"; the region constructor then reports the
    parts of the boundary that depend on it as unknown."""

    minkowski_char_bounded: bool | None = None
    assouad_char_bounded: bool | None = None
    quasi_assouad_regular: bool | None = None


def _statused_region(points, vstat_map, estat_map, provenance, exterior,
                     default=UNKNOWN) -> TypeSetRegion:
    verts = _dedupe(points)
    n = len(verts)
    # an empty status map gives every vertex, or edge, the default without
    # hashing it
    vstat = (tuple(vstat_map.get(v, default) for v in verts) if vstat_map
             else (default,) * n)
    estat = ((default,) * n if not estat_map else
             tuple(estat_map.get((verts[i], verts[(i + 1) % n]), default)
                   for i in range(n)))
    return TypeSetRegion(tuple(verts), vstat, estat, provenance, exterior)


# d >= 3: the status of the critical segment [Q2, Q1] for each value of the
# Minkowski-characteristic flag, and the provenance it gives
_HIGHER_DIM = {True: (INCLUDED, "higher-dim-characteristic-bounded"),
               False: (EXCLUDED, "higher-dim-characteristic-unbounded"),
               None: (UNKNOWN, "higher-dim-characteristic-unknown")}


def radial_type_set(d: int, beta, gamma=None, gamma_star=None,
                    flags: CharacteristicFlags | None = None) -> TypeSetRegion:
    """Type-set region for the maximal operator restricted to radial data,
    with boundary statuses encoding exactly what is provable from the
    dimension data (beta, gamma, gamma_star) and the characteristic flags.

    Two shapes: for d >= 3 (and for the full interval) the triangle
    O, Q2(beta), Q1; for d = 2 with 2*gamma >= beta + 1, Q2 moves to
    Q2(2*gamma - 1) and Q3(beta, gamma) comes in before Q1."""
    _check_dim(d)
    gamma = beta if gamma is None else gamma
    b, g, gs = _dimensions(beta, gamma,
                           gamma if gamma_star is None else gamma_star)
    flags = flags or CharacteristicFlags()
    if (flags.quasi_assouad_regular is True and g > 0 and gs != g):
        raise ConsistencyError(
            "quasi-Assouad regular flag contradicts gamma_star != gamma")

    # d == 2 is supercritical when 2*gamma >= beta + 1
    sup = d == 2 and b < 1 and 2 * g >= b + 1
    _, q2, *rest = _shape(d, b, g, sup)
    q1 = rest[-1]

    if b == 1 or d >= 3:
        # the triangle; for the full interval its critical segment [Q2, Q1]
        # drops out, Q2 keeping restricted weak type in d = 2
        seg, prov = ((EXCLUDED, "interval-endpoint") if b == 1
                     else _HIGHER_DIM[flags.minkowski_char_bounded])
        vstat = {_ORIGIN: INCLUDED, q2: RESTRICTED_WEAK if d == 2 else seg}
        estat = {(_ORIGIN, q2): INCLUDED, (q1, _ORIGIN): INCLUDED}
        return _statused_region([_ORIGIN, q2, q1], vstat, estat, prov,
                                EXCLUDED, default=seg)

    base = 2 * g - 1 if sup else b
    exterior = (EXCLUDED if not sup or flags.quasi_assouad_regular is True
                else UNKNOWN)
    if (flags.minkowski_char_bounded is True
            and flags.assouad_char_bounded is True):
        # bounded characteristics: the whole closed polygon, matched by the
        # outer containment, with Q2 restricted weak type when supercritical
        return _statused_region(
            [_ORIGIN, q2, *rest], {q2: RESTRICTED_WEAK} if sup else {}, {},
            "2d-critical-endpoint" if sup else "2d-subcritical-endpoint",
            exterior, default=INCLUDED)
    # only the interior, [O, Q1) and (O, Q2(max{base, 2*gs - 1})) are
    # proved: a cut vertex Q2(2*gs - 1) goes in before q2 when it lies
    # beyond it
    cut = vertex("Q2", d, 2 * gs - 1) if 2 * gs - 1 > base else q2
    return _statused_region(
        [_ORIGIN, cut, q2, *rest], {_ORIGIN: INCLUDED},
        {(q1, _ORIGIN): INCLUDED, (_ORIGIN, cut): INCLUDED},
        "2d-supercritical-inclusion" if sup else "2d-subcritical-inclusion",
        exterior)


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
    *verts, pt = _on_grid((*reg.vertices, pt))
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
            if min(a[0], bb[0]) <= pt[0] <= max(a[0], bb[0]) and \
               min(a[1], bb[1]) <= pt[1] <= max(a[1], bb[1]):
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
    b, g, _ = _dimensions(beta, gamma, gamma)
    if g == 0:
        raise ParameterError("the supporting line needs gamma > 0")
    return (Fraction(1, 2) + (1 - g) * y
            + (1 - b / g) * ((1 + g) * y - Fraction(1, 2)) - x)


PROBE_FAMILIES = ("BallR", "AnnulusDelta", "SmallBallDelta", "SteinLog",
                  "EndpointLog", "Lorentz2D", "LocalAnnulus")


def predicted_probe_exponents(d: int, beta, gamma, gamma_star, p, q,
                              family: str) -> dict:
    """Theoretical scale exponents for one probe family at the exponent pair
    (p, q): the input norm and the lower-bound functional (a grid-and-polish
    lower bound, up to the quadrature's |K15 - G7| error estimate) both
    scale like (probe scale)**exponent, and gap = output - input. The probe
    scale always decreases to 0, so gap < 0 means the ratio blows up and the
    necessary condition at (1/p, 1/q) is violated. log entries refine ties:
    at gap = 0 a positive log_gap still blows up logarithmically."""
    _check_dim(d)
    if family not in PROBE_FAMILIES:
        raise ParameterError(f"unknown probe family {family!r}")
    b, g, gs = _dimensions(beta, gamma, gamma_star)
    x, y = _xy(p, q)

    extra = {}
    if family == "BallR":
        # scale = 1/R
        inp, out = -d * x, -d * y
    elif family == "AnnulusDelta":
        inp, out = x, Fraction(d) * y
    elif family == "SmallBallDelta":
        inp, out = d * x, (d - 1) + (1 - b) * y
    elif family == "SteinLog":
        inp, out = min(Fraction(0), d * x - (d - 1)), Fraction(0)
        extra = {"divergence":
                 "log-log" if x == Fraction(d - 1, d) else "none"}
    elif family == "EndpointLog":
        inp, out = Fraction(0), (1 - b) * y
        extra = {"input_log_exponent": Fraction(d - 1, d),
                 "output_log_exponent": Fraction(1),
                 "log_gap": Fraction(1, d)}
    elif family == "Lorentz2D":
        if d != 2:
            raise ParameterError("the Lorentz shell probe is two-dimensional")
        inp, out = x, min(Fraction(1, 2), 2 * y)
    else:  # LocalAnnulus
        if d != 2:
            raise ParameterError("the local annulus probe is two-dimensional")
        inp = x
        out = x + supporting_line_value(x, y, b, g)
    return {"input_exponent": inp, "output_exponent": out, "gap": out - inp,
            **extra}
