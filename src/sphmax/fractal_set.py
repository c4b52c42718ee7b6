"""Exact dilation sets in [1, 2] and their covering statistics.

A dilation set is a finite union of disjoint closed intervals with rational
endpoints (degenerate intervals are points), held once more as integers
over one denominator per set. Everything combinatorial here (covering
numbers, cell counts, neighborhood measures, separated points) runs on
those integers, exactly; Fractions appear only at the API edge, as the
intervals and the queries' results. Floating point enters only through
logarithms and regression when estimating dimensions.

Conventions pinned for determinism:
  * one greedy count, the left-to-right sweep (optimal for subsets of the
    line), serves the global, local and windowed covering numbers, and
    one merge walk serves every union of intervals;
  * binary cells are half-open [m 2^j, (m+1) 2^j), tiling the line so that
    every point lies in exactly one cell;
  * the window search of estimate_dimensions (the spectrum, the
    quasi-Assouad and Assouad estimates and the windowed characteristic)
    uses dyadic window lengths anchored at interval endpoints of the set,
    a documented constant-factor stand-in for the sup over all windows,
    and keeps one number per length: the largest count over its anchors.
"""

from __future__ import annotations

import ast
import bisect
import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    InvalidScaleError,
    InvalidWindowError,
    ParameterError,
)

_ONE = Fraction(1)
_TWO = Fraction(2)
# the most components a cantor or progression generator builds: a count
# past it (progression m = 10**9, cantor depth 40) would run for hours
_MAX_COMPONENTS = 2 ** 16


def as_rational(value, error=ParameterError, what: str = "value") -> Fraction:
    """Coerce to Fraction, refusing floats (inexact) outright."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise error(f"{what} must be rational, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise error(f"{what} {value!r} is not a rational literal") from exc
    raise error(f"{what} must be rational, got {type(value).__name__}")


def _over_lcm(xs) -> tuple[int, list[int]]:
    """The rationals xs over their least common denominator Q: (Q, the
    numerators)."""
    xs = list(xs)
    Q = math.lcm(*{x.denominator for x in xs})
    return Q, [x.numerator * (Q // x.denominator) for x in xs]


def _scale(delta, upper=_ONE) -> Fraction:
    d = as_rational(delta, InvalidScaleError, "scale")
    if not 0 < d <= upper:
        raise InvalidScaleError(f"scale must lie in (0, {upper}], got {d}")
    return d


@dataclass(frozen=True)
class FractalSet:
    """Immutable union of disjoint closed rational intervals in [1, 2];
    generator is the canonical expression that rebuilds the set."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    generator: str = ""
    # derived once, outside equality and repr: (M, the left ends times M,
    # the right ends times M), M the lcm of the endpoint denominators
    _grid: tuple[int, tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        M, ends = _over_lcm(x for iv in self.intervals for x in iv)
        object.__setattr__(self, "_grid", (M, tuple(ends[::2]),
                                           tuple(ends[1::2])))

    def component(self, x) -> tuple[Fraction, Fraction] | None:
        """The component of the set that holds x, or None."""
        i = self._last_start(x)
        if i >= 0 and x <= self.intervals[i][1]:
            return self.intervals[i]
        return None

    def nearest(self, x):
        """The point of the set nearest to x (x itself when inside); of two
        equally near points, the left one."""
        i = self._last_start(x)
        near = [min(max(x, a), b) for a, b in self.intervals[max(i, 0):i + 2]]
        return min(near, key=lambda c: abs(c - x))

    def _last_start(self, x) -> int:
        """Index of the last component starting at or left of x, or -1; on
        the integer left ends, exact for int, Fraction and float x."""
        M, los, _ = self._grid
        n, q = x.as_integer_ratio()
        return bisect.bisect_right(los, n * M // q) - 1

    def __str__(self) -> str:
        return self.generator or f"<set with {len(self.intervals)} components>"


def _merged(pairs) -> list:
    """Union of closed (lo, hi) pairs sorted by lo, as disjoint sorted pairs;
    pairs that touch are merged."""
    out = []
    for lo, hi in pairs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _normalize(raw, generator: str) -> FractalSet:
    pairs = []
    for lo, hi in raw:
        a = as_rational(lo, ParameterError, "interval endpoint")
        b = as_rational(hi, ParameterError, "interval endpoint")
        if b < a:
            raise ParameterError(f"interval [{a}, {b}] is reversed")
        pairs.append((a, b))
    if not pairs:
        raise ParameterError("a dilation set must be non-empty")
    merged = _merged(sorted(pairs))
    _check_hull(merged[0][0], merged[-1][1])
    return FractalSet(tuple(merged), generator)


def _check_hull(lo, hi) -> None:
    if lo < 1 or hi > 2:
        raise ParameterError(f"dilation sets must stay inside [1, 2], got hull [{lo}, {hi}]")


# ---------------------------------------------------------------- generators

def from_intervals(intervals) -> FractalSet:
    """Validate, sort and merge raw rational (lo, hi) pairs into a set."""
    return _normalize(intervals, "")


def full_interval() -> FractalSet:
    return _normalize([(1, 2)], "interval")


def finite_points(points) -> FractalSet:
    pts = [as_rational(p, ParameterError, "point") for p in points]
    expr = "points(" + ", ".join(str(p) for p in sorted(set(pts))) + ")"
    return _normalize([(p, p) for p in pts], expr)


def middle_cantor(alpha, depth: int) -> FractalSet:
    """Iteratively remove the open middle alpha-fraction of every interval."""
    a = as_rational(alpha, ParameterError, "alpha")
    if not 0 < a < 1:
        raise ParameterError(f"removal ratio must lie in (0, 1), got {a}")
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise ParameterError(f"depth must be a non-negative integer, got {depth!r}")
    if depth > math.log2(_MAX_COMPONENTS):
        raise ParameterError(f"depth {depth} builds 2**{depth} components, "
                             f"more than {_MAX_COMPONENTS}")
    # integer cells over D = (2q)**depth for alpha = p/q: each keeps
    # (q - p)/(2q) of its parent, and the cells of a generation are equally long
    den, keep = 2 * a.denominator, a.denominator - a.numerator
    D = w = den ** depth
    cells = [(D, 2 * D)]
    for _ in range(depth):
        w = w * keep // den
        cells = [c for lo, hi in cells for c in ((lo, lo + w), (hi - w, hi))]
    # the cells are sorted, disjoint and inside [1, 2]: nothing to normalize
    return FractalSet(tuple((Fraction(lo, D), Fraction(hi, D)) for lo, hi in cells),
                      f"cantor(alpha={a}, depth={depth})")


def _check_count(count) -> None:
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ParameterError(f"count must be a positive integer, got {count!r}")


def geometric_sequence(base, count: int) -> FractalSet:
    """Points 2 - base**(-n) for n = 1..count, together with 2 itself."""
    b = as_rational(base, ParameterError, "base")
    if b <= 1:
        raise ParameterError(f"base must exceed 1, got {b}")
    _check_count(count)
    # 2 - base**(-n) rises with n inside (1, 2): nothing to normalize
    pts = [2 - b ** -n for n in range(1, count + 1)] + [_TWO]
    return FractalSet(tuple((p, p) for p in pts), f"geometric(base={b}, count={count})")


def power_sequence(exponent, count: int) -> FractalSet:
    """Points 1 + n**(-a) for n = 1..count, together with 1 itself.

    Non-integer exponents give irrational points, snapped to nearby
    rationals (denominator <= 2**48) that move each point by far less than
    any scale the estimators may legally probe; points that snap alike merge.
    """
    _check_count(count)
    a = as_rational(exponent, ParameterError, "exponent")
    if a <= 0:
        raise ParameterError(f"exponent must be positive, got {a}")
    pts = []
    for n in range(1, count + 1):
        if a.denominator == 1:
            pts.append(1 + Fraction(1, n ** a.numerator))
        else:
            val = float(n) ** -float(a)
            if val == 0.0:
                raise ParameterError(f"exponent {a} underflows at n={n}")
            pts.append(1 + Fraction(val).limit_denominator(2 ** 48))
    # 1, then the points for n = count..1, rising but for snapped ties
    merged = _merged((p, p) for p in [_ONE, *reversed(pts)])
    return FractalSet(tuple(merged), f"powerseq(exponent={a}, count={count})")


def arithmetic_progression(u, delta, m: int) -> FractalSet:
    """m points u, u + delta, ..., u + (m-1) delta."""
    start = as_rational(u, ParameterError, "anchor")
    step = as_rational(delta, ParameterError, "spacing")
    if step <= 0:
        raise ParameterError(f"spacing must be positive, got {step}")
    _check_count(m)
    _check_hull(start, start + (m - 1) * step)
    if m > _MAX_COMPONENTS:
        raise ParameterError(f"m = {m} points, more than {_MAX_COMPONENTS}")
    # sorted distinct points over one denominator, in [1, 2]: nothing to normalize
    D, (a, s) = _over_lcm((start, step))
    pts = (Fraction(p, D) for p in range(a, a + m * s, s))
    return FractalSet(tuple((p, p) for p in pts),
                      f"progression(u={start}, delta={step}, m={m})")


def union_of(*sets: FractalSet) -> FractalSet:
    if not sets or not all(isinstance(s, FractalSet) for s in sets):
        raise ParameterError("union takes one or more sets")
    raw = [iv for s in sets for iv in s.intervals]
    expr = "union(" + ", ".join(s.generator or "?" for s in sets) + ")"
    return _normalize(raw, expr)


def _read_number(text: str, where: str) -> Fraction:
    """The rational that text spells, for a config value or an expression
    argument; a ConfigError naming where unless it fits a finite float."""
    try:
        # no float reaches 1e400; Fraction would build 10**exponent first
        if abs(int(text.lower().partition("e")[2] or 0)) > 400:
            raise ValueError(text)
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot read number {text!r} in {where}") from exc
    return value


def _read_expression(expr: str, table: dict, what: str) -> list:
    """The built terms of expr, joined by '+', each a name in table, bare
    or called; an argument is a term or a number, whatever Fraction reads
    from its text (an int when integral). Python's parser reads expr,
    evaluating nothing; every flaw in it is a ConfigError."""
    if not isinstance(expr, str):
        raise ConfigError(f"{what} expression must be a string, got {expr!r}")
    text = expr.strip()
    try:
        root = ast.parse(text, mode="eval").body
    # a nesting too deep for the parser is a RecursionError or a MemoryError
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"bad {what} expression: {exc}") from exc

    def number(node):
        value = _read_number(ast.get_source_segment(text, node),
                             f"{what} expression")
        return value.numerator if value.denominator == 1 else value

    def term(node):
        call = node if isinstance(node, ast.Call) else ast.Call(node, [], [])
        name = getattr(call.func, "id", None)
        if name not in table:
            raise ConfigError(
                f"unknown {what} term {ast.get_source_segment(text, call.func)!r}")
        args = [argument(a) for a in call.args]
        kwargs = {k.arg: argument(k.value) for k in call.keywords}
        try:
            inspect.signature(table[name]).bind(*args, **kwargs)
            return table[name](*args, **kwargs)
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    def argument(node):
        nested = isinstance(node, ast.Call) or getattr(node, "id", None) in table
        return term(node) if nested else number(node)

    terms = [root]
    while isinstance(terms[0], ast.BinOp) and isinstance(terms[0].op, ast.Add):
        terms[:1] = [terms[0].left, terms[0].right]
    return [term(node) for node in terms]


_SET_TERMS = {"interval": full_interval, "cantor": middle_cantor,
              "points": lambda *points: finite_points(points),
              "geometric": geometric_sequence, "powerseq": power_sequence,
              "progression": arithmetic_progression, "union": union_of}


def parse_set(expr: str) -> FractalSet:
    """Build a set from a generator expression: interval | points(r, ...)
    | cantor(alpha, depth) | geometric(base, count) | powerseq(exponent,
    count) | progression(u, delta, m) | union(expr, ...), each argument by
    position or by keyword."""
    terms = _read_expression(expr, _SET_TERMS, "set")
    if len(terms) > 1:
        raise ConfigError(f"a set expression is one generator, got {expr!r}")
    return terms[0]


# ------------------------------------------------------------------ coverings

def _on_grid(E: FractalSet, *xs: Fraction):
    """E's left ends, right ends and the rationals xs as integers over one
    denominator Q, the lcm of E's and theirs: (Q, los, his, xs)."""
    M, los, his = E._grid
    Q, (f, *xs) = _over_lcm((Fraction(1, M), *xs))
    if f != 1:
        los, his = [a * f for a in los], [b * f for b in his]
    return Q, los, his, xs


def _meeting(los, his, lo, hi) -> tuple[int, int]:
    """Index range [first, stop) of the sorted disjoint components
    (los[k], his[k]) meeting [lo, hi]; only the first can start left of lo
    and only the last end right of hi."""
    first = bisect.bisect_left(his, lo)
    return first, bisect.bisect_right(los, hi, first)


def _cover_count(los, his, lo, hi, step, walk=None) -> int:
    """Greedy count of closed length-step intervals covering the sorted
    disjoint integer components (los[k], his[k]) clipped to [lo, hi]; 0
    when nothing is left. Each cover skips the components it holds by
    bisection. Given the _walk of the whole set at this step, the count
    jumps to the last component from the first one both walks lay a cover
    from its left end: from there on the two walks agree."""
    laid, ends = walk or ((), ())
    k, stop = _meeting(los, his, lo, hi)
    last = stop - 1
    count = 0
    covered = lo
    while k < stop:
        a, b = los[k], his[k]
        if b > hi:
            b = hi
        start = a if a > covered else covered
        if ends and start == a and k < last and ends[k] < a:
            count += laid[last] - laid[k]
            covered = ends[last]
            k = last
        else:
            need = -((start - b) // step) or 1
            count += need
            covered = start + need * step
            k += 1
        if covered >= hi:
            break
        if k < stop and his[k] <= covered:
            k = bisect.bisect_right(his, covered, k, stop)
    return count


def _walk(los, his, step) -> tuple[list[int], list[int]]:
    """The greedy walk over all components at one step: per component, the
    covers laid before it and where the last of them ends."""
    laid, ends = [], []
    count, covered = 0, los[0] - 1
    for a, b in zip(los, his):
        laid.append(count)
        ends.append(covered)
        if b > covered:
            start = a if a > covered else covered
            need = -((start - b) // step) or 1
            count += need
            covered = start + need * step
    return laid, ends


def covering_number(E: FractalSet, delta) -> int:
    """Minimal number of closed intervals of length delta covering E."""
    _, los, his, (step,) = _on_grid(E, _scale(delta))
    return _cover_count(los, his, los[0], his[-1], step)


def binary_covering_number(E: FractalSet, j: int) -> int:
    """Number of distinct cells [m 2^j, (m+1) 2^j) meeting E, j <= 0."""
    if not isinstance(j, int) or isinstance(j, bool) or j > 0:
        raise InvalidScaleError(f"cell exponent must be an integer <= 0, got {j!r}")
    M, los, his = E._grid
    # cells m..n as the span [m, n + 1], so adjacent runs touch and merge
    spans = (((a << -j) // M, ((b << -j) // M) + 1) for a, b in zip(los, his))
    return sum(hi - lo for lo, hi in _merged(spans))


def neighborhood_measure(E: FractalSet, n: int) -> Fraction:
    """Measure of {r >= 0 : dist(r, E) <= 2**(1-n)}, exactly."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParameterError(f"neighborhood index must be a non-negative integer, got {n!r}")
    Q, los, his, (rad,) = _on_grid(E, _TWO ** (1 - n))
    grown = _merged((max(0, a - rad), b + rad) for a, b in zip(los, his))
    return Fraction(sum(hi - lo for lo, hi in grown), Q)


def restrict(E: FractalSet, lo, hi) -> tuple[tuple[Fraction, Fraction], ...]:
    """Components of E clipped to the closed window [lo, hi]; may be empty."""
    M, los, his = E._grid
    first, stop = _meeting(los, his, math.ceil(lo * M), math.floor(hi * M))
    return tuple((max(a, lo), min(b, hi)) for a, b in E.intervals[first:stop])


def local_covering_number(E: FractalSet, window, delta) -> int:
    """covering_number of E clipped to window; 0 on empty intersection."""
    try:
        lo = as_rational(window[0], InvalidWindowError, "window endpoint")
        hi = as_rational(window[1], InvalidWindowError, "window endpoint")
    except (TypeError, IndexError) as exc:
        raise InvalidWindowError(f"window must be a pair, got {window!r}") from exc
    d = _scale(delta)
    if hi - lo < d:
        raise InvalidWindowError(f"window [{lo}, {hi}] is shorter than the scale {d}")
    _, los, his, (lo, hi, step) = _on_grid(E, lo, hi, d)
    return _cover_count(los, his, lo, hi, step)


def resolution(E: FractalSet) -> Fraction:
    """Finest feature: min of gaps and positive component lengths.

    A single interval (or point) constrains nothing and reports 0.
    """
    M, los, his = E._grid
    if len(los) == 1:
        return Fraction(0)
    feats = [a - b for a, b in zip(los[1:], his)]
    feats += [b - a for a, b in zip(los, his) if b > a]
    return Fraction(min(feats), M)


def _separated(E: FractalSet, delta) -> tuple[int, list[int]]:
    """separated_points as integers over one denominator Q: (Q, the
    numerators), strictly increasing."""
    Q, los, his, (step,) = _on_grid(E, _scale(delta, upper=_TWO))
    pts = [los[0] - step]  # a sentinel one step left of E
    for a, b in zip(los, his):
        pts.extend(range(max(a, pts[-1] + step), b + 1, step))
    del pts[0]
    return Q, pts


def separated_points(E: FractalSet, delta) -> list[Fraction]:
    """Greedy maximal subset of E with consecutive gaps >= delta."""
    Q, pts = _separated(E, delta)
    return [Fraction(p, Q) for p in pts]


# ------------------------------------------------------------ characteristics

# How many set endpoints anchor the window search of estimate_dimensions,
# spread evenly beyond that.
_DIMENSION_ANCHORS = 256


def _unit_exponent(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} must be a number, got {value!r}") from exc
    if not 0 <= x <= 1:
        raise ParameterError(f"{what} must lie in [0, 1], got {x}")
    return x


def _anchors(los, his) -> list[int]:
    pts = [x for a, b in zip(los, his) for x in ((a,) if a == b else (a, b))]
    if len(pts) <= _DIMENSION_ANCHORS:
        return pts
    stride = -(-len(pts) // _DIMENSION_ANCHORS)
    picked = pts[::stride]
    if picked[-1] != pts[-1]:
        picked.append(pts[-1])
    return picked


def _window_counts(E: FractalSet, d: Fraction) -> list[int]:
    """Per dyadic window length 2**-j >= d, j = 0, 1, ..., the largest
    count over the windows of that length anchored at set endpoints, or 0
    when they all miss E.

    The counts run on the set's integer grid, refined once per scale to
    hold d and every dyadic window length as well, so they stay exact on
    integers. Anchor density adapts to the window length: long windows are
    nearly translation invariant, so they get proportionally fewer anchors.
    """
    jmax = (d.denominator // d.numerator).bit_length() - 1  # 2**-jmax >= d
    Q, los, his, (step, _) = _on_grid(E, d, Fraction(1, 1 << jmax))
    anchors = _anchors(los, his)
    walk = _walk(los, his, step)
    counts = []
    for j in range(jmax + 1):
        L = Q >> j
        per_j = max(4, min(len(anchors), (1 << j) + 4))
        stride = max(1, len(anchors) // per_j)
        counts.append(max(_cover_count(los, his, lo, hi, step, walk)
                          for e in anchors[::stride]
                          for lo, hi in ((e, e + L), (e - L, e))))
    return counts


@dataclass(frozen=True)
class DimensionReport:
    """Covering statistics and dimension estimates at the sampled scales."""

    covering_table: tuple[tuple[Fraction, int], ...]
    minkowski_estimate: float
    minkowski_residual: float
    spectrum: tuple[tuple[float, float], ...]
    quasi_assouad_estimate: float
    assouad_estimate: float
    char_minkowski: tuple[tuple[Fraction, float], ...]
    char_assouad: tuple[tuple[Fraction, float], ...]


def estimate_dimensions(E: FractalSet, scales,
                        thetas=(0.5, 0.7, 0.9)) -> DimensionReport:
    """Estimate box, spectrum, quasi-Assouad and Assouad quantities.

    scales must decrease and stay at or above the set's resolution; at
    least three are required for the regression. For each theta the
    spectrum value is the max of log N(E cap I, d) / log(|I|/d) over
    sampled windows with |I| >= d**theta; the Assouad estimate drops the
    theta constraint; both read only windows with |I| >= 2d and at least
    two covers. Characteristic tables are evaluated at the fitted
    exponents, clamped into [0, 1]. Every maximum here grows with the count
    at a fixed |I|, so only the largest count per length is read.
    """
    ds = [_scale(s) for s in scales]
    if len(ds) < 3:
        raise InsufficientDataError(f"need at least 3 scales, got {len(ds)}")
    if any(ds[i] <= ds[i + 1] for i in range(len(ds) - 1)):
        raise InvalidScaleError("scales must be strictly decreasing")
    res = resolution(E)
    if res > 0 and ds[-1] < res:
        raise InvalidScaleError(
            f"finest scale {ds[-1]} is below the set resolution {res}")
    ths = sorted(_unit_exponent(t, "theta") for t in thetas)
    if not ths or ths[0] <= 0 or ths[-1] >= 1:
        raise ParameterError("thetas must be a non-empty subset of (0, 1)")

    table = tuple((d, covering_number(E, d)) for d in ds)
    xs = np.array([math.log(1 / float(d)) for d, _ in table])
    ys = np.array([math.log(n) for _, n in table])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))

    spec = {t: 0.0 for t in ths}
    assouad = 0.0
    # per scale, (2**-j, the largest count in windows of that length)
    windows = {d: [(math.ldexp(1.0, -j), n)
                   for j, n in enumerate(_window_counts(E, d))] for d in ds}
    for d in ds:
        df = float(d)
        # 2**-j >= 2d exactly when j < jmax, as 2**-(jmax+1) < d <= 2**-jmax
        for L, count in windows[d][:-1]:
            if count < 2:
                continue
            ratio = math.log(count) / math.log(L / df)
            assouad = max(assouad, ratio)
            for t in ths:
                if L >= df ** t and ratio > spec[t]:
                    spec[t] = ratio

    quasi = spec[ths[-1]]
    beta_hat = min(1.0, max(0.0, float(slope)))
    gamma_hat = min(1.0, max(0.0, quasi))
    # the characteristics are defined for scales below 1 only
    char_m = tuple((d, float(d) ** beta_hat * n) for d, n in table if d < 1)
    # the whole set counts as one window of length 1
    char_a = tuple((d, max((float(d) / L) ** gamma_hat * count
                           for L, count in [(1.0, n), *windows[d]]))
                   for d, n in table if d < 1)
    return DimensionReport(
        covering_table=table,
        minkowski_estimate=float(slope),
        minkowski_residual=resid,
        spectrum=tuple((t, spec[t]) for t in ths),
        quasi_assouad_estimate=quasi,
        assouad_estimate=assouad,
        char_minkowski=char_m,
        char_assouad=char_a,
    )
