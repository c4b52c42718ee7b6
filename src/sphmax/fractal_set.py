"""Exact dilation sets in [1, 2] and their covering statistics.

A dilation set is a finite union of disjoint closed intervals with rational
endpoints (degenerate intervals are points). Everything combinatorial here
(covering numbers, cell counts, neighborhood measures) is computed in exact
rational arithmetic; floating point enters only through logarithms and
regression when estimating dimensions.

Conventions pinned for determinism:
  * one greedy count, the left-to-right sweep (optimal for subsets of the
    line), serves the global, local and windowed covering numbers, and
    one merge walk serves every union of intervals;
  * binary cells are half-open [m 2^j, (m+1) 2^j), tiling the line so that
    every point lies in exactly one cell;
  * the window search of estimate_dimensions (the spectrum, the
    quasi-Assouad and Assouad estimates and the windowed characteristic)
    uses dyadic window lengths anchored at interval endpoints of the set,
    a documented constant-factor stand-in for the sup over all windows.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

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


def as_rational(value, error=ParameterError, what: str = "value") -> Fraction:
    """Coerce to Fraction, refusing floats (inexact) outright."""
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


def _scale(delta, upper=_ONE) -> Fraction:
    d = as_rational(delta, InvalidScaleError, "scale")
    if not 0 < d <= upper:
        raise InvalidScaleError(f"scale must lie in (0, {upper}], got {d}")
    return d


@dataclass(frozen=True)
class FractalSet:
    """Immutable union of disjoint closed rational intervals in [1, 2].

    depth records the generator truncation level (0 for primitive sets);
    generator is the canonical expression that rebuilds the set.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    depth: int = 0
    generator: str = ""

    @property
    def endpoints(self) -> tuple[Fraction, ...]:
        seen = []
        for a, b in self.intervals:
            seen.append(a)
            if b != a:
                seen.append(b)
        return tuple(seen)

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
        """Index of the last component starting at or left of x, or -1."""
        return bisect.bisect_right(self.intervals, x, key=itemgetter(0)) - 1

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


def _normalize(raw, depth: int, generator: str) -> FractalSet:
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
    lo, hi = merged[0][0], merged[-1][1]
    if lo < 1 or hi > 2:
        raise ParameterError(f"dilation sets must stay inside [1, 2], got hull [{lo}, {hi}]")
    return FractalSet(tuple(merged), depth, generator)


# ---------------------------------------------------------------- generators

def from_intervals(intervals, depth: int = 0, generator: str = "") -> FractalSet:
    """Validate, sort and merge raw rational (lo, hi) pairs into a set."""
    return _normalize(intervals, depth, generator)


def full_interval() -> FractalSet:
    return _normalize([(1, 2)], 0, "interval")


def finite_points(points) -> FractalSet:
    pts = [as_rational(p, ParameterError, "point") for p in points]
    expr = "points(" + ", ".join(str(p) for p in sorted(set(pts))) + ")"
    return _normalize([(p, p) for p in pts], 0, expr)


def middle_cantor(alpha, depth: int) -> FractalSet:
    """Iteratively remove the open middle alpha-fraction of every interval."""
    a = as_rational(alpha, ParameterError, "alpha")
    if not 0 < a < 1:
        raise ParameterError(f"removal ratio must lie in (0, 1), got {a}")
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise ParameterError(f"depth must be a non-negative integer, got {depth!r}")
    keep = (1 - a) / 2
    cells = [(_ONE, _TWO)]
    for _ in range(depth):
        nxt = []
        for lo, hi in cells:
            w = (hi - lo) * keep
            nxt.append((lo, lo + w))
            nxt.append((hi - w, hi))
        cells = nxt
    return _normalize(cells, depth, f"cantor(alpha={a}, depth={depth})")


def _check_count(count) -> None:
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ParameterError(f"count must be a positive integer, got {count!r}")


def geometric_sequence(base, count: int) -> FractalSet:
    """Points 2 - base**(-n) for n = 1..count, together with 2 itself."""
    b = as_rational(base, ParameterError, "base")
    if b <= 1:
        raise ParameterError(f"base must exceed 1, got {b}")
    _check_count(count)
    pts = [(2 - b ** -n) for n in range(1, count + 1)]
    pts.append(_TWO)
    return _normalize([(p, p) for p in pts], count,
                      f"geometric(base={b}, count={count})")


def power_sequence(exponent, count: int) -> FractalSet:
    """Points 1 + n**(-a) for n = 1..count, together with 1 itself.

    Non-integer exponents give irrational points; these are snapped to
    nearby rationals (denominator <= 2**48), which moves each point by far
    less than any scale the estimators may legally probe.
    """
    _check_count(count)
    rat = None if isinstance(exponent, float) else as_rational(
        exponent, ParameterError, "exponent")
    a = float(exponent) if rat is None else float(rat)
    if a <= 0:
        raise ParameterError(f"exponent must be positive, got {exponent!r}")
    pts = [_ONE]
    for n in range(1, count + 1):
        if rat is not None and rat.denominator == 1:
            pts.append(1 + Fraction(1, n ** rat.numerator))
        else:
            val = float(n) ** -a
            if val == 0.0:
                raise ParameterError(f"exponent {exponent!r} underflows at n={n}")
            pts.append(1 + Fraction(val).limit_denominator(2 ** 48))
    label = str(rat) if rat is not None else repr(exponent)
    return _normalize([(p, p) for p in pts], count,
                      f"powerseq(exponent={label}, count={count})")


def arithmetic_progression(u, delta, m: int) -> FractalSet:
    """m points u, u + delta, ..., u + (m-1) delta."""
    start = as_rational(u, ParameterError, "anchor")
    step = as_rational(delta, ParameterError, "spacing")
    if step <= 0:
        raise ParameterError(f"spacing must be positive, got {step}")
    _check_count(m)
    pts = [start + k * step for k in range(m)]
    return _normalize([(p, p) for p in pts], m,
                      f"progression(u={start}, delta={step}, m={m})")


def union_of(*sets: FractalSet) -> FractalSet:
    if not sets:
        raise ParameterError("union of nothing")
    raw = [iv for s in sets for iv in s.intervals]
    expr = "union(" + ", ".join(s.generator or "?" for s in sets) + ")"
    return _normalize(raw, max(s.depth for s in sets), expr)


_TOKEN = re.compile(r"\s*([A-Za-z_]+|\(|\)|,|=|-?\d+(?:/\d+|\.\d+)?)")


def parse_set(expr: str) -> FractalSet:
    """Build a set from a generator expression.

    Grammar: interval | points(r, ...) | cantor(alpha=, depth=)
           | geometric(base=, count=) | powerseq(exponent=, count=)
           | progression(u=, delta=, m=) | union(expr, ...).
    Arguments may be positional in the order shown. Rational literals only.
    """
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            raise ConfigError(f"bad set expression near {expr[pos:pos + 12]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)

    def parse_node(i):
        name = tokens[i]
        if not isinstance(name, str) or not name[0].isalpha():
            raise ConfigError(f"expected a generator name, got {name!r}")
        i += 1
        if tokens[i] != "(":
            if name == "interval":
                return full_interval(), i
            raise ConfigError(f"generator {name!r} needs an argument list")
        i += 1
        args, kwargs = [], {}
        if tokens[i] != ")":
            while True:
                tok, nxt = tokens[i], tokens[i + 1]
                named = isinstance(tok, str) and tok[0].isalpha()
                if named and nxt == "=":
                    val, i = parse_value(i + 2)
                    kwargs[tok] = val
                elif named and nxt == "(":
                    sub, i = parse_node(i)
                    args.append(sub)
                elif tok == "interval":
                    args.append(full_interval())
                    i += 1
                else:
                    val, i = parse_value(i)
                    args.append(val)
                if tokens[i] == ",":
                    i += 1
                    continue
                break
        if tokens[i] != ")":
            raise ConfigError(f"unbalanced parentheses in set expression {expr!r}")
        return build(name, args, kwargs), i + 1

    def parse_value(i):
        tok = tokens[i]
        if not isinstance(tok, str) or tok[0].isalpha():
            raise ConfigError(f"expected a number, got {tok!r}")
        return Fraction(tok), i + 1

    def take(kwargs, args, names):
        got = list(args)
        out = []
        for n in names:
            if n in kwargs:
                out.append(kwargs.pop(n))
            elif got:
                out.append(got.pop(0))
            else:
                raise ConfigError(f"missing argument {n!r} in set expression")
        if kwargs or got:
            extra = list(kwargs) + got
            raise ConfigError(f"unexpected arguments {extra} in set expression")
        return out

    def as_count(v, what):
        f = v if isinstance(v, Fraction) else Fraction(v)
        if f.denominator != 1 or f <= 0:
            raise ConfigError(f"{what} must be a positive integer, got {v}")
        return int(f)

    def build(name, args, kwargs):
        try:
            if name == "interval":
                take(kwargs, args, [])
                return full_interval()
            if name == "points":
                if kwargs or not args:
                    raise ConfigError("points(...) takes positional rationals")
                return finite_points(args)
            if name == "cantor":
                alpha, depth = take(kwargs, args, ["alpha", "depth"])
                return middle_cantor(alpha, as_count(depth, "depth"))
            if name == "geometric":
                base, count = take(kwargs, args, ["base", "count"])
                return geometric_sequence(base, as_count(count, "count"))
            if name == "powerseq":
                exponent, count = take(kwargs, args, ["exponent", "count"])
                return power_sequence(exponent, as_count(count, "count"))
            if name == "progression":
                u, delta, m = take(kwargs, args, ["u", "delta", "m"])
                return arithmetic_progression(u, delta, as_count(m, "m"))
            if name == "union":
                if kwargs or not args:
                    raise ConfigError("union(...) takes generator expressions")
                if not all(isinstance(a, FractalSet) for a in args):
                    raise ConfigError("union arguments must be generator expressions")
                return union_of(*args)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"unknown generator {name!r}")

    node, end = parse_node(0)
    if tokens[end] is not None:
        raise ConfigError(f"trailing input in set expression {expr!r}")
    return node


# ------------------------------------------------------------------ coverings

def _meeting(pairs, lo, hi) -> tuple[int, int]:
    """Index range [first, stop) of the sorted disjoint pairs meeting [lo, hi];
    only the first can start left of lo and only the last end right of hi."""
    first = bisect.bisect_left(pairs, lo, key=itemgetter(1))
    return first, bisect.bisect_right(pairs, hi, first, key=itemgetter(0))


def _cover_count(pairs, lo, hi, step) -> int:
    """Greedy count of closed length-step intervals covering the sorted
    disjoint pairs clipped to [lo, hi]; 0 when nothing is left. Exact for
    ints and Fractions alike."""
    first, stop = _meeting(pairs, lo, hi)
    last = stop - 1
    count = 0
    covered = None
    for k in range(first, stop):
        a, b = pairs[k]
        if k == last and b > hi:
            b = hi
        if covered is None:
            start = a if a > lo else lo
        elif b <= covered:
            continue
        else:
            start = a if covered < a else covered
        need = -((start - b) // step) or 1
        count += need
        covered = start + need * step
    return count


def covering_number(E: FractalSet, delta) -> int:
    """Minimal number of closed intervals of length delta covering E."""
    d = _scale(delta)
    return _cover_count(E.intervals, E.intervals[0][0], E.intervals[-1][1], d)


def binary_covering_number(E: FractalSet, j: int) -> int:
    """Number of distinct cells [m 2^j, (m+1) 2^j) meeting E, j <= 0."""
    if not isinstance(j, int) or isinstance(j, bool) or j > 0:
        raise InvalidScaleError(f"cell exponent must be an integer <= 0, got {j!r}")
    cell = _TWO ** j
    # cells m..n as the span [m, n + 1], so adjacent runs touch and merge
    spans = sorted((int(a // cell), int(b // cell) + 1) for a, b in E.intervals)
    return sum(hi - lo for lo, hi in _merged(spans))


def neighborhood_measure(E: FractalSet, n: int) -> Fraction:
    """Measure of {r >= 0 : dist(r, E) <= 2**(1-n)}, exactly."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParameterError(f"neighborhood index must be a non-negative integer, got {n!r}")
    rad = _TWO ** (1 - n)
    grown = _merged((max(Fraction(0), a - rad), b + rad) for a, b in E.intervals)
    return sum((hi - lo for lo, hi in grown), Fraction(0))


def restrict(E: FractalSet, lo, hi) -> tuple[tuple[Fraction, Fraction], ...]:
    """Components of E clipped to the closed window [lo, hi]; may be empty."""
    first, stop = _meeting(E.intervals, lo, hi)
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
    return _cover_count(E.intervals, lo, hi, d)


def resolution(E: FractalSet) -> Fraction:
    """Finest feature: min of gaps and positive component lengths.

    A single interval (or point) constrains nothing and reports 0.
    """
    if len(E.intervals) == 1:
        return Fraction(0)
    feats = [E.intervals[i + 1][0] - E.intervals[i][1]
             for i in range(len(E.intervals) - 1)]
    feats += [b - a for a, b in E.intervals if b > a]
    return min(feats)


def separated_points(E: FractalSet, delta) -> list[Fraction]:
    """Greedy maximal subset of E with consecutive gaps >= delta."""
    d = _scale(delta, upper=_TWO)
    pts: list[Fraction] = []
    for a, b in E.intervals:
        start = a if not pts else max(a, pts[-1] + d)
        while start <= b:
            pts.append(start)
            start += d
    return pts


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


def _anchors(E: FractalSet) -> list[Fraction]:
    pts = sorted(set(E.endpoints))
    if len(pts) <= _DIMENSION_ANCHORS:
        return pts
    stride = -(-len(pts) // _DIMENSION_ANCHORS)
    picked = pts[::stride]
    if picked[-1] != pts[-1]:
        picked.append(pts[-1])
    return picked


def _window_counts(E: FractalSet, d: Fraction):
    """Yield (L, count) over dyadic windows of length L >= d anchored at set
    endpoints.

    Everything is rescaled to a common integer grid fine enough to hold the
    component endpoints, the scale and every dyadic window length, so the
    greedy counts stay exact while they run on machine integers. Anchor
    density adapts to the window length: long windows are nearly translation
    invariant, so they get proportionally fewer anchors.
    """
    jmax = 0
    L = _ONE
    while L / 2 >= d:
        jmax += 1
        L = L / 2
    dens = {d.denominator}
    for a, b in E.intervals:
        dens.add(a.denominator)
        dens.add(b.denominator)
    M = math.lcm(*dens) << jmax
    pairs = [(int(a * M), int(b * M)) for a, b in E.intervals]
    step = int(d * M)
    anchors = [int(e * M) for e in _anchors(E)]
    for j in range(jmax + 1):
        Lint = M >> j
        Lfrac = Fraction(1, 1 << j)
        per_j = max(4, min(len(anchors), (1 << j) + 4))
        stride = max(1, len(anchors) // per_j)
        for e in anchors[::stride]:
            for lo, hi in ((e, e + Lint), (e - Lint, e)):
                count = _cover_count(pairs, lo, hi, step)
                if count:
                    yield Lfrac, count


def _assouad_sup(df: float, gamma: float, n_full: int, windows) -> float:
    """Max of (df/L)**gamma * count over the (L, count) windows, starting
    from the full-hull value df**gamma * n_full."""
    best = df ** gamma * n_full
    for L, count in windows:
        val = (df / float(L)) ** gamma * count
        if val > best:
            best = val
    return best


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
    theta constraint. Characteristic tables are evaluated at the fitted
    exponents, clamped into [0, 1].
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
    windows = {d: tuple(_window_counts(E, d)) for d in ds}
    for d in ds:
        df = float(d)
        floors = {t: df ** t for t in ths}
        for L, count in windows[d]:
            if count < 2 or L < 2 * d:
                continue
            ratio = math.log(count) / math.log(float(L) / df)
            if ratio > assouad:
                assouad = ratio
            Lf = float(L)
            for t in ths:
                if Lf >= floors[t] and ratio > spec[t]:
                    spec[t] = ratio

    quasi = spec[ths[-1]]
    beta_hat = min(1.0, max(0.0, float(slope)))
    gamma_hat = min(1.0, max(0.0, quasi))
    # the characteristics are defined for scales below 1 only
    char_m = tuple((d, float(d) ** beta_hat * n) for d, n in table if d < 1)
    char_a = tuple((d, _assouad_sup(float(d), gamma_hat, n, windows[d]))
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
