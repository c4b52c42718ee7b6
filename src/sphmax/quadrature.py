"""Adaptive Gauss panel quadrature with endpoint regularization.

The integrands in this package live on an interval [lo, hi] and may blow up
like an inverse square root at either endpoint. Every panel is therefore
reparametrized quadratically toward the nearer endpoint (s = lo + u**2 resp.
s = hi - v**2), which turns an integrable algebraic endpoint singularity
into a smooth factor no matter how panel edges fall. Integrands receive,
alongside the sample points, the exact distances to both endpoints so they
never compute a catastrophic cancellation like s - lo themselves.

Integrand protocol: f(s, dlo, dhi) -> array, elementwise over numpy
arrays, with dlo = s - lo and dhi = hi - s supplied by the integrator. The
arrays are 2-D: one row holds the 7 + 15 abscissae of one panel, and one
call covers every panel of a refinement round.

Internally every call is a batch of independent integrals ("rows"). The
panels of all rows are evaluated together, one integrand call per round,
and each row refines its own worst panel in lockstep with the others, so a
row's value is bitwise the one it gets when integrated alone.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import PrecisionError

_NODES_LOW, _WEIGHTS_LOW = np.polynomial.legendre.leggauss(7)
_NODES_HIGH, _WEIGHTS_HIGH = np.polynomial.legendre.leggauss(15)
# one integrand call per panel covers both rules: 7 low nodes, then 15 high
_NODES = np.concatenate([_NODES_LOW, _NODES_HIGH])
_N_LOW = len(_NODES_LOW)


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for one integration task.

    The enforced budget is max(abs_tol, rel_tol * |estimate|,
    64 eps * (|estimate| + abs_tol)), the last term being the floor of
    double-precision noise; max_refinement bounds the bisection depth per
    panel before giving up.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_refinement: int = 26


DEFAULT_QUAD = QuadratureSpec()

_NOISE = 64.0 * np.finfo(float).eps
_MAX_SPLITS = 40_000
# rows integrated together; bounds the memory of one round, not a tuning knob
_CHUNK_ROWS = 256


def _budget(total: float, quad: QuadratureSpec) -> float:
    return max(quad.abs_tol, quad.rel_tol * abs(total),
               _NOISE * (abs(total) + quad.abs_tol))


def _layout(los: list, his: list, chunk: range, cuts: list, skip) -> list:
    """Initial panels of the rows in chunk that have hi > lo, grouped by row
    and left to right within it. A panel is a tuple
    (a, b, base, sign, dlo0, dhi0, row): on u in [a, b] it samples
    s = base + sign * u**2, at distances dlo0 + sign * u**2 and
    dhi0 - sign * u**2 from the ends of its row, so u = 0 sits on the
    nearer end. cuts is the sorted list of breakpoints; skip(a, b) maps the
    lists of panel edges in s to the panels to drop, as booleans."""
    rows, sa, sb = [], [], []
    for i in chunk:
        lo = los[i]
        hi = his[i]
        if not hi > lo:
            continue
        # a row without interior cut is cut at its midpoint, so both
        # endpoints get their own substituted panel
        inner = cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)]
        edges = [lo, *(inner or [lo + 0.5 * (hi - lo)]), hi]
        todo = list(zip(edges[-2::-1], edges[:0:-1]))
        while todo:
            a, b = todo.pop()
            # Every panel is reparametrized toward the nearer endpoint. The
            # map can regularize only one end, so a panel must not hug
            # both: when a breakpoint sits a hair inside an endpoint, the
            # wide leftover panel touches one singularity and leans on the
            # other, and gets bisected until each half is adjacent to at
            # most one endpoint.
            if a - lo < b - a and hi - b < b - a:
                mid = 0.5 * (a + b)
                todo += [(mid, b), (a, mid)]
                continue
            rows.append(i)
            sa.append(a)
            sb.append(b)
    if skip is not None and rows:
        keep = [not x for x in skip(sa, sb)]
        rows = list(compress(rows, keep))
        sa = list(compress(sa, keep))
        sb = list(compress(sb, keep))
    panels = []
    for i, a, b in zip(rows, sa, sb):
        lo = los[i]
        hi = his[i]
        if a - lo <= hi - b:
            panels.append((math.sqrt(a - lo), math.sqrt(b - lo), lo, 1.0,
                           0.0, hi - lo, i))
        else:
            panels.append((math.sqrt(hi - b), math.sqrt(hi - a), hi, -1.0,
                           hi - lo, 0.0, i))
    return panels


def _pairs(f, panels: list) -> tuple[list, list]:
    """Low/high order Gauss estimates on many panels in one integrand call;
    returns lists (value, error). np.vecdot takes each panel's sums with
    the dot that np.dot takes on a lone panel, so no value depends on the
    other panels."""
    p = np.array(panels)
    a = p[:, 0:1]
    b = p[:, 1:2]
    half = 0.5 * (b - a)
    u = 0.5 * (a + b) + half * _NODES
    w = p[:, 3:4] * (u * u)     # exact: the sign is +-1
    vals = f(p[:, 2:3] + w, p[:, 4:5] + w, p[:, 5:6] - w,
             p[:, 6:7].astype(np.intp)) * (2.0 * u)
    half = half[:, 0]
    low = half * np.vecdot(vals[:, :_N_LOW], _WEIGHTS_LOW)
    high = half * np.vecdot(vals[:, _N_LOW:], _WEIGHTS_HIGH)
    return high.tolist(), np.abs(high - low).tolist()


class _Row:
    """Refinement state of one unconverged row."""

    __slots__ = ("index", "heap", "ties", "total", "live", "frozen", "pops")

    def __init__(self, index: int, total: float, live: float):
        self.index = index
        self.heap = []
        self.ties = 0
        self.total = total
        self.live = live
        self.frozen = 0.0
        self.pops = 0

    def push(self, err, value, panel, depth) -> None:
        heapq.heappush(self.heap, (-err, self.ties, value, panel, depth))
        self.ties += 1


def _refine_chunk(f, panels: list, quad: QuadratureSpec, out) -> dict:
    """Evaluate the initial panels of a chunk of rows, then split the panel
    with the worst error estimate of every unconverged row until its summed
    error meets the requested tolerance (or falls below double-precision
    noise). Converged rows are written to out. Returns the rows that
    stalled, mapped to (error, enforced budget, estimate); once one has
    stalled, rows after it are abandoned."""
    value, err = _pairs(f, panels)
    total = {}
    live = {}
    for pn, v, e in zip(panels, value, err):
        i = pn[6]
        total[i] = total.get(i, 0.0) + v
        live[i] = live.get(i, 0.0) + e
    states = {}
    for i, tot in total.items():
        if live[i] <= _budget(tot, quad):
            out[i] = tot
        else:
            states[i] = _Row(i, tot, live[i])
    if states:
        for pn, v, e in zip(panels, value, err):
            if pn[6] in states:
                states[pn[6]].push(e, v, pn, quad.max_refinement)

    stalled = {}
    active = list(states.values())
    while active:
        keep = []
        splits = []
        for st in active:
            budget = _budget(st.total, quad)
            if st.pops < _MAX_SPLITS:
                if st.frozen + st.live <= budget:
                    out[st.index] = st.total
                    continue
                if st.heap and not st.frozen > budget:
                    entry = heapq.heappop(st.heap)
                    st.pops += 1
                    keep.append(st)
                    if entry[4] <= 0:
                        # cannot be split further; its error stays on the books
                        st.frozen += -entry[0]
                        st.live += entry[0]
                    else:
                        splits.append((st, entry))
                    continue
            stalled[st.index] = (st.frozen + st.live, budget, st.total)
        if stalled:
            cut = min(stalled)
            keep = [st for st in keep if st.index < cut]
            splits = [sp for sp in splits if sp[0].index < cut]
        if splits:
            halves = []
            for _, (_, _, _, (a, b, *rest), _) in splits:
                mid = 0.5 * (a + b)
                halves += [(a, mid, *rest), (mid, b, *rest)]
            v, e = _pairs(f, halves)
            for j, (st, (neg_err, _, old, _, depth)) in enumerate(splits):
                v1, v2 = v[2 * j], v[2 * j + 1]
                e1, e2 = e[2 * j], e[2 * j + 1]
                st.total += v1 + v2 - old
                st.live += e1 + e2 + neg_err
                st.push(e1, v1, halves[2 * j], depth - 1)
                st.push(e2, v2, halves[2 * j + 1], depth - 1)
        active = keep
    return stalled


def _integrate_rows(f, los, his, quad: QuadratureSpec = DEFAULT_QUAD,
                    breakpoints=(), skip=None) -> np.ndarray:
    """Integrate f over [los[i], his[i]] for every row i, as integrate does
    for one. The integrand is f(s, dlo, dhi, rows): the arrays have one row
    per panel, and rows is the column of the row indices i they belong to.
    skip(a, b), when given, takes sequences of panel edges and returns, for
    each panel, whether f vanishes on it. Rows are refined in chunks of at
    most _CHUNK_ROWS. Raises PrecisionError for the first row, in order,
    that cannot reach its error budget."""
    los = [float(x) for x in los]
    his = [float(x) for x in his]
    cuts = sorted({float(c) for c in breakpoints})
    out = np.zeros(len(los))
    for start in range(0, len(los), _CHUNK_ROWS):
        chunk = range(start, min(start + _CHUNK_ROWS, len(los)))
        panels = _layout(los, his, chunk, cuts, skip)
        if not panels:
            continue
        stalled = _refine_chunk(f, panels, quad, out)
        if stalled:
            i = min(stalled)
            error, budget, estimate = stalled[i]
            raise PrecisionError(
                f"quadrature on [{los[i]:.6g}, {his[i]:.6g}] stalled: "
                f"error {error:.3e} above budget {budget:.3e} "
                f"(estimate {estimate:.17g})")
    return out


def integrate(f, lo, hi, quad: QuadratureSpec = DEFAULT_QUAD,
              breakpoints=(), skip=None) -> float:
    """Integrate f over [lo, hi] to the accuracy demanded by quad.

    breakpoints lists interior abscissae where f is allowed to be merely
    continuous (piece boundaries); panels never straddle them. skip, when
    given, is a predicate skip(a, b) marking panels on which f vanishes
    identically, so they are dropped without evaluation.

    Raises PrecisionError when a panel cannot reach its error budget
    within quad.max_refinement bisections.
    """
    def g(s, dlo, dhi, rows):
        return f(s, dlo, dhi)

    def skip_all(a, b):
        return [skip(x, y) for x, y in zip(a, b)]

    return float(_integrate_rows(g, (lo,), (hi,), quad, breakpoints,
                                 None if skip is None else skip_all)[0])
