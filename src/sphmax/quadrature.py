"""Adaptive Gauss-Kronrod panel quadrature with endpoint regularization.

The integrands in this package live on an interval [lo, hi] and may blow up
like an inverse square root at either endpoint. Every panel is therefore
reparametrized quadratically toward the nearer endpoint (s = lo + u**2 resp.
s = hi - v**2), which turns an integrable algebraic endpoint singularity
into a smooth factor no matter how panel edges fall. Integrands receive,
alongside the sample points, the exact distances to both endpoints so they
never compute a catastrophic cancellation like s - lo themselves.

Integrand protocol: f(s, dlo, dhi) -> array, elementwise over numpy
arrays, with dlo = s - lo and dhi = hi - s supplied by the integrator. The
arrays are 2-D: one row holds the 15 Kronrod abscissae of one panel, every
second of them a node of the 7-point Gauss rule, and one call covers every
panel of a refinement round.

Internally every call is a batch of independent integrals ("rows"). The
panels of all rows are evaluated together, one integrand call per round,
and each row refines its own worst panel in lockstep with the others, so a
row's value is bitwise the one it gets when integrated alone.

Rows may be of several kinds, each with its own breakpoints and a tag
for each interval they leave, such as the index of the profile piece the
interval lies in; all are laid out in one pass. Every panel carries the
tag of its interval, which the halves of a panel inherit, to the
integrand, and a panel with a negative tag is dropped before any is
evaluated; that is the only way a panel is dropped, for a lone row too.

Rows go through in chunks of at most _CHUNK_ROWS. A chunk of at least
_ARRAY_ROWS rows of one kind, such as a dilation sweep, is laid out,
summed over its first round and split once as numpy columns, with no
Python per panel: the rows that miss their budget take their first split
together, which finishes most of them, and every row still short after it
enters the lockstep refinement as in the per-panel layout, with its sums
and panels from before that split. Smaller batches, lone rows and chunks
of several kinds keep the per-panel layout: below about 32 rows the array
steps cost more than they save, and no benchmark workload batches 32 rows
or more of several profiles. A lone row costs mostly the fixed cost of
some twenty numpy calls, so panels carry the center and half width their
nodes are computed from. Both layouts produce the same panels in the same
order, sum them in the same order and split the same panel first, so
every value is bitwise that of the point by point computation.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, PrecisionError

# QUADPACK's qk15 (Piessens et al. 1983): the abscissae of the 15-point
# Kronrod rule from the outside in, its weights, and the weights of the
# 7-point Gauss rule whose nodes are every second abscissa from 0.949...
_XGK = (0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000)
_WGK = (0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975,
       0.417959183673469387755102040816327)
# mirrored to all 15 nodes in ascending order; the Gauss nodes are the
# odd-indexed ones, so one integrand call per panel serves both rules
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WEIGHTS_K15 = np.array(_WGK + _WGK[-2::-1])
_WEIGHTS_G7 = np.array(_WG + _WG[-2::-1])


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
# the fewest rows of a chunk laid out, first summed and split as arrays;
# below it the fixed cost of the array steps outweighs the per-panel Python
# they save (measured on a shared 2-CPU host, array time over per-panel
# time of one batch of spherical means, an indicator at d = 3 and a power
# and a log profile at d = 2: 1.2-1.6 at 16 rows, 1.1-1.3 at 24, 0.7-1.3
# at 28, 0.8-0.9 at 32 but 1.1-1.3 for the log profile, which breaks even
# between 48 and 64 rows, 0.5-0.7 at 128, and 1.7-3.0 for one row)
_ARRAY_ROWS = 32


def _budget(total: float, quad: QuadratureSpec) -> float:
    return max(quad.abs_tol, quad.rel_tol * abs(total),
               _NOISE * (abs(total) + quad.abs_tol))


def _meets(total: np.ndarray, live: np.ndarray,
           quad: QuadratureSpec) -> np.ndarray:
    """Whether each error live is finite and meets the _budget of its
    estimate total."""
    size = np.abs(total)
    budget = np.fmax(np.fmax(quad.abs_tol, quad.rel_tol * size),
                     _NOISE * (size + quad.abs_tol))
    return (live <= budget) & np.isfinite(live)


def _layout(los: list, his: list, start: int, parts: list, kind) -> list:
    """Initial panels of the rows of a chunk that have hi > lo, grouped by
    row and left to right within it; los and his hold the chunk's ends, and
    its first row is row start of the batch. A panel is a tuple
    (a, b, center, half, base, sign, dlo0, dhi0, tag, row): on u in [a, b],
    whose center and half width are 0.5 * (a + b) and 0.5 * (b - a), it
    samples s = base + sign * u**2, at distances dlo0 + sign * u**2 and
    dhi0 - sign * u**2 from the ends of its row, so u = 0 sits on the
    nearer end. parts holds pairs (cuts, tags) of sorted breakpoints and
    the tag of each interval they leave, and kind, a sequence, names the pair
    of each row, or is None when every row takes parts[0]. A panel between
    a row's ends and cuts lies in one interval and carries its tag; a
    panel of one point, which a row one ulp wide can give, lies in none
    when that point is a cut, and carries -1. A panel whose tag is
    negative is dropped before any is bisected."""
    rows, sa, sb, tags = [], [], [], []
    for i, (lo, hi, k) in enumerate(
            zip(los, his, repeat(0) if kind is None else kind)):
        if not hi > lo:
            continue
        cuts, row_tags = parts[k]
        first = bisect_right(cuts, lo)
        last = bisect_left(cuts, hi)
        if last > first:
            edges = [lo, *cuts[first:last], hi]
            tags += row_tags[first:last + 1]
        else:
            # a row without interior cut is cut at its midpoint, so both
            # endpoints get their own substituted panel; a midpoint that
            # rounds onto an end leaves a panel of one point, the end
            mid = lo + 0.5 * (hi - lo)
            edges = [lo, mid, hi]
            tag = row_tags[first]
            tags += [tag if bisect_left(cuts, mid) == first else -1,
                     tag if bisect_right(cuts, mid) == first else -1]
        rows += [i] * (len(edges) - 1)
        sa += edges[:-1]
        sb += edges[1:]
    # the halves of a panel between the breakpoints of a profile lie in
    # the same piece, or gap, as the panel, and carry its tag
    panels = []
    for i, a, b, tag in zip(rows, sa, sb, tags):
        if tag < 0:
            continue
        lo = los[i]
        hi = his[i]
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            # Every panel is reparametrized toward the nearer endpoint. The
            # map can regularize only one end, so a panel must not hug
            # both: when a breakpoint sits a hair inside an endpoint, the
            # wide leftover panel touches one singularity and leans on the
            # other, and gets bisected until each half is adjacent to at
            # most one endpoint. A panel whose midpoint rounds onto one of
            # its edges stays whole: its halves would be itself again.
            mid = 0.5 * (a + b)
            if a - lo < b - a and hi - b < b - a and a < mid < b:
                todo += [(mid, b), (a, mid)]
            elif a - lo <= hi - b:
                ua = math.sqrt(a - lo)
                ub = math.sqrt(b - lo)
                panels.append((ua, ub, 0.5 * (ua + ub), 0.5 * (ub - ua),
                               lo, 1.0, 0.0, hi - lo, tag, start + i))
            else:
                ua = math.sqrt(hi - b)
                ub = math.sqrt(hi - a)
                panels.append((ua, ub, 0.5 * (ua + ub), 0.5 * (ub - ua),
                               hi, -1.0, hi - lo, 0.0, tag, start + i))
    return panels


def _layout_array(lo: np.ndarray, hi: np.ndarray, start: int,
                  part: tuple) -> np.ndarray:
    """_layout for rows that all take the pair part = (cuts, tags), with
    one numpy operation per step instead of per panel: the same panels,
    bitwise and in the same order, as an (n, 10) array whose columns are
    the fields of _layout's tuples."""
    rows = (hi > lo).nonzero()[0]
    lo = lo[rows]
    hi = hi[rows]
    cuts = np.asarray(part[0], dtype=float)
    first = cuts.searchsorted(lo, "right")
    inner = cuts.searchsorted(hi, "left") - first
    # a row's panels run from lo over its inner cuts, or else its midpoint,
    # to hi: panel j ends at entry j + shift[row] of the cuts followed by
    # the rows' midpoints, its row's last panel at hi instead
    count = np.maximum(inner, 1) + 1
    ends = count.cumsum()
    starts = ends - count
    row = np.arange(len(rows)).repeat(count)
    shift = np.where(inner > 0, first, np.arange(len(cuts), len(cuts) +
                                                 len(rows))) - starts
    at = np.arange(len(row)) + shift[row]
    b = np.concatenate((cuts, lo + 0.5 * (hi - lo))).take(at, mode="clip")
    a = np.empty_like(b)
    a[1:] = b[:-1]
    a[starts] = lo
    b[ends - 1] = hi
    # panel j of a row lies in the interval below its row's inner cut j,
    # or above the last for the last panel, and both halves of a midpoint
    # in the interval holding it
    tags = np.asarray(part[1], dtype=np.intp)[
        np.where((inner > 0)[row], at, first[row])]
    point = (a == b).nonzero()[0]
    if len(point):
        # a panel of one point that is a cut lies in no interval
        x = a[point]
        tags[point[cuts.searchsorted(x, "left") <
                   cuts.searchsorted(x, "right")]] = -1
    keep = tags >= 0
    a, b, row, tags = a[keep], b[keep], row[keep], tags[keep]
    # the bisection of _layout, one level of the hugging panels per pass,
    # each split in place so that the panels stay in _layout's order; only
    # the halves a pass makes are tested in the next, and a panel whose
    # midpoint rounds onto one of its edges stays whole
    hug = (a - lo[row] < b - a) & (hi[row] - b < b - a)
    while True:
        split = hug.nonzero()[0]
        if not len(split):
            break
        mid = 0.5 * (a[split] + b[split])
        hug[split] = inside = (a[split] < mid) & (mid < b[split])
        split = split[inside]
        mid = mid[inside]
        twice = np.arange(len(a)).repeat(hug + 1)
        left = split + np.arange(len(split))
        a, b, row, tags = a[twice], b[twice], row[twice], tags[twice]
        b[left] = mid
        a[left + 1] = mid
        new = np.concatenate((left, left + 1))
        na, nb, nrow = a[new], b[new], row[new]
        hug = np.zeros(len(a), dtype=bool)
        hug[new] = (na - lo[nrow] < nb - na) & (hi[nrow] - nb < nb - na)
    lo = lo[row]
    hi = hi[row]
    near = a - lo <= hi - b
    width = hi - lo
    ua = np.sqrt(np.where(near, a - lo, hi - b))
    ub = np.sqrt(np.where(near, b - lo, hi - a))
    return np.array((ua, ub, 0.5 * (ua + ub), 0.5 * (ub - ua),
                     np.where(near, lo, hi), np.where(near, 1.0, -1.0),
                     np.where(near, 0.0, width), np.where(near, width, 0.0),
                     tags, rows[row] + start), dtype=float).T


def _pairs(f, panels) -> tuple:
    """Gauss-Kronrod 7/15 estimates on many panels in one integrand call;
    returns (value, error): the 15-point Kronrod value, and its gap to the
    7-point Gauss value taken from the odd-indexed nodes, an estimate of
    the error and not a bound. Both are lists for a list of panels and
    arrays for a panel array, as each layout goes on with them. np.vecdot
    takes each panel's sums with the dot that np.dot takes on a lone
    panel, so no value depends on the other panels."""
    # the fields after the edges, each as a column
    center, half, base, sign, dlo0, dhi0, tags, rows = \
        np.asarray(panels).T[2:, :, None]
    u = center + half * _NODES
    w = sign * (u * u)     # exact: the sign is +-1
    vals = f(base + w, dlo0 + w, dhi0 - w, rows.astype(np.intp),
             tags.astype(np.intp)) * (2.0 * u)
    half = half[:, 0]
    low = half * np.vecdot(vals[:, 1::2], _WEIGHTS_G7)
    high = half * np.vecdot(vals, _WEIGHTS_K15)
    # an integrand infinite at a Gauss node makes both rules infinite: their
    # gap is then nan, which Python floats give without numpy's warning of
    # inf - inf
    if isinstance(panels, list):
        high = high.tolist()
        return high, [abs(k - g) for k, g in zip(high, low.tolist())]
    with np.errstate(invalid="ignore"):
        return high, np.abs(high - low)


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


def _first_round(f, panels: list, quad: QuadratureSpec, out) -> list:
    """Evaluate the initial panels of a chunk of rows, as _layout lays
    them out, and sum each row's values and errors left to right from 0.0.
    Rows whose error meets their budget are written to out; the others are
    returned in order as _Rows holding their panels."""
    value, err = _pairs(f, panels)
    states = []
    n = len(panels)
    j = 0
    while j < n:
        # the panels of one row are adjacent, from j up to k
        i = panels[j][-1]
        total = live = 0.0
        k = j
        while k < n and panels[k][-1] == i:
            total += value[k]
            live += err[k]
            k += 1
        if live <= _budget(total, quad) and live < math.inf:
            out[i] = total
        else:
            st = _Row(i, total, live)
            for m in range(j, k):
                st.push(err[m], value[m], panels[m], quad.max_refinement)
            states.append(st)
        j = k
    return states


def _first_round_array(f, panels: np.ndarray, quad: QuadratureSpec,
                       out) -> list:
    """_first_round on the panel array of _layout_array, as arrays. Each
    row's values and errors fill a column of a (position, row) table padded
    with +0.0, summed with one add per position: a sum that starts at +0.0
    never holds -0.0, so the padding leaves every bit alone. Every row that
    misses its budget then takes _refine's first split here, in one array
    round for all such rows: its worst panel by argmax, which picks the
    first of equal errors as the heap does, both halves in one integrand
    call, the sums updated in _refine's order and one budget test. This
    split only finishes rows: the rows it brings within budget are written
    to out, and every other row becomes a _Row as _first_round makes it,
    with its sums before the split and all its panels, so that _refine
    takes the same first split itself."""
    value, err = _pairs(f, panels)
    rows = panels[:, -1].astype(np.intp)
    head = np.empty(len(rows), dtype=bool)
    head[0] = True
    np.not_equal(rows[1:], rows[:-1], out=head[1:])
    first = head.nonzero()[0]
    group = head.cumsum() - 1
    at = np.arange(len(rows)) - first[group]
    table = np.zeros((at.max() + 1, 2, len(first)))
    table[at, 0, group] = value
    table[at, 1, group] = err
    sums = np.zeros((2, len(first)))
    for position in table:
        sums += position
    total, live = sums
    done = _meets(total, live, quad)
    out[rows[first[done]]] = total[done]
    short = (~done).nonzero()[0]
    if len(short) and quad.max_refinement > 0:
        worst = first[short] + table[:, 1, short].argmax(axis=0)
        a, b, mid = panels[worst, :3].T
        halves = panels[worst].repeat(2, axis=0)
        halves[::2, 1] = mid
        halves[::2, 2] = 0.5 * (a + mid)
        halves[::2, 3] = 0.5 * (mid - a)
        halves[1::2, 0] = mid
        halves[1::2, 2] = 0.5 * (mid + b)
        halves[1::2, 3] = 0.5 * (b - mid)
        hv, he = _pairs(f, halves)
        # an infinite row gives inf - inf here, which stays nan and quiet
        with np.errstate(invalid="ignore"):
            after = total[short] + (hv[::2] + hv[1::2] - value[worst])
            met = _meets(after, live[short] + (he[::2] + he[1::2] +
                                               -err[worst]), quad)
        out[rows[first[short[met]]]] = after[met]
        short = short[~met]
    states = []
    for j in short.tolist():
        begin = first[j]
        end = first[j + 1] if j + 1 < len(first) else len(rows)
        st = _Row(int(rows[begin]), float(total[j]), float(live[j]))
        for e, v, pn in zip(err[begin:end].tolist(), value[begin:end].tolist(),
                            panels[begin:end].tolist()):
            st.push(e, v, pn, quad.max_refinement)
        states.append(st)
    return states


def _refine(f, active: list, quad: QuadratureSpec, out) -> dict:
    """Split the panel with the worst error estimate of every unconverged
    row until its summed error meets the requested tolerance (or falls
    below double-precision noise). Converged rows are written to out.
    Returns the rows that stalled, mapped to (error, enforced budget,
    estimate); once one has stalled, rows after it are abandoned."""
    stalled = {}
    while active:
        keep = []
        splits = []
        for st in active:
            budget = _budget(st.total, quad)
            error = st.frozen + st.live
            # a nan error stays nan, so its row can never meet a budget, and
            # an infinite one meets none
            if st.pops < _MAX_SPLITS and st.live == st.live:
                if error <= budget and error < math.inf:
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
            stalled[st.index] = (error, budget, st.total)
        if stalled:
            cut = min(stalled)
            keep = [st for st in keep if st.index < cut]
            splits = [sp for sp in splits if sp[0].index < cut]
        if splits:
            halves = []
            for _, (_, _, _, (a, b, mid, _, *rest), _) in splits:
                halves += [(a, mid, 0.5 * (a + mid), 0.5 * (mid - a), *rest),
                           (mid, b, 0.5 * (mid + b), 0.5 * (b - mid), *rest)]
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
                    parts=(((), (0,)),), kind=None) -> np.ndarray:
    """Integrate f over [los[i], his[i]] for every row i, as integrate does
    for one. The integrand is f(s, dlo, dhi, rows, tags): the arrays have
    one row per panel, rows is the column of the row indices i they belong
    to and tags the column of the tags they carry.

    parts holds one pair (cuts, tags) per kind of row: sorted distinct
    breakpoints, and the tag of each interval they leave, the first below
    cuts[0] and the last above cuts[-1], such as the index of the piece of
    a profile it lies in, so that one integrand call per round serves rows
    of any number of profiles. kind names the kind of each row, or is None
    when every row takes parts[0]. A panel carries the tag of its interval
    and is dropped unevaluated when that is negative. Every row of a chunk,
    whatever its kind, is laid out in one pass and gets the panels it gets
    alone.

    Rows are refined in chunks of at most _CHUNK_ROWS; a chunk of at least
    _ARRAY_ROWS rows of one kind is laid out as arrays, and a chunk of
    several kinds per panel at any size. Raises PrecisionError for the first
    row, in order, that cannot reach its error budget."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    n = len(los)
    out = np.zeros(n)
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        if kind is None and stop - start >= _ARRAY_ROWS:
            panels = _layout_array(los[start:stop], his[start:stop], start,
                                   parts[0])
            first_round = _first_round_array
        else:
            panels = _layout(los[start:stop].tolist(),
                             his[start:stop].tolist(), start, parts,
                             None if kind is None else kind[start:stop])
            first_round = _first_round
        if not len(panels):
            continue
        stalled = _refine(f, first_round(f, panels, quad, out), quad, out)
        if stalled:
            i = min(stalled)
            error, budget, estimate = stalled[i]
            raise PrecisionError(
                f"quadrature on [{los[i]:.6g}, {his[i]:.6g}] stalled: "
                f"error {error:.3e} above budget {budget:.3e} "
                f"(estimate {estimate:.17g})")
    return out


def integrate(f, lo, hi, quad: QuadratureSpec = DEFAULT_QUAD,
              breakpoints=(), tags=None) -> float:
    """Integrate f over [lo, hi] to the accuracy demanded by quad; 0.0
    when lo >= hi.

    breakpoints lists interior abscissae where f is allowed to be merely
    continuous (piece boundaries); panels never straddle them. tags, when
    given, holds one integer per interval the sorted distinct breakpoints
    leave, from below the first to above the last; a panel in an interval
    with a negative tag, where f vanishes, is dropped unevaluated.

    Raises DomainError for a bound or breakpoint that is not finite or
    tags that do not fit the breakpoints, and PrecisionError when a panel
    cannot reach its error budget within quad.max_refinement bisections.
    """
    def g(s, dlo, dhi, *_):
        return f(s, dlo, dhi)

    cuts = sorted({float(c) for c in breakpoints})
    tags = [0] * (len(cuts) + 1) if tags is None else tags
    if not (all(map(math.isfinite, (lo, hi, *cuts)))
            and len(tags) == len(cuts) + 1):
        raise DomainError(
            f"integrate takes finite bounds and breakpoints and one tag per "
            f"interval they leave, got [{lo!r}, {hi!r}], {cuts!r} and "
            f"{len(tags)} tags")
    return float(_integrate_rows(g, (lo,), (hi,), quad, ((cuts, tags),))[0])
