import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sphmax import quadrature
from sphmax.errors import DomainError, PrecisionError
from sphmax.quadrature import (_CHUNK_ROWS, _NOISE, DEFAULT_QUAD,
                               QuadratureSpec, _integrate_rows, integrate)


def test_gauss_kronrod_constants():
    # a mistyped digit of the qk15 tables breaks one of these
    nodes, k15, g7 = (quadrature._NODES, quadrature._WEIGHTS_K15,
                      quadrature._WEIGHTS_G7)
    # leggauss's own weights sit up to 4 ulp of themselves off the correctly
    # rounded ones, so compare on the scale of the interval, in ulp of 1
    x, w = np.polynomial.legendre.leggauss(7)
    eps = np.finfo(float).eps
    assert np.abs(nodes[1::2] - x).max() <= 2 * eps
    assert np.abs(g7 - w).max() <= 2 * eps
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(k15, k15[::-1]) and np.array_equal(g7, g7[::-1])
    # on [-1, 1], x^k integrates to 2/(k+1) for even k and to 0 for odd k
    for k in range(23):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(k15, nodes ** k) - want) <= 1e-15, k
        if k <= 13:
            assert abs(np.dot(g7, nodes[1::2] ** k) - want) <= 1e-15, k


def test_polynomial_exact():
    assert integrate(lambda s, a, b: s ** 3, 0, 1) == pytest.approx(0.25, abs=1e-12)


def test_sine():
    val = integrate(lambda s, a, b: np.sin(s), 0, math.pi)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_inverse_sqrt_singularity_at_lower_end():
    # distances to the endpoints arrive precomputed, so 1/sqrt(s - lo)
    # is evaluated as dlo**-0.5 with no cancellation
    val = integrate(lambda s, dlo, dhi: dlo ** -0.5, 0, 1)
    assert val == pytest.approx(2.0, abs=1e-9)


def test_inverse_sqrt_both_ends():
    val = integrate(lambda s, dlo, dhi: (dlo * dhi) ** -0.5, 0, 1)
    assert val == pytest.approx(math.pi, abs=1e-9)


def test_shifted_interval_distances():
    # int_2^5 (s-2)^{-1/2} + (5-s)^{-1/2} ds = 2 sqrt(3) + 2 sqrt(3)
    val = integrate(lambda s, dlo, dhi: dlo ** -0.5 + dhi ** -0.5, 2, 5)
    assert val == pytest.approx(4 * math.sqrt(3), abs=1e-9)


def test_log_singularity():
    val = integrate(lambda s, dlo, dhi: np.log(1.0 / dlo), 0, 0.5)
    assert val == pytest.approx(0.5 * (1 + math.log(2)), abs=1e-9)


def test_breakpoints_for_piecewise_integrand():
    def f(s, dlo, dhi):
        return np.where(s < 1 / 3, 1.0, 2.0)

    val = integrate(f, 0, 1, breakpoints=(1 / 3,))
    assert val == pytest.approx(5 / 3, abs=1e-10)


def test_negative_tags_drop_dead_panels():
    # the integrand is nan below the breakpoint, where its tag is negative:
    # a panel there is never evaluated, so the integral stays finite
    def f(s, dlo, dhi):
        return np.where(s >= 0.5, s, np.nan)

    dropped = integrate(f, 0, 1, breakpoints=(0.5,), tags=(-1, 0))
    assert dropped == pytest.approx(3 / 8, abs=1e-12)
    with pytest.raises(PrecisionError, match="error nan"):
        integrate(f, 0, 1, breakpoints=(0.5,))
    # one tag for the two intervals that 0.5 leaves does not fit
    with pytest.raises(DomainError, match="1 tags"):
        integrate(f, 0, 1, breakpoints=(0.5,), tags=[0])


@pytest.mark.parametrize("bounds, breakpoints", [
    ((0.0, math.nan), ()),
    ((0.0, 1.0), (math.nan,)),
    ((0.0, math.inf), ()),
], ids=["nan-bound", "nan-breakpoint", "infinite-bound"])
def test_non_finite_bounds_and_breakpoints_raise(bounds, breakpoints):
    # none of these has an integral to return: each raises, where a silent
    # 0.0, a wrong 0.5 (the integral is 1) or a PrecisionError "error nan"
    # would hide the bad input
    with pytest.raises(DomainError) as info:
        integrate(lambda s, dlo, dhi: np.ones(s.shape), *bounds,
                  breakpoints=breakpoints)
    assert f"[{bounds[0]!r}, {bounds[1]!r}]" in str(info.value)
    assert repr(list(breakpoints)) in str(info.value)


def test_empty_interval_is_zero():
    assert integrate(lambda s, a, b: s, 1, 1) == 0.0
    assert integrate(lambda s, a, b: s, 2, 1) == 0.0


def test_precision_error_when_budget_exhausted():
    tight = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_refinement=2)
    with pytest.raises(PrecisionError):
        integrate(lambda s, dlo, dhi: np.abs(np.sin(40 / (s + 0.01))), 0, 1,
                  quad=tight)


def test_default_spec_values():
    assert DEFAULT_QUAD.rel_tol == 1e-9
    assert DEFAULT_QUAD.abs_tol == 1e-12
    assert DEFAULT_QUAD.max_refinement == 26


def test_tolerance_scales_with_request():
    loose = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-6, max_refinement=26)
    exact = 2.0
    val = integrate(lambda s, dlo, dhi: dlo ** -0.5, 0, 1, quad=loose)
    assert abs(val - exact) < 1e-4


_MESSAGE = re.compile(
    r"quadrature on \[(\S+), (\S+)\] stalled: error (\S+) above budget "
    r"(\S+) \(estimate (\S+)\)")


def test_precision_error_reports_enforced_budget():
    # rel_tol below the noise floor: the budget actually enforced is the
    # 64 eps * (|estimate| + abs_tol) term, which the message must print
    tight = QuadratureSpec(rel_tol=1e-16, abs_tol=1e-300, max_refinement=2)
    with pytest.raises(PrecisionError) as info:
        integrate(lambda s, dlo, dhi: np.abs(np.sin(40 / (s + 0.01))), 0, 1,
                  quad=tight)
    m = _MESSAGE.fullmatch(str(info.value))
    assert m is not None, str(info.value)
    lo, hi, error, budget, estimate = (float(g) for g in m.groups())
    assert (lo, hi) == (0.0, 1.0)
    enforced = max(tight.abs_tol, tight.rel_tol * abs(estimate),
                   _NOISE * (abs(estimate) + tight.abs_tol))
    assert enforced > tight.rel_tol * abs(estimate)
    assert m.group(4) == f"{enforced:.3e}"
    assert error > budget


def _bumpy(s, dlo, dhi, rows):
    # smooth for even rows, an endpoint singularity for odd ones
    return np.where(rows % 2 == 0, np.cos(3.0 * s), dlo ** -0.5 + 1.0)


def test_rows_match_lone_integrals_bitwise(monkeypatch):
    calls = []

    def f(s, dlo, dhi, rows, tags):
        calls.append(s.shape[0])
        return _bumpy(s, dlo, dhi, rows)

    pairs = quadrature._pairs

    def checked(f, panels):
        # every layout and every split stores the center and half width
        # of the panel's u interval as _pairs once computed them
        for a, b, center, half, *_ in np.asarray(panels).tolist():
            assert (center, half) == (0.5 * (a + b), 0.5 * (b - a))
        return pairs(f, panels)

    monkeypatch.setattr(quadrature, "_pairs", checked)

    n = 2 * _CHUNK_ROWS + 3
    los = np.linspace(0.0, 0.9, n)
    his = los + np.linspace(0.05, 2.0, n)
    his[7] = los[7]     # an empty row
    cuts = (0.25, 0.5, 1.0)
    batch = _integrate_rows(f, los, his, DEFAULT_QUAD, ((cuts, [0] * 4),))
    assert len(calls) > 3     # odd rows refine beyond the first round
    for i in range(n):
        lone = integrate(
            lambda s, dlo, dhi: _bumpy(s, dlo, dhi, np.array([[i]])),
            los[i], his[i], breakpoints=cuts)
        assert batch[i] == lone, i
    assert batch[7] == 0.0


def test_rows_raise_for_first_stalled_row_in_order():
    # row 5 has two panels and stalls rounds before row 3, which has ten;
    # the error still names row 3, the first stalled row in order
    tight = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_refinement=2)

    def f(s, dlo, dhi, rows, tags):
        rough = np.abs(np.sin(40 / (s + 0.01)))
        return np.where((rows == 3) | (rows == 5) | (rows == 300), rough, 1.0)

    los = np.zeros(2 * _CHUNK_ROWS)
    his = np.ones(2 * _CHUNK_ROWS)
    his[3] = 0.96875
    his[5] = 0.0625
    cuts = [k / 10 for k in range(1, 10)]
    with pytest.raises(PrecisionError,
                       match=r"on \[0, 0\.96875\] stalled"):
        _integrate_rows(f, los, his, tight, ((cuts, [0] * 10),))


_ULP_ROWS = """
import math
import numpy as np
from sphmax.quadrature import _integrate_rows, integrate
hi = math.nextafter(1.0, 2.0)
print(integrate(lambda s, dlo, dhi: s, 1.0, hi))
print(*set(_integrate_rows(lambda s, dlo, dhi, rows, tags: s, np.ones(40),
                           np.full(40, hi)).tolist()))
"""


def test_rows_one_ulp_wide_return():
    # the midpoint of a row one ulp wide rounds onto one of its ends, so its
    # other panel hugs both ends, and bisecting that panel would give it
    # back forever. A subprocess with a timeout turns a hang into a failure.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _ULP_ROWS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the lone row and all 40 rows of a batch laid out as arrays agree
    # bitwise, within an ulp of 2^-52 + 2^-105, the integral of s over
    # [1, 1 + 2^-52]
    lone, batch = map(float, proc.stdout.split())
    assert lone == batch == pytest.approx(2.0 ** -52, rel=3e-16)


def _random_layout_case(rng):
    # rows on a few dyadic scales, some empty or reversed, and cuts some of
    # which sit a few ulp inside a row end, so that rounding makes the
    # bisected halves hug both ends again; some rows hold no cut
    n = rng.integers(1, 40)
    lo = rng.uniform(0.0, 3.0, n) * 2.0 ** rng.integers(-6, 3, n)
    hi = lo + rng.uniform(-0.1, 2.0, n) * 2.0 ** rng.integers(-8, 2, n)
    empty = rng.random(n) < 0.1
    hi[empty] = lo[empty]
    # rows one or two ulp wide, whose midpoints round onto an end
    for i in rng.choice(n, rng.integers(0, 3)):
        hi[i] = np.nextafter(lo[i], np.inf)
        if rng.random() < 0.5:
            hi[i] = np.nextafter(hi[i], np.inf)
    cuts = list(rng.uniform(0.0, 6.0, rng.integers(0, 12)))
    for i in rng.choice(n, rng.integers(0, n + 1)):
        end, inward = (lo[i], hi[i]) if rng.random() < 0.5 else (hi[i], lo[i])
        step = np.nextafter(end, inward) - end
        cuts.append(float(end + rng.integers(1, 5) * step))
    if rng.random() < 0.2:
        cuts = []
    return lo, hi, sorted(set(cuts))


def test_array_layout_matches_panel_layout_bitwise():
    # _layout_array against _layout over random rows and cuts, with tags
    # of which some drop their intervals and without: the same panels,
    # field by field and in the same order
    rng = np.random.default_rng(20261019)
    bisected = 0
    for _ in range(1500):
        lo, hi, cuts = _random_layout_case(rng)
        start = int(rng.integers(0, 1000))
        tags = rng.integers(-1, 3, len(cuts) + 1).tolist()
        for part in ((cuts, [0] * (len(cuts) + 1)), (cuts, tags)):
            want = quadrature._layout(lo.tolist(), hi.tolist(), start, [part],
                                      None)
            got = quadrature._layout_array(lo, hi, start, part)
            want = np.array(want, dtype=float).reshape(-1, 10)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # rows of three kinds, each with its own cuts and tags, interleaved
        # at random and laid out per panel in one pass: every row gets the
        # panels, and tags, it gets laid out alone
        parts = []
        for _ in range(3):
            cuts_k = _random_layout_case(rng)[2]
            parts.append((cuts_k, rng.integers(-1, 3, len(cuts_k) + 1)
                          .tolist()))
        kind = rng.integers(0, 3, len(lo))
        want = []
        for i in range(len(lo)):
            want += quadrature._layout([lo[i]], [hi[i]], start + i,
                                       [parts[kind[i]]], None)
        want = np.array(want, dtype=float).reshape(-1, 10)
        got = quadrature._layout(lo.tolist(), hi.tolist(), start, parts,
                                 kind.tolist())
        assert np.array(got, dtype=float).reshape(-1, 10).tobytes() \
            == want.tobytes()
        # without bisection a row gets one panel more than its inner cuts,
        # and two without any
        unsplit = sum(max(sum(a < c < b for c in cuts), 1) + 1
                      for a, b in zip(lo, hi) if b > a)
        bisected += len(quadrature._layout(
            lo.tolist(), hi.tolist(), 0, [(cuts, [0] * (len(cuts) + 1))],
            None)) > unsplit
    assert bisected > 100


def _split_kinds(s, dlo, dhi, rows, tags):
    # the integrand of row i by i % 4: 0 a polynomial, which the first round
    # meets;
    # 1 symmetric about the row midpoint, so that its two first panels get
    # bitwise-equal error estimates; 2 antisymmetric, equal errors and
    # opposite values; 3 an endpoint singularity that takes many splits
    kind = rows % 4
    return np.select(
        [kind == 0, kind == 1, kind == 2],
        [s * s, dlo ** -0.3 + dhi ** -0.3, dlo ** -0.3 - dhi ** -0.3],
        dlo ** -0.45)


def _lone(f, i, lo, hi, quad=DEFAULT_QUAD):
    # row i integrated alone, and its integrand calls
    calls = []

    def g(s, dlo, dhi):
        calls.append(len(s))
        return f(s, dlo, dhi, np.full((len(s), 1), i),
                 np.zeros((len(s), 1), dtype=np.intp))

    return integrate(g, lo, hi, quad), calls


def test_array_first_split_matches_the_heap_bitwise():
    # a chunk laid out as arrays takes the first split of every row short
    # of its budget in one round; each row still gets the bits and the
    # refinement of its lone integral, which splits in the heap
    n = 2 * quadrature._ARRAY_ROWS + 4
    los = np.arange(n) / 16.0
    his = los + 2.0 ** -(np.arange(n) % 5)
    batch = _integrate_rows(_split_kinds, los, his)
    for i in range(n):
        lone, calls = _lone(_split_kinds, i, los[i], his[i])
        assert batch[i] == lone, i
        # one call per round: kind 0 takes one, the others two splits or more
        assert len(calls) == 1 if i % 4 == 0 else len(calls) >= 3, i
    # the two first panels of a symmetric row tie in error, bitwise, and
    # those of an antisymmetric one have opposite values besides
    for i in (1, 2):
        panels = quadrature._layout([los[i]], [his[i]], i, [((), (0,))], None)
        value, err = quadrature._pairs(_split_kinds, panels)
        assert err[0] == err[1] and value[0] == (-1) ** (i + 1) * value[1]


@pytest.mark.parametrize("where", ["first-round", "halves"])
def test_array_first_split_keeps_the_error_of_a_nan_row(where):
    # row 20 meets a nan error in its first round or in the halves of its
    # first split, rows before it converge and rows after it stall: the
    # batch raises the error of row 20 alone, word for word
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_refinement=3)
    n = 2 * quadrature._ARRAY_ROWS

    def f(s, dlo, dhi, rows, tags):
        width = np.abs(s[:, -1:] - s[:, :1])
        nan = (rows == 20) & ((where == "first-round") | (width < 0.2))
        rough = np.where(rows > 20, dlo ** -0.45, np.cos(3.0 * s))
        return np.where(nan, np.nan, np.where(rows == 20, dlo ** -0.45, rough))

    los = np.zeros(n)
    his = np.ones(n)
    with pytest.raises(PrecisionError) as alone:
        _lone(f, 20, 0.0, 1.0, quad)
    assert "error nan" in str(alone.value)
    with pytest.raises(PrecisionError) as batch:
        _integrate_rows(f, los, his, quad)
    assert str(batch.value) == str(alone.value)


def test_nan_row_stalls_at_once():
    # a nan error stays nan and can never meet a budget, so the row stalls
    # the first time _refine sees it: after the first round when alone, and
    # after the array round's split in a chunk laid out as arrays, where
    # every row is nan and the stall of row 0 abandons the others
    calls = []

    def f(s, dlo, dhi):
        calls.append(len(s))
        return np.where(s < 0.3, np.nan, s)

    with pytest.raises(PrecisionError) as alone:
        integrate(f, 0.0, 1.0)
    assert str(alone.value) == ("quadrature on [0, 1] stalled: error nan "
                                "above budget 1.000e-12 (estimate nan)")
    assert len(calls) == 1
    calls.clear()
    n = 2 * quadrature._ARRAY_ROWS
    with pytest.raises(PrecisionError) as batch:
        _integrate_rows(lambda s, dlo, dhi, rows, tags: f(s, dlo, dhi),
                        np.zeros(n), np.ones(n))
    assert str(batch.value) == str(alone.value)
    assert len(calls) <= 2


@pytest.mark.parametrize("node", [0, 1], ids=["kronrod-only", "gauss"])
@pytest.mark.parametrize("rows", [1, 2 * quadrature._ARRAY_ROWS])
def test_infinite_node_raises_precision_error(node, rows):
    # ones everywhere but inf at one node of the first panel of every
    # round: the Kronrod-only node 0, where K15 is inf and G7 finite, or
    # the Gauss node 1, where both are inf and their gap is inf - inf; an
    # infinite error never meets a budget, so the row stalls instead of
    # returning inf, and no warning escapes
    def f(s, dlo, dhi, *rows_and_tags):
        v = np.ones(s.shape)
        v[0, node] = np.inf
        return v

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=r"on \[0, 1\] stalled"):
            if rows == 1:
                integrate(f, 0.0, 1.0)
            else:
                _integrate_rows(f, np.zeros(rows), np.ones(rows))


def test_kinds_match_their_rows_alone_bitwise():
    # rows of three kinds, each with its own breakpoints, gaps and
    # integrand, kept together or interleaved, laid out per panel (12
    # rows) and as arrays (40 rows). The tag of an interval between a
    # kind's breakpoints is the kind, or -1 in a gap, and the batch
    # integrand follows the tags where the lone one follows the row's
    # kind, so every panel and half of a panel must carry its tag: every
    # row is bitwise its lone integral with its kind's breakpoints and
    # tags
    breaks = [(0.25, 0.5, 1.0), (0.3,), (1.5,)]
    parts = [(breaks[0], [0] * 4), (breaks[1], [-1, 1]), (breaks[2], [2, -1])]

    def f(s, dlo, dhi, kinds):
        return np.select([kinds == 0, kinds == 1],
                         [np.cos(3.0 * s), dlo ** -0.45], s * s)

    for n in (12, 40):
        los = np.linspace(0.0, 1.9, n)
        his = los + np.linspace(0.05, 1.2, n)
        his[4] = los[4]     # an empty row
        for kind in (np.arange(n) * 3 // n, np.arange(n) % 3):
            batch = _integrate_rows(
                lambda s, dlo, dhi, rows, tags: f(s, dlo, dhi, tags),
                los, his, DEFAULT_QUAD, parts, kind)
            for i in range(n):
                k = kind[i]
                lone = integrate(
                    lambda s, dlo, dhi: f(s, dlo, dhi,
                                          np.full((len(s), 1), k)),
                    los[i], his[i], DEFAULT_QUAD, *parts[k])
                assert batch[i] == lone, (n, i)
            assert batch[4] == 0.0
