"""Acceptance gate: one test per numbered criterion, run with -v for the
per-criterion pass/fail table. Tolerances and runtime budgets are part of
the criteria and asserted inside the tests."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import kernel_mass, random_fractal_set, sphere_average_mc
from sphmax.fractal_set import (
    arithmetic_progression,
    binary_covering_number,
    covering_number,
    estimate_dimensions,
    full_interval,
    middle_cantor,
    neighborhood_measure,
)
from sphmax.norm_probe import lorentz_log_probe, run_probe
from sphmax.radial_operator import (
    DilationGrid,
    _norm_const,
    circular_components,
    decomposition_components,
    indicator,
    maximal_value,
    parse_profile,
    power_profile,
    spherical_mean,
)
from sphmax.type_set_geometry import region

F = Fraction

LOG_GRID = [8.0 ** (-1.0 + k / 3.0) for k in range(7)]


def random_profile(rng: random.Random):
    n = rng.randint(1, 2)
    cuts = sorted(rng.sample(range(1, 48), 2 * n))
    total = None
    for k in range(n):
        lo, hi = F(cuts[2 * k], 8), F(cuts[2 * k + 1], 8)
        coeff = rng.uniform(0.2, 3.0)
        a_pow = rng.choice([0.0, 0.0, -1.0, -0.5, 0.5, 1.0])
        piece = power_profile(coeff, a_pow, 0, lo, hi)
        total = piece if total is None else total + piece
    return total


def test_criterion_01_normalization_grid():
    start = time.monotonic()
    one = parse_profile("one")
    for d in (2, 3, 4, 5):
        for r in LOG_GRID:
            for t in LOG_GRID:
                assert abs(spherical_mean(d, one, r, t) - 1.0) <= 1e-6, (d, r, t)
    assert time.monotonic() - start < 10.0


def test_criterion_02_monte_carlo_oracle():
    start = time.monotonic()
    rng = random.Random(0x51CA)
    for d in (2, 3):
        for i in range(20):
            f = random_profile(rng)
            r = rng.uniform(0.5, 2.5)
            t = rng.uniform(0.5, 2.5)
            exact = spherical_mean(d, f, r, t)
            mc = sphere_average_mc(d, f, r, t, samples=1_000_000,
                                   rng=np.random.default_rng(1000 * d + i))
            # 1e-9 absolute guard covers profiles the sampler hits nowhere
            assert abs(mc.value - exact) <= 3.0 * mc.stderr + 1e-9, (d, i)
    assert time.monotonic() - start < 120.0


def test_criterion_03_closed_forms():
    val = spherical_mean(3, power_profile(1, 1, 0, 0, 8), 1, 1)
    assert abs(val - 4.0 / 3.0) <= 1e-6
    assert abs(1.0 / kernel_mass(3, 1.0, 1.0) - _norm_const(3)) <= 1e-6
    assert _norm_const(3) == 2.0


def test_criterion_04_covering_sandwich_exact():
    rng = random.Random(0xC0F)
    for _ in range(50):
        E = random_fractal_set(rng)
        for n in range(0, 13):
            N = covering_number(E, F(2) ** -n)
            Nt = binary_covering_number(E, -n)
            w = neighborhood_measure(E, n)
            assert N <= Nt <= 3 * N
            assert F(2) ** (-n - 2) * N <= w <= F(2) ** (-n + 3) * N


def test_criterion_05_dimension_recovery():
    start = time.monotonic()
    rep = estimate_dimensions(middle_cantor(F(1, 3), 12),
                              [F(3) ** -k for k in range(4, 13)])
    assert abs(rep.minkowski_estimate - math.log(2) / math.log(3)) < 0.05
    rep = estimate_dimensions(middle_cantor(F(1, 2), 12),
                              [F(4) ** -k for k in range(4, 12)])
    assert abs(rep.minkowski_estimate - 0.5) < 0.05
    assert time.monotonic() - start < 30.0


def test_criterion_06_region_exactness():
    tri3 = region("Delta", 3, beta=1)
    assert [(v.x, v.y) for v in tri3.vertices] == [
        (F(0), F(0)), (F(2, 3), F(2, 9)), (F(2, 3), F(2, 3))]
    tri2 = region("Delta", 2, beta=1)
    assert [(v.x, v.y) for v in tri2.vertices] == [
        (F(0), F(0)), (F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))]
    for k in range(20):
        beta = F(k, 20)
        crit = region("Q", 2, beta=beta, gamma=(beta + 1) / 2)
        assert crit.vertices == region("Delta", 2, beta=beta).vertices


def test_criterion_07_necessary_condition_probes():
    # annulus family on the full interval, critical line q = p d
    start = time.monotonic()
    E = full_interval()
    scales = [F(1, 2 ** k) for k in range(4, 11)]
    res = run_probe("AnnulusDelta", E, 2, [(2, 4)], scales, t0=F(3, 2))[0]
    assert -0.05 <= res.fitted_exponent <= 0.05
    res = run_probe("AnnulusDelta", E, 2, [(2, 5)], scales, t0=F(3, 2))[0]
    assert res.verdict == "violation-detected"
    assert time.monotonic() - start < 60.0

    # small-ball family flips across the [Q1 Q2] supporting line
    start = time.monotonic()
    E = middle_cantor(F(1, 3), 10)
    beta = F(6309, 10000)
    y = F(1, 3)
    x_star = (2 + (1 - beta) * y) / 3
    step = F(1, 50)
    cantor_scales = [F(3) ** -k for k in range(3, 9)]
    xs = [x_star + (k - 3) * step for k in range(7)]
    verdicts = []
    for x in xs:
        res = run_probe("SmallBallDelta", E, 3, [(1 / x, 3)], cantor_scales,
                        beta=beta)[0]
        verdicts.append(res.verdict)
    assert verdicts[0] == "consistent"
    assert verdicts[-1] == "violation-detected"
    flip = next(i for i, v in enumerate(verdicts) if v != "consistent")
    assert xs[flip - 1] <= x_star
    assert xs[flip] >= x_star - step
    assert "consistent" not in verdicts[flip:]
    assert time.monotonic() - start < 60.0


def test_criterion_08_stein_divergence_growth():
    # M F diverges in the limit, but the truncation of f = 1/(s log(1/s))
    # to [2^-k, 1/2] grows only iterated-logarithmically: its singular part
    # is exactly ∫ ds/(s log(1/s)) = ln k. The bounds come from the kernel.
    # - Floor: t = r = 3/2 is a grid point, where the normalized d = 2
    #   kernel is (2/π)/sqrt(9 - s²) >= c = 2/(3π); so c ln k <= M f(r).
    # - Ceiling: the sup sits near t = r - 2^-k. With a = |r - t| the
    #   kernel is (2/π) s/sqrt((s² - a²)(b² - s²)). Its edge term is
    #   ∫ (1/sqrt(s² - a²) - 1/s)/log(1/s) ds <= 1/(k - 3) + 0.011, since
    #   ∫_1^∞ (1/sqrt(u² - 1) - 1/u) du = ln 2 and log(1/s) >= (k - 3) ln 2
    #   for s <= 8a. The weight from b² - s² >= (3 - 2^-k)² - 1/4 adds at
    #   most about 2%. The excess over c ln k is then at most 0.39 c at
    #   k = 6 and 0.17 c at k = 12; farther from r the weight grows less
    #   than the log part shrinks. So M f(r) <= c (ln k + 1/2).
    # - Ratio: at t = r - 2^-6 the edge term is at least 0.16, so the
    #   ratio is at most (ln 12 + 0.17)/(ln 6 + 0.16) < ln 12 / ln 6.
    # Reference (mpmath tanh-sinh, 25 digits, sup over t on both sides of
    # r): 0.4219590989 and 0.5470473079, ratio 1.29645, excesses 0.197 c
    # and 0.093 c. Logarithmic growth, as with 1/s (no log factor), gives
    # excesses 2.40 c and 5.84 c and a ratio of 1.99.
    E = full_interval()
    grid = DilationGrid.from_set(E, F(1, 512))
    c = 2.0 / (3.0 * math.pi)
    vals = {}
    for k in (6, 12):
        f = power_profile(1, -1, -1, F(1, 2 ** k), F(1, 2))
        vals[k] = maximal_value(2, f, 1.5, E, grid).value
        assert c * math.log(k) <= vals[k] <= c * (math.log(k) + 0.5)
    assert vals[12] / vals[6] <= math.log(12) / math.log(6)


def test_criterion_09_lorentz_log_band():
    rows = lorentz_log_probe([F(1, 2 ** k) for k in range(4, 13)])
    vals = [row["normalized"] for row in rows]
    assert max(vals) <= 2.0 * min(vals)


def test_criterion_10_local_annulus_scaling():
    E = arithmetic_progression(F(5, 4), F(1, 128), 16)
    window = (F(5, 4), F(5, 4) + F(1, 8))
    q = 4
    res = run_probe("LocalAnnulus", E, 2, [(2, q)],
                    [F(1, 2 ** k) for k in range(7, 13)],
                    u=F(9, 8), window=window,
                    beta=0, gamma=F(1, 2), gamma_star=F(1, 2))[0]
    x = np.log([row.scale for row in res.rows])
    y = np.log([row.output_functional for row in res.rows])
    slope = np.polyfit(x, y, 1)[0]
    predicted = 0.5 + 1.0 / q
    assert abs(slope - predicted) < 0.1
    # the level constant against delta^(1/2+1/q) |I|^(1/q-1/2) N^(1/q)
    scale_free = [row.output_functional
                  / (row.scale ** predicted
                     * 0.125 ** (1.0 / q - 0.5) * 16 ** (1.0 / q))
                  for row in res.rows]
    assert max(scale_free) <= 1.5 * min(scale_free)


def _domination_constant(samples, evaluate):
    best = 0.0
    for sample in samples:
        ratio = evaluate(sample)
        if ratio is not None:
            best = max(best, ratio)
    return best


def test_criterion_11_domination_suites():
    rng = random.Random(0xD0C)

    E3 = middle_cantor(F(1, 3), 4)
    g3 = DilationGrid.from_set(E3, F(1, 32))

    def eval_d3(sample):
        f, r = sample
        total = sum(decomposition_components(3, E3, f, 2, r, grid=g3).values())
        if total <= 0.0:
            return None
        return maximal_value(3, f, r, E3, g3).value / total

    E2 = middle_cantor(F(1, 2), 3)
    g2 = DilationGrid.from_set(E2, F(1, 32))

    def eval_d2(sample):
        f, r = sample
        total = sum(decomposition_components(2, E2, f, 2, r, grid=g2).values())
        if total <= 0.0:
            return None
        return maximal_value(2, f, r, E2, g2).value / total

    Efull = full_interval()
    gfull = DilationGrid.from_set(Efull, F(1, 128))

    def eval_circ(sample):
        f, r = sample
        comp = circular_components(f, r)
        total = comp["U"] + comp["R"]
        if total <= 0.0:
            return None
        return maximal_value(2, f, r, Efull, gfull).value ** 2 / total

    def radial_sample():
        return random_profile(rng), rng.uniform(0.7, 4.2)

    def indicator_sample():
        lo = F(rng.randint(1, 16), 8)
        return indicator(lo, lo + F(rng.randint(1, 8), 8)), rng.uniform(0.55, 1.9)

    for make, evaluate in ((radial_sample, eval_d3),
                           (radial_sample, eval_d2),
                           (indicator_sample, eval_circ)):
        first = [make() for _ in range(200)]
        doubled = first + [make() for _ in range(200)]
        c_half = _domination_constant(first, evaluate)
        c_full = _domination_constant(doubled, evaluate)
        assert 0.0 < c_full < 1e3
        assert c_full <= 1.2 * c_half
