import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.integrate

from sphmax.errors import (ConfigError, DivergentNormError, DomainError,
                           InsufficientDataError, ParameterError,
                           SingularityError)
from sphmax.fractal_set import (finite_points, from_intervals, full_interval,
                                middle_cantor)
from sphmax import quadrature
from sphmax.quadrature import DEFAULT_QUAD, QuadratureSpec
from sphmax.radial_operator import (DilationGrid, MaximalValue, RadialProfile,
                                    ProfilePiece, _spherical_means,
                                    calibrate_normalization,
                                    circular_components,
                                    decomposition_components, indicator,
                                    kernel, lp_norm, maximal_value,
                                    parse_profile, power_profile,
                                    profile_expression, sphere_average_mc,
                                    spherical_mean)

TIGHT = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_refinement=30)


# ---------------------------------------------------------------------------
# profiles


def test_indicator_evaluates_to_one_inside_zero_outside():
    f = indicator(F(1, 2), F(3, 2))
    assert f(1.0) == 1.0
    assert f(0.25) == 0.0
    assert f(2.0) == 0.0


def test_power_profile_values_match_formula():
    f = power_profile(2.5, -1.0, 0.0, F(1, 4), 4)
    s = np.array([0.3, 1.0, 3.9])
    assert f.values(s) == pytest.approx(2.5 / s)


def test_log_piece_values():
    f = power_profile(1.0, 0.0, -1.0, F(1, 100), F(1, 2))
    assert f(0.25) == pytest.approx(1.0 / math.log(4.0))


def test_profile_sum_keeps_both_pieces():
    f = indicator(0, 1) + indicator(2, 3)
    assert f(0.5) == 1.0
    assert f(2.5) == 1.0
    assert f(1.5) == 0.0
    assert f.support == (F(0), F(3))


def test_overlapping_interiors_rejected():
    with pytest.raises(ParameterError):
        indicator(0, 2) + indicator(1, 3)


def test_touching_pieces_allowed():
    f = indicator(0, 1) + indicator(1, 2)
    assert f.support == (F(0), F(2))


def test_log_piece_must_stay_below_one():
    with pytest.raises(ParameterError):
        power_profile(1.0, 0.0, -1.0, F(1, 2), 2)
    with pytest.raises(ParameterError):
        power_profile(1.0, 0.0, -1.0, F(1, 2), 1)  # negative power at s=1
    # positive log power may end exactly at 1
    power_profile(1.0, 0.0, 1.0, F(1, 2), 1)


def test_degenerate_interval_rejected():
    with pytest.raises(ParameterError):
        indicator(1, 1)
    with pytest.raises(ParameterError):
        indicator(-1, 1)


def test_parse_profile_roundtrip():
    for expr in ["chi(1/2,3/2)",
                 "chi(0,1) + pow(2,-1,0,3/2,4)",
                 "pow(1,-1,-1,1/256,1/2)",
                 "pow(0.5,-0.25,2,1/8,7/8) + chi(1,2)"]:
        f = parse_profile(expr)
        assert parse_profile(profile_expression(f)) == f


def test_parse_profile_one_token_is_constant_one():
    f = parse_profile("one")
    assert f(0.001) == 1.0
    assert f(100.0) == 1.0


def test_parse_profile_rejects_junk():
    for bad in ["", "tri(1,2)", "chi(1)", "pow(1,2,3)", "chi(a,b)"]:
        with pytest.raises(ConfigError):
            parse_profile(bad)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_reference_values():
    assert kernel(3, 1, 1, 1) == pytest.approx(0.25, abs=1e-15)
    assert kernel(2, 1, 1, 1) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)


def test_kernel_symmetric_in_r_t():
    rng = random.Random(20260815)
    for _ in range(50):
        d = rng.choice([2, 3, 4, 5, 7])
        r = rng.uniform(0.2, 4.0)
        t = rng.uniform(0.2, 4.0)
        a, b = abs(r - t), r + t
        s = rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a))
        assert kernel(d, t, r, s) == pytest.approx(kernel(d, r, t, s), rel=1e-12)


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        kernel(3, 1, 1, 2.5)
    with pytest.raises(DomainError):
        kernel(3, 1, 1, -0.1)
    with pytest.raises(DomainError):
        kernel(3, 1, 0, 1)
    with pytest.raises(ParameterError):
        kernel(1, 1, 1, 1)


def test_kernel_singularity_refused_in_dimension_two():
    with pytest.raises(SingularityError):
        kernel(2, 1.0, 0.5, 0.5)
    with pytest.raises(SingularityError):
        kernel(2, 1.0, 0.5, 1.5)
    # the same endpoints are harmless one dimension up
    assert kernel(3, 1.0, 0.5, 0.5) > 0.0


def test_kernel_vanishes_at_endpoints_above_three():
    assert kernel(4, 1.0, 0.5, 0.5) == pytest.approx(0.0, abs=1e-300)
    assert kernel(5, 1.0, 0.5, 1.5) == 0.0


# ---------------------------------------------------------------------------
# normalization


def test_normalization_d3_is_two():
    assert calibrate_normalization(3, 1, 1) == pytest.approx(2.0, abs=1e-6)


def test_normalization_d2_reference_quadrature():
    # 1 / int_0^2 s / sqrt((4 - s^2) s^2) ds, computed at 10x tighter
    # tolerance; the closed form is 2/pi
    val = calibrate_normalization(2, 1, 1, TIGHT)
    assert val == pytest.approx(2.0 / math.pi, rel=1e-10)
    assert calibrate_normalization(2, 1, 1) == pytest.approx(val, rel=1e-8)


def test_normalization_matches_beta_function():
    for d in range(2, 8):
        c_d = 2.0 * math.gamma(d - 1) / math.gamma((d - 1) / 2.0) ** 2
        assert calibrate_normalization(d, 1, 1) == pytest.approx(c_d, rel=1e-9)


def test_normalization_scale_invariant():
    rng = random.Random(7)
    for _ in range(12):
        d = rng.choice([2, 3, 5])
        r = rng.uniform(0.1, 6.0)
        t = rng.uniform(0.1, 6.0)
        assert calibrate_normalization(d, r, t) == pytest.approx(
            calibrate_normalization(d, 1, 1), rel=1e-8)


# ---------------------------------------------------------------------------
# spherical mean


def test_mean_of_constant_is_one_on_log_grid():
    one = parse_profile("one")
    grid = [0.125 * 2.0 ** (k / 2.0) for k in range(13)]  # [1/8, 8]
    for d in (2, 3, 4, 5):
        worst = max(abs(spherical_mean(d, one, r, t) - 1.0)
                    for r in grid for t in grid)
        assert worst <= 10.0 * DEFAULT_QUAD.rel_tol


def test_mean_linear_profile_closed_form_d3():
    # c_3 int s/(4rt) * s ds = ((r+t)^3 - |r-t|^3) / (6rt)
    f = power_profile(1, 1, 0, 0, 64)
    assert spherical_mean(3, f, 1, 1) == pytest.approx(4.0 / 3.0, rel=1e-9)
    rng = random.Random(99)
    for _ in range(10):
        r = rng.uniform(0.2, 8.0)
        t = rng.uniform(0.2, 8.0)
        a, b = abs(r - t), r + t
        want = (b ** 3 - a ** 3) / (6.0 * r * t)
        assert spherical_mean(3, f, r, t) == pytest.approx(want, rel=1e-9)


def test_mean_symmetric_in_r_t():
    f = parse_profile("chi(1/2,3/2) + pow(2,-1,0,3/2,4)")
    rng = random.Random(5)
    for d in (2, 3, 4):
        for _ in range(6):
            r = rng.uniform(0.3, 3.0)
            t = rng.uniform(0.3, 3.0)
            assert spherical_mean(d, f, r, t) == pytest.approx(
                spherical_mean(d, f, t, r), rel=1e-8, abs=1e-10)


def test_mean_zero_when_support_missed():
    f = indicator(F(10), F(11))
    assert spherical_mean(3, f, 1.0, 2.0) == 0.0


def test_mean_is_linear():
    f = indicator(F(1, 2), F(3, 2))
    g = power_profile(3, -1, 0, F(3, 2), 3)
    r, t = 1.3, 0.8
    for d in (2, 4):
        assert spherical_mean(d, f + g, r, t) == pytest.approx(
            spherical_mean(d, f, r, t) + spherical_mean(d, g, r, t), rel=1e-8)


def test_mean_monotone_in_profile():
    small = indicator(F(1, 2), F(3, 2))
    big = power_profile(2, 0, 0, F(1, 4), 2)
    rng = random.Random(31)
    for _ in range(8):
        d = rng.choice([2, 3, 5])
        r = rng.uniform(0.4, 2.5)
        t = rng.uniform(0.4, 2.5)
        assert spherical_mean(d, small, r, t) <= \
            spherical_mean(d, big, r, t) + 1e-10


def test_mean_agrees_with_monte_carlo():
    f = parse_profile("chi(1/2,3/2) + pow(2,-1,0,3/2,4)")
    rng = random.Random(424242)
    for d in (2, 3):
        for i in range(10):
            r = rng.uniform(0.4, 3.0)
            t = rng.uniform(0.4, 3.0)
            exact = spherical_mean(d, f, r, t)
            est, se = sphere_average_mc(d, f, r, t, 200_000,
                                        rng=np.random.default_rng(1000 * d + i))
            assert abs(exact - est) <= 3.0 * se + 1e-9


def test_mc_guards():
    f = indicator(0, 1)
    with pytest.raises(ParameterError):
        sphere_average_mc(4, f, 1, 1)
    with pytest.raises(InsufficientDataError):
        sphere_average_mc(2, f, 1, 1, samples=1)


# ---------------------------------------------------------------------------
# dilation grids and the maximal function


def test_grid_from_finite_set_recovers_points():
    E = finite_points([1, F(3, 2), 2])
    g = DilationGrid.from_set(E)
    assert g.points == (F(1), F(3, 2), F(2))


def test_grid_default_spacing_is_capped():
    E = full_interval()
    g = DilationGrid.from_set(E)
    assert g.refinement == F(1, 4096)
    assert len(g.points) == 4097


def test_grid_spacing_respects_resolution():
    E = middle_cantor(F(1, 3), 2)
    g = DilationGrid.from_set(E, F(1, 27))
    diffs = [b - a for a, b in zip(g.points, g.points[1:])]
    assert min(diffs) >= F(1, 27)


def test_grid_rejects_bad_input():
    with pytest.raises(ParameterError):
        DilationGrid((), F(1, 16))
    with pytest.raises(ParameterError):
        DilationGrid((F(2), F(1)), F(1, 16))
    with pytest.raises(ParameterError):
        DilationGrid((F(1),), F(-1))
    with pytest.raises(ParameterError):
        DilationGrid.from_set(full_interval(), 0)


def test_maximal_value_rejects_points_outside_set():
    E = from_intervals([(1, F(5, 4)), (F(7, 4), 2)])
    g = DilationGrid((F(3, 2),), F(1, 32))
    with pytest.raises(ParameterError):
        maximal_value(3, indicator(0, 4), 1.0, E, g)
    # the first point outside E is named, whether it sits in a gap or
    # beyond the last component
    for pts, first in [((F(1), F(9, 8), F(3, 2), F(13, 8), F(2)), "3/2"),
                       ((F(1), F(7, 4), F(2)), None)]:
        g = DilationGrid(pts, F(1, 32))
        if first is None:
            maximal_value(3, indicator(0, 4), 1.0, E, g)
            continue
        with pytest.raises(ParameterError, match=f"grid point {first} "):
            maximal_value(3, indicator(0, 4), 1.0, E, g)
    with pytest.raises(ParameterError, match="grid point 2 "):
        maximal_value(3, indicator(0, 4), 1.0,
                      from_intervals([(1, F(3, 2))]),
                      DilationGrid((F(1), F(3, 2), F(2)), F(1, 32)))


def test_maximal_value_on_singleton_matches_mean():
    E = finite_points([F(3, 2)])
    f = indicator(F(1, 2), F(5, 2))
    got = maximal_value(3, f, 1.2, E)
    assert got.t == 1.5
    assert got.value == pytest.approx(spherical_mean(3, f, 1.2, 1.5), rel=1e-12)


def test_maximal_value_refinement_beats_grid_sweep():
    # coarse grid, sup attained strictly between grid points
    E = full_interval()
    f = indicator(F(9, 8), F(11, 8))
    coarse = DilationGrid(tuple(F(1) + F(k, 4) for k in range(5)), F(1, 4))
    sweep = max(abs(spherical_mean(3, f, 2.2, float(t))) for t in coarse.points)
    refined = maximal_value(3, f, 2.2, E, coarse)
    assert refined.value >= sweep - 1e-12
    assert 1.0 <= refined.t <= 2.0
    fine = maximal_value(3, f, 2.2, E, DilationGrid.from_set(E, F(1, 256)))
    assert refined.value == pytest.approx(fine.value, rel=1e-4)


_BATCH_PROFILES = {
    # the window [|r - t|, r + t] misses the support for |r - t| >= 3/10
    "indicator": indicator(F(1, 10), F(3, 10)),
    # singular at s = 0, which the window reaches at t = r: for d < 5,
    # where the kernel does not flatten the singularity, rows refine
    "power": power_profile(1.0, -0.5, 0.0, 0, F(5, 2)),
    "log": power_profile(0.8, -0.5, 1.0, 0, F(1, 2)),
    "mixed": indicator(F(1, 8), F(1, 2)) + power_profile(2.0, -0.5, 0.0,
                                                         F(1, 2), F(7, 2)),
}


@pytest.mark.parametrize("kind", sorted(_BATCH_PROFILES))
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_spherical_means_match_spherical_mean_bitwise(d, kind, monkeypatch):
    f = _BATCH_PROFILES[kind]
    r = 1.5
    rounds = []
    pairs = quadrature._pairs

    def counted(*args):
        rounds.append(len(args[1]))
        return pairs(*args)

    for n in (1, 255, 256, 257, 4097):
        ts = np.linspace(1.0, 2.0, n)
        monkeypatch.setattr(quadrature, "_pairs", counted)
        rounds.clear()
        batch = _spherical_means(d, f, r, ts)
        monkeypatch.undo()
        chunks = -(-n // quadrature._CHUNK_ROWS)
        if kind in ("power", "log") and d < 5 and n > 1:
            assert len(rounds) > chunks      # some rows refined
        if n == 4097:
            # every boundary of the 256-row chunks, and a stride through
            check = sorted({*range(0, n, 7), n - 1,
                            *(k + j for k in range(256, n - 1, 256)
                              for j in (-1, 0, 1))})
        else:
            check = range(n)
        for i in check:
            assert batch[i] == spherical_mean(d, f, r, ts[i]), (n, i)
        if kind == "indicator":
            miss = np.abs(r - ts) >= 0.3
            assert n == 1 or miss.any()
            assert np.all(batch[miss] == 0.0)


def test_maximal_value_default_grid_matches_closed_form_d3():
    # for d = 3 the mean of chi[a, b] is
    # (min(b, r + t)**2 - max(a, |r - t|)**2) / (4 r t); with a = 1/10,
    # b = 9/10, r = 3/2 its sup over [1, 2] is 1/10, at t = 6/5, which lies
    # between grid points
    a, b, r = 0.1, 0.9, 1.5

    def closed(t):
        return (min(b, r + t) ** 2 - max(a, abs(r - t)) ** 2) / (4 * r * t)

    E = full_interval()
    grid = DilationGrid.from_set(E)
    assert len(grid.points) == 4097
    got = maximal_value(3, indicator(F(1, 10), F(9, 10)), r, E)

    def tol(v):
        return 1e-9 + 1e-7 * abs(v)

    assert abs(got.value - closed(got.t)) <= tol(got.value)
    assert got.value >= max(closed(float(t)) for t in grid.points) - tol(got.value)
    assert abs(got.value - 0.1) <= tol(0.1)
    assert abs(got.t - 1.2) <= 1e-4


def test_maximal_value_homogeneous_and_sublinear():
    E = middle_cantor(F(1, 3), 3)
    g = DilationGrid.from_set(E, F(1, 128))
    f = indicator(F(1, 2), F(3, 2))
    h = power_profile(1, -1, 0, F(3, 2), 3)
    r = 1.4
    mf = maximal_value(2, f, r, E, g).value
    mh = maximal_value(2, h, r, E, g).value
    m3f = maximal_value(2, power_profile(3, 0, 0, F(1, 2), F(3, 2)), r, E, g).value
    assert m3f == pytest.approx(3.0 * mf, rel=1e-9)
    msum = maximal_value(2, f + h, r, E, g).value
    assert msum <= mf + mh + 1e-9


def test_maximal_value_monotone_in_set():
    # exact grid sup (no refinement) over nested grids
    f = power_profile(1, -2, 0, F(1, 2), 4)
    small = (F(1), F(5, 4), F(3, 2))
    large = small + (F(7, 4), F(2),)
    E = full_interval()
    vs = maximal_value(3, f, 2.0, E, DilationGrid(small, F(0))).value
    vl = maximal_value(3, f, 2.0, E, DilationGrid(large, F(0))).value
    assert vl >= vs


def test_lorentz_witness_scaling_lower_bound():
    # shrinking shell against a matched dilation keeps value ~ delta^{1/2}
    ratios = []
    for k in (6, 8, 10):
        delta = F(1, 2 ** k)
        f = indicator(1 - delta, 1)
        v = spherical_mean(2, f, 0.5, float(F(3, 2) - delta))
        ratios.append(v / math.sqrt(float(delta)))
    assert min(ratios) > 0.3
    assert max(ratios) / min(ratios) < 1.5


# ---------------------------------------------------------------------------
# norms


def test_lp_norm_unit_ball_indicator():
    for d in (2, 3, 5):
        for p in (1.0, 2.0, 3.5):
            want = (1.0 / d) ** (1.0 / p)
            assert lp_norm(indicator(0, 1), p, d) == pytest.approx(want, rel=1e-12)


def test_lp_norm_small_ball_scaling():
    delta = F(1, 64)
    for d in (2, 3):
        got = lp_norm(indicator(0, delta), 2.0, d)
        assert got == pytest.approx((float(delta) ** d / d) ** 0.5, rel=1e-12)


def test_lp_norm_disjoint_pieces_add_in_pth_power():
    f = indicator(0, 1)
    g = power_profile(2, -1, 0, 2, 3)
    p, d = 2.5, 3
    lhs = lp_norm(f + g, p, d) ** p
    rhs = lp_norm(f, p, d) ** p + lp_norm(g, p, d) ** p
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_lp_norm_closed_form_against_scipy():
    # interior log piece goes through quadrature; scipy is the referee
    f = power_profile(1.5, -0.75, 2.0, F(1, 8), F(7, 8))
    p, d = 2.0, 3
    want, _ = scipy.integrate.quad(
        lambda s: (1.5 * s ** -0.75 * math.log(1.0 / s) ** 2) ** p * s ** (d - 1),
        1 / 8, 7 / 8)
    assert lp_norm(f, p, d) == pytest.approx(want ** (1 / p), rel=1e-8)


def test_lp_norm_log_piece_from_origin_against_scipy():
    f = power_profile(1, -0.5, 2.0, 0, F(1, 2))
    p, d = 2.0, 2
    want, _ = scipy.integrate.quad(
        lambda s: s ** -1.0 * math.log(1.0 / s) ** 4 * s, 0, 0.5)
    assert lp_norm(f, p, d) == pytest.approx(want ** 0.5, rel=1e-7)


def test_stein_profile_dichotomy():
    # s^{-(d-1)} log(1/s)^{-1} near the origin: in L^p exactly up to p = d/(d-1)
    for d in (2, 3):
        f = power_profile(1, -(d - 1), -1, 0, F(1, 2))
        p_crit = d / (d - 1.0)
        assert math.isfinite(lp_norm(f, p_crit, d))
        with pytest.raises(DivergentNormError):
            lp_norm(f, p_crit * 1.05, d)
        # without the log the critical exponent already diverges
        bare = power_profile(1, -(d - 1), 0, 0, F(1, 2))
        with pytest.raises(DivergentNormError):
            lp_norm(bare, p_crit, d)


def test_lp_norm_closed_form_log_win_at_origin():
    # k = -1 with log power below -1: exact value log(1/hi)^{bp+1}/(-bp-1)
    f = power_profile(1, -1, -1, 0, F(1, 4))
    want = math.log(4.0) ** -1  # bp = -2 at p = 2, d = 2
    assert lp_norm(f, 2, 2) == pytest.approx(want ** 0.5, rel=1e-12)


def test_ess_sup_interior_critical_point():
    f = power_profile(1, 1, 1, F(1, 100), F(99, 100))
    want = math.exp(-1.0)  # s log(1/s) peaks at s = 1/e
    assert lp_norm(f, math.inf, 2) == pytest.approx(want, rel=1e-12)


def test_ess_sup_divergence_at_origin():
    with pytest.raises(DivergentNormError):
        lp_norm(power_profile(1, -1, 0, 0, 1), math.inf, 3)


def test_lp_norm_rejects_bad_p():
    with pytest.raises(ParameterError):
        lp_norm(indicator(0, 1), 0.5, 2)


# ---------------------------------------------------------------------------
# decomposition components


def test_components_indicator_zones():
    E = middle_cantor(F(1, 3), 2)
    f = indicator(F(1, 2), 4)
    g = DilationGrid.from_set(E, F(1, 32))
    inside = decomposition_components(3, E, f, 2, 1.0, grid=g)
    assert set(inside) == {"mainpart", "remainder1", "remainder2"}
    assert inside["mainpart"] > 0.0
    assert inside["remainder1"] == 0.0  # only lives at r >= 2
    outside = decomposition_components(3, E, f, 2, 5.0, grid=g)
    assert outside["mainpart"] == 0.0
    assert outside["remainder2"] == 0.0
    assert outside["remainder1"] > 0.0


def test_components_2d_keys_and_zones():
    E = full_interval()
    f = indicator(F(1, 2), 4)
    g = DilationGrid.from_set(E, F(1, 32))
    comp = decomposition_components(2, E, f, 2, 0.9, grid=g)
    assert set(comp) == {"mainpart", "mainpart_tilde",
                         "remainder1", "remainder2", "remainder3", "remainder4"}
    assert comp["mainpart"] > 0.0
    assert comp["mainpart_tilde"] > 0.0
    assert comp["remainder1"] == 0.0 and comp["remainder2"] == 0.0
    assert comp["remainder3"] > 0.0 and comp["remainder4"] > 0.0
    far = decomposition_components(2, E, f, 2, 3.0, grid=g)
    assert far["remainder1"] > 0.0 and far["remainder2"] > 0.0
    assert far["remainder3"] == 0.0 and far["remainder4"] == 0.0


def test_components_polish_at_left_endpoints_off_by_rounding():
    # 47/27 is the left end of a component of E and float(47/27) < 47/27,
    # so the component must be looked up at the exact grid point; the sup of
    # remainder1 is 2 sqrt(t - 1/2) at t = 7/4, inside [47/27, 16/9]
    E = middle_cantor(F(1, 3), 3)
    assert float(F(47, 27)) < F(47, 27)
    g = DilationGrid.from_set(E, F(1, 64))
    comp = decomposition_components(2, E, parse_profile("chi(1/4,3)"), 2, 3.5,
                                    grid=g)
    assert comp["remainder1"] == pytest.approx(math.sqrt(5), rel=1e-8)


def test_components_dominate_maximal_function_d3():
    E = middle_cantor(F(1, 2), 3)
    g = DilationGrid.from_set(E, F(1, 64))
    f = parse_profile("chi(1/4,3/4) + pow(2,-1,0,3/4,3)")
    rng = random.Random(8)
    for _ in range(6):
        r = rng.uniform(0.7, 3.9)
        m = maximal_value(3, f, r, E, g).value
        comp = decomposition_components(3, E, f, 2, r, grid=g)
        total = sum(comp.values())
        assert m <= 60.0 * total + 1e-9


def test_circular_components_closed_form():
    # U at r=1: window [|1-t|, 1+t]; for f = chi(1/2,3/2) the integral of z
    # over the overlap is maximized at t = 2 with overlap [1, 3/2]
    f = indicator(F(1, 2), F(3, 2))
    got = circular_components(f, 1.0)
    t = np.linspace(1.0, 2.0, 20001)
    a = np.maximum(np.abs(1.0 - t), 0.5)
    b = np.minimum(1.0 + t, 1.5)
    want_u = float(np.max(0.5 * np.clip(b ** 2 - a ** 2, 0, None)))
    assert got["U"] == pytest.approx(want_u, rel=1e-6)
    # R only sees t = 2 = 2r; window [1, 3] catches half the shell
    assert got["R"] == pytest.approx(0.5, rel=1e-6)


def test_circular_components_dominate_squared_maximal():
    E = full_interval()
    g = DilationGrid.from_set(E, F(1, 256))
    rng = random.Random(14)
    for _ in range(4):
        lo = F(rng.randint(1, 6), 8)
        f = indicator(lo, lo + F(1, 4))
        r = rng.uniform(0.3, 1.8)
        m = maximal_value(2, f, r, E, g).value
        comp = circular_components(f, r)
        assert m ** 2 <= 40.0 * (comp["U"] + comp["R"]) + 1e-9


def test_circular_components_need_piecewise_constant():
    with pytest.raises(ParameterError):
        circular_components(power_profile(1, -1, 0, 1, 2), 1.0)
