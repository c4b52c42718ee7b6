import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import kernel_mass, sphere_average_mc
from sphmax.errors import (ConfigError, DivergentNormError, DomainError,
                           InsufficientDataError, ParameterError,
                           PrecisionError, SingularityError)
from sphmax.fractal_set import (arithmetic_progression, finite_points,
                                from_intervals, full_interval, middle_cantor,
                                separated_points, union_of)
from sphmax import quadrature, radial_operator
from sphmax.quadrature import QuadratureSpec
from sphmax.radial_operator import (_INVPHI, DilationGrid, MaximalValue,
                                    RadialProfile, ProfilePiece, _golden_max,
                                    _norm_const, _spherical_means,
                                    _sup_over_dilations,
                                    circular_components,
                                    decomposition_components, indicator,
                                    kernel, lp_norm, maximal_value,
                                    parse_profile, power_profile,
                                    profile_expression, spherical_mean)

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


def _values_per_piece(f, s):
    # the per-piece loop RadialProfile.values replaced, kept as reference
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    for pc in f.pieces:
        m = (s >= float(pc.lo)) & (s <= float(pc.hi))
        if m.any():
            v = np.full_like(s[m], pc.coeff)
            if pc.a_pow != 0.0:
                v = v * s[m] ** pc.a_pow
            if pc.b_pow != 0.0:
                v = v * np.log(1.0 / s[m]) ** pc.b_pow
            out[m] += v
    return out


def test_values_match_per_piece_loop_bitwise(monkeypatch):
    # touching pieces (both add on the shared end), a piece whose float ends
    # coincide with its neighbour's, negative coefficients, log pieces of
    # both signs, and points outside every piece; -0.0 lies in [0, 1/8]
    tiny = F(1, 3) + F(1, 10 ** 30)
    profiles = [
        indicator(0, 1) + power_profile(2.0, -0.5, 0.0, 1, 2)
        + power_profile(-1.5, 1.0, 0.0, 2, F(5, 2)),
        power_profile(0.8, -0.5, 1.0, F(1, 64), F(1, 2))
        + power_profile(-0.3, 0.5, -1.0, F(1, 2), F(7, 8)) + indicator(1, 3),
        indicator(F(1, 4), F(1, 3)) + indicator(F(1, 3), tiny)
        + indicator(tiny, F(1, 2)),
        power_profile(2.0, 1.0, 0.0, 0, F(1, 8)) + indicator(F(1, 2), 4),
    ]
    s = np.array([[-0.0, 0.0, 0.1, 0.125, 0.25, 1 / 3, 0.4, 0.5, 0.75],
                  [0.875, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0, 4.0, 7.0]])
    for f in profiles:
        for x in (s, s[1], s[0, 5], 2.0):
            got = f.values(x)
            want = _values_per_piece(f, x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (f, x)

    # the samples of spherical means whose window ends 1e-15 outside a
    # breakpoint c, so panels crowd against it
    seen = []
    values = RadialProfile.values

    def recording(self, x):
        seen.append(x)
        return values(self, x)

    monkeypatch.setattr(RadialProfile, "values", recording)
    r = 1.5
    for f in profiles:
        for c in (0.5, 1.0, 2.0, 2.5, 3.0):
            for t in (r - c + 1e-15, r + c - 1e-15, c + 1e-15 - r):
                if t > 0.0:
                    spherical_mean(3, f, r, t)
    monkeypatch.undo()
    assert len(seen) > 20
    for x in seen:
        for f in profiles:
            assert f.values(x).tobytes() == _values_per_piece(f, x).tobytes()


def test_log_piece_must_stay_below_one():
    with pytest.raises(ParameterError):
        power_profile(1.0, 0.0, -1.0, F(1, 2), 2)
    with pytest.raises(ParameterError):
        power_profile(1.0, 0.0, -1.0, F(1, 2), 1)  # negative power at s=1
    # positive log power may end exactly at 1
    power_profile(1.0, 0.0, 1.0, F(1, 2), 1)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_piece_numbers_must_be_finite(x):
    # refused where the piece is built, not met later as a bare ValueError
    # or OverflowError in profile_expression, or as a PrecisionError whose
    # error and estimate are nan
    for args in [(x, 0, 0), (1, x, 0), (1, 0, x)]:
        with pytest.raises(ParameterError, match="must be finite"):
            power_profile(*args, 0, 1)


def test_degenerate_interval_rejected():
    with pytest.raises(ParameterError):
        indicator(1, 1)
    with pytest.raises(ParameterError):
        indicator(-1, 1)


def test_breakpoints_are_the_piece_ends():
    # neither the kernel nor a power piece kinks at s = 1, and a log piece
    # stops at or before it, so 1.0 is a breakpoint only as a piece end
    assert parse_profile("chi(1/2,3)")._breaks == (0.5, 3.0)
    assert parse_profile("pow(1,0,1,1/4,1)")._breaks == (0.25, 1.0)


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
    for bad in ["", "tri(1,2)", "chi(1)", "pow(1,2,3)", "chi(a,b)", "chi(2,1)",
                "chi(0,2) + chi(1,3)", "pow(one,0,0,1,2)", "chi(0,1e3000000)",
                "chi(1e-3000000,1)"]:
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
    for d in (2, 3):
        with pytest.raises(DomainError):
            kernel(d, 1, 1, math.nan)
    with pytest.raises(ParameterError):
        kernel(1, 1, 1, 1)


_ONE = parse_profile("one")


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda x: kernel(3, x, 1.0, 1.0),
    lambda x: kernel(3, 1.0, x, 1.0),
    lambda x: spherical_mean(3, _ONE, x, 1.5),
    lambda x: spherical_mean(3, _ONE, 1.25, x),
    lambda x: _spherical_means(3, _ONE, 1.25, [1.5, x]),
    lambda x: maximal_value(3, _ONE, x, full_interval()),
    lambda x: decomposition_components(3, full_interval(), _ONE, 2, x),
    lambda x: circular_components(indicator(0, 1), x),
    lambda x: sphere_average_mc(3, _ONE, x, 1.5, samples=10),
    lambda x: sphere_average_mc(3, _ONE, 1.25, x, samples=10),
], ids=["kernel-t", "kernel-r", "mean-r", "mean-t", "means-ts", "maximal-r",
        "components-r", "circular-r", "mc-r", "mc-t"])
def test_radii_must_be_positive_and_finite(call, x):
    with pytest.raises(DomainError):
        call(x)


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
    assert 1.0 / kernel_mass(3, 1.0, 1.0) == pytest.approx(
        _norm_const(3), abs=1e-6)


def test_normalization_d2_reference_quadrature():
    # 1 / int_0^2 s / sqrt((4 - s^2) s^2) ds, computed at 10x tighter
    # tolerance; the closed form is 2/pi
    val = 1.0 / kernel_mass(2, 1.0, 1.0, TIGHT)
    assert val == pytest.approx(_norm_const(2), rel=1e-10)
    assert 1.0 / kernel_mass(2, 1.0, 1.0) == pytest.approx(val, rel=1e-8)


def test_normalization_matches_beta_function():
    # 1 / m_d with m_d = B((d-1)/2, (d-1)/2) / 2, divided from d = 4 on by
    # the 2^(d-3) that the kernel is scaled up by
    for d in range(2, 8):
        c_d = 2.0 * math.gamma(d - 1) / math.gamma((d - 1) / 2.0) ** 2
        c_d /= 2.0 ** max(d - 3, 0)
        assert _norm_const(d) == pytest.approx(c_d, rel=1e-9)
        assert 1.0 / kernel_mass(d, 1.0, 1.0) == pytest.approx(
            _norm_const(d), rel=1e-9)


def test_normalization_scale_invariant():
    rng = random.Random(7)
    for _ in range(12):
        d = rng.choice([2, 3, 5])
        r = rng.uniform(0.1, 6.0)
        t = rng.uniform(0.1, 6.0)
        assert 1.0 / kernel_mass(d, r, t) == pytest.approx(
            _norm_const(d), rel=1e-8)


def test_normalization_constants_pinned():
    # 2/pi, 2, and 16/pi and 12 divided by the 2^(d-3) that the kernel is
    # scaled up by from d = 4 on
    assert [_norm_const(d).hex() for d in (2, 3, 4, 5)] == [
        "0x1.45f306dc9c883p-1", "0x1.0000000000000p+1",
        "0x1.45f306dc9c883p+1", "0x1.8000000000000p+1"]


# ---------------------------------------------------------------------------
# spherical mean


def test_mean_of_constant_is_one_on_log_grid():
    # the mean of |x|^2 over the sphere of radius t about a point at
    # distance r is r^2 + t^2; that of |x|^4 is (r^2 + t^2)^2 + 4 r^2 t^2 / d
    cases = [(parse_profile("one"), lambda d, r, t: 1.0),
             (parse_profile("pow(1,2,0,0,16)"), lambda d, r, t: r * r + t * t),
             (parse_profile("pow(1,4,0,0,16)"),
              lambda d, r, t: (r * r + t * t) ** 2 + 4 * r * r * t * t / d)]
    grid = [0.125 * 2.0 ** (k / 2.0) for k in range(13)]  # [1/8, 8]
    for d in (2, 3, 4, 5):
        for f, mean in cases:
            worst = max(abs(spherical_mean(d, f, r, t) / mean(d, r, t) - 1.0)
                        for r in grid for t in grid)
            assert worst <= 1e-12, (d, f)


def test_means_hold_in_high_dimensions():
    # the kernel peaks at 1 in every d, so its mass no longer sinks below
    # the absolute error floor of the quadrature as d grows
    cases = [(parse_profile("one"), lambda r, t: 1.0),
             (parse_profile("pow(1,2,0,0,8)"), lambda r, t: r * r + t * t)]
    for d, tol in ((40, 1e-12), (64, 1e-12), (128, 1e-10)):
        for f, mean in cases:
            worst = max(abs(spherical_mean(d, f, r, t) / mean(r, t) - 1.0)
                        for r in (0.3, 1.0, 1.25, 2.5) for t in (1.0, 1.5, 2.0))
            assert worst <= tol, (d, f)


def test_window_rounded_below_resolution_raises():
    # for d >= 3 the kernel scales up an error delta that rounding makes in
    # the width 2 min(r, t) of the window [|r - t|, r + t] about (d - 2)
    # times; past rel_tol the mean refuses instead of returning it
    f = indicator(0, 3)
    with pytest.raises(PrecisionError, match="r = 6e-17, t = 0.75"):
        spherical_mean(3, indicator(0, 2), 6e-17, 0.75)
    with pytest.raises(PrecisionError, match=r"1\.076e-08 relative"):
        spherical_mean(3, f, 1.234e-9, 0.7501)
    # a batch names its first row whose window is off
    with pytest.raises(PrecisionError, match="r = 1.234e-09, t = 0.7501 "):
        _spherical_means(3, f, 1.234e-9, [1e-9, 0.7501, 0.5])
    assert spherical_mean(3, f, 1.234e-7, 0.7501) == pytest.approx(1.0,
                                                                   rel=1e-9)
    # at d = 2 a profile with only constant pieces takes the closed form,
    # which needs no rounded window and stays exact
    assert spherical_mean(2, indicator(0, 2), 6e-17, 0.75) == 1.0
    # and so it does from d = 4 on, alone and in a batch
    for d in (4, 5, 8):
        assert spherical_mean(d, indicator(0, 2), 6e-17, 0.75) == 1.0
        assert spherical_mean(d, parse_profile("one"), 1e-300, 1.0) == 1.0
        assert _spherical_means(d, f, 1.234e-9, [1e-9, 0.7501, 0.5]).tolist() \
            == [1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# d = 2 means of piecewise-constant profiles, in closed form


def _shell_share_mp(mpmath, r, t, lo, hi):
    # the share of the circle of radius t about a point at distance r from
    # the origin that lies in the shell lo <= |y| <= hi, at 40 digits: the
    # angle theta at the circle's center has |y|^2 = r^2 + t^2 + 2rt cos
    # theta and is uniform on [0, pi]
    with mpmath.workdps(40):
        r, t, lo, hi = map(mpmath.mpf, (r, t, lo, hi))

        def theta(s):
            c = (s * s - r * r - t * t) / (2 * r * t)
            return mpmath.acos(min(max(c, -1), 1))

        return float((theta(lo) - theta(hi)) / mpmath.pi)


def _random_shell(rng):
    # (r, t, lo, hi): r << t, t << r or both alike, and a shell 2^-40 to 2
    # wide with an end within 1e-15 of |r - t| or of r + t, or anywhere
    base = rng.uniform(0.25, 4.0)
    small = base * 2.0 ** -rng.uniform(1.0, 50.0)
    r, t = rng.choice([(small, base), (base, small),
                       (base, base * rng.uniform(0.5, 2.0))])
    a, b = abs(r - t), r + t
    width = 2.0 ** -rng.uniform(-1.0, 40.0)
    where = rng.randrange(3)
    if where == 0:
        lo = a * (1.0 + rng.uniform(-1e-15, 1e-15))
        hi = lo + width
    elif where == 1:
        hi = b * (1.0 + rng.uniform(-1e-15, 1e-15))
        lo = max(hi - width, 0.0)
    else:
        lo = rng.uniform(a, b)
        hi = lo + width
    return r, t, lo, hi


def test_d2_constant_means_match_mpmath():
    # the shell ends are floats, so the profile holds them exactly
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261020)
    seen = 0
    for _ in range(400):
        r, t, lo, hi = _random_shell(rng)
        want = _shell_share_mp(mpmath, r, t, lo, hi)
        got = spherical_mean(2, indicator(F(lo), F(hi)), r, t)
        assert abs(got - want) <= 1e-12 * want, (r, t, lo, hi, got, want)
        seen += want > 0.0
    assert seen > 300


def test_d2_constant_means_without_a_referee():
    rng = random.Random(578)
    # a circle wholly inside its shell has mean exactly 1, alone and in a
    # batch
    for _ in range(578):
        r, t = rng.uniform(0.01, 4.0), rng.uniform(0.01, 4.0)
        f = indicator(F(abs(r - t) * rng.uniform(0.0, 1.0)),
                      F((r + t) * rng.uniform(1.0, 2.0)))
        assert spherical_mean(2, f, r, t) == 1.0
        assert _spherical_means(2, f, r, [t, t])[1] == 1.0
    # adjacent shells add up to their union
    for _ in range(300):
        r, t, lo, hi = _random_shell(rng)
        mid = rng.uniform(lo, hi)
        parts = (spherical_mean(2, indicator(F(lo), F(mid)), r, t)
                 + spherical_mean(2, indicator(F(mid), F(hi)), r, t))
        whole = spherical_mean(2, indicator(F(lo), F(hi)), r, t)
        assert abs(parts - whole) <= 4 * np.finfo(float).eps, (r, t, lo, hi)
    # the quadrature of the kernel, which a piece that is not constant
    # forces, agrees within its budget: a zero power piece beyond the
    # window leaves the profile as it is
    quad = quadrature.DEFAULT_QUAD
    for _ in range(200):
        r, t = rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0)
        lo = rng.uniform(0.0, r + t)
        hi = lo + 2.0 ** -rng.uniform(0.0, 20.0)
        coeff = rng.choice([1.0, -1.5, 0.75])
        f = (RadialProfile((ProfilePiece(F(lo), F(hi), coeff),))
             + indicator(F(hi), F(hi) + 1))
        forced = f + power_profile(0.0, 1.0, 0.0, F(hi) + 1, 16)
        closed = spherical_mean(2, f, r, t)
        quadrature_mean = spherical_mean(2, forced, r, t)
        budget = max(quad.abs_tol, quad.rel_tol * abs(quadrature_mean))
        assert abs(closed - quadrature_mean) <= budget, (r, t, lo, hi)


def test_d2_means_on_windows_narrower_than_an_ulp():
    # r below an ulp of t: the window [|r - t|, r + t] rounds to one float
    # (r = 2^-60) or to two adjacent ones (r = 2^-53)
    shell = parse_profile("chi(1/2,3)")
    power = parse_profile("pow(1,1,0,0,4)")
    for r in (2.0 ** -60, 2.0 ** -53):
        assert spherical_mean(2, indicator(F(1, 2), 1), r, 1.0) == \
            pytest.approx(0.5, abs=1e-15)
        assert spherical_mean(2, shell, r, 1.0) == 1.0
        assert maximal_value(2, shell, r, full_interval()).value == 1.0
        # a quadrature row refuses, naming r and t, instead of returning
        # 0.0 or a nan error after a divide-by-zero warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match=f"r = {r!r}, t = 1.0 "):
                spherical_mean(2, power, r, 1.0)
            with pytest.raises(PrecisionError, match=f"r = {r!r}, t = 1.0 "):
                _spherical_means(2, [shell, power], r, [1.5, 1.0])


# ---------------------------------------------------------------------------
# closed forms from d = 4 on, and of power pieces at d = 3


def _closed_case(rng):
    # (r, t, lo, hi) as _random_shell draws them, and in one case of four r
    # far below an ulp of t, with a shell end at t or an ulp off it
    r, t, lo, hi = _random_shell(rng)
    if rng.random() < 0.25:
        r = t * 2.0 ** -rng.uniform(60.0, 300.0)
        end = float(_ulps(t, rng.randint(-1, 1)))
        width = 2.0 ** -rng.uniform(-1.0, 40.0)
        lo, hi = ((end, end + width) if rng.random() < 0.5
                  else (max(end - width, 0.0), end))
    return r, t, lo, hi


def _mp(mpmath, x):
    # a Fraction at the working precision
    return mpmath.mpf(x.numerator) / x.denominator


def _beta_share_mp(mpmath, d, r, t, lo, hi):
    # I_x(lo)(m, m) - I_x(hi)(m, m), m = (d - 1)/2, at 40 digits, with x(s)
    # = ((r + t)^2 - s^2) / (4rt) clipped to [0, 1] exact in Fractions
    r, t = F(r), F(t)

    def x(s):
        s = F(s)
        return _mp(mpmath, min(max(((r + t) ** 2 - s * s) / (4 * r * t),
                                   F(0)), F(1)))

    m = mpmath.mpf(d - 1) / 2
    return mpmath.betainc(m, m, x(hi), x(lo), regularized=True)


@pytest.mark.parametrize("d", [4, 5, 6, 8, 20, 64, 200, 600])
def test_beta_means_match_mpmath(d):
    # shells 2^-40 to 2 wide with an end next to a window end, and r far
    # below an ulp of t; a shell alone and two shells, touching or apart,
    # of other coefficients
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(8000 + d)
    seen = 0
    with mpmath.workdps(40):
        for _ in range(30):
            r, t, lo, hi = _closed_case(rng)
            gap = rng.choice([0.0, 2.0 ** -rng.uniform(0.0, 40.0)])
            lo2 = hi + gap
            hi2 = lo2 + 2.0 ** -rng.uniform(-1.0, 40.0)
            c = rng.choice([-1.5, 0.75, 2.0])
            one = _beta_share_mp(mpmath, d, r, t, lo, hi)
            two = one + c * _beta_share_mp(mpmath, d, r, t, lo2, hi2)
            for f, want, size in (
                    (indicator(F(lo), F(hi)), one, 1.0),
                    (indicator(F(lo), F(hi)) + RadialProfile((ProfilePiece(
                        F(lo2), F(hi2), c),)), two, 1.0 + abs(c))):
                got = spherical_mean(d, f, r, t)
                want = float(want)
                assert abs(got - want) <= max(1e-12 * abs(want),
                                              1e-13 * size), \
                    (r, t, lo, hi, lo2, hi2, got, want)
                seen += want > 1e-3
    assert seen > 15


def _power_mean_mp(mpmath, r, t, pieces):
    # the d = 3 mean of the pieces (lo, hi, coeff, a) at 40 digits: the
    # integral of coeff s^(a+1) over [lo, hi] cut to the window, exact in
    # Fractions, over 2rt, with y1^k - y0^k = y0^k expm1(k log1p(w / y0))
    r, t = F(r), F(t)
    total = 0
    for lo, hi, c, a in pieces:
        y0, y1 = max(F(lo), abs(r - t)), min(F(hi), r + t)
        if y1 <= y0:
            continue
        y, k = _mp(mpmath, y0), mpmath.mpf(a) + 2
        grow = mpmath.log1p(_mp(mpmath, y1 - y0) / y)
        total += c * (grow if k == 0 else y ** k * mpmath.expm1(k * grow) / k)
    return total / (2 * _mp(mpmath, r * t))


@pytest.mark.parametrize("a", [-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.7])
def test_d3_power_means_match_mpmath(a):
    # a power piece alone, and between two constant pieces, each touching
    # it or apart
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(int(1000 * a) + 3)
    with mpmath.workdps(40):
        for _ in range(40):
            r, t, lo, hi = _closed_case(rng)
            c = rng.choice([1.0, -1.5, 0.75])
            power = [(lo, hi, c, a)]
            lo0 = max(lo - rng.choice([0.0, 0.5]) - 0.25, 0.0)
            mixed = [(lo0, min(lo0 + 0.25, lo), 1.0, 0.0), *power,
                     (hi, hi + rng.uniform(0.0, 2.0) + 1e-3, -0.5, 0.0)]
            for pieces in (power, mixed):
                f = RadialProfile(tuple(
                    ProfilePiece(F(p), F(q), cp, ap)
                    for p, q, cp, ap in pieces if q > p))
                assert radial_operator._closed(3, f)
                got = spherical_mean(3, f, r, t)
                want = float(_power_mean_mp(mpmath, r, t, pieces))
                size = sum(abs(cp) for _, _, cp, _ in pieces)
                assert abs(got - want) <= max(1e-12 * abs(want),
                                              1e-13 * size), \
                    (r, t, pieces, got, want)


def test_closed_forms_without_a_referee():
    rng = random.Random(2026)
    quad = quadrature.DEFAULT_QUAD
    for d in (4, 5, 8, 64):
        # a sphere wholly inside its shell has mean exactly 1, alone and in
        # a batch, and adjacent shells add up to their union
        for _ in range(100):
            r, t = rng.uniform(0.01, 4.0), rng.uniform(0.01, 4.0)
            f = indicator(F(abs(r - t) * rng.uniform(0.0, 1.0)),
                          F((r + t) * rng.uniform(1.0, 2.0)))
            assert spherical_mean(d, f, r, t) == 1.0
            assert _spherical_means(d, f, r, [t] * 30)[7] == 1.0
        for _ in range(100):
            r, t, lo, hi = _closed_case(rng)
            mid = rng.uniform(lo, hi)
            parts = (spherical_mean(d, indicator(F(lo), F(mid)), r, t)
                     + spherical_mean(d, indicator(F(mid), F(hi)), r, t))
            whole = spherical_mean(d, indicator(F(lo), F(hi)), r, t)
            assert abs(parts - whole) <= 1e-14, (d, r, t, lo, hi)
    # the quadrature, which a zero log piece below every other forces,
    # agrees within its budget, for constant pieces from d = 4 on and for
    # power pieces at d = 3
    for d in (3, 4, 5, 8):
        for _ in range(100):
            r, t = rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0)
            lo = rng.uniform(0.5, r + t)
            hi = lo + 2.0 ** -rng.uniform(0.0, 20.0)
            a_pow = rng.choice([-1.5, -1.0, 0.5, 2.0]) if d == 3 else 0.0
            f = (RadialProfile((ProfilePiece(F(lo), F(hi),
                                             rng.choice([1.0, -1.5]),
                                             a_pow),))
                 + indicator(F(hi), F(hi) + 1))
            forced = f + power_profile(0.0, 0.0, 1.0, 0, F(1, 4))
            assert not radial_operator._closed(d, forced)
            closed = spherical_mean(d, f, r, t)
            quadrature_mean = spherical_mean(d, forced, r, t)
            raw = abs(quadrature_mean) / _norm_const(d)
            budget = _norm_const(d) * max(quad.abs_tol, quad.rel_tol * raw)
            assert abs(closed - quadrature_mean) <= budget, (d, r, t, lo, hi)


def test_d3_power_mean_that_diverges_raises():
    # the window of r = t reaches s = 0, where s^(a+1) is not integrable
    # for a <= -2: a PrecisionError that names the piece, alone and in a
    # batch, never an inf, a nan or a numpy warning
    f = parse_profile("pow(1,-3,0,0,1)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=(
                r"at r = 1\.5, t = 1\.5 diverges at s = 0 in the piece "
                r"1\.0 \* s\^-3\.0 on \[0, 1\]")):
            spherical_mean(3, f, 1.5, 1.5)
        with pytest.raises(PrecisionError, match=r"r = 1\.5, t = 1\.5 "):
            _spherical_means(3, f, 1.5, np.linspace(1.0, 2.0, 41))
        with pytest.raises(PrecisionError, match=r"s\^-2\.0 on \[0, 1\]"):
            spherical_mean(3, parse_profile("pow(1,-2,0,0,1)"), 0.5, 0.5)
        # off r = t the mean is finite
        assert 0.0 < spherical_mean(3, f, 1.5, 1.25) < math.inf
        # a mean past the float range raises, alone and in a batch
        g = parse_profile("pow(1,-400,0,0,1)")
        t = float(np.nextafter(0.75, 1.0))
        with pytest.raises(PrecisionError, match="no finite value"):
            spherical_mean(3, g, 0.75, t)
        with pytest.raises(PrecisionError, match=f"t = {t!r} has no finite"):
            _spherical_means(3, g, 0.75, [0.5] * 30 + [t])


@pytest.mark.parametrize("a, r, ok", [
    (2, 1e-50, True), (2, 1e-76, True), (2, 1e-80, False),
    (2, 1e-100, False), (2, 1e-200, False), (1, 1e-80, True),
    (1, 1e-102, True), (1, 1e-105, False), (1, 1e-110, False)])
def test_d3_power_mean_at_tiny_radii_is_right_or_raises(a, r, ok):
    # the powers of the window ends underflow at tiny radii: a row comes
    # within 1e-12 of the exact mean, or raises a PrecisionError that
    # names it, alone and as the last row of a batch, never a wrong finite
    # value
    f = parse_profile(f"pow(1,{a},0,0,1)")
    t = 1.5 * r
    rf, tf = F(r), F(t)
    k = a + 2
    want = ((rf + tf) ** k - abs(rf - tf) ** k) / (k * 2 * rf * tf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if ok:
            for got in (spherical_mean(3, f, r, t),
                        _spherical_means(3, f, r, [0.5] * 29 + [t])[-1]):
                assert abs(F(got) - want) <= want / 10 ** 12
            return
        for call in (lambda: spherical_mean(3, f, r, t),
                     lambda: _spherical_means(3, f, r, [0.5] * 29 + [t])):
            with pytest.raises(PrecisionError, match=(
                    f"at r = {r!r}, t = {t!r} underflows below the normal")):
                call()


@pytest.mark.parametrize("d, expr, power", [
    (2, "pow(1,1,0,0,1)", 1), (3, "chi(0,1)", 0), (4, "pow(1,1,0,0,1)", 1),
    (5, "pow(1,1,0,0,1)", 1)])
def test_quadrature_means_at_tiny_radii_are_right_or_raise(d, expr, power):
    # the quadrature kernel divides by 4rt: while that is normal, a sphere
    # inside [0, 1] follows the scaling law M(xr, xt) = x^power M(r, t) of
    # s^power there; once it is below the normal range a row raises a
    # PrecisionError that names it, alone and as the last row of a batch,
    # never a wrong finite value or a numpy warning
    f = parse_profile(expr)
    assert not radial_operator._closed(d, f)
    law = spherical_mean(d, f, 1e-2, 1.5e-2) / 1e-2 ** power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = 1e-154
        got = spherical_mean(d, f, x, 1.5 * x) / x ** power
        assert abs(got - law) <= 1e-13 * law
        for x in (1e-155, 1e-160, 1e-163, 1e-200):
            t = 1.5 * x
            for call in (lambda: spherical_mean(d, f, x, t),
                         lambda: _spherical_means(d, f, [1.0] * 29 + [x],
                                                  [1.5] * 29 + [t])):
                with pytest.raises(PrecisionError, match=(
                        f"at r = {x!r}, t = {t!r} underflows below the "
                        "normal")):
                    call()


def test_d3_power_mean_keeps_a_piece_that_underflows_beside_others():
    # the power piece's integral underflows to 0 and loses all its digits,
    # which the constant piece beside it outweighs by far
    f = parse_profile("pow(1,2,0,0,1e-100) + chi(1e-100,2)")
    assert spherical_mean(3, f, 1.0, 1.0) == 1.0
    assert _spherical_means(3, f, 1.0, [1.0] * 30)[0] == 1.0


@pytest.mark.parametrize("d", [2, 4, 5])
def test_constant_means_at_tiny_radii(d):
    # the sphere of radius 1e-200 at 1e-200 lies inside chi(0, 1), whose
    # mean is exactly 1, alone and in a batch; chi(1e-200, 1) cuts it, and
    # 4rt underflows to 0, so its mean raises
    r = 1e-200
    assert spherical_mean(d, indicator(0, 1), r, r) == 1.0
    assert _spherical_means(d, indicator(0, 1), r, [r] * 30).tolist() == \
        [1.0] * 30
    with pytest.raises(PrecisionError, match="no finite value"):
        spherical_mean(d, indicator(F(1, 10 ** 200), 1), r, r)
    with pytest.raises(PrecisionError, match="no finite value"):
        _spherical_means(d, indicator(F(1, 10 ** 200), 1), r, [r] * 30)


def test_closed_route_table():
    # constant pieces take the closed form at d = 2 and from d = 4 on, a
    # power piece without a log piece at d = 3, and log pieces never
    profiles = {"constant": indicator(0, 1),
                "power": power_profile(1.0, 0.5, 0.0, 0, 1) + indicator(1, 2),
                "log": power_profile(1.0, 0.0, 1.0, 0, F(1, 2))}
    for d in range(2, 9):
        for kind, f in profiles.items():
            assert f._kind == kind
            assert radial_operator._closed(d, f) == (
                kind == ("power" if d == 3 else "constant")), (d, kind)


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


def test_mean_zero_when_support_missed(monkeypatch):
    # the window [3.5, 6.5] lies in a gap of each profile, below an
    # indicator, between two power pieces, and above a log piece: every
    # panel of a lone row is dropped unevaluated, so the mean is +0.0
    def unreachable(f, panels):
        raise AssertionError("a panel in a gap was evaluated")

    monkeypatch.setattr(quadrature, "_pairs", unreachable)
    profiles = [indicator(F(10), F(11)),
                power_profile(2, 0.5, 0, 0, 1) + power_profile(3, -1, 0, 10, 11),
                power_profile(1, 0.5, 1, 0, F(1, 2))]
    for d in (3, 4, 5, 8):
        for f in profiles:
            mean = spherical_mean(d, f, 5.0, 1.5)
            assert mean == 0.0 and math.copysign(1.0, mean) == 1.0, (d, f)


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
    # the points of a grid, read backwards, are checked as any others
    with pytest.raises(ParameterError, match="strictly increasing"):
        DilationGrid(DilationGrid.from_set(full_interval(), F(1, 4)).points[::-1],
                     F(1, 16))


@pytest.mark.parametrize("spacing", [None, F(1, 32), F(1, 1000)],
                         ids=["default", "1/32", "1/1000"])
@pytest.mark.parametrize("E", [
    full_interval(), from_intervals([(F(9, 8), F(13, 8))]),
    middle_cantor(F(1, 3), 6), arithmetic_progression(F(1), F(1, 7), 8),
    finite_points([1, F(4, 3), F(3, 2), F(19, 10)]),
    union_of(middle_cantor(F(1, 3), 3), finite_points([F(3, 2)]))],
    ids=["interval", "sub-interval", "cantor", "progression", "points",
         "union"])
def test_grid_on_the_lattice_reads_as_its_fractions(E, spacing):
    # a grid holds integers over one denominator and reads as the tuple of
    # the Fractions separated_points returns, whole, sliced and as floats;
    # given those Fractions, a grid puts them over the lcm of their
    # denominators, and equals and hashes as the grid it came from
    g = DilationGrid.from_set(E, spacing)
    want = tuple(separated_points(E, g.refinement))
    assert g.points == want and tuple(g.points) == want
    assert len(g.points) == len(want)
    assert [g.points[i] for i in (0, len(want) // 2, -1)] == \
        [want[i] for i in (0, len(want) // 2, -1)]
    for cut in (slice(None, 3), slice(2, -1), slice(1, None, 2),
                slice(len(want), None), slice(None, None, -3)):
        assert g.points[cut] == want[cut]
    assert g._floats.tobytes() == np.array([float(p) for p in want]).tobytes()
    for again in (DilationGrid(g.points, g.refinement),
                  DilationGrid(want, g.refinement)):
        assert again == g and hash(again) == hash(g)
        assert again._floats.tobytes() == g._floats.tobytes()


def test_grid_builds_fractions_only_where_points_are_read(monkeypatch):
    # neither building the default 4097-point grid, nor its length, nor a
    # maximal_value over it makes one Fraction per point
    E = full_interval()
    f = parse_profile("chi(1/2,5/2)")
    new = F.__dict__["__new__"].__func__
    calls = []

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    g = DilationGrid.from_set(E)
    assert len(g.points) == 4097
    got = maximal_value(2, f, 1.7, E, g)
    monkeypatch.undo()
    assert len(calls) <= 16, calls
    assert got == maximal_value(2, f, 1.7, E)


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
    # a grid that from_set drew from another set is checked as well
    g = DilationGrid.from_set(full_interval(), F(1, 8))
    with pytest.raises(ParameterError, match="grid point 11/8 "):
        maximal_value(3, indicator(0, 4), 1.0, E, g)


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


_PIN_SETS = {
    # 33 points; 33 points; two points per component; eight per component
    "full": (full_interval(), F(1, 32)),
    "sub": (from_intervals([(F(17, 16), F(7, 4))]), F(11, 512)),
    "cantor": (middle_cantor(F(1, 3), 3), F(1, 27)),
    "cantor-fine": (middle_cantor(F(1, 3), 3), F(1, 108)),
}
_PIN_PROFILES = {
    "chi": indicator(F(1, 4), F(5, 2)),
    "chi-shell": indicator(F(1, 2), F(3, 2)),
    "pow": power_profile(1.5, -0.5, 0, 0, F(7, 2)),
    "pow-sq": power_profile(0.5, 2.0, 0, F(1, 4), F(3)),
    "log": power_profile(0.8, -0.5, 1.0, F(1, 16), F(15, 16)),
    "log-inv": power_profile(1.0, 0.0, -1.0, F(3, 4), F(63, 64)),
    "log-sq": power_profile(2.0, 0.5, 2.0, F(1, 2), F(63, 64)),
}
# (set, profile, d, r, where the best grid point sits in its polish
# bracket, value.hex(), t.hex()) of maximal_value: in closed form for the
# indicators at d = 2, 4 and 5 and the power pieces at d = 3, and otherwise
# on the Gauss-Kronrod 7/15 rule. The indicators' sup of 1 at r = 1.3 is
# met from t = 1 on at d = 2, and at d = 5 on the cantor grid; a polish of
# lone rows gives the same bits
_MAXVAL_PINS = [
    ("full", "chi", 2, 1.3, "left", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("full", "pow", 3, 1.3, "left", "0x1.47445d2232fdbp+0", "0x1.0000000000000p+0"),
    ("full", "log", 4, 0.3, "left", "0x1.5c76f72e25901p-5", "0x1.0000000000000p+0"),
    ("full", "chi-shell", 5, 2.9, "right", "0x1.6b0ceb8902cc8p-7", "0x1.0000000000000p+1"),
    ("full", "chi", 2, 2.9, "interior", "0x1.52c5841901f9cp-2", "0x1.783dda7cf9dbdp+0"),
    ("full", "pow-sq", 3, 1.3, "interior", "0x1.251eb8516fac1p+1", "0x1.b3333333ea188p+0"),
    ("full", "log-inv", 2, 0.9, "interior", "0x1.cbc4878f577abp+0", "0x1.d95da6571cb5bp+0"),
    ("sub", "chi", 5, 1.3, "left", "0x1.ffff85a29e790p-1", "0x1.1000000000000p+0"),
    ("sub", "pow", 2, 2.9, "left", "0x1.3b26b6c44fed8p-1", "0x1.1000000000000p+0"),
    ("sub", "log", 3, 0.3, "left", "0x1.0d6fc1ade3860p-5", "0x1.1000000000000p+0"),
    ("sub", "chi-shell", 4, 2.9, "right", "0x1.0be30b953fb10p-6", "0x1.c000000000000p+0"),
    ("sub", "pow-sq", 5, 1.3, "right", "0x1.2e459590b2f1ep+1", "0x1.c000000000000p+0"),
    ("sub", "log-inv", 2, 0.8, "right", "0x1.f59f3d778d1d5p+0", "0x1.bfb5c51215618p+0"),
    ("sub", "chi", 3, 2.9, "interior", "0x1.f90bc8f63a5c8p-3", "0x1.783ddae7ed70bp+0"),
    ("sub", "pow-sq", 4, 1.7, "interior", "0x1.27bb496611251p+1", "0x1.59dbc22f50eb0p+0"),
    ("sub", "log-sq", 2, 0.6, "interior", "0x1.b436ecfa519c9p-4", "0x1.1999999a5ae94p+0"),
    ("cantor", "chi", 2, 1.3, "left", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("cantor", "pow", 3, 1.3, "left", "0x1.47445d2232fdbp+0", "0x1.0000000000000p+0"),
    ("cantor", "log", 4, 0.3, "left", "0x1.5c76f72e25901p-5", "0x1.0000000000000p+0"),
    ("cantor", "chi", 5, 1.3, "left", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("cantor", "pow", 2, 1.7, "right", "0x1.5ba05404dee0ap+0", "0x1.b33333325c0a1p+0"),
    ("cantor", "log-inv", 2, 0.9, "right", "0x1.a3df0134cd8fcp+0", "0x1.c71c71c71c71cp+0"),
    ("cantor-fine", "chi", 4, 1.7, "left", "0x1.ce77672c29fbdp-1", "0x1.0000000000000p+0"),
    ("cantor-fine", "pow", 5, 1.3, "left", "0x1.389898e214914p+0", "0x1.0000000000000p+0"),
    ("cantor-fine", "log", 2, 0.3, "left", "0x1.6023ffa7cd744p-4", "0x1.0000000000000p+0"),
    ("cantor-fine", "chi", 3, 2.9, "right", "0x1.f6957aff6957bp-3", "0x1.5555555555555p+0"),
    ("cantor-fine", "pow-sq", 4, 1.3, "right", "0x1.2b108d6e832e6p+1", "0x1.c71c71c71c71cp+0"),
    ("cantor-fine", "log-inv", 2, 0.9, "right", "0x1.a3df0134cd8fcp+0", "0x1.c71c71c71c71cp+0"),
    ("cantor-fine", "chi", 2, 1.3, "left", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("cantor-fine", "pow-sq", 5, 1.3, "interior", "0x1.391c830d903bcp+1", "0x1.e88250a7ebc82p+0"),
    ("cantor-fine", "log-sq", 2, 0.6, "interior", "0x1.b436ecff60a09p-4", "0x1.19999999cefd4p+0"),
]


# ids of (set, profile, d, r, where) only, so a re-baseline keeps them
@pytest.mark.parametrize("set_name,prof,d,r,where,value,t", _MAXVAL_PINS,
                         ids=["-".join(map(str, pin[:5]))
                              for pin in _MAXVAL_PINS])
def test_maximal_value_pinned_bits(set_name, prof, d, r, where, value, t,
                                   monkeypatch):
    E, spacing = _PIN_SETS[set_name]
    grid = DilationGrid.from_set(E, spacing)
    f = _PIN_PROFILES[prof]
    # the best grid point and its bracket, as the polish of maximal_value
    # cuts it: within the refinement radius and inside its component
    v = np.abs(_spherical_means(d, f, r, grid._floats))
    i = int(np.argmax(v))
    best = float(grid._floats[i])
    lo, hi = E.component(grid.points[i])
    h = float(grid.refinement)
    a, b = max(float(lo), best - h), min(float(hi), best + h)
    assert where == ("left" if best == a else "right" if best == b
                     else "interior")
    # a bracket whose grid maximum is one of its ends, and only such a
    # bracket, evaluates its predicted path in one batch
    marks = []
    golden = radial_operator._golden_max

    def recording(fn, brackets, iters, marked):
        marks.append(list(marked))
        return golden(fn, brackets, iters, marked)

    monkeypatch.setattr(radial_operator, "_golden_max", recording)
    got = maximal_value(d, f, r, E, grid)
    assert marks == [[] if where == "interior" else [0]]
    assert (got.value.hex(), got.t.hex()) == (value, t)


def _golden_alone(fn, a, b, iters):
    # the golden-section search of one bracket, one point per step
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fn(c)
    fd = fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def test_golden_lockstep_matches_each_bracket_alone():
    peaks = [
        lambda x: -(x - 1.3) ** 2,
        # a plateau holding both first points, so fc == fd from the start
        lambda x: min(1.0, 4.0 - 4.0 * abs(x - 1.5)),
        lambda x: float(x >= 1.6),
        lambda x: x,
    ]
    brackets = [(1.0, 2.0), (1.0, 2.0), (1.1, 1.9), (1.2, 1.25)]
    a, b = brackets[1]
    assert peaks[1](b - _INVPHI * (b - a)) == peaks[1](a + _INVPHI * (b - a))
    batches = []

    def fn(xs, js):
        batches.append(list(js))
        return [peaks[j](x) for j, x in zip(js, xs)]

    # no bracket marked: the first call takes every c and then every d,
    # and every later step evaluates every search
    got = _golden_max(fn, brackets, 36, {})
    assert batches == [[0, 1, 2, 3] * 2] + [[0, 1, 2, 3]] * 36
    for g, (a, b), (t, v) in zip(peaks, brackets, got):
        want_t, want_v = _golden_alone(g, a, b, 36)
        assert (t.hex(), v.hex()) == (want_t.hex(), want_v.hex())
    for iters in (0, 1, 30):
        [(t, v)] = _golden_max(lambda xs, js: [peaks[1](x) for x in xs],
                               [(1.0, 2.0)], iters, {})
        want_t, want_v = _golden_alone(peaks[1], 1.0, 2.0, iters)
        assert (t.hex(), v.hex()) == (want_t.hex(), want_v.hex())


def _path_alone(fn, a, b, iters):
    # the abscissae the search of one bracket evaluates alone, in order
    path = []
    _golden_alone(lambda x: path.append(x) or fn(x), a, b, iters)
    return path


def _run_marked(g, bracket, iters, left):
    # one bracket, marked with the guess left: the sizes of fn's calls,
    # and the result
    sizes = []

    def fn(xs, js):
        sizes.append(len(xs))
        return [g(x) for x in xs]

    [got] = _golden_max(fn, [bracket], iters, {0: left})
    t, v = _golden_alone(g, *bracket, iters)
    assert (got[0].hex(), got[1].hex()) == (t.hex(), v.hex())
    return sizes


def _ramp_left(g, a, b):
    # whether the search's first comparison sends it toward a
    return g(b - _INVPHI * (b - a)) >= g(a + _INVPHI * (b - a))


def _ramp_steps(g, a, b, iters):
    # how many points after c and d the lone search takes in one direction
    # before it turns: each new c lies below the last, each new d above
    path = _path_alone(g, a, b, iters)
    left = path[2] < path[0]
    last, k = path[0] if left else path[1], 0
    for x in path[2:]:
        if (x < last) != left:
            break
        last, k = x, k + 1
    return k


@pytest.mark.parametrize("g", [lambda x: -x, lambda x: x, lambda x: 1.0],
                         ids=["into-left-end", "into-right-end", "plateau"])
def test_golden_path_batch_replays_a_ramp(g):
    # one call holds c, d and the whole rest of the path when the guess
    # is right, and a wrong guess costs one call for the other path; the
    # plateau (fc == fd at every step) runs toward a, as the ramp -x does
    for bracket in [(1.0, 2.0), (1.375, 1.40625)]:
        left = _ramp_left(g, *bracket)
        assert _run_marked(g, bracket, 36, left) == [38]
        assert _run_marked(g, bracket, 36, not left) == [38, 36]
    left = _ramp_left(g, 1.0, 2.0)
    assert _run_marked(g, (1.0, 2.0), 1, left) == [3]
    assert _run_marked(g, (1.0, 2.0), 1, not left) == [3, 1]
    # no guess: c and d alone, then the path the search takes
    assert _run_marked(g, (1.0, 2.0), 36, None) == [2, 36]
    # no predicted point: c and d alone, and no call for the other path
    for guess in (left, not left, None):
        assert _run_marked(g, (1.0, 2.0), 0, guess) == [2]


@pytest.mark.parametrize("peak", [1.01, 1.2, 1.45, 1.99, 1.7])
def test_golden_path_batch_rejoins_the_lockstep(peak):
    # the search leaves the ramp after k steps, then asks for one lone
    # point per step; the first step follows the comparison of c and d,
    # so k >= 1 whatever the profile
    def g(x):
        return -(x - peak) ** 2

    k = _ramp_steps(g, 1.0, 2.0, 36)
    assert 0 < k < 36
    left = _ramp_left(g, 1.0, 2.0)
    assert _run_marked(g, (1.0, 2.0), 36, left) == [38] + [1] * (36 - k)
    assert (_run_marked(g, (1.0, 2.0), 36, not left)
            == [38, 36] + [1] * (36 - k))


def test_golden_path_batch_mixes_marked_and_lockstep_brackets():
    peaks = [lambda x: -x, lambda x: -(x - 1.3) ** 2, lambda x: x,
             lambda x: -(x - 1.01) ** 2]
    brackets = [(1.0, 2.0), (1.0, 2.0), (1.2, 1.25), (1.0, 2.0)]
    calls = []

    def fn(xs, js):
        calls.append(list(js))
        return [peaks[j](x) for j, x in zip(js, xs)]

    # bracket 2 runs toward b, against its guess
    got = _golden_max(fn, brackets, 36, {0: True, 2: True, 3: True})
    k = _ramp_steps(peaks[3], 1.0, 2.0, 36)
    assert calls[0] == [0, 1, 2, 3] * 2 + [0] * 36 + [2] * 36 + [3] * 36
    assert calls[1] == [2] * 36
    assert 0 < k < 36
    assert calls[2:] == [[1]] * k + [[1, 3]] * (36 - k)
    for g, (a, b), (t, v) in zip(peaks, brackets, got):
        want_t, want_v = _golden_alone(g, a, b, 36)
        assert (t.hex(), v.hex()) == (want_t.hex(), want_v.hex())


def test_sup_guesses_a_side_from_a_lower_swept_neighbour():
    # the best grid point 1 is the left end of its bracket [1, 1 + h]; the
    # first polish call takes the path toward it only when 1 + h is a swept
    # point valued below the best: else c and d go alone, then the path
    ts = np.linspace(1.0, 2.0, 5)
    for h, values, want in [(0.25, [4, 3, 2, 1, 0], [5, 38]),
                            (0.2, [4, 3, 2, 1, 0], [5, 2, 36]),
                            (0.25, [4, 4, 2, 1, 0], [5, 2, 36])]:
        calls = []

        def eval_many(xs, ks):
            calls.append(len(xs))
            return [np.interp(x, ts, values) for x in xs]

        [(v, t)] = _sup_over_dilations(eval_many, [(ts, None, (1.0, 2.0), h)],
                                       None, iters=36)
        assert calls == want and (v, t) == (4.0, 1.0)


def test_golden_path_batch_drops_an_error_off_the_path():
    # a path call raises at a point the search never visits: a first call
    # with the guess toward a (left) is retried with c and d alone, a call
    # for the path toward a after the guess toward b is dropped, and the
    # search runs in lockstep to its lone result
    def g(x):
        return -(x - 1.01) ** 2

    off = (set(_path_alone(lambda x: -x, 1.0, 2.0, 36))
           - set(_path_alone(g, 1.0, 2.0, 36)))
    assert off
    t, v = _golden_alone(g, 1.0, 2.0, 36)
    for left, first in [(True, [38, 2]), (False, [38, 36])]:
        sizes = []

        def fn(xs, js):
            sizes.append(len(xs))
            if off.intersection(xs):
                raise PrecisionError("stalled off the path")
            return [g(x) for x in xs]

        [got] = _golden_max(fn, [(1.0, 2.0)], 36, {0: left})
        assert (got[0].hex(), got[1].hex()) == (t.hex(), v.hex())
        assert sizes == first + [1] * 36


@pytest.mark.parametrize("step", [0, 1, 2, 9, 37])
@pytest.mark.parametrize("g", [lambda x: -x, lambda x: -(x - 1.01) ** 2],
                         ids=["ramp", "turn"])
def test_golden_path_batch_raises_where_the_search_alone_does(g, step):
    # a PrecisionError on the true path, inside the predicted part or not:
    # the same error, from the same point, as the search alone
    bad = _path_alone(g, 1.0, 2.0, 36)[step]

    def h(x):
        if x == bad:
            raise PrecisionError(f"stalled at {x.hex()}")
        return g(x)

    with pytest.raises(PrecisionError) as alone:
        _golden_alone(h, 1.0, 2.0, 36)
    for marked in ([], [0]):
        with pytest.raises(PrecisionError) as err:
            _golden_max(lambda xs, js: [h(x) for x in xs], [(1.0, 2.0)], 36,
                        marked)
        assert str(err.value) == str(alone.value)


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
@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_spherical_means_match_spherical_mean_bitwise(d, kind, monkeypatch):
    f = _BATCH_PROFILES[kind]
    r = 1.5
    rounds = []
    pairs = quadrature._pairs
    # _closed sends the indicator at d = 2, 4, 5 and 8 and the power
    # and mixed profiles at d = 3 to a closed form, and the rest to the
    # quadrature
    closed = (d, kind) in {(2, "indicator"), (4, "indicator"),
                           (5, "indicator"), (8, "indicator"), (3, "power"),
                           (3, "mixed")}
    assert radial_operator._closed(d, f) == closed

    def counted(*args):
        rounds.append(len(args[1]))
        return pairs(*args)

    # small batches, both sides of the switch from the per-panel to the
    # array layout, and both sides of the switch from closed-form rows one
    # by one to rows at once
    k = quadrature._ARRAY_ROWS
    j = radial_operator._ROWS_AT_ONCE
    lone_rounds = []
    for n in (1, 2, 3, j - 1, j, k - 1, k, k + 1, 255, 256, 257, 4097):
        ts = np.linspace(1.0, 2.0, n)
        monkeypatch.setattr(quadrature, "_pairs", counted)
        rounds.clear()
        batch = _spherical_means(d, f, r, ts)
        chunks = -(-n // quadrature._CHUNK_ROWS)
        if closed:
            assert not rounds                # no row reached the quadrature
        elif kind in ("power", "log") and d < 5 and n > 3:
            assert len(rounds) > chunks      # some rows refined
        if n == 4097:
            # every boundary of the 256-row chunks, and a stride through
            check = sorted({*range(0, n, 7), n - 1,
                            *(k + j for k in range(256, n - 1, 256)
                              for j in (-1, 0, 1))})
        else:
            check = range(n)
        for i in check:
            rounds.clear()
            assert batch[i] == spherical_mean(d, f, r, ts[i]), (n, i)
            lone_rounds.append(len(rounds))
            assert not (closed and rounds)
        monkeypatch.undo()
        if kind == "indicator":
            miss = np.abs(r - ts) >= 0.3
            assert n == 1 or miss.any()
            assert np.all(batch[miss] == 0.0)
    if kind == "log" and d < 5:
        # the lone row at t = r, where the window reaches the log
        # singularity at s = 0, refines in at least two rounds
        assert max(lone_rounds) >= 3


# profiles with different breakpoints and supports, for batches that mix
# them row by row
_MIXED_PROFILES = (indicator(F(1, 2), F(3, 2)),
                   power_profile(1.0, -0.5, 0.0, F(1, 4), F(5, 2)),
                   power_profile(0.8, 0.5, 1.0, F(1, 16), F(3, 4)),
                   _BATCH_PROFILES["mixed"],
                   # touching power, log, constant and power pieces, two
                   # with negative coefficients
                   power_profile(2.0, 1.0, 0.0, 0, F(1, 4))
                   + power_profile(-0.5, 0.0, 1.0, F(1, 4), F(1, 2))
                   + indicator(F(1, 2), 1)
                   + power_profile(-1.0, -1.0, 0.0, 1, 3))
# profiles with only constant pieces: touching, apart, of either sign, and
# beyond every window of r = 1.25, t in [1, 2]
_CONSTANT_PROFILES = (indicator(F(1, 2), F(3, 2)),
                      indicator(0, F(1, 4)) + indicator(F(1, 4), F(3, 4))
                      + indicator(2, 3),
                      RadialProfile((ProfilePiece(F(1, 8), F(1, 2), -1.5),
                                     ProfilePiece(F(1, 2), F(5, 4), 0.75),
                                     ProfilePiece(F(2), F(9, 4), 2.0))),
                      indicator(4, 5))


@pytest.mark.parametrize("n", [12, 44])
@pytest.mark.parametrize("order", ["together", "interleaved"])
def test_mixed_profile_rows_match_their_profiles_alone_bitwise(n, order):
    # a batch of 12 rows is laid out per panel and one of 44 as arrays; a
    # row whose window misses its own profile's support, though not the
    # others', is 0.0, and so is an empty row
    rng = np.random.default_rng(n)
    which = np.arange(n) % len(_MIXED_PROFILES)
    if order == "together":
        which = np.sort(which)
    profiles = [_MIXED_PROFILES[k] for k in which]
    los = rng.uniform(0.0, 2.0, n)
    his = los + rng.uniform(0.1, 1.5, n)
    his[3] = los[3]
    miss = 5
    los[miss] = float(profiles[miss].support[1]) + 0.25
    his[miss] = los[miss] + 0.5

    def weight(s, dlo, dhi, rows):
        return np.sqrt(s) / np.sqrt(dlo)

    # the profiles, and |f| of each, as the d = 2 components integrate it
    absolute = [radial_operator._weighted_abs(f, 1.0) for f in _MIXED_PROFILES]
    for rows in (profiles, [absolute[k] for k in which]):
        batch = radial_operator._profile_integrals(
            rows, los, his, weight, quadrature.DEFAULT_QUAD)
        for i in range(n):
            alone = radial_operator._profile_integrals(
                rows[i], [los[i]], [his[i]], weight, quadrature.DEFAULT_QUAD)
            assert batch[i] == alone[0], (i, which[i])
        assert batch[3] == batch[miss] == 0.0
        assert (batch != 0.0).sum() > n // 2
        assert (batch < 0.0).any() == (rows is profiles)

    # means, in batches of five times as many rows, so that a profile has
    # rows enough to take its closed form at once in the larger batch: in
    # one batch the rows that _closed sends to a closed form (the
    # indicator at d = 2, 4, 5 and 8, the power and mixed profiles at d =
    # 3) and the others by quadrature; and batches of profiles with only
    # constant pieces, one profile or several, all in closed form
    ts = rng.uniform(1.0, 2.0, 5 * n)
    profiles *= 5
    flat = [_CONSTANT_PROFILES[k % len(_CONSTANT_PROFILES)]
            for k in which] * 5
    for d, rows in [*((d, profiles) for d in (2, 3, 4, 5, 8)),
                    *((d, flat) for d in (2, 4, 5, 8)),
                    *((d, f) for d in (2, 5) for f in _CONSTANT_PROFILES)]:
        if rows is profiles:
            routes = [radial_operator._closed(d, f) for f in rows]
            assert 0 < sum(routes) < len(rows)
        means = _spherical_means(d, rows, 1.25, ts)
        for i in range(len(ts)):
            f = rows if isinstance(rows, RadialProfile) else rows[i]
            assert means[i] == spherical_mean(d, f, 1.25, ts[i]), (d, i)


def _random_profile(rng):
    # pieces between sorted ends on a grid of 1/64: touching where no gap
    # is drawn between them, constant, log (up to s = 1) and power pieces,
    # some coefficients negative
    ends = sorted({F(int(x), 64) for x in rng.integers(0, 200, 8)})
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        draw = rng.random()
        coeff = float(rng.choice([1.0, -1.5, 0.75, 2.0]))
        if draw < 0.2:
            continue
        if draw < 0.5:
            pieces.append(ProfilePiece(lo, hi, coeff))
        elif draw < 0.75 and hi <= 1:
            pieces.append(ProfilePiece(lo, hi, coeff,
                                       float(rng.choice([0.0, 0.5, -0.5])),
                                       float(rng.choice([0.5, 1.0, 2.0]))))
        else:
            pieces.append(ProfilePiece(lo, hi, coeff,
                                       float(rng.choice([-0.5, 0.5, 2.0])),
                                       0.0))
    return RadialProfile(tuple(pieces))


def _ulps(x, k):
    # x moved by k ulp, up for k > 0
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


def _rows_near(rng, breaks, n):
    # windows across the pieces, half of them with an end a few ulp from a
    # breakpoint and some of those only a few ulp wide
    lo = rng.uniform(0.0, 3.5, n)
    hi = lo + rng.uniform(0.0, 2.0, n) * 2.0 ** rng.integers(-6, 1, n)
    for i in rng.choice(n, n // 2, replace=False):
        c = _ulps(float(rng.choice(breaks)), int(rng.integers(-3, 4)))
        if rng.random() < 0.4:
            lo[i] = c
            hi[i] = _ulps(c, int(rng.integers(1, 5)))
        elif rng.random() < 0.5:
            lo[i] = c
        else:
            hi[i] = c
    return lo, hi


def _misses(f, a, b):
    # the panels [a, b] that meet no piece of f: a panel meets piece j when
    # lows[j] < b and highs[j] > a, and the pieces are sorted and disjoint
    lows, highs = (np.array([end[k] for end in f._table]) for k in (0, 1))
    return lows.searchsorted(b) <= highs.searchsorted(a, "right")


@pytest.mark.parametrize("k", [1, 3])
def test_piece_tags_reproduce_values_and_drop_the_gaps(k):
    # batches of rows of k random profiles, laid out per panel and, for one
    # profile, as arrays too, against the
    # inline reference _misses: each interval between a profile's
    # breakpoints is owned by the one piece it meets, or by none; a lone
    # row, tagged by _owner, drops just the panels that meet no piece; and
    # a batch lays out every row, and tags it, as it is laid out alone;
    # and the tagged piece reproduces the profile's values bitwise at every
    # node strictly inside the piece. A node off that, which only a panel
    # a few ulp wide can have, lies within a few ulp of an end of the piece
    rng = np.random.default_rng(31 + k)
    checked = edge = dropped = named = 0
    for _ in range(60):
        profiles = [_random_profile(rng) for _ in range(k)]
        for f in profiles:
            cuts = [-math.inf, *f._breaks, math.inf]
            for m, owner in enumerate(f._owner):
                meet = [j for j, (lo_j, hi_j, _) in enumerate(f._table)
                        if lo_j < cuts[m + 1] and hi_j > cuts[m]]
                assert meet == ([] if owner < 0 else [owner])
        table, parts = radial_operator._batch(profiles)
        base = np.cumsum([0] + [len(f.pieces) for f in profiles])
        breaks = sorted({b for f in profiles for b in f._breaks} or {1.0})
        n = int(rng.choice([12, 40]))
        lo, hi = _rows_near(rng, breaks, n)
        kind = rng.integers(0, k, n) if k > 1 else None
        row_kind = np.zeros(n, dtype=np.intp) if kind is None else kind

        alone = []
        for i in range(n):
            f = profiles[row_kind[i]]
            # every panel tagged with the index m of its interval, which
            # lies between the padded cuts m and m + 1, and kept: it
            # misses every piece just where _owner is negative, and the
            # lone row drops just those panels
            every = quadrature._layout([lo[i]], [hi[i]], i, [(
                f._breaks, list(range(len(f._owner))))], None)
            m = np.array([pn[8] for pn in every], dtype=np.intp)
            cuts = np.array([-math.inf, *f._breaks, math.inf])
            miss = _misses(f, np.maximum(lo[i], cuts[m]),
                           np.minimum(hi[i], cuts[m + 1]))
            assert miss.tolist() == [f._owner[j] < 0 for j in m]
            lone = quadrature._layout([lo[i]], [hi[i]], i,
                                      [(f._breaks, f._owner)], None)
            want = np.array([pn for pn, x in zip(every, miss) if not x],
                            dtype=float).reshape(-1, 10)
            want[:, 8] = [f._owner[j] for j in m[~miss]]
            assert np.array(lone, dtype=float).reshape(-1, 10).tobytes() \
                == want.tobytes()
            alone += lone
        alone = np.array(alone, dtype=float).reshape(-1, 10)
        # the batch tags a panel with its piece's index in the batch table
        alone[:, 8] += base[row_kind[alone[:, -1].astype(np.intp)]]
        layouts = [quadrature._layout(lo.tolist(), hi.tolist(), 0, parts,
                                      None if kind is None else kind.tolist())]
        if kind is None:
            layouts.append(quadrature._layout_array(lo, hi, 0, parts[0]))
        for panels in layouts:
            panels = np.array(panels, dtype=float).reshape(-1, 10)
            tags = panels[:, 8].astype(np.intp)
            assert panels.tobytes() == alone.tobytes()
            dropped += len(quadrature._layout(
                lo.tolist(), hi.tolist(), 0,
                [(f._breaks, [0] * len(f._owner)) for f in profiles],
                None if kind is None else kind.tolist())) - len(panels)
            # the nodes of each panel, as _pairs computes them
            u = panels[:, 2:3] + panels[:, 3:4] * quadrature._NODES
            s = panels[:, 4:5] + panels[:, 5:6] * (u * u)
            got = np.broadcast_to(table.values(s, tags[:, None]), s.shape)
            for row, tag, x, v in zip(panels[:, -1].astype(int), tags, s,
                                      got):
                f = profiles[row_kind[row]]
                j = tag - base[row_kind[row]]
                lo_j, hi_j, _ = f._table[j]
                inside = (x > lo_j) & (x < hi_j)
                assert v[inside].tobytes() == f.values(x[inside]).tobytes()
                checked += inside.sum()
                for y in x[~inside]:
                    edge += 1
                    assert min(abs(y - lo_j), abs(y - hi_j)) <= 4 * max(
                        np.spacing(lo_j), np.spacing(hi_j))
                # the one piece the nodes' span meets, when just one does
                meet = [i for i, (lo_i, hi_i, _) in enumerate(f._table)
                        if lo_i < x.max() and hi_i > x.min()]
                if len(meet) == 1:
                    assert j == meet[0]
                    named += 1
    assert checked > 10000 and dropped > 50 and edge > 0
    assert named > 600


@pytest.mark.parametrize("n", [12, 40])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_a_batch_of_k_profiles_costs_one_pass(k, n, monkeypatch):
    # a chunk of rows of k profiles, one per scale as in the Lorentz
    # probes, with a power piece singular at 0 below the indicator of each,
    # makes one layout pass, as arrays only for one profile from
    # _ARRAY_ROWS rows on, evaluates its pieces once per round, in the
    # round's one integrand call, and never calls RadialProfile.values;
    # laid out per panel it takes as many rounds as its slowest row alone
    scales = [indicator(1 - F(1, 2 ** (j + 3)), 1)
              + power_profile(1.0, -0.5, 0.0, 0, 1 - F(1, 2 ** (j + 3)))
              for j in range(k)]
    profiles = [scales[j % k] for j in range(n)]
    ts = np.random.default_rng(k * n).uniform(1.0, 2.0, n)
    calls = {"layout": 0, "pairs": 0, "pieces": 0, "values": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    lone_rounds = []
    alone = []
    for i in range(n):
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_pairs",
                      counting("pairs", quadrature._pairs))
            calls["pairs"] = 0
            alone.append(spherical_mean(2, profiles[i], 1.5, ts[i]))
            lone_rounds.append(calls["pairs"])
    calls["pairs"] = 0
    layout = ("_layout_array" if k == 1 and n >= quadrature._ARRAY_ROWS
              else "_layout")
    monkeypatch.setattr(quadrature, layout,
                        counting("layout", getattr(quadrature, layout)))
    monkeypatch.setattr(quadrature, "_pairs",
                        counting("pairs", quadrature._pairs))
    monkeypatch.setattr(radial_operator._PieceTable, "values",
                        counting("pieces",
                                 radial_operator._PieceTable.values))
    monkeypatch.setattr(RadialProfile, "values",
                        counting("values", RadialProfile.values))
    batch = _spherical_means(2, profiles, 1.5, ts)
    assert batch.tolist() == alone
    assert calls["layout"] == 1 and calls["values"] == 0
    assert calls["pieces"] == calls["pairs"] > 1
    if layout == "_layout":
        assert calls["pairs"] == max(lone_rounds)


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
    # a zero coefficient: norm 0, though s**-1 alone diverges for p = 2
    assert lp_norm(power_profile(0, -1, 0, 0, 1), 2.0, 2) == 0.0


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
    scipy_integrate = pytest.importorskip("scipy.integrate")
    f = power_profile(1.5, -0.75, 2.0, F(1, 8), F(7, 8))
    p, d = 2.0, 3
    want, _ = scipy_integrate.quad(
        lambda s: (1.5 * s ** -0.75 * math.log(1.0 / s) ** 2) ** p * s ** (d - 1),
        1 / 8, 7 / 8)
    assert lp_norm(f, p, d) == pytest.approx(want ** (1 / p), rel=1e-8)


def test_lp_norm_log_piece_from_origin_against_scipy():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    f = power_profile(1, -0.5, 2.0, 0, F(1, 2))
    p, d = 2.0, 2
    want, _ = scipy_integrate.quad(
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


def test_lp_norm_of_a_narrow_power_piece():
    # the width comes from the exact piece ends: (hi^4 - lo^4)/4 from the
    # rounded ends keeps only about four digits
    lo = F(13, 10)
    hi = lo + F(3, 7) / 2 ** 40
    got = lp_norm(power_profile(1, 2, 0, lo, hi), 1, 2)
    want = (hi ** 4 - lo ** 4) / 4
    assert abs(F(got) - want) <= want / 10 ** 13


def test_ess_sup_interior_critical_point():
    cases = [
        # s log(1/s) peaks at s = 1/e, inside the piece or up to s = 1
        (power_profile(1, 1, 1, F(1, 100), F(99, 100)), math.exp(-1.0)),
        (power_profile(1, 1, 1, 0, 1), math.exp(-1.0)),
        # pieces from s = 0, where a log power below 0 or a power above 0
        # vanishes and a constant does not
        (power_profile(1, 0, -1, 0, F(1, 2)), 1.0 / math.log(2.0)),
        (power_profile(-3, 2, 0, 0, F(1, 2)), 0.75),
        (power_profile(2, 0, 0, 0, F(1, 2)), 2.0),
        # a log piece ending at s = 1, where it vanishes
        (power_profile(1, 0, 2, F(1, 4), 1), math.log(4.0) ** 2),
        # a zero coefficient, whatever its powers
        (power_profile(0, -1, 0, 0, 1), 0.0),
    ]
    for f, want in cases:
        assert lp_norm(f, math.inf, 2) == pytest.approx(want, rel=1e-12)


def test_ess_sup_divergence_at_origin():
    with pytest.raises(DivergentNormError):
        lp_norm(power_profile(1, -1, 0, 0, 1), math.inf, 3)


def test_lp_norm_rejects_bad_p():
    with pytest.raises(ParameterError):
        lp_norm(indicator(0, 1), 0.5, 2)


# ---------------------------------------------------------------------------
# decomposition components


def test_components_pinned_bits():
    # every component nonzero somewhere, on the default grid of [1, 2]
    f = parse_profile("chi(1/2,3/2) + pow(2,-1/2,0,2,3)")
    got = {(d, r): {k: v.hex() for k, v in decomposition_components(
               d, full_interval(), f, 1.5, r).items()}
           for d, r in [(2, 0.9), (2, 2.5), (3, 1.0), (3, 1.2), (3, 2.5)]}
    zero = "0x0.0p+0"
    assert got == {
        (2, 0.9): {"mainpart": "0x1.e16ed9d36fd0ep+0",
                   "mainpart_tilde": "0x1.75b9baf59dfd0p+1",
                   "remainder1": zero, "remainder2": zero,
                   "remainder3": "0x1.0000000000000p+1",
                   "remainder4": "0x1.3ee42c16f7967p+1"},
        (2, 2.5): {"mainpart": "0x1.a03498ad61b2ap+1",
                   "mainpart_tilde": "0x1.0243f3ee647fcp+1",
                   "remainder1": "0x1.acb68c4bec66ap+0",
                   "remainder2": "0x1.69281161ef338p-1",
                   "remainder3": zero, "remainder4": zero},
        (3, 1.0): {"mainpart": "0x1.3fe6a840cb968p+1", "remainder1": zero,
                   "remainder2": "0x1.c577207644378p+0"},
        (3, 1.2): {"mainpart": "0x1.0686a0dcf4047p+2", "remainder1": zero,
                   "remainder2": "0x1.cf389b0d38d8ep+0"},
        (3, 2.5): {"mainpart": "0x1.0a0bbf958cf78p+2",
                   "remainder1": "0x1.8577207644378p+0", "remainder2": zero},
    }


def _components_one_by_one(d, E, f, r, grid):
    # each active component through its own one-sweep _sup_over_dilations,
    # with the window, weight and divisor of its own integrand
    h = float(grid.refinement)
    ts, pts = grid._floats, grid.points
    i = int(ts.searchsorted(r / 2.0, "right"))
    j = int(ts.searchsorted(1.5 * r))
    near, far_lo, far_hi = ((ts[i:j], pts[i:j]), (ts[:i], pts[:i]),
                            (ts[j:], pts[j:]))
    main, mid = 2.0 / 3.0 < r < 4.0, (r / 2.0, 1.5 * r)
    if d >= 3:
        def at(w, scale):
            g = radial_operator._weighted_abs(f, w)
            return lambda ts: (2.0 * r / scale) * ts * _spherical_means(
                3, g, r, ts)

        hi_t, lo_t = min(2.0, r / 2.0), max(1.0, 1.5 * r)
        comps = {
            "mainpart": (main, at(d - 2.0, 1.0), near, mid),
            "remainder1": (r >= 2.0, at(0.0, 1.0),
                           (np.linspace(1.0, hi_t, 33), None), (1.0, hi_t)),
            "remainder2": (r < 4.0 / 3.0 and lo_t <= 2.0, at(0.0, r),
                           (np.linspace(lo_t, 2.0, 33), None), (lo_t, 2.0))}
    else:
        absf = radial_operator._weighted_abs(f, 1.0)

        def at(window, weight, scale=1.0):
            return lambda ts: radial_operator._profile_integrals(
                absf, *window(ts), lambda s, dlo, dhi, _: weight(s, dlo, dhi),
                quadrature.DEFAULT_QUAD) / scale

        def centred(ts):
            return np.abs(r - ts), r + ts

        low, high = (0.0, r / 2.0), (1.5 * r, math.inf)
        sqrt_r = math.sqrt(r)
        comps = {
            "mainpart": (main, at(centred, lambda s, dlo, dhi:
                                  np.sqrt(s) / np.sqrt(dlo)), near, mid),
            "mainpart_tilde": (main, at(centred, lambda s, dlo, dhi:
                                        np.sqrt(s) / np.sqrt(dhi)), near, mid),
            "remainder1": (r >= 2.0, at(
                lambda ts: (r - ts, np.full_like(ts, r)),
                lambda s, dlo, dhi: 1.0 / np.sqrt(dlo)), far_lo, low),
            "remainder2": (r >= 2.0, at(
                lambda ts: (np.full_like(ts, r), r + ts),
                lambda s, dlo, dhi: 1.0 / np.sqrt(dhi)), far_lo, low),
            "remainder3": (r < 4.0 / 3.0, at(
                lambda ts: (ts - r, ts),
                lambda s, dlo, dhi: 1.0 / np.sqrt(dlo), sqrt_r), far_hi, high),
            "remainder4": (r < 4.0 / 3.0, at(
                lambda ts: (ts, ts + r),
                lambda s, dlo, dhi: 1.0 / np.sqrt(dhi), sqrt_r), far_hi, high)}
    return {name: _sup_over_dilations(
                lambda ts, _, fn=fn: fn(np.asarray(ts)),
                [(*cands, bounds, h)], E)[0][0] if on else 0.0
            for name, (on, fn, cands, bounds) in comps.items()}


def test_decomposition_lockstep_matches_each_component_alone(monkeypatch):
    # one _sup_over_dilations call sweeps and polishes every component in
    # lockstep; each must keep the bits of its own sup taken alone
    rng = random.Random(45)
    sets = [(E, DilationGrid.from_set(E, F(1, 32)))
            for E in (middle_cantor(F(1, 3), 4), full_interval())]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _sup_over_dilations(*args, **kwargs)

    seen = set()
    for _ in range(40):
        d = rng.choice([2, 3, 4])
        E, grid = rng.choice(sets)
        cuts = sorted(rng.sample(range(1, 48), 2 * rng.randint(1, 2)))
        f = RadialProfile(tuple(
            ProfilePiece(F(lo, 8), F(hi, 8), round(rng.uniform(0.2, 3.0), 6),
                         rng.choice([0.0, 0.0, -1.0, -0.5, 0.5, 1.0]))
            for lo, hi in zip(cuts[::2], cuts[1::2])))
        r = rng.uniform(0.3, 5.0)
        want = _components_one_by_one(d, E, f, r, grid)
        monkeypatch.setattr(radial_operator, "_sup_over_dilations", counted)
        calls.clear()
        got = decomposition_components(d, E, f, 2, r, grid=grid)
        monkeypatch.undo()
        assert len(calls) == 1, (d, r)
        assert {k: v.hex() for k, v in got.items()} == \
            {k: v.hex() for k, v in want.items()}, (d, E, f, r)
        seen |= {(d > 2, k) for k, v in got.items() if v > 0.0}
    # every component of both shapes was on, and nonzero, in some draw
    assert seen == {(False, k) for k in ("mainpart", "mainpart_tilde",
                                         "remainder1", "remainder2",
                                         "remainder3", "remainder4")} | {
        (True, k) for k in ("mainpart", "remainder1", "remainder2")}


def test_components_from_three_dimensions_match_mpmath():
    # without a polish (refinement 0) each d >= 3 component is the largest,
    # over its candidate dilations t and 0, of the integral of s^w |f| over
    # [|r - t|, r + t], over r for remainder2: w = d - 2 for the main part
    # and 0 for the remainders; the referee takes it from the
    # antiderivative at 40 digits
    mpmath = pytest.importorskip("mpmath")
    E = middle_cantor(F(1, 3), 4)
    grid = DilationGrid(DilationGrid.from_set(E, F(1, 32)).points, 0)
    rng = random.Random(22)

    def moment(pieces, w, r, t):
        r, t = F(r), F(t)
        total = 0
        for lo, hi, c, a in pieces:
            y0, y1 = max(lo, abs(r - t)), min(hi, r + t)
            if y1 > y0:
                y0, y1, k = _mp(mpmath, y0), _mp(mpmath, y1), a + w + 1
                total += abs(c) * (mpmath.log(y1 / y0) if k == 0
                                   else (y1 ** k - y0 ** k) / k)
        return total

    with mpmath.workdps(40):
        for _ in range(12):
            d = rng.choice([3, 4, 5])
            cuts = sorted(rng.sample(range(1, 48), 4))
            pieces = [(F(cuts[2 * k], 8), F(cuts[2 * k + 1], 8),
                       rng.choice([1, -1]) * rng.uniform(0.2, 3.0),
                       rng.choice([0.0, 0.0, -1.0, -0.5, 0.5, 1.0]))
                      for k in range(rng.randint(1, 2))]
            f = RadialProfile(tuple(ProfilePiece(lo, hi, c, a)
                                    for lo, hi, c, a in pieces))
            r = rng.uniform(0.7, 4.2)
            near = [t for t in grid._floats if r / 2 < t < 1.5 * r]
            hi_t, lo_t = min(2.0, r / 2), max(1.0, 1.5 * r)
            want = {
                "mainpart": (2 / 3 < r < 4, near, d - 2, 1),
                "remainder1": (r >= 2, np.linspace(1.0, hi_t, 33), 0, 1),
                "remainder2": (r < 4 / 3 and lo_t <= 2.0,
                               np.linspace(lo_t, 2.0, 33), 0, r)}
            got = decomposition_components(d, E, f, 2, r, grid=grid)
            assert set(got) == set(want)
            for name, (on, ts, w, scale) in want.items():
                best = max([moment(pieces, w, r, t) / _mp(mpmath, F(scale))
                            for t in ts] + [0] if on else [0])
                assert abs(got[name] - best) <= 1e-12 * best, \
                    (d, pieces, r, name, got[name], best)


def test_components_do_not_depend_on_p():
    # for d >= 3 the main part's power of s is d - 2 at every p, and for
    # d = 2 the g-weight cancels, so every p gives the bits of p = 2
    E = middle_cantor(F(1, 3), 2)
    g = DilationGrid.from_set(E, F(1, 32))
    f = parse_profile("chi(1/2,3/2) + pow(2,-1/2,0,2,3)")
    for d in range(2, 8):
        for r in (0.6, 0.9, 1.2, 1.7, 2.5, 3.5):
            want = decomposition_components(d, E, f, 2, r, grid=g)
            for p in (1, F(3, 2), 3, 100):
                assert decomposition_components(d, E, f, p, r, grid=g) == want


def test_components_reject_points_outside_set():
    # a sup over E must not be taken at t = 1 or 2 when E = {3/2}
    E = finite_points([F(3, 2)])
    g = DilationGrid((F(1), F(2)), F(1, 64))
    with pytest.raises(ParameterError, match="grid point 1 "):
        decomposition_components(3, E, indicator(F(1, 2), 3), 2, 1.2, grid=g)


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
