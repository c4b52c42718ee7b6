import math
import random
from fractions import Fraction

import pytest

from conftest import random_fractal_set
from sphmax.errors import (
    ConfigError,
    InsufficientDataError,
    InvalidScaleError,
    InvalidWindowError,
    ParameterError,
)
from sphmax.fractal_set import (
    FractalSet,
    arithmetic_progression,
    binary_covering_number,
    covering_number,
    estimate_dimensions,
    finite_points,
    from_intervals,
    full_interval,
    geometric_sequence,
    local_covering_number,
    middle_cantor,
    neighborhood_measure,
    parse_set,
    power_sequence,
    resolution,
    separated_points,
    union_of,
)

F = Fraction


# ------------------------------------------------------------------- oracles

def packing_number(points, delta):
    """Greatest number of points with pairwise gaps strictly above delta.

    For closed subsets of the line this equals the minimal covering count
    by closed intervals of length delta, which gives an oracle for the
    greedy sweep that shares no code with it.
    """
    count = 0
    last = None
    for p in sorted(points):
        if last is None or p - last > delta:
            count += 1
            last = p
    return count


def enumerate_cells(E, j):
    """Brute-force scan of half-open cells [m 2^j, (m+1) 2^j) meeting E."""
    cell = F(2) ** j
    hit = set()
    m = 0
    while m * cell <= 2:
        lo, hi = m * cell, (m + 1) * cell
        for a, b in E.intervals:
            if a < hi and b >= lo:
                hit.add(m)
                break
        m += 1
    return len(hit)


def interval_difference_measure(outer, inner):
    """|outer \\ inner| for two merged, sorted interval lists."""
    total = F(0)
    for a, b in outer:
        cut = a
        for c, d in inner:
            if d <= cut or c >= b:
                continue
            if c > cut:
                total += min(c, b) - cut
            cut = max(cut, min(d, b))
            if cut >= b:
                break
        if cut < b:
            total += b - cut
    return total


def dilated_intervals(E, rad):
    merged = []
    for a, b in E.intervals:
        lo, hi = max(F(0), a - rad), b + rad
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


# ------------------------------------------------------------ covering number

def test_covering_full_interval():
    assert covering_number(full_interval(), F(1, 4)) == 4


def test_covering_two_far_points():
    assert covering_number(finite_points([1, 2]), F(1, 2)) == 2


def test_covering_cantor_third_depth_three():
    # the 8 generation-3 cells have length 1/27 and sibling gaps of 1/27,
    # so consecutive left endpoints sit 2/27 > 1/27 apart: the 8 endpoints
    # form a strict packing, and one interval per cell covers, hence 8
    E = middle_cantor(F(1, 3), 3)
    assert len(E.intervals) == 8
    lefts = [a for a, _ in E.intervals]
    assert all(y - x > F(1, 27) for x, y in zip(lefts, lefts[1:]))
    assert all(b - a == F(1, 27) for a, b in E.intervals)
    assert covering_number(E, F(1, 27)) == 8


def test_covering_rejects_bad_scales():
    E = full_interval()
    for bad in (0, -1, F(3, 2), 0.25):
        with pytest.raises(InvalidScaleError):
            covering_number(E, bad)


def test_covering_equals_packing_on_random_point_sets():
    rng = random.Random(41)
    for _ in range(200):
        q = rng.choice([32, 48, 64, 80])
        pts = sorted(rng.sample(range(q + 1), rng.randint(1, 12)))
        pts = [1 + F(p, q) for p in pts]
        E = finite_points(pts)
        delta = F(rng.randint(1, 2 * q), 2 * q)
        assert covering_number(E, delta) == packing_number(pts, delta)


def test_covering_monotone_and_subadditive():
    rng = random.Random(42)
    for _ in range(100):
        E = random_fractal_set(rng)
        F2 = random_fractal_set(rng)
        d1 = F(rng.randint(1, 32), 64)
        d2 = d1 / 2
        assert covering_number(E, d2) >= covering_number(E, d1)
        u = union_of(E, F2)
        assert covering_number(u, d1) <= covering_number(E, d1) + covering_number(F2, d1)


def test_exact_multiples_do_not_overcount():
    # a length divisible by the scale must not pick up a spurious interval
    E = from_intervals([(F(5, 4), F(5, 4) + F(3, 8))])
    assert covering_number(E, F(1, 8)) == 3


# ----------------------------------------------------------------- cell count

def test_cells_full_interval_quarters():
    # the tiling convention puts 2 in the cell starting at 2
    assert binary_covering_number(full_interval(), -2) == 5


def test_cells_single_point_always_one():
    E = finite_points([F(3, 2)])
    for j in range(0, -9, -1):
        assert binary_covering_number(E, j) == 1


def test_cells_match_enumeration():
    E = middle_cantor(F(1, 3), 2)
    assert binary_covering_number(E, -4) == enumerate_cells(E, -4)


def test_cells_match_enumeration_random():
    rng = random.Random(43)
    for _ in range(100):
        E = random_fractal_set(rng)
        j = -rng.randint(0, 8)
        assert binary_covering_number(E, j) == enumerate_cells(E, j)


def test_cells_reject_positive_exponent():
    with pytest.raises(InvalidScaleError):
        binary_covering_number(full_interval(), 1)


# ------------------------------------------------------------------- measures

def test_neighborhood_point():
    assert neighborhood_measure(finite_points([F(3, 2)]), 2) == 1


def test_neighborhood_interval():
    assert neighborhood_measure(full_interval(), 5) == F(9, 8)


def test_neighborhood_merges_and_clamps():
    E = finite_points([1, F(3, 2), 2])
    assert neighborhood_measure(E, 1) == 3
    # radius 2 at n=0 pokes below zero and is clamped there
    assert neighborhood_measure(E, 0) == 4


def shell_measure(E, n):
    """Measure of the shell 2**(-n) < dist(r, E) <= 2**(1-n)."""
    return neighborhood_measure(E, n) - neighborhood_measure(E, n + 1)


def test_annulus_point():
    assert shell_measure(finite_points([F(3, 2)]), 2) == F(1, 2)


def test_annulus_interval():
    assert shell_measure(full_interval(), 3) == F(1, 4)


def test_annulus_matches_direct_set_difference():
    E = middle_cantor(F(1, 3), 4)
    for n in (0, 3, 6, 9):
        outer = dilated_intervals(E, F(2) ** (1 - n))
        inner = dilated_intervals(E, F(2) ** (-n))
        assert neighborhood_measure(E, n) == interval_difference_measure(outer, [])
        assert neighborhood_measure(E, n + 1) == interval_difference_measure(inner, [])
        assert shell_measure(E, n) == interval_difference_measure(outer, inner)


def test_neighborhood_does_not_increase():
    rng = random.Random(44)
    for _ in range(50):
        E = random_fractal_set(rng)
        m = rng.randint(0, 10)
        assert all(shell_measure(E, n) >= 0 for n in range(m + 1))


def test_binary_sandwich_exact():
    rng = random.Random(45)
    sets = [random_fractal_set(rng) for _ in range(50)]
    sets += [middle_cantor(F(1, 3), 6), full_interval(), geometric_sequence(2, 10)]
    for E in sets:
        for n in range(0, 13):
            N = covering_number(E, F(2) ** -n)
            Nt = binary_covering_number(E, -n)
            w = neighborhood_measure(E, n)
            assert N <= Nt <= 3 * N
            assert F(2) ** (-n - 2) * N <= w <= F(2) ** (-n + 3) * N


# ------------------------------------------------------------- local coverings

def test_local_basic_window():
    assert local_covering_number(full_interval(), (1, F(9, 8)), F(1, 16)) == 2


def test_local_empty_intersection():
    E = finite_points([F(11, 10), F(19, 10)])
    assert local_covering_number(E, (F(3, 2), F(8, 5)), F(1, 32)) == 0


def test_local_cantor_generation_cell():
    E = middle_cantor(F(1, 3), 5)
    cell = middle_cantor(F(1, 3), 2).intervals[0]
    assert local_covering_number(E, cell, F(3) ** -5) == 8


def test_local_self_similarity():
    for alpha, k in ((F(1, 3), 4), (F(1, 3), 5), (F(3, 5), 4)):
        E = middle_cantor(alpha, k)
        scale = ((1 - alpha) / 2) ** k
        for j in (0, 1, 2):
            cells = middle_cantor(alpha, j).intervals
            for cell in cells:
                assert local_covering_number(E, cell, scale) == 2 ** (k - j)


def test_local_window_shorter_than_scale():
    with pytest.raises(InvalidWindowError):
        local_covering_number(full_interval(), (1, F(1, 32) + 1), F(1, 16))


def test_local_bounded_by_global():
    rng = random.Random(46)
    for _ in range(100):
        E = random_fractal_set(rng)
        d = F(rng.randint(1, 16), 64)
        lo = 1 + F(rng.randint(0, 32), 64)
        hi = lo + F(rng.randint(int(64 * d), 64), 64)
        assert local_covering_number(E, (lo, hi), d) <= covering_number(E, d)


# -------------------------------------------------------------- characteristics

def test_minkowski_characteristic_interval():
    report = estimate_dimensions(full_interval(), [F(2) ** -k for k in (1, 3, 6)])
    for _, char in report.char_minkowski:
        assert char == pytest.approx(1.0)


def test_minkowski_characteristic_cantor_bounded():
    # at beta = log2/log3 the characteristic of the depth-8 set is 1 up to
    # float rounding: N(3^-8) = 2^8 and (3^-8)^beta = 2^-8
    E = middle_cantor(F(1, 3), 8)
    report = estimate_dimensions(E, [F(3) ** -k for k in range(2, 9)])
    assert report.char_minkowski[-1][0] == F(3) ** -8
    assert 0.9 <= report.char_minkowski[-1][1] <= 1.1


def test_characteristic_rejects_bad_parameters():
    E = full_interval()
    scales = [F(1), F(1, 2), F(1, 4)]
    for thetas in ((0.5, 1.5), (-0.1,), ("x",)):
        with pytest.raises(ParameterError):
            estimate_dimensions(E, scales, thetas)
    # the characteristics are defined below scale 1 only
    report = estimate_dimensions(E, scales)
    assert [d for d, _ in report.char_minkowski] == scales[1:]
    assert [d for d, _ in report.char_assouad] == scales[1:]


def test_assouad_dominates_minkowski():
    # the windowed characteristic starts from the full-hull window, so it
    # dominates delta**gamma * N(E, delta) at its own exponent gamma
    rng = random.Random(47)
    for _ in range(40):
        E = random_fractal_set(rng)
        ds = [F(1, 2 ** k) for k in range(2, 8) if F(1, 2 ** k) >= resolution(E)]
        if len(ds) < 3:
            continue
        report = estimate_dimensions(E, ds)
        g = min(1.0, max(0.0, report.quasi_assouad_estimate))
        for (d, w), (_, n) in zip(report.char_assouad, report.covering_table):
            assert w >= float(d) ** g * n - 1e-12


def test_equivalence_of_characteristic_and_shell_measures():
    # bounded characteristic forces the shell measures down at the same rate
    E = middle_cantor(F(1, 3), 8)
    beta = math.log(2) / math.log(3)
    ns = range(0, 13)
    C = max(float(F(2) ** -n) ** beta * covering_number(E, F(2) ** -n)
            for n in range(1, 13))
    for n in ns:
        w = float(neighborhood_measure(E, n)) * 2.0 ** (n * (1 - beta))
        dshell = float(shell_measure(E, n)) * 2.0 ** (n * (1 - beta))
        assert w <= 8 * C + 1e-9
        assert dshell <= 8 * C + 1e-9


# ------------------------------------------------------------------ dimensions

def test_dimensions_full_interval():
    report = estimate_dimensions(full_interval(), [F(2) ** -k for k in range(2, 7)])
    assert report.minkowski_estimate == pytest.approx(1.0, abs=0.01)
    assert report.minkowski_residual < 0.01


def test_dimensions_cantor_third():
    E = middle_cantor(F(1, 3), 8)
    scales = [F(3) ** -k for k in range(2, 9)]
    report = estimate_dimensions(E, scales)
    assert report.minkowski_estimate == pytest.approx(math.log(2) / math.log(3), abs=0.02)


def test_dimensions_finite_points_flatten_near_resolution():
    # between the resolution and twice the resolution nothing new resolves,
    # so the fitted slope collapses to zero
    E = finite_points([1, F(3, 2), 2])
    report = estimate_dimensions(E, [F(3, 4), F(5, 8), F(9, 16)])
    assert abs(report.minkowski_estimate) < 1e-9


def test_dimensions_spectrum_monotone_and_ordered():
    rng = random.Random(48)
    for _ in range(10):
        E = random_fractal_set(rng)
        res = resolution(E)
        if res > F(1, 32):
            continue
        finest = max(res, F(1, 256))
        scales = [finest * 8, finest * 4, finest * 2, finest]
        report = estimate_dimensions(E, scales, thetas=(0.3, 0.5, 0.7, 0.9))
        vals = [v for _, v in report.spectrum]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        assert report.quasi_assouad_estimate <= report.assouad_estimate + 1e-12
        assert report.minkowski_estimate <= report.quasi_assouad_estimate + 0.4


def test_dimensions_need_three_scales():
    with pytest.raises(InsufficientDataError):
        estimate_dimensions(full_interval(), [F(1, 4), F(1, 8)])


def test_dimensions_reject_increasing_scales():
    with pytest.raises(InvalidScaleError):
        estimate_dimensions(full_interval(), [F(1, 8), F(1, 4), F(1, 2)])


def test_dimensions_reject_scales_below_resolution():
    E = middle_cantor(F(1, 3), 3)
    with pytest.raises(InvalidScaleError):
        estimate_dimensions(E, [F(1, 4), F(1, 16), F(3) ** -5])


# Values recorded before the covering counts were folded into one greedy
# walk. cantor(1/3, 9) has 1024 endpoints, more than either anchor cap, so
# the subsampled window search is pinned too. The fields that go through
# np.polyfit (LAPACK) are compared to 1e-9; every other value is exact.
_GOLDEN = {
    "cantor": dict(
        table=((F(1, 3), 2), (F(1, 9), 4), (F(1, 27), 8), (F(1, 81), 16),
               (F(1, 243), 32), (F(1, 729), 64)),
        slope=0.6309297535714576,
        residual=1.937861347180406e-15,
        spectrum=((0.5, 0.6309297535714574), (0.7, 0.8547556456757274),
                  (0.9, 0.8547556456757274)),
        quasi=0.8547556456757274,
        assouad=0.8547556456757274,
        char_m=(0.9999999999999998, 0.9999999999999996, 0.9999999999999993,
                0.9999999999999991, 0.9999999999999989, 0.9999999999999986),
        char_a=(1.414213562373095, 1.8084524252442165, 1.2787689733434435,
                1.6352500871858444, 1.1562964255850037, 1.4786359930260284),
        local=(2, 9),
    ),
    "progression": dict(
        table=((F(1, 8), 1), (F(1, 16), 2), (F(1, 32), 4), (F(1, 64), 6),
               (F(1, 128), 8)),
        slope=0.7584962500721155,
        residual=0.13460243237052713,
        spectrum=((0.5, 0.8616541669070521), (0.7, 1.0), (0.9, 1.0)),
        quasi=1.0,
        assouad=1.0,
        char_m=(0.2065425960445377, 0.24417967096529353, 0.288675134594813,
                0.2559590638849025, 0.201734012569891),
        char_a=(1.0, 1.0, 1.0, 1.0, 1.0),
        local=(3, 8),
    ),
    "union": dict(
        table=((F(1, 2), 2), (F(1, 4), 4), (F(1, 8), 5), (F(1, 16), 9)),
        slope=0.68317030992143,
        residual=0.09696258148257685,
        spectrum=((0.5, 1.0), (0.7, 1.0), (0.9, 1.0)),
        quasi=1.0,
        assouad=1.0,
        char_m=(1.2455903651443765, 1.5514953577405013, 1.2078297932298727,
                1.3540150378633085),
        char_a=(1.0, 1.0, 1.0, 1.0),
        local=(4, 10),
    ),
}


def _golden_set(name):
    if name == "cantor":
        return middle_cantor(F(1, 3), 9)
    if name == "progression":
        return arithmetic_progression(F(5, 4), F(1, 128), 16)
    return union_of(middle_cantor(F(1, 3), 3), finite_points([F(3, 2), F(31, 20)]))


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_dimension_report_and_window_counts_golden(name):
    E = _golden_set(name)
    want = _GOLDEN[name]
    scales = [d for d, _ in want["table"]]
    report = estimate_dimensions(E, scales)
    assert report.covering_table == want["table"]
    assert report.minkowski_estimate == pytest.approx(want["slope"], rel=1e-9)
    assert report.minkowski_residual == pytest.approx(want["residual"], abs=1e-9)
    assert report.spectrum == want["spectrum"]
    assert report.quasi_assouad_estimate == want["quasi"]
    assert report.assouad_estimate == want["assouad"]
    assert [d for d, _ in report.char_minkowski] == scales
    assert [v for _, v in report.char_minkowski] == pytest.approx(
        want["char_m"], rel=1e-9)
    assert report.char_assouad == tuple(zip(scales, want["char_a"]))
    assert (local_covering_number(E, (F(4, 3), F(5, 3)), F(1, 81)),
            local_covering_number(E, (F(10, 9), F(3, 2)), F(1, 100))) == want["local"]


# ------------------------------------------------------------------ generators

def test_cantor_generation_counts():
    for alpha, k in ((F(1, 3), 5), (F(3, 5), 4)):
        E = middle_cantor(alpha, k)
        keep = (1 - alpha) / 2
        assert len(E.intervals) == 2 ** k
        assert all(b - a == keep ** k for a, b in E.intervals)


def test_cantor_resolution():
    assert resolution(middle_cantor(F(1, 3), 7)) == F(3) ** -7
    assert resolution(middle_cantor(F(1, 2), 5)) == F(4) ** -5


def test_resolution_conventions():
    assert resolution(full_interval()) == 0
    assert resolution(finite_points([F(3, 2)])) == 0
    assert resolution(finite_points([1, F(3, 2), 2])) == F(1, 2)


def test_geometric_sequence_points():
    E = geometric_sequence(2, 3)
    flat = [a for a, _ in E.intervals]
    assert flat == [F(3, 2), F(7, 4), F(15, 8), 2]
    with pytest.raises(ParameterError):
        geometric_sequence(1, 3)
    # a bool is not a count, for every count-taking generator
    for make in (lambda c: geometric_sequence(2, c),
                 lambda c: power_sequence(2, c),
                 lambda c: arithmetic_progression(1, 1, c)):
        for bad in (True, False, 0, 2.0):
            with pytest.raises(ParameterError, match="count must be a positive"):
                make(bad)


def test_power_sequence_integer_exponent_exact():
    E = power_sequence(2, 4)
    flat = [a for a, _ in E.intervals]
    assert flat == [1, F(17, 16), F(10, 9), F(5, 4), 2]


def test_power_sequence_fractional_exponent_rationalized():
    E = power_sequence(F(1, 2), 4)
    xs = [float(a) for a, _ in E.intervals]
    for n in range(1, 5):
        assert min(abs(x - (1 + n ** -0.5)) for x in xs) < 1e-12


def test_progression_points_and_limits():
    E = arithmetic_progression(F(5, 4), F(1, 128), 16)
    assert len(E.intervals) == 16
    assert E.intervals[0][0] == F(5, 4)
    assert E.intervals[-1][0] == F(5, 4) + 15 * F(1, 128)
    with pytest.raises(ParameterError):
        arithmetic_progression(F(15, 8), F(1, 8), 3)


def test_sets_stay_inside_ambient_interval():
    with pytest.raises(ParameterError):
        finite_points([F(1, 2)])
    with pytest.raises(ParameterError):
        from_intervals([(F(3, 2), F(5, 2))])


def test_union_merges_touching_components():
    a = from_intervals([(1, F(3, 2))])
    b = from_intervals([(F(3, 2), 2)])
    assert union_of(a, b).intervals == ((F(1), F(2)),)


def test_separated_points_interval():
    pts = separated_points(full_interval(), F(1, 4))
    assert pts == [1, F(5, 4), F(3, 2), F(7, 4), 2]


def test_separated_points_progression():
    E = arithmetic_progression(F(5, 4), F(1, 128), 16)
    assert len(separated_points(E, F(1, 128))) == 16
    assert len(separated_points(E, F(1, 64))) == 8


# ---------------------------------------------------------------- expressions

def test_parse_round_trip():
    for expr, direct in [
        ("interval", full_interval()),
        ("points(3/2)", finite_points([F(3, 2)])),
        ("cantor(alpha=1/3, depth=4)", middle_cantor(F(1, 3), 4)),
        ("cantor(1/3, 4)", middle_cantor(F(1, 3), 4)),
        ("geometric(base=2, count=5)", geometric_sequence(2, 5)),
        ("powerseq(exponent=2, count=6)", power_sequence(2, 6)),
        ("progression(u=5/4, delta=1/64, m=16)",
         arithmetic_progression(F(5, 4), F(1, 64), 16)),
    ]:
        assert parse_set(expr).intervals == direct.intervals


def test_parse_union_nested():
    E = parse_set("union(points(3/2), progression(u=5/4, delta=1/64, m=16))")
    direct = union_of(finite_points([F(3, 2)]),
                      arithmetic_progression(F(5, 4), F(1, 64), 16))
    assert E.intervals == direct.intervals


def test_parse_rejects_garbage():
    for expr in ("swirl(1/2)", "cantor(alpha=1/3)", "cantor(alpha=1/3, depth=4) trailing",
                 "union()", "cantor(alpha=2, depth=1)"):
        with pytest.raises(ConfigError):
            parse_set(expr)


def test_generator_string_reparses_to_same_set():
    sets = [middle_cantor(F(1, 3), 3), geometric_sequence(F(3, 2), 4),
            arithmetic_progression(F(4, 3), F(1, 32), 5),
            union_of(finite_points([F(3, 2)]), middle_cantor(F(1, 2), 2))]
    for E in sets:
        assert parse_set(E.generator).intervals == E.intervals


def test_fractalset_is_hashable_and_frozen():
    E = middle_cantor(F(1, 3), 2)
    assert hash(E) == hash(middle_cantor(F(1, 3), 2))
    with pytest.raises(AttributeError):
        E.depth = 3


def test_component_and_nearest_match_linear_scans():
    rng = random.Random(11)
    for _ in range(60):
        E = random_fractal_set(rng)
        # component endpoints, the midpoints between components (ties of
        # nearest), points inside, both ends of [1, 2], and floats
        probes = [F(1), F(2), *E.endpoints]
        probes += [(b + a2) / 2 for (_, b), (a2, _) in
                   zip(E.intervals, E.intervals[1:])]
        probes += [F(rng.randint(0, 512), 512) + 1 for _ in range(20)]
        probes += [float(x) for x in probes[:10]]
        for x in probes:
            held = [iv for iv in E.intervals if iv[0] <= x <= iv[1]]
            assert E.component(x) == (held[0] if held else None)
            best = None
            for a, b in E.intervals:
                cand = min(max(x, a), b)
                if best is None or abs(cand - x) < abs(best - x):
                    best = cand
            assert E.nearest(x) == best


def test_nearest_tie_takes_the_left_component():
    E = from_intervals([(1, F(5, 4)), (F(7, 4), 2)])
    assert E.nearest(F(3, 2)) == F(5, 4)
    assert E.nearest(F(3, 2) + F(1, 1024)) == F(7, 4)
    assert E.nearest(F(9, 8)) == F(9, 8)
    assert E.component(F(3, 2)) is None
    assert E.component(F(7, 4)) == (F(7, 4), F(2))
