import bisect
import dataclasses
import math
import random
from fractions import Fraction
from operator import itemgetter

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
    _window_counts,
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
    restrict,
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


# Every DimensionReport field of a Cantor set, a geometric and a power
# sequence, recorded before the window search kept only the largest count
# per dyadic length: floats as float.hex, the rest as str, each field's
# leaves after its name. The fields fitted by np.polyfit (LAPACK) compare
# their floats to 1e-9 as above; every other leaf compares bit for bit.
_PINNED_REPORTS = {
    "cantor": """
        covering_table 1/81 16 1/243 32 1/729 64 1/2187 128 1/6561 256 1/19683
            512 1/59049 1024 1/177147 2048 1/531441 4096 1/1594323 8192
            1/4782969 16384
        minkowski_estimate 0x1.430939835353dp-1
        minkowski_residual 0x1.072c18f940467p-49
        spectrum 0x1.0000000000000p-1 0x1.430939835353dp-1 0x1.6666666666666p-1
            0x1.5e1ba026cc3b6p-1 0x1.ccccccccccccdp-1 0x1.7e21e035c219ep-1
        quasi_assouad_estimate 0x1.7e21e035c219ep-1
        assouad_estimate 0x1.f62ead3ff03aep-1
        char_minkowski 1/81 0x1.0000000000000p+0 1/243 0x1.0000000000001p+0
            1/729 0x1.0000000000000p+0 1/2187 0x1.0000000000001p+0 1/6561
            0x1.0000000000001p+0 1/19683 0x1.0000000000001p+0 1/59049
            0x1.0000000000001p+0 1/177147 0x1.0000000000001p+0 1/531441
            0x1.0000000000001p+0 1/1594323 0x1.0000000000001p+0 1/4782969
            0x1.0000000000001p+0
        char_assouad 1/81 0x1.ad73a526ab6a8p+0 1/243 0x1.3d5033fd2ed8bp+0 1/729
            0x1.894fb9e18ed0cp+0 1/2187 0x1.e782f1f642210p+0 1/6561
            0x1.683665e0b2e60p+0 1/19683 0x1.0a275f6da10fdp+0 1/59049
            0x1.894fb9e18ed0cp-1 1/177147 0x1.e782f1f642211p-1 1/531441
            0x1.2e22f0c564557p+0 1/1594323 0x1.be7c364e29b7dp-1 1/4782969
            0x1.14b5d85e09ae9p+0
    """,
    "geometric": """
        covering_table 1/16 4 1/32 5 1/64 6 1/128 7 1/256 8 1/512 9 1/1024 10
            1/2048 11 1/4096 12 1/8192 13 1/16384 14 1/32768 15 1/65536 16
            1/131072 17 1/262144 18 1/524288 19
        minkowski_estimate 0x1.208769f6b4039p-3
        minkowski_residual 0x1.85047de8dc188p-4
        spectrum 0x1.0000000000000p-1 0x1.95c01a39fbd69p-1 0x1.6666666666666p-1
            0x1.95c01a39fbd69p-1 0x1.ccccccccccccdp-1 0x1.0000000000000p+0
        quasi_assouad_estimate 0x1.0000000000000p+0
        assouad_estimate 0x1.0000000000000p+0
        char_minkowski 1/16 0x1.5a70f5363f39bp+1 1/32 0x1.88c314fa4f2d9p+1 1/64
            0x1.ab77107d41c32p+1 1/128 0x1.c44faba741cadp+1 1/256
            0x1.d4d588ae1d402p+1 1/512 0x1.de5e12521260ap+1 1/1024
            0x1.e2119d8607a02p+1 1/2048 0x1.e0f0d8831fe9cp+1 1/4096
            0x1.dbd99aec1f42ep+1 1/8192 0x1.d38b288921dbbp+1 1/16384
            0x1.c8a9f641273b3p+1 1/32768 0x1.bbc2ff46f86d2p+1 1/65536
            0x1.ad4eb6ecaad44p+1 1/131072 0x1.9db3a237ad529p+1 1/262144
            0x1.8d48a31aa489cp+1 1/524288 0x1.7c56fe2687928p+1
        char_assouad 1/16 0x1.0000000000000p+0 1/32 0x1.0000000000000p+0 1/64
            0x1.0000000000000p+0 1/128 0x1.0000000000000p+0 1/256
            0x1.0000000000000p+0 1/512 0x1.0000000000000p+0 1/1024
            0x1.0000000000000p+0 1/2048 0x1.0000000000000p+0 1/4096
            0x1.0000000000000p+0 1/8192 0x1.0000000000000p+0 1/16384
            0x1.0000000000000p+0 1/32768 0x1.0000000000000p+0 1/65536
            0x1.0000000000000p+0 1/131072 0x1.0000000000000p+0 1/262144
            0x1.0000000000000p+0 1/524288 0x1.0000000000000p+0
    """,
    "powerseq": """
        covering_table 1/16 3 1/32 4 1/64 4 1/128 5 1/256 6 1/512 7 1/1024 9
            1/2048 11 1/4096 13 1/8192 16 1/16384 18 1/32768 22
        minkowski_estimate 0x1.0ca0d2ab20e87p-2
        minkowski_residual 0x1.7d6e5116b3ef2p-5
        spectrum 0x1.0000000000000p-1 0x1.1b78a065117a2p-1 0x1.6666666666666p-1
            0x1.95c01a39fbd69p-1 0x1.ccccccccccccdp-1 0x1.0000000000000p+0
        quasi_assouad_estimate 0x1.0000000000000p+0
        assouad_estimate 0x1.0000000000000p+0
        char_minkowski 1/16 0x1.731794ddb828dp+0 1/32 0x1.9c867a24e6d73p+0 1/64
            0x1.57f03d97036b8p+0 1/128 0x1.6671912df74a0p+0 1/256
            0x1.669e3d19d1745p+0 1/512 0x1.5cd3846807efbp+0 1/1024
            0x1.75eca1e21df58p+0 1/2048 0x1.7d08c64b6c60ap+0 1/4096
            0x1.777197468b2b7p+0 1/8192 0x1.8142082dc23b9p+0 1/16384
            0x1.695aeade98652p+0 1/32768 0x1.7039e07d781b1p+0
        char_assouad 1/16 0x1.0000000000000p+0 1/32 0x1.0000000000000p+0 1/64
            0x1.0000000000000p+0 1/128 0x1.0000000000000p+0 1/256
            0x1.0000000000000p+0 1/512 0x1.0000000000000p+0 1/1024
            0x1.0000000000000p+0 1/2048 0x1.0000000000000p+0 1/4096
            0x1.0000000000000p+0 1/8192 0x1.0000000000000p+0 1/16384
            0x1.0000000000000p+0 1/32768 0x1.0000000000000p+0
    """,
}
_FITTED = ("minkowski_estimate", "minkowski_residual", "char_minkowski")


def _leaves(x):
    if isinstance(x, tuple):
        return [leaf for y in x for leaf in _leaves(y)]
    return [x.hex() if isinstance(x, float) else str(x)]


def _floats_and_rest(leaves):
    return ([float.fromhex(x) for x in leaves if "0x" in x],
            [x for x in leaves if "0x" not in x])


_PINNED_SETS = {
    "cantor": (lambda: middle_cantor(F(1, 3), 14), [F(1, 3 ** k) for k in range(4, 15)]),
    "geometric": (lambda: geometric_sequence(2, 30), [F(1, 2 ** k) for k in range(4, 20)]),
    "powerseq": (lambda: power_sequence(3, 60), [F(1, 2 ** k) for k in range(4, 16)]),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SETS))
def test_dimension_reports_pinned_bitwise(name):
    build, scales = _PINNED_SETS[name]
    want = {}
    for token in _PINNED_REPORTS[name].split():
        if token[0].isalpha():
            field = want[token] = []
        else:
            field.append(token)
    report = estimate_dimensions(build(), scales)
    assert list(want) == [f.name for f in dataclasses.fields(report)]
    for key, leaves in want.items():
        got = _leaves(getattr(report, key))
        if key in _FITTED:
            floats, rest = _floats_and_rest(got)
            want_floats, want_rest = _floats_and_rest(leaves)
            assert rest == want_rest
            assert floats == pytest.approx(want_floats, rel=1e-9, abs=1e-9)
        else:
            assert got == leaves


# ------------------------------------------------------------------ generators

def test_cantor_generation_counts():
    for alpha, k in ((F(1, 3), 5), (F(3, 5), 4)):
        E = middle_cantor(alpha, k)
        keep = (1 - alpha) / 2
        assert len(E.intervals) == 2 ** k
        assert all(b - a == keep ** k for a, b in E.intervals)
        ends = [x for iv in E.intervals for x in iv]
        assert all(a < b for a, b in zip(ends, ends[1:]))


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


def _sequence_points(kind, a, count):
    # the generators' points, each computed alone, in no particular order
    if kind == "geometric":
        return [2 - a ** -n for n in range(1, count + 1)] + [F(2)]
    if a.denominator == 1:
        tail = [1 + F(1, n ** a.numerator) for n in range(1, count + 1)]
    else:
        tail = [1 + F(float(n) ** -float(a)).limit_denominator(2 ** 48)
                for n in range(1, count + 1)]
    return [F(1)] + tail


@pytest.mark.parametrize("kind, a", [
    ("geometric", F(2)), ("geometric", F(9, 8)),
    ("powerseq", F(3)), ("powerseq", F(1, 2)), ("powerseq", F(2, 3)),
    ("powerseq", F(40, 3))])
def test_sequences_equal_the_sorted_union_of_their_points(kind, a):
    # built without a sort, the sets equal from_intervals of the same points;
    # at exponent 40/3 the points for n >= 13 snap onto a few rationals
    # (n**(-40/3) < 2**-49 snaps to 0, onto the point 1) and merge
    make = geometric_sequence if kind == "geometric" else power_sequence
    for count in (1, 2, 7, 40):
        E = make(a, count)
        pts = _sequence_points(kind, a, count)
        assert E.intervals == from_intervals([(p, p) for p in pts]).intervals
        assert len(E.intervals) == len(set(pts))
        assert all(x < y for (x, _), (y, _) in zip(E.intervals, E.intervals[1:]))
    if a == F(40, 3):
        assert len(E.intervals) < count + 1


def test_progression_points_and_limits():
    E = arithmetic_progression(F(5, 4), F(1, 128), 16)
    assert len(E.intervals) == 16
    assert E.intervals[0][0] == F(5, 4)
    assert E.intervals[-1][0] == F(5, 4) + 15 * F(1, 128)
    with pytest.raises(ParameterError):
        arithmetic_progression(F(15, 8), F(1, 8), 3)
    # the hull is checked before any point is built, so a count no memory
    # could hold fails at once, with the same message
    for u in (F(5, 4), F(1, 2)):
        with pytest.raises(ParameterError, match=r"inside \[1, 2\]"):
            arithmetic_progression(u, F(1, 128), 10 ** 12)


def test_generators_cap_their_component_count():
    # 2**16 components build in well under a second; past that a cantor
    # depth or a progression count inside the hull is refused before any
    # point is built, where it would otherwise run for hours
    assert len(middle_cantor(F(1, 3), 16).intervals) == 2 ** 16
    assert len(arithmetic_progression(1, F(1, 2 ** 16), 2 ** 16).intervals) \
        == 2 ** 16
    for build in (lambda: middle_cantor(F(1, 3), 17),
                  lambda: middle_cantor(F(1, 2), 40),
                  lambda: arithmetic_progression(1, F(1, 2 ** 17), 2 ** 16 + 1),
                  lambda: arithmetic_progression(F(5, 4), F(1, 2 ** 40), 10 ** 9)):
        with pytest.raises(ParameterError, match="more than 65536"):
            build()


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
        ("cantor(alpha=1/3, depth=4,)", middle_cantor(F(1, 3), 4)),
        ("cantor((1/3), 4)", middle_cantor(F(1, 3), 4)),
        ("(cantor(alpha=1/3, depth=4))", middle_cantor(F(1, 3), 4)),
        ("points(1e0)", finite_points([1])),
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
                 "union()", "cantor(alpha=2, depth=1)", "cantor(alpha=1/0, depth=3)",
                 "union(" * 2000 + "interval" + ")" * 2000, "union(interval, 3/2)",
                 "points(" + "-" * 10000 + "1)", "points(1e3000000)"):
        with pytest.raises(ConfigError):
            parse_set(expr)


def test_generator_string_reparses_to_same_set():
    sets = [middle_cantor(F(1, 3), 3), middle_cantor(F(1, 3), 0),
            geometric_sequence(F(3, 2), 4),
            arithmetic_progression(F(4, 3), F(1, 32), 5),
            union_of(finite_points([F(3, 2)]), middle_cantor(F(1, 2), 2))]
    for E in sets:
        assert parse_set(E.generator).intervals == E.intervals


def test_fractalset_is_hashable_and_frozen():
    E = middle_cantor(F(1, 3), 2)
    assert hash(E) == hash(middle_cantor(F(1, 3), 2))
    with pytest.raises(AttributeError):
        E.generator = "interval"
    # the integer grid is derived data: equality, hash and repr are those
    # of the intervals and the generator
    plain = from_intervals(E.intervals)
    assert plain.intervals == E.intervals and plain._grid == E._grid
    same = FractalSet(plain.intervals, E.generator)
    assert same == E and hash(same) == hash(E) and repr(same) == repr(E)
    assert same._grid == (9, (9, 11, 15, 17), (10, 12, 16, 18))
    assert FractalSet(((F(3, 2), F(7, 4)),))._grid == (4, (6,), (7,))


def test_component_and_nearest_match_linear_scans():
    rng = random.Random(11)
    for _ in range(60):
        E = random_fractal_set(rng)
        # component endpoints, the midpoints between components (ties of
        # nearest), points inside, both ends of [1, 2], and floats
        probes = [F(1), F(2), *(x for iv in E.intervals for x in iv)]
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


# ------------------------------------------------- the Fraction reference
#
# The exact set layer as it was written in Fraction arithmetic, before
# each set carried one integer grid. The integer layer must return the
# same values, of the same types, on every set and scale below.

def _ref_merged(pairs):
    out = []
    for lo, hi in pairs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _ref_meeting(pairs, lo, hi):
    first = bisect.bisect_left(pairs, lo, key=itemgetter(1))
    return first, bisect.bisect_right(pairs, hi, first, key=itemgetter(0))


def _ref_cover_count(pairs, lo, hi, step):
    first, stop = _ref_meeting(pairs, lo, hi)
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


def ref_covering_number(E, d):
    return _ref_cover_count(E.intervals, E.intervals[0][0], E.intervals[-1][1], d)


def ref_local_covering_number(E, window, d):
    return _ref_cover_count(E.intervals, window[0], window[1], d)


def ref_binary_covering_number(E, j):
    cell = F(2) ** j
    spans = sorted((int(a // cell), int(b // cell) + 1) for a, b in E.intervals)
    return sum(hi - lo for lo, hi in _ref_merged(spans))


def ref_neighborhood_measure(E, n):
    rad = F(2) ** (1 - n)
    grown = _ref_merged((max(F(0), a - rad), b + rad) for a, b in E.intervals)
    return sum((hi - lo for lo, hi in grown), F(0))


def ref_restrict(E, lo, hi):
    first, stop = _ref_meeting(E.intervals, lo, hi)
    return tuple((max(a, lo), min(b, hi)) for a, b in E.intervals[first:stop])


def ref_resolution(E):
    if len(E.intervals) == 1:
        return F(0)
    feats = [E.intervals[i + 1][0] - E.intervals[i][1]
             for i in range(len(E.intervals) - 1)]
    feats += [b - a for a, b in E.intervals if b > a]
    return min(feats)


def ref_separated_points(E, d):
    pts = []
    for a, b in E.intervals:
        start = a if not pts else max(a, pts[-1] + d)
        while start <= b:
            pts.append(start)
            start += d
    return pts


def _ref_anchors(E):
    pts = [x for a, b in E.intervals for x in ((a,) if a == b else (a, b))]
    if len(pts) <= 256:
        return pts
    stride = -(-len(pts) // 256)
    picked = pts[::stride]
    if picked[-1] != pts[-1]:
        picked.append(pts[-1])
    return picked


def ref_window_counts(E, d):
    jmax = 0
    L = F(1)
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
    anchors = [int(e * M) for e in _ref_anchors(E)]
    for j in range(jmax + 1):
        Lint = M >> j
        Lfrac = F(1, 1 << j)
        per_j = max(4, min(len(anchors), (1 << j) + 4))
        stride = max(1, len(anchors) // per_j)
        for e in anchors[::stride]:
            for lo, hi in ((e, e + Lint), (e - Lint, e)):
                count = _ref_cover_count(pairs, lo, hi, step)
                if count:
                    yield Lfrac, count


def ref_cantor_cells(a, depth):
    keep = (1 - a) / 2
    cells = [(F(1), F(2))]
    for _ in range(depth):
        nxt = []
        for lo, hi in cells:
            w = (hi - lo) * keep
            nxt.append((lo, lo + w))
            nxt.append((hi - w, hi))
        cells = nxt
    return tuple(cells)


def _typed(x):
    """x with every leaf paired with its type, so == also compares types."""
    if isinstance(x, (tuple, list)):
        return type(x), tuple(_typed(y) for y in x)
    return type(x), x


def _reference_sets():
    rng = random.Random(2024)
    for alpha in (F(1, 3), F(1, 4), F(1, 5), F(2, 5), F(3, 7)):
        for depth in range(9):
            E = middle_cantor(alpha, depth)
            assert E.intervals == ref_cantor_cells(alpha, depth)
            yield E
    yield finite_points([F(3, 2)])
    yield finite_points([1, F(10, 7), F(3, 2), F(51, 32), 2])
    yield arithmetic_progression(F(5, 4), F(1, 128), 16)
    yield arithmetic_progression(1, F(1, 3), 4)
    # at scale 1/4 each cover of the whole-set walk ends on the next point
    yield arithmetic_progression(1, F(1, 4), 5)
    yield geometric_sequence(2, 30)
    yield power_sequence(3, 60)
    yield power_sequence(F(1, 2), 8)
    yield union_of(middle_cantor(F(1, 3), 3), finite_points([F(3, 2), F(31, 20)]))
    yield union_of(from_intervals([(F(9, 8), F(5, 4)), (F(13, 10), F(13, 10))]),
                   arithmetic_progression(F(3, 2), F(1, 24), 7))
    for _ in range(12):
        yield random_fractal_set(rng)


def test_integer_layer_matches_the_fraction_reference():
    # denominators that divide no set's grid (3^k, 7, 40, 1000 on dyadic
    # sets) as well as ones that do
    scales = ([F(1, 2 ** k) for k in range(11)] + [F(1, 3 ** k) for k in range(1, 7)]
              + [F(2, 7), F(3, 40), F(5, 1000)])
    windows = [(F(1), F(2)), (F(4, 3), F(5, 3)), (F(10, 9), F(3, 2)),
               (F(8, 7), F(12, 7)), (F(3, 2), F(3, 2) + F(1, 3))]
    for E in _reference_sets():
        for d in scales:
            assert _typed(covering_number(E, d)) == _typed(ref_covering_number(E, d))
            assert (_typed(separated_points(E, d))
                    == _typed(ref_separated_points(E, d)))
            for w in windows:
                if w[1] - w[0] >= d:
                    assert (_typed(local_covering_number(E, w, d))
                            == _typed(ref_local_covering_number(E, w, d)))
        for d in (F(2), F(3, 2)):
            assert (_typed(separated_points(E, d))
                    == _typed(ref_separated_points(E, d)))
        for w in windows + [(1, 2), (F(5, 4), 2), (2, 2), (F(1, 2), F(5, 2))]:
            assert _typed(restrict(E, *w)) == _typed(ref_restrict(E, *w))
        for n in range(13):
            assert (_typed(binary_covering_number(E, -n))
                    == _typed(ref_binary_covering_number(E, -n)))
            assert (_typed(neighborhood_measure(E, n))
                    == _typed(ref_neighborhood_measure(E, n)))
        assert _typed(resolution(E)) == _typed(ref_resolution(E))
        for d in (F(1, 4), F(1, 27), F(3, 200)):
            # the largest count per dyadic length 2**-j, 0 where all miss
            largest = {}
            for L, count in ref_window_counts(E, d):
                largest[L] = max(largest.get(L, 0), count)
            counts = _window_counts(E, d)
            jmax = len(counts) - 1
            assert F(1, 2 ** jmax) >= d > F(1, 2 ** (jmax + 1))
            assert (_typed(counts)
                    == _typed([largest.get(F(1, 2 ** j), 0) for j in range(jmax + 1)]))
