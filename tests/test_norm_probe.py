"""Probe families: witness construction, certified bounds, fitted slopes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sphmax.errors import (
    DegenerateProbeError,
    InsufficientDataError,
    InvalidScaleError,
    ParameterError,
)
from sphmax.fractal_set import (
    arithmetic_progression,
    finite_points,
    from_intervals,
    full_interval,
    local_covering_number,
    middle_cantor,
    separated_points,
)
from sphmax.norm_probe import (
    ProbeFamily,
    build_probe,
    endpoint_log_probe,
    lorentz_log_probe,
    run_probe,
)
from sphmax.quadrature import QuadratureSpec
from sphmax.radial_operator import DilationGrid, maximal_value

F = Fraction

POINT = finite_points([F(3, 2)])
DYADIC = [F(1, 2 ** k) for k in range(4, 11)]


# ---------------------------------------------------------------------------
# family and instance construction


def test_family_validation():
    with pytest.raises(ParameterError):
        ProbeFamily("MysteryProbe", 2)
    with pytest.raises(ParameterError):
        ProbeFamily("Lorentz2D", 3)
    with pytest.raises(ParameterError):
        ProbeFamily("LocalAnnulus", 3, u=F(9, 8), window=(F(5, 4), F(11, 8)))
    with pytest.raises(ParameterError):
        ProbeFamily("AnnulusDelta", 2)  # missing center
    with pytest.raises(ParameterError):
        ProbeFamily("AnnulusDelta", 2, t0=F(5, 2))
    with pytest.raises(ParameterError):
        ProbeFamily("BallR", 3, t0=F(3, 2))
    with pytest.raises(ParameterError):
        ProbeFamily("LocalAnnulus", 2, u=F(9, 8))  # missing window
    with pytest.raises(ParameterError):
        ProbeFamily("LocalAnnulus", 2, u=F(9, 8), window=(F(11, 8), F(5, 4)))
    with pytest.raises(ParameterError):
        ProbeFamily("LocalAnnulus", 2, u=F(3, 2), window=(F(5, 4), F(11, 8)))
    with pytest.raises(ParameterError):
        ProbeFamily("LocalAnnulus", 2, u=F(15, 8), window=(F(1), F(2)))
    for kind in ("BallR", "SteinLog", "EndpointLog", "Lorentz2D"):
        assert ProbeFamily(kind, 2).kind == kind


def test_build_annulus_matches_proof_layout():
    fam = ProbeFamily("AnnulusDelta", 2, t0=F(3, 2))
    inst = build_probe(fam, F(1, 16), POINT)
    piece = inst.profile.pieces[0]
    assert (piece.lo, piece.hi) == (F(23, 16), F(25, 16))
    assert inst.witness_cells == ((F(0), F(1, 16)),)
    assert all(r <= F(1, 16) for r in inst.witness_radii)
    assert set(inst.witness_anchors) == {F(3, 2)}
    assert inst.witness_measure == F(1, 16) ** 2 / 2


def test_build_ball_matches_proof_layout():
    inst = build_probe(ProbeFamily("BallR", 3), F(1, 8))
    piece = inst.profile.pieces[0]
    assert (piece.lo, piece.hi) == (F(0), F(8))
    assert inst.witness_cells == ((F(0), F(4)),)
    assert inst.witness_radii == (F(1), F(2), F(4))


def test_build_smallball_witness_annuli():
    E = middle_cantor(F(1, 3), 4)
    delta = F(1, 16)
    inst = build_probe(ProbeFamily("SmallBallDelta", 3), delta, E)
    pts = separated_points(E, delta)
    assert len(inst.witness_cells) == len(pts)
    for (lo, hi), t in zip(inst.witness_cells, pts):
        assert hi - lo == delta
        assert lo + delta / 2 == t
    # annuli disjoint because the centers are delta-separated
    for (_, hi), (lo2, _) in zip(inst.witness_cells, inst.witness_cells[1:]):
        assert lo2 >= hi
    assert set(inst.witness_radii) <= set(pts)


def test_build_localannulus_witness_count():
    E = arithmetic_progression(F(5, 4), F(1, 128), 16)
    window = (F(5, 4), F(5, 4) + F(1, 8))
    fam = ProbeFamily("LocalAnnulus", 2, u=F(9, 8), window=window)
    delta = F(1, 256)
    inst = build_probe(fam, delta, E)
    m = local_covering_number(E, window, delta)
    assert len(inst.witness_cells) >= m / 2
    for (lo, hi) in inst.witness_cells:
        assert hi - lo == delta / 2
    for (_, hi), (lo2, _) in zip(inst.witness_cells, inst.witness_cells[1:]):
        assert lo2 >= hi
    with pytest.raises(DegenerateProbeError):
        build_probe(fam, delta, finite_points([F(7, 4)]))


def test_build_stein_and_endpoint_profiles():
    inst = build_probe(ProbeFamily("SteinLog", 2), F(1, 64), full_interval())
    piece = inst.profile.pieces[0]
    assert (piece.lo, piece.hi) == (F(1, 64), F(1, 2))
    assert (piece.a_pow, piece.b_pow) == (-1.0, -1.0)
    assert inst.witness_radii == (F(3, 2),)

    E = from_intervals([(F(1), F(9, 8)), (F(9, 8) + F(1, 64), F(5, 4))])
    inst = build_probe(ProbeFamily("EndpointLog", 3), F(1, 16), E)
    piece = inst.profile.pieces[0]
    assert piece.lo == F(1, 16) ** 10
    assert piece.a_pow == -2.0
    # the 1/16-neighborhoods of the two components overlap across the 1/64 gap
    assert len(inst.witness_cells) == 1
    assert inst.witness_radii == (F(9, 8) + F(1, 16), F(5, 4) + F(1, 16))


def test_build_scale_guards():
    with pytest.raises(InvalidScaleError):
        build_probe(ProbeFamily("BallR", 3), F(1, 2))
    with pytest.raises(InvalidScaleError):
        build_probe(ProbeFamily("AnnulusDelta", 2, t0=F(3, 2)), F(1, 2), POINT)
    with pytest.raises(InvalidScaleError):
        build_probe(ProbeFamily("Lorentz2D", 2), F(1, 8), full_interval())
    fam = ProbeFamily("LocalAnnulus", 2, u=F(9, 8), window=(F(5, 4), F(11, 8)))
    with pytest.raises(InvalidScaleError):
        build_probe(fam, F(1, 4), full_interval())
    with pytest.raises(InvalidScaleError):
        build_probe(ProbeFamily("BallR", 3), F(1, 2 ** 50))
    with pytest.raises(ParameterError):
        build_probe(ProbeFamily("SmallBallDelta", 2), F(1, 16))
    with pytest.raises(DegenerateProbeError):
        build_probe(ProbeFamily("AnnulusDelta", 2, t0=F(3, 2)), F(1, 16),
                    finite_points([F(5, 4)]))


# ---------------------------------------------------------------------------
# probe runs


def test_run_probe_annulus_critical_line():
    res = run_probe("AnnulusDelta", POINT, 2, 2, 4, DYADIC, t0=F(3, 2))
    assert abs(res.fitted_exponent) <= 0.05
    assert res.residual < 1e-9
    assert res.predicted_gap == 0.0
    assert res.verdict == "inconclusive"
    assert not res.partial


def test_run_probe_annulus_verdicts():
    res = run_probe("AnnulusDelta", POINT, 2, 2, 5, DYADIC, t0=F(3, 2))
    assert res.verdict == "violation-detected"
    assert abs(res.fitted_exponent - (2 / 5 - 1 / 2)) < 0.02
    assert abs(res.predicted_gap - (2 / 5 - 1 / 2)) < 1e-12

    res = run_probe("AnnulusDelta", POINT, 2, 2, 3, DYADIC, t0=F(3, 2))
    assert res.verdict == "consistent"
    assert abs(res.fitted_exponent - (2 / 3 - 1 / 2)) < 0.02


def test_run_probe_rows_sorted_and_consistent():
    res = run_probe("AnnulusDelta", POINT, 2, 2, 4, DYADIC, t0=F(3, 2))
    scales = [row.scale for row in res.rows]
    assert scales == sorted(scales)
    assert len(res.rows) == len(DYADIC)
    for row in res.rows:
        assert row.ratio == pytest.approx(row.output_functional / row.input_norm)


def test_input_norm_scaling_exponents():
    # the L^{p,1} surrogate follows the claimed input exponent within 2%
    for kind, p, want in (("AnnulusDelta", 2, 1 / 2), ("BallR", 3, -3 / 3)):
        extra = {"t0": F(3, 2)} if kind == "AnnulusDelta" else {}
        res = run_probe(kind, POINT, 3 if kind == "BallR" else 2, p, 4,
                        DYADIC, **extra)
        x = np.log([row.scale for row in res.rows])
        y = np.log([row.input_norm for row in res.rows])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - want) < 0.02


def test_output_never_exceeds_full_grid_bound():
    E = middle_cantor(F(1, 3), 4)
    delta = F(1, 32)
    res = run_probe("SmallBallDelta", E, 3, 2, 4,
                    [F(1, 8), F(1, 16), delta], beta=F(63, 100))
    row = res.rows[0]  # scale 1/32 after ascending sort
    inst = build_probe(ProbeFamily("SmallBallDelta", 3), delta, E)
    full = max(maximal_value(3, inst.profile, float(r), E).value
               for r in inst.witness_radii)
    assert row.output_functional <= full * float(inst.witness_measure) ** 0.25 + 1e-12


def test_verdict_flips_once_along_ray():
    rank = {"consistent": 0, "inconclusive": 1, "violation-detected": 2}
    seen = []
    for q in (2, 3, 4, 6, 8):
        res = run_probe("AnnulusDelta", POINT, 2, 2, q, DYADIC, t0=F(3, 2))
        seen.append(rank[res.verdict])
    assert seen == sorted(seen)
    assert seen[0] == 0 and seen[-1] == 2


def test_run_probe_partial_on_quadrature_failure():
    starved = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16, max_refinement=1)
    res = run_probe("SteinLog", full_interval(), 2, 2, 2, DYADIC[:3],
                    quad=starved)
    assert res.partial
    assert res.verdict == "inconclusive"
    assert len(res.rows) < 3


def test_run_probe_validation():
    with pytest.raises(InsufficientDataError):
        run_probe("AnnulusDelta", POINT, 2, 2, 4, DYADIC[:2], t0=F(3, 2))
    with pytest.raises(ParameterError):
        run_probe("AnnulusDelta", POINT, 2, 2, 4, list(reversed(DYADIC)),
                  t0=F(3, 2))
    with pytest.raises(ParameterError):
        run_probe("AnnulusDelta", POINT, 2, F(1, 2), 4, DYADIC, t0=F(3, 2))


def test_run_probe_smallball_power_law_on_cantor():
    E = middle_cantor(F(1, 3), 8)
    beta = F(6309, 10000)
    scales = [F(1, 3 ** k) for k in range(2, 8)]
    res = run_probe("SmallBallDelta", E, 3, F(3, 2), 3, scales, beta=beta)
    assert res.residual < 0.05
    assert abs(res.fitted_exponent - res.predicted_gap) < 0.05
    assert res.verdict == "consistent"


def test_run_probe_localannulus_power_law():
    E = arithmetic_progression(F(5, 4), F(1, 128), 16)
    window = (F(5, 4), F(5, 4) + F(1, 8))
    scales = [F(1, 2 ** k) for k in range(7, 13)]
    res = run_probe("LocalAnnulus", E, 2, 2, 4, scales, u=F(9, 8),
                    window=window, beta=0, gamma=F(1, 2), gamma_star=F(1, 2))
    assert res.residual < 0.05
    # the functional itself scales like delta^(1/2 + 1/q) once N saturates
    x = np.log([row.scale for row in res.rows])
    y = np.log([row.output_functional for row in res.rows])
    slope = np.polyfit(x, y, 1)[0]
    assert abs(slope - 0.75) < 0.1


def test_run_probe_stein_growth_signature():
    scales = [F(1, 2 ** k) for k in (4, 6, 8, 10, 12)]
    res = run_probe("SteinLog", full_interval(), 2, 2, 2, scales)
    outs = [row.output_functional for row in res.rows]
    # rows are scale-ascending, so the finest truncation comes first
    assert all(a > b for a, b in zip(outs, outs[1:]))
    # at p = q = 2 in the plane the power gap vanishes but the ratio keeps
    # creeping up; the fit reads that as a slow violation
    assert res.predicted_gap == 0.0
    assert -0.15 < res.fitted_exponent < 0.0
    assert res.verdict == "violation-detected"


# ---------------------------------------------------------------------------
# log-refinement tables


def test_lorentz_normalized_band():
    rows = lorentz_log_probe([F(1, 2 ** k) for k in range(4, 13)])
    vals = [row["normalized"] for row in rows]
    assert len(vals) == 9
    assert max(vals) / min(vals) < 2.0
    # the raw ratio itself grows with log(1/delta)
    ratios = [row["ratio"] for row in rows]
    assert ratios[-1] > 1.5 * ratios[0]


def test_lorentz_weak_case_bounded():
    rows = lorentz_log_probe([F(1, 2 ** k) for k in range(4, 13)], s=math.inf)
    vals = [row["normalized"] for row in rows]
    assert max(vals) / min(vals) < 1.2


def test_lorentz_stable_under_quadrature_refinement():
    delta = [F(1, 256)]
    coarse = lorentz_log_probe(delta)[0]
    tight = lorentz_log_probe(delta,
                              quad=QuadratureSpec(1e-12, 1e-11, 30))[0]
    assert coarse["functional"] == pytest.approx(tight["functional"], rel=1e-5)


def test_lorentz_validation():
    with pytest.raises(ParameterError):
        lorentz_log_probe([F(1, 64)], d=3)
    with pytest.raises(ParameterError):
        lorentz_log_probe([F(1, 64)], s=F(1, 2))


def test_endpoint_witness_linear_growth():
    rows = endpoint_log_probe(full_interval(), 3, F(3, 2), [4, 6, 8, 10])
    cs = [row["c"] for row in rows]
    assert min(cs) > 0.05
    assert max(cs) / min(cs) < 1.1
    # full interval: the log-weighted criterion grows without bound
    crits = [row["criterion"] for row in rows]
    assert crits[-1] > 1.5 * crits[0]


def test_endpoint_criterion_bounded_for_sparse_sets():
    rows = endpoint_log_probe(finite_points([F(3, 2)]), 3, 3, [4, 6, 8, 10])
    crits = [row["criterion"] for row in rows]
    assert all(b < a for a, b in zip(crits, crits[1:]))
    assert all(row["wn_measure"] == pytest.approx(2 ** (2 - row["n"]))
               for row in rows)


def test_endpoint_validation():
    with pytest.raises(ParameterError):
        endpoint_log_probe(full_interval(), 3, 3, [4, 3, 8])
    with pytest.raises(ParameterError):
        endpoint_log_probe(full_interval(), 3, 3, [0, 4])
    with pytest.raises(ParameterError):
        endpoint_log_probe(full_interval(), 3, F(1, 2), [4, 6])
