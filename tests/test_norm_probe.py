"""Probe families: witness construction, certified bounds, fitted slopes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sphmax import norm_probe
from sphmax.errors import (
    DegenerateProbeError,
    InsufficientDataError,
    InvalidScaleError,
    ParameterError,
    PrecisionError,
)
from sphmax.fractal_set import (
    arithmetic_progression,
    finite_points,
    from_intervals,
    full_interval,
    local_covering_number,
    middle_cantor,
    separated_points,
    union_of,
)
from sphmax.norm_probe import (
    ProbeFamily,
    build_probe,
    endpoint_log_probe,
    lorentz_log_probe,
    run_probe,
)
from sphmax.quadrature import DEFAULT_QUAD, QuadratureSpec
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
    # summed over one denominator, the shell measure is the term-by-term sum
    assert inst.witness_measure == sum(
        ((hi ** 3 - lo ** 3) / 3 for lo, hi in inst.witness_cells), F(0))


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
    res = run_probe("AnnulusDelta", POINT, 2, [(2, 4)], DYADIC, t0=F(3, 2))[0]
    assert abs(res.fitted_exponent) <= 0.05
    assert res.residual < 1e-9
    assert res.predicted_gap == 0.0
    assert res.verdict == "inconclusive"
    assert not res.partial


def test_run_probe_annulus_verdicts():
    res = run_probe("AnnulusDelta", POINT, 2, [(2, 5)], DYADIC, t0=F(3, 2))[0]
    assert res.verdict == "violation-detected"
    assert abs(res.fitted_exponent - (2 / 5 - 1 / 2)) < 0.02
    assert abs(res.predicted_gap - (2 / 5 - 1 / 2)) < 1e-12

    res = run_probe("AnnulusDelta", POINT, 2, [(2, 3)], DYADIC, t0=F(3, 2))[0]
    assert res.verdict == "consistent"
    assert abs(res.fitted_exponent - (2 / 3 - 1 / 2)) < 0.02


def test_run_probe_rows_sorted_and_consistent():
    res = run_probe("AnnulusDelta", POINT, 2, [(2, 4)], DYADIC, t0=F(3, 2))[0]
    scales = [row.scale for row in res.rows]
    assert scales == sorted(scales)
    assert len(res.rows) == len(DYADIC)
    for row in res.rows:
        assert row.ratio == pytest.approx(row.output_functional / row.input_norm)


def test_input_norm_scaling_exponents():
    # the L^{p,1} surrogate follows the claimed input exponent within 2%
    for kind, p, want in (("AnnulusDelta", 2, 1 / 2), ("BallR", 3, -3 / 3)):
        extra = {"t0": F(3, 2)} if kind == "AnnulusDelta" else {}
        res = run_probe(kind, POINT, 3 if kind == "BallR" else 2, [(p, 4)],
                        DYADIC, **extra)[0]
        x = np.log([row.scale for row in res.rows])
        y = np.log([row.input_norm for row in res.rows])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - want) < 0.02


def test_output_never_exceeds_full_grid_bound():
    E = middle_cantor(F(1, 3), 4)
    delta = F(1, 32)
    res = run_probe("SmallBallDelta", E, 3, [(2, 4)],
                    [F(1, 8), F(1, 16), delta], beta=F(63, 100))[0]
    row = res.rows[0]  # scale 1/32 after ascending sort
    inst = build_probe(ProbeFamily("SmallBallDelta", 3), delta, E)
    full = max(maximal_value(3, inst.profile, float(r), E).value
               for r in inst.witness_radii)
    assert row.output_functional <= full * float(inst.witness_measure) ** 0.25 + 1e-12


def test_verdict_flips_once_along_ray():
    rank = {"consistent": 0, "inconclusive": 1, "violation-detected": 2}
    seen = []
    for q in (2, 3, 4, 6, 8):
        res = run_probe("AnnulusDelta", POINT, 2, [(2, q)], DYADIC,
                        t0=F(3, 2))[0]
        seen.append(rank[res.verdict])
    assert seen == sorted(seen)
    assert seen[0] == 0 and seen[-1] == 2


def test_run_probe_partial_on_quadrature_failure():
    starved = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16, max_refinement=1)
    res = run_probe("SteinLog", full_interval(), 2, [(2, 2)], DYADIC[:3],
                    quad=starved)[0]
    assert res.partial
    assert res.verdict == "inconclusive"
    assert len(res.rows) < 3


def test_run_probe_validation():
    with pytest.raises(InsufficientDataError):
        run_probe("AnnulusDelta", POINT, 2, [(2, 4)], DYADIC[:2], t0=F(3, 2))
    with pytest.raises(ParameterError):
        run_probe("AnnulusDelta", POINT, 2, [(2, 4)], list(reversed(DYADIC)),
                  t0=F(3, 2))
    with pytest.raises(ParameterError):
        run_probe("AnnulusDelta", POINT, 2, [(F(1, 2), 4)], DYADIC,
                  t0=F(3, 2))


def test_run_probe_checks_exponents_before_sweeping(monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the exponents were checked")

    monkeypatch.setattr(norm_probe, "_maximal_values", sweep)
    E = arithmetic_progression(F(5, 4), F(1, 128), 16)
    setup = dict(u=F(9, 8), window=(F(5, 4), F(11, 8)), beta=0,
                 gamma=F(1, 2), gamma_star=F(1, 2))
    scales = [F(1, 2 ** k) for k in range(7, 13)]
    # every pair is checked, a valid one ahead of the bad one included
    for pq, extra in [([(2.0, 4)], {}), ([(2, 4.0)], {}),
                      ([(F(1, 2), 4)], {}), ([(2, 4)], {"gamma": F(3, 4)}),
                      ([(2, 4), (2.0, 4)], {})]:
        with pytest.raises(ParameterError):
            run_probe("LocalAnnulus", E, 2, pq, scales, **{**setup, **extra})


def test_run_probe_smallball_power_law_on_cantor():
    E = middle_cantor(F(1, 3), 8)
    beta = F(6309, 10000)
    scales = [F(1, 3 ** k) for k in range(2, 8)]
    res = run_probe("SmallBallDelta", E, 3, [(F(3, 2), 3)], scales,
                    beta=beta)[0]
    assert res.residual < 0.05
    assert abs(res.fitted_exponent - res.predicted_gap) < 0.05
    assert res.verdict == "consistent"


def test_run_probe_localannulus_power_law():
    E = arithmetic_progression(F(5, 4), F(1, 128), 16)
    window = (F(5, 4), F(5, 4) + F(1, 8))
    scales = [F(1, 2 ** k) for k in range(7, 13)]
    res = run_probe("LocalAnnulus", E, 2, [(2, 4)], scales, u=F(9, 8),
                    window=window, beta=0, gamma=F(1, 2),
                    gamma_star=F(1, 2))[0]
    assert res.residual < 0.05
    # the functional itself scales like delta^(1/2 + 1/q) once N saturates
    x = np.log([row.scale for row in res.rows])
    y = np.log([row.output_functional for row in res.rows])
    slope = np.polyfit(x, y, 1)[0]
    assert abs(slope - 0.75) < 0.1


def test_run_probe_stein_growth_signature():
    scales = [F(1, 2 ** k) for k in (4, 6, 8, 10, 12)]
    res = run_probe("SteinLog", full_interval(), 2, [(2, 2)], scales)[0]
    outs = [row.output_functional for row in res.rows]
    # rows are scale-ascending, so the finest truncation comes first
    assert all(a > b for a, b in zip(outs, outs[1:]))
    # at p = q = 2 in the plane the power gap vanishes but the ratio keeps
    # creeping up; the fit reads that as a slow violation
    assert res.predicted_gap == 0.0
    assert -0.15 < res.fitted_exponent < 0.0
    assert res.verdict == "violation-detected"


def test_run_probe_pairs_match_one_pair_runs(monkeypatch):
    pq = [(2, 4), (3, 4), (2, 6)]
    for kind, E, scales in [
            ("Lorentz2D", full_interval(), [F(1, 32), F(1, 64), F(1, 128)]),
            ("EndpointLog", middle_cantor(F(1, 2), 3), DYADIC[:4])]:
        built = []
        real = norm_probe.build_probe

        def counted(family, scale, E=None):
            built.append(scale)
            return real(family, scale, E)

        monkeypatch.setattr(norm_probe, "build_probe", counted)
        together = run_probe(kind, E, 2, pq, scales)
        monkeypatch.undo()
        assert built == scales          # one instance per scale for all pairs
        assert len(together) == len(pq)
        for (p, q), res in zip(pq, together):
            [alone] = run_probe(kind, E, 2, [(p, q)], scales)
            assert (res.p, res.q) == (p, q)
            assert repr(res) == repr(alone)


def test_run_probe_failures_end_their_pairs(monkeypatch):
    # a stalled L^p norm ends only its own pair; a stalled witness bound
    # ends every pair still running
    pq = [(2, 4), (3, 4), (2, 6)]
    kind, E = "SteinLog", full_interval()
    lp_norm = norm_probe.lp_norm
    witness_bounds = norm_probe._witness_bounds

    def lp_stalls(f, p, d, quad):
        if p == 3.0 and f.pieces[0].lo == DYADIC[1]:
            raise PrecisionError("stalled")
        return lp_norm(f, p, d, quad)

    def witness_stalls(insts, E, quad):
        # the batch of all scales stalls, and so does the scale-by-scale
        # rerun at DYADIC[3]
        if any(inst.scale == DYADIC[3] for inst in insts):
            raise PrecisionError("stalled")
        return witness_bounds(insts, E, quad)

    monkeypatch.setattr(norm_probe, "lp_norm", lp_stalls)
    res = run_probe(kind, E, 2, pq, DYADIC[:4])
    assert [r.partial for r in res] == [False, True, False]
    assert [len(r.rows) for r in res] == [4, 1, 4]
    assert res[1].verdict == "inconclusive"
    monkeypatch.undo()
    for k in (0, 2):
        [alone] = run_probe(kind, E, 2, [pq[k]], DYADIC[:4])
        assert repr(res[k]) == repr(alone)

    monkeypatch.setattr(norm_probe, "lp_norm", lp_stalls)
    monkeypatch.setattr(norm_probe, "_witness_bounds", witness_stalls)
    res = run_probe(kind, E, 2, pq, DYADIC[:4])
    assert [r.partial for r in res] == [True, True, True]
    assert [len(r.rows) for r in res] == [3, 1, 3]


def _witness_bound_alone(inst, E, quad):
    # one maximal_value per witness radius, over the grid of its anchor
    lam = math.inf
    for r, anchor in zip(inst.witness_radii, inst.witness_anchors):
        grid = DilationGrid((anchor,), inst.anchor_refinement)
        lam = min(lam, maximal_value(inst.family.d, inst.profile, float(r), E,
                                     grid, quad).value)
    return lam


_WITNESS_CASES = {
    "BallR": (ProbeFamily("BallR", 3), middle_cantor(F(1, 3), 3),
              [F(1, 8), F(1, 16)]),
    "AnnulusDelta": (ProbeFamily("AnnulusDelta", 2, t0=F(3, 2)),
                     union_of(from_intervals([(F(5, 4), F(3, 2))]),
                              finite_points([F(7, 4)])),
                     [F(1, 16), F(1, 64)]),
    "SmallBallDelta": (ProbeFamily("SmallBallDelta", 3),
                       middle_cantor(F(1, 3), 4), [F(1, 8), F(1, 32)]),
    "SteinLog": (ProbeFamily("SteinLog", 2), full_interval(),
                 [F(1, 16), F(1, 256)]),
    "EndpointLog": (ProbeFamily("EndpointLog", 3), middle_cantor(F(1, 2), 3),
                    [F(1, 8), F(1, 32)]),
    "Lorentz2D": (ProbeFamily("Lorentz2D", 2), full_interval(),
                  [F(1, 16), F(1, 64)]),
    # every witness dilation sits in the first of two components
    "Lorentz2D-two-components": (
        ProbeFamily("Lorentz2D", 2),
        from_intervals([(F(1), F(5, 4)), (F(3, 2), F(2))]),
        [F(1, 32), F(1, 128)]),
    "LocalAnnulus": (
        ProbeFamily("LocalAnnulus", 2, u=F(9, 8), window=(F(5, 4), F(11, 8))),
        arithmetic_progression(F(5, 4), F(1, 128), 16),
        [F(1, 128), F(1, 1024)]),
}


@pytest.mark.parametrize("case", sorted(_WITNESS_CASES))
def test_witness_bound_matches_maximal_value_per_radius(case):
    family, E, scales = _WITNESS_CASES[case]
    for s in scales:
        inst = build_probe(family, s, E)
        got = norm_probe._witness_bound(inst, E, DEFAULT_QUAD)
        assert got.hex() == _witness_bound_alone(inst, E, DEFAULT_QUAD).hex()


@pytest.mark.parametrize("case", sorted(_WITNESS_CASES))
def test_run_probe_batch_matches_scale_by_scale(case, monkeypatch):
    # run_probe sweeps and polishes every (scale, radius) pair of its
    # scales in one _maximal_values call; the reference finds each scale's
    # witness bound alone, one maximal_value per radius
    family, E, scales = _WITNESS_CASES[case]
    scales = [*scales, scales[-1] / 2]
    args = (family.kind, E, family.d, [(2, 4), (3, 6)], scales)
    kwargs = dict(t0=family.t0, u=family.u, window=family.window)
    calls = []
    real = norm_probe._maximal_values

    def counted(*a):
        calls.append(len(a[2]))
        return real(*a)

    monkeypatch.setattr(norm_probe, "_maximal_values", counted)
    batched = run_probe(*args, **kwargs)
    assert calls == [sum(len(build_probe(family, s, E).witness_radii)
                         for s in scales)]
    monkeypatch.setattr(norm_probe, "_witness_bounds", lambda insts, E, quad: [
        _witness_bound_alone(inst, E, quad) for inst in insts])
    assert repr(batched) == repr(run_probe(*args, **kwargs))


def test_run_probe_build_error_waits_for_its_scale(monkeypatch):
    # the set misses the Lorentz witness dilation 1 + 1/128 of the third
    # scale: the scales before it are batched, and the error is raised
    # where the scale loop reaches it, or not at all when the loop stops
    # first
    E = from_intervals([(1 + F(1, 64), F(2))])
    scales = [F(1, 32), F(1, 64), F(1, 128)]
    calls = []
    real = norm_probe._maximal_values

    def counted(*a):
        calls.append(len(a[2]))
        return real(*a)

    monkeypatch.setattr(norm_probe, "_maximal_values", counted)
    with pytest.raises(DegenerateProbeError, match="at scale 1/128 "):
        run_probe("Lorentz2D", E, 2, [(2, 4)], scales)
    assert calls == [3 + 4]

    def stalls(*a):
        raise PrecisionError("stalled")

    monkeypatch.setattr(norm_probe, "_maximal_values", stalls)
    [res] = run_probe("Lorentz2D", E, 2, [(2, 4)], scales)
    assert res.partial and res.rows == ()


@pytest.mark.parametrize("case, s", [("EndpointLog", F(1, 8)),
                                     ("EndpointLog", F(1, 32)),
                                     ("SteinLog", F(1, 256))])
def test_witness_bound_stalls_like_maximal_value(case, s):
    family, E, _ = _WITNESS_CASES[case]
    starved = QuadratureSpec(max_refinement=1)
    if case == "EndpointLog":
        # at d = 3 the witness s^-2 takes the closed form, which has no
        # budget to starve; at d = 4 its s^-3 is a quadrature
        inst = build_probe(family, s, E)
        assert norm_probe._witness_bound(inst, E, starved) == \
            norm_probe._witness_bound(inst, E, DEFAULT_QUAD)
        family = ProbeFamily("EndpointLog", 4)
    inst = build_probe(family, s, E)
    with pytest.raises(PrecisionError):
        _witness_bound_alone(inst, E, starved)
    with pytest.raises(PrecisionError):
        norm_probe._witness_bound(inst, E, starved)


@pytest.mark.parametrize("E, missed", [
    (middle_cantor(F(1, 3), 3), F(39, 32)),
    (finite_points([F(1), F(3, 2), F(2)]), F(33, 32)),
])
def test_lorentz_witness_outside_set_is_degenerate(E, missed, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("quadrature ran before the dilations were "
                             "checked")

    monkeypatch.setattr(norm_probe, "_maximal_values", sweep)
    assert E.component(missed) is None
    with pytest.raises(DegenerateProbeError,
                       match=f"dilation {missed} at scale 1/32 "):
        run_probe("Lorentz2D", E, 2, [(2, 4)], [F(1, 32), F(1, 64), F(1, 128)])


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
