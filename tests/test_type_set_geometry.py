"""Exact-arithmetic checks for the type-set regions and probe predictions."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sphmax.errors import ConsistencyError, ParameterError
from sphmax.type_set_geometry import (
    CharacteristicFlags,
    RegionPoint,
    TypeSetRegion,
    classify_point,
    membership,
    predicted_probe_exponents,
    radial_type_set,
    region,
    supporting_line_value,
    vertex,
)

F = Fraction


def pt(x, y):
    return RegionPoint(F(x), F(y))


# ---------------------------------------------------------------------------
# vertices


def test_vertex_reference_points():
    assert vertex("Q2", 3, 1) == pt(F(2, 3), F(2, 9))
    assert vertex("Q2", 2, 1) == pt(F(1, 2), F(1, 4))
    assert vertex("Q1", 3, 1) == pt(F(2, 3), F(2, 3))
    assert vertex("Q1", 2, F(1, 2)) == pt(F(2, 3), F(2, 3))


def test_vertex_q3_interpolation():
    # theta = 1/2 at (beta, gamma) = (0, 1)
    assert vertex("Q3", 2, 0, 1) == pt(F(2, 3), F(1, 3))
    # theta -> 1 at beta = gamma = 1 lands on Q2(1)
    assert vertex("Q3", 2, 1, 1) == vertex("Q2", 2, 1)
    # on the critical line 2*gamma = beta + 1 the vertex collapses onto Q2
    for b in (F(0), F(1, 4), F(1, 2), F(3, 4)):
        g = (b + 1) / 2
        assert vertex("Q3", 2, b, g) == vertex("Q2", 2, b)


def test_vertex_rejects_bad_requests():
    with pytest.raises(ParameterError):
        vertex("X9", 2, 1)
    for gone in ("P1", "P2", "P3", "Q3tilde"):
        with pytest.raises(ParameterError):
            vertex(gone, 2, F(1, 2), F(1))
    with pytest.raises(ParameterError):
        vertex("Q1", 2)  # needs beta
    with pytest.raises(ParameterError):
        vertex("Q3", 2, beta=F(1, 2))
    with pytest.raises(ParameterError):
        vertex("Q1", 2, beta=F(3, 2))
    with pytest.raises(ParameterError):
        vertex("Q3", 3, F(1, 2), F(9, 10))
    with pytest.raises(ParameterError):
        vertex("Q3", 2, F(1, 2), F(3, 5))  # beta + 1 > 2*gamma
    with pytest.raises(ParameterError):
        vertex("Q3", 2, F(3, 4), F(1, 2))  # beta > gamma
    with pytest.raises(ParameterError):
        vertex("Q1", 1, F(1, 2))


def test_every_caller_refuses_beta_above_gamma_alike():
    b, g = F(3, 4), F(5, 8)
    calls = [lambda: vertex("Q1", 2, b, g),
             lambda: region("Q", 2, b, g),
             lambda: radial_type_set(2, b, g),
             lambda: supporting_line_value(0, 0, b, g),
             lambda: predicted_probe_exponents(2, b, g, 1, 2, 4, "BallR")]
    for call in calls:
        with pytest.raises(ParameterError, match="need beta <= gamma <= "
                                                 "gamma_star, got 3/4, 5/8"):
            call()


def test_vertex_grid_lands_in_triangle():
    # RegionPoint construction itself enforces 0 <= y <= x <= 1
    betas = [F(k, 8) for k in range(9)]
    for d in (2, 3, 5):
        for b in betas:
            for name in ("Q1", "Q2"):
                vertex(name, d, b)
            for g in betas:
                if d == 2 and g >= b and 2 * g >= b + 1:
                    vertex("Q3", d, b, g)


# ---------------------------------------------------------------------------
# plain regions


def test_region_delta_reference_vertices():
    r = region("Delta", 3, 0)
    assert r.vertices == (pt(0, 0), pt(F(3, 4), F(1, 4)), pt(1, 1))
    r = region("Delta", 3, 1)
    assert r.vertices == (pt(0, 0), pt(F(2, 3), F(2, 9)), pt(F(2, 3), F(2, 3)))
    assert set(r.vertex_status) == {"included"}
    assert set(r.edge_status) == {"included"}
    assert r.exterior_status == "excluded"


def test_region_q_degenerates_to_delta_on_critical_line():
    q = region("Q", 2, F(1, 3), F(2, 3))
    d = region("Delta", 2, F(1, 3))
    assert q.vertices == d.vertices
    assert len(q.vertices) == 3


def test_region_rejects_bad_requests():
    with pytest.raises(ParameterError):
        region("Blob", 2, F(1, 2))
    with pytest.raises(ParameterError):
        region("Q", 3, F(1, 2), F(9, 10))
    with pytest.raises(ParameterError):
        region("Q", 2, F(1, 2), F(3, 5))
    with pytest.raises(ParameterError):
        region("P", 2, F(3, 4), F(1, 2))
    with pytest.raises(ParameterError):
        region("Qtilde", 2, F(0), F(1, 4))
    with pytest.raises(ParameterError):
        region("Delta", 2, F(5, 4))


def test_region_validation_catches_bad_polygons():
    o, a, b = pt(0, 0), pt(F(3, 4), F(1, 4)), pt(1, 1)
    inc = ("included",) * 3
    with pytest.raises(ConsistencyError):
        TypeSetRegion((o, b, a), inc, inc, "clockwise")
    with pytest.raises(ConsistencyError):
        TypeSetRegion((a, b, o), inc, inc, "not-at-origin")
    with pytest.raises(ConsistencyError):
        TypeSetRegion((o, a, a, b), ("included",) * 4, ("included",) * 4,
                      "duplicate")
    with pytest.raises(ParameterError):
        TypeSetRegion((o, a, b), inc, ("included", "sometimes", "included"),
                      "bad-status")
    with pytest.raises(ConsistencyError):
        TypeSetRegion((o, a, b), ("unknown", "included", "included"), inc,
                      "origin-not-included")


# ---------------------------------------------------------------------------
# radial type sets


def test_radial_full_interval_d3():
    r = radial_type_set(3, 1)
    assert r.provenance == "interval-endpoint"
    assert r.vertices == region("Delta", 3, 1).vertices
    assert r.vertex_status == ("included", "excluded", "excluded")
    assert r.edge_status == ("included", "excluded", "included")
    assert r.exterior_status == "excluded"


def test_radial_full_interval_d2_keeps_restricted_weak_vertex():
    r = radial_type_set(2, 1)
    assert r.vertex_status == ("included", "restricted-weak-only", "excluded")
    assert r.edge_status == ("included", "excluded", "included")


def test_radial_higher_dim_tracks_characteristic_flag():
    bounded = radial_type_set(3, F(1, 2),
                              flags=CharacteristicFlags(minkowski_char_bounded=True))
    assert set(bounded.vertex_status) == {"included"}
    assert set(bounded.edge_status) == {"included"}
    assert bounded.provenance == "higher-dim-characteristic-bounded"

    unbounded = radial_type_set(3, F(1, 2),
                                flags=CharacteristicFlags(minkowski_char_bounded=False))
    assert unbounded.vertex_status == ("included", "excluded", "excluded")
    assert unbounded.edge_status == ("included", "excluded", "included")

    open_case = radial_type_set(3, F(1, 2))
    assert open_case.vertex_status == ("included", "unknown", "unknown")
    assert open_case.edge_status == ("included", "unknown", "included")
    assert open_case.exterior_status == "excluded"


def test_radial_2d_subcritical_with_bounded_characteristics():
    flags = CharacteristicFlags(minkowski_char_bounded=True,
                                assouad_char_bounded=True)
    r = radial_type_set(2, 0, 0, 0, flags)
    assert r.vertices == region("Delta", 2, 0).vertices
    assert set(r.vertex_status) == {"included"}
    assert set(r.edge_status) == {"included"}
    assert r.provenance == "2d-subcritical-endpoint"


def test_radial_2d_subcritical_inclusion_only():
    r = radial_type_set(2, F(1, 2), F(7, 10), F(9, 10))
    ins = vertex("Q2", 2, F(4, 5))
    assert r.vertices == (pt(0, 0), ins, vertex("Q2", 2, F(1, 2)),
                          vertex("Q1", 2, F(1, 2)))
    assert r.vertex_status == ("included", "unknown", "unknown", "unknown")
    assert r.edge_status == ("included", "unknown", "unknown", "included")
    assert r.provenance == "2d-subcritical-inclusion"
    assert r.exterior_status == "excluded"

    # gamma_star too small to reach past Q2(beta): no inserted vertex
    r2 = radial_type_set(2, F(1, 2), F(7, 10), F(7, 10))
    assert len(r2.vertices) == 3
    assert r2.edge_status == ("included", "unknown", "included")


def test_radial_2d_critical_with_bounded_characteristics():
    flags = CharacteristicFlags(minkowski_char_bounded=True,
                                assouad_char_bounded=True,
                                quasi_assouad_regular=True)
    r = radial_type_set(2, F(1, 2), F(7, 8), F(7, 8), flags)
    assert r.vertices == (pt(0, 0), pt(F(8, 15), F(4, 15)),
                          pt(F(11, 19), F(6, 19)), pt(F(2, 3), F(2, 3)))
    assert r.vertex_status == ("included", "restricted-weak-only", "included",
                               "included")
    assert set(r.edge_status) == {"included"}
    assert r.provenance == "2d-critical-endpoint"
    assert r.exterior_status == "excluded"

    # without the regularity flag the outside is undetermined
    loose = CharacteristicFlags(minkowski_char_bounded=True,
                                assouad_char_bounded=True)
    assert radial_type_set(2, F(1, 2), F(7, 8), F(7, 8),
                           loose).exterior_status == "unknown"


def test_radial_2d_critical_degenerate_keeps_weak_vertex():
    # 2*gamma = beta + 1 collapses Q3 onto Q2; the collapsed vertex stays
    # restricted-weak-only
    flags = CharacteristicFlags(minkowski_char_bounded=True,
                                assouad_char_bounded=True)
    r = radial_type_set(2, 0, F(1, 2), F(1, 2), flags)
    assert len(r.vertices) == 3
    assert r.vertex_status == ("included", "restricted-weak-only", "included")


def test_radial_2d_supercritical_inclusion_only():
    r = radial_type_set(2, 0, F(3, 4), F(7, 8))
    ins = vertex("Q2", 2, F(3, 4))
    assert r.vertices == (pt(0, 0), ins, vertex("Q2", 2, F(1, 2)),
                          pt(F(2, 3), F(1, 3)), pt(1, 1))
    assert r.edge_status == ("included", "unknown", "unknown", "unknown",
                             "included")
    assert r.provenance == "2d-supercritical-inclusion"
    assert r.exterior_status == "unknown"


def test_radial_flag_consistency():
    flags = CharacteristicFlags(quasi_assouad_regular=True)
    with pytest.raises(ConsistencyError):
        radial_type_set(2, F(1, 4), F(1, 2), F(3, 4), flags)
    # gamma = 0 sets are always regular, whatever gamma_star says
    radial_type_set(2, 0, 0, 0, flags)


def test_radial_rejects_bad_parameter_chain():
    with pytest.raises(ParameterError):
        radial_type_set(2, F(3, 4), F(1, 2))
    with pytest.raises(ParameterError):
        radial_type_set(2, F(1, 4), F(1, 2), F(1, 3))
    with pytest.raises(ParameterError):
        radial_type_set(1, F(1, 2))


# sha256 over the repr of every radial_type_set on the grid below, or the
# name of the exception it raises, one line per case in loop order
RADIAL_GRID_SHA256 = (
    "e34e3dbf3867a84b793d71287a8d8857a1e1f47a559df8f77bbcfc9105723148")


def test_radial_type_set_pinned_on_a_grid():
    # d in {2, 3}, beta <= gamma <= gamma_star in steps of 1/8 and all 27
    # flag triples: a moved vertex, status, provenance or exterior, or an
    # error raised where there was none, changes the digest
    steps = [F(k, 8) for k in range(9)]
    digest = hashlib.sha256()
    cases = 0
    for d in (2, 3):
        for chain in itertools.combinations_with_replacement(steps, 3):
            for flags in itertools.product((True, False, None), repeat=3):
                try:
                    text = repr(radial_type_set(
                        d, *chain, CharacteristicFlags(*flags)))
                except (ParameterError, ConsistencyError) as exc:
                    text = type(exc).__name__
                digest.update(text.encode() + b"\n")
                cases += 1
    assert cases == 8910
    assert digest.hexdigest() == RADIAL_GRID_SHA256


# ---------------------------------------------------------------------------
# membership


def test_membership_reference_classifications():
    r = radial_type_set(3, 1)
    assert membership(r, 2, 2) == "boundary-included"
    assert membership(r, F(3, 2), F(3, 2)) == "boundary-excluded"
    assert membership(r, math.inf, math.inf) == "boundary-included"
    assert membership(r, 2, 4) == "interior"
    assert membership(r, 3, 9) == "boundary-included"  # bottom edge
    assert membership(r, F(4, 3), 4) == "outside"      # beyond the right edge
    assert membership(r, 4, 2) == "outside"            # above the diagonal
    assert membership(r, F(3, 2), F(9, 2)) == "boundary-excluded"


def test_membership_collinear_bottom_chain():
    r = radial_type_set(2, F(1, 2), F(7, 10), F(9, 10))
    ins = vertex("Q2", 2, F(4, 5))           # (10/19, 5/19)
    mid_in = ((0 + ins.x) / 2, (0 + ins.y) / 2)
    assert classify_point(r, *mid_in) == "boundary-included"
    far = vertex("Q2", 2, F(1, 2))           # (4/7, 2/7)
    mid_unknown = ((ins.x + far.x) / 2, (ins.y + far.y) / 2)
    assert classify_point(r, *mid_unknown) == "boundary-unknown"
    assert classify_point(r, ins.x, ins.y) == "boundary-unknown"
    assert classify_point(r, F(1, 2), F(3, 8)) == "interior"


def test_membership_restricted_weak_vertex():
    r = radial_type_set(2, 1)
    assert membership(r, 2, 4) == "boundary-restricted-weak"


def test_membership_rejects_bad_exponents():
    r = region("Delta", 2, F(1, 2))
    with pytest.raises(ParameterError):
        membership(r, F(1, 2), 2)


def test_membership_randomized_against_float_hull():
    # float winding check as an independent referee for strict inside/outside
    rng = np.random.default_rng(0x7E03)
    r = region("Q", 2, F(1, 4), F(3, 4))
    verts = [(float(v.x), float(v.y)) for v in r.vertices]
    for _ in range(200):
        x = F(int(rng.integers(0, 65)), 64)
        y = F(int(rng.integers(0, 65)), 64)
        got = classify_point(r, x, y)
        crosses = []
        for i in range(len(verts)):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % len(verts)]
            crosses.append((bx - ax) * (float(y) - ay)
                           - (by - ay) * (float(x) - ax))
        if min(crosses) > 1e-9:
            assert got == "interior"
        elif min(crosses) < -1e-9:
            assert got == "outside"


# ---------------------------------------------------------------------------
# region inclusions


def test_delta_shrinks_as_beta_grows():
    betas = [F(k, 8) for k in range(9)]
    for d in (2, 3, 4):
        for lo, hi in zip(betas, betas[1:]):
            big = region("Delta", d, lo)
            small = region("Delta", d, hi)
            for v in small.vertices:
                assert classify_point(big, v.x, v.y) != "outside"
            # and strictly: the bigger bottom vertex escapes the smaller set
            q2 = vertex("Q2", d, lo)
            assert classify_point(small, q2.x, q2.y) == "outside"


def test_q_shrinks_as_gamma_grows():
    b = F(1, 4)
    gammas = [F(5, 8), F(3, 4), F(7, 8), F(1)]
    for lo, hi in zip(gammas, gammas[1:]):
        big = region("Q", 2, b, lo)
        small = region("Q", 2, b, hi)
        for v in small.vertices:
            assert classify_point(big, v.x, v.y) != "outside"


def test_q_inside_delta_strict_iff_supercritical():
    for b in (F(1, 8), F(1, 2), F(3, 4)):
        for g in (F(5, 8), F(3, 4), F(1)):
            if 2 * g < b + 1 or g < b:
                continue
            q = region("Q", 2, b, g)
            tri = region("Delta", 2, b)
            for v in q.vertices:
                assert classify_point(tri, v.x, v.y) != "outside"
            q2 = vertex("Q2", 2, b)
            if 2 * g == b + 1:
                assert q.vertices == tri.vertices
            else:
                # beta > 0: the triangle's bottom vertex sticks out
                assert classify_point(q, q2.x, q2.y) == "outside"


# ---------------------------------------------------------------------------
# supporting line and predicted exponents


def test_supporting_line_vanishes_at_critical_vertices():
    grid = [F(k, 8) for k in range(9)]
    hit = 0
    for b in grid:
        for g in grid:
            if g == 0 or g < b or 2 * g < b + 1:
                continue
            q2 = vertex("Q2", 2, 2 * g - 1)
            assert supporting_line_value(q2.x, q2.y, b, g) == 0
            q3 = vertex("Q3", 2, b, g)
            assert supporting_line_value(q3.x, q3.y, b, g) == 0
            hit += 1
    assert hit > 10
    # the diagonal vertex with the same parameter does NOT lie on the line:
    # the zero belongs to Q2(2*gamma-1), not Q1(2*gamma-1)
    b, g = F(0), F(3, 4)
    q1 = vertex("Q1", 2, 2 * g - 1)
    assert supporting_line_value(q1.x, q1.y, b, g) != 0


def test_supporting_line_signs():
    b, g = F(1, 2), F(1)
    assert supporting_line_value(0, 0, b, g) == F(1, 4)  # beta / (2 gamma)
    q2b = vertex("Q2", 2, b)
    assert supporting_line_value(q2b.x, q2b.y, b, g) == F(-1, 28)
    assert supporting_line_value(1, 0, b, g) < 0
    with pytest.raises(ParameterError):
        supporting_line_value(0, 0, F(0), F(0))


def test_predicted_gaps_vanish_on_scaling_lines():
    # stand2-style annulus: zero exactly on q = p*d
    for d in (2, 3):
        for p in (F(3, 2), 2, 3):
            res = predicted_probe_exponents(d, 1, 1, 1, p, d * F(p), "AnnulusDelta")
            assert res["gap"] == 0
            res = predicted_probe_exponents(d, 1, 1, 1, p, d * F(p) + 1, "AnnulusDelta")
            assert res["gap"] < 0
            res = predicted_probe_exponents(d, 1, 1, 1, p, d * F(p) - F(1, 2), "AnnulusDelta")
            assert res["gap"] > 0

    # small-ball family: zero on the supporting line of [Q1, Q2]
    for d in (2, 3):
        for b in (F(0), F(1, 2), F(1)):
            for name in ("Q1", "Q2"):
                v = vertex(name, d, b)
                res = predicted_probe_exponents(d, b, 1, 1, 1 / v.x, 1 / v.y,
                                                "SmallBallDelta")
                assert res["gap"] == 0

    # growing balls: zero on the diagonal p = q
    res = predicted_probe_exponents(3, 1, 1, 1, 2, 2, "BallR")
    assert res["gap"] == 0
    assert predicted_probe_exponents(3, 1, 1, 1, 2, F(5, 2), "BallR")["gap"] > 0
    assert predicted_probe_exponents(3, 1, 1, 1, F(5, 2), 2, "BallR")["gap"] < 0


def test_predicted_lorentz_and_local_families():
    res = predicted_probe_exponents(2, 1, 1, 1, 2, 4, "Lorentz2D")
    assert res["gap"] == 0
    assert predicted_probe_exponents(2, 1, 1, 1, F(9, 5), F(18, 5),
                                     "Lorentz2D")["gap"] < 0
    assert predicted_probe_exponents(2, 1, 1, 1, 3, 4,
                                     "Lorentz2D")["gap"] > 0

    b, g = F(1, 2), F(7, 8)
    q3 = vertex("Q3", 2, b, g)
    res = predicted_probe_exponents(2, b, g, g, 1 / q3.x, 1 / q3.y,
                                    "LocalAnnulus")
    assert res["gap"] == 0
    assert res["gap"] == supporting_line_value(q3.x, q3.y, b, g)


def test_predicted_log_families():
    res = predicted_probe_exponents(3, 1, 1, 1, F(3, 2), 3, "SteinLog")
    assert res["gap"] == 0
    assert res["divergence"] == "log-log"
    res = predicted_probe_exponents(3, 1, 1, 1, F(4, 3), 3, "SteinLog")
    assert res["divergence"] == "none"

    res = predicted_probe_exponents(2, 1, 1, 1, 2, 4, "EndpointLog")
    assert res["gap"] == 0
    assert res["log_gap"] == F(1, 2)
    res = predicted_probe_exponents(3, F(1, 2), 1, 1, F(3, 2), 3, "EndpointLog")
    assert res["gap"] == F(1, 6)
    assert res["log_gap"] == F(1, 3)


def test_predicted_rejects_bad_requests():
    with pytest.raises(ParameterError):
        predicted_probe_exponents(2, 1, 1, 1, 2, 4, "MysteryProbe")
    with pytest.raises(ParameterError):
        predicted_probe_exponents(3, 1, 1, 1, 2, 4, "LocalAnnulus")
    with pytest.raises(ParameterError):
        predicted_probe_exponents(3, 1, 1, 1, 2, 4, "Lorentz2D")
    with pytest.raises(ParameterError):
        predicted_probe_exponents(2, F(3, 4), F(1, 2), F(1, 2), 2, 4, "BallR")
