"""Counterexample probe families for the maximal operator.

Each family packages the radial profile of a scaling test function together
with the witness radii where its lower bound is realized. A probe run sweeps
the scale, computes a lower-bound functional at the witnesses (a grid and
golden-polish lower bound on the maximal value, up to rounding for the d = 2
indicator witnesses, whose means are in closed form, and otherwise up to
the quadrature's |K15 - G7| error estimate), and fits the log-log slope of
functional over input norm; the sign of the fitted gap mirrors the
necessary condition at the chosen exponent pair. Witness evaluation anchors
the dilation search at one known-good point per radius, which keeps every
sweep cheap and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateProbeError,
    DomainError,
    InsufficientDataError,
    InvalidScaleError,
    ParameterError,
    PrecisionError,
)
from .fractal_set import (
    FractalSet,
    _merged,
    as_rational,
    covering_number,
    from_intervals,
    full_interval,
    neighborhood_measure,
    restrict,
    separated_points,
)
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .radial_operator import (
    DilationGrid,
    RadialProfile,
    _check_dim,
    _maximal_values,
    indicator,
    lp_norm,
    maximal_value,  # noqa: F401  (callers patch and trace it here)
    power_profile,
)
from .type_set_geometry import PROBE_FAMILIES, predicted_probe_exponents

_MAX_WITNESS = 6
_MIN_SCALE = Fraction(1, 2 ** 40)

INCONCLUSIVE_BAND = 0.05
RESIDUAL_LIMIT = 0.05


@dataclass(frozen=True)
class ProbeFamily:
    """One counterexample family: its kind plus the static parameters that
    do not vary with the scale (annulus center t0, window offset u, window)."""

    kind: str
    d: int
    t0: Fraction | None = None
    u: Fraction | None = None
    window: tuple[Fraction, Fraction] | None = None

    def __post_init__(self):
        if self.kind not in PROBE_FAMILIES:
            raise ParameterError(f"unknown probe family {self.kind!r}")
        _check_dim(self.d)
        if self.kind in ("Lorentz2D", "LocalAnnulus") and self.d != 2:
            raise ParameterError(f"the {self.kind} family is two-dimensional")

        if self.kind == "AnnulusDelta":
            if self.t0 is None:
                raise ParameterError("AnnulusDelta needs the center t0")
            t0 = as_rational(self.t0, what="t0")
            if not 1 <= t0 <= 2:
                raise ParameterError(f"t0 must lie in [1, 2], got {t0}")
            object.__setattr__(self, "t0", t0)
        elif self.t0 is not None:
            raise ParameterError(f"{self.kind} takes no center t0")

        if self.kind == "LocalAnnulus":
            if self.u is None or self.window is None:
                raise ParameterError("LocalAnnulus needs u and the window")
            u = as_rational(self.u, what="u")
            try:
                lo = as_rational(self.window[0], what="window endpoint")
                hi = as_rational(self.window[1], what="window endpoint")
            except (TypeError, IndexError) as exc:
                raise ParameterError(
                    f"window must be a pair, got {self.window!r}") from exc
            if not 1 <= lo < hi <= 2:
                raise ParameterError(
                    f"window [{lo}, {hi}] must be a nondegenerate subinterval of [1, 2]")
            if u + (hi - lo) > 2:
                raise ParameterError("need u + |I| <= 2")
            if not 0 < u < lo:
                raise ParameterError(
                    f"offset u must sit in (0, {lo}) so witness radii are positive")
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "window", (lo, hi))
        elif self.u is not None or self.window is not None:
            raise ParameterError(f"{self.kind} takes no offset or window")


@dataclass(frozen=True)
class ProbeInstance:
    """The family frozen at one scale: concrete profile, witness radii, the
    dilation anchoring each radius, and the witness set as radial cells."""

    family: ProbeFamily
    scale: Fraction
    profile: RadialProfile
    witness_radii: tuple[Fraction, ...]
    witness_anchors: tuple[Fraction, ...]
    witness_cells: tuple[tuple[Fraction, Fraction], ...]
    anchor_refinement: Fraction

    @property
    def witness_measure(self) -> Fraction:
        return _shell_measure(self.witness_cells, self.family.d)


def _shell_measure(cells, d: int) -> Fraction:
    """Exact sum of (hi^d - lo^d)/d over radial cells (lo, hi): the
    measure of the shells, without the sphere's area factor, summed as
    integers over the cells' common denominator D and divided once."""
    cells = list(cells)
    D = math.lcm(*{x.denominator for cell in cells for x in cell})
    return Fraction(sum((hi.numerator * (D // hi.denominator)) ** d
                        - (lo.numerator * (D // lo.denominator)) ** d
                        for lo, hi in cells), d * D ** d)


def _spread(seq, cap: int = _MAX_WITNESS) -> list:
    if len(seq) <= cap:
        return list(seq)
    idx = np.linspace(0, len(seq) - 1, cap).round().astype(int)
    return [seq[i] for i in dict.fromkeys(idx.tolist())]


def _lorentz_ladder(s: Fraction, cap: Fraction):
    """Dyadic witness radii r = 2s, 4s, ... up to cap for the shell
    indicator of [1 - s, 1], each anchored at the edge-tangent dilation
    1 - s + r."""
    radii = []
    r = 2 * s
    while r <= cap:
        radii.append(r)
        r *= 2
    return radii, [1 - s + r for r in radii]


def build_probe(family: ProbeFamily, scale,
                E: FractalSet | None = None) -> ProbeInstance:
    """Instantiate the family at one scale. E is required for the families
    whose witness set is built from the dilations themselves."""
    s = as_rational(scale, InvalidScaleError, "probe scale")
    if s < _MIN_SCALE:
        raise InvalidScaleError(f"scale {s} is below quadrature resolution")
    kind, d = family.kind, family.d

    if kind == "BallR":
        if s > Fraction(1, 4):
            raise InvalidScaleError(
                "ball probes need scale <= 1/4 so every dilation stays inside")
        radius = 1 / s
        anchor = E.intervals[0][0] if E is not None else Fraction(1)
        radii = (radius / 8, radius / 4, radius / 2)
        return ProbeInstance(family, s, indicator(0, radius), radii,
                             (anchor,) * 3, ((Fraction(0), radius / 2),),
                             Fraction(0))

    if kind == "AnnulusDelta":
        if s >= Fraction(1, 2):
            raise InvalidScaleError("annulus probes need scale < 1/2")
        t0 = family.t0
        if E is not None and E.component(t0) is None:
            raise DegenerateProbeError(
                f"annulus center {t0} lies outside the dilation set")
        radii = (s / 4, s / 2, s)
        return ProbeInstance(family, s, indicator(t0 - s, t0 + s), radii,
                             (t0,) * 3, ((Fraction(0), s),), Fraction(0))

    if kind == "SmallBallDelta":
        if s >= Fraction(1, 2):
            raise InvalidScaleError("small-ball probes need scale < 1/2")
        if E is None:
            raise ParameterError("the small-ball witness needs the dilation set")
        pts = separated_points(E, s)
        if not pts:
            raise DegenerateProbeError("no separated dilations at this scale")
        sample = _spread(pts)
        cells = tuple((t - s / 2, t + s / 2) for t in pts)
        return ProbeInstance(family, s, indicator(0, s), tuple(sample),
                             tuple(sample), cells, Fraction(0))

    if kind == "SteinLog":
        if s > Fraction(1, 4):
            raise InvalidScaleError("the Stein truncation needs scale <= 1/4")
        profile = power_profile(1, -(d - 1), -1, s, Fraction(1, 2))
        r0 = Fraction(3, 2)
        anchor = E.nearest(r0) if E is not None else r0
        return ProbeInstance(family, s, profile, (r0,), (anchor,),
                             ((Fraction(1), Fraction(2)),), Fraction(0))

    if kind == "EndpointLog":
        if s > Fraction(1, 4):
            raise InvalidScaleError("the endpoint family needs scale <= 1/4")
        profile = power_profile(1, 1 - d, 0, s ** 10, 1)
        if E is None:
            raise ParameterError("the endpoint witness needs the dilation set")
        anchors = _spread([b for _, b in E.intervals], 4)
        radii = tuple(b + s for b in anchors)
        cells = _merged((a - s, b + s) for a, b in E.intervals)
        return ProbeInstance(family, s, profile, radii, tuple(anchors),
                             tuple(cells), Fraction(0))

    if kind == "Lorentz2D":
        if s > Fraction(1, 16):
            raise InvalidScaleError(
                "the Lorentz shell needs scale <= 1/16 for a nonempty witness")
        radii, anchors = _lorentz_ladder(s, Fraction(1, 4))
        for t in anchors if E is not None else ():
            if E.component(t) is None:
                raise DegenerateProbeError(f"witness dilation {t} at scale {s} "
                                           "lies outside the dilation set")
        return ProbeInstance(family, s, indicator(1 - s, 1), tuple(radii),
                             tuple(anchors), ((s, Fraction(1, 4)),), s / 4)

    # LocalAnnulus
    lo, hi = family.window
    u = family.u
    if s > hi - lo:
        raise InvalidScaleError(
            f"scale {s} exceeds the window length {hi - lo}")
    if s >= u:
        raise InvalidScaleError(f"scale {s} must stay below the offset {u}")
    if E is None:
        raise ParameterError("the local annulus witness needs the dilation set")
    clipped = restrict(E, lo, hi)
    if not clipped:
        raise DegenerateProbeError("the window misses the dilation set")
    pts = separated_points(from_intervals(clipped), s)
    if not pts:
        raise DegenerateProbeError("no separated dilations in the window")
    sample = _spread(pts)
    cells = tuple((t - u, t - u + s / 2) for t in pts)
    radii = tuple(t - u + s / 4 for t in sample)
    return ProbeInstance(family, s, indicator(u - s, u + s), radii,
                         tuple(sample), cells, Fraction(0))


# ---------------------------------------------------------------------------
# probe runs


class ProbeRow(NamedTuple):
    scale: float
    input_norm: float
    output_functional: float
    ratio: float


@dataclass(frozen=True)
class ProbeResult:
    family: ProbeFamily
    p: float
    q: float
    rows: tuple[ProbeRow, ...]
    fitted_exponent: float
    residual: float
    predicted_gap: float
    verdict: str
    partial: bool = False


def _witness_bounds(insts, E: FractalSet,
                    quad: QuadratureSpec) -> list[float]:
    """Per instance, the smallest maximal value of its profile over its
    witness radii, each anchored at its dilation: every (instance, radius)
    pair of every instance in one _maximal_values call, so all are swept in
    one batch and polished in lockstep."""
    pairs = [(inst, r, DilationGrid((anchor,), inst.anchor_refinement))
             for inst in insts
             for r, anchor in zip(inst.witness_radii, inst.witness_anchors)]
    if not pairs:
        return []
    found = iter(_maximal_values(
        insts[0].family.d, [inst.profile for inst, _, _ in pairs],
        [r for _, r, _ in pairs], E, [grid for _, _, grid in pairs], quad))
    return [min(next(found).value for _ in inst.witness_radii)
            for inst in insts]


def _witness_bound(inst: ProbeInstance, E: FractalSet,
                   quad: QuadratureSpec) -> float:
    """_witness_bounds of the one instance inst."""
    return _witness_bounds([inst], E, quad)[0]


def _witness_ladder(family: ProbeFamily, scales, E: FractalSet,
                    quad: QuadratureSpec):
    """Per scale, in order, its instance and its witness bound lambda, as
    a generator. Every instance is built first and every lambda comes from
    one _witness_bounds batch. When the batch raises PrecisionError, each
    lambda is found alone instead, so the error is raised at the scale
    whose bound fails. An error building an instance is held and raised at
    its scale, after the scales before it."""
    insts = []
    for s in scales:
        try:
            insts.append(build_probe(family, s, E))
        except DomainError as exc:
            insts.append(exc)
            break
    built = [inst for inst in insts if isinstance(inst, ProbeInstance)]
    try:
        lams = _witness_bounds(built, E, quad)
    except PrecisionError:
        lams = [None] * len(built)
    for inst, lam in zip(insts, lams + [None]):
        if isinstance(inst, DomainError):
            raise inst
        yield inst, _witness_bound(inst, E, quad) if lam is None else lam


def _fit_rows(rows) -> tuple[float, float]:
    x = np.log([row.scale for row in rows])
    y = np.log([row.ratio for row in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid


def run_probe(kind: str, E: FractalSet, d: int, pq, scales,
              quad: QuadratureSpec = DEFAULT_QUAD, *,
              t0=None, u=None, window=None,
              beta=1, gamma=1, gamma_star=1) -> list[ProbeResult]:
    """Sweep the probe over the scales for the list pq of exponent pairs
    (p, q) and compare against the predictions; one result per pair.

    Per scale the instance and lambda, the smallest anchored maximal value
    over the witness radii, serve every pair; the lambdas of all scales
    come from one batch (_witness_ladder), every (scale, radius) pair swept
    together and polished in lockstep, each bitwise its value alone. A
    pair's input_norm is the exact indicator measure to the 1/p (a Lorentz
    L^{p,1} surrogate) or the quadrature L^p norm for the log families; its
    output_functional is lambda * mu_d(witness)^(1/q). A quadrature failure
    stops every pair if in lambda, else its own, with a partial,
    inconclusive result. An error building the instance of a scale is
    raised where the scale loop reaches it."""
    family = ProbeFamily(kind, d, t0=t0, u=u, window=window)
    pq = list(pq)
    # validates every p, q, beta, gamma and gamma_star before any sweep
    predicted = [float(predicted_probe_exponents(
        d, beta, gamma, gamma_star, p, q, kind)["gap"]) for p, q in pq]
    exps = [(float(p), float(q)) for p, q in pq]
    svals = [as_rational(s, InvalidScaleError, "probe scale") for s in scales]
    if len(svals) < 3:
        raise InsufficientDataError("need at least three scales to fit a slope")
    if any(b >= a for a, b in zip(svals, svals[1:])):
        raise ParameterError("scales must be strictly decreasing")

    ladder = _witness_ladder(family, svals, E, quad)
    rows = [[] for _ in exps]
    partial = [False] * len(exps)
    for s in svals:
        if all(partial):
            break
        try:
            inst, lam = next(ladder)
        except PrecisionError:
            partial = [True] * len(exps)
            break
        # an indicator's input norm is its shell measure, read off exactly
        pcs = inst.profile.pieces
        exact = (float(_shell_measure(((pc.lo, pc.hi) for pc in pcs), d))
                 if all(pc.indicator for pc in pcs) else None)
        for k, (pf, qf) in enumerate(exps):
            if partial[k]:
                continue
            try:
                inp = (exact ** (1.0 / pf) if exact is not None
                       else lp_norm(inst.profile, pf, d, quad))
            except PrecisionError:
                partial[k] = True
                continue
            out = lam * float(inst.witness_measure) ** (1.0 / qf)
            rows[k].append(ProbeRow(float(s), inp, out, out / inp))
    results = []
    for (pf, qf), pair_rows, gap, stop in zip(exps, rows, predicted, partial):
        pair_rows.sort(key=lambda row: row.scale)
        slope, resid = (_fit_rows(pair_rows) if len(pair_rows) >= 3
                        else (math.nan, math.inf))
        verdict = "inconclusive"
        if not (stop or len(pair_rows) < 3 or resid >= RESIDUAL_LIMIT):
            if slope < -INCONCLUSIVE_BAND:
                verdict = "violation-detected"
            elif slope > INCONCLUSIVE_BAND:
                verdict = "consistent"
        results.append(ProbeResult(family, pf, qf, tuple(pair_rows), slope,
                                   resid, gap, verdict, stop))
    return results


# ---------------------------------------------------------------------------
# log-refinement probes


def lorentz_log_probe(scales, s=4, quad: QuadratureSpec = DEFAULT_QUAD,
                      E: FractalSet | None = None) -> list[dict]:
    """Lower bound for the Lorentz L^{4,s} quasinorm of the shell family on
    the full interval, sampled over the level range [c sqrt(delta), c].

    For finite s the row reports the integrated functional, its ratio to
    delta^(s/2), and that ratio divided by log2(1/delta), which should sit in
    a constant band; s = inf reports the weak functional over sqrt(delta),
    which stays bounded. Stops early on quadrature failure."""
    if s != math.inf:
        sf = float(s)
        if not sf >= 1:
            raise ParameterError(f"Lorentz exponent s must be >= 1, got {s!r}")
    E = E if E is not None else full_interval()
    family = ProbeFamily("Lorentz2D", 2)
    rows: list[dict] = []
    for raw in scales:
        delta = as_rational(raw, InvalidScaleError, "probe scale")
        inst = build_probe(family, delta)
        # ladder past the conservative 1/4 witness cap: the edge-tangent
        # dilation 1 - delta + r stays admissible for radii up to 1, and each
        # sampled value is a grid-and-polish lower bound on the maximal
        # value, up to rounding: the means of the shell are in closed form
        radii, anchors = _lorentz_ladder(delta, Fraction(1))
        grids = [DilationGrid((E.nearest(anchor),), inst.anchor_refinement)
                 for anchor in anchors]
        try:
            lams = [m.value for m in _maximal_values(2, inst.profile, radii, E,
                                                     grids, quad)]
        except PrecisionError:
            break
        mus = [float(_shell_measure(((delta, r),), 2)) for r in radii]
        k = math.log2(1.0 / float(delta))
        if s == math.inf:
            value = max(l * m ** 0.25 for l, m in zip(lams, mus))
            ratio = value / float(delta) ** 0.5
            normalized = ratio
        else:
            value = 0.0
            for j in range(len(lams) - 1):
                if lams[j + 1] < lams[j]:
                    value += ((lams[j] * mus[j] ** 0.25) ** sf
                              * math.log(lams[j] / lams[j + 1]))
            ratio = value / float(delta) ** (sf / 2.0)
            normalized = ratio / k
        rows.append({"scale": float(delta), "levels": len(lams),
                     "functional": value, "ratio": ratio,
                     "normalized": normalized})
    return rows


def endpoint_log_probe(E: FractalSet, d: int, q, n_values,
                       quad: QuadratureSpec = DEFAULT_QUAD) -> list[dict]:
    """Witness growth table for the endpoint family f = s^(1-d) chi.

    Per n: the anchored witness value of M_E f at one scale-step outside the
    components (grows like c*n when E fills its covering boxes), the measure
    of the 2^(1-n)-neighborhood W_n, and the log-weighted boundedness
    criterion n^(q/d) * 2^-n * N(E, 2^-n), whose sup over n is finite exactly
    when the endpoint bound holds. Stops early on quadrature failure."""
    _check_dim(d)
    qf = float(q)
    if qf < 1:
        raise ParameterError(f"exponent q must be >= 1, got {q!r}")
    ns = list(n_values)
    if not ns or any(not isinstance(n, int) or isinstance(n, bool) or n < 1
                     for n in ns):
        raise ParameterError("n values must be positive integers")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("n values must be strictly increasing")
    family = ProbeFamily("EndpointLog", d)
    ladder = _witness_ladder(family, [Fraction(1, 2 ** n) for n in ns], E,
                             quad)
    rows: list[dict] = []
    for n in ns:
        delta = Fraction(1, 2 ** n)
        try:
            _, value = next(ladder)
        except PrecisionError:
            break
        cover = covering_number(E, delta)
        rows.append({
            "n": n,
            "witness_value": value,
            "c": value / n,
            "wn_measure": float(neighborhood_measure(E, n)),
            "criterion": n ** (qf / d) * float(delta) * cover,
        })
    return rows
