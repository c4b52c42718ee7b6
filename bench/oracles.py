"""Independent answers the benchmark checks library results against.

Nothing here calls the quadrature. Each check returns None when the result
passes and a one-line reason when it does not, so a fast wrong answer is
counted as a failed operation rather than a speed-up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# The library promises rel_tol 1e-9 per integral; the closed form below is
# exact up to float rounding, so this leaves a wide margin for both.
REL_TOL = 1e-7
ABS_TOL = 1e-9


def tolerance(ref: float) -> float:
    return ABS_TOL + REL_TOL * abs(ref)


def closed_form_applies(d: int, profile) -> bool:
    """Odd d and no log factors: the kernel times the profile is a sum of
    (possibly fractional) powers of s, integrable in closed form."""
    return d % 2 == 1 and all(pc.b_pow == 0.0 for pc in profile.pieces)


def _polymul(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return out


def _kernel_poly(d: int, a, b):
    """Coefficients (lowest power first) of s * ((s^2-a^2)(b^2-s^2))^m,
    m = (d-3)/2; a and b may be arrays over dilations."""
    base = _polymul([-a * a, 0.0, 1.0], [b * b, 0.0, -1.0])
    poly = [0.0, 1.0]
    for _ in range((d - 3) // 2):
        poly = _polymul(poly, base)
    return poly


def _power_integral(p: float, lo, hi):
    if p == -1.0:
        return np.log(hi / lo)
    return (hi ** (p + 1.0) - lo ** (p + 1.0)) / (p + 1.0)


def _raw_mean(d: int, profile, r: float, t):
    """Unnormalized integral of kernel times profile over [|r-t|, r+t]."""
    t = np.asarray(t, dtype=float)
    a = np.abs(r - t)
    b = r + t
    poly = _kernel_poly(d, a, b)
    total = np.zeros_like(t)
    for pc in profile.pieces:
        lo = np.maximum(a, float(pc.lo))
        hi = np.minimum(b, float(pc.hi))
        live = hi > lo
        if not live.any():
            continue
        acc = np.zeros_like(t)
        for k, c in enumerate(poly):
            c = np.broadcast_to(c, t.shape)
            acc[live] += c[live] * _power_integral(k + pc.a_pow, lo[live],
                                                   hi[live])
        total += pc.coeff * acc
    return total / (4.0 * r * t) ** (d - 2)


# the constant 1 on a support wider than any kernel support used here
_ONE = SimpleNamespace(pieces=(SimpleNamespace(
    lo=Fraction(0), hi=Fraction(2 ** 40), coeff=1.0, a_pow=0.0, b_pow=0.0),))


def _norm_const(d: int) -> float:
    """Reciprocal kernel mass, so that the mean of the constant 1 is 1."""
    return 1.0 / float(_raw_mean(d, _ONE, 1.0, np.array([1.0]))[0])


def spherical_mean_exact(d: int, profile, r, t):
    """A_t f(r) for odd d and pure power pieces, vectorized over t."""
    if not closed_form_applies(d, profile):
        raise ValueError("closed form needs odd d and pure power pieces")
    return _norm_const(d) * _raw_mean(d, profile, float(r), t)


def check_maximal_value(d: int, profile, r, grid_points, result,
                        sup_bound: float) -> str | None:
    """0 <= value <= ess sup |f| always; for odd d with power pieces, the
    value must equal the closed form at the reported dilation and reach the
    closed-form maximum over the grid."""
    value, t_star = result.value, result.t
    if not (math.isfinite(value) and value >= 0.0):
        return f"maximal value {value!r} is not a finite nonnegative number"
    if value > sup_bound + tolerance(sup_bound):
        return f"maximal value {value:.12g} exceeds ess sup {sup_bound:.12g}"
    if not closed_form_applies(d, profile):
        return None
    at_star = abs(float(spherical_mean_exact(d, profile, r, [t_star])[0]))
    if abs(value - at_star) > tolerance(at_star):
        return (f"value {value:.15g} at t={t_star:.15g} differs from the "
                f"closed form {at_star:.15g}")
    ts = np.array([float(p) for p in grid_points])
    grid_max = float(np.max(np.abs(spherical_mean_exact(d, profile, r, ts))))
    if value < grid_max - tolerance(grid_max):
        return (f"value {value:.15g} is below the closed-form grid maximum "
                f"{grid_max:.15g}")
    return None


def check_cantor_counts(alpha: Fraction, depth: int, counts) -> str | None:
    """A middle Cantor set of the given depth needs exactly 2^k intervals
    of length ((1 - alpha)/2)^k for every k <= depth; counts[k] is that
    covering number."""
    for k, n in enumerate(counts):
        if n != 2 ** k:
            return (f"cantor(alpha={alpha}, depth={depth}) covering number "
                    f"{n} at scale ((1-alpha)/2)^{k}, expected {2 ** k}")
    return None


def check_sandwich(n: int, covering: int, binary: int,
                   neighborhood: Fraction) -> str | None:
    """N <= Nt <= 3N between the covering number at 2^-n and the number of
    binary cells of size 2^-n, and the neighborhood measure bracketed by
    2^(-n-2) N and 2^(3-n) N."""
    if not covering <= binary <= 3 * covering:
        return f"binary count {binary} outside [N, 3N] with N = {covering} at 2^-{n}"
    cell = Fraction(1, 2 ** n)
    if not cell / 4 * covering <= neighborhood <= cell * 8 * covering:
        return (f"neighborhood measure {neighborhood} outside the sandwich "
                f"for N = {covering} at 2^-{n}")
    return None


def artifacts(out: Path) -> dict[str, bytes]:
    """Every file under out, keyed by relative path, with the manifest's
    timestamp line (and any report row quoting one) removed."""
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines = path.read_bytes().splitlines(keepends=True)
        kept = b"".join(ln for ln in lines if b"generated_at" not in ln)
        found[str(path.relative_to(out))] = kept
    return found


def compare_artifacts(first: Path, second: Path) -> str | None:
    a, b = artifacts(first), artifacts(second)
    if a.keys() != b.keys():
        return f"artifact sets differ: {sorted(a)} vs {sorted(b)}"
    for name in a:
        if a[name] != b[name]:
            return f"artifact {name} differs between reruns"
    return None
