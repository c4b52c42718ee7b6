import random
from fractions import Fraction

from sphmax.fractal_set import from_intervals
from sphmax.quadrature import DEFAULT_QUAD, integrate
from sphmax.radial_operator import _kernel_factor


def random_fractal_set(rng: random.Random, max_components: int = 6,
                       allow_points: bool = True):
    """Random union of disjoint rational intervals (some degenerate) in [1, 2]."""
    q = rng.choice([64, 96, 128, 192, 256])
    n = rng.randint(1, max_components)
    cuts = sorted(rng.sample(range(q + 1), 2 * n))
    ivs = []
    for k in range(n):
        a, b = cuts[2 * k], cuts[2 * k + 1]
        if allow_points and rng.random() < 0.3:
            b = a
        ivs.append((1 + Fraction(a, q), 1 + Fraction(b, q)))
    return from_intervals(ivs)


def kernel_mass(d: int, r: float, t: float, quad=DEFAULT_QUAD) -> float:
    """Integral of the raw kernel over its support [|r - t|, r + t], by the
    public quadrature; its reciprocal is the normalization constant."""
    def g(s, dlo, dhi):
        return _kernel_factor(d, r, t, s, dlo, dhi)

    return integrate(g, abs(r - t), r + t, quad)
