import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from sphmax.errors import InsufficientDataError, ParameterError
from sphmax.fractal_set import from_intervals
from sphmax.quadrature import DEFAULT_QUAD, integrate
from sphmax.radial_operator import _kernel_factor, _radius


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


class MCEstimate(NamedTuple):
    value: float
    stderr: float


def sphere_average_mc(d: int, f, r, t, samples: int = 100_000,
                      rng=None) -> MCEstimate:
    """Monte Carlo spherical average for d = 2, 3, bypassing the kernel
    reduction entirely: draws points uniformly on the sphere and averages
    the profile at their distances from the origin."""
    if d not in (2, 3):
        raise ParameterError("the Monte Carlo cross-check supports d = 2 and 3")
    r = _radius(r)
    t = _radius(t)
    if samples < 2:
        raise InsufficientDataError("need at least two Monte Carlo samples")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if d == 2:
        u = np.cos(gen.uniform(0.0, 2.0 * math.pi, samples))
    else:
        u = gen.uniform(-1.0, 1.0, samples)
    s = np.sqrt(r * r + t * t - 2.0 * r * t * u)
    vals = f.values(s)
    return MCEstimate(float(vals.mean()),
                      float(vals.std(ddof=1) / math.sqrt(samples)))
