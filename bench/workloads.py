"""The benchmark's four workloads, generated from a seed.

A workload hands out operations in decks. A deck has a fixed composition
(grid sizes, dimensions, profile and set kinds, subcommands) and the seed
draws every free parameter: endpoints, coefficients, radii, removal ratios.
Fixing the composition keeps percentiles comparable between seeds; drawing
the parameters keeps each deck's inputs fresh. The library only ever sees
the sets, profiles, grids and configs built here.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import sphmax.cli
from sphmax import (DilationGrid, DivergentNormError, arithmetic_progression,
                    binary_covering_number, circular_components,
                    covering_number, decomposition_components,
                    estimate_dimensions, finite_points, from_intervals,
                    full_interval, geometric_sequence, indicator, lp_norm,
                    maximal_value, middle_cantor, neighborhood_measure,
                    power_profile, power_sequence,
                    profile_expression, union_of)

import oracles

# input properties later claims may depend on; the run reports each share
PROPERTIES = ("odd_d_pure_power", "grid_gt_1024", "log_pieces",
              "repeated_set")


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], str | None]
    label: str                  # the inputs, printed if the op fails
    set_key: str                # identifies the dilation set / config
    props: frozenset = frozenset()
    bytes_written: Callable[[], int] | None = None


class Gen:
    """The seeded source of every input. Each (slot, parameter) pair is
    Latin-hypercube sampled across the decks of a run: deck k draws from
    stratum perm[k % strata] of equal strata of [0, 1), jittered inside it,
    with a fresh seeded permutation every `strata` decks. The decks of one
    run thus cover every parameter's range evenly whatever the seed, which
    keeps run-to-run spread down without fixing the inputs."""

    def __init__(self, rng: random.Random, strata: int):
        self.rng = rng
        self.strata = strata
        self.decks = 0
        self._perms: dict = {}

    def next_deck(self) -> int:
        self.decks += 1
        return self.decks - 1

    def unit(self, key, index: int, strata: int) -> float:
        cycle, pos = divmod(index, strata)
        perm = self._perms.get((key, cycle))
        if perm is None:
            perm = self._perms[key, cycle] = list(range(strata))
            self.rng.shuffle(perm)
        return (perm[pos] + self.rng.random()) / strata

    def sampler(self, slot, index: int, strata: int | None = None):
        """Draws for the index-th instance of a slot; by default a slot
        occurs once per deck and its index is the deck number."""
        return Sampler(self, slot, index, strata or self.strata)


class Sampler:
    """The draws of random.Random that the generators use; the n-th draw
    for a slot is that slot's n-th stratified parameter."""

    def __init__(self, gen: Gen, slot, index: int, strata: int):
        self.gen, self.slot, self.index, self.strata = gen, slot, index, strata
        self.n = 0

    def random(self) -> float:
        self.n += 1
        return self.gen.unit((self.slot, self.n), self.index, self.strata)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def randint(self, a: int, b: int) -> int:
        return a + min(b - a, int(self.random() * (b - a + 1)))

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def sample(self, population, k: int) -> list:
        pool = list(population)
        return [pool.pop(self.randint(0, len(pool) - 1)) for _ in range(k)]


class Workload:
    """What the runner needs from a workload: deck(), warmup(), and the
    attributes below, which subclasses set."""

    name: str
    layers: tuple[str, ...]     # layers a traced run must reach
    deck_size: int              # operations per deck
    deck_seconds: float         # nominal, on the 2-CPU reference machine
    cycle = 1                   # a run stops only after whole cycles of decks
    trace_decks: int
    replayable = True           # may a traced run replay an untraced deck

    def end_deck(self) -> None:
        pass

    def close(self) -> None:
        pass


def _sup_bound(f, d: int) -> float:
    try:
        return lp_norm(f, math.inf, d)
    except DivergentNormError:
        return math.inf


def _profile_props(d: int, f) -> set:
    props = set()
    if oracles.closed_form_applies(d, f):
        props.add("odd_d_pure_power")
    if any(pc.b_pow != 0.0 for pc in f.pieces):
        props.add("log_pieces")
    return props


def _maxval_props(d: int, f, grid) -> frozenset:
    props = _profile_props(d, f)
    if len(grid.points) > 1024:
        props.add("grid_gt_1024")
    return frozenset(props)


def _maxval_check(d: int, f, r: float, grid):
    bound = _sup_bound(f, d)

    def check(result):
        return oracles.check_maximal_value(d, f, r, grid.points, result,
                                           bound)
    return check


def _components_ok(comps: dict) -> str | None:
    for key, v in comps.items():
        if not (math.isfinite(v) and v >= 0.0):
            return f"component {key} = {v!r} is not finite and nonnegative"
    return None


# ---------------------------------------------------------------------------
# maxval-sweep: one maximal_value call per op over a DilationGrid


def _rand_alpha(rng, lo: F, hi: F) -> F:
    """A removal ratio p/q in [lo, hi] with q <= 40."""
    q = rng.randint(5, 40)
    return F(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


def _profile(rng: random.Random, kind: str):
    def chi():
        lo, hi = sorted(rng.sample(range(1, 64), 2))
        return indicator(F(lo, 16), F(hi, 16))

    def power():
        a_pow = rng.choice([-1.0, -0.5, 0.5, 1.0, 2.0])
        lo = rng.randint(1 if a_pow == -1.0 else 0, 24)
        hi = rng.randint(lo + 1, 64)
        return power_profile(round(rng.uniform(0.2, 3.0), 3), a_pow, 0,
                             F(lo, 16), F(hi, 16))

    if kind == "chi":
        f = chi()
        if rng.random() < 0.5:
            # a second shell beyond the first
            lo = int(f.pieces[-1].hi * 16) + 1
            if lo < 63:
                f = f + indicator(F(lo, 16), F(rng.randint(lo + 1, 64), 16))
        return f
    if kind == "power":
        return power()
    if kind == "mixed":
        p = power()
        cut = int(p.pieces[-1].hi * 16)
        if cut < 63:
            return p + indicator(F(cut, 16), F(rng.randint(cut + 1, 64), 16))
        lo = int(p.pieces[0].lo * 16)
        return p + indicator(F(0), F(lo, 16)) if lo > 0 else p
    # log piece inside (0, 1): c s^a log(1/s)^b
    b_pow = rng.choice([1.0, 2.0, -1.0])
    a_pow = rng.choice([-1.0, -0.5, 0.0, 0.5])
    lo = rng.randint(1, 16)
    hi = rng.randint(lo + 4, 63 if b_pow < 0 else 64)
    f = power_profile(round(rng.uniform(0.2, 3.0), 3), a_pow, b_pow,
                      F(lo, 64), F(hi, 64))
    if rng.random() < 0.5:
        f = f + indicator(F(1), F(rng.randint(17, 48), 16))
    return f


def _straddle(rng, r: float, scale: int) -> tuple[F, F]:
    """Support endpoints, multiples of 1/scale, on either side of r."""
    lo = max(0, math.floor(scale * (r - rng.uniform(0.05, 1.2))))
    hi = math.ceil(scale * (r + rng.uniform(0.05, 1.2)))
    return F(lo, scale), F(max(hi, lo + 1), scale)


def _sweep_profile(rng: random.Random, kind: str, r: float):
    """A maxval-sweep profile whose support contains r. For t in [1, 2] and
    r > 1 every integration window [|r-t|, r+t] then meets the support, so
    no grid point is skipped and an operation's cost follows its grid size
    and profile kind rather than where the seed put the support."""
    def power(lo, hi):
        a_pow = rng.choice([-1.0, -0.5, 0.5, 1.0, 2.0])
        if a_pow == -1.0 and lo == 0:
            lo = F(1, 16)
        return power_profile(round(rng.uniform(0.2, 3.0), 3), a_pow, 0,
                             lo, hi)

    def shell(f):
        # a second shell beyond the first
        lo = f.pieces[-1].hi + F(rng.randint(0, 8), 16)
        return f + indicator(lo, lo + F(rng.randint(1, 16), 16))

    if kind == "log":
        # c s^a log(1/s)^b lives inside (0, 1); r in (1/2, 1) lies in it
        b_pow = rng.choice([1.0, 2.0, -1.0])
        a_pow = rng.choice([-1.0, -0.5, 0.0, 0.5])
        lo = F(rng.randint(1, 16), 64)
        hi = F(rng.randint(math.floor(64 * r) + 1, 63), 64)
        return power_profile(round(rng.uniform(0.2, 3.0), 3), a_pow, b_pow,
                             lo, hi)
    lo, hi = _straddle(rng, r, 16)
    if kind == "chi":
        f = indicator(lo, hi)
        return shell(f) if rng.random() < 0.5 else f
    if kind == "power":
        return power(lo, hi)
    return shell(power(lo, hi))     # mixed


def _grid(rng: random.Random, n: int, kind: str):
    if kind == "default":
        E = full_interval()
        return E, DilationGrid.from_set(E)
    if kind == "full":
        E = full_interval()
        return E, DilationGrid.from_set(E, F(1, n - 1))
    if kind == "sub":
        i = rng.randint(0, 32)
        j = rng.randint(i + 16, 64)
        E = from_intervals([(1 + F(i, 64), 1 + F(j, 64))])
        return E, DilationGrid.from_set(E, F(j - i, 64 * (n - 1)))
    # cantor: two grid points per component, 2^(depth+1) ~ n
    depth = max(1, round(math.log2(n)) - 1)
    alpha = _rand_alpha(rng, F(1, 4), F(1, 2))
    E = middle_cantor(alpha, depth)
    return E, DilationGrid.from_set(E, ((1 - alpha) / 2) ** depth)


# (target grid points, set kind, profile kind, d), heaviest first: the
# 4097-point default grid and one 2049-point grid (the top 5% of a deck),
# four 1025-point grids (the next 10%, so p90 falls in their middle), four
# of 513 points, eight each of 257, 129 and 65 points and six of 33. Sizes
# overlap in cost, so p50 never sits in a gap between two classes. Each d
# occurs ten times; odd d with pure power pieces (checked against the closed
# form) from 33 to 4097 points.
_SWEEP_DECK = (
    (4097, "default", "chi", 3),
    (2049, "full", "chi", 2),
    (1025, "full", "mixed", 3), (1025, "sub", "chi", 5),
    (1025, "full", "power", 2), (1025, "full", "power", 4),
    (513, "full", "power", 5), (513, "sub", "log", 4),
    (513, "cantor", "chi", 2), (513, "full", "mixed", 4),
    (257, "cantor", "log", 5), (257, "sub", "chi", 4),
    (257, "cantor", "power", 2), (257, "full", "mixed", 3),
    (257, "sub", "power", 5), (257, "cantor", "chi", 2),
    (257, "full", "chi", 4), (257, "sub", "mixed", 3),
    (129, "cantor", "power", 3), (129, "sub", "mixed", 2),
    (129, "full", "chi", 5), (129, "cantor", "log", 4),
    (129, "sub", "power", 4), (129, "full", "mixed", 5),
    (129, "cantor", "chi", 3), (129, "sub", "log", 2),
    (65, "cantor", "chi", 5), (65, "sub", "log", 4),
    (65, "full", "power", 3), (65, "sub", "chi", 2),
    (65, "cantor", "mixed", 4), (65, "full", "log", 5),
    (65, "sub", "power", 3), (65, "cantor", "power", 2),
    (33, "full", "mixed", 2), (33, "sub", "power", 4),
    (33, "full", "chi", 5), (33, "sub", "log", 3),
    (33, "cantor", "chi", 3), (33, "full", "power", 5),
)


class MaxvalSweep(Workload):
    """Dense-t sweeps: time is spherical_mean and integrate per grid point."""

    name = "maxval-sweep"
    layers = ("quadrature", "radial_operator")
    deck_size = len(_SWEEP_DECK)
    deck_seconds = 4.0
    trace_decks = 2

    def __init__(self, rng: random.Random, workdir: Path, decks: int):
        self.gen = Gen(rng, decks)

    def _op(self, rng, n, set_kind, prof_kind, d) -> Op:
        E, grid = _grid(rng, n, set_kind)
        r = round(rng.uniform(0.5, 0.95) if prof_kind == "log"
                  else rng.uniform(1.25, 3.0), 6)
        f = _sweep_profile(rng, prof_kind, r)
        label = (f"maximal_value(d={d}, f={profile_expression(f)}, r={r}, "
                 f"E={E}, {len(grid.points)} grid points, "
                 f"spacing {grid.refinement})")
        return Op(lambda: maximal_value(d, f, r, E, grid),
                  _maxval_check(d, f, r, grid), label,
                  f"{E}|{grid.refinement}", _maxval_props(d, f, grid))

    def deck(self) -> list[Op]:
        k = self.gen.next_deck()
        ops = [self._op(self.gen.sampler(i, k), *slot)
               for i, slot in enumerate(_SWEEP_DECK)]
        self.gen.rng.shuffle(ops)
        return ops

    def warmup(self) -> Op:
        return self._op(random.Random(0), 257, "full", "chi", 3)


# ---------------------------------------------------------------------------
# domination: one criterion-11 sample per op


def _criterion_profile(rng: random.Random):
    n = rng.randint(1, 2)
    cuts = sorted(rng.sample(range(1, 48), 2 * n))
    total = None
    for k in range(n):
        piece = power_profile(round(rng.uniform(0.2, 3.0), 6),
                              rng.choice([0.0, 0.0, -1.0, -0.5, 0.5, 1.0]),
                              0, F(cuts[2 * k], 8), F(cuts[2 * k + 1], 8))
        total = piece if total is None else total + piece
    return total


class Domination(Workload):
    """Many profiles, few dilations each: coarse Cantor grids for the
    decomposition suites and a 129-point full grid for the circular one."""

    name = "domination"
    layers = ("quadrature", "radial_operator")
    deck_size = 12
    deck_seconds = 0.3
    trace_decks = 6

    def __init__(self, rng: random.Random, workdir: Path, decks: int):
        self.gen = Gen(rng, decks)
        self.E3 = middle_cantor(F(1, 3), 4)
        self.g3 = DilationGrid.from_set(self.E3, F(1, 32))
        self.E2 = middle_cantor(F(1, 2), 3)
        self.g2 = DilationGrid.from_set(self.E2, F(1, 32))
        self.Efull = full_interval()
        self.gfull = DilationGrid.from_set(self.Efull, F(1, 128))

    def _suite(self, rng, d: int) -> Op:
        E, grid = (self.E3, self.g3) if d == 3 else (self.E2, self.g2)
        f = _criterion_profile(rng)
        r = round(rng.uniform(0.7, 4.2), 6)
        mv_check = _maxval_check(d, f, r, grid)

        def run():
            comps = decomposition_components(d, E, f, 2, r, grid=grid)
            return comps, maximal_value(d, f, r, E, grid)

        def check(result):
            return _components_ok(result[0]) or mv_check(result[1])

        label = (f"decomposition_components+maximal_value(d={d}, "
                 f"f={profile_expression(f)}, r={r}, E={E})")
        return Op(run, check, label, f"{E}|{grid.refinement}",
                  _maxval_props(d, f, grid))

    def _circular(self, rng) -> Op:
        lo = F(rng.randint(1, 16), 8)
        f = indicator(lo, lo + F(rng.randint(1, 8), 8))
        r = round(rng.uniform(0.55, 1.9), 6)
        grid = self.gfull
        mv_check = _maxval_check(2, f, r, grid)

        def run():
            return circular_components(f, r), \
                maximal_value(2, f, r, self.Efull, grid)

        def check(result):
            return _components_ok(result[0]) or mv_check(result[1])

        label = (f"circular_components+maximal_value(d=2, "
                 f"f={profile_expression(f)}, r={r}, E=interval)")
        return Op(run, check, label, f"interval|{grid.refinement}",
                  _maxval_props(2, f, grid))

    def deck(self) -> list[Op]:
        k = self.gen.next_deck()
        ops = []
        for i, kind in enumerate([3, 2, "circ"] * 4):
            rng = self.gen.sampler(i, k)
            ops.append(self._circular(rng) if kind == "circ"
                       else self._suite(rng, kind))
        self.gen.rng.shuffle(ops)
        return ops

    def warmup(self) -> Op:
        return self._suite(random.Random(0), 3)


# ---------------------------------------------------------------------------
# covering: exact Fraction covering tables, no quadrature

_DYADIC_TABLE = 8
_CANTOR_TABLE = 8


def _dyadic_tables(E):
    rows = []
    for n in range(_DYADIC_TABLE + 1):
        rows.append((n, covering_number(E, F(1, 2 ** n)),
                     binary_covering_number(E, -n),
                     neighborhood_measure(E, n)))
    return rows


def _check_tables(rows) -> str | None:
    prev = 0
    for n, cov, binary, nbhd in rows:
        if cov < prev:
            return f"covering number fell from {prev} to {cov} at 2^-{n}"
        prev = cov
        bad = oracles.check_sandwich(n, cov, binary, nbhd)
        if bad:
            return bad
    return None


def _check_report(rep, scales) -> str | None:
    if [d for d, _ in rep.covering_table] != list(scales):
        return "covering table scales differ from the requested ones"
    vals = [rep.minkowski_estimate, rep.quasi_assouad_estimate,
            rep.assouad_estimate, *(v for _, v in rep.spectrum)]
    if not all(math.isfinite(v) for v in vals):
        return f"non-finite dimension estimate in {vals}"
    if rep.quasi_assouad_estimate > rep.assouad_estimate + 1e-12:
        return "quasi-Assouad estimate exceeds the Assouad estimate"
    return None


def _finest_feature(E) -> F:
    """The smallest gap or positive component length of E."""
    ivs = E.intervals
    return min([c - b for (_, b), (c, _) in zip(ivs, ivs[1:])]
               + [b - a for a, b in ivs if b > a])


# Every five decks: 100 operations as (kind, cantor depth, count), heaviest
# first. Depths 12 to 10 are the top 5% and depth 9 the next 10%, so p90
# falls in the middle of the depth-9 class; p50 falls among the point sets
# (the lower 75%). Neither sits on a boundary between two costs.
_COVER_PLAN = (
    ("cantor", 12, 1), ("cantor", 11, 1), ("cantor", 10, 3),
    ("cantor", 9, 10), ("cantor", 8, 10), ("geometric", 0, 19),
    ("powerseq", 0, 19), ("progression", 0, 18), ("union", 0, 19),
)
_COVER_DECKS = 5


class Covering(Workload):
    """Fresh sets per op so the library's covering cache cannot turn the
    workload into cache hits; predicts no change from quadrature work."""

    name = "covering"
    layers = ("fractal_set",)
    deck_size = sum(n for *_, n in _COVER_PLAN) // _COVER_DECKS
    deck_seconds = 2.5
    cycle = _COVER_DECKS        # the plan is dealt over this many decks
    trace_decks = _COVER_DECKS
    replayable = False      # a replayed deck would hit the covering cache

    def __init__(self, rng: random.Random, workdir: Path, decks: int):
        self.gen = Gen(rng, decks)
        # deal the plan round-robin so every deck mixes light and heavy
        plan = [(kind, depth) for kind, depth, n in _COVER_PLAN
                for _ in range(n)]
        self.plan = [plan[j::_COVER_DECKS] for j in range(_COVER_DECKS)]
        self.seen: dict = {}

    def _cantor(self, rng, depth: int) -> Op:
        alpha = _rand_alpha(rng, F(1, 5), F(3, 5))
        keep = (1 - alpha) / 2
        E = middle_cantor(alpha, depth)
        scales = [keep ** k for k in range(1, 5)]
        exact = math.log(2) / math.log(1 / float(keep))

        def run():
            rep = estimate_dimensions(E, scales)
            counts = [covering_number(E, keep ** k)
                      for k in range(min(depth, _CANTOR_TABLE) + 1)]
            return rep, counts, _dyadic_tables(E)

        def check(result):
            rep, counts, rows = result
            bad = (_check_report(rep, scales)
                   or oracles.check_cantor_counts(alpha, depth, counts)
                   or _check_tables(rows))
            if bad:
                return bad
            if abs(rep.minkowski_estimate - exact) > 1e-9:
                return (f"Minkowski estimate {rep.minkowski_estimate!r} "
                        f"differs from log 2 / log(1/keep) = {exact!r}")
            return None

        return Op(run, check, f"cantor(alpha={alpha}, depth={depth})",
                  str(E))

    def _points(self, rng, kind: str) -> Op:
        cap = None
        if kind == "geometric":
            count = rng.randint(24, 96)
            E = geometric_sequence(F(rng.randint(9, 24), 8), count)
            cap, k_max = count + 1, rng.randint(5, 8)
        elif kind == "powerseq":
            count = rng.randint(24, 128)
            E = power_sequence(rng.randint(1, 3), count)
            cap, k_max = count + 1, rng.randint(5, 8)
        elif kind == "progression":
            q = 2 ** rng.randint(6, 9)
            i = rng.randint(0, q // 2)
            m = rng.randint(8, q - i + 1)
            E = arithmetic_progression(1 + F(i, q), F(1, q), m)
            cap, k_max = m, rng.randint(3, int(math.log2(q)))
        else:
            alpha = _rand_alpha(rng, F(1, 4), F(1, 2))
            parts = [middle_cantor(alpha, rng.randint(6, 7)),
                     finite_points([F(rng.randint(65, 127), 64)
                                    for _ in range(rng.randint(2, 6))])]
            if rng.random() < 0.5:
                parts.append(arithmetic_progression(
                    1 + F(rng.randint(0, 32), 64), F(1, 256),
                    rng.randint(4, 32)))
            E = union_of(*parts)
            k_max = 6
        # estimate_dimensions takes no scale below the set's finest feature
        k_max = min(k_max, math.floor(math.log2(1 / _finest_feature(E))))
        scales = [F(1, 2 ** k) for k in range(1, k_max + 1)]

        def run():
            return estimate_dimensions(E, scales), _dyadic_tables(E)

        def check(result):
            rep, rows = result
            bad = _check_report(rep, scales) or _check_tables(rows)
            if bad:
                return bad
            if cap is not None and any(row[1] > cap for row in rows):
                return f"covering number above the {cap} points of the set"
            if kind == "progression":
                for n, cov, _, _ in rows:
                    if F(1, 2 ** n) < E.intervals[1][0] - E.intervals[0][0] \
                            and cov != len(E.intervals):
                        return f"progression of {cap} points covered by {cov}"
            return None

        return Op(run, check, f"{E}", str(E))

    def _make(self, rng, kind, depth) -> Op:
        return self._cantor(rng, depth) if kind == "cantor" \
            else self._points(rng, kind)

    def deck(self) -> list[Op]:
        """The n-th set of a (kind, depth) in a pass is drawn from the n-th
        of `count` strata, so each pass covers every class evenly."""
        k = self.gen.next_deck()
        counts = {(kind, depth): n for kind, depth, n in _COVER_PLAN}
        ops = []
        for slot in self.plan[k % _COVER_DECKS]:
            index = self.seen.get(slot, 0)
            self.seen[slot] = index + 1
            ops.append(self._make(self.gen.sampler(slot, index, counts[slot]),
                                  *slot))
        self.gen.rng.shuffle(ops)
        return ops

    def warmup(self) -> Op:
        return self._cantor(random.Random(0), 8)


# ---------------------------------------------------------------------------
# cli-batch: in-process sphmax.cli.main on generated configs


def _call_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        # looked up at call time so a traced run sees the wrapped main
        rc = sphmax.cli.main(argv)
    return rc, out.getvalue()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _pairs(rng, k: int) -> str:
    choices = ["2:4", "3:4", "2:6", "3/2:3", "4:4", "2:3", "3:6"]
    return ", ".join(rng.sample(choices, k))


def _probe_config(rng, family: str) -> str:
    """A valid [set] + [probe] config for the family."""
    if family == "BallR":
        expr = rng.choice(["interval", "cantor(alpha=1/3, depth=4)",
                           "points(1, 3/2, 2)"])
        body = (f"family = BallR\nd = {rng.randint(2, 4)}\npq = {_pairs(rng, 2)}\n"
                f"scales = 2^-2..2^-{rng.randint(6, 8)}\n")
    elif family == "AnnulusDelta":
        t0 = 1 + F(rng.randint(0, 16), 16)
        other = 1 + F(rng.randint(0, 16), 16)
        expr = f"points({t0}, {other})"
        body = (f"family = AnnulusDelta\nd = {rng.randint(2, 3)}\n"
                f"pq = {_pairs(rng, 2)}\nscales = 2^-4..2^-{rng.randint(8, 10)}\n"
                f"t0 = {t0}\n")
    elif family == "SmallBallDelta":
        expr = f"cantor(alpha=1/3, depth={rng.randint(4, 6)})"
        body = (f"family = SmallBallDelta\nd = {rng.randint(2, 3)}\n"
                f"pq = {_pairs(rng, 1)}\nscales = 2^-2..2^-6\n"
                f"beta = {F(rng.randint(8, 12), 16)}\n")
    elif family == "SteinLog":
        d = rng.randint(2, 3)
        expr = rng.choice(["interval", "points(3/2)", "cantor(alpha=1/3, depth=3)"])
        body = (f"family = SteinLog\nd = {d}\npq = {F(d, d - 1)}:2\n"
                f"scales = 2^-4..2^-{rng.randint(7, 9)}\n")
    elif family == "EndpointLog":
        expr = f"cantor(alpha=1/2, depth={rng.randint(2, 3)})"
        body = (f"family = EndpointLog\nd = {rng.randint(2, 3)}\n"
                f"pq = {rng.randint(2, 4)}:{rng.randint(2, 4)}\n"
                f"scales = 2^-3..2^-{rng.randint(6, 7)}\n")
    elif family == "Lorentz2D":
        expr = "interval"
        body = (f"family = Lorentz2D\nd = 2\npq = {_pairs(rng, 2)}\n"
                f"scales = 2^-5..2^-7\n")
    else:  # LocalAnnulus
        lo = 1 + F(rng.randint(8, 48), 64)
        expr = f"progression(u={lo}, delta=1/128, m=16)"
        body = (f"family = LocalAnnulus\nd = 2\npq = {_pairs(rng, 1)}\n"
                f"scales = 2^-7..2^-{rng.randint(10, 12)}\n"
                f"u = {lo - F(1, 8)}\nwindow = {lo}, {lo + F(1, 8)}\n"
                f"beta = 0\ngamma = 1/2\ngamma_star = 1/2\n")
    return f"[set]\nexpression = {expr}\n\n[probe]\n{body}"


def _region_config(rng) -> str:
    beta = F(rng.randint(0, 16), 16)
    gamma = F(rng.randint(int(beta * 16), 16), 16)
    gamma_star = F(rng.randint(int(gamma * 16), 16), 16)
    text = (f"[region]\nd = {rng.randint(2, 4)}\nbeta = {beta}\n"
            f"gamma = {gamma}\ngamma_star = {gamma_star}\n")
    tri = ["yes", "no", "unknown"]
    text += f"minkowski_bounded = {rng.choice(tri)}\n"
    text += f"assouad_bounded = {rng.choice(tri)}\n"
    if gamma_star == gamma:
        text += f"regular = {rng.choice(tri)}\n"
    return text


def _dims_config(rng) -> str:
    alpha = rng.choice(["1/3", "1/2", "1/5", "2/5"])
    return (f"[set]\nexpression = cantor(alpha={alpha}, "
            f"depth={rng.randint(5, 6)})\n\n[dims]\nscales = 2^-2..2^-5\n")


_FAMILIES = ("BallR", "AnnulusDelta", "SmallBallDelta", "SteinLog",
             "EndpointLog", "Lorentz2D", "LocalAnnulus")


class CliBatch(Workload):
    """Every subcommand through cli.main. Each config runs twice, A then B;
    B must reproduce A's artifacts byte for byte. Multi-pair probes run B
    with --threads 2, so half their runs use the thread pool."""

    name = "cli-batch"
    layers = ("quadrature", "fractal_set", "radial_operator",
              "type_set_geometry", "norm_probe", "cli")
    deck_size = 2 * (len(_FAMILIES) + 5)
    deck_seconds = 0.9
    trace_decks = 4

    def __init__(self, rng: random.Random, workdir: Path, decks: int):
        self.gen = Gen(rng, decks)
        self.root = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.dirs = 0

    def _pair(self, base: Path, key: str, argv, cfg_text: str | None,
              b_flags=(), props=frozenset(), value_check=None) -> list[Op]:
        cfg = None
        if cfg_text is not None:
            cfg = base / f"{key}.cfg"
            cfg.write_text(cfg_text)
        outs = [base / "runs" / key / side for side in "AB"]
        argvs = []
        for side, out in zip("AB", outs):
            full = list(argv)
            if cfg is not None:
                full += ["--config", str(cfg)]
            if argv[0] != "mean":
                full += ["--out", str(out)]
            if side == "B":
                full += list(b_flags)
            argvs.append(full)
        stdout = {}

        def check_for(side, out):
            def check(result):
                rc, text = result
                if rc != 0:
                    return f"exit code {rc}: {text.strip()[-300:]}"
                stdout[side] = text
                if value_check is not None:
                    bad = value_check(text)
                    if bad:
                        return bad
                if side == "A":
                    return None
                if argv[0] == "mean":
                    if stdout["A"] != text:
                        return f"stdout differs: {stdout['A']!r} vs {text!r}"
                    return None
                return oracles.compare_artifacts(outs[0], out)
            return check

        label_cfg = f" config:\n{cfg_text}" if cfg_text else ""
        ops = []
        for side, out, full in zip("AB", outs, argvs):
            ops.append(Op(
                (lambda full=full: _call_cli(full)), check_for(side, out),
                f"sphmax {' '.join(full)}{label_cfg}",
                cfg_text or " ".join(argv), props,
                (lambda out=out: _dir_bytes(out) if out.exists() else 0)))
        return ops

    def _report_pair(self, base: Path) -> list[Op]:
        runs = base / "runs"
        saved = {}

        def run():
            return _call_cli(["report", "--out", str(runs)])

        def check_for(side):
            def check(result):
                rc, text = result
                if rc != 0:
                    return f"exit code {rc}: {text.strip()[-300:]}"
                saved[side] = (runs / "report.csv").read_bytes()
                if side == "B" and saved["A"] != saved["B"]:
                    return "report.csv differs between reruns"
                return None
            return check

        def size():
            path = runs / "report.csv"
            return path.stat().st_size if path.exists() else 0

        return [Op(run, check_for(side), f"sphmax report --out {runs}",
                   f"report {runs}", frozenset(), size) for side in "AB"]

    def deck(self) -> list[Op]:
        k = self.gen.next_deck()
        base = self.root / f"deck{self.dirs}"
        self.dirs += 1
        (base / "runs").mkdir(parents=True)
        pairs = []
        for i, family in enumerate(_FAMILIES):
            text = _probe_config(self.gen.sampler(family, k), family)
            multi = "," in text.split("pq = ")[1].split("\n")[0]
            props = {"log_pieces"} if family in ("SteinLog", "EndpointLog") \
                else set()
            pairs.append(self._pair(
                base, f"probe{i}", ["probe"], text,
                ["--threads", "2"] if multi else [], frozenset(props)))
        pairs.append(self._pair(
            base, "region", ["region"],
            _region_config(self.gen.sampler("region", k))))
        pairs.append(self._pair(base, "dims", ["dims"],
                                _dims_config(self.gen.sampler("dims", k))))
        pairs.append(self._mean_pair(self.gen.sampler("mean", k), base))
        seed = self.gen.sampler("verify", k).randint(0, 999)
        pairs.append(self._pair(base, "verify", ["verify", "--seed", str(seed)],
                                None))
        self.gen.rng.shuffle(pairs)
        ops = [op for pair in pairs for op in pair]
        return ops + self._report_pair(base)

    def _mean_pair(self, rng, base: Path) -> list[Op]:
        d = rng.randint(2, 5)
        f = _profile(rng, rng.choice(["chi", "power", "mixed", "log"]))
        r = F(rng.randint(4, 24), 8)
        t = 1 + F(rng.randint(0, 16), 16)
        expr = profile_expression(f)

        def value_check(text):
            if not oracles.closed_form_applies(d, f):
                return None
            want = float(oracles.spherical_mean_exact(d, f, r, [float(t)])[0])
            got = float(text.strip())
            if abs(got - want) > 6e-7 + oracles.tolerance(want):
                return f"mean printed {got} but the closed form is {want:.9f}"
            return None

        return self._pair(base, "mean",
                          ["mean", str(d), expr, str(r), str(t)], None,
                          props=frozenset(_profile_props(d, f)),
                          value_check=value_check)

    def warmup(self) -> Op:
        base = self.root / "warmup"
        (base / "runs").mkdir(parents=True)
        text = "[region]\nd = 3\nbeta = 1/2\n"
        return self._pair(base, "region", ["region"], text)[0]

    def end_deck(self) -> None:
        shutil.rmtree(self.root / f"deck{self.dirs - 1}",
                      ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (MaxvalSweep, Domination, Covering,
                                       CliBatch)}
