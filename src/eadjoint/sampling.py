"""Seeded random generators for points, group elements and fiber data.

Every sampler takes an explicit ``random.Random`` (or a seed) and draws
integer entries uniformly from [-bound, bound] with the default bound 10, so
all randomized suites are deterministic given their seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .invariants import Point, _act_on_cleared, _integer_rescaled_point
from .linalg import RationalMatrix, _inverse_of_int, is_regular_semisimple

DEFAULT_BOUND = 10


def as_rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_matrix(rng, rows, cols, bound=DEFAULT_BOUND) -> RationalMatrix:
    return RationalMatrix(
        rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)],
        validate=False,
    )


def random_nonzero_int(rng, bound=DEFAULT_BOUND) -> int:
    v = rng.randint(1, bound)
    return -v if rng.randint(0, 1) else v


def random_full_support_matrix(rng, rows, cols, bound=DEFAULT_BOUND) -> RationalMatrix:
    return RationalMatrix(
        rows, cols, [random_nonzero_int(rng, bound) for _ in range(rows * cols)],
        validate=False,
    )


def random_invertible(rng, n, bound=DEFAULT_BOUND) -> RationalMatrix:
    while True:
        m = random_matrix(rng, n, n, bound)
        if m.rank() == n:
            return m


def random_move(rng, w: Point, bound=DEFAULT_BOUND) -> Point:
    """g.w for g drawn as ``random_invertible`` draws it, with the same rng
    calls: one ``_inverse_of_int`` both rejects a singular draw and gives
    H = d g^-1, and ``_act_on_cleared`` moves the point."""
    n = w.n
    while True:
        g = list(random_matrix(rng, n, n, bound).entries)
        inverse = _inverse_of_int(g, n)
        if inverse is not None:
            return _act_on_cleared(g, *inverse, 1, *_integer_rescaled_point(w))


def random_point(rng, n, p, q, r=1, bound=DEFAULT_BOUND) -> Point:
    return Point(
        random_matrix(rng, n, p, bound),
        random_matrix(rng, q, n, bound),
        tuple(random_matrix(rng, n, n, bound) for _ in range(r)),
    )


def random_regular_semisimple(rng, n, bound=DEFAULT_BOUND) -> RationalMatrix:
    """Random integer matrix with n distinct eigenvalues."""
    while True:
        a = random_matrix(rng, n, n, bound)
        if is_regular_semisimple(a):
            return a


def random_distinct_rationals(rng, n, bound=DEFAULT_BOUND):
    """n pairwise distinct rationals with denominators 1, 2 or 3."""
    seen = set()
    out = []
    while len(out) < n:
        v = Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def random_rank_one_factors(rng, q, p, bound=DEFAULT_BOUND):
    """A pair (c, b) with c of shape q x 1 and b of shape 1 x p.

    The pair is occasionally (0, 0), producing the rank zero degeneration
    of the fiber data.
    """
    if rng.random() < 0.15:
        return RationalMatrix.zeros(q, 1), RationalMatrix.zeros(1, p)
    return (
        random_full_support_matrix(rng, q, 1, bound),
        random_full_support_matrix(rng, 1, p, bound),
    )
