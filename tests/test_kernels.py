"""The three integer kernels against the slow Fraction oracles.

``mat_mul`` is compared with a product summed entry by entry, ``rank_int``
and ``rre_int`` with Gauss-Jordan elimination in Fractions, on random
matrices of the shapes elimination treats differently: tall, wide, zero,
empty, of low rank, with repeated rows, and with entries up to 2^40.
"""

import random
from fractions import Fraction
from math import gcd

from eadjoint import _kernels
from oracles import fraction_rank, fraction_rref, naive_mat_mul


def random_entry(rng, bound):
    # a third of the entries are zero, so pivot searches skip rows
    return 0 if rng.random() < 1 / 3 else rng.randint(-bound, bound)


def int_matrices(seed, count=30):
    """(rows, ncols) for ``count`` matrices of each shape family."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        for m, n, bound in (
            (rng.randint(5, 8), rng.randint(1, 4), 40),  # tall
            (rng.randint(1, 4), rng.randint(5, 8), 40),  # wide
            (rng.randint(1, 6), rng.randint(1, 6), 2**40),  # large entries
        ):
            out.append(([[random_entry(rng, bound) for _ in range(n)]
                         for _ in range(m)], n))
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        out.append(([[0] * n for _ in range(m)], n))  # zero
        base = [[random_entry(rng, 9) for _ in range(n)] for _ in range(m)]
        repeated = base + [[rng.choice((1, -1, 3)) * x for x in rng.choice(base)]
                           for _ in range(rng.randint(1, 3))]
        rng.shuffle(repeated)
        out.append((repeated, n))  # duplicate rows and their multiples
        if rng.random() < 0.5:
            out.append(([], rng.randint(0, 5)))  # no rows
        else:
            out.append(([[] for _ in range(rng.randint(1, 5))], 0))  # no columns
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        base = [[random_entry(rng, 40) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        out.append(([[sum(rng.randint(-3, 3) * b[j] for b in base) for j in range(n)]
                     for _ in range(m)], n))  # rank at most 3
    return out


def mixed_entries(rng, count):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.4
            else random_entry(rng, 9) for _ in range(count)]


class TestParity:
    """Each kernel agrees with its oracle on random inputs."""

    def test_mat_mul_int_and_fraction(self):
        rng = random.Random(1)
        for _ in range(80):
            m, n, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a, b = mixed_entries(rng, m * n), mixed_entries(rng, n * p)
            assert _kernels.mat_mul(a, m, n, b, p) == naive_mat_mul(a, m, n, b, p)

    def test_rank_int(self):
        for rows, ncols in int_matrices(2):
            assert _kernels.rank_int(rows, ncols) == fraction_rank(rows, ncols)

    def test_rre_int_matches_oracle_rref(self):
        # dividing each pivot row by its pivot gives the rational RREF
        for rows, ncols in int_matrices(3):
            rank, pivots, out = _kernels.rre_int(rows, ncols)
            want_pivots, want_rows = fraction_rref(rows, ncols)
            assert (rank, pivots) == (len(want_pivots), want_pivots)
            for row, c, want in zip(out, pivots, want_rows):
                assert [Fraction(x, row[c]) for x in row] == want

    def test_rre_int_contract(self):
        # primitive integer rows with a positive pivot, then zero rows
        for rows, ncols in int_matrices(4):
            rank, pivots, out = _kernels.rre_int(rows, ncols)
            assert len(out) == len(rows)
            assert all(len(row) == ncols for row in out)
            for row, c in zip(out, pivots):
                assert all(isinstance(x, int) for x in row)
                assert row[c] > 0
                assert gcd(*row) == 1
            assert all(not any(row) for row in out[rank:])

    def test_inputs_not_mutated(self):
        for rows, ncols in int_matrices(5, count=5):
            snapshot = [list(r) for r in rows]
            _kernels.rre_int(rows, ncols)
            _kernels.rank_int(rows, ncols)
            assert rows == snapshot
