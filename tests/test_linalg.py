import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eadjoint import _kernels as _k
from eadjoint.errors import DegenerateSpectrumError, ShapeError, SingularMatrixError
from eadjoint.invariants import Point, _integer_rescaled_point, group_action
from eadjoint.linalg import (
    MAX_RATIONAL_DIGITS,
    PRIME,
    PolynomialCoeffs,
    RationalMatrix,
    Subspace,
    char_poly,
    _invariant_basis,
    _kernel_span,
    _kernel_vectors,
    _krylov_left,
    _power_traces,
    _span,
    kernel_subspace,
    rank_mod_prime,
    rank_one_pivot,
    rational_from_str,
    rational_to_str,
    trace_product,
    vandermonde_solve,
)
from oracles import (
    charpoly_from_power_sums,
    contains,
    controllability_blocks,
    evaluate_polynomial,
    fraction_rank,
    matrix_powers,
    observability_blocks,
    polynomial_derivative,
    rref_inverse,
    trace,
)

RM = RationalMatrix.from_rows


def random_matrix(rng, rows, cols, bound=10):
    return RationalMatrix(
        rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)]
    )


def random_invertible(rng, n, bound=10):
    while True:
        m = random_matrix(rng, n, n, bound)
        if m.rank() == n:
            return m


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(
        st.lists(small_rationals, min_size=rows * cols, max_size=rows * cols)
    )
    return RationalMatrix(rows, cols, entries)


@st.composite
def matrix_pairs(draw, max_dim=4):
    """Two matrices sharing a row count (spanning sets in one ambient space)."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    out = []
    for _ in range(2):
        cols = draw(st.integers(min_value=1, max_value=max_dim))
        entries = draw(
            st.lists(small_rationals, min_size=rows * cols, max_size=rows * cols)
        )
        out.append(RationalMatrix(rows, cols, entries))
    return tuple(out)


# ---------------------------------------------------------------------------
# RationalMatrix basics


class TestMatrixBasics:
    def test_entries_are_canonical(self):
        m = RationalMatrix(1, 3, [Fraction(4, 2), Fraction(1, 3), 7])
        assert m.entries == (2, Fraction(1, 3), 7)
        assert isinstance(m.entries[0], int)

    def test_arithmetic_stores_integral_values_as_int(self):
        # scale, +, - and @ build their results unvalidated; an integral
        # value must still be stored as int, a proper fraction as Fraction
        c, b = RM([[2], [4]]), RM([[3, Fraction(1, 3)]])
        half = RM([[Fraction(1, 2), Fraction(1, 3)]])
        cases = [
            ((c @ b).scale(Fraction(3, 2)), [9, 1, 18, 2]),
            (half + half, [1, Fraction(2, 3)]),
            (half - RM([[Fraction(-1, 2), 0]]), [1, Fraction(1, 3)]),
            (half @ RM([[2], [3]]), [2]),
            (c @ b, [6, Fraction(2, 3), 12, Fraction(4, 3)]),
            (half.scale(2) * 3, [3, 2]),
        ]
        for m, want in cases:
            assert list(m.entries) == want
            assert [type(x) for x in m.entries] == [
                int if Fraction(x).denominator == 1 else Fraction for x in want]

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            RationalMatrix(2, 2, [1, 2, 3])
        with pytest.raises(ShapeError):
            RM([[1, 2], [3]])

    def test_matmul_and_trace(self):
        a = RM([[1, 2], [3, 4]])
        b = RM([[0, 1], [1, 0]])
        assert (a @ b) == RM([[2, 1], [4, 3]])
        assert trace(a) == 5
        with pytest.raises(ShapeError):
            a @ RM([[1, 2, 3]])

    def test_empty_shapes(self):
        z = RationalMatrix.zeros(3, 0)
        assert z.shape == (3, 0)
        assert (z.transpose() @ z).shape == (0, 0)

    def test_inverse_roundtrip(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            g = random_invertible(rng, n)
            assert g @ g.inverse() == RationalMatrix.identity(n)

    def test_singular_inverse_rejected(self):
        with pytest.raises(SingularMatrixError):
            RM([[1, 2], [2, 4]]).inverse()

    def test_inverse_matches_rref_inverse(self):
        # the integer [G | I] elimination against the rational RREF, on
        # integer and rational matrices; integral entries stay int
        rng = random.Random(71)
        for trial in range(200):
            n = rng.randint(1, 6)
            e = [rng.randint(-9, 9) for _ in range(n * n)]
            for _ in range(trial % 3 * n):
                e[rng.randrange(n * n)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            m = RationalMatrix(n, n, e)
            if m.rank() < n:
                with pytest.raises(SingularMatrixError):
                    m.inverse()
                with pytest.raises(SingularMatrixError):
                    rref_inverse(m)
                continue
            inv = m.inverse()
            assert inv == rref_inverse(m)
            assert all(type(x) is int for x in inv.entries if x == int(x))

    def test_inverse_of_rank_deficient_rational_rejected(self):
        for m in (
            RM([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]),
            RM([[1, 0, 1], [0, 1, 1], [1, 1, 2]]),
            RationalMatrix.zeros(3, 3),
        ):
            with pytest.raises(SingularMatrixError):
                m.inverse()
        with pytest.raises(ShapeError):
            RationalMatrix.zeros(2, 3).inverse()

    def test_det_known_values(self):
        assert RM([[1, 2], [3, 4]]).det() == -2
        assert RM([[2, 3], [3, 5]]).det() == 1
        assert RationalMatrix.identity(4).det() == 1
        assert RM([[1, 2], [2, 4]]).det() == 0
        assert RM([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]).det() == Fraction(1, 6)
        assert RationalMatrix.zeros(0, 0).det() == 1
        with pytest.raises(ShapeError):
            RationalMatrix.zeros(2, 3).det()

    def test_det_matches_cofactor_expansion(self):
        # independent cofactor-expansion check on random 3x3 integer
        # matrices and one random 4x4 matrix of Fractions
        rng = random.Random(11)

        def cof(m):
            if m.rows == 1:
                return m.entry(0, 0)
            total = 0
            for j in range(m.cols):
                sub = RM(
                    [
                        [m.entry(i, jj) for jj in range(m.cols) if jj != j]
                        for i in range(1, m.rows)
                    ]
                )
                term = m.entry(0, j) * cof(sub)
                total += term if j % 2 == 0 else -term
            return total

        for _ in range(25):
            m = random_matrix(rng, 3, 3, 6)
            assert m.det() == cof(m)
        m = RM([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
                for _ in range(4)])
        assert m.det() == cof(m)

    def test_serialization_roundtrip(self):
        m = RM([[Fraction(-3, 7), 5], [0, Fraction(1, 2)]])
        lists = m.to_lists()
        assert lists == [["-3/7", "5"], ["0", "1/2"]]
        assert RationalMatrix.from_lists(lists) == m

    def test_rational_strings(self):
        assert rational_to_str(Fraction(-3, 7)) == "-3/7"
        assert rational_to_str(Fraction(10, 2)) == "5"
        assert rational_from_str("-3/7") == Fraction(-3, 7)
        assert rational_from_str("5") == 5
        with pytest.raises(ValueError):
            rational_from_str("1.5x")
        with pytest.raises(ValueError):
            rational_from_str("1/0")

    def test_rational_strings_beyond_the_int_to_str_limit(self):
        # Decimal prints an int without the interpreter's int-to-str limit
        rng = random.Random(3)
        for digits in (4300, 4301, 9000, 30000):
            x = rng.randrange(10 ** (digits - 1), 10**digits)
            for v in (x, -x, 10**digits, -(10**digits) + 1):
                assert rational_to_str(v) == str(Decimal(v))
            y = 10 ** (digits + 7) + 3
            assert rational_to_str(Fraction(-x, y)) == f"{Decimal(-x)}/{Decimal(y)}"

    def test_rational_strings_strict(self):
        # only [+-]digits(/digits), surrounding whitespace ignored
        assert rational_from_str(" 1/2\n") == Fraction(1, 2)
        assert rational_from_str("+3") == 3
        assert rational_from_str("-0") == 0
        assert rational_from_str("4/2") == 2 and isinstance(rational_from_str("4/2"), int)
        assert rational_from_str("-6/4") == Fraction(-3, 2)
        assert rational_from_str("9" * MAX_RATIONAL_DIGITS) == int("9" * MAX_RATIONAL_DIGITS)
        rejected = [
            "2.5", ".5", "3e2", "1e100000000", "1_000", "0x10", "inf", "nan", "",
            " ", "1 /2", "1/ 2", "1/2/3", "--1", "1/-2", "+", "/2", "1/",
            "\u0663", "1/\u0663", "9" * (MAX_RATIONAL_DIGITS + 1),
            "1/" + "9" * (MAX_RATIONAL_DIGITS + 1),
        ]
        for s in rejected:
            with pytest.raises(ValueError):
                rational_from_str(s)
        with pytest.raises(ValueError):
            rational_from_str(3)


# ---------------------------------------------------------------------------
# Subspace.from_spanning_columns / kernel_subspace


class TestRrefDecompose:
    def test_zero_matrix(self):
        m = RationalMatrix.zeros(3, 2)
        assert Subspace.from_spanning_columns(m) == Subspace.zero(3)
        assert kernel_subspace(m) == Subspace.full(2)

    def test_identity(self):
        m = RationalMatrix.identity(3)
        assert Subspace.from_spanning_columns(m) == Subspace.full(3)
        assert kernel_subspace(m) == Subspace.zero(3)

    def test_rank_one_example(self):
        # hand row reduction: second row is twice the first
        m = RM([[1, 2, 3], [2, 4, 6]])
        assert Subspace.from_spanning_columns(m).dim == 1
        assert kernel_subspace(m).dim == 2

    def test_kernel_annihilates(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 6)
            col, ker = Subspace.from_spanning_columns(m), kernel_subspace(m)
            assert col.dim + ker.dim == m.cols
            if ker.dim:
                assert (m @ ker.basis).is_zero()
            # every column of m lies in the column space
            for j in range(m.cols):
                assert col.contains_vector(m.col_list(j))

    @given(matrices())
    @settings(deadline=None, max_examples=60)
    def test_rank_nullity(self, m):
        assert Subspace.from_spanning_columns(m).dim + kernel_subspace(m).dim == m.cols


# ---------------------------------------------------------------------------
# char_poly


class TestCharPoly:
    def test_diag_example(self):
        # expand (x-1)(x-2) by hand: x^2 - 3x + 2
        p = char_poly(RationalMatrix.diagonal([1, 2]))
        assert p.coeffs == (1, -3, 2)

    def test_zero_matrix(self):
        for n in (1, 2, 3, 5):
            p = char_poly(RationalMatrix.zeros(n, n))
            assert p.coeffs == (1,) + (0,) * n

    def test_principal_nilpotent(self):
        for n in (2, 3, 4):
            e = RationalMatrix(
                n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)]
            )
            assert char_poly(e).is_power_of_x()

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            char_poly(RationalMatrix.zeros(2, 3))

    def test_cayley_hamilton(self):
        rng = random.Random(3)
        for n in (1, 2, 3, 4):
            a = random_matrix(rng, n, n, 8)
            assert evaluate_polynomial(char_poly(a), a).is_zero()

    def test_conjugation_invariance(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            a = random_matrix(rng, n, n, 6)
            g = random_invertible(rng, n, 6)
            assert char_poly(g @ a @ g.inverse()).coeffs == char_poly(a).coeffs

    def test_matches_newton_identities(self):
        # power-sum route: trace(A^k) -> elementary symmetric -> coefficients
        rng = random.Random(21)
        for n in (1, 2, 3, 4, 5):
            a = random_matrix(rng, n, n, 6)
            powers = matrix_powers(a, n)
            psums = [trace(powers[k]) for k in range(1, n + 1)]
            assert charpoly_from_power_sums(psums).coeffs == char_poly(a).coeffs

    def test_trace_powers_satisfy_recursion(self):
        # trace(A^(n+m)) is the linear combination of lower traces dictated
        # by the characteristic polynomial
        rng = random.Random(13)
        for n in (2, 3, 4):
            a = random_matrix(rng, n, n, 5)
            coeffs = char_poly(a).coeffs
            powers = matrix_powers(a, 2 * n + 1)
            traces = [trace(powers[k]) for k in range(0, 2 * n + 2)]
            for m in range(n, 2 * n + 2):
                predicted = -sum(
                    coeffs[i] * traces[m - i] for i in range(1, n + 1)
                )
                assert traces[m] == predicted


# ---------------------------------------------------------------------------
# vandermonde_solve


class TestVandermonde:
    def test_hand_inverted_example(self):
        # invert [[1,1],[1,2]] by hand: X1 = [1], X2 = [1]
        xs = vandermonde_solve([1, 2], [RM([[2]]), RM([[3]])])
        assert xs == [RM([[1]]), RM([[1]])]

    def test_zero_rhs(self):
        xs = vandermonde_solve(
            [Fraction(1, 3), -2, 5], [RationalMatrix.zeros(2, 2)] * 3
        )
        assert all(x.is_zero() for x in xs)

    def test_single_point(self):
        m = RM([[1, 2], [3, 4]])
        assert vandermonde_solve([5], [m]) == [m]

    def test_repeated_nodes_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            vandermonde_solve([1, Fraction(2, 2)], [RM([[1]]), RM([[2]])])

    def test_remultiplication_reproduces_rhs(self):
        rng = random.Random(17)
        for n in (1, 2, 3, 4):
            ts = rng.sample(range(-10, 11), n)
            rhs = [random_matrix(rng, 2, 3, 7) for _ in range(n)]
            xs = vandermonde_solve(ts, rhs)
            for k in range(n):
                total = RationalMatrix.zeros(2, 3)
                for r in range(n):
                    total = total + xs[r].scale(ts[r] ** k)
                assert total == rhs[k]


class TestRankOnePivot:
    def test_decides_rank_at_most_one(self):
        # against the Fraction rank on sums of 0..3 rank-one matrices with
        # mixed denominators, every shape up to 4 x 4: the pivot is the first
        # nonzero entry of the first nonzero column of the cleared matrix
        rng = random.Random(19)
        ranks = set()
        for _ in range(300):
            q, p = rng.randint(1, 4), rng.randint(1, 4)
            x = RationalMatrix.zeros(q, p)
            for _ in range(rng.randint(0, 3)):
                c, b = random_matrix(rng, q, 1, 3), random_matrix(rng, 1, p, 3)
                x = x + (c @ b).scale(Fraction(1, rng.randint(1, 4)))
            rank = fraction_rank(x.to_rows(), p)
            ranks.add(rank)
            found = rank_one_pivot(x)
            assert (found is None) == (rank > 1), x
            if found is not None:
                e, i0, j0 = found
                l = next(e_k / v for e_k, v in zip(e, x.entries) if v) if rank else 1
                assert e == [l * v for v in x.entries]
                nonzero = [(j, i) for i in range(q) for j in range(p) if e[i * p + j]]
                assert (j0, i0) == (min(nonzero) if nonzero else (-1, -1))
        assert ranks == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# subspaces


class TestSubspaces:
    def test_zero_subspace_comparisons(self):
        z = Subspace.zero(3)
        t = Subspace.from_spanning_columns(RM([[1], [0], [2]]))
        assert contains(t, z) and not contains(z, t)
        assert z == Subspace.zero(3) and contains(z, Subspace.zero(3))

    def test_full_space_equal(self):
        s = Subspace.from_spanning_columns(RM([[1, 1], [0, 1]]))
        assert s == Subspace.full(2)
        assert contains(s, Subspace.full(2)) and contains(Subspace.full(2), s)

    def test_incomparable_axes(self):
        # stacked basis has rank 2, so neither contains the other
        e1 = Subspace.from_spanning_columns(RM([[1], [0]]))
        e2 = Subspace.from_spanning_columns(RM([[0], [1]]))
        assert not contains(e1, e2) and not contains(e2, e1)

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            contains(Subspace.zero(2), Subspace.zero(3))

    def test_canonical_form_is_spanning_set_independent(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 5)
            d = rng.randint(0, n)
            base = random_matrix(rng, n, d, 6)
            # a second spanning set: shuffled columns plus random combinations
            cols = [base.col_list(j) for j in range(d)]
            extra = []
            for _ in range(rng.randint(0, 3)):
                coeffs = [rng.randint(-3, 3) for _ in range(d)]
                extra.append(
                    [
                        sum(c * cols[j][i] for j, c in enumerate(coeffs))
                        for i in range(n)
                    ]
                )
            rng.shuffle(cols)
            other = RM([list(r) for r in zip(*(cols + extra))]) if d or extra else (
                RationalMatrix.zeros(n, 0)
            )
            s1 = Subspace.from_spanning_columns(base)
            s2 = Subspace.from_spanning_columns(other)
            if s1.dim == s2.dim:
                assert s1.basis == s2.basis

    def test_sum_and_intersection(self):
        e1 = Subspace.from_spanning_columns(RM([[1], [0], [0]]))
        e12 = Subspace.from_spanning_columns(RM([[1, 0], [0, 1], [0, 0]]))
        e23 = Subspace.from_spanning_columns(RM([[0, 0], [1, 0], [0, 1]]))
        assert e12.sum_with(e23) == Subspace.full(3)
        inter = e12.intersect(e23)
        assert inter.dim == 1
        assert inter.contains_vector([0, 1, 0])
        assert e12.intersect(e1) == e1

    def test_preimage(self):
        a = RM([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        f = Subspace.from_spanning_columns(RM([[1], [0], [0]]))
        pre = f.preimage_under(a)
        # x with a @ x in span(e1): second coordinate free, third zero
        assert pre.dim == 2
        assert pre.contains_vector([0, 1, 0])
        assert pre.contains_vector([1, 0, 0])
        assert not pre.contains_vector([0, 0, 1])

    def test_kernel_span_is_the_span_of_the_kernel_vectors(self):
        # one elimination against two: eliminate, then eliminate the kernel
        rng = random.Random(61)
        shapes = {"empty": 0, "zero": 0, "n1": 0, "full": 0, "deficient": 0,
                  "wide": 0, "tall": 0, "huge": 0}
        for trial in range(6000):
            n = rng.randint(1, 7)
            m = rng.choice((0, rng.randint(1, n), rng.randint(n, n + 4)))
            bound = rng.choice((1, 9, 2**100))
            rows = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(n)]
                    for _ in range(m)]
            if trial % 5 == 0 and m > 1:
                # rank deficient: a row combined from two others
                c = rng.randint(-3, 3)
                rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
            if trial % 17 == 0:
                rows = [[0] * n for _ in range(m)]
            got = _kernel_span(rows, n)
            want = _span(n, _kernel_vectors(rows, n))
            assert (got._rows, got._pivots) == (want._rows, want._pivots)
            assert got.dim == want.dim
            rank = n - got.dim
            shapes["empty"] += m == 0
            shapes["zero"] += m > 0 and rank == 0
            shapes["n1"] += n == 1
            shapes["full"] += m > 0 and rank == min(m, n)
            shapes["deficient"] += rank < min(m, n)
            shapes["wide"] += 0 < m < n
            shapes["tall"] += m > n
            shapes["huge"] += bound == 2**100 and rank > 0
        assert min(shapes.values()) >= 100, shapes

    def test_annihilator(self):
        s = Subspace.from_spanning_columns(RM([[1, 0], [0, 1], [1, 1]]))
        ann = RM(s._annihilator())
        assert ann.rows == 1
        assert (ann @ s.basis).is_zero()

    @given(matrix_pairs())
    @settings(deadline=None, max_examples=40)
    def test_dimension_formula(self, pair):
        # dim(S + T) + dim(S ∩ T) = dim S + dim T, exactly
        a, b = pair
        s = Subspace.from_spanning_columns(a)
        t = Subspace.from_spanning_columns(b)
        total = s.sum_with(t)
        meet = s.intersect(t)
        assert total.dim + meet.dim == s.dim + t.dim
        assert contains(total, s) and contains(total, t)
        assert contains(s, meet) and contains(t, meet)


# ---------------------------------------------------------------------------
# the Krylov builder


class TestKrylov:
    def test_blocks_are_powers_times_x(self):
        rng = random.Random(37)
        for _ in range(30):
            n, w, count = rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 7)
            a = random_matrix(rng, n, n, 6)
            y = random_matrix(rng, w, n, 6)
            pows = matrix_powers(a, count)
            left = _krylov_left(list(y.entries), w, list(a.entries), n, count)
            if count:
                assert left == list(
                    RationalMatrix.vstack([y @ pows[k] for k in range(count)]).entries
                )
            else:
                assert left == []

    @staticmethod
    def kalman_points(rng, rounds=140):
        """Integer points, n <= 8, entries up to 2^200, in seven families:
        random; b_0 = 0; B = 0; C = 0; scalar A; a U_k point (B in the
        first k rows, C in the last n - k columns, A strictly upper
        triangular); that U_k point moved by a random g and cleared."""
        for t in range(rounds):
            family = t % 7
            n, p, q = rng.randint(1, 8), rng.randint(1, 3), rng.randint(1, 3)
            bound = 2 ** rng.choice((3, 64, 200))
            k = rng.randint(0, n)

            def draw(rows, cols, keep=lambda i, j: True):
                return RM([[rng.randint(-bound, bound) if keep(i, j) else 0
                            for j in range(cols)] for i in range(rows)])

            if family < 5:
                b, c, a = draw(n, p), draw(q, n), draw(n, n)
            else:
                b, c = draw(n, p, lambda i, j: i < k), draw(q, n, lambda i, j: j >= k)
                a = draw(n, n, lambda i, j: j > i)
            if family == 1:
                b = RM([[0] + row[1:] for row in b.to_rows()])
            elif family == 2:
                b = RationalMatrix.zeros(n, p)
            elif family == 3:
                c = RationalMatrix.zeros(q, n)
            elif family == 4:
                a = RationalMatrix.diagonal([rng.randint(-bound, bound)] * n)
            w = Point(b, c, (a,))
            if family == 6:
                w = _integer_rescaled_point(group_action(random_invertible(rng, n), w))[0]
            yield w

    def test_invariant_basis_spans_the_kalman_row_spaces(self):
        # the grown rows are independent, echelon once sorted by leading
        # column, and have the reduced form of the full Krylov matrices:
        # ctrl = [B, AB, ..., A^(n-1) B]^T and, with on_left, obs
        ranks = set()
        for w in self.kalman_points(random.Random(39)):
            n, a = w.n, list(w.A.entries)
            for on_left, vecs, full in (
                    (False, w.B.transpose().to_rows(), controllability_blocks(w.A, w.B).T),
                    (True, w.C.to_rows(), observability_blocks(w.A, w.C))):
                rows = _invariant_basis(a, n, vecs, on_left)
                rank, pivots, red = _k.rre_int(full.to_rows(), n)
                assert _k.rre_int(rows, n) == (rank, pivots, red[:rank])
                leads = sorted(next(j for j, x in enumerate(v) if x) for v in rows)
                assert len(set(leads)) == len(rows) == rank
                ranks.add((on_left, 0 < rank < n))
        assert ranks == {(False, False), (False, True), (True, False), (True, True)}

    def test_power_traces_are_traces_of_the_powers(self):
        # m = 0 (no power formed) through m = 2n, odd and even
        rng = random.Random(38)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n, n, 6)
            pows = matrix_powers(a, 2 * n)
            for m in range(2 * n + 1):
                assert _power_traces(list(a.entries), n, m) == [
                    trace(pows[k]) for k in range(1, m + 1)]


class TestTraceProduct:
    def test_matches_full_product(self):
        rng = random.Random(31)
        for _ in range(20):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, n, m, 6)
            b = random_matrix(rng, m, n, 6)
            assert trace_product(a, b) == trace(a @ b)


class TestPolynomialCoeffs:
    def test_monic_required(self):
        with pytest.raises(ValueError):
            PolynomialCoeffs((2, 1))

    def test_derivative(self):
        p = PolynomialCoeffs((1, -3, 2))
        assert polynomial_derivative(p) == (2, -3)


class TestRankModPrime:
    @staticmethod
    def int_rows(rng, m, n, bits):
        return [[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(m)]

    @staticmethod
    def product(u, v, n):
        return [[sum(x * y[j] for x, y in zip(row, v)) for j in range(n)] for row in u]

    def test_matches_rank_int_on_random_matrices(self):
        rng = random.Random(81)
        seen = set()
        for trial in range(120):
            m, n = rng.randint(1, 24), rng.randint(1, 24)
            if trial % 3 == 0:  # tall
                m = rng.randint(n, 40)
            elif trial % 3 == 1:  # wide
                n = rng.randint(m, 40)
            bits = rng.choice((3, 20, 40))
            if trial % 2:  # low rank U V
                k = rng.randint(0, min(m, n))
                u, v = self.int_rows(rng, m, k, bits), self.int_rows(rng, k, n, bits)
                rows = self.product(u, v, n)
            else:
                rows = self.int_rows(rng, m, n, bits)
            rank = _k.rank_int(rows, n)
            assert rank_mod_prime(rows, n) == rank
            seen.add(rank < min(m, n))
        assert seen == {False, True}

    def test_many_rows_fill_the_field_width(self):
        # 300 rows of 300 columns, 2^40 entries: the first 200 random, each
        # later row a combination of two of them, interleaved so that many
        # rows take a couple of hundred lazy updates before they reach zero.
        # rank mod p <= rank over Q <= 200, so 200 proves both.
        rng = random.Random(82)
        base = self.int_rows(rng, 200, 300, 40)
        rows = list(base)
        for t in range(100):
            a, b = rng.sample(base, 2)
            x, y = rng.randint(1, 2**20), rng.randint(-(2**20), 2**20)
            rows.insert(2 * t + 1, [x * s + y * u for s, u in zip(a, b)])
        assert rank_mod_prime(rows, 300) == 200
        tall = self.int_rows(rng, 300, 16, 40)
        assert rank_mod_prime(tall, 16) == _k.rank_int(tall, 16) == 16

    def test_multiples_of_the_prime_vanish(self):
        rng = random.Random(83)
        rows = [[PRIME * rng.randint(-(2**20), 2**20) for _ in range(7)] for _ in range(5)]
        assert _k.rank_int(rows, 7) == 5
        assert rank_mod_prime(rows, 7) == 0
        rows[2][3] += 1  # one entry that is not a multiple
        assert rank_mod_prime(rows, 7) == 1

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=1, max_size=5),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_never_above_the_exact_rank(self, small, scale):
        # entries are small values, some shifted by multiples of p
        rows = [[x + (scale * PRIME if x % 2 else 0) for x in row] for row in small]
        assert rank_mod_prime(rows, 4) <= _k.rank_int(rows, 4)

    def test_empty_shapes(self):
        assert rank_mod_prime([], 3) == 0
        assert rank_mod_prime([[], []], 0) == 0
        assert rank_mod_prime([[0, 0], [0, 0]], 2) == 0
