import random
from fractions import Fraction

import pytest

from eadjoint import orbits
from eadjoint.errors import DegenerateSpectrumError, FiberConditionError, ShapeError
from eadjoint.invariants import (
    Point,
    action_equations,
    evaluate_invariants,
    group_action,
    jacobian_rank,
)
from eadjoint.linalg import RationalMatrix, is_regular_semisimple, kernel_subspace
from eadjoint.orbits import (
    fiber_reconstruction_data,
    rank_one_factor,
    reconstruct_fiber_point,
    stabilizer,
)
from eadjoint.sampling import (
    random_distinct_rationals,
    random_full_support_matrix,
    random_invertible,
    random_matrix,
    random_rank_one_factors,
)
from oracles import (
    resultant_discriminant_is_nonzero,
    sign_flipped_action_equations,
    sylvester_resultant,
    zero_point,
)

RM = RationalMatrix.from_rows


def principal_nilpotent(n):
    return RationalMatrix(
        n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)]
    )


class TestStabilizer:
    def test_zero_point(self):
        rep = stabilizer(zero_point(3, 2, 2))
        assert rep.stab_dim == 9
        assert rep.orbit_dim == 0

    def test_pinned_family_n3_k2(self):
        # xi has the elementary basis column e_k in its first column, eta is
        # generic in its last n-k columns, adjoint part is the regular
        # nilpotent Jordan block; centralizer dimension is n - k = 1
        n, k, p, q = 3, 2, 2, 1
        xi = RM([[0, 4], [1, -2], [0, 0]])
        eta = RM([[0, 0, 7]])
        w = Point(xi, eta, (principal_nilpotent(n),))
        rep = stabilizer(w)
        assert rep.stab_dim == n - k == 1
        assert rep.orbit_dim == 8

    def test_regular_semisimple_full_support(self):
        w = Point(RM([[2], [3]]), RM([[5, 7]]), (RationalMatrix.diagonal([1, 2]),))
        rep = stabilizer(w)
        assert rep.stab_dim == 0
        assert rep.orbit_dim == 4

    def test_kernel_elements_annihilate(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            w = Point(
                random_matrix(rng, n, rng.randint(1, 3)),
                random_matrix(rng, rng.randint(1, 3), n),
                (random_matrix(rng, n, n),),
            )
            rep = stabilizer(w)  # re-substitution asserted internally
            assert rep.stab_dim + rep.orbit_dim == n * n

    def test_kernel_basis_is_that_of_the_uncleared_system(self):
        # stabilizer solves the equations of the cleared integer point;
        # its canonical basis must equal the kernel of w's own equations
        from eadjoint.nullcone import generic_orbit_witness

        rng = random.Random(43)
        points = []
        for i in range(24):
            n, p, q = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
            w = Point(random_matrix(rng, n, p), random_matrix(rng, q, n),
                      (random_matrix(rng, n, n),))
            if i % 3 == 0:  # a positive-dimensional stabilizer
                w = Point(RationalMatrix.zeros(n, p), w.C, w.A_list)
            g = random_invertible(rng, n).scale(Fraction(1, rng.randint(2, 9)))
            points.append(group_action(g, w))
        for n in range(1, 5):
            for k in range(n + 1):
                w = generic_orbit_witness(n, 2, 1, k, seed=n + k)[0]
                points += [w, group_action(
                    RationalMatrix.diagonal([Fraction(1, t + 2) for t in range(n)]), w)]
        dims = set()
        for w in points:
            rep = stabilizer(w)
            assert rep.kernel_basis.basis == kernel_subspace(RM(action_equations(w))).basis
            dims.add(rep.stab_dim)
        assert sum(any(type(x) is not int for x in w.A.entries) for w in points) > 20
        assert len(dims) > 2


class TestKalmanCertificate:
    def test_equals_the_exact_kernel_on_both_sides(self):
        # controllable points take the certificate, the others the exact
        # solve; both must give the canonical kernel of the full system
        from eadjoint.invariants import _controllable, _integer_rescaled_point
        from eadjoint.nullcone import pinned_row_witness, random_unstable_point

        rng = random.Random(44)
        points = []
        for i in range(60):
            n, p, q = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
            w = Point(random_matrix(rng, n, p), random_matrix(rng, q, n),
                      (random_matrix(rng, n, n),))
            if i % 4 == 1:
                w = Point(RationalMatrix.zeros(n, p), w.C, w.A_list)
            elif i % 4 == 2:
                w = random_unstable_point(rng, n, p, q, rng.randint(0, n))
            elif i % 4 == 3 and n > 1:
                w = pinned_row_witness(n, p, q, rng.randint((n + 1) // 2, n), seed=i)
            g = random_invertible(rng, n).scale(Fraction(1, rng.randint(2, 9)))
            points += [w, group_action(g, w)]
        sides = [0, 0]
        for w in points:
            controllable = _controllable(_integer_rescaled_point(w)[0])
            rep = stabilizer(w)
            exact = kernel_subspace(RM(action_equations(w)))
            assert rep.kernel_basis == exact and rep.stab_dim == exact.dim
            assert rep.stab_dim + rep.orbit_dim == w.n ** 2
            if controllable:
                assert exact.dim == 0
            sides[controllable] += 1
        assert min(sides) >= 30

    def test_controllable_points_build_no_system(self, monkeypatch):
        def built(w):
            raise AssertionError("system built")

        monkeypatch.setattr(orbits, "action_equations", built)
        w = Point(RM([[2], [3]]), RM([[5, 7]]), (RationalMatrix.diagonal([1, 2]),))
        assert stabilizer(w).stab_dim == 0
        with pytest.raises(AssertionError, match="system built"):  # the exact path
            stabilizer(zero_point(2, 1, 1))

    def test_pinned_family_is_not_controllable(self):
        # its centralizer has dimension n - k > 0 whenever k < n
        from eadjoint.invariants import _controllable
        from eadjoint.nullcone import pinned_row_witness

        for n in range(2, 6):
            for k in range((n + 1) // 2, n):
                w = pinned_row_witness(n, 2, 2, k, seed=n * k)
                assert not _controllable(w)
                assert stabilizer(w).stab_dim == n - k


def kronecker_system(w):
    """[I (x) B^T; C (x) I; I (x) A^T - A (x) I] in sympy: the equations
    XB = 0, CX = 0, XA - AX = 0 on row-major vec(X)."""
    import sympy

    def sym(m):
        return sympy.Matrix(
            m.rows, m.cols,
            [sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
             for x in m.entries],
        )

    b, c, a, eye = sym(w.B), sym(w.C), sym(w.A), sympy.eye(w.n)
    kron = sympy.kronecker_product
    return sympy.Matrix.vstack(
        kron(eye, b.T), kron(c, eye), kron(eye, a.T) - kron(a, eye)
    )


def stabilizer_test_points():
    """Random integer points and g-moved (rational) null-cone points."""
    from eadjoint.nullcone import random_unstable_point

    rng = random.Random(41)
    for i in range(40):
        n, p, q = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
        if i % 2 == 0:
            yield Point(random_matrix(rng, n, p), random_matrix(rng, q, n),
                        (random_matrix(rng, n, n),))
        else:
            u = random_unstable_point(rng, n, p, q, rng.randint(0, n), bound=2)
            yield group_action(random_invertible(rng, n), u)


class TestActionEquations:
    def test_stabilizer_matches_sympy_kronecker_nullspace(self):
        sympy = pytest.importorskip("sympy")
        moved = 0
        for w in stabilizer_test_points():
            null = kronecker_system(w).nullspace()
            rep = stabilizer(w)
            assert rep.stab_dim == len(null)
            if null:
                reduced, pivots = sympy.Matrix.hstack(*null).T.rref()
                want = [
                    Fraction(int(x.p), int(x.q))
                    for x in reduced[: len(pivots), :].T
                ]
                assert list(rep.kernel_basis.basis.entries) == want
            moved += any(isinstance(x, Fraction) for x in w.A.entries)
        assert moved > 5

    def test_rows_are_the_kronecker_system(self):
        pytest.importorskip("sympy")
        for w in stabilizer_test_points():
            system = kronecker_system(w)
            rows = action_equations(w)
            assert len(rows) == system.rows
            for c, row in enumerate(rows):
                assert [Fraction(x) for x in row] == [
                    Fraction(int(x.p), int(x.q)) for x in system.row(c)
                ]

    def test_sign_flip_in_the_adjoint_block_is_caught(self, monkeypatch):
        # the kernel of the flipped system holds matrices that do not
        # commute with A, and the re-substitution checks must raise
        monkeypatch.setattr(orbits, "action_equations", sign_flipped_action_equations)
        for n in (2, 3, 4):
            w = Point(RationalMatrix.zeros(n, 1), RationalMatrix.zeros(1, n),
                      (principal_nilpotent(n),))
            with pytest.raises(AssertionError, match="re-substitution"):
                stabilizer(w)

    def test_fault_that_shrinks_the_kernel_is_caught(self, monkeypatch):
        # a spurious X_00 in the first (all-zero) B-block row adds the
        # equation X_00 = 0: the kernel shrinks inside the true stabilizer,
        # so every kernel element still re-substitutes cleanly and only the
        # fixed-X evaluation of the rows can see the fault
        def extra_equation(w):
            rows = action_equations(w)
            rows[0][0] += 1
            return rows

        points = []
        for n in (2, 3, 4):
            w = Point(RationalMatrix.zeros(n, 1), RationalMatrix.zeros(1, n),
                      (principal_nilpotent(n),))
            true = stabilizer(w).kernel_basis
            shrunk = kernel_subspace(RM(extra_equation(w)))
            assert shrunk.dim == true.dim - 1 and true.contains(shrunk)
            points.append(w)
        monkeypatch.setattr(orbits, "action_equations", extra_equation)
        for w in points:
            with pytest.raises(AssertionError, match="fixed X"):
                stabilizer(w)


class TestRegularSemisimple:
    def test_distinct_diagonal(self):
        assert is_regular_semisimple(RationalMatrix.diagonal([1, 2, 3]))

    def test_identity_repeated(self):
        assert not is_regular_semisimple(RationalMatrix.identity(2))

    def test_rotation_matrix(self):
        # eigenvalues are +-i: distinct without any root extraction
        assert is_regular_semisimple(RM([[0, 1], [-1, 0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            is_regular_semisimple(RationalMatrix.zeros(2, 3))

    def test_known_resultant(self):
        # the oracle's resultant: res(x^2 + 1, 2x) = 4, the product of 2x
        # over the roots +-i
        assert sylvester_resultant((1, 0, 1), (2, 0)) == 4

    def test_matches_the_resultant_discriminant(self):
        # one Hankel rank against res(chi, chi') != 0 on integer, rational
        # and conjugated repeated-eigenvalue matrices, n <= 6
        rng = random.Random(41)
        flags = []
        for trial in range(420):
            n = trial % 6 + 1
            kind = trial // 6 % 3
            if kind == 0:
                a = random_matrix(rng, n, n, rng.choice((1, 2, 10)))
            elif kind == 1:
                den = rng.choice((2, 3, 7))
                a = random_matrix(rng, n, n, 5).scale(Fraction(1, den))
            else:
                t = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
                if n > 1:
                    t[rng.randrange(n)] = t[rng.randrange(n)]
                g = random_invertible(rng, n, 3)
                a = g @ RationalMatrix.diagonal(t) @ g.inverse()
            flag = is_regular_semisimple(a)
            assert flag == resultant_discriminant_is_nonzero(a), a
            flags.append(flag)
        assert True in flags and False in flags


class TestRankOneFactor:
    def test_zero(self):
        c, b = rank_one_factor(RationalMatrix.zeros(2, 3))
        assert c.is_zero() and b.is_zero()

    def test_first_nonzero_column_pivot(self):
        x = RM([[0, 2, 4], [0, 1, 2]])
        c, b = rank_one_factor(x)
        assert c == RM([[2], [1]])
        assert b == RM([[0, 1, 2]])
        assert c @ b == x

    def test_rank_two_rejected(self):
        with pytest.raises(FiberConditionError):
            rank_one_factor(RationalMatrix.identity(2))


class TestReconstruction:
    def test_hand_example(self):
        w = reconstruct_fiber_point([1, 2], [RM([[2]]), RM([[3]])])
        iv = evaluate_invariants(w)
        assert iv.tau == (3, 5)
        assert iv.gamma == (RM([[2]]), RM([[3]]))
        assert w.A == RationalMatrix.diagonal([1, 2])

    def test_zero_gamma(self):
        w = reconstruct_fiber_point([1, 2, 3], [RationalMatrix.zeros(2, 2)] * 3)
        assert w.B.is_zero() and w.C.is_zero()
        assert w.A == RationalMatrix.diagonal([1, 2, 3])
        iv = evaluate_invariants(w)
        assert iv.tau == (6, 14, 36)
        assert all(g.is_zero() for g in iv.gamma)

    def test_n1_direct(self):
        m = RM([[6, 3]])
        w = reconstruct_fiber_point([5], [m])
        assert w.A == RM([[5]])
        assert evaluate_invariants(w).gamma == (m,)

    def test_repeated_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            reconstruct_fiber_point([1, 1], [RM([[1]]), RM([[1]])])

    def test_rank_two_summand_rejected(self):
        # forward data built from a rank-two X: Gamma_k = sum t_r^k X_r
        x1 = RationalMatrix.identity(2)
        x2 = RationalMatrix.zeros(2, 2)
        gam = [x1 + x2, x1.scale(1) + x2.scale(2)]
        with pytest.raises(FiberConditionError):
            reconstruct_fiber_point([1, 2], gam)

    def test_strict_mode_rejects_zero_summand(self):
        t = [1, 2]
        gam = [RationalMatrix.zeros(1, 1), RationalMatrix.zeros(1, 1)]
        reconstruct_fiber_point(t, gam)  # default accepts rank 0
        with pytest.raises(FiberConditionError):
            reconstruct_fiber_point(t, gam, strict_rank1=True)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 5)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            t = random_distinct_rationals(rng, n)
            xs = []
            for _ in range(n):
                c, b = random_rank_one_factors(rng, q, p)
                xs.append(c @ b)
            gamma = []
            for k in range(n):
                acc = RationalMatrix.zeros(q, p)
                for r in range(n):
                    acc = acc + xs[r].scale(t[r] ** k)
                gamma.append(acc)
            w = reconstruct_fiber_point(t, gamma)
            iv = evaluate_invariants(w)
            assert iv.gamma == tuple(gamma)
            assert iv.tau == tuple(sum(v**k for v in t) for k in range(1, n + 1))

    def test_factors_multiply_back(self):
        rng = random.Random(8)
        t = random_distinct_rationals(rng, 3)
        xs = [
            random_full_support_matrix(rng, 2, 1) @ random_full_support_matrix(rng, 1, 2)
            for _ in range(3)
        ]
        gamma = []
        for k in range(3):
            acc = RationalMatrix.zeros(2, 2)
            for r in range(3):
                acc = acc + xs[r].scale(t[r] ** k)
            gamma.append(acc)
        data = fiber_reconstruction_data(t, gamma)
        assert list(data.X) == xs
        for x, (c, b) in zip(data.X, data.factors):
            assert c @ b == x


class TestFiberOrbitIdentity:
    def test_reconstructed_points_are_regular(self):
        # at a reconstructed point with strictly rank-one data the orbit is
        # open in its fiber: stabilizer 0 and Jacobian rank n(p+q)
        rng = random.Random(10)
        for _ in range(10):
            n = rng.randint(1, 4)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            t = random_distinct_rationals(rng, n)
            gamma = []
            xs = [
                random_full_support_matrix(rng, q, 1)
                @ random_full_support_matrix(rng, 1, p)
                for _ in range(n)
            ]
            for k in range(n):
                acc = RationalMatrix.zeros(q, p)
                for r in range(n):
                    acc = acc + xs[r].scale(t[r] ** k)
                gamma.append(acc)
            w = reconstruct_fiber_point(t, gamma, strict_rank1=True)
            assert is_regular_semisimple(w.A)
            rep = stabilizer(w)
            assert rep.stab_dim == 0
            assert rep.orbit_dim == n * n
            assert jacobian_rank(w) == n * (p + q)
