import hashlib
import json
import random
from fractions import Fraction

import pytest

from eadjoint import _kernels, orbits
from eadjoint.errors import (
    DegenerateSpectrumError,
    EadjointError,
    FiberConditionError,
    ShapeError,
)
from eadjoint.invariants import (
    Point,
    evaluate_invariants,
    group_action,
    jacobian_rank,
)
from eadjoint.linalg import (
    RationalMatrix,
    is_regular_semisimple,
    kernel_subspace,
    vandermonde_solve,
)
from eadjoint.orbits import (
    rank_one_factor,
    reconstruct_fiber_point,
    stabilizer,
)
from eadjoint.sampling import (
    random_distinct_rationals,
    random_full_support_matrix,
    random_invertible,
    random_matrix,
    random_move,
    random_rank_one_factors,
)
from oracles import (
    action_equations,
    closed_form_stab_dim,
    controllability_blocks,
    controllable,
    fraction_rank_one_factor,
    fraction_vandermonde_solve,
    hom_equations,
    image_dims_on_kernel,
    image_dims_on_quotient,
    observability_blocks,
    resultant_discriminant_is_nonzero,
    sign_flipped_hom_equations,
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
        from eadjoint.nullcone import pinned_row_witness

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
                w = pinned_row_witness(n, 2, 1, k, seed=n + k)
                points += [w, group_action(
                    RationalMatrix.diagonal([Fraction(1, t + 2) for t in range(n)]), w)]
        dims = set()
        for w in points:
            rep = stabilizer(w)
            assert rep.kernel_basis.basis == kernel_subspace(RM(action_equations(w))).basis
            dims.add(rep.stab_dim)
        assert sum(any(type(x) is not int for x in w.A.entries) for w in points) > 20
        assert len(dims) > 2


def block_sum(u, v):
    """u + v on Q^(n_u + n_v): A = diag(A_u, A_v), B = [B_u; B_v],
    C = [C_u, C_v]."""
    nu, nv = u.n, v.n
    a = [r + [0] * nv for r in u.A.to_rows()] + [[0] * nu + r for r in v.A.to_rows()]
    return Point(
        RM(u.B.to_rows() + v.B.to_rows()),
        RM([ru + rv for ru, rv in zip(u.C.to_rows(), v.C.to_rows())]),
        (RM(a),),
    )


class TestKalmanCertificate:
    def test_equals_the_exact_kernel_on_both_sides(self, monkeypatch):
        # points whose b_0 is cyclic take the Krylov shortcut, with no
        # elimination; the other controllable points the exact ctrl kernel,
        # observable ones the obs kernel, and the others the reduced solve
        # on Hom_A(V/S, K); all must give the canonical kernel of the full
        # system
        from eadjoint.invariants import (
            _controllability,
            _integer_rescaled_point,
            _observability,
        )
        from eadjoint.nullcone import (
            pinned_row_witness,
            random_unstable_point,
            sample_component,
        )

        rng = random.Random(44)
        points = []
        for i in range(100):
            n, p, q = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
            w = Point(random_matrix(rng, n, p), random_matrix(rng, q, n),
                      (random_matrix(rng, n, n),))
            if i % 5 == 1:
                w = Point(RationalMatrix.zeros(n, p), w.C, w.A_list)
            elif i % 5 == 2:
                w = random_unstable_point(rng, n, p, q, rng.randint(0, n))
            elif i % 5 == 3 and n > 1:
                w = pinned_row_witness(n, p, q, rng.randint(0, n), seed=i)
            elif i % 5 == 4:
                # B vanishes on the second block, so 0 < dim S < n; C on
                # either block may vanish too, so K is anywhere in 0..n
                nv = rng.randint(1, 3)
                v = Point(RationalMatrix.zeros(nv, p), random_matrix(rng, q, nv),
                          (random_matrix(rng, nv, nv),))
                if rng.random() < 0.5:
                    v = Point(v.B, RationalMatrix.zeros(q, nv), v.A_list)
                if rng.random() < 0.25:
                    w = Point(w.B, RationalMatrix.zeros(q, n), w.A_list)
                w = block_sum(w, v)
            g = random_invertible(rng, w.n).scale(Fraction(1, rng.randint(2, 9)))
            points += [w, group_action(g, w)]
        # B's first column zero, g-moved or not: b_0 = 0 is never cyclic,
        # but the other columns of B mostly make the point controllable
        for _ in range(20):
            n, p, q = rng.randint(1, 4), rng.randint(2, 3), rng.randint(1, 3)
            b = [[0] + row[1:] for row in random_matrix(rng, n, p).to_rows()]
            w = Point(RM(b), random_matrix(rng, q, n), (random_matrix(rng, n, n),))
            g = random_invertible(rng, n).scale(Fraction(1, rng.randint(2, 9)))
            points += [w, group_action(g, w)]
        # C_k points at n = 8 and 10 against the full (n^2 + 2n + 2n) x n^2 system
        points += [sample_component(n, 2, 2, k, seed=n) for n, k in ((8, 3), (10, 5))]
        built = []
        real = orbits._hom_equations
        monkeypatch.setattr(orbits, "_hom_equations",
                            lambda *args: built.append(1) or real(*args))
        eliminated, obs_built = [], []
        rre, obs = _kernels.rre_int, orbits._observability
        monkeypatch.setattr(_kernels, "rre_int",
                            lambda *args: eliminated.append(1) or rre(*args))
        monkeypatch.setattr(orbits, "_observability",
                            lambda *args: obs_built.append(1) or obs(*args))
        paths = {"cyclic b0": 0, "controllable, b0 not cyclic": 0, "observable": 0,
                 "reduced": 0, "proper": 0}
        for w in points:
            wi = _integer_rescaled_point(w)[0]
            s = _controllability(wi.A, wi.B).rank()
            kappa = w.n - _observability(wi.A, wi.C).rank()
            b0 = Point(RationalMatrix.column(wi.B.col_list(0)), wi.C, wi.A_list)
            path = ("cyclic b0" if controllable(b0)
                    else "controllable, b0 not cyclic" if controllable(wi)
                    else "observable" if kappa == 0 else "reduced")
            del built[:], eliminated[:], obs_built[:]
            rep = stabilizer(w)
            assert len(built) == (path == "reduced")
            if path == "cyclic b0":
                assert not eliminated and not obs_built
            elif path == "controllable, b0 not cyclic":
                assert len(eliminated) == 1 and not obs_built
            else:
                assert len(eliminated) >= 2 and len(obs_built) == 1
            exact = kernel_subspace(RM(action_equations(w)))
            assert rep.kernel_basis.basis == exact.basis and rep.stab_dim == exact.dim
            assert rep.stab_dim + rep.orbit_dim == w.n ** 2
            if path != "reduced":
                assert exact.dim == 0
            paths[path] += 1
            paths["proper"] += path == "reduced" and 0 < s and kappa < w.n
        minimum = {"cyclic b0": 50, "controllable, b0 not cyclic": 25,
                   "observable": 50, "reduced": 30, "proper": 25}
        assert all(paths[path] >= minimum[path] for path in paths), paths

    def test_controllable_points_build_no_system(self, monkeypatch):
        def built(*args):
            raise AssertionError("system built")

        monkeypatch.setattr(orbits, "_hom_equations", built)
        a = (RationalMatrix.diagonal([1, 2]),)
        controllable = Point(RM([[2], [3]]), RM([[0, 0]]), a)
        observable = Point(RM([[0], [0]]), RM([[5, 7]]), a)
        assert stabilizer(observable).stab_dim == 0
        with monkeypatch.context() as m:  # K(b_0) mod p decides, no elimination
            m.setattr(_kernels, "rre_int", built)
            assert stabilizer(controllable).stab_dim == 0
        with pytest.raises(AssertionError, match="system built"):  # the reduced path
            stabilizer(zero_point(2, 1, 1))

    def test_pinned_family_is_not_controllable(self):
        # its centralizer has dimension n - k > 0 whenever k < n
        from eadjoint.nullcone import pinned_row_witness

        for n in range(2, 6):
            for k in range((n + 1) // 2, n):
                w = pinned_row_witness(n, 2, 2, k, seed=n * k)
                assert not controllable(w)
                assert stabilizer(w).stab_dim == n - k


class TestClosedFormStabilizer:
    def test_stabilizer_matches_the_jordan_type_formula(self):
        # dim Stab = sum_m c_m(V/S) c_m(K), Jordan counts read off ranks of
        # powers of A, against stabilizer() on g-moved C_k samples and on
        # pinned witnesses, every (n <= 6, p, q <= 3) with one random k; the
        # same sum with the Jordan type of A on V in place of V/S is wrong
        # on some of them
        from eadjoint.nullcone import pinned_row_witness, sample_component

        rng = random.Random(86)
        nonzero = on_v_wrong = 0
        for n in range(1, 7):
            for p in range(1, 4):
                for q in range(1, 4):
                    k = rng.randint(0, n)
                    for w in (sample_component(n, p, q, k, rng.randrange(2**32)),
                              pinned_row_witness(n, p, q, k, seed=rng.randrange(100))):
                        dim = stabilizer(w).stab_dim
                        assert closed_form_stab_dim(w) == dim, (n, p, q, k, w)
                        nonzero += dim > 0
                        on_v = image_dims_on_quotient(w.A, [])
                        on_k = image_dims_on_kernel(w.A, observability_blocks(
                            w.A, w.C).to_rows())
                        on_v_wrong += dim != sum(
                            (on_v[m - 1] - on_v[m]) * (on_k[m - 1] - on_k[m])
                            for m in range(1, n + 1))
        assert nonzero >= 30 and on_v_wrong >= 30, (nonzero, on_v_wrong)

    def test_jordan_types_on_v_mod_s_and_on_k_are_orbit_invariants(self):
        # c_m(V/S) and c_m(K), the Jordan counts of A on the quotient by the
        # A-span of im B and on the largest A-invariant subspace of ker C,
        # are equal at w and at g.w on C_k samples and pinned witnesses,
        # n <= 6.  Read with g.w's A but w's own S and K, they change on
        # some points: the counts see the subspaces move with g
        from eadjoint.nullcone import pinned_row_witness, sample_component

        def jordan_counts(a, s_rows, k_rows):
            on_q = image_dims_on_quotient(a, s_rows)
            on_k = image_dims_on_kernel(a, k_rows)
            return [(on_q[m - 1] - on_q[m], on_k[m - 1] - on_k[m])
                    for m in range(1, a.rows + 1)]

        def subspace_rows(w):
            return (controllability_blocks(w.A, w.B).T.to_rows(),
                    observability_blocks(w.A, w.C).to_rows())

        rng = random.Random(89)
        points = mixed = 0
        for n in range(1, 7):
            for p, q in ((1, 1), (1, 3), (2, 2), (3, 1)):
                k = rng.randint(0, n)
                for w in (sample_component(n, p, q, k, rng.randrange(2**32)),
                          pinned_row_witness(n, p, q, k, seed=rng.randrange(100))):
                    moved = random_move(rng, w, 3)
                    counts = jordan_counts(w.A, *subspace_rows(w))
                    assert jordan_counts(moved.A, *subspace_rows(moved)) == counts
                    mixed += jordan_counts(moved.A, *subspace_rows(w)) != counts
                    points += 1
        assert points == 48 and mixed >= 10, (points, mixed)


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
        # the kernel of X A + A X = 0 holds matrices that do not commute
        # with A: the re-substitution of the kernel basis must raise
        monkeypatch.setattr(orbits, "_hom_equations", sign_flipped_hom_equations)
        for n in (2, 3, 4):
            w = Point(RationalMatrix.zeros(n, 1), RationalMatrix.zeros(1, n),
                      (principal_nilpotent(n),))
            with pytest.raises(AssertionError, match="kernel failed re-substitution"):
                stabilizer(w)

    def test_hom_rows_are_the_fraction_rows_at_the_free_entries(self):
        # random A, P and N with entries up to 2^200, and A = all -1,
        # P = [1, 1], N = [-1, 1], whose one coefficient 2 a width without
        # the factor 2n would decode as -2
        rng = random.Random(46)

        def vectors(n, bound):
            out = []
            for _ in range(rng.randint(1, n)):
                v = [rng.randint(-bound, bound) if rng.random() < 0.7 else 0
                     for _ in range(n)]
                v[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(1, bound)
                out.append(v)
            return out

        cases = [(RM([[-1, -1], [-1, -1]]), [[1, 1]], [[-1, 1]])]
        for _ in range(150):
            n = rng.randint(1, 5)
            bound = rng.choice((1, 10, 2**100, 2**200))
            a = RationalMatrix(n, n, [rng.randint(-bound, bound) for _ in range(n * n)])
            cases.append((a, vectors(n, bound), vectors(n, bound)))
        for a, ps, ns in cases:
            rows, n = hom_equations(a, ps, ns), a.rows
            assert orbits._hom_equations(a, ps, ns) == [
                rows[i * n + j]
                for i in orbits._free_entries(ps) for j in orbits._free_entries(ns)
            ]
        assert orbits._hom_equations(*cases[0]) == [[2]]

    def test_stabilizer_output_is_pinned(self):
        # sha256 of every report over pinned witnesses and C_k points,
        # n <= 8, p, q <= 3: 792 points, 504 with a nonzero stabilizer
        from eadjoint.nullcone import pinned_row_witness, sample_component

        reports = []
        for n in range(1, 9):
            for k in range(n + 1):
                for p in (1, 2, 3):
                    for q in (1, 2, 3):
                        seed = 100 * n + 10 * k + 3 * p + q
                        for w in (pinned_row_witness(n, p, q, k, seed=seed),
                                  sample_component(n, p, q, k, seed=seed)):
                            reports.append(stabilizer(w).to_json_obj())
        assert sum(rep["stab_dim"] > 0 for rep in reports) == 504
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "c9e9844a316440063eabb8f941136a3d8bccf58c5bb05009c64cc7f85ebda85c")


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
        with pytest.raises(FiberConditionError, match="matrix has rank >= 2"):
            rank_one_factor(RationalMatrix.identity(2))

    def test_rank_two_away_from_the_pivot_row_and_column(self):
        # ranks 3, 2 and 2 that show only in entries off the pivot's row and
        # column, the last with a zero first column
        for x in (RM([[1, 0, 0], [0, 2, 0], [0, 0, 3]]),
                  RM([[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 1]]),
                  RM([[0, 1, 0], [0, 0, 1]])):
            with pytest.raises(FiberConditionError, match="matrix has rank >= 2"):
                rank_one_factor(x)

    def test_hand_cases(self):
        # (x, c, b): a negative pivot, a pivot below row 0, a zero first
        # column, 1 x p and q x 1 shapes, mixed denominators
        f = Fraction
        cases = [
            (RM([[-2, 4, 6], [1, -2, -3]]), RM([[-2], [1]]), RM([[1, -2, -3]])),
            (RM([[0, 0], [3, 5], [-6, -10]]), RM([[0], [3], [-6]]),
             RM([[1, f(5, 3)]])),
            (RM([[0, 0, 0], [0, 4, -2]]), RM([[0], [4]]), RM([[0, 1, f(-1, 2)]])),
            (RM([[0, f(3, 2), -3, 0]]), RM([[f(3, 2)]]), RM([[0, 1, -2, 0]])),
            (RM([[0], [f(-2, 3)], [4]]), RM([[0], [f(-2, 3)], [4]]), RM([[1]])),
            (RM([[f(1, 2), f(1, 3)], [f(3, 4), f(1, 2)]]),
             RM([[f(1, 2)], [f(3, 4)]]), RM([[1, f(2, 3)]])),
        ]
        for x, c, b in cases:
            got = rank_one_factor(x)
            assert got == (c, b), x
            assert got[0] @ got[1] == x
            assert [type(v) for m in got for v in m.entries] == [
                type(v) for m in (c, b) for v in m.entries]

    def test_matches_the_fraction_oracle(self):
        # rank <= 1 and rank-two matrices with mixed denominators, every
        # shape up to 4 x 4, with a zeroed first column now and then
        rng = random.Random(61)
        ranks = set()
        for _ in range(400):
            q, p = rng.randint(1, 4), rng.randint(1, 4)
            x = RationalMatrix.zeros(q, p)
            for _ in range(rng.choice((0, 1, 1, 2))):
                c, b = random_rank_one_factors(rng, q, p)
                x = x + (c @ b).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            if rng.random() < 0.3:
                e = list(x.entries)
                for i in range(q):
                    e[i * p] = 0
                x = RationalMatrix(q, p, e)
            ranks.add(x.rank())
            assert outcome(rank_one_factor, x) == outcome(fraction_rank_one_factor, x)
        assert ranks == {0, 1, 2}


def outcome(fn, *args):
    """fn(*args) as its entries with their types, or its error's class and
    message."""
    try:
        out = fn(*args)
    except (EadjointError, TypeError) as exc:
        return type(exc), str(exc)
    mats = (out.B, out.C, *out.A_list) if isinstance(out, Point) else out
    return [(m.shape, m.entries, [type(x) for x in m.entries]) for m in mats]


def fraction_reconstruct_fiber_point(t, gamma, strict_rank1=False):
    """``reconstruct_fiber_point`` on the Fraction oracles."""
    xs = fraction_vandermonde_solve(t, list(gamma))
    if not xs:
        raise ShapeError("reconstruction needs a nonempty spectrum")
    b_rows, c_cols = [], []
    for x in xs:
        c, b = fraction_rank_one_factor(x)
        if strict_rank1 and x.is_zero():
            raise FiberConditionError(
                "rank-one condition violated: zero summand under strict mode"
            )
        b_rows.append(b.row_list(0))
        c_cols.append(c.col_list(0))
    return Point(
        RationalMatrix.from_rows(b_rows),
        RationalMatrix.from_rows(zip(*c_cols)),
        (RationalMatrix.diagonal(t),),
    )


def fiber_gamma(t, xs):
    """Gamma_k = sum_r t_r^k X_r, k = 0..n-1."""
    gamma = []
    for k in range(len(t)):
        acc = RationalMatrix.zeros(*xs[0].shape)
        for r in range(len(t)):
            acc = acc + xs[r].scale(t[r] ** k)
        gamma.append(acc)
    return gamma


def random_fibers(seed, count):
    """Fixed error cases, then count random fibers (t, gamma).

    n <= 6, p, q <= 3; t from ``random_distinct_rationals`` (denominators
    1..3, negative values) with bound 3 or 10; summands from
    ``random_rank_one_factors`` (15% zero) scaled by 1/1..1/4.  Every fifth
    fiber has a rank-one matrix added to one summand (rank two when both
    are nonzero and p, q >= 2), every seventh repeats t_0.
    """
    fibers = [
        ([], []),
        ([1, 2], [RM([[1]])]),
        ([1, 2], [RM([[1]]), RM([[1, 2]])]),
        ([1, 1], [RM([[1]])]),
        ([1.5, 1.5], [RM([[1]])] * 2),
        ([1, 2], [RM([[1, 0], [0, 1]]), RM([[2, 0], [0, 2]])]),
        ([2, 1], [RM([[1, 0], [0, 1]]), RM([[2, 0], [0, 2]])]),
    ]
    rng = random.Random(seed)
    for trial in range(count):
        n, p, q = rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 3)
        t = random_distinct_rationals(rng, n, rng.choice((3, 10)))
        xs = []
        for _ in range(n):
            c, b = random_rank_one_factors(rng, q, p)
            xs.append((c @ b).scale(Fraction(1, rng.randint(1, 4))))
        if trial % 5 == 4:
            c, b = random_rank_one_factors(rng, q, p)
            r = rng.randrange(n)
            xs[r] = xs[r] + c @ b
        if trial % 7 == 6 and n > 1:
            t[rng.randrange(1, n)] = t[0]
        fibers.append((t, fiber_gamma(t, xs)))
    return fibers


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

    def test_matches_the_fraction_oracle(self):
        # 600 random fibers and the fixed error cases, strict mode off and
        # on: equal entries of equal types, or the same error and message
        kinds = set()
        for t, gamma in random_fibers(62, 600):
            for strict in (False, True):
                got = outcome(reconstruct_fiber_point, t, gamma, strict)
                assert got == outcome(
                    fraction_reconstruct_fiber_point, t, gamma, strict), (t, gamma)
                kinds.add(got[0] if isinstance(got, tuple) else "point")
        assert kinds == {"point", ShapeError, TypeError, DegenerateSpectrumError,
                         FiberConditionError}

    def test_output_is_pinned(self):
        # sha256 of every point or error text over the fibers above,
        # recorded before the integer path replaced the Fraction one
        out = []
        for t, gamma in random_fibers(63, 300):
            for strict in (False, True):
                try:
                    out.append(reconstruct_fiber_point(t, gamma, strict).to_json_obj())
                except (EadjointError, TypeError) as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "fa7d2b6509716e30051bffccb1c204c8dfe3ef9751cf5f0e48b2430e30134fe8")

    def test_work_is_one_integer_elimination(self, monkeypatch):
        # one n = 5, p = q = 3 reconstruction: one rre_int, no mat_mul and
        # no RationalMatrix.rref
        rng = random.Random(64)
        t = random_distinct_rationals(rng, 5)
        xs = [(c @ b).scale(Fraction(1, 3)) for c, b in (
            random_rank_one_factors(rng, 3, 3) for _ in range(5))]
        gamma = fiber_gamma(t, xs)
        calls = {"rre_int": 0, "mat_mul": 0, "rref": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(_kernels, "rre_int", counted("rre_int", _kernels.rre_int))
        monkeypatch.setattr(_kernels, "mat_mul", counted("mat_mul", _kernels.mat_mul))
        monkeypatch.setattr(RationalMatrix, "rref",
                            counted("rref", RationalMatrix.rref))
        w = reconstruct_fiber_point(t, gamma)
        assert calls == {"rre_int": 1, "mat_mul": 0, "rref": 0}
        assert evaluate_invariants(w).gamma == tuple(gamma)

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
        assert vandermonde_solve(t, gamma) == xs
        w = reconstruct_fiber_point(t, gamma)
        for k, x in enumerate(xs):
            c, b = rank_one_factor(x)
            assert c @ b == x
            assert w.B.row_list(k) == b.row_list(0)
            assert w.C.col_list(k) == c.col_list(0)


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
