import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from eadjoint import _kernels, invariants, orbits, sampling
from eadjoint.errors import FiberConditionError, ShapeError, SingularMatrixError
from eadjoint.invariants import (
    Point,
    _controllability,
    _observability,
    cyclic_canonical,
    evaluate_invariants,
    group_action,
    jacobian_rank,
    limit_point_is_outside_family_image,
    nonclosed_image_demo,
    psi_map,
    sl_relation_check,
    word_invariants,
)
from eadjoint.linalg import (
    PRIME,
    RationalMatrix,
    is_regular_semisimple,
    kernel_subspace,
    rank_mod_prime,
)
from eadjoint.nullcone import (
    pinned_row_witness,
    random_unstable_point,
    sample_component,
)
from eadjoint.orbits import stabilizer
from oracles import (
    TangentVector,
    action_equations,
    controllability_blocks,
    differential,
    differential_jacobian_matrix,
    exact_jacobian_rank,
    first_unannihilated_tangent,
    fraction_group_action,
    fraction_invariants,
    fraction_word_invariants,
    matrix_powers,
    observability_blocks,
    packed_orbit_tangent,
    trace,
    zero_point,
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


def random_point(rng, n, p, q, r=1, bound=10):
    return Point(
        random_matrix(rng, n, p, bound),
        random_matrix(rng, q, n, bound),
        tuple(random_matrix(rng, n, n, bound) for _ in range(r)),
    )


DIAG_POINT = Point(RM([[1], [1]]), RM([[1, 1]]), (RationalMatrix.diagonal([1, 2]),))


# ---------------------------------------------------------------------------
# evaluate_invariants / group_action


class TestEvaluate:
    def test_diag_example(self):
        # direct arithmetic: tau = (3, 5), Gamma = ([2], [3])
        iv = evaluate_invariants(DIAG_POINT)
        assert iv.tau == (3, 5)
        assert iv.gamma == (RM([[2]]), RM([[3]]))

    def test_zero_point(self):
        iv = evaluate_invariants(zero_point(3, 2, 1))
        assert iv.is_zero()

    def test_principal_nilpotent_null(self):
        e = RM([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        w = Point(RationalMatrix.zeros(3, 1), RationalMatrix.zeros(1, 3), (e,))
        assert evaluate_invariants(w).is_zero()

    def test_r2_rejected(self):
        w = zero_point(2, 1, 1, r=2)
        with pytest.raises(ShapeError):
            evaluate_invariants(w)

    def test_identity_action(self):
        w = DIAG_POINT
        assert group_action(RationalMatrix.identity(2), w) == w

    def test_scalar_action(self):
        w = DIAG_POINT
        g = RationalMatrix.diagonal([3, 3])
        out = group_action(g, w)
        assert out.A_list[0] == w.A
        assert out.B == w.B.scale(3)
        assert out.C == w.C.scale(Fraction(1, 3))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            group_action(RM([[1, 1], [1, 1]]), DIAG_POINT)

    def test_singular_rational_rejected_for_r2(self):
        w = random_point(random.Random(3), 2, 1, 1, r=2)
        with pytest.raises(SingularMatrixError, match="invertible"):
            group_action(RM([[Fraction(1, 2), 1], [1, 2]]), w)

    def test_matches_fraction_reference(self):
        # integer products with one division per entry against Fraction
        # products with the rational-RREF inverse, r = 1 and r = 2
        rng = random.Random(59)

        def rational(m):
            e = list(m.entries)
            for _ in range(len(e) // 2):
                e[rng.randrange(len(e))] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            return RationalMatrix(m.rows, m.cols, e)

        for trial in range(120):
            n, r = rng.randint(1, 5), 1 + trial % 2
            w = random_point(rng, n, rng.randint(1, 3), rng.randint(1, 3), r)
            if trial % 3:
                w = Point(rational(w.B), rational(w.C), [rational(a) for a in w.A_list])
            g = random_invertible(rng, n)
            if trial % 4 > 1:
                g = rational(g)
                if g.rank() < n:
                    continue
            moved = group_action(g, w)
            assert moved == fraction_group_action(g, w)
            for m in (moved.B, moved.C, *moved.A_list):
                assert all(type(x) is int for x in m.entries if x == int(x))

    def test_invariance_under_random_action(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 4)
            w = random_point(rng, n, rng.randint(1, 3), rng.randint(1, 3))
            g = random_invertible(rng, n)
            assert evaluate_invariants(group_action(g, w)) == evaluate_invariants(w)

    def test_json_roundtrip(self):
        obj = DIAG_POINT.to_json_obj()
        assert obj["B"] == [["1"], ["1"]]
        assert Point.from_json_obj(obj) == DIAG_POINT
        assert evaluate_invariants(DIAG_POINT).to_json_obj() == {
            "gamma": [[["2"]], [["3"]]],
            "tau": ["3", "5"],
        }

    def test_json_shape_mismatch_rejected(self):
        obj = DIAG_POINT.to_json_obj()
        obj["n"] = 3
        with pytest.raises(ValueError):
            Point.from_json_obj(obj)


# ---------------------------------------------------------------------------
# word invariants


class TestWordInvariants:
    def test_specializes_to_plain_invariants(self):
        rng = random.Random(5)
        w = random_point(rng, 3, 2, 2)
        iv = evaluate_invariants(w)
        words = word_invariants(w, 2 * w.n - 1)
        for k in range(1, w.n + 1):
            assert words.tau[(1,) * k] == iv.tau[k - 1]
        for k in range(w.n):
            assert words.gamma[(1,) * k] == iv.gamma[k]

    def test_empty_word_is_cb(self):
        rng = random.Random(6)
        w = random_point(rng, 2, 2, 3, r=2)
        words = word_invariants(w, 0)
        assert words.gamma[()] == w.C @ w.B
        assert words.tau == {}

    def test_trace_cyclicity(self):
        rng = random.Random(7)
        w = random_point(rng, 2, 1, 1, r=2)
        a1, a2 = w.A_list
        words = word_invariants(w, 2)
        # the canonical key carries the common value of both rotations
        assert (1, 2) in words.tau
        assert (2, 1) not in words.tau
        assert words.tau[(1, 2)] == trace(a1 @ a2) == trace(a2 @ a1)

    def test_word_values_match_direct_products(self):
        rng = random.Random(8)
        w = random_point(rng, 2, 2, 1, r=3)
        words = word_invariants(w, 3)
        for key, val in words.gamma.items():
            prod = RationalMatrix.identity(2)
            for letter in key:
                prod = prod @ w.A_list[letter - 1]
            assert val == w.C @ prod @ w.B

    def test_invariance_r2(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(1, 3)
            w = random_point(rng, n, rng.randint(1, 2), rng.randint(1, 2), r=2)
            g = random_invertible(rng, n)
            w2 = group_action(g, w)
            a, b = word_invariants(w, n), word_invariants(w2, n)
            assert a.tau == b.tau and a.gamma == b.gamma

    def test_cyclic_canonical(self):
        assert cyclic_canonical((2, 1, 1)) == (1, 1, 2)
        assert cyclic_canonical(()) == ()


def counting_square_products(monkeypatch, n):
    """A list that grows by one for every ``mat_mul`` call of n x n x n shape."""
    real, calls = _kernels.mat_mul, []

    def counted(a, m, k, b, p):
        if m == k == p == n:
            calls.append(1)
        return real(a, m, k, b, p)

    monkeypatch.setattr(_kernels, "mat_mul", counted)
    return calls


class TestHalfWordWork:
    """Only the half-words |u| <= ceil(max_len / 2) get a product of two n x n
    matrices; p, q < n, so no other product has that shape."""

    def test_square_products_stop_at_half_length(self, monkeypatch):
        rng = random.Random(74)
        for r, max_len in ((1, 7), (2, 4), (2, 5), (3, 3), (3, 4)):
            w = random_point(rng, 3, 2, 2, r)
            calls = counting_square_products(monkeypatch, 3)
            word_invariants(w, max_len)
            assert len(calls) <= sum(r**k for k in range(1, (max_len + 1) // 2 + 1))

    def test_limit_request(self, monkeypatch):
        # n = 32 and r = 2 at max_len 12: 8,190 words from at most
        # 2 + 4 + ... + 2^6 = 126 products of two 32 x 32 matrices
        rng = random.Random(75)
        w = random_point(rng, 32, 3, 3, r=2)

        def over(m, d):
            return RationalMatrix(m.rows, m.cols, [Fraction(x, d) for x in m.entries])

        a1, a2 = w.A_list
        w = Point(over(w.B, 3), over(w.C, 5), (over(a1, 2), a2))
        calls = counting_square_products(monkeypatch, 32)
        words = word_invariants(w, 12)
        assert len(calls) <= 126
        assert len(words.gamma) == 2**13 - 1
        monkeypatch.undo()
        for word in ((1,) * 12, (2,) * 12, (1, 2) * 6):
            prod = RationalMatrix.identity(32)
            for letter in word:
                prod = prod @ w.A_list[letter - 1]
            assert words.tau[word] == trace(prod)
            assert words.gamma[word] == w.C @ prod @ w.B


# ---------------------------------------------------------------------------
# differential: formal-epsilon oracle


class Dual:
    """a + b*eps with eps^2 = 0; exact rational dual numbers for the oracle."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        o = o if isinstance(o, Dual) else Dual(o)
        return Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __mul__(self, o):
        o = o if isinstance(o, Dual) else Dual(o)
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__


def dual_matmul(x, y):
    rows, inner, cols = len(x), len(y), len(y[0])
    return [
        [sum((x[i][t] * y[t][j] for t in range(inner)), Dual(0)) for j in range(cols)]
        for i in range(rows)
    ]


def dual_invariants(w, dw):
    """Invariants of w + eps*dw computed with dual numbers; independent path."""
    n = w.n

    def lift(m, dm):
        return [
            [Dual(m.entry(i, j), dm.entry(i, j)) for j in range(m.cols)]
            for i in range(m.rows)
        ]

    A = lift(w.A, dw.dA)
    B = lift(w.B, dw.dB)
    C = lift(w.C, dw.dC)
    taus = []
    gammas = []
    power = [[Dual(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n + 1):
        if k:
            power = dual_matmul(power, A)
            taus.append(sum((power[i][i] for i in range(n)), Dual(0)))
        if k < n:
            gk = dual_matmul(C, dual_matmul(power, B))
            gammas.append(gk)
    eps_tau = tuple(t.b for t in taus)
    eps_gamma = tuple(
        RationalMatrix.from_rows([[e.b for e in row] for row in g]) for g in gammas
    )
    return eps_tau, eps_gamma


class TestDifferential:
    def test_zero_direction(self):
        rng = random.Random(11)
        w = random_point(rng, 3, 2, 2)
        zero = TangentVector(
            RationalMatrix.zeros(3, 2),
            RationalMatrix.zeros(2, 3),
            RationalMatrix.zeros(3, 3),
        )
        assert differential(w, zero).is_zero()

    def test_at_zero_point(self):
        # evaluating the formulas at w = 0: only d tau_1 = trace(dA) survives
        rng = random.Random(12)
        w = zero_point(3, 2, 1)
        dw = TangentVector(
            random_matrix(rng, 3, 2),
            random_matrix(rng, 1, 3),
            random_matrix(rng, 3, 3),
        )
        dv = differential(w, dw)
        assert dv.tau[0] == trace(dw.dA)
        assert all(t == 0 for t in dv.tau[1:])
        assert all(g.is_zero() for g in dv.gamma)

    def test_formal_epsilon_oracle(self):
        rng = random.Random(13)
        for _ in range(20):
            n, p, q = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
            w = random_point(rng, n, p, q, bound=5)
            dw = TangentVector(
                random_matrix(rng, n, p, 5),
                random_matrix(rng, q, n, 5),
                random_matrix(rng, n, n, 5),
            )
            got = differential(w, dw)
            eps_tau, eps_gamma = dual_invariants(w, dw)
            assert got.tau == eps_tau
            assert got.gamma == eps_gamma

    def test_linearity(self):
        rng = random.Random(14)
        w = random_point(rng, 2, 2, 2, bound=5)

        def rnd():
            return TangentVector(
                random_matrix(rng, 2, 2, 5),
                random_matrix(rng, 2, 2, 5),
                random_matrix(rng, 2, 2, 5),
            )

        d1, d2 = rnd(), rnd()
        s = TangentVector(d1.dB + d2.dB.scale(3), d1.dC + d2.dC.scale(3), d1.dA + d2.dA.scale(3))
        lhs = differential(w, s)
        a, b = differential(w, d1), differential(w, d2)
        assert lhs.tau == tuple(x + 3 * y for x, y in zip(a.tau, b.tau))
        for m, x, y in zip(lhs.gamma, a.gamma, b.gamma):
            assert m == x + y.scale(3)


class TestJacobian:
    def test_rank_at_origin(self):
        # only the trace row survives at zero
        assert jacobian_rank(zero_point(2, 1, 1)) == 1
        assert jacobian_rank(zero_point(3, 2, 2)) == 1

    def test_generic_rank_small(self):
        # distinct eigenvalues, fully supported B and C
        assert jacobian_rank(DIAG_POINT) == 4

    def test_generic_rank_n3(self):
        rng = random.Random(15)
        hits = 0
        for _ in range(10):
            w = random_point(rng, 3, 2, 1)
            r = jacobian_rank(w)
            assert r <= min(9 + 6 + 3, 3 + 3 * 2 * 1)
            hits += r == 9
        assert hits >= 9

    def test_matrix_matches_differential(self):
        rng = random.Random(16)
        for _ in range(10):
            n, p, q = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            w = random_point(rng, n, p, q, bound=6)
            jm = differential_jacobian_matrix(w)
            dw = TangentVector(
                random_matrix(rng, n, p, 6),
                random_matrix(rng, q, n, 6),
                random_matrix(rng, n, n, 6),
            )
            vec = list(dw.dA.entries) + list(dw.dB.entries) + list(dw.dC.entries)
            out = jm @ RationalMatrix.column(vec)
            dv = differential(w, dw)
            expected = list(dv.tau)
            for g in dv.gamma:
                expected.extend(g.entries)
            assert out.col_list(0) == [x for x in expected]


# ---------------------------------------------------------------------------
# the quotient map on one cleared integer point


def cleared_path_points(rng, r, count, max_n=4):
    """Points of four kinds, in turn: moved by a rational g, rational with
    large denominators, the same with a zero B or C (scale 1), integral."""

    def big(m):
        e = [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
             for _ in m.entries]
        return RationalMatrix(m.rows, m.cols, e)

    for trial in range(count):
        n, p, q = rng.randint(1, max_n), rng.randint(1, 3), rng.randint(1, 3)
        w = random_point(rng, n, p, q, r)
        kind = trial % 4
        if kind == 0:
            g = random_invertible(rng, n).scale(Fraction(rng.randint(1, 9), 7))
            g = g + RationalMatrix.identity(n).scale(Fraction(1, rng.randint(2, 11)))
            if g.rank() == n:
                w = group_action(g, w)
        elif kind in (1, 2):
            b, c = big(w.B), big(w.C)
            if kind == 2:
                if trial % 8 == 2:
                    b = RationalMatrix.zeros(n, p)
                else:
                    c = RationalMatrix.zeros(q, n)
            w = Point(b, c, [big(a) for a in w.A_list])
        yield w


def canonical(values):
    return all(type(x) is int or x.denominator != 1 for x in values)


class TestClearedIntegerPath:
    def test_invariants_match_fraction_reference(self):
        rng = random.Random(71)
        kinds = [0, 0]  # points with some denominator, integral points
        for w in cleared_path_points(rng, 1, 80):
            iv = evaluate_invariants(w)
            assert iv == fraction_invariants(w)
            assert iv.to_json_obj() == fraction_invariants(w).to_json_obj()
            assert canonical(iv.tau)
            assert all(canonical(g.entries) for g in iv.gamma)
            kinds[all(type(x) is int for x in w.A.entries)] += 1
        assert min(kinds) >= 15

    def test_word_invariants_match_fraction_reference(self):
        rng = random.Random(72)
        # (2, 4, 3) splits into equal halves, (2, 5, 3) into unequal ones and
        # (3, 3, 2) into two nonempty halves in three letters
        for r, max_len, max_n in (
            (1, 7, 4), (2, 3, 3), (3, 2, 3), (2, 4, 3), (2, 5, 3), (3, 3, 2),
        ):
            for w in cleared_path_points(rng, r, 24, max_n):
                words = word_invariants(w, max_len)
                tau, gamma = fraction_word_invariants(w, max_len)
                assert words.tau == tau and words.gamma == gamma
                assert list(words.tau) == list(tau)
                assert list(words.gamma) == list(gamma)
                assert canonical(words.tau.values())
                assert all(canonical(g.entries) for g in words.gamma.values())

    def test_jacobian_rank_is_the_rank_at_the_uncleared_point(self):
        rng = random.Random(73)
        ranks = set()
        for w in cleared_path_points(rng, 1, 40):
            rank = jacobian_rank(w)
            assert rank == exact_jacobian_rank(w)
            ranks.add(rank)
        assert len(ranks) > 3

    def test_random_move_is_the_action_of_a_random_invertible(self):
        # the same point, entry types and draws as group_action of the g
        # that random_invertible draws, on rational points with r <= 3; at
        # bound 2 some first draws of g are singular and drawn again
        def types(w):
            return [type(x) for m in (w.B, w.C, *w.A_list) for x in m.entries]

        moved = 0
        for r in (1, 2, 3):
            for w in cleared_path_points(random.Random(70 + r), r, 20):
                for seed in range(3):
                    rng, oracle_rng = random.Random(seed), random.Random(seed)
                    got = sampling.random_move(rng, w, bound=2)
                    g = sampling.random_invertible(oracle_rng, w.n, 2)
                    want = group_action(g, w)
                    assert got == want and types(got) == types(want)
                    assert rng.getstate() == oracle_rng.getstate()
                    moved += got != w
        assert moved >= 150


# ---------------------------------------------------------------------------
# the certified Jacobian rank


class Spy:
    """A callable that counts its calls, keeps the last result and forwards
    them."""

    def __init__(self, fn):
        self.fn, self.calls, self.result = fn, 0, None

    def __call__(self, *args):
        self.calls += 1
        self.result = self.fn(*args)
        return self.result


def scaled(w, s):
    return Point(w.B.scale(s), w.C.scale(s), tuple(a.scale(s) for a in w.A_list))


def certificate_points(rng):
    """(kind, point): coregular p = 1 or q = 1; generic p, q >= 2;
    non-controllable (B = 0, a U_k point with nilpotent A and k < n, the
    pinned family)."""
    for t in range(90):
        n = rng.randint(1, 4)
        kind = ("coregular", "generic", "non-controllable")[t % 3]
        if kind == "coregular":
            p, q = rng.choice(((1, rng.randint(1, 3)), (rng.randint(1, 3), 1)))
            yield kind, random_point(rng, n, p, q)
        elif kind == "generic":
            yield kind, random_point(rng, n, rng.randint(2, 3), rng.randint(2, 3))
        else:
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            if t % 9 == 2:
                w = random_point(rng, n, p, q)
                yield kind, Point(RationalMatrix.zeros(n, p), w.C, w.A_list)
            elif t % 9 == 5:
                yield kind, random_unstable_point(rng, n, p, q, rng.randint(0, n - 1))
            else:
                n = rng.randint(2, 5)
                k = rng.randint((n + 1) // 2, n - 1)
                yield kind, pinned_row_witness(n, p, q, k, seed=t)


SPLIT_FAMILIES = (
    "generic", "b0 = 0", "c0 = 0", "scalar A", "derogatory A", "B = 0",
    "C = 0", "rank-one C", "scaled by PRIME", "g-moved", "U_k", "pinned",
)


def split_points(rng, per_family=30):
    """(family, point) for every family of ``SPLIT_FAMILIES`` in turn:
    generic integer points and the degenerate families of the split bound
    (B's first column or C's first row zero, A scalar or with a repeated
    eigenvalue in two Jordan blocks, B or C zero, C of rank one, every
    entry a multiple of ``PRIME``, rational points moved by g, null-cone
    points), n <= 4 and p, q <= 3."""
    for t in range(per_family * len(SPLIT_FAMILIES)):
        family = SPLIT_FAMILIES[t % len(SPLIT_FAMILIES)]
        n, p, q = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
        if family in ("derogatory A", "pinned"):
            n = max(n, 2)
        w = random_point(rng, n, p, q)
        b, c, a = w.B.to_rows(), w.C.to_rows(), w.A
        if family == "b0 = 0":
            b = [[0] + row[1:] for row in b]
        elif family == "c0 = 0":
            c[0] = [0] * n
        elif family == "scalar A":
            a = RationalMatrix.identity(n).scale(rng.randint(-3, 3))
        elif family == "derogatory A":
            d = [rng.randint(-4, 4) for _ in range(n)]
            d[1] = d[0]
            g = random_invertible(rng, n)
            a = group_action(g, Point(w.B, w.C, (RationalMatrix.diagonal(d),))).A
        elif family == "B = 0":
            b = [[0] * p for _ in range(n)]
        elif family == "C = 0":
            c = [[0] * n for _ in range(q)]
        elif family == "rank-one C":
            c = [[x * y for y in c[0]] for x in range(1, max(q, 2) + 1)]
        elif family == "scaled by PRIME":
            w = scaled(w, PRIME)
        elif family == "g-moved":
            g = random_invertible(rng, n).scale(Fraction(1, rng.randint(2, 9)))
            w = group_action(g, w)
        elif family == "U_k":
            w = random_unstable_point(rng, n, p, q, rng.randint(0, n))
        elif family == "pinned":
            w = pinned_row_witness(n, p, q, rng.randint((n + 1) // 2, n), seed=t)
        if family in ("scaled by PRIME", "g-moved", "U_k", "pinned"):
            yield family, w
        else:
            yield family, Point(RM(b), RM(c), (a,))


def split_blocks(w):
    """(K, O, T_A, G) of ``_split_bound`` for w itself: the Krylov matrices
    [b_0, A b_0, ...] and [c_0; c_0 A; ...] by Fraction products, and T_A
    and G sliced out of ``differential_jacobian_matrix(w)``."""
    n, p, q = w.n, w.p, w.q
    powers = matrix_powers(w.A, n - 1)
    b0 = RationalMatrix.column(w.B.col_list(0))
    c0 = RationalMatrix(1, n, w.C.row_list(0))
    k = RationalMatrix.hstack([m @ b0 for m in powers])
    o = RationalMatrix.vstack([c0 @ m for m in powers])
    rows = differential_jacobian_matrix(w).to_rows()
    t_a = RM([row[: n * n] for row in rows[:n]])
    picked = [(kk, 0, j) for kk in range(n) for j in range(p)]
    picked += [(kk, i, 0) for kk in range(n) for i in range(1, q)]
    g = RM([rows[n + (kk * q + i) * p + j][n * n :] for kk, i, j in picked])
    return k, o, t_a, g


class TestJacobianRankCertificate:
    def test_matches_the_exact_rank_on_every_branch(self, monkeypatch):
        # the split path builds, checks and eliminates nothing; on the
        # fallback J is built once, and its rank is returned at once
        # ("full"), certified by J T = 0 or eliminated exactly
        bound = Spy(invariants._split_bound)
        entries = Spy(invariants._jacobian_entries)
        tangents = Spy(invariants._check_orbit_tangents)
        exact = Spy(_kernels.rank_int)
        monkeypatch.setattr(invariants, "_split_bound", bound)
        monkeypatch.setattr(invariants, "_jacobian_entries", entries)
        monkeypatch.setattr(invariants, "_check_orbit_tangents", tangents)
        monkeypatch.setattr(_kernels, "rank_int", exact)
        branches = {}
        for kind, w in certificate_points(random.Random(74)):
            before = entries.calls, tangents.calls, exact.calls
            rank = jacobian_rank(w)
            built, checked, eliminated = (
                x.calls - y for x, y in zip((entries, tangents, exact), before))
            if bound.result:
                branch = "split"
                assert built == checked == eliminated == 0
            else:
                branch = ("exact" if eliminated else
                          "certified" if checked else "full")
                assert built == 1 and checked + eliminated <= 1
            assert rank == exact_jacobian_rank(w)
            branches.setdefault(kind, set()).add(branch)
        assert branches["coregular"] == {"split"}
        assert branches["generic"] == {"split", "certified"}
        assert "exact" in branches["non-controllable"]
        assert not {"split", "certified"} & branches["non-controllable"]

    def test_split_bound_on_the_degenerate_families(self, monkeypatch):
        # the rank is exact on every family; the split bound certifies it
        # alone, for every p and q, and J is never built there; otherwise
        # J is built once and its rank returned, certified by J T = 0 on
        # those entries, or eliminated exactly
        bound = Spy(invariants._split_bound)
        entries = Spy(invariants._jacobian_entries)
        tangents = Spy(invariants._check_orbit_tangents)
        exact = Spy(_kernels.rank_int)
        monkeypatch.setattr(invariants, "_split_bound", bound)
        monkeypatch.setattr(invariants, "_jacobian_entries", entries)
        monkeypatch.setattr(invariants, "_check_orbit_tangents", tangents)
        monkeypatch.setattr(_kernels, "rank_int", exact)
        branches, seen = {}, set()
        for family, w in split_points(random.Random(79)):
            before = entries.calls, tangents.calls, exact.calls
            rank = jacobian_rank(w)
            built, checked, eliminated = (
                x.calls - y for x, y in zip((entries, tangents, exact), before))
            if bound.result:
                branch = "split, p, q >= 2" if w.p > 1 and w.q > 1 else "split"
                assert built == checked == 0
            else:
                branch = ("fallback, exact" if eliminated else
                          "fallback, tangents" if checked else "fallback")
                assert built == 1
            assert eliminated == (branch == "fallback, exact")
            assert rank == exact_jacobian_rank(w), (family, w)
            branches[branch] = branches.get(branch, 0) + 1
            seen.add(family)
        assert seen == set(SPLIT_FAMILIES)
        assert all(branches.get(branch, 0) >= 10 for branch in (
            "split", "split, p, q >= 2", "fallback", "fallback, tangents",
            "fallback, exact")), branches

    def test_the_oracle_guards_the_split_path(self, monkeypatch):
        # nothing is checked at run time on the split path, so these tests
        # are what guard it: a split bound that always held would answer
        # n(p + q) where the rank is lower (B = 0, scalar A, ...), and the
        # oracle must see that; with the bound never holding, the fallback
        # alone must still give the exact rank on every family
        points = list(split_points(random.Random(87), per_family=5))
        ranks = [exact_jacobian_rank(w) for _, w in points]
        monkeypatch.setattr(invariants, "_split_bound", lambda *args: True)
        wrong = {family for (family, w), rank in zip(points, ranks)
                 if jacobian_rank(w) != rank}
        assert {"B = 0", "scalar A"} <= wrong, wrong
        monkeypatch.setattr(invariants, "_split_bound", lambda *args: False)
        assert [jacobian_rank(w) for _, w in points] == ranks

    @pytest.mark.parametrize("b, c", [
        ([[1, 0], [0, 1]], [[1, 1], [1, 0]]),  # b_0 an eigenvector of A
        ([[1, 1], [1, 0]], [[1, 0], [0, 1]]),  # c_0 an eigenvector of A
    ], ids=["b0-eigenvector", "c0-eigenvector"])
    def test_split_bound_reads_the_krylov_matrices_of_b0_and_c0(self, b, c):
        # ctrl and obs have rank 2 on both points, but the Krylov matrix of
        # b_0 (of c_0) is singular, so a bound read off other rows than
        # theirs would claim the split where it does not hold
        w = Point(RM(b), RM(c), (RationalMatrix.diagonal([1, 2]),))
        obs, ctrl = _observability(w.A, w.C), _controllability(w.A, w.B)
        assert obs.rank() == ctrl.rank() == 2
        assert not invariants._split_bound(w)
        assert jacobian_rank(w) == exact_jacobian_rank(w) == 8

    def test_split_bound_holds_on_the_blocks_of_the_jacobian(self):
        # the bound holds when K and, for p >= 2, O have rank n, which mod
        # PRIME is their rank over Q on these small points and fails on the
        # points scaled by PRIME; then T_A and G, sliced out of J itself,
        # have the full ranks n and n(p + q - 1) that the block argument
        # claims, and rank T_A + rank G <= rank J holds everywhere
        rng = random.Random(80)
        counts = {"reached": 0, "missed": 0, "missed on O alone": 0}
        for family, w in split_points(rng, per_family=12):
            n, p, q = w.n, w.p, w.q
            wi = invariants._integer_rescaled_point(w)[0]
            got = invariants._split_bound(wi)
            k, o, t_a, g = split_blocks(w)
            cyclic = k.rank() == n and (p == 1 or o.rank() == n)
            assert got == (cyclic and family != "scaled by PRIME"), (family, w)
            assert k.rank() <= t_a.rank()
            assert t_a.rank() + g.rank() <= exact_jacobian_rank(w)
            if got:
                assert (t_a.rank(), g.rank()) == (n, n * (p + q - 1))
            counts["reached" if got else "missed"] += 1
            counts["missed on O alone"] += p > 1 and k.rank() == n > o.rank()
        assert min(counts.values()) >= 10, counts

    def test_point_scaled_by_the_prime_takes_the_exact_path(self, monkeypatch):
        # mod p only the tau_1 row of the scaled point survives
        exact = Spy(_kernels.rank_int)
        monkeypatch.setattr(_kernels, "rank_int", exact)
        rng = random.Random(75)
        for n, p, q in ((2, 1, 1), (3, 2, 2), (3, 1, 3), (4, 3, 2)):
            w = random_point(rng, n, p, q)
            big = scaled(w, PRIME)
            rows = differential_jacobian_matrix(big).to_rows()
            assert rank_mod_prime(rows, len(rows[0])) == 1
            calls = exact.calls
            assert jacobian_rank(big) == jacobian_rank(w) == n * (p + q)
            assert exact.calls == calls + 1

    def test_sign_flip_in_the_dB_block_is_caught(self, monkeypatch):
        # with b_0 = 0 the split bound fails, but the point is controllable
        # and J has rank cols - n^2 mod PRIME, so the tangent check runs on
        # the J that was ranked.  Negating its dB columns keeps that rank,
        # and the check fails on the dB part of the tangents
        entries = invariants._jacobian_entries

        def flipped(wi, obs, ctrl):
            ncols = wi.n * (wi.n + wi.p + wi.q)
            dB = range(wi.n * wi.n, wi.n * wi.n + wi.n * wi.p)
            return [-x if t % ncols in dB else x
                    for t, x in enumerate(entries(wi, obs, ctrl))]

        rng = random.Random(76)
        for n, p, q in ((2, 2, 2), (3, 2, 3), (4, 3, 2)):
            w = random_point(rng, n, p, q)
            w = Point(RM([[0] + row[1:] for row in w.B.to_rows()]), w.C, w.A_list)
            obs, ctrl = _observability(w.A, w.C), _controllability(w.A, w.B)
            ncols = n * (n + p + q)
            e = flipped(w, obs, ctrl)
            rows = [e[i : i + ncols] for i in range(0, len(e), ncols)]
            assert not invariants._split_bound(w)
            assert rank_mod_prime(rows, ncols) == n * (p + q)
            assert rank_mod_prime(ctrl.to_rows(), n) == n
            assert jacobian_rank(w) == n * (p + q)
            with monkeypatch.context() as m:
                m.setattr(invariants, "_jacobian_entries", flipped)
                with pytest.raises(AssertionError, match="annihilate"):
                    jacobian_rank(w)

    def test_prime_multiple_fault_in_j_changes_no_answer(self, monkeypatch):
        # adding p to an entry of a dB column of J leaves J unchanged mod p
        # but can raise its rank over Q.  The split path never builds J, so
        # the fault changes nothing there; the fallback ranks the faulted J
        # mod p and then checks J T = 0 on those very entries, which fails,
        # so no answer is returned from it
        rng = random.Random(77)
        generic, base = random_point(rng, 3, 2, 2), random_point(rng, 3, 2, 2)
        b0_zero = Point(RM([[0, x] for x in base.B.col_list(1)]), base.C, base.A_list)
        faulted = {}
        for w in (generic, b0_zero):
            rows = differential_jacobian_matrix(w).to_rows()
            ncols = len(rows[0])
            rank = exact_jacobian_rank(w)
            assert rank == 3 * (2 + 2)
            for i, col in itertools.product(range(len(rows)), range(9, 15)):  # dB
                rows[i][col] += PRIME
                if _kernels.rank_int(rows, ncols) > rank:
                    break
                rows[i][col] -= PRIME
            assert rank_mod_prime(rows, ncols) == rank
            assert _kernels.rank_int(rows, ncols) == rank + 1
            faulted[w] = [x for row in rows for x in row]
        entries = Spy(lambda wi, obs, ctrl: faulted[wi])
        exact = Spy(_kernels.rank_int)
        monkeypatch.setattr(invariants, "_jacobian_entries", entries)
        monkeypatch.setattr(_kernels, "rank_int", exact)
        assert jacobian_rank(generic) == 3 * (2 + 2)
        assert entries.calls == 0
        with pytest.raises(AssertionError, match=r"annihilate .*X_\(0, 0\)"):
            jacobian_rank(b0_zero)
        assert entries.calls == 1
        assert exact.calls == 0

    def test_tangent_check_is_not_trusted_at_a_non_controllable_point(
            self, monkeypatch):
        # at B = C = 0 the stabilizer is the centralizer of A, so T is not
        # injective and J T = 0 allows rank J > cols - n^2: a J of rank
        # cols - n^2 mod PRIME but one more over Q, with J T = 0, must go
        # to the exact elimination, not to the tangent certificate
        n, p, q = 2, 2, 2
        w = Point(RationalMatrix.zeros(n, p), RationalMatrix.zeros(q, n),
                  (RM([[1, 2], [3, 4]]),))
        eqs = action_equations(w)
        nb, nc = n * p, n * p + q * n
        # T in the Jacobian's column order dA, dB, dC, the C block negated
        tangents = eqs[nc:] + eqs[:nb] + [[-x for x in row] for row in eqs[nb:nc]]
        annihilator = kernel_subspace(RationalMatrix.from_rows(tangents).T)
        full = n * (p + q)
        rows = [list(v) for v in annihilator._rows[: full + 1]]
        rows[full] = [PRIME * x for x in rows[full]]
        rows.append([0] * len(rows[0]))
        ncols = len(rows[0])
        assert rank_mod_prime(rows, ncols) == full
        assert _kernels.rank_int(rows, ncols) == full + 1
        bad = [x for row in rows for x in row]
        monkeypatch.setattr(invariants, "_jacobian_entries", lambda *args: bad)
        tangent_check = Spy(invariants._check_orbit_tangents)
        monkeypatch.setattr(invariants, "_check_orbit_tangents", tangent_check)
        assert jacobian_rank(w) == full + 1
        assert tangent_check.calls == 0

    def test_jacobian_matrix_matches_the_differential_exactly(self):
        # the entries that jacobian_rank eliminates, at the cleared integer
        # point of each rational point of the cleared-path tests and of
        # every split family, are the differential's, entry by entry and
        # type by type, and J t is the differential along a random integer
        # direction t
        rng = random.Random(78)
        points = list(cleared_path_points(rng, 1, 24, max_n=3))
        points += [w for _, w in split_points(rng, per_family=3)]
        for w in points:
            wi = invariants._integer_rescaled_point(w)[0]
            n, p, q = w.n, w.p, w.q
            nn, np_, ncols = n * n, n * p, n * (n + p + q)
            entries = invariants._jacobian_entries(
                wi, _observability(wi.A, wi.C), _controllability(wi.A, wi.B))
            jac = RationalMatrix(n + n * q * p, ncols, entries)
            ref = differential_jacobian_matrix(wi)
            assert jac == ref
            assert [type(x) for x in jac.entries] == [type(x) for x in ref.entries]
            t = [rng.randint(-50, 50) for _ in range(ncols)]
            along = differential(wi, TangentVector(
                RationalMatrix(n, p, t[nn : nn + np_]),
                RationalMatrix(q, n, t[nn + np_ :]),
                RationalMatrix(n, n, t[:nn])))
            jt = [sum(u * v for u, v in zip(entries[r : r + ncols], t))
                  for r in range(0, len(entries), ncols)]
            assert jt == list(along.tau) + [v for g in along.gamma for v in g.entries]

    def test_the_oracle_sees_a_zeroed_column(self, monkeypatch):
        # C_n points (C = 0 up to the action) outside the split bound go to
        # the exact elimination, and there the Gamma rows of J live on the
        # dC columns alone: with the last dC column of _jacobian_entries
        # zeroed, jacobian_rank answers a wrong rank on some of them.  The
        # oracle builds J from ``differential`` alone, so it must disagree
        rng = random.Random(3)
        points = []
        while len(points) < 12:
            n, p, q = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3)
            w = sample_component(n, p, q, n, rng.randrange(2**32))
            wi = invariants._integer_rescaled_point(w)[0]
            if not invariants._split_bound(wi):
                points.append(w)
        assert all(jacobian_rank(w) == exact_jacobian_rank(w) for w in points)
        entries = invariants._jacobian_entries

        def zeroed(wi, obs, ctrl):
            ncols = wi.n * (wi.n + wi.p + wi.q)
            return [0 if t % ncols == ncols - 1 else x
                    for t, x in enumerate(entries(wi, obs, ctrl))]

        monkeypatch.setattr(invariants, "_jacobian_entries", zeroed)
        assert any(jacobian_rank(w) != exact_jacobian_rank(w) for w in points)

    def test_field_width_covers_the_sum_over_the_columns(self):
        # J built from these obs and ctrl has J T_X, X = E_00, zero on
        # every row but Gamma_3, where it is -64, a sum over the columns of
        # J.  A width without the column count, bitlen(max|J| max|T|) + 1 =
        # 6 bits, would carry -2^6 into the field of X_(0, 1) and name that X
        n = 4
        a = RM([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        w = Point(RM([[-2], [0], [0], [0]]), RM([[-2, 0, 0, 0]]), (a,))
        obs = RM([[-1, -1, -1, -1], [-1, 1, 1, 1], [-1, -1, -1, -1], [-1, 0, 0, 0]])
        ctrl = RM([[-1, 5, 4, 0], [5, 1, 0, 0], [-5, 5, 5, 3], [-5, 0, 0, 0]])
        ncols = n * (n + 2)  # p = q = 1
        e = invariants._jacobian_entries(w, obs, ctrl)
        assert max(map(abs, e)) == 12
        t = [row[0] for row in invariants._orbit_tangent_rows(w)]  # T of E_00
        assert max(map(abs, t)) == 2
        assert [sum(x * y for x, y in zip(e[r : r + ncols], t))
                for r in range(0, len(e), ncols)] == [0] * 7 + [-(2**6)]
        assert first_unannihilated_tangent(w, e, ncols) == (0, 0)
        with pytest.raises(AssertionError, match=r"annihilate .*X_\(0, 0\)"):
            invariants._check_orbit_tangents(w, e, ncols)

    def test_packed_check_names_the_first_x_the_oracle_finds(self):
        # 0-3 faults of +-1, +-7 or +-2^k (k <= 200) in J at random
        # integer points: the packed check raises exactly when some J T_X
        # is nonzero, and names the first such X
        rng = random.Random(81)
        raised = 0
        for _ in range(300):
            n, p, q = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
            wi = random_point(rng, n, p, q, bound=rng.choice((1, 10, 1000)))
            ncols = n * (n + p + q)
            e = invariants._jacobian_entries(
                wi, _observability(wi.A, wi.C), _controllability(wi.A, wi.B))
            for _ in range(rng.randint(0, 3)):
                fault = rng.choice((1, 7, 1 << rng.randint(0, 200)))
                e[rng.randrange(len(e))] += rng.choice((fault, -fault))
            x = first_unannihilated_tangent(wi, e, ncols)
            if x is None:
                invariants._check_orbit_tangents(wi, e, ncols)
                continue
            with pytest.raises(AssertionError,
                               match=rf"annihilate .*X_\({x[0]}, {x[1]}\)$"):
                invariants._check_orbit_tangents(wi, e, ncols)
            raised += 1
        assert 100 <= raised <= 280, raised

    def test_shifted_tangent_matches_the_matrix_products(self):
        # the tangent by packed rows and columns and shifts equals the one
        # from matrix products at the packed X, on cleared rational points
        # with negative entries, at the widths both callers use and at
        # narrower ones, where the fields overlap
        rng = random.Random(86)
        points = list(cleared_path_points(rng, 1, 80, max_n=5))
        points += [w for _, w in split_points(rng, per_family=3)]
        negative = 0
        for w in points:
            wi = invariants._integer_rescaled_point(w)[0]
            entries = wi.B.entries + wi.C.entries + wi.A.entries
            negative += min(entries) < 0
            top = max(max(map(abs, entries)), 1)
            for f in (1, 2, 5, 2 * top.bit_length() + 2):
                assert invariants._orbit_tangent(wi, f) == packed_orbit_tangent(wi, f)
        assert negative >= len(points) // 2

    def test_tangent_rows_are_the_action_equations(self):
        # the decoded rows of T are the oracle's rows in J's order, dA, dB,
        # dC, with the C block negated; at B = C = 0, A = diag(1, -1), the
        # row of [X, A]_10 is [0, 0, 2, 0], which a width of
        # bitlen(max(|B|, |C|, |A|)) + 1 would decode as [0, 0, -2, 1]
        rng = random.Random(84)
        points = [Point(RationalMatrix.zeros(2, 1), RationalMatrix.zeros(1, 2),
                        (RationalMatrix.diagonal([1, -1]),))]
        for _ in range(120):
            n, p, q = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
            points.append(random_point(rng, n, p, q,
                                       bound=rng.choice((1, 10, 2**100, 2**200))))
        for wi in points:
            eqs = action_equations(wi)
            nb, nc = wi.n * wi.p, wi.n * (wi.p + wi.q)
            tangents = eqs[nc:] + eqs[:nb] + [[-x for x in row] for row in eqs[nb:nc]]
            assert invariants._orbit_tangent_rows(wi) == tangents
        assert invariants._orbit_tangent_rows(points[0])[2] == [0, 0, 2, 0]


class TestKrylovShortcut:
    """jacobian_rank and stabilizer decide a point whose b_0 (and, for the
    Jacobian with p >= 2, c_0) is cyclic from those Krylov matrices alone;
    obs, ctrl and J are built only where a later step reads them."""

    BUILDERS = (
        (invariants, "_observability"), (invariants, "_controllability"),
        (invariants, "_jacobian_entries"), (orbits, "_controllability"),
        (orbits, "_observability"),
    )

    def spies(self, monkeypatch):
        spies = {}
        for module, name in self.BUILDERS:
            spies[module.__name__.split(".")[-1], name] = spy = Spy(
                getattr(module, name))
            monkeypatch.setattr(module, name, spy)
        return spies

    def test_generic_points_build_no_kalman_matrix(self, monkeypatch):
        # where the Krylov matrix of b_0 (for the Jacobian with p >= 2 also
        # that of c_0, Fraction products here) has rank n, which is almost
        # every generic point, no builder runs in either function.  Else,
        # as on every b_0 = 0 and scalar-A (n >= 2) point: jacobian_rank
        # builds obs, ctrl and J, and stabilizer builds ctrl, then obs
        # exactly when ctrl has rank below n
        spies = self.spies(monkeypatch)
        counts = {"generic, nothing built": 0, "b0 not cyclic": 0,
                  "stabilizer builds obs": 0}
        for family, w in split_points(random.Random(88)):
            if family not in ("generic", "b0 = 0", "scalar A") or (
                    family == "scalar A" and w.n == 1):
                continue
            n, p = w.n, w.p
            k = controllability_blocks(w.A, RationalMatrix.column(w.B.col_list(0)))
            o = observability_blocks(w.A, RationalMatrix(1, n, w.C.row_list(0)))
            cyclic = k.rank() == n
            assert not cyclic or family == "generic"
            before = {key: spy.calls for key, spy in spies.items()}
            assert jacobian_rank(w) == exact_jacobian_rank(w)
            built = {key: spy.calls - before[key] for key, spy in spies.items()}
            if cyclic and (p == 1 or o.rank() == n):
                assert not any(built.values()), (w, built)
            else:
                assert built["invariants", "_observability"] >= 1
                assert built["invariants", "_controllability"] == 1
                assert built["invariants", "_jacobian_entries"] == 1
            before = {key: spy.calls for key, spy in spies.items()}
            report = stabilizer(w)
            built = {key: spy.calls - before[key] for key, spy in spies.items()}
            if cyclic:
                assert not any(built.values()), (w, built)
                assert report.stab_dim == 0
                counts["generic, nothing built"] += family == "generic"
            else:
                full = controllability_blocks(w.A, w.B).rank() == n
                assert built["orbits", "_controllability"] == 1
                assert built["orbits", "_observability"] == (not full)
                counts["b0 not cyclic"] += 1
                counts["stabilizer builds obs"] += not full
        assert min(counts.values()) >= 20, counts

    @pytest.mark.parametrize("eigenvalue", [0, 3])
    def test_jordan_block_with_cyclic_b0(self, monkeypatch, eigenvalue):
        # n = 2, p = q = 1, B = e_1, C = e_0^T, A a Jordan block: A is not
        # semisimple, but b_0 is cyclic (K = [e_1, e_0]), so the stabilizer
        # is 0 and the Jacobian has rank n(p + q) = 4, both read off K with
        # no obs or ctrl built
        w = Point(RM([[0], [1]]), RM([[1, 0]]), (RM([[eigenvalue, 1], [0, eigenvalue]]),))
        assert not is_regular_semisimple(w.A)
        spies = self.spies(monkeypatch)
        assert stabilizer(w).stab_dim == 0
        assert jacobian_rank(w) == 4 == exact_jacobian_rank(w)
        assert not any(spy.calls for spy in spies.values())


# ---------------------------------------------------------------------------
# psi map


class TestPsiMap:
    def test_zero_matrices(self):
        t = [1, 2, 3]
        xs = [RationalMatrix.zeros(2, 2)] * 3
        iv = psi_map(t, xs)
        assert iv.tau == (6, 14, 36)
        assert all(g.is_zero() for g in iv.gamma)

    def test_agrees_with_evaluate_example(self):
        iv = psi_map([1, 2], [RM([[1]]), RM([[1]])])
        assert iv == evaluate_invariants(DIAG_POINT)

    def test_symmetric_group_invariance(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            t = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            xs = []
            for _ in range(n):
                c = random_matrix(rng, 2, 1, 4)
                b = random_matrix(rng, 1, 2, 4)
                xs.append(c @ b)
            base = psi_map(t, xs)
            for perm in itertools.permutations(range(n)):
                assert psi_map([t[i] for i in perm], [xs[i] for i in perm]) == base

    def test_rank_two_rejected(self):
        with pytest.raises(FiberConditionError,
                           match="matrix of rank >= 2 is outside the image"):
            psi_map([1, 2], [RationalMatrix.identity(2), RationalMatrix.zeros(2, 2)])

    def test_matrices_checked_in_order(self):
        # the first bad matrix decides the error, repeated ones included
        one, two = RM([[1, 0], [0, 0]]), RationalMatrix.identity(2)
        with pytest.raises(ShapeError):
            psi_map([1, 2, 3], [one, RationalMatrix.zeros(2, 3), two])
        with pytest.raises(FiberConditionError):
            psi_map([1, 2, 3], [one, two, RationalMatrix.zeros(2, 3)])
        with pytest.raises(FiberConditionError):
            psi_map([1, 2, 3], [one, one, two])

    def test_each_distinct_summand_ranked_once(self, monkeypatch):
        ranked, rank = [], invariants.rank_one_pivot
        monkeypatch.setattr(
            invariants, "rank_one_pivot", lambda m: ranked.append(m) or rank(m))
        nonclosed_image_demo(4, RM([[1, 2], [3, 6]]), Fraction(1, 10))
        assert len(ranked) == 1
        psi_map([1, 2, 3], [RM([[1, 0]]), RM([[0, 1]]), RM([[1, 0]])])
        assert ranked[1:] == [RM([[1, 0]]), RM([[0, 1]])]


# ---------------------------------------------------------------------------
# Kalman matrices from the integer Krylov builder


class TestKalmanMatrices:
    def test_match_block_products(self):
        # entry for entry against hstack/vstack of Fraction products,
        # integer and rational inputs alike
        rng = random.Random(29)
        for _ in range(40):
            n, p, q = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
            dens = [rng.choice((1, 1, 2, 3, 10)) for _ in range(3)]
            a = random_matrix(rng, n, n, 6).scale(Fraction(1, dens[0]))
            b = random_matrix(rng, n, p, 6).scale(Fraction(1, dens[1]))
            c = random_matrix(rng, q, n, 6).scale(Fraction(1, dens[2]))
            ctrl, obs = _controllability(a, b), _observability(a, c)
            assert ctrl == controllability_blocks(a, b).T
            assert obs == observability_blocks(a, c)
            assert (ctrl.shape, obs.shape) == ((n * p, n), (n * q, n))


# ---------------------------------------------------------------------------
# determinant relation


class TestSlRelation:
    def test_hand_example(self):
        res = sl_relation_check(
            RM([[1], [1]]), RM([[1, 1]]), RationalMatrix.diagonal([1, 2])
        )
        assert (res.d1, res.d2, res.hankel_det) == (1, 1, 1)
        assert res.holds

    def test_zero_column(self):
        res = sl_relation_check(
            RationalMatrix.zeros(2, 1), RM([[1, 1]]), RationalMatrix.diagonal([1, 2])
        )
        assert res.d2 == 0 and res.hankel_det == 0 and res.holds

    def test_matches_matrix_powers(self):
        # d1, d2 and the Hankel determinant against their definitions on
        # Fraction powers of A, integer and rational inputs alike
        rng = random.Random(23)
        for n in (1, 2, 3, 4):
            for den in (1, 1, 2, 6):
                u = random_matrix(rng, n, 1, 6).scale(Fraction(1, den))
                v = random_matrix(rng, 1, n, 6).scale(Fraction(2, 3 * den))
                a = random_matrix(rng, n, n, 6).scale(Fraction(1, den))
                pows = matrix_powers(a, 2 * n - 2)
                d1 = RationalMatrix.vstack([v @ pows[i] for i in range(n)]).det()
                d2 = RationalMatrix.hstack([pows[i] @ u for i in range(n)]).det()
                hankel = RationalMatrix.from_rows(
                    [[(v @ pows[i + j] @ u).entry(0, 0) for j in range(n)]
                     for i in range(n)]
                ).det()
                res = sl_relation_check(u, v, a)
                assert (res.d1, res.d2, res.hankel_det) == (d1, d2, hankel)
                assert [type(x) for x in (res.d1, res.d2, res.hankel_det)] == [
                    type(x) for x in (d1, d2, hankel)
                ]

    def test_random_identity(self):
        rng = random.Random(19)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                res = sl_relation_check(
                    random_matrix(rng, n, 1, 6),
                    random_matrix(rng, 1, n, 6),
                    random_matrix(rng, n, n, 6),
                )
                assert res.holds


# ---------------------------------------------------------------------------
# non-closed image demo


class TestNonclosedDemo:
    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            nonclosed_image_demo(2, RM([[1]]), 0)

    def test_zero_u_rejected(self):
        with pytest.raises(ValueError):
            nonclosed_image_demo(2, RationalMatrix.zeros(1, 1), Fraction(1, 10))

    def test_frozen_gap_value(self):
        # hand evaluation at eps = 1/10, n = 2: power sums (3/10, 1/20),
        # second part differs by (0, (3/10) u); gap = 3/10
        demo = nonclosed_image_demo(2, RM([[1]]), Fraction(1, 10))
        assert demo.gap == Fraction(3, 10)
        assert demo.image_parts[0] == RM([[2]])
        assert demo.limit_parts[0] == RM([[2]])

    def test_gap_strictly_decreasing(self):
        u = RM([[1]])
        g1 = nonclosed_image_demo(2, u, Fraction(1, 10)).gap
        g2 = nonclosed_image_demo(2, u, Fraction(1, 20)).gap
        g3 = nonclosed_image_demo(2, u, Fraction(1, 40)).gap
        assert g1 > g2 > g3 > 0

    def test_limit_never_attained_certificate(self):
        demo = nonclosed_image_demo(3, RM([[1], [0]]), Fraction(1, 10))
        assert limit_point_is_outside_family_image(demo)
        # each of the three checks reads the demo: a limit with the image's
        # power sums, or with a zero first part, is not certified
        moved = dataclasses.replace(demo, limit_tau=demo.image_tau)
        assert not limit_point_is_outside_family_image(moved)
        zero_parts = (RationalMatrix.zeros(2, 1),) + demo.limit_parts[1:]
        vanished = dataclasses.replace(demo, limit_parts=zero_parts)
        assert not limit_point_is_outside_family_image(vanished)

    def test_image_tau_never_zero_on_family(self):
        # any nonzero eps leaves a nonzero top power sum, separating the
        # image point from the limit in the tau part
        for eps in (Fraction(1, 10), Fraction(-1, 7), 2):
            demo = nonclosed_image_demo(3, RM([[2], [1]]), eps)
            assert any(t != 0 for t in demo.image_tau)
