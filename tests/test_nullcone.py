import itertools
import math
import random
from fractions import Fraction

import pytest

from eadjoint import nullcone
from eadjoint.errors import (
    NotAMemberError,
    NotInNullConeError,
    OutOfRangeError,
    ShapeError,
    SingularMatrixError,
)
from eadjoint.invariants import (
    Point,
    _integer_rescaled_point,
    evaluate_invariants,
    group_action,
)
from eadjoint.linalg import (
    RationalMatrix,
    Subspace,
    char_poly,
    kernel_subspace,
)
from eadjoint.nullcone import (
    Certificate,
    OnePSG,
    Weight,
    _certificate_defect,
    _orbit_representatives,
    adapted_certificate,
    check_certificate,
    component_certificates,
    component_interval,
    component_tangent_dim,
    enumerate_maximal_unstable,
    in_null_cone,
    invariant_hull_of_image,
    largest_invariant_in_kernel,
    nullcone_summary,
    pinned_row_witness,
    random_unstable_point,
    sample_component,
    standard_destabilizer,
    unstable_subspace,
    weights_of_W,
    x_k_weight_set,
)
from eadjoint.orbits import stabilizer
from eadjoint.sampling import (
    random_invertible,
    random_matrix,
    random_nonzero_int,
    random_point,
)
from oracles import (
    fraction_group_action,
    invariants_vanish,
    nested_unstable_point,
    order_type_cocharacters,
    order_type_maximal_unstable,
    point_in_unstable_subspace,
    positive_pairing_set,
    rank_certificate_defect,
    reversed_rre_new_rows,
    trace,
    zero_point,
)

RM = RationalMatrix.from_rows


def principal_nilpotent(n):
    return RationalMatrix(
        n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)]
    )


class TestWeights:
    def test_n1(self):
        ws = weights_of_W(1, 1, 1)
        assert sum(w.multiplicity for w in ws) == 3
        assert {w.coeffs for w in ws} == {(0,), (1,), (-1,)}

    def test_n2_counts(self):
        ws = weights_of_W(2, 1, 1)
        assert sum(w.multiplicity for w in ws) == 2 * 2 + 2 + 2

    def test_multiplicities(self):
        for n, p, q in [(2, 3, 1), (3, 2, 2), (4, 1, 3)]:
            ws = weights_of_W(n, p, q)
            assert sum(w.multiplicity for w in ws) == n * n + n * p + n * q
            for w in ws:
                plus = [c for c in w.coeffs if c > 0]
                minus = [c for c in w.coeffs if c < 0]
                if plus == [1] and not minus:
                    assert w.multiplicity == p
                if minus == [-1] and not plus:
                    assert w.multiplicity == q

    def test_general_r_zero_weight(self):
        ws = weights_of_W(3, 1, 1, r=2)
        zero = next(w for w in ws if not any(w.coeffs))
        assert zero.multiplicity == 6


class TestUnstableSubspace:
    def test_zero_cocharacter(self):
        sel = unstable_subspace(OnePSG((0, 0, 0)), 3, 2, 2)
        assert sel.b_rows == () and sel.c_cols == () and sel.a_entries == ()

    def test_dominant_cocharacter(self):
        n = 3
        sel = unstable_subspace(OnePSG((3, 2, 1)), n, 2, 2)
        assert sel.b_rows == (0, 1, 2)
        assert sel.c_cols == ()
        assert sel.a_entries == ((0, 1), (0, 2), (1, 2))

    def test_sign_change_pattern_gives_uk(self):
        # strictly decreasing with sign change after position k
        n, k = 4, 2
        lam = OnePSG((2, 1, -1, -2))
        sel = unstable_subspace(lam, n, 1, 1)
        assert sel.b_rows == tuple(range(k))
        assert sel.c_cols == tuple(range(k, n))
        assert sel.a_entries == tuple(
            (i, j) for i in range(n) for j in range(n) if i < j
        )

    def test_pairing_consistency(self):
        rng = random.Random(5)
        for _ in range(30):
            n, p, q = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
            lam = OnePSG(tuple(rng.randint(-5, 5) for _ in range(n)))
            sel = unstable_subspace(lam, n, p, q)
            # recompute from the weight list
            for i in range(n):
                e_i = tuple(1 if t == i else 0 for t in range(n))
                assert (i in sel.b_rows) == (lam.pairing(e_i) > 0)
                m_i = tuple(-1 if t == i else 0 for t in range(n))
                assert (i in sel.c_cols) == (lam.pairing(m_i) > 0)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    root = tuple(
                        (1 if t == i else 0) - (1 if t == j else 0) for t in range(n)
                    )
                    assert ((i, j) in sel.a_entries) == (lam.pairing(root) > 0)


class TestEnumerateMaximalUnstable:
    def test_n1(self):
        classes = enumerate_maximal_unstable(1, 1, 1)
        assert [c.k for c in classes] == [0, 1]
        assert classes[0].weights == frozenset({(-1,)})
        assert classes[1].weights == frozenset({(1,)})

    def test_n2(self):
        assert len(enumerate_maximal_unstable(2, 1, 1)) == 3

    def test_n3_box3(self):
        classes = enumerate_maximal_unstable(3, 2, 1)
        assert len(classes) == 4
        pos_roots = {
            (1, -1, 0), (1, 0, -1), (0, 1, -1),
        }
        for c in classes:
            assert pos_roots <= c.weights

    def test_counts_independent_of_pq(self):
        for n in (1, 2, 3, 4):
            for p, q in [(1, 1), (2, 3), (3, 1)]:
                assert len(enumerate_maximal_unstable(n, p, q)) == n + 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_box_search(self, n):
        # one cocharacter per order type: the ordered Bell numbers 3, 13, 75, 541
        lams = order_type_cocharacters(n)
        assert len(set(lams)) == len(lams) == (3, 13, 75, 541)[n - 1]
        ladder = {
            _canonical_under_permutations(c.weights, n)
            for c in enumerate_maximal_unstable(n, 2, 2)
        }
        candidates = [w.coeffs for w in weights_of_W(n, 2, 2) if any(w.coeffs)]
        sets = {positive_pairing_set(lam, candidates) for lam in lams}
        sets.discard(frozenset())
        for box in (n, 2 * n):
            found = box_weight_sets(n, box)
            assert found == sets
            maximal = [s for s in found if not any(s < t for t in found)]
            assert {_canonical_under_permutations(s, n) for s in maximal} == ladder

    CORRUPTIONS = {
        "extra-sum": lambda ws, n: ws + [Weight((1, 1) + (0,) * (n - 2))],
        "extra-double": lambda ws, n: ws + [Weight((2,) + (0,) * (n - 1))],
        "dropped-minus-e1": lambda ws, n: [
            w for w in ws if w.coeffs != (-1,) + (0,) * (n - 1)
        ],
        "dropped-root": lambda ws, n: [
            w for w in ws if w.coeffs != (1, -1) + (0,) * (n - 2)
        ],
        # no nonincreasing cocharacter pairs positively with e_2 - e_1, so
        # only the invariance check sees it missing
        "dropped-negative-root": lambda ws, n: [
            w for w in ws if w.coeffs != (-1, 1) + (0,) * (n - 2)
        ],
        # 2 e_i in place of e_i: S_n-invariant, and every pairing keeps its
        # sign, so only the rung check sees it
        "doubled-units": lambda ws, n: [
            Weight(tuple(2 * c for c in w.coeffs), w.multiplicity)
            if sum(w.coeffs) == 1
            else w
            for w in ws
        ],
    }

    @staticmethod
    def corrupt_weights(monkeypatch, corrupt):
        true_weights = nullcone.weights_of_W
        monkeypatch.setattr(
            nullcone,
            "weights_of_W",
            lambda n, p, q, r=1: corrupt(true_weights(n, p, q, r), n),
        )

    @pytest.mark.parametrize(
        "name, message",
        [
            pytest.param(name, message, id=name)
            for name, message in [
                ("extra-sum", "ladder"),
                ("extra-double", "ladder"),
                ("dropped-minus-e1", "ladder"),
                ("dropped-root", "ladder"),
                ("dropped-negative-root", "not S_n-invariant: no ladder"),
                ("doubled-units", "do not match the expected ladder"),
            ]
        ],
    )
    def test_corrupted_weights_raise(self, monkeypatch, name, message):
        self.corrupt_weights(monkeypatch, self.CORRUPTIONS[name])
        for n in (2, 3, 4):
            with pytest.raises(AssertionError, match=message):
                enumerate_maximal_unstable(n, 2, 2)

    def test_matches_the_search_over_every_order_type(self, monkeypatch):
        for n in (1, 2, 3, 4, 5):
            for p, q in [(1, 1), (2, 2), (2, 3), (3, 1)]:
                assert enumerate_maximal_unstable(n, p, q) == (
                    order_type_maximal_unstable(n, p, q)
                )
        for corrupt in self.CORRUPTIONS.values():
            with monkeypatch.context() as m:
                self.corrupt_weights(m, corrupt)
                for n in (2, 3, 4, 5):
                    for search in (enumerate_maximal_unstable, order_type_maximal_unstable):
                        with pytest.raises(AssertionError, match="ladder"):
                            search(n, 2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_one_representative_per_orbit(self, n):
        assert [c.k for c in enumerate_maximal_unstable(n, 2, 2)] == list(range(n + 1))
        # the orbit of a representative with blocks b_1..b_m has
        # n!/(b_1!...b_m!) order types; the orbits add up to the ordered
        # Bell number a(n + 1), so every order type is covered once
        reps = _orbit_representatives(n)
        assert len(set(reps)) == len(reps) == (n + 2) * 2 ** (n - 1)
        assert all(list(lam) == sorted(lam, reverse=True) for lam in reps)
        orbits = sum(
            math.factorial(n)
            // math.prod(math.factorial(len(list(b))) for _, b in itertools.groupby(lam))
            for lam in reps
        )
        fubini = (3, 13, 75, 541, 4683, 47293, 545835, 7087261)
        assert orbits == fubini[n - 1]
        if n <= 5:
            # both put the zero marker at level 0 and the levels at
            # consecutive ranks, so sorting an order type gives its orbit's
            # representative
            orders = order_type_cocharacters(n)
            assert {tuple(sorted(lam, reverse=True)) for lam in orders} == set(reps)

    @staticmethod
    def widen_one_set(monkeypatch, pick):
        """Give the first representative that ``pick`` accepts every
        candidate weight, which exceeds every chamber set."""
        true_set = nullcone._weight_set

        def widened(lam, candidates):
            first = next(r for r in _orbit_representatives(len(lam)) if pick(r))
            return frozenset(candidates) if lam == first else true_set(lam, candidates)

        monkeypatch.setattr(nullcone, "_weight_set", widened)

    def test_containment_fails_alone(self, monkeypatch):
        # a representative with a level-0 coordinate is no chamber: the
        # chamber sets, so the size and rung checks, are untouched
        self.widen_one_set(monkeypatch, lambda lam: 0 in lam)
        for n in (2, 3, 4):
            with pytest.raises(AssertionError, match="leaves its chamber's"):
                enumerate_maximal_unstable(n, 2, 2)

    def test_unequal_chamber_sizes_raise(self, monkeypatch):
        # a widened chamber keeps containment; the size check raises before
        # the rung check
        self.widen_one_set(
            monkeypatch, lambda lam: 0 not in lam and len(set(lam)) == len(lam)
        )
        for n in (2, 3, 4):
            with pytest.raises(AssertionError, match="differ in size: no ladder"):
                enumerate_maximal_unstable(n, 2, 2)


class TestMembership:
    def test_origin(self):
        assert in_null_cone(zero_point(3, 2, 1))

    def test_principal_nilpotent_bare(self):
        w = Point(
            RationalMatrix.zeros(3, 1),
            RationalMatrix.zeros(1, 3),
            (principal_nilpotent(3),),
        )
        assert in_null_cone(w)

    def test_nonzero_trace(self):
        w = Point(
            RationalMatrix.zeros(3, 1),
            RationalMatrix.zeros(1, 3),
            (RationalMatrix.diagonal([1, 0, 0]),),
        )
        assert not in_null_cone(w)

    def test_nilpotency_needs_the_trace_of_the_top_power(self):
        # the cyclic permutation of three coordinates has tr A = tr A^2 = 0
        # but tr A^3 = 3: it is not nilpotent
        a = RM([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        w = Point(RationalMatrix.zeros(3, 1), RationalMatrix.zeros(1, 3), (a,))
        assert [trace(a), trace(a @ a), trace(a @ a @ a)] == [0, 0, 3]
        assert not invariants_vanish(w)
        assert not in_null_cone(w)
        assert not component_interval(w).in_null_cone

    def test_nilpotent_with_a_nonzero_moment(self):
        # A the regular nilpotent block, B = e_1, C = e_0^T: C B = 0 and
        # C A^2 B = 0, but C A B = 1
        a = principal_nilpotent(3)
        w = Point(RM([[0], [1], [0]]), RM([[1, 0, 0]]), (a,))
        assert (w.C @ a @ w.B).entries == (1,)
        assert not in_null_cone(w)
        assert not component_interval(w).in_null_cone

    def test_equivalence_three_ways(self):
        # invariants zero <=> char poly x^n and all C A^j B zero
        rng = random.Random(7)
        count_null = 0
        for trial in range(200):
            n = rng.randint(1, 4)
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            kind = trial % 4
            if kind == 0:
                w = random_point(rng, n, p, q)
            elif kind == 1:
                w = sample_component(n, p, q, rng.randint(0, n), rng.randint(0, 10**6))
            elif kind == 2:
                # nilpotent adjoint part, generic B and C: usually not null
                w = Point(
                    random_matrix(rng, n, p),
                    random_matrix(rng, q, n),
                    (principal_nilpotent(n),),
                )
            else:
                w = Point(
                    RationalMatrix.zeros(n, p),
                    RationalMatrix.zeros(q, n),
                    (random_matrix(rng, n, n),),
                )
            lhs = in_null_cone(w)
            count_null += lhs
            pows_ok = char_poly(w.A).is_power_of_x()
            moments_ok = all(g.is_zero() for g in evaluate_invariants(w).gamma)
            assert lhs == (pows_ok and moments_ok)
            assert lhs == evaluate_invariants(w).is_zero()
        assert count_null >= 50  # the mix really exercises both branches

    def test_matches_invariants_on_random_sampled_and_moved_points(self):
        rng = random.Random(61)
        nulls = 0
        for trial in range(240):
            n = 1 + trial % 6
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            kind = trial // 6 % 4
            if kind == 0:
                w = random_point(rng, n, p, q)
            else:
                w = sample_component(n, p, q, rng.randint(0, n), rng.randrange(2**32))
                if kind >= 2:
                    w = group_action(random_invertible(rng, n), w)
                if kind == 3:  # one nonzero entry added: usually not null
                    e = list(w.A.entries)
                    e[rng.randrange(n * n)] += 1
                    w = Point(w.B, w.C, (RationalMatrix(n, n, e),))
            assert in_null_cone(w) == invariants_vanish(w)
            assert component_interval(w).in_null_cone == invariants_vanish(w)
            nulls += invariants_vanish(w)
        assert 100 <= nulls <= 200

    def test_adversarial_points(self):
        points = []
        for n in range(1, 7):
            zb, zc = RationalMatrix.zeros(n, 2), RationalMatrix.zeros(2, n)
            # the cyclic shift: tau_1..tau_{n-1} vanish, tau_n = n
            cycle = RationalMatrix(
                n, n, [int(j == (i + 1) % n) for i in range(n) for j in range(n)]
            )
            points.append((Point(zb, zc, (cycle,)), False))
            # trace-free and not nilpotent: diag(1, -1, 0, ...)
            if n >= 2:
                d = RationalMatrix.diagonal([1, -1] + [0] * (n - 2))
                points.append((Point(zb, zc, (d,)), False))
            # Jordan block with B = e_n, C = e_1: only Gamma_{n-1} is nonzero
            jordan = principal_nilpotent(n)
            b = RM([[int(i == n - 1), 0] for i in range(n)])
            c = RM([[int(j == 0) for j in range(n)], [0] * n])
            points.append((Point(b, c, (jordan,)), False))
            points.append((Point(b, zc, (jordan,)), True))
            points.append((Point(zb, c, (jordan,)), True))
            # nilpotent of index n - 1 with Gamma_{n-2} nonzero, plus Fractions
            if n >= 2:
                half = Fraction(1, 2)
                nil = RM([[half if j == i + 1 < n - 1 else 0 for j in range(n)]
                          for i in range(n)])
                bb = RM([[Fraction(2, 3) if i == n - 2 else 0] for i in range(n)])
                cc = RM([[Fraction(-5, 7) if j == 0 else 0 for j in range(n)]])
                points.append((Point(bb, cc, (nil,)), False))
                points.append((Point(bb, cc.scale(0), (nil,)), True))
        for w, null in points:
            assert invariants_vanish(w) == null
            assert in_null_cone(w) == null
            if null:
                assert component_interval(w).in_null_cone
            else:
                assert component_interval(w).is_empty()
                with pytest.raises(NotInNullConeError):
                    component_certificates(w)

    def test_fraction_points_match_invariants(self):
        rng = random.Random(67)
        for trial in range(80):
            n, p, q = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
            w = sample_component(n, p, q, rng.randint(0, n), rng.randrange(2**32))
            s = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
            w = Point(w.B.scale(s[0]), w.C.scale(s[1]), (w.A.scale(s[2]),))
            if trial % 2:  # trace s[0], so not nilpotent
                shift = RationalMatrix.diagonal([s[0]] + [0] * (n - 1))
                w = Point(w.B, w.C, (w.A + shift,))
            assert in_null_cone(w) == invariants_vanish(w) == (trial % 2 == 0)


class TestComponentInterval:
    def test_origin_full_interval(self):
        iv = component_interval(zero_point(3, 1, 2))
        assert (iv.d_min, iv.d_max) == (0, 3)
        assert list(iv.members()) == [0, 1, 2, 3]

    def test_non_null_empty(self):
        w = Point(RM([[1], [1]]), RM([[1, 1]]), (RationalMatrix.diagonal([1, 2]),))
        iv = component_interval(w)
        assert iv.is_empty()
        assert 1 not in iv

    def test_hand_example(self):
        # d_min = dim span{e1} = 1, d_max = dim ker C = 1
        w = Point(RM([[1], [0]]), RM([[0, 1]]), (RM([[0, 1], [0, 0]]),))
        iv = component_interval(w)
        assert (iv.d_min, iv.d_max) == (1, 1)
        assert point_in_unstable_subspace(w, 1)

    def test_bare_nilpotent_full_interval(self):
        w = Point(
            RationalMatrix.zeros(3, 2),
            RationalMatrix.zeros(2, 3),
            (principal_nilpotent(3),),
        )
        iv = component_interval(w)
        assert (iv.d_min, iv.d_max) == (0, 3)

    def test_invariant_subspace_helpers(self):
        a = principal_nilpotent(3)
        b = RM([[1], [0], [0]])
        hull = invariant_hull_of_image(a, b)
        assert hull.dim == 1
        c = RM([[0, 0, 1]])
        core = largest_invariant_in_kernel(a, c)
        assert core.dim == 2

    def test_monotone_on_samples(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            k = rng.randint(0, n)
            w = sample_component(n, rng.randint(1, 3), rng.randint(1, 3), k, rng.randint(0, 10**9))
            iv = component_interval(w)
            assert iv.in_null_cone
            assert 0 <= iv.d_min <= iv.d_max <= n
            assert k in iv


class TestSampler:
    def test_k0_has_zero_b(self):
        for seed in range(10):
            w = sample_component(3, 2, 1, 0, seed)
            assert w.B.is_zero()

    def test_kn_has_zero_c(self):
        for seed in range(10):
            w = sample_component(3, 2, 1, 3, seed)
            assert w.C.is_zero()

    def test_always_null(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 4)
            w = sample_component(
                n, rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, n), rng.randint(0, 10**9)
            )
            assert in_null_cone(w)

    def test_deterministic_per_seed(self):
        assert sample_component(3, 2, 2, 1, 42) == sample_component(3, 2, 2, 1, 42)

    def test_matches_the_oracle_composition(self):
        # the same point, entry types and draws as a random U_k point moved
        # by a random invertible g, through group_action and, on every
        # tenth case, through Fraction products; at seeds 30..39 the first
        # g drawn is singular, and drawn again, in 19 of the cases
        checked = 0
        for n in range(1, 7):
            for p, q in itertools.product(range(1, 4), repeat=2):
                for k in range(n + 1):
                    for seed in range(30, 40):
                        rng, oracle_rng = random.Random(seed), random.Random(seed)
                        w = sample_component(n, p, q, k, rng)
                        u = random_unstable_point(oracle_rng, n, p, q, k)
                        g = random_invertible(oracle_rng, n)
                        moved = group_action(g, u)
                        assert w == moved
                        assert entry_types(w) == entry_types(moved)
                        assert rng.getstate() == oracle_rng.getstate()
                        if seed == 30:
                            assert w == fraction_group_action(g, u)
                        checked += 1
        assert checked == 2430

    def test_unstable_point_matches_the_nested_draw(self):
        for n in range(1, 6):
            for k in range(n + 1):
                for seed in range(5):
                    rng, oracle_rng = random.Random(seed), random.Random(seed)
                    u = random_unstable_point(rng, n, 2, 3, k, bound=5)
                    assert u == nested_unstable_point(oracle_rng, n, 2, 3, k, bound=5)
                    assert rng.getstate() == oracle_rng.getstate()

    def test_singular_draw_is_redrawn(self):
        # at seed 35, n = p = q = 1, k = 0 the U_0 draw is C = [7] and the
        # first g drawn is [0]; the second, [-6], moves C to [-7/6]
        replay = random.Random(35)
        assert [replay.randint(-10, 10) for _ in range(3)] == [7, 0, -6]
        rng = random.Random(35)
        w = sample_component(1, 1, 1, 0, rng)
        assert w.C.entries == (Fraction(-7, 6),)
        assert w.B.entries == (0,) and w.A.entries == (0,)
        assert rng.getstate() == replay.getstate()

    def test_out_of_range_draws_nothing(self):
        rng = random.Random(3)
        state = rng.getstate()
        for args in ((33, 1, 1, 0), (2, 0, 1, 0), (2, 1, 33, 1),
                     (2, 1, 1, 3), (2, 1, 1, -1)):
            with pytest.raises(OutOfRangeError):
                sample_component(*args, rng)
        assert rng.getstate() == state


def entry_types(w):
    return [type(x) for m in (w.B, w.C, *w.A_list) for x in m.entries]


class TestCertificates:
    def test_origin_any_k(self):
        w = zero_point(3, 1, 1)
        for k in range(4):
            cert = adapted_certificate(w, k)
            assert check_certificate(w, cert)
            assert cert.lam == standard_destabilizer(3, k)

    def test_already_adapted_point(self):
        w = Point(RM([[1], [0]]), RM([[0, 1]]), (RM([[0, 1], [0, 0]]),))
        cert = adapted_certificate(w, 1)
        assert check_certificate(w, cert)

    def test_conjugated_points(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 4)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            k = rng.randint(0, n)
            u = random_unstable_point(rng, n, p, q, k)
            h = random_invertible(rng, n)
            w = group_action(h, u)
            iv = component_interval(w)
            assert k in iv
            for kk in iv.members():
                cert = adapted_certificate(w, kk)
                assert check_certificate(w, cert)
                moved = group_action(cert.g, w)
                assert point_in_unstable_subspace(moved, kk)

    def test_outside_interval_rejected(self):
        w = Point(RM([[1], [0]]), RM([[0, 1]]), (RM([[0, 1], [0, 0]]),))
        with pytest.raises(NotAMemberError):
            adapted_certificate(w, 0)
        with pytest.raises(NotAMemberError):
            adapted_certificate(w, 2)

    def test_wide_interval_two_jordan_blocks(self):
        # non-principal nilpotent: the hull is span{e1}, the core is
        # {x4 = 0}, so the point sits in three components at once
        a = RM([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        w = Point(RM([[1], [0], [0], [0]]), RM([[0, 0, 0, 1]]), (a,))
        iv = component_interval(w)
        assert (iv.d_min, iv.d_max) == (1, 3)
        for k in (1, 2, 3):
            cert = adapted_certificate(w, k)
            assert check_certificate(w, cert)
        for k in (0, 4):
            with pytest.raises(NotAMemberError):
                adapted_certificate(w, k)

    def test_k_outside_0_to_n_is_out_of_range_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the point was cleared for a k outside 0..n")

        w = Point(RM([[1], [0]]), RM([[0, 1]]), (RM([[0, 1], [0, 0]]),))
        monkeypatch.setattr(nullcone, "_integer_rescaled_point", forbidden)
        for k in (-1, 3, 7):
            with pytest.raises(OutOfRangeError, match=f"0..2, got {k}"):
                adapted_certificate(w, k)

    def test_non_null_rejected(self):
        w = Point(RM([[1], [1]]), RM([[1, 1]]), (RationalMatrix.diagonal([1, 2]),))
        with pytest.raises(NotInNullConeError):
            adapted_certificate(w, 1)

    def test_pairing_positive_on_ladder(self):
        for n in range(1, 6):
            for k in range(n + 1):
                lam = standard_destabilizer(n, k)
                assert all(
                    lam.pairing(coeffs) > 0 for coeffs in x_k_weight_set(n, k)
                )

    def test_built_certificate_is_rechecked(self, monkeypatch):
        # the library re-checks every certificate it builds; a build whose
        # g comes out as 1 is caught there and in the certificates suite
        from eadjoint.verify import run_suite

        def identity(rows, cols, ints, num, den):
            return RationalMatrix.identity(rows)

        w = sample_component(3, 2, 2, 1, 5)
        g = RationalMatrix.identity(3)
        assert not check_certificate(w, Certificate(1, g, standard_destabilizer(3, 1)))
        # nullcone divides out g's denominator only when it builds a certificate
        monkeypatch.setattr(nullcone, "_divided", identity)
        detail = "constructed certificate failed validation"
        with pytest.raises(AssertionError, match=detail):
            component_certificates(w)
        with pytest.raises(AssertionError, match=detail):
            adapted_certificate(w, 1)
        rep = run_suite("certificates", seed=3, trials=1)
        assert rep.failures
        assert {f.detail for f in rep.failures} == {f"AssertionError: {detail}"}

    def test_certificate_json(self):
        w = zero_point(2, 1, 1)
        cert = adapted_certificate(w, 1)
        obj = cert.to_json_obj()
        assert obj["k"] == 1 and obj["lambda"] == [1, -1]


def unstable_coordinate_vectors(n, p, q, k):
    """Basis of U_k as coordinate vectors, ordered vec(B), vec(C), vec(A)."""
    dim_w = n * p + q * n + n * n
    vecs = []
    for i in range(k):
        for j in range(p):
            v = [0] * dim_w
            v[i * p + j] = 1
            vecs.append(v)
    for i in range(q):
        for j in range(k, n):
            v = [0] * dim_w
            v[n * p + i * n + j] = 1
            vecs.append(v)
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * dim_w
            v[n * p + q * n + i * n + j] = 1
            vecs.append(v)
    return vecs


def dense_tangent_dim(n, p, q, k, seed):
    """dim(U_k + image of X -> (XB, -CX, [X, A])) at the same U_k point."""
    u = random_unstable_point(random.Random(seed), n, p, q, k)
    b, c, a = u.B, u.C, u.A
    dim_w = n * p + q * n + n * n
    rows = unstable_coordinate_vectors(n, p, q, k)
    for i in range(n):
        for t in range(n):
            v = [0] * dim_w
            for j in range(p):
                v[i * p + j] = b.entry(t, j)
            for qi in range(q):
                v[n * p + qi * n + t] = -c.entry(qi, i)
            for j in range(n):
                v[n * p + q * n + i * n + j] += a.entry(t, j)
                v[n * p + q * n + j * n + t] -= a.entry(j, i)
            rows.append(v)
    return RationalMatrix.from_rows(rows).rank()


class TestDimensions:
    def test_tangent_dim_n2_all_k(self):
        for k in (0, 1, 2):
            assert component_tangent_dim(2, 1, 1, k, seed=3) == 4

    def test_tangent_dim_n3_p2_q1(self):
        assert component_tangent_dim(3, 2, 1, 3, seed=5) == 12
        assert component_tangent_dim(3, 2, 1, 0, seed=5) == 9

    def test_tangent_dim_never_exceeds_formula(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(2, 4)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            k = rng.randint(0, n)
            d = component_tangent_dim(n, p, q, k, seed=rng.randint(0, 10**9))
            assert d <= (n * n - n) + p * k + q * (n - k)

    def test_tangent_dim_matches_dense_span(self):
        # oracle: U_k as dense unit vectors plus the image of every
        # elementary direction E_it, ranked together in the whole
        # representation space
        for n in range(1, 5):
            for p in range(1, 4):
                for q in range(1, 4):
                    for k in range(n + 1):
                        for seed in (0, 1):
                            assert component_tangent_dim(
                                n, p, q, k, seed
                            ) == dense_tangent_dim(n, p, q, k, seed)

    def test_tangent_dim_rejects_sizes_and_k_out_of_range(self, monkeypatch):
        # n = 33 used to run, k = 3 at n = 2 raised IndexError and k = -1 a
        # ShapeError; all are now refused before any point is sampled
        def sampled(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(nullcone, "random_unstable_point", sampled)
        for args in ((33, 1, 1, 0), (2, 0, 1, 0), (2, 1, 33, 1),
                     (2, 1, 1, 3), (2, 1, 1, -1)):
            with pytest.raises(OutOfRangeError):
                component_tangent_dim(*args, seed=0)

    def test_summary_211(self):
        s = nullcone_summary(2, 1, 1)
        assert s.component_dims == (4, 4, 4)
        assert s.nullcone_dim == 4
        assert s.equidimensional

    def test_summary_321(self):
        s = nullcone_summary(3, 2, 1)
        assert s.component_dims == (9, 10, 11, 12)
        assert s.nullcone_dim == 12
        assert not s.equidimensional

    def test_summary_233(self):
        s = nullcone_summary(2, 3, 3)
        assert s.component_dims == (8, 8, 8)
        assert s.equidimensional

    def test_nonpositive_sizes_rejected(self):
        for n, p, q in [(0, 1, 1), (2, 0, 1), (2, 1, 0), (-1, 1, 1)]:
            with pytest.raises(OutOfRangeError):
                nullcone_summary(n, p, q)

    def test_max_formula(self):
        for n in range(1, 6):
            for p in range(1, 4):
                for q in range(1, 4):
                    s = nullcone_summary(n, p, q)
                    assert s.nullcone_dim == n * n - n + n * max(p, q)
                    assert s.equidimensional == (p == q)
                    assert (s.nullcone_dim == n * n) == (p == q == 1)


class TestWitnesses:
    def test_extreme_k_full_orbit(self):
        for n in (2, 3, 4):
            dim0 = stabilizer(pinned_row_witness(n, 2, 2, 0, seed=1)).orbit_dim
            dimn = stabilizer(pinned_row_witness(n, 2, 2, n, seed=1)).orbit_dim
            assert dim0 == n * n
            assert dimn == n * n

    def test_n4_k2(self):
        dim = stabilizer(pinned_row_witness(4, 2, 2, 2, seed=2)).orbit_dim
        assert dim == 16 - 2

    def test_formula_all_k(self):
        rng = random.Random(23)
        for n in range(1, 6):
            for k in range(n + 1):
                p, q = rng.randint(1, 3), rng.randint(1, 3)
                w = pinned_row_witness(n, p, q, k, seed=rng.randint(0, 10**6))
                assert stabilizer(w).orbit_dim == n * n - min(k, n - k)
                assert in_null_cone(w)
                assert k in component_interval(w)

    def test_witness_is_a_pinned_u_k_point(self):
        # every k: a U_k point, A the Jordan block, B's first column e_(k-1)
        # when k >= 1 and C's first row 1 in column k when k < n
        for n in range(1, 7):
            for k in range(n + 1):
                for p, q in ((1, 1), (2, 3), (3, 2)):
                    for seed in range(3):
                        w = pinned_row_witness(n, p, q, k, seed)
                        assert point_in_unstable_subspace(w, k)
                        assert w.A == principal_nilpotent(n)
                        if k >= 1:
                            assert w.B.col_list(0) == [int(i == k - 1) for i in range(n)]
                        if k < n:
                            assert w.C.entry(0, k) == 1
                        assert stabilizer(w).orbit_dim == n * n - min(k, n - k)

    def test_pinned_witness_lies_in_no_other_component(self):
        # S = K = V_k, so the interval is exactly [k, k]: C_k lies in no
        # other C_j.  Zeroing the pins (B's e_(k-1), C's 1 in column k)
        # at p = q = 1 leaves S = 0 or K > V_k and widens the interval
        for n in range(1, 9):
            for k in range(n + 1):
                for p in range(1, 4):
                    for q in range(1, 4):
                        for seed in range(3):
                            w = pinned_row_witness(n, p, q, k, seed)
                            iv = component_interval(w)
                            assert (iv.d_min, iv.d_max) == (k, k), (n, p, q, k, seed)
                w = pinned_row_witness(n, 1, 1, k)
                b, c = w.B.to_rows(), w.C.to_rows()
                if k >= 1:
                    b[k - 1][0] = 0
                if k < n:
                    c[0][k] = 0
                iv = component_interval(Point(RM(b), RM(c), w.A_list))
                assert iv.d_min < k or iv.d_max > k

    def test_pinned_family_stab_dims(self):
        # Hom_A(V/S, K) = Hom(Q[t]/t^(n-k), Q[t]/t^k) has dimension min(k, n - k)
        rng = random.Random(29)
        for n in range(1, 11):
            for k in range(n + 1):
                p, q = rng.randint(1, 3), rng.randint(1, 3)
                w = pinned_row_witness(n, p, q, k, seed=rng.randint(0, 10**6))
                assert stabilizer(w).stab_dim == min(k, n - k)

    def test_pinned_family_rejects_k_outside_0_to_n(self):
        for k in (-1, 6):
            with pytest.raises(ValueError):
                pinned_row_witness(5, 1, 1, k)


# ---------------------------------------------------------------------------
# reference oracle for the ladder search: every cocharacter of a box, and
# maximal sets compared up to all n! coordinate permutations


def box_weight_sets(n, box):
    """Weight sets of the cocharacters with entries in [-box, box], one
    evaluation per (rank pattern, signs); box >= n reaches every pattern."""
    candidates = [w.coeffs for w in weights_of_W(n, 2, 2) if any(w.coeffs)]
    seen, found = set(), set()
    for lam in itertools.product(range(-box, box + 1), repeat=n):
        distinct = sorted(set(lam))
        pattern = (
            tuple(distinct.index(v) for v in lam),
            tuple((v > 0) - (v < 0) for v in distinct),
        )
        if pattern not in seen:
            seen.add(pattern)
            s = frozenset(c for c in candidates if OnePSG(lam).pairing(c) > 0)
            if s:
                found.add(s)
    return found


def _canonical_under_permutations(weight_set, n):
    return min(
        tuple(sorted(tuple(c[i] for i in perm) for c in weight_set))
        for perm in itertools.permutations(range(n))
    )


# ---------------------------------------------------------------------------
# reference oracles: the fixed-point loops and the group-action check that
# the Kalman-rank subspaces and the inverse-free certificate check replaced


def hull_fixed_point(a, b):
    """Smallest a-invariant subspace containing im b, grown one step at a time."""
    s = Subspace.from_spanning_columns(b)
    while True:
        grown = s.sum_with(s.image_under(a))
        if grown.dim == s.dim:
            return s
        s = grown


def core_fixed_point(a, c):
    """Largest a-invariant subspace of ker c, shrunk one step at a time."""
    k = kernel_subspace(c)
    while True:
        shrunk = k.intersect(k.preimage_under(a))
        if shrunk.dim == k.dim:
            return k
        k = shrunk


def group_action_check(w, cert):
    """Move the point by g and read off the U_k zero pattern and the pairing."""
    if not 0 <= cert.k <= w.n:
        return False
    try:
        moved = group_action(cert.g, w)
    except SingularMatrixError:
        return False
    return point_in_unstable_subspace(moved, cert.k) and all(
        cert.lam.pairing(coeffs) > 0 for coeffs in x_k_weight_set(w.n, cert.k)
    )


def certificate_by_kernel_powers(a, s, big, k):
    """The flag built layer by layer from the definitions: F grown from s
    inside big, then ker(A^j) & F for j = 1, 2, ... below F and the
    iterated preimages A^-j F above it."""
    n = a.rows
    f = s
    while f.dim < k:
        col = nullcone._first_new_basis_column(f.preimage_under(a).intersect(big), f)
        f = f.sum_with(Subspace.from_spanning_columns(RationalMatrix.column(col)))
    layers = []
    power = RationalMatrix.identity(n)
    while not layers or layers[-1].dim < k:
        power = power @ a
        layers.append(kernel_subspace(power).intersect(f))
    layer = f
    while layers[-1].dim < n:
        layer = layer.preimage_under(a)
        layers.append(layer)
    vectors, current = [], Subspace.zero(n)
    for layer in layers:
        while current.dim < layer.dim:
            col = nullcone._first_new_basis_column(layer, current)
            vectors.append(col)
            current = current.sum_with(
                Subspace.from_spanning_columns(RationalMatrix.column(col)))
    basis = RationalMatrix.from_rows([[v[i] for v in vectors] for i in range(n)])
    return Certificate(k, basis.inverse(), standard_destabilizer(n, k))


def sparse_null_points(seed, count):
    """U_k points with many zero entries (so wide intervals), plain or moved."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(1, 5)
        p, q, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, n)

        def pick():
            return rng.choice((0, 0, 0, 1, -1, 2))

        w = Point(
            RM([[pick() if i < k else 0 for _ in range(p)] for i in range(n)]),
            RM([[pick() if j >= k else 0 for j in range(n)] for _ in range(q)]),
            (RM([[pick() if j > i else 0 for j in range(n)] for i in range(n)]),),
        )
        if trial % 2:
            w = group_action(random_invertible(rng, n), w)
        yield w


def differential_points(seed, count):
    """(kind, point): component samples, samples moved by g, generic points."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(1, 5)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        kind = ("component", "moved", "generic")[trial % 3]
        if kind == "generic":
            w = random_point(rng, n, p, q)
        else:
            w = sample_component(n, p, q, rng.randint(0, n), rng.randint(0, 10**9))
            if kind == "moved":
                w = group_action(random_invertible(rng, n), w)
        yield kind, w


class TestKalmanSubspaces:
    def test_interval_matches_fixed_points(self):
        for kind, w in differential_points(31, 150):
            iv = component_interval(w)
            if not in_null_cone(w):
                assert kind == "generic"
                assert iv.is_empty()
                continue
            hull = hull_fixed_point(w.A, w.B)
            core = core_fixed_point(w.A, w.C)
            assert (iv.d_min, iv.d_max) == (hull.dim, core.dim)

    def test_one_shot_subspaces_match_fixed_points(self):
        # also on generic points, where S and K are not tied to a component
        for _, w in differential_points(37, 150):
            hull = invariant_hull_of_image(w.A, w.B)
            core = largest_invariant_in_kernel(w.A, w.C)
            assert hull == hull_fixed_point(w.A, w.B)
            assert hull.basis == hull_fixed_point(w.A, w.B).basis
            assert core == core_fixed_point(w.A, w.C)
            assert core.basis == core_fixed_point(w.A, w.C).basis

    def test_interval_runs_no_elimination_and_builds_no_kalman_matrix(self, monkeypatch):
        # S and ann K are grown one vector at a time (_invariant_basis), so
        # component_interval ranks and reduces nothing, and neither it nor
        # membership nor the certificates build ctrl or obs
        from eadjoint import _kernels, invariants

        points = [w for w in sparse_null_points(43, 240) if w.p >= 2 and w.q >= 2]
        points += [sample_component(n, p, q, k, seed=n + k)
                   for n in range(1, 7) for p, q in ((2, 2), (3, 2), (2, 3))
                   for k in range(n + 1)]
        calls = []
        for module, name in ((_kernels, "rank_int"), (_kernels, "rre_int"),
                             (invariants, "_controllability"), (invariants, "_observability"),
                             (nullcone, "_controllability"), (nullcone, "_observability")):
            monkeypatch.setattr(module, name, lambda *args, _name=name, _fn=getattr(
                module, name): calls.append(_name) or _fn(*args))
        # the certificates span and invert with rre_int and rank nothing;
        # checking one reduces g's rows against each other and eliminates nothing
        widths = 0
        for w in points:
            calls.clear()
            iv = component_interval(w)
            assert iv.in_null_cone and calls == []
            assert in_null_cone(w) and calls == []
            _, certs = component_certificates(w)
            assert set(calls) <= {"rre_int"}
            calls.clear()
            assert all(check_certificate(w, cert) for cert in certs.values())
            assert calls == []
            widths += iv.d_max - iv.d_min
        assert len(points) >= 100 and widths >= 30, (len(points), widths)

    def test_certificates_of_moved_points_cover_the_interval(self):
        for kind, w in differential_points(41, 60):
            if kind == "generic":
                continue
            iv, certs = component_certificates(w)
            hull = hull_fixed_point(w.A, w.B)
            core = core_fixed_point(w.A, w.C)
            assert (iv.d_min, iv.d_max) == (hull.dim, core.dim)
            assert sorted(certs) == list(range(hull.dim, core.dim + 1))


class TestFlagConstruction:
    @staticmethod
    def matches_kernel_powers(points):
        """Certify each point from the definitions and through both public
        functions, every k; (certs, wide)."""
        certs = wide = 0
        for w in points:
            wi = _integer_rescaled_point(w)[0]
            hull = hull_fixed_point(wi.A, wi.B)
            core = core_fixed_point(wi.A, wi.C)
            wide += core.dim > hull.dim
            interval, built = component_certificates(w)
            assert (interval.d_min, interval.d_max) == (hull.dim, core.dim)
            assert sorted(built) == list(range(hull.dim, core.dim + 1))
            for k in range(hull.dim, core.dim + 1):
                expected = certificate_by_kernel_powers(wi.A, hull, core, k)
                assert built[k] == expected
                assert adapted_certificate(w, k) == expected
                assert check_certificate(w, expected)
                certs += 1
        return certs, wide

    def test_matches_kernel_powers_on_wide_intervals(self):
        assert self.matches_kernel_powers(sparse_null_points(53, 120))[1] >= 60

    def test_matches_kernel_powers_on_sampled_and_moved_points(self):
        # n <= 6, every k; the moved points give flag rows whose pivot
        # entries are not 1, which a valid but rescaled g would miss
        rng = random.Random(59)

        def points():
            for trial in range(120):
                n = rng.randint(1, 6)
                p, q, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, n)
                w = sample_component(n, p, q, k, rng.randrange(2**32))
                yield group_action(random_invertible(rng, n), w) if trial % 2 else w

        assert self.matches_kernel_powers(points())[0] >= 120


def multi_row_chain_points(seed, count):
    """U_k points whose flags grow by several rows at once: A = 0 or a sum
    of at least two Jordan blocks, each with B and C as drawn, B = 0 or
    C = 0, and each of those plain and moved by a random g."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(2, 6)
        u = random_unstable_point(rng, n, rng.randint(1, 3), rng.randint(1, 3),
                                  rng.randint(0, n))
        a = [[0] * n for _ in range(n)]
        if trial % 2:
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
            for i in range(n - 1):
                if i + 1 not in cuts:
                    a[i][i + 1] = random_nonzero_int(rng, 5)
        b, c = u.B, u.C
        if trial // 2 % 3 == 1:
            b = RationalMatrix.zeros(n, u.p)
        elif trial // 2 % 3 == 2:
            c = RationalMatrix.zeros(u.q, n)
        w = Point(b, c, (RM(a),))
        yield group_action(random_invertible(rng, n), w) if trial // 6 % 2 else w


class TestLayerRule:
    def test_new_rows_match_the_reversed_elimination(self, monkeypatch):
        # a layer row is new when its image under ann(current) is independent
        # of the images before it: the rows the reversed rre_int leaves
        # untaken, checked on every layer the certificates climb through
        steps = []
        layer = nullcone._layer

        def recorded(a, current, cut):
            out = layer(a, current, cut)
            steps.append((current, *out))
            return out

        monkeypatch.setattr(nullcone, "_layer", recorded)
        for w in multi_row_chain_points(71, 120):
            component_certificates(w)
        for current, grown, new in steps:
            assert new == reversed_rre_new_rows(grown, current)
            assert len(new) == grown.dim - current.dim
        wide = sum(1 for current, _, new in steps if current.dim and len(new) >= 2)
        assert wide >= 200, wide


class TestOneChainPerPoint:
    def test_growth_steps_without_subspace_set_operations(self, monkeypatch):
        # F grows once per point, one step per dimension, and neither the
        # classifier nor the certificates touch the Fraction subspace path
        cases = []
        for w in sparse_null_points(67, 80):
            iv = component_interval(w)
            if iv.d_max > iv.d_min:
                wi = _integer_rescaled_point(w)[0]
                hull = hull_fixed_point(wi.A, wi.B)
                core = core_fixed_point(wi.A, wi.C)
                expected = {
                    k: certificate_by_kernel_powers(wi.A, hull, core, k)
                    for k in iv.members()
                }
                cases.append((w, iv, expected))
        assert len(cases) >= 30
        assert sum(iv.d_max - iv.d_min for _, iv, _ in cases) >= 50

        def forbidden(*args, **kwargs):
            raise AssertionError("the certify path used a retired operation")

        for name in ("preimage_under", "intersect", "sum_with", "contains_vector"):
            monkeypatch.setattr(Subspace, name, forbidden)
        monkeypatch.setattr(Subspace, "basis", property(forbidden))
        monkeypatch.setattr(RationalMatrix, "column", forbidden)
        for name in ("_first_new_basis_column", "invariant_hull_of_image",
                     "largest_invariant_in_kernel", "kernel_subspace"):
            monkeypatch.setattr(nullcone, name, forbidden)
        # nullcone spans integer rows only for S and to add a vector to F
        steps = []
        span = nullcone._span
        monkeypatch.setattr(
            nullcone, "_span", lambda n, rows: steps.append(1) or span(n, rows)
        )
        for w, iv, expected in cases:
            assert component_interval(w) == iv
            steps.clear()
            assert component_certificates(w) == (iv, expected)
            assert len(steps) == iv.d_max - iv.d_min + 1
            for k in iv.members():
                steps.clear()
                assert adapted_certificate(w, k) == expected[k]
                assert len(steps) == k - iv.d_min + 1


class TestInverseFreeCheck:
    @staticmethod
    def corrupted(rng, w, cert):
        """Certificates near a valid one: most are invalid, a few stay valid."""
        n = w.n
        e = list(cert.g.entries)
        i = rng.randrange(n * n)
        e[i] = e[i] + rng.choice([1, -1, Fraction(1, 2)])
        yield Certificate(cert.k, RationalMatrix(n, n, e), cert.lam)
        for kk in (cert.k - 1, cert.k + 1):
            if 0 <= kk <= n:
                yield Certificate(kk, cert.g, cert.lam)
                yield Certificate(kk, cert.g, standard_destabilizer(n, kk))
        if n > 1:
            rows = cert.g.to_rows()
            a, b = rng.sample(range(n), 2)
            rows[a] = [x * 2 for x in rows[b]]
            yield Certificate(cert.k, RationalMatrix.from_rows(rows), cert.lam)
        rows = cert.g.to_rows()
        rows[rng.randrange(n)] = [0] * n
        yield Certificate(cert.k, RationalMatrix.from_rows(rows), cert.lam)

    def test_agrees_with_group_action_check(self):
        rng = random.Random(43)
        defects = {}
        valid = 0
        for kind, w in differential_points(47, 120):
            if kind == "generic":
                continue
            _, certs = component_certificates(w)
            wi = _integer_rescaled_point(w)[0]
            for cert in certs.values():
                assert check_certificate(w, cert)
                assert group_action_check(w, cert)
                valid += 1
                assert rank_certificate_defect(wi, cert) is None
                for bad in self.corrupted(rng, w, cert):
                    ok = check_certificate(w, bad)
                    assert ok == group_action_check(w, bad)
                    reason = _certificate_defect(wi, bad)
                    assert (reason is None) == ok
                    # the one-pass check names the condition the rank tests name first
                    assert reason == rank_certificate_defect(wi, bad)
                    defects[reason] = defects.get(reason, 0) + 1
        assert valid >= 50
        # every rank condition rejects some corrupted certificate
        for reason in ("rank g", "g B", "C g^-1", "g A g^-1", "lambda"):
            assert defects.get(reason, 0) > 0, (reason, defects)

    def test_lambda_rule_matches_the_weight_pairing(self):
        # lambda strictly decreasing with lambda_{k-1} > 0 > lambda_k is
        # exactly every weight of X_k pairing positively with it; the zero
        # point with g = 1 meets every other condition
        checked = {None: 0, "lambda": 0}
        for n in range(1, 5):
            w, g = zero_point(n, 1, 1), RationalMatrix.identity(n)
            for lam in itertools.product(range(-2, 3), repeat=n):
                for k in range(n + 1):
                    cert = Certificate(k, g, OnePSG(lam))
                    reason = _certificate_defect(w, cert)
                    pairs = all(cert.lam.pairing(c) > 0 for c in x_k_weight_set(n, k))
                    assert reason == (None if pairs else "lambda"), (lam, k)
                    assert reason == rank_certificate_defect(w, cert)
                    checked[reason] += 1
        assert checked[None] >= 10 and checked["lambda"] >= 3000, checked

    def test_out_of_range_k_rejected(self):
        w = zero_point(2, 1, 1)
        g = RationalMatrix.identity(2)
        for k in (-1, 3):
            assert not check_certificate(w, Certificate(k, g, OnePSG((1, -1))))

    def test_check_uses_no_inverse(self, monkeypatch):
        import eadjoint.linalg as la
        import eadjoint.nullcone as nc

        def forbidden(*args):
            raise AssertionError("check_certificate inverted a matrix")

        w = sample_component(4, 2, 2, 2, 5)
        _, certs = component_certificates(w)
        monkeypatch.setattr(RationalMatrix, "inverse", forbidden)
        monkeypatch.setattr(nc, "_integer_inverse", forbidden)
        monkeypatch.setattr(la, "_inverse_of_int", forbidden)
        for cert in certs.values():
            assert check_certificate(w, cert)

    def test_wrong_size_rejected(self):
        w = zero_point(2, 1, 1)
        with pytest.raises(ShapeError):
            check_certificate(w, Certificate(1, RationalMatrix.identity(3), OnePSG((1, -1))))
        # a valid certificate with extra cocharacter entries is malformed
        w = sample_component(3, 2, 2, 1, 5)
        cert = adapted_certificate(w, 1)
        assert check_certificate(w, cert)
        with pytest.raises(ShapeError, match="cocharacter length"):
            check_certificate(w, Certificate(1, cert.g, OnePSG(cert.lam.lam + (-99,))))
