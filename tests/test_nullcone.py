import itertools
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
from eadjoint.invariants import Point, evaluate_invariants, group_action
from eadjoint.linalg import (
    RationalMatrix,
    Subspace,
    char_poly,
    column_space,
    kernel_subspace,
)
from eadjoint.nullcone import (
    Certificate,
    OnePSG,
    Weight,
    _certificate_defect,
    _mask_weights,
    _order_type_cocharacters,
    _weight_masks,
    adapted_certificate,
    check_certificate,
    component_certificates,
    component_interval,
    component_tangent_dim,
    enumerate_maximal_unstable,
    generic_orbit_witness,
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
from eadjoint.sampling import random_invertible, random_matrix, random_point
from oracles import (
    invariants_vanish,
    point_in_unstable_subspace,
    positive_pairing_set,
    sign_flipped_action_equations,
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
        lams = _order_type_cocharacters(n)
        assert len(set(lams)) == len(lams) == (3, 13, 75, 541)[n - 1]
        ladder = {
            _canonical_under_permutations(c.weights, n)
            for c in enumerate_maximal_unstable(n, 2, 2)
        }
        candidates = [w.coeffs for w in weights_of_W(n, 2, 2) if any(w.coeffs)]
        masks, width = _weight_masks(lams, candidates)
        decoded = {_mask_weights(m, candidates, width) for m in masks}
        decoded.discard(frozenset())
        for box in (n, 2 * n):
            found = box_weight_sets(n, box)
            assert found == decoded
            maximal = [s for s in found if not any(s < t for t in found)]
            assert {_canonical_under_permutations(s, n) for s in maximal} == ladder

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda ws, n: ws + [Weight((1, 1) + (0,) * (n - 2))],
            lambda ws, n: ws + [Weight((2,) + (0,) * (n - 1))],
            lambda ws, n: [w for w in ws if w.coeffs != (-1,) + (0,) * (n - 1)],
            lambda ws, n: [w for w in ws if w.coeffs != (1, -1) + (0,) * (n - 2)],
        ],
        ids=["extra-sum", "extra-double", "dropped-minus-e1", "dropped-root"],
    )
    def test_corrupted_weights_raise(self, monkeypatch, corrupt):
        true_weights = nullcone.weights_of_W
        monkeypatch.setattr(
            nullcone,
            "weights_of_W",
            lambda n, p, q, r=1: corrupt(true_weights(n, p, q, r), n),
        )
        for n in (2, 3, 4):
            with pytest.raises(AssertionError, match="ladder"):
                enumerate_maximal_unstable(n, 2, 2)

    @staticmethod
    def widen_one_mask(monkeypatch, pick):
        """Give the first order type that ``pick`` accepts the union of all
        evaluated masks, which exceeds every chamber set."""
        true_masks = nullcone._weight_masks

        def widened(lams, candidates):
            masks, width = true_masks(lams, candidates)
            i = next(i for i, lam in enumerate(lams) if pick(lam))
            for m in list(masks):
                masks[i] |= m
            return masks, width

        monkeypatch.setattr(nullcone, "_weight_masks", widened)

    def test_containment_fails_alone(self, monkeypatch):
        # an order type with a level-0 coordinate is no chamber: the chamber
        # masks, so the size and rung checks, are untouched
        self.widen_one_mask(monkeypatch, lambda lam: 0 in lam)
        for n in (2, 3, 4):
            with pytest.raises(AssertionError, match="leaves its chamber's"):
                enumerate_maximal_unstable(n, 2, 2)

    def test_unequal_chamber_sizes_raise(self, monkeypatch):
        # a widened chamber keeps containment; the size check raises before
        # the rung check
        self.widen_one_mask(
            monkeypatch, lambda lam: 0 not in lam and len(set(lam)) == len(lam)
        )
        for n in (2, 3, 4):
            with pytest.raises(AssertionError, match="differ in size: no ladder"):
                enumerate_maximal_unstable(n, 2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_packed_masks_match_pairings(self, n):
        # corrupted weights with coefficients 2 and 3 widen the fields; the
        # all-3 weights reach the field bound at lam = (+-n, ..., +-n)
        extra = [
            (2,) + (0,) * (n - 1),
            (3,) * n,
            (-3,) * n,
            (2, -3) * (n // 2) + (3,) * (n % 2),
        ]
        candidates = [w.coeffs for w in weights_of_W(n, 2, 2) if any(w.coeffs)]
        candidates += extra
        lams = _order_type_cocharacters(n) + [(n,) * n, (-n,) * n]
        masks, width = _weight_masks(lams, candidates)
        assert len(masks) == len(lams)
        for lam, m in zip(lams, masks):
            decoded = _mask_weights(m, candidates, width)
            assert decoded == positive_pairing_set(lam, candidates)

    def test_n6_ladder(self, monkeypatch):
        seen = []
        true_rungs = nullcone._ladder_rungs

        def spy(weight_sets, n):
            seen.append({len(s) for s in weight_sets})
            seen.append(len(weight_sets))
            return true_rungs(weight_sets, n)

        monkeypatch.setattr(nullcone, "_ladder_rungs", spy)
        classes = enumerate_maximal_unstable(6, 2, 2)
        assert [c.k for c in classes] == list(range(7))
        assert seen == [{21}, 5040]


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

    def test_tangent_dim_checks_its_action_equations(self, monkeypatch):
        monkeypatch.setattr(nullcone, "action_equations", sign_flipped_action_equations)
        for n in (2, 3, 4):
            for k in range(n + 1):
                with pytest.raises(AssertionError, match="fixed X"):
                    component_tangent_dim(n, 1, 1, k, seed=n)

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
            _, dim0 = generic_orbit_witness(n, 2, 2, 0, seed=1)
            _, dimn = generic_orbit_witness(n, 2, 2, n, seed=1)
            assert dim0 == n * n
            assert dimn == n * n

    def test_n4_k2(self):
        _, dim = generic_orbit_witness(4, 2, 2, 2, seed=2)
        assert dim == 16 - 2

    def test_formula_all_k(self):
        rng = random.Random(23)
        for n in range(1, 6):
            for k in range(n + 1):
                p, q = rng.randint(1, 3), rng.randint(1, 3)
                w, dim = generic_orbit_witness(n, p, q, k, seed=rng.randint(0, 10**6))
                assert dim == n * n - min(k, n - k)
                assert in_null_cone(w)
                assert k in component_interval(w)

    def test_small_k_witness_is_the_dual_of_the_pinned_family(self):
        # for k < n - k: a U_k point, A the Jordan block, row 0 of C equal
        # to e_k, and every other supported entry drawn from the pinned
        # family at n - k with p and q swapped
        for n in range(2, 7):
            for k in range(n):
                if k >= n - k:
                    continue
                for p, q in ((1, 1), (2, 3), (3, 2)):
                    for seed in range(3):
                        w, dim = generic_orbit_witness(n, p, q, k, seed)
                        assert point_in_unstable_subspace(w, k)
                        assert w.A == principal_nilpotent(n)
                        assert w.C.row_list(0) == [int(j == k) for j in range(n)]
                        d = pinned_row_witness(n, q, p, n - k, seed)
                        assert w.B.entries == tuple(
                            d.C.entry(j, n - 1 - i) for i in range(n) for j in range(p)
                        )
                        assert w.C.entries == tuple(
                            d.B.entry(n - 1 - j, i) for i in range(q) for j in range(n)
                        )
                        assert dim == n * n - k

    def test_pinned_family_stab_dims(self):
        rng = random.Random(29)
        for n in range(1, 7):
            for k in range(1, n + 1):
                if k < n - k:
                    continue
                p, q = rng.randint(1, 3), rng.randint(1, 3)
                w = pinned_row_witness(n, p, q, k, seed=rng.randint(0, 10**6))
                assert stabilizer(w).stab_dim == n - k

    def test_pinned_family_rejects_small_k(self):
        with pytest.raises(ValueError):
            pinned_row_witness(5, 1, 1, 2)


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
    s = column_space(b)
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
        f = f.sum_with(column_space(RationalMatrix.column(col)))
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
            current = current.sum_with(column_space(RationalMatrix.column(col)))
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
    def test_matches_kernel_powers_on_wide_intervals(self):
        wide = 0
        for w in sparse_null_points(53, 120):
            a, hull, core = nullcone._null_point_subspaces(w)
            wide += core.dim > hull.dim
            for k in range(hull.dim, core.dim + 1):
                expected = certificate_by_kernel_powers(a, hull, core, k)
                assert nullcone._build_certificate(a, hull, core, k) == expected
                assert check_certificate(w, expected)
        assert wide >= 60


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
            for cert in certs.values():
                assert check_certificate(w, cert)
                assert group_action_check(w, cert)
                valid += 1
                for bad in self.corrupted(rng, w, cert):
                    ok = check_certificate(w, bad)
                    assert ok == group_action_check(w, bad)
                    reason = _certificate_defect(w, bad)
                    assert (reason is None) == ok
                    defects[reason] = defects.get(reason, 0) + 1
        assert valid >= 50
        # every rank condition rejects some corrupted certificate
        for reason in ("rank g", "g B", "C g^-1", "g A g^-1", "lambda"):
            assert defects.get(reason, 0) > 0, (reason, defects)

    def test_out_of_range_k_rejected(self):
        w = zero_point(2, 1, 1)
        g = RationalMatrix.identity(2)
        for k in (-1, 3):
            assert not check_certificate(w, Certificate(k, g, OnePSG((1, -1))))

    def test_check_uses_no_inverse(self, monkeypatch):
        import eadjoint.nullcone as nc

        def forbidden(*args):
            raise AssertionError("check_certificate inverted a matrix")

        w = sample_component(4, 2, 2, 2, 5)
        _, certs = component_certificates(w)
        monkeypatch.setattr(RationalMatrix, "inverse", forbidden)
        monkeypatch.setattr(nc, "group_action", forbidden)
        for cert in certs.values():
            assert check_certificate(w, cert)

    def test_wrong_size_rejected(self):
        w = zero_point(2, 1, 1)
        with pytest.raises(ShapeError):
            check_certificate(w, Certificate(1, RationalMatrix.identity(3), OnePSG((1, -1))))
