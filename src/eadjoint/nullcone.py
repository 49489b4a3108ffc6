"""Null-cone structure: weights, components, membership and certificates.

A point lies in the null cone exactly when all invariants vanish.  The cone
splits into n + 1 irreducible components C_0..C_n, where C_k is swept out by
the group from the coordinate subspace U_k (B supported in the first k rows,
C in the last n - k columns, adjoint part strictly upper triangular).

Component membership is decided by two canonical invariant subspaces of a
null point: S, the smallest A-invariant subspace containing the column space
of B, and K, the largest A-invariant subspace inside ker C.  Then the point
belongs to C_k if and only if dim S <= k <= dim K: any adapted flag squeezes
an invariant F of dimension k between S and K, and conversely a nilpotent
map admits invariant subspaces of every dimension between dim S and dim K.
This criterion is validated against the component sampler by the
verification suites before anything downstream relies on it.

Both subspaces are classical Kalman subspaces (Kalman 1963): S is the column
space of the controllability matrix ctrl = [B, AB, ..., A^{n-1}B] and K is
the kernel of the observability matrix [C; CA; ...; CA^{n-1}].  So the
interval is [rank ctrl, n - rank obs], two integer ranks, and S and K are
one elimination each; no fixed-point iteration is needed.  The same ctrl
decides membership: the invariants tau_k = tr(A^k) all vanish exactly when
A is nilpotent, and the Gamma_k = C A^k B exactly when C ctrl = 0.

The components come from the maximal unstable weight sets, which form the
ladder X_0..X_n up to relabelling the coordinates (Hilbert-Mumford).  The
ladder search checks that claim exhaustively: the weight set of a
cocharacter depends only on its sign-annotated order type, so every order
type is visited once and its set packed into one integer.  Every set lies
inside the set of its refining chamber and all chamber sets have one size,
so the maximal sets are the distinct chamber sets; each is relabelled in
the coordinate order its positive roots fix and compared with its rung.

A certificate (k, g, lambda) is checked from g alone, without inverting it:
g.w lies in U_k exactly when g is invertible, rows k.. of gB vanish, the
rows of C lie in the span of the rows k.. of g, and each row g_i A lies in
the span of the rows of g below row i.  Those are integer rank tests on g
with its rows cleared of denominators.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as _k
from .errors import NotAMemberError, NotInNullConeError, OutOfRangeError, ShapeError
from .invariants import (
    Point,
    _controllability,
    _integer_rescaled_point,
    action_equations,
    check_action_equations,
    check_sizes,
    group_action,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    column_space,
    kernel_subspace,
)
from .sampling import (
    DEFAULT_BOUND,
    as_rng,
    random_invertible,
    random_nonzero_int,
)

# ---------------------------------------------------------------------------
# weights of the representation


@dataclass(frozen=True)
class Weight:
    """A diagonal-torus character in epsilon coordinates, with multiplicity."""

    coeffs: tuple
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))


@dataclass(frozen=True)
class OnePSG:
    """An integer cocharacter of the diagonal torus."""

    lam: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(int(v) for v in self.lam))

    def pairing(self, coeffs) -> int:
        return sum(l * c for l, c in zip(self.lam, coeffs))


def weights_of_W(n, p, q, r=1):
    """All torus weights of the representation space, with multiplicities.

    Zero occurs with multiplicity n*r (each adjoint copy contributes its
    diagonal), each root e_i - e_j once, each e_i with multiplicity p and
    each -e_i with multiplicity q.  For r = 1 the multiplicity total is the
    ambient dimension n^2 + np + nq.
    """
    if n < 1 or p < 1 or q < 1 or r < 1:
        raise ShapeError("n, p, q, r must be positive")
    out = [Weight((0,) * n, n * r)]
    for i in range(n):
        for j in range(n):
            if i != j:
                coeffs = [0] * n
                coeffs[i] = 1
                coeffs[j] = -1
                out.append(Weight(tuple(coeffs), 1))
    for i in range(n):
        coeffs = [0] * n
        coeffs[i] = 1
        out.append(Weight(tuple(coeffs), p))
    for i in range(n):
        coeffs = [0] * n
        coeffs[i] = -1
        out.append(Weight(tuple(coeffs), q))
    return out


def x_k_weight_set(n, k) -> frozenset:
    """The maximal unstable weight set: positive roots, e_1..e_k, -e_{k+1..n}."""
    weights = set()
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [0] * n
            coeffs[i] = 1
            coeffs[j] = -1
            weights.add(tuple(coeffs))
    for i in range(k):
        coeffs = [0] * n
        coeffs[i] = 1
        weights.add(tuple(coeffs))
    for j in range(k, n):
        coeffs = [0] * n
        coeffs[j] = -1
        weights.add(tuple(coeffs))
    return frozenset(weights)


@dataclass(frozen=True)
class UnstableSubset:
    """A maximal unstable class, recognized as the k-th rung of the ladder."""

    k: int
    weights: frozenset  # coefficient tuples


@dataclass(frozen=True)
class UnstableCoordinates:
    """Coordinates of the subspace destabilized by a cocharacter.

    Rows of B, columns of C and entries of A whose weight pairs strictly
    positively with the cocharacter (all indices zero-based).
    """

    b_rows: tuple
    c_cols: tuple
    a_entries: tuple


def unstable_subspace(lam: OnePSG, n, p, q) -> UnstableCoordinates:
    """Select the coordinates sent to zero in the limit along the cocharacter."""
    if len(lam.lam) != n:
        raise ShapeError("cocharacter length must be n")
    b_rows = tuple(i for i in range(n) if lam.lam[i] > 0)
    c_cols = tuple(j for j in range(n) if lam.lam[j] < 0)
    a_entries = tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if lam.lam[i] > lam.lam[j]
    )
    return UnstableCoordinates(b_rows, c_cols, a_entries)


def _order_type_cocharacters(n):
    """One cocharacter for each sign-annotated weak order of n coordinates.

    The weight set of a cocharacter depends only on how its entries compare
    with each other and with zero.  Such an order type is an ordered set
    partition of the coordinates 0..n-1 and a zero marker n: the marker's
    block sits at level 0, the blocks before it at negative levels and the
    blocks after it at positive ones.  The orders are grown one item at a
    time, each item joining an existing level or opening a new one.
    """
    orders = [()]
    for _ in range(n + 1):
        grown = []
        for ranks in orders:
            levels = max(ranks, default=-1) + 1
            grown.extend(ranks + (j,) for j in range(levels))
            grown.extend(
                tuple(r + (r >= j) for r in ranks) + (j,) for j in range(levels + 1)
            )
        orders = grown
    return [tuple(r - ranks[n] for r in ranks[:n]) for ranks in orders]


def _weight_masks(lams, candidates):
    """The positive-pairing weight set of each cocharacter as one packed int.

    Candidate weight j owns the field of ``width`` bits at bit width*j,
    wide enough that the bias 2^(width-1) - 1 plus any pairing stays inside
    the field.  The bias of every field plus sum_i lam_i col_i, where col_i
    packs coordinate i of every candidate, holds bias + <lam, c_j> in field
    j, so its top bit is set exactly when the pairing is positive: one
    big-int multiply-add per nonzero coordinate, then one AND with the top
    bits.  Returns the masks, in the order of ``lams``, and the width.
    """
    n = len(lams[0])
    reach = max(max(map(max, lams)), -min(map(min, lams)))
    bound = reach * max((sum(map(abs, c)) for c in candidates), default=0)
    width = bound.bit_length() + 1
    ones = sum(1 << (width * j) for j in range(len(candidates)))
    bias = ones * ((1 << (width - 1)) - 1)
    tops = ones << (width - 1)
    cols = [
        sum(c[i] << (width * j) for j, c in enumerate(candidates) if c[i])
        for i in range(n)
    ]
    masks = []
    for lam in lams:
        v = bias
        for x, col in zip(lam, cols):
            if x:
                v += x * col
        masks.append(v & tops)
    return masks, width


def _mask_weights(mask, candidates, width) -> frozenset:
    """The candidate weights whose field is set in a packed mask."""
    top = width - 1
    return frozenset(
        c for j, c in enumerate(candidates) if mask >> (width * j + top) & 1
    )


def _ladder_rungs(weight_sets, n) -> set:
    """The rungs k of the sets that are X_k with coordinates relabelled;
    None stands for every set that is no rung.

    In X_k the positive roots e_i - e_j totally order the coordinates, so
    counting each coordinate's wins recovers the relabelling; k is the
    number of weights e_i in the set.
    """
    units = frozenset(tuple(int(t == i) for t in range(n)) for i in range(n))
    ladder = [x_k_weight_set(n, k) for k in range(n + 1)]
    winner = {}  # every root e_i - e_j, i != j, to its winner i
    for i in range(n):
        for j in range(n):
            if i != j:
                winner[tuple(int(t == i) - int(t == j) for t in range(n))] = i
    rungs = set()
    for s in weight_sets:
        wins = [0] * n
        for coeffs in s:
            i = winner.get(coeffs)
            if i is not None:
                wins[i] += 1
        order = sorted(range(n), key=wins.__getitem__, reverse=True)
        k = len(s & units)
        relabelled = frozenset(tuple(map(c.__getitem__, order)) for c in s)
        rungs.add(k if relabelled == ladder[k] else None)
    return rungs


def enumerate_maximal_unstable(n, p, q):
    """Search all cocharacters for the maximal unstable weight subsets.

    Each sign-annotated order type of a cocharacter is visited once and
    selects its positive-pairing weight subset, a packed mask.  A chamber
    is an order type with no ties and no coordinate at level 0.  Breaking
    an order type's ties by index and moving its level-0 coordinates to the
    positive side refines it to a chamber; every pairing that was positive
    stays positive, so the order type's set must lie inside its chamber's.
    Every chamber set must have the same size, so none contains another,
    and then the maximal subsets are exactly the distinct chamber sets.
    Each must be a rung X_k of the ladder up to relabelling the
    coordinates, and all n + 1 rungs must occur.  Any failed check raises.
    """
    candidates = [w.coeffs for w in weights_of_W(n, p, q) if any(w.coeffs)]
    lams = _order_type_cocharacters(n)
    masks, width = _weight_masks(lams, candidates)
    # an order type's chamber: the zero marker 0 and the coordinates 1..n
    # sorted by level, ties kept in index order, so the marker goes first
    # among level 0; a chamber is its own, its n + 1 levels all distinct
    chambers, refined = {}, []
    for lam, mask in zip(lams, masks):
        levels = (0,) + lam
        key = tuple(sorted(range(n + 1), key=levels.__getitem__))
        if len(set(levels)) > n:
            chambers[key] = mask
        else:
            refined.append((key, mask))
    if any(mask & ~chambers[key] for key, mask in refined):
        raise AssertionError(
            "an order type's weight set leaves its chamber's: no ladder"
        )
    if len({mask.bit_count() for mask in chambers.values()}) != 1:
        raise AssertionError("chamber weight sets differ in size: no ladder")
    distinct = {
        _mask_weights(mask, candidates, width) for mask in set(chambers.values())
    }
    if _ladder_rungs(distinct, n) != set(range(n + 1)):
        raise AssertionError(
            "maximal unstable classes do not match the expected ladder"
        )
    return [UnstableSubset(k, x_k_weight_set(n, k)) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# membership


def _null_controllability(wi: Point) -> RationalMatrix | None:
    """ctrl = [B, AB, ..., A^{n-1}B] of an integer point in the null cone,
    else None.

    Every invariant vanishes exactly when A is nilpotent (all tau_k = 0)
    and C A^k B = 0 for k < n, so the point is null exactly when
    A^(2^m) = 0 for the least 2^m >= n and C ctrl = 0.
    """
    a, n = wi.A, wi.n
    power, reach = a, 1
    while reach < n:
        power, reach = power @ power, 2 * reach
    if not power.is_zero():
        return None
    ctrl = _controllability(a, wi.B)
    if not (wi.C @ ctrl).is_zero():
        return None
    return ctrl


def in_null_cone(w: Point) -> bool:
    """True exactly when every generating invariant vanishes at w."""
    return _null_controllability(_integer_rescaled_point(w)[0]) is not None


@dataclass(frozen=True)
class ComponentInterval:
    """The components containing a point: {k : w in C_k} = [d_min, d_max]."""

    d_min: int | None
    d_max: int | None
    in_null_cone: bool

    def is_empty(self):
        return not self.in_null_cone

    def members(self):
        if self.is_empty():
            return range(0)
        return range(self.d_min, self.d_max + 1)

    def __contains__(self, k):
        return self.in_null_cone and self.d_min <= k <= self.d_max

    def to_json_obj(self):
        return {
            "in_null_cone": self.in_null_cone,
            "d_min": self.d_min,
            "d_max": self.d_max,
        }


def _observability(a: RationalMatrix, c: RationalMatrix) -> RationalMatrix:
    """[c; ca; ...; c a^{n-1}]; its kernel is the largest a-invariant
    subspace of ker c."""
    blocks = [c]
    for _ in range(1, a.rows):
        blocks.append(blocks[-1] @ a)
    return RationalMatrix.vstack(blocks)


def invariant_hull_of_image(a: RationalMatrix, b: RationalMatrix) -> Subspace:
    """Smallest a-invariant subspace containing the column space of b."""
    return column_space(_controllability(a, b))


def largest_invariant_in_kernel(a: RationalMatrix, c: RationalMatrix) -> Subspace:
    """Largest a-invariant subspace contained in ker c."""
    return kernel_subspace(_observability(a, c))


def component_interval(w: Point) -> ComponentInterval:
    """Classify a point into null-cone components.

    For a null point the answer is the interval [dim S, dim K] with S the
    A-span of the image of B and K the largest A-invariant subspace of
    ker C, that is [rank ctrl, n - rank obs] for the controllability and
    observability matrices.  A point with nonzero invariants gets the empty
    interval.
    """
    wi = _integer_rescaled_point(w)[0]
    ctrl = _null_controllability(wi)
    if ctrl is None:
        return ComponentInterval(None, None, False)
    d_min = ctrl.rank()
    d_max = w.n - _observability(wi.A, wi.C).rank()
    if d_min > d_max:
        raise AssertionError("membership interval inverted on a null point")
    return ComponentInterval(d_min, d_max, True)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """A destabilization witness: g moves the point into U_k coordinatewise,
    and the cocharacter contracts every U_k coordinate to zero in the limit."""

    k: int
    g: RationalMatrix
    lam: OnePSG

    def to_json_obj(self):
        return {
            "k": self.k,
            "g": self.g.to_lists(),
            "lambda": list(self.lam.lam),
        }


def standard_destabilizer(n, k) -> OnePSG:
    """The cocharacter (k, ..., 1, -1, ..., -(n-k))."""
    return OnePSG(tuple(range(k, 0, -1)) + tuple(range(-1, k - n - 1, -1)))


def _certificate_defect(w: Point, cert: Certificate):
    """None for a valid certificate, else the first condition it fails.

    With g_i the rows of g, the moved point g.w = (gB, C g^-1, g A g^-1)
    lies in U_k exactly when
    - "rank g": g is invertible;
    - "g B": rows k.. of gB vanish;
    - "C g^-1": the rows of C lie in the span of g_k..g_{n-1}, that is
      rank [g_{k:}; C] = n - k, so the first k columns of C g^-1 vanish;
    - "g A g^-1": every g_i A lies in the span of g_{i+1}..g_{n-1}, that is
      rank [g_{i+1:}; g_i A] = n - i - 1, so g A g^-1 is strictly upper
      triangular.
    Scaling a row of g changes none of these, so each row is cleared to
    integers and only integer products and ranks are needed.  "lambda"
    means some weight of U_k pairs non-positively with the cocharacter, "k"
    that k lies outside 0..n.
    """
    n, k = w.n, cert.k
    if cert.g.shape != (n, n):
        raise ShapeError("group element has wrong size")
    wi = _integer_rescaled_point(w)[0]
    if not 0 <= k <= n:
        return "k"
    g = cert.g._int_rows()
    if _k.rank_int(g, n) < n:
        return "rank g"
    tail = [x for row in g[k:] for x in row]
    if any(_k.mat_mul(tail, n - k, n, wi.B.entries, w.p)):
        return "g B"
    if _k.rank_int(g[k:] + wi.C._int_rows(), n) != n - k:
        return "C g^-1"
    ga = _k.mat_mul([x for row in g for x in row], n, n, wi.A.entries, n)
    for i in range(n):
        if _k.rank_int(g[i + 1 :] + [ga[i * n : (i + 1) * n]], n) != n - i - 1:
            return "g A g^-1"
    if not all(cert.lam.pairing(coeffs) > 0 for coeffs in x_k_weight_set(n, k)):
        return "lambda"
    return None


def check_certificate(w: Point, cert: Certificate) -> bool:
    """Both certificate invariants, bit-exactly, from g alone (no inverse)."""
    return _certificate_defect(w, cert) is None


def _first_new_basis_column(target: Subspace, current: Subspace):
    for j in range(target.dim):
        col = target.basis.col_list(j)
        if not current.contains_vector(col):
            return col
    return None


def _build_certificate(a: RationalMatrix, s: Subspace, big: Subspace, k: int) -> Certificate:
    """Flag construction between the hull s and the core big; see below."""
    n = a.rows
    f = s
    while f.dim < k:
        col = _first_new_basis_column(f.preimage_under(a).intersect(big), f)
        if col is None:
            raise AssertionError("invariant subspace growth stalled")
        f = f.sum_with(Subspace.from_spanning_columns(RationalMatrix.column(col)))

    # each layer is the preimage of the last under A; cut down to F (which
    # is A-invariant) it is ker(A^j) intersected with F below F, and above
    # F it is A^-j F.  current lies in layer, and the layer's next flag
    # vectors are its basis columns outside the span of current and the
    # columns before them: the pivot columns past current of one
    # elimination of [current | layer], with the vectors as columns
    flag_vectors = []
    current = Subspace.zero(n)
    while current.dim < n:
        layer = current.preimage_under(a)
        if current.dim < k:
            layer = layer.intersect(f)
        vectors = [*current._rows, *layer._rows]
        _, pivots, _ = _k.rre_int(
            [[v[i] for v in vectors] for i in range(n)], len(vectors)
        )
        flag_vectors += [layer.basis.col_list(j - current.dim)
                         for j in pivots if j >= current.dim]
        current = layer
    basis = RationalMatrix.from_rows(
        [[flag_vectors[j][i] for j in range(n)] for i in range(n)]
    )
    return Certificate(k, basis.inverse(), standard_destabilizer(n, k))


def _null_point_subspaces(w: Point):
    """(integer-rescaled A, S, K) of a null point; raises outside the cone."""
    wi = _integer_rescaled_point(w)[0]
    ctrl = _null_controllability(wi)
    if ctrl is None:
        raise NotInNullConeError("certificates exist only for null points")
    return wi.A, column_space(ctrl), largest_invariant_in_kernel(wi.A, wi.C)


def adapted_certificate(w: Point, k) -> Certificate:
    """Construct a change of basis carrying a null point into U_k.

    An A-invariant subspace F with image(B)-hull <= F <= ker(C)-core and
    dim F = k is grown one kernel-filtration vector at a time, then refined
    to a complete flag along which A strictly descends: below F through the
    kernels of the powers of A restricted to F, above F through the iterated
    preimages of F.  The basis change to that flag, together with the
    strictly decreasing cocharacter, is returned after both certificate
    conditions are re-verified.
    """
    wi = _integer_rescaled_point(w)[0]
    a, s, big = _null_point_subspaces(wi)
    if not (s.dim <= k <= big.dim):
        raise NotAMemberError(
            f"point is not a member of component {k}: interval is "
            f"[{s.dim}, {big.dim}]"
        )
    cert = _build_certificate(a, s, big, k)
    if not check_certificate(wi, cert):
        raise AssertionError("constructed certificate failed validation")
    return cert


def component_certificates(w: Point):
    """Classify a null point and certify every component it belongs to.

    Returns (interval, {k: certificate for k in the interval}), sharing the
    invariant-subspace computations across the certificates.  Every
    certificate is re-verified bit-exactly before being returned.
    """
    wi = _integer_rescaled_point(w)[0]
    a, s, big = _null_point_subspaces(wi)
    interval = ComponentInterval(s.dim, big.dim, True)
    certs = {}
    for k in interval.members():
        cert = _build_certificate(a, s, big, k)
        if not check_certificate(wi, cert):
            raise AssertionError("constructed certificate failed validation")
        certs[k] = cert
    return interval, certs


# ---------------------------------------------------------------------------
# samplers and dimension formulas


def random_unstable_point(rng, n, p, q, k, bound=DEFAULT_BOUND) -> Point:
    """Random point of U_k whose adjoint part has a full superdiagonal."""
    b = [[0] * p for _ in range(n)]
    for i in range(k):
        for j in range(p):
            b[i][j] = rng.randint(-bound, bound)
    c = [[0] * n for _ in range(q)]
    for i in range(q):
        for j in range(k, n):
            c[i][j] = rng.randint(-bound, bound)
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v[i][j] = (
                random_nonzero_int(rng, bound)
                if j == i + 1
                else rng.randint(-bound, bound)
            )
    return Point(
        RationalMatrix.from_rows(b),
        RationalMatrix.from_rows(c),
        (RationalMatrix.from_rows(v),),
    )


def sample_component(n, p, q, k, seed) -> Point:
    """A random point of C_k: a group element applied to a random U_k point.

    n, p and q outside 1..``MAX_SIZE``, or k outside 0..n, are an
    ``OutOfRangeError``.
    """
    check_sizes(n, p, q)
    if not (0 <= k <= n):
        raise OutOfRangeError(f"k must lie in 0..{n}, got {k}")
    rng = as_rng(seed)
    u = random_unstable_point(rng, n, p, q, k)
    g = random_invertible(rng, n)
    return group_action(g, u)


def component_tangent_dim(n, p, q, k, seed) -> int:
    """dim(g.u + U_k) at a random U_k point u with principal adjoint part.

    The infinitesimal action X -> (XB, -CX, [X, A]) together with U_k
    spans the image of the differential of the sweep map, whose generic
    dimension is the component dimension (n^2 - n) + pk + q(n - k).  U_k
    is spanned by coordinates, so that dimension is |U_k| plus the rank of
    the rows of ``action_equations`` at the coordinates outside U_k.  The
    full system is checked by ``check_action_equations`` first.
    """
    u = random_unstable_point(as_rng(seed), n, p, q, k)
    coords = unstable_subspace(standard_destabilizer(n, k), n, p, q)
    c0, a0 = n * p, n * p + q * n  # offsets of vec(C) and vec(A)
    inside = {i * p + j for i in coords.b_rows for j in range(p)}
    inside.update(c0 + i * n + j for i in range(q) for j in coords.c_cols)
    inside.update(a0 + i * n + j for i, j in coords.a_entries)
    rows = action_equations(u)
    check_action_equations(u, rows)
    rows = [row for c, row in enumerate(rows) if c not in inside]
    return len(inside) + _k.rank_int(rows, n * n)


@dataclass(frozen=True)
class NullconeSummary:
    component_dims: tuple
    nullcone_dim: int
    equidimensional: bool

    def to_json_obj(self):
        return {
            "component_dims": list(self.component_dims),
            "nullcone_dim": self.nullcone_dim,
            "equidimensional": self.equidimensional,
        }


def nullcone_summary(n, p, q) -> NullconeSummary:
    """Closed-form component dimensions (n^2 - n) + pk + q(n - k) and the max.

    n, p and q outside 1..``MAX_SIZE`` are an ``OutOfRangeError``.
    """
    check_sizes(n, p, q)
    dims = tuple((n * n - n) + p * k + q * (n - k) for k in range(n + 1))
    return NullconeSummary(dims, max(dims), p == q)


def regular_nilpotent(n) -> RationalMatrix:
    """The regular nilpotent Jordan block: ones on the superdiagonal."""
    return RationalMatrix(
        n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)]
    )


def generic_orbit_witness(n, p, q, k, seed=0):
    """A U_k point with principal adjoint part realizing the largest orbit.

    For k >= n - k this is the pinned family of ``pinned_row_witness``.  For
    k < n - k it is the transpose dual (J C^T, B^T J, J A^T J), J the
    coordinate reversal, of that family at n - k with p and q swapped: the
    dual carries U_{n-k} onto U_k, fixes the Jordan block and pins the
    first row of the supported C block, and X -> -J X^T J carries one
    stabilizer onto the other.  Either way the centralizer has dimension
    min(k, n - k), so the returned orbit dimension is n^2 - min(k, n - k).
    """
    if not (0 <= k <= n):
        raise ValueError("k must lie in [0, n]")
    from .orbits import stabilizer

    if k >= n - k:
        w = pinned_row_witness(n, p, q, k, seed)
    else:
        d = pinned_row_witness(n, q, p, n - k, seed)
        j = RationalMatrix.from_rows(RationalMatrix.identity(n).to_rows()[::-1])
        w = Point(j @ d.C.T, d.B.T @ j, (j @ d.A.T @ j,))
    return w, stabilizer(w).orbit_dim


def pinned_row_witness(n, p, q, k, seed=0) -> Point:
    """The k >= n - k 'pinned column' family with generic remaining entries.

    B's first column is the k-th elementary vector, B's other supported
    entries and the supported C block are generic; the adjoint part is the
    regular nilpotent Jordan block.  Its centralizer dimension is exactly
    n - k, independent of the generic choices.
    """
    if not (1 <= k <= n and k >= n - k):
        raise ValueError("the pinned family needs n - k <= k <= n")
    rng = as_rng(seed)
    b = [[0] * p for _ in range(n)]
    b[k - 1][0] = 1
    for i in range(k):
        for j in range(1, p):
            b[i][j] = rng.randint(-DEFAULT_BOUND, DEFAULT_BOUND)
    c = [[0] * n for _ in range(q)]
    for i in range(q):
        for j in range(k, n):
            c[i][j] = rng.randint(-DEFAULT_BOUND, DEFAULT_BOUND)
    return Point(
        RationalMatrix.from_rows(b),
        RationalMatrix.from_rows(c),
        (regular_nilpotent(n),),
    )
