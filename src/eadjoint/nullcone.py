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

Both subspaces are classical Kalman subspaces (Kalman 1963): S is the row
span of the controllability matrix ctrl = [B, AB, ..., A^{n-1}B]^T and K
the kernel of the observability matrix obs = [C; CA; ...; CA^{n-1}].
Neither matrix is built: ``_invariant_basis`` grows S from the columns of
B, and ann K from the rows of C under v -> v A, one vector at a time and
at most n rows each, so the interval is [dim S, dim K], two row counts.
The rows of S decide membership: the invariants tau_k = tr(A^k) all
vanish exactly when A is nilpotent, and the Gamma_k = C A^k B exactly
when C S = 0.

The components come from the maximal unstable weight sets, which form the
ladder X_0..X_n up to relabelling the coordinates (Hilbert-Mumford).  The
ladder search checks that claim over every cocharacter: the weight set of a
cocharacter depends only on its sign-annotated order type, and once the
weights are shown S_n-invariant one nonincreasing order type per S_n-orbit
is enough (the Weyl-group reduction, Hesselink 1979).  Every set lies
inside the set of its refining chamber and the n + 1 chamber sets have one
size, so the maximal sets are the relabelled chamber sets; the chamber with
k positive entries must give the rung X_k.

One routine builds the certificates (k, g, lambda) of a null point: it
grows an A-invariant F from S inside K once, one vector per step, and
refines each F_k to a complete flag along which A strictly descends, g the
inverse of the flag's basis.  A certificate is checked from g alone: g.w
lies in U_k exactly when g is invertible, rows k.. of gB vanish, the rows
of C lie in the span of the rows k.. of g, and each row g_i A lies in the
span of the rows of g below row i.  One pass over the rows of g, cleared
of denominators, decides those spans bottom row first, reducing each
vector against the rows kept so far; no rank is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import _kernels as _k
from .errors import NotAMemberError, NotInNullConeError, OutOfRangeError, ShapeError
from .invariants import (
    Point,
    _controllability,
    _integer_rescaled_point,
    _observability,
    _orbit_tangent_rows,
    check_sizes,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    _divided,
    _integer_inverse,
    _invariant_basis,
    _kernel_span,
    _power_traces,
    _reduced,
    _span,
    kernel_subspace,
)
from .sampling import (
    DEFAULT_BOUND,
    as_rng,
    random_move,
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


def _orbit_representatives(n):
    """One nonincreasing cocharacter for each S_n-orbit of order types.

    The weight set of a cocharacter depends only on how its entries compare
    with each other and with zero: its sign-annotated order type, an ordered
    set partition of the coordinates with a zero marker.  Permuting the
    coordinates leaves only the block sizes, so an orbit is a composition of
    n into blocks, highest level first, with the marker alone in one of the
    gaps or inside one of the blocks (the block at level 0).  That gives
    (n + 2) 2^(n-1) representatives; one with blocks of sizes b_1..b_m
    stands for n!/(b_1!...b_m!) order types.
    """
    reps = []
    for cuts in range(1 << (n - 1)):
        sizes = [1]
        for i in range(n - 1):
            if cuts >> i & 1:
                sizes.append(1)
            else:
                sizes[-1] += 1
        m = len(sizes)
        # block levels with the marker alone below g blocks, or inside block g
        placings = [tuple(g - j - (j >= g) for j in range(m)) for g in range(m + 1)]
        placings += [tuple(g - j for j in range(m)) for g in range(m)]
        for levels in placings:
            reps.append(tuple(v for v, b in zip(levels, sizes) for _ in range(b)))
    return reps


def _weight_set(lam, candidates) -> frozenset:
    """The candidate weights that pair strictly positively with lam."""
    return frozenset(c for c in candidates if sum(map(mul, lam, c)) > 0)


def enumerate_maximal_unstable(n, p, q):
    """Search all cocharacters for the maximal unstable weight subsets.

    Four checks, each raising on its own, decide it on one cocharacter per
    S_n-orbit of order types (``_orbit_representatives``):

    0. The candidate weights are unchanged by each adjacent transposition of
       the coordinates.  Transpositions generate S_n, so the weight set of
       sigma.lam is sigma applied to the set of lam, and every order type's
       set is a relabelled representative's set.
    1. Breaking a representative's ties by index and moving its level-0
       coordinates to the positive side refines it to a chamber: no ties and
       no coordinate at level 0.  Every pairing that was positive stays
       positive, so its set must lie inside its chamber's.  The chamber
       with k positive entries is itself a representative, so its set is
       one of the representatives' sets.
    2. The n + 1 chamber sets have one size.  With checks 0 and 1, every
       set lies in a relabelled chamber set of that size, so the maximal
       sets are exactly the relabelled chamber sets.
    3. The chamber set with k positive entries is the rung X_k.

    Every set is computed from ``weights_of_W`` and compared with the ladder
    only at the end.
    """
    candidates = [w.coeffs for w in weights_of_W(n, p, q) if any(w.coeffs)]
    multiset = sorted(candidates)
    for i in range(n - 1):
        swapped = [c[:i] + (c[i + 1], c[i]) + c[i + 2 :] for c in candidates]
        if sorted(swapped) != multiset:
            raise AssertionError(
                "the candidate weights are not S_n-invariant: no ladder"
            )
    reps = _orbit_representatives(n)
    sets = [_weight_set(lam, candidates) for lam in reps]
    chambers = {
        sum(v > 0 for v in lam): s
        for lam, s in zip(reps, sets)
        if 0 not in lam and len(set(lam)) == n
    }
    for lam, s in zip(reps, sets):
        if not s <= chambers[sum(v >= 0 for v in lam)]:
            raise AssertionError(
                "an order type's weight set leaves its chamber's: no ladder"
            )
    if len({len(s) for s in chambers.values()}) != 1:
        raise AssertionError("chamber weight sets differ in size: no ladder")
    for k in range(n + 1):
        if chambers[k] != x_k_weight_set(n, k):
            raise AssertionError(
                "maximal unstable classes do not match the expected ladder"
            )
    return [UnstableSubset(k, x_k_weight_set(n, k)) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# membership


def _null_span(wi: Point):
    """The rows of S, the A-span of im B (``_invariant_basis``), of an
    integer point in the null cone, else None; [] when B = 0.

    Every invariant vanishes exactly when A is nilpotent (all tau_k = 0)
    and C A^k B = 0 for k < n.  Over Q, A is nilpotent exactly when
    tr A^k = 0 for k = 1..n: by Newton's identities the power sums then
    make every coefficient of the characteristic polynomial but the
    leading one vanish.  ``_power_traces`` reads them off the powers up to
    A^ceil(n/2).  The point is then null exactly when C S = 0, since S is
    spanned by the A^k b_j.
    """
    n = wi.n
    if sum(wi.A.entries[:: n + 1]) or any(_power_traces(wi.A.entries, n, n)):
        return None
    s = _invariant_basis(wi.A.entries, n, wi.B.transpose().to_rows())
    if any(_k.mat_mul([x for v in s for x in v], len(s), n, wi.C.transpose().entries, wi.q)):
        return None
    return s


def in_null_cone(w: Point) -> bool:
    """True exactly when every generating invariant vanishes at w."""
    return _null_span(_integer_rescaled_point(w)[0]) is not None


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


def invariant_hull_of_image(a: RationalMatrix, b: RationalMatrix) -> Subspace:
    """Smallest a-invariant subspace containing the column space of b."""
    return _span(a.rows, _controllability(a, b)._int_rows())


def largest_invariant_in_kernel(a: RationalMatrix, c: RationalMatrix) -> Subspace:
    """Largest a-invariant subspace contained in ker c."""
    return kernel_subspace(_observability(a, c))


def component_interval(w: Point) -> ComponentInterval:
    """Classify a point into null-cone components.

    For a null point the answer is the interval [dim S, dim K] with S the
    A-span of the image of B and K the largest A-invariant subspace of
    ker C: d_min counts the rows of S (``_null_span``) and d_max is n less
    the rows grown from those of C under v -> v A, which span ann K.  No
    elimination runs beyond that growth.  A point with nonzero invariants
    gets the empty interval.
    """
    wi = _integer_rescaled_point(w)[0]
    s = _null_span(wi)
    if s is None:
        return ComponentInterval(None, None, False)
    d_max = w.n - len(_invariant_basis(wi.A.entries, w.n, wi.C.to_rows(), on_left=True))
    if len(s) > d_max:
        raise AssertionError("membership interval inverted on a null point")
    return ComponentInterval(len(s), d_max, True)


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


def _certificate_defect(wi: Point, cert: Certificate):
    """None for a valid certificate of the point cleared to ``wi`` by
    ``_integer_rescaled_point``, else the first condition it fails.

    With g_i the rows of g, the moved point g.w = (gB, C g^-1, g A g^-1)
    lies in U_k exactly when
    - "rank g": g is invertible;
    - "g B": rows k.. of gB vanish;
    - "C g^-1": the rows of C lie in the span of g_k..g_{n-1}, so the
      first k columns of C g^-1 vanish;
    - "g A g^-1": every g_i A lies in the span of g_{i+1}..g_{n-1}, so
      g A g^-1 is strictly upper triangular.
    Scaling a row of g changes none of these, so each row is cleared to
    integers.  One pass over the rows of g, bottom row first, decides the
    spans: g_i A must reduce to zero against the rows kept so far
    (``_reduced``) before g_i joins them, g_i must not, and once g_k has
    joined, every row of C must.  "lambda" means some weight of X_k pairs
    non-positively with the cocharacter, that is lambda is not strictly
    decreasing or lambda_{k-1} <= 0 or lambda_k >= 0; "k" means that k
    lies outside 0..n.
    """
    n, k, lam = wi.n, cert.k, cert.lam.lam
    if cert.g.shape != (n, n):
        raise ShapeError("group element has wrong size")
    if len(lam) != n:
        raise ShapeError("cocharacter length must be n")
    if not 0 <= k <= n:
        return "k"
    g = cert.g._int_rows()
    ga = _k.mat_mul([x for row in g for x in row], n, n, wi.A.entries, n)
    rows, lead, c_in, ga_in = [], [], True, True
    for i in range(n, -1, -1):  # rows holds the span of g_i..g_{n-1}
        if i == k:
            c_in = all(_reduced(c, rows, lead) is None for c in wi.C.to_rows())
        if i:
            ga_in = ga_in and _reduced(ga[(i - 1) * n : i * n], rows, lead) is None
            v = _reduced(g[i - 1], rows, lead)
            if v is None:
                return "rank g"
            rows.append(v)
            lead.append(next(j for j, x in enumerate(v) if x))
    tail = [x for row in g[k:] for x in row]
    if any(_k.mat_mul(tail, n - k, n, wi.B.entries, wi.p)):
        return "g B"
    if not c_in:
        return "C g^-1"
    if not ga_in:
        return "g A g^-1"
    if any(x <= y for x, y in zip(lam, lam[1:])) or (k and lam[k - 1] <= 0) or (
            k < n and lam[k] >= 0):
        return "lambda"
    return None


def check_certificate(w: Point, cert: Certificate) -> bool:
    """Both certificate invariants, bit-exactly, from g alone (no inverse)."""
    return _certificate_defect(_integer_rescaled_point(w)[0], cert) is None


def _first_new_basis_column(target: Subspace, current: Subspace):
    for j in range(target.dim):
        col = target.basis.col_list(j)
        if not current.contains_vector(col):
            return col
    return None


def _layer(a: RationalMatrix, current: Subspace, cut):
    """One step up a chain of subspaces of the integer matrix a: (layer, new).

    The layer is {x : a x in current} cut by the rows ``cut``, the kernel of
    [ann(current) a; cut], and holds current.  Stored row j of the layer is
    new, outside the span of current and the rows before it, exactly when
    its image under ann(current), whose kernel is current, is independent
    of the images of the rows before it (``_reduced``).
    From current = 0, where ann(current) is the identity, every row is new.
    """
    n = a.rows
    if not current.dim:
        layer = _kernel_span([a.entries[i * n : (i + 1) * n] for i in range(n)] + cut, n)
        return layer, list(layer._rows)
    ann = current._annihilator()
    m = len(ann)
    prod = _k.mat_mul([x for row in ann for x in row], m, n, a.entries, n)
    layer = _kernel_span([prod[i * n : (i + 1) * n] for i in range(m)] + cut, n)
    images = _k.mat_mul([x for row in layer._rows for x in row], layer.dim, n,
                        [row[j] for j in range(n) for row in ann], m)
    new, kept, lead = [], [], []
    for j, row in enumerate(layer._rows):
        v = _reduced(images[j * m : (j + 1) * m], kept, lead)
        if v is not None:
            kept.append(v)
            lead.append(next(i for i, x in enumerate(v) if x))
            new.append(row)
    return layer, new


def _certify(w: Point, only=None):
    """(interval, {k: certificate}) of a null point, for every k of its
    interval or for k = ``only`` alone; raises outside the cone or, for
    ``only``, outside the interval.

    F starts at S (``_null_span``), and K enters only through its
    annihilator, the independent rows grown from those of C under v -> v A,
    so d_max is n less their count and they cut the growth unreduced.
    Each growth step adds the first new row of A^-1 F inside K.  The flag
    of F_k climbs by ``_layer`` from 0, each layer the preimage of the last
    under A: cut by ann(F) below F, where it is ker(A^j) inside F, and
    uncut above F, where it is A^-j F.  The climb stops at dimension n - 1:
    A is nilpotent, so the last layer is V, and its one new vector is e_j
    for j the first nonzero entry of the single row of ann(current).
    """
    wi = _integer_rescaled_point(w)[0]
    s = _null_span(wi)
    if s is None:
        raise NotInNullConeError("certificates exist only for null points")
    n, a, f = wi.n, wi.A, _span(wi.n, s)
    ann_k = _invariant_basis(a.entries, n, wi.C.to_rows(), on_left=True)
    interval = ComponentInterval(f.dim, n - len(ann_k), True)
    if only is not None and only not in interval:
        raise NotAMemberError(
            f"point is not a member of component {only}: interval is "
            f"[{interval.d_min}, {interval.d_max}]"
        )
    certs = {}
    for k in range(f.dim, (interval.d_max if only is None else only) + 1):
        if k > f.dim:
            new = _layer(a, f, ann_k)[1]
            if not new:
                raise AssertionError("invariant subspace growth stalled")
            f = _span(n, [*f._rows, new[0]])
        if only is not None and k != only:
            continue
        ann_f, flag, current = f._annihilator(), [], Subspace.zero(n)
        while current.dim < n - 1:
            current, new = _layer(a, current, ann_f if current.dim < k else [])
            flag += new
        if current.dim < n:
            (top,) = current._annihilator()
            j = next(i for i, x in enumerate(top) if x)
            flag.append([int(i == j) for i in range(n)])
        # the flag basis has column j flag[j] / D_j, D_j its pivot entry, so
        # g, its inverse, is D Bint^-1 with Bint's columns the rows of flag
        cols = [v[i] for i in range(n) for v in flag]
        _, _, h, den = _integer_inverse(RationalMatrix(n, n, cols, validate=False))
        pivot_entries = [next(x for x in v if x) for v in flag]
        g = _divided(n, n, [pivot_entries[i // n] * x for i, x in enumerate(h)], 1, den)
        certs[k] = Certificate(k, g, standard_destabilizer(n, k))
        if _certificate_defect(wi, certs[k]) is not None:
            raise AssertionError("constructed certificate failed validation")
    return interval, certs


def adapted_certificate(w: Point, k) -> Certificate:
    """A change of basis carrying a null point into U_k, with the strictly
    decreasing cocharacter, re-verified bit-exactly (``_certify``).

    k outside 0..n is an ``OutOfRangeError``, raised before the point is
    cleared.
    """
    if not 0 <= k <= w.n:
        raise OutOfRangeError(f"k must lie in 0..{w.n}, got {k}")
    return _certify(w, k)[1][k]


def component_certificates(w: Point):
    """(interval, {k: certificate for k in the interval}) of a null point,
    all from one chain of invariant subspaces and each re-verified
    bit-exactly (``_certify``)."""
    return _certify(w)


# ---------------------------------------------------------------------------
# samplers and dimension formulas


def random_unstable_point(rng, n, p, q, k, bound=DEFAULT_BOUND) -> Point:
    """Random point of U_k whose adjoint part has a full superdiagonal:
    B's first k rows, then C's last n - k columns, then A's strict upper
    triangle (its superdiagonal nonzero), each drawn row by row into flat
    integer lists."""
    b = [rng.randint(-bound, bound) for _ in range(k * p)] + [0] * ((n - k) * p)
    c = [rng.randint(-bound, bound) if j >= k else 0 for _ in range(q) for j in range(n)]
    a = [0 if j <= i else random_nonzero_int(rng, bound) if j == i + 1
         else rng.randint(-bound, bound) for i in range(n) for j in range(n)]
    return Point(RationalMatrix(n, p, b, validate=False),
                 RationalMatrix(q, n, c, validate=False),
                 (RationalMatrix(n, n, a, validate=False),))


def sample_component(n, p, q, k, seed) -> Point:
    """A random point of C_k = GL_n U_k: a random group element applied to
    a random U_k point.

    The point is ``random_move(rng, random_unstable_point(rng, n, p, q,
    k))`` for ``rng = as_rng(seed)``: the point and the draws of
    ``group_action(random_invertible(rng, n), u)``, with one elimination
    per group element.  n, p and q outside 1..``MAX_SIZE``, or k outside
    0..n, are an ``OutOfRangeError``, raised before anything is drawn.
    """
    check_sizes(n, p, q)
    if not (0 <= k <= n):
        raise OutOfRangeError(f"k must lie in 0..{n}, got {k}")
    rng = as_rng(seed)
    return random_move(rng, random_unstable_point(rng, n, p, q, k))


def component_tangent_dim(n, p, q, k, seed) -> int:
    """dim(g.u + U_k) at a random U_k point u with principal adjoint part.

    The infinitesimal action X -> ([X, A], XB, -CX) together with U_k
    spans the image of the differential of the sweep map, whose generic
    dimension is the component dimension (n^2 - n) + pk + q(n - k).  U_k
    is spanned by coordinates, so that dimension is |U_k| plus the rank of
    the rows of ``_orbit_tangent_rows`` at the coordinates outside U_k,
    read off one tangent at a packed X.  n, p and q outside
    1..``MAX_SIZE``, or k outside 0..n, are an ``OutOfRangeError``.
    """
    check_sizes(n, p, q)
    if not (0 <= k <= n):
        raise OutOfRangeError(f"k must lie in 0..{n}, got {k}")
    u = random_unstable_point(as_rng(seed), n, p, q, k)
    coords = unstable_subspace(standard_destabilizer(n, k), n, p, q)
    b0, c0 = n * n, n * n + n * p  # offsets of dB and dC
    inside = {i * n + j for i, j in coords.a_entries}
    inside.update(b0 + i * p + j for i in coords.b_rows for j in range(p))
    inside.update(c0 + i * n + j for i in range(q) for j in coords.c_cols)
    rows = [row for c, row in enumerate(_orbit_tangent_rows(u)) if c not in inside]
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
    """Closed-form component dimensions (n^2 - n) + pk + q(n - k), their
    max and whether they are all equal.

    n, p and q outside 1..``MAX_SIZE`` are an ``OutOfRangeError``.
    """
    check_sizes(n, p, q)
    dims = tuple((n * n - n) + p * k + q * (n - k) for k in range(n + 1))
    return NullconeSummary(dims, max(dims), len(set(dims)) == 1)


def regular_nilpotent(n) -> RationalMatrix:
    """The regular nilpotent Jordan block: ones on the superdiagonal."""
    return RationalMatrix(
        n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)],
        validate=False,
    )


def pinned_row_witness(n, p, q, k, seed=0) -> Point:
    """The 'pinned' U_k family with generic remaining entries, k in 0..n.

    The adjoint part A is the regular nilpotent Jordan block, B's first
    column is the k-th elementary vector (k >= 1) and C's first row has a 1
    in column k (k < n); B's other supported entries and the rest of the
    supported C block are generic.  A's invariant subspaces are exactly the
    coordinate flags V_j, so the pins make S = K = V_k for every draw and
    the stabilizer Hom_A(V/S, K) is Hom(Q[t]/t^(n-k), Q[t]/t^k), of
    dimension min(k, n - k) independent of the generic choices.
    """
    if not (0 <= k <= n):
        raise ValueError("k must lie in [0, n]")
    rng = as_rng(seed)
    b = [0] * (n * p)
    if k >= 1:
        b[(k - 1) * p] = 1
    for i in range(k):
        for j in range(1, p):
            b[i * p + j] = rng.randint(-DEFAULT_BOUND, DEFAULT_BOUND)
    c = [rng.randint(-DEFAULT_BOUND, DEFAULT_BOUND) if j >= k else 0
         for _ in range(q) for j in range(n)]
    if k < n:
        c[k] = 1
    return Point(
        RationalMatrix(n, p, b, validate=False),
        RationalMatrix(q, n, c, validate=False),
        (regular_nilpotent(n),),
    )
