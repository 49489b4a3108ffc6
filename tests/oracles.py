"""Slow reference definitions that tests compare the package against.

Each is either the plain definition an optimised path of the package
replaced, or a helper that only tests need; nothing in ``eadjoint`` calls
them.
"""

from dataclasses import dataclass
from fractions import Fraction

from eadjoint import _kernels, nullcone
from eadjoint.errors import (
    DegenerateSpectrumError,
    FiberConditionError,
    MultipleCopiesError,
    ShapeError,
    SingularMatrixError,
)
from eadjoint.invariants import (
    InvariantVector,
    Point,
    cyclic_canonical,
    evaluate_invariants,
)
from eadjoint.linalg import (
    PolynomialCoeffs,
    RationalMatrix,
    Subspace,
    _canon,
    char_poly,
    elementary_from_power_sums,
    rank_mod_prime,
    trace_product,
)
from eadjoint.nullcone import Certificate, UnstableSubset, x_k_weight_set


def trace(m: RationalMatrix):
    """The sum of the diagonal entries of a square matrix."""
    if not m.is_square:
        raise ShapeError("trace of a non-square matrix")
    return _canon(sum(m.entries[:: m.rows + 1]))


def degree(p: PolynomialCoeffs) -> int:
    """The degree of a monic polynomial."""
    return len(p.coeffs) - 1


def contains(s: Subspace, t: Subspace) -> bool:
    """Whether t lies in s; ``ShapeError`` if their ambient spaces differ."""
    return s.sum_with(t).dim == s.dim


def controllable(wi: Point) -> bool:
    """Whether rank [B, AB, ..., A^{n-1}B] = n mod ``PRIME`` at an integer
    point: True proves rank n; False means rank below n or a rank that
    only drops mod the prime."""
    ctrl = controllability_blocks(wi.A, wi.B)
    return rank_mod_prime(ctrl.to_rows(), ctrl.cols) == wi.n


def matrix_powers(a: RationalMatrix, top: int):
    """[I, a, a^2, ..., a^top] by Fraction products."""
    out = [RationalMatrix.identity(a.rows)]
    for _ in range(top):
        out.append(out[-1] @ a)
    return out


def controllability_blocks(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """[b, ab, ..., a^{n-1} b] by Fraction products and ``hstack``."""
    blocks = [b]
    for _ in range(1, a.rows):
        blocks.append(a @ blocks[-1])
    return RationalMatrix.hstack(blocks)


def observability_blocks(a: RationalMatrix, c: RationalMatrix) -> RationalMatrix:
    """[c; ca; ...; c a^{n-1}] by Fraction products and ``vstack``."""
    blocks = [c]
    for _ in range(1, a.rows):
        blocks.append(blocks[-1] @ a)
    return RationalMatrix.vstack(blocks)


def polynomial_derivative(p: PolynomialCoeffs) -> tuple:
    """Coefficients of p' from the top power down."""
    n = degree(p)
    return tuple(_canon(p.coeffs[i] * (n - i)) for i in range(n))


def sylvester_resultant(f: tuple, g: tuple):
    """Resultant of two polynomials given by coefficient tuples (top down),
    as the determinant of their Sylvester matrix."""
    df = len(f) - 1
    dg = len(g) - 1
    if df < 0 or dg < 0:
        raise ValueError("resultant of an empty polynomial")
    size = df + dg
    if size == 0:
        return 1
    rows = []
    for i in range(dg):
        rows.append([0] * i + list(f) + [0] * (size - i - df - 1))
    for i in range(df):
        rows.append([0] * i + list(g) + [0] * (size - i - dg - 1))
    return RationalMatrix.from_rows(rows).det()


def resultant_discriminant_is_nonzero(a: RationalMatrix) -> bool:
    """Distinct eigenvalues of a from res(chi, chi') != 0, chi the
    Faddeev-LeVerrier characteristic polynomial."""
    p = char_poly(a)
    if degree(p) <= 1:
        return True
    return sylvester_resultant(p.coeffs, polynomial_derivative(p)) != 0


@dataclass(frozen=True)
class TangentVector:
    """A direction (dB, dC, dA) at an r = 1 point."""

    dB: RationalMatrix
    dC: RationalMatrix
    dA: RationalMatrix


def differential(w: Point, dw: TangentVector) -> InvariantVector:
    """Exact directional derivative of the invariants at w along dw.

    Product rule only, no finite differences:
      d tau_k   = k * trace(A^{k-1} dA)
      d Gamma_k = dC A^k B + sum_i C A^i dA A^{k-1-i} B + C A^k dB
    """
    if w.r != 1:
        raise MultipleCopiesError("differential is defined for r = 1 points")
    n, p, q = w.n, w.p, w.q
    if dw.dB.shape != (n, p) or dw.dC.shape != (q, n) or dw.dA.shape != (n, n):
        raise ShapeError("tangent vector shapes do not match the point")
    pows = matrix_powers(w.A, n)
    lefts = [w.C @ pows[i] for i in range(n)]
    rights = [pows[i] @ w.B for i in range(n)]
    dtau = tuple(
        _canon(k * trace_product(pows[k - 1], dw.dA)) for k in range(1, n + 1)
    )
    dgamma = []
    for k in range(n):
        acc = dw.dC @ rights[k] + lefts[k] @ dw.dB
        for i in range(k):
            acc = acc + lefts[i] @ (dw.dA @ rights[k - 1 - i])
        dgamma.append(acc)
    return InvariantVector(dtau, tuple(dgamma))


def zero_point(n, p, q, r=1) -> Point:
    return Point(
        RationalMatrix.zeros(n, p),
        RationalMatrix.zeros(q, n),
        tuple(RationalMatrix.zeros(n, n) for _ in range(r)),
    )


def point_in_unstable_subspace(w: Point, k) -> bool:
    """Coordinate-exact membership of w in U_k."""
    n = w.n
    for i in range(k, n):
        if any(w.B.entry(i, j) for j in range(w.p)):
            return False
    for j in range(k):
        if any(w.C.entry(i, j) for i in range(w.q)):
            return False
    a = w.A
    for i in range(n):
        for j in range(i + 1):
            if a.entry(i, j):
                return False
    return True


def nested_unstable_point(rng, n, p, q, k, bound=10) -> Point:
    """A random U_k point drawn entry by entry into nested lists, validated
    by ``from_rows``: B's first k rows, then C's last n - k columns, then
    A's strict upper triangle with a nonzero superdiagonal (a magnitude
    in 1..bound, then a sign)."""
    b = [[rng.randint(-bound, bound) if i < k else 0 for _ in range(p)]
         for i in range(n)]
    c = [[rng.randint(-bound, bound) if j >= k else 0 for j in range(n)]
         for _ in range(q)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1:
                v = rng.randint(1, bound)
                a[i][j] = -v if rng.randint(0, 1) else v
            else:
                a[i][j] = rng.randint(-bound, bound)
    return Point(RationalMatrix.from_rows(b), RationalMatrix.from_rows(c),
                 (RationalMatrix.from_rows(a),))


def charpoly_from_power_sums(psums) -> PolynomialCoeffs:
    """Monic polynomial whose roots have the given power sums p_1..p_n."""
    e = elementary_from_power_sums(psums)
    coeffs = [1]
    for k, ek in enumerate(e, start=1):
        coeffs.append(_canon(-ek if k % 2 == 1 else ek))
    return PolynomialCoeffs(tuple(coeffs))


def evaluate_polynomial(poly: PolynomialCoeffs, a: RationalMatrix) -> RationalMatrix:
    """Horner evaluation poly(a) of a monic polynomial at a square matrix."""
    n = a.rows
    out = RationalMatrix.identity(n)
    for c in poly.coeffs[1:]:
        out = out @ a
        if c:
            out = out + RationalMatrix.identity(n).scale(c)
    return out


def rref_inverse(m: RationalMatrix) -> RationalMatrix:
    """The inverse read off the rational RREF of [m | I]."""
    if not m.is_square:
        raise ShapeError("inverse of a non-square matrix")
    n = m.rows
    aug = RationalMatrix.hstack([m, RationalMatrix.identity(n)])
    rank, pivots, rows = aug.rref()
    if rank < n or any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    return RationalMatrix(n, n, [x for i in range(n) for x in rows[i][n:]])


def fraction_group_action(g: RationalMatrix, w: Point) -> Point:
    """(gB, C g^-1, (g A_i g^-1)) by Fraction products and ``rref_inverse``."""
    ginv = rref_inverse(g)
    return Point(g @ w.B, w.C @ ginv, tuple(g @ a @ ginv for a in w.A_list))


def invariants_vanish(w: Point) -> bool:
    """Null-cone membership from its definition: every invariant is zero."""
    return evaluate_invariants(w).is_zero()


def fraction_invariants(w: Point) -> InvariantVector:
    """The invariant vector from Fraction products of the powers of A."""
    n = w.n
    pows = matrix_powers(w.A, n)
    tau = tuple(trace(pows[k]) for k in range(1, n + 1))
    gamma = tuple(w.C @ (pows[k] @ w.B) for k in range(n))
    return InvariantVector(tau, gamma)


def fraction_word_invariants(w: Point, max_len):
    """(tau, gamma) word dictionaries from Fraction products, keyed as in
    ``word_invariants``."""
    tau, gamma = {}, {(): w.C @ w.B}
    frontier = {(): RationalMatrix.identity(w.n)}
    for _ in range(max_len):
        nxt = {}
        for word, prod in frontier.items():
            for letter in range(1, w.r + 1):
                nw = word + (letter,)
                nxt[nw] = prod @ w.A_list[letter - 1]
                gamma[nw] = w.C @ (nxt[nw] @ w.B)
                tau.setdefault(cyclic_canonical(nw), trace(nxt[nw]))
        frontier = nxt
    return tau, gamma


def action_equations(w: Point):
    """Rows of the orbit-map differential X -> (XB, CX, XA - AX), r = 1.

    Row c is coordinate c of vec(B), vec(C), vec(A) (row-major); column
    i*n + t is the entry X_it.  The kernel is the stabilizer Lie algebra.
    The column span is the orbit tangent space with its C block negated
    (the action gives -CX), which changes no rank and no sum with a
    coordinate subspace.
    """
    n = w.n
    b, c, a = w.B, w.C, w.A
    rows = []
    for i in range(n):  # (XB)_ij: X_it has coefficient B_tj
        for j in range(w.p):
            row = [0] * (n * n)
            row[i * n : (i + 1) * n] = b.col_list(j)
            rows.append(row)
    for i in range(w.q):  # (CX)_ij: X_tj has coefficient C_it
        for j in range(n):
            row = [0] * (n * n)
            row[j::n] = c.row_list(i)
            rows.append(row)
    for i in range(n):  # (XA - AX)_ij: X_it gains A_tj, X_tj loses A_it
        for j in range(n):
            row = [0] * (n * n)
            row[i * n : (i + 1) * n] = a.col_list(j)
            for t, x in enumerate(a.row_list(i)):
                row[t * n + j] -= x
            rows.append(row)
    return rows


def hom_equations(a: RationalMatrix, ps, ns, sign=-1):
    """All n^2 rows of X A + sign A X = 0 in the unknowns y_ab of
    X = sum_ab y_ab p_a n_b^T, by Fraction products: row i n + j, column
    a len(ns) + b.  The default sign gives [X, A] = 0."""
    n = a.rows
    cols = []
    for p in ps:
        for v in ns:
            x = RationalMatrix(n, 1, p) @ RationalMatrix(1, n, v)
            cols.append((x @ a + (a @ x).scale(sign)).entries)
    return [[col[r] for col in cols] for r in range(n * n)]


def sign_flipped_hom_equations(a: RationalMatrix, ps, ns):
    """``hom_equations`` with the sign of its A X term flipped: X A + A X = 0.
    For A the regular nilpotent block its kernel holds matrices that do not
    commute with A."""
    return hom_equations(a, ps, ns, sign=1)


def exact_jacobian_rank(w: Point) -> int:
    """The Jacobian rank by one exact elimination of
    ``differential_jacobian_matrix``, with no certificate and none of the
    package's Jacobian or Krylov builders."""
    return differential_jacobian_matrix(w).rank()


def differential_jacobian_matrix(w: Point) -> RationalMatrix:
    """The Jacobian column by column: ``differential`` along each standard
    basis direction, dA (row-major), then dB, then dC."""
    n, p, q = w.n, w.p, w.q
    shapes = ((n, n), (n, p), (q, n))
    cols = []
    for block, (rows, ncols) in enumerate(shapes):
        for t in range(rows * ncols):
            parts = [RationalMatrix.zeros(*shape) for shape in shapes]
            e = [0] * (rows * ncols)
            e[t] = 1
            parts[block] = RationalMatrix(rows, ncols, e)
            dv = differential(w, TangentVector(parts[1], parts[2], parts[0]))
            cols.append(list(dv.tau) + [x for g in dv.gamma for x in g.entries])
    return RationalMatrix.from_rows([list(row) for row in zip(*cols)])


def first_unannihilated_tangent(w: Point, e, ncols):
    """The first unit matrix X = E_it, in row-major order, for which J
    (row-major entries e, ncols columns) times the orbit tangent
    ([X, A], XB, -CX) is nonzero, as (i, t), or None: one product J T_X
    per X by Fraction sums, with no packing."""
    n, p, q = w.n, w.p, w.q
    a, b, c = (list(map(Fraction, m.entries)) for m in (w.A, w.B, w.C))
    for j in range(n * n):
        x = [Fraction(int(t == j)) for t in range(n * n)]
        xa, ax = naive_mat_mul(x, n, n, a, n), naive_mat_mul(a, n, n, x, n)
        tangent = [u - v for u, v in zip(xa, ax)] + naive_mat_mul(x, n, n, b, p)
        tangent += [-v for v in naive_mat_mul(c, q, n, x, n)]
        if any(naive_mat_mul(e, len(e) // ncols, ncols, tangent, 1)):
            return divmod(j, n)
    return None


def packed_orbit_tangent(wi: Point, f):
    """The orbit tangent ([X, A], XB, -CX) at the packed X with entry j
    equal to 2^(f j), flat in J's column order, from four matrix products
    at that X."""
    n, p, q = wi.n, wi.p, wi.q
    b, c, a = wi.B.entries, wi.C.entries, wi.A.entries
    x = [1 << (f * j) for j in range(n * n)]
    xa, ax = naive_mat_mul(x, n, n, a, n), naive_mat_mul(a, n, n, x, n)
    tangent = [u - v for u, v in zip(xa, ax)] + naive_mat_mul(x, n, n, b, p)
    return tangent + [-v for v in naive_mat_mul(c, q, n, x, n)]


def positive_pairing_set(lam, candidates) -> frozenset:
    """The candidate weights that pair strictly positively with lam, each
    pairing a full dot product: the reference for the ladder search."""
    return frozenset(c for c in candidates if sum(l * x for l, x in zip(lam, c)) > 0)


def order_type_cocharacters(n):
    """One cocharacter for each sign-annotated weak order of n coordinates.

    Such an order type is an ordered set partition of the coordinates
    0..n-1 and a zero marker n: the marker's block sits at level 0, the
    blocks before it at negative levels and the blocks after it at positive
    ones.  The orders are grown one item at a time, each item joining an
    existing level or opening a new one; there are a(n + 1) of them, the
    ordered Bell numbers 3, 13, 75, 541, 4683 at n = 1..5.
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


def ladder_rungs(weight_sets, n) -> set:
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


def order_type_maximal_unstable(n, p, q):
    """The ladder search over every order type, with no symmetry argument.

    Every order type's set must lie inside the set of its chamber
    (ties broken by index, level-0 coordinates moved up), all (n + 1)!
    chamber sets must have one size, and the distinct chamber sets must be
    the n + 1 rungs up to relabelling; any failed check raises.  The weights
    come from ``nullcone.weights_of_W`` looked up at call time, so a test
    that corrupts them corrupts this search too.
    """
    candidates = [w.coeffs for w in nullcone.weights_of_W(n, p, q) if any(w.coeffs)]
    lams = order_type_cocharacters(n)
    # an order type's chamber: the zero marker 0 and the coordinates 1..n
    # sorted by level, ties kept in index order, so the marker goes first
    # among level 0; a chamber is its own, its n + 1 levels all distinct
    chambers, refined = {}, []
    for lam in lams:
        levels = (0,) + lam
        key = tuple(sorted(range(n + 1), key=levels.__getitem__))
        s = positive_pairing_set(lam, candidates)
        if len(set(levels)) > n:
            chambers[key] = s
        else:
            refined.append((key, s))
    if any(not s <= chambers[key] for key, s in refined):
        raise AssertionError(
            "an order type's weight set leaves its chamber's: no ladder"
        )
    if len({len(s) for s in chambers.values()}) != 1:
        raise AssertionError("chamber weight sets differ in size: no ladder")
    if ladder_rungs(set(chambers.values()), n) != set(range(n + 1)):
        raise AssertionError(
            "maximal unstable classes do not match the expected ladder"
        )
    return [UnstableSubset(k, x_k_weight_set(n, k)) for k in range(n + 1)]


def naive_mat_mul(a, m, n, b, p):
    """Row-major product of an m x n and an n x p matrix as a sum per entry."""
    return [sum(a[i * n + t] * b[t * p + j] for t in range(n))
            for i in range(m) for j in range(p)]


def fraction_rref(rows, ncols):
    """(pivot columns, nonzero rows) of the rational RREF by Gauss-Jordan
    elimination in Fractions: every pivot is 1, zero above and below."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[: len(pivots)]


def fraction_rank(rows, ncols) -> int:
    """The rank as the number of pivots of ``fraction_rref``."""
    return len(fraction_rref(rows, ncols)[0])


def image_dims_on_kernel(a: RationalMatrix, rows):
    """[dim a^m K for m = 0..n], K = ker of the rows (n columns each):
    K meets ker a^m in the kernel of the rows stacked on a^m, so
    dim a^m K = rank [rows; a^m] - rank rows, two ``fraction_rank`` calls."""
    n = a.rows
    base = fraction_rank(rows, n)
    return [fraction_rank(rows + m.to_rows(), n) - base for m in matrix_powers(a, n)]


def image_dims_on_quotient(a: RationalMatrix, rows):
    """[dim a^m (V/S) for m = 0..n], S = the span of the rows (n entries
    each): a^m (V/S) = (a^m V + S) / S, and a^m V is spanned by the rows
    of (a^m)^T, so dim a^m (V/S) = rank [(a^m)^T; rows] - rank rows."""
    n = a.rows
    base = fraction_rank(rows, n)
    return [fraction_rank(m.T.to_rows() + rows, n) - base for m in matrix_powers(a, n)]


def closed_form_stab_dim(w: Point) -> int:
    """dim Stab(w) at a null-cone point, from ranks of powers of A only.

    The stabilizer is Hom_A(V/S, K) (``orbits.stabilizer``), and A is
    nilpotent on V/S and on K.  As Q[t]-modules, t acting as A,
    dim Hom(Q[t]/t^a, Q[t]/t^b) = min(a, b) = sum_m [a >= m][b >= m], so
    dim Stab(w) = sum_{m=1..n} c_m(V/S) c_m(K), where
    c_m(M) = dim A^(m-1) M - dim A^m M counts the Jordan blocks of A on M of
    size at least m.  The dimensions come from ``image_dims_on_quotient``
    (S spanned by the columns of ``controllability_blocks``) and
    ``image_dims_on_kernel`` (K the kernel of ``observability_blocks``): no
    Hom system is built and no elimination of the package runs.
    """
    n = w.n
    if not matrix_powers(w.A, n)[n].is_zero():
        raise ValueError("the closed form needs a nilpotent A (a null-cone point)")
    on_q = image_dims_on_quotient(w.A, controllability_blocks(w.A, w.B).T.to_rows())
    on_k = image_dims_on_kernel(w.A, observability_blocks(w.A, w.C).to_rows())
    return sum((on_q[m - 1] - on_q[m]) * (on_k[m - 1] - on_k[m]) for m in range(1, n + 1))


def fraction_vandermonde_solve(t, rhs):
    """Solve sum_r t_r^k X_r = rhs_k (k = 0..n-1) by ``RationalMatrix.rref``
    of the Fraction-validated n x (n + q p) system [t_j^i | vec rhs_i]."""
    t = [_canon(x) for x in t]
    n = len(t)
    if len(set(map(Fraction, t))) != n:
        raise DegenerateSpectrumError("degenerate spectrum: repeated t values")
    if len(rhs) != n:
        raise ShapeError(f"expected {n} right-hand blocks, got {len(rhs)}")
    if n == 0:
        return []
    q, p = rhs[0].rows, rhs[0].cols
    for blk in rhs:
        if blk.shape != (q, p):
            raise ShapeError("right-hand blocks differ in shape")
    width = q * p
    aug_rows = []
    for i in range(n):
        row = [t[j] ** i for j in range(n)]
        row.extend(rhs[i].entries)
        aug_rows.append(row)
    aug = RationalMatrix.from_rows(aug_rows)
    rank, pivots, rows = aug.rref()
    if rank != n or any(pc >= n for pc in pivots):
        raise DegenerateSpectrumError("Vandermonde system is singular")
    out = []
    for r in range(n):
        out.append(RationalMatrix(q, p, rows[r][n : n + width]))
    return out


def fraction_rank_one_factor(x: RationalMatrix):
    """x = c @ b with c the first nonzero column of x and b scaled to match,
    by Fraction division; rank <= 1 decided by the product c @ b == x."""
    q, p = x.rows, x.cols
    pivot_col = -1
    for j in range(p):
        if any(x.entry(i, j) for i in range(q)):
            pivot_col = j
            break
    if pivot_col < 0:
        return RationalMatrix.zeros(q, 1), RationalMatrix.zeros(1, p)
    c = RationalMatrix.column(x.col_list(pivot_col))
    pivot_row = next(i for i in range(q) if x.entry(i, pivot_col))
    pv = x.entry(pivot_row, pivot_col)
    b = RationalMatrix.row(
        [_canon(Fraction(x.entry(pivot_row, j)) / pv) for j in range(p)]
    )
    if c @ b != x:
        raise FiberConditionError("matrix has rank >= 2")
    return c, b


def rank_certificate_defect(wi: Point, cert: Certificate):
    """``nullcone._certificate_defect`` by n + 2 integer rank tests on the
    rows of g and the pairing with every weight of X_k.

    "rank g": rank g = n; "g B": rows k.. of gB vanish; "C g^-1":
    rank [g_{k:}; C] = n - k; "g A g^-1": rank [g_{i+1:}; g_i A] = n - i - 1
    for every i; "lambda": every weight of ``x_k_weight_set`` pairs
    positively with the cocharacter; "k": k outside 0..n.
    """
    n, k = wi.n, cert.k
    if cert.g.shape != (n, n):
        raise ShapeError("group element has wrong size")
    if len(cert.lam.lam) != n:
        raise ShapeError("cocharacter length must be n")
    if not 0 <= k <= n:
        return "k"
    g = cert.g._int_rows()
    if _kernels.rank_int(g, n) < n:
        return "rank g"
    tail = [x for row in g[k:] for x in row]
    if any(_kernels.mat_mul(tail, n - k, n, wi.B.entries, wi.p)):
        return "g B"
    if _kernels.rank_int(g[k:] + wi.C._int_rows(), n) != n - k:
        return "C g^-1"
    ga = _kernels.mat_mul([x for row in g for x in row], n, n, wi.A.entries, n)
    for i in range(n):
        if _kernels.rank_int(g[i + 1 :] + [ga[i * n : (i + 1) * n]], n) != n - i - 1:
            return "g A g^-1"
    if not all(cert.lam.pairing(coeffs) > 0 for coeffs in x_k_weight_set(n, k)):
        return "lambda"
    return None


def reversed_rre_new_rows(layer: Subspace, current: Subspace):
    """The rows of ``layer`` outside the span of ``current`` and the rows
    before them, for current inside layer, by one reversed elimination.

    Stored row j of the layer is new exactly when no vector of current in
    the layer's basis coordinates (its entries at the layer's pivots) has
    its last nonzero coordinate at j; ``rre_int`` of those coordinates with
    the columns reversed puts the last nonzero coordinates at its pivots.
    """
    d, back = layer.dim, layer._pivots[::-1]
    _, last, _ = _kernels.rre_int([[row[i] for i in back] for row in current._rows], d)
    taken = {d - 1 - j for j in last}
    return [row for j, row in enumerate(layer._rows) if j not in taken]
