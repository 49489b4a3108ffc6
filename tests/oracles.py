"""Slow reference definitions that tests compare the package against.

Each is either the plain definition an optimised path of the package
replaced, or a helper that only tests need; nothing in ``eadjoint`` calls
them.
"""

from eadjoint.errors import ShapeError, SingularMatrixError
from eadjoint.invariants import (
    InvariantVector,
    Point,
    TangentVector,
    action_equations,
    cyclic_canonical,
    differential,
    evaluate_invariants,
    jacobian_matrix,
    matrix_powers,
)
from eadjoint.linalg import (
    PolynomialCoeffs,
    RationalMatrix,
    _canon,
    elementary_from_power_sums,
)


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
    tau = tuple(pows[k].trace() for k in range(1, n + 1))
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
                tau.setdefault(cyclic_canonical(nw), nxt[nw].trace())
        frontier = nxt
    return tau, gamma


def sign_flipped_action_equations(w: Point):
    """``action_equations`` with the first entry of the first adjoint-block
    row that has two nonzero entries negated: its kernel then holds
    matrices that do not commute with A."""
    rows = action_equations(w)
    start = w.n * w.p + w.q * w.n
    for row in rows[start:]:
        nonzero = [t for t, x in enumerate(row) if x]
        if len(nonzero) >= 2:
            row[nonzero[0]] = -row[nonzero[0]]
            return rows
    raise AssertionError("no adjoint-block row with two entries")


def exact_jacobian_rank(w: Point) -> int:
    """The Jacobian rank by one exact elimination (``rank_int``) of
    ``jacobian_matrix``, with no certificate."""
    return jacobian_matrix(w).rank()


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
