"""Slow reference definitions that tests compare the package against.

Each is either the plain definition an optimised path of the package
replaced, or a helper that only tests need; nothing in ``eadjoint`` calls
them.
"""

from eadjoint.errors import ShapeError, SingularMatrixError
from eadjoint.invariants import Point, evaluate_invariants
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
