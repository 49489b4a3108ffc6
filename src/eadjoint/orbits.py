"""Stabilizers, orbit dimensions and fiber reconstruction.

The stabilizer of a point is computed as the exact kernel of the linear
system X B = 0, C X = 0, [X, A] = 0 in the n^2-dimensional matrix space,
or read off as zero at a controllable point; the orbit dimension is its
codimension.  Over a regular semisimple spectrum the fiber of the quotient
map is reconstructed from its invariant data by a Vandermonde solve
followed by rank-one factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FiberConditionError, ShapeError
from .invariants import (
    Point,
    _controllable,
    _integer_rescaled_point,
    action_equations,
    check_action_equations,
    check_sizes,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    _canon,
    _kernel_vectors,
    _span,
    rational_from_str,
    vandermonde_solve,
)


@dataclass(frozen=True)
class StabilizerReport:
    """Dimension data of the Lie algebra centralizer of a point."""

    stab_dim: int
    orbit_dim: int
    kernel_basis: Subspace

    def to_json_obj(self):
        return {
            "stab_dim": self.stab_dim,
            "orbit_dim": self.orbit_dim,
            "kernel_basis": self.kernel_basis.basis.to_lists(),
        }


def stabilizer(w: Point) -> StabilizerReport:
    """Solve {X : XB = 0, CX = 0, XA = AX} exactly; report dimensions.

    The system is ``action_equations`` of the cleared point
    (l_B B, l_C C, l_A A) from ``_integer_rescaled_point``: XB = 0, CX = 0
    and [X, A] = 0 hold exactly when they hold with B, C, A scaled by
    nonzero constants, so the kernel and its canonical basis are those of
    w.  The group stabilizer has the same dimension as this Lie algebra
    centralizer, so orbit_dim = n^2 - stab_dim.

    At a controllable point, rank [B, AB, ..., A^{n-1}B] = n, the kernel
    is zero without solving the system: XB = 0 and XA = AX give
    X A^k B = A^k X B = 0 for every k, so X kills a spanning set and X = 0.
    Otherwise the system is built and its kernel solved exactly.  Two
    checks guard that answer, both on the cleared point:
    ``check_action_equations`` on the rows before they are solved, and the
    re-substitution of every kernel basis element into the defining
    equations by matrix products.
    """
    wi = _integer_rescaled_point(w)[0]
    n = w.n
    if _controllable(wi):
        return StabilizerReport(0, n * n, Subspace.zero(n * n))
    rows = action_equations(wi)
    check_action_equations(wi, rows)
    ker = _span(n * n, _kernel_vectors(rows, n * n))  # rows are integral
    b, c, a = wi.B, wi.C, wi.A
    for col in range(ker.dim):
        x = RationalMatrix(n, n, ker.basis.col_list(col))
        if not (
            (x @ b).is_zero() and (c @ x).is_zero() and (x @ a - a @ x).is_zero()
        ):
            raise AssertionError("stabilizer kernel failed re-substitution")
    return StabilizerReport(ker.dim, n * n - ker.dim, ker)


# ---------------------------------------------------------------------------
# fiber reconstruction


@dataclass(frozen=True)
class ReconstructionData:
    """Spectrum, rank <= 1 summands and their chosen factorizations."""

    t: tuple
    X: tuple
    factors: tuple  # pairs (c_k: q x 1, b_k: 1 x p) with X_k = c_k @ b_k


def rank_one_factor(x: RationalMatrix):
    """Deterministic factorization x = c @ b of a rank <= 1 matrix.

    c is the first nonzero column of x, b is scaled to match; the zero
    matrix factors as (0, 0).  Raises if x has rank two or more.
    """
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


def fiber_reconstruction_data(t, gamma, strict_rank1=False) -> ReconstructionData:
    """Solve the Vandermonde system and factor every summand."""
    xs = vandermonde_solve(t, list(gamma))
    factors = []
    for x in xs:
        c, b = rank_one_factor(x)
        if strict_rank1 and x.is_zero():
            raise FiberConditionError(
                "rank-one condition violated: zero summand under strict mode"
            )
        factors.append((c, b))
    return ReconstructionData(tuple(_canon(v) for v in t), tuple(xs), tuple(factors))


def reconstruct_fiber_point(t, gamma, strict_rank1=False) -> Point:
    """Build (B, C, diag(t)) whose invariants are the given (power sums; gamma).

    The k-th row of B and the k-th column of C come from factoring the k-th
    Vandermonde solve summand as c_k b_k.  By default a zero summand is
    accepted with factors (0, 0); ``strict_rank1`` restores the literal
    rank-one requirement.
    """
    data = fiber_reconstruction_data(t, gamma, strict_rank1=strict_rank1)
    n = len(data.t)
    if n == 0:
        raise ShapeError("reconstruction needs a nonempty spectrum")
    q, p = data.X[0].shape
    b_rows = [data.factors[k][1].row_list(0) for k in range(n)]
    c_cols = [data.factors[k][0].col_list(0) for k in range(n)]
    return Point(
        RationalMatrix.from_rows(b_rows),
        RationalMatrix.from_rows([[c_cols[k][i] for k in range(n)] for i in range(q)]),
        (RationalMatrix.diagonal(data.t),),
    )


def reconstruction_input_from_json(obj):
    """Parse {"t": [...], "gamma": [matrix, ...]}.

    ``t`` and ``gamma`` must be JSON lists.  n = len(t) or a gamma shape
    q x p above ``MAX_SIZE`` is rejected before any entry is parsed.
    """
    try:
        if not (isinstance(obj["t"], list) and isinstance(obj["gamma"], list)):
            raise TypeError('"t" and "gamma" must be lists')
        check_sizes(len(obj["t"]), len(obj["gamma"][0][0]), len(obj["gamma"][0]))
        t = [rational_from_str(s) for s in obj["t"]]
        gamma = [RationalMatrix.from_lists(g) for g in obj["gamma"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed reconstruction input: {exc}") from exc
    return t, gamma

