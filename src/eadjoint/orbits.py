"""Stabilizers, orbit dimensions and fiber reconstruction.

The stabilizer of a point is Hom_A(V/S, K): every X with X B = 0, C X = 0
and [X, A] = 0 kills S, the A-span of im B, and maps into K, the largest
A-invariant subspace of ker C (the Kalman subspaces).  It is computed as
the exact kernel of [X, A] = 0 on X = P Y N, with P a basis of K and N the
rows annihilating S, or read off as zero when S = V or K = 0; the orbit
dimension is its codimension.  Over a regular semisimple spectrum the
fiber of the quotient map is reconstructed from its invariant data by a
Vandermonde solve followed by rank-one factorization, both on integers:
one ``rre_int`` gives the summands, and the 2 x 2 minors through one pivot
of each cleared summand decide its rank <= 1 and give its factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as _k
from .errors import FiberConditionError, ShapeError
from .invariants import (
    Point,
    _controllability,
    _integer_rescaled_point,
    _krylov_has_rank_n,
    _observability,
    check_sizes,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    _divided,
    _kernel_vectors,
    _signed_fields,
    _span,
    rank_one_pivot,
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

    Everything runs on the cleared point (l_B B, l_C C, l_A A) from
    ``_integer_rescaled_point``: XB = 0, CX = 0 and [X, A] = 0 hold exactly
    when they hold with B, C, A scaled by nonzero constants, so the kernel
    and its canonical basis are those of w.  The group stabilizer has the
    same dimension as this Lie algebra centralizer, so
    orbit_dim = n^2 - stab_dim.

    XB = 0 and XA = AX give X A^k B = A^k X B = 0, so X kills S, the
    row span of ctrl, the rows (A^k B)^T; CX = 0 gives C A^k X = 0, so
    im X lies in K = ker [C; CA; ...; CA^{n-1}].  Hence
    X = P Y N = sum_ab y_ab p_a n_b^T, where the columns p_a of P are a
    basis of K and the rows n_b of N span the kernel of ctrl, and
    XB = 0, CX = 0 hold for every Y: the stabilizer is Hom_A(V/S, K).  It
    is zero, with neither ctrl nor obs built, when the Krylov matrix
    [b_0, A b_0, ..., A^{n-1} b_0] of the first column of B has rank n mod
    ``PRIME`` (``_krylov_has_rank_n``): then S = V.  Otherwise ctrl is
    built, and the stabilizer is zero when N is empty (S = V: ctrl has rank
    n over Q although b_0 is not cyclic); then obs is built, and it is
    zero when P is empty (K = 0).  Otherwise the dim K (n - dim S) unknowns
    y_ab solve ``_hom_equations``, and each solution is mapped back to
    vec(P Y N) and spanned canonically.

    Two checks guard that answer: the rank of the mapped-back matrices
    against the number of solutions, and the re-substitution of every
    kernel basis element (as its primitive integer multiple) into the
    defining equations by matrix products.
    """
    wi = _integer_rescaled_point(w)[0]
    n = w.n
    zero = StabilizerReport(0, n * n, Subspace.zero(n * n))
    if _krylov_has_rank_n(wi.A.entries, n, wi.B.entries[:: w.p]):
        return zero
    ns = _kernel_vectors(_controllability(wi.A, wi.B).to_rows(), n)
    if not ns:
        return zero
    ps = _kernel_vectors(_observability(wi.A, wi.C).to_rows(), n)
    if not ps:
        return zero
    ys = _kernel_vectors(_hom_equations(wi.A, ps, ns), len(ps) * len(ns))
    ker = _span(n * n, [_hom_matrix(ps, ns, y) for y in ys])
    if ker.dim != len(ys):
        raise AssertionError("stabilizer solutions lost rank when mapped back")
    a, b, c = wi.A.entries, wi.B.entries, wi.C.entries
    for x in ker._rows:
        if (
            any(_k.mat_mul(x, n, n, b, w.p))
            or any(_k.mat_mul(c, w.q, n, x, n))
            or _k.mat_mul(x, n, n, a, n) != _k.mat_mul(a, n, n, x, n)
        ):
            raise AssertionError("stabilizer kernel failed re-substitution")
    return StabilizerReport(ker.dim, n * n - ker.dim, ker)


def _hom_equations(a: RationalMatrix, ps, ns):
    """Rows of [X, A] = 0 in the unknowns y_ab of X = sum_ab y_ab p_a n_b^T.

    Only the entries (i, j) of X A - A X with i in I, j in J are written,
    I and J the free columns of ``_free_entries``: there P[I, :] and
    N[:, J] are diagonal and invertible, and X A - A X = P Z N with
    Z = Y Abar - A_K Y (AP = P A_K, NA = Abar N for the A-invariant K and
    S), so these dim K (n - dim S) equations hold exactly when all n^2 do.
    Row (i, j) lists, in column a*len(ns) + b, the coefficient of y_ab,
    p_a[i] (n_b A)[j] - (A p_a)[i] n_b[j].

    The rows are linear in Y: at the packed Y with y_ab = 2^(f (a len(ns) + b)),
    (X A - A X)[I, J] = P[I, :] Y (N A)[:, J] - (A P)[I, :] Y N[:, J], two
    ``_hom_matrix`` products of the vectors restricted to I and J, holds
    that coefficient at bit f (a len(ns) + b), and each is at most
    2 n max|P| max|N| max|A| < 2^(f-1) in size.
    """
    n, ae, m = a.rows, a.entries, len(ps) * len(ns)
    top = 2 * n * max(map(abs, ae)) * max(abs(x) for v in ps for x in v)
    f = (top * max(abs(x) for v in ns for x in v)).bit_length() + 1
    y = [1 << (f * j) for j in range(m)]
    rows, cols = _free_entries(ps), _free_entries(ns)
    aps = [_k.mat_mul(ae, n, n, p, 1) for p in ps]
    nas = [_k.mat_mul(v, 1, n, ae, n) for v in ns]
    xa = _hom_matrix(_restricted(ps, rows), _restricted(nas, cols), y)
    ax = _hom_matrix(_restricted(aps, rows), _restricted(ns, cols), y)
    return [_signed_fields(u - v, f, m) for u, v in zip(xa, ax)]


def _free_entries(vs):
    """The last nonzero index of each ``_kernel_vectors`` output: its free
    column, where every other vector of the list is zero."""
    return [max(i for i, x in enumerate(v) if x) for v in vs]


def _restricted(vs, idx):
    """Each vector of vs at the indices idx only."""
    return [[v[i] for i in idx] for v in vs]


def _hom_matrix(ps, ns, y):
    """vec(P Y N), row-major, for P with columns ps, N with rows ns and the
    row-major len(ps) x len(ns) matrix y."""
    rows, cols, kappa, m = len(ps[0]), len(ns[0]), len(ps), len(ns)
    pm = [p[i] for i in range(rows) for p in ps]
    nm = [x for v in ns for x in v]
    return _k.mat_mul(_k.mat_mul(pm, rows, kappa, y, m), rows, m, nm, cols)


# ---------------------------------------------------------------------------
# fiber reconstruction


def rank_one_factor(x: RationalMatrix):
    """Deterministic factorization x = c @ b of a rank <= 1 matrix.

    c is the first nonzero column of x, b the row of x through the first
    nonzero entry of that column, divided by that entry; the zero matrix
    factors as (0, 0).  Rank <= 1 is decided on x cleared to integers by
    ``rank_one_pivot``; raises if x has rank two or more.
    """
    found = rank_one_pivot(x)
    if found is None:
        raise FiberConditionError("matrix has rank >= 2")
    e, i0, j0 = found
    q, p = x.rows, x.cols
    if j0 < 0:
        return RationalMatrix.zeros(q, 1), RationalMatrix.zeros(1, p)
    c = RationalMatrix(q, 1, x.entries[j0::p])
    return c, _divided(1, p, e[i0 * p : (i0 + 1) * p], 1, e[i0 * p + j0])


def reconstruct_fiber_point(t, gamma, strict_rank1=False) -> Point:
    """Build (B, C, diag(t)) whose invariants are the given (power sums; gamma).

    The k-th row of B and the k-th column of C come from factoring the k-th
    Vandermonde solve summand as c_k b_k.  By default a zero summand is
    accepted with factors (0, 0); ``strict_rank1`` restores the literal
    rank-one requirement.  Summands are factored in order, so the first
    summand that fails decides the error.
    """
    xs = vandermonde_solve(t, list(gamma))
    if not xs:
        raise ShapeError("reconstruction needs a nonempty spectrum")
    b_flat, c_cols = [], []
    for x in xs:
        c, b = rank_one_factor(x)
        if strict_rank1 and x.is_zero():
            raise FiberConditionError(
                "rank-one condition violated: zero summand under strict mode"
            )
        b_flat += b.entries
        c_cols.append(c.entries)
    n, (q, p) = len(xs), xs[0].shape
    return Point(
        RationalMatrix(n, p, b_flat, validate=False),
        RationalMatrix(q, n, [c[i] for i in range(q) for c in c_cols], validate=False),
        (RationalMatrix.diagonal(t),),
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

