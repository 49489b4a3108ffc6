"""Generating invariants of the enhanced adjoint action and the quotient map.

A point is a triple (B, C, A) with B of shape n x p, C of shape q x n and A
an n x n matrix (or a tuple of r such matrices for the several-copies
action); the group element g sends it to (gB, C g^-1, g A g^-1).  The
invariants evaluated here are the power traces tau_k = trace(A^k) for
k = 1..n and the moment matrices Gamma_k = C A^k B for k = 0..n-1, together
with their general-r word versions trace(A_I) and C A_K B.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul

from . import _kernels as _k
from .errors import (
    FiberConditionError,
    MultipleCopiesError,
    OutOfRangeError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import (
    RationalMatrix,
    Rational,
    _canon,
    _divided,
    _integer_inverse,
    _scaled_to_int,
    integer_rescaled,
    rank_mod_prime,
    rational_from_str,
    rational_to_str,
    trace_product,
)


MAX_SIZE = 32  # largest n, p and q of any request


def check_sizes(n, p, q):
    """Raise ``OutOfRangeError`` unless n, p and q all lie in 1..``MAX_SIZE``."""
    if not all(1 <= v <= MAX_SIZE for v in (n, p, q)):
        raise OutOfRangeError(
            f"n, p and q must lie in 1..{MAX_SIZE}, got {n}, {p}, {q}"
        )


@dataclass(frozen=True)
class Point:
    """A point (B, C, (A_1..A_r)) of the representation space."""

    B: RationalMatrix
    C: RationalMatrix
    A_list: tuple

    def __post_init__(self):
        object.__setattr__(self, "A_list", tuple(self.A_list))
        if not self.A_list:
            raise ShapeError("a point needs at least one adjoint copy")
        n = self.B.rows
        if n < 1 or self.B.cols < 1 or self.C.rows < 1:
            raise ShapeError("n, p and q must all be positive")
        if self.C.cols != n:
            raise ShapeError("C must have n columns")
        for a in self.A_list:
            if a.shape != (n, n):
                raise ShapeError("every adjoint copy must be n x n")

    @property
    def n(self):
        return self.B.rows

    @property
    def p(self):
        return self.B.cols

    @property
    def q(self):
        return self.C.rows

    @property
    def r(self):
        return len(self.A_list)

    @property
    def A(self) -> RationalMatrix:
        if self.r != 1:
            raise MultipleCopiesError(
                "single adjoint copy requested from an r > 1 point"
            )
        return self.A_list[0]

    def dims(self):
        return (self.n, self.p, self.q, self.r)

    def to_json_obj(self):
        return {
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "A": [a.to_lists() for a in self.A_list],
            "B": self.B.to_lists(),
            "C": self.C.to_lists(),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Point":
        """Parse a point; n, p, q or r above ``MAX_SIZE`` is rejected first."""
        if not isinstance(obj, dict):
            raise ValueError("point must be a JSON object")
        try:
            check_sizes(len(obj["B"]), len(obj["B"][0]), len(obj["C"]))
            if len(obj["A"]) > MAX_SIZE:
                raise OutOfRangeError(
                    f"r must be at most {MAX_SIZE}, got {len(obj['A'])}"
                )
            a_list = tuple(RationalMatrix.from_lists(a) for a in obj["A"])
            pt = cls(
                RationalMatrix.from_lists(obj["B"]),
                RationalMatrix.from_lists(obj["C"]),
                a_list,
            )
        except (KeyError, TypeError, IndexError, ShapeError) as exc:
            raise ValueError(f"malformed point: {exc}") from exc
        for key in ("n", "p", "q", "r"):
            if key in obj and obj[key] != getattr(pt, key):
                raise ValueError(f"declared {key} does not match matrix shapes")
        return pt


@dataclass(frozen=True)
class InvariantVector:
    """Values (tau_1..tau_n; Gamma_0..Gamma_{n-1}) of the quotient map."""

    tau: tuple
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "tau", tuple(_canon(t) for t in self.tau))
        object.__setattr__(self, "gamma", tuple(self.gamma))
        if len(self.tau) != len(self.gamma):
            raise ShapeError("tau and gamma must both have length n")

    @property
    def n(self):
        return len(self.tau)

    def is_zero(self):
        return all(not t for t in self.tau) and all(g.is_zero() for g in self.gamma)

    def to_json_obj(self):
        return {
            "tau": [rational_to_str(t) for t in self.tau],
            "gamma": [g.to_lists() for g in self.gamma],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "InvariantVector":
        try:
            return cls(
                tuple(rational_from_str(t) for t in obj["tau"]),
                tuple(RationalMatrix.from_lists(g) for g in obj["gamma"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed invariant vector: {exc}") from exc


@dataclass(frozen=True)
class TangentVector:
    """A direction (dB, dC, dA) at an r = 1 point."""

    dB: RationalMatrix
    dC: RationalMatrix
    dA: RationalMatrix


def matrix_powers(a: RationalMatrix, top: int):
    """[I, a, a^2, ..., a^top]."""
    out = [RationalMatrix.identity(a.rows)]
    for _ in range(top):
        out.append(out[-1] @ a)
    return out


def _integer_rescaled_point(w: Point):
    """(wi, l_B, l_C, (l_1..l_r)): w with B, C and each A_i multiplied by
    the least positive integer clearing that matrix to integers.

    wi is w itself, every scale 1, when all entries are already integers.
    Scaling by positive rationals multiplies every invariant by a nonzero
    factor and fixes every invariant subspace and kernel read off a point,
    so the null cone, the stabilizer and the Jacobian rank can all be
    computed on wi.
    """
    (lb, b), (lc, c), *a = [integer_rescaled(m) for m in (w.B, w.C) + w.A_list]
    if b is w.B and c is w.C and all(ai is x for (_, ai), x in zip(a, w.A_list)):
        return w, 1, 1, (1,) * w.r
    return Point(b, c, tuple(ai for _, ai in a)), lb, lc, tuple(l for l, _ in a)


def _over(x: int, den: int) -> Rational:
    """The rational x / den of two integers, an int when den divides x."""
    return x // den if x % den == 0 else Fraction(x, den)


def evaluate_invariants(w: Point) -> InvariantVector:
    """The quotient-map value of an r = 1 point, exactly.

    Integer products on the cleared point (l_B B, l_C C, l_A A):
    tau_k = trace(A_int^k) / l_A^k and
    Gamma_k = C_int A_int^k B_int / (l_C l_B l_A^k), one division per entry.
    """
    if w.r != 1:
        raise MultipleCopiesError("invariant vector is defined for r = 1 points")
    wi, lb, lc, (la,) = _integer_rescaled_point(w)
    n, p, q = w.n, w.p, w.q
    a, c = wi.A.entries, wi.C.entries
    tau, power, den = [], a, la  # power = A_int^k, den = l_A^k
    for k in range(1, n + 1):
        tau.append(_over(sum(power[:: n + 1]), den))
        if k < n:
            power, den = _k.mat_mul(power, n, n, a, n), den * la
    gamma, krylov, den = [], wi.B.entries, lc * lb  # krylov = A_int^k B_int
    for k in range(n):
        gamma.append(_divided(q, p, _k.mat_mul(c, q, n, krylov, p), 1, den))
        if k < n - 1:
            krylov, den = _k.mat_mul(a, n, n, krylov, p), den * la
    return InvariantVector(tuple(tau), tuple(gamma))


def group_action(g: RationalMatrix, w: Point) -> Point:
    """Apply g: (B, C, (A_i)) -> (gB, C g^-1, (g A_i g^-1)).

    Fraction-free: with G = l g and H = d G^-1 integral (one elimination)
    and B, C, A_i cleared by ``_integer_rescaled_point``, the three
    products are integer products, and each entry is divided once at the
    end.
    """
    n = w.n
    if g.shape != (n, n):
        raise ShapeError("group element has wrong size")
    try:
        l, h, d = _integer_inverse(g)
    except SingularMatrixError:
        raise SingularMatrixError("group element must be invertible") from None
    gi = _scaled_to_int(g.entries)[1]
    wi, lb, lc, las = _integer_rescaled_point(w)
    moved = []
    for la, a in zip(las, wi.A_list):
        gah = _k.mat_mul(_k.mat_mul(gi, n, n, a.entries, n), n, n, h, n)
        moved.append(_divided(n, n, gah, 1, la * d))
    return Point(
        _divided(n, w.p, _k.mat_mul(gi, n, n, wi.B.entries, w.p), 1, l * lb),
        _divided(w.q, n, _k.mat_mul(wi.C.entries, w.q, n, h, n), l, lc * d),
        tuple(moved),
    )


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


def check_action_equations(w: Point, rows) -> None:
    """Raise ``AssertionError`` unless ``rows`` are the action equations of w.

    The rows evaluated at the fixed X with X_it = 7^(i n + t + 1) must
    equal vec(XB), vec(CX), vec(XA - AX), computed by matrix products.  Any
    single wrong coefficient changes that value, so this also catches a
    fault that only shrinks the kernel, which re-substituting the kernel
    cannot see.  Each row is evaluated over its nonzero entries only.
    """
    n = w.n
    b, c, a = w.B, w.C, w.A
    xs = [7 ** (j + 1) for j in range(n * n)]
    x = RationalMatrix(n, n, xs, validate=False)
    expected = (x @ b).entries + (c @ x).entries + (x @ a - a @ x).entries
    values = tuple(
        sum(map(mul, compress(row, row), compress(xs, row))) for row in rows
    )
    if values != expected:
        raise AssertionError("action equations failed re-substitution at the fixed X")


def _controllability(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """[b, ab, ..., a^{n-1} b]; its column space is the a-span of im b."""
    blocks = [b]
    for _ in range(1, a.rows):
        blocks.append(a @ blocks[-1])
    return RationalMatrix.hstack(blocks)


def _controllable(wi: Point) -> bool:
    """Whether rank [B, AB, ..., A^{n-1}B] = n is proven at an integer point.

    Decided by ``rank_mod_prime``, a lower bound for the rank: True is
    certain; False means rank below n or a rank that only drops mod p.
    """
    ctrl = _controllability(wi.A, wi.B)
    return rank_mod_prime(ctrl.to_rows(), ctrl.cols) == wi.n


# ---------------------------------------------------------------------------
# word invariants (general r)


def cyclic_canonical(word: tuple) -> tuple:
    """Lexicographically smallest rotation; traces agree on the whole class."""
    if len(word) <= 1:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


@dataclass(frozen=True)
class WordInvariants:
    """Trace words (cyclic-deduplicated) and moment words up to a length."""

    max_len: int
    tau: dict
    gamma: dict

    def to_json_obj(self):
        def key(word):
            return ",".join(str(i) for i in word)

        return {
            "max_len": self.max_len,
            "tau": {key(w): rational_to_str(v) for w, v in self.tau.items()},
            "gamma": {key(w): m.to_lists() for w, m in self.gamma.items()},
        }


MAX_WORDS = 10_000  # nonempty words r + r^2 + ... + r^max_len per request


def word_invariants(w: Point, max_len: int) -> WordInvariants:
    """All trace words tau_I (nonempty I) and moment words gamma_K, |K|, |I| <= max_len.

    tau keys are deduplicated up to cyclic rotation, the only identity that
    holds a priori; gamma keys are not deduplicated.  More than
    ``MAX_WORDS`` nonempty words is an ``OutOfRangeError``, raised before
    any product is formed.
    """
    if max_len < 0:
        raise OutOfRangeError(f"max_len must be nonnegative, got {max_len}")
    words, of_length = 0, 1
    for _ in range(max_len):
        of_length *= w.r
        words += of_length
        if words > MAX_WORDS:
            raise OutOfRangeError(
                f"more than {MAX_WORDS} words of length at most {max_len} "
                f"in {w.r} letters"
            )
    wi, lb, lc, las = _integer_rescaled_point(w)
    n, p, q = w.n, w.p, w.q
    b, c = wi.B.entries, wi.C.entries
    letters = [(a.entries, la) for a, la in zip(wi.A_list, las)]
    tau: dict = {}
    gamma: dict = {(): _divided(q, p, _k.mat_mul(c, q, n, b, p), 1, lc * lb)}
    # word -> (A_int product, its scale: the product of l_i over the letters)
    frontier = {(): (RationalMatrix.identity(n).entries, 1)}
    for _ in range(max_len):
        nxt = {}
        for word, (prod, scale) in frontier.items():
            for letter, (a, la) in enumerate(letters, start=1):
                nw = word + (letter,)
                np_, ns = _k.mat_mul(prod, n, n, a, n), scale * la
                nxt[nw] = (np_, ns)
                gamma[nw] = _divided(
                    q, p, _k.mat_mul(c, q, n, _k.mat_mul(np_, n, n, b, p), p),
                    1, lc * lb * ns,
                )
                canon = cyclic_canonical(nw)
                if canon not in tau:
                    tau[canon] = _over(sum(np_[:: n + 1]), ns)
        frontier = nxt
    return WordInvariants(max_len, tau, gamma)


# ---------------------------------------------------------------------------
# differential of the quotient map


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


def _jacobian_entries(wi: Point):
    """Row-major integer entries of the Jacobian at an integer r = 1 point.

    With L_i = C A^i and R_m = A^m B, the product rule gives
      tau_k row, dA column (a, b):      k (A^{k-1})_ba
      Gamma_k row (i, j), dA column (a, b):
                                        sum_{s<k} (L_s)_ia (R_{k-1-s})_bj
      Gamma_k row (i, j), dB column (b, j): (L_k)_ib
      Gamma_k row (i, j), dC column (i, c): (R_k)_cj
    The dA block of Gamma_k is one product [L_0 .. L_{k-1}] [R_{k-1}; ..; R_0]
    with rows (i, a) and columns (b, j), read out by slices.
    """
    n, p, q = wi.n, wi.p, wi.q
    a, np_, qn = wi.A.entries, n * p, q * n
    lefts, rights = [wi.C.entries], [wi.B.entries]
    for _ in range(n - 1):
        lefts.append(_k.mat_mul(lefts[-1], q, n, a, n))
        rights.append(_k.mat_mul(a, n, n, rights[-1], p))
    flat, power, rest = [], RationalMatrix.identity(n).entries, [0] * (np_ + qn)
    for k in range(1, n + 1):  # power = A^{k-1}
        flat += [k * x for col in range(n) for x in power[col::n]]
        flat += rest
        if k < n:
            power = _k.mat_mul(power, n, n, a, n)
    dA = [0] * (n * n)
    for k in range(n):
        if k:
            u = [x for row in zip(*lefts[:k]) for x in row]
            v = [x for r in reversed(rights[:k]) for x in r]
            prod = _k.mat_mul(u, qn, k, v, np_)
        left, right = lefts[k], rights[k]
        for i in range(q):
            for j in range(p):
                if k:
                    dA = [x for t in range(i * n, (i + 1) * n)
                          for x in prod[t * np_ + j : (t + 1) * np_ : p]]
                db, dc = [0] * np_, [0] * qn
                db[j::p] = left[i * n : (i + 1) * n]
                dc[i * n : (i + 1) * n] = right[j::p]
                flat += dA
                flat += db
                flat += dc
    return flat


def jacobian_matrix(w: Point) -> RationalMatrix:
    """Matrix of the differential at w.

    Rows: tau_1..tau_n then Gamma entries (k, i, j) in lexicographic order.
    Columns: the standard basis directions dA (row-major), then dB, then dC.
    Built by ``_jacobian_entries`` at the cleared point s(w) = (l_B B,
    l_C C, l_A A), then J(w) = D^-1 J(s w) s (see ``jacobian_rank``), each
    entry divided once; agreement with ``differential`` on random
    directions is covered by tests.
    """
    if w.r != 1:
        raise MultipleCopiesError("Jacobian is defined for r = 1 points")
    wi, lb, lc, (la,) = _integer_rescaled_point(w)
    n, p, q = w.n, w.p, w.q
    nrows, ncols = n + n * q * p, n * n + n * p + q * n
    flat = _jacobian_entries(wi)
    if wi is not w:
        dens = [la**k for k in range(1, n + 1)]
        dens += [lc * lb * la**k for k in range(n) for _ in range(q * p)]
        scales = [la] * (n * n) + [lb] * (n * p) + [lc] * (q * n)
        flat = [
            _over(x * s, den)
            for den, i in zip(dens, range(0, nrows * ncols, ncols))
            for x, s in zip(flat[i : i + ncols], scales)
        ]
    return RationalMatrix(nrows, ncols, flat, validate=False)


def _check_orbit_tangents(wi: Point, jac: RationalMatrix) -> None:
    """Raise ``AssertionError`` unless jac T = 0 exactly at an integer point.

    Column X of T is the orbit tangent (XB, -CX, [X, A]), read off the
    rows of ``action_equations`` (checked by ``check_action_equations``).
    Each column of jac is packed into one integer, entry i in the field at
    bit f*i; column X of jac T is then one sum of multiples of packed
    columns.  Its entries are below 2^(f-1) in absolute value, so the sum is
    zero exactly when they all are.
    """
    n, ncols, e = wi.n, jac.cols, jac.entries
    eqs = action_equations(wi)
    check_action_equations(wi, eqs)
    top = max(map(abs, e)) * max(max(map(abs, row)) for row in eqs)
    f = (top * ncols).bit_length() + 1
    packed = []
    for col in range(ncols):
        v = 0
        for x in reversed(e[col::ncols]):
            v = (v << f) + x
        packed.append(v)
    # the equations order the coordinates B, C, A and the Jacobian columns
    # A, B, C; the tangent is -CX where the equations have CX
    nn, nb = n * n, n * wi.p
    by_row = packed[nn : nn + nb] + [-v for v in packed[nn + nb :]] + packed[:nn]
    for x, tangent in enumerate(zip(*eqs)):
        if sum(y * v for y, v in zip(tangent, by_row) if y):
            raise AssertionError(
                f"Jacobian does not annihilate the orbit tangent of X_{divmod(x, n)}"
            )


def jacobian_rank(w: Point) -> int:
    """Exact rank of the differential of the quotient map at w.

    Computed at the cleared point s(w) = (l_B B, l_C C, l_A A).  The
    scaling s is a linear isomorphism of the domain, and pi(s v) = D pi(v)
    with D invertible and diagonal (tau_k scales by l_A^k, Gamma_k by
    l_C l_A^k l_B).  So d pi(s w) s = D d pi(w), and the two Jacobians
    have the same rank.

    The rank r mod ``PRIME`` of the integer Jacobian J is a proven lower
    bound, and it is returned without an elimination over Z when it is also
    an upper bound:
    - r = min(rows, cols), the full rank (the coregular case p = 1 or q = 1);
    - r = cols - n^2 at a controllable point.  There X -> (XB, -CX, [X, A])
      is injective (XB = 0 and [X, A] = 0 give X A^k B = 0 for every k, so
      X = 0), its n^2-dimensional image lies in ker J because the invariants
      are constant on orbits, and ``_check_orbit_tangents`` verifies J T = 0
      exactly, so rank J <= cols - n^2.
    Otherwise the rank comes from ``rank_int``.
    """
    wi = _integer_rescaled_point(w)[0]
    jac = jacobian_matrix(wi)
    nrows, ncols, e = jac.rows, jac.cols, jac.entries
    rows = [e[i : i + ncols] for i in range(0, nrows * ncols, ncols)]
    r = rank_mod_prime(rows, ncols)
    if r == min(nrows, ncols):
        return r
    if r == ncols - w.n * w.n and _controllable(wi):
        _check_orbit_tangents(wi, jac)
        return r
    return _k.rank_int(rows, ncols)


# ---------------------------------------------------------------------------
# the symmetrized parametrization of the image


def psi_map(t, xs) -> InvariantVector:
    """Map spectra and rank <= 1 matrices to invariant values.

    Sends (t_1..t_n; X_1..X_n) to the power sums of t and the combinations
    Gamma_k = sum_r t_r^k X_r for k = 0..n-1.  Every X_r must have rank at
    most one; the map is invariant under simultaneously permuting the t and
    X coordinates.
    """
    t = [_canon(x) for x in t]
    n = len(t)
    if len(xs) != n:
        raise ShapeError("need exactly one matrix per spectrum entry")
    if n == 0:
        return InvariantVector((), ())
    shape = xs[0].shape
    for x in xs:
        if x.shape != shape:
            raise ShapeError("matrices differ in shape")
        if x.rank() > 1:
            raise FiberConditionError("matrix of rank >= 2 is outside the image")
    tau = tuple(_canon(sum(ti**k for ti in t)) for k in range(1, n + 1))
    gamma = []
    for k in range(n):
        acc = RationalMatrix.zeros(*shape)
        for r in range(n):
            acc = acc + xs[r].scale(t[r] ** k)
        gamma.append(acc)
    return InvariantVector(tau, tuple(gamma))


# ---------------------------------------------------------------------------
# the determinant relation for the special linear subgroup


@dataclass(frozen=True)
class SlRelationResult:
    d1: Rational
    d2: Rational
    hankel_det: Rational
    holds: bool


def sl_relation_check(u: RationalMatrix, v: RationalMatrix, a: RationalMatrix) -> SlRelationResult:
    """Verify D1 * D2 = det(v A^{i+j} u) for column u, row v, square A.

    D1 is the determinant of the rows v, vA, ..., vA^{n-1}; D2 of the
    columns u, Au, ..., A^{n-1}u.  The product identity holds because the
    Hankel matrix factors through those two Krylov matrices.
    """
    if not a.is_square:
        raise ShapeError("A must be square")
    n = a.rows
    if u.shape != (n, 1) or v.shape != (1, n):
        raise ShapeError("u must be n x 1 and v must be 1 x n")
    pows = matrix_powers(a, 2 * n - 2 if n else 0)
    v_rows = [(v @ pows[i]).row_list(0) for i in range(n)]
    u_cols = [(pows[i] @ u).col_list(0) for i in range(n)]
    d1 = RationalMatrix.from_rows(v_rows).det()
    d2 = RationalMatrix.from_rows(
        [[u_cols[j][i] for j in range(n)] for i in range(n)]
    ).det()
    hankel = RationalMatrix.from_rows(
        [
            [(v @ (pows[i + j] @ u)).entry(0, 0) for j in range(n)]
            for i in range(n)
        ]
    ).det()
    return SlRelationResult(d1, d2, hankel, d1 * d2 == hankel)


# ---------------------------------------------------------------------------
# the non-closed-image toy model


@dataclass(frozen=True)
class NonclosedImageDemo:
    """One sample of the family showing the symmetrized map has non-closed image."""

    eps: Fraction
    image_tau: tuple
    image_parts: tuple
    limit_tau: tuple
    limit_parts: tuple
    gap: Rational


def nonclosed_image_demo(n: int, u: RationalMatrix, eps) -> NonclosedImageDemo:
    """Evaluate the toy family a = (eps, 2 eps, ..., n eps), v_i = u / a_i.

    Along this family a_i v_i = u stays fixed while the image point
    ((power sums of a); (sum a_i^k v_i)_{k=1..n}) approaches
    (0; (n u, 0, ..., 0)).  That limit is never attained: vanishing power
    sums force a = 0 (see ``limit_point_is_outside_family_image``), and
    a = 0 contradicts a_i v_i = u != 0.  The gap is the maximum absolute
    coordinate difference, exact on rationals.
    """
    eps = Fraction(eps)
    if eps == 0:
        raise ValueError("eps must be nonzero")
    if n < 1:
        raise ValueError("n must be positive")
    if u.is_zero():
        raise ValueError("u must be nonzero")
    a = [eps * (i + 1) for i in range(n)]
    vs = [u.scale(Fraction(1, 1) / ai) for ai in a]
    image_tau = tuple(_canon(sum(ai**k for ai in a)) for k in range(1, n + 1))
    image_parts = []
    for k in range(1, n + 1):
        acc = RationalMatrix.zeros(u.rows, u.cols)
        for i in range(n):
            acc = acc + vs[i].scale(a[i] ** k)
        image_parts.append(acc)
    limit_tau = (0,) * n
    limit_parts = [u.scale(n)] + [
        RationalMatrix.zeros(u.rows, u.cols) for _ in range(n - 1)
    ]
    gap = 0
    for t1, t2 in zip(image_tau, limit_tau):
        gap = max(gap, abs(t1 - t2))
    for m1, m2 in zip(image_parts, limit_parts):
        for x, y in zip(m1.entries, m2.entries):
            gap = max(gap, abs(x - y))
    return NonclosedImageDemo(
        eps,
        image_tau,
        tuple(image_parts),
        limit_tau,
        tuple(limit_parts),
        _canon(gap),
    )


def limit_point_is_outside_family_image(n: int, u: RationalMatrix) -> bool:
    """Certify that the limit point of the demo family is not in the image.

    A preimage of the limit would need all power sums p_1..p_n of a to be
    zero.  Newton's identities express the elementary symmetric values as a
    triangular, division-free-in-p combination of the power sums, so p = 0
    forces e = 0 (verified below by running the recursion), which makes every
    a_i a root of x^n and hence zero over a field.  But the family constraint
    a_i v_i = u with u != 0 excludes a = 0.
    """
    if n < 1 or u.is_zero():
        return False
    from .linalg import elementary_from_power_sums

    return all(e == 0 for e in elementary_from_power_sums([0] * n))
