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
from operator import lshift, mul

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
    _krylov_left,
    _over,
    _power_traces,
    _signed_fields,
    elementary_from_power_sums,
    integer_rescaled,
    rank_mod_prime,
    rank_one_pivot,
    rational_to_str,
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


def evaluate_invariants(w: Point) -> InvariantVector:
    """The quotient-map value of an r = 1 point, exactly.

    Integer products on the cleared point (l_B B, l_C C, l_A A):
    tau_k = trace(A_int^k) / l_A^k from ``_power_traces``, which forms the
    powers only up to A^ceil(n/2), and Gamma_k = C_int A_int^k B_int /
    (l_C l_B l_A^k), block k of the observability matrix
    [C; CA; ...; CA^(n-1)] (``_observability``) times B, one division per
    entry.
    """
    if w.r != 1:
        raise MultipleCopiesError("invariant vector is defined for r = 1 points")
    wi, lb, lc, (la,) = _integer_rescaled_point(w)
    n, p, q = w.n, w.p, w.q
    a, qp = wi.A.entries, q * p
    tau = [_over(t, la**k) for k, t in enumerate(_power_traces(a, n, n), start=1)]
    obs = _observability(wi.A, wi.C).entries
    moments = _k.mat_mul(obs, n * q, n, wi.B.entries, p)
    gamma = [
        _divided(q, p, moments[k * qp : (k + 1) * qp], 1, lc * lb * la**k)
        for k in range(n)
    ]
    return InvariantVector(tuple(tau), tuple(gamma))


def group_action(g: RationalMatrix, w: Point) -> Point:
    """Apply g: (B, C, (A_i)) -> (gB, C g^-1, (g A_i g^-1)).

    Fraction-free: G = l g and H = d G^-1 are integral (one elimination,
    ``_integer_inverse``), B, C and the A_i are cleared by
    ``_integer_rescaled_point``, and ``_act_on_cleared`` forms the moved
    point from integer products.
    """
    if g.shape != (w.n, w.n):
        raise ShapeError("group element has wrong size")
    try:
        l, gi, h, d = _integer_inverse(g)
    except SingularMatrixError:
        raise SingularMatrixError("group element must be invertible") from None
    return _act_on_cleared(gi, h, d, l, *_integer_rescaled_point(w))


def _act_on_cleared(gi, h, d, l, wi, lb, lc, las) -> Point:
    """g.w from the flat integer G = l g and H = d G^-1 and the cleared
    point (wi, l_B, l_C, (l_i)) of ``_integer_rescaled_point``.

    With g = G / l and g^-1 = l H / d, the moved point is
    (G B / (l l_B), l C H / (l_C d), (G A_i H / (l_i d))): integer
    products, each entry divided once at the end.
    """
    n, p, q = wi.n, wi.p, wi.q
    moved = []
    for la, a in zip(las, wi.A_list):
        gah = _k.mat_mul(_k.mat_mul(gi, n, n, a.entries, n), n, n, h, n)
        moved.append(_divided(n, n, gah, 1, la * d))
    return Point(
        _divided(n, p, _k.mat_mul(gi, n, n, wi.B.entries, p), 1, l * lb),
        _divided(q, n, _k.mat_mul(wi.C.entries, q, n, h, n), l, lc * d),
        tuple(moved),
    )


def _controllability(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """[b^T; b^T a^T; ...; b^T (a^T)^{n-1}], row m p + j = (a^m b_j)^T; its
    row span is the a-span of im b.  Kalman duality: the observability
    matrix of (a^T, b^T)."""
    return _observability(a.transpose(), b.transpose())


def _observability(a: RationalMatrix, c: RationalMatrix) -> RationalMatrix:
    """[c; ca; ...; c a^{n-1}]; its kernel is the largest a-invariant
    subspace of ker c."""
    n, q = a.rows, c.rows
    obs = _krylov_left(c.entries, q, a.entries, n, n)
    return RationalMatrix(n * q, n, obs, validate=False)


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
MAX_WORD_LEN = 2 * MAX_SIZE - 1  # the largest default max_len, 2n - 1


def word_invariants(w: Point, max_len: int) -> WordInvariants:
    """All trace words tau_I (nonempty I) and moment words gamma_K, |K|, |I| <= max_len.

    tau keys are deduplicated up to cyclic rotation, the only identity that
    holds a priori; gamma keys are not deduplicated.  max_len outside
    0..``MAX_WORD_LEN`` or more than ``MAX_WORDS`` nonempty words is an
    ``OutOfRangeError``, raised before any product is formed.  At r = 1 the
    word count stays small while the output grows with max_len^2, and words
    longer than n add nothing new (Cayley-Hamilton).

    The words meet in the middle.  On the cleared point, every half-word u
    with |u| <= h = ceil(max_len / 2) gets its integer product A_u of the
    letters, its scale s_u (the product of l_i over its letters) and C A_u;
    a right half, |v| <= floor(max_len / 2), also gets A_v B and A_v^T.  A
    word of length L splits as u v with |u| = ceil(L/2), |v| = floor(L/2),
    and Gamma_uv = (C A_u)(A_v B) / (l_C l_B s_u s_v), one q x n x p
    product, and tau_uv = sum_ij (A_u)_ij (A_v)_ji / (s_u s_v).  So only
    r^2 + ... + r^h products of two n x n matrices are formed, and every
    numerator and denominator is the integer the word's own product gives.
    Words are visited by length, then lexicographically; the first word of
    a rotation class in that order is its least rotation, the class's key.
    """
    if not 0 <= max_len <= MAX_WORD_LEN:
        raise OutOfRangeError(f"max_len must lie in 0..{MAX_WORD_LEN}, got {max_len}")
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
    ident = [0] * (n * n)
    ident[:: n + 1] = (1,) * n
    letters = [((i,), a.entries, la) for i, (a, la) in enumerate(zip(wi.A_list, las), 1)]
    # by length k, lexicographically: (u, A_u, C A_u, s_u) for k <= ceil(max_len/2)
    # and (v, A_v^T, A_v B, s_v) for k <= floor(max_len/2)
    lefts, rights, halves = [[((), ident, c, 1)]], [[((), ident, b, 1)]], letters
    for k in range(1, (max_len + 1) // 2 + 1):
        if k > 1:
            halves = [(u + letter, _k.mat_mul(x, n, n, a, n), s * la)
                      for u, x, s in halves for letter, a, la in letters]
        lefts.append([(u, x, _k.mat_mul(c, q, n, x, n), s) for u, x, s in halves])
        if 2 * k <= max_len:
            rights.append([(v, [y for j in range(n) for y in x[j::n]],
                            _k.mat_mul(x, n, n, b, p), s) for v, x, s in halves])
    tau, gamma, den = {}, {}, lc * lb
    for length in range(max_len + 1):
        for u, x, cx, su in lefts[(length + 1) // 2]:
            for v, xt, xb, sv in rights[length // 2]:
                word, s = u + v, su * sv
                gamma[word] = _divided(q, p, _k.mat_mul(cx, q, n, xb, p), 1, den * s)
                if length and cyclic_canonical(word) == word:
                    tau[word] = _over(sum(map(mul, x, xt)), s)
    return WordInvariants(max_len, tau, gamma)


def _jacobian_entries(wi: Point, obs, ctrl):
    """Row-major integer entries of the Jacobian at an integer r = 1 point,
    for the rank and the J T = 0 check on the fallback of ``jacobian_rank``.

    With L_i = C A^i (block i of obs = ``_observability``) and R_m = A^m B
    (R_m^T is block m of ctrl = ``_controllability``), the product rule gives
      tau_k row, dA column (a, b):      k (A^{k-1})_ba
      Gamma_k row (i, j), dA column (a, b):
                                        sum_{s<k} (L_s)_ia (R_{k-1-s})_bj
      Gamma_k row (i, j), dB column (b, j): (L_k)_ib
      Gamma_k row (i, j), dC column (i, c): (R_k)_cj
    The dA block of Gamma_k is one product
    [L_0 .. L_{k-1}] [R_{k-1}^T; ..; R_0^T] with rows (i, a) and columns
    (j, b), read out by slices.
    """
    n, p, q = wi.n, wi.p, wi.q
    a, nn, np_, qn = wi.A.entries, n * n, n * p, q * n
    obs, ctrl = obs.entries, ctrl.entries
    lefts = [obs[s : s + qn] for s in range(0, n * qn, qn)]
    rights = [ctrl[m : m + np_] for m in range(0, n * np_, np_)]
    powers = _krylov_left(RationalMatrix.identity(n).entries, n, a, n, n)
    flat, rest = [], [0] * (np_ + qn)
    for k in range(1, n + 1):
        power = powers[(k - 1) * nn : k * nn]  # A^{k-1}
        flat += [k * x for col in range(n) for x in power[col::n]]
        flat += rest
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
                          for x in prod[t * np_ + j * n : t * np_ + (j + 1) * n]]
                db, dc = [0] * np_, [0] * qn
                db[j::p] = left[i * n : (i + 1) * n]
                dc[i * n : (i + 1) * n] = right[j * n : (j + 1) * n]
                flat += dA
                flat += db
                flat += dc
    return flat


def _krylov_has_rank_n(a, n, v, on_left=False) -> bool:
    """Whether the Krylov matrix [v, a v, ..., a^(n-1) v] of the integer
    n-vector v under the flat n x n integer matrix a, or with on_left the
    matrix [v; v a; ...; v a^(n-1)], has rank n mod ``PRIME``.  True
    proves rank n over Q.  Each a^m v (v a^m) is one product of a by the
    previous vector, so a is never transposed; the rows ranked are
    (a^m v)^T, row m p of ``_controllability`` for v the column 0 of its
    b, or v a^m, row m q of ``_observability`` for v the row 0 of its c.
    """
    rows = [v]
    for _ in range(1, n):
        v = _k.mat_mul(v, 1, n, a, n) if on_left else _k.mat_mul(a, n, n, v, 1)
        rows.append(v)
    return rank_mod_prime(rows, n) == n


def _split_bound(wi: Point) -> bool:
    """Whether rank J >= n(p + q) follows from the block split of J, by one
    or two n x n ranks mod ``PRIME`` (``_krylov_has_rank_n``) at the
    integer point wi, with neither obs nor ctrl built.

    The tau rows of J are zero on the dB and dC columns, so J contains the
    block-triangular submatrix [[T_A, 0], [G_A, G]], where T_A is the tau
    rows on the dA columns and G the n(p + q - 1) rows (k, 0, j) and
    (k, i, 0), i >= 1, of the Gamma_k on the dB and dC columns.  Hence
    rank J >= rank T_A + rank G = n + n(p + q - 1) when
    - K = [b_0, A b_0, ..., A^{n-1} b_0] has rank n: the rows
      k vec(A^{k-1})^T of T_A span the polynomials in A, of dimension at
      least rank K (A is cyclic); and
    - for p >= 2, O = [c_0; c_0 A; ...; c_0 A^{n-1}] has rank n.
    Then G is block upper triangular with invertible diagonal blocks: the
    dB columns (b, j), j >= 1, meet only the rows (k, 0, j), in O; the dC
    columns (i, c), i >= 1, only the rows (k, i, 0), in K^T; and the rows
    (k, 0, 0) are [O | K^T] on the dB columns (b, 0) and the dC columns
    (0, c).  A rank mod ``PRIME`` is a lower bound for the rank over Q.
    """
    n, p, a = wi.n, wi.p, wi.A.entries
    return _krylov_has_rank_n(a, n, wi.B.entries[::p]) and (
        p == 1 or _krylov_has_rank_n(a, n, wi.C.entries[:n], on_left=True))


def _orbit_tangent(wi: Point, f):
    """The orbit tangent ([X, A], XB, -CX) at an integer r = 1 point, flat
    and in J's column order (dA, dB, dC), at the packed X whose entry X_it
    is 2^(f (n i + t)).

    That entry is alpha_i beta_t, alpha_i = 2^(f n i) and beta_t = 2^(f t),
    so (XA)_ij = (beta^T A)_j 2^(f n i), (AX)_ij = (A alpha)_i 2^(f j),
    (XB)_ij = (beta^T B)_j 2^(f n i) and (CX)_ij = (C alpha)_i 2^(f j):
    each column of A and B and each row of A and C is packed once and then
    shifted, with no matrix product.
    """
    n, p, q = wi.n, wi.p, wi.q
    b, c, a = wi.B.entries, wi.C.entries, wi.A.entries
    by_f, by_fn = [f * t for t in range(n)], [f * n * t for t in range(n)]
    xa = [sum(map(lshift, a[j::n], by_f)) for j in range(n)]
    ax = [sum(map(lshift, a[i * n : (i + 1) * n], by_fn)) for i in range(n)]
    xb = [sum(map(lshift, b[j::p], by_f)) for j in range(p)]
    cx = [sum(map(lshift, c[i * n : (i + 1) * n], by_fn)) for i in range(q)]
    tangent = [(u << s) - (v << t) for v, s in zip(ax, by_fn) for u, t in zip(xa, by_f)]
    tangent += [u << s for s in by_fn for u in xb]
    return tangent + [-(v << t) for v in cx for t in by_f]


def _orbit_tangent_rows(wi: Point):
    """The rows of T, the matrix of ``_orbit_tangent`` in the entries X_it
    (column i n + t).  T is linear in X, so the tangent at the packed X with
    entry j = 2^(f j) holds column j of T at bit f j; every coefficient is
    an entry of B or -C, or A_tj - A_it, at most max(|B|, |C|, 2|A|) <
    2^(f-1) in size."""
    n, b, c, a = wi.n, wi.B.entries, wi.C.entries, wi.A.entries
    f = max(max(map(abs, b + c)), 2 * max(map(abs, a))).bit_length() + 1
    return [_signed_fields(v, f, n * n) for v in _orbit_tangent(wi, f)]


def _check_orbit_tangents(wi: Point, e, ncols) -> None:
    """Raise ``AssertionError`` unless J T = 0 exactly at an integer r = 1
    point, J given by its row-major entries e (``_jacobian_entries``) and
    its column count.

    At the packed X of ``_orbit_tangent``, row r of J times the tangent
    holds (J T)_rj at bit f j.  Each |(J T)_rj| <= ncols max|J| max(|B|,
    |C|, 2|A|) < 2^(f-1), a sum over the ncols columns of J with |T| as in
    ``_orbit_tangent_rows``, so a row is zero exactly when its fields are,
    and the lowest nonzero field names the X_j the row fails on.
    """
    b, c, a = wi.B.entries, wi.C.entries, wi.A.entries
    top = max(map(abs, e)) * max(max(map(abs, b + c)), 2 * max(map(abs, a)))
    f = (ncols * top).bit_length() + 1
    tangent = _orbit_tangent(wi, f)
    fields = [((v & -v).bit_length() - 1) // f
              for r in range(0, len(e), ncols)
              if (v := sum(map(mul, e[r : r + ncols], tangent)))]
    if fields:
        x = divmod(min(fields), wi.n)  # the first X_(i, t) that J fails on
        raise AssertionError(f"Jacobian does not annihilate the orbit tangent of X_{x}")


def jacobian_rank(w: Point) -> int:
    """Exact rank of the differential of the quotient map at w.

    Computed at the cleared point s(w) = (l_B B, l_C C, l_A A).  The
    scaling s is a linear isomorphism of the domain, and pi(s v) = D pi(v)
    with D invertible and diagonal (tau_k scales by l_A^k, Gamma_k by
    l_C l_A^k l_B).  So d pi(s w) s = D d pi(w), and the two Jacobians
    have the same rank.

    Lower bound from the block split (``_split_bound``): the Krylov
    matrices of b_0 and, for p >= 2, of c_0 have rank n mod ``PRIME``, so
    rank J >= n(p + q) with no obs, ctrl or Jacobian built, and n(p + q)
    is returned.  It is also an upper bound, with nothing left to check at
    run time:
    - the row count n + npq = n(p + q) when p = 1 or q = 1 (coregular);
    - cols - n^2 = n(p + q) for every p and q.  The invariants are constant
      on orbits, so the orbit tangents T = (XB, -CX, [X, A]) lie in ker J.
      The Krylov matrix of b_0 has rank n, so the point is controllable,
      and there X -> T is injective (XB = 0 and [X, A] = 0 give
      X A^k B = 0 for every k, so X = 0): ker J has dimension at least n^2.
    Otherwise obs and ctrl are built, ``_jacobian_entries`` builds J from
    them, the only place it is built, and its rank r mod ``PRIME`` is the
    lower bound: r is returned when r = min(rows, cols), or when
    r = cols - n^2, ctrl has rank n mod
    ``PRIME`` (the point is controllable) and ``_check_orbit_tangents``
    finds J T = 0 exactly on the entries that were ranked, so that
    rank J <= cols - n^2 holds for the very matrix ranked.  Any other r
    falls back to ``rank_int``.
    """
    wi = _integer_rescaled_point(w)[0]
    n, p, q = w.n, w.p, w.q
    nrows, ncols, full = n + n * q * p, n * (n + p + q), n * (p + q)
    if _split_bound(wi):
        return full
    obs, ctrl = _observability(wi.A, wi.C), _controllability(wi.A, wi.B)
    e = _jacobian_entries(wi, obs, ctrl)
    rows = [e[i : i + ncols] for i in range(0, nrows * ncols, ncols)]
    r = rank_mod_prime(rows, ncols)
    if r == min(nrows, ncols):
        return r
    if r == full and rank_mod_prime(ctrl.to_rows(), n) == n:
        _check_orbit_tangents(wi, e, ncols)
        return r
    return _k.rank_int(rows, ncols)


# ---------------------------------------------------------------------------
# the symmetrized parametrization of the image


def psi_map(t, xs) -> InvariantVector:
    """Map spectra and rank <= 1 matrices to invariant values.

    Sends (t_1..t_n; X_1..X_n) to the power sums of t and the combinations
    Gamma_k = sum_r t_r^k X_r for k = 0..n-1.  Every X_r must have rank at
    most one (decided by ``rank_one_pivot`` once per distinct matrix); the
    map is invariant under simultaneously permuting the t and X coordinates.
    """
    t = [_canon(x) for x in t]
    n = len(t)
    if len(xs) != n:
        raise ShapeError("need exactly one matrix per spectrum entry")
    if n == 0:
        return InvariantVector((), ())
    shape, ranked = xs[0].shape, set()
    for x in xs:
        if x.shape != shape:
            raise ShapeError("matrices differ in shape")
        if x not in ranked and rank_one_pivot(x) is None:
            raise FiberConditionError("matrix of rank >= 2 is outside the image")
        ranked.add(x)
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
    Hankel matrix factors through those two Krylov matrices; its entries are
    the moments v A^m u, m <= 2n - 2, not that product, so the identity is
    checked rather than assumed.
    """
    if not a.is_square:
        raise ShapeError("A must be square")
    n = a.rows
    if u.shape != (n, 1) or v.shape != (1, n):
        raise ShapeError("u must be n x 1 and v must be 1 x n")
    rows = _krylov_left(v.entries, 1, a.entries, n, 2 * n - 1)  # v A^m
    moments = _k.mat_mul(rows, 2 * n - 1, n, u.entries, 1)
    d1 = RationalMatrix(n, n, rows[: n * n]).det()
    cols = _krylov_left(u.entries, 1, a.transpose().entries, n, n)  # (A^m u)^T
    d2 = RationalMatrix(n, n, cols).det()
    hankel = RationalMatrix(
        n, n, [moments[i + j] for i in range(n) for j in range(n)]
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
    ((power sums of a); (sum a_i^k v_i)_{k=1..n}), which is
    ``psi_map(a, [a_1 v_1, ..., a_n v_n])``, approaches
    (0; (n u, 0, ..., 0)).  That limit is never attained: vanishing power
    sums force a = 0 (see ``limit_point_is_outside_family_image``), and
    a = 0 contradicts a_i v_i = u != 0.  The gap is the maximum absolute
    coordinate difference, exact on rationals.  u must have rank one;
    ``psi_map`` raises ``FiberConditionError`` on a larger rank.
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
    image = psi_map(a, [v.scale(ai) for ai, v in zip(a, vs)])
    limit_tau = (0,) * n
    limit_parts = [u.scale(n)] + [
        RationalMatrix.zeros(u.rows, u.cols) for _ in range(n - 1)
    ]
    gap = 0
    for t1, t2 in zip(image.tau, limit_tau):
        gap = max(gap, abs(t1 - t2))
    for m1, m2 in zip(image.gamma, limit_parts):
        for x, y in zip(m1.entries, m2.entries):
            gap = max(gap, abs(x - y))
    return NonclosedImageDemo(
        eps,
        image.tau,
        image.gamma,
        limit_tau,
        tuple(limit_parts),
        _canon(gap),
    )


def limit_point_is_outside_family_image(demo: NonclosedImageDemo) -> bool:
    """Certify that the demo's limit point is not in the family's image.

    A preimage of the limit needs a with power sums ``demo.limit_tau``.
    Three checks: those power sums are all zero; Newton's identities, run on
    them, give e = 0, so every a_i is a root of x^n and hence zero, which
    makes every family part sum_i a_i^k v_i zero; and the limit's first part
    is nonzero, so no a reaches it.
    """
    return (
        all(t == 0 for t in demo.limit_tau)
        and all(e == 0 for e in elementary_from_power_sums(demo.limit_tau))
        and not demo.limit_parts[0].is_zero()
    )
