"""Exact dense linear algebra over the rationals.

Everything here is root-free and exact: entries are Python ``int`` or
``fractions.Fraction`` (an integral ``Fraction`` is stored as ``int``), ranks
and echelon forms come from integer-preserving elimination, and subspaces
are held as canonical primitive integer echelon rows (with a canonical
reduced column echelon basis matrix on demand), so that equal subspaces have
equal representations.  All values are immutable and all operations are pure,
so concurrent use needs no synchronization.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from . import _kernels as _k
from .errors import DegenerateSpectrumError, ShapeError, SingularMatrixError

Rational = int | Fraction


def _canon(x) -> Rational:
    """Normalize an exact rational: integral Fractions collapse to int."""
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational entry: {x!r}")


def _int_to_str(x: int) -> str:
    """str(x), also for integers longer than the interpreter's limit on
    int-to-str conversion: such an x is split at a power of ten into two
    halves of about half its digits each, converted in turn."""
    try:
        return str(x)
    except ValueError:
        if x < 0:
            return "-" + _int_to_str(-x)
        k = x.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
        high, low = divmod(x, 10**k)
        return _int_to_str(high) + _int_to_str(low).zfill(k)


def rational_to_str(x: Rational) -> str:
    """Serialize to 'num' or 'num/den' in lowest terms, denominator > 0."""
    x = _canon(x)
    if isinstance(x, int):
        return _int_to_str(x)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


MAX_RATIONAL_DIGITS = 1000
_RATIONAL_RE = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def rational_from_str(s: str) -> Rational:
    """Parse 'num' or 'num/den' (optional sign, ASCII digits, surrounding
    whitespace ignored); numerator and denominator have at most
    MAX_RATIONAL_DIGITS digits each.  Decimals, exponents and digit
    separators are rejected."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {type(s).__name__}")
    m = _RATIONAL_RE.fullmatch(s.strip())
    if m is None:
        raise ValueError(f"malformed rational {s!r}")
    sign, num, den = m.groups()
    if len(num) > MAX_RATIONAL_DIGITS or (den and len(den) > MAX_RATIONAL_DIGITS):
        raise ValueError(
            f"rational with more than {MAX_RATIONAL_DIGITS} digits in a part"
        )
    num = -int(num) if sign == "-" else int(num)
    if den is None:
        return num
    if not int(den):
        raise ValueError(f"malformed rational {s!r}: zero denominator")
    return _canon(Fraction(num, int(den)))


class RationalMatrix:
    """Immutable dense matrix with exact rational entries, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries, validate=True):
        if validate:
            if rows < 0 or cols < 0:
                raise ShapeError("negative matrix dimension")
            entries = tuple(_canon(x) for x in entries)
            if len(entries) != rows * cols:
                raise ShapeError(
                    f"expected {rows * cols} entries, got {len(entries)}"
                )
        else:
            entries = tuple(entries)
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows_list) -> "RationalMatrix":
        rows_list = list(rows_list)
        nrows = len(rows_list)
        ncols = len(rows_list[0]) if nrows else 0
        flat = []
        for row in rows_list:
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, flat)

    @classmethod
    def _computed(cls, rows, cols, values) -> "RationalMatrix":
        """The matrix of computed exact values, row-major, with every
        integral Fraction stored as int; the shape is not checked."""
        if not set(map(type, values)) <= {int}:
            values = [_canon(x) for x in values]
        return cls(rows, cols, values, validate=False)

    @classmethod
    def zeros(cls, rows, cols) -> "RationalMatrix":
        return cls(rows, cols, [0] * (rows * cols), validate=False)

    @classmethod
    def identity(cls, n) -> "RationalMatrix":
        e = [0] * (n * n)
        for i in range(n):
            e[i * n + i] = 1
        return cls(n, n, e, validate=False)

    @classmethod
    def diagonal(cls, values) -> "RationalMatrix":
        values = [_canon(v) for v in values]
        n = len(values)
        e = [0] * (n * n)
        for i, v in enumerate(values):
            e[i * n + i] = v
        return cls(n, n, e, validate=False)

    @classmethod
    def column(cls, values) -> "RationalMatrix":
        return cls.from_rows([[v] for v in values])

    @classmethod
    def row(cls, values) -> "RationalMatrix":
        return cls.from_rows([list(values)])

    # -- basic protocol ------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self):
        return self.rows == self.cols

    def entry(self, i, j) -> Rational:
        return self.entries[i * self.cols + j]

    def row_list(self, i):
        c = self.cols
        return list(self.entries[i * c : (i + 1) * c])

    def col_list(self, j):
        c = self.cols
        return [self.entries[i * c + j] for i in range(self.rows)]

    def to_rows(self):
        return [self.row_list(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(rational_to_str(x) for x in self.row_list(i))
            for i in range(self.rows)
        )
        return f"RationalMatrix({self.rows}x{self.cols}: [{body}])"

    def is_zero(self):
        return all(not x for x in self.entries)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return RationalMatrix._computed(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return RationalMatrix._computed(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return RationalMatrix(
            self.rows, self.cols, [-a for a in self.entries], validate=False
        )

    def scale(self, s) -> "RationalMatrix":
        s = _canon(s)
        return RationalMatrix._computed(self.rows, self.cols, [s * a for a in self.entries])

    def __mul__(self, s):
        if isinstance(s, (int, Fraction)):
            return self.scale(s)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        out = _k.mat_mul(self.entries, self.rows, self.cols, other.entries, other.cols)
        return RationalMatrix._computed(self.rows, other.cols, out)

    def transpose(self) -> "RationalMatrix":
        c, e = self.cols, self.entries
        out = [x for j in range(c) for x in e[j::c]]
        return RationalMatrix(c, self.rows, out, validate=False)

    @property
    def T(self):
        return self.transpose()

    @staticmethod
    def hstack(mats):
        mats = list(mats)
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise ShapeError("hstack with differing row counts")
        rows = [[] for _ in range(r)]
        for m in mats:
            for i in range(r):
                rows[i].extend(m.row_list(i))
        cols = sum(m.cols for m in mats)
        flat = [x for row in rows for x in row]
        return RationalMatrix(r, cols, flat, validate=False)

    @staticmethod
    def vstack(mats):
        mats = list(mats)
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise ShapeError("vstack with differing column counts")
        flat = []
        for m in mats:
            flat.extend(m.entries)
        return RationalMatrix(sum(m.rows for m in mats), c, flat, validate=False)

    # -- serialization ---------------------------------------------------

    def to_lists(self):
        return [
            [rational_to_str(x) for x in self.row_list(i)] for i in range(self.rows)
        ]

    @classmethod
    def from_lists(cls, rows_list) -> "RationalMatrix":
        if not isinstance(rows_list, list):
            raise ValueError("matrix must be a list of rows")
        parsed = []
        for row in rows_list:
            if not isinstance(row, list):
                raise ValueError("matrix row must be a list")
            parsed.append([rational_from_str(x) for x in row])
        return cls.from_rows(parsed)

    # -- elimination-backed queries ---------------------------------------

    def _same_shape(self, other):
        if not isinstance(other, RationalMatrix) or self.shape != other.shape:
            raise ShapeError("shape mismatch")

    def _int_rows(self):
        """Rows scaled to integers (row scaling preserves rank/RREF/kernel);
        the rows themselves when every entry is already an integer."""
        c, e = self.cols, self.entries
        if set(map(type, e)) <= {int}:
            return [list(e[i * c : (i + 1) * c]) for i in range(self.rows)]
        return [_scaled_to_int(e[i * c : (i + 1) * c])[1] for i in range(self.rows)]

    def rank(self) -> int:
        return _k.rank_int(self._int_rows(), self.cols)

    def rref(self):
        """Unique rational RREF: (rank, pivot column tuple, rows as lists)."""
        rank, pivots, rows = _k.rre_int(self._int_rows(), self.cols)
        out = []
        for idx in range(rank):
            row = rows[idx]
            p = row[pivots[idx]]
            out.append([_over(x, p) for x in row])
        return rank, tuple(pivots), out

    def inverse(self) -> "RationalMatrix":
        l, _, h, d = _integer_inverse(self)
        return _divided(self.rows, self.cols, h, l, d)

    def det(self) -> Rational:
        """Determinant as (-1)^n times the constant term of ``char_poly``."""
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        return (-1) ** self.rows * char_poly(self).coeffs[-1]


def _scaled_to_int(values):
    """(l, l * values) for the least integer l > 0 making every value integral.

    The one place rational entries are cleared to integers: per row for the
    elimination kernels, per matrix in ``integer_rescaled``.
    """
    # exact type tests: isinstance against the Fraction ABC is slow here
    l = 1
    for x in values:
        if type(x) is not int:
            d = x.denominator
            l = l * d // gcd(l, d)
    if l == 1:
        # a Fraction can carry denominator 1 after arithmetic
        return 1, [x if type(x) is int else x.numerator for x in values]
    return l, [
        x * l if type(x) is int else x.numerator * (l // x.denominator)
        for x in values
    ]


def _integer_inverse(g: RationalMatrix):
    """(l, G, H, d) with G = l * g integral and H = d * G^-1 integral (G and
    H flat, row-major), so g^-1 = l * H / d; l and d are the least such
    integers (``_scaled_to_int``, ``_inverse_of_int``)."""
    if not g.is_square:
        raise ShapeError("inverse of a non-square matrix")
    l, gi = _scaled_to_int(g.entries)
    inverse = _inverse_of_int(gi, g.rows)
    if inverse is None:
        raise SingularMatrixError("matrix is singular")
    return l, gi, *inverse


def _inverse_of_int(gi, n):
    """(H, d) with H = d * G^-1 integral (flat, row-major) and d the least
    such integer, for the flat row-major integer n x n matrix G; None when
    G is singular.

    One ``rre_int`` of [G | I]: G is singular exactly when a pivot lies in
    the I block; otherwise row i is p_i [e_i | row i of G^-1] with p_i the
    least scale making that row integral, and d = lcm(p_i).
    """
    aug = [gi[i * n : (i + 1) * n] + [int(i == j) for j in range(n)] for i in range(n)]
    _, pivots, rows = _k.rre_int(aug, 2 * n)
    if any(p >= n for p in pivots):
        return None
    d = 1
    for i in range(n):
        d = d * rows[i][i] // gcd(d, rows[i][i])
    return [x * (d // rows[i][i]) for i in range(n) for x in rows[i][n:]], d


def _over(x: int, den: int) -> Rational:
    """The rational x / den of two integers, an int when den divides x."""
    return x // den if x % den == 0 else Fraction(x, den)


def _divided(rows, cols, ints, num, den) -> RationalMatrix:
    """The matrix num * ints / den of integer entries, each entry ``_over``."""
    return RationalMatrix(rows, cols, [_over(x * num, den) for x in ints],
                          validate=False)


def _krylov_left(x, rows, a, n, count):
    """[x; x a; ...; x a^(count-1)], flat row-major (count rows) x n, for
    flat row-major blocks x (rows x n) and a (n x n); block k is the slice
    [k rows n, (k + 1) rows n)."""
    out, block = [], x
    for k in range(count):
        if k:
            block = _k.mat_mul(block, rows, n, a, n)
        out += block
    return out


def _power_traces(a, n, m):
    """[tr A, ..., tr A^m] for a flat row-major n x n matrix a, from the
    powers up to A^h, h = ceil(m / 2): for k > h, tr A^k = tr(A^(k-h) A^h)
    is the sum of the entries of A^(k-h) times those of (A^h)^T."""
    h, nn = (m + 1) // 2, n * n
    powers = _krylov_left(a, n, a, n, h)
    top_t = [x for j in range(n) for x in powers[(h - 1) * nn + j : h * nn : n]]
    return [sum(powers[k : k + nn : n + 1]) for k in range(0, h * nn, nn)] + [
        sum(map(mul, powers[k : k + nn], top_t)) for k in range(0, (m - h) * nn, nn)]


def integer_rescaled(m: RationalMatrix):
    """(l, l m) for the least integer l > 0 clearing every denominator of m;
    (1, m) itself when m is integral.

    Useful wherever only the zero pattern, spans or kernels of a matrix
    matter; those are unchanged under scaling by a positive rational.
    """
    if all(type(x) is int for x in m.entries):
        return 1, m
    l, ints = _scaled_to_int(m.entries)
    return l, RationalMatrix(m.rows, m.cols, ints, validate=False)


def rank_one_pivot(x: RationalMatrix):
    """(e, i0, j0) when x has rank at most one, None when its rank is two or
    more.

    e is x cleared to integers (``_scaled_to_int``), flat and row-major;
    j0 is its first nonzero column and i0 the first nonzero row in that
    column, (-1, -1) for the zero matrix.  With v = e_{i0 j0} != 0, x has
    rank <= 1 exactly when e_ij v = e_{i j0} e_{i0 j} for every i and j:
    these are v times the entries of c b - e, with c column j0 of e and b
    row i0 over v, so they vanish exactly when e = c b.
    """
    p = x.cols
    e = _scaled_to_int(x.entries)[1]
    for j0 in range(p):
        col = e[j0::p]
        if any(col):
            break
    else:
        return e, -1, -1
    i0 = next(i for i, u in enumerate(col) if u)
    v, row = col[i0], e[i0 * p : (i0 + 1) * p]
    for i, u in enumerate(col):
        for a, b in zip(e[i * p : (i + 1) * p], row):
            if a * v != u * b:
                return None
    return e, i0, j0


PRIME = 2**31 - 1  # a Mersenne prime: 2^31 = 1 mod PRIME


def rank_mod_prime(rows, ncols) -> int:
    """Rank modulo ``PRIME`` of an integer matrix given as row sequences.

    A minor that is nonzero mod p is nonzero over Z, so the result is a
    proven lower bound for the rank over Q; it falls short only when every
    nonzero maximal minor is divisible by p.

    Each row is packed into one Python int, column j in the field of
    w bits starting at bit w*j, w = 2*31 + bitlen(len(rows)) + 1 rounded up
    to whole bytes so that one ``struct`` call packs a row.  Eliminating a
    column adds f * (pivot row) to every other live row with a nonzero
    entry there, one big-int multiply-add per row, and shifts every live
    row right by one field, so the current column is always the lowest
    field.  Fields are reduced lazily: every field starts below p, an
    update adds less than p^2 and a row takes fewer than len(rows) updates,
    so no field carries into the next.  A row is reduced (``_residues``)
    only when it becomes the pivot, and every live row when a column has no
    pivot; rows that are then zero are dropped, which ends the loop once
    the rank is exhausted.
    """
    m = len(rows)
    if not m or not ncols:
        return 0
    size = (2 * 31 + m.bit_length() + 8) // 8  # bytes per field
    w = 8 * size
    field = (1 << w) - 1
    ones = ((1 << (w * ncols)) - 1) // field  # 1 in every field
    masks = ones, ones * PRIME, ones * ((1 << (w - 31)) - 1)
    pack = struct.Struct(f"<{ncols * f'I{size - 4}x'}").pack
    live = []
    for row in rows:
        v = int.from_bytes(pack(*[x % PRIME for x in row]), "little")
        if v:
            live.append(v)
    rank, reduced = 0, True  # reduced: every live row reduced, none updated since
    for _ in range(ncols):
        pivot, rest = None, []
        for v in live:
            x = (v & field) % PRIME
            if not x:
                v >>= w
            elif pivot is None:
                pivot = _residues(v, masks)
                inv = PRIME - pow(pivot & field, -1, PRIME)
                continue
            else:
                v = (v + x * inv % PRIME * pivot) >> w
            if v:
                rest.append(v)
        if pivot is not None:
            rank, reduced = rank + 1, False
        elif not reduced:
            rest = [v for v in (_residues(v, masks) for v in rest) if v]
            reduced = True
        live = rest
        if not live:
            break
    return rank


def _residues(v, masks):
    """The packed row v with every field replaced by its residue in [0, p).

    y = x + 1 is folded to (y & p) + (y >> 31), which keeps y in
    1..2^(w-1) and keeps its residue mod p, until y is at most p;
    subtracting the 1 again leaves x mod p.  Every field is folded at once.
    """
    ones, low, high = masks
    v += ones
    while carry := (v >> 31) & high:
        v = (v & low) + carry
    return v - ones


def _signed_fields(v, f, m):
    """[d_0, ..., d_(m-1)] with v = sum_j d_j 2^(f j), every |d_j| < 2^(f-1):
    with 2^(f-1) added to each, the fields are nonnegative and carry-free."""
    half, mask = 1 << (f - 1), (1 << f) - 1
    v += half * (((1 << (f * m)) - 1) // mask)  # 2^(f-1) in every field
    return [((v >> (f * j)) & mask) - half for j in range(m)]


def trace_product(a: RationalMatrix, b: RationalMatrix) -> Rational:
    """trace(a @ b) without forming the product."""
    if a.cols != b.rows or a.rows != b.cols:
        raise ShapeError("trace_product shape mismatch")
    ae, be = a.entries, b.entries
    n, m = a.rows, a.cols
    s = 0
    for i in range(n):
        ia = i * m
        for t in range(m):
            x = ae[ia + t]
            if x:
                s += x * be[t * n + i]
    return _canon(s)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A linear subspace of Q^n, stored as primitive integer echelon rows.

    The stored form is what ``rre_int`` returns for any spanning set: the
    reduced row echelon form of the spanning vectors, each row scaled to a
    primitive integer vector (content 1) with a positive pivot entry.  That
    form is unique per subspace, so equal subspaces carry equal rows, and
    every operation below runs on these rows through the integer kernels
    without building a Fraction.

    ``basis`` is the same subspace as a reduced column echelon matrix
    (leading 1 of each column at a strictly increasing row index, zeros
    elsewhere in pivot rows), built on first access and cached; it is just
    as unique, so two equal subspaces always carry identical basis matrices.
    """

    __slots__ = ("ambient_dim", "dim", "_rows", "_pivots", "_basis")

    def __init__(self, ambient_dim, rows, pivots):
        # callers hand in rows already in the stored form; use the
        # constructors below for arbitrary spanning sets
        self.ambient_dim = ambient_dim
        self.dim = len(rows)
        self._rows = rows
        self._pivots = pivots
        self._basis = None

    @classmethod
    def from_spanning_columns(cls, m: RationalMatrix) -> "Subspace":
        return _span(m.rows, m.transpose()._int_rows())

    @classmethod
    def zero(cls, ambient_dim) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim) -> "Subspace":
        rows = tuple(
            tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)
        )
        return cls(ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def basis(self) -> RationalMatrix:
        """The canonical ambient_dim x dim basis matrix (exact rationals)."""
        b = self._basis
        if b is None:
            n, d = self.ambient_dim, self.dim
            e = [0] * (n * d)
            for j, row in enumerate(self._rows):
                p = row[self._pivots[j]]
                for i, x in enumerate(row):
                    if x:
                        e[i * d + j] = _over(x, p)
            b = self._basis = RationalMatrix(n, d, e, validate=False)
        return b

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self._rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains_vector(self, v) -> bool:
        if isinstance(v, RationalMatrix):
            if v.rows != self.ambient_dim:
                raise ShapeError("ambient dimension mismatch")
            vecs = v.transpose()._int_rows()
        else:
            v = [_canon(x) for x in v]
            if len(v) != self.ambient_dim:
                raise ShapeError("ambient dimension mismatch")
            vecs = [_scaled_to_int(v)[1]]
        return _k.rank_int([*self._rows, *vecs], self.ambient_dim) == self.dim

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return _span(self.ambient_dim, [*self._rows, *other._rows])

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        n = self.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(n)
        # the intersection is the common kernel of both annihilators
        return _kernel_span(self._annihilator() + other._annihilator(), n)

    def image_under(self, a: RationalMatrix) -> "Subspace":
        if a.cols != self.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        # row j of (basis rows) @ a^T is a applied to basis vector j
        m = a.rows
        prod = _k.mat_mul(
            [x for row in self._rows for x in row], self.dim, self.ambient_dim,
            integer_rescaled(a)[1].transpose().entries, m,
        )
        return _span(m, [prod[i * m : (i + 1) * m] for i in range(self.dim)])

    def preimage_under(self, a: RationalMatrix) -> "Subspace":
        """The solution space {x : a @ x lies in this subspace}."""
        if a.rows != self.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        ann = self._annihilator()
        if not ann:
            return Subspace.full(a.cols)
        c = a.cols
        prod = _k.mat_mul(
            [x for row in ann for x in row], len(ann), self.ambient_dim,
            integer_rescaled(a)[1].entries, c,
        )
        return _kernel_span([prod[i * c : (i + 1) * c] for i in range(len(ann))], c)

    def _annihilator(self):
        """Integer rows spanning {z : z @ basis = 0}, not canonical."""
        return _kernel_of_reduced(self.dim, self._pivots, self._rows, self.ambient_dim)

    def _same_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")


def _span(n, rows) -> Subspace:
    """The subspace of Q^n spanned by integer row vectors."""
    rank, pivots, red = _k.rre_int(rows, n)
    return Subspace(n, tuple(tuple(r) for r in red[:rank]), tuple(pivots))


def _reduced(v, rows, lead):
    """The integer vector v reduced against kept rows and made primitive,
    or None when v lies in their span.

    The kept rows are independent, row t has its leading column lead[t]
    and is zero at the leading columns of the rows before it.  Each is
    cleared from v by ``_forward``'s two-term step, so the result is zero
    exactly when v lies in their span, and otherwise is zero at every
    leading column and can be kept as the next row.
    """
    for r, c in zip(rows, lead):
        x = v[c]
        if x:
            g = gcd(r[c], x)
            f, s = r[c] // g, x // g
            v = [y * f - z * s for y, z in zip(v, r)]
    g = gcd(*v)
    if g:
        return [y // g for y in v] if g > 1 else v
    return None


def _invariant_basis(a, n, vecs, on_left=False):
    """Independent integer rows, echelon once sorted by leading column,
    spanning the smallest subspace of Q^n that contains the integer vectors
    vecs and is invariant under v -> a v (v -> v a with on_left), a flat
    row-major n x n integer matrix.

    Grown one vector at a time, vecs first and then the images of the kept
    rows in turn: each vector that does not reduce to zero against the kept
    rows (``_reduced``) is kept and its image queued; at most n rows are
    kept.
    """
    queue, rows, lead = list(vecs), [], []
    for v in queue:
        v = _reduced(v, rows, lead)
        if v is not None:
            rows.append(v)
            if len(rows) == n:
                break
            lead.append(next(j for j, y in enumerate(v) if y))
            queue.append(_k.mat_mul(v, 1, n, a, n) if on_left else _k.mat_mul(a, n, n, v, 1))
    return rows


def _kernel_vectors(rows, n):
    """Integer vectors spanning {x in Q^n : row . x = 0 for every row}.

    One vector per free column f of the reduced rows: f-th entry l, pivot
    entries -l * row[f] / pivot, with l the least common multiple of the
    pivots involved, which keeps the vector integral.
    """
    return _kernel_of_reduced(*_k.rre_int(rows, n), n)


def _kernel_span(rows, n) -> Subspace:
    """The subspace {x in Q^n : row . x = 0 for every row}, from one
    elimination.

    Eliminated with its columns reversed, each ``_kernel_of_reduced`` vector
    has its last nonzero entry, a positive one, at its own free column and
    zeros at the other free columns.  Read forwards, those vectors are
    reduced echelon rows with the free columns as pivots, so made primitive
    and put in pivot order they are the stored rows of the kernel.
    """
    rank, pivots, red = _k.rre_int([row[::-1] for row in rows], n)
    out = []
    for v in reversed(_kernel_of_reduced(rank, pivots, red, n)):
        g = gcd(*v)
        out.append(tuple(x // g for x in reversed(v)))
    pivot_set = set(pivots)
    free = tuple(n - 1 - f for f in range(n - 1, -1, -1) if f not in pivot_set)
    return Subspace(n, tuple(out), free)


def _kernel_of_reduced(rank, pivots, red, n):
    """``_kernel_vectors`` read off rows already in ``rre_int``'s form."""
    pivot_set = set(pivots)
    out = []
    for f in range(n):
        if f in pivot_set:
            continue
        l = 1
        for i in range(rank):
            if red[i][f]:
                d = red[i][pivots[i]]
                l = l * d // gcd(l, d)
        v = [0] * n
        v[f] = l
        for i in range(rank):
            x = red[i][f]
            if x:
                v[pivots[i]] = -x * (l // red[i][pivots[i]])
        out.append(v)
    return out


def kernel_subspace(m: RationalMatrix) -> Subspace:
    """Null space {x : m @ x = 0} with canonical basis."""
    return _kernel_span(m._int_rows(), m.cols)


# ---------------------------------------------------------------------------
# characteristic polynomials and friends


@dataclass(frozen=True)
class PolynomialCoeffs:
    """Monic polynomial, coefficients from the top power down to the constant."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("polynomial must be monic")
        object.__setattr__(self, "coeffs", tuple(_canon(c) for c in self.coeffs))

    def is_power_of_x(self) -> bool:
        return all(not c for c in self.coeffs[1:])


def char_poly(a: RationalMatrix) -> PolynomialCoeffs:
    """Characteristic polynomial of a square matrix.

    Uses the Faddeev-LeVerrier recurrence: only matrix products, traces and
    exact divisions by the step index, so no determinant expansion and no
    entry-dependent divisions.  For integer input every intermediate
    coefficient is the exact integer coefficient of the polynomial.
    """
    if not a.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = a.rows
    coeffs = [1]
    m = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        if k > 1:
            m = a @ m + RationalMatrix.identity(n).scale(coeffs[-1])
        coeffs.append(_canon(Fraction(-trace_product(a, m), k)))
    return PolynomialCoeffs(tuple(coeffs))


def elementary_from_power_sums(psums) -> list:
    """Newton's identities: elementary symmetric values e_1..e_n from p_1..p_n."""
    psums = [_canon(p) for p in psums]
    n = len(psums)
    e = [1]
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * psums[i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        e.append(_canon(Fraction(acc, k)))
    return e[1:]


def is_regular_semisimple(a: RationalMatrix) -> bool:
    """Whether a has n distinct eigenvalues, decided by one integer rank.

    The power-sum Hankel matrix H_ij = tr(A^(i+j)), 0 <= i, j < n, is
    V D V^T for the Vandermonde matrix V of the distinct eigenvalues and
    D their multiplicities (Hermite), so its rank is the number of distinct
    eigenvalues and det H is the discriminant.  ``_power_traces`` reads H off
    A cleared to integers, which scales the eigenvalues by one positive factor.
    """
    if not a.is_square:
        raise ShapeError("regular semisimplicity is a square-matrix property")
    n = a.rows
    ai = _scaled_to_int(a.entries)[1]
    sums = [n] + _power_traces(ai, n, 2 * n - 2)
    return _k.rank_int([sums[i : i + n] for i in range(n)], n) == n


# ---------------------------------------------------------------------------
# Vandermonde systems


def vandermonde_solve(t, rhs):
    """Solve sum_r t_r^k X_r = rhs_k (k = 0..n-1) for matrices X_1..X_n.

    The t values must be pairwise distinct; the right-hand sides are n
    equally shaped matrices.  Solved by one ``rre_int`` of the n x (n + qp)
    system whose row i is [t_j^i | vec rhs_i], cleared to integers.  With
    t_j = s_j / d over the least common denominator d, and l_i clearing
    rhs_i, row i times m_i = lcm(d^i, l_i) is
    [s_j^i m_i / d^i | (l_i rhs_i) m_i / l_i].  Reduced row r is its pivot
    times [e_r | vec X_r], so only the returned entries become Fractions.
    """
    t = [_canon(x) for x in t]
    n = len(t)
    if len(set(t)) != n:
        raise DegenerateSpectrumError("degenerate spectrum: repeated t values")
    if len(rhs) != n:
        raise ShapeError(f"expected {n} right-hand blocks, got {len(rhs)}")
    if n == 0:
        return []
    q, p = rhs[0].rows, rhs[0].cols
    for blk in rhs:
        if blk.shape != (q, p):
            raise ShapeError("right-hand blocks differ in shape")
    d, s = _scaled_to_int(t)
    aug = []
    for i in range(n):
        l, g = _scaled_to_int(rhs[i].entries)
        di = d**i
        u = l // gcd(di, l)  # lcm(d^i, l) / d^i
        v = di // gcd(di, l)  # lcm(d^i, l) / l
        aug.append([x**i * u for x in s] + [x * v for x in g])
    rank, pivots, red = _k.rre_int(aug, n + q * p)
    if rank != n or any(pc >= n for pc in pivots):
        raise DegenerateSpectrumError("Vandermonde system is singular")
    return [_divided(q, p, red[r][n:], 1, red[r][r]) for r in range(n)]
