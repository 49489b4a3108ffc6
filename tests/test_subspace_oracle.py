"""Every Subspace operation against sympy's rref/nullspace, basis for basis,
and the matrix rank, rref, determinant and characteristic polynomial against
sympy's own.

The subspaces are stored as integer echelon rows; these tests check that the
public ``basis`` each operation returns is exactly the reduced column echelon
matrix that sympy's independent rational elimination gives.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eadjoint.linalg import (
    RationalMatrix,
    Subspace,
    _kernel_span,
    char_poly,
    kernel_subspace,
)
from oracles import contains

sympy = pytest.importorskip("sympy")

entries = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=3)
)


@st.composite
def cases(draw, max_dim=4):
    """(a, b, m, v): spanning sets a, b and a square m over Q^n, a vector v."""
    n = draw(st.integers(min_value=1, max_value=max_dim))

    def matrix(rows, cols):
        return RationalMatrix(
            rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        )

    a = matrix(n, draw(st.integers(min_value=0, max_value=max_dim)))
    b = matrix(n, draw(st.integers(min_value=0, max_value=max_dim)))
    m = matrix(n, n)
    v = draw(st.lists(entries, min_size=n, max_size=n))
    return a, b, m, v


def to_sym(m):
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries]
    )


def columns(sm):
    return [sm[:, j] for j in range(sm.cols)]


def span_basis(vectors, n):
    """Reduced column echelon basis of the span of sympy column vectors."""
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return RationalMatrix.zeros(n, 0)
    reduced, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    basis = reduced[: len(pivots), :].T
    return RationalMatrix(
        n, len(pivots), [Fraction(int(x.p), int(x.q)) for x in basis]
    )


def sym_basis(s):
    return to_sym(s.basis) if s.dim else sympy.zeros(s.ambient_dim, 0)


def sym_rank(vectors):
    vectors = list(vectors)
    return sympy.Matrix.hstack(*vectors).rank() if vectors else 0


@given(cases())
@settings(deadline=None, max_examples=60)
def test_span_and_kernel(case):
    a, _, m, _ = case
    n = a.rows
    assert Subspace.from_spanning_columns(a).basis == span_basis(columns(to_sym(a)), n)
    assert kernel_subspace(m).basis == span_basis(to_sym(m).nullspace(), n)
    assert kernel_subspace(a.transpose()).basis == span_basis(
        to_sym(a).T.nullspace(), n
    )
    # the one-elimination kernel on raw integer rows, wide or tall
    assert _kernel_span(a._int_rows(), a.cols).basis == span_basis(
        to_sym(a).nullspace(), a.cols
    )


@given(cases())
@settings(deadline=None, max_examples=60)
def test_sum_and_intersection(case):
    a, b, _, _ = case
    n = a.rows
    s, t = Subspace.from_spanning_columns(a), Subspace.from_spanning_columns(b)
    sa, tb = sym_basis(s), sym_basis(t)
    assert s.sum_with(t).basis == span_basis(columns(sa) + columns(tb), n)
    # S ∩ T = {S x : S x = T y}, from the kernel of [S, -T]
    if s.dim and t.dim:
        ker = sympy.Matrix.hstack(sa, -tb).nullspace()
        meet = [sa * z[: s.dim, :] for z in ker]
    else:
        meet = []
    assert s.intersect(t).basis == span_basis(meet, n)


@given(cases())
@settings(deadline=None, max_examples=60)
def test_image_and_preimage(case):
    a, _, m, _ = case
    n = a.rows
    s = Subspace.from_spanning_columns(a)
    sa, sm = sym_basis(s), to_sym(m)
    assert s.image_under(m).basis == span_basis(columns(sm * sa), n)
    # {x : m x in S} is the kernel of (annihilator of S) m
    ann = sa.T.nullspace() if s.dim else columns(sympy.eye(n))
    if ann:
        expected = span_basis((sympy.Matrix.hstack(*ann).T * sm).nullspace(), n)
    else:
        expected = RationalMatrix.identity(n)
    assert s.preimage_under(m).basis == expected


@given(cases())
@settings(deadline=None, max_examples=60)
def test_containment(case):
    a, b, _, v = case
    s, t = Subspace.from_spanning_columns(a), Subspace.from_spanning_columns(b)
    sa, tb = sym_basis(s), sym_basis(t)
    sv = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in v])
    assert s.contains_vector(v) == (sym_rank(columns(sa) + [sv]) == s.dim)
    assert contains(s, t) == (sym_rank(columns(sa) + columns(tb)) == s.dim)
    assert contains(t, s) == (sym_rank(columns(sa) + columns(tb)) == t.dim)
    # a vector inside the subspace is always contained
    if s.dim:
        assert s.contains_vector(s.basis.col_list(s.dim - 1))


def from_sym(x):
    return Fraction(int(x.p), int(x.q))


@given(cases())
@settings(deadline=None, max_examples=60)
def test_rank_rref_det_char_poly(case):
    a, _, m, _ = case
    sa, sm = to_sym(a), to_sym(m)
    reduced, pivots = sa.rref()
    assert a.rank() == sa.rank() == len(pivots)
    assert a.rref() == (
        len(pivots),
        pivots,
        [[from_sym(x) for x in reduced.row(i)] for i in range(len(pivots))],
    )
    assert m.det() == from_sym(sm.det())
    assert char_poly(m).coeffs == tuple(
        from_sym(c) for c in sm.charpoly().all_coeffs()
    )
