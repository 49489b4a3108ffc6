"""The three integer kernels: the compiled extension when built, else pure.

``eadjoint._core`` is an optional Cython build of the kernels in
``eadjoint._corepy`` with identical results.  It is bound if it imports;
otherwise the pure twin is.  Callers look the kernels up on this module.
"""

try:
    from ._core import mat_mul, rank_int, rre_int  # type: ignore[attr-defined]

    _BACKEND = "compiled"
except ImportError:
    from ._corepy import mat_mul, rank_int, rre_int

    _BACKEND = "pure"


def backend_name():
    """'compiled' or 'pure': which kernels were bound at import."""
    return _BACKEND
