"""Build hook: compile the optional exact-arithmetic kernel extension.

The package is fully functional without the extension (a pure-Python twin of
every kernel ships in ``eadjoint._corepy``); the compiled module only removes
interpreter overhead from the hot inner loops.  It is built from the
committed C source ``src/eadjoint/_core.c`` (generated from ``_core.pyx``),
so no Cython is needed; without a C compiler the build silently degrades to
the pure backend.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("eadjoint._core", ["src/eadjoint/_core.c"], optional=True)
    ]
)
