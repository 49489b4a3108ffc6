"""Exact-arithmetic toolkit for the enhanced adjoint action of GL_n.

The group GL_n acts on triples (B, C, A) of an n x p, a q x n and an n x n
matrix by g.(B, C, A) = (gB, C g^-1, g A g^-1).  This package evaluates the
generating invariants of that action, analyzes the quotient map (Jacobian
ranks, fiber reconstruction over regular semisimple spectra), and classifies
the null cone into its irreducible components with constructive
destabilization certificates.  Every computation is exact over the rationals;
no floating point, no root extraction.

Callers import the submodules (``eadjoint.nullcone``, ``eadjoint.invariants``,
``eadjoint.cli``, ...); the package itself binds no names.
"""
