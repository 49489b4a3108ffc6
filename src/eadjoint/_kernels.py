"""The three integer kernels every exact computation of the package runs on.

``mat_mul`` multiplies row-major matrices of exact entries, ``rank_int`` and
``rre_int`` eliminate integer rows.  Both run the one fraction-free forward
elimination ``_forward``; ``rre_int`` adds one upward sweep.  Entries are
exact Python objects (``int`` or ``fractions.Fraction``), never floats.
Callers look the kernels up on this module at call time (``_k.rre_int``),
so a test or a tracer replaces one for the whole package by setting it
here; ``rre_int`` calls ``_forward``, so replacing ``rank_int`` leaves it
as it is.
"""

from math import gcd


def mat_mul(a, m, n, b, p):
    """Row-major product of an m*n and an n*p matrix of exact entries.

    Zero entries are skipped, which matters for the strictly triangular
    matrices that dominate the null-cone workload.
    """
    out = [0] * (m * p)
    for i in range(m):
        ia = i * n
        io = i * p
        for t in range(n):
            x = a[ia + t]
            if x:
                tb = t * p
                for j in range(p):
                    y = b[tb + j]
                    if y:
                        out[io + j] += x * y
    return out


def _forward(rows, ncols):
    """Fraction-free forward elimination of integer rows: (rank, pivots, rows).

    Two-term cross multiplication clears each pivot column below its pivot;
    every updated row is divided by its content so entries stay near the
    size of the minors they represent.  The returned rows are fresh lists
    in echelon form (the pivot rows unnormalised, the rest zero), so input
    rows are not modified.
    """
    m = len(rows)
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = -1
        for i in range(rank, m):
            if rows[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != rank:
            rows[piv], rows[rank] = rows[rank], rows[piv]
        pr = rows[rank]
        pv = pr[c]
        for i in range(rank + 1, m):
            ri = rows[i]
            x = ri[c]
            if x:
                g = gcd(pv, x)
                f = pv // g
                s = x // g
                ri[c] = 0
                rg = 0
                for j in range(c + 1, ncols):
                    v = ri[j] * f - pr[j] * s
                    ri[j] = v
                    if rg != 1 and v:
                        rg = gcd(rg, v)
                if rg > 1:
                    for j in range(c + 1, ncols):
                        if ri[j]:
                            ri[j] //= rg
        pivots.append(c)
        rank += 1
        if rank == m:
            break
    return rank, pivots, rows


def rank_int(rows, ncols):
    """Rank of an integer matrix given as a list of integer row lists."""
    return _forward(rows, ncols)[0]


def rre_int(rows, ncols):
    """Reduced row echelon form of an integer matrix.

    Returns ``(rank, pivot_cols, rows)`` where the first ``rank`` output rows
    are primitive integer vectors with a positive pivot entry and zeros above
    and below every pivot; the remaining rows are zero.  Dividing each pivot
    row by its pivot therefore yields the unique rational RREF of the input.
    Input rows are not modified.

    ``_forward``, the pass ``rank_int`` runs, gives the echelon form; one
    upward sweep then makes each pivot row primitive with a positive pivot,
    bottom row first, and clears its pivot column from the rows above it.
    """
    rank, pivots, rows = _forward(rows, ncols)
    for r in range(rank - 1, -1, -1):
        pr = rows[r]
        c = pivots[r]
        g = 0
        for j in range(c, ncols):
            v = pr[j]
            if v:
                g = gcd(g, v)
                if g == 1:
                    break
        if pr[c] < 0:
            g = -g
        if g != 1:
            for j in range(c, ncols):
                if pr[j]:
                    pr[j] //= g
        pv = pr[c]
        for i in range(r):
            ri = rows[i]
            x = ri[c]
            if x:
                gg = gcd(pv, x)
                f = pv // gg
                s = x // gg
                rg = 0
                for j in range(pivots[i], ncols):
                    v = ri[j] * f - pr[j] * s
                    ri[j] = v
                    if rg != 1 and v:
                        rg = gcd(rg, v)
                if rg > 1:
                    for j in range(pivots[i], ncols):
                        if ri[j]:
                            ri[j] //= rg
    return rank, pivots, rows


def backend_name():
    """'pure': the kernels are the plain Python functions above."""
    return "pure"
