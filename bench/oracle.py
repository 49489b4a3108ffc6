"""Independent exact arithmetic used to check the program's answers.

Nothing here imports ``eadjoint``: matrices are lists of rows of ``int`` or
``fractions.Fraction``, and every check recomputes its answer by plain
Gaussian elimination and matrix products, so a defect in the program's own
linear algebra cannot hide itself.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def parse_rational(s):
    """Parse the documented "num" / "num/den" format, lowest terms only."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError(f"not a canonical rational string: {s!r}")
    v = Fraction(s)
    if fmt(v) != s:
        raise ValueError(f"rational not in lowest terms: {s!r}")
    return v


def fmt(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_matrix(rows):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix must be a list of rows")
    return [[parse_rational(s) for s in r] for r in rows]


def fmt_matrix(m):
    return [[fmt(x) for x in row] for row in m]


def from_program(m):
    """Rows of a program matrix, read through its public row-major fields."""
    return [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for t in range(inner):
            x = row[t]
            if x:
                bt = b[t]
                for j in range(cols):
                    if bt[j]:
                        acc[j] += x * bt[j]
        out.append(acc)
    return out


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(m):
    return all(not x for row in m for x in row)


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


def _echelon(m):
    """Row echelon form over Q: (rank, reduced rows)."""
    rows = [[Fraction(x) for x in r] for r in m]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][c]
        rows[rank] = [x / p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, rows


def rank(m):
    if not m or not m[0]:
        return 0
    return _echelon(m)[0]


def inverse(m):
    n = len(m)
    aug = [list(r) + e for r, e in zip(m, identity(n))]
    r, rows = _echelon(aug)
    if r < n or any(not rows[i][i] for i in range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows[:n]]


def invariants(b, c, a):
    """(tau_1..tau_n, Gamma_0..Gamma_{n-1}) of the point (B, C, A)."""
    n = len(a)
    tau, gamma = [], []
    power = identity(n)
    for k in range(n):
        gamma.append(mul(c, mul(power, b)))
        power = mul(power, a)
        tau.append(trace(power))
    return tau, gamma


def fmt_invariants(tau, gamma):
    return {"tau": [fmt(t) for t in tau], "gamma": [fmt_matrix(g) for g in gamma]}


def word_invariants(b, c, a_list, max_len):
    """Trace words up to cyclic rotation and all moment words, as CLI JSON."""
    n = len(b)
    tau, gamma = {}, {"": fmt_matrix(mul(c, b))}
    frontier = {(): identity(n)}
    for _ in range(max_len):
        nxt = {}
        for word, prod in frontier.items():
            for letter in range(1, len(a_list) + 1):
                w = word + (letter,)
                p = mul(prod, a_list[letter - 1])
                nxt[w] = p
                key = ",".join(map(str, w))
                gamma[key] = fmt_matrix(mul(c, mul(p, b)))
                canon = min(w[i:] + w[:i] for i in range(len(w)))
                tau.setdefault(",".join(map(str, canon)), fmt(trace(p)))
        frontier = nxt
    return {"max_len": max_len, "tau": tau, "gamma": gamma}


def kalman_interval(b, c, a):
    """[dim S, dim K] for a null point, from two ranks.

    S, the A-span of im B, is the column space of [B, AB, ..., A^{n-1}B];
    K, the largest A-invariant subspace of ker C, is the kernel of
    [C; CA; ...; CA^{n-1}].
    """
    n = len(a)
    ctrl_cols, obs_rows = [], []
    pb, pc = b, c
    for _ in range(n):
        ctrl_cols.append(pb)
        obs_rows.extend(pc)
        pb, pc = mul(a, pb), mul(pc, a)
    ctrl = [sum((blk[i] for blk in ctrl_cols), []) for i in range(n)]
    return rank(ctrl), n - rank(obs_rows)


def certificate_problem(b, c, a, k, g, lam):
    """None when (k, g, lambda) destabilizes (B, C, A) into U_k, else why not.

    g.w = (gB, C g^-1, g A g^-1) must have B rows k.. zero, C columns ..k-1
    zero and A strictly upper triangular; lambda must pair strictly
    positively with every weight of U_k.
    """
    n = len(a)
    if len(g) != n or any(len(r) != n for r in g) or len(lam) != n:
        return "certificate has the wrong size"
    try:
        ginv = inverse(g)
    except ValueError:
        return "certificate matrix is singular"
    gb, cg, gag = mul(g, b), mul(c, ginv), mul(mul(g, a), ginv)
    if any(x for row in gb[k:] for x in row):
        return "g.B is not supported in the first k rows"
    if any(row[j] for row in cg for j in range(k)):
        return "C.g^-1 is not supported in the last n-k columns"
    if any(gag[i][j] for i in range(n) for j in range(i + 1)):
        return "g.A.g^-1 is not strictly upper triangular"
    if any(lam[i] <= lam[i + 1] for i in range(n - 1)):
        return "lambda does not decrease strictly"
    if any(lam[i] <= 0 for i in range(k)) or any(lam[j] >= 0 for j in range(k, n)):
        return "lambda has the wrong signs around k"
    return None

