"""Golden digests of whole output families.

Each test hashes one family of outputs with sha256 and compares it with a
digest recorded before the code under it was last changed, so a refactor
that claims byte-identical outputs is checked by the suite itself.  The
inputs are drawn with ``random.Random`` directly, never through the
samplers being pinned.  A change that alters one of these outputs on
purpose updates its digest in the same commit and says so.
"""

import hashlib
import json
import random
from fractions import Fraction

from eadjoint.errors import NotInNullConeError
from eadjoint.invariants import Point, group_action
from eadjoint.linalg import RationalMatrix
from eadjoint.nullcone import (
    component_certificates,
    component_interval,
    in_null_cone,
    pinned_row_witness,
    sample_component,
)
from eadjoint.orbits import stabilizer
from eadjoint.verify import MAX_TRIALS, SUITE_NAMES, suite_cells


def digest(obj, **kwargs):
    return hashlib.sha256(json.dumps(obj, **kwargs).encode()).hexdigest()


def test_suite_cells_are_pinned():
    cells = [[s, t, suite_cells(s, t)] for s in SUITE_NAMES for t in (None, 1, 7, MAX_TRIALS)]
    assert digest(cells) == (
        "10ffc406bc2ecc40f7e5f1afdb40a14f504f372a7b27276d453e3200298c4f12")


def ints(rng, count, bound=3):
    return [rng.randint(-bound, bound) for _ in range(count)]


def unimodular(rng, n):
    """L U with L unit lower and U unit upper triangular: det 1."""
    low = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
          for i in range(n)]
    return [[sum(low[i][t] * up[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def stabilizer_points(rng, per_family=50):
    """Points where b_0, the first column of B, is cyclic only at n = 1,
    each also moved by a scaled unimodular g: b_0 = 0; b_0 an eigenvector
    of A (A e_0 = lambda e_0, b_0 a multiple of e_0); A scalar with p >= n.
    Two of every three also carry a hidden block: k more coordinates that
    A keeps (block diagonal), B never reaches (zero rows) and C never sees
    (zero columns), so their stabilizer contains 0 + I_k and has positive
    dimension.  B's entries lie in {-1, 0, 1}, so some of the other points
    have a nonzero stabilizer too."""
    for t in range(3 * per_family):
        family, k = t % 3, (t // 3) % 3
        m, q = rng.randint(1, 4), rng.randint(1, 3)
        n = m + k
        p = rng.randint(n, n + 1) if family == 2 else rng.randint(1, 3)
        b = [ints(rng, p, 1) if i < m else [0] * p for i in range(n)]
        c = [ints(rng, m) + [0] * k for _ in range(q)]
        a = [ints(rng, m) + [0] * k for _ in range(m)]
        a += [[0] * m + ints(rng, k) for _ in range(k)]
        if family == 0:
            for row in b:
                row[0] = 0
        elif family == 1:
            for i in range(n):
                b[i][0] = rng.choice((-2, -1, 1, 2)) if i == 0 else 0
                a[i][0] = rng.randint(-3, 3) if i == 0 else 0
        else:
            lam = rng.randint(-3, 3)
            a = [[lam if i == j else 0 for j in range(n)] for i in range(n)]
        w = Point(RationalMatrix.from_rows(b), RationalMatrix.from_rows(c),
                  (RationalMatrix.from_rows(a),))
        g = RationalMatrix.from_rows(unimodular(rng, n)).scale(Fraction(1, rng.randint(2, 9)))
        yield w
        yield group_action(g, w)


def test_stabilizer_reports_are_pinned():
    reports = [stabilizer(w).to_json_obj() for w in stabilizer_points(random.Random(31))]
    assert len(reports) == 300
    assert sum(rep["stab_dim"] > 0 for rep in reports) == 202
    assert digest(reports, sort_keys=True) == (
        "52fc99aedf3b00449f53dc8a93506a108c5348881d35eda9543bc9b2f89cadeb")


def moved(rng, w):
    """w moved by a unimodular g scaled by 1/m, so entries turn rational."""
    g = RationalMatrix.from_rows(unimodular(rng, w.n)).scale(Fraction(1, rng.randint(2, 9)))
    return group_action(g, w)


def nullcone_points(rng, per_family=40):
    """For every n <= 8, twice with p and q drawn in 1..4:
    ``sample_component`` and a moved ``pinned_row_witness`` at every k.
    Then per_family moved points of each of five more families, n <= 8:
    a U_k point (B in the first k rows, C in the last n - k columns, A
    strictly upper triangular) with B = 0, with C = 0, with b_0 = 0 or
    with A = 0, all null; and a point with random entries, not null."""
    for n in [m for m in range(1, 9) for _ in range(2)]:
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        for k in range(n + 1):
            yield sample_component(n, p, q, k, rng.randrange(2**32))
            yield moved(rng, pinned_row_witness(n, p, q, k, seed=rng.randrange(2**32)))
    for t in range(5 * per_family):
        family = t % 5
        n, p, q = rng.randint(1, 8), rng.randint(1, 4), rng.randint(1, 4)
        k = rng.randint(0, n)
        b = [ints(rng, p) if i < k else [0] * p for i in range(n)]
        c = [[rng.randint(-3, 3) if j >= k else 0 for j in range(n)] for _ in range(q)]
        a = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
        if family == 0:
            b = [[0] * p for _ in range(n)]
        elif family == 1:
            c = [[0] * n for _ in range(q)]
        elif family == 2:
            for row in b:
                row[0] = 0
        elif family == 3:
            a = [[0] * n for _ in range(n)]
        else:
            b, c, a = ([ints(rng, cols) for _ in range(rows)]
                       for rows, cols in ((n, p), (q, n), (n, n)))
        w = Point(RationalMatrix.from_rows(b), RationalMatrix.from_rows(c),
                  (RationalMatrix.from_rows(a),))
        yield moved(rng, w)


def nullcone_answer(w):
    try:
        interval, certs = component_certificates(w)
        certs = [interval.to_json_obj(), [c.to_json_obj() for _, c in sorted(certs.items())]]
    except NotInNullConeError:
        certs = "NotInNullConeError"
    return [in_null_cone(w), component_interval(w).to_json_obj(), certs]


def test_nullcone_answers_are_pinned():
    answers = [nullcone_answer(w) for w in nullcone_points(random.Random(32))]
    assert len(answers) == 376
    assert sum(not a[0] for a in answers) == 40
    assert digest(answers) == (
        "4da32fccb72ef79b3fc1abb0a3f4cb9b0dd5916d82e0a9fb0840c8822fe63947")
