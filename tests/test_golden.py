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

from eadjoint.invariants import Point, group_action
from eadjoint.linalg import RationalMatrix
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
