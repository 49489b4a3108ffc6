"""Randomized verification suites behind the ``verify`` CLI subcommand.

Every suite is a list of independent cells (one parameter combination each);
a cell derives its own seed from the base seed and its position, so runs are
deterministic per (suite, seed, trials) and cells can be distributed across
worker processes.  A cell names a check of one trial; ``_run_task`` alone
loops over the trials.  Genericity statements pass a cell when at least 95% of
its trials hit the generic value and no trial violates a hard bound;
everything else is exact and must hold on every trial.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .errors import NotAMemberError, OutOfRangeError
from .invariants import (
    Point,
    evaluate_invariants,
    jacobian_rank,
    limit_point_is_outside_family_image,
    nonclosed_image_demo,
    psi_map,
    sl_relation_check,
    word_invariants,
)
from .linalg import RationalMatrix, char_poly, elementary_from_power_sums
from .nullcone import (
    adapted_certificate,
    component_certificates,
    component_interval,
    component_tangent_dim,
    enumerate_maximal_unstable,
    in_null_cone,
    nullcone_summary,
    pinned_row_witness,
    regular_nilpotent,
    sample_component,
)
from .orbits import reconstruct_fiber_point, stabilizer
from .sampling import (
    as_rng,
    random_distinct_rationals,
    random_full_support_matrix,
    random_matrix,
    random_move,
    random_point,
    random_rank_one_factors,
    random_regular_semisimple,
)

from fractions import Fraction
from itertools import permutations

GENERIC_NUM, GENERIC_DEN = 19, 20  # at least 95% of trials
MAX_TRIALS = 100_000  # per-cell trial override; bounds the work of one request


@dataclass(frozen=True)
class CellOutcome:
    label: str
    seed: int
    ok: bool
    detail: str = ""

    def to_json_obj(self):
        return {
            "cell": self.label,
            "seed": self.seed,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    cells_run: int
    passes: int
    failures: tuple
    wall_time_s: float

    def ok(self):
        return not self.failures

    def to_json_obj(self):
        # wall_time_s stays out so the output is byte-stable per request
        return {
            "suite": self.suite,
            "cells_run": self.cells_run,
            "passes": self.passes,
            "failures": [f.to_json_obj() for f in self.failures],
        }


def _generic_ok(hits, trials):
    return hits * GENERIC_DEN >= GENERIC_NUM * trials


# ---------------------------------------------------------------------------
# cell checks (module level so worker processes can import them); each one
# checks one trial, see ``_run_task``


def _generic_point(rng, n, p, q):
    """Squarefree characteristic polynomial, no zero entry in B or C."""
    return Point(
        random_full_support_matrix(rng, n, p),
        random_full_support_matrix(rng, q, n),
        (random_regular_semisimple(rng, n),),
    )


def _fiber_data(rng, n, p, q):
    """n distinct rationals t and n q x p summands of rank at most one."""
    t = random_distinct_rationals(rng, n)
    return t, [c @ b for c, b in (random_rank_one_factors(rng, q, p) for _ in range(n))]


def _cell_invariance(rng, trial, n, p, q, r):
    w = random_point(rng, n, p, q, r)
    moved = random_move(rng, w)
    a = word_invariants(w, n)
    if r == 1:
        # a wrong word formula can still be invariant; at r = 1 the words
        # must also specialise to tau_k = tr A^k and Gamma_k = C A^k B, and
        # the top word to C A^n B = sum_i (-1)^(i+1) e_i Gamma_(n-i)
        # (Cayley-Hamilton), e the elementary symmetric values of the tau
        iv = evaluate_invariants(w)
        if evaluate_invariants(moved) != iv:
            return "plain invariants changed under the action"
        e = elementary_from_power_sums(iv.tau)
        top = sum((gk.scale(-x if i % 2 else x) for i, (x, gk) in
                   enumerate(zip(e, reversed(iv.gamma)))), RationalMatrix.zeros(q, p))
        if (tuple(a.tau[(1,) * k] for k in range(1, n + 1)) != iv.tau
                or tuple(a.gamma[(1,) * k] for k in range(n)) != iv.gamma
                or a.gamma[(1,) * n] != top):
            return "word invariants differ from the plain invariants at r = 1"
    b = word_invariants(moved, n)
    if a.tau != b.tau or a.gamma != b.gamma:
        return "word invariants changed under the action"
    return None


def _cell_jacobian(rng, trial, n, p, q):
    # a generic sample can still drop rank, hence a genericity statement.
    # The hard bound is the quotient dimension n(p + q): the rank is lower
    # semicontinuous, so no point exceeds its generic value.
    generic = n * (p + q)
    r = jacobian_rank(_generic_point(rng, n, p, q))
    if r > generic:
        return f"rank {r} exceeds the quotient dimension {generic}"
    return r == generic


def _cell_stabilizer_witness(rng, trial, n, p, q, k):
    # the pinned family's centralizer Hom(Q[t]/t^(n-k), Q[t]/t^k) has
    # dimension min(k, n - k), so its orbit is the largest one in C_k
    expected = n * n - min(k, n - k)
    dim = stabilizer(pinned_row_witness(n, p, q, k, seed=rng.randrange(2**32))).orbit_dim
    if dim != expected:
        return f"orbit dimension {dim}, expected {expected}"
    return None


def _cell_nullcone_classes(rng, trial, n):
    classes = enumerate_maximal_unstable(n, 2, 2)
    if [c.k for c in classes] != list(range(n + 1)):
        return f"expected the ladder 0..{n}, got {[c.k for c in classes]}"
    return None


def _cell_nullcone_equivalence(rng, trial, n):
    p, q = rng.randint(1, 3), rng.randint(1, 3)
    kind = trial % 4
    if kind == 0:
        w = random_point(rng, n, p, q)
    elif kind == 1:
        w = sample_component(n, p, q, rng.randint(0, n), rng.randrange(2**32))
    elif kind == 2:
        w = Point(random_matrix(rng, n, p), random_matrix(rng, q, n), (regular_nilpotent(n),))
    else:
        w = Point(
            RationalMatrix.zeros(n, p),
            RationalMatrix.zeros(q, n),
            (random_matrix(rng, n, n),),
        )
    null = in_null_cone(w)
    iv = evaluate_invariants(w)
    alt = char_poly(w.A).is_power_of_x() and all(g.is_zero() for g in iv.gamma)
    if null != alt or null != iv.is_zero():
        return "membership tests disagree"
    return None


def _cell_nullcone_tangent(rng, trial, n, p, q, k):
    formula = (n * n - n) + p * k + q * (n - k)
    d = component_tangent_dim(n, p, q, k, seed=rng.randrange(2**32))
    if d > formula:
        return f"tangent dimension {d} exceeds the formula {formula}"
    return d == formula


def _cell_nullcone_summary(rng, trial, n, p, q):
    s = nullcone_summary(n, p, q)
    if s.component_dims != tuple(
        (n * n - n) + p * k + q * (n - k) for k in range(n + 1)
    ):
        return "component dimension formula mismatch"
    if s.nullcone_dim != n * n - n + n * max(p, q):
        return "null-cone dimension formula mismatch"
    if s.equidimensional != (p == q):
        return "equidimensionality flag mismatch"
    if (s.nullcone_dim == n * n) != (p == q == 1):
        return "dimension n^2 characterization mismatch"
    return None


def _cell_classifier(rng, trial, n, p, q, k):
    iv = component_interval(sample_component(n, p, q, k, rng.randrange(2**32)))
    if not iv.in_null_cone:
        return "component sample escaped the null cone"
    if k not in iv:
        return f"sampled point of C_{k} not classified into C_{k}"
    return None


def _cell_certificates(rng, trial, n, p, q, k):
    w = sample_component(n, p, q, k, rng.randrange(2**32))
    iv, certs = component_certificates(w)  # each one checked bit-exactly inside
    if k not in iv:
        return f"sampled point of C_{k} not classified into C_{k}"
    if sorted(certs) != list(iv.members()):
        return "certificate set does not cover the interval"
    if trial % 20 == 0:
        for kk in (iv.d_min - 1, iv.d_max + 1):
            if 0 <= kk <= n:
                try:
                    adapted_certificate(w, kk)
                    return f"certificate for non-member k={kk} was produced"
                except NotAMemberError:
                    pass
    return None


def _cell_reconstruction_roundtrip(rng, trial, n, p, q):
    t, xs = _fiber_data(rng, n, p, q)
    image = psi_map(t, xs)
    iv = evaluate_invariants(reconstruct_fiber_point(t, image.gamma))
    if iv.gamma != image.gamma:
        return "moment matrices were not reproduced"
    if iv.tau != image.tau:
        return "power sums were not reproduced"
    return None


def _cell_reconstruction_regular(rng, trial, n, p, q):
    t = random_distinct_rationals(rng, n)
    xs = [
        random_full_support_matrix(rng, q, 1) @ random_full_support_matrix(rng, 1, p)
        for _ in range(n)
    ]
    w = reconstruct_fiber_point(t, psi_map(t, xs).gamma, strict_rank1=True)
    if stabilizer(w).stab_dim != 0:
        return "reconstructed point has a positive-dimensional stabilizer"
    if n * (n + p + q) - jacobian_rank(w) != n * n:
        return "fiber dimension count failed"
    return None


def _cell_reconstruction_coregular(rng, trial, n, p, q):
    # the n + npq generators are algebraically independent exactly when
    # p = 1 or q = 1; otherwise they outnumber the quotient dimension
    # n(p + q), so their differentials are dependent at every point
    generators = n + n * p * q
    r = jacobian_rank(_generic_point(rng, n, p, q))
    if p == 1 or q == 1:
        return r == generators
    if r >= generators:
        return f"rank {r} reaches the generator count {generators}"
    return None


def _cell_sl_relation(rng, trial, n):
    res = sl_relation_check(
        random_matrix(rng, n, 1),
        random_matrix(rng, 1, n),
        random_matrix(rng, n, n),
    )
    if not res.holds:
        return "determinant relation failed"
    return None


def _cell_psi_symmetry(rng, trial, n, p, q):
    t, xs = _fiber_data(rng, n, p, q)
    base = psi_map(t, xs)
    for perm in permutations(range(n)):
        if psi_map([t[i] for i in perm], [xs[i] for i in perm]) != base:
            return f"symmetry broken by permutation {perm}"
    return None


def _cell_psi_demo(rng, trial, n, p, q):
    u = random_full_support_matrix(rng, q, 1) @ random_full_support_matrix(rng, 1, p)
    demos = [
        nonclosed_image_demo(n, u, eps)
        for eps in (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40))
    ]
    gaps = [demo.gap for demo in demos]
    if not (gaps[0] > gaps[1] > gaps[2] > 0):
        return f"gap sequence {gaps} is not strictly decreasing"
    if not all(map(limit_point_is_outside_family_image, demos)):
        return "limit-point exclusion certificate failed"
    for demo in demos:
        if not any(x != 0 for x in demo.image_tau):
            return "image point collided with the limit in the tau part"
    return None


# ---------------------------------------------------------------------------
# the suites: rows of (check, label format, parameter grid, default
# trials), one cell per grid entry.  A check ``_cell_psi_demo`` runs under
# the runner name ``psi-demo``.  A grid is a function yielding the cells'
# parameters, so that no cell is built before a suite is asked for.  A
# default of None marks a one-shot cell, which runs once whatever
# ``trials`` says.

_PQ = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]


def _npq(ns=range(1, 5)):
    return ({"n": n, "p": p, "q": q} for n in ns for p, q in _PQ)


def _npqk(ns=range(1, 5)):
    """One cell per component C_k."""
    return ({"n": n, "p": p, "q": q, "k": k}
            for n in ns for p, q in _PQ for k in range(n + 1))


def _ns(ns):
    return lambda: ({"n": n} for n in ns)


_SUITES = {
    "invariance": [
        (_cell_invariance, "n={n} p={p} q={q} r={r}",
         lambda: ({"n": n, "p": p, "q": q, "r": r}
                  for n in range(1, 5) for p, q in _PQ for r in (1, 2)), 200),
    ],
    "jacobian": [(_cell_jacobian, "n={n} p={p} q={q}", _npq, 200)],
    "stabilizer": [
        (_cell_stabilizer_witness, "witness n={n} p={p} q={q} k={k}",
         lambda: _npqk(range(1, 7)), 3),
    ],
    "nullcone": [
        (_cell_nullcone_classes, "classes n={n}", _ns(range(1, 6)), None),
        (_cell_nullcone_equivalence, "equivalence n={n}", _ns(range(1, 5)), 125),
        (_cell_nullcone_tangent, "tangent n={n} p={p} q={q} k={k}",
         lambda: _npqk((2, 3, 4)), 20),
        (_cell_nullcone_summary, "summary n={n} p={p} q={q}",
         lambda: _npq(range(1, 7)), None),
    ],
    "classifier": [(_cell_classifier, "n={n} p={p} q={q} k={k}", _npqk, 1000)],
    "certificates": [(_cell_certificates, "n={n} p={p} q={q} k={k}", _npqk, 1000)],
    "reconstruction": [
        (_cell_reconstruction_roundtrip, "roundtrip n={n} p={p} q={q}",
         lambda: _npq(range(1, 6)), 200),
        (_cell_reconstruction_regular, "regular n={n} p={p} q={q}", _npq, 20),
        (_cell_reconstruction_coregular, "coregular n={n} p={p} q={q}", _npq, 20),
    ],
    "sl-relation": [(_cell_sl_relation, "n={n}", _ns(range(1, 5)), 100)],
    "psi": [
        (_cell_psi_symmetry, "symmetry n={n} p={p} q={q}",
         lambda: ({"n": n, "p": p, "q": q}
                  for n in (2, 3, 4) for p, q in ((1, 1), (2, 3), (3, 2))), 25),
        (_cell_psi_demo, "demo n={n}",
         lambda: ({"n": 2, "p": 1, "q": 1}, {"n": 3, "p": 2, "q": 2}), None),
    ],
}
SUITE_NAMES = tuple(_SUITES)


def _runner(check):
    return check.__name__.removeprefix("_cell_").replace("_", "-")


_RUNNERS = {_runner(row[0]): row[0] for rows in _SUITES.values() for row in rows}


# ---------------------------------------------------------------------------
# driver


def _cell_seed(base_seed, index):
    return (base_seed * 1000003 + index * 7919 + 1) % (2**62)


def _run_task(task):
    """Run one cell: its check once per trial, or once when the cell has no
    trial count, all trials drawing from one rng seeded with the cell seed.

    A check returns a failure message, which ends the cell; ``None`` when
    an exact statement held; or ``True``/``False`` for a hit or miss of a
    genericity statement, which passes on at least 95% hits of all trials.
    """
    runner_name, label, seed, params = task
    cell = dict(params)
    trials = cell.pop("trials", 1)
    if trials < 1:
        # a cell that checks nothing must not count as a pass
        return CellOutcome(label, seed, False, "cell ran zero trials")
    check = _RUNNERS[runner_name]
    rng = as_rng(seed)
    hits, generic = 0, False
    try:
        for trial in range(trials):
            result = check(rng, trial, **cell)
            if isinstance(result, bool):
                generic = True
                hits += result
            elif result is not None:
                return CellOutcome(label, seed, False, result)
    except Exception as exc:  # a raising cell is a failing cell
        return CellOutcome(label, seed, False, f"{type(exc).__name__}: {exc}")
    if generic and not _generic_ok(hits, trials):
        return CellOutcome(label, seed, False, f"generic value hit only {hits}/{trials}")
    return CellOutcome(label, seed, True)


def suite_cells(name, trials=None):
    """The (runner, label, params) cells of a suite, read off ``_SUITES``;
    ``trials`` overrides the default trial count of every cell but the
    one-shot ones and must lie in 1..``MAX_TRIALS``."""
    if trials is not None and not 1 <= trials <= MAX_TRIALS:
        raise OutOfRangeError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    cells = []
    for check, label, grid, default in _SUITES[name]:
        runner = _runner(check)
        for cell in grid():
            text = label.format_map(cell)
            if default is not None:
                cell["trials"] = default if trials is None else trials
            cells.append((runner, text, cell))
    return cells


def run_suite(name, seed=0, trials=None, jobs=1) -> VerifyReport:
    """Run one named suite; deterministic for fixed (name, seed, trials).

    ``jobs`` must be at least 1; more worker processes than cells or CPUs
    are never started.
    """
    if jobs < 1:
        raise OutOfRangeError(f"jobs must be at least 1, got {jobs}")
    cells = suite_cells(name, trials=trials)
    tasks = [
        (runner, label, _cell_seed(seed, i), params)
        for i, (runner, label, params) in enumerate(cells)
    ]
    start = time.perf_counter()
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_task, tasks, chunksize=4))
    else:
        outcomes = [_run_task(t) for t in tasks]
    wall = time.perf_counter() - start
    failures = tuple(o for o in outcomes if not o.ok)
    return VerifyReport(name, len(outcomes), len(outcomes) - len(failures), failures, wall)
