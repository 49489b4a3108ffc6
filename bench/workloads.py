"""The four benchmark workloads: inputs, the measured op, and its checks.

Each workload builds all of its inputs in ``__init__`` (timed into setup),
then exposes:

- ``pool``: the distinct inputs; op i runs ``pool[i % len(pool)]``;
- ``op(inp)``: the measured call into the program, returning its raw result;
  documented errors the input is meant to provoke are caught and returned
  as ``("raised", ErrorName)``, anything else propagates and fails the op;
- ``check(inp, result)``: ``None`` when the result is right, else a reason,
  decided by recomputation in ``oracle`` rather than by trusting the program;
- ``canonical(result)``: a JSON-able form for the output digest and for the
  byte-identical comparison of repeated inputs.

The pool is made of rounds of a fixed shape schedule (``round_size`` inputs
each); the runner stops only at round boundaries, so every run measures the
same mix of shapes.  The digest covers one pass over the pool, and the
traced run measures exactly one pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import oracle


def _schedule(r, j, n):
    """(p, q, k) of entry j in round r.

    Shapes follow a fixed schedule that cycles through every p, q in 1..3
    and k in 0..n over the rounds, so seeds differ only in matrix entries
    and every run measures the same mix of shapes.
    """
    return 1 + (r + j) % 3, 1 + (r // 3 + j) % 3, (r + 2 * j) % (n + 1)


def _bca(w):
    """(B, C, A) of an r = 1 program point as oracle matrices."""
    return oracle.from_program(w.B), oracle.from_program(w.C), oracle.from_program(w.A)


def _nonnull(b, c, a):
    tau, gamma = oracle.invariants(b, c, a)
    return any(tau) or any(not oracle.is_zero(g) for g in gamma)


class Workload:
    round_size = 1

    def __init__(self, ea, seed):
        self.ea = ea
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pool = []

    def attempts(self, inp, result, problem):
        """(attempted, failed) for one op; most workloads count the op."""
        return 1, int(problem is not None)

    def trace_counts(self, result, counts):
        """Add workload-level counters of one result in the traced run."""


# ---------------------------------------------------------------------------


class NullconeCertify(Workload):
    name = "nullcone-certify"
    # n weighted toward 4 and 5; kinds 60% component / 25% moved / 15% generic
    ROUND_NS = (1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5)
    ROUND_KINDS = ("component",) * 12 + ("moved",) * 5 + ("generic",) * 3
    ROUNDS = 40

    def __init__(self, ea, seed):
        super().__init__(ea, seed)
        nc, sp, inv = ea.nullcone, ea.sampling, ea.invariants
        rng = self.rng
        size = len(self.ROUND_NS)
        for r in range(self.ROUNDS):
            for j, n in enumerate(self.ROUND_NS):
                kind = self.ROUND_KINDS[(7 * j) % size]
                p, q, k = _schedule(r, j, n)
                if kind == "generic":
                    while True:
                        w = sp.random_point(rng, n, p, q)
                        if _nonnull(*_bca(w)):
                            break
                    k = None
                else:
                    w = nc.sample_component(n, p, q, k, rng.randrange(2**32))
                    if kind == "moved":
                        w = inv.group_action(sp.random_invertible(rng, n), w)
                self.pool.append((kind, k, w))
        self.round_size = size
        self.params = {
            "points": len(self.pool), "round_n": list(self.ROUND_NS),
            "kinds": {"component": 12, "moved": 5, "generic": 3},
            "p_q_k": "cycled over rounds", "entries": "seeded"
        }

    def op(self, inp):
        nc = self.ea.nullcone
        _, _, w = inp
        interval = nc.component_interval(w)
        try:
            certs = nc.component_certificates(w)
        except self.ea.errors.NotInNullConeError:
            certs = ("raised", "NotInNullConeError")
        return interval, certs

    def canonical(self, result):
        interval, certs = result
        out = {"interval": [interval.in_null_cone, interval.d_min, interval.d_max]}
        if isinstance(certs, tuple) and certs[0] == "raised":
            out["certs"] = list(certs)
        else:
            iv, by_k = certs
            out["certs"] = [iv.d_min, iv.d_max, [
                [k, c.k, oracle.fmt_matrix(oracle.from_program(c.g)), list(c.lam.lam)]
                for k, c in sorted(by_k.items())
            ]]
        return out

    def check(self, inp, result):
        kind, k, w = inp
        interval, certs = result
        b, c, a = _bca(w)
        if kind == "generic":
            if interval.in_null_cone or interval.d_min is not None:
                return "generic point classified into the null cone"
            if certs != ("raised", "NotInNullConeError"):
                return "certificates produced for a point outside the null cone"
            return None
        if certs[0] == "raised":
            return "null point rejected as outside the null cone"
        iv, by_k = certs
        expected = oracle.kalman_interval(b, c, a)
        got = (interval.d_min, interval.d_max)
        if not interval.in_null_cone or got != expected:
            return f"interval {got}, expected {expected}"
        if (iv.d_min, iv.d_max) != expected:
            return "component_certificates disagrees with component_interval"
        if not expected[0] <= k <= expected[1]:
            return f"sampled component {k} outside the interval {expected}"
        if sorted(by_k) != list(range(expected[0], expected[1] + 1)):
            return "certificates do not cover exactly the interval"
        for kk, cert in by_k.items():
            if cert.k != kk:
                return f"certificate filed under {kk} claims k={cert.k}"
            why = oracle.certificate_problem(
                b, c, a, kk, oracle.from_program(cert.g), list(cert.lam.lam))
            if why:
                return f"certificate for k={kk}: {why}"
            if not self.ea.nullcone.check_certificate(w, cert):
                return f"check_certificate rejects the certificate for k={kk}"
        return None


# ---------------------------------------------------------------------------


class QuotientGeneric(Workload):
    name = "quotient-generic"
    # n = 4 twice, so the median input lies inside the n = 4 group rather than
    # on the cost gap between two sizes
    ROUND = tuple((n, p, q) for p in (1, 2, 3) for q in (1, 2, 3) for n in (3, 4, 4, 5, 6))
    ROUNDS = 3

    def __init__(self, ea, seed):
        super().__init__(ea, seed)
        sp, la = ea.sampling, ea.linalg
        rng = self.rng
        for _ in range(self.ROUNDS):
            for n, p, q in self.ROUND:
                w = sp.random_point(rng, n, p, q)
                g = sp.random_invertible(rng, n)
                t = sp.random_distinct_rationals(rng, n)
                summands = [
                    oracle.mul(oracle.from_program(sp.random_full_support_matrix(rng, q, 1)),
                               oracle.from_program(sp.random_full_support_matrix(rng, 1, p)))
                    for _ in range(n)
                ]
                gamma = [
                    [[sum(t[r] ** e * summands[r][i][j] for r in range(n)) for j in range(p)]
                     for i in range(q)]
                    for e in range(n)
                ]
                gamma_m = [la.RationalMatrix.from_rows(m) for m in gamma]
                self.pool.append((w, g, t, gamma_m, gamma))
        self.round_size = len(self.ROUND)
        self.params = {"points": len(self.pool), "n": [3, 4, 4, 5, 6], "p": [1, 2, 3],
                       "q": [1, 2, 3]}

    def op(self, inp):
        inv, ob = self.ea.invariants, self.ea.orbits
        w, g, t, gamma_m, _ = inp
        iv = inv.evaluate_invariants(w)
        iv_moved = inv.evaluate_invariants(inv.group_action(g, w))
        jrank = inv.jacobian_rank(w)
        stab = ob.stabilizer(w)
        w2 = ob.reconstruct_fiber_point(t, gamma_m, strict_rank1=True)
        return {
            "iv": iv, "iv_moved": iv_moved, "jrank": jrank, "stab": stab,
            "w2": w2, "iv2": inv.evaluate_invariants(w2),
            "stab2": ob.stabilizer(w2).stab_dim, "jrank2": inv.jacobian_rank(w2),
        }

    @staticmethod
    def _iv(iv):
        return oracle.fmt_invariants(iv.tau, [oracle.from_program(g) for g in iv.gamma])

    def canonical(self, r):
        b2, c2, a2 = _bca(r["w2"])
        return {
            "iv": self._iv(r["iv"]), "iv_moved": self._iv(r["iv_moved"]),
            "jrank": r["jrank"], "stab": [r["stab"].stab_dim, r["stab"].orbit_dim],
            "w2": [oracle.fmt_matrix(m) for m in (b2, c2, a2)],
            "iv2": self._iv(r["iv2"]), "stab2": r["stab2"], "jrank2": r["jrank2"],
        }

    def check(self, inp, r):
        w, _, t, _, gamma = inp
        n, p, q = w.n, w.p, w.q
        b, c, a = _bca(w)
        expected = oracle.fmt_invariants(*oracle.invariants(b, c, a))
        if self._iv(r["iv"]) != expected:
            return "invariants differ from the recomputed values"
        if self._iv(r["iv_moved"]) != expected:
            return "invariants changed under the group action"
        if not 0 <= r["jrank"] <= n * (p + q):
            return f"Jacobian rank {r['jrank']} exceeds n(p+q) = {n * (p + q)}"
        stab = r["stab"]
        if stab.stab_dim + stab.orbit_dim != n * n or stab.kernel_basis.dim != stab.stab_dim:
            return "stabilizer dimensions are inconsistent"
        basis = oracle.from_program(stab.kernel_basis.basis)
        for col in range(stab.stab_dim):
            x = [[basis[i * n + j][col] for j in range(n)] for i in range(n)]
            if not (oracle.is_zero(oracle.mul(x, b)) and oracle.is_zero(oracle.mul(c, x))
                    and oracle.is_zero(oracle.sub(oracle.mul(x, a), oracle.mul(a, x)))):
                return "stabilizer basis element fails X B = 0, C X = 0, [X, A] = 0"
        b2, c2, a2 = _bca(r["w2"])
        if (len(a2), len(b2[0]), len(c2)) != (n, p, q):
            return "reconstructed point has the wrong shape"
        fiber = oracle.fmt_invariants(
            [sum(Fraction(v) ** e for v in t) for e in range(1, n + 1)], gamma)
        if oracle.fmt_invariants(*oracle.invariants(b2, c2, a2)) != fiber:
            return "reconstructed point misses the requested fiber"
        if self._iv(r["iv2"]) != fiber:
            return "program invariants of the reconstructed point are wrong"
        if r["stab2"] != 0:
            return "reconstructed point has a positive-dimensional stabilizer"
        if n * n + n * p + n * q - r["jrank2"] != n * n:
            return "fiber dimension is not n^2 at the reconstructed point"
        return None


# ---------------------------------------------------------------------------


class CliRequests(Workload):
    name = "cli-requests"
    # (request kind, expected exit code); one round of twenty requests
    ROUND = (
        ("classify", 0), ("certify", 0), ("invariants", 0), ("words", 0),
        ("reconstruct", 0), ("sample", 0), ("classify", 0), ("certify", 0),
        ("bad-json", 2), ("invariants", 0), ("certify-nonmember", 1),
        ("reconstruct-strict", 0), ("dims", 0), ("classify", 0), ("words", 0),
        ("bad-shape", 2), ("certify", 0), ("sample", 0), ("degenerate", 1),
        ("invariants", 0),
    )
    ROUNDS = 25
    ERRORS = {"bad-json": "malformed_input", "bad-shape": "malformed_input",
              "certify-nonmember": "not_a_member", "degenerate": "degenerate_spectrum"}

    def __init__(self, ea, seed):
        super().__init__(ea, seed)
        for r in range(self.ROUNDS):
            for j, (kind, rc) in enumerate(self.ROUND):
                self.pool.append(self._request(kind, rc, r, j))
        self.round_size = len(self.ROUND)
        self.params = {"requests": len(self.pool), "n_max": 4,
                       "round": [k for k, _ in self.ROUND]}

    def _fiber(self, n, p, q, degenerate=False):
        rng, sp = self.rng, self.ea.sampling
        t = sp.random_distinct_rationals(rng, n)
        if degenerate:
            t[-1] = t[0]
        summands = []
        for _ in range(n):  # full-support rank-one summands c b
            c = [sp.random_nonzero_int(rng) for _ in range(q)]
            b = [sp.random_nonzero_int(rng) for _ in range(p)]
            summands.append([[ci * bj for bj in b] for ci in c])
        gamma = [
            oracle.fmt_matrix([[sum(t[r] ** e * summands[r][i][j] for r in range(n))
                                for j in range(p)] for i in range(q)])
            for e in range(n)
        ]
        return {"t": [oracle.fmt(v) for v in t], "gamma": gamma}

    def _request(self, kind, rc, r, j):
        rng, ea = self.rng, self.ea
        n = 2 + (r + j) % 3
        p, q, k = _schedule(r, j, n)
        moved = (r + j) % 2 == 0  # half of the points carry num/den entries
        req = {"kind": kind, "rc": rc, "stdin": "", "k": None}
        if kind in ("classify", "certify", "certify-nonmember", "bad-json"):
            while True:
                w = ea.nullcone.sample_component(n, p, q, k, rng.randrange(2**32))
                if moved:
                    w = ea.invariants.group_action(ea.sampling.random_invertible(rng, n), w)
                lo, hi = oracle.kalman_interval(*_bca(w))
                outside = [kk for kk in range(n + 1) if not lo <= kk <= hi]
                if kind != "certify-nonmember" or outside:
                    break
            text = json.dumps(w.to_json_obj())
            req["k"] = k
            if kind == "classify":
                req["argv"] = ["classify"]
            elif kind == "bad-json":
                req["argv"], text = ["classify"], text[:-1]
            else:
                if kind == "certify-nonmember":
                    k = outside[r % len(outside)]
                req["argv"], req["k"] = ["certify", "--k", str(k)], k
            req["stdin"] = text
        elif kind in ("invariants", "bad-shape"):
            w = ea.sampling.random_point(rng, n, p, q)
            if moved:
                w = ea.invariants.group_action(ea.sampling.random_invertible(rng, n), w)
            obj = w.to_json_obj()
            if kind == "bad-shape":
                obj["C"] = [row[:-1] for row in obj["C"]]
            req["argv"], req["stdin"] = ["invariants"], json.dumps(obj)
        elif kind == "words":
            w = ea.sampling.random_point(rng, 2 + (r + j) % 2, p, q, r=2)
            req["argv"], req["stdin"] = ["invariants"], json.dumps(w.to_json_obj())
        elif kind in ("reconstruct", "reconstruct-strict", "degenerate"):
            strict = ["--strict-rank1"] if kind == "reconstruct-strict" else []
            req["argv"] = ["reconstruct"] + strict
            req["stdin"] = json.dumps(self._fiber(n, p, q, degenerate=kind == "degenerate"))
        elif kind == "sample":
            req["k"] = k
            req["argv"] = ["sample", "--n", str(n), "--p", str(p), "--q", str(q),
                           "--k", str(k), "--seed", str(rng.randrange(2**32))]
        elif kind == "dims":
            req["argv"] = ["dims", "--n", str(n), "--p", str(p), "--q", str(q)]
        return req

    def op(self, req):
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(req["stdin"])
        try:
            with contextlib.redirect_stdout(out):
                rc = self.ea.cli.main(req["argv"])
        finally:
            sys.stdin = saved
        return rc, out.getvalue()

    def canonical(self, result):
        return list(result)

    def trace_counts(self, result, counts):
        counts[f"exit_code.{result[0]}"] += 1

    @staticmethod
    def _point(obj):
        return (oracle.parse_matrix(obj["B"]), oracle.parse_matrix(obj["C"]),
                [oracle.parse_matrix(a) for a in obj["A"]])

    def check(self, req, result):
        rc, text = result
        kind = req["kind"]
        if rc != req["rc"]:
            return f"{kind}: exit code {rc}, expected {req['rc']}"
        if not text.endswith("\n") or text.count("\n") != 1:
            return f"{kind}: output is not one JSON line"
        out = json.loads(text)
        if kind in self.ERRORS:
            return None if out.get("error") == self.ERRORS[kind] else (
                f"{kind}: error {out.get('error')!r}")
        if kind == "dims":
            n, p, q = (int(req["argv"][i]) for i in (2, 4, 6))
            dims = [n * n - n + p * k + q * (n - k) for k in range(n + 1)]
            want = {"component_dims": dims, "nullcone_dim": max(dims),
                    "equidimensional": p == q}
            return None if out == want else "dims: wrong dimension formulas"
        if kind in ("reconstruct", "reconstruct-strict"):
            fiber = json.loads(req["stdin"])
            t = [oracle.parse_rational(v) for v in fiber["t"]]
            b, c, (a,) = self._point(out)
            got = oracle.fmt_invariants(*oracle.invariants(b, c, a))
            want = {"tau": [oracle.fmt(sum(v ** e for v in t)) for e in range(1, len(t) + 1)],
                    "gamma": fiber["gamma"]}
            return None if got == want else "reconstruct: fiber invariants not reproduced"
        if kind == "sample":
            b, c, (a,) = self._point(out)
            n, p, q, k = (int(req["argv"][i]) for i in (2, 4, 6, 8))
            if (len(a), len(b[0]), len(c)) != (n, p, q):
                return "sample: wrong shape"
            if _nonnull(b, c, a):
                return "sample: point is outside the null cone"
            lo, hi = oracle.kalman_interval(b, c, a)
            return None if lo <= k <= hi else f"sample: not in component {k}"
        point = self._point(json.loads(req["stdin"]))
        b, c, a_list = point
        if kind == "invariants":
            want = oracle.fmt_invariants(*oracle.invariants(b, c, a_list[0]))
            return None if out == want else "invariants: wrong values"
        if kind == "words":
            want = oracle.word_invariants(b, c, a_list, 2 * len(b) - 1)
            return None if out == want else "words: wrong word invariants"
        lo, hi = oracle.kalman_interval(b, c, a_list[0])
        if kind == "classify":
            want = {"in_null_cone": True, "d_min": lo, "d_max": hi}
            if out != want:
                return f"classify: {out}, expected {want}"
            return None if lo <= req["k"] <= hi else "classify: sampled k outside"
        # certify
        k = req["k"]
        if out.get("k") != k or not isinstance(out.get("lambda"), list):
            return "certify: malformed certificate"
        why = oracle.certificate_problem(b, c, a_list[0], k, oracle.parse_matrix(out["g"]),
                                         out["lambda"])
        if why:
            return f"certify: {why}"
        nc, la = self.ea.nullcone, self.ea.linalg
        cert = nc.Certificate(k, la.RationalMatrix.from_lists(out["g"]),
                              nc.OnePSG(tuple(out["lambda"])))
        w = self.ea.invariants.Point.from_json_obj(json.loads(req["stdin"]))
        return None if nc.check_certificate(w, cert) else "certify: check_certificate rejects"


# ---------------------------------------------------------------------------


class VerifySuites(Workload):
    name = "verify-suites"
    SUITES = ("nullcone", "stabilizer", "invariance")
    TRIALS = 1

    def __init__(self, ea, seed):
        super().__init__(ea, seed)
        self.pool = [(name, seed) for name in self.SUITES]
        self.cells = {s: len(ea.verify.suite_cells(s, trials=self.TRIALS)) for s in self.SUITES}
        self.round_size = len(self.SUITES)
        self.params = {"suites": list(self.SUITES), "trials": self.TRIALS, "jobs": 1,
                       "cells": self.cells, "suite_seed": seed}

    def trace_counts(self, result, counts):
        counts["cells_run"] += result.cells_run
        counts["cells_failed"] += len(result.failures)

    def op(self, inp):
        name, seed = inp
        return self.ea.verify.run_suite(name, seed=seed, trials=self.TRIALS, jobs=1)

    def canonical(self, r):
        return [r.suite, r.cells_run, r.passes,
                [[f.label, f.seed, f.ok, f.detail] for f in r.failures]]

    def check(self, inp, r):
        name, _ = inp
        if r.suite != name or r.cells_run != self.cells[name] or r.cells_run < 1:
            return f"{name}: ran {r.cells_run} cells, expected {self.cells[name]}"
        if r.passes + len(r.failures) != r.cells_run or any(f.ok for f in r.failures):
            return f"{name}: pass and failure counts disagree"
        if r.failures:
            f = r.failures[0]
            return f"{name}: {len(r.failures)} failing cells, first {f.label}: {f.detail}"
        return None

    def attempts(self, inp, result, problem):
        cells = self.cells[inp[0]]
        if problem is None:
            return cells, 0
        failures = getattr(result, "failures", None)
        consistent = failures and getattr(result, "cells_run", None) == cells
        return cells, len(failures) if consistent else cells


WORKLOADS = {w.name: w for w in (NullconeCertify, QuotientGeneric, CliRequests, VerifySuites)}
