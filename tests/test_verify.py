import dataclasses

import pytest

from eadjoint import verify
from eadjoint.errors import OutOfRangeError
from eadjoint.linalg import RationalMatrix
from eadjoint.verify import MAX_TRIALS, SUITE_NAMES, run_suite, suite_cells


class TestSuiteRegistry:
    def test_all_names_present(self):
        assert SUITE_NAMES == (
            "invariance",
            "jacobian",
            "stabilizer",
            "nullcone",
            "classifier",
            "certificates",
            "reconstruction",
            "sl-relation",
            "psi",
        )

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suite_cells("bogus")

    def test_default_cell_counts(self):
        assert len(suite_cells("invariance")) == 72
        assert len(suite_cells("jacobian")) == 36
        assert len(suite_cells("classifier")) == 126
        assert len(suite_cells("certificates")) == 126
        assert len(suite_cells("sl-relation")) == 4
        assert len(suite_cells("reconstruction")) == 117
        assert len(suite_cells("stabilizer")) == 243
        assert len(suite_cells("nullcone")) == 171
        assert len(suite_cells("psi")) == 11


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_suite("psi", seed=5, trials=3)
        b = run_suite("psi", seed=5, trials=3)
        assert a.to_json_obj() == b.to_json_obj()

    def test_jobs_do_not_change_results(self):
        a = run_suite("sl-relation", seed=9, trials=20, jobs=1)
        b = run_suite("sl-relation", seed=9, trials=20, jobs=2)
        assert a.to_json_obj() == b.to_json_obj()

    def test_report_shape(self):
        rep = run_suite("nullcone", seed=1, trials=2)
        assert rep.passes + len(rep.failures) == rep.cells_run
        assert set(rep.to_json_obj()) == {"suite", "cells_run", "passes", "failures"}


class TestFailureReporting:
    def test_raising_cell_becomes_failure(self, monkeypatch):
        from eadjoint import verify

        def boom(rng, trial, n):
            raise RuntimeError("exploded")

        monkeypatch.setitem(verify._RUNNERS, "sl-relation", boom)
        rep = run_suite("sl-relation", seed=0, trials=1)
        assert rep.passes == 0
        assert len(rep.failures) == 4
        assert "exploded" in rep.failures[0].detail
        assert rep.failures[0].seed is not None


class TestCellContract:
    """_run_task calls a one-trial check and owns the trial loop."""

    def install(self, monkeypatch, results=lambda trial: None):
        calls = []

        def check(rng, trial, **cell):
            calls.append((trial, cell))
            return results(trial)

        monkeypatch.setitem(verify._RUNNERS, "sl-relation", check)
        monkeypatch.setitem(verify._RUNNERS, "nullcone-classes", check)
        return calls

    def test_called_once_per_trial(self, monkeypatch):
        calls = self.install(monkeypatch)
        out = verify._run_task(("sl-relation", "n=2", 0, {"n": 2, "trials": 7}))
        assert out.ok
        assert [trial for trial, _ in calls] == list(range(7))

    def test_keywords_are_the_cell_params_without_trials(self, monkeypatch):
        calls = self.install(monkeypatch)
        rep = run_suite("sl-relation", seed=1, trials=2)
        assert rep.passes == 4
        assert [cell for _, cell in calls] == [{"n": n} for n in range(1, 5) for _ in range(2)]

    def test_first_message_ends_the_cell(self, monkeypatch):
        calls = self.install(
            monkeypatch, lambda trial: f"failed at {trial}" if trial >= 3 else None
        )
        out = verify._run_task(("sl-relation", "n=1", 0, {"n": 1, "trials": 10}))
        assert (out.ok, out.detail) == (False, "failed at 3")
        assert len(calls) == 4

    def test_generic_rule(self, monkeypatch):
        for misses, ok in ((1, True), (2, False)):
            self.install(monkeypatch, lambda trial, misses=misses: trial >= misses)
            out = verify._run_task(("sl-relation", "n=1", 0, {"n": 1, "trials": 20}))
            assert out.ok == ok
        assert out.detail == "generic value hit only 18/20"

    def test_cell_without_trials_runs_once(self, monkeypatch):
        calls = self.install(monkeypatch)
        assert verify._run_task(("nullcone-classes", "classes n=3", 0, {"n": 3})).ok
        assert calls == [(0, {"n": 3})]


class TestCoregularCells:
    def run_coregular(self):
        """Labels of the coregular cells that fail at 2 trials."""
        cells = [c for c in suite_cells("reconstruction", trials=2)
                 if c[0] == "reconstruction-coregular"]
        assert len(cells) == 36  # n <= 4, p, q <= 3
        return {
            label
            for i, (runner, label, params) in enumerate(cells)
            if not verify._run_task((runner, label, i, params)).ok
        }

    def test_every_cell_passes(self):
        assert self.run_coregular() == set()

    def test_rank_short_of_the_generator_count_fails_coregular_cells(self, monkeypatch):
        monkeypatch.setattr(verify, "jacobian_rank", lambda w: w.n)
        assert self.run_coregular() == {
            f"coregular n={n} p={p} q={q}"
            for n in range(1, 5) for p in (1, 2, 3) for q in (1, 2, 3)
            if p == 1 or q == 1
        }

    def test_full_rank_fails_the_other_cells(self, monkeypatch):
        monkeypatch.setattr(verify, "jacobian_rank", lambda w: w.n + w.n * w.p * w.q)
        assert self.run_coregular() == {
            f"coregular n={n} p={p} q={q}"
            for n in range(1, 5) for p in (2, 3) for q in (2, 3)
        }


class TestJacobianCells:
    def failing(self):
        """label -> failure detail of the jacobian cells at 2 trials."""
        cells = suite_cells("jacobian", trials=2)
        assert len(cells) == 36
        outcomes = (
            verify._run_task((runner, label, i, params))
            for i, (runner, label, params) in enumerate(cells)
        )
        return {o.label: o.detail for o in outcomes if not o.ok}

    def test_every_cell_passes(self):
        assert self.failing() == {}

    def test_rank_above_the_quotient_dimension_fails_every_cell(self, monkeypatch):
        # the hard bound, not the generic rate, rejects the first trial;
        # n(p+q) + 1 is below n + npq when p, q >= 2
        monkeypatch.setattr(verify, "jacobian_rank", lambda w: w.n * (w.p + w.q) + 1)
        failing = self.failing()
        assert set(failing) == {
            f"n={n} p={p} q={q}"
            for n in range(1, 5) for p in (1, 2, 3) for q in (1, 2, 3)
        }
        for label, detail in failing.items():
            n, p, q = (int(part[2:]) for part in label.split())
            assert detail == (
                f"rank {n * (p + q) + 1} exceeds the quotient dimension {n * (p + q)}"
            )


def failing_invariance_cells(monkeypatch, words):
    """label -> failure detail of the invariance suite at 2 trials, with
    ``words`` in place of ``word_invariants``."""
    monkeypatch.setattr(verify, "word_invariants", words)
    cells = suite_cells("invariance", trials=2)
    assert len(cells) == 72
    outcomes = (
        verify._run_task((runner, label, i, params))
        for i, (runner, label, params) in enumerate(cells)
    )
    return {o.label: o.detail for o in outcomes if not o.ok}


R1_WORDS_DIFFER = {
    f"n={n} p={p} q={q} r=1": "word invariants differ from the plain invariants at r = 1"
    for n in range(1, 5) for p in (1, 2, 3) for q in (1, 2, 3)
}


class TestInvarianceCells:
    def test_invariant_but_wrong_words_fail_the_r1_cells(self, monkeypatch):
        # C A^(2 ceil(L/2)) B for Gamma_(1^L), the right half taken with the
        # left half's length, is still invariant; only the specialisation to
        # the plain invariants sees it, and at n = 1 only through the top
        # word Gamma_(1), checked by Cayley-Hamilton
        real = verify.word_invariants

        def doubled(w, max_len):
            words = real(w, max_len)
            gamma = dict(words.gamma)
            for length in range(1, max_len + 1):
                power = RationalMatrix.identity(w.n)
                for _ in range(2 * ((length + 1) // 2)):
                    power = power @ w.A_list[0]
                gamma[(1,) * length] = w.C @ power @ w.B
            return dataclasses.replace(words, gamma=gamma)

        assert failing_invariance_cells(monkeypatch, doubled) == R1_WORDS_DIFFER

    def test_a_wrong_top_word_fails_every_r1_cell(self, monkeypatch):
        # 2 Gamma_(1^max_len) is invariant, and no Gamma_k of the plain
        # invariants is that word: only Cayley-Hamilton sees it
        real = verify.word_invariants

        def doubled_top(w, max_len):
            words = real(w, max_len)
            gamma = dict(words.gamma)
            gamma[(1,) * max_len] = gamma[(1,) * max_len].scale(2)
            return dataclasses.replace(words, gamma=gamma)

        assert failing_invariance_cells(monkeypatch, doubled_top) == R1_WORDS_DIFFER


class TestStabilizerCells:
    def test_one_more_centralizer_dimension_fails_every_cell(self, monkeypatch):
        # each cell checks orbit_dim = n^2 - min(k, n - k); for k >= n - k
        # that is the centralizer dimension n - k
        real = verify.stabilizer

        def inflated(w):
            rep = real(w)
            return dataclasses.replace(
                rep, stab_dim=rep.stab_dim + 1, orbit_dim=rep.orbit_dim - 1
            )

        monkeypatch.setattr(verify, "stabilizer", inflated)
        for i, (runner, label, params) in enumerate(suite_cells("stabilizer", trials=1)):
            assert runner == "stabilizer-witness"
            outcome = verify._run_task((runner, label, i, params))
            n, k = params["n"], params["k"]
            expected = n * n - min(k, n - k)
            assert not outcome.ok
            assert outcome.detail == f"orbit dimension {expected - 1}, expected {expected}"


class TestPsiDemoCells:
    def failing(self):
        """label -> failure detail of the psi suite at 1 trial."""
        rep = run_suite("psi", seed=3, trials=1)
        return {f.label: f.detail for f in rep.failures}

    def test_every_cell_passes(self):
        assert self.failing() == {}

    def test_limit_moved_onto_the_image_fails_the_demo_cells(self, monkeypatch):
        # a limit point carrying the image's power sums is no limit point:
        # the exclusion certificate must read the demo and reject it
        real = verify.nonclosed_image_demo

        def moved(n, u, eps):
            demo = real(n, u, eps)
            return dataclasses.replace(demo, limit_tau=demo.image_tau)

        monkeypatch.setattr(verify, "nonclosed_image_demo", moved)
        assert self.failing() == {
            f"demo n={n}": "limit-point exclusion certificate failed" for n in (2, 3)
        }


class TestRequestBounds:
    def test_trials_below_one_rejected(self):
        for trials in (0, -1):
            with pytest.raises(OutOfRangeError):
                suite_cells("sl-relation", trials=trials)
            with pytest.raises(OutOfRangeError):
                run_suite("sl-relation", trials=trials)

    def test_trials_above_cap_rejected(self):
        assert suite_cells("sl-relation", trials=MAX_TRIALS)[0][2]["trials"] == MAX_TRIALS
        with pytest.raises(OutOfRangeError):
            suite_cells("sl-relation", trials=MAX_TRIALS + 1)

    def test_default_trials_only_when_omitted(self):
        assert suite_cells("sl-relation")[0][2]["trials"] == 100
        assert suite_cells("sl-relation", trials=1)[0][2]["trials"] == 1
        nullcone = {label: params for _, label, params in suite_cells("nullcone", trials=2)}
        assert nullcone["equivalence n=1"]["trials"] == 2

    def test_zero_trial_cell_fails(self):
        out = verify._run_task(("sl-relation", "n=1", 0, {"n": 1, "trials": 0}))
        assert not out.ok
        assert "zero trials" in out.detail
        assert verify._run_task(("sl-relation", "n=1", 0, {"n": 1, "trials": 1})).ok

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(OutOfRangeError):
                run_suite("sl-relation", trials=1, jobs=jobs)

    def test_jobs_clamped_to_cells_and_cpus(self, monkeypatch):
        import concurrent.futures

        started = []

        class FakePool:
            """Records the requested worker count and runs tasks in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        # sl-relation has 4 cells
        for cpus, jobs, expected in [(3, 10**9, [3]), (64, 50, [4]), (64, 2, [2]),
                                     (None, 8, []), (8, 1, [])]:
            started.clear()
            monkeypatch.setattr(verify.os, "cpu_count", lambda cpus=cpus: cpus)
            rep = run_suite("sl-relation", seed=2, trials=1, jobs=jobs)
            assert started == expected
            assert rep.cells_run == rep.passes == 4
