import pytest

from eadjoint import verify
from eadjoint.errors import OutOfRangeError
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

        def boom(seed, params):
            raise RuntimeError("exploded")

        monkeypatch.setitem(verify._RUNNERS, "sl-relation", boom)
        rep = run_suite("sl-relation", seed=0, trials=1)
        assert rep.passes == 0
        assert len(rep.failures) == 4
        assert "exploded" in rep.failures[0].detail
        assert rep.failures[0].seed is not None


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
