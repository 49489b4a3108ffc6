"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
live).  Tolerances are exact equality everywhere except the two genericity
statements, which demand at least 95% generic hits per cell and zero hard
bound violations; those thresholds are built into the suite cells.
"""

import os
from contextlib import contextmanager

import pytest

from eadjoint import verify
from eadjoint.nullcone import enumerate_maximal_unstable, nullcone_summary

JOBS = min(2, os.cpu_count() or 1)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


def _assert_clean(report, label_filter=None):
    if label_filter is not None:
        labels = [label for _, label, _ in verify.suite_cells(report.suite)]
        assert any(map(label_filter, labels)), "the label filter matches no cell"
    failures = [
        f
        for f in report.failures
        if label_filter is None or label_filter(f.label)
    ]
    assert not failures, "; ".join(
        f"{f.label} (seed {f.seed}): {f.detail}" for f in failures[:5]
    )


@pytest.fixture(scope="module")
def reconstruction_report():
    return verify.run_suite("reconstruction", seed=33, jobs=JOBS)


@pytest.fixture(scope="module")
def nullcone_report():
    return verify.run_suite("nullcone", seed=44, jobs=JOBS)


@pytest.fixture(scope="module")
def classifier_report():
    return verify.run_suite("classifier", seed=55, jobs=JOBS)


@pytest.fixture(scope="module")
def certificates_report():
    return verify.run_suite("certificates", seed=66, jobs=JOBS)


def test_criterion_01_invariance():
    with criterion(1, "invariance of all generators under the group action"):
        report = verify.run_suite("invariance", seed=11, jobs=JOBS)
        assert report.cells_run == 72  # (n,p,q) in {1..4}x{1..3}^2, r in {1,2}
        _assert_clean(report)


def test_criterion_02_quotient_dimension():
    with criterion(2, "Jacobian rank n(p+q) on >=95% of generic samples"):
        report = verify.run_suite("jacobian", seed=22, jobs=JOBS)
        assert report.cells_run == 36
        _assert_clean(report)


def test_criterion_03_fiber_dimension(reconstruction_report):
    with criterion(3, "trivial stabilizer and fiber dimension n^2 at regular points"):
        _assert_clean(reconstruction_report, lambda l: l.startswith("regular"))


def test_criterion_04_reconstruction_roundtrip(reconstruction_report):
    with criterion(4, "exact reconstruction round trip"):
        _assert_clean(reconstruction_report, lambda l: l.startswith("roundtrip"))


def test_criterion_05_coregular_count(reconstruction_report):
    with criterion(5, "image dimension equals ambient count when p=1 or q=1"):
        _assert_clean(reconstruction_report, lambda l: l.startswith("coregular"))


def test_criterion_06_maximal_unstable_classes(nullcone_report):
    with criterion(6, "exactly n+1 maximal unstable classes matching the ladder"):
        _assert_clean(nullcone_report, lambda l: l.startswith("classes"))
        for n in range(1, 6):
            classes = enumerate_maximal_unstable(n, 1, 2)
            assert [c.k for c in classes] == list(range(n + 1))


def test_criterion_07_component_dimensions(nullcone_report):
    with criterion(7, "component dimension formulas and equidimensionality"):
        _assert_clean(
            nullcone_report,
            lambda l: l.startswith("tangent") or l.startswith("summary"),
        )
        for n in (2, 3, 4):
            for p in (1, 2, 3):
                for q in (1, 2, 3):
                    s = nullcone_summary(n, p, q)
                    assert s.nullcone_dim == n * n - n + n * max(p, q)
                    assert s.equidimensional == (p == q)
                    assert (s.nullcone_dim == n * n) == (p == q == 1)


def test_criterion_08_classifier_and_certificates(
    classifier_report, certificates_report
):
    with criterion(8, "sampler membership and bit-exact certificates, 1000/cell"):
        assert classifier_report.cells_run == 126
        _assert_clean(classifier_report)
        assert certificates_report.cells_run == 126
        _assert_clean(certificates_report)


def test_criterion_09_stabilizer_formulas():
    with criterion(9, "stabilizer dimension n-k and orbit dimension n^2-min(k,n-k)"):
        report = verify.run_suite("stabilizer", seed=77, jobs=JOBS)
        _assert_clean(report)


def test_criterion_10_sl_relation():
    with criterion(10, "determinant relation D1*D2 = Hankel determinant"):
        report = verify.run_suite("sl-relation", seed=88, jobs=JOBS)
        _assert_clean(report)


def test_criterion_11_psi_properties():
    with criterion(11, "symmetric-group invariance and non-closed image demo"):
        report = verify.run_suite("psi", seed=99, jobs=JOBS)
        _assert_clean(report)
