"""Backend parity: the compiled kernels must replicate the pure ones exactly."""

import random
from fractions import Fraction

import pytest

from eadjoint import _corepy, _kernels

compiled = pytest.importorskip("eadjoint._core")


def random_int_rows(rng, m, n, bound=40):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


class TestParity:
    def test_mat_mul_int_and_fraction(self):
        rng = random.Random(1)
        for _ in range(50):
            m, n, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if rng.random() < 0.4
                else rng.randint(-9, 9)
                for _ in range(m * n)
            ]
            b = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if rng.random() < 0.4
                else rng.randint(-9, 9)
                for _ in range(n * p)
            ]
            assert compiled.mat_mul(a, m, n, b, p) == _corepy.mat_mul(a, m, n, b, p)

    def test_rank_int(self):
        rng = random.Random(2)
        for _ in range(80):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_int_rows(rng, m, n)
            assert compiled.rank_int(rows, n) == _corepy.rank_int(rows, n)

    def test_rre_int_identical_objects(self):
        rng = random.Random(3)
        for _ in range(80):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_int_rows(rng, m, n)
            assert compiled.rre_int(rows, n) == _corepy.rre_int(rows, n)

    def test_inputs_not_mutated(self):
        rows = [[2, 4], [1, 3]]
        snapshot = [list(r) for r in rows]
        compiled.rre_int(rows, 2)
        _corepy.rre_int(rows, 2)
        compiled.rank_int(rows, 2)
        _corepy.rank_int(rows, 2)
        assert rows == snapshot


def test_compiled_kernels_are_bound():
    assert _kernels.backend_name() == "compiled"
    assert _kernels.mat_mul is compiled.mat_mul


def test_certificates_identical_across_backends(monkeypatch):
    from eadjoint.nullcone import adapted_certificate, sample_component

    results = {}
    for backend in (_corepy, compiled):
        for name in ("mat_mul", "rank_int", "rre_int"):
            monkeypatch.setattr(_kernels, name, getattr(backend, name))
        out = []
        for seed in range(5):
            w = sample_component(3, 2, 1, 1, seed)
            cert = adapted_certificate(w, 1)
            out.append((w, cert.g, cert.lam))
        results[backend.__name__] = out
    assert results["eadjoint._corepy"] == results["eadjoint._core"]
