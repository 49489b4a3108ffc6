"""Backend parity: the compiled kernels must replicate the pure ones exactly.

The committed ``src/eadjoint/_core.c`` is compiled into a temporary directory
and loaded as ``eadjoint._core``; the tests skip only when there is no C
compiler or no ``Python.h``.
"""

import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest

import eadjoint
from eadjoint import _corepy, _kernels

CORE_C = Path(eadjoint.__file__).with_name("_core.c")


@pytest.fixture(scope="module")
def core_path(tmp_path_factory):
    cc = shutil.which("cc") or shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not Path(include, "Python.h").is_file():
        pytest.skip("no C compiler or no Python.h to build eadjoint._core")
    out = tmp_path_factory.mktemp("core") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", f"-I{include}", str(CORE_C), "-o", str(out)],
        check=True,
        capture_output=True,
    )
    return out


@pytest.fixture(scope="module")
def compiled(core_path):
    spec = importlib.util.spec_from_file_location("eadjoint._core", core_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_int_rows(rng, m, n, bound=40):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


class TestParity:
    def test_mat_mul_int_and_fraction(self, compiled):
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

    def test_rank_int(self, compiled):
        rng = random.Random(2)
        for _ in range(80):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_int_rows(rng, m, n)
            assert compiled.rank_int(rows, n) == _corepy.rank_int(rows, n)

    def test_rre_int_identical_objects(self, compiled):
        rng = random.Random(3)
        for _ in range(80):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_int_rows(rng, m, n)
            assert compiled.rre_int(rows, n) == _corepy.rre_int(rows, n)

    def test_inputs_not_mutated(self, compiled):
        rows = [[2, 4], [1, 3]]
        snapshot = [list(r) for r in rows]
        compiled.rre_int(rows, 2)
        _corepy.rre_int(rows, 2)
        compiled.rank_int(rows, 2)
        _corepy.rank_int(rows, 2)
        assert rows == snapshot


_BIND_CHECK = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("eadjoint._core", sys.argv[1])
core = importlib.util.module_from_spec(spec)
sys.modules["eadjoint._core"] = core
spec.loader.exec_module(core)
from eadjoint import _kernels
assert _kernels.backend_name() == "compiled", _kernels.backend_name()
assert _kernels.mat_mul is core.mat_mul
"""


def test_compiled_kernels_are_bound(core_path):
    # a fresh interpreter, so the build is registered before _kernels imports
    env = dict(os.environ)
    src = str(Path(eadjoint.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _BIND_CHECK, str(core_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_certificates_identical_across_backends(compiled, monkeypatch):
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
