"""The benchmark in ``bench/`` still binds every name of the program it uses.

``bench/tracing.py`` wraps functions and methods by name, and
``bench/run.py`` reads ``_kernels.backend_name``; renaming or deleting one
of them breaks ``--trace 1`` without failing any other test.  Both checks
run in a fresh interpreter because ``tracing.install`` patches
``Fraction.__new__`` for the whole process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL_TRACER = """
import sys
sys.path.insert(0, "bench")
import run, tracing
ea = run.import_program()
tracing.install(tracing.Tracer(), ea.package)
assert ea._kernels.backend_name() == "pure"
"""


def test_benchmark_self_test_and_tracer_install():
    for args in (["bench/run.py", "--self-test"], ["-c", INSTALL_TRACER]):
        proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
