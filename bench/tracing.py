"""Opt-in spans and counters around the program's layer boundaries.

Only the traced run installs these wrappers.  A wrapper replaces a function
everywhere the program can reach it: the attribute in its home module and
every ``from ... import`` binding of the same object in the other
``eadjoint`` modules, or the attribute on its class for methods.  The
kernels are wrapped on ``eadjoint._kernels``, because ``linalg`` looks them
up there at call time.

Spans are aggregated per name (calls, self time = duration minus the time
of child spans) and, for the first ``SPAN_LOG_LIMIT`` spans, logged in
memory as (id, parent id, name, op, start, end) and written when the run
ends.  Recording happens only while ``Tracer.active`` is set, which the
runner sets around the measured call and clears around its own checks.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from fractions import Fraction

SPAN_LOG_LIMIT = 50_000

# (span name, key, owner, attribute); owner "module:<name>" or "class:<module>.<Class>"
SPANS = (
    ("kernels.mat_mul", "mat_mul", "module:_kernels", "mat_mul"),
    ("kernels.rank_int", "rank_int", "module:_kernels", "rank_int"),
    ("kernels.rre_int", "rre_int", "module:_kernels", "rre_int"),
    ("linalg.rref", "rref", "class:linalg.RationalMatrix", "rref"),
    ("linalg.inverse", "inverse", "class:linalg.RationalMatrix", "inverse"),
    ("linalg.subspace", "from_spanning_columns", "class:linalg.Subspace", "from_spanning_columns"),
    ("linalg.subspace", "sum_with", "class:linalg.Subspace", "sum_with"),
    ("linalg.subspace", "intersect", "class:linalg.Subspace", "intersect"),
    ("linalg.subspace", "image_under", "class:linalg.Subspace", "image_under"),
    ("linalg.subspace", "preimage_under", "class:linalg.Subspace", "preimage_under"),
    ("linalg.subspace", "contains_vector", "class:linalg.Subspace", "contains_vector"),
    ("linalg.vandermonde_solve", "vandermonde_solve", "module:linalg", "vandermonde_solve"),
    ("nullcone.in_null_cone", "in_null_cone", "module:nullcone", "in_null_cone"),
    ("nullcone.component_interval", "component_interval", "module:nullcone", "component_interval"),
    ("nullcone.subspaces", "hull", "module:nullcone", "invariant_hull_of_image"),
    ("nullcone.subspaces", "core", "module:nullcone", "largest_invariant_in_kernel"),
    ("nullcone.component_certificates", "component_certificates", "module:nullcone",
     "component_certificates"),
    ("nullcone.adapted_certificate", "adapted_certificate", "module:nullcone",
     "adapted_certificate"),
    ("nullcone.check_certificate", "check_certificate", "module:nullcone", "check_certificate"),
    ("nullcone.enumerate_maximal_unstable", "enumerate_maximal_unstable", "module:nullcone",
     "enumerate_maximal_unstable"),
    ("nullcone.component_tangent_dim", "component_tangent_dim", "module:nullcone",
     "component_tangent_dim"),
    ("invariants.evaluate_invariants", "evaluate_invariants", "module:invariants",
     "evaluate_invariants"),
    ("invariants.group_action", "group_action", "module:invariants", "group_action"),
    ("invariants.jacobian_rank", "jacobian_rank", "module:invariants", "jacobian_rank"),
    ("invariants.word_invariants", "word_invariants", "module:invariants", "word_invariants"),
    ("orbits.stabilizer", "stabilizer", "module:orbits", "stabilizer"),
    ("orbits.reconstruct_fiber_point", "reconstruct_fiber_point", "module:orbits",
     "reconstruct_fiber_point"),
    ("cli.main", "main", "module:cli", "main"),
    ("cli.build_parser", "build_parser", "module:cli", "build_parser"),
    ("cli.decode", "point_from_json", "class:invariants.Point", "from_json_obj"),
    ("cli.decode", "reconstruction_input", "module:orbits", "reconstruction_input_from_json"),
    ("verify.run_suite", "run_suite", "module:verify", "run_suite"),
    # the component samplers live in nullcone but belong to the sampling layer
    ("sampling", "sample_component", "module:nullcone", "sample_component"),
    ("sampling", "random_unstable_point", "module:nullcone", "random_unstable_point"),
)
ENCODE_SPAN = "cli.encode"  # every to_json_obj method of the package
SAMPLING_SPAN = "sampling"  # every function defined in eadjoint.sampling
_KERNEL_IMPLS = ("eadjoint._corepy", "eadjoint._core")

SPAN_NAMES = tuple(dict.fromkeys(
    [s[0] for s in SPANS] + [ENCODE_SPAN, SAMPLING_SPAN]))
COUNTERS = (
    ("kernels.rre_int.cells", "count"),  # sum of input rows x cols, computed
    ("linalg.fraction_new.calls", "count"),
    ("nullcone.hull_iterations", "count"),
    ("nullcone.core_iterations", "count"),
    ("nullcone.flag_probe_ratio", "ratio"),
    ("cli.exit_code.0", "count"),
    ("cli.exit_code.1", "count"),
    ("cli.exit_code.2", "count"),
    ("verify.cells_run", "count"),
    ("verify.cells_failed", "count"),
    ("trace.ops_per_s.untraced", "1/s"),
    ("trace.ops_per_s.traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_catalog():
    """Every per-layer metric the traced run prints, as (name, unit)."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    return out + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self._stack = []  # open spans as [key, child seconds, span id]
        self._next_id = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.key_calls = Counter()
        self.pair_calls = Counter()  # (parent key, key)
        self.counts = Counter()
        self.spans = []
        self.names = {}

    def call(self, name, key, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [key, 0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            self.key_calls[key] += 1
            if parent is not None:
                parent[1] += dur
                self.pair_calls[parent[0], key] += 1
            if len(self.spans) < SPAN_LOG_LIMIT:
                self.spans.append((span_id, parent[2] if parent else None,
                                   self.names.setdefault(name, len(self.names)),
                                   self.op, start, end))

    def wrap(self, name, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(name, key, fn, args, kwargs)

        return wrapper

    def metrics(self):
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3
        c, pairs = self.counts, self.pair_calls
        out["kernels.rre_int.cells"] = c["rre_int.cells"]
        out["linalg.fraction_new.calls"] = c["fraction_new"]
        out["nullcone.hull_iterations"] = pairs["hull", "image_under"]
        out["nullcone.core_iterations"] = pairs["core", "preimage_under"]
        probes = c["flag_probes"]
        out["nullcone.flag_probe_ratio"] = c["flag_columns"] / probes if probes else 0.0
        for rc in (0, 1, 2):
            out[f"cli.exit_code.{rc}"] = c[f"exit_code.{rc}"]
        out["verify.cells_run"] = c["cells_run"]
        out["verify.cells_failed"] = c["cells_failed"]
        return out

    def write_spans(self, path, meta):
        names = sorted(self.names, key=self.names.get)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": names,
                       "fields": ["id", "parent", "name", "op", "start_s", "end_s"],
                       "spans": self.spans}, fh)


def install(tracer, package):
    """Wrap every layer boundary of the imported package ``package``."""
    mods = {n: m for n, m in sys.modules.items()
            if (n == package.__name__ or n.startswith(package.__name__ + "."))
            and n not in _KERNEL_IMPLS and m is not None}

    def rebind(orig, wrapper):
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)

    def wrap_method(cls, attr, name, key):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, key, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, key, raw))

    for name, key, owner, attr in SPANS:
        kind, _, where = owner.partition(":")
        if kind == "module":
            orig = getattr(mods[f"{package.__name__}.{where}"], attr)
            wrapper = tracer.wrap(name, key, orig)
            if key == "rre_int":
                wrapper = _count_cells(tracer, wrapper)
            rebind(orig, wrapper)
        else:
            mod_name, cls_name = where.split(".")
            cls = getattr(mods[f"{package.__name__}.{mod_name}"], cls_name)
            wrap_method(cls, attr, name, key)

    for m in mods.values():
        for cls in [v for v in vars(m).values()
                    if isinstance(v, type) and v.__module__ == m.__name__]:
            if "to_json_obj" in cls.__dict__:
                wrap_method(cls, "to_json_obj", ENCODE_SPAN, f"{cls.__name__}.to_json_obj")

    sampling = mods[f"{package.__name__}.sampling"]
    for attr, val in list(vars(sampling).items()):
        if callable(val) and getattr(val, "__module__", None) == sampling.__name__ \
                and not isinstance(val, type):
            rebind(val, tracer.wrap(SAMPLING_SPAN, attr, val))

    nullcone = mods[f"{package.__name__}.nullcone"]
    rebind(nullcone._first_new_basis_column,
           _probe_counter(tracer, nullcone._first_new_basis_column))

    orig_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        if tracer.active:
            tracer.counts["fraction_new"] += 1
        return orig_new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted_new)


def _count_cells(tracer, wrapper):
    """Sum rows x cols of the matrices handed to an elimination kernel."""

    @functools.wraps(wrapper)
    def counted(rows, ncols, *args, **kwargs):
        if tracer.active:
            tracer.counts["rre_int.cells"] += len(rows) * ncols
        return wrapper(rows, ncols, *args, **kwargs)

    return counted


def _probe_counter(tracer, fn):
    """Count flag columns found and the membership probes spent finding them."""

    @functools.wraps(fn)
    def probe(*args):
        if not tracer.active:
            return fn(*args)
        before = tracer.key_calls["contains_vector"]
        col = fn(*args)
        tracer.counts["flag_probes"] += tracer.key_calls["contains_vector"] - before
        tracer.counts["flag_columns"] += col is not None
        return col

    return probe
