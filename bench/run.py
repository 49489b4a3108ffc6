#!/usr/bin/env python3
"""Benchmark of the eadjoint toolkit: four exact-arithmetic workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload nullcone-certify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

One process, one client, closed loop: the next op starts when the previous
one has returned and been checked.  Set-up (package import plus input
generation) is repeated ``SETUP_REPEATS`` times and its median reported as
``setup_s``.  With ``--trace 0`` the loop cycles over the workload's
distinct inputs for ``--seconds`` of wall time, stopping only at a round
boundary of its shape schedule and never before one full pass, so every
input runs several times.  Every timing is rescaled by the machine-speed
probe of ``speed.py``; an input's latency is the median of its runs, and the
latency metrics are the median and tail over the distinct inputs.
``ops_per_s`` is distinct inputs over the sum of their latencies, the
throughput of one pass counting only time inside the program's calls.  The
unscaled wall-clock figures are printed in ``meta`` as ``raw_wall``.  With
``--trace 1`` the run makes a warm-up pass, an untraced and a traced pass
over the same inputs, so call counts repeat exactly for a seed, and prints
the per-layer metrics of the traced pass plus the tracing overhead (traced
over untraced time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failure reasons go
to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from speed import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
HARD_STOP_S = 150  # stop measuring early rather than overrun the 180 s budget
TAIL_BEYOND = 10
MODULES = ("cli", "errors", "invariants", "linalg", "nullcone", "orbits",
           "sampling", "verify", "_kernels")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
PROCESS_START = time.perf_counter()


def import_program():
    """Import eadjoint fresh from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "eadjoint" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources under {src}")
    for name in [n for n in sys.modules if n == "eadjoint" or n.startswith("eadjoint.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("eadjoint")
    if Path(pkg.__file__).resolve().parent != (src / "eadjoint").resolve():
        raise SystemExit(f"bench: imported eadjoint from {pkg.__file__}, not {src}")
    return SimpleNamespace(package=pkg, **{
        m: importlib.import_module(f"eadjoint.{m}") for m in MODULES})


def setup(workload, seed, probe):
    """Import and generate SETUP_REPEATS times; (modules, workload, raw s, rescaled s)."""
    raw, rescaled = [], []
    for _ in range(SETUP_REPEATS):
        probe.probe()
        start = time.perf_counter()
        ea = import_program()
        wl = WORKLOADS[workload](ea, seed)
        end = time.perf_counter()
        probe.probe()
        raw.append(end - start)
        rescaled.append(probe.rescale(start, end))
    return ea, wl, raw, rescaled


class Tally:
    """Latencies, failure accounting and first outputs of a sequence of ops."""

    def __init__(self):
        self.spans = []  # (input key, start, end, busy seconds) of every op
        self.attempted = 0
        self.failed = 0
        self.first = {}  # input key -> (canonical output, problem)
        self.reasons = []

    def digest(self):
        items = [self.first[k][0] for k in sorted(self.first)]
        return hashlib.sha256(json.dumps(items).encode()).hexdigest(), len(items)

    def per_input(self, duration):
        """Median over each input's runs of ``duration(start, end, busy)``."""
        runs = {}
        for key, start, end, busy in self.spans:
            runs.setdefault(key, []).append(duration(start, end, busy))
        return [statistics.median(v) for v in runs.values()]


def step(wl, i, tally, tracer=None, probe=None):
    """Run op i, time the program call, check the result and count it."""
    key = i % len(wl.pool)
    inp = wl.pool[key]
    if probe is not None:
        probe.maybe_probe()
        probe.arm()
    if tracer is not None:
        tracer.op = i
        tracer.active = True
    start = time.perf_counter()
    try:
        result, error = wl.op(inp), None
    except Exception as exc:  # an unexpected exception is a failed op
        result, error = None, exc
    end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    busy = end - start - (probe.disarm(start, end) if probe is not None else 0.0)
    tally.spans.append((key, start, end, busy))
    if error is not None:
        problem = f"unexpected {type(error).__name__}: {error}"
    else:
        try:
            canon = json.dumps(wl.canonical(result), sort_keys=True, separators=(",", ":"))
            if key in tally.first:
                first_canon, problem = tally.first[key]
                if canon != first_canon:
                    problem = "output differs from an earlier run of the same input"
            else:
                problem = wl.check(inp, result)
                tally.first[key] = (canon, problem)
        except Exception as exc:  # a result the checks cannot read is wrong
            problem = f"unreadable result: {type(exc).__name__}: {exc}"
        if tracer is not None:
            wl.trace_counts(result, tracer.counts)
    attempted, failed = wl.attempts(inp, result, problem)
    tally.attempted += attempted
    tally.failed += failed
    if problem is not None and len(tally.reasons) < 5:
        tally.reasons.append(f"op {i}: {problem}")


def run_pass(wl, tally, tracer=None):
    """One pass over the pool; returns the wall time spent in the program.

    Not rescaled by the speed probe: tracing wraps ``Fraction.__new__``,
    which the probe uses too, so probe times differ between the passes.
    """
    for i in range(len(wl.pool)):
        step(wl, i, tally, tracer)
    return sum(busy for _, _, _, busy in tally.spans[-len(wl.pool):])


def run_timed(wl, seconds, tally, probe):
    """Closed loop for ``seconds``; returns False if the hard stop cut it."""
    deadline = time.perf_counter() + seconds
    i = 0
    try:
        while True:
            now = time.perf_counter()
            if i % wl.round_size == 0 and i >= len(wl.pool) and now >= deadline:
                return True
            if now - PROCESS_START > HARD_STOP_S:
                return False
            step(wl, i, tally, probe=probe)
            i += 1
    finally:
        probe.probe()


def tail_position(n):
    """(sorted index, percentile, samples beyond) of the tail of n samples.

    The tail is the highest percentile with TAIL_BEYOND samples beyond it.
    With fewer than 10 * TAIL_BEYOND samples that percentile would sit below
    the 90th, which is no tail, so the maximum is used instead.
    """
    if n < 10 * TAIL_BEYOND:
        return n - 1, 100.0, 0
    return n - 1 - TAIL_BEYOND, 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def latency_metrics(lat):
    """Throughput, median and tail of per-input latencies in seconds."""
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": sorted(lat)[tail_position(len(lat))[0]] * 1e3}


def commit_of(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "eadjoint").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(ea, wl, args):
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit_of(ROOT), "source_sha256": source_digest(ROOT),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": ea._kernels.backend_name(), "params": wl.params,
    }


def emit(meta, tally, metrics, units):
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for reason in tally.reasons:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))


def run(args):
    probe = Probe()
    ea, wl, setup_raw, setup_rescaled = setup(args.workload, args.seed, probe)
    meta = metadata(ea, wl, args)
    tally = Tally()
    gc.collect()
    if not args.trace:
        meta["complete"] = run_timed(wl, args.seconds, tally, probe)
        metrics = {"setup_s": statistics.median(setup_rescaled),
                   **latency_metrics(tally.per_input(probe.rescale)),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        raw = latency_metrics(tally.per_input(lambda start, end, busy: busy))
        _, pct, beyond = tail_position(len(wl.pool))
        meta.update(ops=len(tally.spans), latency_samples=len(wl.pool),
                    tail_percentile=pct, tail_samples_beyond=beyond,
                    setup_runs_raw_s=setup_raw, setup_runs_rescaled_s=setup_rescaled,
                    raw_wall={"setup_s": statistics.median(setup_raw), **raw},
                    probe_ms={"median": statistics.median(probe.durations) * 1e3,
                              "min": min(probe.durations) * 1e3, "count": len(probe.durations)},
                    failed_ratio=tally.failed / tally.attempted)
        units = dict(END_TO_END)
    else:
        run_pass(wl, tally)  # warm-up, so the untraced pass is not the first
        untraced = run_pass(wl, tally)
        tracer = tracing.Tracer()
        tracing.install(tracer, ea.package)
        traced = run_pass(wl, tally, tracer)
        metrics = tracer.metrics()
        metrics["trace.ops_per_s.untraced"] = len(wl.pool) / untraced
        metrics["trace.ops_per_s.traced"] = len(wl.pool) / traced
        metrics["trace.overhead_ratio"] = traced / untraced
        units = dict(tracing.metric_catalog())
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{wl.name}-seed{args.seed}.json", meta)
        meta.update(ops=len(tally.spans), pass_ops=len(wl.pool),
                    spans_logged=len(tracer.spans), failed_ratio=tally.failed / tally.attempted)
        print(f"tracing overhead: {metrics['trace.overhead_ratio']:.3f}x "
              f"({metrics['trace.ops_per_s.traced']:.3f} traced vs "
              f"{metrics['trace.ops_per_s.untraced']:.3f} untraced ops/s)")
    meta["digest"], meta["digest_inputs"] = tally.digest()
    print(f"digest sha256:{meta['digest']} over {meta['digest_inputs']} inputs")
    emit(meta, tally, metrics, units)
    return 0


# ---------------------------------------------------------------------------
# self-test: corrupted results must be counted as failed


def _corruptions(ea):
    """(workload, op index, function turning a good result into a wrong one)."""
    la, nc, vf = ea.linalg, ea.nullcone, ea.verify

    def flip_cert_entry(result):
        interval, (iv, certs) = result
        k, cert = next(iter(certs.items()))
        e = list(cert.g.entries)
        e[-1] = -e[-1] + 1
        g = la.RationalMatrix(cert.g.rows, cert.g.cols, e)
        return interval, (iv, {**certs, k: dataclasses.replace(cert, g=g)})

    def flip_lambda_sign(result):
        interval, (iv, certs) = result
        k, cert = next(iter(certs.items()))
        lam = nc.OnePSG((-cert.lam.lam[0],) + cert.lam.lam[1:])
        return interval, (iv, {**certs, k: dataclasses.replace(cert, lam=lam)})

    def bump_rank(result):
        return {**result, "jrank2": result["jrank2"] - 1}

    def flip_json_entry(result):
        rc, text = result
        obj = json.loads(text)
        last = obj["g"][-1]  # the last row fixes the top of the flag
        last[0] = "7/3" if last[0] != "7/3" else "1"
        return rc, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    def wrong_exit(result):
        return 0, result[1]

    def fail_a_cell(report):
        bad = vf.CellOutcome("injected", 0, False, "injected failure")
        return dataclasses.replace(report, passes=report.passes - 1,
                                   failures=report.failures + (bad,))

    # op 4 of nullcone-certify is an n = 3 component sample, so it has
    # certificates; op 1 of cli-requests is a certify request, op 8 malformed
    return (("nullcone-certify", 4, flip_cert_entry), ("nullcone-certify", 4, flip_lambda_sign),
            ("quotient-generic", 0, bump_rank),
            ("cli-requests", 1, flip_json_entry), ("cli-requests", 8, wrong_exit),
            ("verify-suites", 2, fail_a_cell))


def self_test():
    ok = True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != tracing.metric_catalog():
        print("self-test: BENCHMARK.json per_layer differs from the traced metrics")
        ok = False
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != list(END_TO_END):
        print("self-test: BENCHMARK.json end_to_end differs from the reported metrics")
        ok = False
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        print("self-test: BENCHMARK.json workloads differ from the implemented ones")
        ok = False
    ea = import_program()
    workloads = {}
    for name, i, corrupt in _corruptions(ea):
        if name not in workloads:
            workloads[name] = WORKLOADS[name](ea, 0)
        wl = workloads[name]
        clean = Tally()
        step(wl, i, clean)
        good = wl.op(wl.pool[i])
        real_op = wl.op
        wl.op = lambda inp, good=good: corrupt(good)
        bad = Tally()
        step(wl, i, bad)
        wl.op = real_op
        caught = clean.failed == 0 and bad.failed > 0
        ok = ok and caught
        print(f"self-test {name} op {i} {corrupt.__name__}: clean failed={clean.failed}, "
              f"corrupted failed={bad.failed} -> {'detected' if caught else 'MISSED'}"
              + (f" ({bad.reasons[0]})" if bad.reasons else ""))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", dest="self_test",
                        help="check that corrupted results are counted as failed")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
