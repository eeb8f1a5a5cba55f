"""One benchmark process: a set-up sample, or a whole workload run.

``run.py`` starts this in a fresh interpreter with ``src`` on the path.
Role ``setup`` imports ``oulab``, builds the workload's inputs, prints the
monotonic clock reading at which they were ready, and exits. Role ``run``
does the same set-up, then one untimed warm-up pass, then timed passes
until the next one would end after ``--seconds``. With ``--trace 1`` the
timed passes alternate untraced and traced. Every pass's summary is
checked. The last stdout line is one JSON object for ``run.py``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy
import scipy

from workloads import WORKLOADS

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def blas_threads() -> dict:
    """Threads of each OpenBLAS that numpy and scipy bundle, by library."""
    out = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in BLAS_THREAD_SYMBOLS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = fn()
                    break
    return out


def versions() -> dict:
    def blas_version(pkg):
        deps = pkg.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas_numpy": blas_version(numpy),
            "openblas_scipy": blas_version(scipy),
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def timed_passes(wl, seconds: float, tracer):
    """Run passes until the next one would end after ``seconds``.

    Returns the summaries, the untraced and traced pass times, and the span
    slice of every traced pass.
    """
    summaries, plain, traced, slices = [], [], [], []
    begin = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - begin
        needed = 2 if tracer is not None else 1
        if len(summaries) >= needed and elapsed + last > seconds:
            break
        trace_this = tracer is not None and len(summaries) % 2 == 1
        if trace_this:
            tracer.install()
            lo = len(tracer.spans)
        start = time.perf_counter()
        summaries.append(wl.run_pass())
        last = time.perf_counter() - start
        if trace_this:
            tracer.uninstall()
            slices.append((lo, len(tracer.spans)))
            traced.append(last)
        else:
            plain.append(last)
    return summaries, plain, traced, slices


def trace_report(wl, tracer, slices, spans_path):
    """Median per-layer metrics over the traced passes, plus the checks
    that the counts repeat and that path-steps match the config."""
    from tracing import COUNT_METRICS, layer_metrics
    per_pass = [layer_metrics(tracer.spans, lo, hi) for lo, hi in slices]
    layers = {k: statistics.median(p[k] for p in per_pass)
              for k in per_pass[0]}
    expected = wl.expected_path_steps()
    ops = [(f"trace: {k} repeats", all(p[k] == per_pass[0][k]
                                       for p in per_pass))
           for k in COUNT_METRICS]
    ops += [(f"trace: path_steps == {expected}",
             p["montecarlo.path_steps"] == expected) for p in per_pass]
    with open(spans_path, "w") as fh:
        for lo, hi in slices:
            for name, start, end, parent, counts in tracer.spans[lo:hi]:
                fh.write(json.dumps([name, start, end, parent, counts]) + "\n")
    return layers, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    ready_at = time.monotonic()
    try:
        if args.role == "setup":
            print(json.dumps({"ready_at": ready_at}))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        start = time.perf_counter()
        warmup = wl.run_pass()
        warmup_s = time.perf_counter() - start
        summaries, plain, traced, slices = timed_passes(wl, args.seconds,
                                                        tracer)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        extras = wl.finish()
        out = {"ready_at": ready_at, "warmup_s": warmup_s, "pass_s": plain,
               "traced_pass_s": traced, "peak_rss_kb": peak_rss_kb,
               "ops": [[[name, bool(ok)] for name, ok in wl.checks(s)]
                       for s in [warmup] + summaries],
               "extras": extras, "versions": versions()}
        if tracer is not None:
            spans_path = os.path.join(
                args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            layers, trace_ops = trace_report(wl, tracer, slices, spans_path)
            out.update(layers=layers, spans=spans_path,
                       trace_ops=[[n, bool(ok)] for n, ok in trace_ops])
        print(json.dumps(out))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
