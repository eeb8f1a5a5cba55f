"""Benchmark of the ``oulab`` package: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from
``src``, so nothing needs installing. The workloads and metrics are listed
in ``BENCHMARK.json`` and explained in ``bench/README.md``.

The run is a closed loop with one caller. Set-up is sampled in several
fresh interpreters (``worker.py --role setup``) and the workload runs in
one more (``--role run``). With ``--trace 0`` the last stdout line carries
the end-to-end metrics, with ``--trace 1`` the per-layer ones. The full
record (every sample, the extra figures and the provenance) is appended to
``.bench_results/results.jsonl`` or to ``--out``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
RESULTS_DIR = ROOT / ".bench_results"
SETUP_SAMPLES = 3
# One BLAS thread: on a small shared machine a second thread mostly adds
# contention, and run-to-run spread with it was several times wider.
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(role: str, args, deadline: float):
    """Run one worker; return its JSON result and the spawn time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(RESULTS_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{role} worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} worker printed no result")
    return json.loads(lines[-1]), spawned


def smoothed_fail_frac(ops_per_pass) -> float:
    """Worst pass's (failed + 1/2) / (attempted + 1).

    The add-one-half (Jeffreys) estimate of one pass's failure share stays
    above zero when nothing fails, and every pass of a workload attempts
    the same operations, so with no failures the value is the same on
    every run. Taking the worst pass, not the mean, makes one failure
    triple the value however many passes the run makes.
    """
    return max((sum(not ok for _, ok in ops) + 0.5) / (len(ops) + 1)
               for ops in ops_per_pass)


def source_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, worker_versions) -> dict:
    return {"git_sha": git_sha(), "source_sha256": source_sha256(),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), **worker_versions,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run(args, spec):
    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS_DIR.mkdir(exist_ok=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            sample, spawned = spawn("setup", args, deadline)
            setups.append(sample["ready_at"] - spawned)
    result, spawned = spawn("run", args, deadline)
    setups.append(result["ready_at"] - spawned)

    ops = result["ops"]
    trace_failed = [name for name, ok in result.get("trace_ops", [])
                    if not ok]
    attempted = sum(len(p) for p in ops)
    failed = sum(not ok for p in ops for _, ok in p)
    plain = result["pass_s"]
    if args.trace:
        kind = "per_layer"
        values = dict(result["layers"])
        values["trace.overhead_s"] = (statistics.median(result["traced_pass_s"])
                                      - statistics.median(plain))
    else:
        kind = "end_to_end"
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(plain),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
                  "fail_frac": smoothed_fail_frac(result["ops"]),
                  "hermite_err": result["extras"]["hermite_err"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "samples": {"setup_s": setups, "run_s": plain,
                    "traced_run_s": result["traced_pass_s"],
                    "warmup_s": result["warmup_s"]},
        "run_s_count": len(plain), "run_s_min": min(plain),
        "run_s_max": max(plain),
        "failed_ops": [name for p in ops for name, ok in p if not ok],
        "trace_ok": not trace_failed if args.trace else None,
        "trace_failed": trace_failed,
        "extras": result["extras"], "spans": result.get("spans"),
        "provenance": provenance(args, result["versions"]),
    }
    out = Path(args.out) if args.out else RESULTS_DIR / "results.jsonl"
    with open(out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name in record["failed_ops"]:
        print(f"FAILED: {name}")
    for name in trace_failed:
        print(f"TRACE CHECK FAILED: {name}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    if not SPEC_FILE.is_file() or \
            not (ROOT / "src" / "oulab" / "__init__.py").is_file():
        print(f"error: {ROOT} is not an oulab checkout (needs "
              "BENCHMARK.json and src/oulab)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test only)")
    parser.add_argument("--out", help="append the result record here")
    args = parser.parse_args(argv)
    try:
        line = run(args, spec)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
