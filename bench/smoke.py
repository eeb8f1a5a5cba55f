"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 bench/smoke.py

Checks that each run exits 0 and that its last line has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, with exactly the
metric names and units that ``BENCHMARK.json`` lists for the mode, each a
finite number. It does not judge correctness: the tiny sizes are too small
for some statistical checks. Not part of the test suite, so it cannot slow
it down.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec, workload: str, trace: int) -> list:
    kind = "per_layer" if trace else "end_to_end"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
           "--out", str(ROOT / ".bench_results" / "smoke.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if not (isinstance(line.get("attempted"), int) and line["attempted"] >= 1
            and isinstance(line.get("failed"), int)):
        problems.append("attempted/failed are not whole numbers")
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = line.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
