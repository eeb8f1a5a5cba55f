"""Compare two result files per (workload, metric), or list one.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

A result file holds one JSON record per run (``run.py`` appends them).
Each row gives each side's median, quartiles and spread,
(q3 - q1) / median. With two files it adds the ratio CHANGE/BASE with its
base and, for end-to-end metrics, a verdict against the metric's bound in
``BENCHMARK.json``:

- ``improved``: the change is better by more than the base's own spread
  and wins at least 9 in 10 of the runs paired by seed, or every change
  run beats every base run;
- ``worse``: the change's median is worse than the base's by more than
  the bound;
- ``unresolved``: either side spreads wider than the bound, and neither
  side beats every run of the other;
- ``within bound``: none of the above.

Per-layer metrics have no bound; their rows show the ratio only. A last
row per workload counts failed correctness operations; it reads ``worse``
when any CHANGE run failed one and no BASE run did.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, metric): {seed: value}} and {workload: [failed, attempted]}
    from one result file."""
    out = defaultdict(dict)
    failed = defaultdict(lambda: [0, 0])
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                out[(rec["workload"], name)][rec["seed"]] = m["value"]
            failed[rec["workload"]][0] += rec["failed"]
            failed[rec["workload"]][1] += rec["attempted"]
    return out, failed


def stats(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(base, change, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    mb, _, _, spread_b = stats(base.values())
    mc, _, _, spread_c = stats(change.values())
    if not mb:
        return "unresolved"
    worse_by = sign * (mc - mb) / abs(mb)
    better = [sign * c < sign * b for b in base.values()
              for c in change.values()]
    if all(better):
        return "improved"
    if not any(better) and worse_by > bound:
        return "worse"
    if max(spread_b, spread_c) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    paired = [sign * change[s] < sign * base[s] for s in base if s in change]
    wins = sum(paired) >= 0.9 * len(paired) if paired else False
    if -worse_by > spread_b and wins:
        return "improved"
    return "within bound"


def fmt(x):
    return f"{x:.4g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides, failed = zip(*(load(p) for p in argv))
    keys = sorted(set().union(*sides),
                  key=lambda k: (k[0], list(metrics).index(k[1])
                                 if k[1] in metrics else len(metrics)))
    worst = 0
    for key in keys:
        m = metrics.get(key[1], {"unit": "?", "better": "lower"})
        bound = m.get("bound")
        cols = [f"{key[0]:16s} {key[1]:42s}"]
        for side in sides:
            if key in side:
                med, q1, q3, spread = stats(side[key].values())
                cols.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] {m['unit']}"
                            f" n={len(side[key])} spread={spread:.3f}")
            else:
                cols.append("-")
        if len(sides) == 2 and key in sides[0] and key in sides[1]:
            mb = stats(sides[0][key].values())[0]
            mc = stats(sides[1][key].values())[0]
            ratio = f"ratio={mc / mb:.3f} of base {fmt(mb)}" if mb else \
                "ratio=n/a"
            cols.append(ratio)
            if bound is not None:
                v = verdict(sides[0][key], sides[1][key], bound,
                            m["better"] == "lower")
                worst = max(worst, v in ("worse", "unresolved"))
                cols.append(v)
        print("  ".join(cols))
    for workload in sorted(set().union(*failed)):
        cols = [f"{workload:16s} {'failed operations':42s}"]
        cols += [f"{f[workload][0]} of {f[workload][1]}" if workload in f
                 else "-" for f in failed]
        if len(failed) == 2 and all(workload in f for f in failed):
            regressed = (failed[1][workload][0] > 0
                         and failed[0][workload][0] == 0)
            worst = max(worst, regressed)
            cols.append("worse" if regressed else "ok")
        print("  ".join(cols))
    return worst


if __name__ == "__main__":
    sys.exit(main())
