"""Batch front-end.

``oulab verify|spectrum|evolve|converge [config] [--seed N] [--out DIR]
[--jobs N]`` loads a JSON run configuration (the bundled default when the
path is omitted), executes the configured work, and writes CSV artifacts
plus a human-readable summary. Exit codes: 0 all checks pass, 1 some check
failed, 2 configuration error.

Output is deterministic: the same config and seed produce byte-identical
files regardless of ``--jobs``, and every CSV row carries the engine,
budget, and seed needed to reproduce it in isolation.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import (BUDGET_FORMATS, CHECK_KINDS, ENGINE_DEFAULTS,
                     ConfigError, RunConfig, _floats, grid_operator,
                     load_config, load_default_config)
from .cylapprox import convergence_study
from .domains import Ball
from .engines.grid import grid_apply, grid_spectrum
from .gauss import MassTooSmall
from .inequalities import BelowFloor


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv(rows, header) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        map(_fmt, row) for row in [header, *rows])
    return buf.getvalue()


def _run_one_check(cfg: RunConfig, index: int, check: dict):
    kind = CHECK_KINDS[check["kind"]]
    b = cfg.budgets[index]
    try:
        reports = kind.run(b, cfg.domain(check[kind.domain_key]),
                           *(cfg.function(check[k])
                             for k in kind.function_keys))
    except (BelowFloor, MassTooSmall) as err:
        # the function does not suit the check's kind, or the domain has
        # too little Gaussian mass (a sampler's first batch sees that)
        raise ConfigError(f"check {index}: {err}") from None
    budget = BUDGET_FORMATS[b.engine].format(**vars(b))
    return reports, b.engine, budget, b.seed


def run_checks(cfg: RunConfig, jobs: int = 1):
    """Execute all configured checks; returns rows for reports.csv."""
    def work(item):
        index, check = item
        return (index, check, *_run_one_check(cfg, index, check))

    items = list(enumerate(cfg.checks))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(work, items))
    else:
        results = [work(item) for item in items]

    rows = []
    reports_flat = []
    for index, check, reports, engine, budget, seed in results:
        for j, rep in enumerate(reports):
            label = f"{index}.{j}:{check['kind']}"
            rows.append((label, rep.name, rep.lhs, rep.rhs, rep.margin,
                         rep.tolerance, rep.passed, engine, budget, seed))
            reports_flat.append((label, rep))
    return rows, reports_flat


REPORT_HEADER = ("check", "name", "lhs", "rhs", "margin", "tolerance",
                 "pass", "engine", "budget", "seed")


def cmd_verify(cfg: RunConfig, out_dir: str, jobs: int = 1) -> int:
    rows, reports = run_checks(cfg, jobs=jobs)
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "reports.csv"),
                  _csv(rows, REPORT_HEADER))
    all_pass = all(rep.passed for _, rep in reports)
    lines = [f"{label}  {rep}" for label, rep in reports]
    lines.append(f"total: {len(reports)} checks, "
                 f"{sum(1 for _, r in reports if r.passed)} passed")
    lines.append("RESULT: PASS" if all_pass else "RESULT: FAIL")
    _write_atomic(os.path.join(out_dir, "summary.txt"), "\n".join(lines) + "\n")
    return 0 if all_pass else 1


# the keys each command reads from its section; any other is a mistake
_SECTION_KEYS = {
    "spectrum": {"domains", "count", "resolution"},
    "evolve": {"domain", "function", "times", "resolution"},
    "converge": {"ball", "function", "t", "sides", "points",
                 "paths_per_point", "step", "mass_samples"},
}


def _command_section(cfg: RunConfig, name: str) -> dict:
    spec = getattr(cfg, name)
    unknown = set(spec) - _SECTION_KEYS[name]
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    return spec


def _function_on(cfg: RunConfig, section: str, name, dom):
    fn = cfg.function(name)
    if fn.dim != dom.dim:
        raise ConfigError(f"{section}: function dimension {fn.dim} does not "
                          f"match domain dimension {dom.dim}")
    return fn


def cmd_spectrum(cfg: RunConfig, out_dir: str) -> int:
    spec = _command_section(cfg, "spectrum")
    names = spec.get("domains", list(cfg.domains))
    if not isinstance(names, list):
        raise ConfigError("spectrum: 'domains' must be an array")
    count = cfg.option("spectrum", "count", int, 4)
    res = spec.get("resolution", cfg.budget("grid_resolution"))
    rows = []
    for name in names:
        op = grid_operator(cfg.domain(name), res, cfg.budget("tail_mass"),
                           f"spectrum: domain {name!r}: ")
        result = grid_spectrum(op, count)
        for i, lam in enumerate(result.eigenvalues):
            rows.append((name, i, float(lam), result.gap, "grid",
                         f"resolution={res}", cfg.seed))
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "eigenvalues.csv"),
                  _csv(rows, ("domain", "index", "eigenvalue", "gap",
                              "engine", "budget", "seed")))
    return 0


def cmd_evolve(cfg: RunConfig, out_dir: str) -> int:
    spec = _command_section(cfg, "evolve")
    dom = cfg.domain(spec.get("domain"))
    fn = _function_on(cfg, "evolve", spec.get("function"), dom)
    times = cfg.option("evolve", "times", _floats, [0.0, 0.5, 1.0])
    steps = cfg.option("engine", "cn_steps", int, ENGINE_DEFAULTS["cn_steps"])
    res = spec.get("resolution", cfg.budget("grid_resolution"))
    op = grid_operator(dom, res, cfg.budget("tail_mass"),
                       f"evolve: domain {spec['domain']!r}: ")
    u0 = op.sample(fn)
    rows = []
    for t in times:
        u_t = grid_apply(op, u0, t, n_steps=steps)
        for i in range(op.n_nodes):
            x2 = float(op.nodes[i, 1]) if op.dim == 2 else ""
            rows.append((spec["domain"], spec["function"], t, i,
                         float(op.nodes[i, 0]), x2, float(u_t[i]), "grid",
                         f"resolution={res}", cfg.seed))
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "evolution.csv"),
                  _csv(rows, ("domain", "function", "t", "node", "x1", "x2",
                              "value", "engine", "budget", "seed")))
    return 0


def cmd_converge(cfg: RunConfig, out_dir: str) -> int:
    spec = _command_section(cfg, "converge")
    ball = cfg.domain(spec.get("ball"))
    if not isinstance(ball, Ball) or ball.dim != 2:
        raise ConfigError(f"converge: 'ball' must name a 2D ball, "
                          f"got {spec.get('ball')!r}")
    fn = _function_on(cfg, "converge", spec.get("function"), ball)
    sides = [int(n) for n in cfg.option("converge", "sides", _floats,
                                        [4, 8, 16, 32, 64])]
    study = convergence_study(
        ball, fn, cfg.option("converge", "t", float, 0.5), sides,
        n_points=cfg.option("converge", "points", int, 20),
        paths_per_point=cfg.option("converge", "paths_per_point", int, 5000),
        h=cfg.option("converge", "step", float, cfg.budget("mc_step")),
        seed=cfg.seed,
        mass_samples=cfg.option("converge", "mass_samples", int, 200_000))
    rows = [(s, e, se, m, "monte_carlo",
             f"paths_per_point={study.details['paths_per_point']};"
             f"h={study.details['h']}", cfg.seed)
            for (s, e, se, m) in study.csv_rows()]
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "convergence.csv"),
                  _csv(rows, ("sides", "error", "std_error", "excess_mass",
                              "engine", "budget", "seed")))
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oulab",
        description="verify semigroup inequalities and export spectra, "
                    "snapshots, and convergence tables")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None,
                       help="path to a JSON run configuration "
                            "(bundled default when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--out", default=None,
                       help="override the configured output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="run independent checks in parallel")
    args = parser.parse_args(argv)

    try:
        cfg = load_default_config(args.seed) if args.config is None \
            else load_config(args.config, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else cfg.output_dir
    try:
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, jobs=max(1, args.jobs))
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
