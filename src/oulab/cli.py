"""Batch front-end.

``oulab verify|spectrum|evolve|converge [config] [--seed N] [--out DIR]
[--jobs N]`` loads a JSON run configuration (the bundled default when the
path is omitted), executes the configured work, and writes CSV artifacts
plus a human-readable summary. Exit codes: 0 all checks pass, 1 some check
failed, 2 configuration error: malformed JSON, an unknown name or key, or a
setting out of its range (see ``config``), and ``--jobs`` below 1.

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

from .config import (BUDGET_FORMATS, CHECK_KINDS, ConfigError, RunConfig,
                     grid_operator, load_config, load_default_config)
from .cylapprox import convergence_study
from .domains import Ball, EmptyDomain
from .engines.grid import grid_apply, grid_spectrum
from .gauss import MassTooSmall
from .inequalities import BelowFloor


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write(out_dir: str, name: str, text: str) -> None:
    """Write ``out_dir/name`` whole: a temporary file, then a rename."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv(rows, header) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        map(_fmt, row) for row in [header, *rows])
    return buf.getvalue()


def _run_one_check(cfg: RunConfig, index: int) -> list:
    b = cfg.budgets[index]
    try:
        return CHECK_KINDS[b.kind].run(b, *b.args)
    except (BelowFloor, MassTooSmall, EmptyDomain) as err:
        # the function does not suit the check's kind, or the domain has
        # too little Gaussian mass (a sampler's first batch sees that) or
        # none inside the box a 1D check integrates over
        raise ConfigError(f"check {index}: {err}") from None


def run_checks(cfg: RunConfig, jobs: int):
    """Execute all configured checks; returns rows for reports.csv."""
    indices = range(len(cfg.budgets))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda i: _run_one_check(cfg, i),
                                    indices))
    else:
        results = [_run_one_check(cfg, i) for i in indices]

    rows = []
    reports_flat = []
    for index, (b, reports) in enumerate(zip(cfg.budgets, results)):
        budget = BUDGET_FORMATS[b.engine].format(**vars(b))
        for j, rep in enumerate(reports):
            label = f"{index}.{j}:{b.kind}"
            rows.append((label, rep.name, rep.lhs, rep.rhs, rep.margin,
                         rep.tolerance, rep.passed, b.engine, budget, b.seed))
            reports_flat.append((label, rep))
    return rows, reports_flat


REPORT_HEADER = ("check", "name", "lhs", "rhs", "margin", "tolerance",
                 "pass", "engine", "budget", "seed")


def cmd_verify(cfg: RunConfig, out_dir: str, jobs: int) -> int:
    rows, reports = run_checks(cfg, jobs)
    _write(out_dir, "reports.csv", _csv(rows, REPORT_HEADER))
    all_pass = all(rep.passed for _, rep in reports)
    lines = [f"{label}  {rep}" for label, rep in reports]
    lines.append(f"total: {len(reports)} checks, "
                 f"{sum(1 for _, r in reports if r.passed)} passed")
    lines.append("RESULT: PASS" if all_pass else "RESULT: FAIL")
    _write(out_dir, "summary.txt", "\n".join(lines) + "\n")
    return 0 if all_pass else 1


def cmd_spectrum(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.section("spectrum")
    res = spec["resolution"]
    # every name is looked up before the first spectrum is computed
    domains = [(name, cfg.domain_at(name, "spectrum: 'domains': "))
               for name in spec["domains"]]
    rows = []
    for name, dom in domains:
        op = grid_operator(dom, res, cfg.engine["tail_mass"],
                           f"spectrum: domain {name!r}: ")
        result = grid_spectrum(op, spec["count"])
        for i, lam in enumerate(result.eigenvalues):
            rows.append((name, i, float(lam), result.gap, "grid",
                         f"resolution={res}", cfg.seed))
    _write(out_dir, "eigenvalues.csv",
           _csv(rows, ("domain", "index", "eigenvalue", "gap", "engine",
                       "budget", "seed")))
    return 0


def cmd_evolve(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.section("evolve")
    dom = cfg.domain_at(spec["domain"], "evolve: 'domain': ")
    fn = cfg.function_on(spec["function"], dom, "evolve: 'function': ")
    res = spec["resolution"]
    op = grid_operator(dom, res, cfg.engine["tail_mass"],
                       f"evolve: domain {spec['domain']!r}: ")
    u0 = op.sample(fn)
    rows = []
    for t in spec["times"]:
        u_t = grid_apply(op, u0, t, n_steps=cfg.engine["cn_steps"])
        for i in range(op.n_nodes):
            x2 = float(op.nodes[i, 1]) if op.dim == 2 else ""
            rows.append((spec["domain"], spec["function"], t, i,
                         float(op.nodes[i, 0]), x2, float(u_t[i]), "grid",
                         f"resolution={res}", cfg.seed))
    _write(out_dir, "evolution.csv",
           _csv(rows, ("domain", "function", "t", "node", "x1", "x2",
                       "value", "engine", "budget", "seed")))
    return 0


def cmd_converge(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.section("converge")
    ball = cfg.domain_at(spec["ball"], "converge: 'ball': ")
    if not isinstance(ball, Ball) or ball.dim != 2:
        raise ConfigError(f"converge: 'ball' must name a 2D ball, "
                          f"got {spec['ball']!r}")
    study = convergence_study(
        ball, cfg.function_on(spec["function"], ball,
                              "converge: 'function': "),
        spec["t"], spec["sides"], n_points=spec["points"],
        paths_per_point=spec["paths_per_point"], h=spec["step"],
        seed=cfg.seed, mass_samples=spec["mass_samples"])
    rows = [(s, e, se, m, "monte_carlo",
             f"paths_per_point={study.details['paths_per_point']};"
             f"h={study.details['h']}", cfg.seed)
            for (s, e, se, m) in study.csv_rows()]
    _write(out_dir, "convergence.csv",
           _csv(rows, ("sides", "error", "std_error", "excess_mass",
                       "engine", "budget", "seed")))
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "converge": cmd_converge,
}


def _jobs(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


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
        p.add_argument("--jobs", type=_jobs, default=1,
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
            return cmd_verify(cfg, out_dir, args.jobs)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
