"""Run configuration: one JSON file describing domains, functions, engine
budgets, and the list of checks and studies to execute.

Domain and function descriptions round-trip exactly through their
``to_config`` dictionaries. Parse failures raise ``ConfigError`` carrying
a line/column diagnostic when one is available.
"""
from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .cylapprox import factorization_check
from .domains import ConvexDomain, domain_from_config
from .expr import CylFunction, DslError, function_from_config
from .inequalities import (check_decay, check_entropy, check_gradient_bound,
                           check_invariance, check_logsob, check_poincare,
                           check_positivity_and_contraction,
                           check_submultiplicative)

ENGINE_DEFAULTS = {
    "samples": 100_000,
    "mc_paths": 20_000,
    "mc_step": 2e-3,
    "grid_resolution": 200,
    "tail_mass": 1e-12,
    "cn_steps": 200,
}


CheckKind = namedtuple("CheckKind", "domain_key function_keys engines run")

# One row per check kind: the key naming its domain, the keys naming its
# functions, its engine labels (the first is the default) and its runner.
# A runner takes the check c, its budgets b (built by
# ``cli._run_one_check``), the domain d and the functions, and returns a
# list of reports.
CHECK_KINDS = {
    "poincare": CheckKind(
        "domain", ("function",), ("sampled",),
        lambda c, b, d, f: [check_poincare(f, d, b.samples, b.seed)]),
    "log_sobolev": CheckKind(
        "domain", ("function",), ("sampled",),
        lambda c, b, d, f: [check_logsob(f, d, b.samples, b.seed)]),
    "gradient_bound": CheckKind(
        "domain", ("function",), ("grid",),
        lambda c, b, d, f: [check_gradient_bound(
            f, d, b.t, resolution=b.res, n_steps=b.cn_steps)]),
    "submultiplicative": CheckKind(
        "domain", ("function", "function2"), ("monte_carlo",),
        lambda c, b, d, f, g: [check_submultiplicative(
            f, g, d, b.t, n_panel=int(c.get("panel", 10)), n_paths=b.paths,
            h=b.step, seed=b.seed)]),
    "invariance": CheckKind(
        "domain", ("function",), ("monte_carlo", "grid"),
        lambda c, b, d, f: [check_invariance(
            f, d, b.t, engine=b.engine, n_paths=b.paths, h=b.step,
            resolution=b.res, seed=b.seed)]),
    "decay": CheckKind(
        "domain", ("function",), ("grid",),
        lambda c, b, d, f: check_decay(
            f, d, [float(v) for v in c.get("times", [0.5, 1.0])],
            resolution=b.res)),
    "positivity_contraction": CheckKind(
        "domain", ("function",), ("grid",),
        lambda c, b, d, f: [check_positivity_and_contraction(
            f, d, b.t, resolution=b.res)]),
    "entropy": CheckKind(
        "domain", ("function",), ("grid",),
        lambda c, b, d, f: check_entropy(
            f, d, [float(v) for v in c.get("times", np.linspace(0, 4, 21))],
            resolution=b.res, floor=float(c.get("floor", 1e-6)))),
    "factorization": CheckKind(
        "base", ("function",), ("monte_carlo+grid",),
        lambda c, b, d, f: [factorization_check(
            f, d, int(c.get("free_dims", 1)), b.t,
            n_points=int(c.get("points", 10)), n_paths=b.paths, h=b.step,
            resolution=b.res, seed=b.seed)]),
}

# the budget column of reports.csv, by engine label
BUDGET_FORMATS = {
    "sampled": "samples={samples}",
    "grid": "resolution={res}",
    "monte_carlo": "paths={paths};h={step}",
    "monte_carlo+grid": "paths={paths};h={step};resolution={res}",
}


class ConfigError(ValueError):
    """Configuration problem, with an optional line/column position."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass
class RunConfig:
    seed: int
    output_dir: str
    domains: dict
    functions: dict
    engine: dict
    checks: list = field(default_factory=list)
    spectrum: dict = field(default_factory=dict)
    evolve: dict = field(default_factory=dict)
    converge: dict = field(default_factory=dict)

    def domain(self, name: str) -> ConvexDomain:
        try:
            return self.domains[name]
        except KeyError:
            raise ConfigError(f"unknown domain {name!r}") from None

    def function(self, name: str) -> CylFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise ConfigError(f"unknown function {name!r}") from None

    def budget(self, key: str, check: dict | None = None):
        if check is not None and key in check:
            return check[key]
        return self.engine.get(key, ENGINE_DEFAULTS[key])


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err.msg}", err.lineno, err.colno) \
            from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    domains = {}
    for name, cfg in _section(raw, "domains", {}).items():
        try:
            domains[name] = domain_from_config(cfg)
        except (ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"domain {name!r}: {err}") from None
    functions = {}
    for name, cfg in _section(raw, "functions", {}).items():
        try:
            functions[name] = function_from_config(cfg)
        except DslError as err:
            raise ConfigError(f"function {name!r}: {err}") from None
        except (ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"function {name!r}: {err}") from None

    checks = _section(raw, "checks", [])
    for i, check in enumerate(checks):
        if not isinstance(check, dict):
            raise ConfigError(f"check {i}: must be a JSON object")
        kind = _named(CHECK_KINDS, check.get("kind"))
        if kind is None:
            raise ConfigError(f"check {i}: unknown kind {check.get('kind')!r}")
        engine = check.get("engine", kind.engines[0])
        if engine not in kind.engines:
            raise ConfigError(f"check {i}: unknown engine {engine!r}")
        name = check.get(kind.domain_key)
        dom = _named(domains, name)
        if dom is None:
            raise ConfigError(f"check {i}: unknown domain {name!r} "
                              f"in {kind.domain_key!r}")
        for key in kind.function_keys:
            fn = _named(functions, check.get(key))
            if fn is None:
                raise ConfigError(f"check {i}: unknown function "
                                  f"{check.get(key)!r} in {key!r}")
            if fn.dim != dom.dim:
                raise ConfigError(
                    f"check {i}: function dimension {fn.dim} does not match "
                    f"domain dimension {dom.dim}")

    return RunConfig(
        seed=int(raw.get("seed", 0)),
        output_dir=str(raw.get("output_dir", "out")),
        domains=domains,
        functions=functions,
        engine=_section(raw, "engine", {}),
        checks=checks,
        spectrum=_section(raw, "spectrum", {}),
        evolve=_section(raw, "evolve", {}),
        converge=_section(raw, "converge", {}),
    )


def _section(raw: dict, key: str, default):
    value = raw.get(key, default)
    if type(value) is not type(default):
        what = "an array" if isinstance(default, list) else "an object"
        raise ConfigError(f"{key!r} must be {what}")
    return value


def _named(table: dict, name):
    """The entry a config string names, or None (for non-strings too)."""
    return table.get(name) if isinstance(name, str) else None


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    return parse_config(text)


def default_config_text() -> str:
    """The bundled configuration exercising the canonical panel."""
    return resources.files("oulab").joinpath("data/default.json").read_text()


def load_default_config() -> RunConfig:
    return parse_config(default_config_text())
