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
from types import SimpleNamespace

import numpy as np

from .cylapprox import factorization_check
from .domains import (ConvexDomain, EmptyDomain, UnsupportedDimension,
                      domain_from_config)
from .engines.grid import (DEFAULT_CN_STEPS, DEFAULT_TAIL_MASS, GridOperator,
                           grid_build)
from .engines.types import ResolutionTooCoarse
from .expr import CylFunction, function_from_config
from .inequalities import (check_decay, check_entropy, check_gradient_bound,
                           check_invariance, check_logsob, check_poincare,
                           check_positivity_and_contraction,
                           submultiplicative_reports)

ENGINE_DEFAULTS = {
    "samples": 100_000,
    "mc_paths": 20_000,
    "mc_step": 2e-3,
    "grid_resolution": 200,
    "tail_mass": DEFAULT_TAIL_MASS,
    "cn_steps": DEFAULT_CN_STEPS,
}

# what each numeric setting accepts; _number checks each value or list entry,
# and that a list holds at least one entry (two for an entropy check's
# times: its production is a difference quotient between times)
_RANGES = {
    **dict.fromkeys(("samples", "mc_paths", "mc_step", "cn_steps", "panel",
                     "points", "paths_per_point", "step", "count",
                     "mass_samples"),
                    (lambda v: v > 0, "positive")),
    **dict.fromkeys(("seed", "t", "times"),
                    (lambda v: v >= 0, "nonnegative")),
    "tail_mass": (lambda v: 0 < v < 1, "in (0, 1)"),
    "sides": (lambda v: v >= 3 and v.is_integer(), "integers >= 3"),
}


def _floats(values) -> list:
    return [float(v) for v in values]


def grid_operator(domain: ConvexDomain, resolution, tail_mass: float,
                  where: str) -> GridOperator:
    """``grid_build`` for every command and check, with a config's mesh
    problems (resolution, dimension, too few cells, no interior) as
    ``ConfigError``."""
    cells = np.asarray(resolution)
    if (cells.dtype.kind not in "iu" or cells.ndim > 1
            or cells.size not in (1, domain.dim) or np.any(cells < 1)):
        raise ConfigError(f"{where}resolution must be one integer >= 1 or "
                          f"one per axis, got {resolution!r}")
    try:
        return grid_build(domain, cells, tail_mass)
    except (UnsupportedDimension, ResolutionTooCoarse, EmptyDomain) as err:
        raise ConfigError(f"{where}{err}") from None


CheckKind = namedtuple(
    "CheckKind", "domain_key function_keys engines run options dim",
    defaults=({}, None))

# One row per check kind: the key naming its domain, the keys naming its
# functions, its engine labels (the first is the default), its runner, the
# check keys only this kind reads (key -> (conversion, default), and for a
# list optionally its fewest entries) and the domain dimension it needs
# (None for any). A check names no key beyond these and _BUDGET_KEYS. A
# runner takes the check's budgets b (built by ``_budgets`` at parse time),
# the domain d and the functions, and returns a list of reports; b.grid(d)
# is d's grid. Decay and factorization keep DEFAULT_CN_STEPS: their
# tolerances have no dt term.
CHECK_KINDS = {
    "poincare": CheckKind(
        "domain", ("function",), ("sampled",),
        lambda b, d, f: [check_poincare(f, d, b.samples, b.seed)]),
    "log_sobolev": CheckKind(
        "domain", ("function",), ("sampled",),
        lambda b, d, f: [check_logsob(f, d, b.samples, b.seed)]),
    "gradient_bound": CheckKind(
        "domain", ("function",), ("grid",),
        lambda b, d, f: [check_gradient_bound(
            f, d, b.t, n_steps=b.cn_steps, op=b.grid(d))]),
    "submultiplicative": CheckKind(
        "domain", ("function", "function2"), ("monte_carlo",),
        lambda b, d, f, g: submultiplicative_reports(
            [(f, g)], d, b.t, n_panel=b.panel, n_paths=b.paths, h=b.step,
            seed=b.seed),
        options={"panel": (int, 10)}),
    "invariance": CheckKind(
        "domain", ("function",), ("monte_carlo", "grid"),
        lambda b, d, f: [check_invariance(
            f, d, b.t, engine=b.engine, n_paths=b.paths, h=b.step,
            n_steps=b.cn_steps, seed=b.seed,
            op=b.grid(d) if b.engine == "grid" else None)]),
    "decay": CheckKind(
        "domain", ("function",), ("grid",),
        lambda b, d, f: check_decay(f, d, b.times, op=b.grid(d)),
        options={"times": (_floats, [0.5, 1.0])}),
    "positivity_contraction": CheckKind(
        "domain", ("function",), ("grid",),
        lambda b, d, f: [check_positivity_and_contraction(
            f, d, b.t, op=b.grid(d))]),
    "entropy": CheckKind(
        "domain", ("function",), ("grid",),
        lambda b, d, f: check_entropy(f, d, b.times, floor=b.floor,
                                      op=b.grid(d)),
        options={"times": (_floats, np.linspace(0, 4, 21), 2),
                 "floor": (float, 1e-6)}),
    "factorization": CheckKind(
        "base", ("function",), ("monte_carlo+grid",),
        lambda b, d, f: [factorization_check(
            f, d, b.free_dims, b.t, op=b.grid(d), n_points=b.points,
            n_paths=b.paths, h=b.step, seed=b.seed)],
        options={"free_dims": (int, 1), "points": (int, 10)},
        dim=1),
}

# the check keys every kind reads (see _budgets)
_BUDGET_KEYS = {"kind", "engine", "seed", "t", "samples", "mc_paths",
               "mc_step", "grid_resolution", "cn_steps"}

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
    budgets: list = field(default_factory=list)
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

    def option(self, section: str, key: str, convert, default):
        """``convert`` of ``key`` in a section (``spectrum``, ``evolve``,
        ``converge`` or ``engine``), or of ``default`` when it is absent;
        a ``ConfigError`` naming the section and key when that fails."""
        return _number(convert, getattr(self, section).get(key, default),
                       key, f"{section}: ")


def parse_config(text: str, seed: int | None = None) -> RunConfig:
    """Parse and check a run configuration; ``seed``, when given, replaces
    the configured one (the CLI's ``--seed``)."""
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
        except (ValueError, KeyError, TypeError) as err:  # DslError too
            raise ConfigError(f"function {name!r}: {err}") from None

    raw_seed = _number(int, raw.get("seed", 0), "seed")
    seed = raw_seed if seed is None else _number(int, seed, "seed", "--seed: ")
    engine = _section(raw, "engine", {})
    # converted and range-checked once, for every check and command
    engine["tail_mass"] = _number(float, engine.get(
        "tail_mass", DEFAULT_TAIL_MASS), "tail_mass", "engine: ")
    checks = _section(raw, "checks", [])
    budgets = []
    for i, check in enumerate(checks):
        if not isinstance(check, dict):
            raise ConfigError(f"check {i}: must be a JSON object")
        kind = _named(CHECK_KINDS, check.get("kind"))
        if kind is None:
            raise ConfigError(f"check {i}: unknown kind {check.get('kind')!r}")
        unknown = set(check) - _BUDGET_KEYS - set(kind.options) - {
            kind.domain_key, *kind.function_keys}
        if unknown:
            raise ConfigError(f"check {i}: unknown keys {sorted(unknown)}")
        b = _budgets(check, kind, engine, seed + 1000 * i, f"check {i}: ")
        if b.engine not in kind.engines:
            raise ConfigError(f"check {i}: unknown engine {b.engine!r}")
        name = check.get(kind.domain_key)
        dom = _named(domains, name)
        if dom is None:
            raise ConfigError(f"check {i}: unknown domain {name!r} "
                              f"in {kind.domain_key!r}")
        if kind.dim is not None and dom.dim != kind.dim:
            raise ConfigError(f"check {i}: {check['kind']} needs a "
                              f"{kind.dim} dimensional {kind.domain_key!r}")
        for key in kind.function_keys:
            fn = _named(functions, check.get(key))
            if fn is None:
                raise ConfigError(f"check {i}: unknown function "
                                  f"{check.get(key)!r} in {key!r}")
            if fn.dim != dom.dim:
                raise ConfigError(
                    f"check {i}: function dimension {fn.dim} does not match "
                    f"domain dimension {dom.dim}")
        budgets.append(b)

    return RunConfig(
        seed=seed,
        output_dir=str(raw.get("output_dir", "out")),
        domains=domains,
        functions=functions,
        engine=engine,
        checks=checks,
        budgets=budgets,
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


def _budgets(check: dict, kind: CheckKind, engine: dict, seed: int,
             where: str) -> SimpleNamespace:
    """A check's budgets and its kind's options, converted once: the
    namespace its runner reads."""
    def value(key, convert, default, least=1):
        return _number(convert, check.get(key, default), key, where, least)

    def budget(key, convert=lambda v: v):
        return value(key, convert, engine.get(key, ENGINE_DEFAULTS[key]))

    b = SimpleNamespace(
        seed=value("seed", int, seed), t=value("t", float, 0.5),
        engine=check.get("engine", kind.engines[0]),
        samples=budget("samples", int), paths=budget("mc_paths", int),
        step=budget("mc_step", float), res=budget("grid_resolution"),
        cn_steps=budget("cn_steps", int),
        grid=lambda d: grid_operator(d, b.res, engine["tail_mass"], where),
        **{key: value(key, *option) for key, option in kind.options.items()})
    return b


def _number(convert, value, key: str, where: str = "", least: int = 1):
    """``convert(value)``, or a ``ConfigError`` naming ``key`` when that
    fails, lists fewer than ``least`` entries or leaves ``_RANGES``."""
    try:
        result = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}{key!r} must be numeric, got {value!r}") \
            from None
    listed = isinstance(result, list)
    if listed and len(result) < least:
        raise ConfigError(f"{where}{key!r} needs {least} or more values")
    accepts, text = _RANGES.get(key, (lambda v: True, ""))
    if not all(map(accepts, result if listed else [result])):
        raise ConfigError(f"{where}{key!r} must be {text}, got {value!r}")
    return result


def _named(table: dict, name):
    """The entry a config string names, or None (for non-strings too)."""
    return table.get(name) if isinstance(name, str) else None


def load_config(path: str, seed: int | None = None) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    return parse_config(text, seed)


def default_config_text() -> str:
    """The bundled configuration exercising the canonical panel."""
    return resources.files("oulab").joinpath("data/default.json").read_text()


def load_default_config(seed: int | None = None) -> RunConfig:
    return parse_config(default_config_text(), seed)
