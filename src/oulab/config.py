"""Run configuration: one JSON file describing domains, functions, engine
budgets, and the list of checks and studies to execute.

A key stands in one of four places, each with a table of its keys and
defaults: the top level (``TOP_LEVEL``), the ``engine`` section
(``ENGINE_DEFAULTS``), a check and a command section (``SECTIONS``). A
check takes ``kind``, ``engine``, the key naming its domain, the one
``function`` it checks, its kind's ``options`` and only the settings its
engine reads, which ``CHECK_KINDS`` lists and the ``engine`` section
defaults.
``_SETTINGS`` declares once, for every place, how each numeric setting is
converted and what it accepts; integer settings refuse fractional values.
One reader, ``_read``, serves every place: it rejects keys its table does
not name, fills in the defaults, and converts and checks each number. The
top level, ``engine`` and each check are read when the config is parsed; a
command section is read when its command runs (``RunConfig.section``).

A check's ``budget`` (the column of ``reports.csv``) is its values of the
``ENGINE_DEFAULTS`` keys its engine reads, in ``CHECK_KINDS`` order, as
``name=value`` joined by ``;``, with ``mc_paths``, ``mc_step`` and
``grid_resolution`` shortened to ``paths``, ``h`` and ``resolution``
(e.g. ``cn_steps=200;resolution=200``). A check integrated by a
quadrature rule reads none of them; its budget is the rule's nodes.

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
from .inequalities import (_rule, check_decay, check_entropy,
                           check_gradient_bound, check_invariance,
                           check_logsob, check_poincare,
                           check_positivity_and_contraction)

# the top level of a config: its keys and their defaults
TOP_LEVEL = {"seed": 0, "output_dir": "out", "domains": {}, "functions": {},
             "engine": {}, "checks": [], "spectrum": {}, "evolve": {},
             "converge": {}}

# the engine section: every check takes these as its defaults
ENGINE_DEFAULTS = {"samples": 100_000, "mc_paths": 20_000, "mc_step": 2e-3,
                   "grid_resolution": 200, "tail_mass": DEFAULT_TAIL_MASS,
                   "cn_steps": DEFAULT_CN_STEPS}


def _integer(value) -> int:
    """``int(value)``, refusing a fractional value instead of truncating."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _listed(convert):
    """A conversion of a nonempty array, entry by entry."""
    def listed(values) -> list:
        if not isinstance(values, list) or not values:
            raise ValueError(values)
        return [convert(v) for v in values]
    return listed


# every numeric setting, wherever it stands: key -> (conversion, what it
# accepts of a value or of each list entry, how the error says that)
_SETTINGS = {
    **dict.fromkeys(("cn_steps", "points", "count", "mass_samples",
                     "free_dims"),
                    (_integer, lambda v: v > 0, "a positive integer")),
    # a standard error needs two values; a variance's needs four
    **dict.fromkeys(("mc_paths", "paths_per_point"),
                    (_integer, lambda v: v >= 2, "an integer >= 2")),
    "samples": (_integer, lambda v: v >= 4, "an integer >= 4"),
    **dict.fromkeys(("mc_step", "step"),
                    (float, lambda v: v > 0, "a positive number")),
    **dict.fromkeys(("grid_resolution", "resolution"),
                    (lambda v: _listed(_integer)(v) if isinstance(v, list)
                     else _integer(v), lambda v: v > 0,
                     "one positive integer or one per axis")),
    "seed": (_integer, lambda v: v >= 0, "a nonnegative integer"),
    "t": (float, lambda v: v >= 0, "a nonnegative number"),
    "times": (_listed(float), lambda v: v >= 0,
              "one or more nonnegative numbers"),
    "tail_mass": (float, lambda v: 0 < v < 1, "a number in (0, 1)"),
    "sides": (_listed(_integer), lambda v: v >= 3, "integers >= 3"),
}


def grid_operator(domain: ConvexDomain, resolution, tail_mass: float,
                  where: str) -> GridOperator:
    """``grid_build`` for every command and check, with a config's mesh
    problems (cells per axis, dimension, too few cells, no interior) as
    ``ConfigError``."""
    if np.size(resolution) not in (1, domain.dim):
        raise ConfigError(f"{where}resolution must be one integer or one "
                          f"per axis, got {resolution!r}")
    try:
        return grid_build(domain, resolution, tail_mass)
    except (UnsupportedDimension, ResolutionTooCoarse, EmptyDomain) as err:
        raise ConfigError(f"{where}{err}") from None


CheckKind = namedtuple(
    "CheckKind", "domain_key engines run options dim fewest_times",
    defaults=({}, None, 0))

# One row per check kind: the key naming its domain, its engine labels (the
# first is the default), each with the settings its runner reads there and
# so the only ones a check takes, its runner, the check keys only this kind
# reads with their defaults, the domain dimension it needs (None for any)
# and the fewest distinct times. Every check names one function, under
# ``function``. A runner takes the check's settings b (read by ``_check``
# at parse time), the domain d and the function f, and returns a list of
# reports; b.grid(d) is d's grid at b.grid_resolution. Decay and
# factorization keep DEFAULT_CN_STEPS: their tolerances have no dt term.
CHECK_KINDS = {
    "poincare": CheckKind(
        "domain", {"sampled": ("samples", "seed")},
        lambda b, d, f: [check_poincare(f, d, b.samples, b.seed)]),
    "log_sobolev": CheckKind(
        "domain", {"sampled": ("samples", "seed")},
        lambda b, d, f: [check_logsob(f, d, b.samples, b.seed)]),
    "gradient_bound": CheckKind(
        "domain", {"grid": ("t", "cn_steps", "grid_resolution")},
        lambda b, d, f: [check_gradient_bound(
            f, d, b.t, n_steps=b.cn_steps, op=b.grid(d))]),
    "invariance": CheckKind(
        "domain", {"monte_carlo": ("t", "mc_paths", "mc_step", "seed"),
                   "grid": ("t", "cn_steps", "grid_resolution")},
        lambda b, d, f: [check_invariance(
            f, d, b.t, "grid", n_steps=b.cn_steps, op=b.grid(d))
            if b.engine == "grid" else check_invariance(
                f, d, b.t, "monte_carlo", n_paths=b.mc_paths, h=b.mc_step,
                seed=b.seed)]),
    "decay": CheckKind(
        "domain", {"grid": ("grid_resolution",)},
        lambda b, d, f: check_decay(f, d, b.times, op=b.grid(d)),
        options={"times": [0.5, 1.0]}),
    "positivity_contraction": CheckKind(
        "domain", {"grid": ("t", "grid_resolution")},
        lambda b, d, f: [check_positivity_and_contraction(
            f, d, b.t, op=b.grid(d))]),
    # the production is a difference quotient between times
    "entropy": CheckKind(
        "domain", {"grid": ("grid_resolution",)},
        lambda b, d, f: check_entropy(f, d, b.times, op=b.grid(d)),
        options={"times": np.linspace(0, 4, 21).tolist()}, fewest_times=2),
    "factorization": CheckKind(
        "base", {"monte_carlo+grid": ("t", "mc_paths", "mc_step", "seed",
                                      "grid_resolution")},
        lambda b, d, f: [factorization_check(
            f, d, b.free_dims, b.t, op=b.grid(d), n_points=b.points,
            n_paths=b.mc_paths, h=b.mc_step, seed=b.seed)],
        options={"free_dims": 1, "points": 10},
        dim=1),
}

# each command section's keys and their defaults, some of them the
# config's own engine settings and domains
SECTIONS = {
    "spectrum": lambda cfg: {
        "domains": list(cfg.domains), "count": 4,
        "resolution": cfg.engine["grid_resolution"]},
    "evolve": lambda cfg: {
        "domain": None, "function": None, "times": [0.0, 0.5, 1.0],
        "resolution": cfg.engine["grid_resolution"]},
    "converge": lambda cfg: {
        "ball": None, "function": None, "t": 0.5, "sides": [4, 8, 16, 32, 64],
        "points": 20, "paths_per_point": 5000, "step": cfg.engine["mc_step"],
        "mass_samples": 200_000},
}

# the short names of engine settings in the budget column (``_check``)
_BUDGET_NAMES = {"mc_paths": "paths", "mc_step": "h",
                 "grid_resolution": "resolution"}


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
        return self.domain_at(name, "")

    def domain_at(self, name: str, where: str) -> ConvexDomain:
        """The domain ``name`` names, or a ``ConfigError`` that starts with
        ``where``, the place that names it."""
        return _lookup(self.domains, name, "domain", where)

    def function(self, name: str) -> CylFunction:
        return _lookup(self.functions, name, "function", "")

    def function_on(self, name: str, dom: ConvexDomain,
                    where: str) -> CylFunction:
        """The function ``name`` names, which must share ``dom``'s
        dimension."""
        fn = _lookup(self.functions, name, "function", where)
        if fn.dim != dom.dim:
            raise ConfigError(f"{where}function dimension {fn.dim} does not "
                              f"match domain dimension {dom.dim}")
        return fn

    def budget(self, key: str, check: dict | None = None):
        """An engine setting, or ``check``'s own value of it."""
        if check is not None and key in check:
            return check[key]
        return self.engine[key]

    def section(self, name: str) -> dict:
        """Command section ``name`` (``spectrum``, ``evolve`` or
        ``converge``) read through ``SECTIONS`` when its command runs."""
        return _read(getattr(self, name), SECTIONS[name](self), f"{name}: ")


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
    top = _read(raw, TOP_LEVEL, "")

    domains = {}
    for name, spec in top["domains"].items():
        try:
            domains[name] = domain_from_config(spec)
        except (ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"domain {name!r}: {err}") from None
    functions = {}
    for name, spec in top["functions"].items():
        try:
            functions[name] = function_from_config(spec)
        except (ValueError, KeyError, TypeError) as err:  # DslError too
            raise ConfigError(f"function {name!r}: {err}") from None

    cfg = RunConfig(
        seed=top["seed"] if seed is None else _number(seed, "seed",
                                                      "--seed: "),
        output_dir=str(top["output_dir"]), domains=domains,
        functions=functions,
        engine=_read(top["engine"], ENGINE_DEFAULTS, "engine: "),
        **{key: top[key] for key in ("checks", *SECTIONS)})
    cfg.budgets = [_check(cfg, i, check) for i, check in enumerate(cfg.checks)]
    return cfg


def _check(cfg: RunConfig, i: int, check) -> SimpleNamespace:
    """Check ``i`` read once, at parse: the settings its engine reads, with
    the engine section's as defaults, its ``seed`` (the ``seed`` column of
    its rows, read or not), its ``budget`` string and the domain and
    function it names (``args``); the namespace its runner reads. A
    sampled kind takes no ``samples`` or ``seed`` on a domain
    ``inequalities._rule`` integrates, and its engine and budget name that
    rule (``quadrature``, ``nodes=...``)."""
    where = f"check {i}: "
    if not isinstance(check, dict):
        raise ConfigError(f"{where}must be a JSON object")
    kind = _lookup(CHECK_KINDS, check.get("kind"), "kind", where)
    label = check.get("engine", next(iter(kind.engines)))
    settings = _lookup(kind.engines, label, "engine", where)
    seed = cfg.seed + 1000 * i
    defaults = {**cfg.engine, "seed": seed, "t": 0.5}
    values = _read(check, {
        "kind": None, "engine": label,
        **{key: defaults[key] for key in settings},
        **dict.fromkeys((kind.domain_key, "function")),
        **kind.options}, f"{where}{check['kind']} on engine {label!r}: ")
    budget = ";".join(f"{_BUDGET_NAMES.get(key, key)}={values[key]}"
                      for key in settings if key in ENGINE_DEFAULTS)
    b = SimpleNamespace(**{"seed": seed, **values, "budget": budget})
    if len(set(getattr(b, "times", ()))) < kind.fewest_times:
        raise ConfigError(f"{where}'times' needs {kind.fewest_times} or "
                          f"more distinct values")
    dom = cfg.domain_at(getattr(b, kind.domain_key),
                        f"{where}{kind.domain_key!r}: ")
    if kind.dim is not None and dom.dim != kind.dim:
        raise ConfigError(f"{where}{b.kind} needs a {kind.dim} dimensional "
                          f"{kind.domain_key!r}")
    rule = _rule(dom)
    if label == "sampled" and rule is not None:
        unread = sorted(check.keys() & {"samples", "seed"})
        if unread:
            raise ConfigError(f"{where}{b.kind} integrates by "
                              f"{rule['sampler']} on this domain and "
                              f"reads no {unread}")
        b.engine, b.budget = "quadrature", f"nodes={rule['nodes']}"
    b.args = (dom, cfg.function_on(b.function, dom, f"{where}'function': "))
    b.grid = lambda d: grid_operator(d, b.grid_resolution,
                                     cfg.engine["tail_mass"], where)
    return b


def _read(spec: dict, defaults: dict, where: str) -> dict:
    """One level of a config (the top, ``engine``, a check or a command
    section): ``spec`` over ``defaults``, each number converted and checked
    through ``_SETTINGS`` and each object or array default asking for one
    of its own; a key ``defaults`` does not name is a ``ConfigError``."""
    unknown = spec.keys() - defaults.keys()
    if unknown:
        raise ConfigError(f"{where}unknown keys {sorted(unknown)}")
    values = {**defaults, **spec}
    for key, value in values.items():
        default = defaults[key]
        if key in _SETTINGS:
            values[key] = _number(value, key, where)
        elif isinstance(default, (dict, list)):
            if type(value) is not type(default):
                what = "an array" if isinstance(default, list) else "an object"
                raise ConfigError(f"{where}{key!r} must be {what}")
            values[key] = type(default)(value)  # never the shared default
    return values


def _number(value, key: str, where: str):
    """``value`` converted as ``_SETTINGS`` declares for ``key``, or a
    ``ConfigError`` when that fails or leaves the accepted range."""
    convert, accepts, text = _SETTINGS[key]
    try:
        result = convert(value)
        if all(map(accepts, result if isinstance(result, list)
                   else [result])):
            return result
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{where}{key!r} must be {text}, got {value!r}")


def _lookup(table: dict, name, what: str, where: str):
    """The entry a config string names, or a ``ConfigError``."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise ConfigError(f"{where}unknown {what} {name!r}")


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
