"""Every bundled check must be able to fail: the bundled checks run under
named engine mutations, each applied by monkeypatching only, and the test
pins which rows fail under each. A row that no mutation fails tests
nothing about the engines."""
import pytest

from oulab import cylapprox, inequalities
from oulab.cli import run_checks
from oulab.config import load_default_config
from oulab.domains import WholeSpace
from oulab.engines import montecarlo


def _paths_until(scale):
    """Every path runs to ``scale`` t instead of t; 0 freezes it."""
    def mutate(monkeypatch):
        evolve_starts = montecarlo.evolve_starts

        def evolve(domains, panel, repeats, t, h, seed):
            return evolve_starts(domains, panel, repeats, scale * t, h, seed)
        for module in (inequalities, cylapprox):
            monkeypatch.setattr(module, "evolve_starts", evolve)
    return mutate


def _grid_until(scale):
    """Every grid evolution runs to ``scale`` t instead of t; 0 freezes
    it."""
    def mutate(monkeypatch):
        grid_apply = inequalities.grid_apply

        def apply(op, values, t, *args, **kwargs):
            return grid_apply(op, values, scale * t, *args, **kwargs)
        for module in (inequalities, cylapprox):
            monkeypatch.setattr(module, "grid_apply", apply)
    return mutate


def _unreflected(monkeypatch):
    """A one-column march clips onto the whole line, so it never
    reflects."""
    march = montecarlo._march

    def unreflected(domains, block, steps, rng):
        if block.shape[1] == 1:
            domains = [WholeSpace(1)] * len(domains)
        return march(domains, block, steps, rng)
    monkeypatch.setattr(montecarlo, "_march", unreflected)


def _drift(factor):
    """A one-column march on one domain with ``factor`` times the OU drift:
    each step is the engine's own on the same noise, from the state
    rescaled so that its drift factor 1 - dt becomes 1 - factor dt."""
    def mutate(monkeypatch):
        march = montecarlo._march

        def drifted(domains, block, steps, rng):
            if block.shape[1] != 1:
                return march(domains, block, steps, rng)
            for dt in steps:
                block, = march(domains, block * ((1.0 - factor * dt)
                                                 / (1.0 - dt)), [dt], rng)
            return [block]
        monkeypatch.setattr(montecarlo, "_march", drifted)
    return mutate


def _unfolded(monkeypatch):
    """Exact transitions keep the free OU endpoint instead of folding it
    into the domain."""
    fold = montecarlo._fold
    monkeypatch.setattr(montecarlo, "_fold", lambda dom: None
                        if fold(dom) is None else (lambda y: y))


# mutation -> (how it is applied, the bundled rows that fail under it)
MUTATIONS = {
    "paths frozen at their starts": (_paths_until(0.0),
                                     {"14.0:factorization"}),
    "paths run to 2t": (_paths_until(2.0), {"14.0:factorization"}),
    "paths run to t/2": (_paths_until(0.5), {"14.0:factorization"}),
    "1D march without reflection": (_unreflected, {"14.0:factorization"}),
    # no bundled row sees the drift: the factorization allowance is
    # mostly the assumed step bias, which covers the drift-free error
    # (ROADMAP item 15 would measure that bias instead)
    "1D march without the OU drift": (_drift(0.0), set()),
    "1D march with twice the drift": (_drift(2.0), set()),
    "exact draws not folded": (_unfolded, {"10.0:invariance"}),
    "grid runs to 2t": (_grid_until(2.0), {"14.0:factorization"}),
    "grid runs to t/2": (_grid_until(0.5), {"14.0:factorization"}),
    "grid frozen": (_grid_until(0.0), {
        "8.0:gradient_bound", "11.0:decay", "11.1:decay", "13.1:entropy",
        "14.0:factorization"}),
}


@pytest.fixture(scope="module")
def bundled():
    return load_default_config()


@pytest.mark.parametrize("name", MUTATIONS)
def test_bundled_rows_fail_under_engine_mutation(name, bundled, monkeypatch):
    mutate, failing = MUTATIONS[name]
    mutate(monkeypatch)
    _, reports = run_checks(bundled, 1)
    assert {label for label, rep in reports if not rep.passed} == failing
