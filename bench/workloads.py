"""The three benchmark workloads, each driven through the public ``oulab`` API.

A workload turns the run seed into a config dict once (set-up). Every pass
re-parses that config, rebuilding its domains and grid operators the way
one CLI call does, so no per-object cache (``_cn_cache``, ``_expm_cache``,
``_spectral_cache``, ``_vertices``) carries over from one pass to the next.
A pass returns a small summary; ``checks`` turns a summary into the pass's
correctness operations, a list of (name, ok).

Why these three (README.md has the layer each one should move):
``polygon_reflect`` is bound by reflected-path projection and leaves the
grid idle, ``grid_structured`` runs every ``grid_apply``/``grid_spectrum``
branch and no Monte Carlo, and ``verify_default`` is the CLI's own panel,
where 1D paths, rejection sampling and expression evaluation dominate.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile

import numpy as np

from oulab import cli, config, cylapprox, domains, inequalities
from oulab.engines import grid, mehler

SQRT_HALF = math.sqrt(0.5)
BALL2 = {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}
HERMITE_RESOLUTION = 800

# criterion 07 of the acceptance suite: roundoff budget of the maximum
# principle legs
POSITIVITY_BUDGET = 1e-10
# criterion 12: grid and Mehler agree within C*(h^2 + dt^2)*scale
ORACLE_CONST = 20.0


def mc_steps(t: float, h: float) -> int:
    """Euler steps that reach time t with step h: ceil(t/h), guarded
    against t/h landing one rounding error above a whole number."""
    return math.ceil(t / h - 1e-9)


def hermite_deviation(eigenvalues) -> float:
    """max_k |lambda_k + k|: the whole-line eigenvalues are exactly -k."""
    lam = np.asarray(eigenvalues, dtype=float)
    return float(np.max(np.abs(lam + np.arange(len(lam)))))


def hermite_err() -> float:
    """``hermite_deviation`` of ``grid_spectrum`` on the 800-node line."""
    op = grid.grid_build(domains.WholeSpace(1), HERMITE_RESOLUTION)
    return hermite_deviation(grid.grid_spectrum(op, 4).eigenvalues)


class Workload:
    """One config dict, parsed once at set-up and again on every pass."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False, workdir: str = "."):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.text = json.dumps(self.config())
        config.parse_config(self.text)

    def config(self) -> dict:
        raise NotImplementedError

    def parse(self):
        return config.parse_config(self.text)

    def run_pass(self) -> dict:
        raise NotImplementedError

    def checks(self, summary: dict) -> list:
        raise NotImplementedError

    def finish(self) -> dict:
        """Untimed work done once per run after the timed passes; returns
        values for the result file. Every workload reports ``hermite_err``
        so that all of them print the same end-to-end metrics."""
        return {"hermite_err": hermite_err()}

    def expected_path_steps(self) -> int:
        """Path-steps (paths x Euler steps x coupled domains) of one pass,
        counted from the config alone."""
        return 0

    def close(self) -> None:
        pass


class PolygonReflect(Workload):
    """Circumscribed 16-, 64- and 256-gons around the unit disc, coupled."""

    name = "polygon_reflect"

    def config(self):
        tiny = self.tiny
        return {
            "seed": self.seed,
            "domains": {"ball2": BALL2},
            "functions": {"diag2": {"dim": 2,
                                    "directions": [[SQRT_HALF, SQRT_HALF]],
                                    "profile": "(tanh v1)"}},
            "converge": {"ball": "ball2", "function": "diag2", "t": 0.5,
                         "sides": [16, 64, 256],
                         "points": 2 if tiny else 8,
                         "paths_per_point": 100 if tiny else 1000,
                         "step": 2e-2 if tiny else 4e-3,
                         "mass_samples": 20_000 if tiny else 200_000},
        }

    def run_pass(self):
        cfg = self.parse()
        spec = cfg.converge
        study = cylapprox.convergence_study(
            cfg.domain(spec["ball"]), cfg.function(spec["function"]),
            spec["t"], spec["sides"], n_points=spec["points"],
            paths_per_point=spec["paths_per_point"], h=spec["step"],
            seed=cfg.seed, mass_samples=spec["mass_samples"])
        return {"errors": study.errors().tolist(),
                "excess_masses": study.excess_masses().tolist()}

    def checks(self, summary):
        # criterion 10: both columns strictly decrease with the side count
        ops = []
        for col in ("errors", "excess_masses"):
            v = summary[col]
            ops += [(f"{col}[{i}]>{col}[{i + 1}]", v[i] > v[i + 1])
                    for i in range(len(v) - 1)]
        return ops

    def expected_path_steps(self):
        spec = json.loads(self.text)["converge"]
        return (spec["points"] * spec["paths_per_point"]
                * mc_steps(spec["t"], spec["step"]) * (len(spec["sides"]) + 1))


class GridStructured(Workload):
    """One operation per ``grid_spectrum`` / ``grid_apply`` branch.

    Dense ``eigh`` spectra on the line, half-line and interval; ``eigsh``
    and a 200-step Crank-Nicolson apply on the 2D ball; the positivity
    check on the line (weight ratio 1e11, dense ``scipy.linalg.expm``) and
    on the interval (eigh propagator); CN on the line against Mehler.
    """

    name = "grid_structured"
    T = 0.5

    def config(self):
        tiny = self.tiny
        return {
            "seed": self.seed,
            "domains": {
                "line": {"shape": "whole_space", "dim": 1},
                "halfline": {"shape": "halfspaces", "normals": [[-1.0]],
                             "offsets": [0.0]},
                "interval": {"shape": "slab", "direction": [1.0],
                             "lower": -1.0, "upper": 1.0},
                "ball2": BALL2,
            },
            "functions": {
                "bump": {"dim": 1, "directions": [[1.0]],
                         "profile": "(exp (neg (pow v1 2)))"},
                "tanh1": {"dim": 1, "directions": [[1.0]],
                          "profile": "(tanh v1)"},
                "square2": {"dim": 2, "directions": [[1.0, 0.0]],
                            "profile": "(pow v1 2)"},
            },
            "engine": {"tail_mass": 1e-12, "cn_steps": 200},
            # cells per axis; the tiny ball still has more than
            # DENSE_EIG_CAP nodes, so eigsh runs in every variant
            "spectrum": {"resolution": {
                "line": 600 if tiny else HERMITE_RESOLUTION,
                "halfline": 100 if tiny else 800,
                "interval": 50 if tiny else 400,
                "ball2": 60 if tiny else 200}},
            # where the line's CN evolution is compared with Mehler
            "evolve": {"points": np.random.default_rng(self.seed)
                       .uniform(-2.0, 2.0, 2).tolist()},
        }

    def run_pass(self):
        cfg = self.parse()
        tail = float(cfg.budget("tail_mass"))
        steps = int(cfg.budget("cn_steps"))
        ops = {name: grid.grid_build(cfg.domain(name), res, tail)
               for name, res in cfg.spectrum["resolution"].items()}
        spectra = {}
        for name, op in ops.items():
            spec = grid.grid_spectrum(op, 4)
            kernel = spec.kernel_vector / np.mean(spec.kernel_vector)
            spectra[name] = {"eigenvalues": spec.eigenvalues.tolist(),
                             "gap": spec.gap,
                             "kernel_dev": float(np.abs(kernel - 1.0).max())}
        invariance = inequalities.check_invariance(
            cfg.function("square2"), cfg.domain("ball2"), self.T,
            engine="grid", n_steps=steps, op=ops["ball2"])
        positivity = [inequalities.check_positivity_and_contraction(
            cfg.function("bump"), cfg.domain(name), self.T, op=ops[name]).lhs
            for name in ("line", "interval")]
        self.hermite = hermite_deviation(spectra["line"]["eigenvalues"])
        return {"spectra": spectra, "hermite_err": self.hermite,
                "invariance": invariance.passed, "positivity": positivity,
                "oracle": self._oracle(cfg, ops["line"], steps)}

    def _oracle(self, cfg, op, steps):
        dt = self.T / steps
        h = float(op.spacing[0])
        rows = []
        for name in ("tanh1", "bump"):
            f = cfg.function(name)
            u = grid.grid_apply(op, op.sample(f), self.T, n_steps=steps)
            for x in cfg.evolve["points"]:
                exact = mehler.mehler_apply(f, self.T, [x],
                                            quad_order=60).value
                approx = float(np.interp(x, op.nodes[:, 0], u))
                tol = ORACLE_CONST * (h * h + dt * dt) * max(1.0, abs(exact))
                rows.append((name, x, abs(exact - approx), tol))
        return rows

    def checks(self, summary):
        # criterion 01 on every spectrum, then 07 and 12
        ops = []
        for name, s in summary["spectra"].items():
            ops += [(f"{name}.lambda0", abs(s["eigenvalues"][0]) < 1e-6),
                    (f"{name}.kernel_dev", s["kernel_dev"] < 1e-6),
                    (f"{name}.gap", s["gap"] >= 0.98)]
        ops.append(("line.hermite_err", summary["hermite_err"] < 1e-3))
        ops.append(("ball2.cn_invariance", summary["invariance"]))
        ops += [(f"positivity.{name}", v <= POSITIVITY_BUDGET)
                for name, v in zip(("line", "interval"),
                                   summary["positivity"])]
        ops += [(f"oracle.{name}@{x:.4f}", dev <= tol)
                for name, x, dev, tol in summary["oracle"]]
        return ops

    def finish(self):
        return {"hermite_err": self.hermite}


class VerifyDefault(Workload):
    """``cmd_verify`` on the bundled ``data/default.json`` with jobs=1."""

    name = "verify_default"

    def __init__(self, seed: int, tiny: bool = False, workdir: str = "."):
        super().__init__(seed, tiny, workdir)
        self.tmp = tempfile.mkdtemp(prefix="verify-", dir=workdir)
        self.out_dir = os.path.join(self.tmp, "out")
        self.first_sha = None
        self.jobs2_sha = None

    def config(self):
        raw = json.loads(config.default_config_text())
        raw["seed"] = self.seed
        if self.tiny:
            scale = {"samples": 20_000, "mc_paths": 1_000}
            raw["engine"].update(scale)
            for check in raw["checks"]:
                for key, value in scale.items():
                    if key in check:
                        check[key] = value
        return raw

    def _verify(self, jobs: int) -> bytes:
        cfg = self.parse()
        cli.cmd_verify(cfg, self.out_dir, jobs=jobs)
        with open(os.path.join(self.out_dir, "reports.csv"), "rb") as fh:
            return fh.read()

    def run_pass(self):
        data = self._verify(jobs=1)
        lines = data.decode().splitlines()
        col = lines[0].split(",").index("pass")
        sha = hashlib.sha256(data).hexdigest()
        if self.first_sha is None:
            self.first_sha = sha
        return {"flags": [(ln.split(",")[0], ln.split(",")[col] == "true")
                          for ln in lines[1:]],
                "sha256": sha}

    def checks(self, summary):
        ops = [(f"report {label}", ok) for label, ok in summary["flags"]]
        ops.append(("reports.csv same as first pass",
                    summary["sha256"] == self.first_sha))
        ops.append(("reports.csv same as jobs=2",
                    summary["sha256"] == self.jobs2_sha))
        return ops

    def finish(self):
        self.jobs2_sha = hashlib.sha256(self._verify(jobs=2)).hexdigest()
        out = super().finish()
        out["reports_sha256"] = self.first_sha
        return out

    def expected_path_steps(self):
        cfg = self.parse()
        total = 0
        for check in cfg.checks:
            kind = check["kind"]
            paths = int(cfg.budget("mc_paths", check))
            steps = mc_steps(float(check.get("t", 0.5)),
                             float(cfg.budget("mc_step", check)))
            # start points per check, with the CLI's defaults
            if kind == "submultiplicative":
                total += int(check.get("panel", 10)) * paths * steps
            elif kind == "factorization":
                total += int(check.get("points", 10)) * paths * steps
            elif kind == "invariance" and \
                    check.get("engine", "monte_carlo") == "monte_carlo":
                total += paths * steps
        return total

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PolygonReflect, GridStructured,
                                 VerifyDefault)}
