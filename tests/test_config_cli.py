import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from oulab import cli, config
from oulab.cli import main, run_checks
from oulab.config import (CHECK_KINDS, ConfigError, default_config_text,
                          load_default_config, parse_config)
from oulab.domains import interval
from oulab.expr import coordinate

SMALL_CONFIG = {
    "seed": 11,
    "output_dir": "out",
    "domains": {
        "line": {"shape": "whole_space", "dim": 1},
        "interval": {"shape": "slab", "direction": [1.0],
                     "lower": -1.0, "upper": 1.0},
    },
    "functions": {
        "linear": {"dim": 1, "directions": [[1.0]], "profile": "v1"},
        "square": {"dim": 1, "directions": [[1.0]], "profile": "(pow v1 2)"},
    },
    "engine": {"samples": 20000, "mc_paths": 2000, "mc_step": 0.005,
               "grid_resolution": 100, "tail_mass": 1e-12, "cn_steps": 100},
    "checks": [
        {"kind": "poincare", "function": "linear", "domain": "line"},
        {"kind": "invariance", "function": "square", "domain": "interval",
         "engine": "grid", "t": 0.5},
        {"kind": "decay", "function": "square", "domain": "interval",
         "times": [0.5]},
    ],
    "spectrum": {"domains": ["line"], "count": 3, "resolution": 400},
    "evolve": {"domain": "line", "function": "linear",
               "times": [0.0, 0.5], "resolution": 120},
    "converge": {"ball": "interval", "function": "linear", "t": 0.3,
                 "sides": [4, 8], "points": 3, "paths_per_point": 400,
                 "step": 0.005},
}


def write_config(tmp_path, cfg=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg if cfg is not None else SMALL_CONFIG))
    return str(path)


def read_reports(out_dir):
    with open(out_dir / "reports.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_round_trip_preserves_objects():
    cfg = parse_config(json.dumps(SMALL_CONFIG))
    assert cfg.seed == 11
    dom = cfg.domain("interval")
    assert type(dom) is type(interval(-1.0, 1.0))
    fn = cfg.function("linear")
    pts = np.random.default_rng(0).standard_normal((10, 1))
    assert np.array_equal(fn.eval(pts), coordinate(1).eval(pts))


def test_check_budgets_are_converted_at_parse():
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["checks"][1].update(t="0.25")
    parsed = parse_config(json.dumps(cfg), seed=5)
    first, invariance, decay = parsed.budgets
    assert (first.seed, first.samples) == (5, 20000)
    assert (invariance.t, invariance.seed) == (0.25, 1005)
    assert not hasattr(first, "points")
    assert (decay.seed, decay.times) == (2005, [0.5])
    # "points" is a factorization option, which a poincare check reads not
    cfg["checks"][0].update(points=3)
    with pytest.raises(ConfigError, match="points"):
        parse_config(json.dumps(cfg))


def test_default_config_is_consistent():
    cfg = load_default_config()
    assert cfg.checks
    for check in cfg.checks:
        kind = CHECK_KINDS[check["kind"]]
        assert check[kind.domain_key] in cfg.domains
        assert check["function"] in cfg.functions


def test_verify_small_config(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["verify", path, "--out", str(out)]) == 0
    rows = read_reports(out)
    assert len(rows) == 3
    assert all(r["pass"] == "true" for r in rows)
    assert {"check", "name", "lhs", "rhs", "margin", "tolerance", "pass",
            "engine", "budget", "seed"} <= set(rows[0])
    summary = (out / "summary.txt").read_text()
    assert summary.strip().endswith("RESULT: PASS")


def test_verify_outputs_are_byte_identical(tmp_path):
    path = write_config(tmp_path)
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["verify", path, "--out", str(out1)])
    main(["verify", path, "--out", str(out2)])
    main(["verify", path, "--out", str(out3), "--jobs", "3"])
    data = (out1 / "reports.csv").read_bytes()
    assert data == (out2 / "reports.csv").read_bytes()
    assert data == (out3 / "reports.csv").read_bytes()


def test_path_checks_are_byte_identical_across_jobs(tmp_path):
    # an exact transition (half-line at 0) and a split one (interval x R)
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["domains"]["halfline"] = {"shape": "halfspaces", "normals": [[-1.0]],
                                  "offsets": [0.0]}
    cfg["checks"] += [
        {"kind": "invariance", "function": "square", "domain": "halfline",
         "engine": "monte_carlo", "t": 0.5},
        {"kind": "factorization", "function": "square", "base": "interval",
         "free_dims": 1, "t": 0.5, "points": 4},
    ]
    path = write_config(tmp_path, cfg)
    out1, out3 = tmp_path / "j1", tmp_path / "j3"
    assert main(["verify", path, "--out", str(out1)]) == 0
    assert main(["verify", path, "--out", str(out3), "--jobs", "3"]) == 0
    data = (out1 / "reports.csv").read_bytes()
    assert len(read_reports(out1)) == 5
    assert data == (out3 / "reports.csv").read_bytes()


def test_regular_polygon_domain_verifies_across_jobs(tmp_path):
    cfg = _with_2d_ball(json.loads(json.dumps(SMALL_CONFIG)))
    cfg["domains"]["gon"] = {"shape": "regular_polygon", "center": [0.0, 0.0],
                             "radius": 1.0, "sides": 64}
    cfg["checks"] = [
        {"kind": "poincare", "function": "diag", "domain": "gon"},
        {"kind": "invariance", "function": "diag", "domain": "gon",
         "engine": "monte_carlo", "t": 0.5},
    ]
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["verify", path, "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["verify", path, "--out", str(out2), "--jobs", "2"]) == 0
    assert [r["name"] for r in read_reports(out1)] == ["poincare",
                                                       "invariance_mc"]
    assert (out1 / "reports.csv").read_bytes() == \
        (out2 / "reports.csv").read_bytes()


def test_verify_seed_override_changes_sampled_rows(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["domains"]["disc"] = {"shape": "ball", "center": [0.0, 0.0],
                              "radius": 1.0}
    cfg["functions"]["x1"] = {"dim": 2, "directions": [[1.0, 0.0]],
                              "profile": "v1"}
    cfg["checks"] += [
        {"kind": "poincare", "function": "x1", "domain": "disc"},
        {"kind": "invariance", "function": "square", "domain": "interval",
         "engine": "monte_carlo"}]
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["verify", path, "--out", str(out1)])
    main(["verify", path, "--out", str(out2), "--seed", "99"])
    a = read_reports(out1)
    b = read_reports(out2)
    # a poincare on a 1D domain or a disc integrates by quadrature and a
    # grid check runs on its mesh: none reads the seed; the Monte Carlo
    # check moves with it
    assert a[0]["engine"] == "quadrature" and a[0]["lhs"] == b[0]["lhs"]
    assert a[1]["lhs"] == b[1]["lhs"]
    assert a[-2]["engine"] == "quadrature" and a[-2]["lhs"] == b[-2]["lhs"]
    assert a[-1]["engine"] == "monte_carlo" and a[-1]["lhs"] != b[-1]["lhs"]


def test_engine_column_reads_quadrature_exactly_where_a_rule_ran():
    # the engine and budget columns come from the same predicate the
    # checks take their path by
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["domains"].update(
        halfline={"shape": "halfspaces", "normals": [[-1.0]],
                  "offsets": [0.0]},
        disc={"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
        gon64={"shape": "regular_polygon", "center": [0.0, 0.0],
               "radius": 1.0, "sides": 64},
        quadrant={"shape": "halfspaces", "normals": [[-1.0, 0.0], [0.0, -1.0]],
                  "offsets": [0.0, 0.0]})
    cfg["functions"]["diag"] = {"dim": 2, "directions": [[0.6, 0.8]],
                                "profile": "(sum 2 (tanh v1))"}
    cfg["engine"]["samples"] = 5000
    cfg["checks"] = [
        {"kind": kind, "function": function, "domain": domain}
        for kind in ("poincare", "log_sobolev")
        for domain, function in [
            ("line", "linear"), ("halfline", "linear"),
            ("interval", "linear"), ("disc", "diag"), ("gon64", "diag"),
            ("quadrant", "diag")]]
    parsed = parse_config(json.dumps(cfg))
    rules = {"gauss_legendre", "polar_gauss_legendre"}
    for i, b in enumerate(parsed.budgets):
        (rep,) = cli._run_one_check(parsed, i)
        integrated = rep.details["sampler"] in rules
        assert (b.engine == "quadrature") == integrated, (i, b.engine)
        assert b.budget == (f"nodes={rep.details['nodes']}" if integrated
                            else "samples=5000")
    assert [b.engine for b in parsed.budgets] == \
        2 * (4 * ["quadrature"] + 2 * ["sampled"])


def test_verify_flags_deliberate_failure(tmp_path, monkeypatch):
    # with its right-hand side halved, the poincare sharp case must fail
    kind = CHECK_KINDS["poincare"]

    def halved(b, d, f):
        return [dataclasses.replace(r, rhs=0.5 * r.rhs)
                for r in kind.run(b, d, f)]

    monkeypatch.setitem(CHECK_KINDS, "poincare", kind._replace(run=halved))
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["verify", path, "--out", str(out)]) == 1
    rows = read_reports(out)
    assert rows[0]["pass"] == "false"
    assert all(r["pass"] == "true" for r in rows[1:])
    assert "RESULT: FAIL" in (out / "summary.txt").read_text()


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,,}')
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_malformed_dsl_exits_2(tmp_path, capsys):
    # a non-finite constant is refused at its token, as a syntax error is
    for profile, pos in (("(exp v1", 1), ("(sum nan v1)", 6), ("1e999", 1)):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["functions"]["linear"]["profile"] = profile
        assert main(["verify", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: function 'linear': ")
        assert f"(at position {pos})" in err


def _check_of(cfg, kind):
    return next(c for c in cfg["checks"] if c["kind"] == kind)


MALFORMED = [
    lambda cfg: cfg["checks"][0].update(domain="nowhere"),
    lambda cfg: cfg["checks"][0].update(kind="teleport"),
    lambda cfg: cfg["checks"].__setitem__(0, "poincare"),
    lambda cfg: _check_of(cfg, "poincare").pop("function"),
    lambda cfg: _check_of(cfg, "factorization").pop("function"),
    lambda cfg: _check_of(cfg, "invariance").update(engine="gird"),
    lambda cfg: cfg.update(domains=[]),
    lambda cfg: cfg.update(seed="abc"),
    lambda cfg: _check_of(cfg, "invariance").update(t="x"),
    lambda cfg: _check_of(cfg, "factorization").update(base="ball2",
                                                       function="diag2"),
    lambda cfg: cfg["domains"]["ball2"].update(radius=float("nan")),
    lambda cfg: cfg["domains"].update(gon={
        "shape": "regular_polygon", "center": [0.0, 0.0], "radius": 1.0,
        "sides": 3.5}),
    lambda cfg: cfg.update(sede=3),
    lambda cfg: cfg.update(seed=1.5),
]


def test_unknown_names_exit_2(tmp_path, capsys):
    for i, corrupt in enumerate(MALFORMED):
        cfg = json.loads(default_config_text())
        corrupt(cfg)
        path = write_config(tmp_path, cfg, name=f"bad{i}.json")
        assert main(["verify", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
    # a command section that does not name its domain fails when the
    # command runs
    for command, corrupt in (("evolve", lambda c: c["evolve"].pop("domain")),
                             ("evolve", lambda c: c.pop("evolve")),
                             ("converge", lambda c: c.pop("converge"))):
        cfg = json.loads(default_config_text())
        corrupt(cfg)
        path = write_config(tmp_path, cfg, name=f"no_{command}.json")
        assert main([command, path, "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err


def test_signed_positivity_function_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["checks"] = [{"kind": "positivity_contraction", "function": "linear",
                      "domain": "interval", "t": 0.5}]
    for jobs in ("1", "2"):
        assert main(["verify", write_config(tmp_path, cfg), "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "nonnegative" in err
    # a function that overflows on a check's points, on a grid check, a
    # quadrature check and a Monte Carlo check's path ends, prints only the
    # exit-2 line: exp(800 x) is inf for x >= 0.89, and any numpy warning
    # would be raised here as an error and escape main; exp(360 x) is
    # finite on the mesh, and its square overflows in the decay's L2 norm
    cfg["functions"].update(steep={"dim": 1, "directions": [[1.0]],
                                   "profile": "(exp (prod 800 v1))"},
                            wide={"dim": 1, "directions": [[1.0]],
                                  "profile": "(exp (prod 360 v1))"})
    for check in ({"kind": "decay", "function": "steep",
                   "domain": "interval", "times": [0.5]},
                  {"kind": "decay", "function": "wide",
                   "domain": "interval", "times": [0.5]},
                  {"kind": "poincare", "function": "steep", "domain": "line"},
                  {"kind": "invariance", "function": "steep",
                   "domain": "line", "engine": "monte_carlo"}):
        cfg["checks"] = [{"kind": "poincare", "function": "linear",
                          "domain": "line"}, check]
        path = write_config(tmp_path, cfg)
        for jobs in ("1", "2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["verify", path, "--jobs", jobs,
                             "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: check 1: ") \
                and "not finite" in err and err.count("\n") == 1, err


def test_removed_two_function_kind_and_key_exit_2(tmp_path, capsys):
    # every check names one function: the submultiplicative kind is gone,
    # and a second function is an unknown key like any other
    for corrupt, what in (
            (lambda c: c.update(kind="submultiplicative"),
             "unknown kind 'submultiplicative'"),
            (lambda c: c.update(function2="square"),
             "unknown keys ['function2']")):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        corrupt(cfg["checks"][0])
        assert main(["verify", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: check 0: ") and what in err, err


def _with_2d_ball(cfg):
    cfg["domains"]["ball2"] = {"shape": "ball", "center": [0.0, 0.0],
                               "radius": 1.0}
    cfg["functions"]["diag"] = {
        "dim": 2, "directions": [[0.7071067811865476, 0.7071067811865476]],
        "profile": "(tanh v1)"}
    cfg["converge"] = {"ball": "ball2", "function": "diag", "t": 0.3,
                       "sides": [4, 8], "points": 3, "paths_per_point": 400,
                       "step": 0.005}
    return cfg


# command sections are checked when their command runs
BAD_SECTIONS = [
    ("converge", lambda c: None),  # SMALL_CONFIG's converge.ball is 1D
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(t="x")),
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(sides=[2])),
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(
        function="linear")),
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(
        points="many")),
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(
        paths_per_point=0)),
    # one path a point has no standard error
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(
        paths_per_point=1)),
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(step=0)),
    ("evolve", lambda c: c["evolve"].update(times=["x"])),
    ("evolve", lambda c: c["evolve"].update(times=[-1.0])),
    ("evolve", lambda c: c["evolve"].update(times=[])),
    ("evolve", lambda c: c["evolve"].update(function="nothing")),
    ("evolve", lambda c: c["evolve"].update(resolution="fine")),
    ("evolve", lambda c: c["evolve"].update(resolution=4)),
    ("evolve", lambda c: c["evolve"].update(resolution=-5)),
    ("evolve", lambda c: c["engine"].update(cn_steps="x")),
    ("evolve", lambda c: c["engine"].update(cn_steps=0)),
    ("spectrum", lambda c: c["spectrum"].update(count="x")),
    ("spectrum", lambda c: c["spectrum"].update(count=0)),
    ("spectrum", lambda c: c["spectrum"].update(domains="line")),
    ("spectrum", lambda c: c["engine"].update(tail_mass="x")),
    ("spectrum", lambda c: c["engine"].update(tail_mass=2.0)),
    ("spectrum", lambda c: c["spectrum"].update(resolution=0)),
    ("spectrum", lambda c: c["spectrum"].update(resolution=[400, 400])),
    ("spectrum", lambda c: (c["domains"].update(cube={
        "shape": "whole_space", "dim": 3}),
        c["spectrum"].update(domains=["cube"]))),
    # x >= 50 lies beyond the truncation box
    ("spectrum", lambda c: (c["domains"].update(far={
        "shape": "halfspaces", "normals": [[-1.0]], "offsets": [-50.0]}),
        c["spectrum"].update(domains=["far"]))),
]


def test_bad_command_sections_exit_2(tmp_path, capsys):
    for i, (command, corrupt) in enumerate(BAD_SECTIONS):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        corrupt(cfg)
        path = write_config(tmp_path, cfg, name=f"bad{i}.json")
        assert main([command, path, "--out", str(tmp_path / "out")]) == 2, i
        assert "config error:" in capsys.readouterr().err


def _factorization(**settings):
    return {"kind": "factorization", "function": "square",
            "base": "interval", **settings}


def _entropy(cfg, times):
    """Check 2 of ``cfg`` made an entropy check at ``times``."""
    cfg["functions"].update(pos={
        "dim": 1, "directions": [[1.0]], "profile": "(sum 2 (tanh v1))"})
    cfg["checks"][2].update(kind="entropy", function="pos", times=times)


# check budgets and engine settings out of range, on SMALL_CONFIG's checks
# (0 poincare, 1 grid invariance, 2 decay)
BAD_BUDGETS = [
    lambda c: c["checks"][2].update(grid_resolution="abc"),
    lambda c: c["checks"][2].update(grid_resolution=0),
    lambda c: c["checks"][2].update(grid_resolution=[100, 100]),
    lambda c: c["checks"][0].update(samples=0),
    lambda c: c["checks"][1].update(engine="monte_carlo", mc_paths=0),
    lambda c: c["checks"][1].update(engine="monte_carlo", mc_step=0),
    lambda c: c["checks"][1].update(t=-1),
    lambda c: c["checks"][1].update(engine="monte_carlo", t=-0.5),
    lambda c: c["checks"][2].update(times=[-0.5]),
    lambda c: c["checks"][2].update(times=[]),
    # an entropy check needs two distinct times
    lambda c: _entropy(c, [0.5]),
    lambda c: _entropy(c, [1.0, 1.0]),
    lambda c: _entropy(c, [0.5, 0.5, 0.5]),
    lambda c: c["checks"][0].update(sampels=3),
    lambda c: c["checks"][0].update(tail_mass=1e-4),
    lambda c: c["checks"][1].update(cn_steps=0),
    lambda c: c["checks"][0].update(seed=-5),
    lambda c: c["engine"].update(tail_mass=2.0),
    # an integer setting refuses a fractional value rather than truncating
    lambda c: c["checks"][0].update(samples=1000.7),
    lambda c: c["checks"][1].update(engine="monte_carlo", mc_paths=2000.5),
    lambda c: c["engine"].update(cn_steps=2.5),
    lambda c: c["checks"].__setitem__(2, _factorization(points=2.5)),
    lambda c: c["checks"].__setitem__(2, _factorization(free_dims=1.5)),
    lambda c: c["checks"].__setitem__(2, _factorization(free_dims=0)),
    lambda c: c["checks"].__setitem__(2, _factorization(free_dims=-1)),
    lambda c: c["engine"].update(sampels=3),
    # too few values for a standard error: two for a mean, four for a variance
    lambda c: c["checks"][0].update(samples=3),
    lambda c: c["engine"].update(samples=3),
    lambda c: c["checks"][1].update(engine="monte_carlo", mc_paths=1),
    lambda c: c["engine"].update(mc_paths=1),
    lambda c: c["checks"].__setitem__(2, _factorization(mc_paths=1)),
    # the entropy floor is a constant of the check, not a setting
    lambda c: c["checks"][2].update(kind="entropy", function="linear",
                                    times=[0.0, 0.5], floor=-2),
]


def test_bad_check_budgets_exit_2(tmp_path, capsys):
    for i, corrupt in enumerate(BAD_BUDGETS):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        corrupt(cfg)
        path = write_config(tmp_path, cfg, name=f"budget{i}.json")
        for jobs in ("1", "2"):
            assert main(["verify", path, "--jobs", jobs,
                         "--out", str(tmp_path / "out")]) == 2, (i, jobs)
            assert "config error:" in capsys.readouterr().err
    # a negative --seed fails at parse, also for commands that run no check
    path = write_config(tmp_path, _with_2d_ball(
        json.loads(json.dumps(SMALL_CONFIG))), name="seed.json")
    assert main(["converge", path, "--seed", "-5",
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error: --seed:" in capsys.readouterr().err
    # and --jobs below 1 is a usage error
    with pytest.raises(SystemExit) as usage:
        main(["verify", path, "--jobs", "0", "--out", str(tmp_path / "out")])
    assert usage.value.code == 2
    assert "--jobs: must be an integer >= 1" in capsys.readouterr().err


# every setting a check might take, each with a value that suits it: the
# engine budgets, t, seed and every kind's options
SETTING_VALUES = {"samples": 1000, "seed": 3, "t": 0.25, "mc_paths": 100,
                  "mc_step": 0.01, "cn_steps": 10, "grid_resolution": 60,
                  "times": [0.5, 1.0], "free_dims": 1, "points": 2}


def test_each_engine_accepts_exactly_the_settings_its_runner_reads(
        monkeypatch):
    # the runners call stubs, and the settings namespace records every
    # attribute read, b.grid's read of grid_resolution included
    reads = set()

    class Recording(SimpleNamespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(config, "SimpleNamespace", Recording)
    for name in ("check_poincare", "check_logsob", "check_gradient_bound",
                 "check_invariance", "check_decay",
                 "check_positivity_and_contraction", "check_entropy",
                 "factorization_check", "grid_operator"):
        monkeypatch.setattr(config, name, lambda *args, **kwargs: [])
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    # a domain the Poincare and log-Sobolev checks sample
    cfg["domains"]["quadrant"] = {"shape": "halfspaces",
                                  "normals": [[-1.0, 0.0], [0.0, -1.0]],
                                  "offsets": [0.0, 0.0]}
    cfg["functions"]["diag"] = {"dim": 2, "directions": [[0.6, 0.8]],
                                "profile": "(tanh v1)"}
    pairs = 0
    for kind_name, kind in CHECK_KINDS.items():
        for engine in kind.engines:
            sampled = engine == "sampled"
            check = {"kind": kind_name, "engine": engine,
                     kind.domain_key: "quadrant" if sampled else "interval",
                     "function": "diag" if sampled else "square"}
            accepted = set()
            for key, value in SETTING_VALUES.items():
                cfg["checks"] = [{**check, key: value}]
                try:
                    parse_config(json.dumps(cfg))
                except ConfigError as err:
                    assert repr(key) in str(err) and repr(engine) in str(err)
                else:
                    accepted.add(key)
            cfg["checks"] = [check]
            b, = parse_config(json.dumps(cfg)).budgets
            reads.clear()
            kind.run(b, *b.args)
            assert reads & SETTING_VALUES.keys() == accepted, \
                (kind_name, engine)
            pairs += 1
    assert pairs == 9


# settings a bundled check's engine does not read: (check, key, value,
# what the message names besides the key)
UNREAD_SETTINGS = [
    (11, "cn_steps", 50, "'grid'"),  # decay
    (0, "t", 1.0, "'sampled'"),  # poincare on the line
    (0, "samples", 1000, "gauss_legendre"),
    (9, "mc_paths", 5000, "'grid'"),  # grid invariance
    (12, "seed", 7, "'grid'"),  # positivity_contraction
]


def test_bundled_checks_reject_settings_their_engine_does_not_read(
        tmp_path, capsys):
    for i, key, value, named in UNREAD_SETTINGS:
        cfg = json.loads(default_config_text())
        cfg["checks"][i][key] = value
        path = write_config(tmp_path, cfg, name=f"unread_{key}.json")
        assert main(["verify", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: check {i}: ") \
            and repr(key) in err and named in err, err


def test_seed_override_moves_the_seed_column_of_every_row(tmp_path):
    # grid and quadrature checks read no seed, and still record the
    # derived one
    out = tmp_path / "out"
    assert main(["verify", write_config(tmp_path), "--seed", "99",
                 "--out", str(out)]) == 0
    assert [r["seed"] for r in read_reports(out)] == ["99", "1099", "2099"]


def test_csv_rows_keep_the_header_width(tmp_path):
    # a per-axis resolution and a domain name with a comma are quoted
    cfg = _with_2d_ball(json.loads(json.dumps(SMALL_CONFIG)))
    cfg["domains"]["unit, disc"] = cfg["domains"]["ball2"]
    cfg["checks"] = [{"kind": "invariance", "function": "diag",
                      "domain": "ball2", "engine": "grid",
                      "grid_resolution": [30, 40]}]
    cfg["spectrum"] = {"domains": ["unit, disc"], "count": 2,
                       "resolution": [30, 40]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for command, name in (("verify", "reports.csv"),
                          ("spectrum", "eigenvalues.csv")):
        assert main([command, path, "--out", str(out)]) == 0
        with open(out / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), name
    assert {row[0] for row in rows} == {"unit, disc"}


EMPTY_HALFLINES = {"shape": "halfspaces", "normals": [[1.0], [-1.0]],
                   "offsets": [-1.0, -1.0]}  # x <= -1 and x >= 1


def test_empty_domain_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["domains"]["nothing"] = EMPTY_HALFLINES
    cfg["spectrum"]["domains"] = ["nothing"]
    cfg["evolve"]["domain"] = "nothing"
    cfg["checks"] = [{"kind": "decay", "function": "square",
                      "domain": "nothing", "times": [0.5]}]
    path = write_config(tmp_path, cfg)
    for command in ("spectrum", "evolve", "verify"):
        assert main([command, path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "no interior" in err, command


def test_grid_check_mesh_problems_exit_2(tmp_path, capsys):
    # a mesh the grid cannot build is a config error of its check, as it
    # is for evolve on the same mesh, not a failed check
    def cube(cfg):
        cfg["domains"]["cube"] = {"shape": "whole_space", "dim": 3}
        cfg["functions"]["lin3"] = {"dim": 3, "directions": [[1.0, 0.0, 0.0]],
                                    "profile": "v1"}
        cfg["checks"][2].update(domain="cube", function="lin3")

    def coarse_factorization(cfg):
        cfg["checks"][2] = {"kind": "factorization", "function": "square",
                            "base": "interval", "grid_resolution": 4}

    for corrupt in (lambda c: c["checks"][2].update(grid_resolution=4),
                    cube, coarse_factorization):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        corrupt(cfg)
        path = write_config(tmp_path, cfg)
        for jobs in ("1", "2"):
            assert main(["verify", path, "--jobs", jobs,
                         "--out", str(tmp_path / "out")]) == 2
            assert "config error: check 2:" in capsys.readouterr().err


def test_engine_grid_budgets_reach_the_checks(tmp_path):
    # tail_mass truncates the half-line's grid (not the interval's, which
    # the domain bounds), and cn_steps sets the grid invariance solver
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["domains"]["halfline"] = {"shape": "halfspaces", "normals": [[-1.0]],
                                  "offsets": [0.0]}
    cfg["checks"][2]["domain"] = "halfline"
    rows = []
    for tail in (1e-12, 1e-4):
        cfg["engine"]["tail_mass"] = tail
        out = tmp_path / f"tail{tail}"
        assert main(["verify", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        rows.append(read_reports(out))
    assert rows[0][:2] == rows[1][:2]
    assert rows[0][2]["lhs"] != rows[1][2]["lhs"]
    cfg["engine"]["cn_steps"] = 20
    _, reports = run_checks(parse_config(json.dumps(cfg)), 1)
    invariance = reports[1][1]
    assert invariance.details["n_steps"] == 20
    assert invariance.details["resolution"] == 100


def test_empty_domain_monte_carlo_check_exits_2(tmp_path, capsys):
    # a 1D check integrates over the domain's truncation box: on the far
    # tail x >= 3.5 (mass 2.3e-4, below the rejection floor) it runs and
    # passes, and on an empty domain the axis bounds raise, exit 2; a 2D
    # check samples by rejection, whose first-batch acceptance finds the
    # corner x, y >= 2.5 (mass 3.9e-5) too small, exit 2
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["domains"].update(
        far_tail={"shape": "halfspaces", "normals": [[-1.0]],
                  "offsets": [-3.5]},
        nothing=EMPTY_HALFLINES,
        corner={"shape": "halfspaces", "normals": [[-1.0, 0.0], [0.0, -1.0]],
                "offsets": [-2.5, -2.5]})
    cfg["functions"]["x1"] = {"dim": 2, "directions": [[1.0, 0.0]],
                                "profile": "v1"}
    for domain, function, code, message in (
            ("far_tail", "linear", 0, None),
            ("nothing", "linear", 2, "no interior"),
            ("corner", "x1", 2, "acceptance")):
        cfg["checks"] = [{"kind": "poincare", "function": function,
                          "domain": domain}]
        path = write_config(tmp_path, cfg)
        for jobs in ("1", "2"):
            out = tmp_path / f"{domain}{jobs}"
            assert main(["verify", path, "--jobs", jobs,
                         "--out", str(out)]) == code, (domain, jobs)
            err = capsys.readouterr().err
            if message is None:
                assert read_reports(out)[0]["pass"] == "true"
            else:
                assert "config error:" in err and message in err, \
                    (domain, jobs)


def _fresh_python(code):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_leaves_out_scipy_subpackages():
    # the engines need scipy.linalg, scipy.sparse and scipy.special only,
    # and import them on first use: any scipy subpackage loads numpy.f2py,
    # numpy.testing and numpy.ma, which would double the import time
    code = ("import sys, oulab, oulab.cli; "
            "from oulab.config import parse_config, default_config_text; "
            "parse_config(default_config_text()); "
            "print(sorted(m for m in ('scipy.special', 'scipy.linalg', "
            "'scipy.sparse', 'scipy.stats', 'scipy.optimize', 'numpy.f2py') "
            "if m in sys.modules))")
    assert _fresh_python(code).strip() == "[]"


def test_first_grid_calls_in_fresh_process():
    # grid_build, grid_spectrum and grid_apply import scipy themselves
    code = ("import numpy as np; from oulab import grid_build, "
            "grid_spectrum, grid_apply, WholeSpace; "
            "op = grid_build(WholeSpace(1), 120); "
            "lam = grid_spectrum(op, 3).eigenvalues; "
            "u = grid_apply(op, op.nodes[:, 0], 0.5, scheme='expm'); "
            "print(round(lam[1], 2), "
            "float(np.interp(0.3, op.nodes[:, 0], u)) / 0.3)")
    lam1, ratio = map(float, _fresh_python(code).split())
    assert lam1 == -1.0
    assert abs(ratio - math.exp(-0.5)) < 5e-3


def test_dimension_mismatch_exits_2(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["functions"]["linear"]["dim"] = 2
    cfg["functions"]["linear"]["directions"] = [[1.0, 0.0]]
    assert main(["verify", write_config(tmp_path, cfg)]) == 2


def test_spectrum_command(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "spec"
    assert main(["spectrum", path, "--out", str(out)]) == 0
    with open(out / "eigenvalues.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [float(r["eigenvalue"]) for r in rows if r["domain"] == "line"]
    assert np.abs(np.array(values) - np.array([0.0, -1.0, -2.0])).max() < 5e-3
    assert all(float(r["gap"]) >= 1.0 - 0.02 for r in rows)


def test_evolve_command(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "ev"
    assert main(["evolve", path, "--out", str(out)]) == 0
    with open(out / "evolution.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the budget names both settings the evolution reads
    assert {r["budget"] for r in rows} == {"cn_steps=100;resolution=120"}
    start = [r for r in rows if r["t"] == "0.0"]
    assert all(float(r["value"]) == float(r["x1"]) for r in start)
    later = [r for r in rows if r["t"] == "0.5"]
    mid = [r for r in later if abs(float(r["x1"])) < 2.0]
    decay = math.exp(-0.5)
    assert all(abs(float(r["value"]) - decay * float(r["x1"])) < 5e-3
               for r in mid)


# section mistakes the parse lets through, rejected when the command runs
# with a message that names the section and what is wrong
SECTION_MISTAKES = [
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(
        sides=[4.5, 8.9]), "'sides' must be integers"),
    ("spectrum", lambda c: c["spectrum"].update(cuont=3), "unknown keys"),
    ("evolve", lambda c: c["evolve"].update(time=[2.0]), "unknown keys"),
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(step_=0.01),
     "unknown keys"),
    ("spectrum", lambda c: c["spectrum"].update(count=2.9),
     "'count' must be a positive integer"),
    ("converge", lambda c: _with_2d_ball(c)["converge"].update(points=2.5),
     "'points' must be a positive integer"),
    # a missing or unknown domain name is reported with its key
    ("evolve", lambda c: c["evolve"].pop("domain"),
     "'domain': unknown domain None"),
    ("converge", lambda c: c["converge"].update(ball="nowhere"),
     "'ball': unknown domain 'nowhere'"),
    ("spectrum", lambda c: c["spectrum"].update(domains=["line", "nowhere"]),
     "'domains': unknown domain 'nowhere'"),
]


def test_section_mistakes_exit_2(tmp_path, capsys):
    for i, (command, corrupt, what) in enumerate(SECTION_MISTAKES):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        corrupt(cfg)
        parse_config(json.dumps(cfg))
        path = write_config(tmp_path, cfg, name=f"mistake{i}.json")
        assert main([command, path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command}: ") and what in err, \
            (command, err)


def test_spectrum_names_are_checked_before_any_spectrum(tmp_path, capsys,
                                                      monkeypatch):
    spectra = []
    monkeypatch.setattr(cli, "grid_spectrum",
                        lambda *args: spectra.append(args))
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["spectrum"]["domains"] = ["line", "interval", "nowhere"]
    out = tmp_path / "out"
    assert main(["spectrum", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: spectrum: 'domains': unknown domain 'nowhere'\n"
    assert spectra == []
    assert not (out / "eigenvalues.csv").exists()


def test_converge_command(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["domains"]["ball2"] = {"shape": "ball", "center": [0.0, 0.0],
                               "radius": 1.0}
    cfg["functions"]["diag"] = {
        "dim": 2, "directions": [[0.7071067811865476, 0.7071067811865476]],
        "profile": "(tanh v1)"}
    cfg["converge"] = {"ball": "ball2", "function": "diag", "t": 0.3,
                       "sides": [4, 8], "points": 3, "paths_per_point": 400,
                       "step": 0.005}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "cv"
    assert main(["converge", path, "--out", str(out)]) == 0
    with open(out / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["sides"] for r in rows] == ["4", "8"]
    assert float(rows[0]["excess_mass"]) > float(rows[1]["excess_mass"])


# check, name, engine, budget and seed of every bundled report: the
# dispatch from check kind to runner, engine label and budget string
BUNDLED_DISPATCH = [
    ("0.0:poincare", "poincare", "quadrature", "nodes=8x16", "20260809"),
    ("1.0:poincare", "poincare", "quadrature", "nodes=8x16", "20261809"),
    ("2.0:poincare", "poincare", "quadrature", "nodes=8x16", "20262809"),
    ("3.0:poincare", "poincare", "quadrature", "nodes=8x16", "20263809"),
    ("4.0:poincare", "poincare", "quadrature", "nodes=8x8x64", "20264809"),
    ("5.0:log_sobolev", "log_sobolev", "quadrature", "nodes=8x16",
     "20265809"),
    ("6.0:log_sobolev", "log_sobolev", "quadrature", "nodes=8x16",
     "20266809"),
    ("7.0:log_sobolev", "log_sobolev", "quadrature", "nodes=8x16",
     "20267809"),
    ("8.0:gradient_bound", "gradient_bound", "grid",
     "cn_steps=200;resolution=200", "20268809"),
    ("9.0:invariance", "invariance_grid", "grid",
     "cn_steps=200;resolution=200", "20269809"),
    ("10.0:invariance", "invariance_mc", "monte_carlo", "paths=50000;h=0.002",
     "20270809"),
    ("11.0:decay", "decay", "grid", "resolution=300", "20271809"),
    ("11.1:decay", "decay", "grid", "resolution=300", "20271809"),
    ("12.0:positivity_contraction", "positivity_contraction", "grid",
     "resolution=200", "20272809"),
    ("13.0:entropy", "entropy_production", "grid", "resolution=200",
     "20273809"),
    ("13.1:entropy", "entropy_terminal", "grid", "resolution=200",
     "20273809"),
    ("14.0:factorization", "factorization", "monte_carlo+grid",
     "paths=10000;h=0.005;resolution=300", "20274809"),
]


def test_bundled_default_verify_runs_clean(tmp_path):
    out = tmp_path / "default"
    assert main(["verify", "--out", str(out)]) == 0
    rows = read_reports(out)
    assert all(r["pass"] == "true" for r in rows)
    assert [tuple(r[k] for k in ("check", "name", "engine", "budget", "seed"))
            for r in rows] == BUNDLED_DISPATCH
