import math

import numpy as np
import pytest

from oulab.cylapprox import (ConvergenceStudy, convergence_study,
                             factorization_check)
from oulab.domains import Ball, WholeSpace, interval
from oulab.engines.grid import grid_build
from oulab.engines.mehler import mehler_apply
from oulab.expr import const, coordinate, from_profile, tanh, var


def test_factorization_constant_is_trivial():
    one = from_profile(const(1.0), [[1.0]])
    ival = interval(-1.0, 1.0)
    rep = factorization_check(one, ival, 1, 0.5, op=grid_build(ival, 400),
                              n_points=5, n_paths=1000, h=5e-3, seed=1)
    assert rep.passed
    assert rep.lhs < 1e-10


def test_factorization_whole_line_base_matches_oracle():
    lin = coordinate(1)
    rep = factorization_check(lin, WholeSpace(1), 2, 0.5,
                              op=grid_build(WholeSpace(1), 400), n_points=10,
                              n_paths=20_000, h=5e-3, seed=2)
    assert rep.passed and rep.details["transition"] == "exact"
    # both sides reproduce the whole-space decay e^{-t} x at the worst point
    oracle = mehler_apply(lin, 0.5, [rep.details["grid_value"]])  # smoke
    assert oracle.method == "mehler"
    assert abs(rep.details["mc_value"] - rep.details["grid_value"]) \
        < 3 * rep.details["mc_se"] + rep.tolerance


def test_factorization_interval_base():
    lin = coordinate(1)
    ival = interval(-1.0, 1.0)
    rep = factorization_check(lin, ival, 1, 0.5, op=grid_build(ival, 400),
                              n_points=10, n_paths=20_000, h=5e-3, seed=3)
    assert rep.passed and rep.details["transition"] == "split"
    assert rep.details["increments"] == "two_point"


def test_factorization_requires_1d_base():
    disc = Ball(center=[0.0, 0.0], radius=1.0)
    disc_grid = grid_build(disc, 40)
    with pytest.raises(ValueError):
        factorization_check(coordinate(2), disc, 1, 0.5, op=disc_grid,
                            n_points=20, n_paths=20_000, h=5e-3, seed=0)


def test_convergence_study_constant_function():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    one = from_profile(const(1.0), [[1.0, 0.0]])
    study = convergence_study(ball, one, 0.4, [4, 8], n_points=4,
                              paths_per_point=500, h=5e-3, seed=5)
    assert all(abs(row.error) < 1e-12 for row in study.rows)
    assert study.details["transition"] == "euler"
    assert study.details["increments"] == "gaussian"


def test_convergence_study_decays_with_side_count():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    f = from_profile(tanh(var(1)), [[1 / math.sqrt(2), 1 / math.sqrt(2)]])
    study = convergence_study(ball, f, 0.5, [4, 8, 16], n_points=8,
                              paths_per_point=1500, h=4e-3, seed=6)
    errors = study.errors()
    assert np.all(np.diff(errors) < 0)
    masses = study.excess_masses()
    assert np.all(np.diff(masses) < 0)
    assert isinstance(study, ConvergenceStudy)
    rows = list(study.csv_rows())
    assert rows[0][0] == 4 and len(rows[0]) == 4


def test_convergence_rows_expose_noise_floor():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    f = from_profile(tanh(var(1)), [[1.0, 0.0]])
    study = convergence_study(ball, f, 0.3, [12], n_points=4,
                              paths_per_point=800, h=5e-3, seed=7)
    row = study.rows[0]
    assert row.std_error > 0
    assert row.error >= 0
