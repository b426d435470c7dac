import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import fit_order
from splitlq.bench import build_pollution, preset
from splitlq.errors import ConfigError, InputError
from splitlq.games import backward_game
from splitlq.reference import (RTOL_FLOOR, FlatODE, adaptive_solve, flatten_pipeline,
                               rk4_solve, rk4_step, unflatten)


def counting_ode(fn, dim):
    return FlatODE(dimension=dim, rhs=fn)


def test_rk4_zero_step():
    ode = counting_ode(lambda t, y: -y, 1)
    y = np.array([2.0])
    assert_allclose(rk4_step(ode, 0.0, 0.0, y), y, atol=0.0)


@pytest.mark.parametrize("steps", [0, 2.5, 10**20], ids=["zero", "float", "huge"])
def test_rk4_solve_checks_its_step_count(steps):
    # numpy refuses to index 10**20 + 1 samples: refused before any step runs
    ode = counting_ode(lambda t, y: -y, 1)
    with pytest.raises(ConfigError, match="steps"):
        rk4_solve(ode, 0.0, 1.0, steps, np.array([1.0]))
    assert ode.evaluations == 0


def test_rk4_quadrature_exactness():
    # y' = t^3 integrates exactly (Simpson-type weights, degree 3)
    ode = counting_ode(lambda t, y: np.array([t**3]), 1)
    y1 = rk4_step(ode, 0.0, 1.0, np.array([0.0]))
    assert y1[0] == pytest.approx(0.25, rel=1e-15)


def test_rk4_matches_exponential_series_through_h4():
    lam, h = -0.7, 0.3
    ode = counting_ode(lambda t, y: lam * y, 1)
    y1 = rk4_step(ode, 0.0, h, np.array([1.0]))
    series = sum((lam * h) ** k / math.factorial(k) for k in range(5))
    assert y1[0] == pytest.approx(series, abs=1e-16)
    assert ode.evaluations == 4


def test_rk4_counts_evaluations():
    ode = counting_ode(lambda t, y: -y, 1)
    rk4_solve(ode, 0.0, 1.0, 10, np.array([1.0]))
    assert ode.evaluations == 40


def test_rk4_fourth_order_on_benchmark_flat_system():
    prob = build_pollution(preset("fig1"))
    flow0 = backward_game(prob)
    ode, y0 = flatten_pipeline(prob, flow0)
    ref = rk4_solve(ode, 0.0, 1.0, 8000, y0)
    hs = [1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64]
    errs = []
    for h in hs:
        ode_k, y0_k = flatten_pipeline(prob, flow0)
        y = rk4_solve(ode_k, 0.0, 1.0, round(1 / h), y0_k)
        errs.append(np.max(np.abs(unflatten(prob, y)[1]
                                  - unflatten(prob, ref)[1])))
    assert fit_order(hs, errs) == pytest.approx(4.0, abs=0.2)


def test_adaptive_linear_decay_accuracy():
    ode = counting_ode(lambda t, y: -y, 1)
    y, evals = adaptive_solve(ode, 0.0, 1.0, np.array([1.0]), 1e-10, 1e-10)
    assert abs(y[0] - np.exp(-1.0)) < 1e-9
    assert evals == ode.evaluations


def test_adaptive_trivial_field():
    ode = counting_ode(lambda t, y: np.zeros_like(y), 3)
    y, evals = adaptive_solve(ode, 0.0, 1.0, np.ones(3), 1e-8, 1e-8)
    assert_allclose(y, np.ones(3), atol=0.0)
    assert evals < 100


def test_adaptive_tolerance_sweep_is_monotone():
    prob = build_pollution(preset("fig1"))
    flow0 = backward_game(prob)
    ode_ref, y0 = flatten_pipeline(prob, flow0)
    ref = unflatten(prob, rk4_solve(ode_ref, 0.0, 1.0, 8000, y0))[1]
    errs, counts = [], []
    for i in range(4, 11, 2):
        ode, y0_k = flatten_pipeline(prob, flow0)
        y, evals = adaptive_solve(ode, 0.0, 1.0, y0_k, 10.0**-i, 10.0 ** (1 - i))
        errs.append(np.max(np.abs(unflatten(prob, y)[1] - ref)))
        counts.append(evals)
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_adaptive_rejects_bad_tolerances():
    ode = counting_ode(lambda t, y: -y, 1)
    with pytest.raises(InputError):
        adaptive_solve(ode, 0.0, 1.0, np.ones(1), 0.0, 1e-8)
    # a rel_tol below 100 eps (scipy's floor) once ran for minutes; at the floor it runs
    for rel_tol in (1e-14, np.nextafter(RTOL_FLOOR, 0.0), np.nan):
        with pytest.raises(InputError):
            adaptive_solve(ode, 0.0, 1.0, np.ones(1), 1e-15, rel_tol)
    assert ode.evaluations == 0
    y, _ = adaptive_solve(ode, 0.0, 1.0, np.ones(1), 1e-15, RTOL_FLOOR)
    assert abs(y[0] - np.exp(-1.0)) < 1e-13


def test_flat_ode_counter_increments_per_call():
    ode = counting_ode(lambda t, y: -y, 1)
    for k in range(5):
        ode(0.0, np.ones(1))
    assert ode.evaluations == 5


def test_flatten_unflatten_round_trip():
    prob = build_pollution(preset("fig1"))
    flow0 = backward_game(prob)
    ode, y0 = flatten_pipeline(prob, flow0)
    blocks, x = unflatten(prob, y0)
    assert_allclose(blocks, flow0.stacked(), atol=0.0)
    assert_allclose(x, prob.x0, atol=0.0)
    assert ode.dimension == y0.size
