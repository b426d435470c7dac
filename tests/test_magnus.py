import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from conftest import canonical_j, fit_order, random_hamiltonian
from splitlq.errors import ConfigError, InputError
from splitlq.magnus import LinearFlowProblem, cf4_chunks, cf4_step, integrate, richardson
from splitlq.matfun import expm, expm_apply


def _constant_problem(M):
    return LinearFlowProblem(matrix=lambda t: M, dim=M.shape[0])


def test_cf4_exact_for_constant_matrix():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((3, 3))
    y0 = rng.standard_normal(3)
    y1 = cf4_step(_constant_problem(M), 0.0, 0.4, y0)
    assert np.max(np.abs(y1 - expm(0.4 * M) @ y0)) < 1e-13


def test_cf4_scalar_linear_in_time_is_simpson_exact():
    # m(t) = t: the exponent reduces to Simpson's rule, exact here,
    # so the step equals exp(integral of m) = exp((t1^2 - t0^2)/2).
    prob = LinearFlowProblem(matrix=lambda t: np.array([[t]]), dim=1)
    y1 = cf4_step(prob, 0.0, 1.0, np.array([1.0]))
    assert y1[0] == pytest.approx(np.exp(0.5), rel=1e-14)


def test_cf4_fourth_order_on_noncommuting_problem():
    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A1 = np.array([[0.5, 0.2], [0.0, -0.5]])
    matrix = lambda t: A0 + np.cos(t) * A1
    prob = LinearFlowProblem(matrix=matrix, dim=2)
    y0 = np.array([1.0, 0.3])
    sol = solve_ivp(lambda t, y: matrix(t) @ y, [0.0, 2.0], y0,
                    rtol=1e-13, atol=1e-15)
    ref = sol.y[:, -1]
    steps_list = [8, 16, 32, 64]
    errs = [np.max(np.abs(integrate(prob, 0.0, 2.0, k, y0) - ref))
            for k in steps_list]
    order = fit_order([2.0 / k for k in steps_list], errs)
    assert order == pytest.approx(4.0, abs=0.2)


def test_richardson_of_cf4_is_sixth_order():
    # CF4 is symmetric, so its error has only even powers of h: one
    # Richardson step on a halving removes the h^4 term and leaves h^6.
    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A1 = np.array([[0.5, 0.2], [0.0, -0.5]])
    matrix = lambda t: A0 + np.cos(3.0 * t) * A1
    prob = LinearFlowProblem(matrix=matrix, dim=2)
    y0 = np.array([1.0, 0.3])
    ref = solve_ivp(lambda t, y: matrix(t) @ y, [0.0, 2.0], y0, method="DOP853",
                    rtol=3e-14, atol=1e-16).y[:, -1]
    steps_list = [8, 16, 32]
    errs = [np.max(np.abs(richardson(integrate(prob, 0.0, 2.0, k, y0),
                                     integrate(prob, 0.0, 2.0, 2 * k, y0), 4) - ref))
            for k in steps_list]
    order = fit_order([2.0 / k for k in steps_list], errs)
    assert order == pytest.approx(6.0, abs=0.2), errs


def test_richardson_cancels_the_named_power():
    # a + b h^p at h and h/2 extrapolates to a exactly (in exact arithmetic)
    a, b, h = 0.75, 3.0, 0.5
    for p in (2, 4):
        assert richardson(a + b * h**p, a + b * (h / 2)**p, p) == pytest.approx(a, abs=1e-15)


def test_integrate_single_step_equals_cf4():
    rng = np.random.default_rng(32)
    M = rng.standard_normal((2, 2))
    prob = _constant_problem(M)
    y0 = rng.standard_normal(2)
    assert_allclose(integrate(prob, 0.0, 0.3, 1, y0),
                    cf4_step(prob, 0.0, 0.3, y0), atol=0.0)


def test_integrate_error_shrinks_sixteenfold():
    matrix = lambda t: np.array([[2.0 + np.tanh(5.0 * (t - 0.5)), -0.2],
                                 [0.1, -1.0 - 0.3 * t]])
    prob = LinearFlowProblem(matrix=matrix, dim=2)
    y0 = np.array([1.0, -1.0])
    ref = integrate(prob, 0.0, 1.0, 2048, y0)
    e1 = np.max(np.abs(integrate(prob, 0.0, 1.0, 16, y0) - ref))
    e2 = np.max(np.abs(integrate(prob, 0.0, 1.0, 32, y0) - ref))
    assert e1 / e2 == pytest.approx(16.0, rel=0.25)


def test_forward_backward_round_trip():
    matrix = lambda t: np.array([[np.sin(t), 1.0], [-1.0, np.cos(t)]])
    prob = LinearFlowProblem(matrix=matrix, dim=2)
    y0 = np.array([0.7, -0.2])
    y1 = integrate(prob, 0.0, 1.0, 64, y0)
    back = integrate(prob, 1.0, 0.0, 64, y1)
    assert np.max(np.abs(back - y0)) < 1e-10


def test_cf4_step_symplectic_for_hamiltonian_flow():
    rng = np.random.default_rng(33)
    J = canonical_j(2)
    H0 = random_hamiltonian(rng, 2)
    H1 = random_hamiltonian(rng, 2)
    prob = LinearFlowProblem(matrix=lambda t: H0 + np.sin(t) * H1, dim=4)
    Phi = cf4_step(prob, 0.0, 0.3, np.eye(4))
    assert np.max(np.abs(Phi.T @ J @ Phi - J)) < 1e-10


def test_cf4_rejects_zero_step_and_bad_counts():
    prob = _constant_problem(np.eye(2))
    with pytest.raises(InputError):
        cf4_step(prob, 0.0, 0.0, np.ones(2))
    for steps in (0, 2.5):
        with pytest.raises(ConfigError):
            integrate(prob, 0.0, 1.0, steps, np.ones(2))
    assert_allclose(integrate(prob, 0.0, 1.0, np.int64(3), np.ones(2)), np.e * np.ones(2),
                    rtol=1e-14)


def _per_step(prob, t0, h, steps, y):
    # The uniform-step loop with the step-end times t += h, one cf4_step
    # (three samples) per step.
    t = t0
    for _ in range(steps):
        y = cf4_step(prob, t, h, y)
        t += h
    return y


@pytest.mark.parametrize("steps", [1, 7, 33, 100])
def test_integrate_is_bit_identical_to_per_step_loop(steps):
    # Chunk edges fall inside the horizon at d = 2 (32 steps per chunk).
    matrix = lambda t: np.array([[np.sin(3.0 * t), 1.0], [-1.0, np.cos(t)]])
    prob = LinearFlowProblem(matrix=matrix, dim=2)
    y0 = np.array([[0.7, 0.1], [-0.2, 1.0]])
    h = -1.0 / steps
    got = integrate(prob, 1.0, 0.0, steps, y0)
    assert got.tobytes() == _per_step(prob, 1.0, h, steps, y0).tobytes()


def test_chunks_sample_each_node_once():
    seen = []

    def matrix(t):
        seen.append(t)
        return np.array([[0.0, 1.0], [-1.0, t]])

    integrate(LinearFlowProblem(matrix=matrix, dim=2), 0.0, 1.0, 40, np.ones(2))
    assert len(seen) == len(set(seen)) == 2 * 40 + 1


def test_chunks_yield_the_steps_before_a_non_finite_coefficient():
    # The coefficient is NaN from step 6 on, inside the first chunk: the
    # kernel yields the five good steps, then raises.
    matrix = lambda t: np.array([[np.nan if t > 0.5 else 1.0]])
    prob = LinearFlowProblem(matrix=matrix, dim=1)
    steps = []
    with pytest.raises(InputError):
        for times, ys in cf4_chunks(prob, 0.0, 0.1, 20, np.array([1.0])):
            steps.extend(zip(times, ys))
    assert len(steps) == 5
    assert steps[-1][1] == pytest.approx(np.exp(steps[-1][0]), rel=1e-13)
    with pytest.raises(InputError):
        integrate(prob, 0.0, 2.0, 20, np.array([1.0]))


def test_sample_rejects_misshaped_matrix():
    prob = LinearFlowProblem(matrix=lambda t: np.eye(3), dim=2)
    with pytest.raises(InputError, match="shape"):
        cf4_step(prob, 0.0, 0.1, np.ones(2))


@pytest.mark.parametrize("d, h", [(1, 0.3), (2, -0.01), (5, 0.2), (5, 3.0)])
def test_cf4_step_is_the_two_exponential_actions(d, h):
    # Bit for bit the CF4 formula with expm_apply, whose Taylor degree (or,
    # at h = 3, the formed exponential) the kernel picks for its exponents.
    rng = np.random.default_rng(34)
    M0, M1 = rng.standard_normal((2, d, d))
    matrix = lambda t: M0 + np.sin(t) * M1
    y = rng.standard_normal((d, 2))
    A, Ah, B = matrix(0.4), matrix(0.4 + 0.5 * h), matrix(0.4 + h)
    ref = expm_apply((h / 12.0) * (3.0 * A + 4.0 * Ah - B), y)
    ref = expm_apply((h / 12.0) * (-A + 4.0 * Ah + 3.0 * B), ref)
    got = cf4_step(LinearFlowProblem(matrix=matrix, dim=d), 0.4, h, y)
    assert got.tobytes() == ref.tobytes()
