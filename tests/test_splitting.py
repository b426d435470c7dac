import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import C, fit_order, random_lq, random_psd, random_spd
from splitlq.bench import build_pollution, preset
from splitlq.errors import ConfigError, InputError, MisuseError, SingularityError
from splitlq.games import backward_game
from splitlq.matfun import min_eigenvalue_sym, pade2, symmetry_defect
from splitlq.problem import GameProblem, LQProblem, TimeMatrix
from splitlq.riccati import (GameFlow, RiccatiFlow, backward_autonomous,
                             backward_nonautonomous)
from splitlq.reference import flatten_pipeline, rk4_solve, unflatten
from splitlq.splitting import (COMPOSE4_ALPHAS, SplittingScheme, builtin_schemes, compose,
                               get_scheme, initial_state, integrate_forward,
                               make_stepper, record_trajectory, s2_step,
                               step_autonomous, step_near_integrable,
                               step_nonautonomous)


def coupled_2x2():
    """Nonautonomous 2x2 problem with O(1) error constants."""
    Afn = lambda t: np.array([[0.0, 2.0 + np.sin(3 * t)],
                              [-3.0, 0.5 * np.cos(2 * t)]])
    Qfn = lambda t: np.array([[2.0 + np.cos(t), 0.5],
                              [0.5, 1.5 + 0.5 * np.sin(2 * t)]])
    return LQProblem(
        A=TimeMatrix.from_function(Afn, (2, 2)),
        B=C(np.eye(2)),
        Q=TimeMatrix.from_function(Qfn, (2, 2)),
        R=C(0.5 * np.eye(2)),
        QT=np.array([[1.0, 0.2], [0.2, 0.8]]),
        x0=[1.0, -1.0], t0=0.0, T=1.0,
    )




@pytest.fixture(scope="module")
def coupled_setup():
    prob = coupled_2x2()
    flow0 = backward_nonautonomous(prob, 512)
    ode, y0 = flatten_pipeline(prob, flow0)
    ref = unflatten(prob, rk4_solve(ode, 0.0, 1.0, 8000, y0))[1]
    return prob, flow0, ref


@pytest.fixture(scope="module")
def fig1_setup():
    prob = build_pollution(preset("fig1"))
    flow0 = backward_game(prob)
    ode, y0 = flatten_pipeline(prob, flow0)
    ref = unflatten(prob, rk4_solve(ode, 0.0, 1.0, 8000, y0))[1]
    return prob, flow0, ref


@pytest.fixture(scope="module")
def fig2_setup():
    prob = build_pollution(preset("fig2"))
    flow0 = backward_game(prob)
    ode, y0 = flatten_pipeline(prob, flow0)
    ref = unflatten(prob, rk4_solve(ode, 0.0, 1.0, 8000, y0))[1]
    return prob, flow0, ref


# ---------------------------------------------------------------------------
# Scheme registry
# ---------------------------------------------------------------------------


def test_builtin_names_and_kinds():
    schemes = {s.name: s for s in builtin_schemes()}
    assert set(schemes) == {"sp1", "sp2", "sp4", "sp6", "ni42", "ni84"}
    assert schemes["ni42"].kind == "near-integrable"
    assert schemes["ni84"].kind == "near-integrable"
    assert schemes["sp4"].stages == 6
    assert schemes["sp6"].stages == 10
    assert schemes["ni42"].stages == 2
    assert schemes["ni84"].stages == 5


def test_sp4_table_values():
    s = get_scheme("sp4")
    assert s.b[0] == 0.0792036964311957
    assert s.b[1] == 0.353172906049774
    assert s.b[2] == -0.0420650803577195
    assert s.b[3] == 1.0 - 2.0 * (s.b[0] + s.b[1] + s.b[2])
    assert s.a[0] == 0.0
    assert s.a[1] == 0.209515106613362
    assert s.a[2] == -0.143851773179818
    assert s.a[3] == 0.5 - (s.a[1] + s.a[2])
    # mirror halves
    assert s.b == tuple(reversed(s.b))
    assert s.a[1:] == tuple(reversed(s.a[1:]))


def test_sp6_table_values():
    s = get_scheme("sp6")
    assert s.a[0] == 0.0502627644003922
    assert s.a[1] == 0.413514300428344
    assert s.a[2] == 0.0450798897943977
    assert s.a[3] == -0.188054853819569
    assert s.a[4] == 0.541960678450780
    assert s.a[5] == 1.0 - 2.0 * sum(s.a[:5])
    assert s.b[0] == 0.148816447901042
    assert s.b[1] == -0.132385865767784
    assert s.b[2] == 0.067307604692185
    assert s.b[3] == 0.432666402578175
    assert s.b[4] == 0.5 - (s.b[0] + s.b[1] + s.b[2] + s.b[3])


def test_near_integrable_table_values():
    s42 = get_scheme("ni42")
    assert s42.a[0] == (3.0 - math.sqrt(3.0)) / 6.0
    assert s42.b[0] == 0.5
    assert s42.a[1] == 1.0 - 2.0 * s42.a[0]
    s84 = get_scheme("ni84")
    assert s84.a[0] == 0.07534696026989288842
    assert s84.a[1] == 0.5179168546882567823
    assert s84.b[0] == 0.19022593937367661925
    assert s84.b[1] == 0.84652407044352625706
    assert s84.a[2] == 0.5 - (s84.a[0] + s84.a[1])
    assert s84.b[2] == 1.0 - 2.0 * (s84.b[0] + s84.b[1])


def test_scheme_consistency_sums():
    for s in builtin_schemes():
        assert abs(math.fsum(s.a) - 1.0) <= 1e-15
        assert abs(math.fsum(s.b) - 1.0) <= 1e-15


def test_symmetric_schemes_are_palindromic():
    for s in builtin_schemes():
        if s.symmetric:
            seq = s.interleaved()
            assert seq == tuple(reversed(seq)), s.name


def test_sp4_coefficient_interchange_for_positivity():
    # the Riccati advance uses b; its most negative entry must beat a's
    s = get_scheme("sp4")
    assert min(s.b) > min(s.a)


def test_unknown_scheme():
    with pytest.raises(ConfigError):
        get_scheme("sp8")


# ---------------------------------------------------------------------------
# Autonomous engine
# ---------------------------------------------------------------------------


def test_zero_step_is_identity():
    rng = np.random.default_rng(51)
    prob = random_lq(rng, n=2)
    state = initial_state(prob, backward_autonomous(prob))
    out = step_autonomous(get_scheme("sp4"), 0.0, state, prob)
    assert_allclose(out.flow.stacked(), state.flow.stacked(), atol=0.0)
    assert_allclose(out.x, state.x, atol=0.0)


def test_autonomous_engine_requires_constant_coefficients(coupled_setup):
    prob, flow0, _ = coupled_setup
    with pytest.raises(MisuseError):
        step_autonomous(get_scheme("sp2"), 0.1, initial_state(prob, flow0), prob)


def test_sp2_scalar_second_order():
    rng = np.random.default_rng(52)
    prob = random_lq(rng, n=1)
    flow0 = backward_autonomous(prob)
    ref = integrate_forward(prob, flow0, 1024, method="sp6").terminal_state
    e1 = abs(integrate_forward(prob, flow0, 8, method="sp2").terminal_state - ref)[0]
    e2 = abs(integrate_forward(prob, flow0, 16, method="sp2").terminal_state - ref)[0]
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_sp4_error_ratio_sixteen_on_pollution_benchmark(fig1_setup):
    prob, flow0, ref = fig1_setup
    e1 = abs(integrate_forward(prob, flow0, 8, method="sp4").terminal_state - ref)[0]
    e2 = abs(integrate_forward(prob, flow0, 16, method="sp4").terminal_state - ref)[0]
    assert e1 / e2 == pytest.approx(16.0, rel=0.25)


# ---------------------------------------------------------------------------
# Two-time-coordinate engine
# ---------------------------------------------------------------------------


def test_nonautonomous_matches_autonomous_for_constant_data():
    rng = np.random.default_rng(53)
    prob = random_lq(rng, n=2)
    state = initial_state(prob, backward_autonomous(prob))
    for name in ("sp1", "sp2", "sp4", "sp6"):
        scheme = get_scheme(name)
        a = step_autonomous(scheme, 0.125, state, prob)
        b = step_nonautonomous(scheme, 0.125, state, prob)
        assert np.max(np.abs(a.flow.stacked() - b.flow.stacked())) < 1e-13
        assert np.max(np.abs(a.x - b.x)) < 1e-13


def test_time_coordinates_rejoin_after_step():
    prob = coupled_2x2()
    state = initial_state(prob, backward_nonautonomous(prob, 32))
    for name in ("sp1", "sp2", "sp4", "sp6"):
        out = step_nonautonomous(get_scheme(name), 0.25, state, prob)
        assert out.t1 == pytest.approx(0.25, abs=1e-15)
        assert out.t2 == pytest.approx(0.25, abs=1e-15)


def test_general_scheme_orders_on_coupled_problem(coupled_setup):
    prob, flow0, ref = coupled_setup
    hs = [1.0 / 8, 1.0 / 12, 1.0 / 16, 1.0 / 24, 1.0 / 32]
    expected = {"sp2": 2.0, "sp4": 4.0, "sp6": 6.0}
    for name, order in expected.items():
        errs = [np.max(np.abs(
            integrate_forward(prob, flow0, round(1 / h), method=name).terminal_state
            - ref)) for h in hs]
        assert fit_order(hs, errs) == pytest.approx(order, abs=0.2), name


def test_palindromic_schemes_are_time_symmetric(coupled_setup):
    prob, flow0, _ = coupled_setup
    state = initial_state(prob, flow0)
    for name in ("sp2", "sp4", "sp6"):
        scheme = get_scheme(name)
        fwd = step_nonautonomous(scheme, 0.2, state, prob)
        back = step_nonautonomous(scheme, -0.2, fwd, prob)
        assert np.max(np.abs(back.flow.stacked() - state.flow.stacked())) < 1e-11
        assert np.max(np.abs(back.x - state.x)) < 1e-11


# ---------------------------------------------------------------------------
# Cayley-based symmetric map and composition
# ---------------------------------------------------------------------------


def test_s2_time_symmetry(coupled_setup):
    prob, flow0, _ = coupled_setup
    state = initial_state(prob, flow0)
    fwd = s2_step(0.2, state, prob)
    back = s2_step(-0.2, fwd, prob)
    assert np.max(np.abs(back.flow.stacked() - state.flow.stacked())) < 1e-12
    assert np.max(np.abs(back.x - state.x)) < 1e-12


def test_s2_riccati_update_is_cayley_map():
    rng = np.random.default_rng(54)
    prob = random_lq(rng, n=2)
    state = initial_state(prob, backward_autonomous(prob))
    h = 0.2
    out = s2_step(h, state, prob)
    K = prob.flow_matrix(0.0)
    expected = pade2(K, h) @ state.flow.stacked()
    assert np.max(np.abs(out.flow.stacked() - expected)) < 1e-13


def test_s2_is_second_order(coupled_setup):
    prob, flow0, ref = coupled_setup
    hs = [1.0 / 8, 1.0 / 16, 1.0 / 32]
    errs = [np.max(np.abs(
        integrate_forward(prob, flow0, round(1 / h), method="s2").terminal_state
        - ref)) for h in hs]
    assert fit_order(hs, errs) == pytest.approx(2.0, abs=0.2)


def test_compose_weights():
    a1, a2 = COMPOSE4_ALPHAS[0], COMPOSE4_ALPHAS[2]
    assert 4.0 * a1 + a2 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ConfigError):
        compose(s2_step, (0.5, 0.6))


@pytest.mark.parametrize("make", [
    lambda: compose(s2_step, (math.nan,)),
    lambda: SplittingScheme(name="bad", a=(math.nan,), b=(1.0,), order=1, stages=1,
                            symmetric=False, fsal=False, kind="general"),
    lambda: SplittingScheme(name="bad", a=(1.0,), b=(math.nan,), order=1, stages=1,
                            symmetric=False, fsal=False, kind="general"),
], ids=["compose", "scheme-a", "scheme-b"])
def test_nan_weights_are_config_errors(make):
    # abs(nan - 1) > tol is False, so a NaN sum must be rejected explicitly
    with pytest.raises(ConfigError, match="nan"):
        make()


@pytest.mark.parametrize("steps", [2.5, "8", None, np.float64(4.0)])
def test_non_integer_forward_steps_are_config_errors(coupled_setup, steps):
    prob, flow0, _ = coupled_setup
    with pytest.raises(ConfigError, match="integer"):
        integrate_forward(prob, flow0, steps)


@pytest.mark.parametrize("method", ["sp4", "s2c4"])
def test_unrecordable_forward_step_count_is_a_config_error(coupled_setup, method):
    # numpy refuses 10**20 samples before it allocates anything
    prob, flow0, _ = coupled_setup
    with pytest.raises(ConfigError, match=f"cannot record {10**20} steps"):
        integrate_forward(prob, flow0, 10**20, method=method)


def test_numpy_integer_forward_steps_are_accepted(coupled_setup):
    prob, flow0, _ = coupled_setup
    a = integrate_forward(prob, flow0, np.int64(8))
    b = integrate_forward(prob, flow0, 8)
    assert a.states.tobytes() == b.states.tobytes()


def test_compose_single_alpha_is_base(coupled_setup):
    prob, flow0, _ = coupled_setup
    state = initial_state(prob, flow0)
    once = compose(s2_step, (1.0,))(0.2, state, prob)
    direct = s2_step(0.2, state, prob)
    assert_allclose(once.flow.stacked(), direct.flow.stacked(), atol=0.0)


def test_composed_s2_is_fourth_order(coupled_setup):
    prob, flow0, ref = coupled_setup
    hs = [1.0 / 8, 1.0 / 16, 1.0 / 32]
    errs = [np.max(np.abs(
        integrate_forward(prob, flow0, round(1 / h), method="s2c4").terminal_state
        - ref)) for h in hs]
    assert fit_order(hs, errs) == pytest.approx(4.0, abs=0.2)


# ---------------------------------------------------------------------------
# Near-integrable engine
# ---------------------------------------------------------------------------


def test_near_integrable_pure_drift_is_exact():
    # S = Q = 0: the trajectory is the pure exponential drift flow.
    prob = LQProblem(A=C([[-2.0]]), B=C([[0.0]]), Q=C([[0.0]]), R=C([[1.0]]),
                     QT=[[0.4]], x0=[3.0], t0=0.0, T=1.0)
    flow0 = backward_autonomous(prob)
    traj = integrate_forward(prob, flow0, 4, method="ni84")
    assert traj.terminal_state[0] == pytest.approx(3.0 * np.exp(-2.0), rel=1e-13)
    assert traj.gains[-1][0][0, 0] == pytest.approx(0.4, rel=1e-12)


def test_near_integrable_scalar_quadrature_oracle(fig2_setup):
    # One a-stage advances x by the closed-form quadrature of the frozen
    # drift-evolved gain; CF4 approximates it to O(tau^5).
    prob, flow0, _ = fig2_setup
    state = initial_state(prob, flow0)
    scheme = get_scheme("ni42")
    h = 1.0 / 8.0
    out = step_near_integrable(scheme, h, state, prob)

    # oracle: replay the stage structure, x' = (-a - sum_i v_i(t)/ (c_i u(t))) x
    # with u, v evolved exactly; integrate the scalar exponent by quadrature.
    from scipy.integrate import quad

    a_drift = 2.0
    cs = [(100.0 + i) / 2.0 for i in range(1, 11)]
    u0 = flow0.U[0, 0]
    vs = [v[0, 0] for v in flow0.V]
    x = prob.x0[0]
    t = 0.0
    for ai, bi in zip(scheme.a, scheme.b):
        if ai != 0.0:
            tau = ai * h
            coeff = sum(v / c for v, c in zip(vs, cs)) / u0
            exponent = quad(lambda s: -a_drift - coeff * np.exp(4.0 * s),
                            0.0, tau, epsabs=1e-15)[0]
            x *= np.exp(exponent)
            u0 *= np.exp(-a_drift * tau)
            vs = [v * np.exp(a_drift * tau) for v in vs]
            t += tau
        if bi != 0.0:
            W = prob.flow_matrix(t) - np.diag([-2.0] + [2.0] * 10)
            y = np.concatenate([[u0], vs])
            X = bi * h * W
            acc = y.copy()
            term = y
            for k in range(1, 5):
                term = X @ term / k
                acc = acc + term
            u0, vs = acc[0], list(acc[1:])
    assert out.x[0] == pytest.approx(x, rel=1e-9)
    assert out.flow.U[0, 0] == pytest.approx(u0, rel=1e-12)


def test_near_integrable_orders_on_perturbed_benchmark(fig2_setup):
    prob, flow0, ref = fig2_setup
    hs = [1.0 / 8, 1.0 / 16, 1.0 / 32]
    errs = [np.max(np.abs(
        integrate_forward(prob, flow0, round(1 / h), method="ni84").terminal_state
        - ref)) for h in hs]
    assert fit_order(hs, errs) == pytest.approx(4.0, abs=0.2)


def test_near_integrable_misuse_errors(fig2_setup):
    prob, flow0, _ = fig2_setup
    state = initial_state(prob, flow0)
    with pytest.raises(MisuseError):
        step_near_integrable(get_scheme("sp4"), 0.1, state, prob)
    ramp = build_pollution(preset("fig3a"))
    rstate = initial_state(ramp, backward_game(ramp, steps=64))
    with pytest.raises(MisuseError):
        step_near_integrable(get_scheme("ni42"), 0.1, rstate, ramp)


def test_near_integrable_and_autonomous_steps_can_share_one_cache(fig2_setup):
    # sp1 at h' = a_1 h caches exp(a_1 h K) under the float a_1 h, the length
    # of ni42's first a-stage; the drift exponentials must not be read from it
    prob, flow0, _ = fig2_setup
    state = initial_state(prob, flow0)
    scheme, h, cache = get_scheme("ni42"), 0.25, {}
    step_autonomous(get_scheme("sp1"), scheme.a[0] * h, state, prob, cache=cache)
    shared = step_near_integrable(scheme, h, state, prob, cache=cache)
    alone = step_near_integrable(scheme, h, state, prob)
    assert shared.v.tobytes() == alone.v.tobytes()
    assert shared.x.tobytes() == alone.x.tobytes()


def test_near_integrable_time_symmetry(fig2_setup):
    prob, flow0, _ = fig2_setup
    state = initial_state(prob, flow0)
    scheme = get_scheme("ni84")
    fwd = step_near_integrable(scheme, 0.25, state, prob)
    back = step_near_integrable(scheme, -0.25, fwd, prob)
    assert np.max(np.abs(back.flow.stacked() - state.flow.stacked())) < 1e-11
    assert np.max(np.abs(back.x - state.x)) < 1e-11


# ---------------------------------------------------------------------------
# Accounting and structure preservation
# ---------------------------------------------------------------------------


def test_evaluation_accounting(fig1_setup):
    prob, flow0, _ = fig1_setup
    for name, stages in (("sp2", 1), ("sp4", 6), ("sp6", 10), ("ni42", 2),
                         ("ni84", 5), ("s2c4", 5)):
        t8 = integrate_forward(prob, flow0, 8, method=name)
        t16 = integrate_forward(prob, flow0, 16, method=name)
        assert t8.evaluations == 8 * stages
        assert t16.evaluations == 16 * stages
        assert t16.evaluations > t8.evaluations


def test_sp2_preserves_gain_positivity_for_all_steps():
    prob = build_pollution(preset("fig3a"))
    flow0 = backward_game(prob, steps=256)
    for steps in (4, 8, 16, 32, 64, 128, 256):
        traj = integrate_forward(prob, flow0, steps, method="sp2")
        assert traj.min_gain_eig >= -1e-8, steps


def test_gain_symmetry_along_trajectories():
    rng = np.random.default_rng(55)
    prob = random_lq(rng, n=3, r=2)
    flow0 = backward_autonomous(prob)
    for name in ("sp2", "sp4"):
        traj = integrate_forward(prob, flow0, 32, method=name)
        scale = max(1.0, np.max(np.abs(traj.gains)))
        assert traj.max_symmetry_defect <= 1e-10 * scale


def test_min_gain_eig_is_smallest_eigenvalue_of_recorded_gains():
    rng = np.random.default_rng(56)
    game = GameProblem(A=C(rng.standard_normal((3, 3))),
                       B=(C(rng.standard_normal((3, 2))), C(rng.standard_normal((3, 1)))),
                       R=(C(random_spd(rng, 2)), C(random_spd(rng, 1))),
                       Q=(C(random_psd(rng, 3)), C(random_psd(rng, 3))),
                       QT=(random_psd(rng, 3), random_psd(rng, 3)), x0=np.ones(3))
    traj = integrate_forward(game, backward_game(game), 16, method="sp4")
    expected = min(min_eigenvalue_sym(P) for gains in traj.gains for P in gains)
    assert traj.min_gain_eig == expected


@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_drift_mid_horizon_raises_input_error(n):
    # A(t) turns NaN after t = 0.5; the state update must not carry it on.
    A = TimeMatrix.from_function(
        lambda t: np.full((n, n), np.nan) if t > 0.5 else -np.eye(n), (n, n))
    prob = LQProblem(A=A, B=C(np.ones((n, 1))), Q=C(np.eye(n)), R=C([[1.0]]),
                     QT=np.zeros((n, n)), x0=np.ones(n))
    flow0 = RiccatiFlow(U=np.eye(n), V=np.zeros((n, n)), t=0.0)
    with pytest.raises(InputError):
        integrate_forward(prob, flow0, 8, method="sp4")


def test_make_stepper_rejects_near_integrable_on_time_dependent_drift():
    prob = build_pollution(preset("fig3a"))
    with pytest.raises(MisuseError, match="constant A"):
        make_stepper(prob, "ni84", {})


def test_recorded_symmetry_defect_is_the_largest_raw_defect():
    # Open-loop Nash gains of a matrix game are not symmetric; the recorder's
    # one expression per sample equals the per-player maximum, bit for bit.
    rng = np.random.default_rng(81)
    n = 3
    game = GameProblem(A=C(0.5 * rng.standard_normal((n, n))),
                       B=tuple(C(rng.standard_normal((n, 2))) for _ in range(3)),
                       R=tuple(C(random_spd(rng, 2)) for _ in range(3)),
                       Q=tuple(C(random_psd(rng, n)) for _ in range(3)),
                       QT=tuple(random_psd(rng, n) for _ in range(3)), x0=np.ones(n))
    flow0 = backward_game(game)
    stepper, _ = make_stepper(game, "sp4", {})
    state = initial_state(game, flow0)
    raws = [state.flow.gains()]
    for _ in range(16):  # the states the recorder samples, stepped again
        state = stepper(1.0 / 16, state, game)
        raws.append(state.flow.gains())
    traj = record_trajectory(game, stepper, initial_state(game, flow0), 1.0 / 16, 16, 0)
    expected = max(symmetry_defect(P) for raw in raws for P in raw)
    assert expected > 1e-3
    assert traj.max_symmetry_defect == expected


def test_recorder_rejects_non_finite_gains():
    prob = random_lq(np.random.default_rng(82), n=2, r=1)
    flow0 = backward_game(prob)
    nan_gain = np.vstack([np.eye(2), np.full((2, 2), np.nan)])  # U = I, V = nan
    bad = lambda h, state, p: replace(state, v=nan_gain)
    with pytest.raises(InputError):
        record_trajectory(prob, bad, initial_state(prob, flow0), 0.5, 2, 0)


# ---------------------------------------------------------------------------
# Chunked stage loop
# ---------------------------------------------------------------------------


def _logged(fn, dims, log):
    # a time-dependent coefficient that records every time it is evaluated at
    def evaluator(t):
        log.append(t)
        return fn(t)
    return TimeMatrix.from_function(evaluator, dims)


def two_player_tv(logs=None, A=None, R1=None):
    """Time-dependent two-player game, n = 2: player 1 has one input, player
    2 two (so its R is a matrix solve).  ``logs`` collects each
    coefficient's evaluation times by name."""
    logs = {} if logs is None else logs
    fns = {
        "A": (A or (lambda t: np.array([[0.1 * np.sin(t), 1.0], [-1.0, -0.2 + 0.1 * t]])),
              (2, 2)),
        "B1": (lambda t: np.array([[1.0], [0.5 * np.cos(t)]]), (2, 1)),
        "B2": (lambda t: np.array([[0.2 * t, 0.0], [1.0, 0.5]]), (2, 2)),
        "R1": (R1 or (lambda t: np.array([[1.0 + 0.5 * t]])), (1, 1)),
        "R2": (lambda t: np.array([[2.0, 0.3 * t], [0.3 * t, 1.0]]), (2, 2)),
        "Q1": (lambda t: np.array([[1.0 + t, 0.2], [0.2, 0.5]]), (2, 2)),
        "Q2": (lambda t: np.array([[0.5, 0.0], [0.0, 1.0 + np.sin(t)]]), (2, 2)),
    }
    tm = {k: _logged(fn, dims, logs.setdefault(k, [])) for k, (fn, dims) in fns.items()}
    return GameProblem(A=tm["A"], B=(tm["B1"], tm["B2"]), R=(tm["R1"], tm["R2"]),
                       Q=(tm["Q1"], tm["Q2"]),
                       QT=(np.array([[1.0, 0.1], [0.1, 0.5]]), 0.3 * np.eye(2)),
                       x0=[1.0, -0.5], t0=0.0, T=1.0)


def _clocks(a, b, h, steps, t0=0.0):
    # every step's a-clocks and b-clocks, accumulated as one step does
    ta, tb, t1, t2 = [], [], t0, t0
    for _ in range(steps):
        for ai, bi in zip(a, b):
            if ai != 0.0:
                ta.append(t1)
            t2 += ai * h
            if bi != 0.0:
                tb.append(t2)
            t1 += bi * h
    return ta, tb


_COEFFS = {
    "sp2": get_scheme("sp2"), "sp4": get_scheme("sp4"), "sp6": get_scheme("sp6"),
    "s2": get_scheme("sp2"),
}


def _per_stage(prob, flow0, steps, method, seen=None):
    """The a/b interleave written out stage by stage from the public calls:
    (states, symmetrized gains) after every step.  ``seen`` collects the
    clock of every closed loop formed."""
    from splitlq.riccati import GameFlow, closed_loop
    from splitlq.matfun import expm, expm_apply, pade2_apply

    scheme = _COEFFS[method]
    h = (prob.T - prob.t0) / steps
    v, x, t1, t2 = flow0.stacked(), prob.x0.copy(), prob.t0, prob.t0

    def sample():
        raw = np.asarray(GameFlow.from_stacked(v, t1).gains())
        return x, 0.5 * (raw + raw.swapaxes(-1, -2))

    out = [sample()]
    for _ in range(steps):
        for ai, bi in zip(scheme.a, scheme.b):
            if ai != 0.0:
                if seen is not None:
                    seen.append(t1)
                N = closed_loop(prob.A(t1), prob.coupling_row(t1), v, t1)
                x = expm_apply(ai * h * N, x)
            t2 += ai * h
            if bi != 0.0:
                if method == "s2":
                    v = pade2_apply(prob.flow_matrix(t2), bi * h, v)
                elif prob.is_autonomous:  # the exponential is formed and cached
                    v = expm(bi * h * prob.flow_matrix(t2)) @ v
                else:
                    v = expm_apply(bi * h * prob.flow_matrix(t2), v)
            t1 += bi * h
        out.append(sample())
    return np.array([s[0] for s in out]), np.array([s[1] for s in out])


def _ni_per_stage(prob, flow0, steps, method):
    """A near-integrable scheme written out stage by stage from the public
    calls, every coefficient sampled at its own node: (states, symmetrized
    gains) after every step."""
    from splitlq.matfun import expm, expm_apply, taylor_apply
    from splitlq.problem import assemble_flow_matrix
    from splitlq.riccati import GameFlow, closed_loop

    scheme = get_scheme(method)
    h = (prob.T - prob.t0) / steps
    A = prob.A(prob.t0)
    D = assemble_flow_matrix(prob.n, A, 0.0, [0.0] * prob.nplayers)
    v, x, t = flow0.stacked(), prob.x0.copy(), prob.t0

    def sample():
        raw = np.asarray(GameFlow.from_stacked(v, t).gains())
        return x, 0.5 * (raw + raw.swapaxes(-1, -2))

    out = [sample()]
    for _ in range(steps):
        for ai, bi in zip(scheme.a, scheme.b):
            if ai != 0.0:  # drift flow for v, one CF4 step for x
                tau = ai * h
                Gh, G1 = expm(0.5 * tau * D), expm(tau * D)
                vend = G1 @ v
                M0, Mmid, M1 = (closed_loop(A, prob.coupling_row(t + dt), y, t + dt)
                                for dt, y in ((0.0, v), (0.5 * tau, Gh @ v), (tau, vend)))
                x = expm_apply((tau / 12.0) * (3.0 * M0 + 4.0 * Mmid - M1), x)
                x = expm_apply((tau / 12.0) * (-M0 + 4.0 * Mmid + 3.0 * M1), x)
                v = vend
                t += tau
            if bi != 0.0:  # frozen coupling flow at the a-clock
                v = taylor_apply(bi * h * (prob.flow_matrix(t) - D), v, 4)
        out.append(sample())
    return np.array([s[0] for s in out]), np.array([s[1] for s in out])


@pytest.fixture(scope="module")
def tv_setup():
    prob = two_player_tv()
    return prob, backward_game(prob, steps=64)


@pytest.mark.parametrize("method", ["sp2", "sp4", "sp6", "s2"])
@pytest.mark.parametrize("steps", [1, 7, 33, 100])
def test_chunked_driver_is_the_per_stage_loop_bit_for_bit(tv_setup, method, steps):
    # d = 6: sp4 runs 2 steps per chunk, sp2 and s2 14, sp6 one, so chunk
    # edges (and the node two chunks share) fall inside the horizon.
    prob, flow0 = tv_setup
    traj = integrate_forward(prob, flow0, steps, method=method)
    states, gains = _per_stage(prob, flow0, steps, method)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.gains.tobytes() == gains.tobytes()


@pytest.mark.parametrize("method", ["sp2", "sp4", "sp6", "s2"])
def test_autonomous_engine_is_the_per_stage_loop_bit_for_bit(fig1_setup, method):
    # Ten players: the closed loop's row product is a BLAS dot product, so
    # the constant terms must reach it as the same arrays at every stage.
    prob, flow0, _ = fig1_setup
    traj = integrate_forward(prob, flow0, 8, method=method)
    states, gains = _per_stage(prob, flow0, 8, method)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.gains.tobytes() == gains.tobytes()


@pytest.fixture(scope="module")
def fig3a_setup():
    prob = build_pollution(preset("fig3a"))
    return prob, backward_game(prob, steps=64)


@pytest.mark.parametrize("method", ["sp2", "sp4", "sp6", "s2"])
@pytest.mark.parametrize("steps", [19, 37])
def test_chunked_driver_on_fig3a_is_the_per_stage_loop_bit_for_bit(fig3a_setup, method, steps):
    # d = 2, n = 1: sp4 runs 18 steps per chunk and sp6 12, so the last chunk
    # is short; sp6 and s2 open each step with an a-stage, which copies v in,
    # while the other a-stages read v where the b-stage before wrote it; the
    # state's actions are one cumulative product per chunk
    prob, flow0 = fig3a_setup
    traj = integrate_forward(prob, flow0, steps, method=method)
    states, gains = _per_stage(prob, flow0, steps, method)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.gains.tobytes() == gains.tobytes()


# a1 a2 b2 b3 a4 per step: a-stages and b-stages that follow one of their kind
_ADJACENT = SplittingScheme(name="adjacent", a=(0.25, 0.25, 0.0, 0.5), b=(0.0, 0.5, 0.5, 0.0),
                            order=1, stages=2, symmetric=False, fsal=False, kind="general")


@pytest.mark.parametrize("flow", ["taylor", "pade"])
@pytest.mark.parametrize("steps", [37, 100])
def test_adjacent_stages_of_one_kind_are_the_per_stage_loop_bit_for_bit(monkeypatch, fig3a_setup,
                                                                       flow, steps):
    # a flow that writes v' where it is read next (exp(τK)), never over the v
    # it reads, and one that returns a new array (the Cayley map); 100 steps
    # take two chunks
    from splitlq.splitting import _Engine, _pade_flow, _taylor_flow

    def writing(prob, taus, times, K):
        act = _taylor_flow(prob, taus, times, K)

        def write(j, v, out):
            assert not np.shares_memory(v, out)
            return act(j, v, out)
        return write

    prob, flow0 = fig3a_setup
    method = "sp2" if flow == "taylor" else "s2"
    monkeypatch.setitem(_COEFFS, method, _ADJACENT)
    engine = (_Engine(_ADJACENT.a, _ADJACENT.b, writing, writes=True) if flow == "taylor"
              else _Engine(_ADJACENT.a, _ADJACENT.b, _pade_flow))
    traj = integrate_forward(prob, flow0, steps, stepper=engine, stages_per_step=2)
    states, gains = _per_stage(prob, flow0, steps, method)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.gains.tobytes() == gains.tobytes()


@pytest.fixture(scope="module")
def ni_tv_setup():
    # constant A, time-dependent B and R: S_row moves inside each a-stage
    prob = replace(two_player_tv(), A=C([[0.1, 1.0], [-1.0, -0.2]]))
    return prob, backward_game(prob, steps=64)


@pytest.mark.parametrize("method", ["ni42", "ni84"])
@pytest.mark.parametrize("steps", [1, 7, 33])
@pytest.mark.parametrize("setup", ["fig1_setup", "ni_tv_setup"])
def test_near_integrable_engine_is_the_per_stage_loop_bit_for_bit(request, setup, method,
                                                                   steps):
    # fig1 (d = 11) runs one step per chunk; the n = 2 game (d = 6) runs 7
    # ni42 or 2 ni84 steps per chunk, and samples S_row at t2 + {0, 1/2, 1} a_i h.
    prob, flow0 = request.getfixturevalue(setup)[:2]
    traj = integrate_forward(prob, flow0, steps, method=method)
    states, gains = _ni_per_stage(prob, flow0, steps, method)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.gains.tobytes() == gains.tobytes()


@pytest.mark.parametrize("method, formed", [("ni42", 4), ("ni84", 6)])
@pytest.mark.parametrize("steps", [8, 64])
def test_near_integrable_drift_exponentials_formed_once_per_stage_length(
        monkeypatch, fig1_setup, method, formed, steps):
    # two exponentials, exp(τD/2) and exp(τD), per distinct a_i h
    import splitlq.splitting as splitting

    prob, flow0, _ = fig1_setup
    calls = []
    real = splitting.expm
    monkeypatch.setattr(splitting, "expm", lambda M: calls.append(M) or real(M))
    integrate_forward(prob, flow0, steps, method=method)
    assert len(calls) == formed


@pytest.mark.parametrize("method", ["sp2", "s2"])
def test_constant_terms_cross_chunk_edges_as_one_array(monkeypatch, fig1_setup, method):
    # d = 11: one step per chunk, and each chunk's first a-clock is the last
    # one of the chunk before.  The constant A and row still reach every
    # closed loop as views of the problem's one cached array, never copies.
    import splitlq.splitting as splitting

    prob, flow0, _ = fig1_setup
    seen = []
    real = splitting.closed_loops
    monkeypatch.setattr(splitting, "closed_loops",
                        lambda A, row, Y, t: seen.extend([(A, row)] * len(t)) or real(A, row, Y, t))
    integrate_forward(prob, flow0, 12, method=method)
    A0, row0 = prob.A(0.0), prob.coupling_row(0.0)
    assert len(seen) == 2 * 12
    assert all(np.shares_memory(A, A0) and np.shares_memory(row, row0) for A, row in seen)


@pytest.mark.parametrize("method", ["sp2", "sp4", "sp6", "s2"])
def test_each_coefficient_sampled_once_per_stage_node(method):
    logs = {}
    prob = two_player_tv(logs)
    steps = 33
    flow0 = RiccatiFlow(U=np.eye(2), V=np.eye(2), t=0.0)
    flow0 = replace(flow0, V=prob.QT)  # U = I, V_i = QT_i: no backward pass
    for log in logs.values():
        log.clear()  # forget the problem's own validation samples
    traj = integrate_forward(prob, flow0, steps, method=method)
    scheme = _COEFFS[method]
    ta, tb = _clocks(scheme.a, scheme.b, 1.0 / steps, steps)
    assert not set(ta) & set(tb)
    # A and Q only in the stage loop: once per distinct node
    assert sorted(logs["A"]) == sorted(set(ta) | set(tb))
    for name in ("Q1", "Q2"):
        assert sorted(logs[name]) == sorted(set(tb))
    # B and R: once per distinct node, then once per sample for the controls
    for name in ("B1", "B2", "R1", "R2"):
        assert len(logs[name]) == len(set(ta) | set(tb)) + steps + 1
        assert logs[name][-(steps + 1):] == list(traj.times)
    # shared nodes exist (a-clocks for sp2, sp6, s2; b-clocks for sp4)
    assert len(set(ta)) + len(set(tb)) < len(ta) + len(tb)


@pytest.mark.parametrize("method", ["sp4", "s2"])
def test_non_finite_drift_inside_a_chunk_runs_the_steps_before_it(monkeypatch, method):
    # n = 2, one player (d = 4): an sp4 chunk is 4 steps of h = 0.05, so
    # the third chunk covers [0.4, 0.6] and A turns NaN inside it.
    import splitlq.splitting as splitting

    nan_after = lambda t: (np.full((2, 2), np.nan) if t > 0.5
                           else np.array([[-0.5, 1.0], [0.0, -1.0]]))
    prob = LQProblem(A=TimeMatrix.from_function(nan_after, (2, 2)), B=C(np.eye(2)),
                     Q=C(np.eye(2)), R=C(np.eye(2)), QT=np.eye(2), x0=[1.0, 1.0])
    flow0 = RiccatiFlow(U=np.eye(2), V=np.eye(2), t=0.0)
    want = []
    with pytest.raises(InputError):
        _per_stage(prob, flow0, 20, method, seen=want)
    got = []
    real = splitting.closed_loops
    monkeypatch.setattr(splitting, "closed_loops",
                        lambda A, row, Y, t: got.extend(t) or real(A, row, Y, t))
    with pytest.raises(InputError):
        integrate_forward(prob, flow0, 20, method=method)
    assert got == want and 0.4 < got[-1] < 0.55  # past the chunk start


def test_non_finite_closed_loop_first_forms_no_later_closed_loop(monkeypatch):
    # sp2, h = 0.05: A turns NaN between the b-clock 0.525 and the a-clock
    # 0.55, so an a-stage fails before any flow; the batched call forms the
    # closed loops up to it, as the per-stage loop does, not the next one.
    import splitlq.splitting as splitting

    nan_after = lambda t: (np.full((2, 2), np.nan) if t > 0.53
                           else np.array([[-0.5, 1.0], [0.0, -1.0]]))
    prob = LQProblem(A=TimeMatrix.from_function(nan_after, (2, 2)), B=C(np.eye(2)),
                     Q=C(np.eye(2)), R=C(np.eye(2)), QT=np.eye(2), x0=[1.0, 1.0])
    flow0 = RiccatiFlow(U=np.eye(2), V=np.eye(2), t=0.0)
    want = []
    with pytest.raises(InputError):
        _per_stage(prob, flow0, 20, "sp2", seen=want)
    got = []
    real = splitting.closed_loops
    monkeypatch.setattr(splitting, "closed_loops",
                        lambda A, row, Y, t: got.extend(t) or real(A, row, Y, t))
    with pytest.raises(InputError):
        integrate_forward(prob, flow0, 20, method="sp2")
    assert got == want and got[-1] == pytest.approx(0.55)


def test_singular_r_in_a_later_chunk_names_its_node():
    # R_1 is singular at one a-clock of step 70 of 100; an sp4 chunk is 2
    # steps here, so the node lies in the 36th chunk.
    steps = 100
    ta, _ = _clocks(get_scheme("sp4").a, get_scheme("sp4").b, 1.0 / steps, steps)
    node = ta[6 * 70 + 2]
    prob = two_player_tv(R1=lambda t: np.array([[0.0 if t == node else 1.0]]))
    flow0 = backward_game(two_player_tv(), steps=64)
    with pytest.raises(SingularityError) as ref:
        _per_stage(prob, flow0, steps, "sp4")
    with pytest.raises(SingularityError) as got:
        integrate_forward(prob, flow0, steps, method="sp4")
    assert got.value.where == ref.value.where == node
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("method", ["sp4", "s2"])
def test_singular_u_before_a_non_finite_node_of_the_same_chunk(method):
    # U = diag(1, 0) and no coupling keep U singular; A is NaN after
    # t = 0.3, inside the first chunk.  The first closed loop fails first.
    A = TimeMatrix.from_function(
        lambda t: np.full((2, 2), np.nan) if t > 0.3 else np.zeros((2, 2)), (2, 2))
    prob = LQProblem(A=A, B=C(np.zeros((2, 1))), Q=C(np.zeros((2, 2))), R=C([[1.0]]),
                     QT=np.zeros((2, 2)), x0=[1.0, 1.0])
    flow0 = RiccatiFlow(U=np.diag([1.0, 0.0]), V=np.zeros((2, 2)), t=0.0)
    with pytest.raises(SingularityError) as ref:
        _per_stage(prob, flow0, 10, method)
    with pytest.raises(SingularityError) as got:
        integrate_forward(prob, flow0, 10, method=method)
    assert got.value.where == ref.value.where < 0.3


def test_composed_s2_merges_the_boundary_closed_loops(monkeypatch, fig1_setup):
    # s2c4 as one coefficient sequence: 6 closed loops per step, not 10,
    # still counted as 5 evaluations per step.
    import splitlq.splitting as splitting

    prob, flow0, _ = fig1_setup
    calls = []
    real = splitting.closed_loops
    monkeypatch.setattr(splitting, "closed_loops",
                        lambda *args: calls.extend(args[-1]) or real(*args))
    traj = integrate_forward(prob, flow0, 8, method="s2c4")
    assert len(calls) == 6 * 8 and traj.evaluations == 5 * 8


def test_controls_are_the_feedback_law_at_every_sample(tv_setup):
    prob, flow0 = tv_setup
    traj = integrate_forward(prob, flow0, 16, method="sp4")
    for j in range(2):
        assert traj.controls[j].shape == (17, prob.B[j].dims[1])
        for k, t in enumerate(traj.times):
            u = -np.linalg.solve(prob.R[j](t), prob.B[j](t).T @ traj.gains[k, j]
                                 @ traj.states[k])
            assert_allclose(traj.controls[j][k], u, rtol=1e-13, atol=1e-15)


def test_singular_r_at_a_recorded_time_names_it():
    # The batched control evaluation after the last step still reports the
    # time of a singular R, here one that no stage samples.
    steps = 16
    scheme = get_scheme("sp4")
    ta, tb = _clocks(scheme.a, scheme.b, 1.0 / steps, steps)
    times = integrate_forward(two_player_tv(), backward_game(two_player_tv(), steps=64),
                              steps, method="sp4").times
    bad = next(t for t in times[5:] if t not in set(ta) | set(tb))
    prob = two_player_tv(R1=lambda t: np.array([[0.0 if t == bad else 1.0]]))
    with pytest.raises(SingularityError, match="player 1") as err:
        integrate_forward(prob, backward_game(two_player_tv(), steps=64), steps,
                          method="sp4")
    assert err.value.where == bad


# ---------------------------------------------------------------------------
# Chunked recorder
# ---------------------------------------------------------------------------


def _marched(monkeypatch):
    # every record the engines yield, in order
    import splitlq.splitting as splitting

    records, real = [], splitting._Engine.march

    def march(self, *args):
        for record in real(self, *args):
            records.append(record)
            yield record
    monkeypatch.setattr(splitting._Engine, "march", march)
    return records


def _assert_recorded_per_sample(traj, state, records):
    # the per-sample oracle: each step end's raw gains from its own
    # GameFlow.gains, symmetrized and reduced as one sample
    samples = [(state.t1, state.x, state.v)] + [
        (t, x, v) for t1, _, vs, xs in records for t, x, v in zip(t1, xs, vs)]
    assert len(samples) == len(traj.times)
    raws = [np.asarray(GameFlow.from_stacked(v, t).gains()) for t, _, v in samples]
    gains = np.array([0.5 * (raw + raw.swapaxes(-1, -2)) for raw in raws])
    defect = max(float(np.max(np.abs(raw - raw.swapaxes(-1, -2)))) for raw in raws)
    assert traj.times.tobytes() == np.array([t for t, _, _ in samples]).tobytes()
    assert traj.states.tobytes() == np.array([x for _, x, _ in samples]).tobytes()
    assert traj.gains.tobytes() == gains.tobytes()
    assert traj.max_symmetry_defect == defect


@pytest.mark.parametrize("name, method, steps, chunks", [
    ("fig3a", "sp4", 19, [18, 1]),  # d = 2: 18 sp4 steps per chunk, 25 s2c4 steps
    ("fig3a", "sp4", 37, [18, 18, 1]),
    ("fig3a", "s2c4", 19, [19]),
    ("fig3a", "s2c4", 37, [25, 12]),
    ("fig1", "sp4", 5, [1] * 5),  # d = 11: one step per chunk
    ("fig1", "s2c4", 5, [1] * 5),
    ("fig1", "ni84", 5, [1] * 5),
])
def test_chunked_recorder_is_the_per_sample_gain_map_bit_for_bit(monkeypatch, name, method,
                                                                  steps, chunks):
    prob = build_pollution(preset(name))
    flow0 = backward_game(prob, steps=64)
    records = _marched(monkeypatch)
    traj = integrate_forward(prob, flow0, steps, method=method)
    assert [len(v) for _, _, v, _ in records] == chunks
    _assert_recorded_per_sample(traj, initial_state(prob, flow0), records)


def test_chunked_recorder_on_a_large_autonomous_game_bit_for_bit(monkeypatch):
    # n = 32, three players: d = 128, the solves are LAPACK's, one step per chunk
    rng = np.random.default_rng(83)
    n = 32
    game = GameProblem(A=C(0.1 * rng.standard_normal((n, n))),
                       B=tuple(C(rng.standard_normal((n, 2))) for _ in range(3)),
                       R=tuple(C(random_spd(rng, 2)) for _ in range(3)),
                       Q=tuple(C(random_psd(rng, n) / n) for _ in range(3)),
                       QT=tuple(random_psd(rng, n) / n for _ in range(3)), x0=np.ones(n))
    flow0 = backward_game(game)
    records = _marched(monkeypatch)
    traj = integrate_forward(game, flow0, 3, method="sp4")
    assert [len(v) for _, _, v, _ in records] == [1, 1, 1]
    _assert_recorded_per_sample(traj, initial_state(game, flow0), records)


def test_zero_sum_recorder_is_the_per_sample_gain_map_bit_for_bit(monkeypatch):
    from splitlq.games import backward_zero_sum, solve_zero_sum

    base = build_pollution(preset("fig1"))
    W = TimeMatrix.from_constant([[20.0]])
    game = GameProblem(A=base.A, B=base.B[:2], R=base.R[:2], Q=base.Q[:2],
                       QT=base.QT[:2], x0=base.x0, cross_R={(1, 2): W, (2, 1): W})
    P1, P2 = backward_zero_sum(game, 16)
    records = _marched(monkeypatch)
    traj = solve_zero_sum(game, steps_backward=16, steps_forward=23)
    assert [len(v) for _, _, v, _ in records] == [11, 11, 1]  # d = 3: 11 steps per chunk
    flow0 = GameFlow(U=np.eye(1), V=(P1, P2), t=game.t0)
    _assert_recorded_per_sample(traj, initial_state(game, flow0), records)


def _crafted_engine(step_ends, n):
    # b, a, b: the closed loop reads only the mid-step flow, I over I/2, so
    # the march never touches a step end; step s ends at step_ends[s], or
    # at the mid-step flow when it is not listed
    from splitlq.splitting import _Engine

    mid = np.vstack([np.eye(n), 0.5 * np.eye(n)])
    return _Engine((0.0, 1.0, 0.0), (0.5, 0.0, 0.5), lambda prob, taus, times, K: (
        lambda j, v: step_ends.get(j // 2, mid) if j % 2 else mid))


def _record_crafted(step_ends, n, steps=4):
    prob = random_lq(np.random.default_rng(84), n=n, r=1)
    flow0 = RiccatiFlow(U=np.eye(n), V=0.5 * np.eye(n), t=0.0)
    return record_trajectory(prob, _crafted_engine(step_ends, n),
                             initial_state(prob, flow0), 0.25, steps, 0)


@pytest.mark.parametrize("n, U", [(1, [[0.0]]), (2, [[1.0, 1.0], [1.0, 1.0]])])
def test_singular_u_at_a_recorded_step_end_raises_as_one_sample(n, U):
    # U = 0 fails the division for n = 1, U of rank one LAPACK's solve for n > 1;
    # the step ends before it, in the same chunk, are fine
    bad = np.vstack([np.array(U), np.eye(n)])
    with pytest.raises(SingularityError) as ref:
        GameFlow.from_stacked(bad, 0.75).gains()  # step 2 ends at t1 = 0.75
    with pytest.raises(SingularityError) as got:
        _record_crafted({2: bad}, n)
    assert got.value.where == ref.value.where == 0.75
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_gain_at_a_recorded_step_end_raises_input_error(n):
    bad = np.vstack([np.eye(n), np.full((n, n), np.inf)])
    with pytest.raises(InputError, match="non-finite"):
        _record_crafted({1: bad}, n)


@pytest.mark.parametrize("n", [1, 2])
def test_first_failing_sample_of_a_chunk_raises_first(n):
    # a non-finite gain at step 1, then a singular U at step 3 in the same
    # chunk: the batched solve fails on step 3, but step 1 fails first
    inf = np.vstack([np.eye(n), np.full((n, n), np.inf)])
    singular = np.vstack([np.zeros((n, n)), np.eye(n)])
    with pytest.raises(InputError):
        _record_crafted({1: inf, 3: singular}, n)
    with pytest.raises(SingularityError) as err:
        _record_crafted({3: singular}, n)
    assert err.value.where == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_gain_raises_without_a_warning(n):
    # a warning would be a second stderr line in the CLI
    bad = np.vstack([np.eye(n), np.full((n, n), np.inf)])
    with pytest.raises(InputError, match="non-finite"):
        _record_crafted({1: bad}, n)


def test_crafted_engine_records_its_step_ends():
    # the engine the error tests use does reach the recorder with its step ends
    ends = {s: np.vstack([np.eye(2), (s + 1.0) * np.eye(2)]) for s in range(4)}
    traj = _record_crafted(ends, 2)
    assert_allclose(traj.gains[1:, 0], [(s + 1.0) * np.eye(2) for s in range(4)], rtol=0.0)
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_composed_step_map_is_recorded_one_sample_per_step():
    prob = build_pollution(preset("fig3a"))
    flow0 = backward_game(prob, steps=64)
    stepper, steps = compose(s2_step, COMPOSE4_ALPHAS), 9
    traj = integrate_forward(prob, flow0, steps, stepper=stepper, stages_per_step=5)
    state = initial_state(prob, flow0)
    states = [state]
    for _ in range(steps):
        state = stepper(1.0 / steps, state, prob)
        states.append(state)
    records = [((s.t1,), (s.t2,), s.v[None], s.x[None]) for s in states[1:]]
    _assert_recorded_per_sample(traj, states[0], records)
    assert traj.evaluations == 5 * steps
