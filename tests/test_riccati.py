import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp

from conftest import C, random_lq, random_psd, random_spd, tanh_lq
from splitlq import magnus
from splitlq.bench import build_pollution, preset
from splitlq.errors import InputError, MisuseError, SingularityError
from splitlq.magnus import LinearFlowProblem, cf4_step
from splitlq.problem import GameProblem, LQProblem, TimeMatrix, s_matrix
from splitlq.riccati import (GameFlow, RiccatiFlow, backward_autonomous, backward_game,
                             backward_nonautonomous, check_nonsingular,
                             closed_loop, closed_loops, control, gain, gain_defect,
                             terminal_game_flow)


def test_zero_length_horizon_limit():
    # As T -> t0 the backward map approaches the identity on [I; QT].
    prob = LQProblem(A=C([[1.0]]), B=C([[1.0]]), Q=C([[1.0]]), R=C([[1.0]]),
                     QT=[[0.7]], x0=[1.0], t0=0.0, T=1e-13)
    flow = backward_autonomous(prob)
    assert_allclose(flow.U, [[1.0]], rtol=1e-11)
    assert_allclose(flow.V[0], [[0.7]], rtol=1e-9)


def test_decoupled_diagonal_flow():
    # S = Q = 0: U and V evolve by e^{+-aT} independently.
    q = 0.3
    prob = LQProblem(A=C([[1.0]]), B=C([[0.0]]), Q=C([[0.0]]), R=C([[1.0]]),
                     QT=[[q]], x0=[1.0], t0=0.0, T=1.0)
    flow = backward_autonomous(prob)
    assert flow.U[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-13)
    assert flow.V[0][0, 0] == pytest.approx(q * np.exp(1.0), rel=1e-13)


def test_backward_autonomous_matches_rde_oracle():
    rng = np.random.default_rng(41)
    prob = random_lq(rng, n=2, r=1)
    flow = backward_autonomous(prob)
    A, Q, S = prob.A(0.0), prob.Q[0](0.0), s_matrix(prob, 0.0)

    def rde(t, p):
        P = p.reshape(2, 2)
        return (-Q - A.T @ P - P @ A + P @ S @ P).ravel()

    sol = solve_ivp(rde, [prob.T, prob.t0], prob.QT[0].ravel(),
                    rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(gain(flow) - sol.y[:, -1].reshape(2, 2))) < 1e-10


def test_backward_autonomous_rejects_time_dependence():
    with pytest.raises(MisuseError):
        backward_autonomous(tanh_lq())


def test_backward_nonautonomous_agrees_with_autonomous():
    rng = np.random.default_rng(42)
    prob = random_lq(rng, n=2, r=2)
    a = backward_autonomous(prob)
    b = backward_nonautonomous(prob, 64)
    assert np.max(np.abs(a.stacked() - b.stacked())) < 1e-10


def test_backward_nonautonomous_scalar_quadrature_oracle():
    # Q = S = 0: U(t0) = exp(-integral of a) for the scalar drift.
    a = lambda t: 2.0 + np.tanh(5.0 * (t - 0.5))
    prob = LQProblem(
        A=TimeMatrix.from_function(lambda t: np.array([[a(t)]]), (1, 1)),
        B=C([[0.0]]), Q=C([[0.0]]), R=C([[1.0]]),
        QT=[[0.5]], x0=[1.0], t0=0.0, T=1.0,
    )
    flow = backward_nonautonomous(prob, 64)
    integral = quad(a, 0.0, 1.0, epsabs=1e-13)[0]
    assert flow.U[0, 0] == pytest.approx(np.exp(-integral), rel=1e-10)
    assert flow.V[0][0, 0] == pytest.approx(0.5 * np.exp(integral), rel=1e-10)


def test_backward_nonautonomous_fourth_order():
    prob = tanh_lq()
    ref = backward_nonautonomous(prob, 640).stacked()
    e1 = np.max(np.abs(backward_nonautonomous(prob, 16).stacked() - ref))
    e2 = np.max(np.abs(backward_nonautonomous(prob, 32).stacked() - ref))
    assert e1 / e2 == pytest.approx(16.0, rel=0.3)


def test_gain_final_condition():
    flow = RiccatiFlow(U=np.eye(2), V=np.diag([0.3, 0.6]), t=1.0)
    assert_allclose(gain(flow), np.diag([0.3, 0.6]), atol=0.0)


def test_gain_scalar():
    flow = RiccatiFlow(U=np.array([[2.0]]), V=np.array([[6.0]]), t=0.0)
    assert gain(flow)[0, 0] == pytest.approx(3.0)


def test_gain_residual():
    rng = np.random.default_rng(43)
    for _ in range(10):
        U = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        V = rng.standard_normal((3, 3))
        V = V + V.T
        flow = RiccatiFlow(U=U, V=V, t=0.0)
        P = flow.gains()[0]
        assert np.max(np.abs(P @ U - V)) < 1e-12
        assert gain_defect(flow) >= 0.0


def test_gain_singular_u():
    flow = RiccatiFlow(U=np.zeros((2, 2)), V=np.eye(2), t=0.5)
    with pytest.raises(SingularityError):
        gain(flow)


@pytest.mark.parametrize("U", [np.diag([1.0, 1e-14]), np.zeros((2, 2))],
                         ids=["ill-conditioned", "singular"])
def test_check_nonsingular_names_time(U):
    # 1/cond = 1e-14 is below the floor; the zero matrix fails in LAPACK.
    with pytest.raises(SingularityError, match="0.25") as info:
        check_nonsingular(U, 0.25)
    assert info.value.where == 0.25
    assert "U(t)" in str(info.value)


def test_control_zero_gain():
    rng = np.random.default_rng(44)
    prob = random_lq(rng, n=2, r=2)
    flow = RiccatiFlow(U=np.eye(2), V=np.zeros((2, 2)), t=0.0)
    assert_allclose(control(prob, 0.0, flow, np.ones(2)), np.zeros(2), atol=0.0)


def test_control_scalar_hand_formula():
    # u = -(b/c) e^{rho t} (v/u) x for R = c e^{-rho t}, B = b.
    rho, b, c = 0.1, 1.3, 5.5
    prob = LQProblem(
        A=C([[-1.0]]), B=C([[b]]),
        Q=TimeMatrix.from_function(lambda t: np.array([[np.exp(-rho * t) / c]]), (1, 1)),
        R=TimeMatrix.from_function(lambda t: np.array([[c * np.exp(-rho * t)]]), (1, 1)),
        QT=[[0.0]], x0=[10.0],
    )
    flow = RiccatiFlow(U=np.array([[2.0]]), V=np.array([[0.8]]), t=0.4)
    x = np.array([3.0])
    expected = -(b / c) * np.exp(rho * 0.4) * (0.8 / 2.0) * 3.0
    assert control(prob, 0.4, flow, x)[0] == pytest.approx(expected, rel=1e-13)


def test_gains_and_closed_loop_use_one_solve_for_all_players():
    # N = 3, n = 4: the stacked solve equals one solve per player.
    rng = np.random.default_rng(45)
    n, N, t = 4, 3, 0.3
    y = rng.standard_normal(((N + 1) * n, n))
    y[:n] += 3.0 * np.eye(n)
    flow = GameFlow.from_stacked(y, t)
    per_player = [np.linalg.solve(flow.U.T, V.T).T for V in flow.V]
    gains = flow.gains()
    assert len(gains) == N
    for P, ref in zip(gains, per_player):
        assert np.max(np.abs(P - ref)) < 1e-13 * np.max(np.abs(ref))
    A = rng.standard_normal((n, n))
    S = [random_psd(rng, n) for _ in range(N)]
    ref = A - sum(Sj @ Pj for Sj, Pj in zip(S, per_player))
    got = closed_loop(A, np.hstack(S), y, t)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_closed_loop_singular_u_names_time():
    y = np.vstack([np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(SingularityError, match="0.5"):
        closed_loop(np.eye(2), np.eye(2), y, 0.5)


# ---------------------------------------------------------------------------
# The chunked CF4 backward pass against the per-step loop
# ---------------------------------------------------------------------------


def _per_step_backward(prob, steps):
    # One cf4_step (three samples through flow_matrix) and one U check per
    # step, with the step-end times t += h.
    lin = LinearFlowProblem(matrix=prob.flow_matrix, dim=(prob.nplayers + 1) * prob.n)
    h = (prob.t0 - prob.T) / steps
    y, t = terminal_game_flow(prob).stacked(), prob.T
    for _ in range(steps):
        y = cf4_step(lin, t, h, y)
        t += h
        check_nonsingular(y[: prob.n], t)
    return y


def _time_dependent_game(N, n, r, seed):
    rng = np.random.default_rng(seed)
    A0, A1 = 0.5 * rng.standard_normal((2, n, n))
    Rs = [random_spd(rng, r) for _ in range(N)]
    Qs = [random_psd(rng, n) for _ in range(N)]
    tf = TimeMatrix.from_function
    return GameProblem(
        A=tf(lambda t: A0 + np.sin(3.0 * t) * A1, (n, n)),
        B=tuple(C(rng.standard_normal((n, r))) for _ in range(N)),
        R=tuple(tf(lambda t, R=R: (1.0 + 0.3 * np.cos(t)) * R, (r, r)) for R in Rs),
        Q=tuple(tf(lambda t, Q=Q: np.exp(-0.1 * t) * Q, (n, n)) for Q in Qs),
        QT=tuple(random_psd(rng, n) for _ in range(N)),
        x0=np.ones(n), t0=0.0, T=1.0)


@pytest.mark.parametrize("steps", [1, 7, 33, 100, 2048])
def test_backward_pass_bit_identical_to_per_step_loop_fig3a(steps):
    prob = build_pollution(preset("fig3a"))
    got = backward_nonautonomous(prob, steps).stacked()
    assert got.tobytes() == _per_step_backward(prob, steps).tobytes()


@pytest.mark.parametrize("N, n, r", [(3, 4, 2), (1, 2, 2)], ids=["N3-n4", "N1-n2"])
@pytest.mark.parametrize("steps", [1, 7, 33])
def test_backward_pass_bit_identical_to_per_step_loop_matrix_game(N, n, r, steps):
    prob = _time_dependent_game(N, n, r, seed=7)
    got = backward_nonautonomous(prob, steps).stacked()
    assert got.tobytes() == _per_step_backward(prob, steps).tobytes()


@pytest.mark.parametrize("steps", [1, 7, 33])
@pytest.mark.parametrize("make", [lambda: build_pollution(preset("fig3a")),
                                  lambda: _time_dependent_game(3, 4, 2, seed=7)],
                         ids=["fig3a", "N3-n4"])
def test_backward_game_with_steps_is_that_many_plain_cf4_steps(make, steps):
    # an explicit step count bypasses the ladder of the default pass
    prob = make()
    got = backward_game(prob, steps=steps).stacked()
    assert got.tobytes() == backward_nonautonomous(prob, steps).stacked().tobytes()


def _stiff_game(cutoff=None):
    # A = diag(20, -20), no coupling: 1/cond(U(t)) = exp(-40 (T - t)) falls
    # below the floor after 70 of 100 steps, inside a chunk (d = 4, 8 steps
    # per chunk).  With a cutoff the drift is NaN for t below it.
    def drift(t):
        if cutoff is not None and t < cutoff:
            return np.full((2, 2), np.nan)
        return np.diag([20.0, -20.0])

    zero = np.zeros((2, 2))
    return LQProblem(A=TimeMatrix.from_function(drift, (2, 2)), B=C(zero), Q=C(zero),
                     R=C(np.eye(2)), QT=zero, x0=np.ones(2), t0=0.0, T=1.0)


@pytest.mark.parametrize("cutoff", [None, 0.285], ids=["finite", "nan-later-in-chunk"])
def test_backward_pass_singular_u_mid_chunk_names_the_per_step_time(cutoff):
    # With the cutoff, the step after the singular one has a NaN exponent in
    # the same chunk; the per-step loop reports the singular U first.
    prob = _stiff_game(cutoff)
    with pytest.raises(SingularityError) as ref:
        _per_step_backward(prob, 100)
    with pytest.raises(SingularityError) as got:
        backward_nonautonomous(prob, 100)
    assert str(got.value) == str(ref.value)
    assert got.value.where == ref.value.where
    step = round((prob.T - got.value.where) * 100)
    chunk = magnus._CHUNK_BYTES // (32 * 4 * 4)
    assert step == 70 and step % chunk != 0


def test_backward_pass_non_finite_coefficient_mid_horizon():
    prob = _stiff_game(cutoff=0.6)
    with pytest.raises(InputError):
        _per_step_backward(prob, 100)
    with pytest.raises(InputError, match="non-finite"):
        backward_nonautonomous(prob, 100)


def test_backward_pass_singular_matrix_r_names_player_and_first_node():
    # Player 2's R is singular at t = 0.75 and player 1's one half step
    # later in integration order, both in one chunk (d = 6, 3 steps).
    def weight(t_bad):
        return TimeMatrix.from_function(
            lambda t: np.diag([1.0, (t - t_bad) ** 2 + 1e-14]), (2, 2))

    zero = np.zeros((2, 2))
    game = GameProblem(A=C(zero), B=(C(np.eye(2)), C(np.eye(2))),
                       R=(weight(0.75 - 1.0 / 64.0), weight(0.75)),
                       Q=(C(zero), C(zero)), QT=(zero, zero), x0=np.zeros(2),
                       t0=0.0, T=2.0)
    with pytest.raises(SingularityError) as ref:
        _per_step_backward(game, 64)
    with pytest.raises(SingularityError) as got:
        backward_nonautonomous(game, 64)
    assert "player 2" in str(got.value) and got.value.where == 0.75
    assert str(got.value) == str(ref.value)


def _closed_loop_stacks(N, n, k=6, seed=0):
    rng = np.random.default_rng(seed + 10 * N + n)
    return (rng.standard_normal((k, n, n)), rng.standard_normal((k, n, N * n)),
            rng.standard_normal((k, (N + 1) * n, n)), np.linspace(0.0, 1.0, k).tolist())


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 32])
def test_batched_closed_loops_are_the_per_stage_closed_loops(N, n):
    # one batched solve (a division for n = 1) gives each member's bytes;
    # constant terms may come as one layer, as the engines pass them
    A, row, Y, times = _closed_loop_stacks(N, n)
    got = closed_loops(A, row, Y, times)
    for j in range(len(Y)):
        assert got[j].tobytes() == closed_loop(A[j], row[j], Y[j], times[j]).tobytes()
    got = closed_loops(A[:1], row[:1], Y, times)
    for j in range(len(Y)):
        assert got[j].tobytes() == closed_loop(A[0], row[0], Y[j], times[j]).tobytes()
    # the stage inputs [U; W] with W = S_row V_stack already formed
    UW = np.concatenate([Y[:, :n], row @ Y[:, n:]], axis=1)
    assert closed_loops(A, None, UW, times).tobytes() == closed_loops(A, row, Y, times).tobytes()


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 32])
def test_batched_closed_loops_name_the_first_singular_time(N, n):
    A, row, Y, times = _closed_loop_stacks(N, n)
    Y[[2, 4], :, 0] = 0.0  # U singular at members 2 and 4
    with pytest.raises(SingularityError) as ref:
        closed_loop(A[2], row[2], Y[2], times[2])
    with pytest.raises(SingularityError) as got:
        closed_loops(A, row, Y, times)
    assert got.value.where == times[2]
    assert str(got.value) == str(ref.value)
