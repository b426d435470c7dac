import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp

from conftest import C, random_lq, random_psd, tanh_lq
from splitlq.errors import MisuseError, SingularityError
from splitlq.problem import LQProblem, TimeMatrix, s_matrix
from splitlq.riccati import (GameFlow, RiccatiFlow, backward_autonomous,
                             backward_nonautonomous, check_nonsingular,
                             closed_loop, control, gain, gain_defect)


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
