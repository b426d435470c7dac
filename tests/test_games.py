import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from conftest import C, random_psd, random_spd
from splitlq import games, riccati, splitting
from splitlq.bench import build_pollution, preset, run_sweep
from splitlq.errors import (ConfigError, DimensionError, InputError, MisuseError,
                             SingularityError)
from splitlq.games import (GameFlow, GameProblem, backward_game,
                           backward_zero_sum, game_block_matrix, solve_game,
                           solve_zero_sum, zero_sum_rhs, zs_base_step)
from splitlq.matfun import expm
from splitlq.problem import LQProblem, TimeMatrix
from splitlq.riccati import backward_autonomous
from splitlq.problem import hamiltonian_matrix
from splitlq.splitting import integrate_forward


def scalar_game(nplayers=2, cross=None, x0=1.5):
    B = tuple(C([[1.0]]) for _ in range(nplayers))
    R = tuple(C([[2.0 + i]]) for i in range(nplayers))
    Q = tuple(C([[1.0 - 0.3 * i]]) for i in range(nplayers))
    QT = tuple(np.array([[0.4 - 0.1 * i]]) for i in range(nplayers))
    return GameProblem(A=C([[-1.0]]), B=B, R=R, Q=Q, QT=QT,
                       x0=np.array([x0]), cross_R=cross)


def matrix_game(rng, n=2, nplayers=2):
    A = rng.standard_normal((n, n)) * 0.4
    B = tuple(C(rng.standard_normal((n, 1))) for _ in range(nplayers))
    R = tuple(C(random_spd(rng, 1)) for _ in range(nplayers))
    Q = tuple(C(random_psd(rng, n)) for _ in range(nplayers))
    QT = tuple(random_psd(rng, n) for _ in range(nplayers))
    return GameProblem(A=C(A), B=B, R=R, Q=Q, QT=QT,
                       x0=rng.standard_normal(n))


# ---------------------------------------------------------------------------
# Block matrix
# ---------------------------------------------------------------------------


def test_single_player_reduces_to_hamiltonian():
    rng = np.random.default_rng(61)
    A = rng.standard_normal((2, 2)) * 0.5
    B = rng.standard_normal((2, 1))
    R = random_spd(rng, 1)
    Q = random_psd(rng, 2)
    QT = random_psd(rng, 2)
    game = GameProblem(A=C(A), B=(C(B),), R=(C(R),), Q=(C(Q),), QT=(QT,),
                       x0=np.zeros(2))
    lq = LQProblem(A=C(A), B=C(B), Q=C(Q), R=C(R), QT=QT, x0=np.zeros(2))
    assert_allclose(game_block_matrix(game, 0.0), hamiltonian_matrix(lq, 0.0),
                    atol=0.0)


def test_pollution_block_matrix_structure():
    prob = build_pollution(preset("fig1"))
    K = game_block_matrix(prob, 0.0)
    assert K.shape == (11, 11)
    assert K[0, 0] == pytest.approx(-1.0)
    for i in range(1, 11):
        assert K[0, i] == pytest.approx(-2.0 / (10.0 + i), rel=1e-15)
        assert K[i, 0] == pytest.approx(-2.0 / (10.0 + i), rel=1e-15)
        assert K[i, i] == pytest.approx(1.0)
    off = K - np.diag(np.diag(K))
    off[0, :] = 0.0
    off[:, 0] = 0.0
    assert np.max(np.abs(off)) == 0.0


def test_block_diagonal_when_uncoupled():
    game = GameProblem(
        A=C([[0.3, 0.1], [0.0, -0.2]]),
        B=(C(np.zeros((2, 1))), C(np.zeros((2, 1)))),
        R=(C([[1.0]]), C([[1.0]])),
        Q=(C(np.zeros((2, 2))), C(np.zeros((2, 2)))),
        QT=(np.zeros((2, 2)), np.zeros((2, 2))),
        x0=np.zeros(2),
    )
    K = game_block_matrix(game, 0.0)
    A = game.A(0.0)
    assert_allclose(K[:2, :2], A, atol=0.0)
    assert np.max(np.abs(K[:2, 2:])) == 0.0
    assert np.max(np.abs(K[2:, :2])) == 0.0
    assert_allclose(K[2:4, 2:4], -A.T, atol=0.0)
    assert_allclose(K[4:, 4:], -A.T, atol=0.0)


# ---------------------------------------------------------------------------
# Non-zero-sum pipeline
# ---------------------------------------------------------------------------


def test_single_player_game_matches_lq_pipeline():
    rng = np.random.default_rng(62)
    A = rng.standard_normal((2, 2)) * 0.5
    B = rng.standard_normal((2, 1))
    R = random_spd(rng, 1)
    Q = random_psd(rng, 2)
    QT = random_psd(rng, 2)
    x0 = rng.standard_normal(2)
    game = GameProblem(A=C(A), B=(C(B),), R=(C(R),), Q=(C(Q),), QT=(QT,), x0=x0)
    lq = LQProblem(A=C(A), B=C(B), Q=C(Q), R=C(R), QT=QT, x0=x0)

    gt = solve_game(game, scheme="sp4", steps_forward=32)
    lt = integrate_forward(lq, backward_autonomous(lq), 32, method="sp4")
    assert np.max(np.abs(gt.terminal_state - lt.terminal_state)) < 1e-12
    assert np.max(np.abs(gt.gains - lt.gains)) < 1e-12
    assert np.max(np.abs(gt.controls[0] - lt.controls[0])) < 1e-12


def test_backward_matches_coupled_rde_oracle():
    prob = build_pollution(preset("fig1"))
    flow = backward_game(prob)
    S = [2.0 / (10.0 + i) for i in range(1, 11)]
    d = [2.0 / (10.0 + i) for i in range(1, 11)]

    def rhs(t, p):
        # coupled scalar Riccati equations, backward in forward time
        out = np.empty(10)
        sp = float(np.dot(S, p))
        for i in range(10):
            out[i] = -d[i] + 2.0 * p[i] + p[i] * sp
        return out

    sol = solve_ivp(rhs, [1.0, 0.0], np.zeros(10), rtol=1e-12, atol=1e-14)
    ours = np.array([flow.gains()[i][0, 0] for i in range(10)])
    assert np.max(np.abs(ours - sol.y[:, -1])) < 1e-10


def test_terminal_controls_vanish_for_zero_terminal_weight():
    prob = build_pollution(preset("fig1"))
    traj = solve_game(prob, scheme="sp4", steps_forward=16)
    for u in traj.controls:
        assert abs(u[-1][0]) < 1e-12


def test_forward_round_trip_returns_terminal_weights():
    prob = build_pollution(preset("fig1"))
    for steps in (4, 16, 64):
        traj = solve_game(prob, scheme="sp4", steps_forward=steps)
        assert traj.terminal_gain_defect <= 1e-11


def test_gains_remain_symmetric_along_trajectory():
    # The stacked-block Riccati form keeps each P_i symmetric when the
    # players are exchangeable (and trivially when n = 1); heterogeneous
    # matrix games drift asymmetric mid-horizon by construction.
    rng = np.random.default_rng(63)
    B = C(rng.standard_normal((2, 1)))
    R, Q, QT = C(random_spd(rng, 1)), C(random_psd(rng, 2)), random_psd(rng, 2)
    game = GameProblem(A=C(rng.standard_normal((2, 2)) * 0.4),
                       B=(B, B), R=(R, R), Q=(Q, Q), QT=(QT, QT),
                       x0=rng.standard_normal(2))
    traj = solve_game(game, scheme="sp4", steps_forward=32)
    assert traj.max_symmetry_defect <= 1e-9
    scalar = solve_game(build_pollution(preset("fig1")), scheme="sp4",
                        steps_forward=16)
    assert scalar.max_symmetry_defect <= 1e-12


def test_solve_game_rejects_zero_sum_mode():
    game = scalar_game(cross={(1, 2): C([[5.0]]), (2, 1): C([[4.0]])})
    with pytest.raises(MisuseError):
        solve_game(game)


def test_zero_sum_needs_two_players_and_full_weights():
    with pytest.raises(InputError):
        scalar_game(nplayers=3, cross={(1, 2): C([[1.0]]), (2, 1): C([[1.0]])})
    with pytest.raises(InputError):
        scalar_game(cross={(1, 2): C([[1.0]])})


# ---------------------------------------------------------------------------
# Zero-sum right side
# ---------------------------------------------------------------------------


def test_zero_sum_rhs_at_zero_gains():
    game = scalar_game(cross={(1, 2): C([[5.0]]), (2, 1): C([[4.0]])})
    r1, r2 = zero_sum_rhs(game, 0.0, np.zeros((1, 1)), np.zeros((1, 1)))
    assert_allclose(r1, -game.Q[0](0.0), atol=0.0)
    assert_allclose(r2, -game.Q[1](0.0), atol=0.0)


def test_zero_sum_rhs_decouples_without_controls():
    # B1 = B2 = 0 removes every quadratic term and leaves two independent
    # linear (Lyapunov-type) right sides.
    game = GameProblem(
        A=C([[0.4, 0.1], [0.0, -0.3]]),
        B=(C(np.zeros((2, 1))), C(np.zeros((2, 1)))),
        R=(C([[1.0]]), C([[1.0]])),
        Q=(C(np.eye(2)), C(0.5 * np.eye(2))),
        QT=(np.zeros((2, 2)), np.zeros((2, 2))),
        x0=np.zeros(2),
        cross_R={(1, 2): C([[1.0]]), (2, 1): C([[1.0]])},
    )
    rng = np.random.default_rng(64)
    P1 = random_psd(rng, 2)
    P2 = random_psd(rng, 2)
    A = game.A(0.0)
    r1, r2 = zero_sum_rhs(game, 0.0, P1, P2)
    assert np.max(np.abs(r1 - (-np.eye(2) - A.T @ P1 - P1 @ A))) < 1e-14
    assert np.max(np.abs(r2 - (-0.5 * np.eye(2) - A.T @ P2 - P2 @ A))) < 1e-14


def test_zero_sum_rhs_term_by_term_oracle():
    rng = np.random.default_rng(65)
    A = rng.standard_normal((2, 2)) * 0.3
    B1, B2 = rng.standard_normal((2, 1)), rng.standard_normal((2, 1))
    R11, R22 = random_spd(rng, 1), random_spd(rng, 1)
    R12, R21 = random_spd(rng, 1), random_spd(rng, 1)
    Q1, Q2 = random_psd(rng, 2), random_psd(rng, 2)
    game = GameProblem(
        A=C(A), B=(C(B1), C(B2)), R=(C(R11), C(R22)), Q=(C(Q1), C(Q2)),
        QT=(np.zeros((2, 2)), np.zeros((2, 2))), x0=np.zeros(2),
        cross_R={(1, 2): C(R12), (2, 1): C(R21)},
    )
    P1 = random_psd(rng, 2)
    P2 = random_psd(rng, 2)
    S1 = B1 @ np.linalg.inv(R11) @ B1.T
    S2 = B2 @ np.linalg.inv(R22) @ B2.T
    S22 = B2 @ np.linalg.inv(R12) @ B2.T
    S11 = B1 @ np.linalg.inv(R21) @ B1.T
    want1 = -Q1 - A.T @ P1 - P1 @ A + P1 @ S1 @ P1 + P1 @ S2 @ P2 + P2 @ S22 @ P2
    want2 = -Q2 - A.T @ P2 - P2 @ A + P2 @ S2 @ P2 + P2 @ S1 @ P1 + P1 @ S11 @ P1
    r1, r2 = zero_sum_rhs(game, 0.0, P1, P2)
    assert np.max(np.abs(r1 - want1)) < 1e-14
    assert np.max(np.abs(r2 - want2)) < 1e-14


def test_zero_sum_rhs_rejects_mismatched_gain_shapes():
    game = scalar_game(cross={(1, 2): C([[5.0]]), (2, 1): C([[4.0]])})
    with pytest.raises(DimensionError, match="1 x 1"):
        zero_sum_rhs(game, 0.0, np.zeros((2, 2)), np.zeros((1, 1)))


def test_zero_sum_rhs_requires_zero_sum_mode():
    with pytest.raises(MisuseError):
        zero_sum_rhs(scalar_game(), 0.0, np.zeros((1, 1)), np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# Zero-sum solver
# ---------------------------------------------------------------------------


def zs_toy():
    return GameProblem(
        A=C([[-1.0]]), B=(C([[1.0]]), C([[1.0]])),
        R=(C([[2.0]]), C([[3.0]])), Q=(C([[1.0]]), C([[0.5]])),
        QT=(np.array([[0.4]]), np.array([[0.2]])), x0=np.array([1.5]),
        cross_R={(1, 2): C([[5.0]]), (2, 1): C([[4.0]])},
    )


def test_identical_players_stay_identical():
    game = GameProblem(
        A=C([[-1.0]]), B=(C([[1.0]]), C([[1.0]])),
        R=(C([[2.0]]), C([[2.0]])), Q=(C([[1.0]]), C([[1.0]])),
        QT=(np.array([[0.3]]), np.array([[0.3]])), x0=np.array([1.0]),
        cross_R={(1, 2): C([[5.0]]), (2, 1): C([[5.0]])},
    )
    traj = solve_zero_sum(game, steps_backward=8, steps_forward=16)
    assert np.max(np.abs(traj.gains[:, 0] - traj.gains[:, 1])) <= 1e-10


def test_zero_sum_backward_matches_adaptive_oracle():
    game = zs_toy()

    def rhs(t, y):
        r1, r2 = zero_sum_rhs(game, t, [[y[0]]], [[y[1]]])
        return [r1[0, 0], r2[0, 0]]

    sol = solve_ivp(rhs, [1.0, 0.0], [0.4, 0.2], rtol=1e-12, atol=1e-14)
    P1, P2 = backward_zero_sum(game, steps=16)
    assert abs(P1[0, 0] - sol.y[0, -1]) < 1e-10
    assert abs(P2[0, 0] - sol.y[1, -1]) < 1e-10


def test_zero_sum_forward_matches_adaptive_oracle():
    game = zs_toy()

    def rhs(t, y):
        r1, r2 = zero_sum_rhs(game, t, [[y[0]]], [[y[1]]])
        return [r1[0, 0], r2[0, 0]]

    back = solve_ivp(rhs, [1.0, 0.0], [0.4, 0.2], rtol=1e-12, atol=1e-14,
                     dense_output=True)

    def xrhs(t, x):
        p1, p2 = back.sol(t)
        return (-1.0 - p1 / 2.0 - p2 / 3.0) * x

    xs = solve_ivp(xrhs, [0.0, 1.0], [1.5], rtol=1e-12, atol=1e-14)
    traj = solve_zero_sum(game, steps_backward=16, steps_forward=32)
    assert abs(traj.terminal_state[0] - xs.y[0, -1]) < 1e-8
    assert traj.terminal_gain_defect < 1e-8


def test_zero_sum_decoupling_limit_matches_nonzero_sum():
    # cross weights -> infinity removes the zero-sum terms
    big = 1e8
    base = dict(
        A=C([[-1.0]]), B=(C([[1.0]]), C([[0.8]])),
        R=(C([[2.0]]), C([[3.0]])), Q=(C([[1.0]]), C([[0.5]])),
        QT=(np.array([[0.4]]), np.array([[0.2]])), x0=np.array([1.5]),
    )
    gz = GameProblem(cross_R={(1, 2): C([[big]]), (2, 1): C([[big]])}, **base)
    gn = GameProblem(**base)
    tz = solve_zero_sum(gz, steps_backward=16, steps_forward=64)
    tn = solve_game(gn, scheme="sp4", steps_forward=64)
    assert abs(tz.terminal_state[0] - tn.terminal_state[0]) < 1e-7
    assert np.max(np.abs(tz.gains[0] - tn.gains[0])) < 1e-7


def test_zero_sum_matrix_game_matches_adaptive_oracle():
    # n = 2, where the transposes of the linear half-flow matter; the data
    # have the scale of zs_toy.  No symmetry check: the model's P1 S2 P2
    # term is not symmetric for n > 1.
    rng = np.random.default_rng(67)
    n = 2
    A = rng.standard_normal((n, n)) * 0.4
    B = [0.5 * rng.standard_normal((n, 1)) for _ in range(2)]
    R = [random_spd(rng, 1, shift=2.0) for _ in range(2)]
    W = [random_spd(rng, 1, shift=4.0) for _ in range(2)]
    Q = [0.5 * random_psd(rng, n) for _ in range(2)]
    QT = [0.2 * random_psd(rng, n) for _ in range(2)]
    game = GameProblem(A=C(A), B=tuple(C(b) for b in B), R=tuple(C(r) for r in R),
                       Q=tuple(C(q) for q in Q), QT=tuple(QT),
                       x0=rng.standard_normal(n),
                       cross_R={(1, 2): C(W[0]), (2, 1): C(W[1])})
    S = [b @ np.linalg.inv(r) @ b.T for b, r in zip(B, R)]

    def rhs(t, y):
        r1, r2 = zero_sum_rhs(game, t, y[:4].reshape(n, n), y[4:].reshape(n, n))
        return np.concatenate([r1.ravel(), r2.ravel()])

    back = solve_ivp(rhs, [1.0, 0.0], np.concatenate([Z.ravel() for Z in QT]),
                     rtol=1e-12, atol=1e-14, dense_output=True)

    def xrhs(t, x):
        p = back.sol(t)
        return (A - S[0] @ p[:4].reshape(n, n) - S[1] @ p[4:].reshape(n, n)) @ x

    xs = solve_ivp(xrhs, [0.0, 1.0], game.x0, rtol=1e-12, atol=1e-14)
    P1, P2 = backward_zero_sum(game, steps=16)
    ours = np.concatenate([P1.ravel(), P2.ravel()])
    assert np.max(np.abs(ours - back.y[:, -1])) < 1e-10
    traj = solve_zero_sum(game, steps_backward=16, steps_forward=32)
    assert np.max(np.abs(traj.terminal_state - xs.y[:, -1])) < 1e-8


def test_zero_sum_singular_half_step_names_the_time():
    # exp(-A/16) underflows in its first entry, so U of the first linear
    # half-step of the backward pass (h = -1/8, midpoint 15/16) is singular.
    game = GameProblem(
        A=C(np.diag([1.5e4, -1.0])), B=(C([[1.0], [0.0]]), C([[0.0], [1.0]])),
        R=(C([[1.0]]), C([[1.0]])), Q=(C(np.eye(2)), C(np.eye(2))),
        QT=(np.zeros((2, 2)), np.zeros((2, 2))), x0=np.ones(2),
        cross_R={(1, 2): C([[10.0]]), (2, 1): C([[10.0]])},
    )
    with pytest.raises(SingularityError, match="t = 0.9375") as info:
        backward_zero_sum(game, 8)
    assert info.value.where == 0.9375


def test_zero_sum_escape_is_a_typed_error():
    # P_i' = -Q_i - 2 a P_i + (quadratic terms) with a = 20 escapes near
    # t = 0.56 going backward from T = 1; no ladder solution may come back
    # as nan.
    game = GameProblem(
        A=C([[20.0]]), B=(C([[1.0]]), C([[1.0]])),
        R=(C([[5.5]]), C([[6.0]])), Q=(C([[0.18]]), C([[0.17]])),
        QT=(np.zeros((1, 1)), np.zeros((1, 1))), x0=np.array([1.0]),
        cross_R={(1, 2): C([[10.0]]), (2, 1): C([[10.0]])},
    )
    for steps in (32, 128, 512):
        with pytest.raises(ConfigError, match="non-finite P1"):
            backward_zero_sum(game, steps)


def test_solve_zero_sum_requires_zero_sum_mode():
    with pytest.raises(MisuseError):
        solve_zero_sum(scalar_game())


def fig1_zero_sum(w=10.0, A=None):
    base = build_pollution(preset("fig1"))
    W = C([[w]])
    return GameProblem(A=base.A if A is None else A, B=base.B[:2], R=base.R[:2],
                       Q=base.Q[:2], QT=base.QT[:2], x0=base.x0, t0=base.t0, T=base.T,
                       cross_R={(1, 2): W, (2, 1): W})


@pytest.mark.parametrize("entry", [
    lambda g: backward_game(g, steps=8),
    lambda g: integrate_forward(g, GameFlow(U=np.eye(1), V=g.QT, t=g.t0), 8,
                                method="sp4"),
    lambda g: run_sweep(g, ("sp4",), h_ladder=(0.25,)),
], ids=["backward_game", "integrate_forward", "run_sweep"])
@pytest.mark.parametrize("A", [
    None, TimeMatrix.from_function(lambda t: np.array([[1.0 + t]]), (1, 1)),
], ids=["constant", "time-dependent"])
def test_linear_pipelines_reject_zero_sum_games(entry, A):
    # The linear flow ignores the cross weights; its answer is the
    # non-zero-sum Nash equilibrium, not the zero-sum one.
    with pytest.raises(MisuseError, match="solve_zero_sum"):
        entry(fig1_zero_sum(A=A))


@pytest.mark.parametrize("call", [
    lambda g: backward_zero_sum(g, 0),
    lambda g: solve_zero_sum(g, steps_backward=8, steps_forward=0),
    lambda g: solve_zero_sum(g, steps_backward=8, steps_forward=-1),
    lambda g: backward_zero_sum(g, "8"),
    lambda g: solve_zero_sum(g, steps_backward=2.5),
    lambda g: solve_zero_sum(g, steps_backward=8, steps_forward=np.float64(16.0)),
    # counts whose samples numpy refuses to index: refused before any step runs
    lambda g: backward_zero_sum(g, 10**20),
    lambda g: solve_zero_sum(g, steps_backward=10**20, steps_forward=8),
    # a bool is an Integral, not a count
    lambda g: solve_zero_sum(g, steps_backward=True),
    lambda g: solve_zero_sum(g, steps_backward=8, steps_forward=True),
], ids=["backward-zero", "forward-zero", "forward-negative", "backward-string",
        "solve-backward-float", "solve-forward-numpy-float", "backward-huge",
        "solve-backward-huge", "solve-backward-bool", "solve-forward-bool"])
def test_zero_sum_bad_step_counts_are_config_errors(call):
    with pytest.raises(ConfigError, match="steps"):
        call(zs_toy())


@pytest.mark.parametrize("steps", [(8, 0), (0, 8), (8, -1), (8, 10**20)],
                         ids=["forward-zero", "backward-zero", "forward-negative",
                              "forward-huge"])
def test_zero_sum_step_counts_checked_before_the_backward_pass(monkeypatch, steps):
    def fail(*args, **kwargs):
        raise AssertionError("backward pass run before the step counts were checked")

    monkeypatch.setattr(games, "backward_zero_sum", fail)
    with pytest.raises(ConfigError, match="steps"):
        solve_zero_sum(zs_toy(), steps_backward=steps[0], steps_forward=steps[1])


def test_zero_sum_huge_forward_count_is_named_first():
    # the CLI's backward count is half its forward count; the error names the
    # count the user gave
    with pytest.raises(ConfigError, match=f"^cannot record {10**20} steps: "):
        solve_zero_sum(zs_toy(), steps_backward=10**20 // 2, steps_forward=10**20)


def test_zero_sum_forward_forms_six_closed_loops_per_composed_step(monkeypatch):
    # the half state steps that meet between the five substeps are merged
    calls = []
    real = splitting.closed_loops
    monkeypatch.setattr(splitting, "closed_loops",
                        lambda *args: calls.extend(args[-1]) or real(*args))
    traj = solve_zero_sum(fig1_zero_sum(), steps_backward=8, steps_forward=16)
    assert len(calls) == 6 * 16 and traj.evaluations == 5 * 16


def test_zero_sum_base_step_solves_with_u_once(monkeypatch):
    game = fig1_zero_sum()
    calls = []
    real = riccati._gain_raw

    def counting(U, V, t):
        calls.append(t)
        return real(U, V, t)

    monkeypatch.setattr(riccati, "_gain_raw", counting)
    y = np.vstack([np.eye(1), *game.QT])
    y = zs_base_step(game, 0.75, -0.5, y)
    assert calls == [0.75]
    assert y.shape == (3, 1) and np.all(np.isfinite(y))


def _chain_rule_taylor4(S1, S2, S22, S11, tau, y):
    # The degree-4 Taylor polynomial of the zero-sum quadratic flow
    # y' = bil(y, y)/2 by the chain rule, each derivative from the
    # symmetric bilinear form bil term by term.
    def bil(U, V):
        (U1, U2), (V1, V2) = U, V
        return (U1 @ S1 @ V1 + V1 @ S1 @ U1 + U1 @ S2 @ V2 + V1 @ S2 @ U2
                + U2 @ S22 @ V2 + V2 @ S22 @ U2,
                U2 @ S2 @ V2 + V2 @ S2 @ U2 + U2 @ S1 @ V1 + V2 @ S1 @ U1
                + U1 @ S11 @ V1 + V1 @ S11 @ U1)

    def add(a, b, wa=1.0):
        return tuple(wa * p + q for p, q in zip(a, b))

    y1 = tuple(0.5 * b for b in bil(y, y))
    y2 = bil(y, y1)
    y3 = add(bil(y1, y1), bil(y, y2))
    y4 = add(bil(y1, y2), bil(y, y3), 3.0)
    return [y[k] + tau * y1[k] + tau**2 / 2 * y2[k] + tau**3 / 6 * y3[k]
            + tau**4 / 24 * y4[k] for k in range(2)]


@pytest.mark.parametrize("h", [0.25, -0.125])
def test_zero_sum_base_step_matches_chain_rule_oracle(h):
    # The Cauchy-product recurrence on the coupling stack gives the same
    # degree-4 quadratic substep as the chain-rule derivatives; both half
    # flows are the same exponential, so only roundoff may differ.
    rng = np.random.default_rng(68)
    n = 2
    game = GameProblem(
        A=C(0.4 * rng.standard_normal((n, n))),
        B=tuple(C(rng.standard_normal((n, 2))) for _ in range(2)),
        R=tuple(C(random_spd(rng, 2, shift=2.0)) for _ in range(2)),
        Q=tuple(C(random_psd(rng, n)) for _ in range(2)),
        QT=tuple(random_psd(rng, n) for _ in range(2)), x0=np.ones(n),
        cross_R={(1, 2): C(random_spd(rng, 2, shift=3.0)),
                 (2, 1): C(random_spd(rng, 2, shift=4.0))},
    )
    y = np.vstack([np.eye(n) + 0.1 * rng.standard_normal((n, n)),
                   *(random_psd(rng, n) for _ in range(2))])
    tmid = 0.4
    K0, S22, S11 = game.zero_sum_terms(tmid)
    E = expm(0.5 * h * K0)
    P = GameFlow.from_stacked(E @ y, tmid).gains()
    P = _chain_rule_taylor4(*game.coupling_at(tmid), S22, S11, h, P)
    want = E @ np.vstack([np.eye(n), *P])
    got = zs_base_step(game, tmid, h, y)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_zero_sum_half_flow_formed_once_per_step_length(monkeypatch):
    # Autonomous: one exp(h/2 K0) per backward ladder run (h, h/2, h/4) and
    # one per distinct composed substep length forward (two for the
    # (a1, a1, a2, a1, a1) weights).  The caches live for one solve, so a
    # second solve forms them again; a time-dependent K0 forms one per step.
    lengths = []
    monkeypatch.setattr(games, "expm", lambda M: lengths.append(M.copy()) or expm(M))
    game = zs_toy()
    backward_zero_sum(game, 8)
    assert len(lengths) == 3
    for _ in range(2):
        lengths.clear()
        solve_zero_sum(game, steps_backward=8, steps_forward=16)
        assert len(lengths) == 3 + 2
        assert len({M.tobytes() for M in lengths}) == 5
    varying = GameProblem(A=TimeMatrix.from_function(lambda t: np.array([[-1.0]]), (1, 1)),
                          B=game.B, R=game.R, Q=game.Q, QT=game.QT, x0=game.x0,
                          cross_R=game.cross_R)
    lengths.clear()
    solve_zero_sum(varying, steps_backward=8, steps_forward=16)
    assert len(lengths) == 8 + 16 + 32 + 5 * 16


def test_zero_sum_nan_composition_weights_are_config_errors():
    with pytest.raises(ConfigError, match=r"composition weights \(nan,\)"):
        solve_zero_sum(zs_toy(), composition_alphas=(float("nan"),))


def fig1_tv():
    base = build_pollution(preset("fig1"))
    return GameProblem(A=TimeMatrix.from_function(lambda t: np.array([[-0.5 - t]]), (1, 1)),
                       B=base.B, R=base.R, Q=base.Q, QT=base.QT, x0=base.x0)


@pytest.mark.parametrize("call", [
    lambda: solve_game(scalar_game(), steps_forward=2.5),
    lambda: solve_game(fig1_tv(), steps_backward=2.5),
], ids=["forward", "time-dependent-backward"])
def test_solve_game_non_integer_step_counts_are_config_errors(call):
    with pytest.raises(ConfigError, match="integer"):
        call()


def test_numpy_integer_step_counts_are_accepted():
    a = solve_zero_sum(zs_toy(), steps_backward=np.int64(8), steps_forward=np.int32(16))
    b = solve_zero_sum(zs_toy(), steps_backward=8, steps_forward=16)
    assert a.states.tobytes() == b.states.tobytes()


def test_game_flow_round_trip():
    rng = np.random.default_rng(66)
    y = rng.standard_normal((6, 2))
    flow = GameFlow.from_stacked(y, 0.3)
    assert flow.U.shape == (2, 2)
    assert len(flow.V) == 2
    assert_allclose(flow.stacked(), y, atol=0.0)
