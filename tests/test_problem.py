import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import C, canonical_j, random_lq, random_psd, random_spd
from splitlq import problem
from splitlq.errors import DimensionError, InputError, MisuseError, SingularityError
from splitlq.problem import (SYMMETRY_TOL, GameProblem, LQProblem, TimeMatrix,
                             closed_loop_matrix, hamiltonian_matrix, s_matrix)
from splitlq.bench import build_pollution, preset
from splitlq.games import solve_zero_sum
from splitlq.riccati import backward_game
from splitlq.splitting import integrate_forward


def test_time_matrix_constant_flag():
    tm = C([[1.0, 2.0], [3.0, 4.0]])
    assert tm.constant
    assert_allclose(tm(0.0), tm(17.3), atol=0.0)


@pytest.mark.parametrize("make", [
    C,
    lambda A: TimeMatrix(evaluator=lambda t: A, dims=A.shape, constant=True),
], ids=["from_constant", "constant-evaluator"])
def test_constant_coefficients_are_read_only_copies(make):
    A = np.array([[-1.0, 2.0], [0.0, -3.0]])
    prob = LQProblem(A=make(A), B=C(np.eye(2)), Q=C(np.eye(2)), R=C(np.eye(2)),
                     QT=np.eye(2), x0=[1.0, 1.0])
    K = prob.flow_matrix(0.0)
    A[0, 0] = 50.0  # the caller's array is not the problem's
    assert prob.A(0.5)[0, 0] == -1.0
    assert_allclose(K[:2, :2], prob.A(0.5), atol=0.0)
    derived = [prob.A(0.0), K, prob.coupling_row(0.0), *prob.coupling_at(0.0)]
    for M in derived:  # nor can anyone write into it, or into what it derives
        with pytest.raises(ValueError):
            M[0, 0] = 50.0
    assert prob.A(0.5)[0, 0] == -1.0 and prob.flow_matrix(0.5)[0, 0] == -1.0


def test_constant_couplings_formed_once(monkeypatch):
    # A backward pass and three forward engines on fig1 (10 players, all
    # data constant) form each S_i = B_i R_i^-1 B_i^T exactly once.
    from splitlq.bench import backward_pass, build_pollution, preset

    formed = []
    coupling = GameProblem._coupling

    def counting(self, j, W, t):
        formed.append(j)
        return coupling(self, j, W, t)

    monkeypatch.setattr(GameProblem, "_coupling", counting)
    prob = build_pollution(preset("fig1"))
    flow0 = backward_pass(prob)
    for method in ("sp4", "s2c4", "ni84"):
        integrate_forward(prob, flow0, 8, method=method)
    assert sorted(formed) == list(range(10))


def test_time_matrix_shape_checked():
    tm = TimeMatrix.from_function(lambda t: np.ones((2, 3)), (2, 2))
    with pytest.raises(DimensionError):
        tm(0.0)


@pytest.mark.parametrize("n, r", [(0, 1), (2, 0)], ids=["no-states", "no-inputs"])
def test_empty_dimension_is_refused(n, r):
    # a 0 x 0 A, or a player with no inputs (B n x 0, R 0 x 0), is refused
    # before any weight is checked
    with pytest.raises(DimensionError, match="non-empty" if n == 0 else "r >= 1"):
        LQProblem(A=C(np.zeros((n, n))), B=C(np.zeros((n, r))), Q=C(np.zeros((n, n))),
                  R=C(np.eye(r)), QT=np.zeros((n, n)), x0=np.zeros(n))


def test_game_without_players_is_refused():
    from splitlq.bench import PollutionConfig

    with pytest.raises(DimensionError, match="at least one player"):
        GameProblem(A=C(np.eye(2)), B=(), R=(), Q=(), QT=(), x0=np.zeros(2))
    with pytest.raises(DimensionError, match="at least one player"):
        build_pollution(PollutionConfig(N=0, a=1.0, b=1.0, c=(), d=()))


@pytest.mark.parametrize("x0", [np.nan, -np.inf])
def test_non_finite_initial_state_is_refused(x0):
    with pytest.raises(InputError, match="x0 contains non-finite entries"):
        LQProblem(A=C(-np.eye(2)), B=C(np.eye(2)), Q=C(np.eye(2)), R=C(np.eye(2)),
                  QT=np.eye(2), x0=[1.0, x0])


@pytest.mark.parametrize("t0, T", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                                   (-1e308, 1e308)])
def test_non_finite_horizon_is_refused_before_sampling(t0, T):
    # an infinite end or length is refused before a coefficient is sampled,
    # so with no warning from the sample times
    seen = []
    Q = TimeMatrix.from_function(lambda t: seen.append(t) or np.eye(2), (2, 2))
    with warnings.catch_warnings(), pytest.raises(InputError, match=r"^horizon \[.*\] and"):
        warnings.simplefilter("error")
        LQProblem(A=C(-np.eye(2)), B=C(np.eye(2)), Q=Q, R=C(np.eye(2)), QT=np.eye(2),
                  x0=[1.0, 1.0], t0=t0, T=T)
    assert seen == []


def test_declared_constant_coefficient_checked_over_horizon():
    # Constant on the TimeMatrix probe points t = 0, 0.5, 1, but not after t = 2.
    def a(t):
        return np.array([[-1.0 if t < 2.0 else -2.0]])

    def build(T):
        return LQProblem(A=TimeMatrix(a, (1, 1), constant=True), B=C([[1.0]]),
                         Q=C([[1.0]]), R=C([[1.0]]), QT=[[0.0]], x0=[1.0], T=T)

    assert build(1.0).is_autonomous
    with pytest.raises(InputError, match=r"^A declared constant"):
        build(3.0)


def test_declared_constant_coefficient_evaluated_on_horizon_only():
    # The evaluator is only defined on the horizon [2, 3].
    def a(t):
        if not 2.0 <= t <= 3.0:
            raise ValueError(f"A evaluated outside [2, 3] at t = {t}")
        return np.array([[-1.0]])

    def build(A):
        return LQProblem(A=A, B=C([[1.0]]), Q=C([[1.0]]), R=C([[1.0]]),
                         QT=[[0.5]], x0=[1.0], t0=2.0, T=3.0)

    prob = build(TimeMatrix(a, (1, 1), constant=True))
    assert prob.is_autonomous
    want = build(C([[-1.0]]))
    traj = integrate_forward(prob, backward_game(prob), 8, method="sp4")
    assert_allclose(traj.states,
                    integrate_forward(want, backward_game(want), 8, method="sp4").states,
                    rtol=0.0, atol=0.0)


def _count_weight_checks(monkeypatch, build):
    calls = []
    real = problem.min_eigenvalue_sym
    monkeypatch.setattr(problem, "min_eigenvalue_sym",
                        lambda M, **kw: calls.append(M.shape) or real(M, **kw))
    build()
    return len(calls)


def test_constant_weights_checked_at_one_sample(monkeypatch):
    # A constant Q_i or R_i is one frozen array, so it is checked once, not at
    # each of the five horizon samples; each QT_i is checked once as before.
    # fig1: 10 players, constant Q_i and R_i, 10 + 10 + 10 checks (110 before).
    assert _count_weight_checks(monkeypatch, lambda: build_pollution(preset("fig1"))) == 30
    rng = np.random.default_rng(31)

    def three_players(Q0):
        return GameProblem(A=C(rng.standard_normal((4, 4))),
                           B=tuple(C(rng.standard_normal((4, 2))) for _ in range(3)),
                           R=tuple(C(random_spd(rng, 2)) for _ in range(3)),
                           Q=(Q0,) + tuple(C(random_psd(rng, 4)) for _ in range(2)),
                           QT=tuple(random_psd(rng, 4) for _ in range(3)), x0=np.ones(4))

    assert _count_weight_checks(monkeypatch, lambda: three_players(C(np.eye(4)))) == 9
    # a time-dependent weight is still checked at all five samples
    varying = TimeMatrix.from_function(lambda t: (1.0 + t) * np.eye(4), (4, 4))
    assert _count_weight_checks(monkeypatch, lambda: three_players(varying)) == 13


def test_constant_weight_errors_name_the_first_sample():
    with pytest.raises(InputError, match=r"^Q\[0\]\(0\.0\) is not PSD"):
        LQProblem(A=C([[-1.0]]), B=C([[1.0]]), Q=C([[-1.0]]), R=C([[1.0]]),
                  QT=[[0.0]], x0=[1.0])
    with pytest.raises(InputError, match=r"^R\[0\]\(0\.0\) is not positive definite"):
        LQProblem(A=C([[-1.0]]), B=C([[1.0]]), Q=C([[1.0]]), R=C([[0.0]]),
                  QT=[[0.0]], x0=[1.0])


def test_zero_sum_terms_need_zero_sum_mode():
    prob = LQProblem(A=C([[-1.0]]), B=C([[1.0]]), Q=C([[1.0]]), R=C([[1.0]]),
                     QT=[[0.0]], x0=[1.0])
    with pytest.raises(MisuseError, match="zero-sum mode"):
        prob.zero_sum_terms(0.0)


def test_lq_problem_validation():
    with pytest.raises(InputError):  # t0 >= T
        LQProblem(A=C([[1.0]]), B=C([[1.0]]), Q=C([[1.0]]), R=C([[1.0]]),
                  QT=[[0.0]], x0=[1.0], t0=1.0, T=1.0)
    with pytest.raises(InputError):  # R not positive definite
        LQProblem(A=C([[1.0]]), B=C([[1.0]]), Q=C([[1.0]]), R=C([[0.0]]),
                  QT=[[0.0]], x0=[1.0])
    with pytest.raises(InputError):  # Q indefinite
        LQProblem(A=C([[1.0]]), B=C([[1.0]]), Q=C([[-1.0]]), R=C([[1.0]]),
                  QT=[[0.0]], x0=[1.0])
    with pytest.raises(InputError):  # QT asymmetric
        LQProblem(A=C(np.eye(2)), B=C(np.ones((2, 1))), Q=C(np.eye(2)),
                  R=C([[1.0]]), QT=np.array([[0.0, 1.0], [0.0, 0.0]]), x0=[1.0, 0.0])


def test_s_matrix_zero_b():
    prob = LQProblem(A=C([[1.0]]), B=C([[0.0]]), Q=C([[1.0]]), R=C([[1.0]]),
                     QT=[[0.0]], x0=[1.0])
    assert_allclose(s_matrix(prob, 0.0), [[0.0]], atol=0.0)


def test_s_matrix_pollution_scalar_value():
    # b = 1, c1 = 11/2, no discounting: S = b^2 / c1 = 2/11.
    prob = LQProblem(A=C([[-1.0]]), B=C([[1.0]]), Q=C([[2.0 / 11.0]]),
                     R=C([[11.0 / 2.0]]), QT=[[0.0]], x0=[10.0])
    assert_allclose(s_matrix(prob, 0.0), [[2.0 / 11.0]], rtol=1e-15)


def test_s_matrix_matches_triple_product_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n, r = 3, 2
        B = rng.standard_normal((n, r))
        R = random_spd(rng, r)
        prob = LQProblem(A=C(np.zeros((n, n))), B=C(B), Q=C(np.zeros((n, n))),
                         R=C(R), QT=np.zeros((n, n)), x0=np.zeros(n))
        expected = B @ np.linalg.inv(R) @ B.T
        assert np.max(np.abs(s_matrix(prob, 0.0) - expected)) < 1e-13


def test_s_matrix_singular_r_names_time():
    # R is positive definite at the construction-time sample points but
    # touches zero at t = 0.75.
    prob = LQProblem(
        A=C([[0.0]]), B=C([[1.0]]),
        Q=C([[0.0]]),
        R=TimeMatrix.from_function(lambda t: np.array([[(t - 0.75) ** 2]]), (1, 1)),
        QT=[[0.0]], x0=[1.0], t0=0.0, T=2.0,
    )
    with pytest.raises(SingularityError) as err:
        s_matrix(prob, 0.75)
    assert "0.75" in str(err.value)


def test_ill_conditioned_matrix_r_names_player_and_time():
    # Player 2's R is positive definite at the construction-time sample
    # points, but its 1/cond drops to 1e-14, below the solve floor, at t = 0.75.
    R2 = TimeMatrix.from_function(
        lambda t: np.diag([1.0, (t - 0.75) ** 2 + 1e-14]), (2, 2))
    zero = np.zeros((2, 2))
    game = GameProblem(A=C(zero), B=(C(np.eye(2)), C(np.eye(2))),
                       R=(C(np.eye(2)), R2), Q=(C(zero), C(zero)), QT=(zero, zero),
                       x0=np.zeros(2), t0=0.0, T=2.0)
    with pytest.raises(SingularityError) as err:
        game.coupling_at(0.75)
    assert "player 2" in str(err.value) and "0.75" in str(err.value)
    assert err.value.where == 0.75


def _two_input_game(R2=None):
    # n = 4; player 1 has one input, player 2 two
    rng = np.random.default_rng(17)
    B = [rng.standard_normal((4, 1)), rng.standard_normal((4, 2))]
    R = [random_spd(rng, 1), R2 if R2 is not None else random_spd(rng, 2)]
    zero = np.zeros((4, 4))
    return GameProblem(A=C(zero), B=tuple(map(C, B)), R=(C(R[0]), C(R[1])),
                       Q=(C(zero), C(zero)), QT=(zero, zero), x0=np.ones(4),
                       t0=0.0, T=2.0), B, R


def test_coupling_factor_is_the_row_through_the_inputs():
    prob, B, R = _two_input_game()
    Bt, F = prob.coupling_factor(0.0)
    assert Bt.tobytes() == np.hstack(B).tobytes()
    assert_allclose(F[:1, :4], np.linalg.solve(R[0], B[0].T), rtol=1e-14)
    assert_allclose(F[1:, 4:], np.linalg.solve(R[1], B[1].T), rtol=1e-13)
    assert not F[:1, 4:].any() and not F[1:, :4].any()
    assert_allclose(Bt @ F, prob.coupling_row(0.0), rtol=1e-13, atol=1e-15)


def test_coupling_factor_reads_the_symmetric_part_of_an_asymmetric_r():
    # R_2 asymmetric inside SYMMETRY_TOL (cond 108): B~ F is the row the
    # flow reads, each S_i symmetrized, where B_2 R_2^-1 B_2^T is 3e-13 of
    # the row's scale off it
    R2 = np.array([[1.0, 0.2], [0.2 + 0.5 * SYMMETRY_TOL, 0.05]])
    prob, B, _ = _two_input_game(R2=R2)
    Bt, F = prob.coupling_factor(0.0)
    row = prob.coupling_row(0.0)
    scale = np.abs(row).max()
    assert np.abs(B[1] @ np.linalg.solve(R2, B[1].T) - row[:, 4:]).max() > 1e-13 * scale
    assert np.abs(Bt @ F - row).max() <= 1e-15 * scale


def test_hamiltonian_zero_problem():
    prob = LQProblem(A=C([[0.0]]), B=C([[0.0]]), Q=C([[0.0]]), R=C([[1.0]]),
                     QT=[[0.0]], x0=[1.0])
    assert_allclose(hamiltonian_matrix(prob, 0.0), np.zeros((2, 2)), atol=0.0)


def test_hamiltonian_single_player_pollution():
    # a = b = 1, c1 = 11/2, d1 = 2/11: K = [[-1, -2/11], [-2/11, 1]].
    prob = LQProblem(A=C([[-1.0]]), B=C([[1.0]]), Q=C([[2.0 / 11.0]]),
                     R=C([[11.0 / 2.0]]), QT=[[0.0]], x0=[10.0])
    K = hamiltonian_matrix(prob, 0.0)
    assert_allclose(K, [[-1.0, -2.0 / 11.0], [-2.0 / 11.0, 1.0]], rtol=1e-15)


def test_hamiltonian_blocks_and_j_symmetry():
    rng = np.random.default_rng(22)
    for _ in range(5):
        prob = random_lq(rng, n=3, r=2)
        K = hamiltonian_matrix(prob, 0.0)
        n = 3
        assert_allclose(K[:n, :n], prob.A(0.0), atol=0.0)
        assert_allclose(K[:n, n:], -s_matrix(prob, 0.0), atol=0.0)
        assert_allclose(K[n:, :n], -prob.Q[0](0.0), atol=0.0)
        assert_allclose(K[n:, n:], -prob.A(0.0).T, atol=0.0)
        JK = canonical_j(n) @ K
        assert np.max(np.abs(JK - JK.T)) < 1e-12


def test_closed_loop_matrix():
    rng = np.random.default_rng(23)
    prob = random_lq(rng, n=3, r=2)
    assert_allclose(closed_loop_matrix(prob, 0.0, np.zeros((3, 3))),
                    prob.A(0.0), atol=0.0)
    P = random_psd(rng, 3)
    expected = prob.A(0.0) - s_matrix(prob, 0.0) @ P
    assert np.max(np.abs(closed_loop_matrix(prob, 0.0, P) - expected)) < 1e-14
    with pytest.raises(DimensionError):
        closed_loop_matrix(prob, 0.0, np.zeros((2, 2)))


def test_closed_loop_identity_case():
    prob = LQProblem(A=C(np.zeros((2, 2))), B=C(np.eye(2)), Q=C(np.zeros((2, 2))),
                     R=C(np.eye(2)), QT=np.zeros((2, 2)), x0=np.zeros(2))
    assert_allclose(closed_loop_matrix(prob, 0.0, np.eye(2)), -np.eye(2), atol=0.0)


def test_sp_product_eigenvalues_nonnegative():
    # S PSD and P PSD make S @ P similar to a PSD matrix.
    rng = np.random.default_rng(24)
    for _ in range(20):
        S = random_psd(rng, 3)
        P = random_psd(rng, 3)
        eigs = np.linalg.eigvals(S @ P)
        assert np.max(np.abs(eigs.imag)) < 1e-10
        assert eigs.real.min() >= -1e-10


def test_problem_keeps_private_read_only_qt_and_x0():
    # Changing the caller's arrays afterwards must not reach the problem,
    # which validated QT as PSD when it was built.
    QT, x0 = np.array([[1.0]]), np.array([1.0])
    prob = LQProblem(A=C([[1.0]]), B=C([[1.0]]), Q=C([[1.0]]), R=C([[1.0]]),
                     QT=QT, x0=x0)
    V_before = backward_game(prob).V[0].copy()
    QT[0, 0], x0[0] = -5.0, 9.0
    assert prob.QT[0][0, 0] == 1.0 and prob.x0[0] == 1.0
    assert backward_game(prob).V[0].tobytes() == V_before.tobytes()
    for M in (prob.QT[0], prob.x0):
        with pytest.raises(ValueError):
            M[0] = 2.0


def test_stacked_sampler_matches_single_node_samples():
    rng = np.random.default_rng(61)
    n, r = 3, 2
    A0, A1 = rng.standard_normal((2, n, n))
    R0 = random_spd(rng, r)
    game = GameProblem(
        A=TimeMatrix.from_function(lambda t: A0 + np.sin(t) * A1, (n, n)),
        B=(C(rng.standard_normal((n, r))), C(rng.standard_normal((n, 1)))),
        R=(TimeMatrix.from_function(lambda t: (2.0 + np.cos(t)) * R0, (r, r)), C([[3.0]])),
        Q=(C(random_psd(rng, n)), C(random_psd(rng, n))),
        QT=(np.zeros((n, n)), np.zeros((n, n))), x0=np.ones(n))
    times = [0.9, 0.45, 0.1]
    K = game.flow_matrices(times)
    assert K.shape == (3, 3 * n, 3 * n)
    for Kk, t in zip(K, times):
        assert Kk.tobytes() == game.flow_matrix(t).tobytes()


def test_zero_sum_constant_terms_formed_once(monkeypatch):
    # An autonomous zero-sum game forms S_1, S_2 and the cross couplings
    # S22, S11 once each, and gives the same numbers as the same game
    # declared time dependent, which forms them at every call.
    formed = []
    coupling = GameProblem._coupling

    def counting(self, j, W, t):
        formed.append(j)
        return coupling(self, j, W, t)

    def game(declare):
        base = build_pollution(preset("fig1"))
        W = declare(np.array([[20.0]]))
        coefficients = {k: tuple(declare(M(0.0)) for M in getattr(base, k)[:2])
                        for k in ("B", "R", "Q")}
        return GameProblem(A=declare(base.A(0.0)), QT=base.QT[:2], x0=np.array([10.0]),
                           cross_R={(1, 2): W, (2, 1): W}, **coefficients)

    frozen = game(C)
    varying = game(lambda M: TimeMatrix.from_function(lambda t: M, M.shape))
    monkeypatch.setattr(GameProblem, "_coupling", counting)
    a = solve_zero_sum(frozen, steps_backward=8, steps_forward=8)
    assert sorted(formed) == [0, 0, 1, 1]
    b = solve_zero_sum(varying, steps_backward=8, steps_forward=8)
    assert len(formed) > 100
    assert a.states.tobytes() == b.states.tobytes()
    assert a.gains.tobytes() == b.gains.tobytes()
    K0, S22, S11 = frozen.zero_sum_terms(0.3)
    for M in (K0, S22, S11):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


def _lq_with_drift(A):
    return LQProblem(A=A, B=C([[1.0]]), Q=C([[1.0]]), R=C([[1.0]]), QT=[[0.0]], x0=[1.0])


def test_vectorized_evaluator_samples_many_times_in_one_call():
    calls = []
    A = TimeMatrix.from_function(lambda ts: calls.append(ts) or (-1.0 - ts)[:, None, None],
                                 (1, 1), vectorized=True)
    prob = _lq_with_drift(A)
    calls.clear()
    assert prob.flow_matrices([0.25, 0.5, 1.0])[:, 0, 0].tolist() == [-1.25, -1.5, -2.0]
    assert len(calls) == 1 and A(0.25).tolist() == [[-1.25]]


@pytest.mark.parametrize("batch", [
    lambda ts: np.ones((len(ts), 1, 2)),
    lambda ts: np.array([[-1.0]]),  # one matrix, not a stack over the times
], ids=["wrong-dims", "not-stacked"])
def test_vectorized_evaluator_shape_checked(batch):
    prob = _lq_with_drift(TimeMatrix.from_function(batch, (1, 1), vectorized=True))
    with pytest.raises(DimensionError, match="vectorized evaluator returned shape"):
        prob.flow_matrices([0.25, 0.5])


def test_partly_constant_game_samples_its_constants_once(monkeypatch):
    # B and R constant, A time dependent: a backward pass and two forward
    # engines call neither constant's evaluator again and form each S_i
    # once, with the numbers of the same game declared time dependent.  The
    # row [S_1 S_2] reaches every closed loop, across chunk edges, as a view
    # of its one cached array, never a copy.
    import splitlq.splitting as splitting

    rng = np.random.default_rng(62)
    n = 2
    calls = {}

    def logged(name, value):
        def evaluator(t):
            calls[name] = calls.get(name, 0) + 1
            return value
        return TimeMatrix(evaluator, value.shape, constant=True)

    def game(declare):
        coefficients = {"B": (rng.standard_normal((n, 1)), rng.standard_normal((n, 2))),
                        "R": (random_spd(rng, 1), random_spd(rng, 2))}
        return GameProblem(
            A=TimeMatrix.from_function(
                lambda t: np.array([[0.1 * np.sin(t), 1.0], [-1.0, -0.2 + 0.1 * t]]), (n, n)),
            Q=(C(random_psd(rng, n)), C(random_psd(rng, n))),
            QT=(random_psd(rng, n), random_psd(rng, n)), x0=np.ones(n),
            **{k: tuple(declare(f"{k}{i}", M) for i, M in enumerate(Ms))
               for k, Ms in coefficients.items()})

    partly = game(logged)
    rng = np.random.default_rng(62)
    varying = game(lambda name, M: TimeMatrix.from_function(lambda t: M, M.shape))
    formed = []
    coupling = GameProblem._coupling
    monkeypatch.setattr(GameProblem, "_coupling",
                        lambda self, j, W, t: formed.append(j) or coupling(self, j, W, t))
    rows = []
    closed_loops = splitting.closed_loops
    monkeypatch.setattr(splitting, "closed_loops",
                        lambda A, row, Y, t: rows.extend([row] * len(t)) or closed_loops(A, row, Y, t))
    calls.clear()
    runs = []
    for prob in (partly, varying):
        flow0 = backward_game(prob, steps=16)
        runs.append([integrate_forward(prob, flow0, 16, method=m) for m in ("sp4", "s2c4")])
        if prob is partly:
            assert all(count <= 1 for count in calls.values())
            assert sorted(formed) == [0, 1]
            row = prob.coupling_row(0.0)
            assert len(rows) > 64 and all(np.shares_memory(r, row) for r in rows)
    for a, b in zip(*runs):
        assert a.states.tobytes() == b.states.tobytes()
        assert a.gains.tobytes() == b.gains.tobytes()


def _one_varying(varying, **coefficients):
    # each coefficient constant, except ``varying``, which is (1 + t) times it
    def declare(k, M):
        M = np.asarray(M, dtype=float)
        return (TimeMatrix.from_function(lambda t: (1.0 + t) * M, M.shape) if k == varying
                else C(M))
    return {k: declare(k, M) if k in ("A", "cross") else tuple(declare(k, Mi) for Mi in M)
            for k, M in coefficients.items()}


@pytest.mark.parametrize("varying", ["A", "B", "R", "Q"])
def test_derived_matrices_follow_each_input(varying):
    # With one coefficient time dependent, K and the row are not frozen at
    # their first node: each follows that coefficient as it would alone.
    c = _one_varying(varying, A=[[0.0, 1.0], [-1.0, 0.0]], B=[[[0.0], [1.0]]], R=[[[2.0]]],
                     Q=[np.eye(2)])
    prob = GameProblem(QT=(np.zeros((2, 2)),), x0=np.ones(2), T=1.0, **c)
    K = prob.flow_matrices([0.0, 1.0])
    assert not prob.is_autonomous and not np.array_equal(K[0], K[1])
    for Kk, t in zip(K, (0.0, 1.0)):
        S = prob.B[0](t) @ np.linalg.solve(prob.R[0](t), prob.B[0](t).T)
        assert_allclose(Kk[:2], np.hstack([prob.A(t), -S]), rtol=1e-15)
        assert_allclose(prob.coupling_row(t), S, rtol=1e-15)


@pytest.mark.parametrize("varying", ["A", "B", "Q", "cross"])
def test_zero_sum_terms_follow_each_input(varying):
    c = _one_varying(varying, A=[[-1.0]], B=[[[1.0]], [[0.5]]], R=[[[1.0]], [[1.0]]],
                     Q=[[[1.0]], [[2.0]]], cross=[[20.0]])
    W = c.pop("cross")
    prob = GameProblem(QT=(np.zeros((1, 1)),) * 2, x0=[1.0], cross_R={(1, 2): W, (2, 1): W},
                       **c)
    for t in (0.0, 1.0):
        (K0, S22, S11), s = prob.zero_sum_terms(t), 1.0 + t
        a, b, q, w = ((s if k == varying else 1.0) for k in ("A", "B", "Q", "cross"))
        assert_allclose(K0, [[-a, 0, 0], [-q, a, 0], [-2 * q, 0, a]], rtol=1e-15)
        assert_allclose((S22, S11), [[[(0.5 * b) ** 2 / (20 * w)]], [[b ** 2 / (20 * w)]]],
                        rtol=1e-15)
