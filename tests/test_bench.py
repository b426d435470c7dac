import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from splitlq import magnus, riccati
from splitlq.bench import (PollutionConfig, TimeFunction, backward_pass,
                           build_pollution, emit_csv, preset,
                           reference_endpoint, run_sweep, SweepResult)
from splitlq.errors import ConfigError, InputError, MisuseError, SingularityError
from splitlq.games import solve_game
from splitlq.matfun import _TAYLOR_THETA, norm1, taylor_apply, taylor_degrees
from splitlq.problem import GameProblem, TimeMatrix
from splitlq.riccati import backward_game, terminal_game_flow
from splitlq.reference import flatten_pipeline, rk4_solve, unflatten
from splitlq.splitting import integrate_forward


def test_time_function_catalog():
    const = TimeFunction.constant(2.5)
    assert const(0.0) == const(3.0) == 2.5
    ramp = TimeFunction.tanh_ramp(base=2.0, amplitude=1.0, rate=5.0, center=0.5)
    assert ramp(0.5) == pytest.approx(2.0)
    assert ramp(10.0) == pytest.approx(3.0, abs=1e-12)
    assert ramp(-10.0) == pytest.approx(1.0, abs=1e-12)


def test_fig1_preset_values():
    cfg = preset("fig1")
    assert cfg.N == 10
    assert cfg.a(0.0) == 1.0 and cfg.b(0.0) == 1.0
    assert cfg.rho == 0.0 and cfg.T == 1.0 and cfg.x0 == 10.0
    for i in range(10):
        assert cfg.c[i](0.0) == pytest.approx((10.0 + i + 1) / 2.0)
        assert cfg.c[i](0.0) * cfg.d[i](0.0) == pytest.approx(1.0)


def test_fig2_preset_values():
    cfg = preset("fig2")
    assert cfg.a(0.0) == 2.0 and cfg.b(0.0) == 1.0
    assert cfg.c[0](0.0) == pytest.approx(101.0 / 2.0)


def test_fig3_preset_values():
    cfg = preset("fig3a")
    assert cfg.N == 1 and cfg.rho == 0.1
    assert cfg.a(0.5) == pytest.approx(2.0)
    assert cfg.c[0](0.0) == pytest.approx(11.0 / 2.0)
    cfg_b = preset("fig3b")
    assert cfg_b.c[0](0.0) == pytest.approx(101.0 / 2.0)
    with pytest.raises(ConfigError):
        preset("fig9")


def test_build_pollution_autonomy_and_weights():
    prob = build_pollution(preset("fig1"))
    assert prob.is_autonomous
    assert prob.R[0](0.0)[0, 0] == pytest.approx(11.0 / 2.0)
    assert prob.Q[0](0.3)[0, 0] == pytest.approx(2.0 / 11.0)
    ramp_prob = build_pollution(preset("fig3a"))
    assert not ramp_prob.is_autonomous
    # discounted weights at t: c e^{-rho t}
    assert ramp_prob.R[0](0.5)[0, 0] == pytest.approx(5.5 * np.exp(-0.05))
    assert ramp_prob.A(0.5)[0, 0] == pytest.approx(-2.0)


def test_build_pollution_rejects_bad_configs():
    with pytest.raises(ConfigError):
        build_pollution(PollutionConfig(N=1, a=1.0, b=1.0, c=(0.0,), d=(1.0,)))
    with pytest.raises(ConfigError):
        build_pollution(PollutionConfig(N=1, a=1.0, b=0.0, c=(1.0,), d=(1.0,)))
    with pytest.raises(ConfigError):
        PollutionConfig(N=2, a=1.0, b=1.0, c=(1.0,), d=(1.0, 2.0))


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3a", "fig3b"])
def test_reference_endpoint_matches_flat_rk4(name):
    # x(T) = U(T) U(t0)^-1 x0 against RK4 on the flattened nonlinear system
    prob = build_pollution(preset(name))
    flow0 = backward_pass(prob)
    ode, y0 = flatten_pipeline(prob, flow0)
    rk4 = unflatten(prob, rk4_solve(ode, prob.t0, prob.T, 3200, y0))[1]
    assert np.max(np.abs(reference_endpoint(prob, flow0) - rk4)) < 1e-12


def _ramp(rate, c1):
    # the fig3a/fig3b family with a drift ramp of the given steepness
    return PollutionConfig(N=1, a=TimeFunction.tanh_ramp(2.0, 1.0, rate=rate, center=0.5),
                           b=1.0, c=(c1,), d=(1.0 / c1,), rho=0.1)


def _dop853_oracle(cfg):
    # (P(t0), x(T)) of a one-player pollution game from DOP853 on the scalar
    # Riccati equation, backward from P(T) = 0, then on the closed-loop
    # state with the dense gain; written out from the model.
    from scipy.integrate import solve_ivp

    a, c1, d1, rho = cfg.a, cfg.c[0](0.0), cfg.d[0](0.0), cfg.rho
    S = lambda t: np.exp(rho * t) / c1
    tight = dict(method="DOP853", rtol=3e-14, atol=1e-22)
    back = solve_ivp(lambda t, p: -d1 * np.exp(-rho * t) + 2.0 * a(t) * p + S(t) * p**2,
                     [cfg.T, 0.0], [0.0], dense_output=True, **tight)
    fwd = solve_ivp(lambda t, x: (-a(t) - S(t) * back.sol(t)[0]) * x,
                    [0.0, cfg.T], [cfg.x0], **tight)
    return back.y[0, -1], fwd.y[0, -1]


@pytest.mark.parametrize("name", ["fig3a", "fig3b"])
def test_backward_pass_and_reference_match_dop853(name):
    cfg = preset(name)
    P0, xT = _dop853_oracle(cfg)
    prob = build_pollution(cfg)
    flow0 = backward_pass(prob)
    assert abs(flow0.gains()[0][0, 0] - P0) <= 1e-13 * abs(P0)
    assert abs(reference_endpoint(prob, flow0)[0] - xT) <= 1e-11 * max(1.0, abs(xT))
    # the library pipeline runs the same backward pass by default
    assert abs(solve_game(prob).gains[0][0, 0, 0] - P0) <= 1e-12 * abs(P0)


def test_backward_pass_is_backward_game():
    assert backward_pass is backward_game


def _count_cf4_steps(monkeypatch):
    # the CF4 step counts of every run, as the ladder asks cf4_chunks for them
    steps = []
    chunks = magnus.cf4_chunks

    def counted(prob, t, h, n, y):
        steps.append(n)
        return chunks(prob, t, h, n, y)

    monkeypatch.setattr(magnus, "cf4_chunks", counted)
    monkeypatch.setattr(riccati, "cf4_chunks", counted)
    return steps


def test_fig3a_backward_pass_and_reference_take_at_most_120_cf4_steps(monkeypatch):
    # The ladder accepts fig3a's order-8 extrapolant at 8 + 16 + 32 + 64
    # steps; a fixed budget of 2048 would fail this.
    steps = _count_cf4_steps(monkeypatch)
    prob = build_pollution(preset("fig3a"))
    flow0 = backward_pass(prob)
    assert 0 < sum(steps) <= 120
    steps.clear()
    reference_endpoint(prob, flow0)
    assert steps == []  # x(T) = U(t0)^-1 x0 takes no CF4 step


@pytest.mark.parametrize("c1", [5.5, 50.5])
def test_ladder_stays_inside_its_contracts_on_a_rate_20_ramp(c1):
    # A judge after three runs from 16 steps checks one halving only, and on
    # these ramps accepts a P(t0) 4.4e-12 off; the four-run judge refuses it.
    cfg = _ramp(rate=20.0, c1=c1)
    P0, xT = _dop853_oracle(cfg)
    prob = build_pollution(cfg)
    flow0 = backward_pass(prob)
    assert abs(flow0.gains()[0][0, 0] - P0) <= 1e-12 * abs(P0)
    assert abs(reference_endpoint(prob, flow0)[0] - xT) <= 1e-11 * max(1.0, abs(xT))


def test_time_dependent_game_above_d8_matches_dop853(monkeypatch):
    # A game-n32-sp4-shaped game (3 players, n = 32, so K is 128 x 128) with
    # A(t) = A0 + sin(2 pi t) A1: each CF4 step runs the d > 8 Horner actions.
    # The oracle is DOP853 on y' = K(t) y, with K written out from the model.
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(2024)
    n, r, N = 32, 2, 3
    scale = 1.0 / np.sqrt(n)
    A0, A1 = (scale * rng.standard_normal((n, n)) for _ in range(2))
    B, R, Q, QT = [], [], [], []
    for _ in range(N):
        M = rng.standard_normal((r, r))
        C, D = (scale * rng.standard_normal((n, n)) for _ in range(2))
        B.append(0.5 * rng.standard_normal((n, r)))
        R.append(M @ M.T / r + np.eye(r))
        Q.append(C @ C.T)
        QT.append(D @ D.T)
    x0 = rng.standard_normal(n)
    const = TimeMatrix.from_constant
    prob = GameProblem(
        A=TimeMatrix.from_function(lambda t: A0 + np.sin(2 * np.pi * t)[:, None, None] * A1,
                                   (n, n), vectorized=True),
        B=tuple(map(const, B)), R=tuple(map(const, R)), Q=tuple(map(const, Q)),
        QT=tuple(QT), x0=x0, t0=0.0, T=1.0)
    S = [Bi @ np.linalg.solve(Ri, Bi.T) for Bi, Ri in zip(B, R)]

    def K(t):  # U' = A U - sum_j S_j V_j, V_i' = -Q_i U - A^T V_i
        A = A0 + np.sin(2 * np.pi * t) * A1
        blocks = [[A] + [-Si for Si in S]]
        blocks += [[-Qi] + [-A.T if j == i else np.zeros((n, n)) for j in range(N)]
                   for i, Qi in enumerate(Q)]
        return np.block(blocks)

    sol = solve_ivp(lambda t, y: (K(t) @ y.reshape(-1, n)).ravel(), [1.0, 0.0],
                    np.vstack([np.eye(n)] + QT).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-15)
    y0 = sol.y[:, -1].reshape(-1, n)
    U0 = y0[:n]
    xT = np.linalg.solve(U0, x0)  # U(T) U(t0)^-1 x0, with U(T) = I

    steps = _count_cf4_steps(monkeypatch)
    flow0 = backward_game(prob)
    assert 0 < sum(steps) <= 248
    for i, P in enumerate(flow0.gains()):
        P0 = np.linalg.solve(U0.T, y0[(i + 1) * n: (i + 2) * n].T).T
        assert np.max(np.abs(P - P0)) <= 1e-12 * np.max(np.abs(P0))
    steps.clear()
    x = reference_endpoint(prob, flow0)
    assert steps == []
    assert np.max(np.abs(x - xT)) <= 1e-11 * max(1.0, np.max(np.abs(xT)))


@pytest.mark.parametrize("rate, c1", [(2000.0, 5.5), (2000.0, 50.5), (500.0, 5.5)])
def test_reference_meets_dop853_on_steep_drift_ramps(rate, c1):
    # Drift ramps 100-400x steeper than fig3a's.  The backward pass's ladder
    # does not settle below its cap on any of them (at rate 2000 its P(t0) is
    # 1.3e-10 off), yet x(T) = U(t0)^-1 x0 of that same flow meets the oracle.
    cfg = _ramp(rate=rate, c1=c1)
    prob = build_pollution(cfg)
    xT = _dop853_oracle(cfg)[1]
    assert abs(reference_endpoint(prob, backward_pass(prob))[0] - xT) <= 1e-11 * max(1.0, abs(xT))


def _open_loop_oracle(cfg):
    # x(T) of an N-player pollution game from DOP853 on the scalar open-loop
    # Riccati equations p_i' = -q_i + 2 a p_i + p_i sum_j s_j p_j, backward
    # from p(T) = 0, then on the closed-loop state x' = -(a + sum_j s_j p_j) x;
    # written out from the model, q_i = d_i e^{-rho t}, s_j = e^{rho t} / c_j.
    from scipy.integrate import solve_ivp

    a, rho = cfg.a, cfg.rho
    c = np.array([fn(0.0) for fn in cfg.c])
    d = np.array([fn(0.0) for fn in cfg.d])
    tight = dict(method="DOP853", rtol=1e-13, atol=1e-40)
    back = solve_ivp(lambda t, p: -d * np.exp(-rho * t) + 2.0 * a(t) * p
                     + p * (np.exp(rho * t) / c @ p),
                     [cfg.T, 0.0], np.zeros(cfg.N), dense_output=True, **tight)
    fwd = solve_ivp(lambda t, x: -(a(t) + np.exp(rho * t) / c @ back.sol(t)) * x,
                    [0.0, cfg.T], [cfg.x0], **tight)
    return fwd.y[0, -1]


@pytest.mark.parametrize("name", ["fig1", "fig3a"])
def test_reference_meets_an_open_loop_oracle_at_T_16(name):
    # 16 times the presets' horizon, where a forward CF4 run from flow0 drifts
    cfg = replace(preset(name), T=16.0)
    prob = build_pollution(cfg)
    flow0 = backward_pass(prob)
    xT = _open_loop_oracle(cfg)
    assert abs(reference_endpoint(prob, flow0)[0] - xT) <= 1e-12 * abs(xT)
    with pytest.raises(MisuseError, match="flow at t0"):
        reference_endpoint(prob, terminal_game_flow(prob))


def test_run_sweep_rows_and_determinism():
    prob = build_pollution(preset("fig1"))
    ladder = (1.0 / 4, 1.0 / 8)
    rows1 = run_sweep(prob, ("sp2", "sp4", "rk4"), h_ladder=ladder,
                      tol_ladder=(1e-6,))
    rows2 = run_sweep(prob, ("sp2", "sp4", "rk4"), h_ladder=ladder,
                      tol_ladder=(1e-6,))
    assert len(rows1) == 6
    assert rows1 == rows2  # bitwise determinism, including errors
    sp4 = [r for r in rows1 if r.method == "sp4"]
    assert sp4[0].evaluations == 4 * 6 and sp4[1].evaluations == 8 * 6
    assert all(r.x_error >= 0.0 for r in rows1)
    assert all(r.seconds == 0.0 for r in rows1)


def test_run_sweep_rows_report_the_step_size_they_ran():
    # h = 0.3 and 0.7 on T = 1 run 3 steps and 1 step: the rows say so
    prob = build_pollution(preset("fig1"))
    rows = run_sweep(prob, ("sp2", "rk4"), h_ladder=(0.3, 0.7))
    assert [(r.method, r.resolution, r.evaluations) for r in rows] == [
        ("sp2", 1.0 / 3, 3), ("sp2", 1.0, 1), ("rk4", 1.0 / 3, 12), ("rk4", 1.0, 4)]


def test_run_sweep_failed_rows_report_the_step_size_they_would_run(monkeypatch):
    # a fixed-step row that fails numerically records span / steps, as a row
    # that runs does (a failed adaptive row keeps its tolerance: see below)
    import splitlq.bench as bench

    def fail(*args, **kwargs):
        raise SingularityError("forced", where=0.0)

    monkeypatch.setattr(bench, "integrate_forward", fail)
    prob = build_pollution(preset("fig1"))
    rows = run_sweep(prob, ("sp2", "rk4"), h_ladder=(0.3, 0.7))
    assert [(r.method, r.resolution, np.isnan(r.x_error)) for r in rows] == [
        ("sp2", 1.0 / 3, True), ("sp2", 1.0, True), ("rk4", 1.0 / 3, False),
        ("rk4", 1.0, False)]


def test_run_sweep_adaptive_rows():
    prob = build_pollution(preset("fig1"))
    rows = run_sweep(prob, ("dopri",), h_ladder=(1.0 / 4,),
                     tol_ladder=(1e-4, 1e-6))
    assert [r.resolution for r in rows] == [1e-4, 1e-6]
    assert rows[0].x_error > rows[1].x_error


def test_run_sweep_records_failures_per_row(monkeypatch):
    # a row whose adaptive controller underflows (SingularityError) is
    # recorded with a NaN error and the remaining rows still run.  The
    # underflow is forced at one tolerance: the ladder check refuses the
    # tolerances below roundoff that provoke it.
    import splitlq.bench as bench

    def underflow(ode, t0, t1, y0, abs_tol, rel_tol):
        if abs_tol == 1e-8:
            raise SingularityError("adaptive step underflow at t = 0.5 (h = 1e-15)", where=0.5)
        return real(ode, t0, t1, y0, abs_tol, rel_tol)

    real = bench.adaptive_solve
    monkeypatch.setattr(bench, "adaptive_solve", underflow)
    prob = build_pollution(preset("fig1"))
    rows = run_sweep(prob, ("dopri", "sp2"), h_ladder=(1.0 / 4,),
                     tol_ladder=(1e-8, 1e-6))
    assert len(rows) == 3
    failed = [r for r in rows if r.method == "dopri" and r.resolution == 1e-8]
    assert len(failed) == 1 and np.isnan(failed[0].x_error)
    assert any(r.method == "sp2" and r.x_error >= 0.0 for r in rows)


@pytest.mark.parametrize("methods, h_ladder, tol_ladder", [
    (("sp4",), (0.25, 0.0), None),
    (("sp4",), (-0.25,), None),
    (("sp4",), (float("nan"),), None),
    (("sp4",), (float("inf"),), None),
    (("sp4",), (), None),
    (("sp4", "dopri"), (0.25,), ()),
    (("dopri",), (0.25,), (-1.0,)),
    (("dopri",), (0.25,), (1e-6, 1e-15)),  # rel_tol 1e-14 < 100 eps
], ids=["zero", "negative", "nan", "inf", "empty-h", "empty-tol", "negative-tol",
        "tol-below-roundoff"])
def test_run_sweep_rejects_bad_ladders(methods, h_ladder, tol_ladder, monkeypatch):
    def no_backward_pass(prob):
        raise AssertionError("backward pass ran before the ladder check")

    monkeypatch.setattr("splitlq.bench.backward_pass", no_backward_pass)
    prob = build_pollution(preset("fig1"))
    with pytest.raises(ConfigError):
        run_sweep(prob, methods, h_ladder=h_ladder, tol_ladder=tol_ladder)


def test_run_sweep_rejects_an_unknown_method_before_the_backward_pass(monkeypatch):
    calls = []
    monkeypatch.setattr("splitlq.bench.backward_pass", calls.append)
    with pytest.raises(ConfigError, match=r"^unknown method 'sp3'$"):
        run_sweep(build_pollution(preset("fig3a")), ("sp3",))
    assert calls == []


@pytest.mark.parametrize("method", ["sp4", "rk4"])
@pytest.mark.parametrize("h", [1e-300, 5e-324], ids=["tiny", "subnormal"])
def test_run_sweep_refuses_a_step_count_no_array_can_hold(method, h):
    # span / h steps, inf for the subnormal h: refused before any step runs
    with pytest.raises(ConfigError, match="^cannot record [0-9]+ steps: "):
        run_sweep(build_pollution(preset("fig1")), (method,), h_ladder=(h,))


def test_emit_csv(tmp_path):
    rows = [SweepResult(method="sp2", resolution=0.25, evaluations=4,
                        seconds=0.0, x_error=1e-3, gain_defect=1e-14,
                        positivity_flag=False, symmetry_defect=0.0)]
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ("method,resolution,evaluations,seconds,x_error,"
                        "gain_defect,positivity_flag,symmetry_defect")
    assert len(lines) == 2
    assert lines[1].startswith("sp2,0.25,4,0,0.001,")
    assert ",false," in lines[1]


def test_emit_csv_refuses_empty():
    with pytest.raises(InputError):
        emit_csv([], "/tmp/unused.csv")


def test_emit_csv_reproducible_bytes(tmp_path):
    prob = build_pollution(preset("fig1"))
    paths = []
    for name in ("a.csv", "b.csv"):
        rows = run_sweep(prob, ("sp2", "rk4"), h_ladder=(1.0 / 4, 1.0 / 8))
        p = tmp_path / name
        emit_csv(rows, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_positivity_flag_terminal_criterion():
    prob = build_pollution(preset("fig3a"))
    rows = run_sweep(prob, ("sp2", "rk4"), h_ladder=(1.0 / 4, 1.0 / 8))
    by = {(r.method, r.resolution): r for r in rows}
    assert not by[("sp2", 0.25)].positivity_flag
    assert not by[("sp2", 0.125)].positivity_flag
    assert by[("rk4", 0.25)].positivity_flag
    assert by[("rk4", 0.125)].positivity_flag


def _peak(f):
    f()  # warm-up: first-use allocations are not the call's
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_backward_pass_transient_memory_is_bounded():
    # The CF4 chunks keep their stacked samples and exponents small: the
    # tracemalloc peak of the fig3a backward pass's CF4 ladder stays under
    # 64 KB, below the forward pass's own peak.
    prob = build_pollution(preset("fig3a"))
    peak = _peak(lambda: backward_pass(prob))
    assert peak < 64 * 1024, f"backward pass peak {peak} B"


@pytest.mark.parametrize("scale, formed", [(1.0, True), (0.1, False)],
                         ids=["formed-exponential", "horner"])
def test_large_autonomous_backward_pass_holds_no_copy_of_y(scale, formed):
    # A game-n32-sp4-shaped game (3 players, n = 32: K is 128 x 128, y is
    # 128 x 32).  Above d = 8, exp(M) @ y is the Horner loop on y, or past
    # theta_30 the formed exponential times y; either result is the answer,
    # so the pass peaks no higher than that arithmetic on its own inputs
    # (with a copy of y into a buffer it peaked 32 KB higher).
    rng = np.random.default_rng(7)
    n, s = 32, scale / np.sqrt(32)
    const = TimeMatrix.from_constant
    C, D = s * rng.standard_normal((2, 3, n, n))
    prob = GameProblem(A=const(s * rng.standard_normal((n, n))),
                       B=tuple(const(0.5 * scale * rng.standard_normal((n, 2))) for _ in C),
                       R=(const(np.eye(2)),) * 3, Q=tuple(const(c @ c.T) for c in C),
                       QT=tuple(d @ d.T for d in D), x0=np.ones(n))
    K = prob.flow_matrix(prob.t0)
    assert (norm1(K) > _TAYLOR_THETA[-1]) == formed

    def arithmetic():
        M, y = (prob.t0 - prob.T) * K, terminal_game_flow(prob).stacked()
        return taylor_apply(M, y, taylor_degrees(norm1(M)))

    peak, floor = _peak(lambda: backward_game(prob)), _peak(arithmetic)
    assert peak <= floor + 8 * 1024, f"backward pass peak {peak} B, arithmetic {floor} B"


def _with_coefficients(prob, change):
    # prob with change(tm) in place of each coefficient TimeMatrix
    return replace(prob, A=change(prob.A),
                   **{k: tuple(map(change, getattr(prob, k))) for k in ("B", "R", "Q")})


def test_pollution_solve_samples_through_the_vectorized_form(monkeypatch):
    # A pollution-tv-sp4-shaped solve on fig3a: the backward pass, then 256
    # sp4 steps, call the evaluators, and TimeMatrix.__call__ (which the
    # constant B answers), far less than once per node.
    calls, lookups = [], []

    def counted(tm):
        fn = tm.evaluator
        return replace(tm, evaluator=lambda t: calls.append(t) or fn(t))

    prob = _with_coefficients(build_pollution(preset("fig3a")), counted)
    assert prob.A.vectorized and prob.R[0].vectorized
    assert prob.B[0].constant
    call = TimeMatrix.__call__
    monkeypatch.setattr(TimeMatrix, "__call__", lambda tm, t: lookups.append(t) or call(tm, t))
    calls.clear()
    integrate_forward(prob, backward_pass(prob), 256, method="sp4")
    assert len(calls) < 1000 and len(lookups) < 1000


@pytest.mark.parametrize("name", ["fig3a", "fig3b"])
def test_vectorized_form_gives_the_scalar_trajectory(name):
    prob = build_pollution(preset(name))
    scalar = _with_coefficients(prob, lambda tm: replace(tm, vectorized=False))
    a, b = (integrate_forward(p, backward_pass(p), 64, method="sp4") for p in (prob, scalar))
    assert a.states.tobytes() == b.states.tobytes()
    assert a.gains.tobytes() == b.gains.tobytes()
    assert np.asarray(a.controls).tobytes() == np.asarray(b.controls).tobytes()
