"""Expected values and correctness gates, independent of splitlq's integrators.

An oracle sees only the generated inputs of an op and computes the answer
with scipy (``scipy.linalg.expm``, ``solve_ivp`` with DOP853) from the
model equations written out here.  A gate compares the op's output with it
under the tolerances in ``gates.json``.  An oracle that cannot be evaluated
raises ``GateUnavailable``, which stops the run; a missed gate makes the op
count as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GATES = json.loads((HERE / "gates.json").read_text())

# fig1 (splitlq.bench.preset): a = 1, b = 1, c_i = (10 + i)/2,
# d_i = 2/(10 + i), rho = 0, horizon 1, zero terminal weights.
FIG1_A, FIG1_B = 1.0, 1.0
FIG1_C = (11.0 / 2.0, 12.0 / 2.0)
FIG1_D = (2.0 / 11.0, 2.0 / 12.0)

DOP853 = {"method": "DOP853", "rtol": 1e-13, "atol": 1e-15}


class GateUnavailable(RuntimeError):
    """The oracle failed, so the op cannot be judged."""


def _scipy():
    try:
        from scipy.integrate import solve_ivp
        from scipy.linalg import expm
    except ImportError as exc:
        raise GateUnavailable(f"scipy is needed for the oracles: {exc}") from exc
    return expm, solve_ivp


def _ivp(solve_ivp, fun, span, y0, dense=False):
    sol = solve_ivp(fun, span, y0, dense_output=dense, **DOP853)
    if not sol.success:
        raise GateUnavailable(f"DOP853 oracle failed: {sol.message}")
    return sol


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _trajectory_checks(tol, traj, expected, terminal_weights):
    """Gates shared by the trajectory-returning workloads."""
    fails = []
    for field in ("states", "gains"):
        if not np.all(np.isfinite(getattr(traj, field))):
            fails.append(f"non-finite {field}")
    if fails:
        return fails
    err = _rel(traj.terminal_state, expected["x_final"])
    if not err <= tol["x_final_rel"]:
        fails.append(f"x(T) relative error {err:.3e} > {tol['x_final_rel']:g}")
    defect = max(float(np.max(np.abs(P - W)))
                 for P, W in zip(traj.gains[-1], terminal_weights))
    if not defect <= tol["terminal_gain_defect"]:
        fails.append(f"terminal gain defect {defect:.3e} > "
                     f"{tol['terminal_gain_defect']:g}")
    if "gain_t0_abs" in tol:
        err = float(np.max(np.abs(np.asarray(traj.gains[0]).reshape(-1)
                                  - np.asarray(expected["gain_t0"]).reshape(-1))))
        if not err <= tol["gain_t0_abs"]:
            fails.append(f"P(t0) error {err:.3e} > {tol['gain_t0_abs']:g}")
    return fails


class GameGate:
    """Closed form x(T) = U(t0)^-1 x0 from a scipy expm of the stacked
    flow (U(T) = I), and the terminal gain defect."""

    name = "game-n32-sp4"

    def __init__(self):
        self.tol = GATES[self.name]
        self.expm, _ = _scipy()

    def expect(self, inp):
        A, ps = inp["A"], inp["players"]
        n, N = A.shape[0], len(ps)
        K = np.zeros(((N + 1) * n, (N + 1) * n))
        K[:n, :n] = A
        for i, p in enumerate(ps):
            blk = slice(n * (1 + i), n * (2 + i))
            K[:n, blk] = -p["B"] @ np.linalg.solve(p["R"], p["B"].T)
            K[blk, :n] = -p["Q"]
            K[blk, blk] = -A.T
        y = self.expm(-inp["T"] * K) @ np.vstack([np.eye(n)] + [p["QT"] for p in ps])
        return {"x_final": np.linalg.solve(y[:n], inp["x0"])}

    def check(self, inp, expected, traj):
        return _trajectory_checks(self.tol, traj, expected,
                                  [p["QT"] for p in inp["players"]])


class PollutionGate:
    """DOP853 on the scalar Riccati equation (backward, from P(T) = 0) and on
    the closed-loop state equation (forward, with the dense gain)."""

    name = "pollution-tv-sp4"

    def __init__(self):
        from workloads import POLLUTION_RAMP, POLLUTION_RHO
        self.tol = GATES[self.name]
        self.ramp, self.rho = POLLUTION_RAMP, POLLUTION_RHO
        _, self.solve_ivp = _scipy()

    def expect(self, inp):
        base, amplitude, rate, center = self.ramp
        rho, c1, T = self.rho, inp["c1"], inp["T"]
        d1 = 1.0 / c1

        def a(t):
            return base + amplitude * math.tanh(rate * (t - center))

        # A = -a, B = 1, R = c1 e^{-rho t}, Q = d1 e^{-rho t}, S = e^{rho t}/c1:
        # P' = -Q - 2 A P + S P^2.
        def riccati(t, p):
            return [-d1 * math.exp(-rho * t) + 2.0 * a(t) * p[0]
                    + math.exp(rho * t) / c1 * p[0] ** 2]

        gain = _ivp(self.solve_ivp, riccati, (T, 0.0), [0.0], dense=True)

        def state(t, x):
            return [(-a(t) - math.exp(rho * t) / c1 * gain.sol(t)[0]) * x[0]]

        x = _ivp(self.solve_ivp, state, (0.0, T), [inp["x0"]])
        return {"x_final": x.y[:, -1], "gain_t0": gain.y[:, -1]}

    def check(self, inp, expected, traj):
        return _trajectory_checks(self.tol, traj, expected, [np.zeros((1, 1))])


class ZeroSumGate:
    """DOP853 on the coupled zero-sum Riccati pair of fig1's first two
    players (backward, from P_i(T) = 0) and on the closed-loop state."""

    name = "zero-sum-fig1"

    def __init__(self):
        self.tol = GATES[self.name]
        _, self.solve_ivp = _scipy()

    def expect(self, inp):
        A = -FIG1_A
        S1, S2 = (FIG1_B ** 2 / c for c in FIG1_C)
        S11 = S22 = FIG1_B ** 2 / inp["w"]
        Q1, Q2 = FIG1_D

        # P1' = -Q1 - 2 A P1 + S1 P1^2 + S2 P1 P2 + S22 P2^2, and the same
        # with the players exchanged (S11 = B1 R21^-1 B1^T).
        def riccati(t, p):
            P1, P2 = p
            return [-Q1 - 2.0 * A * P1 + S1 * P1 * P1 + S2 * P1 * P2 + S22 * P2 * P2,
                    -Q2 - 2.0 * A * P2 + S2 * P2 * P2 + S1 * P2 * P1 + S11 * P1 * P1]

        gains = _ivp(self.solve_ivp, riccati, (1.0, 0.0), [0.0, 0.0], dense=True)

        def state(t, x):
            P1, P2 = gains.sol(t)
            return [(A - S1 * P1 - S2 * P2) * x[0]]

        x = _ivp(self.solve_ivp, state, (0.0, 1.0), [inp["x0"]])
        return {"x_final": x.y[:, -1], "gain_t0": gains.y[:, -1]}

    def check(self, inp, expected, traj):
        return _trajectory_checks(self.tol, traj, expected,
                                  [np.zeros((1, 1))] * 2)


class CliGate:
    """Exit code 0, the expected rows with no NaN, every CSV byte-identical
    to the run's first one, and each value within ``value_abs`` of the
    seed-commit CSV stored in ``expected/``."""

    name = "cli-sweep-fig1"
    EXACT = ("method", "resolution", "evaluations", "positivity_flag")

    def __init__(self):
        self.tol = GATES[self.name]
        path = HERE / self.tol["expected"]
        try:
            self.expected = list(csv.DictReader(io.StringIO(path.read_text())))
        except OSError as exc:
            raise GateUnavailable(f"cannot read expected sweep: {exc}") from exc
        if len(self.expected) != self.tol["rows"]:
            raise GateUnavailable(f"{path} has {len(self.expected)} rows, "
                                  f"gates.json says {self.tol['rows']}")
        self.first_csv = None

    def expect(self, inp):
        return self.expected

    def check(self, inp, expected, result):
        if result.returncode != 0:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit code {result.returncode}: {tail[0]}"]
        if self.first_csv is None:
            self.first_csv = result.csv
        fails = []
        if result.csv != self.first_csv:
            fails.append("CSV differs from the run's first CSV")
        rows = list(csv.DictReader(io.StringIO(result.csv.decode())))
        if len(rows) != len(expected):
            return fails + [f"{len(rows)} rows, expected {len(expected)}"]
        for k, (row, want) in enumerate(zip(rows, expected)):
            if row.keys() != want.keys():
                return fails + [f"CSV header {list(row)} != {list(want)}"]
            for key in want:
                if key in self.EXACT:
                    if row[key] != want[key]:
                        fails.append(f"row {k} {key} = {row[key]}, expected {want[key]}")
                    continue
                value = float(row[key])
                if math.isnan(value):
                    fails.append(f"row {k} {key} is NaN")
                elif not abs(value - float(want[key])) <= self.tol["value_abs"]:
                    fails.append(f"row {k} {key} = {row[key]}, expected "
                                 f"{want[key]} +- {self.tol['value_abs']:g}")
        return fails


GATE_TYPES = (GameGate, PollutionGate, ZeroSumGate, CliGate)


def make(name):
    """A fresh gate for one run (the CLI gate remembers the first CSV)."""
    for cls in GATE_TYPES:
        if cls.name == name:
            return cls()
    raise ValueError(f"no gate for workload {name!r}")
