"""The benchmark's workloads: seeded inputs, problem construction and the op.

Each workload turns (seed, op index) into plain numbers and arrays
(``inputs``), hands only problem objects built from them to splitlq
(``build``), and runs one operation on them (``solve``).  Nothing here
imports scipy or computes an expected value; the oracles live in
``oracles.py`` so that set-up probes pay for neither.

splitlq entry points are called through their module (``splitlq.expm``,
not a local alias), so the traced run sees the bindings it wraps.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import splitlq
import splitlq.bench
import splitlq.cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fixed by the fig3a/fig3b presets of splitlq.bench: drift a(t) =
# 2 + tanh(5 (t - 1/2)), b = 1, discount rho = 0.1, horizon 1.
POLLUTION_RAMP = (2.0, 1.0, 5.0, 0.5)
POLLUTION_RHO = 0.1

# The CLI's zero-sum path for ``--steps 64`` (cli._run_zero_sum).
ZS_STEPS_FORWARD = 64
ZS_STEPS_BACKWARD = max(8, ZS_STEPS_FORWARD // 2)

CLI_SWEEP_ARGS = (
    "sweep", "--preset", "fig1",
    "--methods", "sp2,sp4,sp6,s2c4,ni42,ni84,rk4,dopri",
    "--h-ladder", "0.25,0.125,0.0625", "--tol-exponent", "6",
)
CLI_TIMEOUT_S = 120.0

# ``python -m splitlq.cli`` plus a report of the process's peak RSS.  The
# peak is read from /proc/self/status (VmHWM) rather than from the child's
# rusage, which after a vfork-and-exec also counts the parent's pages.
_HWM_MARK = "perfbench-vmhwm-kb"
_CLI_LAUNCHER = f"""
import atexit, runpy, sys
def _report_peak():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                print("{_HWM_MARK}", line.split()[1], file=sys.stderr)
atexit.register(_report_peak)
runpy.run_module("splitlq.cli", run_name="__main__", alter_sys=True)
"""


def rng_for(seed, k):
    """The generator of op ``k`` under ``seed``: ops share no draws."""
    return np.random.default_rng([seed, k])


@dataclass(frozen=True)
class CliResult:
    """What one CLI process left behind."""

    returncode: int
    csv: bytes
    stderr: str


class GameN32:
    """Random autonomous 3-player game, n = 32, B_i n x 2: one expm of the
    128 x 128 stacked flow, then 128 sp4 steps of the cached engine."""

    name = "game-n32-sp4"
    n, players, inputs_per_player, steps = 32, 3, 2, 128

    def inputs(self, seed, k):
        rng = rng_for(seed, k)
        n, r = self.n, self.inputs_per_player
        scale = 1.0 / np.sqrt(n)
        players = []
        for _ in range(self.players):
            M = rng.standard_normal((r, r))
            C = scale * rng.standard_normal((n, n))
            D = scale * rng.standard_normal((n, n))
            players.append({
                "B": 0.5 * rng.standard_normal((n, r)),
                "R": M @ M.T / r + np.eye(r),
                "Q": C @ C.T,
                "QT": D @ D.T,
            })
        return {"A": scale * rng.standard_normal((n, n)), "players": players,
                "x0": rng.standard_normal(n), "T": 1.0}

    def build(self, inp):
        const = splitlq.TimeMatrix.from_constant
        ps = inp["players"]
        return splitlq.GameProblem(
            A=const(inp["A"]),
            B=tuple(const(p["B"]) for p in ps),
            R=tuple(const(p["R"]) for p in ps),
            Q=tuple(const(p["Q"]) for p in ps),
            QT=tuple(p["QT"] for p in ps),
            x0=inp["x0"], t0=0.0, T=inp["T"],
        )

    def solve(self, prob):
        flow0 = splitlq.backward_game(prob)
        return splitlq.integrate_forward(prob, flow0, self.steps, method="sp4")


class PollutionTV:
    """fig3a/fig3b-family one-player pollution game with a seeded cost
    weight: CF4 backward pass (2048 steps), then 256 sp4 steps of the
    non-autonomous engine."""

    name = "pollution-tv-sp4"
    steps = 256

    def inputs(self, seed, k):
        rng = rng_for(seed, k)
        return {"c1": float(rng.uniform(5.5, 50.5)),
                "x0": float(rng.uniform(5.0, 15.0)), "T": 1.0}

    def build(self, inp):
        c1 = inp["c1"]
        return splitlq.build_pollution(splitlq.PollutionConfig(
            N=1, a=splitlq.TimeFunction.tanh_ramp(*POLLUTION_RAMP), b=1.0,
            c=(c1,), d=(1.0 / c1,), rho=POLLUTION_RHO, T=inp["T"], x0=inp["x0"],
        ))

    def solve(self, prob):
        flow0 = splitlq.bench.backward_pass(prob)
        return splitlq.integrate_forward(prob, flow0, self.steps, method="sp4")


class ZeroSumFig1:
    """fig1's first two players with seeded constant cross weights
    R_12 = R_21 = w: Richardson backward pass and composed forward map."""

    name = "zero-sum-fig1"

    def inputs(self, seed, k):
        rng = rng_for(seed, k)
        return {"w": float(rng.uniform(10.0, 30.0)),
                "x0": float(rng.uniform(5.0, 15.0))}

    def build(self, inp):
        base = splitlq.build_pollution(splitlq.preset("fig1"))
        W = splitlq.TimeMatrix.from_constant([[inp["w"]]])
        return splitlq.GameProblem(
            A=base.A, B=base.B[:2], R=base.R[:2], Q=base.Q[:2], QT=base.QT[:2],
            x0=np.array([inp["x0"]]), t0=base.t0, T=base.T,
            cross_R={(1, 2): W, (2, 1): W},
        )

    def solve(self, prob):
        return splitlq.solve_zero_sum(prob, steps_backward=ZS_STEPS_BACKWARD,
                                      steps_forward=ZS_STEPS_FORWARD)


class CliSweepFig1:
    """A fresh ``python -m splitlq.cli sweep`` process on the fig1 preset.

    The inputs are the preset, so they do not depend on the seed.  Each op
    writes its CSV under ``workdir``, and ``maxrss_mb`` collects each
    child's peak RSS in MB.  ``solve_in_process`` runs the same sweep through
    ``splitlq.cli.main`` for the traced run.
    """

    name = "cli-sweep-fig1"

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.maxrss_mb = []

    def inputs(self, seed, k):
        return {"argv": CLI_SWEEP_ARGS, "csv": str(self.workdir / f"op{k}.csv")}

    def build(self, inp):
        return inp

    def solve(self, inp):
        """Run the sweep in a child process and wait for it."""
        csv = Path(inp["csv"])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_LAUNCHER, *inp["argv"], "--output", str(csv)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CLI_TIMEOUT_S)
        data = csv.read_bytes() if csv.exists() else b""
        csv.unlink(missing_ok=True)
        stderr = []
        for line in proc.stderr.splitlines():
            if line.startswith(_HWM_MARK):
                self.maxrss_mb.append(int(line.split()[1]) * 1024 / 1e6)
            else:
                stderr.append(line)
        return CliResult(returncode=proc.returncode, csv=data, stderr="\n".join(stderr))

    def solve_in_process(self, inp):
        csv = Path(inp["csv"])
        with contextlib.redirect_stdout(io.StringIO()):
            returncode = splitlq.cli.main([*inp["argv"], "--output", str(csv)])
        data = csv.read_bytes() if csv.exists() else b""
        csv.unlink(missing_ok=True)
        return CliResult(returncode=returncode, csv=data, stderr="")


IN_PROCESS = (GameN32, PollutionTV, ZeroSumFig1)


def make(name, workdir):
    """A fresh workload object for one run."""
    for cls in IN_PROCESS:
        if cls.name == name:
            return cls()
    if name == CliSweepFig1.name:
        return CliSweepFig1(workdir)
    raise ValueError(f"unknown workload {name!r}")
