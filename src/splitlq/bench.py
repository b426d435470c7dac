"""Benchmark harness: the air-pollution test problems, method sweeps and
work-precision CSV output.

A pollution problem has one scalar state (the pollutant excess) driven by
N regional emission controls; player i pays c_i(t) e^{-rho t} for emitting
and d_i(t) e^{-rho t} for the ambient level.  Mapped to game data this is
A = -a(t), B_i = b(t), R_ii = c_i e^{-rho t}, Q_i = d_i e^{-rho t} and zero
terminal weights, so the exact terminal gain is zero and any negative
numerical gain is a positivity violation.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, SingularityError
from .games import GameFlow, GameProblem, backward_game
from .magnus import BACKWARD_STEPS, cf4_ladder, integrate, richardson
from .matfun import solve_checked
from .problem import TimeMatrix
from .reference import adaptive_solve, flatten_pipeline, rk4_solve, unflatten
from .riccati import linear_flow
from .splitting import integrate_forward, make_stepper

POSITIVITY_THRESHOLD = -1e-8
REFERENCE_AGREEMENT = 1e-11

# Method families: splitting cost is counted in stages, the baselines in
# rhs evaluations.
SPLITTING_METHODS = ("sp1", "sp2", "sp4", "sp6", "s2c4", "ni42", "ni84")
FIXED_STEP_METHODS = SPLITTING_METHODS + ("rk4",)
ADAPTIVE_METHODS = ("dopri",)


# ---------------------------------------------------------------------------
# Time-function catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeFunction:
    """A named scalar function of time from the config catalog.

    kinds: ``constant`` (value) and ``tanh-ramp``
    (base + amplitude * tanh(rate * (t - center))).
    """

    kind: str
    params: tuple

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", params=(float(value),))

    @classmethod
    def tanh_ramp(cls, base, amplitude, rate, center):
        return cls(kind="tanh-ramp",
                   params=(float(base), float(amplitude), float(rate), float(center)))

    @property
    def is_constant(self):
        return self.kind == "constant"

    def __call__(self, t):
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "tanh-ramp":
            base, amplitude, rate, center = self.params
            # tanh is +-1 to the last bit past 20: bounded there, the product cannot overflow
            lim = 20.0 / abs(rate) if 0.0 < abs(rate) < math.inf else math.inf
            return base + amplitude * np.tanh(rate * np.minimum(np.maximum(t - center, -lim), lim))
        raise ConfigError(f"unknown time function kind {self.kind!r}")


def _as_time_function(value):
    if isinstance(value, TimeFunction):
        return value
    return TimeFunction.constant(value)


# ---------------------------------------------------------------------------
# Pollution problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PollutionConfig:
    """Data of the N-region pollution game.

    ``a``, ``b`` and the per-player ``c``, ``d`` entries are constants or
    TimeFunction values; ``rho`` is the discount rate.
    """

    N: int
    a: object
    b: object
    c: tuple
    d: tuple
    rho: float = 0.0
    T: float = 1.0
    x0: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "a", _as_time_function(self.a))
        object.__setattr__(self, "b", _as_time_function(self.b))
        object.__setattr__(self, "c", tuple(_as_time_function(v) for v in self.c))
        object.__setattr__(self, "d", tuple(_as_time_function(v) for v in self.d))
        if len(self.c) != self.N or len(self.d) != self.N:
            raise ConfigError("need one c_i and one d_i per player")


def preset(name):
    """The benchmark presets: two autonomous 10-player problems and the
    two one-player problems with a tanh drift ramp and discounting."""
    if name == "fig1":
        return PollutionConfig(
            N=10, a=1.0, b=1.0,
            c=tuple((10.0 + i) / 2.0 for i in range(1, 11)),
            d=tuple(2.0 / (10.0 + i) for i in range(1, 11)),
            rho=0.0, T=1.0, x0=10.0,
        )
    if name == "fig2":
        return PollutionConfig(
            N=10, a=2.0, b=1.0,
            c=tuple((100.0 + i) / 2.0 for i in range(1, 11)),
            d=tuple(2.0 / (100.0 + i) for i in range(1, 11)),
            rho=0.0, T=1.0, x0=10.0,
        )
    if name in ("fig3a", "fig3b"):
        c1 = 11.0 / 2.0 if name == "fig3a" else 101.0 / 2.0
        ramp = TimeFunction.tanh_ramp(base=2.0, amplitude=1.0, rate=5.0, center=0.5)
        return PollutionConfig(
            N=1, a=ramp, b=1.0, c=(c1,), d=(1.0 / c1,),
            rho=0.1, T=1.0, x0=10.0,
        )
    raise ConfigError(f"unknown preset {name!r}; expected fig1|fig2|fig3a|fig3b")


def build_pollution(config):
    """Instantiate the pollution game: scalar state, per-player scalar
    blocks, discount factors folded into the weights."""
    for name, fns in (("c", config.c), ("d", config.d)):
        for i, fn in enumerate(fns):
            if fn.is_constant and fn(0.0) <= 0.0:
                raise ConfigError(f"{name}_{i + 1} must be positive")
    if config.b.is_constant and config.b(0.0) == 0.0:
        raise ConfigError("b must be nonzero")

    rho = config.rho
    discounted = rho != 0.0

    def scalar_tm(fn, sign=1.0, discount=False):
        if fn.is_constant and not (discount and discounted):
            return TimeMatrix.from_constant([[sign * fn(0.0)]])
        return TimeMatrix.from_function(  # numpy expressions of t, or of many times at once
            lambda t: np.reshape(sign * fn(t) * (np.exp(-rho * t) if discount else 1.0),
                                 np.shape(t) + (1, 1)), (1, 1), vectorized=True)

    A = scalar_tm(config.a, sign=-1.0)
    B = tuple(scalar_tm(config.b) for _ in range(config.N))
    R = tuple(scalar_tm(fn, discount=True) for fn in config.c)
    Q = tuple(scalar_tm(fn, discount=True) for fn in config.d)
    QT = tuple(np.zeros((1, 1)) for _ in range(config.N))
    return GameProblem(A=A, B=B, R=R, Q=Q, QT=QT, x0=np.array([config.x0]),
                       t0=0.0, T=config.T)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """One (method, resolution) row of a work-precision sweep."""

    method: str
    resolution: float  # step size h, or abs_tol for adaptive methods
    evaluations: int
    seconds: float
    x_error: float
    gain_defect: float
    positivity_flag: bool
    symmetry_defect: float


def check_methods(prob, methods):
    """Fail before the backward pass on a method that does not apply to prob."""
    for method in methods:
        if method in SPLITTING_METHODS:
            make_stepper(prob, method, {})


# The sweeps' and the CLI's backward pass, not counted in forward evaluations
backward_pass = backward_game


def reference_endpoint(prob, flow0):
    """Exact forward endpoint x(T) = U(T) U(t0)^-1 x0, self-checked.

    Under the optimal feedback U' = (A - sum_j S_j P_j) U, so U is the
    closed-loop fundamental matrix (Radon's lemma).  U(T) comes from CF4 on
    y' = K(t) y from ``flow0``.  For constant K one step is exact, and the
    1- and 2-step endpoints must agree to REFERENCE_AGREEMENT.  Otherwise
    the endpoint is the extrapolant that ``magnus.cf4_ladder`` accepts to
    REFERENCE_AGREEMENT, relative; at the ladder's cap, the plain
    BACKWARD_STEPS-step endpoint, when it agrees with the run at half as
    many steps to REFERENCE_AGREEMENT.  A reference that fails its check
    raises ConfigError naming the finest step count and the drift.
    """
    lin = linear_flow(prob)
    z0 = solve_checked(flow0.U, prob.x0)

    def endpoint(steps):
        return integrate(lin, prob.t0, prob.T, steps, flow0.stacked())[: prob.n] @ z0

    if prob.is_autonomous:
        coarse, fine, steps = endpoint(1), endpoint(2), 2
    else:
        settled, coarse, fine = cf4_ladder(endpoint, np.asarray, REFERENCE_AGREEMENT)
        if settled:
            return richardson(coarse, fine, 4)
        steps = BACKWARD_STEPS
    drift = float(np.max(np.abs(fine - coarse)))
    if drift > REFERENCE_AGREEMENT:
        raise ConfigError(
            f"reference self-consistency failure at {steps} CF4 steps: "
            f"endpoints differ by {drift:.3e}"
        )
    return fine


def _terminal_min_gain(traj):
    return float(min(np.linalg.eigvalsh(P)[0] for P in traj.terminal_gains))


def _fixed_steps(prob, h):
    # a fixed-step row's step count and the h it runs, span / steps
    span = prob.T - prob.t0
    steps = max(1, round(span / h))
    return steps, span / steps


def run_single(prob, flow0, method, resolution, x_ref, measure_time=False):
    """One sweep row.  ``resolution`` is h for fixed-step methods (the row
    reports the h it ran, span / steps) and the absolute tolerance for the
    adaptive baseline (rel_tol = 10 * abs_tol)."""
    if method in FIXED_STEP_METHODS:
        steps, resolution = _fixed_steps(prob, resolution)
    start = _time.perf_counter() if measure_time else 0.0
    if method in SPLITTING_METHODS:
        traj = integrate_forward(prob, flow0, steps, method=method)
        evaluations = traj.evaluations
        x_end = traj.terminal_state
        gain_defect = traj.terminal_gain_defect
        sym_defect = traj.max_symmetry_defect
        min_gain = _terminal_min_gain(traj)
    elif method == "rk4":
        ode, y0 = flatten_pipeline(prob, flow0)
        y = rk4_solve(ode, prob.t0, prob.T, steps, y0)
        evaluations = ode.evaluations
        x_end, gain_defect, sym_defect, min_gain = _flat_diagnostics(prob, y)
    elif method == "dopri":
        ode, y0 = flatten_pipeline(prob, flow0)
        y, evaluations = adaptive_solve(ode, prob.t0, prob.T, y0,
                                        abs_tol=resolution, rel_tol=10.0 * resolution)
        x_end, gain_defect, sym_defect, min_gain = _flat_diagnostics(prob, y)
    else:
        raise ConfigError(f"unknown method {method!r}")
    seconds = (_time.perf_counter() - start) if measure_time else 0.0
    return SweepResult(
        method=method,
        resolution=resolution,
        evaluations=evaluations,
        seconds=seconds,
        x_error=float(np.max(np.abs(x_end - x_ref))),
        gain_defect=float(gain_defect),
        positivity_flag=bool(min_gain < POSITIVITY_THRESHOLD),
        symmetry_defect=float(sym_defect),
    )


def _flat_diagnostics(prob, y):
    blocks, x = unflatten(prob, y)
    gains = GameFlow.from_stacked(blocks, prob.T).gains()
    defect = max(float(np.max(np.abs(P - QT)))
                 for P, QT in zip(gains, prob.QT))
    sym = max(float(np.max(np.abs(P - P.T))) for P in gains)
    min_gain = min(float(np.linalg.eigvalsh(0.5 * (P + P.T))[0]) for P in gains)
    return x, defect, sym, min_gain


def run_sweep(prob, methods, h_ladder=None, tol_ladder=None,
              measure_time=False):
    """Run every (method, resolution) pair and collect SweepResult rows.

    Fixed-step methods walk ``h_ladder``; the adaptive baseline walks
    ``tol_ladder``; an empty ladder for a requested method, or a resolution
    that is not finite and positive, raises ConfigError before any
    integration.  The reference endpoint is computed once.  Rows are
    deterministic unless ``measure_time`` is set (wall-clock is then filled
    in, at the cost of reproducibility).  A row that fails numerically
    (InputError, SingularityError) is recorded with a NaN error instead of
    aborting, and with the resolution it would have run; any other error
    propagates.
    """
    if h_ladder is None:
        h_ladder = tuple(1.0 / 2**k for k in range(2, 9))
    if tol_ladder is None:
        tol_ladder = tuple(10.0 ** (-i) for i in range(3, 10))
    ladders = [tol_ladder if method in ADAPTIVE_METHODS else h_ladder
               for method in methods]
    for method, ladder in zip(methods, ladders):
        if len(ladder) == 0 or not all(math.isfinite(r) and r > 0.0 for r in ladder):
            raise ConfigError(f"method {method}: resolution ladder {tuple(ladder)} "
                              "must be non-empty, finite and positive")
    check_methods(prob, methods)
    flow0 = backward_pass(prob)
    x_ref = reference_endpoint(prob, flow0)
    results = []
    for method, ladder in zip(methods, ladders):
        for resolution in ladder:
            try:
                results.append(run_single(prob, flow0, method, resolution,
                                          x_ref, measure_time=measure_time))
            except (InputError, SingularityError):
                if method in FIXED_STEP_METHODS:
                    resolution = _fixed_steps(prob, resolution)[1]
                results.append(SweepResult(
                    method=method, resolution=resolution, evaluations=0,
                    seconds=0.0, x_error=float("nan"), gain_defect=float("nan"),
                    positivity_flag=False, symmetry_defect=float("nan"),
                ))
    return results


CSV_HEADER = ("method,resolution,evaluations,seconds,x_error,gain_defect,"
              "positivity_flag,symmetry_defect")


def emit_csv(results, path):
    """Write sweep rows with 17-significant-digit decimals.

    The output is byte-identical across runs of the same configuration
    (provided timing was not measured).
    """
    if not results:
        raise InputError("refusing to write an empty sweep (no result rows)")
    lines = [CSV_HEADER]
    for r in results:
        lines.append(",".join([
            r.method,
            f"{r.resolution:.17g}",
            str(r.evaluations),
            f"{r.seconds:.17g}",
            f"{r.x_error:.17g}",
            f"{r.gain_defect:.17g}",
            "true" if r.positivity_flag else "false",
            f"{r.symmetry_defect:.17g}",
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
