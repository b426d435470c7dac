"""Splitting-scheme registry and the forward stepping engines.

Every built-in method is an engine on one stage loop.  Its clocks (t2 +=
a_i h, t1 += b_i h) do not depend on the solution, so it plans a chunk of
steps and samples A and S_row at the closed-loop nodes and K at the b-clocks
in one call each.  The Riccati flow never reads the state, so the chunk runs
its Riccati half first, then all its closed loops in one batched solve, and
per stage only the state's exponential actions.  The engines differ:

* ``step_autonomous`` -- constant coefficients, exp(b_i h K) formed once
  per stage length; the Riccati advance is exact, so integrating to T
  returns P(T) = QT to roundoff.
* ``step_nonautonomous`` -- exp(b_i h K(t2)), the chunk's exponents stacked.
* ``s2_step`` / ``s2c4`` -- sp2 with the cheap Cayley approximation of the
  flow, composed to order 4 as one coefficient sequence for ``s2c4``.
* ``step_near_integrable`` -- a constant drift D that dominates the coupling:
  the a-stage advances v by exp(a_i h D) and x by one CF4 step, closed loops
  at t2 + {0, 1/2, 1} a_i h; the flow is a degree-4 Taylor of b_i h (K - D).

State update uses the a-coefficients and the Riccati flow the
b-coefficients; for the shipped 6-stage order-4 scheme this ordering keeps
the most negative coefficient on the state side, which helps positivity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InputError, MisuseError, SingularityError, check_steps
from .magnus import _CHUNK_BYTES, at_nodes, cf4_exponents
from .matfun import _FORM_DIM, expm, expm_chain, expm_stack, norm1, pade2_apply, taylor_apply
from .problem import assemble_flow_matrix
from .riccati import GameFlow, closed_loops, right_solve

# ---------------------------------------------------------------------------
# Scheme registry
# ---------------------------------------------------------------------------

CONSISTENCY_TOL = 1e-15


@dataclass(frozen=True)
class SplittingScheme:
    """Coefficient pairs (a_i, b_i) of a splitting method.

    ``a`` advances the state, ``b`` the Riccati flow; zero entries skip the
    corresponding map.  ``stages`` is the per-step work unit after FSAL
    merging and is what the benchmark reports as native evaluations.
    """

    name: str
    a: tuple
    b: tuple
    order: int
    stages: int
    symmetric: bool
    fsal: bool
    kind: str  # "general" | "near-integrable"

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ConfigError(f"{self.name}: a and b must have equal length")
        for key in ("a", "b"):  # written so that a NaN sum fails too
            if not abs(math.fsum(getattr(self, key)) - 1.0) <= CONSISTENCY_TOL:
                raise ConfigError(f"{self.name}: {key} = {getattr(self, key)} must sum to 1")

    def interleaved(self):
        """Nonzero coefficients in execution order (a_1, b_1, a_2, ...)."""
        seq = []
        for ai, bi in zip(self.a, self.b):
            if ai != 0.0:
                seq.append(ai)
            if bi != 0.0:
                seq.append(bi)
        return tuple(seq)


def _sp4():
    b1, b2, b3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
    a2, a3 = 0.209515106613362, -0.143851773179818
    a4 = 0.5 - (a2 + a3)
    b4 = 1.0 - 2.0 * (b1 + b2 + b3)
    return SplittingScheme(
        name="sp4",
        a=(0.0, a2, a3, a4, a4, a3, a2),
        b=(b1, b2, b3, b4, b3, b2, b1),
        order=4, stages=6, symmetric=True, fsal=True, kind="general",
    )


def _sp6():
    a1, a2, a3 = 0.0502627644003922, 0.413514300428344, 0.0450798897943977
    a4, a5 = -0.188054853819569, 0.541960678450780
    a6 = 1.0 - 2.0 * (a1 + a2 + a3 + a4 + a5)
    b1, b2 = 0.148816447901042, -0.132385865767784
    b3, b4 = 0.067307604692185, 0.432666402578175
    b5 = 0.5 - (b1 + b2 + b3 + b4)
    return SplittingScheme(
        name="sp6",
        a=(a1, a2, a3, a4, a5, a6, a5, a4, a3, a2, a1),
        b=(b1, b2, b3, b4, b5, b5, b4, b3, b2, b1, 0.0),
        order=6, stages=10, symmetric=True, fsal=True, kind="general",
    )


def _ni42():
    a1 = (3.0 - math.sqrt(3.0)) / 6.0
    return SplittingScheme(
        name="ni42",
        a=(a1, 1.0 - 2.0 * a1, a1),
        b=(0.5, 0.5, 0.0),
        order=2, stages=2, symmetric=True, fsal=True, kind="near-integrable",
    )


def _ni84():
    a1, a2 = 0.07534696026989288842, 0.5179168546882567823
    a3 = 0.5 - (a1 + a2)
    b1, b2 = 0.19022593937367661925, 0.84652407044352625706
    b3 = 1.0 - 2.0 * (b1 + b2)
    return SplittingScheme(
        name="ni84",
        a=(a1, a2, a3, a3, a2, a1),
        b=(b1, b2, b3, b2, b1, 0.0),
        order=4, stages=5, symmetric=True, fsal=True, kind="near-integrable",
    )


_SP2 = SplittingScheme(name="sp2", a=(0.5, 0.5), b=(1.0, 0.0), order=2,
                       stages=1, symmetric=True, fsal=True, kind="general")


def builtin_schemes():
    """The shipped schemes: Lie-Trotter, leapfrog, the 6-stage order-4 and
    10-stage order-6 compositions, and the (4,2) / (8,4) pairs tuned for
    drift-plus-small-coupling problems."""
    sp1 = SplittingScheme(name="sp1", a=(1.0,), b=(1.0,), order=1, stages=1,
                          symmetric=False, fsal=False, kind="general")
    return [sp1, _SP2, _sp4(), _sp6(), _ni42(), _ni84()]


def get_scheme(name):
    for scheme in builtin_schemes():
        if scheme.name == name:
            return scheme
    raise ConfigError(f"unknown splitting scheme {name!r}")


# Composition weights turning a symmetric second-order map into order 4:
# (a1, a1, a2, a1, a1) with 4 a1 + a2 = 1.
_CUBE = 4.0 ** (1.0 / 3.0)
COMPOSE4_ALPHAS = (
    1.0 / (4.0 - _CUBE),
    1.0 / (4.0 - _CUBE),
    -_CUBE / (4.0 - _CUBE),
    1.0 / (4.0 - _CUBE),
    1.0 / (4.0 - _CUBE),
)


# ---------------------------------------------------------------------------
# Extended state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedState:
    """Stacked Riccati flow + state vector + the two time coordinates.

    ``v`` is the stacked array [U; V_1; ...; V_N].  ``t1`` accumulates the
    b-coefficients and is the clock frozen while the state advances; ``t2``
    accumulates the a-coefficients and is the clock at which the flow
    matrix is sampled.  After a complete step both equal t_n + h.
    """

    v: np.ndarray
    x: np.ndarray
    t1: float
    t2: float

    @property
    def flow(self):
        """The blocks of ``v`` as a GameFlow at the clock t1."""
        return GameFlow.from_stacked(self.v, self.t1)


def initial_state(prob, flow):
    return ExtendedState(v=flow.stacked(), x=prob.x0.copy(), t1=prob.t0, t2=prob.t0)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _closed_loop_stage(prob, taus, t1, t2):
    # the default a-stage: v unchanged, one closed loop at t1, exp(a_i h N) on x
    return t1, lambda j, v, out: v, lambda N: taus[:len(N), None, None, None] * N


def _rows(M, pos):
    # M[pos]; a constant M (0 stride) goes as one layer, a view of its one array
    return M[:1] if M.strides[0] == 0 else M[pos]


@dataclass(frozen=True)
class _Engine:
    """Coefficients and two stage maps.  ``flow(prob, taus, times, K)``, given
    a chunk's b-stage lengths b_i h, clocks t2 and a thunk giving ``at_nodes``
    of K there, is the map (j, v) -> v' of b-stage j; with ``writes``, (j, v,
    out) -> v', which writes v' into ``out``, never v's memory.  ``stage(prob,
    taus, t1, t2)``, given the a-stage lengths a_i h (an array) and clocks at
    their start (lists), returns the closed-loop nodes (q per a-stage), the
    map (j, v, out) -> v' of a-stage j, which finds v in out[0] and writes
    its other closed-loop inputs into ``out``, and the map from the closed
    loops (c, q, n, n) of the first c a-stages to their exponents (c, e, n,
    n), which act on x in order.  ``march`` yields per chunk the record (t1,
    t2, v, x) of its m step ends: clocks (lists), v (m, d, n), x (m, n).  A
    non-finite coefficient or a singular U raises for the first failing
    stage, after the record of the steps before it; a singular R when its
    chunk is sampled."""

    a: tuple
    b: tuple
    flow: Callable
    stage: Callable = _closed_loop_stage
    writes: bool = False

    def __call__(self, h, state, prob):  # one step
        (t1, t2, v, x), = self.march(h, state, prob, 1)
        return ExtendedState(v=v[0], x=x[0], t1=t1[0], t2=t2[0])

    def march(self, h, state, prob, steps):
        # a chunk's exponents, d x d per b-stage, fill at most _CHUNK_BYTES
        chunk = max(1, _CHUNK_BYTES // (8 * len(state.v) ** 2 * np.count_nonzero(self.b)))
        ah = [ai * h for ai in self.a]  # one float per a_i h
        na = np.count_nonzero(self.a)  # a-stages per step
        tau_a = np.array([tau for ai, tau in zip(self.a, ah) if ai != 0.0] * chunk)
        v, x, t1, t2 = state.v, state.x, state.t1, state.t2
        amemo, bmemo = {}, {}
        for first in range(0, steps, chunk):
            m = min(chunk, steps - first)
            t1a, t2a, tb, e1, e2 = [], [], [], [], []  # stage starts' clocks, step ends' t1, t2
            for _ in range(m):
                for ai, bi, tau in zip(self.a, self.b, ah):
                    if ai != 0.0:
                        t1a.append(t1)
                        t2a.append(t2)
                    t2 += tau
                    if bi != 0.0:
                        tb.append(t2)
                    t1 += bi * h
                e1.append(t1)
                e2.append(t2)
            taus = tau_a[:na * m]
            nodes, vmap, exponents = self.stage(prob, taus, t1a, t2a)
            (A, row), pos = at_nodes(prob.closed_loop_terms, nodes, amemo)
            advance = self.flow(prob, [bi * h for bi in self.b if bi != 0.0] * m, tb,
                                lambda: at_nodes(lambda ts: (prob.flow_matrices(ts),), tb, bmemo))

            # 1. the Riccati half, up to a stage that fails; each closed loop's input
            # goes into one stack, each step's end into V.  A b-stage that an a-stage
            # follows writes v' into its first input: only an a-stage after none copies
            q = len(nodes) // len(taus)
            Yq, V = np.empty((len(taus), q) + v.shape), np.empty((m,) + v.shape)
            fail, ja, jb, placed = None, 0, 0, False
            try:
                for done in range(m):  # ``done`` steps complete so far
                    for ai, bi, a_next in zip(self.a, self.b, self.a[1:] + self.a[:1]):
                        if ai != 0.0:
                            if not placed:
                                Yq[ja, 0] = v
                            v, placed = vmap(ja, v, Yq[ja]), False
                            ja += 1
                        if bi != 0.0:
                            placed = a_next != 0.0 and ja < len(taus)  # an a-stage reads v'
                            out = Yq[ja, 0] if placed else np.empty_like(v)
                            v = (advance(jb, v, out) if self.writes else
                                 np.copyto(out, advance(jb, v)) or out)
                            jb += 1
                    V[done] = v
                done = m
            except (InputError, SingularityError) as exc:
                fail = exc

            # 2. the closed loops of the a-stages before it, through the first
            # one whose coefficients are not finite, from one batched solve.
            # A failure found here or in 3 lies at an earlier stage.
            k = q * ja  # constants (0 stride) were checked finite when the problem was built
            if not all(M.strides[0] == 0 or np.isfinite(M).all() for M in (A, row)):
                bad = np.flatnonzero(~(np.isfinite(A).all(axis=(1, 2))
                                       & np.isfinite(row).all(axis=(1, 2)))[pos[:k]])
                k = q * (bad[0] // q + 1) if bad.size else k
            Y = Yq.reshape(-1, *v.shape)
            try:
                N = closed_loops(_rows(A, pos[:k]), _rows(row, pos[:k]), Y[:k], nodes[:k])
            except SingularityError as exc:  # at the first a-stage of the failing time
                k = q * (nodes.index(exc.where) // q)
                fail, done = exc, k // q // na
                N = closed_loops(_rows(A, pos[:k]), _rows(row, pos[:k]), Y[:k], nodes[:k])

            # 3. the actions on x, for the steps complete before the failure
            E = exponents(N.reshape(-1, q, *N.shape[1:]))
            if not np.isfinite(E).all():
                bad = np.argmin(np.isfinite(E).all(axis=(1, 2, 3)))
                fail, done = InputError("matrix contains non-finite entries"), bad // na
            if done:
                X = expm_chain(E[:done * na].reshape(-1, *E.shape[2:]), x,
                               np.empty((done,) + x.shape))
                x = X[-1]
                yield e1[:done], e2[:done], V[:done], X
            if fail is not None:
                raise fail


def _taylor_flow(prob, taus, times, K):
    # exp(b_i h K(t2)): the chunk's exponents stacked, up to d = 8 formed as one stack
    # up to a non-finite one; any other action is one expm_chain call (which raises)
    (K,), pos = K()
    E = np.asarray(taus)[:, None, None] * K[pos]
    form = np.isfinite(norm1(E)) & (E.shape[-1] <= _FORM_DIM)
    f = len(E) if form.all() else int(np.argmin(form))  # members formed
    F, E = expm_stack(E[:f]) if f else None, E[f:].copy()  # the closure keeps no formed E_j
    return lambda j, v, out: (F[j].dot(v, out=out) if j < f else
                              expm_chain(E[j - f:j - f + 1], v, out[None])[0])


def _pade_flow(prob, taus, times, K):  # the Cayley map of b_i h K(t2)
    (K,), pos = K()
    return lambda j, v: pade2_apply(K[pos[j]], taus[j], v)


def _cached_flow(cache):
    # exp(b_i h K) of a constant K, formed once per stage length in ``cache``
    def flow(prob, taus, times, K):
        for tau in set(taus) - set(cache):
            cache[tau] = expm(tau * prob.flow_matrix(prob.t0))
        return lambda j, v, out: cache[taus[j]].dot(v, out=out)
    return flow


def _weights(alphas):
    if not abs(math.fsum(alphas) - 1.0) <= 1e-12:  # a NaN sum fails too
        raise ConfigError(f"composition weights {tuple(alphas)} must sum to 1")
    return tuple(alphas)


def _composed(alphas, flow):
    # sp2 composed over the substeps ``alphas`` as one engine: the half state
    # steps that meet merge, so a = (α1/2, (α1+α2)/2, ..., αk/2), b = (α1, ..., αk, 0)
    alphas = _weights(alphas)
    a = tuple(0.5 * (p + q) for p, q in zip((0.0,) + alphas, alphas + (0.0,)))
    return _Engine(a, alphas + (0.0,), flow)


def step_autonomous(scheme, h, state, prob, cache=None):
    """One step of a general scheme with constant coefficients.

    The flow exponentials exp(b_i h K) are formed once per stage length and
    reused from ``cache``; a change of h simply misses it.
    """
    if not prob.is_autonomous:
        raise MisuseError("problem is not autonomous; use step_nonautonomous")
    flow = _cached_flow({} if cache is None else cache)
    return _Engine(scheme.a, scheme.b, flow, writes=True)(h, state, prob)


def step_nonautonomous(scheme, h, state, prob):
    """One step of the two-time-coordinate interleave: each flow stage
    applies exp(b_i h K(t2)) to the stacked blocks."""
    return _Engine(scheme.a, scheme.b, _taylor_flow, writes=True)(h, state, prob)


def s2_step(h, state, prob):
    """Symmetric second-order map: sp2's half state step, Cayley flow update
    at the midpoint clock, half state step."""
    return _composed((1.0,), _pade_flow)(h, state, prob)


def compose(base, alphas):
    """Composition of a base step map over fractional substeps.

    ``base(h, state, prob)`` must be a one-step map; the alphas must sum
    to one.  Returns a step map of the same signature.
    """
    alphas = _weights(alphas)
    def stepper(h, state, prob):
        for alpha in alphas:
            state = base(alpha * h, state, prob)
        return state
    return stepper


def _near_integrable(scheme, prob, cache):
    # The engine of a near-integrable scheme: D, the drift part of K, formed
    # once, and exp(τD/2), exp(τD) once per a-stage length τ in ``cache``
    if scheme.kind != "near-integrable":
        raise MisuseError(f"scheme {scheme.name} is not a near-integrable scheme")
    if not prob.A.constant:
        raise MisuseError("near-integrable stepping requires a constant A")
    D = assemble_flow_matrix(prob.n, prob.A(prob.t0), 0.0, [0.0] * prob.nplayers)

    def flow(prob, taus, times, K):  # degree-4 Taylor of the frozen coupling b_i h (K - D)
        (K,), pos = K()
        return lambda j, v: taylor_apply(taus[j] * (K[pos[j]] - D), v, 4)

    def stage(prob, taus, t1, t2):
        # v by the drift flow, x by CF4 with closed loops at t2 + {0, 1/2, 1} τ
        keys = taus.tolist()
        for key in {("ni", tau) for tau in keys} - set(cache):  # apart from exp(τK)
            cache[key] = (expm(0.5 * key[1] * D), expm(key[1] * D))

        def advance(j, v, out):
            Gh, G1 = cache["ni", keys[j]]
            Gh.dot(v, out=out[1])
            return G1.dot(v, out=out[2])
        nodes = np.array(t2)[:, None] + taus[:, None] * np.array([0.0, 0.5, 1.0])
        return nodes.ravel().tolist(), advance, lambda N: cf4_exponents(
            taus[:len(N), None, None] / 12.0, *N.swapaxes(0, 1))
    return _Engine(scheme.a, scheme.b, flow, stage)


def step_near_integrable(scheme, h, state, prob, cache=None):
    """One step for a large constant drift plus small coupling.

    The a-stages propagate U, V by the exact drift exponentials, cached per
    stage length, and the state by one CF4 step of its linear equation; the
    b-stages apply a degree-4 Taylor of the coupling flow frozen at t2.
    """
    return _near_integrable(scheme, prob, {} if cache is None else cache)(h, state, prob)


# ---------------------------------------------------------------------------
# Forward driver
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Time-indexed samples of the forward solve.

    ``gains[k, j]`` is the symmetrized j-th gain block at times[k];
    ``controls[j][k]`` the j-th control vector.  ``evaluations`` counts
    scheme stages (splitting) and is what work-precision plots use.
    """

    times: np.ndarray
    states: np.ndarray
    gains: np.ndarray
    controls: list
    evaluations: int
    max_symmetry_defect: float
    terminal_gain_defect: float

    @property
    def min_gain_eig(self):
        """The smallest eigenvalue of any recorded (symmetrized) gain."""
        return float(np.linalg.eigvalsh(self.gains).min())

    @property
    def terminal_state(self):
        return self.states[-1]

    @property
    def terminal_gains(self):
        return self.gains[-1]


def make_stepper(prob, method, cache):
    """Resolve a method name to (engine, stages per step).

    ``sp*``/``ni*`` pick the engine from the scheme kind and the problem's
    constancy; ``s2`` and ``s2c4`` use the Cayley-based symmetric map.
    A near-integrable scheme on a time-dependent A raises MisuseError here.
    """
    alphas = {"s2": (1.0,), "s2c4": COMPOSE4_ALPHAS}.get(method)
    if alphas:
        return _composed(alphas, _pade_flow), len(alphas)
    scheme = get_scheme(method)
    if scheme.kind == "near-integrable":
        return _near_integrable(scheme, prob, cache), scheme.stages
    flow = _cached_flow(cache) if prob.is_autonomous else _taylor_flow
    return _Engine(scheme.a, scheme.b, flow, writes=True), scheme.stages


def integrate_forward(prob, flow0, steps, method="sp4", stepper=None,
                      stages_per_step=None):
    """March the coupled system from t0 to T recording a Trajectory.

    ``flow0`` is the backward-pass result at t0.  Either a ``method`` name
    or an explicit (stepper, stages_per_step) pair selects the engine.
    """
    steps = check_steps(steps)
    cache = {}
    if stepper is None:
        stepper, stages_per_step = make_stepper(prob, method, cache)
    h = (prob.T - prob.t0) / steps
    return record_trajectory(prob, stepper, initial_state(prob, flow0), h, steps,
                             steps * stages_per_step)


def _record(state):  # a state as a one-sample record
    return (state.t1,), (state.t2,), state.v[None], state.x[None]


def _write_gains(v, t1, out):
    # the symmetrized gains of v (m, d, n) at the clocks t1 into out (m, N, n, n);
    # returns the largest raw symmetry defect.  Should the one batched solve
    # fail, sample by sample: the first failing sample raises.
    n = v.shape[-1]
    try:
        raw = right_solve(v[:, n:], v[:, :n], t1).reshape(out.shape)
    except SingularityError:
        if len(v) == 1:
            raise
        return max(_write_gains(v[k:k + 1], t1[k:k + 1], out[k:k + 1])
                   for k in range(len(v)))
    if not np.isfinite(raw).all():  # checked first: inf - inf would warn
        raise InputError("matrix contains non-finite entries")
    np.add(raw, raw.swapaxes(-1, -2), out=out)
    out *= 0.5
    skew = raw - raw.swapaxes(-1, -2)
    return float(np.abs(skew, out=skew).max())


def record_trajectory(prob, stepper, state, h, steps, evaluations):
    """Take ``steps`` steps of ``stepper`` from ``state``, sampling each state.

    An engine (every built-in method) yields one record per chunk; a
    ``compose()`` or user step map is called once per step, each state a
    one-sample record.  A record's clocks t1, states and symmetrized gains
    are written into arrays allocated for the steps + 1 samples, its raw
    gains V_stack U^-1 read in one batched solve; every sample's controls
    come from one batched call after the last step.
    """
    records = (itertools.chain([_record(state)], stepper.march(h, state, prob, steps))
               if isinstance(stepper, _Engine) else
               map(_record, itertools.accumulate(range(steps), lambda s, _: stepper(h, s, prob),
                                                 initial=state)))
    n = state.v.shape[1]
    try:
        times, xs = np.empty(steps + 1), np.empty((steps + 1,) + state.x.shape)
        gains = np.empty((steps + 1, len(state.v) // n - 1, n, n))
    except (ValueError, MemoryError) as exc:  # too long for numpy, or for memory
        raise ConfigError(f"cannot record {steps} steps: {exc}") from None
    max_defect, k = 0.0, 0
    for t1, _, v, x in records:
        m = len(v)
        times[k:k + m], xs[k:k + m] = t1, x
        max_defect = max(max_defect, _write_gains(v, t1, gains[k:k + m]))
        k += m

    return Trajectory(
        times=times,
        states=xs,
        gains=gains,
        controls=prob.feedback_controls(times.tolist(), gains, xs),
        evaluations=evaluations,
        max_symmetry_defect=max_defect,
        terminal_gain_defect=float(np.max(np.abs(gains[-1] - np.asarray(prob.QT)))),
    )
