"""Splitting-scheme registry and the forward stepping engines.

Every built-in method is an engine on one march.  Its clocks (t2 += a_i h,
t1 += b_i h) do not depend on the solution, so it plans a chunk of steps.
The Riccati flow never reads the state, so the chunk runs its Riccati half
first, then all its closed loops in one batched solve, and per stage only
the state's exponential actions.  The engines differ in the Riccati half.

``step_autonomous``, a general scheme on constant coefficients, has no stage
loop: the Riccati advance is exact, so a-stage j reads [U; S_row V] as
L_j v_k, L_j = [[I, 0], [0, S_row]] exp(c_j h K) with c_j h the b-length
before it.  One product per step reads every stage, and exp(hK) advances v.
When the players have few inputs (``_factored``: fewer flops) the row is
read through its factors S_row = B~ F (problem.coupling_factor): L_j =
[[I, 0], [0, F]] exp(c_j h K) has n + sum r_i rows, not 2n, and the closed
loop A - B~ ((F V) U^-1) solves for sum r_i rows, not n.  Once per problem
and h, each L_j is one Taylor action on P's rows, L_j^T = exp(c_j h K^T) P^T,
and exp(hK) one expm; integrating to T returns P(T) = QT to roundoff.

The others sample A and S_row at the closed-loop nodes and K at the b-clocks
in one call each per chunk.  ``step_nonautonomous``, exp(b_i h K(t2)), has no
stage loop either: the chunk's b-exponents run as one ``expm_chain`` up to
the first that is not finite, every result kept, and each a-stage's input
and each step's end are gathered from that stack.  The rest run the stage
loop, each stage's map on v in order, a b-stage's map returning a new v:

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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, DimensionError, InputError, MisuseError, SingularityError,
                     check_steps)
from .magnus import _CHUNK_BYTES, at_nodes, cf4_exponents
from .matfun import expm, expm_apply, expm_chain, norm1, pade2_apply, taylor_apply
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


def _stack_error(prob, name, given):
    n, N = prob.n, prob.nplayers
    return DimensionError(f"{name} must stack U and {N} V blocks, each {n} x {n}, "
                          f"to ({(N + 1) * n}, {n}); got {given}")


def initial_state(prob, flow):
    """The extended state at t0 of ``flow``: U and one V per player, each n x n."""
    blocks = [np.shape(M) for M in (flow.U, *flow.V)]
    if blocks != [(prob.n, prob.n)] * (prob.nplayers + 1):
        try:
            given = flow.stacked().shape
        except ValueError:  # blocks of unequal widths
            given = f"blocks {blocks}"
        raise _stack_error(prob, "flow0", given)
    return ExtendedState(v=flow.stacked(), x=prob.x0.copy(), t1=prob.t0, t2=prob.t0)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _closed_loop_stage(prob, taus, t1, t2):
    # the default a-stage: v unchanged, one closed loop at t1, exp(a_i h N) on x,
    # the exponents written over the fresh stack N
    return t1, lambda j, v, out: v, lambda N: np.multiply(taus[:len(N), None, None, None], N,
                                                          out=N)


def _rows(M, pos):
    # M[pos]; a constant M (0 stride) goes as one layer, a view of its one array
    return M[:1] if M.strides[0] == 0 else M[pos]


@dataclass(frozen=True)
class _Engine:
    """Coefficients and two stage maps.  ``flow(prob, taus, times, K)``, given
    a chunk's b-stage lengths b_i h, clocks t2 and a thunk giving ``at_nodes``
    of K there, is the map (j, v) -> v' of b-stage j, a new array.
    ``stage(prob, taus, t1, t2)``, given the a-stage lengths a_i h (an array)
    and clocks at their start (lists), returns the closed-loop nodes (q per
    a-stage), the map (j, v, out) -> v' of a-stage j, which finds v in out[0]
    and puts its other closed-loop inputs into ``out``, and the map from the
    closed loops (c, q, n, n) of the first c a-stages to their exponents
    (c, e, n, n), which act on x in order and may be written over the closed
    loops.  ``half(prob, h)`` is the Riccati half of each chunk: A and S_row
    at the closed-loop nodes, their inputs from ``riccati(prob, h)``, here
    the stage loop of these maps.  ``march`` yields per chunk of
    ``steps_per_chunk(v)`` steps the record (t1, t2, v, x) of its m step
    ends: clocks (lists), v (m, d, n), x (m, n).  A non-finite coefficient or
    a singular U raises for the first failing stage, after the record of the
    steps before it; a singular R when its chunk is sampled."""

    a: tuple
    b: tuple
    flow: Callable
    stage: Callable = _closed_loop_stage

    def __call__(self, h, state, prob):  # one step
        n = prob.n
        if np.shape(state.v) != ((prob.nplayers + 1) * n, n):
            raise _stack_error(prob, "state.v", np.shape(state.v))
        if np.shape(state.x) != (n,):
            raise DimensionError(f"state.x must have shape ({n},); got {np.shape(state.x)}")
        (t1, t2, v, x), = self.march(h, state, prob, 1)
        return ExtendedState(v=v[0], x=x[0], t1=t1[0], t2=t2[0])

    def steps_per_chunk(self, v):
        # a chunk's exponents, d x d per b-stage, fill at most _CHUNK_BYTES
        return max(1, _CHUNK_BYTES // (8 * len(v) ** 2 * np.count_nonzero(self.b)))

    def march(self, h, state, prob, steps):
        chunk = self.steps_per_chunk(state.v)
        ah = [ai * h for ai in self.a]  # one float per a_i h
        na = np.count_nonzero(self.a)  # a-stages per step
        tau_a = np.array([tau for ai, tau in zip(self.a, ah) if ai != 0.0] * chunk)
        v, x, t1, t2 = state.v, state.x, state.t1, state.t2
        half = self.half(prob, h)
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

            # 1. the Riccati half, up to a stage that fails: each step's end into V,
            # and the map from k to the first k closed loops it reaches
            q = len(nodes) // len(taus)
            loops, k, V, v, done, fail = half(v, m, taus, tb, nodes, vmap)

            # 2. those closed loops from one batched solve.  A failure found
            # here or in 3 lies at an earlier stage.
            try:
                N = loops(k)
            except SingularityError as exc:  # at the first a-stage of the failing time
                k = q * (nodes.index(exc.where) // q)
                fail, done = exc, k // q // na
                N = loops(k)

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
            del loops  # the chunk's stage inputs go before the next chunk forms its own

    def half(self, prob, h):
        # per chunk, (v, m, taus, tb, nodes, vmap) -> (loops, k, V, v, done, fail): A
        # and S_row sampled at the closed-loop nodes, their inputs from ``riccati``
        amemo, riccati = {}, self.riccati(prob, h)

        def chunk(v, m, taus, tb, nodes, vmap):
            (A, row), pos = at_nodes(prob.closed_loop_terms, nodes, amemo)
            Y, V, v, done, fail = riccati(v, m, taus, tb, nodes, vmap)
            # the closed loops of the a-stages reached, through the first one
            # whose coefficients are not finite
            k, q = len(Y), len(nodes) // len(taus)  # constants (0 stride) were checked finite
            if not all(M.strides[0] == 0 or np.isfinite(M).all() for M in (A, row)):
                bad = np.flatnonzero(~(np.isfinite(A).all(axis=(1, 2))
                                       & np.isfinite(row).all(axis=(1, 2)))[pos[:k]])
                k = q * (bad[0] // q + 1) if bad.size else k
            return (lambda k: closed_loops(_rows(A, pos[:k]), _rows(row, pos[:k]), Y[:k],
                                           nodes[:k])), k, V, v, done, fail
        return chunk

    def riccati(self, prob, h):
        # the stage loop, K sampled at the b-clocks: per chunk, (v, m, taus, tb, nodes,
        # vmap) -> (Y, V, v, done, fail), Y the inputs of the a-stages reached (q each)
        bmemo, bh = {}, [bi * h for bi in self.b if bi != 0.0]

        def chunk(v, m, taus, tb, nodes, vmap):
            advance = self.flow(prob, bh * m, tb,
                                lambda: at_nodes(lambda ts: (prob.flow_matrices(ts),), tb, bmemo))
            q = len(nodes) // len(taus)
            Yq, V = np.empty((len(taus), q) + v.shape), np.empty((m,) + v.shape)
            fail, ja, jb = None, 0, 0
            try:
                for done in range(m):  # ``done`` steps complete so far
                    for ai, bi in zip(self.a, self.b):
                        if ai != 0.0:
                            Yq[ja, 0] = v
                            v = vmap(ja, v, Yq[ja])
                            ja += 1
                        if bi != 0.0:
                            v = advance(jb, v)
                            jb += 1
                    V[done] = v
                done = m
            except (InputError, SingularityError) as exc:
                fail = exc
            return Yq.reshape(-1, *v.shape)[:q * ja], V, v, done, fail
        return chunk


@dataclass(frozen=True)
class _Chained(_Engine):
    """The engine of exp(b_i h K(t2)) (``step_nonautonomous``): per chunk, one
    expm_chain over its b-exponents before the first that is not finite, every
    result kept, then each a-stage's input and each step's end gathered from
    that stack."""

    def riccati(self, prob, h):
        # slots(m): over m steps, each a-stage's input, after the b-stages before it
        bmemo, bh = {}, np.array([bi * h for bi in self.b if bi != 0.0])
        nb, before = len(bh), np.searchsorted(np.flatnonzero(self.b), np.flatnonzero(self.a))
        slots = functools.lru_cache(lambda m: (nb * np.arange(m)[:, None] + before).ravel())

        def chunk(v, m, taus, tb, nodes, vmap):
            (K,), pos = at_nodes(lambda ts: (prob.flow_matrices(ts),), tb, bmemo)
            E = np.tile(bh, m)[:, None, None] * K[pos]
            del K  # the samples go before the chain stack comes
            finite = np.isfinite(norm1(E))
            f = len(E) if finite.all() else int(np.argmin(finite))  # the actions that run
            chain = np.empty((f + 1,) + v.shape)  # v, then v after each action
            chain[0] = v
            if f:
                expm_chain(E[:f], v, chain[1:])
            ia, done = slots(m), f // nb
            V = chain[nb::nb].copy()  # copies of the chain, which goes
            return (chain[ia[:np.searchsorted(ia, f, "right")]], V, V[-1] if done else v, done,
                    None if f == len(E) else InputError("matrix contains non-finite entries"))
        return chunk


@dataclass(frozen=True)
class _Projected(_Engine):
    """The engine of a general scheme on constant coefficients (the module
    docstring): ``flow`` caches, keyed by (problem, a, b, h), the stack L
    (a-stages, rows, d) of the maps L_j, exp(hK) and B~ of the factored row
    (None when L reads S_row)."""

    flow: dict

    def steps_per_chunk(self, v):
        # at least d // n = N + 1 steps: a chunk's stage inputs UW (m, a-stages, rows, n)
        # then take no more room than the maps L (a-stages, rows, d) that produce them
        return max(super().steps_per_chunk(v), len(v) // v.shape[1])

    def half(self, prob, h):
        key = (prob, self.a, self.b, h)
        if key not in self.flow:
            self.flow[key] = _project(self.a, self.b, h, prob)
        L, E, B = self.flow[key]
        A, n = prob.A(prob.t0)[None], prob.n  # a view of the problem's one array
        loops = closed_loops if B is None else lambda *args: closed_loops(*args, B=B)

        def chunk(v, m, taus, tb, nodes, vmap):
            UW, V = np.empty((m,) + L.shape[:2] + (n,)), np.empty((m,) + v.shape)
            for s in range(m):
                np.matmul(L, v, out=UW[s])
                v = E.dot(v, out=V[s])
            UW = UW.reshape(-1, L.shape[1], n)
            return (lambda k: loops(A, None, UW[:k], nodes[:k])), len(UW), V, v, m, None
        return chunk


def _pade_flow(prob, taus, times, K):  # the Cayley map of b_i h K(t2)
    (K,), pos = K()
    return lambda j, v: pade2_apply(K[pos[j]], taus[j], v)


def _factored(r, n, N):
    # Whether _Projected reads the row of an N-player game with n states and r
    # inputs in all through its factors.  Per a-stage the row costs 2n(N+1)n^2
    # flops in L v and n^3 in the solve's right-hand sides; the factors cost
    # (n+r)(N+1)n^2 and r n^2 there, plus r n^2 in B~ G: fewer exactly when
    # r(N+3) < n(N+2).
    return r * (N + 3) < n * (N + 2)


def _project(a, b, h, prob):
    # L, exp(hK) and B~ of _Projected: L_j^T = exp(c_j h K^T) P^T, one Taylor action
    # on the n + rows columns of P^T = [[I, 0], [0, row^T]]
    K, n, r = prob.flow_matrix(prob.t0), prob.n, sum(Bi.dims[1] for Bi in prob.B)
    B, row = (prob.coupling_factor(prob.t0) if _factored(r, n, prob.nplayers)
              else (None, prob.coupling_row(prob.t0)))
    PT = np.zeros((len(K), n + len(row)))
    PT[:n, :n], PT[n:, n:] = np.eye(n), row.T
    L = np.array([expm_apply(c * h * K.T, PT).T
                  for ai, c in zip(a, itertools.accumulate((0.0,) + b)) if ai != 0.0])
    return L, expm(h * K), None if B is None else B[None]


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

    Every a-stage reads its inputs [U; S_row V] (or [U; F V]) as L_j v from
    one product, and exp(hK) advances v.  ``cache`` holds, per problem and h,
    the stack L of the L_j and exp(hK), formed on the first step of that
    length; its key (problem, a, b, h) names the problem, by identity, and
    the scheme, so problems and schemes can share a cache.  A change of
    problem or of h misses it.
    """
    if not prob.is_autonomous:
        raise MisuseError("problem is not autonomous; use step_nonautonomous")
    return _Projected(scheme.a, scheme.b, {} if cache is None else cache)(h, state, prob)


def step_nonautonomous(scheme, h, state, prob):
    """One step of the two-time-coordinate interleave: each flow stage
    applies exp(b_i h K(t2)) to the stacked blocks."""
    return _Chained(scheme.a, scheme.b, None)(h, state, prob)


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
    # once, and exp(τD/2), exp(τD) once per a-stage length τ in ``cache``, keyed
    # by ("ni", problem, τ)
    if scheme.kind != "near-integrable":
        raise MisuseError(f"scheme {scheme.name} is not a near-integrable scheme")
    if not prob.A.constant:
        raise MisuseError("near-integrable stepping requires a constant A")
    D = assemble_flow_matrix(prob.n, prob.A(prob.t0), 0.0, [0.0] * prob.nplayers)

    def flow(prob, taus, times, K):  # degree-4 Taylor of the frozen coupling b_i h (K - D)
        (K,), pos = K()
        return lambda j, v: taylor_apply(taus[j] * (K[pos[j]] - D), v, 4)

    def stage(_, taus, t1, t2):
        # v by the drift flow, x by CF4 with closed loops at t2 + {0, 1/2, 1} τ
        keys = taus.tolist()
        for key in {("ni", prob, tau) for tau in keys} - set(cache):  # apart from exp(τK)
            cache[key] = (expm(0.5 * key[2] * D), expm(key[2] * D))

        def advance(j, v, out):
            Gh, G1 = cache["ni", prob, keys[j]]
            Gh.dot(v, out=out[1])
            return G1.dot(v, out=out[2])
        nodes = np.array(t2)[:, None] + taus[:, None] * np.array([0.0, 0.5, 1.0])
        return nodes.ravel().tolist(), advance, lambda N: cf4_exponents(
            taus[:len(N), None, None] / 12.0, *N.swapaxes(0, 1))
    return _Engine(scheme.a, scheme.b, flow, stage)


def step_near_integrable(scheme, h, state, prob, cache=None):
    """One step for a large constant drift plus small coupling.

    The a-stages propagate U, V by the exact drift exponentials, cached per
    problem and stage length in ``cache`` under the key ("ni", problem, τ),
    which names the problem by identity, and the state by one CF4 step of
    its linear equation; the b-stages apply a degree-4 Taylor of the
    coupling flow frozen at t2.
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
    if prob.is_autonomous:
        return _Projected(scheme.a, scheme.b, cache), scheme.stages
    return _Chained(scheme.a, scheme.b, None), scheme.stages


def integrate_forward(prob, flow0, steps, method="sp4", stepper=None,
                      stages_per_step=None):
    """March the coupled system from t0 to T recording a Trajectory.

    ``flow0`` is the backward-pass result at t0.  Either a ``method`` name
    or an explicit (stepper, stages_per_step) pair selects the engine.
    """
    steps = check_steps(steps)
    if stepper is not None and stages_per_step is None:
        raise ConfigError("integrate_forward: a stepper needs stages_per_step")
    cache = {}
    if stepper is None:
        stepper, stages_per_step = make_stepper(prob, method, cache)
    stages_per_step = check_steps(stages_per_step, "stages_per_step")
    h = (prob.T - prob.t0) / steps
    return record_trajectory(prob, stepper, initial_state(prob, flow0), h, steps,
                             steps * stages_per_step)


def _record(state):  # a state as a one-sample record
    return (state.t1,), (state.t2,), state.v[None], state.x[None]


def _write_gains(v, t1, out):
    # the symmetrized gains of v (m, d, n) at the clocks t1 into out (m, N, n, n);
    # returns the largest raw symmetry defect.  Should the one right_solve
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
    are written into arrays allocated for the steps + 1 samples, its raw gains
    V_stack U^-1 from one right_solve (for N, n > 1 one inverse per U and a
    product); every sample's controls come from one batched call after the last step.
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
