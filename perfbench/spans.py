"""Span recorder and per-layer metrics for the traced run.

The traced run wraps splitlq's entry points from outside the library:
every binding of a wrapped function in a ``splitlq`` module is replaced,
wherever it is looked up (``splitlq.matfun.expm``, ``splitlq.splitting.expm``
and ``splitlq.expm`` alike), by a wrapper that records a span, and every
binding is put back when tracing ends.  Spans (name, start, end, parent)
live in flat in-memory arrays and are written out once, at the end.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Layer metrics are computed per op from the spans under
that op; work under a ``problem.build`` span counts only towards
``problem.build_s``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


class SpanRecorder:
    """Spans in flat arrays: name id, parent index (-1 for a root), start
    and end times.  ``attrs`` holds the value a wrapper recorded for a span
    and ``raised`` the spans whose call raised."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs = {}
        self.raised = set()
        self._stack = [-1]

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(self.clock())
        return i

    def close(self, i, raised=False):
        self.end[i] = self.clock()
        self._stack.pop()
        if raised:
            self.raised.add(i)

    def wrap(self, name, fn, value=None):
        """``fn`` recording a span per call; ``value(*args, **kwargs)``, when
        given, is stored in ``attrs`` for the span."""
        nid = self.name_id(name)
        attrs = self.attrs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                if value is not None:
                    attrs[i] = value(*args, **kwargs)
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(i, raised=True)
                raise
            self.close(i)
            return result

        return wrapper

    def write(self, path):
        """Write every span to ``path`` (numpy .npz)."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 raised=np.array(sorted(self.raised), dtype=np.int64))


# ---------------------------------------------------------------------------
# What to wrap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """A function (``attr``) or method (``Class.method``) defined in
    ``module``, recorded as ``span``.  ``sites`` limits the modules whose
    bindings are replaced; by default every splitlq module that binds it."""

    span: str
    module: str
    attr: str
    value: Callable | None = None
    sites: tuple | None = None


def _dim(M, *args, **kwargs):
    return len(M)


def _steps_and_n(prob, flow0, steps, *args, **kwargs):
    return (steps, prob.n)


TARGETS = (
    Target("matfun.expm", "splitlq.matfun", "expm", value=_dim),
    Target("matfun.pade2_apply", "splitlq.matfun", "pade2_apply"),
    Target("matfun.min_eigenvalue_sym", "splitlq.matfun", "min_eigenvalue_sym"),
    Target("matfun.solve_checked", "splitlq.matfun", "solve_checked"),
    Target("problem.timematrix_eval", "splitlq.problem", "TimeMatrix.__call__"),
    Target("problem.assemble_flow_matrix", "splitlq.problem", "assemble_flow_matrix"),
    Target("riccati.gain_map", "splitlq.riccati", "_gain_raw"),
    Target("riccati.check_nonsingular", "splitlq.riccati", "check_nonsingular"),
    Target("magnus.cf4_step", "splitlq.magnus", "cf4_step"),
    Target("splitting.step", "splitlq.splitting", "step_autonomous"),
    Target("splitting.step", "splitlq.splitting", "step_nonautonomous"),
    Target("splitting.step", "splitlq.splitting", "s2_step"),
    Target("splitting.step", "splitlq.splitting", "step_near_integrable"),
    Target("splitting.integrate_forward", "splitlq.splitting", "integrate_forward",
           value=_steps_and_n),
    Target("games.backward_game", "splitlq.games", "backward_game"),
    Target("games.feedback_controls", "splitlq.games", "GameProblem.feedback_controls"),
    Target("games.zs_base_step", "splitlq.games", "zs_base_step"),
    Target("games.backward_zero_sum", "splitlq.games", "backward_zero_sum"),
    Target("games.solve_zero_sum", "splitlq.games", "solve_zero_sum"),
    Target("reference.rhs", "splitlq.reference", "FlatODE.__call__"),
    Target("reference.rk4_solve", "splitlq.reference", "rk4_solve"),
    Target("reference.adaptive_solve", "splitlq.reference", "adaptive_solve"),
    Target("bench.reference_endpoint", "splitlq.bench", "reference_endpoint"),
    Target("bench.run_single", "splitlq.bench", "run_single"),
    Target("bench.emit_csv", "splitlq.bench", "emit_csv"),
    Target("problem.build", "splitlq.bench", "build_pollution", sites=("splitlq.cli",)),
    Target("cli.main", "splitlq.cli", "main"),
)


def _splitlq_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "splitlq" or name.startswith("splitlq."))]


def install(recorder, targets=TARGETS):
    """Replace every binding of each target by a recording wrapper.

    Returns the (owner, attribute, original) triples that ``restore`` puts
    back; nothing stays replaced if installing fails part-way.
    """
    patched = []
    try:
        for t in targets:
            owner = importlib.import_module(t.module)
            if "." in t.attr:
                cls_name, method = t.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, recorder.wrap(t.span, original, t.value))
                patched.append((cls, method, original))
                continue
            original = getattr(owner, t.attr)
            wrapper = recorder.wrap(t.span, original, t.value)
            modules = ([importlib.import_module(s) for s in t.sites] if t.sites
                       else _splitlq_modules())
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
    except BaseException:
        restore(patched)
        raise
    return patched


def restore(patched):
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


@contextlib.contextmanager
def traced(recorder, targets=TARGETS):
    """Wrap the targets for the duration of the block, then restore them."""
    patched = install(recorder, targets)
    try:
        yield recorder
    finally:
        restore(patched)


# ---------------------------------------------------------------------------
# Span-tree arithmetic
# ---------------------------------------------------------------------------


def coverage(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


@dataclass
class SpanTree:
    """The spans ``lo`` .. ``hi`` - 1 of a recorder, re-indexed from 0.
    Parents outside the range become -1."""

    names: list
    parent: list
    start: list
    end: list
    attrs: dict
    raised: set

    @classmethod
    def from_recorder(cls, rec, lo=0, hi=None):
        hi = len(rec) if hi is None else hi
        return cls(
            names=[rec.names[k] for k in rec.name[lo:hi]],
            parent=[p - lo if p >= lo else -1 for p in rec.parent[lo:hi]],
            start=list(rec.start[lo:hi]), end=list(rec.end[lo:hi]),
            attrs={i - lo: v for i, v in rec.attrs.items() if lo <= i < hi},
            raised={i - lo for i in rec.raised if lo <= i < hi},
        )

    def duration(self, i):
        return self.end[i] - self.start[i]

    def self_times(self):
        kids = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append((self.start[i], self.end[i]))
        return [self.duration(i) - coverage(kids[i], self.start[i], self.end[i])
                if i in kids else self.duration(i)
                for i in range(len(self.names))]

    def nearest(self, name):
        """Index of the nearest span named ``name`` among each span and its
        ancestors, or -1.  Parents precede children, so one pass does."""
        near = []
        for i, (n, p) in enumerate(zip(self.names, self.parent)):
            near.append(i if n == name else (near[p] if p >= 0 else -1))
        return near

    def above(self, name):
        """Like ``nearest`` but among strict ancestors only."""
        near = self.nearest(name)
        return [near[p] if p >= 0 else -1 for p in self.parent]


# ---------------------------------------------------------------------------
# Per-layer metrics of one op
# ---------------------------------------------------------------------------

# metric prefix -> span name, reported as <prefix>.calls and <prefix>.self_s
CALLS_AND_SELF = {
    "matfun.expm": "matfun.expm",
    "matfun.pade2_apply": "matfun.pade2_apply",
    "matfun.min_eigenvalue_sym": "matfun.min_eigenvalue_sym",
    "problem.timematrix_eval": "problem.timematrix_eval",
    "problem.assemble_flow_matrix": "problem.assemble_flow_matrix",
    "riccati.gain_map": "riccati.gain_map",
    "riccati.check_nonsingular": "riccati.check_nonsingular",
    "magnus.cf4_step": "magnus.cf4_step",
    "splitting.step": "splitting.step",
    "games.backward_game": "games.backward_game",
    "games.feedback_controls": "games.feedback_controls",
    "games.zs_base_step": "games.zs_base_step",
}

# metric -> (span name, "calls" | "self" | "duration")
SINGLE = {
    "matfun.solve_checked.calls": ("matfun.solve_checked", "calls"),
    "problem.build_s": ("problem.build", "duration"),
    "splitting.record.self_s": ("splitting.integrate_forward", "self"),
    "games.solve_zero_sum.record_self_s": ("games.solve_zero_sum", "self"),
    "reference.rhs_evals": ("reference.rhs", "calls"),
    "reference.rhs.self_s": ("reference.rhs", "self"),
    "reference.reference_endpoint.s": ("bench.reference_endpoint", "duration"),
    "reference.rk4_solve.self_s": ("reference.rk4_solve", "self"),
    "reference.adaptive_solve.self_s": ("reference.adaptive_solve", "self"),
    "bench.run_single.calls": ("bench.run_single", "calls"),
    "bench.run_single.s": ("bench.run_single", "duration"),
    "bench.emit_csv.s": ("bench.emit_csv", "duration"),
    "cli.main.self_s": ("cli.main", "self"),
}

DERIVED = (
    "matfun.expm.mean_dim", "magnus.samples_per_step",
    "splitting.gain_solves_per_step", "splitting.flow_expm_per_step",
    "reference.check_eval_share", "bench.rows_failed_share",
)

# Reported by the run itself rather than derived from one op's spans.
RUN_LEVEL = ("cli.import_s", "trace.overhead_ratio")

METRICS = tuple(
    [f"{p}.{s}" for p in CALLS_AND_SELF for s in ("calls", "self_s")]
    + list(SINGLE) + list(DERIVED) + list(RUN_LEVEL))


def _ratio(num, den):
    return num / den if den else 0.0


def op_metrics(tree):
    """Every span-derived layer metric of one op's spans.  A layer the op
    does not reach reads 0, and so does a ratio whose base is 0."""
    selfs = tree.self_times()
    in_build = tree.nearest("problem.build")
    outer_build = tree.above("problem.build")
    calls, self_s, dur = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, name in enumerate(tree.names):
        if in_build[i] >= 0:
            if name == "problem.build" and outer_build[i] < 0:
                dur[name] += tree.duration(i)
            continue
        calls[name] += 1
        self_s[name] += selfs[i]
        dur[name] += tree.duration(i)

    out = {}
    for prefix, name in CALLS_AND_SELF.items():
        out[f"{prefix}.calls"] = calls[name]
        out[f"{prefix}.self_s"] = self_s[name]
    for metric, (name, kind) in SINGLE.items():
        out[metric] = {"calls": calls, "self": self_s, "duration": dur}[kind][name]

    counted = [i for i in range(len(tree.names)) if in_build[i] < 0]
    names = tree.names
    dims = [tree.attrs[i] for i in counted if names[i] == "matfun.expm"]
    out["matfun.expm.mean_dim"] = _ratio(sum(dims), len(dims))

    in_cf4 = tree.above("magnus.cf4_step")
    out["magnus.samples_per_step"] = _ratio(
        sum(1 for i in counted
            if names[i] == "problem.assemble_flow_matrix" and in_cf4[i] >= 0),
        calls["magnus.cf4_step"])

    forward = tree.nearest("splitting.integrate_forward")
    in_step = tree.above("splitting.step")
    steps = sum(tree.attrs[i][0] for i in counted
                if names[i] == "splitting.integrate_forward")
    out["splitting.gain_solves_per_step"] = _ratio(
        sum(1 for i in counted if names[i] == "riccati.gain_map" and forward[i] >= 0),
        steps)
    out["splitting.flow_expm_per_step"] = _ratio(
        sum(1 for i in counted
            if names[i] == "matfun.expm" and in_step[i] >= 0 and forward[i] >= 0
            and tree.attrs[i] != tree.attrs[forward[i]][1]),
        steps)

    # Oracle RHS evaluations outside the finest solve of each endpoint.
    endpoint = tree.nearest("bench.reference_endpoint")
    solve = tree.nearest("reference.rk4_solve")
    per_solve = defaultdict(int)
    for i in counted:
        if names[i] == "reference.rhs" and endpoint[i] >= 0:
            per_solve[(endpoint[i], solve[i])] += 1
    totals, finest = defaultdict(int), defaultdict(int)
    for (e, _), n in per_solve.items():
        totals[e] += n
        finest[e] = max(finest[e], n)
    out["reference.check_eval_share"] = _ratio(
        sum(totals.values()) - sum(finest.values()), sum(totals.values()))

    out["bench.rows_failed_share"] = _ratio(
        sum(1 for i in counted if names[i] == "bench.run_single" and i in tree.raised),
        calls["bench.run_single"])
    return out
