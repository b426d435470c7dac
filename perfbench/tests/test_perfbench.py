"""Tests of the benchmark itself: inputs, oracles, span arithmetic, binding
restoration and failure counting."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import spans
import splitlq
import splitlq.cli
import workloads

BENCH = Path(__file__).resolve().parent.parent
SEEDED = [cls() for cls in workloads.IN_PROCESS]


def _equal(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("workload", SEEDED, ids=lambda w: w.name)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _equal(workload.inputs(3, 0), workload.inputs(3, 0))
    assert not _equal(workload.inputs(3, 0), workload.inputs(4, 0))
    assert not _equal(workload.inputs(3, 0), workload.inputs(3, 1))


def test_cli_inputs_are_the_preset(tmp_path):
    w = workloads.CliSweepFig1(tmp_path)
    assert w.inputs(1, 0)["argv"] == w.inputs(2, 0)["argv"]


def _first_op(workload, seed=1):
    gate = oracles.make(workload.name)
    inputs = workload.inputs(seed, 0)
    expected = gate.expect(inputs)
    return gate, inputs, expected, workload.solve(workload.build(inputs))


@pytest.mark.parametrize("workload", SEEDED, ids=lambda w: w.name)
def test_oracle_agrees_with_splitlq(workload):
    gate, inputs, expected, result = _first_op(workload)
    assert gate.check(inputs, expected, result) == []


def test_gates_catch_a_changed_method():
    game = workloads.GameN32()
    gate, inputs, expected, _ = _first_op(game)
    prob = game.build(inputs)
    sp2 = splitlq.integrate_forward(prob, splitlq.backward_game(prob), game.steps,
                                    method="sp2")
    assert any("x(T)" in f for f in gate.check(inputs, expected, sp2))

    pollution = workloads.PollutionTV()
    gate, inputs, expected, _ = _first_op(pollution)
    prob = pollution.build(inputs)
    sp2 = splitlq.integrate_forward(prob, splitlq.bench.backward_pass(prob),
                                    pollution.steps, method="sp2")
    assert gate.check(inputs, expected, sp2)

    zs = workloads.ZeroSumFig1()
    gate, inputs, expected, _ = _first_op(zs)
    second_order = splitlq.solve_zero_sum(
        zs.build(inputs), steps_backward=workloads.ZS_STEPS_BACKWARD,
        steps_forward=workloads.ZS_STEPS_FORWARD, composition_alphas=(1.0,))
    assert gate.check(inputs, expected, second_order)


def _csv_with(text, row, column, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    cells[header.index(column)] = value
    lines[1 + row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_cli_gate_passes_the_cli_and_bounds_each_value(tmp_path):
    w = workloads.CliSweepFig1(tmp_path)
    gate = oracles.make(w.name)
    expected = gate.expect(None)
    first = w.solve(w.build(w.inputs(1, 0)))
    assert gate.check(None, expected, first) == []
    assert w.maxrss_mb and w.maxrss_mb[0] > 0

    text = first.csv.decode()
    x = float(text.splitlines()[5].split(",")[4])
    fresh = oracles.make(w.name)
    roundoff = workloads.CliResult(0, _csv_with(text, 4, "x_error", repr(x + 1e-13)), "")
    assert fresh.check(None, expected, roundoff) == []
    fresh = oracles.make(w.name)
    changed = workloads.CliResult(0, _csv_with(text, 4, "x_error", repr(x + 1e-9)), "")
    assert fresh.check(None, expected, changed)
    fresh = oracles.make(w.name)
    nan = workloads.CliResult(0, _csv_with(text, 4, "x_error", "nan"), "")
    assert any("NaN" in f for f in fresh.check(None, expected, nan))
    # After the first CSV of a run, any other bytes are a failure.
    assert any("first CSV" in f for f in gate.check(None, expected, roundoff))


def test_self_time_on_a_synthetic_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    root = rec.open(rec.name_id("root"))   # 0 .. 10
    a = rec.open(rec.name_id("a"))         # 1 .. 4
    rec.close(rec.open(rec.name_id("a1")))  # 2 .. 3
    rec.close(a)
    rec.close(rec.open(rec.name_id("b")))   # 5 .. 7
    rec.close(root)
    tree = spans.SpanTree.from_recorder(rec)
    assert tree.names == ["root", "a", "a1", "b"]
    assert tree.parent == [-1, 0, 1, 0]
    assert tree.self_times() == [10.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 2.0]
    assert tree.nearest("a") == [-1, 1, 1, -1]
    assert tree.above("a") == [-1, -1, 1, -1]

    # Overlapping and out-of-range children count once, clipped to the parent.
    overlap = spans.SpanTree(names=["p", "c1", "c2", "c3"], parent=[-1, 0, 0, 0],
                             start=[0.0, 1.0, 3.0, 8.0], end=[10.0, 4.0, 6.0, 12.0],
                             attrs={}, raised=set())
    assert overlap.self_times()[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_op_metrics_on_a_synthetic_tree():
    names = ["op", "splitting.integrate_forward", "splitting.step", "matfun.expm",
             "matfun.expm", "riccati.gain_map", "riccati.gain_map", "problem.build",
             "matfun.expm"]
    tree = spans.SpanTree(
        names=names, parent=[-1, 0, 1, 2, 2, 2, 1, 0, 7],
        start=[0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 6.0, 8.0, 8.0],
        end=[10.0, 7.0, 5.0, 3.0, 4.0, 5.0, 7.0, 9.0, 9.0],
        attrs={1: (2, 4), 3: 4, 4: 12, 8: 4}, raised=set())
    m = spans.op_metrics(tree)
    assert m["matfun.expm.calls"] == 2          # the one under problem.build is not
    assert m["matfun.expm.mean_dim"] == 8.0
    assert m["splitting.flow_expm_per_step"] == 0.5
    assert m["splitting.gain_solves_per_step"] == 1.0
    assert m["splitting.record.self_s"] == 6.0 - 3.0 - 1.0
    assert m["problem.build_s"] == 1.0
    assert set(m) | set(spans.RUN_LEVEL) == set(spans.METRICS)


def _bindings():
    def ids(namespace):
        return {k: id(v) for k, v in namespace.items()}

    mods = {name: ids(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "splitlq"}
    classes = {cls: ids(cls.__dict__) for cls in (
        splitlq.TimeMatrix, splitlq.GameProblem, splitlq.reference.FlatODE)}
    return mods, classes


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    res = run.measure_traced("zero-sum-fig1", 1, 0.01, tmp_path)
    assert _bindings() == before
    assert splitlq.splitting.expm is splitlq.matfun.expm
    assert splitlq.cli.build_pollution is splitlq.bench.build_pollution
    assert res["failed"] == 0 and res["samples"]["traced"] >= 1
    assert res["metrics"]["games.zs_base_step.calls"] > 0
    assert res["metrics"]["problem.build_s"] > 0


def test_bindings_restored_when_the_traced_call_raises():
    before = _bindings()
    original = splitlq.matfun.expm
    rec = spans.SpanRecorder()
    with pytest.raises(splitlq.InputError):
        with spans.traced(rec):
            assert splitlq.splitting.expm is not original
            assert splitlq.splitting.expm is splitlq.matfun.expm is splitlq.expm
            splitlq.expm(np.array([[np.nan]]))
    assert _bindings() == before
    assert rec.raised == {0}


def test_failed_fraction_counts_an_injected_failure(tmp_path, monkeypatch):
    check = oracles.ZeroSumGate.check
    calls = []

    def fail_second(self, inputs, expected, result):
        calls.append(1)
        return ["injected failure"] if len(calls) == 2 else check(self, inputs, expected, result)

    monkeypatch.setattr(oracles.ZeroSumGate, "check", fail_second)
    res = run.measure("zero-sum-fig1", 1, 0.5, tmp_path)
    assert res["failed"] == 1
    assert res["failed_fraction"] == 1 / res["attempted"]
    assert res["failures"][0] == (1, ["injected failure"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game-n32-sp4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(spans.METRICS)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    # Each workload's why states its gate tolerances.
    for w in spec["workloads"]:
        for key, tol in oracles.GATES[w["name"]].items():
            if isinstance(tol, float):
                assert f"{tol:g}" in w["why"], (w["name"], key)
