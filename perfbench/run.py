"""The splitlq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --out r.json

Each workload is a closed loop in this one process: one op at a time, the
next op only after the previous one has finished and been checked against
an oracle that does not use splitlq's integrators (``oracles.py``).  Op k
gets its own problem, generated from (seed, k); op 0 is the untimed warm-up.
BLAS runs single-threaded (fixed below, before numpy loads).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of ``spans.py`` (medians over the traced ops) plus
``trace.overhead_ratio``; the spans are written to ``.perfbench_out/``.

Output: human-readable lines (the environment stamp first), then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.  ``--out`` also writes the full result with the stamp as JSON.
Exit status: 0 when every op passed its gate, 1 when some op failed,
2 when no result could be produced (splitlq missing, an oracle failing).
"""

import os

BLAS_THREADS = 1
if __name__ == "__main__":  # before numpy loads; children inherit it
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("game-n32-sp4", "pollution-tv-sp4", "cli-sweep-fig1", "zero-sum-fig1")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {"solve_rel_p50": "s/s", "setup_s": "s", "peak_mem_mb": "MB"}

# The calibration kernel: fixed small-matrix numpy work of the kind splitlq
# does (assembling 4x4 block matrices, scaling-and-squaring exponentials,
# small solves), written here without splitlq.  It runs before the first
# timed op and after each one.  On a shared machine whose speed drifts by
# tens of percent over minutes, the ratio of op time to kernel time is
# steady where the op time is not.
_CAL_BLOCKS = [0.3 * A for A in np.random.default_rng(1).standard_normal((40, 2, 2))]
_CAL_SYSTEMS = [A + 4.0 * np.eye(4) for A in
                np.random.default_rng(0).standard_normal((50, 4, 4))]
_CAL_REPEATS = 12


def _cal_exp(M):
    """Scaling and squaring around a (2, 2)-term rational kernel."""
    squarings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(M, 1), 1e-300) / 0.5))))
    X = M / 2.0 ** squarings
    X2 = X @ X
    eye = np.eye(M.shape[0])
    even = eye + 0.1 * X2
    odd = X @ (0.5 * eye + X2 / 120.0)
    F = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        F = F @ F
    return F


def calibration_seconds():
    """Wall time of one run of the calibration kernel (about 20 ms)."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(_CAL_REPEATS):
        for A in _CAL_BLOCKS:
            K = np.zeros((4, 4))
            K[:2, :2] = A
            K[2:, 2:] = -A.T
            K[:2, 2:] = np.eye(2)
            F = _cal_exp(K)
            acc += float(np.max(np.abs(F - F.T)))
        for A in _CAL_SYSTEMS:
            acc += float(np.linalg.solve(A, A[0])[0])
    return time.perf_counter() - start


class Fatal(RuntimeError):
    """No result can be produced."""


def percentile(values, q):
    """Linear-interpolated percentile; failed ops enter as +inf."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if xs[lo] == xs[hi]:
        return xs[lo]
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def layer_unit(metric):
    if metric.endswith((".calls", "rhs_evals")):
        return "count"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("per_step"):
        return "1/step"
    if metric.endswith("mean_dim"):
        return "rows"
    return "1"


class Run:
    """One workload's run: its ops, their times and their gate results."""

    def __init__(self, name, seed, workdir):
        import oracles
        import workloads
        self.name, self.seed = name, seed
        self.workload = workloads.make(name, workdir)
        self.gate = oracles.make(name)
        self.attempted = 0
        self.failures = []

    def op(self, k, build=None, solve=None):
        """Run and check op k; return its time, +inf when it failed."""
        w = self.workload
        build, solve = build or w.build, solve or w.solve
        inputs = w.inputs(self.seed, k)
        expected = self.gate.expect(inputs)
        self.attempted += 1
        try:
            problem = build(inputs)
            start = time.perf_counter()
            result = solve(problem)
            elapsed = time.perf_counter() - start
            fails = self.gate.check(inputs, expected, result)
        except Exception as exc:  # the program failing is a failed op
            fails = [f"{type(exc).__name__}: {exc}"]
        if fails:
            self.failures.append((k, fails))
            print(f"{self.name}: op {k} FAILED: {'; '.join(fails)}", file=sys.stderr)
            return math.inf
        return elapsed

    @property
    def failed(self):
        return len(self.failures)

    def loop(self, seconds, step=None, min_ops=1):
        """Closed loop over ops 1, 2, ... for ``seconds`` of wall time,
        checks included, and at least ``min_ops`` ops.  ``step(k)`` runs
        op k and returns its time."""
        step = step or self.op
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < min_ops or time.perf_counter() < deadline:
            times.append(step(len(times) + 1))
        return times


def probe_setup(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise Fatal(f"set-up probe for {name} exited {proc.returncode}: "
                    f"{proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(name, seed, seconds, workdir):
    """End-to-end metrics of one workload, tracing off."""
    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    run = Run(name, seed, workdir)
    run.op(0)
    cals = [calibration_seconds()]

    def step(k):
        elapsed = run.op(k)
        cals.append(calibration_seconds())
        return elapsed

    times = run.loop(seconds, step=step)
    # Each op against the mean of the kernel runs just before and after it.
    ratios = [t / (0.5 * (a + b)) for t, a, b in zip(times, cals, cals[1:])]
    result = {
        "samples": len(times),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_fraction": run.failed / run.attempted,
        "solve_s_p50": percentile(times, 50),
        "solve_rel_p50": percentile(ratios, 50),
        "setup_s": statistics.median(setups),
        "setup_probes": setups,
    }
    if len(times) >= P90_MIN_SAMPLES:
        result["solve_s_p90"] = percentile(times, 90)
    result["peak_mem_mb"] = peak_memory(run)
    result["failures"] = run.failures[:20]
    return result


def peak_memory(run):
    """tracemalloc peak of one more (untimed) op in MB; for the CLI, the
    median peak RSS of its child processes."""
    if run.name == "cli-sweep-fig1":
        return statistics.median(run.workload.maxrss_mb)
    peaks = []

    def solve(problem):
        tracemalloc.start()
        try:
            return run.workload.solve(problem)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    run.op(0, solve=solve)
    return peaks[0] / 1e6


def measure_traced(name, seed, seconds, workdir):
    """Per-layer metrics: untraced and traced ops alternate, so that the
    overhead ratio compares ops run under the same conditions."""
    import spans
    run = Run(name, seed, workdir)
    w = run.workload
    in_process = getattr(w, "solve_in_process", w.solve)
    rec = spans.SpanRecorder()
    build, solve = rec.wrap("problem.build", w.build), rec.wrap("op", in_process)
    ranges, plain, traced = [], [], []

    def step(k):
        if k % 2:
            plain.append(run.op(k, solve=in_process))
            return plain[-1]
        lo = len(rec)
        with spans.traced(rec):
            traced.append(run.op(k, build=build, solve=solve))
        ranges.append((lo, len(rec)))
        return traced[-1]

    run.op(0, solve=in_process)
    run.loop(seconds, step=step, min_ops=2)
    per_op = [spans.op_metrics(spans.SpanTree.from_recorder(rec, lo, hi))
              for lo, hi in ranges]
    metrics = {m: statistics.median(op[m] for op in per_op) for m in per_op[0]}
    metrics["cli.import_s"] = (
        statistics.median(probe_setup(name, seed) for _ in range(SETUP_PROBES))
        if name == "cli-sweep-fig1" else 0.0)
    metrics["trace.overhead_ratio"] = (percentile(traced, 50) / percentile(plain, 50))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
    rec.write(spans_path)
    return {
        "samples": {"untraced": len(plain), "traced": len(traced)},
        "attempted": run.attempted, "failed": run.failed,
        "failed_fraction": run.failed / run.attempted,
        "metrics": {m: metrics[m] for m in spans.METRICS},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(rec),
        "failures": run.failures[:20],
    }


def report(name, res, trace):
    if trace:
        print(f"{name}: {res['samples']['traced']} traced and "
              f"{res['samples']['untraced']} untraced ops, {res['spans']} spans "
              f"written to {res['spans_file']}")
        for metric, value in res["metrics"].items():
            print(f"{name}: {metric} = {value:.6g} {layer_unit(metric)}")
    else:
        n = res["samples"]
        print(f"{name}: solve_s_p50 = {res['solve_s_p50']:.6g} s (median of {n} timed ops)")
        if "solve_s_p90" in res:
            print(f"{name}: solve_s_p90 = {res['solve_s_p90']:.6g} s "
                  f"(90th percentile of {n} timed ops)")
        print(f"{name}: solve_rel_p50 = {res['solve_rel_p50']:.6g} s/s (median over "
              f"{n} timed ops of op time / calibration-kernel time)")
        print(f"{name}: setup_s = {res['setup_s']:.6g} s "
              f"(median of {SETUP_PROBES} fresh processes)")
        print(f"{name}: peak_mem_mb = {res['peak_mem_mb']:.6g} MB")
    print(f"{name}: failed_fraction = {res['failed_fraction']:.6g} "
          f"({res['failed']} of {res['attempted']} ops failed)")


def metrics_of(res, trace):
    if trace:
        return {m: {"value": v, "unit": layer_unit(m)} for m, v in res["metrics"].items()}
    return {m: {"value": res[m], "unit": u} for m, u in END_TO_END_UNITS.items()}


def json_number(value):
    return value if math.isfinite(value) else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # One CPU for this process and its children, so that the calibration
    # kernel and the ops, CLI children included, run on the same core.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "splitlq" / "__init__.py").is_file():
        print(f"error: no splitlq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import envstamp
    import oracles
    import splitlq
    if Path(splitlq.__file__).resolve().parent != SRC / "splitlq":
        print(f"error: imported splitlq from {splitlq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = envstamp.stamp(ROOT, seed=args.seed, workload=args.workload,
                         seconds=args.seconds, trace=args.trace,
                         blas_threads_requested=BLAS_THREADS)
    print("env " + json.dumps(env, sort_keys=True))
    names = NAMES if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    results = {}
    try:
        for name in names:
            measure_fn = measure_traced if args.trace else measure
            results[name] = measure_fn(name, args.seed, args.seconds, workdir)
            report(name, results[name], args.trace)
    except (Fatal, oracles.GateUnavailable, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = metrics_of(results[names[0]], args.trace)
    else:
        metrics = {f"{name}/{m}": v for name in names
                   for m, v in metrics_of(results[name], args.trace).items()}
    for entry in metrics.values():
        entry["value"] = json_number(entry["value"])
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "results": results}, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
