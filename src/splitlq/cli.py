"""Command-line interface.

Three subcommands:

* ``solve``  -- read a problem config file, run one method, write a CSV row.
* ``game``   -- the same for a built-in benchmark preset.
* ``sweep``  -- run a method x step-size sweep on a preset, write the CSV.

Every failure the library reports with a ``splitlq.errors`` type, and any
OS error, prints one ``error:`` line and exits with status 2.

The config file is INI-style key/value text with nested sections; time
functions are picked from the named catalog (constant, tanh-ramp):

    [problem]
    players = 2
    rho = 0.0
    horizon = 1.0
    x0 = 10.0

    [a]
    kind = tanh-ramp
    base = 2.0
    amplitude = 1.0
    rate = 5.0
    center = 0.5

    [b]
    kind = constant
    value = 1.0

    [costs]
    c = 5.5, 6.0
    d = 0.18181818, 0.16666667
"""

from __future__ import annotations

import argparse
import configparser
import sys

from .bench import (ADAPTIVE_METHODS, FIXED_STEP_METHODS, PollutionConfig, TimeFunction,
                    backward_pass, build_pollution, check_methods, emit_csv, preset,
                    reference_endpoint, run_single, run_sweep)
from .errors import (ConfigError, DimensionError, InputError, MisuseError,
                     SingularityError)
from .games import GameProblem, solve_zero_sum
from .problem import TimeMatrix

PRESETS = ("fig1", "fig2", "fig3a", "fig3b")


def _parse(raw, where, kind=float):
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} = {raw!r} is not {noun}") from None


def _value(path, section, key, default=None, kind=float):
    """``kind(section[key])``, or ``default`` when the key is absent; a missing
    required key or an unparsable value names the file, section and key."""
    where = f"{path}: [{section.name}] {key}"
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"{where} is missing")
        return default
    return _parse(raw, where, kind)


def _time_function_from_section(path, section):
    kind = section.get("kind", "constant")
    if kind == "constant":
        return TimeFunction.constant(_value(path, section, "value"))
    if kind == "tanh-ramp":
        return TimeFunction.tanh_ramp(
            base=_value(path, section, "base"),
            amplitude=_value(path, section, "amplitude", 1.0),
            rate=_value(path, section, "rate", 1.0),
            center=_value(path, section, "center", 0.0),
        )
    raise ConfigError(f"{path}: [{section.name}] unknown time function kind {kind!r}")


def load_config(path):
    """Parse a problem config file into a PollutionConfig.

    Every defect of the file (unreadable, unparsable, a missing or
    non-numeric entry) raises ConfigError naming the file and the key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())
        raise ConfigError(f"cannot parse config file {path!r}: {detail}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "problem" not in parser:
        raise ConfigError(f"{path}: needs a [problem] section")
    sec = parser["problem"]
    nplayers = _value(path, sec, "players", kind=int)
    if nplayers < 1:
        raise ConfigError(f"{path}: [problem] players must be a positive integer")

    def coefficient(name):
        if name not in parser:
            raise ConfigError(f"{path}: needs an [{name}] section")
        return _time_function_from_section(path, parser[name])

    def per_player(name):
        values = []
        if "costs" in parser and name in parser["costs"]:
            values = [TimeFunction.constant(_parse(v.strip(), f"{path}: [costs] {name}"))
                      for v in parser["costs"][name].split(",")]
        for i in range(1, nplayers + 1):
            key = f"{name}.{i}"
            if key in parser:
                if len(values) < i:
                    values.extend([None] * (i - len(values)))
                values[i - 1] = _time_function_from_section(path, parser[key])
        if len(values) != nplayers or any(v is None for v in values):
            raise ConfigError(f"{path}: need one {name} entry per player")
        return tuple(values)

    return PollutionConfig(
        N=nplayers,
        a=coefficient("a"),
        b=coefficient("b"),
        c=per_player("c"),
        d=per_player("d"),
        rho=_value(path, sec, "rho", 0.0),
        T=_value(path, sec, "horizon", 1.0),
        x0=_value(path, sec, "x0", 10.0),
    )


def _run_one(prob, method, steps, measure_time):
    check_methods(prob, (method,))
    flow0 = backward_pass(prob)
    resolution = 1e-8 if method == "dopri" else (prob.T - prob.t0) / steps
    return run_single(prob, flow0, method, resolution,
                      reference_endpoint(prob, flow0), measure_time=measure_time)


def _zero_sum_variant(prob, cross_weight):
    """Two-player zero-sum version of a pollution game: keep the first two
    players and attach constant cross weights R_12 = R_21."""
    if prob.nplayers < 2:
        raise ConfigError("--zero-sum needs at least two players")
    if cross_weight <= 0.0:
        raise ConfigError("--cross-weight must be positive")
    W = TimeMatrix.from_constant([[cross_weight]])
    return GameProblem(
        A=prob.A, B=prob.B[:2], R=prob.R[:2], Q=prob.Q[:2], QT=prob.QT[:2],
        x0=prob.x0, t0=prob.t0, T=prob.T,
        cross_R={(1, 2): W, (2, 1): W},
    )


def _run_zero_sum(prob, steps):
    traj = solve_zero_sum(prob, steps_backward=max(8, steps // 2),
                          steps_forward=steps)
    print(f"zero-sum x(T)={traj.terminal_state[0]:.12g} "
          f"evaluations={traj.evaluations} "
          f"terminal_gain_defect={traj.terminal_gain_defect:.6e} "
          f"min_gain_eig={traj.min_gain_eig:.6e} "
          f"symmetry_defect={traj.max_symmetry_defect:.6e}")


def _print_result(row):
    print(f"method={row.method} resolution={row.resolution:.6g} "
          f"evaluations={row.evaluations} x_error={row.x_error:.6e} "
          f"gain_defect={row.gain_defect:.6e} "
          f"positivity_violation={str(row.positivity_flag).lower()} "
          f"symmetry_defect={row.symmetry_defect:.6e}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="splitlq",
        description="LQ control and differential games via splitting integrators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    one_run = argparse.ArgumentParser(add_help=False)
    one_run.add_argument("--method", choices=FIXED_STEP_METHODS + ADAPTIVE_METHODS,
                         help="required unless --zero-sum, which does not use it")
    one_run.add_argument("--steps", type=int, default=64)
    one_run.add_argument("--output", help="CSV output path")
    one_run.add_argument("--time", action="store_true", help="measure wall clock")
    one_run.add_argument("--zero-sum", dest="zero_sum", action="store_true",
                         help="two-player zero-sum mode (coupled Riccati)")
    one_run.add_argument("--cross-weight", dest="cross_weight", type=float,
                         default=10.0, help="constant cross weights R_12 = R_21")
    p_solve = sub.add_parser("solve", parents=[one_run],
                             help="solve a problem from a config file")
    p_solve.add_argument("--problem", required=True, help="config file path")
    p_game = sub.add_parser("game", parents=[one_run], help="run a benchmark preset")
    p_game.add_argument("--preset", required=True, choices=PRESETS)

    p_sweep = sub.add_parser("sweep", help="method x resolution sweep")
    p_sweep.add_argument("--preset", required=True, choices=PRESETS)
    p_sweep.add_argument("--methods", required=True,
                         help="comma-separated method names")
    p_sweep.add_argument("--h-ladder", dest="h_ladder",
                         help="comma-separated step sizes")
    p_sweep.add_argument("--tol-exponent", dest="tol_exponent", type=int,
                         help="adaptive ladder AbsTol=10^-i for i=3..exponent")
    p_sweep.add_argument("--output", required=True, help="CSV output path")
    p_sweep.add_argument("--time", action="store_true", help="measure wall clock")

    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            prob = build_pollution(preset(args.preset))
            methods = tuple(m.strip() for m in args.methods.split(","))
            h_ladder = None
            if args.h_ladder is not None:
                h_ladder = tuple(_parse(v.strip(), "--h-ladder entry")
                                 for v in args.h_ladder.split(","))
            tol_ladder = None
            if args.tol_exponent is not None:
                if args.tol_exponent < 3:
                    raise ConfigError(
                        f"--tol-exponent must be >= 3, got {args.tol_exponent}")
                tol_ladder = tuple(10.0 ** (-i)
                                   for i in range(3, args.tol_exponent + 1))
            rows = run_sweep(prob, methods, h_ladder=h_ladder,
                             tol_ladder=tol_ladder, measure_time=args.time)
            emit_csv(rows, args.output)
            print(f"wrote {len(rows)} rows to {args.output}")
            return 0
        if args.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {args.steps}")
        if args.zero_sum and args.output:
            raise ConfigError("--output does not apply to --zero-sum, which writes no CSV row")
        if not args.zero_sum and args.method is None:
            raise ConfigError("--method is required unless --zero-sum is given")
        prob = build_pollution(load_config(args.problem) if args.command == "solve"
                               else preset(args.preset))
        if args.zero_sum:
            _run_zero_sum(_zero_sum_variant(prob, args.cross_weight), args.steps)
        else:
            row = _run_one(prob, args.method, args.steps, args.time)
            _print_result(row)
            if args.output:
                emit_csv([row], args.output)
    except (ConfigError, DimensionError, InputError, MisuseError,
            SingularityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
