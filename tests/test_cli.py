import math
import warnings

import pytest

from splitlq.cli import load_config, main
from splitlq.errors import ConfigError

CONFIG = """
[problem]
players = 2
rho = 0.1
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
d = 0.18181818181818182, 0.16666666666666666
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(CONFIG)
    return str(path)


def test_load_config(config_file):
    cfg = load_config(config_file)
    assert cfg.N == 2
    assert cfg.rho == 0.1
    assert cfg.a(0.5) == pytest.approx(2.0)
    assert cfg.b(0.3) == 1.0
    assert cfg.c[1](0.0) == 6.0
    assert cfg.d[0](0.0) == pytest.approx(1.0 / 5.5)


def test_load_config_per_player_function_sections(tmp_path):
    path = tmp_path / "p.ini"
    path.write_text("""
[problem]
players = 1
[a]
kind = constant
value = 1.0
[b]
kind = constant
value = 1.0
[c.1]
kind = tanh-ramp
base = 5.0
amplitude = 0.5
rate = 2.0
center = 0.0
[d.1]
kind = constant
value = 0.2
""")
    cfg = load_config(str(path))
    assert cfg.c[0](0.0) == pytest.approx(5.0)
    assert cfg.d[0](1.0) == 0.2


# CONFIG with one defect each, and a word the error must contain besides
# the file name.
BAD_CONFIGS = (
    (CONFIG.replace("players = 2", "players = two"), "players"),
    (CONFIG.replace("value = 1.0", "value = abc"), "value"),
    ("players = 2\n" + CONFIG, "no section headers"),
    (CONFIG + "[problem]\nplayers = 3\n", "'problem'"),
    (CONFIG.replace("value = 1.0", ""), "value"),
    (CONFIG.replace("base = 2.0", ""), "base"),
    (CONFIG.replace("c = 5.5, 6.0", "c = 5.5, six"), "[costs] c"),
)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\nplayers = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    for text, key in BAD_CONFIGS:
        bad.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(str(bad))
        assert str(bad) in str(err.value) and key in str(err.value), key


def test_bad_config_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BAD_CONFIGS[2][0])  # no section header
    assert main(["solve", "--problem", str(path), "--method", "sp4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err


def test_overflowing_horizon_is_one_error_line(tmp_path, capsys):
    # constant data: the backward pass is one exponential of (t0 - T) K,
    # whose product overflows; only the error may reach stderr
    path = tmp_path / "long.ini"
    path.write_text(CONFIG.replace("horizon = 1.0", "horizon = 1e308")
                    .replace("rho = 0.1", "rho = 0.0")
                    .replace("kind = tanh-ramp\nbase = 2.0\namplitude = 1.0\nrate = 5.0\n"
                             "center = 0.5", "kind = constant\nvalue = 2.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code = main(["solve", "--problem", str(path), "--method", "sp4", "--steps", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: matrix contains non-finite entries\n"


@pytest.mark.parametrize("drift, horizon, t", [
    ("kind = constant\nvalue = 2.0", "1e200", "0.0"),
    ("kind = tanh-ramp\nbase = 2.0\namplitude = 1.0\nrate = 5.0\ncenter = 0.5", "1e308",
     "9.375e+307"),
], ids=["constant", "tanh-ramp"])
def test_overflowing_flow_is_one_error_line(tmp_path, capsys, drift, horizon, t):
    # a finite exponent whose exponential overflows (squarings of expm, the
    # actions on y, and for the ramp its argument rate (t - center)); U's
    # condition check then fails, and only its error may reach stderr
    path = tmp_path / "long.ini"
    path.write_text(CONFIG.replace("horizon = 1.0", f"horizon = {horizon}")
                    .replace("rho = 0.1", "rho = 0.0")
                    .replace("kind = tanh-ramp\nbase = 2.0\namplitude = 1.0\nrate = 5.0\n"
                             "center = 0.5", drift))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code = main(["solve", "--problem", str(path), "--method", "sp4", "--steps", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: U(t) numerically singular at t = {t} ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, steps", [
    (["game", "--preset", "fig3a", "--method", "sp4", "--steps", str(10**20)], 10**20),
    (["sweep", "--preset", "fig1", "--methods", "sp4", "--h-ladder", "1e-300"],
     round(1.0 / 1e-300)),
], ids=["game-steps", "sweep-h"])
def test_huge_step_count_is_one_error_line(tmp_path, capsys, argv, steps):
    # counts whose trajectory arrays numpy refuses before allocating anything
    if argv[0] == "sweep":
        argv = argv + ["--output", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot record {steps} steps: ") and err.count("\n") == 1


def test_solve_command(config_file, tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(["solve", "--problem", config_file, "--method", "sp4",
                 "--steps", "16", "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "method=sp4" in printed
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2


def test_game_command(capsys):
    code = main(["game", "--preset", "fig1", "--method", "sp2", "--steps", "8"])
    assert code == 0
    assert "method=sp2" in capsys.readouterr().out


def test_sweep_command_deterministic(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sweep", "--preset", "fig1", "--methods", "sp2,rk4",
            "--h-ladder", "0.25,0.125"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 5  # header + 2 methods x 2 resolutions


def test_game_zero_sum_mode(capsys):
    code = main(["game", "--preset", "fig1", "--method", "s2c4", "--steps",
                 "16", "--zero-sum", "--cross-weight", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "zero-sum" in out and "terminal_gain_defect" in out


def test_zero_sum_mode_needs_no_method(capsys):
    code = main(["game", "--preset", "fig1", "--steps", "16", "--zero-sum",
                 "--cross-weight", "20"])
    assert code == 0
    assert "zero-sum" in capsys.readouterr().out


def test_solve_zero_sum_from_config(config_file, capsys):
    code = main(["solve", "--problem", config_file, "--method", "s2c4",
                 "--steps", "8", "--zero-sum"])
    assert code == 0
    assert "zero-sum" in capsys.readouterr().out


def test_zero_sum_escape_is_one_error_line(tmp_path, capsys):
    # drift a = -20: the zero-sum Riccati solution escapes near t = 0.56
    path = tmp_path / "escape.ini"
    path.write_text("[problem]\nplayers = 2\n[a]\nvalue = -20.0\n"
                    "[b]\nvalue = 1.0\n[costs]\nc = 5.5, 6.0\nd = 0.18, 0.17\n")
    assert main(["solve", "--problem", str(path), "--method", "s2c4",
                 "--zero-sum"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "non-finite P1" in err


@pytest.mark.parametrize("argv", [
    # a near-integrable scheme on a drift that varies in time (MisuseError)
    ["game", "--preset", "fig3a", "--method", "ni84", "--steps", "8"],
    # a step count that leaves no step to take
    ["game", "--preset", "fig1", "--method", "sp4", "--steps", "0"],
    # the zero-sum mode writes no CSV row
    ["game", "--preset", "fig1", "--method", "sp4", "--zero-sum",
     "--output", "x.csv"],
    # only the zero-sum mode runs without a method
    ["game", "--preset", "fig1", "--steps", "16"],
], ids=["ni84-time-dependent-drift", "zero-steps", "zero-sum-output", "missing-method"])
def test_game_failure_is_one_error_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_reference_refusal_names_its_step_count_and_drift(tmp_path, capsys):
    # A drift ramp 400x steeper than fig3a's: the reference refuses at its
    # CF4 cap.  The game subcommand only takes presets, which the reference
    # accepts; solve runs the same backward pass and reference.
    path = tmp_path / "steep.ini"
    path.write_text(CONFIG.replace("rate = 5.0", "rate = 2000.0"))
    assert main(["solve", "--problem", str(path), "--method", "sp4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: reference self-consistency failure at 2048 CF4 "
                          "steps: endpoints differ by ")
    assert err.count("\n") == 1


def test_sweep_rejects_unknown_method(tmp_path, capsys):
    code = main(["sweep", "--preset", "fig1", "--methods", "sp3",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_coarse_time_dependent_game_succeeds(capsys):
    # the reference endpoint does not depend on the caller's step count
    assert main(["game", "--preset", "fig3a", "--method", "sp4",
                 "--steps", "4"]) == 0
    assert "method=sp4" in capsys.readouterr().out


def test_coarse_time_dependent_sweep_succeeds(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--preset", "fig3a", "--methods", "sp2",
                 "--h-ladder", "0.25", "--output", str(out)]) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert math.isfinite(float(row[4]))  # x_error


def test_sweep_fails_on_inapplicable_method(tmp_path, capsys):
    # ni84 needs a constant drift; the sweep stops instead of writing a NaN row
    out = tmp_path / "x.csv"
    code = main(["sweep", "--preset", "fig3a", "--methods", "ni84,sp2",
                 "--h-ladder", "0.125", "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "constant A" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["game", "--preset", "fig3a", "--method", "ni84", "--steps", "8"],
    ["sweep", "--preset", "fig3a", "--methods", "sp2,ni42", "--h-ladder", "0.25"],
], ids=["game", "sweep"])
def test_inapplicable_method_fails_before_backward_pass(argv, monkeypatch, capsys,
                                                        tmp_path):
    if argv[0] == "sweep":
        argv = argv + ["--output", str(tmp_path / "x.csv")]

    def no_backward_pass(prob):
        raise AssertionError("backward pass ran before the method check")

    monkeypatch.setattr("splitlq.cli.backward_pass", no_backward_pass)
    monkeypatch.setattr("splitlq.bench.backward_pass", no_backward_pass)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "constant A" in err


@pytest.mark.parametrize("extra", [
    ["--methods", "sp4", "--h-ladder", "0.25,abc"],
    ["--methods", "sp4", "--h-ladder", "0"],
    ["--methods", "sp4", "--h-ladder", "nan"],
    ["--methods", "sp4", "--h-ladder", "-0.25"],
    ["--methods", "sp4,dopri", "--tol-exponent", "2"],
    ["--methods", "dopri", "--tol-exponent", "0"],
], ids=["unparsable", "zero", "nan", "negative", "empty-tol-ladder",
        "tol-exponent-zero"])
def test_sweep_rejects_bad_ladder(extra, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--preset", "fig1", *extra, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()
