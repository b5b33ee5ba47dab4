import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fracfp
import fracfp.cli
import fracfp.evolution
import fracfp.operators
import fracfp.rates

from fracfp.cli import (
    SUITES,
    ConfigError,
    ScenarioConfig,
    main,
    parse_config,
    run_scenario,
    validate_config,
)
from fracfp.grid import CheckFailure, Field, build_grid
from fracfp.operators import OperatorConfig


def write_cfg(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_parse_minimal_defaults(tmp_path):
    p = write_cfg(tmp_path, "name = tiny\nd = 1\nalpha = 1.0\ngamma = 2.0\n")
    cfg = parse_config(p)
    assert cfg.L == 20.0
    assert cfg.n == 1024
    assert cfg.k == 0.5
    assert cfg.suite == "all"


def test_parse_json_document(tmp_path):
    doc = {"name": "j", "alpha": 0.8, "gamma": 1.5, "n": 256, "suite": "evolve"}
    p = write_cfg(tmp_path, json.dumps(doc), "scenario.json")
    cfg = parse_config(p)
    assert cfg.alpha == 0.8
    assert cfg.suite == "evolve"


# one value per field type: int, float, str and float | None (three spellings of None)
GRAMMAR_CASES = [
    {"name": "g", "d": 2, "n": 16, "alpha": 0.75, "L": 8, "drift": "centered", "dt": "auto"},
    {"name": "g", "seed": 7, "horizon": 2.5, "k_bar": "none", "suite": "evolve"},
    {"name": "g", "n": 64, "p": 1.25, "k": 0.25, "dt": 0.01, "k_bar": None},
]


@pytest.mark.parametrize("values", GRAMMAR_CASES)
def test_both_config_formats_share_one_grammar(tmp_path, values):
    lines = "".join(f"{key} = {'null' if v is None else v}\n" for key, v in values.items())
    from_lines = parse_config(write_cfg(tmp_path, lines))
    from_json = parse_config(write_cfg(tmp_path, json.dumps(values), "scenario.json"))
    assert from_lines == from_json
    assert from_json.name == "g" and type(from_json.alpha) is float


@pytest.mark.parametrize("key, value", [("d", 1.7), ("seed", 2.5), ("n", 64.0), ("alpha", True)])
def test_json_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, key, value):
    # JSON numbers for int keys must be integers, as in key = value lines
    doc = {"name": "j", "d": 1, "L": 10, "n": 64, "suite": "evolve", "horizon": 0.5, key: value}
    p = write_cfg(tmp_path, json.dumps(doc), "scenario.json")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot parse value for {key!r}: ")
    assert not (tmp_path / "o").exists()


def test_repeated_json_key_is_a_config_error(tmp_path, capsys):
    # json.loads alone would keep the later value
    p = write_cfg(tmp_path, '{"name": "r", "d": 1, "n": 64, "alpha": 1, "alpha": 1.5}', "scenario.json")
    with pytest.raises(ConfigError, match="repeated config key 'alpha'"):
        parse_config(p)
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: repeated config key 'alpha'")
    assert not (tmp_path / "o").exists()


def test_parse_comments_and_blank_lines(tmp_path):
    p = write_cfg(tmp_path, "# heading\n\nname = c  # trailing\nalpha = 1.2\n")
    cfg = parse_config(p)
    assert cfg.name == "c"
    assert cfg.alpha == 1.2


def test_unknown_key_is_hard_error(tmp_path):
    p = write_cfg(tmp_path, "name = bad\nnonsense = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(p)


def test_parse_error_reports_line(tmp_path, capsys):
    p = write_cfg(tmp_path, "name = ok\nalpha == 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(p)
    # a line without "=", and JSON that does not parse: exit 2 through main
    for text, name, err in [
        ("name = ok\nalpha 1\n", "scenario.cfg", "expected key = value on line 2: 'alpha 1'"),
        ('{"name": "ok",\n "alpha": 1,}', "scenario.json", "invalid JSON in "),
    ]:
        q = write_cfg(tmp_path, text, name)
        assert main(["run", str(q), "--out", str(tmp_path / "o")]) == 2
        msg = capsys.readouterr().err
        assert msg.startswith(f"config error: {err}") and "line 2" in msg
    assert not (tmp_path / "o").exists()


def test_rejects_p_above_threshold(tmp_path):
    # gamma=3, k=0.5, d=1: threshold 4/3 < 2
    p = write_cfg(tmp_path, "name = t\ngamma = 3\nk = 0.5\np = 2\n")
    with pytest.raises(ConfigError, match="p_gamma"):
        parse_config(p)


def test_rejects_k_outside_range(tmp_path, capsys):
    p = write_cfg(tmp_path, "name = t\nalpha = 1\nk = 1.2\n")
    with pytest.raises(ConfigError, match=r"min\(alpha,1\)"):
        parse_config(p)
    # k_bar must lie in (k, min(alpha, 1)): at either end it is a config error
    for k_bar in (0.5, 1.0):
        q = write_cfg(tmp_path, f"name = t\nalpha = 1\nk = 0.5\nk_bar = {k_bar}\n")
        assert main(["run", str(q), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: k_bar must lie in (k, min(alpha,1)), got {k_bar}\n")
    assert not (tmp_path / "o").exists()


def test_rejects_weak_confinement_for_steady(tmp_path):
    p = write_cfg(tmp_path, "name = t\nalpha = 0.5\ngamma = 1.2\nsuite = steady\nk = 0.3\n")
    with pytest.raises(ConfigError, match="2 - alpha"):
        parse_config(p)


def test_evolve_suite_allows_weak_confinement(tmp_path):
    p = write_cfg(tmp_path, "name = t\nalpha = 0.5\ngamma = 1.2\nsuite = evolve\nk = 0.3\nn = 256\nL = 10\nhorizon = 0.5\n")
    cfg = parse_config(p)
    assert cfg.suite == "evolve"


@pytest.fixture(scope="module")
def tiny_cfg_text():
    return (
        "name = tiny\nd = 1\nL = 15\nn = 256\nalpha = 1.0\ngamma = 2.0\n"
        "suite = steady\n"
    )


def test_run_scenario_outputs(tmp_path, tiny_cfg_text):
    p = write_cfg(tmp_path, tiny_cfg_text)
    cfg = parse_config(p)
    rep = run_scenario(cfg, tmp_path / "out")
    assert rep.overall_pass
    steady_csv = (tmp_path / "out" / "steady.csv").read_text().splitlines()
    assert steady_csv[0] == "x,F"
    assert len(steady_csv) == 1 + 256  # header + one row per node
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert report[-1] == "PASS"
    monitors = (tmp_path / "out" / "monitors.csv").read_text().splitlines()
    assert monitors[0] == "t,mass,min,L1m,L2m,Linfm,entropy"
    assert len(monitors) == 1  # steady suite records no trajectory


def test_run_deterministic_outputs(tmp_path, tiny_cfg_text):
    p = write_cfg(tmp_path, tiny_cfg_text)
    cfg1 = parse_config(p)
    run_scenario(cfg1, tmp_path / "o1")
    cfg2 = parse_config(p)
    run_scenario(cfg2, tmp_path / "o2")
    for fname in ("steady.csv", "rates.csv", "monitors.csv"):
        b1 = (tmp_path / "o1" / fname).read_bytes()
        b2 = (tmp_path / "o2" / fname).read_bytes()
        assert b1 == b2


def test_main_exit_codes(tmp_path, tiny_cfg_text, capsys):
    p = write_cfg(tmp_path, tiny_cfg_text)
    code = main(["run", str(p), "--out", str(tmp_path / "cli_out")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
    bad = write_cfg(tmp_path, "name = bad\nk = 5\n", "bad.cfg")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert main([]) == 2
    # usage errors: no config, and the removed --batch option
    for argv in (["run"], ["run", str(p), "--batch", str(tmp_path / "*.cfg")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_a_horizon_below_a_step_passes(tmp_path):
    # horizon 1e-12 makes one step of the evolve suite, and its records pass
    p = write_cfg(tmp_path, "name = short\nd = 1\nL = 10\nn = 64\nalpha = 1.0\ngamma = 2.0\n"
                            "suite = evolve\nhorizon = 1e-12\n")
    assert main(["run", str(p), "--out", str(tmp_path / "short")]) == 0
    monitors = (tmp_path / "short" / "monitors.csv").read_text().splitlines()
    assert len(monitors) == 3  # the header, step 0 and the one step


def test_main_suite_override(tmp_path):
    p = write_cfg(
        tmp_path,
        "name = ev\nd = 1\nL = 10\nn = 256\nalpha = 1.0\ngamma = 2.0\n"
        "suite = steady\nhorizon = 0.5\n",
    )
    code = main(["run", str(p), "--suite", "evolve", "--out", str(tmp_path / "ev_out")])
    assert code == 0
    monitors = (tmp_path / "ev_out" / "monitors.csv").read_text().splitlines()
    assert len(monitors) > 50  # one row per step


def test_batch_mode(tmp_path):
    for i, gamma in enumerate((2.0, 2.5)):
        write_cfg(
            tmp_path,
            f"name = b{i}\nd = 1\nL = 10\nn = 256\nalpha = 1.0\ngamma = {gamma}\n"
            "suite = evolve\nhorizon = 0.5\np = 1.2\n",
            f"b{i}.cfg",
        )
    paths = [str(tmp_path / f) for f in ("b0.cfg", "b1.cfg")]
    code = main(["run", *paths, "--out", str(tmp_path / "batch")])
    assert code == 0
    assert (tmp_path / "batch" / "b0" / "report.txt").exists()
    assert (tmp_path / "batch" / "b1" / "report.txt").exists()


def test_batch_reports_past_a_failing_config(tmp_path, capsys):
    body = "d = 1\nL = 10\nn = 64\nalpha = 1.0\ngamma = 2.0\nsuite = evolve\nhorizon = 0.5\n"
    write_cfg(tmp_path, "name = a_ok\n" + body, "a_ok.cfg")
    # dt = 10 breaks the drift CFL bound: a config error of its own config
    write_cfg(tmp_path, "name = b_bad\ndt = 10\n" + body, "b_bad.cfg")
    paths = [str(tmp_path / f) for f in ("a_ok.cfg", "b_bad.cfg")]
    code = main(["run", *paths, "--out", str(tmp_path / "batch")])
    assert code == 2
    out = capsys.readouterr().out.splitlines()
    assert f"{tmp_path / 'a_ok.cfg'}: PASS" in out
    bad = next(line for line in out if line.startswith(f"{tmp_path / 'b_bad.cfg'}: "))
    assert bad.startswith(f"{tmp_path / 'b_bad.cfg'}: ERROR ConfigError: ")
    assert "CFL" in bad
    assert (tmp_path / "batch" / "a_ok" / "report.txt").exists()


BATCH_BODY = "d = 1\nL = 10\nn = 64\nalpha = 1.0\ngamma = 2.0\nsuite = evolve\nhorizon = 0.5\n"


@pytest.mark.parametrize("line,match", [
    ("method = foo", "unknown method"),
    ("drift = sideways", "unknown drift"),
    ("splitting = yoshida", "unknown config key 'splitting'"),
    ("diffusion_solver = cg", "unknown diffusion solver"),
    ("cfl = 2", "unknown config key 'cfl'"),
    ("out = elsewhere", "unknown config key 'out'"),
    # BATCH_BODY sets alpha on line 6: the first value does not silently lose
    ("alpha = 1.5", "repeated config key 'alpha' on lines 2 and 6"),
    ("dt = 5", "CFL"),
    ("dt = -0.01", "CFL"),
    # a name is one path component: a batch writes into <out>/<name>
    ("name = ../escaped", "one path component"),
    ("name = /tmp/escaped", "one path component"),
    ("name = sub/dir", "one path component"),
    ("name = ..", "one path component"),
    ("name = .", "one path component"),
    ("name =", "one path component"),
    ("name = tab\tbed", "one path component"),
])
def test_scheme_and_operator_keys_are_config_errors(tmp_path, capsys, line, match):
    # a key is set once: a name case takes the place of the name line
    head = "" if line.startswith("name") else "name = v\n"
    p = write_cfg(tmp_path, f"{head}{line}\n" + BATCH_BODY)
    with pytest.raises(ConfigError, match=match):
        parse_config(p)
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line,suite", [("horizon = 0", "evolve"), ("seed = -1", "inequalities"),
                                        ("p = 1", "inequalities"), ("p = 0.5", "inequalities"),
                                        ("horizon = inf", "evolve"), ("L = inf", "evolve")])
def test_horizon_and_seed_are_config_errors(tmp_path, capsys, line, suite):
    # no L line: the "L = inf" case sets L once (a repeated key is an error of its own)
    p = write_cfg(tmp_path, f"name = v\nd = 1\nn = 64\nsuite = {suite}\n{line}\n")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {line.split()[0]} = ")


def test_suite_override_is_validated_once(tmp_path, capsys):
    # the file's steady suite needs gamma > 2 - alpha; the evolve suite it is
    # overridden with allows weak confinement
    p = write_cfg(tmp_path, "name = weak\nd = 1\nn = 64\nalpha = 0.5\ngamma = 1.2\nk = 0.3\n"
                            "suite = steady\n")
    with pytest.raises(ConfigError, match="2 - alpha"):
        parse_config(p)
    assert main(["run", str(p), "--suite", "evolve", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_batch_reports_past_an_unknown_key(tmp_path, capsys):
    write_cfg(tmp_path, "name = a_ok\n" + BATCH_BODY, "a_ok.cfg")
    write_cfg(tmp_path, "name = b_bad\nnonsense = 3\n" + BATCH_BODY, "b_bad.cfg")
    (tmp_path / "c_dir.cfg").mkdir()  # a directory: unreadable
    paths = [str(tmp_path / f) for f in ("a_ok.cfg", "b_bad.cfg", "c_dir.cfg")]
    code = main(["run", *paths, "--out", str(tmp_path / "batch")])
    assert code == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{tmp_path / 'a_ok.cfg'}: PASS"
    assert out[1].startswith(f"{tmp_path / 'b_bad.cfg'}: ERROR ConfigError: unknown config key")
    assert out[2].startswith(f"{tmp_path / 'c_dir.cfg'}: ERROR IsADirectoryError: ")
    assert main(["run", str(tmp_path / "c_dir.cfg")]) == 2
    assert (tmp_path / "batch" / "a_ok" / "report.txt").exists()


def test_batch_names_stay_inside_the_batch_directory(tmp_path, capsys):
    # a repeated name, a name with a newline (it would add a record line to
    # report.txt) and a relative path are config errors; the batch goes on
    write_cfg(tmp_path, "name = same\n" + BATCH_BODY, "a.cfg")
    write_cfg(tmp_path, "name = same\n" + BATCH_BODY, "b.cfg")
    doc = {"name": "x\nmass-conservation: measured=0 predicted=- tol=1 -> pass", "d": 1,
           "L": 10, "n": 64, "suite": "evolve", "horizon": 0.5}
    write_cfg(tmp_path, json.dumps(doc), "c.cfg")
    write_cfg(tmp_path, "name = ../escaped\n" + BATCH_BODY, "d.cfg")
    paths = [str(tmp_path / f) for f in ("a.cfg", "b.cfg", "c.cfg", "d.cfg")]
    code = main(["run", *paths, "--out", str(tmp_path / "b")])
    assert code == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{tmp_path / 'a.cfg'}: PASS"
    assert out[1] == (f"{tmp_path / 'b.cfg'}: ERROR ConfigError: name = 'same' repeats an "
                      "earlier config's: a batch writes each config into <out>/<name>")
    assert out[2].startswith(f"{tmp_path / 'c.cfg'}: ERROR ConfigError: name = 'x\\n")
    assert out[3].startswith(f"{tmp_path / 'd.cfg'}: ERROR ConfigError: name = '../escaped'")
    assert len(out) == 4
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["same"]
    assert not (tmp_path / "escaped").exists()


def test_crash_exits_3(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    p = write_cfg(tmp_path, "name = c\n" + BATCH_BODY, "c.cfg")
    # outputs that cannot be written are a crash: here --out is a file
    (tmp_path / "file").write_text("")
    assert main(["run", str(p), "--out", str(tmp_path / "file")]) == 3
    err = capsys.readouterr().err
    assert f"OSError: cannot write outputs under {tmp_path / 'file'}: [Errno 17] File exists" in err
    monkeypatch.setattr(fracfp.cli, "evolve", crash)
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
    # a batch exits with its largest code: a crash (3) over a config error (2)
    write_cfg(tmp_path, "name = d\ncfl = 2\n" + BATCH_BODY, "d.cfg")
    code = main(["run", str(p), str(tmp_path / "d.cfg"), "--out", str(tmp_path / "b")])
    assert code == 3
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    out = captured.out.splitlines()
    assert out[0] == f"{p}: ERROR RuntimeError: boom"
    assert out[1].startswith(f"{tmp_path / 'd.cfg'}: ERROR ConfigError: ")


@st.composite
def small_configs(draw) -> dict:
    """A config on a small grid (1d n <= 64, 2d n = 8) with a short horizon,
    every key drawn but dt, k_bar and seed.  k is drawn as a share of its
    bound min(alpha, 1), which it passes now and then: 43 of the 100 configs
    are config errors."""
    d = draw(st.sampled_from([1, 2]))
    alpha = draw(st.floats(0.05, 1.95))
    return {
        "name": draw(st.sampled_from(["a", "b-1", "c_2"])),
        "d": d,
        "L": draw(st.floats(0.5, 30.0)),
        "n": draw(st.sampled_from([8, 16, 32, 64] if d == 1 else [8])),
        "alpha": alpha,
        "gamma": draw(st.floats(1.0, 3.5)),
        "k": min(alpha, 1.0) * draw(st.floats(0.05, 1.05)),
        "p": draw(st.floats(1.02, 2.5)),
        "method": draw(st.sampled_from(["spectral", "quadrature"])),
        "drift": draw(st.sampled_from(["upwind", "centered"])),
        "diffusion_solver": draw(st.sampled_from(["exact-spectral", "implicit-matrix"])),
        "horizon": draw(st.floats(0.05, 2.0)),
        "suite": draw(st.sampled_from(SUITES)),
    }


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_every_config_is_a_verdict_or_a_config_error(values):
    # no config crashes: each exits 0 (PASS) or 1 (FAIL) with a report whose
    # last line says so, or 2 (config error) with no report
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "c.cfg"
        p.write_text("".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                             for key, value in values.items()))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["run", str(p), "--out", str(Path(tmp) / "o")])
        assert code in (0, 1, 2), err.getvalue()
        report = Path(tmp) / "o" / "report.txt"
        if code == 2:
            assert not report.exists()
        else:
            assert report.read_text().splitlines()[-1] == ("PASS", "FAIL")[code]


def test_short_tail_window_is_a_fail_record(tmp_path, capsys):
    # n = 8: the window [L/4, 3L/4] holds 4 nodes, too few for the tail fit;
    # the other steady records are still written, and so are the other suites
    p = write_cfg(tmp_path, "name = tail\nd = 1\nL = 10\nn = 8\nalpha = 1.0\ngamma = 2.0\n"
                            "suite = steady\n")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    assert "tail-fit-window: measured=4 predicted=- tol=8 -> FAIL" in report
    assert not any(line.startswith("tail-fit-quality:") for line in report)
    assert any(line.startswith("route-agreement-L1:") for line in report)
    assert main(["run", str(p), "--out", str(tmp_path / "a"), "--suite", "all"]) == 1
    capsys.readouterr()
    report = (tmp_path / "a" / "report.txt").read_text().splitlines()
    assert "tail-fit-window: measured=4 predicted=- tol=8 -> FAIL" in report
    assert any(line.startswith("nash-chain-constant:") for line in report)


def test_negative_tail_exponent_is_a_fail_record(tmp_path, capsys):
    # centered drift on a coarse 2d grid: the steady state's tail grows
    # outward, so the fit's r^2 = 1 would be a false pass
    p = write_cfg(tmp_path, "name = grow\nd = 2\nL = 8\nn = 8\nalpha = 0.8\ngamma = 3\nk = 0.3\n"
                            "p = 1.1\ndrift = centered\nsuite = steady\n")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    record = next(line for line in report if line.startswith("tail-exponent: "))
    assert float(record.split("measured=")[1].split()[0]) < 0.0
    assert record.endswith("tol=0 -> FAIL")
    assert not any(line.startswith("tail-fit-quality:") for line in report)
    assert any(line.startswith("route-agreement-L1:") for line in report)


def test_all_suite_assembles_one_generator(tmp_path, monkeypatch):
    # the steady and rates suites share one dense generator, and the rates
    # suite's two checks share its one semigroup
    built, expms = [], []
    assemble, expm = fracfp.cli.assemble_generator_matrix, fracfp.rates.expm

    def counting_assemble(*args):
        built.append(assemble(*args))
        return built[-1]

    def counting_expm(a):
        expms.append(a.shape)
        return expm(a)

    monkeypatch.setattr(fracfp.cli, "assemble_generator_matrix", counting_assemble)
    monkeypatch.setattr(fracfp.rates, "expm", counting_expm)
    cfg = ScenarioConfig(name="all", d=1, L=10.0, n=64, alpha=1.0, gamma=2.0, k=0.5,
                         method="quadrature", suite="all", horizon=8.0)
    report = run_scenario(cfg, tmp_path / "o")
    names = [r.name for r in report.records]
    for name in ("route-agreement-L1", "leading-eigenvalue", "lyapunov-gamma1", "harris-contraction"):
        assert name in names
    assert len(built) == 1 and not any(built[0].sector(key).flags.writeable for key in built[0].maps)
    assert expms == [(32, 32)] * 2  # one per parity block of the radial force


def test_float_printing_roundtrip(tmp_path, tiny_cfg_text):
    p = write_cfg(tmp_path, tiny_cfg_text)
    cfg = parse_config(p)
    run_scenario(cfg, tmp_path / "rt")
    rows = (tmp_path / "rt" / "steady.csv").read_text().splitlines()[1:]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    # 17 significant digits round-trip exactly through the text form
    rewritten = np.array([float("%.17g" % v) for v in vals])
    assert np.array_equal(vals, rewritten)
    assert np.all(vals > 0.0)


def test_validate_config_direct():
    cfg = ScenarioConfig(alpha=1.0, gamma=2.0, k=0.5)
    validate_config(cfg)
    with pytest.raises(ConfigError, match="suite"):
        validate_config(ScenarioConfig(suite="bogus"))


def test_run_scenario_2d_steady(tmp_path):
    cfg = ScenarioConfig(
        name="twod", d=2, L=10.0, n=32, alpha=1.0, gamma=2.0, k=0.5,
        suite="steady", horizon=4.0,
    )
    validate_config(cfg)
    rep = run_scenario(cfg, tmp_path / "out2d")
    assert rep.overall_pass
    rows = (tmp_path / "out2d" / "steady.csv").read_text().splitlines()
    assert rows[0] == "x,y,F"
    assert len(rows) == 1 + 32 * 32


def test_run_scenario_rates_suite(tmp_path):
    cfg = ScenarioConfig(
        name="r", d=1, L=15.0, n=256, alpha=1.0, gamma=2.0, k=0.5,
        suite="rates", horizon=8.0,
    )
    validate_config(cfg)
    rep = run_scenario(cfg, tmp_path / "o")
    assert rep.overall_pass
    names = {r.name for r in rep.records}
    assert "exponential-rate-positive" in names
    assert "entropy-nonincreasing" in names
    assert "harris-contraction" in names
    rates_rows = (tmp_path / "o" / "rates.csv").read_text().splitlines()
    assert len(rates_rows) >= 2  # header + at least one fitted rate


def test_run_scenario_inequalities_suite(tmp_path):
    for d, L, n in ((1, 15.0, 256), (2, 10.0, 32)):
        cfg = ScenarioConfig(
            name="q", d=d, L=L, n=n, alpha=1.0, gamma=2.0, k=0.5,
            suite="inequalities",
        )
        validate_config(cfg)
        rep = run_scenario(cfg, tmp_path / f"oq{d}")
        assert rep.overall_pass, (d, [r.name for r in rep.records if not r.passed])
        names = {r.name for r in rep.records}
        assert {"gp-bracket-lower", "gp-bracket-upper", "integration-by-parts",
                "poincare-wirtinger-bank", "nash-chain-constant"} <= names


def test_run_scenario_polynomial_regime(tmp_path):
    # k_bar = None derives min(0.9 min(alpha, 1), 2 k) = 0.6, the value given
    # explicitly: both predict (k_bar - k) / |2 - gamma| = 0.6
    for k_bar in (0.6, None):
        cfg = ScenarioConfig(
            name="pr", d=1, L=30.0, n=256, alpha=1.5, gamma=1.5, k=0.3, k_bar=k_bar,
            suite="rates", horizon=12.0,
        )
        validate_config(cfg)
        rep = run_scenario(cfg, tmp_path / "op")
        assert rep.overall_pass
        names = {r.name for r in rep.records}
        assert "polynomial-envelope-respected" in names
        row = (tmp_path / "op" / "rates.csv").read_text().splitlines()[1].split(",")
        assert row[:2] == ["polynomial-envelope", "polynomial"]
        assert float(row[3]) == pytest.approx(0.6, rel=1e-12)


def test_short_fit_window_is_a_fail_record(tmp_path, capsys):
    # strong confinement: the distance to equilibrium reaches its floor after
    # 9 of the 16 snapshots, too few for decay_fit
    p = write_cfg(
        tmp_path,
        "name = short\nd = 1\nL = 12\nn = 128\nalpha = 1.5\ngamma = 2.5\nk = 0.5\n"
        "p = 1.2\nsuite = rates\nhorizon = 8\n",
    )
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    assert "rate-fit-window: measured=9 predicted=- tol=10 -> FAIL" in report
    assert report[-1] == "FAIL"


def test_nonpositive_steady_state_is_a_fail_record(tmp_path, capsys):
    # the centered drift has no discrete maximum principle: this steady state
    # dips to -0.093, so it cannot be the relative-entropy reference
    p = write_cfg(
        tmp_path,
        "name = negative\nd = 2\nL = 8\nn = 8\nalpha = 0.8\ngamma = 3.0\nk = 0.4\n"
        "p = 1.05\ndrift = centered\nsuite = rates\nhorizon = 4\n",
    )
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    record = next(line for line in report if line.startswith("entropy-reference-positive:"))
    assert record.endswith("tol=0 -> FAIL")
    assert float(record.split("measured=")[1].split()[0]) < 0.0
    assert not any(line.startswith("entropy-nonincreasing:") for line in report)
    assert report[-1] == "FAIL"
    assert (tmp_path / "o" / "monitors.csv").read_text().splitlines()[1].endswith(",nan")


def test_nonpositive_steady_state_is_no_poincare_weight(tmp_path, capsys):
    # the config above, with every suite: the signed steady state is not
    # used as the Poincare-Wirtinger weight
    p = write_cfg(
        tmp_path,
        "name = negative\nd = 2\nL = 8\nn = 8\nalpha = 0.8\ngamma = 3.0\nk = 0.4\n"
        "p = 1.05\ndrift = centered\nsuite = all\nhorizon = 4\n",
    )
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    record = next(line for line in report if line.startswith("poincare-weight-positive:"))
    assert record.endswith("tol=0 -> FAIL")
    assert float(record.split("measured=")[1].split()[0]) < 0.0
    assert not any(line.startswith("poincare-wirtinger-bank:") for line in report)
    assert report[-1] == "FAIL"


def test_inequalities_suite_alone_has_a_positive_poincare_weight(tmp_path, capsys):
    # without the steady suite the Poincare weight is <x>^-(d+1), positive on
    # every box: exp(-|x|^2) underflowed to 0 beyond |x| = 27.3 and made
    # poincare-weight-positive read 0 on this box
    p = write_cfg(
        tmp_path,
        "name = wide\nd = 1\nL = 30\nn = 32\nalpha = 0.5\ngamma = 2\nk = 0.3\n"
        "suite = inequalities\n",
    )
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    assert "poincare-wirtinger-bank: measured=20 predicted=20 tol=20 -> pass" in report
    assert report[-1] == "PASS"


def test_failed_eigenpair_is_a_fail_record(tmp_path, capsys, monkeypatch):
    def failing_eigenpair(gm):
        raise CheckFailure("leading-eigenvalue-real", 0.5, 1e-7)

    monkeypatch.setattr(fracfp.cli, "leading_eigenpair", failing_eigenpair)
    p = write_cfg(
        tmp_path,
        "name = eig\nd = 1\nL = 10\nn = 64\nalpha = 1.0\ngamma = 2.0\nk = 0.5\nsuite = steady\n",
    )
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    assert "leading-eigenvalue-real: measured=0.5 predicted=- tol=9.9999999999999995e-08 -> FAIL" in report
    for name in ("leading-eigenvalue", "spectral-gap", "eigenvector-matches-solve"):
        assert not any(line.startswith(name + ":") for line in report)
    # the records after the eigen route are still written
    assert any(line.startswith("closed-form-L1-distance:") for line in report)
    assert report[-1] == "FAIL"


def test_unstable_generator_is_a_spectral_abscissa_record(tmp_path, capsys):
    # centered drift on a coarse 2d grid: the generator has a real eigenvalue
    # near 1.96, reported as the cause after the route records
    body = "d = 2\nL = 8\nn = 8\nalpha = 0.8\ngamma = 3\nk = 0.4\np = 1.05\nsuite = steady\n"
    p = write_cfg(tmp_path, "name = coarse\ndrift = centered\n" + body)
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    names = [line.split(":")[0] for line in report if ": measured=" in line]
    assert names.index("route-agreement-L1") < names.index("spectral-abscissa")
    record = next(line for line in report if line.startswith("spectral-abscissa: "))
    assert record.endswith("-> FAIL")
    assert float(record.split("measured=")[1].split()[0]) > 1.9
    for name in ("leading-eigenvalue", "spectral-gap", "eigenvector-matches-solve"):
        assert name not in names
    # a stable generator gets no spectral-abscissa line
    q = write_cfg(tmp_path, "name = upwind\n" + body, "upwind.cfg")
    main(["run", str(q), "--out", str(tmp_path / "u")])
    capsys.readouterr()
    report = (tmp_path / "u" / "report.txt").read_text()
    assert "spectral-abscissa" not in report and "leading-eigenvalue: " in report


def test_rates_suite_computes_one_semigroup(monkeypatch):
    shapes = []
    expm = fracfp.rates.expm

    def counting(a):
        shapes.append(a.shape)
        return expm(a)

    monkeypatch.setattr(fracfp.rates, "expm", counting)
    cfg = ScenarioConfig(name="r", d=1, L=10.0, n=64, alpha=1.0, gamma=2.0, k=0.5,
                         suite="rates", horizon=8.0)
    report = fracfp.cli.RunReport(scenario=cfg)
    fracfp.cli._suite_rates(cfg, report, {})
    names = [r.name for r in report.records]
    assert "lyapunov-gamma1" in names and "harris-contraction" in names
    assert shapes == [(32, 32)] * 2  # one per parity block of the radial force


def test_rates_suite_above_the_expm_cap_has_no_harris_records():
    # the cap keeps the 1d n = 2048 rates run (the evolve-1d benchmark) free
    # of the dense block expm and of both records
    assert fracfp.rates.HARRIS_MAX_SIZE == fracfp.cli.HARRIS_MAX_SIZE == 1024
    cfg = ScenarioConfig(name="r", d=1, L=20.0, n=2048, alpha=1.0, gamma=2.0, k=0.5,
                         suite="rates", horizon=8.0)
    assert cfg.grid().size > fracfp.rates.HARRIS_MAX_SIZE
    report = fracfp.cli.RunReport(scenario=cfg)
    fracfp.cli._suite_rates(cfg, report, {})
    names = [r.name for r in report.records]
    assert "exponential-rate-positive" in names
    assert "lyapunov-gamma1" not in names and "harris-contraction" not in names


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
def test_no_cli_route_builds_the_full_matrix(tmp_path, monkeypatch, d, n):
    # the dense routes work on the sectors: the jump builder runs once per
    # sector of the one assembly (two in 1d, five for the square's symmetry
    # group in 2d), and never for the N x N matrix
    calls = []
    jump_matrix = fracfp.operators._jump_matrix

    def counting(*args):
        calls.append(args)
        return jump_matrix(*args)

    monkeypatch.setattr(fracfp.operators, "_jump_matrix", counting)
    cfg = ScenarioConfig(name="all", d=d, L=10.0, n=n, alpha=1.0, gamma=2.0, k=0.5,
                         method="quadrature", suite="all", horizon=8.0)
    report = run_scenario(cfg, tmp_path / "o")
    names = [r.name for r in report.records]
    for name in ("route-agreement-L1", "leading-eigenvalue", "lyapunov-gamma1", "harris-contraction"):
        assert name in names
    assert len(calls) == {1: 2, 2: 5}[d] and all(len(args[2].reps) < n**d for args in calls)


def test_steady_suite_at_2d_n128_solves_its_fully_even_sector(tmp_path, monkeypatch):
    # 16384 nodes: the solve builds and factors the 2080-unknown fully even
    # sector alone, and the routes agree at the same 5e-2; the 4096-unknown
    # sector is above MAX_EIGEN_SECTOR, so there is no eigenpair and no
    # eigen record
    sizes, jump_matrix = [], fracfp.operators._jump_matrix

    def counting(grid, alpha, omap):
        sizes.append(len(omap.reps))
        return jump_matrix(grid, alpha, omap)

    monkeypatch.setattr(fracfp.operators, "_jump_matrix", counting)
    cfg = ScenarioConfig(name="big", d=2, L=10.0, n=128, alpha=1.0, gamma=2.0, k=0.5, suite="steady")
    report = run_scenario(cfg, tmp_path / "o")
    records = {r.name: r for r in report.records}
    agreement = records["route-agreement-L1"]
    assert agreement.passed and agreement.tolerance == 5e-2
    assert not {"leading-eigenvalue", "spectral-gap", "eigenvector-matches-solve"} & set(records)
    assert report.overall_pass and sizes == [2080]


def test_rates_suite_2d_n32_has_the_harris_records(tmp_path, capsys):
    # N = 1024 is at the dense expm cap
    p = write_cfg(tmp_path, "name = h\nd = 2\nL = 10\nn = 32\nalpha = 1.0\ngamma = 2.0\nk = 0.5\n"
                            "suite = rates\n")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out.splitlines()
    for name in ("lyapunov-gamma1", "harris-contraction"):
        record = next(line for line in out if line.startswith(name + ": "))
        assert record.endswith("-> pass")


def test_rates_suite_replays_the_steady_path(tmp_path, monkeypatch):
    calls = []
    evolve = fracfp.cli.evolve

    def spy(*args, **kwargs):
        calls.append(kwargs.get("path"))
        return evolve(*args, **kwargs)

    monkeypatch.setattr(fracfp.cli, "evolve", spy)
    cfg = ScenarioConfig(name="r", d=1, L=10.0, n=64, alpha=1.0, gamma=2.0, k=0.5,
                         suite="rates", horizon=8.0)
    report = fracfp.cli.RunReport(scenario=cfg)
    artifacts = {}
    fracfp.cli._suite_rates(cfg, report, artifacts)
    assert len(calls) == 1 and calls[0] is artifacts["steady"].path


def test_breakdown_is_a_fail_record(tmp_path, capsys, monkeypatch):
    # a mass drift in the first step of the evolve suite, and a steady route
    # that reaches its horizon: one FAIL record each, with the step and t
    from fracfp import steady
    from fracfp.evolution import _Stepper

    advance = _Stepper.advance
    monkeypatch.setattr(_Stepper, "advance", lambda self, v: advance(self, v) * (1.0 + 1e-5))
    p = write_cfg(
        tmp_path,
        "name = bad\nd = 1\nL = 10\nn = 64\nalpha = 1.0\ngamma = 2.0\nk = 0.5\n"
        "suite = evolve\nhorizon = 1\n",
    )
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    dt = fracfp.evolution.auto_dt(build_grid(1, 10.0, 64), OperatorConfig(1.0, 2.0))
    record = next(line for line in report if line.startswith("evolve-mass-drift:"))
    assert record.endswith(f"tol=9.9999999999999995e-07 -> FAIL at step 1 (t={'%.17g' % dt})")
    assert report[-1] == "FAIL"
    assert (tmp_path / "o" / "monitors.csv").read_text() == "t,mass,min,L1m,L2m,Linfm,entropy\n"

    monkeypatch.setattr(_Stepper, "advance", advance)
    monkeypatch.setattr(steady, "HORIZON_CAP", 2.0)
    monkeypatch.setattr(fracfp.cli, "steady_by_evolution",
                        lambda *a, **kw: steady.steady_by_evolution(*a, **{**kw, "tol": 1e-14}))
    assert main(["run", str(p), "--out", str(tmp_path / "s"), "--suite", "steady"]) == 1
    capsys.readouterr()
    report = (tmp_path / "s" / "report.txt").read_text().splitlines()
    record = next(line for line in report if line.startswith("steady-horizon:"))
    steps = 2 * int(np.ceil(1.0 / dt - 1e-9))
    assert record.endswith(f"tol=1e-14 -> FAIL at step {steps} (t={'%.17g' % (steps * dt)})")
    assert report[-1] == "FAIL"

    # after an evolve suite the steady route resumes from its states: one
    # chunk read off them (horizon 1), or both (horizon 3), and the step
    # still counts from the start of the route
    for horizon in (1, 3):
        q = write_cfg(tmp_path, p.read_text().replace("suite = evolve\nhorizon = 1",
                                                      f"suite = all\nhorizon = {horizon}"))
        assert main(["run", str(q), "--out", str(tmp_path / f"a{horizon}")]) == 1
        capsys.readouterr()
        report = (tmp_path / f"a{horizon}" / "report.txt").read_text().splitlines()
        assert "mass-conservation: " in "".join(report)
        record = next(line for line in report if line.startswith("steady-horizon:"))
        assert record.endswith(f"tol=1e-14 -> FAIL at step {steps} (t={'%.17g' % (steps * dt)})")


@pytest.mark.parametrize("body,horizon", [
    ("d = 1\nL = 10\nn = 64\n", 10.0),
    ("d = 1\nL = 10\nn = 64\n", 2.0),
    ("d = 1\nL = 10\nn = 64\nmethod = quadrature\ndiffusion_solver = implicit-matrix\n", 10.0),
    ("d = 2\nL = 8\nn = 16\n", 10.0),
    ("d = 2\nL = 8\nn = 16\n", 3.0),
])
def test_steady_suite_resumes_from_the_evolve_suite(tmp_path, body, horizon, monkeypatch):
    # the evolve suite has stepped the steady route's probe: the route reads
    # the chunks its horizon covers off the trajectory's path and steps only
    # the rest, to the fresh route's field and path, bit for bit
    from fracfp import steady

    cfg = parse_config(write_cfg(tmp_path, body + f"suite = all\nhorizon = {horizon}\n"))
    fresh = steady.steady_by_evolution(cfg.grid(), cfg.operator(), cfg.scheme(), tol=1e-5)
    report, artifacts = fracfp.cli.RunReport(scenario=cfg), {}
    fracfp.cli._suite_evolve(cfg, report, artifacts)
    tr = artifacts["trajectory"]
    calls, evolve = [], steady.evolve
    monkeypatch.setattr(steady, "evolve", lambda *a, **kw: calls.append(1) or evolve(*a, **kw))
    fracfp.cli._suite_steady(cfg, report, artifacts)
    ss = artifacts["steady"]
    assert len(calls) == max(0, len(fresh.path) - len(tr.path))
    assert len(tr.path) == tr.meta["nsteps"] // fracfp.evolution.step_count(1.0, tr.meta["dt"]) + 1
    # the long horizons cover every chunk; the short ones step after the resumed chunks
    assert (len(calls) == 0) == (horizon == 10.0)
    assert np.array_equal(ss.field.values, fresh.field.values)
    assert np.array_equal(ss.path, fresh.path) and not ss.path.flags.writeable
    alone = fracfp.cli.RunReport(scenario=cfg)
    fracfp.cli._suite_steady(cfg, alone, {})
    assert [r.line() for r in report.records[3:]] == [r.line() for r in alone.records]


def test_lyapunov_breakdown_is_a_fail_record(tmp_path, capsys):
    # on a small box Lambda^* m is not pushed down in the outer region: no
    # positive drift rate, one FAIL record, and the earlier rates records stay
    p = write_cfg(tmp_path, "name = ly\nd = 2\nL = 2\nn = 8\nalpha = 1\ngamma = 2\nk = 0.25\n"
                            "suite = rates\n")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")
    report = (tmp_path / "o" / "report.txt").read_text().splitlines()
    record = next(line for line in report if line.startswith("rates-lyapunov-drift-rate: "))
    assert float(record.split("measured=")[1].split()[0]) == pytest.approx(-0.0196476116743, rel=1e-9)
    assert record.endswith("predicted=- tol=0 -> FAIL")
    for name in ("rate-fit-window", "entropy-nonincreasing"):
        assert any(line.startswith(name + ": ") for line in report)
    assert not any(line.startswith("harris-contraction: ") for line in report)
    assert report[-1] == "FAIL"


@pytest.mark.parametrize("d,header", [(1, "x,F"), (2, "x,y,F")])
def test_steady_csv_header_without_a_steady_state(tmp_path, d, header):
    cfg = ScenarioConfig(name="h", d=d, L=10.0, n=16, suite="evolve", horizon=0.5)
    run_scenario(cfg, tmp_path / "o")
    assert (tmp_path / "o" / "steady.csv").read_text() == header + "\n"


def test_monitors_csv_rows_are_the_formatted_columns(tmp_path):
    g = build_grid(1, 10.0, 64)
    f0 = Field(g, np.exp(-g.radius2()))
    tr = fracfp.evolution.evolve(f0, 0.3, OperatorConfig(1.0, 2.0))
    report = fracfp.cli.RunReport(scenario=ScenarioConfig(name="m", d=1))
    fracfp.cli.emit_outputs(report, {"trajectory": tr}, tmp_path)
    rows = ["t,mass,min,L1m,L2m,Linfm,entropy"]
    rows += [",".join("%.17g" % float(x) for x in row) for row in tr.monitor_columns()]
    assert (tmp_path / "monitors.csv").read_text() == "\n".join(rows) + "\n"
    assert rows[1].endswith(",nan")


def test_cli_import_leaves_out_unused_scipy_subpackages(tmp_path):
    # scipy.sparse and scipy.linalg would bring scipy._lib's array-API layer,
    # with numpy.f2py, numpy.testing and concurrent.futures; glob is the
    # shell's job.  The seeded banks' numpy.random and the Pade kernels of
    # expm load at first use: importing fracfp.cli loads neither, a 2d steady
    # run (eig, eigvals, solve) and a 1d rates run too large for the expm
    # checks load no module at all, and a 1d all-suite run (expm and the
    # seeded bank too) loads exactly numpy.random with what its import
    # brings, and the expm module.  The run of two configs catches a runner
    # that loads a module.
    src = Path(fracfp.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    lazy = ["numpy.random", "scipy.linalg._matfuncs_expm"]
    # what `import numpy.random` adds to a process that has imported fracfp.cli
    code = ("import sys, fracfp.cli\n"
            "before = set(sys.modules)\n"
            "import numpy.random\n"
            "print(*(set(sys.modules) - before))\n")
    random_adds = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                     text=True, check=True, timeout=120).stdout.split())
    assert lazy[0] in random_adds
    cfgs = [str(write_cfg(tmp_path, "name = s\nd = 2\nL = 10\nn = 16\nsuite = steady\n", "s.cfg")),
            str(write_cfg(tmp_path, "name = r\nd = 1\nL = 10\nn = 2048\nsuite = rates\nhorizon = 1\n",
                          "r.cfg")),
            str(write_cfg(tmp_path, "name = i\nd = 1\nL = 10\nn = 64\nsuite = all\nhorizon = 1\n"))]
    assert parse_config(cfgs[1]).grid().size > fracfp.rates.HARRIS_MAX_SIZE
    pair = [str(write_cfg(tmp_path, f"name = {name}\n" + BATCH_BODY, f"{name}.cfg")) for name in "jk"]
    code = ("import sys, fracfp.cli\n"
            "unused = ('scipy.signal', 'scipy.integrate', 'scipy.fft', 'scipy.special', 'scipy.sparse',"
            " 'scipy.linalg', 'scipy._lib._util', 'numpy.f2py', 'numpy.testing', 'concurrent.futures',"
            " 'glob')\n"
            "print([m for m in unused if m in sys.modules])\n"
            f"print([m for m in {lazy!r} if m in sys.modules])\n"
            f"for cfg in {cfgs!r}:\n"
            "    scenario = fracfp.cli.parse_config(cfg)\n"
            "    before = set(sys.modules)\n"
            f"    fracfp.cli.run_scenario(scenario, {str(tmp_path)!r} + '/' + scenario.name)\n"
            "    print(sorted(set(sys.modules) - before))\n"
            "print([m for m in unused if m in sys.modules])\n"
            f"print(fracfp.cli.main(['run', *{pair!r}, '--out', {str(tmp_path / 'b')!r}]))\n"
            "print([m for m in unused if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    all_suite = str(sorted(random_adds | {lazy[1]}))
    assert out.stdout.splitlines() == ["[]", "[]", "[]", "[]", all_suite, "[]",
                                       f"{pair[0]}: PASS", f"{pair[1]}: PASS", "0", "[]"]


# the benchmark workloads (perfbench/run.py), written out
BENCH_WORKLOADS = {
    "evolve-1d": "d = 1\nL = 20\nn = 2048\nalpha = 1\ngamma = 2\nk = 0.5\nsuite = rates\nhorizon = 10\n",
    "dense-2d": "d = 2\nL = 10\nn = 32\nalpha = 1\ngamma = 2\nk = 0.5\nsuite = steady\n",
    "checks-1d": ("d = 1\nL = 10\nn = 512\nalpha = 1\ngamma = 2\nk = 0.5\nmethod = quadrature\n"
                  "diffusion_solver = implicit-matrix\nsuite = all\nhorizon = 10\n"),
}


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_benchmark_workloads_fold_every_axis(name, tmp_path, monkeypatch):
    # the probe, the weight and the force are exactly even on these grids, so
    # evolve steps the half-grid: a change that breaks the symmetry fails here
    from fracfp.evolution import _Stepper, evolve
    from fracfp.grid import normalized_gaussian

    seen, fold = [], _Stepper.fold
    monkeypatch.setattr(_Stepper, "fold", lambda self, axes: seen.append(axes) or fold(self, axes))
    cfg = parse_config(write_cfg(tmp_path, f"name = {name}\n" + BENCH_WORKLOADS[name]))
    grid = cfg.grid()
    f0 = normalized_gaussian(grid)
    evolve(f0, 0.05, cfg.operator(), cfg.scheme(), reference=f0)
    assert seen == [tuple(range(cfg.d))]


CHECK_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_benchmark_workloads_match_their_reference(name, tmp_path):
    # the benchmark's own output check: a change that moves the outputs beyond
    # its tolerances fails here, not only in a benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK_PATH)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    cfg = parse_config(write_cfg(tmp_path, f"name = {name}\n" + BENCH_WORKLOADS[name]))
    run_scenario(cfg, tmp_path / "o")
    params = {"d": cfg.d, "n": cfg.n, "L": cfg.L}
    reference = CHECK_PATH.parent / "reference" / name
    assert check.check_outputs(tmp_path / "o", params, reference) == []
