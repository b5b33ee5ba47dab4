import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracfp

from fracfp.cli import (
    ConfigError,
    ScenarioConfig,
    main,
    parse_config,
    run_scenario,
    validate_config,
)


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


def test_parse_comments_and_blank_lines(tmp_path):
    p = write_cfg(tmp_path, "# heading\n\nname = c  # trailing\nalpha = 1.2\n")
    cfg = parse_config(p)
    assert cfg.name == "c"
    assert cfg.alpha == 1.2


def test_unknown_key_is_hard_error(tmp_path):
    p = write_cfg(tmp_path, "name = bad\nnonsense = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(p)


def test_parse_error_reports_line(tmp_path):
    p = write_cfg(tmp_path, "name = ok\nalpha == 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(p)


def test_rejects_p_above_threshold(tmp_path):
    # gamma=3, k=0.5, d=1: threshold 4/3 < 2
    p = write_cfg(tmp_path, "name = t\ngamma = 3\nk = 0.5\np = 2\n")
    with pytest.raises(ConfigError, match="p_gamma"):
        parse_config(p)


def test_rejects_k_outside_range(tmp_path):
    p = write_cfg(tmp_path, "name = t\nalpha = 1\nk = 1.2\n")
    with pytest.raises(ConfigError, match=r"min\(alpha,1\)"):
        parse_config(p)


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
    code = main(
        ["run", "unused", "--batch", str(tmp_path / "b*.cfg"), "--out", str(tmp_path / "batch")]
    )
    assert code == 0
    assert (tmp_path / "batch" / "b0" / "report.txt").exists()
    assert (tmp_path / "batch" / "b1" / "report.txt").exists()


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
    cfg = ScenarioConfig(
        name="q", d=1, L=15.0, n=256, alpha=1.0, gamma=2.0, k=0.5,
        suite="inequalities",
    )
    validate_config(cfg)
    rep = run_scenario(cfg, tmp_path / "oq")
    assert rep.overall_pass
    names = {r.name for r in rep.records}
    assert {"gp-bracket-lower", "gp-bracket-upper", "integration-by-parts",
            "poincare-wirtinger-bank", "nash-chain-constant"} <= names


def test_run_scenario_polynomial_regime(tmp_path):
    cfg = ScenarioConfig(
        name="pr", d=1, L=30.0, n=256, alpha=1.5, gamma=1.5, k=0.3, k_bar=0.6,
        suite="rates", horizon=12.0,
    )
    validate_config(cfg)
    rep = run_scenario(cfg, tmp_path / "op")
    assert rep.overall_pass
    names = {r.name for r in rep.records}
    assert "polynomial-envelope-respected" in names


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


def test_cli_import_leaves_out_unused_scipy_subpackages():
    src = Path(fracfp.__file__).resolve().parents[1]
    code = ("import sys, fracfp.cli; "
            "print([m for m in ('scipy.signal', 'scipy.integrate') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
