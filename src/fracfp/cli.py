"""Reproducible experiment runner: configs in, CSV + verdict report out.

Configs are either JSON documents or ``key = value`` lines; unknown keys are
hard errors.  Every run validates the parameter constraints its suite relies
on before any computation, executes deterministically (fixed seeds, fixed
reduction order for emitted scalars), writes monitors.csv / steady.csv /
rates.csv / report.txt into the output directory, and exits 0 only when all
verdicts pass (1 on verification failure, 2 on usage or config errors).
"""

from __future__ import annotations

import argparse
import glob as _glob
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from fracfp.grid import Field, Grid, build_grid, integrate
from fracfp.operators import (
    MAX_DENSE,
    OperatorConfig,
    assemble_generator_matrix,
    make_force,
    verify_force_hypotheses,
)
from fracfp.evolution import SchemeConfig, Trajectory, evolve
from fracfp.functionals import (
    field_bank,
    gp_equivalence_ratios,
    nash_chain_check,
    poincare_wirtinger_check,
    threshold_p_gamma,
    weighted_norm,
)
from fracfp.functionals import _pair_ops, carre_du_champ
from fracfp.rates import MIN_FIT_POINTS, decay_fit, harris_contraction, lyapunov_check
from fracfp.steady import (
    closed_form_equilibrium,
    leading_eigenpair,
    steady_by_evolution,
    steady_by_linear_solve,
    tail_exponent,
)

SUITES = ("evolve", "steady", "rates", "inequalities", "all")
FMT = "%.17g"  # round-trip exact float printing


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    d: int = 1
    L: float = 20.0
    n: int = 1024
    alpha: float = 1.0
    gamma: float = 2.0
    k: float = 0.5
    k_bar: float | None = None
    p: float = 2.0
    theta: float = 1.0
    method: str = "spectral"
    drift: str = "upwind"
    splitting: str = "strang"
    diffusion_solver: str = "exact-spectral"
    cfl: float = 0.9
    dt: float | None = None
    horizon: float = 10.0
    suite: str = "all"
    seed: int = 20260810
    out: str = "out"

    def grid(self) -> Grid:
        return build_grid(self.d, self.L, self.n)

    def operator(self, method: str | None = None, drift: str | None = None) -> OperatorConfig:
        return OperatorConfig(
            alpha=self.alpha,
            gamma=self.gamma,
            method=method or self.method,
            drift=drift or self.drift,
        )

    def scheme(self) -> SchemeConfig:
        return SchemeConfig(
            dt=self.dt,
            splitting=self.splitting,
            diffusion_solver=self.diffusion_solver,
            cfl=self.cfl,
            monitor_weight=self.k,
        )


_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_INT_KEYS = {"d", "n", "seed"}
_STR_KEYS = {"name", "method", "drift", "splitting", "diffusion_solver", "suite", "out"}
_OPT_KEYS = {"k_bar", "dt"}


def _coerce(key: str, raw, lineno: int | None = None):
    where = f" (line {lineno})" if lineno is not None else ""
    if key not in _TYPES:
        raise ConfigError(f"unknown config key {key!r}{where}")
    if key in _STR_KEYS:
        return str(raw)
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _OPT_KEYS and str(raw).lower() in ("none", "auto", ""):
            return None
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse value for {key!r}{where}: {raw!r}") from exc


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario config: JSON document or key = value lines."""
    text = Path(path).read_text(encoding="utf-8")
    values: dict = {}
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        for key, raw in doc.items():
            values[key] = _coerce(key, raw)
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"expected key = value on line {lineno}: {line!r}")
            key, raw = (part.strip() for part in body.split("=", 1))
            values[key] = _coerce(key, raw, lineno)
    cfg = ScenarioConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig) -> None:
    """Check every constraint the selected suite relies on, with its source."""
    if cfg.suite not in SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {SUITES}")
    if cfg.d not in (1, 2):
        raise ConfigError("d must be 1 or 2")
    if not 0.0 < cfg.alpha < 2.0:
        raise ConfigError(f"alpha must lie in (0, 2), got {cfg.alpha}")
    if cfg.L <= 0 or cfg.n < 8 or (cfg.n & (cfg.n - 1)):
        raise ConfigError("need L > 0 and n a power of two >= 8")
    kmax = min(cfg.alpha, 1.0)
    if not 0.0 < cfg.k < kmax:
        raise ConfigError(
            f"k = {cfg.k} violates k in (0, min(alpha,1)) = (0, {kmax:g}): the "
            "weight must act within the integrable range of the jump kernel"
        )
    if cfg.gamma > 2.0:
        p_gam = threshold_p_gamma(cfg.k, cfg.gamma, cfg.d)
        if cfg.p >= p_gam:
            raise ConfigError(
                f"p = {cfg.p} >= p_gamma = {p_gam:g}: above the admissible-"
                "exponent threshold of the confinement profile for gamma > 2"
            )
    if cfg.suite in ("steady", "rates", "all") and not cfg.gamma > 2.0 - cfg.alpha:
        raise ConfigError(
            f"suite {cfg.suite!r} needs gamma > 2 - alpha (= {2.0 - cfg.alpha:g}): "
            "convergence to equilibrium requires the drift to dominate the "
            "jumps at infinity"
        )
    if cfg.k_bar is not None and not cfg.k < cfg.k_bar < kmax:
        raise ConfigError(f"k_bar must lie in (k, min(alpha,1)), got {cfg.k_bar}")


# ---------------------------------------------------------------------------
# run records and reports
# ---------------------------------------------------------------------------


@dataclass
class Record:
    name: str
    measured: float
    predicted: float | None
    tolerance: float
    passed: bool

    def line(self) -> str:
        pred = "-" if self.predicted is None else FMT % self.predicted
        return (
            f"{self.name}: measured={FMT % self.measured} predicted={pred} "
            f"tol={FMT % self.tolerance} -> {'pass' if self.passed else 'FAIL'}"
        )


@dataclass
class RunReport:
    scenario: ScenarioConfig
    records: list = field(default_factory=list)
    wall_times: dict = field(default_factory=dict)

    def add(self, name, measured, tolerance, passed, predicted=None):
        self.records.append(
            Record(name, float(measured), predicted, float(tolerance), bool(passed))
        )

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)


def _normalized_gaussian(grid: Grid) -> Field:
    vals = np.exp(-grid.radius2())
    return Field(grid, vals / (np.sum(vals) * grid.cell_volume), tag="density")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_evolve(cfg: ScenarioConfig, report: RunReport, artifacts: dict) -> None:
    grid = cfg.grid()
    f0 = _normalized_gaussian(grid)
    tr = evolve(f0, cfg.horizon, cfg.operator(), cfg.scheme())
    artifacts["trajectory"] = tr
    drift = float(np.max(np.abs(tr.mass / tr.mass[0] - 1.0)))
    report.add("mass-conservation", drift, 1e-8, drift <= 1e-8)
    floor = -1e-12 * float(np.max(f0.values))
    report.add("positivity-floor", float(tr.min_value.min()), abs(floor), tr.min_value.min() >= floor)
    hyp = verify_force_hypotheses(make_force(cfg.gamma), cfg.gamma, grid)
    report.add(
        "force-hypotheses",
        hyp["inf_confinement_ratio"],
        0.0,
        hyp["passes"],
    )


def _suite_steady(cfg: ScenarioConfig, report: RunReport, artifacts: dict) -> None:
    grid = cfg.grid()
    op_ev = cfg.operator()
    ss_ev = steady_by_evolution(grid, op_ev, cfg.scheme(), tol=1e-5)
    artifacts["steady"] = ss_ev
    report.add("steady-mass", ss_ev.mass, 1e-10, abs(ss_ev.mass - 1.0) <= 1e-10, 1.0)
    minf = float(ss_ev.field.values.min())
    report.add("steady-positivity", minf, 0.0, minf > 0.0)

    a_hat, r2 = tail_exponent(ss_ev.field)
    report.add("tail-fit-quality", r2, 0.9, r2 > 0.9)
    artifacts["tail_exponent"] = a_hat

    if grid.size <= MAX_DENSE:
        gm = assemble_generator_matrix(grid, cfg.operator(method="quadrature"))
        ss_lin = steady_by_linear_solve(gm)
        vol = grid.cell_volume
        gap_routes = float(np.sum(np.abs(ss_lin.field.values - ss_ev.field.values)) * vol)
        # the two routes share the periodized generator up to quadrature and
        # drift-scheme differences
        tol_routes = 1e-2 if cfg.drift == "centered" else 5e-2
        report.add("route-agreement-L1", gap_routes, tol_routes, gap_routes <= tol_routes)
        lam, vec, gap = leading_eigenpair(gm)
        scale = float(np.abs(gm.mat).max())
        report.add("leading-eigenvalue", abs(lam), 1e-8 * scale, abs(lam) <= 1e-8 * scale, 0.0)
        report.add("spectral-gap", gap, 0.0, gap > 0.0)
        eig_gap = float(np.sum(np.abs(vec.values - ss_lin.field.values)) * vol)
        report.add("eigenvector-matches-solve", eig_gap, 1e-6, eig_gap <= 1e-6)

    if cfg.gamma == 2.0:
        oracle = closed_form_equilibrium(cfg.alpha, grid)
        vol = grid.cell_volume
        d_oracle = float(np.sum(np.abs(ss_ev.field.values - oracle.values)) * vol)
        # box-model floor scales like 1/L; the tolerance tracks it
        tol_o = 3.0 / cfg.L
        report.add("closed-form-L1-distance", d_oracle, tol_o, d_oracle <= tol_o)
        if cfg.alpha == 1.0 and cfg.d == 1:
            cauchy = 1.0 / (np.pi * (1.0 + grid.axis**2))
            d_c = float(np.sum(np.abs(ss_ev.field.values - cauchy)) * vol)
            report.add("cauchy-L1-distance", d_c, 4.0 / cfg.L, d_c <= 4.0 / cfg.L)


def _suite_rates(cfg: ScenarioConfig, report: RunReport, artifacts: dict) -> None:
    grid = cfg.grid()
    rate_rows = artifacts.setdefault("rates", [])
    ss = artifacts.get("steady")
    if ss is None:
        ss = steady_by_evolution(grid, cfg.operator(), cfg.scheme(), tol=1e-6)
        artifacts["steady"] = ss
    reference = ss.field
    minf = float(reference.values.min())
    if minf <= 0.0:
        # no discrete maximum principle (centered drift): evolve without the
        # relative-entropy monitor, whose reference must be positive
        report.add("entropy-reference-positive", minf, 0.0, False)
        reference = None
    f0 = _normalized_gaussian(grid)
    horizon = max(cfg.horizon, 8.0)
    times = np.linspace(1.0, horizon, max(12, int(2 * horizon)))
    tr = evolve(f0, horizon, cfg.operator(), cfg.scheme(), output_times=times,
                reference=reference)
    artifacts.setdefault("trajectory", tr)
    diffs = np.array(
        [weighted_norm(Field(grid, s.values - ss.field.values), 1.0, cfg.k) for s in tr.snapshots]
    )
    floor = max(1e-12, 50.0 * diffs.min())
    keep = diffs > floor
    if keep.sum() < MIN_FIT_POINTS:
        # the distance to equilibrium reached its floor too early for a fit
        report.add("rate-fit-window", keep.sum(), MIN_FIT_POINTS, False)
    elif cfg.gamma >= 2.0:
        rep = decay_fit(np.array(tr.times)[keep], diffs[keep])
        rate_rows.append(("exponential-L1m", rep))
        report.add("exponential-rate-positive", rep.fitted, 0.0, rep.fitted > 0.0)
        report.add("exponential-fit-quality", rep.r2, 0.98, rep.r2 > 0.98)
    else:
        k_bar = cfg.k_bar if cfg.k_bar is not None else min(0.9 * min(cfg.alpha, 1.0), 2.0 * cfg.k)
        predicted = (k_bar - cfg.k) / abs(2.0 - cfg.gamma)
        rep = decay_fit(
            np.array(tr.times)[keep], diffs[keep], model="polynomial", predicted=predicted
        )
        rate_rows.append(("polynomial-envelope", rep))
        report.add(
            "polynomial-envelope-respected", rep.fitted, predicted, rep.passed, predicted
        )
    # entropy monitor along the run (reference attached above)
    ent = tr.entropy
    if ent is not None:
        worst = float(np.max(np.diff(ent)))
        tol_e = 1e-9 * max(1.0, abs(ent[0]))
        report.add("entropy-nonincreasing", worst, tol_e, worst <= tol_e)

    if cfg.gamma >= 2.0 and grid.size <= 512:
        adj = assemble_generator_matrix(grid, cfg.operator(method="quadrature"), "adjoint")
        ly = lyapunov_check(adj, [1.0], cfg.k)
        report.add("lyapunov-gamma1", ly["gamma"][1.0], 1.0, ly["gamma"][1.0] < 1.0, 1.0)
        gb = harris_contraction(adj, 1.0, cfg.k, 1.0 / ly["c"])
        report.add("harris-contraction", gb, 1.0, gb < 1.0, 1.0)


def _suite_inequalities(cfg: ScenarioConfig, report: RunReport, artifacts: dict) -> None:
    grid = cfg.grid()
    op = cfg.operator(method="quadrature")
    bank = field_bank(grid, count=20, seed=cfg.seed)
    lo, hi = math.inf, -math.inf
    for u in bank:
        for p in (1.5, 2.0):
            ratios = gp_equivalence_ratios(u, p, op)
            for a, b in ratios.values():
                lo, hi = min(lo, a), max(hi, b)
    report.add("gp-bracket-lower", lo, 0.25, lo >= 0.25, 0.25)
    report.add("gp-bracket-upper", hi, 4.0, hi <= 4.0, 4.0)

    st = _pair_ops(grid, op.alpha)
    worst = 0.0
    vol = grid.cell_volume
    for u, v in zip(bank[:6], bank[6:12]):
        a1 = float(np.sum(st.apply(u.values, "conservative") * v.values) * vol)
        a3 = -integrate(carre_du_champ(u, v, op))
        worst = max(worst, abs(a1 - a3) / max(abs(a1), 1e-30))
    report.add("integration-by-parts", worst, 1e-6, worst <= 1e-6)

    ss = artifacts.get("steady")
    mu = ss.field if ss is not None else _normalized_gaussian(grid)
    muv = mu.values
    npass = 0
    for w in bank:
        c0 = float(np.sum(w.values * muv) / np.sum(muv))
        v = Field(grid, w.values - c0)
        rep = poincare_wirtinger_check(v, mu, grid.L / 4.0, 2.0, op)
        npass += rep["passes"]
    report.add("poincare-wirtinger-bank", npass, len(bank), npass == len(bank), len(bank))

    nash = nash_chain_check(bank, min(2.0, cfg.p), cfg.k, op)
    report.add("nash-chain-constant", nash["c"], 0.0, nash["passes"])


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> RunReport:
    """Execute the selected suite deterministically and emit all outputs."""
    report = RunReport(scenario=cfg)
    artifacts: dict = {}
    suites = ("evolve", "steady", "rates", "inequalities") if cfg.suite == "all" else (cfg.suite,)
    runners = {
        "evolve": _suite_evolve,
        "steady": _suite_steady,
        "rates": _suite_rates,
        "inequalities": _suite_inequalities,
    }
    for name in suites:
        t0 = time.perf_counter()
        runners[name](cfg, report, artifacts)
        report.wall_times[name] = time.perf_counter() - t0
    emit_outputs(report, artifacts, Path(out_dir if out_dir is not None else cfg.out))
    return report


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def _fmt_row(values) -> str:
    return ",".join(FMT % v if isinstance(v, float) else str(v) for v in values)


def emit_outputs(report: RunReport, artifacts: dict, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_monitors(artifacts.get("trajectory"), out_dir / "monitors.csv")
        _write_steady(artifacts.get("steady"), out_dir / "steady.csv")
        _write_rates(artifacts.get("rates", []), out_dir / "rates.csv")
        _write_report(report, artifacts, out_dir / "report.txt")
    except OSError as exc:
        raise OSError(f"cannot write outputs under {out_dir}: {exc}") from exc


def _write_monitors(tr: Trajectory | None, path: Path) -> None:
    header = "t,mass,min,L1m,L2m,Linfm,entropy"
    if tr is None:
        path.write_text(header + "\n", encoding="utf-8")
        return
    rows = [header]
    for row in tr.monitor_columns():
        rows.append(_fmt_row(float(v) for v in row))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_steady(ss, path: Path) -> None:
    if ss is None:
        path.write_text("x,F\n", encoding="utf-8")
        return
    grid = ss.field.grid
    rows = [",".join(["x", "y"][: grid.d] + ["F"])]
    for pt, v in zip(grid.nodes(), ss.field.values.ravel(order="C")):
        rows.append(_fmt_row([float(c) for c in pt] + [float(v)]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_rates(rate_rows, path: Path) -> None:
    header = "name,model,fitted,predicted,window_lo,window_hi,r2,verdict"
    rows = [header]
    for name, rep in rate_rows:
        pred = math.nan if rep.predicted is None else rep.predicted
        rows.append(
            _fmt_row(
                (
                    name,
                    rep.model,
                    float(rep.fitted),
                    float(pred),
                    float(rep.window[0]),
                    float(rep.window[1]),
                    float(rep.r2),
                    rep.verdict,
                )
            )
        )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_report(report: RunReport, artifacts: dict, path: Path) -> None:
    lines = [f"scenario {report.scenario.name}"]
    cfg = report.scenario
    lines.append(
        f"  d={cfg.d} L={FMT % cfg.L} n={cfg.n} alpha={FMT % cfg.alpha} "
        f"gamma={FMT % cfg.gamma} k={FMT % cfg.k} p={FMT % cfg.p} suite={cfg.suite}"
    )
    if "tail_exponent" in artifacts:
        lines.append(f"  tail exponent a_hat = {FMT % artifacts['tail_exponent']}")
    for name, dt in report.wall_times.items():
        lines.append(f"  [{name}] {dt:.2f} s")
    for rec in report.records:
        lines.append(rec.line())
    lines.append("PASS" if report.overall_pass else "FAIL")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracfp",
        description="fractional Fokker-Planck laboratory: run scenario configs",
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run one config (or a batch)")
    runp.add_argument("config", help="path to a key=value or JSON config")
    runp.add_argument("--out", default=None, help="output directory override")
    runp.add_argument("--suite", default=None, choices=SUITES, help="suite override")
    runp.add_argument("--batch", default=None, help="glob of configs to run concurrently")
    args = parser.parse_args(argv)
    if args.command != "run":
        parser.print_help()
        return 2

    try:
        if args.batch:
            paths = sorted(_glob.glob(args.batch))
            if not paths:
                print(f"no configs match {args.batch!r}", file=sys.stderr)
                return 2
            configs = []
            for p in paths:
                cfg = parse_config(p)
                if args.suite:
                    cfg.suite = args.suite
                    validate_config(cfg)
                configs.append((p, cfg))
            base = Path(args.out) if args.out else Path("out")
            ok = True
            with ThreadPoolExecutor() as pool:
                futs = {
                    pool.submit(run_scenario, cfg, base / cfg.name): (p, cfg)
                    for p, cfg in configs
                }
                for fut, (p, cfg) in futs.items():
                    rep = fut.result()
                    print(f"{p}: {'PASS' if rep.overall_pass else 'FAIL'}")
                    ok &= rep.overall_pass
            return 0 if ok else 1
        cfg = parse_config(args.config)
        if args.suite:
            cfg.suite = args.suite
            validate_config(cfg)
        rep = run_scenario(cfg, args.out)
        for rec in rep.records:
            print(rec.line())
        print("PASS" if rep.overall_pass else "FAIL")
        return 0 if rep.overall_pass else 1
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
