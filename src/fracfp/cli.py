"""Reproducible experiment runner: configs in, CSV + verdict report out.

Configs are either JSON documents or ``key = value`` lines; unknown and
repeated keys are hard errors.  Every run validates the parameter
constraints its suite relies on before any computation, executes
deterministically (fixed seeds, fixed reduction order for emitted scalars),
writes monitors.csv / steady.csv / rates.csv / report.txt into the output
directory, and exits 0 only when all verdicts pass (1 on verification
failure, 2 on usage or config errors, 3 on a crash).  Several configs run
one after another, each into <out>/<name>, and the run exits with the
largest code of its configs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from fracfp.grid import CheckFailure, Field, Grid, build_grid, integrate, normalized_gaussian
from fracfp.operators import (
    MAX_DENSE,
    GeneratorMatrix,
    OperatorConfig,
    assemble_generator_matrix,
    fourier_multiply,
    make_force,
    quadrature_symbol,
    verify_force_hypotheses,
)
from fracfp.evolution import POSITIVITY_FLOOR, SchemeConfig, evolve, step_size
from fracfp.functionals import (
    carre_du_champ,
    field_bank,
    gp_equivalence_ratios,
    nash_chain_check,
    poincare_wirtinger_check,
    threshold_p_gamma,
    weighted_norm,
)
from fracfp.rates import HARRIS_MAX_SIZE, decay_fit, harris_contraction, lyapunov_check
from fracfp.steady import (
    MAX_EIGEN_SECTOR,
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
    method: str = "spectral"
    drift: str = "upwind"
    diffusion_solver: str = "exact-spectral"
    dt: float | None = None
    horizon: float = 10.0
    suite: str = "all"
    seed: int = 20260810

    def grid(self) -> Grid:
        return build_grid(self.d, self.L, self.n)

    def operator(self) -> OperatorConfig:
        return OperatorConfig(alpha=self.alpha, gamma=self.gamma, method=self.method,
                              drift=self.drift)

    def scheme(self) -> SchemeConfig:
        return SchemeConfig(
            dt=self.dt,
            diffusion_solver=self.diffusion_solver,
            monitor_weight=self.k,
        )


# field name -> annotation string ("int", "str", "float" or "float | None")
_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _coerce(key: str, raw: str, where: str):
    """The value of one config key from its text, parsed by the field's type."""
    if key not in _TYPES:
        raise ConfigError(f"unknown config key {key!r}{where}")
    kind = _TYPES[key]
    if kind == "str":
        return raw
    if kind.endswith("| None") and raw.lower() in ("none", "null", "auto", ""):
        return None
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key!r}{where}: {raw!r}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a key given twice is a ConfigError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"repeated config key {key!r} in a JSON object")
        doc[key] = value
    return doc


def parse_config(path: str | Path, suite: str | None = None) -> ScenarioConfig:
    """Read a scenario config, a JSON object or key = value lines, apply the
    --suite override, then validate once.  Both formats share one grammar,
    each value's text parsed by its field's type: a JSON string is that text
    as written and any other JSON value its JSON text, so 1.7 is no int and
    true no float, while null means None as none and auto do.  A key set
    twice is a ConfigError, not the later value."""
    text = Path(path).read_text(encoding="utf-8")
    items = []  # (key, value text, where)
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        items = [(key, raw if isinstance(raw, str) else json.dumps(raw), "")
                 for key, raw in doc.items()]
    else:
        first = {}  # key -> the line that set it
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"expected key = value on line {lineno}: {line!r}")
            key, raw = (part.strip() for part in body.split("=", 1))
            if key in first:
                raise ConfigError(f"repeated config key {key!r} on lines {first[key]} and {lineno}")
            first[key] = lineno
            items.append((key, raw, f" (line {lineno})"))
    values = {key: _coerce(key, raw, where) for key, raw, where in items}
    if suite:
        values["suite"] = suite
    cfg = ScenarioConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig) -> None:
    """Check every constraint the selected suite relies on, with its source.
    The grid, operator and scheme check their own parameters, and step_size
    checks dt against the drift CFL bound; their ValueError is a ConfigError."""
    if cfg.name in ("", ".", "..") or Path(cfg.name).name != cfg.name or not cfg.name.isprintable():
        raise ConfigError(f"name = {cfg.name!r} must be one path component of printable "
                          "characters: a batch writes each config into <out>/<name>")
    if cfg.suite not in SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {SUITES}")
    if not cfg.horizon > 0.0:
        raise ConfigError(f"horizon = {cfg.horizon} must be positive")
    if not math.isfinite(cfg.horizon):
        raise ConfigError(f"horizon = {cfg.horizon} must be finite: a run takes horizon / dt steps")
    if cfg.seed < 0:
        raise ConfigError(f"seed = {cfg.seed} must be a non-negative integer")
    try:
        step_size(cfg.grid(), cfg.operator(), cfg.scheme())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.p > 1.0:
        raise ConfigError(f"p = {cfg.p} must exceed 1: the checks use its conjugate p / (p - 1)")
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
    at: tuple | None = None  # (step, t) where a time-stepping check failed

    def line(self) -> str:
        pred = "-" if self.predicted is None else FMT % self.predicted
        where = "" if self.at is None else f" at step {self.at[0]} (t={FMT % self.at[1]})"
        return (
            f"{self.name}: measured={FMT % self.measured} predicted={pred} "
            f"tol={FMT % self.tolerance} -> {'pass' if self.passed else 'FAIL'}{where}"
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

    def fail(self, exc: CheckFailure, prefix: str = "") -> None:
        """The FAIL record of a failed check, with its step and t when it has a step."""
        at = None if exc.step is None else (exc.step, exc.t)
        self.records.append(Record(prefix + exc.check, exc.measured, None, exc.tolerance, False, at))

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _generator(cfg: ScenarioConfig, artifacts: dict) -> GeneratorMatrix:
    """The dense quadrature generator of the scenario, assembled on first
    need and shared by the steady and rates suites."""
    if "generator" not in artifacts:
        artifacts["generator"] = assemble_generator_matrix(cfg.grid(), cfg.operator())
    return artifacts["generator"]


def _suite_evolve(cfg: ScenarioConfig, report: RunReport, artifacts: dict) -> None:
    grid = cfg.grid()
    f0 = normalized_gaussian(grid)
    tr = evolve(f0, cfg.horizon, cfg.operator(), cfg.scheme())
    artifacts["trajectory"] = tr
    drift = float(np.max(np.abs(tr.mass / tr.mass[0] - 1.0)))
    report.add("mass-conservation", drift, 1e-8, drift <= 1e-8)
    floor = -POSITIVITY_FLOOR * float(np.max(f0.values))
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
    # the evolve suite, when it ran, has stepped the same probe: resume from its states
    tr = artifacts.get("trajectory")
    ss_ev = steady_by_evolution(grid, cfg.operator(), cfg.scheme(), tol=1e-5,
                                path=None if tr is None else tr.path)
    artifacts["steady"] = ss_ev
    report.add("steady-mass", ss_ev.mass, 1e-10, abs(ss_ev.mass - 1.0) <= 1e-10, 1.0)
    minf = float(ss_ev.field.values.min())
    report.add("steady-positivity", minf, 0.0, minf > 0.0)

    try:
        a_hat, r2 = tail_exponent(ss_ev.field)
    except CheckFailure as exc:
        # the failed check is the record, in place of tail-fit-quality
        report.fail(exc)
    else:
        report.add("tail-fit-quality", r2, 0.9, r2 > 0.9)
        artifacts["tail_exponent"] = a_hat

    # each dense route factors the sectors it reads: the solve the fully
    # even one, the eigenpair every one; their orders gate them
    gm = _generator(cfg, artifacts)
    vol = grid.cell_volume
    if gm.sector_sizes[0] <= MAX_DENSE:
        ss_lin = steady_by_linear_solve(gm)
        gap_routes = float(np.sum(np.abs(ss_lin.field.values - ss_ev.field.values)) * vol)
        # the two routes share the periodized generator up to quadrature and
        # drift-scheme differences
        tol_routes = 1e-2 if cfg.drift == "centered" else 5e-2
        report.add("route-agreement-L1", gap_routes, tol_routes, gap_routes <= tol_routes)
    if max(gm.sector_sizes) <= MAX_EIGEN_SECTOR:  # at most MAX_DENSE: the solve ran
        try:
            lam, vec, gap = leading_eigenpair(gm)
        except CheckFailure as exc:
            # the failed check is the record; a pair that failed it has no eigen records
            report.fail(exc)
        else:
            scale = gm.max_abs
            report.add("leading-eigenvalue", abs(lam), 1e-8 * scale, abs(lam) <= 1e-8 * scale, 0.0)
            report.add("spectral-gap", gap, 0.0, gap > 0.0)
            eig_gap = float(np.sum(np.abs(vec.values - ss_lin.field.values)) * vol)
            report.add("eigenvector-matches-solve", eig_gap, 1e-6, eig_gap <= 1e-6)

    if cfg.gamma == 2.0:
        oracle = closed_form_equilibrium(cfg.alpha, grid)
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
    f0 = normalized_gaussian(grid)
    horizon = max(cfg.horizon, 8.0)
    times = np.linspace(1.0, horizon, max(12, int(2 * horizon)))
    # the steady route's chunks from the same f0 run again as lanes of one stack
    tr = evolve(f0, horizon, cfg.operator(), cfg.scheme(), output_times=times,
                reference=reference, path=ss.path)
    artifacts.setdefault("trajectory", tr)
    diffs = np.array(
        [weighted_norm(Field(grid, s.values - ss.field.values), 1.0, cfg.k) for s in tr.snapshots]
    )
    floor = max(1e-12, 50.0 * diffs.min())
    keep = diffs > floor
    ts = np.array(tr.times)[keep]
    try:
        if cfg.gamma >= 2.0:
            rep = decay_fit(ts, diffs[keep])
            rate_rows.append(("exponential-L1m", rep))
            report.add("exponential-rate-positive", rep.fitted, 0.0, rep.fitted > 0.0)
            report.add("exponential-fit-quality", rep.r2, 0.98, rep.r2 > 0.98)
        else:
            k_bar = (cfg.k_bar if cfg.k_bar is not None
                     else min(0.9 * min(cfg.alpha, 1.0), 2.0 * cfg.k))
            predicted = (k_bar - cfg.k) / abs(2.0 - cfg.gamma)
            rep = decay_fit(ts, diffs[keep], model="polynomial", predicted=predicted)
            rate_rows.append(("polynomial-envelope", rep))
            report.add("polynomial-envelope-respected", rep.fitted, predicted, rep.passed, predicted)
    except CheckFailure as exc:
        # the distance to equilibrium reached its floor too early for a fit
        report.fail(exc)
    # entropy monitor along the run (reference attached above)
    ent = tr.entropy
    if ent is not None:
        worst = float(np.max(np.diff(ent)))
        tol_e = 1e-9 * max(1.0, abs(ent[0]))
        report.add("entropy-nonincreasing", worst, tol_e, worst <= tol_e)

    if cfg.gamma >= 2.0 and grid.size <= HARRIS_MAX_SIZE:
        # both checks read the one dense semigroup e^{Lambda^*} of this generator
        gm = _generator(cfg, artifacts)
        ly = lyapunov_check(gm, [1.0], cfg.k)
        report.add("lyapunov-gamma1", ly["gamma"][1.0], 1.0, ly["gamma"][1.0] < 1.0, 1.0)
        gb = harris_contraction(gm, 1.0, cfg.k, 1.0 / ly["c"])
        report.add("harris-contraction", gb, 1.0, gb < 1.0, 1.0)


def _suite_inequalities(cfg: ScenarioConfig, report: RunReport, artifacts: dict) -> None:
    grid = cfg.grid()
    op = cfg.operator()
    bank = field_bank(grid, count=20, seed=cfg.seed)
    lo, hi = math.inf, -math.inf
    for u in bank:
        for p in (1.5, 2.0):
            ratios = gp_equivalence_ratios(u, p, op)
            for a, b in ratios.values():
                lo, hi = min(lo, a), max(hi, b)
    report.add("gp-bracket-lower", lo, 0.25, lo >= 0.25, 0.25)
    report.add("gp-bracket-upper", hi, 4.0, hi <= 4.0, 4.0)

    # <J u, v> = -int G(u, v), J the generator's periodic quadrature jump
    symbol = quadrature_symbol(grid, float(op.alpha))
    worst = 0.0
    vol = grid.cell_volume
    for u, v in zip(bank[:6], bank[6:12]):
        a1 = float(np.sum(fourier_multiply(u.values, symbol) * v.values) * vol)
        a3 = -integrate(carre_du_champ(u, v, op))
        worst = max(worst, abs(a1 - a3) / max(abs(a1), 1e-30))
    report.add("integration-by-parts", worst, 1e-6, worst <= 1e-6)

    ss = artifacts.get("steady")
    mu = ss.field if ss is not None else normalized_gaussian(grid)
    muv = mu.values
    if muv.min() <= 0.0:
        # a signed steady state (centered drift) is no Poincare weight
        report.add("poincare-weight-positive", muv.min(), 0.0, False)
    else:
        npass = 0
        for w in bank:
            c0 = float(np.sum(w.values * muv) / np.sum(muv))
            v = Field(grid, w.values - c0)
            rep = poincare_wirtinger_check(v, mu, grid.L / 4.0, 2.0, op)
            npass += rep["passes"]
        report.add("poincare-wirtinger-bank", npass, len(bank), npass == len(bank), len(bank))

    nash = nash_chain_check(bank, min(2.0, cfg.p), cfg.k, op)
    report.add("nash-chain-constant", nash["c"], 0.0, nash["passes"])


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> RunReport:
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
        try:
            runners[name](cfg, report, artifacts)
        except CheckFailure as exc:
            # a numerical breakdown ends this suite with one FAIL record
            report.fail(exc, f"{name}-")
        report.wall_times[name] = time.perf_counter() - t0
    emit_outputs(report, artifacts, Path(out_dir))
    return report


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: str, rows) -> None:
    """One CSV table, each row written as it comes: floats printed with FMT
    (round-trip exact), every other value with str.  The row format is read
    off the first row; a table's rows share their column types."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        line = None
        for row in rows:
            line = line or ",".join(FMT if isinstance(v, float) else "%s" for v in row) + "\n"
            fh.write(line % tuple(row))


def emit_outputs(report: RunReport, artifacts: dict, out_dir: Path) -> None:
    """monitors.csv, steady.csv, rates.csv and report.txt under out_dir; a
    table no suite filled holds its header only."""
    out_dir = Path(out_dir)
    tr, ss = artifacts.get("trajectory"), artifacts.get("steady")
    monitors = () if tr is None else map(np.ndarray.tolist, tr.monitor_columns())
    steady = () if ss is None else (
        [*pt, v] for pt, v in zip(ss.field.grid.nodes().tolist(), ss.field.values.ravel().tolist()))
    rates = ([name, rep.model,
              *map(float, (rep.fitted, math.nan if rep.predicted is None else rep.predicted,
                           *rep.window, rep.r2)),
              rep.verdict] for name, rep in artifacts.get("rates", []))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "monitors.csv", "t,mass,min,L1m,L2m,Linfm,entropy", monitors)
        _write_csv(out_dir / "steady.csv", ",".join(["x", "y"][:report.scenario.d] + ["F"]), steady)
        _write_csv(out_dir / "rates.csv",
                   "name,model,fitted,predicted,window_lo,window_hi,r2,verdict", rates)
        _write_report(report, artifacts, out_dir / "report.txt")
    except OSError as exc:
        raise OSError(f"cannot write outputs under {out_dir}: {exc}") from exc


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


CONFIG_ERRORS = (ConfigError, OSError, UnicodeDecodeError)  # an unreadable or invalid config: exit 2


def _load_configs(paths: list[str], suite: str | None):
    """Each config in order, loaded on its own, or its config error.  A name
    that repeats an earlier config's is one: the two would share <out>/<name>."""
    names = set()
    for path in paths:
        try:
            cfg = parse_config(path, suite)
            if cfg.name in names:
                raise ConfigError(f"name = {cfg.name!r} repeats an earlier config's: "
                                  "a batch writes each config into <out>/<name>")
        except CONFIG_ERRORS as exc:
            yield exc
            continue
        names.add(cfg.name)
        yield cfg


def _outcome(cfg: ScenarioConfig | Exception, out: Path,
             nested: bool) -> tuple[int, RunReport | Exception]:
    """The exit code of one loaded config, or of its load error, with what
    decided it: 0 (PASS) or 1 (FAIL) with the run's report, 2 with the config
    error, 3 with the crash, whose traceback goes to stderr.  The run writes
    into out, or into out/<name> when nested."""
    if isinstance(cfg, Exception):
        return 2, cfg
    try:
        report = run_scenario(cfg, out / cfg.name if nested else out)
    except Exception as exc:  # a crash, not a verdict
        traceback.print_exception(exc)
        return 3, exc
    return int(not report.overall_pass), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracfp",
        description="fractional Fokker-Planck laboratory: run scenario configs",
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run configs one after another")
    runp.add_argument("configs", nargs="+", metavar="CONFIG",
                      help="a key=value or JSON config; several run in turn, each into OUT/<name>")
    runp.add_argument("--out", default="out", help="output directory (default: out)")
    runp.add_argument("--suite", default=None, choices=SUITES, help="suite override")
    args = parser.parse_args(argv)
    if args.command != "run":
        parser.print_help()
        return 2

    # one config prints its records and verdict; several print one verdict line each
    several, worst = len(args.configs) > 1, 0
    for path, cfg in zip(args.configs, _load_configs(args.configs, args.suite)):
        code, result = _outcome(cfg, Path(args.out), several)
        worst = max(worst, code)
        verdict = ("PASS", "FAIL")[code] if code < 2 else f"ERROR {type(result).__name__}: {result}"
        if several:
            print(f"{path}: {verdict}")
        elif code == 2:
            print(f"config error: {result}", file=sys.stderr)
        elif code < 2:
            print(*(rec.line() for rec in result.records), verdict, sep="\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
