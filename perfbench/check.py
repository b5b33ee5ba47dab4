"""Output check of one scenario, made from outside the package.

A scenario passes when

* every record line of ``report.txt`` ends in ``-> pass`` and the report's
  last line is ``PASS``;
* ``steady.csv`` holds n^d rows, its density has mass 1 within 1e-10
  (midpoint rule, cell volume (2L/n)^d) and a positive minimum;
* ``steady.csv`` and ``rates.csv`` match the reference stored under
  ``reference/<workload>/``;
* the ``measured=`` value of every report record that does not depend on the
  seed matches ``reference/<workload>/records.csv``.  The records of the
  inequalities suite (``SEEDED``) are built on the seeded field bank, so only
  their pass verdict is checked.

Reference tolerances.  Both files are deterministic on one machine.  A change
that only reorders floating-point sums perturbs each FFT or solve by about one
ulp.  Emulating that (1-ulp relative noise on every FFT and LU-solve output)
moved steady.csv by at most 4.8e-14 of its maximum and the fitted rates by at
most 1.2e-8 relative (evolve-1d; checks-1d: 9.6e-15 and 1.0e-10).  The rate
fit is the sensitive part: its window reaches diffs of 1e-9 of the initial
one.  A changed answer moves both by far more; e.g. the exact periodic-image
remainder of ROADMAP item 4 changes the first-mode quadrature symbol of
checks-1d (alpha = 1, n = 512) by 2e-4.  Hence, with margins of about 2e4
(densities) and 80 (rates) over the emulated noise:

* steady.csv coordinates agree to ``COORD_TOL * L``; densities agree to
  ``STEADY_TOL`` times the reference maximum;
* rates.csv text fields are equal; numbers agree to ``RATES_RTOL`` relative
  (nan matches nan).

Report records.  The same emulation, extended to 1-ulp noise on the assembled
generator matrix and on every dense solve, eig and expm output, moved the
records as follows (checks-1d and dense-2d, two noise seeds each; evolve-1d):

* records built on the rate fit (``FITTED``) by at most 1.4e-8 relative, as
  rates.csv: they agree to ``RATES_RTOL`` relative;
* records that are roundoff residuals (``RESIDUALS``: reference values of
  3e-44 to 2.3e-13) by factors of up to 2.9: they must stay within
  ``RESID_FACTOR`` times the reference, or within ``RESID_FLOOR`` times the
  record's own pass tolerance, whichever is larger;
* every other record (route agreement, spectral gap, Lyapunov and Harris
  constants, ...) by at most 5.5e-13 relative: they agree to ``RECORD_RTOL``
  relative, a margin of about 2e3.

A solve, eigenvector or expm that is less accurate than a reordering of the
same dense work, or one that changes the answer, fails these.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

MASS_TOL = 1e-10
COORD_TOL = 1e-12
STEADY_TOL = 1e-9
RATES_RTOL = 1e-6
RECORD_RTOL = 1e-9
RESID_FACTOR = 100.0
RESID_FLOOR = 1e-6
SEEDED = {"gp-bracket-lower", "gp-bracket-upper", "integration-by-parts",
          "poincare-wirtinger-bank", "nash-chain-constant"}
FITTED = {"exponential-rate-positive", "exponential-fit-quality"}
RESIDUALS = {"mass-conservation", "positivity-floor", "leading-eigenvalue",
             "eigenvector-matches-solve", "entropy-nonincreasing"}
RECORDS_HEADER = ["name", "measured", "tolerance"]
RECORD = re.compile(r"(\S+): measured=(\S+) predicted=\S+ tol=(\S+) -> ")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_report(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [ln for ln in lines if " -> " in ln]
    problems = [f"report record failed: {ln}" for ln in records if not ln.endswith("-> pass")]
    if not records:
        problems.append("report.txt has no records")
    if not lines or lines[-1] != "PASS":
        problems.append("report.txt does not end in PASS")
    return problems


def report_records(path: Path) -> list[list[str]]:
    """``[name, measured, tolerance]`` of every seed-independent record, as printed."""
    records = (RECORD.match(ln) for ln in path.read_text(encoding="utf-8").splitlines())
    return [list(m.groups()) for m in records if m and m.group(1) not in SEEDED]


def _record_ok(name: str, value: float, ref: float, tol: float) -> bool:
    if name in RESIDUALS:
        return abs(value) <= max(RESID_FACTOR * abs(ref), RESID_FLOOR * tol)
    rtol = RATES_RTOL if name in FITTED else RECORD_RTOL
    return abs(value - ref) <= rtol * max(abs(value), abs(ref))


def compare_records(path: Path, ref: Path) -> list[str]:
    rows = report_records(path)
    _, rrows = read_csv(ref)
    if [r[0] for r in rows] != [r[0] for r in rrows]:
        return [f"report records {[r[0] for r in rows]} differ from reference {[r[0] for r in rrows]}"]
    return [
        f"report record {name} measured={value} differs from reference {rvalue}"
        for (name, value, _), (_, rvalue, tol) in zip(rows, rrows)
        if not _record_ok(name, float(value), float(rvalue), float(tol))
    ]


def check_steady(path: Path, params: dict) -> list[str]:
    d, n, L = int(params["d"]), int(params["n"]), float(params["L"])
    _, rows = read_csv(path)
    if len(rows) != n**d:
        return [f"steady.csv has {len(rows)} rows, expected {n**d}"]
    dens = [float(r[-1]) for r in rows]
    mass = math.fsum(dens) * (2.0 * L / n) ** d
    problems = []
    if abs(mass - 1.0) > MASS_TOL:
        problems.append(f"steady.csv mass {mass!r} is not 1 within {MASS_TOL:g}")
    if not min(dens) > 0.0:
        problems.append(f"steady.csv minimum {min(dens)!r} is not positive")
    return problems


def compare_steady(path: Path, ref: Path, L: float) -> list[str]:
    head, rows = read_csv(path)
    rhead, rrows = read_csv(ref)
    if head != rhead or len(rows) != len(rrows):
        return [f"steady.csv shape {head} x {len(rows)} differs from reference {rhead} x {len(rrows)}"]
    scale = max(abs(float(r[-1])) for r in rrows)
    worst_x = worst_f = 0.0
    for row, rrow in zip(rows, rrows):
        vals, rvals = [float(v) for v in row], [float(v) for v in rrow]
        worst_x = max([worst_x] + [abs(a - b) for a, b in zip(vals[:-1], rvals[:-1])])
        worst_f = max(worst_f, abs(vals[-1] - rvals[-1]))
    problems = []
    if worst_x > COORD_TOL * L:
        problems.append(f"steady.csv coordinates differ from reference by {worst_x:.3g}")
    if worst_f > STEADY_TOL * scale:
        problems.append(
            f"steady.csv density differs from reference by {worst_f / scale:.3g} of its maximum "
            f"(tolerance {STEADY_TOL:g})"
        )
    return problems


def _same(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RATES_RTOL * max(abs(x), abs(y))


def compare_rates(path: Path, ref: Path) -> list[str]:
    head, rows = read_csv(path)
    rhead, rrows = read_csv(ref)
    if head != rhead or len(rows) != len(rrows):
        return [f"rates.csv shape {head} x {len(rows)} differs from reference {rhead} x {len(rrows)}"]
    return [
        f"rates.csv {row[0]}.{col} = {a} differs from reference {b}"
        for row, rrow in zip(rows, rrows)
        for col, a, b in zip(head, row, rrow)
        if not _same(a, b)
    ]


def check_outputs(out: Path, params: dict, reference: Path | None) -> list[str]:
    """Every problem found in one scenario's output directory (empty: pass)."""
    problems = check_report(out / "report.txt") + check_steady(out / "steady.csv", params)
    if reference is not None:
        problems += compare_steady(out / "steady.csv", reference / "steady.csv", float(params["L"]))
        problems += compare_rates(out / "rates.csv", reference / "rates.csv")
        problems += compare_records(out / "report.txt", reference / "records.csv")
    return problems
