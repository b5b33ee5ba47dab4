"""The valid config space at CLI scale: which records FAIL, and where.

    PYTHONPATH=src python tests/sweep_configs.py [--out DIR]

Runs every valid config of a fixed grid, one after another: 1d n = 512 and
2d n = 32 on L = 10, alpha in ALPHAS, gamma in GAMMAS (both sides of 2),
each suite, with k = min(0.5, 0.6 min(alpha, 1)) and p = 1.1.  Then it
prints, for each record that FAILs on some config, the configs that fail it
with their measured values and tolerances.  Each run writes its outputs to
DIR/<name> (a temporary directory without --out); a config that raises is
listed under "crash".  Progress goes to stderr.  Not a test (pytest does
not collect this file): the whole grid takes minutes.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

from fracfp.cli import FMT, SUITES, ConfigError, ScenarioConfig, run_scenario, validate_config

GRIDS = ((1, 512), (2, 32))  # (d, n)
ALPHAS = (0.3, 0.5, 1.0, 1.5, 1.9)
GAMMAS = (1.5, 2.0, 2.5, 3.0)


def sweep_configs() -> list[ScenarioConfig]:
    """The grid of configs, valid or not, in a fixed order."""
    return [ScenarioConfig(name=f"d{d}-alpha{alpha:g}-gamma{gamma:g}-{suite}", d=d, L=10.0, n=n,
                           alpha=alpha, gamma=gamma, k=min(0.5, 0.6 * min(alpha, 1.0)), p=1.1,
                           suite=suite)
            for (d, n), alpha, gamma, suite in itertools.product(GRIDS, ALPHAS, GAMMAS, SUITES)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="directory for each run's outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    configs = sweep_configs()
    fails = defaultdict(list)  # record name -> (config name, k, measured, tolerance)
    valid = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out or tmp)
        for cfg in configs:
            try:
                validate_config(cfg)
            except ConfigError:
                continue
            valid += 1
            t0 = time.perf_counter()
            try:
                report = run_scenario(cfg, out / cfg.name)
            except Exception:  # a crash, listed with the FAIL records
                traceback.print_exc()
                fails["crash"].append((cfg.name, cfg.k, float("nan"), float("nan")))
                failed += 1
                continue
            bad = [rec for rec in report.records if not rec.passed]
            for rec in bad:
                fails[rec.name].append((cfg.name, cfg.k, rec.measured, rec.tolerance))
            failed += bool(bad)
            print(f"{cfg.name}: {'FAIL' if bad else 'PASS'} ({time.perf_counter() - t0:.1f} s)",
                  file=sys.stderr)
    print(f"{len(configs)} configs, {valid} valid, {failed} end in FAIL")
    for name, rows in sorted(fails.items(), key=lambda item: (-len(item[1]), item[0])):
        print(f"{name}: {len(rows)} configs")
        for cfg_name, k, measured, tol in rows:
            print(f"  {cfg_name} (k={k:g}): measured={FMT % measured} tol={tol:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
