"""Outside-in scenario benchmark for fracfp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --write-reference

Run from the root of a source checkout.  run.py writes a scenario config
for the workload, with ``seed = N``, and runs it in fresh worker processes
(worker.py), one at a time, until S seconds have passed (at least once).
Each worker imports fracfp from ``src/``, so caches start cold as for a CLI
user; BLAS threads are fixed to ``BLAS_THREADS``.  Every scenario's outputs
are checked (check.py); a run that raises, ends in a FAIL verdict or fails
the check counts as failed.

``--trace 0`` prints the end-to-end metrics: medians of ``scenario_s``,
``setup_s`` (every scenario worker, topped up with set-up-only workers to
``MIN_SETUPS`` samples) and ``peak_rss_mb``.  ``--trace 1`` alternates plain
and traced workers and prints the per-layer metrics of spans.py, as medians
over the traced workers, plus ``trace.overhead_s`` (traced minus plain
scenario median).  Metric names and units come from BENCHMARK.json.  The last
line of standard output is the JSON result.

``--write-reference`` runs the workload once and stores its steady.csv,
rates.csv and seed-independent report records (records.csv) as the reference,
after the report and invariant checks pass.
Working files go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import RECORDS_HEADER, check_outputs, report_records
from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCE = HERE / "reference"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread: with two, the n = 64 variant of dense-2d took 31.6-39.3 s
# over four runs and the first eig of a process can run 4x slower than later
# ones; with one thread it took 48.8-51.9 s.
BLAS_THREADS = 1
MIN_SETUPS = 3
RUN_LIMIT_S = 170.0  # no worker outlives this many seconds after the runner started

WORKLOADS = {
    "evolve-1d": {"d": 1, "L": 20, "n": 2048, "alpha": 1, "gamma": 2, "k": 0.5,
                  "suite": "rates", "horizon": 10},
    # n = 32 (N = 1024), not the N = 4096 ceiling: one n = 64 scenario takes
    # about 50 s, which leaves too little of the benchmark's time for the
    # samples the other workloads need to be steady.
    "dense-2d": {"d": 2, "L": 10, "n": 32, "alpha": 1, "gamma": 2, "k": 0.5,
                 "suite": "steady"},
    "checks-1d": {"d": 1, "L": 10, "n": 512, "alpha": 1, "gamma": 2, "k": 0.5,
                  "method": "quadrature", "diffusion_solver": "implicit-matrix",
                  "suite": "all", "horizon": 10},
}
# Raises ValueError from decay_fit (9 points in the fit window) instead of
# giving a FAIL record; fixture of check_known_defect.py (ROADMAP item 4).
KNOWN_DEFECT = {"d": 1, "L": 12, "n": 2048, "alpha": 1.5, "gamma": 2.5, "k": 0.5,
                "p": 1.2, "suite": "rates", "horizon": 8}


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine_record() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "blas_threads": BLAS_THREADS,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONNOUSERSITE"] = "1"
    return env


def write_config(path: Path, name: str, params: dict, seed: int) -> None:
    lines = [f"name = {name}"] + [f"{k} = {v}" for k, v in params.items()] + [f"seed = {seed}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Runner:
    """Runs workers one at a time inside the run's time limit."""

    def __init__(self, name: str, params: dict, seed: int, reference: Path | None):
        self.name, self.params, self.reference = name, params, reference
        self.started = time.monotonic()
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "scenario.cfg"
        write_config(self.config, name, params, seed)
        self.env = worker_env()
        self.count = 0

    def worker(self, *flags: str) -> dict:
        """One worker process; its JSON result, or {"error": ...}."""
        self.count += 1
        run_dir = self.dir / f"{self.count:03d}"
        run_dir.mkdir()
        result_path = run_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(self.config),
               "--out", str(run_dir / "out"), "--result", str(result_path), *flags]
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        with open(run_dir / "worker.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                return {"error": f"worker stopped after the {RUN_LIMIT_S:.0f} s run limit",
                        "dir": str(run_dir)}
        if not result_path.exists():
            tail = (run_dir / "worker.log").read_text(encoding="utf-8").strip().splitlines()[-1:]
            return {"error": f"worker exited with code {proc.returncode}: {' '.join(tail)}",
                    "dir": str(run_dir)}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["dir"] = str(run_dir)
        return result

    def setup_only(self) -> float:
        result = self.worker("--setup-only")
        if "setup_s" not in result:
            raise SystemExit(f"set-up failed: {result.get('error')}")
        return result["setup_s"]

    def scenario(self, traced: bool) -> dict:
        result = self.worker(*(["--trace"] if traced else []))
        result["traced"] = traced
        if "error" in result:
            result["problems"] = [result["error"].strip().splitlines()[-1]]
        elif result["verdict"] != "PASS":
            result["problems"] = ["report verdict FAIL"]
        else:
            result["problems"] = check_outputs(Path(result["dir"]) / "out", self.params, self.reference)
        return result


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Scenario results and set-up samples of one run."""
    kinds = (False, True) if trace else (False,)
    stop = time.monotonic() + seconds
    results: list[dict] = []
    while True:
        results.append(runner.scenario(kinds[len(results) % len(kinds)]))
        longest = max(r.get("scenario_s", 0.0) + r.get("setup_s", 0.0) for r in results)
        now = time.monotonic()
        if len(results) >= len(kinds) and (
            now >= stop or now + longest > runner.started + RUN_LIMIT_S - 10.0
        ):
            break
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.setup_only())
    return results, setups


def median_of(results: list[dict], key: str) -> tuple[float, int]:
    """Median over the passing results, else over every result that has the key."""
    values = [r[key] for r in results if not r["problems"]] or [r[key] for r in results if key in r]
    if not values:
        raise SystemExit(f"no worker produced {key}")
    return statistics.median(values), len(values)


def summarize(results: list[dict], setups: list[float], trace: bool) -> tuple[dict, list[str]]:
    plain = [r for r in results if not r["traced"]]
    if not trace:
        samples = {"setup_s": (statistics.median(setups), len(setups))}
        for key in ("scenario_s", "peak_rss_mb"):
            samples[key] = median_of(plain, key)
        values = {key: value for key, (value, _) in samples.items()}
        notes = {key: f" (median of {count})" for key, (_, count) in samples.items()}
        # CPU time next to wall time: tells a slower program from a busier machine
        notes["scenario_s"] += f", CPU {median_of(plain, 'scenario_cpu_s')[0]:.6g} s"
    else:
        traced = [r for r in results if r["traced"] and "spans" in r]
        if not traced:
            raise SystemExit("no traced worker produced spans")
        per_run = [layer_metrics(r["spans"], r.get("wall_times", {})) for r in traced]
        values = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
        traced_s, _ = median_of(traced, "scenario_s")
        plain_s, _ = median_of(plain, "scenario_s")
        values["trace.overhead_s"] = traced_s - plain_s
        notes = {"trace.overhead_s": f" (traced {traced_s:.6g} s over {len(traced)}, "
                                     f"plain {plain_s:.6g} s over {len(plain)})"}
    units = metric_units(trace)
    if set(units) != set(values):
        raise SystemExit(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    lines = [f"  {key:<26} {values[key]:.6g} {unit}{notes.get(key, '')}"
             for key, unit in units.items()]
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}, lines


def write_reference(runner: Runner) -> int:
    result = runner.scenario(False)  # the runner has no reference to compare with
    if result["problems"]:
        print("\n".join(result["problems"]), file=sys.stderr)
        return 1
    out = Path(result["dir"]) / "out"
    dest = REFERENCE / runner.name
    dest.mkdir(parents=True, exist_ok=True)
    for fname in ("steady.csv", "rates.csv"):
        shutil.copyfile(out / fname, dest / fname)
    with open(dest / "records.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([RECORDS_HEADER] + report_records(out / "report.txt"))
    print(f"reference written to {dest}")
    return 0


def run(name: str, params: dict, seed: int, seconds: float, trace: bool,
        reference: Path | None) -> tuple[dict, list[dict]]:
    """Measure one workload and print the report; the JSON result and the runs."""
    runner = Runner(name, params, seed, reference)
    results, setups = measure(runner, seconds, trace)
    failed = [r for r in results if r["problems"]]
    metrics, lines = summarize(results, setups, trace)
    machine = machine_record()
    machine.update(next((r["versions"] for r in results if "versions" in r), {}))
    (runner.dir / "machine.json").write_text(json.dumps(machine, indent=1), encoding="utf-8")
    print(f"workload {name} seed {seed}: {len(results)} scenario run(s), {len(failed)} failed, "
          f"trace={int(trace)}")
    for r in failed:
        print(f"  FAILED {r['dir']}: {'; '.join(r['problems'][:3])}")
    print("\n".join(lines))
    print(f"  machine {json.dumps(machine)}")
    summary = {"correct": not failed, "attempted": len(results), "failed": len(failed),
               "metrics": metrics}
    print(json.dumps(summary))
    return summary, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "fracfp" / "cli.py").is_file():
        print(f"no fracfp sources under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32  # fracfp seeds numpy generators, which need seed >= 0
    if args.write_reference:
        return write_reference(Runner(args.workload, WORKLOADS[args.workload], seed, None))
    run(args.workload, WORKLOADS[args.workload], seed, args.seconds, bool(args.trace),
        REFERENCE / args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
