"""One benchmark worker: a fresh process that runs one scenario like `fracfp run`.

    python3 perfbench/worker.py --config CFG --out DIR --result JSON [--trace] [--setup-only]

The worker imports ``fracfp.cli`` from the checkout's ``src/``, parses and
validates CFG with ``parse_config`` (together: ``setup_s``), then calls
``run_scenario`` with DIR as the output directory (``scenario_s``, and its CPU
time ``scenario_cpu_s``).  It writes a JSON result with the timings, the
verdict, the suite wall times, its peak resident memory and, on an exception,
the traceback.  With ``--trace`` the layer functions are
wrapped first (see spans.py) and the span list is stored in the result.
The exit code is 0 when ``run_scenario`` returned, whatever its verdict.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def versions() -> dict:
    import numpy
    import scipy

    info = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result: dict = {}

    t0 = time.perf_counter()
    import fracfp.cli as cli

    cfg = cli.parse_config(args.config)
    result["setup_s"] = time.perf_counter() - t0
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"fracfp was imported from {cli.__file__}, not from {SRC}")

    code = 0
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            report = cli.run_scenario(cfg, args.out)
        except Exception:
            result["error"] = traceback.format_exc()
            code = 1
        else:
            result["verdict"] = "PASS" if report.overall_pass else "FAIL"
            result["wall_times"] = report.wall_times
        result["scenario_s"] = time.perf_counter() - t1
        result["scenario_cpu_s"] = time.process_time() - c1
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            result["spans"] = tracer.spans
    result["versions"] = versions()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
