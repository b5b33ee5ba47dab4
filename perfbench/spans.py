"""Span recording around fracfp's layer entry points, from outside the package.

``Tracer.install`` replaces each layer function listed in ``LAYERS`` with a
wrapper, in every fracfp namespace that calls it (the modules import these
functions by name, so each caller's binding is patched).  A wrapper passes
arguments and return values through unchanged and appends one span
``{name, start, end, parent, ...}`` to an in-memory list; the worker writes
the list out once the scenario has finished.

``layer_metrics`` turns a span list into the per-layer metrics.  Times are
self times: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, defining module, function, namespaces whose binding is patched)
LAYERS = (
    ("cli.run_scenario", "fracfp.cli", "run_scenario", ("fracfp.cli",)),
    ("evolution.evolve", "fracfp.evolution", "evolve",
     ("fracfp.cli", "fracfp.steady", "fracfp.rates")),
    ("steady.evolution", "fracfp.steady", "steady_by_evolution", ("fracfp.cli",)),
    ("steady.linear_solve", "fracfp.steady", "steady_by_linear_solve", ("fracfp.cli",)),
    ("steady.eigenpair", "fracfp.steady", "leading_eigenpair", ("fracfp.cli",)),
    ("operators.assemble", "fracfp.operators", "assemble_generator_matrix",
     ("fracfp.cli", "fracfp.evolution")),
    # the cached dense jump matrix: built by assembly, or first by the
    # implicit-matrix stepper (then assembly gets a cache hit)
    ("operators.jump_matrix", "fracfp.operators", "_jump_matrix",
     ("fracfp.operators", "fracfp.evolution")),
    ("evolution.implicit_factor", "fracfp.evolution", "_implicit_factor", ("fracfp.evolution",)),
    ("operators.stencil", "fracfp.operators", "get_stencil",
     ("fracfp.operators", "fracfp.evolution", "fracfp.functionals")),
    ("rates.harris", "fracfp.rates", "harris_contraction", ("fracfp.cli",)),
    ("rates.lyapunov", "fracfp.rates", "lyapunov_check", ("fracfp.cli",)),
    ("functionals.checks", "fracfp.functionals", "field_bank", ("fracfp.cli",)),
    ("functionals.checks", "fracfp.functionals", "gp_equivalence_ratios", ("fracfp.cli",)),
    ("functionals.checks", "fracfp.functionals", "carre_du_champ", ("fracfp.cli",)),
    ("functionals.checks", "fracfp.functionals", "poincare_wirtinger_check", ("fracfp.cli",)),
    ("functionals.checks", "fracfp.functionals", "nash_chain_check", ("fracfp.cli",)),
)


def _evolve_attrs(traj) -> dict:
    return {"steps": int(traj.meta["nsteps"])}


def _assemble_attrs(gm) -> dict:
    return {"size": int(gm.size)}


# extra span fields read off a layer's return value
ATTRS = {"evolution.evolve": _evolve_attrs, "operators.assemble": _assemble_attrs}


class Tracer:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.update(attrs(result))
            return result

        return traced

    def install(self) -> None:
        """Patch every binding in LAYERS; raise if one no longer exists."""
        for name, home, func, callers in LAYERS:
            original = getattr(importlib.import_module(home), func)
            wrapper = self.wrap(name, original)
            for caller in callers:
                mod = importlib.import_module(caller)
                if getattr(mod, func, None) is not original:
                    raise RuntimeError(f"{caller}.{func} is not {home}.{func}; update LAYERS")
                setattr(mod, func, wrapper)


def self_times(spans: list[dict]) -> list[float]:
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], wall_times: dict) -> dict:
    """Per-layer metrics of one traced scenario (see BENCHMARK.json)."""
    own = self_times(spans)

    def busy(name: str) -> float:
        return sum((t for s, t in zip(spans, own) if s["name"] == name), 0.0)

    def calls(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    evolves = calls("evolution.evolve")
    steps = sum(s["steps"] for s in evolves)
    evolve_s = busy("evolution.evolve")
    chunks = sum(1 for s in evolves
                 if s["parent"] is not None and spans[s["parent"]]["name"] == "steady.evolution")
    assembled = calls("operators.assemble")
    return {
        "evolution.evolve_s": evolve_s,
        "evolution.evolve_calls": len(evolves),
        "evolution.steps": steps,
        "evolution.step_us": 1e6 * evolve_s / steps if steps else 0.0,
        "evolution.implicit_factor_s": busy("evolution.implicit_factor"),
        "steady.evolution_s": busy("steady.evolution"),
        "steady.evolution_chunks": chunks,
        "steady.linear_solve_s": busy("steady.linear_solve"),
        "steady.eigenpair_s": busy("steady.eigenpair"),
        "operators.assemble_s": busy("operators.assemble") + busy("operators.jump_matrix"),
        "operators.assemble_calls": len(assembled),
        "operators.dense_mb": sum(8.0 * s["size"] ** 2 for s in assembled) / 1e6,
        "operators.stencil_s": busy("operators.stencil"),
        "rates.harris_s": busy("rates.harris"),
        "rates.lyapunov_s": busy("rates.lyapunov"),
        "functionals.checks_s": busy("functionals.checks"),
        "cli.evolve_s": wall_times.get("evolve", 0.0),
        "cli.steady_s": wall_times.get("steady", 0.0),
        "cli.rates_s": wall_times.get("rates", 0.0),
        "cli.inequalities_s": wall_times.get("inequalities", 0.0),
        "cli.other_s": busy("cli.run_scenario"),
    }
