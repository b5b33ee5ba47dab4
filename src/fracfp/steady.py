"""Stationary states of the generator: three independent routes plus diagnostics.

* evolution route: integrate a probe density until the increments stall;
* linear-solve route: bordered dense system (Lambda F = 0 with one row
  replaced by the unit-mass constraint);
* eigenpair route: leading eigenvalue / eigenvector of the dense generator
  (the zero eigenvalue is simple with a positive eigenvector, the numeric
  shadow of uniqueness).

For the quadratic-potential drift E = x the equilibrium is explicit in
Fourier space: F^(xi) = exp(-(2 pi |xi|)^alpha / alpha); at alpha = 1 this is
the Cauchy density 1/(pi(1 + x^2)) in one dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import linalg as _la

from fracfp.grid import Field, Grid, integrate, line_fit
from fracfp.operators import GeneratorMatrix, OperatorConfig, box_frequencies, generator_apply
from fracfp.evolution import SchemeConfig, evolve

__all__ = [
    "SteadyState",
    "closed_form_equilibrium",
    "steady_by_evolution",
    "steady_by_linear_solve",
    "leading_eigenpair",
    "tail_exponent",
]


@dataclass(frozen=True)
class SteadyState:
    field: Field
    route: str
    residual: float  # ||Lambda F||_inf through the conservative generator

    @property
    def mass(self) -> float:
        return integrate(self.field)


def _finalize(grid: Grid, values: np.ndarray, cfg: OperatorConfig, route: str) -> SteadyState:
    mass = float(np.sum(values) * grid.cell_volume)
    if mass <= 0:
        raise ValueError(f"{route} produced a nonpositive-mass state")
    vals = values / mass
    res = float(np.max(np.abs(generator_apply(Field(grid, vals), cfg).values)))
    return SteadyState(field=Field(grid, vals, tag="density"), route=route, residual=res)


def closed_form_equilibrium(alpha: float, grid: Grid, gamma: float = 2.0) -> Field:
    """Equilibrium for E = x via its Fourier transform exp(-(2pi|xi|)^a / a)."""
    if gamma != 2.0:
        raise ValueError("the closed form is specific to the linear drift (gamma = 2)")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    xi = box_frequencies(grid)
    fhat = np.exp(-((2.0 * math.pi * reduce(np.hypot, xi)) ** alpha) / alpha).astype(complex)
    # phase shift puts the inverse transform on the cell centers -L + (j+1/2)h
    fhat *= np.exp(2j * math.pi * reduce(np.add, xi) * (-grid.L + grid.h / 2.0))
    axes = tuple(range(grid.d))
    vals = np.fft.irfftn(fhat, grid.shape, axes=axes) / grid.cell_volume
    vals = vals / (np.sum(vals) * grid.cell_volume)
    return Field(grid, vals, tag="density")


def steady_by_evolution(
    grid: Grid,
    cfg: OperatorConfig,
    scheme: SchemeConfig | None = None,
    tol: float = 1e-5,
    f0: Field | None = None,
    max_horizon: float = 400.0,
    chunk: float = 1.0,
) -> SteadyState:
    """Evolve a probe density until ||f(t + chunk) - f(t)||_{L^1} < tol.

    Requires gamma > 2 - alpha (no equilibrium is claimed outside that
    range); non-convergence within max_horizon raises with the offending
    parameter pair.
    """
    if not cfg.gamma > 2.0 - cfg.alpha:
        raise ValueError(
            f"steady state requires gamma > 2 - alpha "
            f"(got gamma={cfg.gamma}, alpha={cfg.alpha}): the drift must beat "
            "the jumps at infinity"
        )
    scheme = scheme or SchemeConfig()
    if f0 is None:
        vals = np.exp(-grid.radius2())
        vals /= np.sum(vals) * grid.cell_volume
        f0 = Field(grid, vals, tag="density")
    cur = f0
    t = 0.0
    vol = grid.cell_volume
    while t < max_horizon:
        tr = evolve(cur, chunk, cfg, scheme)
        nxt = tr.snapshots[-1]
        diff = float(np.sum(np.abs(nxt.values - cur.values)) * vol)
        cur = nxt
        t += chunk
        if diff < tol:
            return _finalize(grid, cur.values, cfg, "evolution")
    raise RuntimeError(
        f"no stationary state within horizon {max_horizon} for "
        f"(alpha={cfg.alpha}, gamma={cfg.gamma}); the pair sits outside the "
        "verified convergence regime or tol is too tight"
    )


def steady_by_linear_solve(gm: GeneratorMatrix) -> SteadyState:
    """Bordered solve: Lambda F = 0 with the row at the node nearest the
    origin replaced by the unit-mass constraint (best conditioning: F peaks
    there)."""
    if gm.which != "forward":
        raise ValueError("linear solve expects the forward generator")
    grid = gm.grid
    a = gm.mat.copy()
    j0 = int(np.argmin(grid.radius2().ravel(order="C")))
    a[j0, :] = grid.cell_volume
    b = np.zeros(grid.size)
    b[j0] = 1.0
    sol = _la.solve(a, b)
    vals = sol.reshape(grid.shape)
    resid_rows = gm.mat @ sol
    resid_rows[j0] = 0.0
    out = _finalize(grid, vals, gm.cfg, "linear-solve")
    return SteadyState(field=out.field, route=out.route, residual=float(np.max(np.abs(resid_rows))))


def leading_eigenpair(gm: GeneratorMatrix):
    """(lambda_max, eigenvector as mass-1 Field, spectral gap).

    The conservative generator has column sums zero, so 0 is an eigenvalue;
    simplicity plus positivity of the eigenvector witness uniqueness of the
    stationary state.  A complex leading eigenvalue beyond roundoff is an
    error.
    """
    lam, vecs = _la.eig(gm.mat)
    order = np.argsort(-lam.real)
    lead = lam[order[0]]
    scale = float(np.abs(gm.mat).max())
    if abs(lead.imag) > 1e-8 * scale:
        raise ArithmeticError(f"leading eigenvalue is complex: {lead:g}")
    vec = vecs[:, order[0]].real
    mass = float(np.sum(vec) * gm.grid.cell_volume)
    if mass == 0.0:
        raise ArithmeticError("leading eigenvector has zero mass")
    vec = vec / mass
    gap = float(lead.real - lam[order[1]].real)
    field = Field(gm.grid, vec.reshape(gm.grid.shape))
    return float(lead.real), field, gap


def tail_exponent(F: Field, window: tuple[float, float] | None = None):
    """Least-squares slope of log F against log<x> on a radial window.

    Returns (a_hat, r_squared) with F ~ <x>^(-a_hat); the window defaults to
    [L/4, 3L/4] and must contain at least 8 nodes with F > 0.
    """
    grid = F.grid
    if window is None:
        window = (grid.L / 4.0, 3.0 * grid.L / 4.0)
    lo, hi = window
    r2 = grid.radius2().ravel(order="C")
    vals = F.values.ravel(order="C")
    mask = (r2 >= lo**2) & (r2 <= hi**2) & (vals > 0.0)
    if np.count_nonzero(mask) < 8:
        raise ValueError("tail-fit window contains fewer than 8 usable nodes")
    lx = 0.5 * np.log1p(r2[mask])  # log <x>
    slope, _, r2fit = line_fit(lx, np.log(vals[mask]))
    return float(-slope), r2fit
