"""Stationary states of the generator: three independent routes plus diagnostics.

* evolution route: integrate a probe density until the increments stall;
* linear-solve route: bordered dense system (Lambda F = 0 with one row
  replaced by the unit-mass constraint);
* eigenpair route: leading eigenvalue / eigenvector of the dense generator
  (the zero eigenvalue is simple with a positive eigenvector, the numeric
  shadow of uniqueness).

Both dense routes work in a symmetry-adapted basis.  The axis reflections
x_a -> -x_a that commute with the generator (every axis, for a radial force
and the cell-centered grid), and the axis swap where it commutes too (a
radial force in 2d: the symmetry group of the square; Fassler and Stiefel,
Group Theoretical Methods and Their Applications, 1992), split the fields
into sectors (operators.orbit_maps), and the matrix is block diagonal with
one block per sector (GeneratorMatrix.sectors: at n = 32 in 2d, 136, 120,
256 standing for two, 136 and 120 unknowns for 1024 nodes).  The stationary
state lies in the fully even sector, which the linear-solve route builds
and solves alone, on up to operators.MAX_DENSE unknowns (2080 at 2d
n = 128); the eigenpair route builds every sector, takes the spectrum of
each and the eigenvectors of the fully even one, with at most
MAX_EIGEN_SECTOR unknowns in any.  Both call numpy.linalg (solve, eig,
eigvals); eig returns a real spectrum as real arrays, which the eigenpair
route reads as it reads a complex one.

For the quadratic-potential drift E = x the equilibrium is explicit in
Fourier space: F^(xi) = exp(-(2 pi |xi|)^alpha / alpha); at alpha = 1 this is
the Cauchy density 1/(pi(1 + x^2)) in one dimension.

A route that breaks down raises grid.CheckFailure, named after the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import reduce

import numpy as np
from numpy import linalg as _la

from fracfp.grid import (
    CheckFailure,
    Field,
    Grid,
    integrate,
    line_fit,
    normalized_gaussian,
)
from fracfp.operators import (
    MAX_DENSE,
    GeneratorMatrix,
    OperatorConfig,
    box_frequencies,
    generator_apply,
    readonly,
)
from fracfp.evolution import SchemeConfig, evolve, step_count, step_size

__all__ = [
    "MAX_EIGEN_SECTOR",
    "SteadyState",
    "closed_form_equilibrium",
    "steady_by_evolution",
    "steady_by_linear_solve",
    "leading_eigenpair",
    "tail_exponent",
]


@dataclass(frozen=True)
class SteadyState:
    """A stationary state (mass 1) from one route, with its generator residual.

    The evolution route also keeps ``path``: the read-only stack of the
    states it visited at the start of each chunk of ceil(1/dt) steps,
    path[j] at chunk j (its probe f0 first, its last unnormalized state
    last), the format of Trajectory.path.  evolve replays a run from the
    same f0 and scheme on it: each chunk whose start is known becomes one
    lane of a stacked step, certified by ending bit for bit on the next path
    state.
    A route resumed from an evolve run's path keeps the same states, bit for
    bit.  The other routes have no path.
    """

    field: Field
    route: str
    residual: float  # ||Lambda F||_inf through the conservative generator
    path: np.ndarray | None = dataclass_field(default=None, repr=False, compare=False)

    @property
    def mass(self) -> float:
        return integrate(self.field)


# steady_by_evolution gives up after this many chunks of ceil(1/dt) steps: a
# chunk is at least one time unit, so the cap is at least 400 time units
# (about 411 at 2d L = 8, n = 16, where a chunk is 16 steps of dt = 0.0643)
HORIZON_CAP = 400.0


def _finalize(grid: Grid, values: np.ndarray, route: str) -> Field:
    """The state normalized to unit mass."""
    mass = float(np.sum(values) * grid.cell_volume)
    if mass <= 0:
        raise ValueError(f"{route} produced a nonpositive-mass state")
    return Field(grid, values / mass)


def closed_form_equilibrium(alpha: float, grid: Grid) -> Field:
    """Equilibrium for the linear drift E = x (gamma = 2) via its Fourier
    transform exp(-(2pi|xi|)^a / a)."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    xi = box_frequencies(grid)
    fhat = np.exp(-((2.0 * math.pi * reduce(np.hypot, xi)) ** alpha) / alpha).astype(complex)
    # phase shift puts the inverse transform on the cell centers -L + (j+1/2)h
    fhat *= np.exp(2j * math.pi * reduce(np.add, xi) * (-grid.L + grid.h / 2.0))
    axes = tuple(range(grid.d))
    vals = np.fft.irfftn(fhat, grid.shape, axes=axes) / grid.cell_volume
    vals = vals / (np.sum(vals) * grid.cell_volume)
    return Field(grid, vals)


def steady_by_evolution(
    grid: Grid,
    cfg: OperatorConfig,
    scheme: SchemeConfig | None = None,
    tol: float = 1e-5,
    f0: Field | None = None,
    path: np.ndarray | None = None,
) -> SteadyState:
    """Evolve a probe density, one chunk of ceil(1/dt) steps at a time,
    until the L1 increment over a chunk, ||f(t + chunk dt) - f(t)||_{L^1},
    falls below tol.

    Requires gamma > 2 - alpha (no equilibrium is claimed outside that
    range).  ``path`` may hold states the route would visit, already
    stepped from the same f0 under the same operator and scheme: the
    Trajectory.path of an evolve run from f0.  The route reads its
    increments off those states and steps only after the last of them;
    ValueError when path[0] is not f0.  Raises CheckFailure "horizon" when
    HORIZON_CAP chunks pass first (measured = the last L1 increment,
    tolerance = tol), and passes on the CheckFailure of a failed evolve
    step; both count their step from the start of the route, resumed chunks
    included.
    The result keeps the chunk-start states as ``path``.
    """
    if not cfg.gamma > 2.0 - cfg.alpha:
        raise ValueError(
            f"steady state requires gamma > 2 - alpha "
            f"(got gamma={cfg.gamma}, alpha={cfg.alpha}): the drift must beat "
            "the jumps at infinity"
        )
    scheme = scheme or SchemeConfig()
    cur = (f0 if f0 is not None else normalized_gaussian(grid)).values
    if path is None:
        path = cur[None]
    elif path.shape[1:] != grid.shape or not np.array_equal(path[0], cur):
        raise ValueError("path[0] is not f0: the path starts from another field")
    dt = step_size(grid, cfg, scheme)
    chunk = step_count(1.0, dt)  # the ceil(1/dt) steps of one evolve of horizon 1
    states = list(path)  # states[j]: the state after j chunks
    vol = grid.cell_volume
    for t in range(1, math.ceil(HORIZON_CAP) + 1):
        if t == len(states):
            try:
                states.append(evolve(Field(grid, cur), 1.0, cfg, scheme).snapshots[-1].values)
            except CheckFailure as exc:
                exc.step += (t - 1) * chunk  # count along the route, not within the chunk
                raise
        diff = float(np.sum(np.abs(states[t] - cur)) * vol)
        cur = states[t]
        if diff < tol:
            field = _finalize(grid, cur, "evolution")
            res = float(np.max(np.abs(generator_apply(field, cfg).values)))
            return SteadyState(field=field, route="evolution", residual=res,
                               path=readonly(np.stack(states[: t + 1])))
    raise CheckFailure("horizon", diff, tol, t * chunk, dt)


def steady_by_linear_solve(gm: GeneratorMatrix) -> SteadyState:
    """Bordered solve on the fully even sector: Lambda F = 0 with the row at
    the representative node nearest the origin (F peaks there: best
    conditioning) replaced by the unit-mass constraint, each representative
    weighted by the cell volume times its orbit size.  The column sums of
    Lambda vanish, so sizes^T B = 0 for the sector matrix B, and the
    replaced row holds to roundoff as well.  Builds that sector only;
    ValueError when it has more than MAX_DENSE unknowns."""
    grid = gm.grid
    even = gm.sector_sizes[0]
    if even > MAX_DENSE:
        raise ValueError(f"dense solve limited to a fully even sector of <= {MAX_DENSE} "
                         f"unknowns, got {even}")
    block, (omap,) = next(iter(gm.sectors.values()))
    a = block.copy()
    j0 = int(np.argmin(omap.restrict(grid.radius2())))
    a[j0, :] = grid.cell_volume * omap.sizes
    b = np.zeros(len(a))
    b[j0] = 1.0
    sol = _la.solve(a, b)
    resid_rows = block @ sol
    resid_rows[j0] = 0.0
    field = _finalize(grid, omap.lift(sol), "linear-solve")
    return SteadyState(field=field, route="linear-solve", residual=float(np.max(np.abs(resid_rows))))


# the largest sector leading_eigenpair factors: numpy.linalg.eigvals took
# 27 s on the 4096-unknown sector of 2d n = 128 and 3.4 s on its 2016 and
# 2080 ones (one BLAS thread, 2-core Xeon); 2048 keeps the eigen records of
# 1d n = 4096, whose two sectors have 2048 unknowns each
MAX_EIGEN_SECTOR = 2048
# roundoff bound on the leading pair: ||A v - lambda v||_inf against max|A| ||v||_inf,
# and the eigenvector's mass against its L1 norm
RESIDUAL_TOL = 1e-10


def leading_eigenpair(gm: GeneratorMatrix):
    """(lambda_max, eigenvector as mass-1 Field, spectral gap).

    The conservative generator has column sums zero, so 0 is an eigenvalue;
    simplicity plus positivity of the eigenvector witness uniqueness of the
    stationary state.

    The spectrum is the union of the spectra of the sectors of gm, each
    counted once per map of its sector.  ``eig`` computes eigenvectors for
    the fully even sector only, ``eigvals`` the other spectra; should
    another sector hold the rightmost eigenvalue, ``eig`` runs there for its
    eigenvector (which has zero mass).  The eigenvector is lifted to the
    grid through the sector's orbit map.  With A = Lambda and max|A| =
    gm.max_abs, raises CheckFailure, in this order, when the rightmost real
    part exceeds 1e-8 max|A| (an unstable generator: the tolerance of the
    leading-eigenvalue record), when the leading eigenvalue is complex
    beyond roundoff, when its eigenvector has zero mass, or when the lifted
    pair misses ||A v - lambda v||_inf <= RESIDUAL_TOL max|A| ||v||_inf, A
    applied without a matrix (generator_apply with gm.cfg), which checks the
    sector, its fold and the lift: "spectral-abscissa",
    "leading-eigenvalue-real", "eigenvector-mass" and "eigenpair-residual".
    Builds every sector; ValueError, before building any, when one has
    more than MAX_EIGEN_SECTOR unknowns.
    """
    largest = max(gm.sector_sizes)
    if largest > MAX_EIGEN_SECTOR:
        raise ValueError(f"dense eigenpair limited to sectors of <= {MAX_EIGEN_SECTOR} "
                         f"unknowns, got {largest}")
    grid, scale = gm.grid, gm.max_abs
    even = next(iter(gm.sectors))
    lam, vecs = _la.eig(gm.sectors[even][0])
    spectra = {key: lam if key == even else _la.eigvals(mat) for key, (mat, _) in gm.sectors.items()}
    key = max(spectra, key=lambda s: spectra[s].real.max())  # the even sector on ties
    if key != even:
        # its eigenvector is odd under some reflection or the swap: of zero
        # mass, it fails below
        lam, vecs = _la.eig(gm.sectors[key][0])
    k = int(np.argmax(lam.real))
    lam = lam[k]
    if lam.real > 1e-8 * scale:
        raise CheckFailure("spectral-abscissa", lam.real, 1e-8 * scale)
    if abs(lam.imag) > 1e-8 * scale:
        raise CheckFailure("leading-eigenvalue-real", abs(lam.imag), 1e-8 * scale)
    vec = gm.sectors[key][1][0].lift(vecs[:, k].real)
    mass = float(np.sum(vec) * grid.cell_volume)
    l1 = float(np.sum(np.abs(vec)) * grid.cell_volume)
    if abs(mass) <= RESIDUAL_TOL * l1:
        raise CheckFailure("eigenvector-mass", abs(mass), RESIDUAL_TOL * l1)
    vec = vec / mass
    applied = generator_apply(Field(grid, vec), gm.cfg).values
    resid = float(np.abs(applied - lam.real * vec).max() / np.abs(vec).max())
    if resid > RESIDUAL_TOL * scale:
        raise CheckFailure("eigenpair-residual", resid, RESIDUAL_TOL * scale)
    reals = np.sort(np.concatenate([np.tile(spec.real, len(gm.sectors[s][1]))
                                    for s, spec in spectra.items()]))
    gap = float(lam.real - reals[-2])
    return float(lam.real), Field(grid, vec), gap


TAIL_FIT_POINTS = 8  # fewest nodes with F > 0 tail_exponent fits


def tail_exponent(F: Field, window: tuple[float, float] | None = None):
    """Least-squares slope of log F against log<x> on a radial window.

    Returns (a_hat, r_squared) with F ~ <x>^(-a_hat); the window defaults to
    [L/4, 3L/4].  Raises CheckFailure "tail-fit-window" when it holds fewer
    than TAIL_FIT_POINTS nodes with F > 0, and "tail-exponent" when
    a_hat <= 0: a tail that does not decay, however well the line fits.
    """
    grid = F.grid
    if window is None:
        window = (grid.L / 4.0, 3.0 * grid.L / 4.0)
    lo, hi = window
    r2 = grid.radius2().ravel(order="C")
    vals = F.values.ravel(order="C")
    mask = (r2 >= lo**2) & (r2 <= hi**2) & (vals > 0.0)
    usable = int(np.count_nonzero(mask))
    if usable < TAIL_FIT_POINTS:
        raise CheckFailure("tail-fit-window", usable, TAIL_FIT_POINTS)
    lx = 0.5 * np.log1p(r2[mask])  # log <x>
    slope, _, r2fit = line_fit(lx, np.log(vals[mask]))
    if not -slope > 0.0:
        raise CheckFailure("tail-exponent", -slope, 0.0)
    return float(-slope), r2fit
