"""Stationary states of the generator: three independent routes plus diagnostics.

* evolution route: integrate a probe density until the increments stall;
* linear-solve route: bordered dense system (Lambda F = 0 with one row
  replaced by the unit-mass constraint);
* eigenpair route: leading eigenvalue / eigenvector of the dense generator
  (the zero eigenvalue is simple with a positive eigenvector, the numeric
  shadow of uniqueness).

Both dense routes work in a symmetry-adapted basis.  Each axis reflection
x_a -> -x_a that commutes with the generator (every axis, for a radial force
and the cell-centered grid) splits the fields into even and odd parts, so
the matrix is block diagonal with one block of size N / 2^s per parity
pattern over the s symmetric axes (GeneratorMatrix.blocks).  The stationary
state is even, so the linear-solve route solves the even block alone.  The
eigenpair route also uses the axis swap (x, y) -> (y, x) when it commutes
with the generator (a radial force in 2d): with the reflections it makes up
the symmetry group of the square, of order 8 (Fassler and Stiefel, Group
Theoretical Methods and Their Applications, 1992).  The swap maps the (+,-)
block onto the (-,+) block, so the two have one spectrum, and splits the
(+,+) and (-,-) blocks into swap-even and swap-odd sectors, of about half
their size.  The route takes the spectrum of every sector and the
eigenvectors of the fully even one (at n = 32: sectors of 136 and 120 nodes
for blocks of 256).

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
from scipy import linalg as _la

from fracfp.grid import (
    CheckFailure,
    Field,
    Grid,
    integrate,
    line_fit,
    normalized_gaussian,
    unfold,
)
from fracfp.operators import (
    GeneratorMatrix,
    OperatorConfig,
    box_frequencies,
    generator_apply,
    readonly,
)
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
    """A stationary state (mass 1) from one route, with its generator residual.

    The evolution route also keeps ``path``: the read-only stack of the
    states it visited at the start of each unit-time chunk, path[j] at
    chunk j (its probe f0 first, its last unnormalized state last).  evolve
    replays a run from the same f0 and scheme on it: each chunk whose start
    is known becomes one lane of a stacked step, certified by ending bit for
    bit on the next path state.  The other routes have no path.
    """

    field: Field
    route: str
    residual: float  # ||Lambda F||_inf through the conservative generator
    path: np.ndarray | None = dataclass_field(default=None, repr=False, compare=False)

    @property
    def mass(self) -> float:
        return integrate(self.field)


HORIZON_CAP = 400.0  # steady_by_evolution gives up after this much evolution time


def _finalize(grid: Grid, values: np.ndarray, route: str) -> Field:
    """The state normalized to unit mass."""
    mass = float(np.sum(values) * grid.cell_volume)
    if mass <= 0:
        raise ValueError(f"{route} produced a nonpositive-mass state")
    return Field(grid, values / mass)


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
    return Field(grid, vals)


def steady_by_evolution(
    grid: Grid,
    cfg: OperatorConfig,
    scheme: SchemeConfig | None = None,
    tol: float = 1e-5,
    f0: Field | None = None,
) -> SteadyState:
    """Evolve a probe density until ||f(t + 1) - f(t)||_{L^1} < tol.

    Requires gamma > 2 - alpha (no equilibrium is claimed outside that
    range).  Raises CheckFailure "horizon" when HORIZON_CAP passes first
    (measured = the last L1 increment, tolerance = tol), and passes on the
    CheckFailure of a failed evolve step; both count their step from the
    start of the route.  The result keeps the chunk-start states as
    ``path``.
    """
    if not cfg.gamma > 2.0 - cfg.alpha:
        raise ValueError(
            f"steady state requires gamma > 2 - alpha "
            f"(got gamma={cfg.gamma}, alpha={cfg.alpha}): the drift must beat "
            "the jumps at infinity"
        )
    scheme = scheme or SchemeConfig()
    cur = f0 if f0 is not None else normalized_gaussian(grid)
    path = [cur.values]
    t, steps = 0.0, 0
    vol = grid.cell_volume
    while t < HORIZON_CAP:
        try:
            tr = evolve(cur, 1.0, cfg, scheme)
        except CheckFailure as exc:
            exc.step += steps  # count along the route, not within the chunk
            raise
        nxt = tr.snapshots[-1]
        diff = float(np.sum(np.abs(nxt.values - cur.values)) * vol)
        cur = nxt
        path.append(cur.values)
        t += 1.0
        steps += tr.meta["nsteps"]
        if diff < tol:
            field = _finalize(grid, cur.values, "evolution")
            res = float(np.max(np.abs(generator_apply(field, cfg).values)))
            return SteadyState(field=field, route="evolution", residual=res,
                               path=readonly(np.stack(path)))
    raise CheckFailure("horizon", diff, tol, steps, tr.meta["dt"])


def steady_by_linear_solve(gm: GeneratorMatrix) -> SteadyState:
    """Bordered solve on the even block: Lambda F = 0 with the row at the
    folded node nearest the origin replaced by the unit-mass constraint (best
    conditioning: F peaks there), each folded node weighted by the cell
    volume times the 2^s nodes it stands for.  The stationary state is even
    under every reflection of gm.axes, and the even block keeps the zero
    column sums, so the replaced row holds to roundoff as well."""
    grid = gm.grid
    block = gm.blocks[(1,) * len(gm.axes)]
    a = block.copy()
    j0 = int(np.argmin(grid.radius2()[grid.half(gm.axes)].ravel(order="C")))
    a[j0, :] = grid.cell_volume * 2 ** len(gm.axes)
    b = np.zeros(len(a))
    b[j0] = 1.0
    sol = _la.solve(a, b, overwrite_a=True)
    resid_rows = block @ sol
    resid_rows[j0] = 0.0
    field = _finalize(grid, unfold(sol.reshape(grid.half_shape(gm.axes)), gm.axes), "linear-solve")
    return SteadyState(field=field, route="linear-solve", residual=float(np.max(np.abs(resid_rows))))


# roundoff bound on the leading pair: ||A v - lambda v||_inf against max|A| ||v||_inf,
# and the eigenvector's mass against its L1 norm
RESIDUAL_TOL = 1e-10


def _sectors(gm: GeneratorMatrix) -> dict:
    """Lambda on the sectors of its symmetry group, keyed (signs, swap), the
    fully even sector first: (matrix, count, rows, partners) each, whose
    spectrum counts count times in Lambda's.  A vector u of the matrix is
    the vector of the parity block gm.blocks[signs] that holds u on the
    nodes rows and swap u on the nodes partners (flat half-grid indices).

    With no swap (gm.swaps; at most one pair, as d <= 2) the sectors are the
    blocks, under swap 1, each node its own partner.  Otherwise the swap of
    the pair (a, b) maps the block of signs to the one with s_a and s_b
    exchanged: the block with s_a = +1, s_b = -1 stands for both (count 2),
    and each block with s_a = s_b splits into the fields even (swap +1) and
    odd (-1) under the swap, with fold_sparse's rule: rows on the wedge
    i_a <= i_b of the half-grid (i_a < i_b when odd: an odd field vanishes
    on the diagonal), each column added to swap times the column of its
    transposed node."""
    shape = gm.grid.half_shape(gm.axes)
    nodes = np.arange(math.prod(shape)).reshape(shape)
    if not gm.swaps:
        return {(signs, 1): (block, 1, nodes.ravel(), nodes.ravel())
                for signs, block in gm.blocks.items()}
    (a, b), = gm.swaps
    sa, sb = gm.axes.index(a), gm.axes.index(b)
    index = np.indices(shape)
    out = {}
    for signs, block in gm.blocks.items():
        if signs[sa] != signs[sb]:
            if signs[sa] > 0:
                out[signs, 1] = (block, 2, nodes.ravel(), nodes.ravel())
            continue
        for swap in (1, -1):
            wedge = index[a] <= index[b] if swap > 0 else index[a] < index[b]
            rows, partners = nodes[wedge], np.swapaxes(nodes, a, b)[wedge]
            off = rows != partners
            sector = block[np.ix_(rows, rows)]
            sector[:, off] += swap * block[np.ix_(rows, partners[off])]
            out[signs, swap] = (sector, 1, rows, partners)
    return out


def leading_eigenpair(gm: GeneratorMatrix):
    """(lambda_max, eigenvector as mass-1 Field, spectral gap).

    The conservative generator has column sums zero, so 0 is an eigenvalue;
    simplicity plus positivity of the eigenvector witness uniqueness of the
    stationary state.

    The spectrum is the union of the spectra of the sectors of gm (_sectors:
    the parity blocks, each split under the axis swap when gm.swaps has
    one).  ``eig`` computes eigenvectors for the fully even sector only,
    ``eigvals`` the other spectra; the leading pair is the rightmost
    eigenvalue over all sectors, and should another sector hold it, ``eig``
    runs there for its eigenvector (which has zero mass).  The eigenvector is
    lifted to its parity block and unfolded to the full grid, and the gap is
    taken over the union, each spectrum counted as often as its sector
    stands for.  With A = Lambda and max|A| = gm.max_abs, raises
    CheckFailure, in this order, when the rightmost real part exceeds 1e-8
    max|A| (an unstable generator: the tolerance of the leading-eigenvalue
    record), when the leading eigenvalue is complex beyond roundoff, when its
    eigenvector has zero mass, or when the pair misses ||B v - lambda v||_inf
    <= RESIDUAL_TOL max|A| ||v||_inf on its parity block B (not on the
    sector, so the certificate checks the split as well):
    "spectral-abscissa", "leading-eigenvalue-real", "eigenvector-mass" and
    "eigenpair-residual".
    """
    grid = gm.grid
    scale = gm.max_abs
    sectors = _sectors(gm)
    even = next(iter(sectors))
    lam, vecs = _la.eig(sectors[even][0])
    spectra = {key: lam if key == even else _la.eigvals(part[0]) for key, part in sectors.items()}
    key = max(spectra, key=lambda s: spectra[s].real.max())  # the even sector on ties
    if key != even:
        # its eigenvector is odd under some reflection or the swap: of zero
        # mass, it fails below
        lam, vecs = _la.eig(sectors[key][0])
    k = int(np.argmax(lam.real))
    lam = lam[k]
    if lam.real > 1e-8 * scale:
        raise CheckFailure("spectral-abscissa", lam.real, 1e-8 * scale)
    if abs(lam.imag) > 1e-8 * scale:
        raise CheckFailure("leading-eigenvalue-real", abs(lam.imag), 1e-8 * scale)
    signs, swap = key
    _, _, rows, partners = sectors[key]
    half = np.zeros(len(gm.blocks[signs]))
    half[partners] = swap * vecs[:, k].real
    half[rows] = vecs[:, k].real
    vec = unfold(half.reshape(grid.half_shape(gm.axes)), gm.axes, signs).ravel()
    mass = float(np.sum(vec) * grid.cell_volume)
    l1 = float(np.sum(np.abs(vec)) * grid.cell_volume)
    if abs(mass) <= RESIDUAL_TOL * l1:
        raise CheckFailure("eigenvector-mass", abs(mass), RESIDUAL_TOL * l1)
    vec, half = vec / mass, half / mass
    resid = float(np.abs(gm.blocks[signs] @ half - lam.real * half).max() / np.abs(half).max())
    if resid > RESIDUAL_TOL * scale:
        raise CheckFailure("eigenpair-residual", resid, RESIDUAL_TOL * scale)
    reals = np.sort(np.concatenate([np.tile(spec.real, sectors[s][1]) for s, spec in spectra.items()]))
    gap = float(lam.real - reals[-2])
    return float(lam.real), Field(grid, vec.reshape(grid.shape)), gap


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
