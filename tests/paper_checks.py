"""The paper's instruments that the tests run and no CLI suite does.

These functions check statements of the analysis on the discretization,
or build what those checks need.  They live here, beside the tests that
call them, and not in the fracfp package, whose modules hold what
``fracfp run`` executes.  The sections follow the fracfp module each
function builds on:

* grid: the smoothstep radial cutoff;
* operators: the capped, compensated and windowed kernels (KernelVariant),
  the zero-extension box stencil and the whole-space quadrature operator on
  it, the kernel splitting and the capped-kernel convolution, the 3/5-point
  Laplacian, the adjoint, the dense offset matrix and the full N x N
  generator matrix, the adaptive reference quadrature with its
  analytic-exterior weight action (1d), and the growth and confinement
  hypotheses on a force field;
* functionals: the integrated p-dissipation, the W^{s,p} seminorm, the
  confinement profile, the relative entropy and the local-mean control;
* evolution: the viscosity-regularized generator (applied, never stepped)
  and the Duhamel identity e^{tL} = e^{tB} + e^{tL} * A e^{tB} on dense
  matrices;
* rates: the small-time regularization slope from a near-delta, the
  polynomial-rate check, the weighted operator norm and the decay of the
  dissipative-part semigroup, and the ODE envelope.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np
from scipy.linalg import expm

from fracfp.grid import Field, Grid, integrate, line_fit, weight_field
from fracfp.operators import (
    CSR,
    ForceField,
    GeneratorMatrix,
    JumpKernel,
    OperatorConfig,
    _gather,
    _generator_sector,
    _self_cell,
    _wedge_cells,
    assemble_generator_matrix,
    cell_tables,
    confinement_ratio,
    drift_matrix,
    full_kernel,
    get_stencil,
    jump_apply,
    norm_constant,
    orbit_maps,
    readonly,
    theta_quad,
)
from fracfp.functionals import (
    _omega_mask,
    _pw_constant,
    p_dissipation_field,
    signed_power,
    threshold_p_gamma,
    weighted_norm,
)
from fracfp.evolution import auto_dt, evolve
from fracfp.rates import MIN_FIT_POINTS, RateReport, decay_fit
from sparse_reference import to_scipy


# ---------------------------------------------------------------------------
# fracfp.grid
# ---------------------------------------------------------------------------


def smooth_indicator(grid: Grid, R: float) -> np.ndarray:
    """Smoothstep radial cutoff with 1_{B_R} <= chi <= 1_{B_2R}."""
    s = np.clip((np.sqrt(grid.radius2()) - R) / R, 0.0, 1.0)
    return 1.0 - (3.0 * s**2 - 2.0 * s**3)


# ---------------------------------------------------------------------------
# fracfp.operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelVariant(JumpKernel):
    """Radial jump kernel c |z|^(-d-alpha), optionally capped, compensated or windowed.

    cap_r:   kappa -> min(kappa, kappa(cap_r))            (bounded far kernel)
    near_of: kappa -> (kappa - kappa(near_of))_+           (compensated near kernel)
    lo, hi:  radial window; kernel vanishes outside [lo, hi].
    """

    cap_r: float | None = None
    near_of: float | None = None
    lo: float = 0.0
    hi: float = math.inf

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            v = self.c * r ** (-self.d - self.alpha)
        if self.cap_r is not None:
            v = np.minimum(v, self.c * self.cap_r ** (-self.d - self.alpha))
        if self.near_of is not None:
            v = np.maximum(v - self.c * self.near_of ** (-self.d - self.alpha), 0.0)
        v = np.where((r >= self.lo) & (r <= self.hi), v, 0.0)
        return v

    def moment(self, a, b, m: float):
        """Summed over the pieces of _segments: JumpKernel.moment for the power
        part (cp is c or 0), the closed form of a constant for the rest."""
        total = np.zeros(np.broadcast(np.asarray(a, dtype=float), np.asarray(b, dtype=float)).shape)
        for sa, sb, cp, cv in self._segments():
            lo, hi = np.maximum(a, sa), np.minimum(b, sb)
            if cp != 0.0:
                total = total + super().moment(lo, hi, m)
            if cv != 0.0:
                w = hi > lo
                lo, hi = np.where(w, lo, 1.0), np.where(w, hi, 1.0)
                total = total + np.where(w, cv * (hi ** (m + 1) - lo ** (m + 1)) / (m + 1), 0.0)
        return total

    def _segments(self):
        """(a, b, power_coeff, const_value) pieces with kernel = power + const."""
        cap = self.c * self.cap_r ** (-self.d - self.alpha) if self.cap_r else None
        sub = self.c * self.near_of ** (-self.d - self.alpha) if self.near_of else None
        if self.near_of is not None:
            segs = [(0.0, self.near_of, self.c, -sub)]
        elif self.cap_r is not None:
            segs = [(0.0, self.cap_r, 0.0, cap), (self.cap_r, math.inf, self.c, 0.0)]
        else:
            segs = [(0.0, math.inf, self.c, 0.0)]
        out = []
        for a, b, cp, cv in segs:
            a2, b2 = max(a, self.lo), min(b, self.hi)
            if b2 > a2:
                out.append((a2, b2, cp, cv))
        return out

    def l1_mass(self) -> float:
        """Analytic ||kappa||_L1 over R^d (infinite for the uncapped kernel)."""
        surf = 2.0 * math.pi ** (self.d / 2.0) / math.gamma(self.d / 2.0)  # |S^(d-1)|
        return float(surf * self.moment(0.0, math.inf, self.d - 1))


def far_kernel(alpha: float, d: int, r: float) -> KernelVariant:
    return KernelVariant(c=norm_constant(alpha, d), alpha=alpha, d=d, cap_r=r)


def near_kernel(alpha: float, d: int, r: float) -> KernelVariant:
    return KernelVariant(c=norm_constant(alpha, d), alpha=alpha, d=d, near_of=r)


def windowed_kernel(alpha: float, d: int, eps: float) -> KernelVariant:
    return KernelVariant(
        c=norm_constant(alpha, d), alpha=alpha, d=d, lo=eps, hi=1.0 / eps
    )


def convolve_same(values: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """Linear convolution of values with ker (zero padding, no wrap-around),
    cropped to the centered values.shape block: ker's center acts at offset 0.

    The unscaled inverse is scaled once by 1/N, N the padded size, not once
    per axis: that keeps 2d sums bit-identical to the earlier scipy route."""
    axes = tuple(range(values.ndim))
    full = tuple(a + b - 1 for a, b in zip(values.shape, ker.shape))
    spec = np.fft.rfftn(values, full, axes=axes) * np.fft.rfftn(ker, full, axes=axes)
    out = np.fft.irfftn(spec, full, axes=axes, norm="forward") * (1.0 / math.prod(full))
    return out[tuple(slice((f - s) // 2, (f - s) // 2 + s)
                     for f, s in zip(full, values.shape))].copy()


@dataclass(frozen=True)
class JumpStencil:
    """Discrete realization of a jump kernel on a grid.

    ker      convolution kernel over offsets, shape (2n+1,)*d, zero center;
    deg_in   per-node total pair weight toward in-box targets;
    ext_mass per-node exterior kernel mass (plain cell masses + analytic
             beyond-range tail).
    apply(u) is the jump of the zero extension of u: the in-box pair sum
    minus (deg_in + ext_mass) u.
    The arrays are read-only: box_stencil caches and shares them.
    """

    grid: Grid
    ker: np.ndarray
    deg_in: np.ndarray
    ext_mass: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return convolve_same(values, self.ker) - self.deg_in * values - self.ext_mass * values


@lru_cache(maxsize=64)
def cell_masses(grid: Grid, kernel: JumpKernel) -> np.ndarray:
    """The plain cell masses int_cell kappa of a radial kernel on the offsets
    -n..n per axis, 0 at the center: read-only, of shape (2n+1,)*d, exactly
    even along each axis and in 2d exactly symmetric.  In 1d exact radial
    moments; in 2d the Gauss-Legendre cell integrals of cell_tables, on the
    same symmetry wedge."""
    n, h = grid.n, grid.h
    if grid.d == 1:
        zc = np.arange(1, n + 1) * h
        m0 = kernel.moment(zc - h / 2, zc + h / 2, 0)
        return readonly(np.concatenate([m0[::-1], [0.0], m0]))
    m0 = _wedge_cells(kernel, n, h, 10, 0.0)
    m0[0, 0] = 0.0
    return readonly(m0[np.ix_(*[np.abs(np.arange(-n, n + 1))] * 2)])


@lru_cache(maxsize=64)
def box_stencil(grid: Grid, kernel: JumpKernel) -> JumpStencil:
    """The zero-extension box stencil of a kernel, on the get_stencil row and
    the cell masses."""
    n, h, d = grid.n, grid.h, grid.d
    ker, masses = get_stencil(grid, kernel), cell_masses(grid, kernel)
    if d == 1:
        idx = np.arange(n)
        cnu = np.concatenate([[0.0], np.cumsum(ker[n + 1 :])])
        deg_in = cnu[n - 1 - idx] + cnu[idx]
        cw = np.concatenate([[0.0], np.cumsum(masses[n + 1 :])])
        beyond = float(kernel.moment((n + 0.5) * h, math.inf, 0))
        ext = (cw[n] - cw[n - 1 - idx]) + (cw[n] - cw[idx]) + 2.0 * beyond
        return JumpStencil(grid, ker, *map(readonly, (deg_in, ext)))
    ones = np.ones(grid.shape)
    deg_in = convolve_same(ones, ker)
    # exterior: plain masses of not-covered cells + analytic beyond-square tail
    zmax = (n + 0.5) * h
    beyond = 8.0 * theta_quad(lambda t: kernel.moment(zmax / np.cos(t), math.inf, 1),
                              0.0, math.pi / 4)
    ext = (float(masses.sum()) - convolve_same(ones, masses)) + beyond
    return JumpStencil(grid, ker, *map(readonly, (deg_in, ext)))


BOUNDARY_DECAY_TOL = 1e-3


def check_boundary_decay(f: Field) -> float:
    """Largest boundary-layer value relative to the max; raises above
    BOUNDARY_DECAY_TOL."""
    v = np.abs(f.values)
    top = float(v.max())
    if top == 0.0:
        return 0.0
    edge = max(float(np.take(v, i, axis=a).max()) for a in range(v.ndim) for i in (0, -1))
    ratio = edge / top
    if ratio > BOUNDARY_DECAY_TOL:
        raise ValueError(
            f"field does not decay at the box boundary (edge/max = {ratio:.3e} "
            f"> {BOUNDARY_DECAY_TOL:g}); the zero-extension truncation error would dominate"
        )
    return ratio


def quadrature_fraclap(f: Field, cfg: OperatorConfig) -> Field:
    """I(f) through the singular-integral quadrature on the whole space: f is
    extended by zero and the analytic exterior kernel mass is charged to
    -f(x), so f must decay at the box boundary (check_boundary_decay)."""
    check_boundary_decay(f)
    st = box_stencil(f.grid, full_kernel(cfg.alpha, f.grid.d))
    return f.with_values(st.apply(f.values))


def split_fraclap(f: Field, cfg: OperatorConfig, r: float | None = None):
    """Kernel splitting I = I_near + I_far at radius r.

    near uses the compensated kernel (kappa - kappa(r))_+ supported in |z| < r,
    far the bounded kernel kappa^c = min(kappa, kappa(r)).  The discrete cell
    weights are additive in the kernel, so near + far equals the full
    quadrature operator to machine precision.  Returns (near, far, Kc) with
    Kc the analytic L1 mass of kappa^c.
    """
    grid = f.grid
    if r is None:
        r = grid.h
    if not 0.0 < r < grid.L:
        raise ValueError(f"split radius must lie in (0, L), got {r}")
    near, far = near_kernel(cfg.alpha, grid.d, r), far_kernel(cfg.alpha, grid.d, r)
    return (f.with_values(box_stencil(grid, near).apply(f.values)),
            f.with_values(box_stencil(grid, far).apply(f.values)), far.l1_mass())


@lru_cache(maxsize=32)
def plain_conv_kernel(grid: Grid, kernel: JumpKernel) -> np.ndarray:
    """Cell-mass convolution stencil for a bounded kernel (no singularity):
    the cell masses with the self-cell mass at the center."""
    ker = cell_masses(grid, kernel).copy()
    ker[(grid.n,) * grid.d] = _self_cell(kernel, grid, 0.0)
    return readonly(ker)


def capped_convolution(f: Field, cfg: OperatorConfig, r: float) -> Field:
    """kappa^c * f for the bounded far kernel: nonnegative for f >= 0.

    The capped kernel is bounded, so plain cell masses give a second-order
    convolution rule with all weights nonnegative (positivity is structural).
    """
    ker = plain_conv_kernel(f.grid, far_kernel(cfg.alpha, f.grid.d, r))
    return f.with_values(convolve_same(f.values, ker))


@lru_cache(maxsize=16)
def laplacian_matrix(grid: Grid) -> CSR:
    """The 3/5-point Laplacian, fields extended by zero outside the box:
    1 / h^2 at each pair of neighbour nodes, both ways, and -2d / h^2 on the
    whole diagonal (zero extension, not a flux form)."""
    nodes = np.arange(grid.size, dtype=np.int32).reshape(grid.shape)
    row, col = [nodes.ravel()], [nodes.ravel()]
    for a in range(grid.d):
        lo, hi = (np.take(nodes, np.arange(k, k + grid.n - 1), a).ravel() for k in (0, 1))
        row += [lo, hi]
        col += [hi, lo]
    row, col = np.concatenate(row), np.concatenate(col)
    data = np.where(row == col, -2.0 * grid.d, 1.0) / grid.h**2
    return CSR.from_coo(data, row, col, (grid.size,) * 2)


def adjoint_apply(g: Field, cfg: OperatorConfig) -> Field:
    """Lambda^* g = I(g) - E . grad g, the drift through scipy.sparse's
    transpose of drift_matrix; Lambda^* 1 = 0 to roundoff."""
    drift = to_scipy(drift_matrix(g.grid, cfg.force_field(), cfg.drift)).T @ g.values.ravel()
    return g.with_values(jump_apply(g, cfg).values + drift.reshape(g.grid.shape))


def offset_matrix(table: np.ndarray, n: int, center: int) -> np.ndarray:
    """Dense matrix of a translation-invariant operator on the n^d nodes in
    row-major order: the entry of nodes (i, j) is table[(center + i_a - j_a)
    mod m per axis a], m the table's axis length.  A circulant row (m = n)
    has center 0; an offset kernel over -n..n (m = 2n + 1) has center n."""
    return _gather(table, center, n, np.arange(n**table.ndim))


FULL_MATRIX_MAX = 4096  # the n^d cap of full_matrix
# generator -> its N x N matrix; an entry goes with its generator
_FULL_MATRICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def full_matrix(gm: GeneratorMatrix) -> np.ndarray:
    """Lambda as one read-only N x N matrix on n^d <= FULL_MATRIX_MAX nodes:
    the sector of the identity orbit map, built once per generator and kept
    only while gm lives.  No route builds it; the tests compare the sectors
    and the dense instruments with it."""
    if gm.size > FULL_MATRIX_MAX:
        raise ValueError(f"dense N x N matrix limited to n^d <= {FULL_MATRIX_MAX}, got {gm.size}")
    if gm not in _FULL_MATRICES:
        _FULL_MATRICES[gm] = _generator_sector(gm.grid, gm.cfg, orbit_maps(gm.grid, ())[(), 1][0])
    return _FULL_MATRICES[gm]


def fraclap_reference(
    func: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, alpha: float
) -> np.ndarray:
    """High-precision I(func) at points xs by adaptive quadrature (d = 1).

    Uses the symmetrized form int_0^inf (u(x+z) + u(x-z) - 2u(x)) kappa(z) dz
    with the substitution w = z^(2-alpha) on z in (0, 1), which removes the
    endpoint singularity, and an infinite-range quadrature beyond.  Works for
    any smooth func with growth below |x|^alpha (weights, Gaussians, ...).
    """
    from scipy import integrate  # its only user; not loaded by the CLI

    c = norm_constant(alpha, 1)
    p = 1.0 / (2.0 - alpha)
    z_floor = 1e-4  # below this the centered second difference cancels badly
    out = np.empty(np.shape(xs), dtype=float)
    flat = out.ravel()
    for i, x in enumerate(np.ravel(np.asarray(xs, dtype=float))):
        u0 = float(func(x))

        def second_diff(z):
            return func(x + z) + func(x - z) - 2.0 * u0

        g_floor = second_diff(z_floor) / z_floor**2  # ~ u''(x)

        def inner(w):
            z = w**p
            if z < z_floor:
                return g_floor
            return second_diff(z) / z**2

        near, _ = integrate.quad(inner, 0.0, 1.0, limit=200)
        near *= c * p  # kappa z^2 dz = c z^(1-alpha) dz = (c/p') dw under w = z^(2-alpha)

        def outer(z):
            return second_diff(z) * z ** (-1.0 - alpha)

        # u(x -+ z) can localize near z = |x|; split there so the adaptive
        # quadrature cannot step over the bump on the infinite range
        zcut = max(2.0 * abs(x) + 20.0, 50.0)
        pts = sorted({min(max(q, 1.0), zcut) for q in (abs(x) - 8, abs(x), abs(x) + 8)})
        far1, _ = integrate.quad(outer, 1.0, zcut, points=pts, limit=400)
        far2, _ = integrate.quad(outer, zcut, np.inf, limit=200)
        flat[i] = near + c * (far1 + far2)
    return out


@lru_cache(maxsize=32)
def fraclap_of_weight(grid: Grid, k: float, alpha: float) -> Field:
    """I(<x>^k) on the grid with the analytic exterior (d = 1, k < alpha).

    Weight fields grow, so zero-extension is useless; the quadrature runs
    over the analytic weight on all of R.
    """
    if grid.d != 1:
        raise NotImplementedError("analytic-exterior weight action is 1d only")
    if not k < alpha:
        raise ValueError(f"need k < alpha for I(<x>^k) to be finite, got k={k}")

    def m(x):
        return (1.0 + np.asarray(x) ** 2) ** (k / 2.0)

    return Field(grid, readonly(fraclap_reference(m, grid.axis, alpha)))


def verify_force_hypotheses(force: ForceField, gamma: float, grid: Grid) -> dict:
    """Empirical constants for the growth and confinement hypotheses.

    Returns sup |grad E| / <x>^(gamma-2), the confinement ratio of
    operators.confinement_ratio (over nodes with |x| > h), plus a count of
    the nodes where E.x < 0.  grad E uses centered differences with step h.
    """
    coords = grid.coords()
    e = force.components(coords)
    grad_norm = np.sqrt(sum(np.gradient(ea, grid.h, axis=b) ** 2 for ea in e for b in range(grid.d)))
    ex = sum(ea * xa for ea, xa in zip(e, coords))
    sup_grad = float(np.max(grad_norm / grid.bracket() ** (gamma - 2.0)))
    inf_conf = confinement_ratio(force, gamma, grid)
    negative = ex < -1e-14 * np.max(np.abs(ex))
    return {
        "sup_grad_ratio": sup_grad,
        "inf_confinement_ratio": inf_conf,
        "negative_confinement_nodes": int(np.count_nonzero(negative)),
        "passes": bool(np.isfinite(sup_grad) and inf_conf > 0.0 and not negative.any()),
    }


# ---------------------------------------------------------------------------
# fracfp.functionals
# ---------------------------------------------------------------------------


def p_dissipation(u: Field, p: float, cfg: OperatorConfig) -> float:
    """int D_p(u): zero iff u is constant on the grid, else > 0."""
    return integrate(p_dissipation_field(u, p, cfg))


def _seminorm_kernel(d: int, s: float, p: float) -> JumpKernel:
    """The kernel c_{s,d} |z|^{-d-ps} of the W^{s,p} seminorm (alpha = ps).
    c_{s,d} is fixed to c_{2s,d}/2, the unique choice consistent with Parseval
    at p = 2 (|u|_{H^s}^2 = int |2 pi xi|^{2s}|u^|^2)."""
    return JumpKernel(c=norm_constant(2.0 * s, d) / 2.0, alpha=p * s, d=d)


def _seminorm_weights(grid: Grid, s: float, p: float) -> np.ndarray:
    """Offset weights for iint |u(y)-u(x)|^p / |y-x|^{d+ps}, mollified by |z|^p:
    the cell_tables weights at q = p, a read-only table of shape (2n+1,)*d
    whose center holds the self-cell weight that multiplies |grad u|^p."""
    return cell_tables(grid, _seminorm_kernel(grid.d, s, p), p)


def _half_offsets(n: int, d: int):
    """The offsets J in (-n, n)^d whose first nonzero entry is positive: one
    of each pair J, -J."""
    for lead in range(d):
        for first in range(1, n):
            for rest in itertools.product(range(-n + 1, n), repeat=d - 1 - lead):
                yield (0,) * lead + (first,) + rest


def sobolev_seminorm(
    u: Field, s: float, p: float = 2.0, include_exterior: bool = False
) -> float:
    """|u|_{W^{s,p}} on in-box pairs, with the self-cell carried by |grad u|^p.

    With include_exterior the pairs with one point outside the box are added
    (the field is extended by zero there), giving the whole-space seminorm of
    the extension; constants then pick up their boundary jump, so the default
    keeps in-box pairs only (zero iff constant).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    grid = u.grid
    # sum_x sum_J w_J |u(x+z_J) - u(x)|^p by direct offset loop is O(N^2);
    # the |.|^p prevents a convolution shortcut, so keep N small
    if grid.size > 96**2:
        raise ValueError(f"seminorm restricted to n^d <= {96**2}")
    w = _seminorm_weights(grid, float(s), float(p))
    v = u.values
    n, vol = grid.n, grid.cell_volume
    total = 0.0
    if include_exterior:
        ext = box_stencil(grid, _seminorm_kernel(grid.d, float(s), float(p))).ext_mass
        total += 2.0 * float(np.sum(np.abs(v) ** p * ext)) * vol
    # |u(x+z) - u(x)| summed over x is the same for z and -z
    for off in _half_offsets(n, grid.d):
        ww = w[tuple(n + j for j in off)]
        if ww == 0.0:
            continue
        hi = tuple(slice(max(0, j), n + min(0, j)) for j in off)
        lo = tuple(slice(max(0, -j), n + min(0, -j)) for j in off)
        total += 2.0 * ww * float(np.sum(np.abs(v[hi] - v[lo]) ** p)) * vol
    grad = reduce(np.hypot, np.reshape(np.gradient(v, grid.h), (grid.d,) + grid.shape))
    total += w[(n,) * grid.d] * float(np.sum(np.abs(grad) ** p)) * vol
    return float(total ** (1.0 / p))


def confinement_profile(grid: Grid, cfg: OperatorConfig, k: float, p: float):
    """phi_{m,p} = div(E)/q - E . grad(m)/m nodewise, plus the drift envelope.

    div(E) uses centered differences; grad(m)/m = k x / <x>^2 is analytic.
    For gamma > 2 also fits (a, b) with phi <= b 1_Omega - a <x>^(gamma-2)
    and reports the threshold p_gamma; p >= p_gamma is flagged.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    q = p / (p - 1.0)
    br2 = 1.0 + grid.radius2()
    coords = grid.coords()
    e = cfg.force_field().components(coords)
    div_e = sum(np.gradient(ea, grid.h, axis=a) for a, ea in enumerate(e))
    e_dot_x = sum(ea * xa for ea, xa in zip(e, coords))
    phi = div_e / q - k * e_dot_x / br2
    out = {"phi": Field(grid, phi), "p_gamma": threshold_p_gamma(k, cfg.gamma, grid.d)}
    out["p_admissible"] = p < out["p_gamma"]
    if cfg.gamma > 2:
        decay = np.sqrt(br2) ** (cfg.gamma - 2.0)
        outer = grid.radius2() > (grid.L / 4.0) ** 2
        a = float(np.min(-phi[outer] / decay[outer]))
        b = float(np.max(phi + max(a, 0.0) * decay))
        out["envelope"] = (a, b)
    return out


def relative_entropy(f: Field, ref: Field, p: float, cfg: OperatorConfig):
    """(int |f|^p F^(1-p), -p int D_p(f/F) F): value and dissipation.

    The dissipation is nonpositive for every input pair with F > 0 (each pair
    term of D_p is a product of increments with matching monotonicity).
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    fv, rv = f.values, ref.values
    if np.min(rv) <= 0.0:
        raise ValueError("reference state must be strictly positive")
    vol = f.grid.cell_volume
    value = float(np.sum(np.abs(fv) ** p * rv ** (1.0 - p)) * vol)
    h = f.with_values(fv / rv)
    dp = p_dissipation_field(h, p, cfg).values
    dissipation = float(-p * np.sum(dp * rv) * vol)
    return value, dissipation


def local_mean_control_check(u: Field, mu: Field, radius: float, p: float, cfg: OperatorConfig):
    """0 <= int_Om u^(p-1)(u - <u>_mu,Om) mu <= C int_Om D_p(u) mu.

    C = diam(Om)^(d+alpha) ||mu||_inf(Om) / (c_{alpha,d} mu(Om)); the kernel
    constant enters because D_p carries the normalized kernel.
    """
    grid = u.grid
    om = _omega_mask(grid, radius)
    vol = grid.cell_volume
    muv = mu.values
    mu_om = float(np.sum(muv[om]) * vol)
    if mu_om <= 0.0:
        raise ValueError("mu has no mass on Omega")
    mean = float(np.sum((u.values * muv)[om]) * vol) / mu_om
    middle = float(
        np.sum((signed_power(u.values, p - 1.0) * (u.values - mean) * muv)[om]) * vol
    )
    dp = p_dissipation_field(u, p, cfg).values
    c_pw = _pw_constant(grid, om, muv, mu_om, cfg.alpha)
    rhs = c_pw * float(np.sum((dp * muv)[om]) * vol)
    return {"middle": middle, "rhs": rhs, "c_pw": c_pw, "passes": -1e-12 <= middle <= rhs * (1 + 1e-9) + 1e-15}


# ---------------------------------------------------------------------------
# fracfp.evolution
# ---------------------------------------------------------------------------


def radial_cutoff(grid: Grid, eps: float) -> Field:
    """Radially decreasing cutoff: 1 on B(0, 1/eps), 0 outside B(0, 2/eps)."""
    return Field(grid, smooth_indicator(grid, 1.0 / eps))


def viscosity_generator_apply(f: Field, eps: float, cfg: OperatorConfig) -> Field:
    """Lambda_eps f = eps*Lap f + I_eps(f) + div(E_eps f).

    I_eps truncates the jump kernel to eps < |z| < 1/eps; E_eps = E * chi_eps
    with the radial cutoff; the Laplacian is the standard 3/5-point stencil
    (laplacian_matrix, fields extended by zero).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    grid = f.grid
    st = box_stencil(grid, windowed_kernel(cfg.alpha, grid.d, eps))
    jump = st.apply(f.values)

    chi = radial_cutoff(grid, eps).values
    # div(E * chi f) = div(E_eps f) with E_eps = chi E evaluated at faces;
    # using the product at cell values keeps the flux form conservative.
    # Upwind whatever cfg.drift says: the regularized generator is a
    # monotone (Metzler) operator.
    d_up = drift_matrix(grid, cfg.force_field(), "upwind")
    drift = d_up.lane_product()(f.values * chi)
    lap = laplacian_matrix(grid).lane_product()(f.values)
    return f.with_values(jump + drift + eps * lap)


def duhamel_residual(
    t: float,
    grid: Grid,
    cfg: OperatorConfig,
    splitting: str = "kernel",
    r: float | None = None,
    M: float = 5.0,
    R: float = 2.0,
    n_quad: int = 2048,
) -> float:
    """Residual of e^{tL} = e^{tB} + e^{tL} * A e^{tB} in the entrywise max norm.

    splitting = "kernel": A = kappa^c-convolution at radius r (bounded part),
    B = L - A.  splitting = "cutoff": A = M chi_R with a smooth radial cutoff
    supported in B_2R, B = L - A.  The time convolution is composite Simpson
    with n_quad intervals (>= 64).
    """
    if n_quad < 64 or n_quad % 2:
        raise ValueError("n_quad must be an even number >= 64")
    lam = full_matrix(assemble_generator_matrix(grid, cfg))
    if splitting == "kernel":
        rr = r if r is not None else grid.h
        ker = plain_conv_kernel(grid, far_kernel(cfg.alpha, grid.d, rr))
        a = offset_matrix(ker, grid.n, grid.n)
    elif splitting == "cutoff":
        a = M * np.diag(smooth_indicator(grid, R).ravel(order="C"))
    elif splitting == "none":
        a = np.zeros_like(lam)
    else:
        raise ValueError(f"unknown splitting {splitting!r}")
    b = lam - a

    if t == 0.0:
        return 0.0  # all three terms collapse to the identity

    dt = t / n_quad
    e_lam_dt = expm(lam * dt)
    e_b_dt = expm(b * dt)
    # Simpson sum of e^{(t-s_k)L} A e^{s_k B} in one forward pass:
    # X_{k+1} = e^{dt L} X_k + c_{k+1} A e^{s_{k+1} B}, with X_0 = c_0 A
    coef = np.ones(n_quad + 1)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    v = np.eye(grid.size)  # e^{s_k B}
    simpson = coef[0] * a
    for k in range(1, n_quad + 1):
        v = e_b_dt @ v
        simpson = e_lam_dt @ simpson + coef[k] * (a @ v)
    simpson *= dt / 3.0
    resid = expm(lam * t) - expm(b * t) - simpson
    return float(np.max(np.abs(resid)))


# ---------------------------------------------------------------------------
# fracfp.rates
# ---------------------------------------------------------------------------

SLOPE_SAMPLES = 32  # output times of a regularization-slope run
REGULARIZATION_TOL = 0.2  # relative tolerance of a regularization-slope verdict
SEMIGROUP_TOL = 0.1  # slack of the b_semigroup_decay norm and exponent bounds


def near_delta(grid: Grid) -> Field:
    """Normalized hat of half-width 2h at the origin (discrete near-delta)."""
    r = np.sqrt(grid.radius2())
    vals = np.clip(1.0 - r / (2.0 * grid.h), 0.0, None)
    return Field(grid, vals / (np.sum(vals) * grid.cell_volume))


def _steepest_window_fit(ts, vals):
    """Log-log slope on the steepest contiguous stretch of the curve.

    The near-delta has an effective age ~ (2h)^alpha that flattens the early
    slope, and the norms saturate toward the equilibrium scale late; the
    asymptotic exponent lives between, where the local slope peaks.  A
    stretch shorter than MIN_FIT_POINTS falls back to the whole curve.
    """
    lx, ly = np.log(ts), np.log(vals)
    local = -np.diff(ly) / np.diff(lx)
    smax = np.max(local)
    good = local >= 0.85 * smax
    # longest contiguous run of good local slopes
    best_run, run_start, cur_start = (0, 0), 0, None
    for i, g in enumerate(list(good) + [False]):
        if g and cur_start is None:
            cur_start = i
        elif not g and cur_start is not None:
            if i - cur_start > best_run[0]:
                best_run = (i - cur_start, cur_start)
            cur_start = None
    length, start = best_run
    sel = slice(start, start + length + 1)
    if length + 1 < MIN_FIT_POINTS:
        sel = slice(None)  # fall back to the full window
    slope, _, r2 = line_fit(lx[sel], ly[sel])
    return float(-slope), r2, (float(ts[sel][0]), float(ts[sel][-1]))


def regularization_slope(
    grid: Grid,
    cfg: OperatorConfig,
    p: float = 2.0,
    k: float = 0.5,
    t_window: tuple[float, float] | None = None,
) -> RateReport:
    """Slope of log ||f(t)||_{L^p(m)} against log t from a near-delta datum.

    The smoothing gain from mass data predicts the slope -d/(q alpha) with
    q the conjugate exponent (q = 1 for p = inf, valid for gamma <= 2:
    bounded-density regularization needs subcritical confinement growth);
    the verdict accepts within REGULARIZATION_TOL relative.  The run samples
    SLOPE_SAMPLES output times, geometric over t_window.
    """
    if p == math.inf and cfg.gamma > 2.0:
        raise ValueError("L-infinity regularization requires gamma <= 2")
    q = 1.0 if p == math.inf else p / (p - 1.0)
    predicted = grid.d / (q * cfg.alpha)
    if t_window is None:
        t_window = (max(0.01, 4.0 * (2.0 * grid.h) ** cfg.alpha), 0.6)
    t_lo, t_hi = t_window
    dt = auto_dt(grid, cfg)
    if t_lo < 10.0 * dt:
        raise ValueError(
            f"window start {t_lo:g} clipped by the CFL step {dt:g} (need >= 10 dt)"
        )
    times = np.geomspace(t_lo, t_hi, SLOPE_SAMPLES)
    tr = evolve(near_delta(grid), t_hi, cfg, output_times=times)
    ts = np.array(tr.times)
    vals = np.array([weighted_norm(s, p, k) for s in tr.snapshots])
    keep = ts > 0
    ts, vals = ts[keep], vals[keep]
    _, uniq = np.unique(ts, return_index=True)
    fitted, r2, used = _steepest_window_fit(ts[uniq], vals[uniq])
    ok = abs(fitted - predicted) <= REGULARIZATION_TOL * predicted
    return RateReport(
        model="polynomial",
        fitted=fitted,
        predicted=predicted,
        window=used,
        r2=r2,
        verdict="bound-respected" if ok else "violated",
        details={"p": p, "k": k, "norm": "Lp(m)"},
    )


def polynomial_rate_check(
    grid: Grid,
    cfg: OperatorConfig,
    k_heavy: float,
    k_light: float,
    p: float,
    horizon: float,
    steady: Field,
    t0: float = 5.0,
) -> RateReport:
    """Upper-bound check of the lighter-weight norm against <t>^-rho.

    rho = (k_heavy - k_light) / |2 - gamma|: the decay exponent is the weight
    drop divided by the confinement deficit.  The initial state is heavy
    tailed with finite L^p(<x>^k_heavy) norm; the measured quantity is
    ||f(t) - F||_{L^p(<x>^k_light)}, compared against the predicted envelope
    anchored at t0 (bound-respected even when the box dynamics eventually
    decays faster).
    """
    if not (2.0 - cfg.alpha < cfg.gamma < 2.0):
        raise ValueError(
            "polynomial regime requires 2 - alpha < gamma < 2 "
            f"(got alpha={cfg.alpha}, gamma={cfg.gamma})"
        )
    if not 0.0 < k_light < k_heavy < min(cfg.alpha, 1.0):
        raise ValueError("weights must satisfy 0 < k_light < k_heavy < min(alpha, 1)")
    beta = cfg.gamma - 2.0
    warnings = []
    if k_light <= abs(beta):
        warnings.append(
            f"k_light={k_light} <= |gamma-2|={abs(beta)}: outside the constructive"
            " band; the displayed-rate check is still an upper bound"
        )
    p_cap = 1.0 + (k_light - abs(beta)) / (grid.d + cfg.alpha - k_light)
    if p >= p_cap:
        warnings.append(f"p={p} >= constructive cap {p_cap:.3f}")
    predicted = (k_heavy - k_light) / abs(2.0 - cfg.gamma)

    s0 = k_heavy + (grid.d + 1.0) / p
    vals = grid.bracket() ** (-s0)
    f0 = Field(grid, vals / (np.sum(vals) * grid.cell_volume))
    times = np.unique(np.concatenate([np.geomspace(t0, horizon, 40), [horizon]]))
    tr = evolve(f0, horizon, cfg, output_times=times)
    ts = np.array(tr.times)
    diffs = [
        weighted_norm(Field(grid, s.values - steady.values), p, k_light)
        for s in tr.snapshots
    ]
    mask = ts >= t0 * 0.999
    rep = decay_fit(ts[mask], np.array(diffs)[mask], model="polynomial", predicted=predicted)
    rep.details.update({"k_heavy": k_heavy, "k_light": k_light, "p": p, "warnings": warnings})
    return rep


def weighted_opnorm(mat: np.ndarray, p: float, w_out: np.ndarray, w_in: np.ndarray) -> float:
    """Estimate ||diag(w_out) mat diag(1/w_in)||_p (Boyd power iteration).

    Exact for p = 1 (maximum weighted column sum) and p = inf (maximum
    weighted row sum); for p in (1, inf) the iteration converges to a
    stationary value that lower-bounds the norm, maximized over several
    starts: ones, 4 seeded Gaussians and the heaviest column, at most 40
    iterations each.
    """
    a = (w_out[:, None] * mat) / w_in[None, :]
    if p == 1.0:
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if p == math.inf:
        return float(np.max(np.sum(np.abs(a), axis=1)))
    q = p / (p - 1.0)
    rng = np.random.default_rng(0)
    n = a.shape[1]
    best = 0.0
    starts = [np.ones(n)] + [rng.standard_normal(n) for _ in range(4)]
    j0 = int(np.argmax(np.sum(np.abs(a), axis=0)))
    e = np.zeros(n)
    e[j0] = 1.0
    starts.append(e)
    for x in starts:
        x = x / np.linalg.norm(x, p)
        est_prev = 0.0
        for _ in range(40):
            y = a @ x
            est = float(np.linalg.norm(y, p))
            if est == 0.0:
                break
            z = a.T @ signed_power(y, p - 1.0)
            if np.linalg.norm(z, q) <= est ** (p - 1.0) * (1.0 + 1e-14):
                break
            x = signed_power(z, q - 1.0)
            x = x / np.linalg.norm(x, p)
            if abs(est - est_prev) < 1e-12 * est:
                break
            est_prev = est
        best = max(best, est)
    return best


def b_semigroup_decay(
    gm: GeneratorMatrix,
    theta: float,
    p: float,
    k: float,
    M: float = 5.0,
    R: float = 2.0,
) -> RateReport:
    """Decay of ||e^{tB}||, B = Lambda - M chi_R, from L^p(m) to L^p(m^theta).

    beta = gamma - 2 >= 0: theta = 1 and exponential decay with positive
    rate; beta in (-alpha, 0): polynomial decay with exponent at least
    k(1-theta)/|beta| (checked with slack SEMIGROUP_TOL); theta = 1 instead
    keeps the norms below 1 + SEMIGROUP_TOL.
    """
    grid = gm.grid
    beta = gm.cfg.gamma - 2.0
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    chi = smooth_indicator(grid, R).ravel(order="C")
    b = full_matrix(gm) - M * np.diag(chi)
    m_in = weight_field(grid, k).values.ravel(order="C")
    m_out = m_in**theta
    norms = []
    e_step = None
    cur = np.eye(grid.size)
    ts = np.geomspace(0.25, 16.0, 12) if beta < 0 else np.linspace(0.5, 8.0, 10)
    prev_t = 0.0
    for t in ts:
        cur = cur @ expm(b * (t - prev_t))
        prev_t = t
        norms.append(weighted_opnorm(cur, p, m_out, m_in))
    norms = np.array(norms)
    details = {"theta": theta, "p": p, "k": k, "M": M, "R": R, "norms": norms.tolist(),
               "t": ts.tolist()}
    if beta >= 0.0:
        rep = decay_fit(ts, norms, model="exponential")
        model, fitted, predicted, r2 = "exponential", rep.fitted, None, rep.r2
        ok = rep.fitted > 0.0
    elif theta == 1.0:
        model, fitted, predicted, r2 = "polynomial", 0.0, 0.0, 1.0
        ok = bool(np.all(norms <= 1.0 + SEMIGROUP_TOL))
    else:
        rep = decay_fit(ts, norms, model="polynomial")
        predicted = k * (1.0 - theta) / abs(beta)
        model, fitted, r2 = "polynomial", rep.fitted, rep.r2
        ok = rep.fitted >= predicted - SEMIGROUP_TOL
    return RateReport(model=model, fitted=fitted, predicted=predicted,
                      window=(float(ts[0]), float(ts[-1])), r2=r2,
                      verdict="bound-respected" if ok else "violated", details=details)


def ode_envelope_check(ts, xs, A: float, B: float, C: float, b: float) -> bool:
    """True iff X(t) <= e^{-bt} A^{-1/C} ((B - b) + 1/(C t))^{1/C} at all t > 0."""
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    pos = ts > 0
    env = np.exp(-b * ts[pos]) * A ** (-1.0 / C) * ((B - b) + 1.0 / (C * ts[pos])) ** (
        1.0 / C
    )
    return bool(np.all(xs[pos] <= env))
