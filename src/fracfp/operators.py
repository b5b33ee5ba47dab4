"""Discretizations of the fractional Laplacian, the drift, and the full generator.

Two routes to the jump operator I = Lap^(alpha/2):

* spectral: Fourier multiplier -(2 pi |xi|)^alpha on the periodized box;
* quadrature: singular-integral form.  Pairing z with -z turns the principal
  value into S(z) = u(x+z) + u(x-z) - 2u(x), and writing the integrand as
  (S(z)/|z|^2) * kappa(z)|z|^2 regularizes the singularity: in 1d the smooth
  factor S/|z|^2 is interpolated piecewise-linearly on the offset nodes and
  the kernel moment integrated exactly against the hats (product
  integration: no first-moment sampling error, second order uniformly in
  alpha); in 2d the factor is sampled at cell centers against Gauss-Legendre
  cell integrals.  The z = 0 node carries the discrete second derivative.
  All pair weights are nonnegative, so every jump matrix is Metzler.

Exterior treatment of the standalone quadrature operator is a choice,
exposed as ``exterior`` on OperatorConfig:

* "tail": fields are extended by zero outside the box and the analytic
  exterior kernel mass is charged to -u(x).  Faithful to the whole-space
  operator for decaying fields, but the box loses mass through outward jumps.
* "conservative": jumps leaving the box are dropped (the box Markov process:
  exactly zero column sums, constants map to zero).

The GENERATOR instead wraps jumps around the box: the periodized process has
the whole-space symbol exactly, so the wrapped quadrature stencil (circulant
fold plus the kernel mass of all periodic images) is the real-space twin of
the spectral route, with exact mass conservation.  Generator matrices, time
integration and the semigroup machinery all live on this periodized box.

The kernel is kappa_alpha(z) = c_{alpha,d} |z|^(-d-alpha) with the unique
normalization matching the Fourier multiplier; both routes cross-validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.special import gamma as _gamma

from fracfp.grid import Field, Grid

__all__ = [
    "OperatorConfig",
    "ForceField",
    "GeneratorMatrix",
    "norm_constant",
    "make_force",
    "verify_force_hypotheses",
    "spectral_fraclap",
    "quadrature_fraclap",
    "split_fraclap",
    "box_frequencies",
    "fourier_multiply",
    "convolve_same",
    "capped_convolution",
    "drift_divergence",
    "drift_gradient_adjoint",
    "drift_matrix",
    "drift_step_matrix",
    "face_slices",
    "flux_divergence",
    "generator_apply",
    "adjoint_apply",
    "assemble_generator_matrix",
    "offset_matrix",
    "fraclap_of_weight",
    "fraclap_reference",
]

MAX_DENSE = 4096  # dense-assembly guard on n^d


def _readonly(a):
    """Mark a cached result immutable: every caller shares the one array (for
    a sparse matrix, its data, indices and indptr arrays)."""
    for arr in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        arr.flags.writeable = False
    return a


def norm_constant(alpha: float, d: int) -> float:
    """Kernel normalization c_{alpha,d} = 2^a Gamma((d+a)/2) / (pi^(d/2) |Gamma(-a/2)|).

    The unique constant for which the integral operator with kernel
    c |z|^(-d-alpha) has Fourier symbol -(2 pi |xi|)^alpha.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    num = 2.0**alpha * _gamma((d + alpha) / 2.0)
    den = math.pi ** (d / 2.0) * abs(_gamma(-alpha / 2.0))
    return num / den


# ---------------------------------------------------------------------------
# configuration and force fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForceField:
    """Drift field E(x); canonical family E = <x>^(gamma-2) x when func is None.

    Custom fields supply ``func`` taking 1d coordinates (d = 1) or an
    (..., 2) point array (d = 2), matching whichever dimension they run in.
    """

    gamma: float
    func: Callable[[np.ndarray], np.ndarray] | None = None

    def at(self, x: np.ndarray, d: int) -> np.ndarray:
        if self.func is not None:
            return np.asarray(self.func(x), dtype=float)
        x = np.asarray(x, dtype=float)
        if d == 1:
            r2 = x**2
        else:
            r2 = np.sum(x**2, axis=-1, keepdims=True)
        return x * (1.0 + r2) ** ((self.gamma - 2.0) / 2.0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """1d evaluation shorthand."""
        return self.at(x, 1)

    def components(self, coords) -> list:
        """E per axis at the points whose per-axis coordinates are the equally
        shaped arrays coords (as returned by Grid.coords)."""
        d = len(coords)
        pts = coords[0] if d == 1 else np.stack(coords, axis=-1)
        e = self.at(pts, d).reshape(np.shape(coords[0]) + (-1,))
        return [e[..., a] for a in range(d)]

    @property
    def is_canonical(self) -> bool:
        return self.func is None


def make_force(gamma: float) -> ForceField:
    """Canonical confining force E(x) = <x>^(gamma-2) x."""
    return ForceField(gamma=float(gamma))


@dataclass(frozen=True)
class OperatorConfig:
    """Parameters fully determining the generator Lambda f = I(f) + div(E f)."""

    alpha: float
    gamma: float = 2.0
    method: str = "spectral"  # {"spectral", "quadrature"}
    split_radius: float | None = None  # near/far kernel cut; defaults to h
    exterior: str = "tail"  # {"tail", "conservative"} for the quadrature route
    drift: str = "upwind"  # {"upwind", "centered"}: centered trades the
    # discrete maximum principle for second-order steady-state accuracy
    force: ForceField | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.method not in ("spectral", "quadrature"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.exterior not in ("tail", "conservative"):
            raise ValueError(f"unknown exterior mode {self.exterior!r}")
        if self.drift not in ("upwind", "centered"):
            raise ValueError(f"unknown drift scheme {self.drift!r}")

    def force_field(self) -> ForceField:
        return self.force if self.force is not None else make_force(self.gamma)

    def norm_constant(self, d: int) -> float:
        return norm_constant(self.alpha, d)


# ---------------------------------------------------------------------------
# radial kernels and their exact moment integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpKernel:
    """Radial jump kernel c |z|^(-d-alpha), optionally capped, compensated or windowed.

    cap_r:   kappa -> min(kappa, kappa(cap_r))            (bounded far kernel)
    near_of: kappa -> (kappa - kappa(near_of))_+           (compensated near kernel)
    lo, hi:  radial window; kernel vanishes outside [lo, hi].
    """

    c: float
    alpha: float
    d: int
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

    def moment(self, a, b, m: float):
        """Radial moment integral of kappa(r) r^m over [a, b], vectorized in a, b.

        m = 0 and 2 feed the 1d cell weights; m = 1 and 3 feed the polar
        integrals used in 2d; fractional m serves the W^{s,p} seminorms.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        total = np.zeros(np.broadcast(a, b).shape)
        for sa, sb, cp, cv in self._segments():
            lo = np.maximum(a, sa)
            hi = np.minimum(b, sb)
            w = hi > lo
            lo = np.where(w, lo, 1.0)
            hi = np.where(w, hi, 1.0)
            piece = np.zeros_like(total)
            if cp != 0.0:
                q = m - self.d - self.alpha  # never -1 for alpha in (0,2), m in {0..3}
                piece += cp * (hi ** (q + 1) - lo ** (q + 1)) / (q + 1)
            if cv != 0.0:
                piece += cv * (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
            total += np.where(w, piece, 0.0)
        return total

    def l1_mass(self) -> float:
        """Analytic ||kappa||_L1 over R^d (infinite for the uncapped kernel)."""
        surf = 2.0 * math.pi ** (self.d / 2.0) / math.gamma(self.d / 2.0)  # |S^(d-1)|
        return float(surf * self.moment(0.0, math.inf, self.d - 1))


def full_kernel(alpha: float, d: int) -> JumpKernel:
    return JumpKernel(c=norm_constant(alpha, d), alpha=alpha, d=d)


def far_kernel(alpha: float, d: int, r: float) -> JumpKernel:
    return JumpKernel(c=norm_constant(alpha, d), alpha=alpha, d=d, cap_r=r)


def near_kernel(alpha: float, d: int, r: float) -> JumpKernel:
    return JumpKernel(c=norm_constant(alpha, d), alpha=alpha, d=d, near_of=r)


def windowed_kernel(alpha: float, d: int, eps: float) -> JumpKernel:
    return JumpKernel(
        c=norm_constant(alpha, d), alpha=alpha, d=d, lo=eps, hi=1.0 / eps
    )


# ---------------------------------------------------------------------------
# FFT layer on numpy.fft: Fourier multipliers and zero-padded convolutions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def box_frequencies(grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-axis frequencies of the rfftn layout of a field, each shaped to
    broadcast against it: fftfreq on the leading axes, rfftfreq on the last."""
    xi = [np.fft.fftfreq(grid.n, d=grid.h)] * (grid.d - 1) + [np.fft.rfftfreq(grid.n, d=grid.h)]
    return tuple(map(_readonly, np.meshgrid(*xi, indexing="ij", sparse=True)))


def fourier_multiply(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """irfftn(rfftn(values) * mult): the multiplier mult, given in the rfftn
    layout, applied to a field on the periodic box."""
    axes = tuple(range(values.ndim))
    return np.fft.irfftn(np.fft.rfftn(values, axes=axes) * mult, values.shape, axes=axes)


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


# ---------------------------------------------------------------------------
# stencils: pair weights + degree fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpStencil:
    """Discrete realization of a jump kernel on a grid.

    ker      convolution kernel over offsets, shape (2n+1,)*d, zero center;
    deg_in   per-node total pair weight toward in-box targets;
    ext_mass per-node exterior kernel mass (plain cell masses + analytic
             beyond-range tail), charged to -u(x) in "tail" mode.
    The arrays are read-only: get_stencil caches and shares them.
    """

    grid: Grid
    ker: np.ndarray
    deg_in: np.ndarray
    ext_mass: np.ndarray

    def pair_sum(self, values: np.ndarray) -> np.ndarray:
        return convolve_same(values, self.ker)

    def apply(self, values: np.ndarray, exterior: str) -> np.ndarray:
        out = self.pair_sum(values) - self.deg_in * values
        if exterior == "tail":
            out = out - self.ext_mass * values
        return out


@lru_cache(maxsize=32)
def _fold_kernel(grid: Grid, alpha: float) -> np.ndarray:
    """Exact-periodization circulant row of the full kernel, the generator's
    periodic wrap (its eigenvalues: quadrature_symbol): fold the offset
    stencil modulo n and add the kernel mass of all periodic images beyond
    the covered band.

    The image masses make the circulant the discrete kernel of the periodized
    jump process, whose symbol is the whole-space symbol sampled at the box
    frequencies; without them the lowest modes lose the kernel tail beyond
    one period (a ~kappa-tail relative error, fatal for equilibrium shapes).
    All additions are nonnegative, so the Metzler structure is preserved.
    """
    kernel = full_kernel(alpha, grid.d)
    ker = get_stencil(grid, kernel).ker
    n, d, h, period = grid.n, grid.d, grid.h, 2.0 * grid.L
    if d == 1:
        out = np.zeros(n)
        idx = np.arange(-n, n + 1) % n
        np.add.at(out, idx, ker)
        # images: distances r h + m * period and (period - r h) + m * period
        r = np.arange(n) * h
        m_max = 500
        for m in range(1, m_max + 1):
            for dist in (r + period * m, (period - r) + period * m):
                out += kernel.moment(dist - h / 2, dist + h / 2, 0)
        return _readonly(out)
    out = np.zeros((n, n))
    i = np.arange(-n, n + 1) % n
    i1 = np.broadcast_to(i[:, None], ker.shape)
    i2 = np.broadcast_to(i[None, :], ker.shape)
    np.add.at(out, (i1, i2), ker)
    # 2d images over the period lattice: the covered offset band already
    # holds the displacements with m in {0,-1} per axis; add the rest up to
    # |m| <= 6 (the remainder is negligible at 2d tolerances)
    off = np.arange(n) * h
    c1, c2 = np.meshgrid(off, off, indexing="ij")
    for m1 in range(-6, 6):
        for m2 in range(-6, 6):
            if m1 in (0, -1) and m2 in (0, -1):
                continue
            m0, _ = _gl_cell_integrals_2d(
                kernel, c1 + period * m1, c2 + period * m2, h, npts=4
            )
            out += m0
    return _readonly(out)


@lru_cache(maxsize=64)
def get_stencil(grid: Grid, kernel: JumpKernel) -> JumpStencil:
    if grid.d == 1:
        return _build_stencil_1d(grid, kernel)
    return _build_stencil_2d(grid, kernel)


def _hat_weights(kernel: JumpKernel, n: int, h: float, m: float) -> np.ndarray:
    """Weights on the offset nodes 0, h, ..., nh that integrate kappa(z) z^m g(z)
    over (0, nh] for the piecewise-linear interpolant of g: the kernel moments
    are integrated exactly against each hat."""
    zn = np.arange(0, n + 1) * h
    mm = kernel.moment(zn[:-1], zn[1:], m)
    mm1 = kernel.moment(zn[:-1], zn[1:], m + 1)
    gw = np.zeros(n + 1)
    gw[1:] += (mm1 - zn[:-1] * mm) / h  # rising side of the hat at z_j
    gw[:-1] += (zn[1:] * mm - mm1) / h  # falling side of the hat at z_{j-1}
    return gw


def _build_stencil_1d(grid: Grid, kernel: JumpKernel) -> JumpStencil:
    n, h = grid.n, grid.h
    zc = np.arange(1, n + 1) * h
    # product integration of g(z) = S(z)/z^2 against kappa z^2 (hat weights:
    # exact for linear g, so no first-moment sampling error and clean second
    # order uniformly in alpha)
    gw = _hat_weights(kernel, n, h, 2)
    nu = gw[1:] / zc**2
    # the z = 0 node value is the discrete second derivative S_1/h^2
    nu[0] += gw[0] / h**2
    ker = np.zeros(2 * n + 1)
    ker[n + 1 :] = nu
    ker[:n] = nu[::-1]

    cnu = np.concatenate([[0.0], np.cumsum(nu)])
    idx = np.arange(n)
    deg_in = cnu[n - 1 - idx] + cnu[idx]

    wbar = kernel.moment(zc - h / 2, zc + h / 2, 0)  # plain cell masses
    cw = np.concatenate([[0.0], np.cumsum(wbar)])
    beyond = float(kernel.moment((n + 0.5) * h, math.inf, 0))
    ext = (cw[n] - cw[n - 1 - idx]) + (cw[n] - cw[idx]) + 2.0 * beyond
    return JumpStencil(grid, *map(_readonly, (ker, deg_in, ext)))


def _gl_cell_integrals_2d(kernel: JumpKernel, centers1, centers2, h, npts=10, moment=2.0):
    """Gauss-Legendre integrals of kappa and kappa*|z|^moment over square cells."""
    gx, gw = np.polynomial.legendre.leggauss(npts)
    gx = 0.5 * h * gx  # nodes relative to cell center
    gw = 0.5 * h * gw
    z1 = centers1[..., None, None] + gx[None, :, None]
    z2 = centers2[..., None, None] + gx[None, None, :]
    w2d = gw[:, None] * gw[None, :]
    r = np.hypot(z1, z2)
    kv = kernel.value(r)
    m0 = np.sum(kv * w2d, axis=(-2, -1))
    mm = np.sum(kv * r**moment * w2d, axis=(-2, -1))
    return m0, mm


def _theta_quad(f, a, b, npts=2048):
    t = np.linspace(a, b, npts + 1)
    return float(np.trapezoid(f(t), t))


def _build_stencil_2d(grid: Grid, kernel: JumpKernel) -> JumpStencil:
    n, h = grid.n, grid.h
    off = np.arange(-n, n + 1) * h
    c1, c2 = np.meshgrid(off, off, indexing="ij")
    m0, m2 = _gl_cell_integrals_2d(kernel, c1, c2, h)
    mid = n
    rr2 = c1**2 + c2**2
    rr2[mid, mid] = 1.0
    ker = m2 / rr2
    ker[mid, mid] = 0.0
    m0[mid, mid] = 0.0

    # self cell: (1/2) Lap u * int_cell kappa z1^2, via the polar moment integral
    def z1sq(t):
        rmax = (h / 2) / np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t)))
        return np.cos(t) ** 2 * kernel.moment(0.0, rmax, 3)

    mc = _theta_quad(z1sq, 0.0, 2.0 * math.pi)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ker[mid + di, mid + dj] += mc / (2.0 * h**2)

    ones = np.ones(grid.shape)
    deg_in = convolve_same(ones, ker)

    # exterior: plain masses of not-covered cells + analytic beyond-square tail
    cov0 = convolve_same(ones, m0)
    zmax = (n + 0.5) * h

    def beyond_integrand(t):
        return kernel.moment(zmax / np.cos(t), math.inf, 1)

    beyond = 8.0 * _theta_quad(beyond_integrand, 0.0, math.pi / 4)
    ext = (float(m0.sum()) - cov0) + beyond
    return JumpStencil(grid, *map(_readonly, (ker, deg_in, ext)))


# ---------------------------------------------------------------------------
# fractional Laplacian: spectral and quadrature routes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def spectral_symbol(grid: Grid, alpha: float) -> np.ndarray:
    """Multiplier -(2 pi |xi|)^alpha on the discrete frequencies of the box."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    absxi = reduce(np.hypot, box_frequencies(grid))
    return _readonly(-((2.0 * math.pi * absxi) ** alpha))


@lru_cache(maxsize=32)
def quadrature_symbol(grid: Grid, alpha: float) -> np.ndarray:
    """Eigenvalues of the periodic-wrap quadrature circulant (_jump_matrix) in
    the rfftn layout, real (a symmetric row); the zero mode is exactly 0."""
    folded = _fold_kernel(grid, alpha)
    lam = np.fft.rfftn(folded, axes=tuple(range(grid.d))).real - folded.sum()
    lam.flat[0] = 0.0
    return _readonly(lam)


def spectral_fraclap(f: Field, alpha: float) -> Field:
    """I(f) through the Fourier multiplier (periodic interpretation of the box)."""
    return f.with_values(fourier_multiply(f.values, spectral_symbol(f.grid, float(alpha))))


BOUNDARY_DECAY_TOL = 1e-3


def check_boundary_decay(f: Field, tol: float = BOUNDARY_DECAY_TOL) -> float:
    """Largest boundary-layer value relative to the max; raises above tol."""
    v = np.abs(f.values)
    top = float(v.max())
    if top == 0.0:
        return 0.0
    edge = max(float(np.take(v, i, axis=a).max()) for a in range(v.ndim) for i in (0, -1))
    ratio = edge / top
    if ratio > tol:
        raise ValueError(
            f"field does not decay at the box boundary (edge/max = {ratio:.3e} "
            f"> {tol:g}); the zero-extension truncation error would dominate"
        )
    return ratio


def quadrature_fraclap(f: Field, cfg: OperatorConfig, check_decay: bool = True) -> Field:
    """I(f) through the singular-integral quadrature.

    In "tail" mode fields are extended by zero and the analytic exterior
    kernel mass is charged to -u(x); in "conservative" mode jumps leaving
    the box are dropped (Markov box process).
    """
    if check_decay:
        check_boundary_decay(f)
    st = get_stencil(f.grid, full_kernel(cfg.alpha, f.grid.d))
    return f.with_values(st.apply(f.values, cfg.exterior))


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
        r = cfg.split_radius if cfg.split_radius is not None else grid.h
    if not 0.0 < r < grid.L:
        raise ValueError(f"split radius must lie in (0, L), got {r}")
    near_st = get_stencil(grid, near_kernel(cfg.alpha, grid.d, r))
    far_st = get_stencil(grid, far_kernel(cfg.alpha, grid.d, r))
    near = f.with_values(near_st.apply(f.values, cfg.exterior))
    far = f.with_values(far_st.apply(f.values, cfg.exterior))
    kc = far_kernel(cfg.alpha, grid.d, r).l1_mass()
    return near, far, kc


@lru_cache(maxsize=32)
def _plain_conv_kernel(grid: Grid, kernel: JumpKernel) -> np.ndarray:
    """Cell-mass convolution stencil for a bounded kernel (no singularity)."""
    n, h = grid.n, grid.h
    if grid.d == 1:
        j = np.arange(1, n + 1)
        w = kernel.moment(j * h - h / 2, j * h + h / 2, 0)
        ker = np.zeros(2 * n + 1)
        ker[n + 1 :] = w
        ker[:n] = w[::-1]
        ker[n] = 2.0 * float(kernel.moment(0.0, h / 2, 0))
        return _readonly(ker)
    off = np.arange(-n, n + 1) * h
    c1, c2 = np.meshgrid(off, off, indexing="ij")
    m0, _ = _gl_cell_integrals_2d(kernel, c1, c2, h)

    def self_mass(t):
        rmax = (h / 2) / np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t)))
        return kernel.moment(0.0, rmax, 1)

    m0[n, n] = _theta_quad(self_mass, 0.0, 2.0 * math.pi)
    return _readonly(m0)


def capped_convolution(f: Field, cfg: OperatorConfig, r: float) -> Field:
    """kappa^c * f for the bounded far kernel: nonnegative for f >= 0.

    The capped kernel is bounded, so plain cell masses give a second-order
    convolution rule with all weights nonnegative (positivity is structural).
    """
    ker = _plain_conv_kernel(f.grid, far_kernel(cfg.alpha, f.grid.d, r))
    return f.with_values(convolve_same(f.values, ker))


# ---------------------------------------------------------------------------
# drift: conservative upwind divergence and its adjoint
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _face_velocities(grid: Grid, force: ForceField) -> tuple[np.ndarray, ...]:
    """E+ and E- per axis at interior faces, zero at the box boundary faces.

    For the confining family the flux at the outer faces vanishes (upwind
    takes the exterior value, which is zero), so boundary faces carry E = 0
    and the flux form telescopes to exact mass conservation.
    """
    ax = grid.axis
    xf = ax[:-1] + grid.h / 2
    out = []
    for a in range(grid.d):
        faces = np.meshgrid(*(xf if b == a else ax for b in range(grid.d)), indexing="ij")
        ef = force.components(faces)[a]
        out += [np.maximum(ef, 0.0), np.minimum(ef, 0.0)]
    return tuple(map(_readonly, out))


@lru_cache(maxsize=4)
def face_slices(d: int) -> tuple:
    """Per axis, the index tuples (hi, lo) of the cells above and below the
    interior faces: values[hi] - values[lo] is the difference across each face."""
    out = []
    for axis in range(d):
        hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(d))
        lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(d))
        out.append((hi, lo))
    return tuple(out)


def flux_divergence(fluxes, shape: tuple, h: float, slices: tuple) -> np.ndarray:
    """Sum over axes of (F[i+1/2] - F[i-1/2]) / h for per-axis interior-face
    fluxes F; the box boundary faces carry zero flux, so the sum telescopes."""
    out = None
    for flux, (hi, lo) in zip(fluxes, slices):
        term = np.zeros(shape)
        term[lo] = flux
        term[hi] -= flux
        term /= h
        if out is None:
            out = term
        else:
            out += term
    return out


def drift_divergence(f: Field, force: ForceField) -> Field:
    """div(E f) in conservative flux form with first-order upwind faces.

    Faces take the value from the side mass flows from (velocity -E), which
    keeps the stencil Metzler and the discrete maximum principle intact.
    """
    grid = f.grid
    faces = _face_velocities(grid, force)
    v = f.values
    slices = face_slices(grid.d)
    fluxes = [faces[2 * a] * v[hi] + faces[2 * a + 1] * v[lo]
              for a, (hi, lo) in enumerate(slices)]
    return f.with_values(flux_divergence(fluxes, v.shape, grid.h, slices))


def drift_gradient_adjoint(g: Field, force: ForceField) -> Field:
    """-E . grad g, the exact transpose of the upwind divergence.

    Differences are taken on the downwind side relative to -E, so the matrix
    identity (div_upwind)^T = -E.grad_downwind holds entrywise: (D^T g)_i
    includes E+_{i-1/2} (g_{i-1} - g_i)/h and E-_{i+1/2} (g_i - g_{i+1})/h.
    """
    faces = _face_velocities(g.grid, force)
    v = g.values
    out = np.zeros_like(v)
    for a, (hi, lo) in enumerate(face_slices(g.grid.d)):
        dv = (v[hi] - v[lo]) / g.grid.h
        out[hi] -= faces[2 * a] * dv
        out[lo] -= faces[2 * a + 1] * dv
    return g.with_values(out)


def drift_divergence_centered(f: Field, force: ForceField) -> Field:
    """div(E f) with centered face averages: second order, conservative,
    but not Metzler (no discrete maximum principle).  Used where equilibrium
    accuracy outranks sign structure."""
    grid = f.grid
    faces = _face_velocities(grid, force)
    v = f.values
    slices = face_slices(grid.d)
    fluxes = [(faces[2 * a] + faces[2 * a + 1]) * 0.5 * (v[hi] + v[lo])
              for a, (hi, lo) in enumerate(slices)]
    return f.with_values(flux_divergence(fluxes, v.shape, grid.h, slices))


def drift_gradient_adjoint_centered(g: Field, force: ForceField) -> Field:
    """Exact transpose of the centered flux divergence: -E.grad with
    face-averaged centered differences."""
    faces = _face_velocities(g.grid, force)
    v = g.values
    out = np.zeros_like(v)
    for a, (hi, lo) in enumerate(face_slices(g.grid.d)):
        dv = (faces[2 * a] + faces[2 * a + 1]) * (v[hi] - v[lo]) / g.grid.h
        out[hi] -= 0.5 * dv
        out[lo] -= 0.5 * dv
    return g.with_values(out)


def drift_apply(f: Field, cfg: OperatorConfig) -> Field:
    if cfg.drift == "centered":
        return drift_divergence_centered(f, cfg.force_field())
    return drift_divergence(f, cfg.force_field())


def drift_adjoint_apply(g: Field, cfg: OperatorConfig) -> Field:
    if cfg.drift == "centered":
        return drift_gradient_adjoint_centered(g, cfg.force_field())
    return drift_gradient_adjoint(g, cfg.force_field())


def _face_pickers(grid: Grid) -> list:
    """Per axis, the sparse (S_hi, S_lo) that pick the node above and below
    each interior face, rows in the row-major order of the face arrays."""
    n, d = grid.n, grid.d
    out = []
    for axis in range(d):
        out.append(tuple(
            reduce(sp.kron, [sp.eye_array(n - 1, n, k=k) if a == axis else sp.eye_array(n)
                             for a in range(d)]).tocsr()
            for k in (1, 0)))
    return out


def _face_divergence(grid: Grid, face_maps) -> sp.csr_array:
    """Sum over axes of Div_a @ F_a, Div_a = (S_lo - S_hi)^T / h, for per-axis
    maps F_a from node values to interior-face fluxes: flux_divergence as a
    matrix.  Dividing the summed entries by h, as flux_divergence does, keeps
    the result bit-identical to its by-action columns."""
    out = None
    for (s_hi, s_lo), face in zip(_face_pickers(grid), face_maps):
        term = ((s_lo - s_hi).T @ face).tocsr()
        term.data /= grid.h
        out = term if out is None else out + term
    out.eliminate_zeros()
    return out


@lru_cache(maxsize=16)
def drift_matrix(grid: Grid, force: ForceField, drift: str) -> sp.csr_array:
    """The drift generator D = div(E .) as a sparse matrix on the row-major
    node order: drift_apply (upwind or centered faces) column by column."""
    faces = _face_velocities(grid, force)
    maps = []
    for a, (s_hi, s_lo) in enumerate(_face_pickers(grid)):
        ep, em = faces[2 * a].ravel(), faces[2 * a + 1].ravel()
        if drift == "centered":
            maps.append(sp.diags_array(ep + em) @ (0.5 * (s_hi + s_lo)))
        else:
            maps.append(sp.diags_array(ep) @ s_hi + sp.diags_array(em) @ s_lo)
    return _readonly(_face_divergence(grid, maps))


@lru_cache(maxsize=16)
def drift_step_matrix(grid: Grid, force: ForceField, drift: str, tau: float) -> sp.csr_array:
    """One explicit drift substep of length tau as a sparse matrix.

    upwind: Heun, H = (I + P @ P)/2 with P = I + tau D, second order in time
    (Strang keeps its splitting order).  D has zero column sums and a
    nonnegative off-diagonal, and the CFL bound gives tau |D_ii| <= 1 for the
    confining family, so P >= 0 entrywise: every entry of H is a sum of
    nonnegative products, H is column-stochastic, and the substep keeps
    positivity and mass exactly.
    centered: Lax-Wendroff flux E_face [f_face + tau/(2h) (E_node f)_hi-lo];
    the tau^2 term stabilizes the centered average (dispersive, not monotone;
    used by the second-order steady-state routes, not the positivity suites).
    """
    eye = sp.eye_array(grid.size, format="csr")
    if drift != "centered":
        p = eye + tau * drift_matrix(grid, force, drift)
        return _readonly(0.5 * (eye + p @ p))
    faces = _face_velocities(grid, force)
    e_node = force.components(grid.coords())
    c = tau / (2.0 * grid.h)
    maps = []
    for a, (s_hi, s_lo) in enumerate(_face_pickers(grid)):
        e_face = sp.diags_array((faces[2 * a] + faces[2 * a + 1]).ravel())
        lw = 0.5 * (s_hi + s_lo) + c * (s_hi - s_lo) @ sp.diags_array(e_node[a].ravel())
        maps.append(e_face @ lw)
    return _readonly(eye + tau * _face_divergence(grid, maps))


def max_drift_speed(grid: Grid, force: ForceField) -> float:
    """Sum over axes of the largest face speed; drives the CFL bound."""
    faces = _face_velocities(grid, force)
    total = 0.0
    for axis in range(grid.d):
        ep, em = faces[2 * axis], faces[2 * axis + 1]
        total += max(float(np.max(ep, initial=0.0)), float(np.max(-em, initial=0.0)))
    return total


# ---------------------------------------------------------------------------
# the generator Lambda = I + div(E .) and its adjoint
# ---------------------------------------------------------------------------


def jump_apply(f: Field, cfg: OperatorConfig) -> Field:
    """Jump part of the generator per cfg.method.

    The generator is realized on the periodized box: the quadrature route
    wraps jumps around (the real-space twin of the spectral multiplier), so
    mass is conserved exactly (column sums zero, dual to Lambda^* 1 = 0) and
    both routes share one equilibrium up to quadrature error.  Standalone
    exterior treatments live in quadrature_fraclap.
    """
    symbol = spectral_symbol if cfg.method == "spectral" else quadrature_symbol
    return f.with_values(fourier_multiply(f.values, symbol(f.grid, float(cfg.alpha))))


def generator_apply(f: Field, cfg: OperatorConfig) -> Field:
    """Lambda f = I(f) + div(E f)."""
    jump = jump_apply(f, cfg)
    drift = drift_apply(f, cfg)
    return f.with_values(jump.values + drift.values)


def adjoint_apply(g: Field, cfg: OperatorConfig) -> Field:
    """Lambda^* g = I(g) - E . grad g (upwind transposed); Lambda^* 1 = 0 exactly."""
    jump = jump_apply(g, cfg)
    drift = drift_adjoint_apply(g, cfg)
    return g.with_values(jump.values + drift.values)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Dense realization of Lambda (or Lambda^*) on the flattened node set."""

    grid: Grid
    cfg: OperatorConfig
    which: str  # {"forward", "adjoint"}
    mat: np.ndarray

    @property
    def size(self) -> int:
        return self.mat.shape[0]


@lru_cache(maxsize=16)
def _jump_matrix(grid: Grid, alpha: float) -> np.ndarray:
    """Periodic-wrap jump matrix: circulant symmetric Metzler, column sums zero."""
    a = offset_matrix(_fold_kernel(grid, alpha), grid.n, 0)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=0))
    return _readonly(a)


def offset_matrix(table: np.ndarray, n: int, center: int) -> np.ndarray:
    """Dense matrix of a translation-invariant operator on the n^d nodes in
    row-major order: the entry of nodes (i, j) is table[(center + i_a - j_a)
    mod m per axis a], m the table's axis length.  A circulant row (m = n)
    has center 0; an offset kernel over -n..n (m = 2n + 1) has center n."""
    i = np.arange(n)
    index = (center + i[:, None] - i[None, :]) % table.shape[0]
    d = table.ndim
    gather = []
    for a in range(d):
        shape = [1] * (2 * d)
        shape[a] = shape[d + a] = n
        gather.append(index.reshape(shape))
    return table[tuple(gather)].reshape(n**d, n**d)


def assemble_generator_matrix(
    grid: Grid, cfg: OperatorConfig, which: str = "forward"
) -> GeneratorMatrix:
    """Dense generator on n^d <= 4096 nodes; adjoint is the exact transpose.

    The jump part always uses the conservative quadrature stencil: the
    spectral multiplier has no Metzler matrix realization, and the maximum
    principle plus Krein-Rutman structure require nonnegative off-diagonal
    jump entries.
    """
    if which not in ("forward", "adjoint"):
        raise ValueError(f"which must be 'forward' or 'adjoint', got {which!r}")
    if grid.size > MAX_DENSE:
        raise ValueError(
            f"dense assembly limited to n^d <= {MAX_DENSE}, got {grid.size}"
        )
    a = _jump_matrix(grid, cfg.alpha) + drift_matrix(grid, cfg.force_field(), cfg.drift).toarray()
    if which == "adjoint":
        a = a.T
    return GeneratorMatrix(grid=grid, cfg=cfg, which=which, mat=a)


# ---------------------------------------------------------------------------
# semi-analytic fractional Laplacian of smooth non-decaying functions (1d)
# ---------------------------------------------------------------------------


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

    vals = fraclap_reference(m, grid.axis, alpha)
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# hypothesis checks on the force field
# ---------------------------------------------------------------------------


def verify_force_hypotheses(force: ForceField, gamma: float, grid: Grid) -> dict:
    """Empirical constants for the growth and confinement hypotheses.

    Returns sup |grad E| / <x>^(gamma-2), inf (E.x) / (<x>^(gamma-2) |x|^2)
    over nodes with |x| > h, plus a flag for any node where E.x < 0.
    grad E uses centered differences with step h.
    """
    h = grid.h
    coords = grid.coords()
    e = force.components(coords)
    grad_norm = np.sqrt(sum(np.gradient(ea, h, axis=b) ** 2 for ea in e for b in range(grid.d)))
    ex = sum(ea * xa for ea, xa in zip(e, coords))
    r2 = grid.radius2()
    decay = grid.bracket() ** (gamma - 2.0)
    sup_grad = float(np.max(grad_norm / decay))
    mask = r2 > h**2
    inf_conf = float(np.min(ex[mask] / (decay[mask] * r2[mask])))
    negative = ex < -1e-14 * np.max(np.abs(ex))
    report = {
        "sup_grad_ratio": sup_grad,
        "inf_confinement_ratio": inf_conf,
        "negative_confinement_nodes": int(np.count_nonzero(negative)),
        "passes": bool(
            np.isfinite(sup_grad) and inf_conf > 0.0 and not negative.any()
        ),
    }
    return report
