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

One cached builder, cell_tables, integrates a radial kernel over the lattice
cells (product-integration weights for S(z)/|z|^q); the operator stencil
reads its table from it, and so do the W^{s,p} seminorm weights of
tests/paper_checks.py.  A radial kernel's cell integral depends only on the
offsets' absolute values, up to their order, so the 2d tables and the
periodic-image fold integrate each cell once, on one symmetry wedge
(_wedge_cells).

The GENERATOR wraps jumps around the box: the periodized process has
the whole-space symbol exactly, so the wrapped quadrature stencil (circulant
fold plus the kernel mass of all periodic images) is the real-space twin of
the spectral route, with exact mass conservation.  Generator matrices, time
integration and the semigroup machinery all live on this periodized box.
The dense generator is its orbit maps and one accessor of its symmetry
sectors, each built on the first call (GeneratorMatrix.sector): a route
pays for the sectors it factors, and its cap counts their unknowns, not
the n^d nodes.  No route builds the N x N matrix.

The kernel is kappa_alpha(z) = c_{alpha,d} |z|^(-d-alpha) with the unique
normalization matching the Fourier multiplier; both routes cross-validate it.

The drift div(E f) has one realization, the finite-volume flux form
(LeVeque, Finite Volume Methods for Hyperbolic Problems, 2002): each
interior face carries the flux w_hi f_hi + w_lo f_lo, and one builder,
_flux_form, writes sum_a (F[i+1/2] - F[i-1/2]) / h entry by entry into a
sparse matrix.  The upwind and centered drift_matrix and the Lax-Wendroff
substep of drift_step_matrix differ only in their two weights per face.
The generator applies drift_matrix, the adjoint paper check its transpose
(through scipy.sparse, in tests/), and the time stepper and dense assembly
build on it.

No scipy package is imported: _load_compiled loads the three compiled
modules the package calls from their files (pocketfft for the Fourier
multipliers, sparsetools for the read-only CSR type of the sparse matrices,
and the Pade kernels of expm), so no scipy __init__ runs.  CSR calls the
sparsetools kernels as scipy.sparse does, and expm the Pade kernels as
scipy.linalg.expm does: their results are scipy's bit for bit.  Every run
calls pocketfft and sparsetools, which load with this module; the Pade
kernels load on the first expm, as numpy.random loads on the first seeded
bank (numpy 2 loads it on first use), so a run that calls neither loads
neither.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path
from types import MappingProxyType
from typing import Callable

import numpy as np
# numpy 2 loads these subpackages on first use: every run calls numpy.fft,
# and the 2d wedge quadrature calls leggauss, so importing them here keeps
# that cost in set-up, not in the first route that calls them
import numpy.fft
import numpy.polynomial

from fracfp.grid import Field, Grid

__all__ = [
    "OperatorConfig",
    "ForceField",
    "GeneratorMatrix",
    "norm_constant",
    "make_force",
    "confinement_ratio",
    "spectral_fraclap",
    "box_frequencies",
    "fourier_multiply",
    "drift_matrix",
    "drift_step_matrix",
    "symmetries",
    "orbit_maps",
    "generator_apply",
    "assemble_generator_matrix",
]

MAX_DENSE = 4096  # cap of the dense solve's fully even sector


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark a cached array immutable: every caller shares the one array."""
    a.flags.writeable = False
    return a


def norm_constant(alpha: float, d: int) -> float:
    """Kernel normalization c_{alpha,d} = 2^a Gamma((d+a)/2) / (pi^(d/2) |Gamma(-a/2)|).

    The unique constant for which the integral operator with kernel
    c |z|^(-d-alpha) has Fourier symbol -(2 pi |xi|)^alpha.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    num = 2.0**alpha * math.gamma((d + alpha) / 2.0)
    den = math.pi ** (d / 2.0) * abs(math.gamma(-alpha / 2.0))
    return num / den


# ---------------------------------------------------------------------------
# configuration and force fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForceField:
    """Drift field E(x); canonical family E = <x>^(gamma-2) x when func is None.

    ``at`` maps an (..., d) point array to E there, of the same shape; a
    custom ``func`` receives and returns the same (..., d) arrays.
    """

    gamma: float
    func: Callable[[np.ndarray], np.ndarray] | None = None

    def at(self, x: np.ndarray) -> np.ndarray:
        if self.func is not None:
            return np.asarray(self.func(x), dtype=float)
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x**2, axis=-1, keepdims=True)
        return x * (1.0 + r2) ** ((self.gamma - 2.0) / 2.0)

    def components(self, coords) -> list:
        """E per axis at the points whose per-axis coordinates are the equally
        shaped arrays coords (as returned by Grid.coords)."""
        e = self.at(np.stack(coords, axis=-1))
        return [e[..., a] for a in range(len(coords))]


def make_force(gamma: float) -> ForceField:
    """Canonical confining force E(x) = <x>^(gamma-2) x."""
    return ForceField(gamma=float(gamma))


@dataclass(frozen=True)
class OperatorConfig:
    """Parameters fully determining the generator Lambda f = I(f) + div(E f)."""

    alpha: float
    gamma: float = 2.0
    method: str = "spectral"  # {"spectral", "quadrature"}
    drift: str = "upwind"  # {"upwind", "centered"}: centered trades the
    # discrete maximum principle for second-order steady-state accuracy
    force: ForceField | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.method not in ("spectral", "quadrature"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.drift not in ("upwind", "centered"):
            raise ValueError(f"unknown drift scheme {self.drift!r}")

    def force_field(self) -> ForceField:
        return self.force if self.force is not None else make_force(self.gamma)


# ---------------------------------------------------------------------------
# radial kernels and their exact moment integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpKernel:
    """Radial jump kernel c |z|^(-d-alpha)."""

    c: float
    alpha: float
    d: int

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return self.c * r ** (-self.d - self.alpha)

    def moment(self, a, b, m: float):
        """Radial moment integral of kappa(r) r^m over [a, b], vectorized in a, b.

        m = 0 and 2 feed the 1d cell weights; m = 1 and 3 feed the polar
        integrals used in 2d; fractional m serves the W^{s,p} seminorms.
        """
        lo = np.maximum(np.asarray(a, dtype=float), 0.0)
        hi = np.asarray(b, dtype=float)
        w = hi > lo
        lo, hi = np.where(w, lo, 1.0), np.where(w, hi, 1.0)
        q1 = m - self.d - self.alpha + 1  # never 0 for alpha in (0,2), m in {0..3}
        return np.where(w, self.c * (hi**q1 - lo**q1) / q1, 0.0)


def full_kernel(alpha: float, d: int) -> JumpKernel:
    return JumpKernel(c=norm_constant(alpha, d), alpha=alpha, d=d)


# ---------------------------------------------------------------------------
# scipy's compiled modules, loaded from their files
# ---------------------------------------------------------------------------

SCIPY = Path(importlib.util.find_spec("scipy").origin).parent


def _load_compiled(name: str):
    """scipy's compiled module scipy.<name>, loaded from its file under that
    name, without running any scipy package's __init__: scipy/fft's loads all
    of scipy.special, and scipy/sparse's and scipy/linalg's load the
    array-API layer of scipy._lib, which imports numpy.f2py and numpy.testing."""
    package, _, module = name.rpartition(".")
    where = SCIPY.joinpath(*package.split("."))
    finder = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"scipy.{name}")
    if spec is None:
        raise ImportError(f"no compiled {module} module in {where}")
    compiled = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compiled)
    return compiled


pypocketfft = _load_compiled("fft._pocketfft.pypocketfft")
_sparsetools = _load_compiled("sparse._sparsetools")


@lru_cache(maxsize=1)
def _pade_kernels():
    """scipy's compiled Pade kernels, loaded on the first expm."""
    return _load_compiled("linalg._matfuncs_expm")


def expm(a: np.ndarray) -> np.ndarray:
    """e^a for a square float64 matrix a, a new array, as scipy.linalg.expm
    computes it.  A diagonal a gives the exponentials of its diagonal.  On a
    matrix with entries both above and below its diagonal, scipy's compiled
    kernels run as scipy calls them (Al-Mohy and Higham, SIAM J. Matrix
    Anal. Appl. 2009): pick_pade_structure picks the Pade order m and the
    scaling 2^-s (scaling its copy of a in place), pade_UV_calc leaves the
    order-m Pade approximant in that copy, and s squarings raise it to e^a.
    A triangular matrix, which scipy takes on a branch of its own, raises
    ValueError."""
    lower, upper = np.tril(a, -1).any(), np.triu(a, 1).any()
    if not (lower or upper):
        return np.diag(np.exp(np.diag(a)))
    if not (lower and upper):
        raise ValueError("expm takes no triangular matrix")
    work = np.empty((5,) + a.shape)
    work[0] = a
    _matfuncs_expm = _pade_kernels()
    m, s = _matfuncs_expm.pick_pade_structure(work)
    if m < 0 or _matfuncs_expm.pade_UV_calc(work, m) != 0:
        raise RuntimeError("expm: scipy's Pade kernels failed")
    out = work[0].copy()
    for _ in range(s):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# FFT layer: Fourier multipliers (pocketfft)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def box_frequencies(grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-axis frequencies of the rfftn layout of a field, each shaped to
    broadcast against it: fftfreq on the leading axes, rfftfreq on the last."""
    xi = [np.fft.fftfreq(grid.n, d=grid.h)] * (grid.d - 1) + [np.fft.rfftfreq(grid.n, d=grid.h)]
    return tuple(map(readonly, np.meshgrid(*xi, indexing="ij", sparse=True)))


def fourier_multiply(values: np.ndarray, mult: np.ndarray, even=()) -> np.ndarray:
    """irfftn(rfftn(values) * mult) over the trailing mult.ndim axes: the
    multiplier mult, given in the rfftn layout, applied to a float64 field on
    the periodic box, or to each field of a stack of them.  The transforms
    run axis by axis (rfft, then fft over the earlier grid axes) in scipy's
    compiled pocketfft, called with the arguments scipy.fft's wrappers pass
    (inorm 0 forward, 2 inverse; one thread): their results bit for bit,
    without their per-call dispatch.  Each transform writes in place where
    the previous output's dtype and layout allow; values is never written.

    ``even`` lists grid axes (0 first) along which values holds the first
    half of a field even under the reflection of that axis, and mult the
    first n/2 modes of an even multiplier (``mult[grid.half(even)]``).  Along
    them the transform is the DCT-II and its inverse: the DFT of a
    half-sample-even sequence of length n is e^{i pi k/n} times the DCT-II of
    its first half, which vanishes at the Nyquist mode k = n/2, so the
    multiply is the same on the half (Martucci, IEEE Trans. Signal Process.
    1994).  When the last axis is in even, the other axes take a complex fft
    and the real part of its inverse."""
    lead = values.ndim - mult.ndim
    cos = [lead + a for a in even]
    waves = [a for a in range(lead, values.ndim - 1) if a not in cos]
    real_last = values.ndim - 1 not in cos
    spec = values
    for a in cos:
        spec = pypocketfft.dct(spec, 2, (a,), 0, None if spec is values else spec, 1)
    if real_last:
        spec = pypocketfft.r2c(spec, (-1,), True, 0, None, 1)
    for a in waves:  # a real spec (the last axis folded) becomes complex here
        spec = pypocketfft.c2c(spec, (a,), True, 0, spec if spec.dtype.kind == "c" else None, 1)
    spec *= mult
    for a in waves:
        spec = pypocketfft.c2c(spec, (a,), False, 2, spec, 1)
    spec = (pypocketfft.c2r(spec, (-1,), values.shape[-1], False, 2, None, 1) if real_last
            else spec.real)  # a strided view when waves made spec complex
    for a in cos:
        spec = pypocketfft.dct(spec, 3, (a,), 2, spec if spec.flags.c_contiguous else None, 1)
    return spec


# ---------------------------------------------------------------------------
# cell quadrature of radial kernels, and the stencils built on it
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _gauss_legendre(npts: int):
    """Nodes and weights of the npts-point Gauss-Legendre rule on [-1, 1]."""
    return tuple(map(readonly, np.polynomial.legendre.leggauss(npts)))


def gl_cell_integrals_2d(kernel: JumpKernel, centers1, centers2, h, npts=10, moment=2.0):
    """Gauss-Legendre integrals of kappa*|z|^moment over square cells (at
    moment 0 the cell masses, kappa alone)."""
    gx, gw = _gauss_legendre(npts)
    gx = 0.5 * h * gx  # nodes relative to cell center
    gw = 0.5 * h * gw
    z1 = centers1[..., None, None] + gx[None, :, None]
    z2 = centers2[..., None, None] + gx[None, None, :]
    w2d = gw[:, None] * gw[None, :]
    r = np.hypot(z1, z2)
    kv = kernel.value(r)
    if moment != 0:
        kv = kv * r**moment
    return np.sum(kv * w2d, axis=(-2, -1))


def theta_quad(f, a, b):
    """Trapezoid rule for int_a^b f(t) dt on 2048 intervals (angular integrals)."""
    t = np.linspace(a, b, 2049)
    return float(np.trapezoid(f(t), t))


def _self_cell(kernel: JumpKernel, grid: Grid, power: float) -> float:
    """int kappa(|z|) |z|^power dz over the self cell [-h/2, h/2]^d, in polar
    form: exact radial moments, and in 2d the angle by theta_quad, each ray
    ending at the cell edge."""
    h = grid.h
    if grid.d == 1:
        return 2.0 * float(kernel.moment(0.0, h / 2, power))

    def ray(t):
        rmax = (h / 2) / np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t)))
        return kernel.moment(0.0, rmax, power + 1)

    return theta_quad(ray, 0.0, 2.0 * math.pi)


WEDGE_NODES = 1 << 14  # quadrature nodes per batch of _wedge_cells: bounds its temporaries


def _wedge_cells(kernel: JumpKernel, top: int, h: float, npts: int, moment: float):
    """gl_cell_integrals_2d at moment on the cells centered at (a h, b h),
    0 <= a, b <= top: a new table of shape (top + 1, top + 1), exactly
    symmetric.  A radial kernel's cell integral depends only on (|a|, |b|) up
    to their order, so each cell is evaluated once, on the wedge a <= b, in
    batches of at most WEDGE_NODES quadrature nodes, and mirrored across the
    diagonal."""
    a, b = np.triu_indices(top + 1)
    out = np.empty((top + 1, top + 1))
    step = max(1, WEDGE_NODES // npts**2)
    for s in range(0, len(a), step):
        ia, ib = a[s:s + step], b[s:s + step]
        out[ia, ib] = gl_cell_integrals_2d(kernel, ia * h, ib * h, h, npts, moment)
    out[b, a] = out[a, b]
    return out


@lru_cache(maxsize=64)
def cell_tables(grid: Grid, kernel: JumpKernel, q: float) -> np.ndarray:
    """The cell quadrature of a radial kernel on the offsets -n..n per axis:
    the read-only product-integration weights, of shape (2n+1,)*d, offset 0
    at the center, for a smooth factor g(z) = S(z)/|z|^q against kappa |z|^q.
    In 1d g is interpolated piecewise-linearly on the offset nodes and the
    kernel moments are integrated exactly against each hat (exact for linear
    g, so no first-moment sampling error); the center holds the hat at 0
    over both sides.  In 2d g is sampled at cell centers against
    Gauss-Legendre cell integrals of kappa |z|^q, evaluated on one symmetry
    wedge (_wedge_cells); the center holds the self-cell moment.  The table
    is exactly even along each axis, and in 2d exactly symmetric.
    """
    n, h = grid.n, grid.h
    if grid.d == 1:
        zn = np.arange(0, n + 1) * h
        mm = kernel.moment(zn[:-1], zn[1:], q)
        mm1 = kernel.moment(zn[:-1], zn[1:], q + 1)
        gw = np.zeros(n + 1)
        gw[1:] += (mm1 - zn[:-1] * mm) / h  # rising side of the hat at z_j
        gw[:-1] += (zn[1:] * mm - mm1) / h  # falling side of the hat at z_{j-1}
        w = gw[1:] / zn[1:]**q
        return readonly(np.concatenate([w[::-1], [2.0 * gw[0]], w]))
    mq = _wedge_cells(kernel, n, h, 10, q)
    off = np.arange(n + 1) * h
    rr2 = off[:, None] ** 2 + off[None, :] ** 2
    rr2[0, 0] = 1.0
    w = mq / rr2 ** (q / 2)
    w[0, 0] = _self_cell(kernel, grid, q)
    return readonly(w[np.ix_(*[np.abs(np.arange(-n, n + 1))] * 2)])


IMAGE_BLOCK = 50  # periodic images per block of 1d cell moments: bounds the temporaries


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

    The row is averaged over each axis's index reversal k -> -k mod n and
    over the transposition of the axes, which leave the kernel unchanged: it
    is exactly even and symmetric, so the dense jump matrix is exactly
    invariant under the reflections and the axis swap.
    """
    kernel = full_kernel(alpha, grid.d)
    ker = get_stencil(grid, kernel)
    n, d, h = grid.n, grid.d, grid.h
    out = np.zeros(grid.shape)
    i = np.arange(-n, n + 1) % n
    np.add.at(out, np.ix_(*[i] * d), ker)
    if d == 1:
        # images at the offsets k + m n and m n + (n - k), m = 1..500: row k
        # gets S[k] + S[n - k], S[k] = sum_m cell[k + m n], from the cell
        # masses on the offsets n..501 n (the period offset n is also a
        # stencil cell)
        s = np.zeros(n + 1)
        for m in range(1, 501, IMAGE_BLOCK):
            z = np.arange(m * n, (m + IMAGE_BLOCK) * n + 1) * h
            cell = kernel.moment(z - h / 2, z + h / 2, 0)
            s[:n] += cell[:-1].reshape(IMAGE_BLOCK, n).sum(axis=0)
            s[n] += cell[n::n].sum()
        out += (s + s[::-1])[:n]
    else:
        # 2d images over the period lattice: the cells at the offsets
        # [-6n, 6n) per axis (|m| <= 6 periods; the remainder is negligible
        # at 2d tolerances) outside the stencil band [-n, n)^2, each folded
        # modulo n with one reshape-sum
        m0 = _wedge_cells(kernel, 6 * n, h, 4, 0.0)
        cells = m0[np.ix_(*[np.abs(np.arange(-6 * n, 6 * n))] * 2)]
        cells[5 * n:7 * n, 5 * n:7 * n] = 0.0
        out += cells.reshape(12, n, 12, n).sum(axis=(0, 2))
    for a in range(d):
        out = 0.5 * (out + np.roll(np.flip(out, a), 1, a))
    return readonly(np.mean([out.transpose(p) for p in itertools.permutations(range(d))], axis=0))


@lru_cache(maxsize=64)
def get_stencil(grid: Grid, kernel: JumpKernel) -> np.ndarray:
    """The operator stencil of a kernel, the read-only offset row (2n+1,)*d
    that _fold_kernel folds: the cell_tables weights at q = 2, so the smooth
    factor S(z)/|z|^2 meets the kernel moment kappa |z|^2.  The z = 0 term
    carries (1/2) d_a^2 u times weights[center] / d along each axis a (the
    center weight is the hat at 0 in 1d; in 2d the self-cell moment
    int_cell kappa |z|^2, whose parts int_cell kappa z_a^2 are equal by the
    swap symmetry), moved onto the nearest-neighbour offsets as the discrete
    second derivative: the center is 0."""
    n, h, d = grid.n, grid.h, grid.d
    weights = cell_tables(grid, kernel, 2.0)
    ker = weights.copy()
    center = (n,) * d
    ker[center] = 0.0
    axis_term = 0.5 * (weights[center] / d) / h**2
    for a, s in itertools.product(range(d), (-1, 1)):
        ker[tuple(n + s * (b == a) for b in range(d))] += axis_term
    return readonly(ker)


# ---------------------------------------------------------------------------
# fractional Laplacian: spectral and quadrature routes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def spectral_symbol(grid: Grid, alpha: float) -> np.ndarray:
    """Multiplier -(2 pi |xi|)^alpha on the discrete frequencies of the box."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    absxi = reduce(np.hypot, box_frequencies(grid))
    return readonly(-((2.0 * math.pi * absxi) ** alpha))


@lru_cache(maxsize=32)
def quadrature_symbol(grid: Grid, alpha: float) -> np.ndarray:
    """Eigenvalues of the periodic-wrap quadrature circulant (_jump_matrix) in
    the rfftn layout, real (a symmetric row); the zero mode is exactly 0."""
    folded = _fold_kernel(grid, alpha)
    lam = np.fft.rfftn(folded, axes=tuple(range(grid.d))).real - folded.sum()
    lam.flat[0] = 0.0
    return readonly(lam)


def spectral_fraclap(f: Field, alpha: float) -> Field:
    """I(f) through the Fourier multiplier (periodic interpretation of the box)."""
    return f.with_values(fourier_multiply(f.values, spectral_symbol(f.grid, float(alpha))))


# ---------------------------------------------------------------------------
# sparse matrices: a read-only CSR type on scipy's compiled sparsetools
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CSR:
    """A read-only sparse matrix in compressed sparse row form: row i holds
    data[indptr[i]:indptr[i + 1]] in the columns indices[indptr[i]:...].

    The operations the package calls (from_coo, diag, the sum, the product
    with a scalar, a matrix or columns, and lane_product) call
    scipy's compiled sparsetools kernels as scipy.sparse's csr_array calls
    them, with the same inputs in the same order, so each result has
    scipy.sparse's indptr, indices and data bit for bit, the order of the
    entries within a row included (a product or a sum of matrices that are
    not canonical keeps its kernel's order, and drops the entries that it
    computes as 0).  The index dtype is int32, or int64 when from_coo gets
    wider indices, as in scipy.sparse."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        nnz = int(self.indptr[-1])  # a kernel's output arrays may be longer
        for name in ("indices", "data"):
            if len(getattr(self, name)) > nnz:
                object.__setattr__(self, name, getattr(self, name)[:nnz].copy())
        for arr in self.arrays:
            arr.flags.writeable = False

    @property
    def arrays(self) -> tuple:
        return self.indptr, self.indices, self.data

    def _empty(self, rows: int, room: int) -> tuple:
        """Output indptr, indices and data for a kernel."""
        return np.empty(rows + 1, self.indices.dtype), np.empty(room, self.indices.dtype), np.empty(room)

    @classmethod
    def from_coo(cls, data: np.ndarray, row: np.ndarray, col: np.ndarray, shape: tuple) -> "CSR":
        """The matrix of the entries data at (row, col), duplicates summed, as
        scipy.sparse.csr_array((data, (row, col)), shape) builds it: coo_tocsr,
        then, unless that is canonical, the indices sorted within each row
        and the duplicates summed in that order."""
        (m, n), nnz, idx = shape, len(data), np.result_type(np.int32, row, col)
        indptr, indices, out = np.empty(m + 1, idx), np.empty(nnz, idx), np.empty(nnz)
        _sparsetools.coo_tocsr(m, n, nnz, row.astype(idx), col.astype(idx), data, indptr, indices, out)
        if not _sparsetools.csr_has_canonical_format(m, indptr, indices):
            if not _sparsetools.csr_has_sorted_indices(m, indptr, indices):
                _sparsetools.csr_sort_indices(m, indptr, indices, out)
            _sparsetools.csr_sum_duplicates(m, n, indptr, indices, out)
        return cls(shape, indptr, indices, out)

    @classmethod
    def diag(cls, values: np.ndarray) -> "CSR":
        """The diagonal matrix of values, without its zero entries, as
        scipy.sparse.diags_array(values).tocsr() holds it."""
        live = values != 0
        indptr = np.concatenate([[0], np.cumsum(live)]).astype(np.int32)
        return cls((len(values),) * 2, indptr, np.flatnonzero(live).astype(np.int32), values[live])

    def coo(self) -> tuple:
        """(row, col, data) of the stored entries, in storage order."""
        row = np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype), np.diff(self.indptr))
        return row, self.indices, self.data

    def __add__(self, other: "CSR") -> "CSR":
        """self + other through csr_plus_csr."""
        out = self._empty(self.shape[0], len(self.data) + len(other.data))
        _sparsetools.csr_plus_csr(*self.shape, *self.arrays, *other.arrays, *out)
        return CSR(self.shape, *out)

    def __mul__(self, scalar: float) -> "CSR":
        return CSR(self.shape, self.indptr, self.indices, self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """The product with a CSR matrix (csr_matmat: each row's entries in
        the kernel's order) or with the columns of a 2d array (csr_matvecs,
        into a new array); lane_product applies a square matrix to fields."""
        m, n = self.shape
        if isinstance(other, CSR):
            k = other.shape[1]
            room = _sparsetools.csr_matmat_maxnnz(m, k, *self.arrays[:2], *other.arrays[:2])
            out = self._empty(m, room)
            _sparsetools.csr_matmat(m, k, *self.arrays, *other.arrays, *out)
            return CSR((m, k), *out)
        out = np.zeros((m, other.shape[1]))
        _sparsetools.csr_matvecs(m, n, other.shape[1], *self.arrays, other.ravel(), out.ravel())
        return out

    def lane_product(self) -> Callable[[np.ndarray], np.ndarray]:
        """x -> self @ x for the square matrix self, on one field or on each
        lane of a stack whose trailing axes hold shape[1] values: one
        csr_matvec call per lane into a zeroed output, as scipy.sparse's
        product with a vector runs it, without its per-call dispatch."""
        m, n = self.shape
        if m != n:
            raise ValueError("lane_product needs a square matrix")
        args = (m, n, *self.arrays)

        def apply(values: np.ndarray) -> np.ndarray:
            out = np.zeros(values.shape)
            for x, y in zip(values.reshape(-1, n), out.reshape(-1, n)):
                _sparsetools.csr_matvec(*args, x, y)
            return out

        return apply


# ---------------------------------------------------------------------------
# drift: sparse matrices over the interior faces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _face_velocities(grid: Grid, force: ForceField) -> tuple[np.ndarray, ...]:
    """The signed face velocity E_a per axis a at the interior faces normal
    to it, read-only.

    No flux crosses the box boundary faces (for the confining family upwind
    would take the exterior value there, which is zero), so they carry no
    velocity and the flux form telescopes to exact mass conservation.
    """
    ax = grid.axis
    xf = 0.5 * (ax[:-1] + ax[1:])  # exactly odd, as the axis is
    out = []
    for a in range(grid.d):
        faces = np.meshgrid(*(xf if b == a else ax for b in range(grid.d)), indexing="ij")
        out.append(readonly(force.components(faces)[a]))
    return tuple(out)


def _flux_form(grid: Grid, weights) -> CSR:
    """The matrix of sum_a (F[i+1/2] - F[i-1/2]) / h for the interior-face
    fluxes F = w_hi f_hi + w_lo f_lo, one face-shaped (w_hi, w_lo) per axis a
    (f_hi, f_lo the nodes above and below the face); no flux crosses the
    box boundary faces.  Entry by entry: w_hi / h above the diagonal,
    -w_lo / h below it, and ((-w_hi below) + w_lo above) / h on it, the
    axes added in order; exact zeros are not stored.  These are the roundings
    of scipy.sparse's face-picker products (tests/sparse_reference.py), bit
    for bit.  The entries go to from_coo row by row in column order, so it
    neither sorts nor sums them."""
    nodes = np.arange(grid.size, dtype=np.int32).reshape(grid.shape)
    lower, upper, diag = [], [], 0.0
    for a, (w_hi, w_lo) in enumerate(weights):
        lo, hi = (tuple(slice(k, k + grid.n - 1) if b == a else slice(None) for b in range(grid.d))
                  for k in (0, 1))
        sub, sup, term = np.zeros((3, *grid.shape))
        sub[hi], sup[lo], term[hi] = -w_lo / grid.h, w_hi / grid.h, -w_hi
        term[lo] += w_lo
        diag = diag + term / grid.h
        step = grid.size // grid.n ** (a + 1)  # the node stride of axis a
        lower.append((nodes - step, sub))
        upper.insert(0, (nodes + step, sup))
    col, data = (np.stack(x, axis=-1).ravel() for x in zip(*lower, (nodes, diag), *upper))
    row = np.repeat(nodes.ravel(), 2 * grid.d + 1)
    live = data != 0
    return CSR.from_coo(data[live], row[live], col[live], (grid.size,) * 2)


@lru_cache(maxsize=16)
def drift_matrix(grid: Grid, force: ForceField, drift: str) -> CSR:
    """The drift generator D = div(E .) in conservative flux form, as a sparse
    matrix on the row-major node order (_flux_form).  The generator applies
    D, the adjoint D^T = -E . grad, and the stepper and dense assembly build
    on D.

    upwind:   each face takes the value from the side mass flows from
              (velocity -E), flux max(E, 0) f_hi + min(E, 0) f_lo: D is
              Metzler (discrete maximum principle), and D^T differences on
              the downwind side.
    centered: flux E (f_hi + f_lo)/2: second order and conservative but not
              Metzler; D^T takes face-averaged centered differences.
    No flux crosses the box boundary faces, so the columns of D sum to zero
    (to roundoff): D^T 1 = 0.
    """
    faces = _face_velocities(grid, force)
    if drift == "centered":
        return _flux_form(grid, [(e * 0.5,) * 2 for e in faces])
    return _flux_form(grid, [(np.maximum(e, 0.0), np.minimum(e, 0.0)) for e in faces])


@lru_cache(maxsize=16)
def drift_step_matrix(grid: Grid, force: ForceField, drift: str, tau: float) -> CSR:
    """One explicit drift substep of length tau as a sparse matrix.

    upwind: Heun, H = (I + P @ P)/2 with P = I + tau D, second order in time
    (Strang keeps its splitting order).  D has zero column sums and a
    nonnegative off-diagonal, and the CFL bound gives tau |D_ii| <= 1 for the
    confining family, so P >= 0 entrywise: every entry of H is a sum of
    nonnegative products, H is column-stochastic, and the substep keeps
    positivity and mass exactly.
    centered: Lax-Wendroff flux E_face [f_face + tau/(2h) (E_node f)_hi-lo],
    the face weights E_face (1/2 + c E_hi) and E_face (1/2 - c E_lo) of
    _flux_form with c = tau/(2h), and H = I + tau D_LW; the tau^2 term
    stabilizes the centered average (dispersive, not monotone; used by the
    second-order steady-state routes, not the positivity suites).
    """
    eye = CSR.diag(np.ones(grid.size))
    if drift != "centered":
        # csr_matmat's entry order in P @ P fixes the bits of every step
        p = eye + tau * drift_matrix(grid, force, drift)
        return 0.5 * (eye + p @ p)
    e_node = force.components(grid.coords())
    c = tau / (2.0 * grid.h)
    weights = []
    for a, e_face in enumerate(_face_velocities(grid, force)):
        e_lo, e_hi = (np.take(e_node[a], np.arange(k, k + grid.n - 1), a) for k in (0, 1))
        weights.append((e_face * (0.5 + c * e_hi), e_face * (0.5 + c * -e_lo)))
    return eye + tau * _flux_form(grid, weights)


def max_drift_speed(grid: Grid, force: ForceField) -> float:
    """Sum over axes of the largest interior-face speed max|E_a|; drives the
    CFL bound."""
    return sum(float(np.max(np.abs(e), initial=0.0)) for e in _face_velocities(grid, force))


def symmetries(grid: Grid, mat: CSR) -> tuple:
    """(axes, swaps): the axes whose reflection x_a -> -x_a, and the pairs of
    them whose swap x_a <-> x_b, leave the sparse node matrix mat, which has
    no duplicate entries, exactly unchanged: mat[perm][:, perm] equal to mat
    entry for entry, a stored zero equal to an absent entry."""
    nodes = np.arange(grid.size).reshape(grid.shape)
    row, col, data = mat.coo()
    live = data != 0
    # the flat keys row * N + col pass CSR's int32 from N^2 > 2^31 on (2d n = 256)
    row, col, data = row[live].astype(np.intp), col[live], data[live]

    def entries(key):
        order = np.argsort(key)
        return key[order], data[order]

    keys, values = entries(row * grid.size + col)

    def invariant(perm):
        # mat[perm][:, perm] holds the entry (r, c) of mat at (perm^-1 r, perm^-1 c)
        inverse = np.argsort(perm.ravel())
        moved = entries(inverse[row] * grid.size + inverse[col])
        return np.array_equal(moved[0], keys) and np.array_equal(moved[1], values)

    axes = tuple(a for a in range(grid.d) if invariant(np.flip(nodes, a)))
    return axes, tuple(p for p in itertools.combinations(axes, 2) if invariant(np.swapaxes(nodes, *p)))


@dataclass(frozen=True, eq=False)
class OrbitMap:
    """One sector of a group of node permutations (axis reflections, and the
    axis swap where it applies): the fields f with f(g x) = chi(g) f(x) for a
    character chi of the group, held by their values on ``reps``, one node
    per orbit on which chi does not vanish (the orbit minima, ascending), of
    ``sizes`` nodes each.  Node x lies on orbit ``index[x]`` with ``weight[x]``
    = chi(g) for the g that takes x to that orbit's representative, or 0
    where chi vanishes.  Nodes are flat row-major indices on the grid
    ``shape``; the arrays are read-only."""

    shape: tuple
    index: np.ndarray
    weight: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The coefficients of fields of the sector: their values on reps."""
        return values.reshape(values.shape[:values.ndim - len(self.shape)] + (-1,))[..., self.reps]

    def project(self, values: np.ndarray) -> np.ndarray:
        """The coefficients of one field's part in the sector: weighted orbit means."""
        return np.bincount(self.index, self.weight * values.ravel(), len(self.reps)) / self.sizes

    def lift(self, coef: np.ndarray) -> np.ndarray:
        """The field of the sector with the coefficients coef."""
        return (coef.ravel()[self.index] * self.weight).reshape(self.shape)

    def fold(self, mat: CSR) -> CSR:
        """The sparse node matrix mat, which commutes with the group, on the
        coefficients, a new matrix: its rows on reps, each column added into
        its orbit with its weight, entry by entry, duplicates summed."""
        row, col, data = mat.coo()
        keep = (self.reps[self.index[row]] == row) & (self.weight[col] != 0)
        row, col = row[keep], col[keep]
        return CSR.from_coo(data[keep] * self.weight[col], self.index[row], self.index[col],
                            (len(self.reps),) * 2)


def _orbit_map(shape: tuple, images: list, chars: list) -> OrbitMap:
    """The OrbitMap of the character chars[g] of the group whose element g
    takes each node x to images[g][x]."""
    images, chars = np.array(images), np.array(chars, dtype=float)
    rep = images.min(axis=0)
    hit = images == rep  # the elements that take each node to its orbit's minimum
    weight = chars[hit.argmax(axis=0)]
    # two of them with different characters: chi is not 1 on the stabilizer
    weight[(hit & (chars[:, None] != weight)).any(axis=0)] = 0.0
    first = (rep == np.arange(rep.size)) & (weight != 0)
    index = np.where(weight != 0, np.cumsum(first)[rep] - 1, 0)
    sizes = np.bincount(index[weight != 0], minlength=np.count_nonzero(first))
    return OrbitMap(shape, *map(readonly, (index, weight, np.flatnonzero(first), sizes)))


@lru_cache(maxsize=16)
def orbit_maps(grid: Grid, axes: tuple, swaps: tuple = ()) -> MappingProxyType:
    """The orbit maps of the sectors of the group of the reflections of axes
    and the swaps (at most the pair (0, 1) of axes (0, 1)), keyed (signs,
    swap) by the characters of the reflections and of the swap (1 without
    it), the fully even sector first; each entry is the tuple of maps that
    share one sector matrix.  The swap exchanges the signs of the pair: the
    sector of (+1, -1) stands for (-1, +1) too, by its second map (the first
    composed with the swap), and that of (s, s) splits into swap-even and
    swap-odd sectors (Fassler and Stiefel, Group Theoretical Methods and
    Their Applications, 1992).  With no axes the one map is the identity.
    The mapping is read-only: every caller shares the cached one."""
    nodes = np.arange(grid.size).reshape(grid.shape)
    flips = list(itertools.product((0, 1), repeat=len(axes)))
    images = [np.flip(nodes, [a for a, f in zip(axes, fl) if f]).ravel() for fl in flips]
    swap = nodes.T.ravel()
    out = {}
    for signs in itertools.product((1, -1), repeat=len(axes)):
        chars = [math.prod(s for s, f in zip(signs, fl) if f) for fl in flips]
        if not swaps:
            out[signs, 1] = (_orbit_map(grid.shape, images, chars),)
        elif signs[0] > signs[1]:
            first = _orbit_map(grid.shape, images, chars)
            out[signs, 1] = (first, OrbitMap(grid.shape, *map(readonly, (
                first.index[swap], first.weight[swap], swap[first.reps], first.sizes))))
        elif signs[0] == signs[1]:
            for t in (1, -1):
                out[signs, t] = (_orbit_map(grid.shape, images + [im[swap] for im in images],
                                            chars + [t * c for c in chars]),)
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# the generator Lambda = I + div(E .)
# ---------------------------------------------------------------------------


def jump_apply(f: Field, cfg: OperatorConfig) -> Field:
    """Jump part of the generator per cfg.method.

    The generator is realized on the periodized box: the quadrature route
    wraps jumps around (the real-space twin of the spectral multiplier), so
    mass is conserved exactly (column sums zero, dual to Lambda^* 1 = 0) and
    both routes share one equilibrium up to quadrature error.  Its
    quadrature case is the jump of the carre du champ and the inequality
    checks (functionals).
    """
    symbol = spectral_symbol if cfg.method == "spectral" else quadrature_symbol
    return f.with_values(fourier_multiply(f.values, symbol(f.grid, float(cfg.alpha))))


def generator_apply(f: Field, cfg: OperatorConfig) -> Field:
    """Lambda f = I(f) + div(E f), the drift through drift_matrix."""
    drift = drift_matrix(f.grid, cfg.force_field(), cfg.drift).lane_product()(f.values)
    return f.with_values(jump_apply(f, cfg).values + drift)


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Dense realization of Lambda on the sectors of its symmetry group.

    ``axes`` and ``swaps`` are the reflections and axis swaps that leave
    drift_matrix exactly unchanged (symmetries); the periodic jump part,
    whose row is exactly even and symmetric, commutes with all of them, so
    Lambda is block diagonal in the symmetry-adapted basis (Cantoni and
    Butler, Linear Algebra Appl. 1976).  ``maps`` is orbit_maps(grid, axes,
    swaps), the fully even sector first, and ``sector(key)`` is Lambda on
    the coefficients of maps[key][0], its spectrum counted once per map of
    maps[key]; with no symmetry the one sector, ((), 1), is the whole
    matrix.  A sector is built on its first call and kept, so a route pays
    for the sectors it factors only: the bordered solve and lyapunov_check
    build the fully even one, the eigenpair and harris_contraction all of
    them.  ``sector_sizes`` gives the sectors' orders without building any.
    Lambda^* on a sector is G^-1 B^T G, B its matrix and G the diagonal of
    its orbit sizes.  ``max_abs``, max |Lambda| over the full matrix, is
    computed on first read, without a matrix; no route builds the N x N
    matrix.

    ``cfg`` names the jump the sectors hold: its method is always
    "quadrature", so generator_apply(f, gm.cfg) is Lambda without a matrix.
    The arrays are read-only, and the object compares and hashes by
    identity, so caches can key on it."""

    grid: Grid
    cfg: OperatorConfig
    axes: tuple
    maps: MappingProxyType
    swaps: tuple = ()

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def sector_sizes(self) -> tuple:
        """The orders of the sectors' matrices, in the order of maps."""
        return tuple(len(maps[0].reps) for maps in self.maps.values())

    @cached_property
    def _built(self) -> dict:
        return {}

    def sector(self, key: tuple) -> np.ndarray:
        """Lambda on the coefficients of maps[key][0], read-only: built on
        the first call (_generator_sector), then kept."""
        if key not in self._built:
            self._built[key] = _generator_sector(self.grid, self.cfg, self.maps[key][0])
        return self._built[key]

    @cached_property
    def max_abs(self) -> float:
        """max |J + D| over the full matrix, from the circulant row of J and
        the sparse D, which changes the entries it touches: it couples
        neighbours only, not around the box, so every off-diagonal offset
        class keeps its J value at a wrap-around entry, and the diagonal
        unless D has all of it."""
        grid, row = self.grid, _jump_row(self.grid, self.cfg.alpha).ravel()
        rows, cols, data = drift_matrix(grid, self.cfg.force_field(), self.cfg.drift).coo()
        pos = zip(np.unravel_index(rows, grid.shape), np.unravel_index(cols, grid.shape))
        offset = np.ravel_multi_index(tuple((r - c) % grid.n for r, c in pos), grid.shape)
        kept = row[int(np.count_nonzero(rows == cols) == grid.size):]
        return float(max(np.abs(row[offset] + data).max(initial=0.0), np.abs(kept).max()))


def _jump_row(grid: Grid, alpha: float) -> np.ndarray:
    """The circulant row c of the periodic-wrap jump: _fold_kernel off offset
    0, and at offset 0 the one diagonal -sum_{k != 0} c[k] (zero column sums)."""
    c = _fold_kernel(grid, alpha).copy()
    c.flat[0] = 0.0
    c.flat[0] = -c.sum()
    return c


GATHER_BYTES = 1 << 19  # bytes of one block of _jump_matrix's gather: bounds its temporaries


def _jump_matrix(grid: Grid, alpha: float, omap: OrbitMap) -> np.ndarray:
    """The periodic-wrap quadrature jump on the sector of omap (on the
    identity map the full circulant, symmetric Metzler with zero column
    sums and eigenvalues quadrature_symbol), a new array.  Its entry (k, l)
    sums weight[x] c[rep_k - x] over the nodes x of orbit l in node order,
    c the row of _jump_row (in 1d, c[i - j] + s c[i + j + 1] for parity s).
    The rows are built in blocks of representatives, each from a gather of
    at most GATHER_BYTES; every entry is summed as in one block."""
    live = np.flatnonzero(omap.weight)
    orbit_sum = CSR.from_coo(omap.weight[live], omap.index[live], live, (len(omap.reps), grid.size))
    row, out = _jump_row(grid, alpha), np.empty((len(omap.reps),) * 2)
    step = max(1, GATHER_BYTES // (8 * grid.size))
    for s in range(0, len(omap.reps), step):
        # the rows' transpose, as c is even (c[x - rep_k] = c[rep_k - x])
        out[s:s + step] = (orbit_sum @ _gather(row, 0, grid.n, omap.reps[s:s + step])).T
    return out


def _gather(table: np.ndarray, center: int, n: int, cols: np.ndarray) -> np.ndarray:
    """The dense matrix over all n^d nodes i (rows, row-major) and the nodes
    cols j (flat indices) whose entry is table[(center + i_a - j_a) mod m per
    axis a], m the table's axis length."""
    d, i = table.ndim, np.arange(n)[:, None]
    index = [((center + i - j) % table.shape[0]).reshape([n if b == a else 1 for b in range(d)] + [-1])
             for a, j in enumerate(np.unravel_index(cols, (n,) * d))]
    return table[tuple(index)].reshape(n**d, len(cols))


def _generator_sector(grid: Grid, cfg: OperatorConfig, omap: OrbitMap) -> np.ndarray:
    """Lambda on the sector of omap, read-only: the jump sector plus the
    sparse drift folded onto it."""
    mat = _jump_matrix(grid, cfg.alpha, omap)
    row, col, data = omap.fold(drift_matrix(grid, cfg.force_field(), cfg.drift)).coo()
    mat[row, col] += data  # summed duplicates: no repeated (row, col)
    return readonly(mat)


def assemble_generator_matrix(grid: Grid, cfg: OperatorConfig) -> GeneratorMatrix:
    """Dense generator Lambda on the sectors of the reflections and the axis
    swap that leave the drift unchanged: their orbit maps, with no sector
    matrix built yet (GeneratorMatrix.sector builds each on its first
    call).  The routes cap the sectors they factor: MAX_DENSE for the
    solve's fully even sector, and steady.MAX_EIGEN_SECTOR for the
    eigenpair's largest one; none builds the N x N matrix.

    The jump part always uses the periodic quadrature circulant: the
    spectral multiplier has no Metzler matrix realization, and the maximum
    principle plus Krein-Rutman structure require nonnegative off-diagonal
    jump entries, and the matrix's cfg says so.
    """
    cfg = replace(cfg, method="quadrature")
    axes, swaps = symmetries(grid, drift_matrix(grid, cfg.force_field(), cfg.drift))
    return GeneratorMatrix(grid=grid, cfg=cfg, axes=axes, swaps=swaps, maps=orbit_maps(grid, axes, swaps))


# ---------------------------------------------------------------------------
# the confinement hypothesis on the force field
# ---------------------------------------------------------------------------


def confinement_ratio(force: ForceField, gamma: float, grid: Grid) -> float:
    """inf E.x / (<x>^(gamma-2) |x|^2) over the nodes with |x| > h: the
    constant of the paper's confinement hypothesis, positive for a
    confining field and 1 for make_force(gamma)."""
    coords = grid.coords()
    ex = sum(ea * xa for ea, xa in zip(force.components(coords), coords))
    r2 = grid.radius2()
    decay = grid.bracket() ** (gamma - 2.0)
    mask = r2 > grid.h**2
    return float(np.min(ex[mask] / (decay[mask] * r2[mask])))
