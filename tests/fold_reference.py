"""Loop references for the lattice sums of fracfp.operators, and the
half-grid fold of a sparse matrix.

Each loop sums the cells of a radial kernel one lattice offset (or one
periodic image) at a time, with no symmetry: the periodic-wrap circulant row
(the operator stencil folded modulo n plus the kernel mass of the periodic
images beyond it) and the 2d cell quadrature over the offsets -n..n.  The
tests compare _fold_kernel and cell_tables, which evaluate each cell once per
symmetry class, against them.  fold_sparse folds a sparse node matrix onto
the half-grid of its reflections, axis by axis: the reference the stepper's
folded drift matches bit for bit.
"""

import math

import numpy as np
import scipy.sparse as sp

from fracfp.operators import _self_cell, full_kernel, get_stencil, gl_cell_integrals_2d


def fold_kernel_loop(grid, alpha: float) -> np.ndarray:
    """The circulant row of the full kernel before symmetrization: the
    stencil folded modulo n, plus in 1d the cells at distances r + m P and
    (P - r) + m P for m = 1..500 (r = k h, P = 2L), and in 2d the cells at
    c + m P for m in [-6, 6) per axis outside the stencil's m in {0, -1}."""
    kernel = full_kernel(alpha, grid.d)
    ker = get_stencil(grid, kernel)
    n, h, period = grid.n, grid.h, 2.0 * grid.L
    out = np.zeros(grid.shape)
    i = np.arange(-n, n + 1) % n
    np.add.at(out, np.ix_(*[i] * grid.d), ker)
    if grid.d == 1:
        r = np.arange(n) * h
        for m in range(1, 501):
            for dist in (r + period * m, (period - r) + period * m):
                out += kernel.moment(dist - h / 2, dist + h / 2, 0)
        return out
    off = np.arange(n) * h
    c1, c2 = np.meshgrid(off, off, indexing="ij")
    for m1 in range(-6, 6):
        for m2 in range(-6, 6):
            if m1 in (0, -1) and m2 in (0, -1):
                continue
            out += gl_cell_integrals_2d(kernel, c1 + period * m1, c2 + period * m2, h, npts=4, moment=0.0)
    return out


def cell_tables_2d_loop(grid, kernel, q: float):
    """(weights, masses) of the 2d cell quadrature on all (2n+1)^2 offsets:
    Gauss-Legendre cell integrals of kappa |z|^q over |z|^q at the cell
    centers, the self-cell moment at the center; plain masses, 0 there."""
    n, h = grid.n, grid.h
    off = np.arange(-n, n + 1) * h
    c1, c2 = np.meshgrid(off, off, indexing="ij")
    m0, mq = (gl_cell_integrals_2d(kernel, c1, c2, h, moment=m) for m in (0.0, q))
    rr2 = c1**2 + c2**2
    rr2[n, n] = 1.0
    w = mq / rr2 ** (q / 2)
    w[n, n] = _self_cell(kernel, grid, q)
    m0[n, n] = 0.0
    return w, m0


def fold_sparse(grid, mat, axes, signs=None):
    """The sparse node matrix mat on the fields of parity signs[i] (+1 even,
    -1 odd; even by default) under the reflections of axes, which leave mat
    unchanged: its rows on the first half of those axes, each column added
    to signs times its mirror image there.  A new matrix on the row-major
    order of the half-grid, its duplicates summed."""
    mat = mat.tocoo()
    half = grid.n // 2
    index = np.indices(grid.shape).reshape(grid.d, -1)
    lower = index < half
    folded = np.isin(np.arange(grid.d), axes)[:, None]
    shape = grid.half_shape(axes)
    fold = np.ravel_multi_index(tuple(np.where(folded & ~lower, grid.n - 1 - index, index)), shape)
    top = lower[list(axes)].all(axis=0)
    sign = np.prod(np.where(lower[list(axes)], 1.0,
                            np.reshape(signs or (1,) * len(axes), (-1, 1))), axis=0)
    keep = top[mat.row]
    row, col = mat.row[keep], mat.col[keep]
    size = math.prod(shape)
    return sp.csr_array((mat.data[keep] * sign[col], (fold[row], fold[col])), shape=(size, size))
