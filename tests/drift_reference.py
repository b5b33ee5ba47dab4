"""By-action references for the sparse face operators of fracfp.operators.

Each function applies one face stencil to a Field through array slices, with
no matrix: the upwind and centered flux divergences div(E f), their exact
transposes -E . grad g, and the 3/5-point Laplacian.  The tests compare
drift_matrix, its transpose and laplacian_matrix against them column by
column.  The divergences divide the summed face fluxes by h once, as
drift_matrix does, so their by-action columns equal the matrix bit for bit.
"""

import numpy as np

from fracfp.grid import Field
from fracfp.operators import ForceField, OperatorConfig, _face_velocities


def face_slices(d: int) -> list:
    """Per axis, the index tuples (hi, lo) of the cells above and below the
    interior faces: values[hi] - values[lo] is the difference across each face."""
    out = []
    for axis in range(d):
        hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(d))
        lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(d))
        out.append((hi, lo))
    return out


def flux_divergence(fluxes, shape: tuple, h: float, slices: list) -> np.ndarray:
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
    """div(E f) with first-order upwind faces: each face takes the value from
    the side mass flows from (velocity -E)."""
    grid = f.grid
    faces = _face_velocities(grid, force)
    v = f.values
    slices = face_slices(grid.d)
    fluxes = [faces[2 * a] * v[hi] + faces[2 * a + 1] * v[lo]
              for a, (hi, lo) in enumerate(slices)]
    return f.with_values(flux_divergence(fluxes, v.shape, grid.h, slices))


def drift_gradient_adjoint(g: Field, force: ForceField) -> Field:
    """-E . grad g, the exact transpose of the upwind divergence: (D^T g)_i
    holds E+_{i-1/2} (g_{i-1} - g_i)/h and E-_{i+1/2} (g_i - g_{i+1})/h."""
    faces = _face_velocities(g.grid, force)
    v = g.values
    out = np.zeros_like(v)
    for a, (hi, lo) in enumerate(face_slices(g.grid.d)):
        dv = (v[hi] - v[lo]) / g.grid.h
        out[hi] -= faces[2 * a] * dv
        out[lo] -= faces[2 * a + 1] * dv
    return g.with_values(out)


def drift_divergence_centered(f: Field, force: ForceField) -> Field:
    """div(E f) with centered face averages."""
    grid = f.grid
    faces = _face_velocities(grid, force)
    v = f.values
    slices = face_slices(grid.d)
    fluxes = [(faces[2 * a] + faces[2 * a + 1]) * 0.5 * (v[hi] + v[lo])
              for a, (hi, lo) in enumerate(slices)]
    return f.with_values(flux_divergence(fluxes, v.shape, grid.h, slices))


def drift_gradient_adjoint_centered(g: Field, force: ForceField) -> Field:
    """Exact transpose of the centered flux divergence: -E . grad with
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


def discrete_laplacian(f: Field) -> Field:
    """The 3/5-point Laplacian with the field extended by zero."""
    grid, v = f.grid, f.values
    out = -2.0 * grid.d * v
    for hi, lo in face_slices(grid.d):
        out[hi] += v[lo]
        out[lo] += v[hi]
    return f.with_values(out / grid.h**2)


def by_action(grid, apply) -> np.ndarray:
    """Dense matrix of a linear Field map, column k the image of unit vector k."""
    eye = np.eye(grid.size)
    return np.column_stack([apply(Field(grid, eye[:, k].reshape(grid.shape))).values.ravel()
                            for k in range(grid.size)])
