"""scipy.sparse references for the CSR matrices of fracfp.operators.

to_scipy converts a fracfp CSR to a scipy.sparse.csr_array on copies of its
arrays: the one conversion through which the tests reach scipy.sparse's
methods (toarray, sums, transposes) on the package's matrices.

The builders below write the drift matrix, the drift substep, the sector
fold, the orbit sum of the dense jump sectors and the symmetry test with
scipy.sparse's own operators, as the package wrote them before its CSR
type: the CSR builds must give their indptr, indices and data bit for bit.
"""

from functools import reduce

import numpy as np
import scipy.sparse as sp

from fracfp.operators import _face_velocities


def to_scipy(mat) -> sp.csr_array:
    """The scipy.sparse.csr_array of a fracfp CSR, on copies of its arrays."""
    return sp.csr_array((mat.data.copy(), mat.indices.copy(), mat.indptr.copy()), shape=mat.shape)


def face_pickers(grid) -> list:
    """Per axis, (S_hi, S_lo) as Kronecker products of shifted identities."""
    n, d = grid.n, grid.d
    return [tuple(reduce(sp.kron, [sp.eye_array(n - 1, n, k=k) if a == axis else sp.eye_array(n)
                                   for a in range(d)]).tocsr()
                  for k in (1, 0))
            for axis in range(d)]


def face_divergence(grid, face_maps) -> sp.csr_array:
    out = None
    for (s_hi, s_lo), face in zip(face_pickers(grid), face_maps):
        term = ((s_lo - s_hi).T @ face).tocsr()
        term.data /= grid.h
        out = term if out is None else out + term
    out.eliminate_zeros()
    return out


def drift_matrix(grid, force, drift: str) -> sp.csr_array:
    faces = _face_velocities(grid, force)
    maps = []
    for e, (s_hi, s_lo) in zip(faces, face_pickers(grid)):
        e = e.ravel()
        if drift == "centered":
            maps.append(sp.diags_array(e) @ (0.5 * (s_hi + s_lo)))
        else:
            maps.append(sp.diags_array(np.maximum(e, 0.0)) @ s_hi + sp.diags_array(np.minimum(e, 0.0)) @ s_lo)
    return face_divergence(grid, maps)


def drift_step_matrix(grid, force, drift: str, tau: float) -> sp.csr_array:
    eye = sp.eye_array(grid.size, format="csr")
    if drift != "centered":
        p = eye + tau * drift_matrix(grid, force, drift)
        return 0.5 * (eye + p @ p)
    e_node = force.components(grid.coords())
    c = tau / (2.0 * grid.h)
    maps = []
    for a, (s_hi, s_lo) in enumerate(face_pickers(grid)):
        e_face = sp.diags_array(_face_velocities(grid, force)[a].ravel())
        lw = 0.5 * (s_hi + s_lo) + c * (s_hi - s_lo) @ sp.diags_array(e_node[a].ravel())
        maps.append(e_face @ lw)
    return eye + tau * face_divergence(grid, maps)


def fold(omap, mat: sp.csr_array) -> sp.csr_array:
    """OrbitMap.fold of a scipy.sparse matrix."""
    mat = mat.tocoo()
    keep = (omap.reps[omap.index[mat.row]] == mat.row) & (omap.weight[mat.col] != 0)
    row, col = mat.row[keep], mat.col[keep]
    return sp.csr_array((mat.data[keep] * omap.weight[col], (omap.index[row], omap.index[col])),
                        shape=(len(omap.reps),) * 2)


def orbit_sum(omap, size: int) -> sp.csr_array:
    """The weighted orbit sums of _jump_matrix: row k adds orbit k's nodes."""
    live = np.flatnonzero(omap.weight)
    return sp.csr_array((omap.weight[live], (omap.index[live], live)), shape=(len(omap.reps), size))


def symmetries(grid, mat: sp.csr_array) -> tuple:
    """operators.symmetries through scipy.sparse's indexing and comparison."""
    nodes = np.arange(grid.size).reshape(grid.shape)

    def invariant(perm):
        return (mat[perm.ravel()][:, perm.ravel()] != mat).nnz == 0

    axes = tuple(a for a in range(grid.d) if invariant(np.flip(nodes, a)))
    return axes, tuple((a, b) for i, a in enumerate(axes) for b in axes[i + 1:]
                       if invariant(np.swapaxes(nodes, a, b)))
