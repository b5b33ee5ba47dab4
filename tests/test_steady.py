import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from fracfp import steady
from fracfp.evolution import _Stepper, auto_dt
from fracfp.grid import CheckFailure, Field, build_grid, integrate, normalized_gaussian
from fracfp.operators import (
    ForceField,
    OperatorConfig,
    assemble_generator_matrix,
    orbit_maps,
    symmetries,
)
from fracfp.steady import (
    closed_form_equilibrium,
    leading_eigenpair,
    steady_by_evolution,
    steady_by_linear_solve,
    tail_exponent,
)
from paper_checks import full_matrix, laplacian_matrix
from sparse_reference import to_scipy


@pytest.fixture(scope="module")
def small_setup():
    g = build_grid(1, 40.0, 512)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature", drift="centered")
    gm = assemble_generator_matrix(g, cfg)
    return g, cfg, gm


def cauchy(grid):
    return 1.0 / (np.pi * (1.0 + grid.axis**2))


# ------------------------------------------------------- closed form


def test_closed_form_cauchy_value():
    g = build_grid(1, 40.0, 2048)
    F = closed_form_equilibrium(1.0, g)
    i0 = np.argmin(np.abs(g.axis))
    # discrete frequency sampling of the kinked transform costs ~3e-4
    assert F.values[i0] == pytest.approx(1.0 / np.pi, abs=5e-4)
    # periodization floor: L1 distance to the literal Cauchy is the imported
    # image mass 2 int_40^inf C = 1/(20 pi)
    l1 = np.sum(np.abs(F.values - cauchy(g))) * g.h
    assert l1 == pytest.approx(1.0 / (20.0 * np.pi), rel=0.05)


def test_closed_form_mass_one():
    for alpha in (0.5, 1.0, 1.7):
        g = build_grid(1, 20.0, 256)
        F = closed_form_equilibrium(alpha, g)
        assert integrate(F) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_gaussian_limit():
    # alpha = 2 (validation only): exp(-|2 pi xi|^2 / 2) inverts to the
    # heat kernel at time 1/2, variance 1, peak 1/sqrt(2 pi)
    g = build_grid(1, 20.0, 1024)
    F = closed_form_equilibrium(2.0, g)
    i0 = np.argmin(np.abs(g.axis))
    assert F.values[i0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-3)
    var = integrate(Field(g, F.values * g.axis**2))
    assert var == pytest.approx(1.0, abs=1e-3)


def test_closed_form_2d_mass_and_peak():
    g = build_grid(2, 15.0, 64)
    F = closed_form_equilibrium(1.0, g)
    assert integrate(F) == pytest.approx(1.0, abs=1e-12)
    # 2d Cauchy (1/(2 pi)) <x>^-3 evaluated at the node nearest the origin,
    # which sits at (h/2, h/2) on the cell-centered grid
    peak_true = (1.0 / (2 * np.pi)) * (1.0 + 2 * (g.h / 2) ** 2) ** -1.5
    assert F.values.max() == pytest.approx(peak_true, rel=0.02)


# ------------------------------------------------------- routes


def bordered_residual(gm, ss) -> float:
    """||B F||_inf off the pinned row of the bordered solve: B the fully even
    sector of gm and F the coefficients of the solve's state ss."""
    key, (omap,) = next(iter(gm.maps.items()))
    resid = gm.sector(key) @ omap.restrict(ss.field.values)
    resid[np.argmin(omap.restrict(gm.grid.radius2()))] = 0.0
    return float(np.abs(resid).max())


def test_linear_solve_structure(small_setup):
    g, cfg, gm = small_setup
    ss = steady_by_linear_solve(gm)
    assert ss.mass == pytest.approx(1.0, abs=1e-10)
    assert ss.field.values.min() > 0.0
    assert bordered_residual(gm, ss) < 1e-10  # bordered rows are solved exactly


def test_linear_solve_near_cauchy(small_setup):
    g, cfg, gm = small_setup
    ss = steady_by_linear_solve(gm)
    # box-model floor: periodization (1.6e-2) + boundary drift exchange
    l1 = np.sum(np.abs(ss.field.values - cauchy(g))) * g.h
    assert l1 < 5e-2


def test_eigenpair_route(small_setup):
    g, cfg, gm = small_setup
    lam, vec, gap = leading_eigenpair(gm)
    assert abs(lam) < 1e-8 * np.abs(full_matrix(gm)).max()
    assert gap > 0.1
    assert vec.values.min() > 0.0
    ss = steady_by_linear_solve(gm)
    assert np.sum(np.abs(vec.values - ss.field.values)) * g.h < 1e-8


# ------------------------------------------------------- eigenpair on parity blocks


def _shifted_y(p):
    # mirror-symmetric in x only
    return np.stack([p[..., 0], p[..., 1] - 0.5], axis=-1)


# name -> (d, n, operator settings); L = 10, quadrature jump
EIG_CASES = {
    "1d-upwind": (1, 256, dict(alpha=1.0, gamma=2.0)),
    "2d-upwind": (2, 16, dict(alpha=1.0, gamma=2.0)),
    # the second eigenvalue is the complex pair -0.8144 +- 33.6i
    "2d-centered": (2, 32, dict(alpha=0.5, gamma=2.5, drift="centered")),
    "2d-x-symmetric": (2, 16, dict(alpha=1.0, gamma=2.0, force=ForceField(2.0, _shifted_y))),
    "1d-shifted": (1, 128, dict(alpha=1.0, gamma=2.0, force=ForceField(2.0, lambda x: x - 0.5))),
    # E = (x, 2y): both reflections, no axis swap
    "2d-no-swap": (2, 16, dict(alpha=1.0, gamma=2.0, force=ForceField(2.0, lambda p: p * [1.0, 2.0]))),
}


def _eig_case(name):
    d, n, settings = EIG_CASES[name]
    return assemble_generator_matrix(build_grid(d, 10.0, n), OperatorConfig(method="quadrature", **settings))


@pytest.mark.parametrize("name", sorted(EIG_CASES))
def test_eigenpair_matches_full_eig(name):
    gm = _eig_case(name)
    lam_all, vecs = scipy.linalg.eig(full_matrix(gm))
    order = np.argsort(-lam_all.real)
    ref = vecs[:, order[0]].real
    ref = ref / (np.sum(ref) * gm.grid.cell_volume)
    ref_gap = lam_all[order[0]].real - lam_all[order[1]].real
    lam, vec, gap = leading_eigenpair(gm)
    assert abs(lam) < 1e-12 * np.abs(full_matrix(gm)).max()
    assert gap == pytest.approx(ref_gap, rel=1e-10)
    assert np.sum(np.abs(vec.values.ravel() - ref)) * gm.grid.cell_volume < 1e-12


@pytest.mark.parametrize(
    "name, sizes",
    [
        # (sizes passed to eig, sizes passed to eigvals)
        ("1d-upwind", ([128], [128])),
        # the radial force: the (+,+) and (-,-) blocks of side N / 4 = 64 split
        # into swap sectors of 36 and 28 (the wedge i <= j and i < j of the
        # 8 x 8 half-grid), and (-,+) has the spectrum of (+,-)
        ("2d-upwind", ([36], [28, 64, 36, 28])),
        ("2d-x-symmetric", ([128], [128])),
        ("1d-shifted", ([128], [])),  # no symmetric axis: the whole matrix
        ("2d-no-swap", ([64], [64] * 3)),  # N / 2^d, no swap sectors
    ],
)
def test_eigenpair_runs_eig_on_parity_blocks(name, sizes, monkeypatch):
    # eigenvectors for the fully even sector only; the others give eigenvalues
    seen = {"eig": [], "eigvals": []}
    for func in seen:
        original = getattr(steady._la, func)

        def recording(a, *args, _func=func, _original=original, **kwargs):
            seen[_func].append(a.shape[0])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(steady._la, func, recording)
    leading_eigenpair(_eig_case(name))
    assert (seen["eig"], seen["eigvals"]) == sizes


def test_eigenpair_residual_certificate(monkeypatch):
    # a leading eigenvector of the sector that is off by 1e-6 fails the
    # check of the lifted pair on the full generator
    eig = steady._la.eig

    def perturbed_eig(a, *args, **kwargs):
        lam, vecs = eig(a, *args, **kwargs)
        return lam, vecs + 1e-6 * np.cos(np.arange(vecs.shape[0]))[:, None]

    gm = _eig_case("2d-upwind")
    monkeypatch.setattr(steady._la, "eig", perturbed_eig)
    with pytest.raises(CheckFailure, match="eigenpair-residual") as exc:
        leading_eigenpair(gm)
    assert exc.value.measured > exc.value.tolerance == steady.RESIDUAL_TOL * gm.max_abs


def test_eigenpair_certificate_sees_a_wrong_lift(monkeypatch):
    # one flipped weight of the fully even map, on the orbit nearest the
    # origin: the sector and its eigenpair are right, the lifted eigenvector
    # is not, and the check on the full generator sees it
    gm = _eig_case("2d-upwind")
    key, (omap,) = next(iter(gm.maps.items()))
    j0 = int(np.argmin(gm.grid.radius2().ravel()[omap.reps]))
    node = np.flatnonzero(omap.index == j0)[-1]
    assert node != omap.reps[j0]
    weight = omap.weight.copy()
    weight[node] = -weight[node]
    # the sector is built from the right map and kept; the route then reads
    # the map with the flipped weight from the instance's own entry
    gm.sector(key)
    monkeypatch.setitem(vars(gm), "maps", {**gm.maps, key: (dataclasses.replace(omap, weight=weight),)})
    with pytest.raises(CheckFailure, match="eigenpair-residual") as exc:
        leading_eigenpair(gm)
    assert exc.value.measured > exc.value.tolerance == steady.RESIDUAL_TOL * gm.max_abs


def test_complex_leading_eigenvalue_fails_the_real_check(monkeypatch):
    # a complex pair of real part 0, inside the abscissa bound, as the even
    # sector's rightmost eigenvalues: the leading eigenvalue is not real
    eig = steady._la.eig
    gm = _eig_case("2d-upwind")
    even = gm.sector(next(iter(gm.maps)))
    imag = 1e-3 * gm.max_abs

    def complex_pair(a, *args, **kwargs):
        lam, vecs = eig(a, *args, **kwargs)
        lam = lam.astype(complex)  # numpy's eig returns a real spectrum as a real array
        if a is even:
            lam[np.argsort(-lam.real)[:2]] = [1j * imag, -1j * imag]
        return lam, vecs

    monkeypatch.setattr(steady._la, "eig", complex_pair)
    with pytest.raises(CheckFailure) as exc:
        leading_eigenpair(gm)
    assert exc.value.check == "leading-eigenvalue-real"
    assert exc.value.measured == imag and exc.value.tolerance == 1e-8 * gm.max_abs


def test_real_spectrum_gives_the_records_of_a_complex_one(monkeypatch):
    # numpy's eig returns a real spectrum as real arrays, where scipy's
    # returned complex ones: the fully even sector of 2d-upwind has a real
    # spectrum, and the records are those of the same arrays made complex
    gm = _eig_case("2d-upwind")
    even = gm.sector(next(iter(gm.maps)))
    assert np.linalg.eig(even)[0].dtype.kind == "f"
    lam, vec, gap = leading_eigenpair(gm)
    eig, eigvals = steady._la.eig, steady._la.eigvals
    monkeypatch.setattr(steady._la, "eig", lambda a: tuple(x.astype(complex) for x in eig(a)))
    monkeypatch.setattr(steady._la, "eigvals", lambda a: eigvals(a).astype(complex))
    lam_c, vec_c, gap_c = leading_eigenpair(gm)
    assert (lam, gap) == (lam_c, gap_c)
    assert np.array_equal(vec.values, vec_c.values)


@pytest.mark.parametrize("name", sorted(EIG_CASES))
def test_dense_routes_agree_with_scipy_linalg(name, monkeypatch):
    # the routes call numpy.linalg; scipy.linalg's solve, eig and eigvals
    # take the same arguments, and their LAPACK build may differ from
    # numpy's in the last bits only
    gm = _eig_case(name)
    got = (steady_by_linear_solve(gm).field.values, *leading_eigenpair(gm))
    monkeypatch.setattr(steady, "_la", scipy.linalg)
    want = (steady_by_linear_solve(gm).field.values, *leading_eigenpair(gm))
    (sol, lam, vec, gap), (sol_ref, lam_ref, vec_ref, gap_ref) = got, want
    assert np.abs(sol - sol_ref).max() <= 1e-12 * np.abs(sol_ref).max()
    assert abs(lam - lam_ref) <= 1e-12 * gm.max_abs
    assert abs(gap - gap_ref) <= 1e-12 * abs(gap_ref)
    assert np.abs(vec.values - vec_ref.values).max() <= 1e-12 * np.abs(vec_ref.values).max()


def parity_block(mat, grid, axes, signs):
    """The block of the full matrix mat on the fields of parity signs under
    the reflections of axes: rows on the first half of each, columns folded."""
    t, d, h = mat.reshape(grid.shape * 2), grid.d, grid.n // 2
    for a, s in zip(axes, signs):
        t = np.take(t, range(h), axis=a)
        t = np.take(t, range(h), axis=d + a) + s * np.take(np.flip(t, d + a), range(h), axis=d + a)
    return t.reshape(mat.shape[0] // 2 ** len(axes), -1)


def sector_reference(mat, grid, axes, swaps, key):
    """The sector key of the full matrix mat: its parity block, split under
    the swap of swaps when the signs agree on the pair (2d, axes (0, 1)):
    rows on the wedge i_0 <= i_1 of the half-grid (i_0 < i_1 when swap-odd),
    each column added to swap times the column of its transposed node."""
    signs, swap = key
    block = parity_block(mat, grid, axes, signs)
    if not swaps or signs[0] != signs[1]:
        return block
    nodes = np.arange(len(block)).reshape(grid.half_shape(axes))
    i, j = np.indices(nodes.shape)
    rows, partners = nodes[i <= j], nodes.T[i <= j]
    if swap < 0:
        rows, partners = nodes[i < j], nodes.T[i < j]
    off = rows != partners
    sector = block[np.ix_(rows, rows)]
    sector[:, off] += swap * block[np.ix_(rows, partners[off])]
    return sector


def sector_keys(axes, swaps):
    """The sector keys of the reflections of axes and the swaps, in order."""
    if not swaps:
        return [(signs, 1) for signs in itertools.product((1, -1), repeat=len(axes))]
    return [((1, 1), 1), ((1, 1), -1), ((1, -1), 1), ((-1, -1), 1), ((-1, -1), -1)]


@pytest.mark.parametrize("name", sorted(EIG_CASES))
def test_blocks_are_the_parity_blocks_of_the_full_matrix(name):
    # each sector is the one built from the full matrix, and the (+,-)
    # sector of a swap-invariant generator stands for (-,+) (two maps)
    gm = _eig_case(name)
    full = full_matrix(gm)
    scale = np.abs(full).max()
    assert list(gm.maps) == sector_keys(gm.axes, gm.swaps)
    for key, maps in gm.maps.items():
        mat = gm.sector(key)
        ref = sector_reference(full, gm.grid, gm.axes, gm.swaps, key)
        assert np.abs(mat - ref).max() <= 1e-13 * scale
        assert not mat.flags.writeable
        assert len(maps) == (2 if gm.swaps and key == ((1, -1), 1) else 1)
    assert gm.max_abs == pytest.approx(scale, rel=1e-15)


@pytest.mark.parametrize("d, n, axes", [(1, 16, (0,)), (2, 8, (0, 1)), (2, 8, (1,))])
def test_fold_sparse_is_the_parity_block(d, n, axes):
    # the Laplacian couples the two halves across each reflection plane (the
    # flux-form drift does not: its face velocity there is 0); it is swap
    # invariant too
    g = build_grid(d, 3.0, n)
    lap = laplacian_matrix(g)
    assert symmetries(g, lap)[0] == tuple(range(d))
    for swaps in {(), symmetries(g, lap)[1] if axes == (0, 1) else ()}:
        for key, (omap, *_) in orbit_maps(g, axes, swaps).items():
            ref = sector_reference(to_scipy(lap).toarray(), g, axes, swaps, key)
            # the entries at the planes sum up to three terms, in another order
            assert np.abs(to_scipy(omap.fold(lap)).toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


def test_max_abs_without_drift():
    # no drift entry anywhere: max|A| is the jump diagonal, an entry D never touches
    for d, n in ((1, 32), (2, 8)):
        gm = assemble_generator_matrix(build_grid(d, 5.0, n), OperatorConfig(
            alpha=1.0, method="quadrature", force=ForceField(2.0, lambda x: 0.0 * x)))
        assert gm.axes == tuple(range(d))
        assert gm.max_abs == pytest.approx(np.abs(full_matrix(gm)).max(), rel=1e-15)


def test_block_layout_follows_the_force():
    axes = {name: _eig_case(name).axes for name in EIG_CASES}
    assert axes == {"1d-upwind": (0,), "2d-upwind": (0, 1), "2d-centered": (0, 1),
                    "2d-x-symmetric": (0,), "1d-shifted": (), "2d-no-swap": (0, 1)}
    swaps = {name: _eig_case(name).swaps for name in EIG_CASES}
    assert swaps == {"1d-upwind": (), "2d-upwind": ((0, 1),), "2d-centered": ((0, 1),),
                     "2d-x-symmetric": (), "1d-shifted": (), "2d-no-swap": ()}
    gm = _eig_case("2d-x-symmetric")
    assert [gm.sector(key).shape for key in gm.maps] == [(128, 128)] * 2


@pytest.mark.parametrize("drift", ["upwind", "centered"])
@pytest.mark.parametrize("gamma, L", [(2.0, 10.0), (2.5, 7.3), (3.0, 8.0)])
def test_radial_force_has_the_axis_swap(drift, gamma, L):
    # the drift of a radial force is exactly swap-invariant, so the full
    # matrix is, and the (+,-) sector's second map, the first composed with
    # the swap, stands for (-,+)
    gm = assemble_generator_matrix(build_grid(2, L, 16), OperatorConfig(
        alpha=1.0, gamma=gamma, method="quadrature", drift=drift))
    assert gm.axes == (0, 1) and gm.swaps == ((0, 1),)
    swap = np.arange(256).reshape(16, 16).T.ravel()
    full = full_matrix(gm)
    assert np.array_equal(full[np.ix_(swap, swap)], full)
    first, second = gm.maps[(1, -1), 1]
    assert np.array_equal(second.index, first.index[swap])
    assert np.array_equal(second.weight, first.weight[swap])


@pytest.mark.parametrize("name", ["2d-upwind", "2d-centered"])
def test_sectors_split_the_spectrum_of_each_block(name):
    # the swap sectors of a parity block have its spectrum between them, and
    # the (+,-) sector stands for (-,+)
    gm = _eig_case(name)
    m = gm.grid.n // 2
    wedge, strict = m * (m + 1) // 2, m * (m - 1) // 2
    assert [(key, len(gm.sector(key)), len(maps)) for key, maps in gm.maps.items()] == [
        (((1, 1), 1), wedge, 1), (((1, 1), -1), strict, 1), (((1, -1), 1), m * m, 2),
        (((-1, -1), 1), wedge, 1), (((-1, -1), -1), strict, 1)]

    def parts(lam):  # sorted real and imaginary parts, robust to near ties
        return np.concatenate([np.sort(lam.real), np.sort(lam.imag)])

    for signs, split in (((1, 1), (1, -1)), ((-1, -1), (1, -1)), ((-1, 1), (1,))):
        ref = parts(scipy.linalg.eigvals(parity_block(full_matrix(gm), gm.grid, gm.axes, signs)))
        key = signs if signs != (-1, 1) else (1, -1)
        got = parts(np.concatenate([scipy.linalg.eigvals(gm.sector((key, s))) for s in split]))
        assert np.abs(got - ref).max() <= 1e-10 * gm.max_abs


def _shifted(p):
    # mirror-symmetric along no axis
    return p - 0.5


def full_matrix_routes(gm):
    """The bordered solve and the leading pair on the full matrix of gm,
    through numpy.linalg as the routes call it."""
    grid = gm.grid
    a = full_matrix(gm).copy()
    j0 = int(np.argmin(grid.radius2().ravel()))
    a[j0, :] = grid.cell_volume
    b = np.zeros(grid.size)
    b[j0] = 1.0
    sol = np.linalg.solve(a, b)
    lam, vecs = np.linalg.eig(full_matrix(gm))
    k = int(np.argmax(lam.real))
    vec = vecs[:, k].real
    vec = vec / (np.sum(vec) * grid.cell_volume)
    reals = np.sort(lam.real)
    return sol / (np.sum(sol) * grid.cell_volume), lam[k].real, vec, lam[k].real - reals[-2]


@pytest.mark.parametrize("d, n", [(1, 128), (2, 16)])
def test_shifted_force_has_one_block_the_full_matrix(d, n):
    # no reflection leaves the drift unchanged: both routes run on the full
    # matrix as before, bit for bit
    gm = assemble_generator_matrix(
        build_grid(d, 10.0, n),
        OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature", force=ForceField(2.0, _shifted)))
    assert gm.axes == () and list(gm.maps) == [((), 1)]
    assert np.array_equal(gm.sector(((), 1)), full_matrix(gm))
    assert gm.max_abs == np.abs(full_matrix(gm)).max()
    sol, lam_ref, vec_ref, gap_ref = full_matrix_routes(gm)
    assert np.array_equal(steady_by_linear_solve(gm).field.values.ravel(), sol)
    lam, vec, gap = leading_eigenpair(gm)
    assert (lam, gap) == (lam_ref, gap_ref)
    assert np.array_equal(vec.values.ravel(), vec_ref)


def test_routes_build_only_the_sectors_they_read(monkeypatch):
    # assembly builds no sector; the solve and lyapunov_check build the fully
    # even one, the eigenpair and harris_contraction the others, each sector
    # once, and the built sector is the one every route reads after
    from fracfp import operators
    from fracfp.rates import harris_contraction, lyapunov_check

    built, jump_matrix = [], operators._jump_matrix

    def recording(grid, alpha, omap):
        built.append(omap)
        return jump_matrix(grid, alpha, omap)

    monkeypatch.setattr(operators, "_jump_matrix", recording)
    gm = _eig_case("2d-upwind")
    even, *others = (group[0] for group in gm.maps.values())
    assert built == [] and len(others) == 4
    steady_by_linear_solve(gm)
    lyapunov_check(gm, [1.0], 0.5)
    assert built == [even]
    mat = gm.sector(next(iter(gm.maps)))
    leading_eigenpair(gm)
    harris_contraction(gm, 1.0, 0.5, 0.4)
    assert built == [even, *others]
    assert gm.sector(next(iter(gm.maps))) is mat


def test_linear_solve_matches_the_full_bordered_matrix():
    gm = _eig_case("2d-upwind")
    sol = full_matrix_routes(gm)[0].reshape(gm.grid.shape)
    F = steady_by_linear_solve(gm).field.values
    assert np.abs(F - sol).max() <= 1e-12 * sol.max()
    assert np.array_equal(F, np.flip(F, 0)) and np.array_equal(F, np.flip(F, 1))


def _lift_one_sector(gm, target, monkeypatch):
    """Make the sector under target hold the rightmost eigenvalue, 1e-10
    max|A| right of 0: its eigvals are shifted there.  Returns the list of
    the sector keys eig runs on."""
    eigvals, eig, seen = steady._la.eigvals, steady._la.eig, []

    def lifted(a, *args, **kwargs):
        lam = eigvals(a, *args, **kwargs)
        if a is not gm.sector(target):
            return lam
        return lam - lam.real.max() + 1e-10 * gm.max_abs

    def recording_eig(a, *args, **kwargs):
        seen.append(next(key for key in gm.maps if gm.sector(key) is a))
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(steady._la, "eigvals", lifted)
    monkeypatch.setattr(steady._la, "eig", recording_eig)
    return seen


def test_leading_pair_in_an_odd_block_fails_on_its_mass(monkeypatch):
    # should an odd block hold the rightmost eigenvalue, its eigenvector
    # (odd, so of zero mass) fails the eigenvector-mass check
    gm = _eig_case("2d-upwind")
    seen = _lift_one_sector(gm, ((1, -1), 1), monkeypatch)
    with pytest.raises(CheckFailure, match="eigenvector-mass") as exc:
        leading_eigenpair(gm)
    assert exc.value.measured <= exc.value.tolerance
    # the eigenvectors of the block that holds the lifted eigenvalue
    assert seen == [((1, 1), 1), ((1, -1), 1)]


def test_leading_pair_in_a_swap_odd_sector_fails_on_its_mass(monkeypatch):
    # the swap-odd sector of the even block: its eigenvector is even under
    # both reflections but odd under the swap, so of zero mass too
    gm = _eig_case("2d-upwind")
    seen = _lift_one_sector(gm, ((1, 1), -1), monkeypatch)
    with pytest.raises(CheckFailure, match="eigenvector-mass") as exc:
        leading_eigenpair(gm)
    assert exc.value.measured <= exc.value.tolerance
    assert seen == [((1, 1), 1), ((1, 1), -1)]


def test_evolution_route_agreement(small_setup):
    g, cfg, gm = small_setup
    ss_lin = steady_by_linear_solve(gm)
    cfg_ev = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral", drift="centered")
    ss_ev = steady_by_evolution(g, cfg_ev, tol=1e-5)
    l1 = np.sum(np.abs(ss_ev.field.values - ss_lin.field.values)) * g.h
    assert l1 < 2e-3
    assert ss_ev.mass == pytest.approx(1.0, abs=1e-10)


def test_evolution_route_initial_data_independence(small_setup):
    g, cfg, _ = small_setup
    cfg_ev = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    ss1 = steady_by_evolution(g, cfg_ev, tol=1e-5)
    bump = np.clip(1.0 - (g.axis / 5.0) ** 2, 0.0, None) ** 2
    f0 = Field(g, bump / (np.sum(bump) * g.h))
    ss2 = steady_by_evolution(g, cfg_ev, tol=1e-5, f0=f0)
    assert np.sum(np.abs(ss1.field.values - ss2.field.values)) * g.h < 2e-5


def test_evolution_route_keeps_its_path():
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    ss = steady_by_evolution(g, cfg, tol=1e-4)
    assert ss.path.shape[1:] == g.shape and not ss.path.flags.writeable
    # the probe first, the last (unnormalized) state last
    assert np.array_equal(ss.path[0], normalized_gaussian(g).values)
    assert np.array_equal(ss.path[-1] / (np.sum(ss.path[-1]) * g.h), ss.field.values)


def test_evolution_route_resumes_from_an_evolve_path(monkeypatch):
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    fresh = steady_by_evolution(g, cfg, tol=1e-4)
    calls = []
    evolve = steady.evolve
    monkeypatch.setattr(steady, "evolve", lambda *a, **kw: calls.append(1) or evolve(*a, **kw))
    for T in (len(fresh.path) + 0.5, 2.0):
        path = evolve(normalized_gaussian(g), T, cfg).path
        calls.clear()
        ss = steady_by_evolution(g, cfg, tol=1e-4, path=path)
        assert len(calls) == max(0, len(fresh.path) - len(path))
        assert (len(calls) == 0) == (T > 2.0)  # all chunks read off the path, or the first two
        assert np.array_equal(ss.field.values, fresh.field.values)
        assert np.array_equal(ss.path, fresh.path)


def test_evolution_route_rejects_a_path_from_another_field():
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    f0 = normalized_gaussian(g)
    path = steady.evolve(f0.with_values(np.roll(f0.values, 1)), 2.0, cfg).path
    with pytest.raises(ValueError, match=r"path\[0\] is not f0"):
        steady_by_evolution(g, cfg, tol=1e-4, path=path)
    with pytest.raises(ValueError, match=r"path\[0\] is not f0"):
        steady_by_evolution(g, cfg, tol=1e-4, path=path[:, :32])


def test_evolution_route_failure_counts_steps_along_the_route(monkeypatch):
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    advance, calls = _Stepper.advance, [0]
    chunk = int(np.ceil(1.0 / auto_dt(g, cfg) - 1e-9))
    fail_at = 2 * chunk + 4  # in the third chunk

    def drifting(self, v):
        calls[0] += 1
        return advance(self, v) * (1.0 + 1e-5 * (calls[0] == fail_at))

    monkeypatch.setattr(_Stepper, "advance", drifting)
    with pytest.raises(CheckFailure) as info:
        steady_by_evolution(g, cfg, tol=1e-9)
    assert info.value.check == "mass-drift"
    assert info.value.step == fail_at


def test_evolution_route_horizon_error(monkeypatch):
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    monkeypatch.setattr(steady, "HORIZON_CAP", 3.0)
    with pytest.raises(CheckFailure, match="^horizon: ") as info:
        steady_by_evolution(g, cfg, tol=1e-12)
    exc = info.value
    assert exc.check == "horizon" and exc.tolerance == 1e-12 < exc.measured
    dt = auto_dt(g, cfg)
    assert exc.step == 3 * int(np.ceil(1.0 / dt - 1e-9)) and exc.t == exc.step * dt
    assert exc.dt == dt


def test_steady_requires_confinement():
    g = build_grid(1, 20.0, 128)
    cfg = OperatorConfig(alpha=0.5, gamma=1.2, method="spectral")  # gamma < 2 - alpha
    with pytest.raises(ValueError, match="gamma"):
        steady_by_evolution(g, cfg)


def test_gamma3_alpha15_routes():
    g = build_grid(1, 15.0, 512)
    cfg = OperatorConfig(alpha=1.5, gamma=3.0, method="quadrature", drift="centered")
    gm = assemble_generator_matrix(g, cfg)
    ss = steady_by_linear_solve(gm)
    assert ss.field.values.min() > 0.0
    assert bordered_residual(gm, ss) < 1e-5
    cfg_ev = OperatorConfig(alpha=1.5, gamma=3.0, method="spectral", drift="centered")
    ss_ev = steady_by_evolution(g, cfg_ev, tol=1e-5)
    assert np.sum(np.abs(ss_ev.field.values - ss.field.values)) * g.h < 2e-3


# ------------------------------------------------------- tail exponent


def test_tail_exponent_exact_cauchy():
    g = build_grid(1, 40.0, 1024)
    a_hat, r2 = tail_exponent(Field(g, cauchy(g)))
    # log C = -log pi - 2 log<x> exactly: the fit is exact, not asymptotic
    assert a_hat == pytest.approx(2.0, abs=1e-10)
    assert r2 > 0.999999


def test_tail_exponent_synthetic_cubic():
    g = build_grid(1, 40.0, 1024)
    F = Field(g, (1.0 + g.axis**2) ** -1.5)
    a_hat, _ = tail_exponent(F)
    assert a_hat == pytest.approx(3.0, abs=0.02)


def test_tail_exponent_computed_stable_tail():
    # gamma=2, alpha=0.5: the equilibrium inherits the stable-law tail d+alpha.
    # The 0.5-stable reaches its tail exponent only at |x| >> its scale (~4),
    # so the closed-form route runs on a wide, finely resolved transform
    # (cheap: one big FFT); the oracle quadrature gives local exponent 1.45
    # on [200, 1000].
    g = build_grid(1, 5120.0, 2**20)
    F = closed_form_equilibrium(0.5, g)
    a_hat, r2 = tail_exponent(F, window=(200.0, 1000.0))
    assert abs(a_hat - 1.5) < 0.15
    assert r2 > 0.999


def test_tail_exponent_window_guard():
    g = build_grid(1, 10.0, 64)
    F = Field(g, np.exp(-g.axis**2))
    with pytest.raises(CheckFailure) as info:
        tail_exponent(F, window=(4.9, 5.0))
    exc = info.value
    assert exc.check == "tail-fit-window" and exc.tolerance == steady.TAIL_FIT_POINTS
    assert exc.measured < exc.tolerance and exc.step is None


def test_tail_exponent_rejects_a_growing_tail():
    # an exact power law fits with r^2 = 1 whatever its sign; F ~ <x>^(+1) does not decay
    g = build_grid(1, 10.0, 64)
    with pytest.raises(CheckFailure) as info:
        tail_exponent(Field(g, g.bracket()))
    exc = info.value
    assert exc.check == "tail-exponent" and exc.tolerance == 0.0
    assert exc.measured == pytest.approx(-1.0, abs=1e-12)


def test_steady_positivity_weighted_floor(small_setup):
    # min over interior nodes of F <x>^(d+alpha+gamma-2+1/2) stays positive
    g, cfg, gm = small_setup
    ss = steady_by_linear_solve(gm)
    w = g.bracket() ** (1.0 + 1.0 + 2.0 - 2.0 + 0.5)
    inner = np.abs(g.axis) < 0.9 * g.L
    assert np.min((ss.field.values * w)[inner]) > 0.0
