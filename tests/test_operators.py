import itertools

import numpy as np
import pytest
import scipy.fft as sfft
import sympy

import drift_reference as ref
import fold_reference
from fracfp.grid import Field, build_grid, integrate, weight_field
from fracfp.operators import (
    ForceField,
    OperatorConfig,
    assemble_generator_matrix,
    confinement_ratio,
    drift_matrix,
    fourier_multiply,
    generator_apply,
    make_force,
    norm_constant,
    orbit_maps,
    spectral_fraclap,
    spectral_symbol,
    symmetries,
)
from paper_checks import (
    adjoint_apply,
    capped_convolution,
    convolve_same,
    fraclap_of_weight,
    fraclap_reference,
    full_matrix,
    laplacian_matrix,
    offset_matrix,
    quadrature_fraclap,
    split_fraclap,
    verify_force_hypotheses,
)
from sparse_reference import to_scipy


def gaussian_field(grid, s2=1.0):
    return Field(grid, np.exp(-grid.radius2() / s2))


# ---------------------------------------------------------------- FFT layer


def public_scipy_multiply(values, mult, even):
    """fourier_multiply through scipy.fft's public transforms, axis by axis."""
    lead = values.ndim - mult.ndim
    cos = [lead + a for a in even]
    waves = [a for a in range(lead, values.ndim - 1) if a not in cos]
    real_last = values.ndim - 1 not in cos
    spec = values
    for a in cos:
        spec = sfft.dct(spec, 2, axis=a)
    if real_last:
        spec = sfft.rfft(spec)
    for a in waves:
        spec = sfft.fft(spec, axis=a)
    spec = spec * mult
    for a in waves:
        spec = sfft.ifft(spec, axis=a)
    spec = sfft.irfft(spec, values.shape[-1]) if real_last else spec.real
    for a in cos:
        spec = sfft.idct(spec, 2, axis=a)
    return spec


@pytest.mark.parametrize("d, n, even", [(1, 64, ()), (1, 64, (0,)), (2, 16, ()), (2, 16, (0,)),
                                        (2, 16, (1,)), (2, 16, (0, 1))])
@pytest.mark.parametrize("lanes", [None, 3])
def test_fourier_multiply_is_the_public_scipy_composition_bit_for_bit(d, n, even, lanes):
    # the direct pocketfft calls pass what scipy.fft's wrappers pass: a scipy
    # whose private signatures change fails here instead of drifting
    g = build_grid(d, 8.0, n)
    mult = np.exp(0.01 * spectral_symbol(g, 1.0))[g.half(even)]
    shape = g.half_shape(even) if lanes is None else (lanes,) + g.half_shape(even)
    values = np.random.default_rng(5).standard_normal(shape)
    values.flags.writeable = False
    before = values.copy()
    got = fourier_multiply(values, mult, even)
    want = public_scipy_multiply(values, mult, even)
    assert got.dtype == want.dtype and got.flags.c_contiguous and np.array_equal(got, want)
    assert np.array_equal(values, before)


def test_convolve_same_1d_matches_numpy_convolve():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(64)
    short = rng.standard_normal(9)
    assert np.allclose(convolve_same(v, short), np.convolve(v, short, mode="same"),
                       rtol=0.0, atol=1e-12)
    # the stencil shape (2n+1,): "same" is the centered n-block of "full"
    wide = rng.standard_normal(2 * 64 + 1)
    full = np.convolve(v, wide, mode="full")
    assert np.allclose(convolve_same(v, wide), full[64:128], rtol=0.0, atol=1e-12)


def test_convolve_same_2d_matches_direct_double_sum():
    rng = np.random.default_rng(12)
    n = 8
    v = rng.standard_normal((n, n))
    ker = rng.standard_normal((2 * n + 1, 2 * n + 1))
    direct = np.zeros((n, n))
    for i1 in range(n):
        for i2 in range(n):
            for j1 in range(n):
                for j2 in range(n):
                    direct[i1, i2] += v[j1, j2] * ker[n + i1 - j1, n + i2 - j2]
    assert np.allclose(convolve_same(v, ker), direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d,n", [(1, 32), (2, 8)])
def test_offset_matrix_matches_capped_convolution(d, n):
    from paper_checks import far_kernel, plain_conv_kernel

    g = build_grid(d, 6.0, n)
    cfg = OperatorConfig(alpha=0.8, method="quadrature")
    r = 2.0 * g.h
    mat = offset_matrix(plain_conv_kernel(g, far_kernel(cfg.alpha, d, r)), n, n)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(g.shape)
    conv = capped_convolution(Field(g, v), cfg, r).values.ravel(order="C")
    assert np.allclose(mat @ v.ravel(order="C"), conv, rtol=0.0, atol=1e-13 * np.max(np.abs(conv)))
    # an asymmetric table tells the matrix from its transpose
    table = rng.standard_normal((2 * n + 1,) * d)
    conv = convolve_same(v, table).ravel(order="C")
    assert np.allclose(offset_matrix(table, n, n) @ v.ravel(order="C"), conv, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_capped_convolution_reads_the_stencil_mass_table(d, n):
    # one cell quadrature: plain_conv_kernel is the mass table the stencil's
    # exterior mass is built from, with the self-cell mass put at the center
    from paper_checks import box_stencil, cell_masses, far_kernel, plain_conv_kernel

    g = build_grid(d, 6.0, n)
    kernel = far_kernel(0.8, d, 2.0 * g.h)
    masses = cell_masses(g, kernel)
    ker = plain_conv_kernel(g, kernel)
    off_center = np.ones(ker.shape, dtype=bool)
    off_center[(n,) * d] = False
    assert np.array_equal(ker[off_center], masses[off_center])
    assert masses[(n,) * d] == 0.0 and ker[(n,) * d] > 0.0
    # covered plus exterior mass is the same kernel mass at every node
    total = box_stencil(g, kernel).ext_mass + convolve_same(np.ones(g.shape), masses)
    assert np.allclose(total, total.flat[0], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------- spectral


def test_spectral_annihilates_constants():
    g = build_grid(1, 5.0, 64)
    out = spectral_fraclap(Field(g, np.ones(64)), 1.3)
    assert np.max(np.abs(out.values)) < 1e-13


def test_spectral_single_mode_eigenvalue():
    # L = pi: the first mode cos(x) has |2 pi xi| = 1, eigenvalue -1 for alpha = 1
    g = build_grid(1, np.pi, 64)
    mode = Field(g, np.cos(g.axis))
    out = spectral_fraclap(mode, 1.0)
    assert np.max(np.abs(out.values + mode.values)) < 1e-12


def test_spectral_rejects_bad_alpha():
    g = build_grid(1, 1.0, 8)
    f = Field(g, np.zeros(8))
    with pytest.raises(ValueError):
        spectral_fraclap(f, 2.0)
    with pytest.raises(ValueError):
        spectral_fraclap(f, 0.0)


# ---------------------------------------------------------------- quadrature


def test_quadrature_parity():
    g = build_grid(1, 15.0, 128)
    cfg = OperatorConfig(alpha=0.7, method="quadrature")
    even = quadrature_fraclap(gaussian_field(g), cfg).values
    assert np.max(np.abs(even - even[::-1])) < 1e-13
    odd_in = Field(g, g.axis * np.exp(-g.axis**2))
    odd = quadrature_fraclap(odd_in, cfg).values
    assert np.max(np.abs(odd + odd[::-1])) < 1e-13


@pytest.mark.parametrize("alpha,L,s2", [(0.5, 40.0, 2.0), (1.0, 20.0, 1.0), (1.5, 20.0, 1.0)])
def test_cross_method_consistency(alpha, L, s2):
    g = build_grid(1, L, 1024)
    mass = np.sqrt(np.pi * s2)
    f = Field(g, np.exp(-g.axis**2 / s2) / mass)
    q = quadrature_fraclap(f, OperatorConfig(alpha=alpha, method="quadrature"))
    s = spectral_fraclap(f, alpha)
    assert np.max(np.abs(q.values - s.values)) < 5e-3


def test_quadrature_order_vs_reference():
    # exact oracle by adaptive quadrature; the scheme must be ~2nd order
    alpha, L, s2 = 1.5, 20.0, 1.0
    errs = []
    for n in (512, 1024):
        g = build_grid(1, L, n)
        f = Field(g, np.exp(-g.axis**2 / s2))
        q = quadrature_fraclap(f, OperatorConfig(alpha=alpha, method="quadrature"))
        sub = np.linspace(0, n - 1, 65).astype(int)
        ref = fraclap_reference(lambda x: np.exp(-x**2 / s2), g.axis[sub], alpha)
        errs.append(np.max(np.abs(q.values[sub] - ref)))
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_quadrature_rejects_non_decaying():
    g = build_grid(1, 5.0, 64)
    cfg = OperatorConfig(alpha=1.0, method="quadrature")
    with pytest.raises(ValueError, match="decay"):
        quadrature_fraclap(Field(g, np.ones(64)), cfg)


def test_multiplier_normalization_wave_packet():
    # localized Fourier mode recovers the symbol within 1 percent
    for alpha in (0.5, 1.0, 1.5):
        g = build_grid(1, 40.0, 2048)
        x = g.axis
        u = np.cos(2 * np.pi * x) * np.exp(-((x / 8.0) ** 2))
        q = quadrature_fraclap(Field(g, u), OperatorConfig(alpha=alpha, method="quadrature"))
        i0 = np.argmax(u)
        lam = q.values[i0] / u[i0]
        assert abs(lam / (-((2 * np.pi) ** alpha)) - 1) < 0.01


def test_norm_constant_classic_value():
    # alpha = 1 is the Cauchy (Poisson) kernel normalization: 1/pi in 1d, 1/(2 pi) in 2d
    assert norm_constant(1.0, 1) == pytest.approx(1.0 / np.pi, rel=1e-14)
    assert norm_constant(1.0, 2) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 1.9])
def test_norm_constant_matches_the_scipy_gamma_formula(alpha, d):
    from scipy.special import gamma

    ref = 2.0**alpha * gamma((d + alpha) / 2.0) / (np.pi ** (d / 2.0) * abs(gamma(-alpha / 2.0)))
    assert norm_constant(alpha, d) == pytest.approx(ref, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------- splitting


def test_split_exactness_and_kc():
    g = build_grid(1, 20.0, 256)
    cfg = OperatorConfig(alpha=1.0, method="quadrature")
    f = gaussian_field(g)
    for r in (0.25, 1.0, 4.0):
        near, far, kc = split_fraclap(f, cfg, r=r)
        full = quadrature_fraclap(f, cfg)
        scale = np.max(np.abs(full.values))
        assert np.max(np.abs(near.values + far.values - full.values)) < 1e-10 * scale
        c = norm_constant(1.0, 1)
        assert kc == pytest.approx(2 * c * r ** (-1.0) * (1 + 1 / 1.0), rel=1e-12)


def test_split_rejects_bad_radius():
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, method="quadrature")
    f = gaussian_field(g)
    for r in (0.0, -1.0, 10.0, 20.0):
        with pytest.raises(ValueError):
            split_fraclap(f, cfg, r=r)


def test_capped_convolution_lower_bound():
    # kappa^c * u >= c_{a,d} (sqrt2 max(r,R,1))^{-(d+a)} <x>^{-(d+a)} int_{B_R} u
    g = build_grid(1, 20.0, 512)
    x = g.axis
    alpha, r, R = 1.0, 1.0, 1.0
    cfg = OperatorConfig(alpha=alpha, method="quadrature")
    u = Field(g, (np.abs(x) <= R).astype(float))
    conv = capped_convolution(u, cfg, r).values
    mass = integrate(Field(g, u.values * (np.abs(x) <= R)))
    C = norm_constant(alpha, 1) * (np.sqrt(2.0) * max(r, R, 1.0)) ** (-(1 + alpha))
    bound = C * g.bracket() ** (-(1 + alpha)) * mass
    assert np.all(conv >= bound * (1 - 1e-12))
    # oracle: adaptive quadrature of the capped-kernel convolution against a
    # smooth field (the indicator is only first-order resolvable)
    from scipy.integrate import quad

    c = norm_constant(alpha, 1)
    smooth = Field(g, np.exp(-(x**2)))
    conv_s = capped_convolution(smooth, cfg, r).values

    def oracle(x0):
        def integrand(z):
            return min(c * abs(z) ** (-(1 + alpha)), c * r ** (-(1 + alpha))) * np.exp(
                -((x0 - z) ** 2)
            )

        lo, hi = x0 - 12.0, x0 + 12.0
        pts = [p for p in (-r, 0.0, r, x0 - r, x0, x0 + r) if lo < p < hi]
        return quad(integrand, lo, hi, points=sorted(set(pts)), limit=300)[0]

    sub = np.linspace(32, 479, 24).astype(int)
    exact = np.array([oracle(x[i]) for i in sub])
    assert np.max(np.abs(conv_s[sub] - exact)) < 5e-3 * np.max(exact)


# ---------------------------------------------------------------- weights


def test_weight_action_decay_exponents():
    # |I(<x>^k)| ~ <x>^(k-alpha) away from the degenerate power k = alpha - 1
    for k, alpha in ((0.3, 0.5), (0.5, 1.0)):
        g = build_grid(1, 40.0, 512)
        im = fraclap_of_weight(g, k, alpha)
        x, br = g.axis, g.bracket()
        win = (np.abs(x) > 15) & (np.abs(x) < 35)
        slope = np.polyfit(np.log(br[win]), np.log(np.abs(im.values[win])), 1)[0]
        assert abs(slope - (k - alpha)) < 0.1


def test_weight_action_upper_bound():
    # the bound |I(m)| <= C <x>^{k-alpha} holds even at the degenerate pair
    for k, alpha in ((0.3, 0.5), (0.5, 1.0), (0.5, 1.5)):
        g = build_grid(1, 40.0, 512)
        im = fraclap_of_weight(g, k, alpha)
        ratio = np.abs(im.values) * g.bracket() ** (alpha - k)
        assert np.isfinite(ratio).all()
        assert ratio.max() < 10.0


def test_weight_action_lower_bound():
    # I(m) + Ct m >= Ck <x>^{-(d+alpha)} with fitted positive constants
    g = build_grid(1, 20.0, 512)
    k, alpha = 0.5, 1.0
    im = fraclap_of_weight(g, k, alpha).values
    m = weight_field(g, k).values
    br = g.bracket()
    ct = max(0.0, float(np.max(-im / m))) * 1.05 + 1e-8
    ck = float(np.min((im + ct * m) * br ** (1 + alpha)))
    assert ck > 0.0
    assert np.all(im + ct * m >= ck * br ** (-(1 + alpha)) * (1 - 1e-12))


# ---------------------------------------------------------------- force field


def test_make_force_examples():
    f2 = make_force(2.0)
    x = np.linspace(-3, 3, 11)[:, None]  # 1d points, shape (..., d)
    assert np.allclose(f2.at(x), x)
    assert f2.at(np.zeros(1))[0] == 0.0
    f3 = make_force(3.0)
    assert f3.at(np.array([np.sqrt(3.0)]))[0] == pytest.approx(2 * np.sqrt(3.0), rel=1e-13)


def test_force_symmetry_2d():
    f = make_force(2.5)
    pts = np.array([[1.0, 2.0], [-1.0, -2.0]])
    e = f.at(pts)
    assert np.allclose(e[0], -e[1])


def test_verify_force_hypotheses_canonical():
    g = build_grid(1, 20.0, 512)
    rep = verify_force_hypotheses(make_force(2.0), 2.0, g)
    # E = x gives E.x = |x|^2 exactly
    assert rep["inf_confinement_ratio"] == pytest.approx(1.0, rel=1e-12)
    assert rep["passes"]


def test_verify_force_hypotheses_negative_flagged():
    g = build_grid(1, 10.0, 128)
    rep = verify_force_hypotheses(ForceField(2.0, func=lambda x: -x), 2.0, g)
    assert rep["negative_confinement_nodes"] > 0
    assert not rep["passes"]


def test_verify_force_gamma3_gradient_sympy_oracle():
    # symbolic oracle for E' with E = <x>^(gamma-2) x
    xs, gam = sympy.symbols("x gamma", real=True)
    E = (1 + xs**2) ** ((gam - 2) / 2) * xs
    dE = sympy.simplify(sympy.diff(E, xs))
    dE3 = sympy.lambdify(xs, dE.subs(gam, 3.0))
    g = build_grid(1, 30.0, 1024)
    rep = verify_force_hypotheses(make_force(3.0), 3.0, g)
    x = g.axis
    sup_sym = float(np.max(np.abs(dE3(x)) / np.sqrt(1 + x**2)))
    assert rep["sup_grad_ratio"] == pytest.approx(sup_sym, rel=1e-3)
    # |E'| / <x> tends to 2 at infinity for gamma = 3
    far = float(np.abs(dE3(1e6)) / np.sqrt(1 + 1e12))
    assert far == pytest.approx(2.0, rel=1e-6)


# ---------------------------------------------------------------- drift


DRIFTS = ("upwind", "centered")


def drift_of(grid, gamma, drift, values):
    """drift_matrix @ values, shaped like the field."""
    return drift_matrix(grid, make_force(gamma), drift).lane_product()(values)


def test_drift_zero_field():
    g = build_grid(1, 10.0, 64)
    for drift in DRIFTS:
        assert np.all(drift_of(g, 2.0, drift, np.zeros(64)) == 0.0)


def test_drift_linear_identity_interior():
    # div(x * 1) = 1 in interior cells
    g = build_grid(1, 10.0, 256)
    for drift in DRIFTS:
        out = drift_of(g, 2.0, drift, np.ones(256))
        assert np.max(np.abs(out[8:-8] - 1.0)) < 1e-12


def test_drift_mass_telescopes():
    # telescoping-sum oracle: total mass change is the boundary flux, zero
    # here, and the mass change left of each interior face is the flux
    # E * (face value) through it: upwind takes the value from the side mass
    # flows from (velocity -E), centered the average of the two cells
    g = build_grid(1, 20.0, 256)
    rng = np.random.default_rng(3)
    u = np.zeros(256)
    u[64:192] = rng.uniform(0.5, 1.5, 128)
    e_face = make_force(2.5).components((g.axis[:-1] + g.h / 2,))[0]
    faces = {"upwind": np.where(e_face > 0.0, u[1:], u[:-1]), "centered": 0.5 * (u[1:] + u[:-1])}
    for drift in DRIFTS:
        out = drift_of(g, 2.5, drift, u)
        assert abs(integrate(Field(g, out))) < 1e-12 * np.max(np.abs(u))
        flux = e_face * faces[drift]
        assert np.allclose(np.cumsum(out)[:-1] * g.h, flux, rtol=0.0,
                           atol=1e-12 * np.max(np.abs(flux)))


def test_cached_arrays_are_read_only():
    from fracfp.evolution import _diffusion_multiplier, _implicit_factor
    from fracfp.operators import (
        _face_velocities,
        _fold_kernel,
        box_frequencies,
        cell_tables,
        drift_matrix,
        drift_step_matrix,
        full_kernel,
        quadrature_symbol,
        spectral_symbol,
    )
    from paper_checks import box_stencil, cell_masses, far_kernel, plain_conv_kernel, windowed_kernel

    g = build_grid(1, 10.0, 64)
    sparse = [drift_matrix(g, make_force(2.0), drift) for drift in ("upwind", "centered")]
    sparse += [drift_step_matrix(g, make_force(2.0), drift, 0.01) for drift in ("upwind", "centered")]
    sparse.append(laplacian_matrix(g))
    stencils = [box_stencil(g, full_kernel(1.0, 1)), box_stencil(g, windowed_kernel(1.0, 1, 0.2))]
    cached = [
        *(arr for m in sparse for arr in (m.data, m.indices, m.indptr)),
        *(arr for st in stencils for arr in (st.ker, st.deg_in, st.ext_mass)),
        _fold_kernel(g, 1.0),
        *_face_velocities(g, make_force(2.0)),
        *box_frequencies(g),
        spectral_symbol(g, 1.0),
        _diffusion_multiplier(g, 1.0, 0.01),
        quadrature_symbol(g, 1.0),
        _implicit_factor(g, 1.0, 0.01),
        full_matrix(assemble_generator_matrix(g, OperatorConfig(alpha=1.0, method="quadrature"))),
        plain_conv_kernel(g, far_kernel(1.0, 1, g.h)),
    ]
    # the 2d tables built on one symmetry wedge, and the sectors built on
    # them with their orbit maps
    g2 = build_grid(2, 10.0, 16)
    cached += [
        cell_tables(g2, full_kernel(1.0, 2), 2.0),
        cell_masses(g2, full_kernel(1.0, 2)),
        _fold_kernel(g2, 1.0),
    ]
    gm2 = assemble_generator_matrix(g2, OperatorConfig(alpha=1.0, method="quadrature"))
    for key, maps in gm2.maps.items():
        cached.append(gm2.sector(key))
        cached += [arr for omap in maps for arr in (omap.index, omap.weight, omap.reps, omap.sizes)]
    # the analytic-exterior weight action (1d)
    cached.append(fraclap_of_weight(g, 0.5, 1.0).values)
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    # the orbit maps: a read-only mapping whose values are tuples
    for maps in (orbit_maps(g, (0,)), orbit_maps(g2, gm2.axes, gm2.swaps)):
        with pytest.raises(TypeError):
            maps[next(iter(maps))] = ()
        with pytest.raises(AttributeError):
            maps.clear()
        assert all(isinstance(group, tuple) for group in maps.values())


def test_only_the_circulant_row_is_folded(monkeypatch):
    # the periodic-image fold serves quadrature_symbol and _jump_matrix only;
    # windowed, near and far stencils are built without it
    from fracfp import operators
    from paper_checks import far_kernel, near_kernel, windowed_kernel

    def no_fold(*args):
        raise AssertionError("stencil build ran the periodic fold")

    monkeypatch.setattr(operators, "_fold_kernel", no_fold)
    for d, n in ((1, 64), (2, 8)):
        g = build_grid(d, 8.0, n)
        for kernel in (windowed_kernel(0.8, d, 0.25), near_kernel(0.8, d, g.h),
                       far_kernel(0.8, d, g.h), operators.full_kernel(0.8, d)):
            row = operators.get_stencil.__wrapped__(g, kernel)  # a fresh build, not a cache hit
            assert row.shape == (2 * n + 1,) * d


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
def test_full_jump_matrix_is_the_circulant_of_the_symbol(d, n):
    # one scalar diagonal, -sum of the row off offset 0, and the eigenvalues
    # are quadrature_symbol (the circulant's DFT)
    from fracfp.operators import _fold_kernel, _jump_matrix, quadrature_symbol

    g = build_grid(d, 8.0, n)
    a = _jump_matrix(g, 1.2, orbit_maps(g, ())[(), 1][0])
    c = _fold_kernel(g, 1.2).copy()
    c.flat[0] = 0.0
    assert np.all(np.diag(a) == -c.sum())
    assert np.abs(a.sum(axis=0)).max() <= 1e-12 * np.abs(a).max()
    lam = np.sort(np.linalg.eigvals(a).real)
    sym = np.fft.fftn(np.fft.irfftn(quadrature_symbol(g, 1.2), g.shape, axes=range(d))).real
    assert np.abs(lam - np.sort(sym.ravel())).max() <= 1e-12 * np.abs(lam).max()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("d, n", [(1, 64), (1, 512), (2, 16), (2, 32)])
def test_fold_kernel_matches_the_image_loop(d, n, alpha):
    # the same image cells as the loop over periodic images, each evaluated
    # once per symmetry class, in another summation order
    from fracfp.operators import _fold_kernel

    g = build_grid(d, 10.0, n)
    ref_row = fold_reference.fold_kernel_loop(g, alpha)
    assert np.abs(_fold_kernel(g, alpha) - ref_row).max() <= 1e-14 * np.abs(ref_row).max()


@pytest.mark.parametrize("q", [2.0, 1.3])
@pytest.mark.parametrize("n", [16, 32])
def test_wedge_cell_tables_match_the_cell_loop(n, q):
    from fracfp.operators import cell_tables, full_kernel
    from paper_checks import cell_masses, windowed_kernel

    g = build_grid(2, 10.0, n)
    for kernel in (full_kernel(1.0, 2), windowed_kernel(0.7, 2, 0.25)):
        for table, ref_table in zip((cell_tables(g, kernel, q), cell_masses(g, kernel)),
                                    fold_reference.cell_tables_2d_loop(g, kernel, q)):
            assert np.abs(table - ref_table).max() <= 1e-14 * np.abs(ref_table).max()
            assert np.array_equal(table, table.T) and np.array_equal(table, np.flip(table, 0))


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
def test_jump_row_and_blocks_are_exactly_symmetric(d, n):
    # the row is exactly even along each axis and, in 2d, exactly symmetric,
    # so the full circulant and every parity sector equal their transposes
    from fracfp.operators import _fold_kernel, _jump_matrix

    g = build_grid(d, 8.0, n)
    c = _fold_kernel(g, 1.2)
    for axis in range(d):
        assert np.array_equal(c, np.roll(np.flip(c, axis), 1, axis))
    assert np.array_equal(c, c.T)
    a = _jump_matrix(g, 1.2, orbit_maps(g, ())[(), 1][0])
    assert np.array_equal(a, a.T)
    for (omap,) in orbit_maps(g, tuple(range(d))).values():
        blk = _jump_matrix(g, 1.2, omap)
        assert np.array_equal(blk, blk.T)


def _shifted_y(p):
    # mirror-symmetric in x only
    return np.stack([p[..., 0], p[..., 1] - 0.5], axis=-1)


# name -> (d, force, the axes and swaps that leave its drift unchanged)
MAP_CASES = {
    "1d": (1, None, (0,), ()),
    "2d-radial": (2, None, (0, 1), ((0, 1),)),
    "2d-x-symmetric": (2, ForceField(2.0, _shifted_y), (0,), ()),
    "2d-no-swap": (2, ForceField(2.0, lambda p: p * [1.0, 2.0]), (0, 1), ()),
    "2d-shifted": (2, ForceField(2.0, lambda p: p - 0.5), (), ()),
}


@pytest.mark.parametrize("name", sorted(MAP_CASES))
def test_orbit_maps_decompose_every_field(name):
    # the sectors' parts of a field, over every map, have the sectors'
    # parities, are orthogonal and sum to the field, and the maps'
    # coefficients count every node once
    d, force, axes, swaps = MAP_CASES[name]
    g = build_grid(d, 3.0, 8)
    drift = drift_matrix(g, OperatorConfig(alpha=1.0, force=force).force_field(), "upwind")
    assert symmetries(g, drift) == (axes, swaps)
    v = np.random.default_rng(1).standard_normal(g.shape)
    sizes, parts = 0, []
    for (signs, _), group in orbit_maps(g, axes, swaps).items():
        # each part has the parities of its key (the swapped map: swapped)
        for omap, parities in zip(group, (signs, signs[::-1])):
            sizes += len(omap.reps)
            parts.append(omap.lift(omap.project(v)))
            for a, s in zip(axes, parities):
                assert np.array_equal(np.flip(parts[-1], a), s * parts[-1])
    assert len(parts) == {0: 1, 1: 2, 2: 4 + len(swaps) * 2}[len(axes)]
    assert sizes == g.size
    assert np.abs(sum(parts) - v).max() <= 1e-15 * np.abs(v).max()
    for p, q in itertools.combinations(parts, 2):
        assert abs(np.sum(p * q)) <= 1e-15 * np.sum(v * v)


DRIFT_CASES = [(d, n, drift) for d, n in ((1, 64), (2, 16)) for drift in DRIFTS]


@pytest.mark.parametrize("d,n,drift", DRIFT_CASES)
def test_drift_matrix_is_drift_apply_by_columns(d, n, drift):
    g = build_grid(d, 8.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.5, drift=drift)
    mat = drift_matrix(g, cfg.force_field(), drift)
    assert np.array_equal(to_scipy(mat).toarray(), ref.by_action(g, lambda f: ref.drift_apply(f, cfg)))


@pytest.mark.parametrize("d,n,drift", DRIFT_CASES)
def test_drift_matrix_transpose_is_drift_adjoint_apply(d, n, drift):
    g = build_grid(d, 8.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.5, drift=drift)
    mat = to_scipy(drift_matrix(g, cfg.force_field(), drift)).T.toarray()
    adj = ref.by_action(g, lambda f: ref.drift_adjoint_apply(f, cfg))
    assert np.allclose(mat, adj, rtol=0.0, atol=1e-14 * np.abs(adj).max())


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_laplacian_matrix_is_stencil_by_columns(d, n):
    g = build_grid(d, 8.0, n)
    assert np.array_equal(to_scipy(laplacian_matrix(g)).toarray(), ref.by_action(g, ref.discrete_laplacian))


def test_drift_2d_divergence_identity():
    g = build_grid(2, 8.0, 32)
    for drift in DRIFTS:
        out = drift_of(g, 2.0, drift, np.ones((32, 32)))
        assert np.max(np.abs(out[4:-4, 4:-4] - 2.0)) < 1e-12


# ---------------------------------------------------------------- CSR layer


CSR_CASES = {
    "1d-2048": (1, 20.0, 2048, make_force(2.0)),
    "1d-512-gamma-1.5": (1, 10.0, 512, make_force(1.5)),
    "1d-shifted": (1, 10.0, 64, ForceField(2.0, lambda p: p - 0.5)),
    "2d-32": (2, 10.0, 32, make_force(2.0)),
    "2d-16-gamma-2.5": (2, 10.0, 16, make_force(2.5)),
    **{name: (2, 3.0, 8, force) for name, (d, force, *_) in MAP_CASES.items()
       if d == 2 and force is not None},
    # faces with no flux, and Lax-Wendroff node velocities of 0: the entries
    # that the builds compute as 0 and do not store
    "1d-zero": (1, 3.0, 16, ForceField(2.0, lambda p: 0.0 * p)),
    "2d-zero": (2, 3.0, 8, ForceField(2.0, lambda p: 0.0 * p)),
    "2d-x-only": (2, 3.0, 8, ForceField(2.0, lambda p: p * [1.0, 0.0])),
    "2d-rotation": (2, 3.0, 16, ForceField(2.0, lambda p: np.stack([p[..., 1], -p[..., 0]], axis=-1))),
}


@pytest.mark.parametrize("drift", DRIFTS)
@pytest.mark.parametrize("name", sorted(CSR_CASES))
def test_csr_builds_are_scipy_sparse_bit_for_bit(name, drift):
    # the CSR type runs the sparsetools kernels as scipy.sparse runs them:
    # the drift matrix, the drift substep and their fold onto every sector
    # have scipy.sparse's indptr, indices and data, the order of the entries
    # within a row and the index dtype included; the symmetries, the
    # products with a vector (also through scipy.sparse's transpose) and
    # the orbit sums of the dense jump sectors are scipy.sparse's too
    from fracfp.evolution import auto_dt
    from fracfp.operators import _gather, _jump_matrix, _jump_row, drift_step_matrix

    import sparse_reference as sref

    d, L, n, force = CSR_CASES[name]
    g = build_grid(d, L, n)
    tau = 0.5 * auto_dt(g, OperatorConfig(alpha=1.0, force=force))
    mats = [drift_matrix(g, force, drift), drift_step_matrix(g, force, drift, tau)]
    refs = [sref.drift_matrix(g, force, drift), sref.drift_step_matrix(g, force, drift, tau)]
    axes, swaps = symmetries(g, mats[0])
    assert (axes, swaps) == sref.symmetries(g, refs[0])
    assert symmetries(g, mats[1]) == sref.symmetries(g, refs[1])
    v = np.cos(0.37 * np.arange(g.size))
    for mat, want in zip(mats, refs):
        assert np.array_equal(mat.lane_product()(v), want @ v)
        assert np.array_equal(to_scipy(mat).T @ v, want.T @ v)
    sector_maps = [maps[0] for maps in orbit_maps(g, axes, swaps).values()]
    pairs = list(zip(mats, refs)) + [(omap.fold(mat), sref.fold(omap, want))
                                     for omap in sector_maps for mat, want in zip(mats, refs)]
    for got, want in pairs:
        assert got.shape == want.shape
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    if g.size <= 1024:
        row = _jump_row(g, 1.0)
        for omap in sector_maps:
            gather = _gather(row, 0, g.n, omap.reps)
            assert np.array_equal(_jump_matrix(g, 1.0, omap), (sref.orbit_sum(omap, g.size) @ gather).T)


# (d, L, n, force): the canonical field on both sides of gamma = 2 and the
# custom fields of CSR_CASES, on their grids
CONFINEMENT_CASES = {
    **{f"{d}d-gamma-{gamma:g}": (d, 10.0, 64 if d == 1 else 16, make_force(gamma))
       for d in (1, 2) for gamma in (1.5, 2.0, 3.0)},
    **{name: case for name, case in CSR_CASES.items() if case[3].func is not None},
}


@pytest.mark.parametrize("name", sorted(CONFINEMENT_CASES))
def test_confinement_ratio_is_the_instruments(name):
    # the force-hypotheses record reads the confinement entry of the paper's
    # force instrument bit for bit: the infimum over |x| > h of
    # E.x / (<x>^(gamma-2) |x|^2), 1 on the canonical field
    d, L, n, force = CONFINEMENT_CASES[name]
    g = build_grid(d, L, n)
    ratio = confinement_ratio(force, force.gamma, g)
    assert ratio == verify_force_hypotheses(force, force.gamma, g)["inf_confinement_ratio"]
    x = g.nodes()
    r2 = np.sum(x**2, axis=1)
    ex = np.sum(force.at(x) * x, axis=1)
    want = np.min((ex / ((1.0 + r2) ** ((force.gamma - 2.0) / 2.0) * r2))[r2 > g.h**2])
    assert ratio == pytest.approx(want, rel=1e-12, abs=1e-12)
    if force.func is None:
        assert ratio == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- generator


def test_generator_zero_field():
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    assert np.all(generator_apply(Field(g, np.zeros(64)), cfg).values == 0.0)


def test_generator_mass_conservation_compact_support():
    g = build_grid(1, 20.0, 512)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    x = g.axis
    u = np.exp(-(x**2)) * (np.abs(x) < 5)
    out = generator_apply(Field(g, u), cfg)
    assert abs(integrate(out)) < 1e-10


def test_generator_cauchy_near_stationarity():
    # gamma=2, alpha=1: closed-form equilibrium 1/(pi(1+x^2)).  The residual
    # is tiny in the bulk; the outermost cells carry the truncation flux of
    # order E(L) f(L) / h, which is the price of the finite box.
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    bulk_res = {}
    for n in (2048, 4096):
        g = build_grid(1, 40.0, n)
        f = Field(g, 1.0 / (np.pi * (1.0 + g.axis**2)))
        res = generator_apply(f, cfg)
        bulk = np.abs(g.axis) <= 36.0
        bulk_res[n] = np.max(np.abs(res.values[bulk]))
        edge_scale = 40.0 * f.values[0] / g.h
        assert np.max(np.abs(res.values)) < 1.5 * edge_scale
    # upwind truncation dominates: (h/2) max|4x(x^2-1)/(pi(1+x^2)^3)| ~ 5.4e-3
    # at n = 2048, halving with h
    assert bulk_res[2048] < 6e-3
    assert bulk_res[4096] < 0.6 * bulk_res[2048]


def test_adjoint_one_is_zero():
    g = build_grid(1, 15.0, 256)
    cfg = OperatorConfig(alpha=0.8, gamma=2.5, method="quadrature")
    out = adjoint_apply(Field(g, np.ones(256)), cfg)
    assert np.max(np.abs(out.values)) < 1e-10


def test_adjoint_duality_random_pairs():
    g = build_grid(1, 15.0, 256)
    cfg = OperatorConfig(alpha=1.2, gamma=2.0, method="quadrature")
    rng = np.random.default_rng(11)
    env = np.exp(-g.axis**2 / 30.0)
    for _ in range(4):
        f = Field(g, rng.standard_normal(256) * env)
        w = Field(g, rng.standard_normal(256) * env)
        d1 = float(np.sum(generator_apply(f, cfg).values * w.values))
        d2 = float(np.sum(f.values * adjoint_apply(w, cfg).values))
        assert abs(d1 - d2) <= 1e-8 * max(abs(d1), abs(d2), 1.0)


# ---------------------------------------------------------------- matrices


@pytest.fixture(scope="module")
def gen_matrix():
    g = build_grid(1, 20.0, 256)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    return g, cfg, assemble_generator_matrix(g, cfg)


def test_matrix_column_sums_zero(gen_matrix):
    mat = full_matrix(gen_matrix[2])
    assert np.abs(mat.sum(axis=0)).max() < 1e-10 * np.abs(mat).max()


def test_matrix_metzler(gen_matrix):
    off = full_matrix(gen_matrix[2]).copy()
    np.fill_diagonal(off, np.inf)
    assert off.min() >= 0.0


def test_matrix_matches_apply(gen_matrix):
    g, cfg, gm = gen_matrix
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.n) * np.exp(-g.axis**2 / 50.0)
    mv = full_matrix(gm) @ v
    av = generator_apply(Field(g, v), cfg).values
    assert np.max(np.abs(mv - av)) < 1e-12 * max(1.0, np.max(np.abs(mv)))


def test_adjoint_matrix_matches_adjoint_apply(gen_matrix):
    g, cfg, gm = gen_matrix
    rng = np.random.default_rng(6)
    v = rng.standard_normal(g.n) * np.exp(-g.axis**2 / 50.0)
    av = adjoint_apply(Field(g, v), cfg).values
    assert np.max(np.abs(full_matrix(gm).T @ v - av)) < 1e-12 * max(1.0, np.max(np.abs(av)))


def test_matrix_leading_eigen_structure():
    g = build_grid(1, 20.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    gm = assemble_generator_matrix(g, cfg)
    mat = full_matrix(gm)
    lam = np.linalg.eigvals(mat)
    order = np.argsort(-lam.real)
    assert abs(lam[order[0]]) < 1e-8 * np.abs(mat).max()
    assert lam[order[1]].real < -1e-3


def test_matrix_size_guard(monkeypatch):
    # assembly builds no matrix, so it runs at any size; each guard sits
    # where a matrix is built, and raises before building one: the tests'
    # N x N matrix on n^d, the solve on its fully even sector and the
    # eigenpair on its largest sector
    from fracfp import operators
    from fracfp.steady import MAX_EIGEN_SECTOR, leading_eigenpair, steady_by_linear_solve

    def no_build(*args):
        raise AssertionError("a guarded route built a sector")

    monkeypatch.setattr(operators, "_jump_matrix", no_build)
    g = build_grid(2, 10.0, 128)  # 16384 nodes
    cfg = OperatorConfig(alpha=1.0, method="quadrature")
    gm = assemble_generator_matrix(g, cfg)
    assert gm.sector_sizes == (2080, 2016, 4096, 2080, 2016)
    with pytest.raises(ValueError, match="dense N x N matrix"):
        full_matrix(gm)
    assert max(gm.sector_sizes) > MAX_EIGEN_SECTOR
    with pytest.raises(ValueError, match="dense eigenpair"):
        leading_eigenpair(gm)
    # 2d n = 256: the symmetries are found on 65536 nodes (their flat keys
    # pass 2^31), and the fully even sector has 8256 > MAX_DENSE unknowns
    gm = assemble_generator_matrix(build_grid(2, 10.0, 256), cfg)
    assert (gm.axes, gm.swaps) == ((0, 1), ((0, 1),))
    assert gm.sector_sizes[0] == 8256 > operators.MAX_DENSE
    with pytest.raises(ValueError, match="dense solve"):
        steady_by_linear_solve(gm)


@pytest.mark.parametrize("d, n", [(1, 64), (1, 512), (2, 16), (2, 32), (2, 64)])
def test_sectors_in_row_blocks_equal_the_one_block_build(d, n, monkeypatch):
    # each sector, built on its first call from gathers in blocks of
    # representatives (GATHER_BYTES, or 7 representatives a block), equals
    # the build from one gather of all of them bit for bit, the jump alone
    # and with the drift folded on
    from fracfp import operators

    g = build_grid(d, 10.0, n)
    cfg = OperatorConfig(alpha=1.2, gamma=2.0, method="quadrature")
    gm = assemble_generator_matrix(g, cfg)
    drift = drift_matrix(g, cfg.force_field(), cfg.drift)
    maps = [group[0] for group in gm.maps.values()]
    built = [gm.sector(key) for key in gm.maps]
    jumps = []
    for budget in (operators.GATHER_BYTES, 7 * 8 * g.size):
        monkeypatch.setattr(operators, "GATHER_BYTES", budget)
        jumps.append([operators._jump_matrix(g, 1.2, omap) for omap in maps])
    monkeypatch.setattr(operators, "GATHER_BYTES", 8 * g.size**2)  # one block
    for k, omap in enumerate(maps):
        one = operators._jump_matrix(g, 1.2, omap)
        assert all(np.array_equal(blocked[k], one) for blocked in jumps)
        row, col, data = omap.fold(drift).coo()
        one[row, col] += data
        assert np.array_equal(built[k], one) and not built[k].flags.writeable


def test_matrix_2d_structure():
    g = build_grid(2, 8.0, 16)
    cfg = OperatorConfig(alpha=1.2, gamma=2.0, method="quadrature")
    gm = assemble_generator_matrix(g, cfg)
    mat = full_matrix(gm)
    assert np.abs(mat.sum(axis=0)).max() < 1e-10 * np.abs(mat).max()
    off = mat.copy()
    np.fill_diagonal(off, np.inf)
    assert off.min() >= 0.0
    rng = np.random.default_rng(9)
    v = rng.standard_normal((16, 16)) * np.exp(-g.radius2() / 20.0)
    mv = mat @ v.ravel()
    av = generator_apply(Field(g, v), cfg).values.ravel()
    assert np.max(np.abs(mv - av)) < 1e-12 * max(1.0, np.max(np.abs(mv)))
