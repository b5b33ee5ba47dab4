import numpy as np
import pytest
import sympy

from fracfp.grid import Field, build_grid, integrate, weight_field
from fracfp.operators import (
    ForceField,
    OperatorConfig,
    adjoint_apply,
    assemble_generator_matrix,
    capped_convolution,
    convolve_same,
    drift_divergence,
    fraclap_of_weight,
    fraclap_reference,
    generator_apply,
    make_force,
    norm_constant,
    offset_matrix,
    quadrature_fraclap,
    spectral_fraclap,
    split_fraclap,
    verify_force_hypotheses,
)


def gaussian_field(grid, s2=1.0):
    return Field(grid, np.exp(-grid.radius2() / s2))


# ---------------------------------------------------------------- FFT layer


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
    from fracfp.operators import _plain_conv_kernel, far_kernel

    g = build_grid(d, 6.0, n)
    cfg = OperatorConfig(alpha=0.8, method="quadrature")
    r = 2.0 * g.h
    mat = offset_matrix(_plain_conv_kernel(g, far_kernel(cfg.alpha, d, r)), n, n)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(g.shape)
    conv = capped_convolution(Field(g, v), cfg, r).values.ravel(order="C")
    assert np.allclose(mat @ v.ravel(order="C"), conv, rtol=0.0, atol=1e-13 * np.max(np.abs(conv)))
    # an asymmetric table tells the matrix from its transpose
    table = rng.standard_normal((2 * n + 1,) * d)
    conv = convolve_same(v, table).ravel(order="C")
    assert np.allclose(offset_matrix(table, n, n) @ v.ravel(order="C"), conv, rtol=0.0, atol=1e-12)


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


def test_quadrature_conservative_annihilates_constants():
    g = build_grid(1, 5.0, 64)
    cfg = OperatorConfig(alpha=1.5, method="quadrature", exterior="conservative")
    out = quadrature_fraclap(Field(g, np.ones(64)), cfg, check_decay=False)
    assert np.max(np.abs(out.values)) < 1e-12


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
    # alpha = 1, d = 1 is the Cauchy-kernel normalization 1/pi
    assert norm_constant(1.0, 1) == pytest.approx(1.0 / np.pi, rel=1e-14)


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


def test_split_constant_conservative_zero():
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, method="quadrature", exterior="conservative")
    c = Field(g, np.ones(64))
    near, far, _ = split_fraclap(c, cfg, r=g.h)
    assert np.max(np.abs(near.values)) < 1e-13
    assert np.max(np.abs(far.values)) < 1e-13


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
    x = np.linspace(-3, 3, 11)
    assert np.allclose(f2(x), x)
    assert f2(np.array(0.0)) == 0.0
    f3 = make_force(3.0)
    assert f3(np.sqrt(3.0)) == pytest.approx(2 * np.sqrt(3.0), rel=1e-13)


def test_force_symmetry_2d():
    f = make_force(2.5)
    pts = np.array([[1.0, 2.0], [-1.0, -2.0]])
    e = f.at(pts, 2)
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


def test_drift_zero_field():
    g = build_grid(1, 10.0, 64)
    out = drift_divergence(Field(g, np.zeros(64)), make_force(2.0))
    assert np.all(out.values == 0.0)


def test_drift_linear_identity_interior():
    # div(x * 1) = 1 in interior cells
    g = build_grid(1, 10.0, 256)
    out = drift_divergence(Field(g, np.ones(256)), make_force(2.0))
    assert np.max(np.abs(out.values[8:-8] - 1.0)) < 1e-12


def test_drift_mass_telescopes():
    # telescoping-sum oracle: total mass change is the boundary flux, zero here
    g = build_grid(1, 20.0, 256)
    rng = np.random.default_rng(3)
    u = np.zeros(256)
    u[64:192] = rng.uniform(0.5, 1.5, 128)
    out = drift_divergence(Field(g, u), make_force(2.5))
    assert abs(integrate(out)) < 1e-12 * np.max(np.abs(u))


def test_cached_arrays_are_read_only():
    from fracfp.evolution import _diffusion_multiplier, _implicit_factor
    from fracfp.operators import (
        _face_velocities,
        _fold_kernel,
        _jump_matrix,
        _plain_conv_kernel,
        box_frequencies,
        drift_matrix,
        drift_step_matrix,
        far_kernel,
        full_kernel,
        get_stencil,
        quadrature_symbol,
        spectral_symbol,
        windowed_kernel,
    )

    g = build_grid(1, 10.0, 64)
    sparse = [drift_matrix(g, make_force(2.0), drift) for drift in ("upwind", "centered")]
    sparse += [drift_step_matrix(g, make_force(2.0), drift, 0.01) for drift in ("upwind", "centered")]
    stencils = [get_stencil(g, full_kernel(1.0, 1)), get_stencil(g, windowed_kernel(1.0, 1, 0.2))]
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
        _jump_matrix(g, 1.0),
        _plain_conv_kernel(g, far_kernel(1.0, 1, g.h)),
    ]
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0


def test_only_the_circulant_row_is_folded(monkeypatch):
    # the periodic-image fold serves quadrature_symbol and _jump_matrix only;
    # windowed, near and far stencils are built without it
    from fracfp import operators

    def no_fold(*args):
        raise AssertionError("stencil build ran the periodic fold")

    monkeypatch.setattr(operators, "_fold_kernel", no_fold)
    for d, n in ((1, 64), (2, 8)):
        g = build_grid(d, 8.0, n)
        for kernel in (operators.windowed_kernel(0.8, d, 0.25), operators.near_kernel(0.8, d, g.h),
                       operators.far_kernel(0.8, d, g.h), operators.full_kernel(0.8, d)):
            st = operators.get_stencil.__wrapped__(g, kernel)  # a fresh build, not a cache hit
            assert st.ker.shape == (2 * n + 1,) * d


DRIFT_CASES = [(d, n, drift) for d, n in ((1, 64), (2, 16)) for drift in ("upwind", "centered")]


def by_action(grid, apply):
    """Dense matrix of a linear Field map, column k the image of unit vector k."""
    eye = np.eye(grid.size)
    return np.column_stack([apply(Field(grid, eye[:, k].reshape(grid.shape))).values.ravel()
                            for k in range(grid.size)])


@pytest.mark.parametrize("d,n,drift", DRIFT_CASES)
def test_drift_matrix_is_drift_apply_by_columns(d, n, drift):
    from fracfp.operators import drift_apply, drift_matrix

    g = build_grid(d, 8.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.5, drift=drift)
    mat = drift_matrix(g, cfg.force_field(), drift)
    assert np.array_equal(mat.toarray(), by_action(g, lambda f: drift_apply(f, cfg)))


@pytest.mark.parametrize("d,n,drift", DRIFT_CASES)
def test_drift_matrix_transpose_is_drift_adjoint_apply(d, n, drift):
    from fracfp.operators import drift_adjoint_apply, drift_matrix

    g = build_grid(d, 8.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.5, drift=drift)
    mat = drift_matrix(g, cfg.force_field(), drift).T.toarray()
    adj = by_action(g, lambda f: drift_adjoint_apply(f, cfg))
    assert np.allclose(mat, adj, rtol=0.0, atol=1e-14 * np.abs(adj).max())


def test_drift_2d_divergence_identity():
    g = build_grid(2, 8.0, 32)
    out = drift_divergence(Field(g, np.ones((32, 32))), make_force(2.0))
    assert np.max(np.abs(out.values[4:-4, 4:-4] - 2.0)) < 1e-12


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
    _, _, gm = gen_matrix
    scale = np.abs(gm.mat).max()
    assert np.abs(gm.mat.sum(axis=0)).max() < 1e-10 * scale


def test_matrix_metzler(gen_matrix):
    _, _, gm = gen_matrix
    off = gm.mat.copy()
    np.fill_diagonal(off, np.inf)
    assert off.min() >= 0.0


def test_matrix_matches_apply(gen_matrix):
    g, cfg, gm = gen_matrix
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.n) * np.exp(-g.axis**2 / 50.0)
    mv = gm.mat @ v
    av = generator_apply(Field(g, v), cfg).values
    assert np.max(np.abs(mv - av)) < 1e-12 * max(1.0, np.max(np.abs(mv)))


def test_adjoint_matrix_is_transpose(gen_matrix):
    g, cfg, gm = gen_matrix
    gma = assemble_generator_matrix(g, cfg, "adjoint")
    assert np.array_equal(gma.mat, gm.mat.T)


def test_adjoint_matrix_matches_adjoint_apply(gen_matrix):
    g, cfg, gm = gen_matrix
    rng = np.random.default_rng(6)
    v = rng.standard_normal(g.n) * np.exp(-g.axis**2 / 50.0)
    av = adjoint_apply(Field(g, v), cfg).values
    assert np.max(np.abs(gm.mat.T @ v - av)) < 1e-12 * max(1.0, np.max(np.abs(av)))


def test_matrix_leading_eigen_structure():
    g = build_grid(1, 20.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    gm = assemble_generator_matrix(g, cfg)
    lam = np.linalg.eigvals(gm.mat)
    order = np.argsort(-lam.real)
    assert abs(lam[order[0]]) < 1e-8 * np.abs(gm.mat).max()
    assert lam[order[1]].real < -1e-3


def test_matrix_size_guard():
    g = build_grid(2, 10.0, 128)  # 16384 nodes
    cfg = OperatorConfig(alpha=1.0, method="quadrature")
    with pytest.raises(ValueError, match="dense"):
        assemble_generator_matrix(g, cfg)


def test_matrix_2d_structure():
    g = build_grid(2, 8.0, 16)
    cfg = OperatorConfig(alpha=1.2, gamma=2.0, method="quadrature")
    gm = assemble_generator_matrix(g, cfg)
    scale = np.abs(gm.mat).max()
    assert np.abs(gm.mat.sum(axis=0)).max() < 1e-10 * scale
    off = gm.mat.copy()
    np.fill_diagonal(off, np.inf)
    assert off.min() >= 0.0
    rng = np.random.default_rng(9)
    v = rng.standard_normal((16, 16)) * np.exp(-g.radius2() / 20.0)
    mv = gm.mat @ v.ravel()
    av = generator_apply(Field(g, v), cfg).values.ravel()
    assert np.max(np.abs(mv - av)) < 1e-12 * max(1.0, np.max(np.abs(mv)))
