import itertools
import math

import numpy as np
import pytest
from scipy.special import erf

from fracfp.grid import Field, build_grid, integrate, weight_field
from fracfp.operators import OperatorConfig, _jump_row, jump_apply, spectral_fraclap
from fracfp.functionals import (
    carre_du_champ,
    field_bank,
    gp_equivalence_ratios,
    nash_chain_check,
    poincare_wirtinger_check,
    signed_power,
    threshold_p_gamma,
    weighted_norm,
)
from paper_checks import (
    _seminorm_weights,
    confinement_profile,
    local_mean_control_check,
    p_dissipation,
    relative_entropy,
    sobolev_seminorm,
)


# method "quadrature": jump_apply(., CFG) is the generator's periodic circulant J
CFG = OperatorConfig(alpha=1.0, method="quadrature")


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 20.0, 512)


@pytest.fixture(scope="module")
def gauss(grid):
    return Field(grid, np.exp(-grid.axis**2))


# ------------------------------------------------------------- norms


def test_weighted_norm_zero(grid):
    assert weighted_norm(Field(grid, np.zeros(512)), 2.0, 1.0) == 0.0


def test_weighted_norm_weight_cancellation(grid):
    # u = <x>^-k against weight k leaves the constant 1
    u = weight_field(grid, -0.7)
    for p in (1.0, 2.0, 3.0):
        assert weighted_norm(u, p, 0.7) == pytest.approx(
            (2 * grid.L) ** (1.0 / p), rel=1e-12
        )
    assert weighted_norm(u, math.inf, 0.7) == pytest.approx(1.0, rel=1e-12)


def test_weighted_norm_gaussian_erf_oracle(grid):
    # oracle: int exp(-2x^2) = sqrt(pi/2) (erf limit), so ||e^{-x^2}||_L2
    # = (pi/2)^(1/4)
    val = weighted_norm(Field(grid, np.exp(-grid.axis**2)), 2.0, 0.0)
    oracle = float(np.sqrt(np.pi / 2) * erf(np.sqrt(2) * 20.0))
    assert val == pytest.approx(oracle**0.5, abs=1e-9)
    assert val == pytest.approx((np.pi / 2) ** 0.25, abs=1e-9)


def test_weighted_norm_rejects_small_p(grid):
    with pytest.raises(ValueError):
        weighted_norm(Field(grid, np.zeros(512)), 0.5)


def test_signed_power():
    x = np.array([-8.0, -1.0, 0.0, 1.0, 8.0])
    assert np.allclose(signed_power(x, 1.0 / 3.0), np.cbrt(x))
    assert np.allclose(signed_power(x, 2.0) , np.abs(x) * x)


# ------------------------------------------------------------- carre du champ


def test_carre_constant_second_arg(grid, gauss):
    c = Field(grid, np.full(512, 3.7))
    out = carre_du_champ(gauss, c, CFG)
    assert np.max(np.abs(out.values)) < 1e-12


def test_carre_square_nonnegative(grid):
    rng = np.random.default_rng(2)
    u = Field(grid, rng.standard_normal(512) * np.exp(-grid.axis**2 / 50))
    g2 = carre_du_champ(u, u, CFG)
    assert g2.values.min() > -1e-12 * g2.values.max()


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_carre_is_the_periodic_pair_sum(d, n, alpha):
    # oracle: G(u, v)(x) = 1/2 sum_y c(x - y)(u(y) - u(x))(v(y) - v(x)), the
    # brute-force double sum over all node pairs with c the circulant row of
    # the generator's jump, x - y taken modulo n on each axis
    g = build_grid(d, 5.0, n)
    cfg = OperatorConfig(alpha=alpha, method="quadrature")
    rng = np.random.default_rng(11)
    u, v = (Field(g, rng.standard_normal(g.shape)) for _ in range(2))
    idx = np.indices(g.shape).reshape(d, -1)
    c = _jump_row(g, alpha)[tuple((idx[:, :, None] - idx[:, None, :]) % n)]
    du = u.values.ravel()[None, :] - u.values.ravel()[:, None]
    dv = v.values.ravel()[None, :] - v.values.ravel()[:, None]
    want = 0.5 * np.sum(c * du * dv, axis=1).reshape(g.shape)
    got = carre_du_champ(u, v, cfg).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_product_rule_exact(grid, gauss):
    # J(uv) = u J(v) + v J(u) + 2 G(u,v), J the generator's periodic jump
    v = Field(grid, np.exp(-((grid.axis - 1.0) ** 2) / 2))
    lhs = jump_apply(gauss.with_values(gauss.values * v.values), CFG).values
    rhs = (
        gauss.values * jump_apply(v, CFG).values
        + v.values * jump_apply(gauss, CFG).values
        + 2.0 * carre_du_champ(gauss, v, CFG).values
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-6 * np.max(np.abs(lhs))


def test_integration_by_parts(grid, gauss):
    v = Field(grid, np.exp(-((grid.axis + 2.0) ** 2)))
    a1 = float(np.sum(jump_apply(gauss, CFG).values * v.values) * grid.h)
    a2 = float(np.sum(gauss.values * jump_apply(v, CFG).values) * grid.h)
    a3 = -integrate(carre_du_champ(gauss, v, CFG))
    scale = max(abs(a1), 1e-30)
    assert abs(a1 - a2) < 1e-6 * scale
    assert abs(a1 - a3) < 1e-6 * scale


# ------------------------------------------------------------- dissipation


def test_p_dissipation_constant_zero(grid):
    c = Field(grid, np.full(512, 2.0))
    assert abs(p_dissipation(c, 1.5, CFG)) < 1e-10


def test_p_dissipation_positive_nonconstant(grid, gauss):
    assert p_dissipation(gauss, 1.5, CFG) > 1e-3


def test_p2_dissipation_equals_carre_integral(grid, gauss):
    d2 = p_dissipation(gauss, 2.0, CFG)
    g2 = integrate(carre_du_champ(gauss, gauss, CFG))
    assert d2 == pytest.approx(g2, rel=1e-13)


def test_p_dissipation_rejects_p1(grid, gauss):
    with pytest.raises(ValueError):
        p_dissipation(gauss, 1.0, CFG)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_gp_equivalence_brackets(grid, p):
    bank = field_bank(grid, count=8)
    lo, hi = np.inf, -np.inf
    for u in bank:
        ratios = gp_equivalence_ratios(u, p, CFG)
        for a, b in ratios.values():
            lo, hi = min(lo, a), max(hi, b)
    assert lo >= 0.25
    assert hi <= 4.0


# ------------------------------------------------------------- seminorms


# d -> (L, n, Parseval bound): the 2d box is coarse, 6.3e-2 off at n = 32
SEMINORM_CASES = {1: (20.0, 512, 0.02), 2: (8.0, 32, 0.1)}


def _seminorm_gauss(d):
    L, n, _ = SEMINORM_CASES[d]
    g = build_grid(d, L, n)
    return Field(g, np.exp(-g.radius2()))


@pytest.mark.parametrize("d", sorted(SEMINORM_CASES))
def test_seminorm_constant_zero(d):
    g = _seminorm_gauss(d).grid
    assert sobolev_seminorm(Field(g, np.ones(g.shape)), 0.5, 2.0) == 0.0


@pytest.mark.parametrize("d", sorted(SEMINORM_CASES))
def test_seminorm_is_sum_over_all_offsets(d):
    # reference: every offset J != 0 at its own weight, no pairing of J with
    # -J, and the self-cell term with the gradient norm written out per d
    u = _seminorm_gauss(d)
    g, v, p = u.grid, u.values * (1.0 + 0.3 * u.grid.coords()[0]), 1.5
    w = _seminorm_weights(g, 0.4, p)
    n = g.n
    total = 0.0
    for off in itertools.product(range(-n + 1, n), repeat=d):
        if any(off):
            hi = tuple(slice(max(0, j), n + min(0, j)) for j in off)
            lo = tuple(slice(max(0, -j), n + min(0, -j)) for j in off)
            total += w[tuple(n + j for j in off)] * np.sum(np.abs(v[hi] - v[lo]) ** p)
    grad = np.gradient(v, g.h)
    gnorm = np.abs(grad) if d == 1 else np.hypot(*grad)
    total += w[(n,) * d] * np.sum(gnorm**p)
    ref = (total * g.cell_volume) ** (1.0 / p)
    assert sobolev_seminorm(Field(g, v), 0.4, p) == pytest.approx(ref, rel=1e-13)


def test_seminorm_rejects_bad_s(grid, gauss):
    for s in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            sobolev_seminorm(gauss, s, 2.0)


def test_seminorm_scaling(grid, gauss):
    # |u(l .)|^p_{W^{s,p}} = l^{ps-d} |u|^p: for p=2, s=1/2, d=1 the seminorm
    # is scale invariant
    fine = build_grid(1, 20.0, 1024)
    u2 = Field(fine, np.exp(-((2.0 * fine.axis) ** 2)))
    s1 = sobolev_seminorm(gauss, 0.5, 2.0)
    s2 = sobolev_seminorm(u2, 0.5, 2.0)
    assert abs((s2 / s1) ** 2 - 1.0) < 0.1


@pytest.mark.parametrize("d", sorted(SEMINORM_CASES))
def test_seminorm_parseval_vs_spectral(d):
    # whole-space seminorm of the zero extension against the Fourier form
    gauss = _seminorm_gauss(d)
    snorm = sobolev_seminorm(gauss, 0.5, 2.0, include_exterior=True)
    quad_form = float(
        np.sum(-spectral_fraclap(gauss, 1.0).values * gauss.values) * gauss.grid.cell_volume
    )
    assert abs(snorm**2 / quad_form - 1.0) < SEMINORM_CASES[d][2]


# ------------------------------------------------------------- confinement


def test_confinement_profile_linear_drift(grid):
    # E = x: div E = 1, grad m / m vanishes at the origin: phi(0) = 1/q
    p = 2.0
    out = confinement_profile(grid, OperatorConfig(alpha=1.0, gamma=2.0), k=0.5, p=p)
    phi = out["phi"].values
    i0 = np.argmin(np.abs(grid.axis))
    assert phi[i0] == pytest.approx(1.0 / (p / (p - 1.0)), abs=1e-3)
    # |x| -> inf limit: 1/q - k
    assert phi[0] == pytest.approx(1.0 / 2.0 - 0.5, abs=2e-3)
    assert out["p_gamma"] == math.inf


def test_threshold_p_gamma_formula():
    assert threshold_p_gamma(0.5, 3.0, 1) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert threshold_p_gamma(0.5, 2.0, 1) == math.inf


def test_confinement_envelope_gamma3(grid):
    cfg = OperatorConfig(alpha=1.0, gamma=3.0)
    out = confinement_profile(grid, cfg, k=0.5, p=1.2)
    a, b = out["envelope"]
    assert a > 0.0
    phi = out["phi"].values
    decay = grid.bracket() ** (cfg.gamma - 2.0)
    omega = grid.radius2() <= (grid.L / 4.0) ** 2
    env = b * omega - a * decay
    # phi <= b 1_Omega - a <x>^(gamma-2) nodewise
    assert np.all(phi <= env + 1e-10)
    assert not out["p_gamma"] == math.inf
    assert out["p_admissible"]
    out2 = confinement_profile(grid, cfg, k=0.5, p=2.0)
    assert not out2["p_admissible"]  # p = 2 >= p_gamma = 4/3


# ------------------------------------------------------------- entropy


def test_relative_entropy_reference_floor(grid):
    F = Field(grid, np.exp(-grid.radius2()))
    F = Field(grid, F.values / integrate(F))
    val, dis = relative_entropy(F, F, 2.0, CFG)
    assert val == pytest.approx(integrate(F), rel=1e-12)
    assert abs(dis) < 1e-10


def test_relative_entropy_constant_ratio(grid):
    F = Field(grid, np.exp(-grid.radius2()))
    F = Field(grid, F.values / integrate(F))
    f2 = Field(grid, 2.0 * F.values)
    val, dis = relative_entropy(f2, F, 2.0, CFG)
    assert val == pytest.approx(4.0 * integrate(F), rel=1e-12)
    assert abs(dis) < 1e-10


def test_relative_entropy_dissipation_sign(grid):
    F = Field(grid, np.exp(-grid.radius2() / 4))
    F = Field(grid, F.values / integrate(F))
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = Field(grid, F.values * (1.0 + 0.5 * np.tanh(rng.standard_normal(512))))
        _, dis = relative_entropy(f, F, 2.0, CFG)
        assert dis <= 1e-14


def test_relative_entropy_rejects_bad_reference(grid, gauss):
    with pytest.raises(ValueError):
        relative_entropy(gauss, Field(grid, np.zeros(512)), 2.0, CFG)


# ------------------------------------------------------------- Poincare


@pytest.fixture(scope="module")
def cauchy_measure(grid):
    return Field(grid, 1.0 / (np.pi * (1.0 + grid.axis**2)))


def test_pw_constant_mean_zero(grid, cauchy_measure):
    # a constant with zero mean is zero: both sides vanish
    rep = poincare_wirtinger_check(
        Field(grid, np.zeros(512)), cauchy_measure, 5.0, 2.0, CFG
    )
    assert rep["passes"]
    assert rep["lhs"] == 0.0


def test_pw_bank(grid, cauchy_measure):
    muv = cauchy_measure.values
    for w in field_bank(grid, count=20):
        c0 = float(np.sum(w.values * muv) / np.sum(muv))
        v = Field(grid, w.values - c0)
        rep = poincare_wirtinger_check(v, cauchy_measure, 5.0, 2.0, CFG)
        assert rep["passes"]


def test_pw_lemma_form_constant(grid, cauchy_measure):
    rep = local_mean_control_check(
        Field(grid, np.full(512, 1.3)), cauchy_measure, 5.0, 1.5, CFG
    )
    assert rep["passes"]
    assert abs(rep["middle"]) < 1e-12


def test_pw_lemma_form_bank(grid, cauchy_measure):
    for u in field_bank(grid, count=10):
        rep = local_mean_control_check(u, cauchy_measure, 5.0, 1.5, CFG)
        assert rep["passes"]
        assert rep["middle"] >= -1e-12


def test_pw_requires_mean_zero(grid, cauchy_measure, gauss):
    with pytest.raises(ValueError, match="mean"):
        poincare_wirtinger_check(gauss, cauchy_measure, 5.0, 2.0, CFG)


# ------------------------------------------------------------- Nash chain


def test_nash_chain_constants_exist(grid):
    bank = field_bank(grid, count=20)
    rep = nash_chain_check(bank, 2.0, 0.5, CFG)
    assert rep["passes"]
    assert rep["c"] > 0.0


# ------------------------------------------------------------- bank


def test_field_bank_reproducible(grid):
    b1 = field_bank(grid, count=20, seed=7)
    b2 = field_bank(grid, count=20, seed=7)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(b1, b2))
    assert len(b1) == 20
    for f in b1:
        assert np.max(np.abs(f.values)) <= 1.0 + 1e-12
