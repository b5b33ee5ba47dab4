import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm

from fracfp import operators

from fracfp.grid import CheckFailure, Field, build_grid, weight_field
from fracfp.operators import (
    ForceField,
    GeneratorMatrix,
    OperatorConfig,
    assemble_generator_matrix,
    orbit_maps,
)
from fracfp.evolution import evolve
from fracfp.rates import (
    _adjoint,
    decay_fit,
    harris_bank,
    harris_contraction,
    harris_seminorm,
    lyapunov_check,
    semigroup,
    semigroup_apply,
)
from paper_checks import (
    b_semigroup_decay,
    near_delta,
    ode_envelope_check,
    polynomial_rate_check,
    regularization_slope,
    weighted_opnorm,
)


# ------------------------------------------------------------ decay_fit


def test_decay_fit_exponential_synthetic():
    ts = np.linspace(0.2, 10.0, 80)
    rep = decay_fit(ts, 3.0 * np.exp(-2.0 * ts))
    assert rep.fitted == pytest.approx(2.0, abs=1e-6)
    assert rep.r2 > 0.999999
    assert rep.passed


def test_decay_fit_polynomial_synthetic():
    ts = np.linspace(5.0, 100.0, 96)
    rep = decay_fit(ts, (1.0 + ts**2) ** (-0.75), model="polynomial")
    assert rep.fitted == pytest.approx(1.5, abs=1e-3)
    assert rep.passed


def test_decay_fit_upper_bound_semantics():
    # decaying faster than predicted is bound-respected, never a failure
    ts = np.linspace(1.0, 10.0, 40)
    rep = decay_fit(ts, np.exp(-3.0 * ts), predicted=1.0)
    assert rep.passed
    rep2 = decay_fit(ts, np.exp(-0.5 * ts), predicted=1.0)
    assert not rep2.passed


def test_decay_fit_guards():
    with pytest.raises(CheckFailure) as info:
        decay_fit([1, 2, 3], [1.0, 0.5, 0.2])  # too few points
    exc = info.value
    assert (exc.check, exc.measured, exc.tolerance, exc.step) == ("rate-fit-window", 3, 10, None)
    ts = np.linspace(1, 5, 20)
    with pytest.raises(ValueError):
        decay_fit(ts, -np.ones(20))
    with pytest.raises(ValueError):
        decay_fit(ts, np.exp(-ts), model="cubic")


# ------------------------------------------------------------ slopes


def test_regularization_slope_alpha1():
    g = build_grid(1, 20.0, 2048)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    rep = regularization_slope(g, cfg, p=2.0, k=0.5)
    assert rep.predicted == pytest.approx(0.5)
    assert abs(rep.fitted - 0.5) < 0.1
    assert rep.passed


def test_regularization_predicted_values():
    # d/(q alpha) for p = 2: 1/2 at alpha=1, 1/3 at alpha=1.5
    g = build_grid(1, 20.0, 256)
    for alpha, pred in ((1.0, 0.5), (1.5, 1.0 / 3.0)):
        cfg = OperatorConfig(alpha=alpha, gamma=2.0)
        try:
            rep = regularization_slope(g, cfg, p=2.0, t_window=(0.3, 0.6))
        except ValueError:
            continue  # CFL-clipped window on the coarse test grid
        assert rep.predicted == pytest.approx(pred)


def test_linf_slope_gamma_guard():
    g = build_grid(1, 20.0, 256)
    with pytest.raises(ValueError):
        regularization_slope(g, OperatorConfig(alpha=1.0, gamma=2.5), p=math.inf)


def test_linf_slope_alpha15():
    g = build_grid(1, 20.0, 2048)
    cfg = OperatorConfig(alpha=1.5, gamma=2.0, method="spectral")
    rep = regularization_slope(g, cfg, p=math.inf)
    assert rep.predicted == pytest.approx(1.0 / 1.5)
    assert abs(rep.fitted - rep.predicted) < 0.2


def test_near_delta_properties():
    g = build_grid(1, 10.0, 256)
    f = near_delta(g)
    assert f.values.min() >= 0.0
    assert np.sum(f.values) * g.h == pytest.approx(1.0, rel=1e-12)
    assert np.count_nonzero(f.values) <= 5


# ------------------------------------------------------------ polynomial regime


def test_polynomial_rate_check_exponent_formula():
    # predicted exponent (k_heavy - k_light)/|2-gamma| independent of the run
    g = build_grid(1, 60.0, 256)
    cfg = OperatorConfig(alpha=1.5, gamma=1.5, method="spectral")
    F = Field(g, np.exp(-g.radius2()))
    F = Field(g, F.values / (np.sum(F.values) * g.h))
    rep = polynomial_rate_check(
        g, cfg, k_heavy=0.9, k_light=0.45, p=1.1, horizon=8.0, steady=F, t0=0.5
    )
    assert rep.predicted == pytest.approx(0.9)


def test_polynomial_rate_check_guards():
    g = build_grid(1, 20.0, 128)
    F = Field(g, np.ones(128) / (20.0 * 2))
    with pytest.raises(ValueError):
        polynomial_rate_check(
            g, OperatorConfig(alpha=1.0, gamma=2.5), 0.9, 0.45, 1.1, 10.0, F
        )
    with pytest.raises(ValueError):
        polynomial_rate_check(
            g, OperatorConfig(alpha=1.5, gamma=1.5), 0.45, 0.9, 1.1, 10.0, F
        )


def test_polynomial_degenerate_equal_weights_reduces_to_bound():
    ts = np.linspace(5, 50, 40)
    rep = decay_fit(ts, np.full(40, 0.3), model="polynomial", predicted=0.0)
    assert rep.passed  # exponent 0: pure boundedness


# ------------------------------------------------------------ B-semigroup


@pytest.fixture(scope="module")
def matrices():
    g_exp = build_grid(1, 15.0, 256)
    gm_exp = assemble_generator_matrix(
        g_exp, OperatorConfig(alpha=1.0, gamma=2.5, method="quadrature")
    )
    g_pol = build_grid(1, 30.0, 256)
    gm_pol = assemble_generator_matrix(
        g_pol, OperatorConfig(alpha=1.5, gamma=1.5, method="quadrature")
    )
    return gm_exp, gm_pol


def test_b_semigroup_exponential_branch(matrices):
    gm_exp, _ = matrices
    rep = b_semigroup_decay(gm_exp, theta=1.0, p=1.0, k=0.5, M=5.0, R=2.0)
    assert rep.model == "exponential"
    assert rep.fitted > 0.0
    assert rep.passed


def test_b_semigroup_contraction_bound(matrices):
    _, gm_pol = matrices
    rep = b_semigroup_decay(gm_pol, theta=1.0, p=1.1, k=0.9, M=5.0, R=2.0)
    assert rep.passed
    assert max(rep.details["norms"]) <= 1.1


def test_b_semigroup_polynomial_branch(matrices):
    _, gm_pol = matrices
    rep = b_semigroup_decay(gm_pol, theta=0.5, p=1.1, k=0.9, M=5.0, R=2.0)
    assert rep.predicted == pytest.approx(0.9)
    assert rep.fitted >= 0.8
    assert rep.passed


def test_weighted_opnorm_exact_p1():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 40))
    w = np.abs(rng.standard_normal(40)) + 0.5
    # p = 1: the maximum weighted column sum; p = inf: the maximum row sum
    for p, axis in ((1.0, 0), (math.inf, 1)):
        exact = np.max(np.sum(np.abs(w[:, None] * a / w[None, :]), axis=axis))
        assert weighted_opnorm(a, p, w, w) == pytest.approx(exact, rel=1e-14)


def test_weighted_opnorm_estimator_p2():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 40))
    ones = np.ones(40)
    est = weighted_opnorm(a, 2.0, ones, ones)
    exact = np.linalg.norm(a, 2)
    assert est <= exact * (1 + 1e-10)
    assert est >= 0.95 * exact


# ------------------------------------------------------------ Harris


@pytest.fixture(scope="module")
def generator_256():
    g = build_grid(1, 20.0, 256)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    return assemble_generator_matrix(g, cfg)


def test_lyapunov_envelope(generator_256):
    rep = lyapunov_check(generator_256, [0.5, 1.0], 0.5)
    assert rep["a"] > 0.0
    assert rep["gamma"][1.0] < 1.0
    assert all(rep["envelope_ok"].values())
    # t = 0 is trivially feasible with gamma = 1, c = 0
    rep0 = lyapunov_check(generator_256, [0.0], 0.5)
    assert rep0["gamma"][0.0] <= 1.0 + 1e-12


def test_lyapunov_drift_at_origin(generator_256):
    # Lambda^* m at the node nearest 0 is the pure jump action (E(0) = 0)
    g = generator_256.grid
    m = weight_field(g, 0.5).values
    z = generator_256.mat.T @ m
    i0 = np.argmin(np.abs(g.axis))
    assert np.isfinite(z[i0])
    assert z[i0] > 0.0  # the weight is subharmonic at its minimum


def test_harris_contraction_identity(generator_256):
    # P_0 = e^{0 Lambda^*} is the identity, here on the one sector of no
    # symmetry, the full matrix
    g = generator_256.grid
    ident = GeneratorMatrix(grid=g, cfg=generator_256.cfg, axes=(), maps=orbit_maps(g, ()))
    assert harris_contraction(ident, 0.0, 0.5, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_harris_rank_one_averaging():
    # P phi = mean(phi): outputs are constant, seminorm zero
    g = build_grid(1, 10.0, 64)
    m_lam = 1.0 + 0.4 * g.bracket() ** 0.5
    for phi in harris_bank(g, 0.5, 0.4, count=6):
        avg = np.full_like(phi, phi.mean())
        assert harris_seminorm(avg, m_lam) == 0.0


def test_harris_contraction_below_one(generator_256):
    ly = lyapunov_check(generator_256, [1.0], 0.5)
    gb = harris_contraction(generator_256, 1.0, 0.5, 1.0 / ly["c"])
    assert gb < 1.0


def test_harris_subadditivity(generator_256):
    ly = lyapunov_check(generator_256, [1.0], 0.5)
    lam_w = 1.0 / ly["c"]
    gb1 = harris_contraction(generator_256, 1.0, 0.5, lam_w)
    gb05 = harris_contraction(generator_256, 0.5, 0.5, lam_w)
    assert -np.log(gb1) >= -2.0 * np.log(gb05) - 0.05


def pairwise_seminorm(phi, m_lam):
    """The N x N reference: sup over pairs of |phi_x - phi_y| / (m_x + m_y)."""
    return float(np.max(np.abs(phi[:, None] - phi[None, :]) / (m_lam[:, None] + m_lam[None, :])))


def test_seminorm_shift_identity(generator_256):
    # the seminorm is the distance of phi to the constants in the
    # m_lam^{-1}-weighted sup norm; the constant c = max(phi - s m_lam) attains it
    g = generator_256.grid
    m_lam = 1.0 + 0.4 * g.bracket() ** 0.5
    for phi in harris_bank(g, 0.5, 0.4, count=10):
        for psi in (phi, semigroup_apply(generator_256, 0.5, phi)):
            s = harris_seminorm(psi, m_lam)
            assert s == pairwise_seminorm(psi, m_lam)
            c = np.max(psi - s * m_lam)
            assert np.max(np.abs(psi - c) / m_lam) == pytest.approx(s, rel=1e-12)


def test_seminorm_matches_the_pairwise_formula():
    rng = np.random.default_rng(5)
    for case in range(300):
        n = int(rng.integers(2, 120))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        phi = scale * rng.standard_normal(n)
        if case % 3 == 0:
            phi = scale * np.round(4.0 * phi / scale) / 4.0  # ties
        if case % 10 == 0:
            phi = np.full(n, scale)  # constant: seminorm 0
        m_lam = 10.0 ** rng.uniform(-3.0, 3.0, n) if case % 2 else 1.0 + rng.random(n)
        s, ref = harris_seminorm(phi, m_lam), pairwise_seminorm(phi, m_lam)
        assert abs(s - ref) <= np.spacing(ref)
        if case % 10 == 0:
            assert s == 0.0


def test_one_semigroup_per_generator(generator_256):
    for key in generator_256.sectors:
        pt = semigroup(generator_256, 1.0, key)
        assert semigroup(generator_256, 1.0, key) is pt
        assert not pt.flags.writeable


def test_semigroup_does_not_outlive_its_generator():
    g = build_grid(1, 10.0, 32)
    gm = assemble_generator_matrix(g, OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature"))
    harris_contraction(gm, 0.5, 0.5, 0.4)
    alive = weakref.ref(gm)
    del gm
    gc.collect()
    assert alive() is None


def _shifted_y(p):
    # mirror-symmetric in x only
    return np.stack([p[..., 0], p[..., 1] - 0.5], axis=-1)


# name -> (d, n, force); L = 10, alpha = 1, gamma = 2, quadrature jump
SEMIGROUP_CASES = {
    "1d": (1, 128, None),
    "2d": (2, 16, None),
    "2d-x-symmetric": (2, 16, ForceField(2.0, _shifted_y)),
}


def full_lyapunov_and_harris(gm, pt, k, t):
    """lyapunov_check's (a, b, c, gamma_t) and harris_contraction on the full
    matrix gm.mat and the full semigroup pt = expm(t gm.mat.T)."""
    grid = gm.grid
    m = weight_field(grid, k).values.ravel()
    z = gm.mat.T @ m
    outer = (grid.radius2() >= (grid.L / 2.0) ** 2).ravel()
    a = 0.9 * float(np.min(-z[outer] / m[outer]))
    b = float(np.max(z + a * m))
    c = b / a
    gamma_t = float(np.max((pt @ m - c) / m))
    m_lam = (1.0 + grid.bracket() ** k / c).ravel()
    worst = 0.0
    for phi in harris_bank(grid, k, 1.0 / c):
        s0 = harris_seminorm(phi, m_lam)
        if s0 > 0.0:
            worst = max(worst, harris_seminorm(pt @ phi.ravel(), m_lam) / s0)
    return (a, b, c, gamma_t), worst


@pytest.mark.parametrize("name", sorted(SEMIGROUP_CASES))
def test_block_semigroup_matches_the_full_expm(name):
    d, n, force = SEMIGROUP_CASES[name]
    gm = assemble_generator_matrix(
        build_grid(d, 10.0, n), OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature", force=force))
    if name == "2d":  # the radial force: sectors of the square's symmetry group
        sizes = {int(size) for _, maps in gm.sectors.values() for size in maps[0].sizes}
        assert gm.swaps == ((0, 1),) and sizes == {4, 8}
    pt = expm(gm.mat.T)
    rng = np.random.default_rng(3)
    for _ in range(3):
        phi = rng.standard_normal(gm.grid.shape)
        ref = (pt @ phi.ravel()).reshape(phi.shape)
        assert np.abs(semigroup_apply(gm, 1.0, phi) - ref).max() <= 1e-12 * np.abs(ref).max()
    for key, (_, maps) in gm.sectors.items():
        # the sector on the part of phi in it, through each of its maps, is
        # P_t on that part
        for omap in maps:
            part = omap.project(phi)
            ref = omap.project(pt @ omap.lift(part).ravel())
            assert np.abs(semigroup(gm, 1.0, key) @ part - ref).max() <= 1e-12 * np.abs(ref).max()
    (a, b, c, gamma_1), harris = full_lyapunov_and_harris(gm, pt, 0.5, 1.0)
    ly = lyapunov_check(gm, [1.0], 0.5)
    assert [ly["a"], ly["b"], ly["c"], ly["gamma"][1.0]] == pytest.approx([a, b, c, gamma_1], rel=1e-12)
    assert harris_contraction(gm, 1.0, 0.5, 1.0 / ly["c"]) == pytest.approx(harris, rel=1e-12)


def test_harris_guard_size():
    g = build_grid(1, 20.0, 2048)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    gm = assemble_generator_matrix(g, cfg)
    with pytest.raises(ValueError):
        harris_contraction(gm, 1.0, 0.5, 0.4)


# ------------------------------------------------------------ ODE envelope


def test_ode_envelope_euler_equality_run():
    dt, T = 1e-4, 10.0
    x, t = 100.0, 0.0
    ts, xs = [], []
    for i in range(int(T / dt)):
        x = x + dt * (x - x**2)  # A = B = C = 1, b = 0 equality dynamics
        t += dt
        if i % 50 == 0 and t >= 0.01:
            ts.append(t)
            xs.append(x)
    assert ode_envelope_check(ts, xs, 1.0, 1.0, 1.0, 0.0)


def test_ode_envelope_trivial_and_violation():
    assert ode_envelope_check([1.0, 2.0], [0.0, 0.0], 1.0, 1.0, 1.0, 0.0)
    env_at_1 = (1.0 - 0.0) + 1.0  # A=B=C=1, b=0: envelope(1) = 2
    assert not ode_envelope_check([1.0], [2.0 * env_at_1], 1.0, 1.0, 1.0, 0.0)


# ------------------------------------------------------------ exponential regime


def test_exponential_convergence_rate_positive():
    from fracfp.steady import steady_by_evolution

    g = build_grid(1, 20.0, 512)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    # reference equilibrium from the same scheme family, so the measured
    # distance decays to roundoff instead of a cross-route floor
    F = steady_by_evolution(g, cfg, tol=1e-7).field
    vals = np.exp(-g.radius2())
    f0 = Field(g, vals / (np.sum(vals) * g.h))
    times = np.linspace(1.0, 10.0, 19)
    tr = evolve(f0, 10.0, cfg, output_times=times)
    diffs = [
        float(np.sum(np.abs(s.values - F.values) * g.bracket() ** 0.5) * g.h)
        for s in tr.snapshots
    ]
    # window past the non-modal transient and above the reference floor
    rep = decay_fit(np.array(tr.times), np.array(diffs), window=(2.0, 9.0))
    assert rep.fitted > 0.0
    assert rep.r2 > 0.99


@pytest.mark.parametrize("d, L, n", [(1, 10.0, 512), (2, 10.0, 32)])
def test_expm_is_scipy_linalg_expm_bit_for_bit(d, L, n):
    # operators.expm calls scipy's compiled Pade kernels as scipy.linalg.expm
    # calls them: on the adjoint sectors of the checks-1d and dense-2d
    # generators, at the time the CLI samples and at t = 0 (a diagonal
    # matrix, scipy's other branch), the same bits
    gm = assemble_generator_matrix(build_grid(d, L, n),
                                   OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature"))
    for key in gm.sectors:
        for t in (1.0, 0.0):
            a = _adjoint(gm, key) * t
            assert np.array_equal(operators.expm(a), scipy.linalg.expm(a))
    with pytest.raises(ValueError, match="triangular"):
        operators.expm(np.triu(np.ones((3, 3))))
