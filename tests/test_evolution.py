import numpy as np
import pytest

from fracfp.grid import Field, build_grid
from fracfp.operators import (
    ForceField,
    OperatorConfig,
    _jump_matrix,
    fourier_multiply,
    make_force,
    quadrature_symbol,
)
from fracfp.evolution import (
    SchemeConfig,
    _Stepper,
    _implicit_factor,
    auto_dt,
    duhamel_residual,
    evolve,
    radial_cutoff,
    step,
    viscosity_generator_apply,
    viscosity_step,
)


def normalized_gaussian(grid, s2=1.0):
    vals = np.exp(-grid.radius2() / s2)
    return Field(grid, vals / (np.sum(vals) * grid.cell_volume), tag="density")


def test_step_zero_field():
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    out = step(Field(g, np.zeros(64)), cfg, SchemeConfig())
    assert np.all(out.values == 0.0)


def test_diffusion_substep_multiplier_exact():
    # E = 0: one step multiplies a single Fourier mode by exp(sym * dt)
    g = build_grid(1, np.pi, 64)
    zero_force = ForceField(2.0, func=lambda x: 0.0 * x)
    cfg = OperatorConfig(alpha=1.0, method="spectral", force=zero_force)
    mode = Field(g, np.cos(g.axis))
    out = step(mode, cfg, SchemeConfig(dt=0.05))
    assert np.max(np.abs(out.values - np.exp(-0.05) * mode.values)) < 1e-14


def test_step_cfl_violation_raises():
    g = build_grid(1, 20.0, 128)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    limit = auto_dt(g, cfg, SchemeConfig())
    with pytest.raises(ValueError, match="CFL"):
        step(normalized_gaussian(g), cfg, SchemeConfig(dt=2.0 * limit))


def test_cauchy_near_stationarity_one_step():
    g = build_grid(1, 40.0, 2048)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    f = Field(g, 1.0 / (np.pi * (1.0 + g.axis**2)))
    sch = SchemeConfig()
    out = step(f, cfg, sch)
    dt = auto_dt(g, cfg, sch)
    bulk = np.abs(g.axis) <= 36.0
    # one-step change tracks dt * (bulk generator residual), upwind-dominated
    assert np.max(np.abs(out.values - f.values)[bulk]) < 6.5e-3 * dt


def test_evolve_mass_conservation_and_positivity():
    for alpha, gamma in ((0.5, 2.5), (1.0, 1.5), (1.5, 2.5)):
        g = build_grid(1, 15.0, 256)
        cfg = OperatorConfig(alpha=alpha, gamma=gamma, method="spectral")
        f0 = normalized_gaussian(g)
        tr = evolve(f0, 2.0, cfg)
        assert np.max(np.abs(tr.mass / tr.mass[0] - 1.0)) < 1e-8
        assert tr.min_value.min() >= -1e-12 * np.max(f0.values)


def test_evolve_implicit_matrix_positivity():
    g = build_grid(1, 15.0, 256)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    f0 = normalized_gaussian(g, s2=0.25)
    tr = evolve(f0, 1.0, cfg, SchemeConfig(diffusion_solver="implicit-matrix"))
    assert tr.min_value.min() >= -1e-12 * np.max(f0.values)
    assert np.max(np.abs(tr.mass / tr.mass[0] - 1.0)) < 1e-10


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_implicit_factor_is_dense_backward_euler(d, n, alpha):
    # the quadrature jump matrix is a circulant, so backward Euler with it is
    # the FFT divide by 1 - dt*lambda_k
    g = build_grid(d, 8.0, n)
    dt = 0.1
    v = np.random.default_rng(7).standard_normal(g.shape)
    fft = fourier_multiply(v, _implicit_factor(g, alpha, dt)).ravel()
    dense = np.linalg.solve(np.eye(g.size) - dt * _jump_matrix(g, alpha), v.ravel())
    assert np.max(np.abs(fft - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert quadrature_symbol(g, alpha).flat[0] == 0.0


def two_stage_drift(f, cfg, tau):
    """The drift substep written out on Fields: Heun over drift_apply for
    upwind, the Lax-Wendroff flux E_face [f_face + tau/(2h) d(E f)] for centered."""
    from fracfp.operators import _face_velocities, drift_apply

    if cfg.drift == "upwind":
        r1 = drift_apply(f, cfg).values
        r2 = drift_apply(f.with_values(f.values + tau * r1), cfg).values
        return f.values + 0.5 * tau * (r1 + r2)
    g, v = f.grid, f.values
    faces = _face_velocities(g, cfg.force_field())
    e_node = cfg.force_field().components(g.coords())
    div = np.zeros_like(v)
    for a in range(g.d):
        ef = e_node[a] * v
        avg = 0.5 * (np.delete(v, 0, axis=a) + np.delete(v, -1, axis=a))
        dif = np.diff(ef, axis=a)
        flux = (faces[2 * a] + faces[2 * a + 1]) * (avg + tau / (2.0 * g.h) * dif)
        pad = [(0, 0)] * g.d
        pad[a] = (1, 1)
        div += np.diff(np.pad(flux, pad), axis=a) / g.h
    return v + tau * div


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("drift", ["upwind", "centered"])
@pytest.mark.parametrize("splitting", ["lie", "strang"])
def test_drift_substep_matrix_is_two_stage_formula(d, n, drift, splitting):
    g = build_grid(d, 8.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.5, drift=drift)
    scheme = SchemeConfig(splitting=splitting)
    st = _Stepper(g, cfg, scheme)
    tau = st.dt if splitting == "lie" else 0.5 * st.dt
    rng = np.random.default_rng(21)
    f = Field(g, np.exp(-g.radius2() / 4.0) * (1.0 + 0.5 * rng.random(g.shape)))
    ref = two_stage_drift(f, cfg, tau)
    assert np.max(np.abs(st._drift(f.values) - ref)) <= 1e-14 * np.max(np.abs(ref))
    # column-stochastic: every substep conserves mass
    assert np.max(np.abs(st.drift.sum(axis=0) - 1.0)) <= 1e-14
    if drift == "upwind":
        # Heun (I + P @ P)/2 with P = I + tau D >= 0 under the CFL bound
        assert st.drift.data.min() >= 0.0


def test_evolve_implicit_matrix_above_dense_ceiling():
    # n^d = 8192 > 4096: the implicit route needs no dense matrix
    g = build_grid(1, 20.0, 8192)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    f0 = normalized_gaussian(g)
    tr = evolve(f0, 0.02, cfg, SchemeConfig(diffusion_solver="implicit-matrix"))
    assert np.max(np.abs(tr.mass / tr.mass[0] - 1.0)) < 1e-12
    assert tr.min_value.min() >= -1e-12 * np.max(f0.values)


def test_evolve_near_delta_stays_nonnegative():
    g = build_grid(1, 20.0, 1024)
    x, h = g.axis, g.h
    hat = np.maximum(0.0, 1.0 - np.abs(x) / (2 * h))
    hat /= np.sum(hat) * h
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    tr = evolve(Field(g, hat), 0.2, cfg)
    assert tr.min_value.min() >= -1e-12 * hat.max()


def test_evolve_snapshots_at_nearest_step():
    g = build_grid(1, 10.0, 128)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    sch = SchemeConfig(dt=0.01)
    tr = evolve(normalized_gaussian(g), 0.5, cfg, sch, output_times=[0.0, 0.123, 0.5])
    assert len(tr.times) == 3
    assert tr.times[1] == pytest.approx(0.12, abs=1e-12)


def test_evolve_rejects_bad_horizon():
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0)
    with pytest.raises(ValueError):
        evolve(normalized_gaussian(g), -1.0, cfg)


def test_strang_splitting_order():
    g = build_grid(1, 20.0, 256)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    f0 = Field(g, np.exp(-g.axis**2))
    T, base = 0.4, 0.4 / 64
    ref = evolve(f0, T, cfg, SchemeConfig(dt=base / 16)).snapshots[-1].values
    errs = []
    for dt in (base, base / 2):
        out = evolve(f0, T, cfg, SchemeConfig(dt=dt)).snapshots[-1].values
        errs.append(np.max(np.abs(out - ref)))
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_entropy_monitor_recorded():
    g = build_grid(1, 15.0, 256)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    ref = normalized_gaussian(g, s2=4.0)
    tr = evolve(normalized_gaussian(g), 0.5, cfg, reference=ref)
    assert tr.entropy is not None
    assert np.all(np.isfinite(tr.entropy))


# ------------------------------------------------------------- viscosity


def test_viscosity_truncated_kernel_annihilates_constants():
    from fracfp.operators import get_stencil, windowed_kernel

    g = build_grid(1, 10.0, 128)
    st = get_stencil(g, windowed_kernel(1.0, 1, 0.2))
    out = st.apply(np.ones(128), "conservative")
    assert np.max(np.abs(out)) < 1e-13


def test_viscosity_consistency_monotone_in_eps():
    g = build_grid(1, 20.0, 512)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    f = Field(g, np.exp(-g.axis**2))
    from fracfp.operators import drift_divergence, quadrature_fraclap

    lam = quadrature_fraclap(f, cfg).values + drift_divergence(f, make_force(2.0)).values
    errs = []
    for eps in (0.2, 0.1, 0.05):
        lam_eps = viscosity_generator_apply(f, eps, cfg)
        errs.append(np.max(np.abs(lam_eps.values - lam)))
    assert errs[0] > errs[1] > errs[2]


def test_viscosity_cutoff_force_sign():
    # E . grad(chi_eps) <= 0 nodewise: confining force against a radially
    # decreasing cutoff
    g = build_grid(1, 30.0, 512)
    eps = 0.1
    chi = radial_cutoff(g, eps).values
    e = make_force(2.0)(g.axis)
    grad_chi = np.gradient(chi, g.h)
    assert np.max(e * grad_chi) <= 1e-12


def test_viscosity_step_runs():
    g = build_grid(1, 15.0, 128)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    f = Field(g, np.exp(-g.axis**2))
    out = viscosity_step(f, 0.2, cfg)
    assert np.all(np.isfinite(out.values))


# ------------------------------------------------------------- Duhamel


@pytest.mark.parametrize("splitting", ["kernel", "cutoff"])
def test_duhamel_residual_small(splitting):
    g = build_grid(1, 20.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    res = duhamel_residual(1.0, g, cfg, splitting=splitting, r=1.0, M=5.0, R=2.0)
    assert res < 1e-6


def test_duhamel_trivial_cases():
    g = build_grid(1, 20.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    assert duhamel_residual(1.0, g, cfg, splitting="none") < 1e-10  # A = 0: B = L
    assert duhamel_residual(0.0, g, cfg, splitting="kernel") == 0.0


def test_duhamel_guards():
    g = build_grid(2, 10.0, 128)
    cfg = OperatorConfig(alpha=1.0)
    with pytest.raises(ValueError):
        duhamel_residual(1.0, g, cfg)
    g1 = build_grid(1, 10.0, 64)
    with pytest.raises(ValueError):
        duhamel_residual(1.0, g1, cfg, n_quad=10)


# ------------------------------------------------------------- positivity


def test_positivity_propagation_weighted_floor():
    # f0 = <x>^-a with a above the critical decay: the solution keeps a
    # floor e^{-lambda t} <x>^-a for a fitted positive lambda
    g = build_grid(1, 20.0, 512)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    a = 2.5  # > d + alpha + gamma - 2 = 2
    br = g.bracket()
    f0 = Field(g, br**-a)
    times = [0.25, 0.5, 1.0, 1.5, 2.0]
    tr = evolve(f0, 2.0, cfg, output_times=times)
    lam = 0.0
    for t, s in zip(tr.times, tr.snapshots):
        if t == 0.0:
            continue
        ratio = float(np.min(s.values * br**a))
        assert ratio > 0.0
        lam = max(lam, -np.log(min(ratio, 1.0)) / t)
    assert np.isfinite(lam) and lam > 0.0
    for t, s in zip(tr.times, tr.snapshots):
        assert np.all(s.values >= np.exp(-lam * max(t, 0.25)) * br**-a * (1 - 1e-9))


def test_gain_of_positivity_from_indicator():
    # normalized indicator of B_2: f(t) >= psi(t) <x>^-a with psi > 0 on
    # [0.1, 2] and psi increasing near 0
    g = build_grid(1, 20.0, 512)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    a = 2.5
    ind = (np.abs(g.axis) <= 2.0).astype(float)
    f0 = Field(g, ind / (np.sum(ind) * g.h))
    tr = evolve(f0, 2.0, cfg, output_times=[0.1, 0.2, 0.5, 1.0, 2.0])
    psis = []
    for t, s in zip(tr.times, tr.snapshots):
        if t == 0.0:
            continue
        psis.append(float(np.min(s.values * g.bracket() ** a)))
    assert all(p > 0.0 for p in psis)
    assert psis[1] > psis[0]


def test_evolve_from_steady_state_stays():
    from fracfp.steady import steady_by_evolution

    g = build_grid(1, 15.0, 256)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    F = steady_by_evolution(g, cfg, tol=1e-7).field
    tr = evolve(F, 10.0, cfg)
    drift = float(np.sum(np.abs(tr.snapshots[-1].values - F.values)) * g.h)
    assert drift <= 1e-4


def test_evolve_raises_on_non_finite_step():
    # finite at t = 0 (so the Field accepts it), overflowing in the first step
    g = build_grid(1, 10.0, 128)
    f0 = Field(g, 1e308 * np.exp(-g.radius2()))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite values at step 1"):
            evolve(f0, 0.5, OperatorConfig(alpha=1.0, gamma=2.0))


def test_evolve_raises_on_mass_drift(monkeypatch):
    from fracfp.evolution import MASS_DRIFT_TOL, _Stepper

    advance = _Stepper.advance
    monkeypatch.setattr(_Stepper, "advance", lambda self, v: advance(self, v) * (1.0 + 1e-5))
    assert 1e-5 > MASS_DRIFT_TOL
    g = build_grid(1, 10.0, 128)
    with pytest.raises(FloatingPointError, match="mass drifted by 1.000e-05 at t="):
        evolve(normalized_gaussian(g), 0.5, OperatorConfig(alpha=1.0, gamma=2.0))
