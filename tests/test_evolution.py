import numpy as np
import pytest

import drift_reference as ref
import fold_reference
import fracfp.evolution
from fracfp.grid import CheckFailure, Field, build_grid
from fracfp.operators import (
    ForceField,
    OperatorConfig,
    _jump_matrix,
    drift_step_matrix,
    fourier_multiply,
    make_force,
    orbit_maps,
    quadrature_symbol,
)
from fracfp.evolution import (
    SchemeConfig,
    _Stepper,
    _diffusion_multiplier,
    _implicit_factor,
    auto_dt,
    evolve,
    step_count,
    step_size,
)
from paper_checks import duhamel_residual, radial_cutoff, viscosity_generator_apply
from sparse_reference import to_scipy


def normalized_gaussian(grid, s2=1.0):
    vals = np.exp(-grid.radius2() / s2)
    return Field(grid, vals / (np.sum(vals) * grid.cell_volume))


def test_step_zero_field():
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    out = evolve(Field(g, np.zeros(64)), auto_dt(g, cfg), cfg).snapshots[-1]
    assert np.all(out.values == 0.0)


def test_diffusion_substep_multiplier_exact():
    # E = 0: one step multiplies a single Fourier mode by exp(sym * dt) and
    # keeps the constant mode, which carries the mass evolve checks
    g = build_grid(1, np.pi, 64)
    zero_force = ForceField(2.0, func=lambda x: 0.0 * x)
    cfg = OperatorConfig(alpha=1.0, method="spectral", force=zero_force)
    mode = np.cos(g.axis)
    out = evolve(Field(g, 1.0 + mode), 0.05, cfg, SchemeConfig(dt=0.05)).snapshots[-1]
    assert np.max(np.abs(out.values - (1.0 + np.exp(-0.05) * mode))) < 1e-14


def test_step_cfl_violation_raises():
    g = build_grid(1, 20.0, 128)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    limit = auto_dt(g, cfg)
    with pytest.raises(ValueError, match="CFL"):
        evolve(normalized_gaussian(g), 2.0 * limit, cfg, SchemeConfig(dt=2.0 * limit))


def test_cauchy_near_stationarity_one_step():
    g = build_grid(1, 40.0, 2048)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    f = Field(g, 1.0 / (np.pi * (1.0 + g.axis**2)))
    dt = auto_dt(g, cfg)
    out = evolve(f, dt, cfg).snapshots[-1]
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
    jump = _jump_matrix(g, alpha, orbit_maps(g, ())[(), 1][0])
    dense = np.linalg.solve(np.eye(g.size) - dt * jump, v.ravel())
    assert np.max(np.abs(fft - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert quadrature_symbol(g, alpha).flat[0] == 0.0


def two_stage_drift(f, cfg, tau):
    """The drift substep written out on Fields: Heun over the by-action upwind
    divergence, the Lax-Wendroff flux E_face [f_face + tau/(2h) d(E f)] for centered."""
    from fracfp.operators import _face_velocities

    if cfg.drift == "upwind":
        r1 = ref.drift_apply(f, cfg).values
        r2 = ref.drift_apply(f.with_values(f.values + tau * r1), cfg).values
        return f.values + 0.5 * tau * (r1 + r2)
    g, v = f.grid, f.values
    faces = _face_velocities(g, cfg.force_field())
    e_node = cfg.force_field().components(g.coords())
    div = np.zeros_like(v)
    for a in range(g.d):
        ef = e_node[a] * v
        avg = 0.5 * (np.delete(v, 0, axis=a) + np.delete(v, -1, axis=a))
        dif = np.diff(ef, axis=a)
        flux = faces[a] * (avg + tau / (2.0 * g.h) * dif)
        pad = [(0, 0)] * g.d
        pad[a] = (1, 1)
        div += np.diff(np.pad(flux, pad), axis=a) / g.h
    return v + tau * div


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("drift", ["upwind", "centered"])
def test_drift_substep_matrix_is_two_stage_formula(d, n, drift):
    g = build_grid(d, 8.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.5, drift=drift)
    st = _Stepper(g, cfg, SchemeConfig())
    tau = 0.5 * st.dt  # half a step on each side of the jump substep
    rng = np.random.default_rng(21)
    f = Field(g, np.exp(-g.radius2() / 4.0) * (1.0 + 0.5 * rng.random(g.shape)))
    ref = two_stage_drift(f, cfg, tau)
    assert np.max(np.abs(st._drift(f.values) - ref)) <= 1e-14 * np.max(np.abs(ref))
    # column-stochastic: every substep conserves mass
    assert np.max(np.abs(to_scipy(st.drift).sum(axis=0) - 1.0)) <= 1e-14
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


def test_a_horizon_below_a_step_makes_one_step():
    # T / dt - 1e-9 rounds up to 0 below T = 1e-9 dt: a positive horizon
    # still makes one step
    g = build_grid(1, 10.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    dt = auto_dt(g, cfg)
    assert step_count(1e-12, dt) == step_count(dt, dt) == 1
    tr = evolve(normalized_gaussian(g), 1e-12, cfg)
    assert tr.meta["nsteps"] == 1 and len(tr.mass) == 2
    one = evolve(normalized_gaussian(g), dt, cfg)
    assert np.array_equal(tr.snapshots[-1].values, one.snapshots[-1].values)


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


def test_entropy_reference_must_be_positive():
    # the entropy monitor divides by the reference: one zero node is an input error
    g = build_grid(1, 15.0, 256)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="spectral")
    ref = normalized_gaussian(g, s2=4.0).values.copy()
    ref[0] = 0.0
    with pytest.raises(ValueError, match="entropy reference must be strictly positive"):
        evolve(normalized_gaussian(g), 0.5, cfg, reference=Field(g, ref))


# ------------------------------------------------------------- viscosity


def test_viscosity_truncated_kernel_annihilates_constants():
    from paper_checks import box_stencil, windowed_kernel

    g = build_grid(1, 10.0, 128)
    st = box_stencil(g, windowed_kernel(1.0, 1, 0.2))
    # the in-box pair sum of 1 is deg_in, so only the exterior mass is left
    out = st.apply(np.ones(128))
    assert np.max(np.abs(out + st.ext_mass)) < 1e-13


def test_viscosity_consistency_monotone_in_eps():
    g = build_grid(1, 20.0, 512)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, method="quadrature")
    f = Field(g, np.exp(-g.axis**2))
    from paper_checks import quadrature_fraclap

    lam = quadrature_fraclap(f, cfg).values + ref.drift_divergence(f, make_force(2.0)).values
    errs = []
    for eps in (0.2, 0.1, 0.05):
        lam_eps = viscosity_generator_apply(f, eps, cfg)
        errs.append(np.max(np.abs(lam_eps.values - lam)))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("d,n", [(1, 128), (2, 16)])
def test_viscosity_generator_is_by_action_formula(d, n):
    # the upwind drift of the cut-off density plus eps times the 3/5-point
    # Laplacian, written out on Fields; centered cfg.drift leaves it upwind
    from paper_checks import box_stencil, windowed_kernel

    g = build_grid(d, 10.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.5, method="quadrature", drift="centered")
    f = Field(g, np.exp(-g.radius2() / 4.0))
    eps = 0.2
    jump = box_stencil(g, windowed_kernel(cfg.alpha, d, eps)).apply(f.values)
    cut = f.with_values(f.values * radial_cutoff(g, eps).values)
    want = (jump + ref.drift_divergence(cut, cfg.force_field()).values
            + eps * ref.discrete_laplacian(f).values)
    got = viscosity_generator_apply(f, eps, cfg).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_viscosity_cutoff_force_sign():
    # E . grad(chi_eps) <= 0 nodewise: confining force against a radially
    # decreasing cutoff
    g = build_grid(1, 30.0, 512)
    eps = 0.1
    chi = radial_cutoff(g, eps).values
    e = make_force(2.0).components((g.axis,))[0]
    grad_chi = np.gradient(chi, g.h)
    assert np.max(e * grad_chi) <= 1e-12


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
        with pytest.raises(CheckFailure, match="^non-finite-values: .* at step 1 ") as info:
            evolve(f0, 0.5, OperatorConfig(alpha=1.0, gamma=2.0))
    exc = info.value
    assert exc.check == "non-finite-values" and exc.step == 1 and exc.tolerance == np.inf
    assert not np.isfinite(exc.measured)


def test_evolve_raises_on_mass_drift(monkeypatch):
    from fracfp.evolution import MASS_DRIFT_TOL, _Stepper

    advance = _Stepper.advance
    monkeypatch.setattr(_Stepper, "advance", lambda self, v: advance(self, v) * (1.0 + 1e-5))
    assert 1e-5 > MASS_DRIFT_TOL
    g = build_grid(1, 10.0, 128)
    with pytest.raises(CheckFailure, match="^mass-drift: measured 1e-05, tolerance 1e-06 at step 1 ") as info:
        evolve(normalized_gaussian(g), 0.5, OperatorConfig(alpha=1.0, gamma=2.0))
    exc = info.value
    assert exc.check == "mass-drift" and exc.tolerance == MASS_DRIFT_TOL and exc.step == 1
    assert exc.measured == pytest.approx(1e-5, rel=1e-6)


def test_evolve_carries_a_zero_mean_field():
    # one Fourier mode has roundoff mass; its drift is measured against its
    # L1 norm, so the run goes on and the mass stays at roundoff
    g = build_grid(1, np.pi, 64)
    f0 = Field(g, np.cos(g.axis))
    l1 = np.sum(np.abs(f0.values)) * g.h
    assert abs(np.sum(f0.values) * g.h) < 1e-15 and l1 == pytest.approx(4.0, rel=1e-3)
    tr = evolve(f0, 0.5, OperatorConfig(alpha=1.0, gamma=2.0))
    assert tr.monitor_t[-1] >= 0.5
    assert np.max(np.abs(tr.mass - tr.mass[0])) <= 1e-6 * l1


# ------------------------------------------------------- replayed lanes


def _steady_path(d, drift, solver):
    from fracfp.steady import steady_by_evolution

    g = build_grid(d, 8.0, 64 if d == 1 else 16)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, drift=drift)
    scheme = SchemeConfig(diffusion_solver=solver)
    ss = steady_by_evolution(g, cfg, scheme, tol=1e-3, f0=normalized_gaussian(g))
    return g, cfg, scheme, ss


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("drift", ["upwind", "centered"])
@pytest.mark.parametrize("solver", ["exact-spectral", "implicit-matrix"])
def test_evolve_on_a_path_is_the_single_lane_run(d, drift, solver, monkeypatch):
    g, cfg, scheme, ss = _steady_path(d, drift, solver)
    f0 = normalized_gaussian(g)
    ref = normalized_gaussian(g, s2=16.0)
    assert len(ss.path) >= 4 and not ss.path.flags.writeable
    advance, calls = _Stepper.advance, []
    monkeypatch.setattr(_Stepper, "advance", lambda self, v: calls.append(len(v)) or advance(self, v))
    # shorter than the path (a partial last lane) and longer (the last lane
    # runs on alone past the end of the path)
    for T in (2.5, len(ss.path) + 1.7):
        times = np.linspace(0.0, T, 7)
        one = evolve(f0, T, cfg, scheme, output_times=times, reference=ref)
        calls.clear()
        lanes = evolve(f0, T, cfg, scheme, output_times=times, reference=ref, path=ss.path)
        # one stacked step per step of a chunk: the lanes share every advance
        assert sum(calls) == one.meta["nsteps"] and max(calls) == min(len(ss.path), int(T) + 1)
        assert one.meta["advances"] == one.meta["nsteps"] and one.meta["lanes"] == 1
        assert lanes.meta["advances"] == len(calls) and lanes.meta["lanes"] == max(calls)
        for a, b in zip(one.monitor_columns().T, lanes.monitor_columns().T):
            assert np.array_equal(a, b)
        assert np.array_equal(one.times, lanes.times)
        assert len(one.snapshots) == len(lanes.snapshots)
        for a, b in zip(one.snapshots, lanes.snapshots):
            assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("solver", ["exact-spectral", "implicit-matrix"])
def test_trajectory_path_holds_the_chunk_starts(d, solver):
    # the states at steps j * chunk, j = 0 .. nsteps // chunk: those of a
    # single-lane run, read-only, and the same from a run on lanes
    g, cfg, scheme, ss = _steady_path(d, "upwind", solver)
    f0 = normalized_gaussian(g)
    for T in (0.5, 2.5, len(ss.path) + 1.7):
        one = evolve(f0, T, cfg, scheme)
        dt, nsteps = one.meta["dt"], one.meta["nsteps"]
        chunk = step_count(1.0, dt)
        assert len(one.path) == nsteps // chunk + 1 and not one.path.flags.writeable
        marks = evolve(f0, T, cfg, scheme, output_times=np.arange(len(one.path)) * chunk * dt)
        snaps = {round(t / dt): snap.values for t, snap in zip(marks.times, marks.snapshots)}
        for j, state in enumerate(one.path):
            assert np.array_equal(state, snaps[j * chunk])
        lanes = evolve(f0, T, cfg, scheme, path=ss.path)
        assert np.array_equal(lanes.path, one.path)


def test_evolve_rejects_a_foreign_path():
    g, cfg, scheme, ss = _steady_path(1, "upwind", "exact-spectral")
    f0 = normalized_gaussian(g)
    with pytest.raises(ValueError, match=r"path\[0\] is not f0"):
        evolve(normalized_gaussian(g, s2=2.0), 3.0, cfg, scheme, path=ss.path)
    for state in (0, 2):
        bent = ss.path.copy()
        bent[state, 20] = np.nextafter(bent[state, 20], np.inf)  # one ulp
        with pytest.raises(ValueError, match="path"):
            evolve(f0, 3.0, cfg, scheme, path=bent)
    # a path made with another scheme does not replay
    other = SchemeConfig(diffusion_solver="implicit-matrix")
    with pytest.raises(ValueError, match="does not end on path state 1"):
        evolve(f0, 3.0, cfg, other, path=ss.path)


def _spoil(kind):
    def apply(lane):
        if kind == "mass":
            lane *= 1.0 + 1e-5
        elif kind == "pair":
            lane[3], lane[9] = np.inf, -np.inf
        else:
            lane[5] = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan}[kind]
    return apply


@pytest.mark.parametrize("kind", ["mass", "inf", "-inf", "nan", "pair"])
def test_replayed_lane_failure_reports_the_earliest_step(kind, monkeypatch):
    g, cfg, scheme, ss = _steady_path(1, "upwind", "exact-spectral")
    chunk = _Stepper(g, cfg, scheme)
    chunk = int(np.ceil(1.0 / chunk.dt - 1e-9))
    # lane 3 fails first in loop order, lanes 1 and 2 together later, and
    # lane 1 first in time
    spoil = {(2, 3): _spoil(kind), (5, 1): _spoil(kind), (5, 2): _spoil(kind)}
    advance, calls = _Stepper.advance, [0]

    def spoiled(self, v):
        out = advance(self, v)
        calls[0] += 1
        for (i, lane), apply in spoil.items():
            if i == calls[0] and lane < len(out):
                apply(out[lane])
        return out

    monkeypatch.setattr(_Stepper, "advance", spoiled)
    f0 = normalized_gaussian(g)
    with pytest.raises(CheckFailure) as info:
        evolve(f0, len(ss.path) - 0.5, cfg, scheme, path=ss.path)
    exc = info.value
    assert exc.step == chunk + 5
    assert exc.t == exc.step * exc.dt
    if kind == "mass":
        assert exc.check == "mass-drift" and exc.tolerance == 1e-6
        assert exc.measured == pytest.approx(1e-5, rel=1e-6)
    else:
        assert exc.check == "non-finite-values" and not np.isfinite(exc.measured)
    assert str(exc) == (f"{exc.check}: measured {exc.measured:g}, tolerance {exc.tolerance:g}"
                        f" at step {chunk + 5} (t={exc.t:g})")


# ------------------------------------------------- reflection fold, blocks


@pytest.fixture
def folds(monkeypatch):
    """The axes that each evolve call folds, in call order."""
    seen, fold = [], _Stepper.fold
    monkeypatch.setattr(_Stepper, "fold", lambda self, axes: seen.append(axes) or fold(self, axes))
    return seen


def full_grid_run(f0, nsteps, cfg, scheme):
    """nsteps Strang steps on the whole grid, one field, with numpy's FFTs:
    the stepper as it was before the fold."""
    g = f0.grid
    dt = step_size(g, cfg, scheme)
    drift = drift_step_matrix(g, cfg.force_field(), cfg.drift, 0.5 * dt).lane_product()
    mult = (_diffusion_multiplier if scheme.diffusion_solver == "exact-spectral"
            else _implicit_factor)(g, cfg.alpha, dt)
    v = f0.values
    for _ in range(nsteps):
        spec = np.fft.rfft(drift(v))
        for a in range(g.d - 1):
            spec = np.fft.fft(spec, axis=a)
        spec *= mult
        for a in range(g.d - 1):
            spec = np.fft.ifft(spec, axis=a)
        v = drift(np.fft.irfft(spec, g.n))
    return dt, v


def gaussian_at(g, center):
    vals = np.exp(-sum((c - x) ** 2 for c, x in zip(g.coords(), center)))
    return Field(g, vals / (np.sum(vals) * g.cell_volume))


def _shifted(axis):
    """The linear force E = x shifted by 0.5 along axis: mirror-symmetric in
    the other axis only."""
    def force(p):
        q = p.copy()
        q[..., axis] -= 0.5
        return q
    return ForceField(2.0, force)


# non-dyadic box half-widths: h is not a binary fraction
@pytest.mark.parametrize("d, L, n", [(1, 7.3, 64), (2, 3.3, 16)])
@pytest.mark.parametrize("drift", ["upwind", "centered"])
@pytest.mark.parametrize("solver", ["exact-spectral", "implicit-matrix"])
def test_fold_matches_the_full_grid_stepper(d, L, n, drift, solver, folds):
    g = build_grid(d, L, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.5, drift=drift)
    scheme = SchemeConfig(diffusion_solver=solver)
    f0 = normalized_gaussian(g)
    dt, want = full_grid_run(f0, 500, cfg, scheme)
    tr = evolve(f0, 500 * dt, cfg, scheme)
    assert tr.meta["nsteps"] == 500 and folds == [tuple(range(d))]
    got = tr.snapshots[-1].values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # an unfolded snapshot is even bit for bit
    for a in range(d):
        assert np.array_equal(got, np.flip(got, a))


# the grids of the benchmark workloads (perfbench/run.py WORKLOADS)
@pytest.mark.parametrize("d, L, n", [(1, 20.0, 2048), (2, 10.0, 32), (1, 10.0, 512)])
@pytest.mark.parametrize("drift", ["upwind", "centered"])
def test_folded_drift_is_the_half_grid_fold_bit_for_bit(d, L, n, drift):
    # the drift substep folded onto the even orbit map is the axis-by-axis
    # half-grid fold of the matrix, entry for entry and in the same order;
    # the substep applies it, whole or folded, to one field or to each lane
    # of a stack bit for bit as the sparse product does
    g = build_grid(d, L, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, drift=drift)
    st = _Stepper(g, cfg, SchemeConfig())
    assert st.axes == tuple(range(d))
    whole = drift_step_matrix(g, cfg.force_field(), drift, 0.5 * st.dt)
    want = fold_reference.fold_sparse(g, to_scipy(whole), st.axes)
    rng = np.random.default_rng(3)

    def substep_is_the_product(mat):
        for shape in ((), (1,), (3,)):
            v = rng.standard_normal(shape + g.half_shape(st.even))
            got = st._drift(v)
            assert got.shape == v.shape
            for lane, out in zip(v.reshape(-1, mat.shape[1]), got.reshape(-1, mat.shape[0])):
                assert np.array_equal(out, mat @ lane)

    substep_is_the_product(to_scipy(whole))
    st.fold(st.axes)
    substep_is_the_product(want)
    for got, ref_arr in ((st.drift.data, want.data), (st.drift.indices, want.indices),
                         (st.drift.indptr, want.indptr)):
        assert got.dtype == ref_arr.dtype and np.array_equal(got, ref_arr)


@pytest.mark.parametrize("shift, even", [(1, (0,)), (0, (1,))])
def test_one_symmetric_axis_folds_that_axis_only(shift, even, folds):
    # folded x: the DCT on axis 0, the rfft on axis 1; folded y: the DCT on
    # the last axis, a complex fft on axis 0
    g = build_grid(2, 10.0, 16)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0, force=_shifted(shift))
    f0 = normalized_gaussian(g)
    dt, want = full_grid_run(f0, 500, cfg, SchemeConfig())
    got = evolve(f0, 500 * dt, cfg).snapshots[-1].values
    assert folds == [even]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("solver", ["exact-spectral", "implicit-matrix"])
def test_shifted_gaussian_folds_nothing(d, n, solver, folds):
    # even in no axis: the run is the full-grid stepper's, bit for bit
    g = build_grid(d, 10.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    scheme = SchemeConfig(diffusion_solver=solver)
    f0 = gaussian_at(g, (0.7, -0.3)[:d])
    dt, want = full_grid_run(f0, 200, cfg, scheme)
    tr = evolve(f0, 200 * dt, cfg, scheme)
    assert folds == [()]
    assert np.array_equal(tr.snapshots[-1].values, want)


def per_step_monitors(tr, weight, reference, even):
    """Monitor rows mass, min, L1m, L2m, Linfm, entropy, reduced one step at a
    time from the snapshot of every step, over the first half along the
    folded axes (each of its nodes counts 2^s times)."""
    g = tr.grid
    half = g.half(even)
    vol = g.cell_volume * 2 ** len(even)
    w, ref_inv = weight[half], 1.0 / reference.values[half]
    rows = []
    for s in tr.snapshots:
        f = s.values[half]
        fw = f * w
        rows.append([np.sum(f) * vol, np.min(f), np.sum(np.abs(fw)) * vol,
                     np.sqrt(np.sum(np.square(fw)) * vol), np.max(np.abs(fw)),
                     np.sum(np.square(f) * ref_inv) * vol])
    return np.array(rows)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("center", [0.0, 0.4])  # folded, or even in no axis
@pytest.mark.parametrize("lanes", ["single", "path"])
def test_block_monitors_are_the_per_step_reductions(d, n, center, lanes, folds, monkeypatch):
    from fracfp.grid import weight_field
    from fracfp.steady import steady_by_evolution

    g = build_grid(d, 8.0, n)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    f0 = gaussian_at(g, (center,) * d)
    reference = normalized_gaussian(g, s2=16.0)
    path = steady_by_evolution(g, cfg, tol=1e-3, f0=f0).path if lanes == "path" else None
    T = 2.3 if path is None else len(path) - 0.5
    even = tuple(range(d)) if center == 0.0 else ()
    dt = auto_dt(g, cfg)
    nsteps, chunk = int(np.ceil(T / dt - 1e-9)), int(np.ceil(1.0 / dt - 1e-9))
    # K steps per block, dividing neither: blocks also end at chunk ends and
    # at the last step
    K = next(k for k in (3, 4, 5, 7) if nsteps % k and chunk % k)
    width = (1 if path is None else len(path)) * g.size // 2 ** len(even)
    monkeypatch.setattr(fracfp.evolution, "MONITOR_BLOCK_BYTES", 8 * K * width)
    tr = evolve(f0, T, cfg, output_times=np.arange(nsteps + 1) * dt, reference=reference,
                path=path)
    assert folds[-1] == even and len(tr.snapshots) == nsteps + 1
    want = per_step_monitors(tr, weight_field(g, 0.5).values, reference, even)
    got = tr.monitor_columns()[:, 1:]
    assert np.array_equal(got, want)


def test_an_uneven_reference_stops_the_fold(folds):
    # an even f0 with an entropy reference that is even in no axis
    from fracfp.grid import weight_field

    g = build_grid(1, 8.0, 64)
    cfg = OperatorConfig(alpha=1.0, gamma=2.0)
    reference = gaussian_at(g, (0.5,))
    dt = auto_dt(g, cfg)
    tr = evolve(normalized_gaussian(g), 1.0, cfg, output_times=np.arange(40) * dt,
                reference=reference)
    assert folds == [()]
    want = per_step_monitors(tr, weight_field(g, 0.5).values, reference, ())
    assert np.array_equal(tr.monitor_columns()[: len(want), 1:], want)


@pytest.mark.parametrize("kind", ["mass", "nan"])
def test_block_failure_is_raised_at_its_step(kind, folds, monkeypatch):
    # K = 4 steps per block on the 32-node half: the step spoiled, K + 3, is
    # in the middle of the second block
    monkeypatch.setattr(fracfp.evolution, "MONITOR_BLOCK_BYTES", 8 * 4 * 32)
    advance, calls = _Stepper.advance, [0]

    def spoiled(self, v):
        out = advance(self, v)
        calls[0] += 1
        if calls[0] >= 7:  # the failure persists in the later steps of the block
            _spoil(kind)(out[0])
        return out

    monkeypatch.setattr(_Stepper, "advance", spoiled)
    g = build_grid(1, 8.0, 64)
    with pytest.raises(CheckFailure) as info:
        evolve(normalized_gaussian(g), 1.0, OperatorConfig(alpha=1.0, gamma=2.0))
    exc = info.value
    assert folds == [(0,)] and exc.step == 7
    assert exc.check == ("mass-drift" if kind == "mass" else "non-finite-values")
