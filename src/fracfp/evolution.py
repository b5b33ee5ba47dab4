"""Time integration of d/dt f = Lambda f by operator splitting.

The drift substep is an explicit conservative flux-form update (CFL-limited;
upwind Heun by default, Lax-Wendroff when the operator asks for centered
drift), precomposed into one sparse banded matrix (drift_step_matrix), so a
substep is one matvec.  For upwind that matrix is (I + P @ P)/2 with
P = I + tau*D >= 0 under the CFL bound: a column-stochastic matrix, so
positivity and mass survive the substep.  The jump substep is a Fourier
multiplier: the exact spectral exp(-(2 pi |xi|)^alpha dt) (unconditionally
stable, exactly mass preserving) or backward Euler with the periodized
quadrature circulant, an FFT divide by 1 - dt*lambda_k (lambda_k:
quadrature_symbol).  That M-matrix inverse is a column-stochastic kernel, so
positivity and mass hold to FFT roundoff at any grid size.  Strang ordering
is half-drift / full-jump / half-drift.

The step loop works on raw ndarrays: Field validation happens at the API
boundary (the initial field, snapshots, the result of ``step``), and inside
``evolve`` each step gets one non-finite check and one mass-drift check.

Also here: the viscosity-regularized generator (a validation mode with a
truncated kernel, a cut-off force and an added eps*Laplacian), and the
Duhamel identity check e^{tL} = e^{tB} + e^{tL} * A e^{tB} on dense matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import expm

from fracfp.grid import Field, Grid, smooth_indicator, weight_field
from fracfp.operators import (
    OperatorConfig,
    _jump_matrix,  # not called here: perfbench/spans.py LAYERS patches this binding
    _plain_conv_kernel,
    _readonly,
    assemble_generator_matrix,
    drift_divergence,
    drift_step_matrix,
    face_slices,
    far_kernel,
    get_stencil,
    max_drift_speed,
    offset_matrix,
    quadrature_symbol,
    spectral_symbol,
    windowed_kernel,
)

__all__ = [
    "SchemeConfig",
    "Trajectory",
    "auto_dt",
    "step",
    "evolve",
    "viscosity_step",
    "radial_cutoff",
    "duhamel_residual",
]

MASS_DRIFT_TOL = 1e-6
POSITIVITY_FLOOR = 1e-12  # times ||f0||_inf


@dataclass(frozen=True)
class SchemeConfig:
    """Splitting scheme parameters."""

    dt: float | None = None  # None: auto = cfl * h / max|E|
    splitting: str = "strang"  # {"lie", "strang"}
    diffusion_solver: str = "exact-spectral"  # or "implicit-matrix"
    cfl: float = 0.9
    monitor_weight: float = 0.5  # weight exponent k for the L^p(m) monitors
    entropy_p: float = 2.0

    def __post_init__(self):
        if self.splitting not in ("lie", "strang"):
            raise ValueError(f"unknown splitting {self.splitting!r}")
        if self.diffusion_solver not in ("exact-spectral", "implicit-matrix"):
            raise ValueError(f"unknown diffusion solver {self.diffusion_solver!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar monitors of one evolution run."""

    grid: Grid
    times: np.ndarray
    snapshots: list
    monitor_t: np.ndarray
    mass: np.ndarray
    min_value: np.ndarray
    l1m: np.ndarray
    l2m: np.ndarray
    linfm: np.ndarray
    entropy: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def monitor_columns(self):
        ent = (
            self.entropy
            if self.entropy is not None
            else np.full_like(self.monitor_t, np.nan)
        )
        return np.column_stack(
            [self.monitor_t, self.mass, self.min_value, self.l1m, self.l2m, self.linfm, ent]
        )


def auto_dt(grid: Grid, cfg: OperatorConfig, scheme: SchemeConfig) -> float:
    speed = max_drift_speed(grid, cfg.force_field())
    if speed == 0.0:
        return scheme.cfl * grid.h
    return scheme.cfl * grid.h / speed


@lru_cache(maxsize=32)
def _diffusion_multiplier(grid: Grid, alpha: float, dt: float) -> np.ndarray:
    return _readonly(np.exp(spectral_symbol(grid, alpha) * dt))


@lru_cache(maxsize=8)
def _implicit_factor(grid: Grid, alpha: float, dt: float) -> np.ndarray:
    """Backward-Euler multiplier 1/(1 - dt*lambda_k) of the quadrature circulant."""
    return _readonly(1.0 / (1.0 - dt * quadrature_symbol(grid, alpha)))


class _Stepper:
    """Per-run state of the split step, all on raw arrays: the multiplier and
    FFT pair of the jump substep, and the sparse matrix of the drift substep."""

    def __init__(self, grid: Grid, cfg: OperatorConfig, scheme: SchemeConfig):
        limit = auto_dt(grid, cfg, scheme)
        self.dt = scheme.dt if scheme.dt is not None else limit
        if self.dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"time step {self.dt:g} violates the drift CFL bound {limit:g}"
            )
        self.strang = scheme.splitting == "strang"
        tau = 0.5 * self.dt if self.strang else self.dt
        self.drift = drift_step_matrix(grid, cfg.force_field(), cfg.drift, tau)
        multiplier = (_diffusion_multiplier if scheme.diffusion_solver == "exact-spectral"
                      else _implicit_factor)
        self.mult = multiplier(grid, cfg.alpha, self.dt)
        # the 1d pair skips rfftn's argument handling, about 5% of a step
        self.rfft, self.irfft = (
            (np.fft.rfft, partial(np.fft.irfft, n=grid.n)) if grid.d == 1
            else (np.fft.rfft2, partial(np.fft.irfft2, s=grid.shape))
        )

    def _drift(self, values: np.ndarray) -> np.ndarray:
        return (self.drift @ values.ravel()).reshape(values.shape)

    def _diffuse(self, values: np.ndarray) -> np.ndarray:
        return self.irfft(self.mult * self.rfft(values))

    def advance(self, values: np.ndarray) -> np.ndarray:
        if self.strang:
            return self._drift(self._diffuse(self._drift(values)))
        return self._diffuse(self._drift(values))


def step(f: Field, cfg: OperatorConfig, scheme: SchemeConfig) -> Field:
    """One splitting step of size scheme.dt (or the CFL-automatic step)."""
    st = _Stepper(f.grid, cfg, scheme)
    out = st.advance(f.values)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("time step produced non-finite values")
    return f.with_values(out)


def evolve(
    f0: Field,
    T: float,
    cfg: OperatorConfig,
    scheme: SchemeConfig | None = None,
    output_times=None,
    reference: Field | None = None,
) -> Trajectory:
    """Integrate to horizon T, recording monitors each step.

    Snapshots are stored at the completed step nearest each requested output
    time (never interpolated).  When a positive reference F is attached the
    relative-entropy monitor int |f|^p F^(1-p) is recorded as well.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    scheme = scheme or SchemeConfig()
    grid = f0.grid
    st = _Stepper(grid, cfg, scheme)
    dt = st.dt
    nsteps = int(math.ceil(T / dt - 1e-9))
    vol = grid.cell_volume
    mw = weight_field(grid, scheme.monitor_weight).values

    ref_vals = None
    if reference is not None:
        ref_vals = reference.values
        if np.min(ref_vals) <= 0.0:
            raise ValueError("entropy reference must be strictly positive")
        ref_pow = ref_vals ** (1.0 - scheme.entropy_p)

    want = set()
    if output_times is not None:
        want = {min(nsteps, max(0, int(round(t / dt)))) for t in output_times}
    want.add(nsteps)

    v = f0.values.copy()
    mass0 = float(np.sum(v) * vol)
    p = scheme.entropy_p

    times, snaps = [], []
    mon = {k: np.empty(nsteps + 1) for k in ("t", "mass", "min", "l1m", "l2m", "linfm")}
    ent = np.empty(nsteps + 1) if ref_vals is not None else None

    def record(k, vals):
        # ndarray methods: the same reductions as np.sum / np.max without
        # their dispatch wrappers, which cost as much as the sums at n ~ 1e3
        mon["t"][k] = k * dt
        mon["mass"][k] = vals.sum() * vol
        mon["min"][k] = vals.min()
        wm = vals * mw
        awm = np.abs(wm)
        mon["l1m"][k] = awm.sum() * vol
        mon["l2m"][k] = math.sqrt((wm**2).sum() * vol)
        mon["linfm"][k] = awm.max()
        if ent is not None:
            ent[k] = (np.abs(vals) ** p * ref_pow).sum() * vol

    record(0, v)
    if 0 in want:
        times.append(0.0)
        snaps.append(f0.with_values(v.copy()))
    for k in range(1, nsteps + 1):
        v = st.advance(v)
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite values at step {k} (t={k*dt:g})")
        record(k, v)
        if mass0 != 0.0 and abs(mon["mass"][k] / mass0 - 1.0) > MASS_DRIFT_TOL:
            raise FloatingPointError(
                f"mass drifted by {mon['mass'][k]/mass0 - 1.0:.3e} at t={k*dt:g}"
            )
        if k in want:
            times.append(k * dt)
            snaps.append(f0.with_values(v.copy()))

    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        snapshots=snaps,
        monitor_t=mon["t"],
        mass=mon["mass"],
        min_value=mon["min"],
        l1m=mon["l1m"],
        l2m=mon["l2m"],
        linfm=mon["linfm"],
        entropy=ent,
        meta={"dt": dt, "nsteps": nsteps, "scheme": scheme, "cfg": cfg},
    )


# ---------------------------------------------------------------------------
# viscosity-regularized generator (validation mode)
# ---------------------------------------------------------------------------


def radial_cutoff(grid: Grid, eps: float) -> Field:
    """Radially decreasing cutoff: 1 on B(0, 1/eps), 0 outside B(0, 2/eps)."""
    return Field(grid, smooth_indicator(grid, 1.0 / eps))


def viscosity_generator_apply(f: Field, eps: float, cfg: OperatorConfig) -> Field:
    """Lambda_eps f = eps*Lap f + I_eps(f) + div(E_eps f).

    I_eps truncates the jump kernel to eps < |z| < 1/eps; E_eps = E * chi_eps
    with the radial cutoff; the Laplacian is the standard 3/5-point stencil.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    grid = f.grid
    st = get_stencil(grid, windowed_kernel(cfg.alpha, grid.d, eps))
    jump = st.apply(f.values, cfg.exterior)

    chi = radial_cutoff(grid, eps).values
    cut = f.with_values(f.values * chi)
    # div(E * chi f) = div(E_eps f) with E_eps = chi E evaluated at faces;
    # using the product at cell values keeps the flux form conservative
    drift = drift_divergence(cut, cfg.force_field()).values
    lap = _discrete_laplacian(grid, f.values)
    return f.with_values(jump + drift + eps * lap)


def _discrete_laplacian(grid: Grid, v: np.ndarray) -> np.ndarray:
    out = -2.0 * grid.d * v
    for hi, lo in face_slices(grid.d):
        out[hi] += v[lo]
        out[lo] += v[hi]
    return out / grid.h**2


def viscosity_step(f: Field, eps: float, cfg: OperatorConfig, scheme: SchemeConfig | None = None) -> Field:
    """One explicit Euler step of the regularized generator (validation only)."""
    scheme = scheme or SchemeConfig()
    grid = f.grid
    speed = max_drift_speed(grid, cfg.force_field())
    st = get_stencil(grid, windowed_kernel(cfg.alpha, grid.d, eps))
    stiff = (
        2.0 * grid.d * eps / grid.h**2
        + float(np.max(st.deg_in + st.ext_mass))
        + speed / grid.h
    )
    dt = scheme.dt if scheme.dt is not None else scheme.cfl / stiff
    if dt * stiff > 1.0 + 1e-12:
        raise ValueError(f"explicit viscosity step {dt:g} exceeds stability bound {1.0/stiff:g}")
    rhs = viscosity_generator_apply(f, eps, cfg)
    out = f.values + dt * rhs.values
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("viscosity step produced non-finite values")
    return f.with_values(out)


# ---------------------------------------------------------------------------
# Duhamel identity on dense matrices
# ---------------------------------------------------------------------------


def duhamel_residual(
    t: float,
    grid: Grid,
    cfg: OperatorConfig,
    splitting: str = "kernel",
    r: float | None = None,
    M: float = 5.0,
    R: float = 2.0,
    n_quad: int = 2048,
) -> float:
    """Residual of e^{tL} = e^{tB} + e^{tL} * A e^{tB} in the entrywise max norm.

    splitting = "kernel": A = kappa^c-convolution at radius r (bounded part),
    B = L - A.  splitting = "cutoff": A = M chi_R with a smooth radial cutoff
    supported in B_2R, B = L - A.  The time convolution is composite Simpson
    with n_quad intervals (>= 64).
    """
    if n_quad < 64 or n_quad % 2:
        raise ValueError("n_quad must be an even number >= 64")
    lam = assemble_generator_matrix(grid, cfg).mat
    if splitting == "kernel":
        rr = r if r is not None else grid.h
        ker = _plain_conv_kernel(grid, far_kernel(cfg.alpha, grid.d, rr))
        a = offset_matrix(ker, grid.n, grid.n)
    elif splitting == "cutoff":
        a = M * np.diag(smooth_indicator(grid, R).ravel(order="C"))
    elif splitting == "none":
        a = np.zeros_like(lam)
    else:
        raise ValueError(f"unknown splitting {splitting!r}")
    b = lam - a

    if t == 0.0:
        return 0.0  # all three terms collapse to the identity

    dt = t / n_quad
    e_lam_dt = expm(lam * dt)
    e_b_dt = expm(b * dt)
    # forward powers of e^{sB}
    v = np.eye(grid.size)
    vs = [v]
    for _ in range(n_quad):
        v = e_b_dt @ v
        vs.append(v)
    # Simpson accumulation with e^{(t-s)L} built by descending recursion
    w = np.eye(grid.size)
    simpson = np.zeros_like(lam)
    coef = np.ones(n_quad + 1)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    for k in range(n_quad, -1, -1):
        simpson += coef[k] * (w @ a @ vs[k])
        if k > 0:
            w = e_lam_dt @ w
    simpson *= dt / 3.0
    resid = expm(lam * t) - expm(b * t) - simpson
    return float(np.max(np.abs(resid)))
