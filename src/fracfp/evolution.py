"""Time integration of d/dt f = Lambda f by Strang splitting.

The drift substep is an explicit conservative flux-form update (CFL-limited;
upwind Heun by default, Lax-Wendroff when the operator asks for centered
drift), precomposed into one sparse banded matrix (drift_step_matrix), so a
substep is one matvec: scipy's compiled csr_matvec, the kernel D @ v runs,
called directly on the matrix's arrays (operators.CSR.lane_product).  For
upwind that matrix is (I + P @ P)/2 with P = I + tau*D >= 0 under the CFL
bound: a column-stochastic matrix, so positivity and mass survive the
substep.  The jump substep is one fourier_multiply: the exact spectral
exp(-(2 pi |xi|)^alpha dt) (unconditionally stable, exactly mass
preserving) or backward Euler with the periodized quadrature circulant, an
FFT divide by 1 - dt*lambda_k (lambda_k: quadrature_symbol).  That M-matrix
inverse is a column-stochastic kernel, so positivity and mass hold to FFT
roundoff at any grid size.  A step is half-drift / full-jump / half-drift
(the drift matrix at tau = dt/2).

The step loop works on raw ndarrays: Field validation happens at the API
boundary (the initial field and the snapshots).  ``evolve``, the one entry,
steps a C-contiguous stack of shape (lanes, *grid.shape): a drift substep
makes the one csr_matvec call of a single-lane run once per lane, one batched
fourier_multiply (pocketfft, called as scipy.fft calls it) per jump substep
serves every lane, and the monitors reduce each lane over its trailing axes,
so every lane is bit for bit the field a single-lane run computes.  Without a
path the stack has one lane.  With a path (the states that
steady_by_evolution visited from the same f0 at the starts of its chunks of
ceil(1/dt) steps, ``SteadyState.path``) every chunk whose start state is
known runs as its own lane, side by side, and each full chunk must end bit
for bit on the next path state: that equality certifies the replay, and a
path made from another start or scheme raises.  Every run returns the chunk-start states it passed in the
same format (Trajectory.path), and steady_by_evolution resumes from them.

Reflection fold.  An odd force field (E(-x) = -E(x) along an axis) maps
fields even along that axis to even fields.  The stepper finds the axes
whose reflection leaves its drift substep matrix exactly unchanged, and
evolve folds the run onto those along which f0, the path, the weight and
the entropy reference are exactly even as well: the even orbit map of
those reflections (operators.orbit_maps) restricts the stack to the first
half of each folded axis and lifts snapshots and path states back, the
drift substep is the matrix folded onto that map and the jump substep a
DCT-II multiply there (fourier_multiply).  Sums over the half count each
node 2^s times for s folded axes.  A field with no even axis steps exactly
as without the fold.

Monitors.  Each step's stack is copied into a preallocated block of
MONITOR_BLOCK_BYTES, and one pass of reductions serves the whole block: at
block ends, at chunk ends and at the last step.  The reductions are those of
a per-step pass, bit for bit.  The mass sum doubles as the non-finite check
(an inf or NaN entry makes the sum non-finite) and feeds the mass-drift
check, (mass - mass0) / max(|mass0|, ||f0||_1), so a field of roundoff mass
(one Fourier mode) drifts against its L1 norm.  A lane that fails either
check drops out with the lanes after it, and the earliest failing step
overall is raised as a CheckFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from fracfp.grid import CheckFailure, Field, Grid, weight_field
from fracfp.operators import (
    CSR,
    OperatorConfig,
    _jump_matrix,  # not called here: perfbench/spans.py LAYERS patches this binding
    assemble_generator_matrix,  # not called here: perfbench/spans.py LAYERS patches this binding
    drift_step_matrix,
    fourier_multiply,
    get_stencil,  # not called here: perfbench/spans.py LAYERS patches this binding
    max_drift_speed,
    orbit_maps,
    quadrature_symbol,
    readonly,
    spectral_symbol,
    symmetries,
)

__all__ = [
    "SchemeConfig",
    "Trajectory",
    "auto_dt",
    "step_size",
    "step_count",
    "evolve",
]

MASS_DRIFT_TOL = 1e-6
CFL = 0.9  # the automatic step is CFL * h / max|E|
POSITIVITY_FLOOR = 1e-12  # times ||f0||_inf
MONITOR_BLOCK_BYTES = 1 << 17  # evolve reduces its monitors over blocks of about this many bytes


@dataclass(frozen=True)
class SchemeConfig:
    """Strang splitting parameters."""

    dt: float | None = None  # None: auto_dt
    diffusion_solver: str = "exact-spectral"  # or "implicit-matrix"
    monitor_weight: float = 0.5  # weight exponent k for the L^p(m) monitors

    def __post_init__(self):
        if self.diffusion_solver not in ("exact-spectral", "implicit-matrix"):
            raise ValueError(f"unknown diffusion solver {self.diffusion_solver!r}")


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar monitors of one evolution run; meta
    holds dt, nsteps, the stacked steps made (advances) and the lanes.
    ``path`` is the read-only stack of the states at steps j * ceil(1/dt),
    j = 0 .. nsteps // ceil(1/dt): f0 first, then one state per chunk of
    ceil(1/dt) steps, as SteadyState.path holds them."""

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
    path: np.ndarray | None = field(default=None, repr=False)

    def monitor_columns(self):
        ent = (
            self.entropy
            if self.entropy is not None
            else np.full_like(self.monitor_t, np.nan)
        )
        return np.column_stack(
            [self.monitor_t, self.mass, self.min_value, self.l1m, self.l2m, self.linfm, ent]
        )


def auto_dt(grid: Grid, cfg: OperatorConfig) -> float:
    """The drift CFL bound CFL * h / max|E| (CFL * h without drift)."""
    speed = max_drift_speed(grid, cfg.force_field())
    if speed == 0.0:
        return CFL * grid.h
    return CFL * grid.h / speed


def step_size(grid: Grid, cfg: OperatorConfig, scheme: SchemeConfig) -> float:
    """The time step of a run: scheme.dt, or auto_dt when it is None.
    ValueError unless 0 < dt <= auto_dt, the drift CFL bound."""
    limit = auto_dt(grid, cfg)
    dt = scheme.dt if scheme.dt is not None else limit
    if not 0.0 < dt <= limit * (1.0 + 1e-12):
        raise ValueError(f"time step {dt:g} violates the drift CFL bound 0 < dt <= {limit:g}")
    return dt


@lru_cache(maxsize=32)
def _diffusion_multiplier(grid: Grid, alpha: float, dt: float) -> np.ndarray:
    return readonly(np.exp(spectral_symbol(grid, alpha) * dt))


@lru_cache(maxsize=8)
def _implicit_factor(grid: Grid, alpha: float, dt: float) -> np.ndarray:
    """Backward-Euler multiplier 1/(1 - dt*lambda_k) of the quadrature circulant."""
    return readonly(1.0 / (1.0 - dt * quadrature_symbol(grid, alpha)))


@lru_cache(maxsize=32)
def _reflection_axes(grid: Grid, force, drift: str, tau: float) -> tuple:
    """The reflections that leave drift_step_matrix exactly unchanged."""
    return symmetries(grid, drift_step_matrix(grid, force, drift, tau))[0]


@lru_cache(maxsize=32)
def _even_block(grid: Grid, force, drift: str, tau: float, omap) -> CSR:
    """drift_step_matrix folded onto the orbit map omap (OrbitMap.fold)."""
    return omap.fold(drift_step_matrix(grid, force, drift, tau))


class _Stepper:
    """Per-run state of the Strang step, all on raw arrays: the Fourier
    multiplier of the jump substep and the sparse matrix of the half-step
    drift substep.  ``advance`` takes one field or a (lanes, *grid.shape)
    stack, or after ``fold`` their first halves along the folded axes.
    ``axes`` are the axis reflections that leave the drift substep exactly
    unchanged; the multiplier is even under every one."""

    def __init__(self, grid: Grid, cfg: OperatorConfig, scheme: SchemeConfig):
        self.dt = step_size(grid, cfg, scheme)
        self.grid = grid
        self.key = (grid, cfg.force_field(), cfg.drift, 0.5 * self.dt)
        self.drift = drift_step_matrix(*self.key)
        # the drift substep: per lane, the one csr_matvec call that D @ v makes
        self._drift = self.drift.lane_product()
        multiplier = (_diffusion_multiplier if scheme.diffusion_solver == "exact-spectral"
                      else _implicit_factor)
        self.mult = multiplier(grid, cfg.alpha, self.dt)
        self.axes = _reflection_axes(*self.key)
        self.even = ()

    def fold(self, axes: tuple) -> None:
        """Step fields even under the reflections of axes (a subset of
        self.axes) on their first halves along axes, which the even orbit
        map ``map`` restricts and lifts: the drift substep folded onto it
        and the first n/2 modes of the multiplier."""
        self.map = next(iter(orbit_maps(self.grid, axes).values()))[0]
        if axes:
            self.drift = _even_block(*self.key, self.map)
            self._drift = self.drift.lane_product()
            self.mult = self.mult[self.grid.half(axes)]
        self.even = axes

    def advance(self, values: np.ndarray) -> np.ndarray:
        return self._drift(fourier_multiply(self._drift(values), self.mult, self.even))


def step_count(T: float, dt: float) -> int:
    """The steps of dt that a run to horizon T makes: ceil(T / dt)."""
    return int(math.ceil(T / dt - 1e-9))


def evolve(
    f0: Field,
    T: float,
    cfg: OperatorConfig,
    scheme: SchemeConfig | None = None,
    output_times=None,
    reference: Field | None = None,
    path: np.ndarray | None = None,
) -> Trajectory:
    """Integrate to horizon T, recording monitors each step.

    Snapshots are stored at the completed step nearest each requested output
    time (never interpolated).  When a positive reference F is attached the
    p = 2 relative-entropy monitor int f^2 / F is recorded as well.

    ``path`` holds the states at the starts of consecutive chunks of
    ceil(1/dt) steps from f0 under the same operator and scheme (``SteadyState.path``; chunk
    j starts at step j * ceil(1/dt)).  The chunks whose start is in the path
    run side by side as lanes of one stack, and the result equals the
    single-lane run bit for bit.  The result's ``path`` holds the states
    at every chunk start the run passed, in the same format.  ValueError
    when path[0] is not f0 or a full chunk does not end exactly on the
    next path state.  CheckFailure at the earliest step whose mass sum is
    not finite ("non-finite-values", measured = that sum, tolerance inf) or
    whose mass drifted by more than MASS_DRIFT_TOL ("mass-drift", measured
    = the drift), its step counted from the start of the run.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    scheme = scheme or SchemeConfig()
    grid = f0.grid
    st = _Stepper(grid, cfg, scheme)
    dt = st.dt
    nsteps = step_count(T, dt)
    chunk = step_count(1.0, dt)  # steps between consecutive path states
    mw = weight_field(grid, scheme.monitor_weight).values

    if path is None:
        path = f0.values[None]
    elif path.shape[1:] != grid.shape or not np.array_equal(path[0], f0.values):
        raise ValueError("path[0] is not f0: the path starts from another field")
    lanes = min(len(path), -(-nsteps // chunk))  # the chunks whose start is known
    base = [j * chunk for j in range(lanes)]  # step at which each lane starts
    last = nsteps - base[-1]  # steps of the last lane; the others run chunk

    inputs = [path[:lanes], mw[None]]
    if reference is not None:
        if np.min(reference.values) <= 0.0:
            raise ValueError("entropy reference must be strictly positive")
        inputs.append(reference.values[None])
    # step the first halves along the symmetric axes where every input is even
    inputs = np.concatenate(inputs)
    even = tuple(a for a in st.axes if np.array_equal(inputs, np.flip(inputs, a + 1)))
    st.fold(even)
    half = grid.half_shape(even)
    vol = grid.cell_volume * 2 ** len(even)  # a half-grid node stands for 2^s nodes
    mw = st.map.restrict(mw).reshape(half)
    ref_inv = None if reference is None else 1.0 / st.map.restrict(reference.values).reshape(half)
    axes = tuple(range(1, grid.d + 1))  # a lane's grid axes
    stack_axes = tuple(a + 1 for a in axes)

    # rows t, mass, min, Linfm, then the sums L1m, L2m[, entropy]; the mass
    # and the sums are raw (no cell volume, no root) until the loop ends
    mon = np.empty((6 if ref_inv is None else 7, nsteps + 1))
    mon[0] = np.arange(nsteps + 1) * dt
    # each step's stack is copied into a block of up to K steps, reduced in one pass
    K = max(1, MONITOR_BLOCK_BYTES // (8 * lanes * mw.size))
    block = np.empty((K * lanes,) + mw.shape)
    # per field: |f w|, (f w)^2[, f^2 / F], summed in one call
    work = np.empty((len(mon) - 4, K * lanes) + mw.shape)
    sums = np.empty((len(mon) - 1, K * lanes))

    def record(vals):
        """Rows mass, min, Linfm, L1m, L2m[, entropy] of the fields vals."""
        stack = work[:, : len(vals)]
        wm = stack[1]
        np.multiply(vals, mw, out=wm)
        np.abs(wm, out=stack[0])
        np.square(wm, out=wm)
        if ref_inv is not None:
            np.square(vals, out=stack[2])
            np.multiply(stack[2], ref_inv, out=stack[2])
        out = sums[:, : len(vals)]
        stack.sum(axis=stack_axes, out=out[3:])
        stack[0].max(axis=axes, out=out[2])
        vals.min(axis=axes, out=out[1])
        vals.sum(axis=axes, out=out[0])
        return out

    want = {nsteps}
    if output_times is not None:
        want |= {min(nsteps, max(0, int(round(t / dt)))) for t in output_times}
    snap_at = {}  # lane step -> (lane, step) of each wanted step after 0
    for k in sorted(want - {0}):
        j = min((k - 1) // chunk, lanes - 1)
        snap_at.setdefault(k - base[j], []).append((j, k))

    v = st.map.restrict(path[:lanes]).reshape((lanes,) + half)  # the lanes' start states
    mon[1:, 0] = record(v[:1])[:, 0]
    mass0 = mon[1, 0] * vol
    # the drift's scale, max(|mass0|, ||f0||_1) (1 for f0 = 0); for f0 >= 0
    # it is mass0 and rel0 is 1, so drift = mass / mass0 - 1
    scale = max(abs(mass0), np.abs(v[:1]).sum(axis=axes).tolist()[0] * vol) or 1.0
    rel0 = mass0 / scale
    snaps = {0: v[0].copy()} if 0 in want else {}  # step -> state, lifted at the end
    marks = []  # the last lane's states at its chunk ends, lifted at the end
    failure = None
    lo, hi, i, b = 0, lanes, 0, 0  # live lanes lo..hi-1, i steps into each, b in the block
    # an overflow or invalid operation leaves a non-finite sum, which the
    # check below turns into a CheckFailure
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < hi:
            i += 1
            v = st.advance(v)
            live = hi - lo
            block[b * live : (b + 1) * live] = v
            b += 1
            for j, kk in snap_at.get(i, ()):
                if lo <= j < hi:
                    snaps[kk] = v[j - lo].copy()
            if i % chunk == 0 and hi == lanes:
                marks.append(v[lanes - 1 - lo].copy())
            if b < K and i != chunk and i != last:
                continue
            # the block: steps i - b + 1 .. i of lanes lo .. hi - 1, column
            # (lane * chunk + step) of the monitors
            rows = record(block[: b * live]).reshape(-1, b, live)
            cols = (lo * chunk + i - b + 1) + np.arange(b)[:, None] + chunk * np.arange(live)
            mon[1:, cols] = rows
            drift = rows[0] * vol / scale - rel0
            # any inf or NaN entry makes the sum non-finite
            bad = ~np.isfinite(rows[0]) | (np.abs(drift) > MASS_DRIFT_TOL)
            for r in np.flatnonzero(bad.any(axis=1)):  # the block's failing steps, in order
                failing = np.flatnonzero(bad[r, : hi - lo])
                if len(failing):
                    j = int(failing[0])
                    s, k = rows[0, r, j], int(cols[r, j])
                    failure = (CheckFailure("non-finite-values", s, math.inf, k, dt)
                               if not math.isfinite(s) else
                               CheckFailure("mass-drift", drift[r, j], MASS_DRIFT_TOL, k, dt))
                    hi = lo + j  # the lanes from j on start after this failure
            v, b = v[: hi - lo], 0
            if i in (chunk, last):
                if i == chunk:
                    for j in range(lo, min(hi, len(path) - 1)):
                        if not np.array_equal(st.map.lift(v[j - lo]), path[j + 1]):
                            raise ValueError(
                                f"the chunk from path state {j} does not end on path "
                                f"state {j + 1}: the path comes from another operator or scheme"
                            )
                # at step chunk every lane but the last is done; at last, the last lane
                new_lo = max(lo, lanes - 1) if i == chunk else lo
                new_hi = min(hi, lanes - 1) if i == last else hi
                v = v[new_lo - lo : max(new_hi, new_lo) - lo]
                lo, hi = new_lo, new_hi
    if failure is not None:
        raise failure

    mon[1] *= vol
    mon[4] *= vol
    mon[5] = np.sqrt(mon[5] * vol)
    if ref_inv is not None:
        mon[6] *= vol
    return Trajectory(
        grid=grid,
        times=np.array(sorted(snaps)) * dt,
        snapshots=[f0.with_values(st.map.lift(snaps[k])) for k in sorted(snaps)],
        monitor_t=mon[0],
        mass=mon[1],
        min_value=mon[2],
        l1m=mon[4],
        l2m=mon[5],
        linfm=mon[3],
        entropy=mon[6] if ref_inv is not None else None,
        meta={"dt": dt, "nsteps": nsteps, "advances": i, "lanes": lanes},
        path=readonly(np.stack([*path[:lanes], *map(st.map.lift, marks)])),
    )
