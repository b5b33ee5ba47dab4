"""Convergence- and regularization-rate measurements against predicted exponents.

All verdicts treat the predicted rates as upper bounds: decaying faster than
predicted is bound-respected, never a failure.  Exponential fits start after
the transient (t0 = 1 by default), polynomial fits at t0 = 5; both are
asymptotic statements.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from fracfp.grid import (
    CheckFailure,
    Field,
    Grid,
    line_fit,
    smooth_indicator,
    weight_field,
)
from fracfp.operators import GeneratorMatrix, OperatorConfig, readonly
from fracfp.evolution import auto_dt, evolve
from fracfp.functionals import cosine_noise, signed_power, weighted_norm

__all__ = [
    "RateReport",
    "decay_fit",
    "regularization_slope",
    "polynomial_rate_check",
    "b_semigroup_decay",
    "harris_seminorm",
    "harris_bank",
    "harris_contraction",
    "lyapunov_check",
    "ode_envelope_check",
    "weighted_opnorm",
]


@dataclass
class RateReport:
    model: str  # {"exponential", "polynomial"}
    fitted: float  # decay rate a (exponential) or exponent rho (polynomial)
    predicted: float | None
    window: tuple[float, float]
    r2: float
    verdict: str  # {"bound-respected", "violated"}
    prefactor: float = math.nan
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "bound-respected"


MIN_FIT_POINTS = 10  # fewest points decay_fit accepts in its window
ENVELOPE_TOL = 0.1  # relative slack of decay_fit's predicted envelope
SLOPE_SAMPLES = 32  # output times of a regularization-slope run
REGULARIZATION_TOL = 0.2  # relative tolerance of a regularization-slope verdict
SEMIGROUP_TOL = 0.1  # slack of the b_semigroup_decay norm and exponent bounds
HARRIS_MAX_SIZE = 1024  # n^d cap of the dense sector expm behind harris_contraction and lyapunov_check


def _model_values(model: str, ts: np.ndarray, rate: float) -> np.ndarray:
    if model == "exponential":
        return np.exp(-rate * ts)
    return (1.0 + ts**2) ** (-rate / 2.0)  # <t>^-rho


def decay_fit(
    ts,
    values,
    model: str = "exponential",
    predicted: float | None = None,
    window: tuple[float, float] | None = None,
) -> RateReport:
    """Least-squares decay fit of a positive scalar series.

    Exponential: log v against t; polynomial: log v against log <t>.  When a
    predicted exponent is supplied, the verdict compares the series against
    the predicted model anchored at the first window point (upper bound with
    relative slack ENVELOPE_TOL); otherwise against its own fit.  CheckFailure
    "rate-fit-window" when the window holds under MIN_FIT_POINTS points.
    """
    if model not in ("exponential", "polynomial"):
        raise ValueError(f"unknown decay model {model!r}")
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise ValueError("decay fit requires strictly positive values")
    if window is not None:
        mask = (ts >= window[0]) & (ts <= window[1])
        ts, values = ts[mask], values[mask]
    if len(ts) < MIN_FIT_POINTS:
        raise CheckFailure("rate-fit-window", len(ts), MIN_FIT_POINTS)
    if ts[-1] <= ts[0]:
        raise ValueError("degenerate fit window")
    x = ts if model == "exponential" else 0.5 * np.log1p(ts**2)
    slope, _, r2 = line_fit(x, np.log(values))
    fitted = float(-slope)

    rate_for_bound = predicted if predicted is not None else fitted
    anchor = values[0] / _model_values(model, ts[:1], rate_for_bound)[0]
    envelope = anchor * _model_values(model, ts, rate_for_bound)
    respected = bool(np.all(values <= envelope * (1.0 + ENVELOPE_TOL)))
    return RateReport(
        model=model,
        fitted=fitted,
        predicted=predicted,
        window=(float(ts[0]), float(ts[-1])),
        r2=r2,
        verdict="bound-respected" if respected else "violated",
        prefactor=float(anchor),
        details={"n_points": int(len(ts))},
    )


# ---------------------------------------------------------------------------
# small-time regularization slopes
# ---------------------------------------------------------------------------


def near_delta(grid: Grid) -> Field:
    """Normalized hat of half-width 2h at the origin (discrete near-delta)."""
    r = np.sqrt(grid.radius2())
    vals = np.clip(1.0 - r / (2.0 * grid.h), 0.0, None)
    return Field(grid, vals / (np.sum(vals) * grid.cell_volume))


def _steepest_window_fit(ts, vals):
    """Log-log slope on the steepest contiguous stretch of the curve.

    The near-delta has an effective age ~ (2h)^alpha that flattens the early
    slope, and the norms saturate toward the equilibrium scale late; the
    asymptotic exponent lives between, where the local slope peaks.  A
    stretch shorter than MIN_FIT_POINTS falls back to the whole curve.
    """
    lx, ly = np.log(ts), np.log(vals)
    local = -np.diff(ly) / np.diff(lx)
    smax = np.max(local)
    good = local >= 0.85 * smax
    # longest contiguous run of good local slopes
    best_run, run_start, cur_start = (0, 0), 0, None
    for i, g in enumerate(list(good) + [False]):
        if g and cur_start is None:
            cur_start = i
        elif not g and cur_start is not None:
            if i - cur_start > best_run[0]:
                best_run = (i - cur_start, cur_start)
            cur_start = None
    length, start = best_run
    sel = slice(start, start + length + 1)
    if length + 1 < MIN_FIT_POINTS:
        sel = slice(None)  # fall back to the full window
    slope, _, r2 = line_fit(lx[sel], ly[sel])
    return float(-slope), r2, (float(ts[sel][0]), float(ts[sel][-1]))


def regularization_slope(
    grid: Grid,
    cfg: OperatorConfig,
    p: float = 2.0,
    k: float = 0.5,
    t_window: tuple[float, float] | None = None,
) -> RateReport:
    """Slope of log ||f(t)||_{L^p(m)} against log t from a near-delta datum.

    The smoothing gain from mass data predicts the slope -d/(q alpha) with
    q the conjugate exponent (q = 1 for p = inf, valid for gamma <= 2:
    bounded-density regularization needs subcritical confinement growth);
    the verdict accepts within REGULARIZATION_TOL relative.  The run samples
    SLOPE_SAMPLES output times, geometric over t_window.
    """
    if p == math.inf and cfg.gamma > 2.0:
        raise ValueError("L-infinity regularization requires gamma <= 2")
    q = 1.0 if p == math.inf else p / (p - 1.0)
    predicted = grid.d / (q * cfg.alpha)
    if t_window is None:
        t_window = (max(0.01, 4.0 * (2.0 * grid.h) ** cfg.alpha), 0.6)
    t_lo, t_hi = t_window
    dt = auto_dt(grid, cfg)
    if t_lo < 10.0 * dt:
        raise ValueError(
            f"window start {t_lo:g} clipped by the CFL step {dt:g} (need >= 10 dt)"
        )
    times = np.geomspace(t_lo, t_hi, SLOPE_SAMPLES)
    tr = evolve(near_delta(grid), t_hi, cfg, output_times=times)
    ts = np.array(tr.times)
    vals = np.array([weighted_norm(s, p, k) for s in tr.snapshots])
    keep = ts > 0
    ts, vals = ts[keep], vals[keep]
    _, uniq = np.unique(ts, return_index=True)
    fitted, r2, used = _steepest_window_fit(ts[uniq], vals[uniq])
    ok = abs(fitted - predicted) <= REGULARIZATION_TOL * predicted
    return RateReport(
        model="polynomial",
        fitted=fitted,
        predicted=predicted,
        window=used,
        r2=r2,
        verdict="bound-respected" if ok else "violated",
        details={"p": p, "k": k, "norm": "Lp(m)"},
    )


# ---------------------------------------------------------------------------
# polynomial convergence in the weakly confining band
# ---------------------------------------------------------------------------


def polynomial_rate_check(
    grid: Grid,
    cfg: OperatorConfig,
    k_heavy: float,
    k_light: float,
    p: float,
    horizon: float,
    steady: Field,
    t0: float = 5.0,
) -> RateReport:
    """Upper-bound check of the lighter-weight norm against <t>^-rho.

    rho = (k_heavy - k_light) / |2 - gamma|: the decay exponent is the weight
    drop divided by the confinement deficit.  The initial state is heavy
    tailed with finite L^p(<x>^k_heavy) norm; the measured quantity is
    ||f(t) - F||_{L^p(<x>^k_light)}, compared against the predicted envelope
    anchored at t0 (bound-respected even when the box dynamics eventually
    decays faster).
    """
    if not (2.0 - cfg.alpha < cfg.gamma < 2.0):
        raise ValueError(
            "polynomial regime requires 2 - alpha < gamma < 2 "
            f"(got alpha={cfg.alpha}, gamma={cfg.gamma})"
        )
    if not 0.0 < k_light < k_heavy < min(cfg.alpha, 1.0):
        raise ValueError("weights must satisfy 0 < k_light < k_heavy < min(alpha, 1)")
    beta = cfg.gamma - 2.0
    warnings = []
    if k_light <= abs(beta):
        warnings.append(
            f"k_light={k_light} <= |gamma-2|={abs(beta)}: outside the constructive"
            " band; the displayed-rate check is still an upper bound"
        )
    p_cap = 1.0 + (k_light - abs(beta)) / (grid.d + cfg.alpha - k_light)
    if p >= p_cap:
        warnings.append(f"p={p} >= constructive cap {p_cap:.3f}")
    predicted = (k_heavy - k_light) / abs(2.0 - cfg.gamma)

    s0 = k_heavy + (grid.d + 1.0) / p
    vals = grid.bracket() ** (-s0)
    f0 = Field(grid, vals / (np.sum(vals) * grid.cell_volume))
    times = np.unique(np.concatenate([np.geomspace(t0, horizon, 40), [horizon]]))
    tr = evolve(f0, horizon, cfg, output_times=times)
    ts = np.array(tr.times)
    diffs = [
        weighted_norm(Field(grid, s.values - steady.values), p, k_light)
        for s in tr.snapshots
    ]
    mask = ts >= t0 * 0.999
    rep = decay_fit(ts[mask], np.array(diffs)[mask], model="polynomial", predicted=predicted)
    rep.details.update({"k_heavy": k_heavy, "k_light": k_light, "p": p, "warnings": warnings})
    return rep


# ---------------------------------------------------------------------------
# dissipative-part semigroup decay
# ---------------------------------------------------------------------------


def weighted_opnorm(mat: np.ndarray, p: float, w_out: np.ndarray, w_in: np.ndarray) -> float:
    """Estimate ||diag(w_out) mat diag(1/w_in)||_p (Boyd power iteration).

    Exact for p = 1 (maximum weighted column sum) and p = inf (maximum
    weighted row sum); for p in (1, inf) the iteration converges to a
    stationary value that lower-bounds the norm, maximized over several
    starts: ones, 4 seeded Gaussians and the heaviest column, at most 40
    iterations each.
    """
    a = (w_out[:, None] * mat) / w_in[None, :]
    if p == 1.0:
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if p == math.inf:
        return float(np.max(np.sum(np.abs(a), axis=1)))
    q = p / (p - 1.0)
    rng = np.random.default_rng(0)
    n = a.shape[1]
    best = 0.0
    starts = [np.ones(n)] + [rng.standard_normal(n) for _ in range(4)]
    j0 = int(np.argmax(np.sum(np.abs(a), axis=0)))
    e = np.zeros(n)
    e[j0] = 1.0
    starts.append(e)
    for x in starts:
        x = x / np.linalg.norm(x, p)
        est_prev = 0.0
        for _ in range(40):
            y = a @ x
            est = float(np.linalg.norm(y, p))
            if est == 0.0:
                break
            z = a.T @ signed_power(y, p - 1.0)
            if np.linalg.norm(z, q) <= est ** (p - 1.0) * (1.0 + 1e-14):
                break
            x = signed_power(z, q - 1.0)
            x = x / np.linalg.norm(x, p)
            if abs(est - est_prev) < 1e-12 * est:
                break
            est_prev = est
        best = max(best, est)
    return best


def b_semigroup_decay(
    gm: GeneratorMatrix,
    theta: float,
    p: float,
    k: float,
    M: float = 5.0,
    R: float = 2.0,
) -> RateReport:
    """Decay of ||e^{tB}||, B = Lambda - M chi_R, from L^p(m) to L^p(m^theta).

    beta = gamma - 2 >= 0: theta = 1 and exponential decay with positive
    rate; beta in (-alpha, 0): polynomial decay with exponent at least
    k(1-theta)/|beta| (checked with slack SEMIGROUP_TOL); theta = 1 instead
    keeps the norms below 1 + SEMIGROUP_TOL.
    """
    grid = gm.grid
    beta = gm.cfg.gamma - 2.0
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    chi = smooth_indicator(grid, R).ravel(order="C")
    b = gm.mat - M * np.diag(chi)
    m_in = weight_field(grid, k).values.ravel(order="C")
    m_out = m_in**theta
    norms = []
    e_step = None
    cur = np.eye(grid.size)
    ts = np.geomspace(0.25, 16.0, 12) if beta < 0 else np.linspace(0.5, 8.0, 10)
    prev_t = 0.0
    for t in ts:
        cur = cur @ expm(b * (t - prev_t))
        prev_t = t
        norms.append(weighted_opnorm(cur, p, m_out, m_in))
    norms = np.array(norms)
    details = {"theta": theta, "p": p, "k": k, "M": M, "R": R, "norms": norms.tolist(),
               "t": ts.tolist()}
    if beta >= 0.0:
        rep = decay_fit(ts, norms, model="exponential")
        model, fitted, predicted, r2 = "exponential", rep.fitted, None, rep.r2
        ok = rep.fitted > 0.0
    elif theta == 1.0:
        model, fitted, predicted, r2 = "polynomial", 0.0, 0.0, 1.0
        ok = bool(np.all(norms <= 1.0 + SEMIGROUP_TOL))
    else:
        rep = decay_fit(ts, norms, model="polynomial")
        predicted = k * (1.0 - theta) / abs(beta)
        model, fitted, r2 = "polynomial", rep.fitted, rep.r2
        ok = rep.fitted >= predicted - SEMIGROUP_TOL
    return RateReport(model=model, fitted=fitted, predicted=predicted,
                      window=(float(ts[0]), float(ts[-1])), r2=r2,
                      verdict="bound-respected" if ok else "violated", details=details)


# ---------------------------------------------------------------------------
# Harris machinery
# ---------------------------------------------------------------------------


def harris_seminorm(phi: np.ndarray, m_lam: np.ndarray) -> float:
    """sup over pairs of |phi(x) - phi(y)| / (m_lam(x) + m_lam(y)), m_lam > 0, by
    Dinkelbach's iteration, O(N) a round: lam = 0 grows to the ratio of the pair
    argmax(phi - lam m), argmax(-phi - lam m) until it stops growing."""
    phi = phi.ravel(order="C")
    m = m_lam.ravel(order="C")
    lam = 0.0
    while True:
        x = int(np.argmax(phi - lam * m))
        y = int(np.argmax(-phi - lam * m))
        r = float(abs(phi[x] - phi[y]) / (m[x] + m[y]))
        if not r > lam:
            return lam
        lam = r


def harris_bank(grid: Grid, k: float, lambda_w: float, count: int = 50) -> list:
    """Seeded observables: +-m_lambda, coordinates, band-limited noise."""
    rng = np.random.default_rng(411)
    m_lam = 1.0 + lambda_w * grid.bracket() ** k
    out = [m_lam, -m_lam]
    for c in grid.coords():
        out.append(c.copy())
    while len(out) < count:
        # about 10 modes in all (10 in 1d, 3 x 3 in 2d), the phase on axis 0
        out.append(cosine_noise(grid, rng, round(10 ** (1 / grid.d)), 4.0, 0))
    return out[:count]


# generator -> {(t, key): sector of P_t}; an entry goes with its generator
_SEMIGROUPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _adjoint(gm: GeneratorMatrix, key: tuple) -> np.ndarray:
    """Lambda^* on the sector key of gm: G^-1 B^T G, B the sector matrix and
    G the diagonal of its orbit sizes (B^T when they are all equal)."""
    mat, (omap, *_) = gm.sectors[key]
    return (mat * (omap.sizes[:, None] / omap.sizes)).T


def semigroup(gm: GeneratorMatrix, t: float, key: tuple) -> np.ndarray:
    """Read-only dense sector key of P_t = e^{t Lambda^*}: expm(t
    _adjoint(gm, key)), once per (gm, t, key) for lyapunov_check and
    harris_contraction, and kept only while gm lives; grids above
    HARRIS_MAX_SIZE nodes raise."""
    if gm.size > HARRIS_MAX_SIZE:
        raise ValueError(f"dense semigroup expm restricted to n^d <= {HARRIS_MAX_SIZE}")
    cache = _SEMIGROUPS.setdefault(gm, {})
    if (t, key) not in cache:
        cache[t, key] = readonly(expm(_adjoint(gm, key) * t))
    return cache[t, key]


def semigroup_apply(gm: GeneratorMatrix, t: float, phi: np.ndarray) -> np.ndarray:
    """P_t phi for an observable phi on the grid: phi's part in each sector,
    through each of its maps, moved by the sector's semigroup, summed."""
    return sum(omap.lift(semigroup(gm, t, key) @ omap.project(phi))
               for key, (_, maps) in gm.sectors.items() for omap in maps)


def harris_contraction(gm: GeneratorMatrix, t: float, k: float, lambda_w: float) -> float:
    """Largest seminorm-contraction ratio of P_t over the observable bank.

    P_t = e^{t Lambda^*} acts on observables; the seminorm weights are
    m_lambda = 1 + lambda_w <x>^k.  The bank supremum lower-bounds the true
    operator seminorm, so a ratio < 1 is necessary-but-weaker evidence of
    contraction (recorded as such).  P_t acts through the dense
    ``semigroup`` sectors of the generator gm (semigroup_apply).
    """
    grid = gm.grid
    t = float(t)
    m_lam = (1.0 + lambda_w * grid.bracket() ** k).ravel(order="C")
    worst = 0.0
    for phi in harris_bank(grid, k, lambda_w):
        s0 = harris_seminorm(phi, m_lam)
        if s0 <= 0.0:
            continue
        s1 = harris_seminorm(semigroup_apply(gm, t, phi), m_lam)
        worst = max(worst, s1 / s0)
    return worst


def lyapunov_check(gm: GeneratorMatrix, t_samples, k: float) -> dict:
    """Drift condition: P_t m <= gamma_t m + c with gamma_t = e^{-at}, c = b/a.

    Fits (a, b) from the generator inequality Lambda^* m <= b - a m (a is 90%
    of the worst outer-region ratio, b the resulting envelope max) and then
    verifies the semigroup envelope nodewise at each sampled t.  gm is the
    generator; Lambda^* is its adjoint.  The weight m is radial, so in the
    fully even sector of gm: only that sector acts, on its representative
    nodes.  CheckFailure "lyapunov-drift-rate" (measured = a, tolerance 0)
    when a <= 0: Lambda^* m is not pushed down.
    """
    grid = gm.grid
    even, (_, (omap,)) = next(iter(gm.sectors.items()))
    m = omap.restrict(weight_field(grid, k).values)
    z = _adjoint(gm, even) @ m
    outer = omap.restrict(grid.radius2()) >= (grid.L / 2.0) ** 2
    a = 0.9 * float(np.min(-z[outer] / m[outer]))
    if a <= 0.0:
        raise CheckFailure("lyapunov-drift-rate", a, 0.0)
    b = float(np.max(z + a * m))
    c = b / a
    out = {"a": a, "b": b, "c": c, "gamma": {}, "envelope_ok": {}, "k": k}
    for t in np.atleast_1d(t_samples):
        y = semigroup(gm, float(t), even) @ m
        gamma_t = float(np.max((y - c) / m))
        out["gamma"][float(t)] = gamma_t
        out["envelope_ok"][float(t)] = bool(np.all(y <= gamma_t * m + c + 1e-12))
    return out


def ode_envelope_check(ts, xs, A: float, B: float, C: float, b: float) -> bool:
    """True iff X(t) <= e^{-bt} A^{-1/C} ((B - b) + 1/(C t))^{1/C} at all t > 0."""
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    pos = ts > 0
    env = np.exp(-b * ts[pos]) * A ** (-1.0 / C) * ((B - b) + 1.0 / (C * ts[pos])) ** (
        1.0 / C
    )
    return bool(np.all(xs[pos] <= env))
