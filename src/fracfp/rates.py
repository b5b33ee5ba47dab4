"""Convergence- and regularization-rate measurements against predicted exponents.

All verdicts treat the predicted rates as upper bounds: decaying faster than
predicted is bound-respected, never a failure.  Exponential fits start after
the transient (t0 = 1 by default), polynomial fits at t0 = 5; both are
asymptotic statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from fracfp.grid import Field, Grid, line_fit, smooth_indicator, weight_field
from fracfp.operators import GeneratorMatrix, OperatorConfig
from fracfp.evolution import SchemeConfig, auto_dt, evolve
from fracfp.functionals import signed_power, weighted_norm

__all__ = [
    "RateReport",
    "decay_fit",
    "regularization_slope",
    "linf_regularization_slope",
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
    tol: float = 0.1,
) -> RateReport:
    """Least-squares decay fit of a positive scalar series.

    Exponential: log v against t; polynomial: log v against log <t>.  When a
    predicted exponent is supplied, the verdict compares the series against
    the predicted model anchored at the first window point (upper bound with
    relative slack tol); otherwise against its own fit.
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
        raise ValueError(f"need at least {MIN_FIT_POINTS} points in the fit window, got {len(ts)}")
    if ts[-1] <= ts[0]:
        raise ValueError("degenerate fit window")
    x = ts if model == "exponential" else 0.5 * np.log1p(ts**2)
    slope, _, r2 = line_fit(x, np.log(values))
    fitted = float(-slope)

    rate_for_bound = predicted if predicted is not None else fitted
    anchor = values[0] / _model_values(model, ts[:1], rate_for_bound)[0]
    envelope = anchor * _model_values(model, ts, rate_for_bound)
    respected = bool(np.all(values <= envelope * (1.0 + tol)))
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
    return Field(grid, vals / (np.sum(vals) * grid.cell_volume), tag="density")


def _slope_run(grid, cfg, scheme, t_window, norm_fn, n_samples=32):
    scheme = scheme or SchemeConfig()
    dt = scheme.dt if scheme.dt is not None else auto_dt(grid, cfg, scheme)
    t_lo, t_hi = t_window
    if t_lo < 10.0 * dt:
        raise ValueError(
            f"window start {t_lo:g} clipped by the CFL step {dt:g} (need >= 10 dt)"
        )
    times = np.geomspace(t_lo, t_hi, n_samples)
    tr = evolve(near_delta(grid), t_hi, cfg, scheme, output_times=times)
    ts = np.array(tr.times)
    vals = np.array([norm_fn(s) for s in tr.snapshots])
    keep = ts > 0
    ts, vals = ts[keep], vals[keep]
    _, uniq = np.unique(ts, return_index=True)
    return ts[uniq], vals[uniq]


def _steepest_window_fit(ts, vals, min_pts=10, keep_frac=0.85):
    """Log-log slope on the steepest contiguous stretch of the curve.

    The near-delta has an effective age ~ (2h)^alpha that flattens the early
    slope, and the norms saturate toward the equilibrium scale late; the
    asymptotic exponent lives between, where the local slope peaks.
    """
    lx, ly = np.log(ts), np.log(vals)
    local = -np.diff(ly) / np.diff(lx)
    smax = np.max(local)
    good = local >= keep_frac * smax
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
    if length + 1 < min_pts:
        sel = slice(None)  # fall back to the full window
    slope, _, r2 = line_fit(lx[sel], ly[sel])
    return float(-slope), r2, (float(ts[sel][0]), float(ts[sel][-1]))


def regularization_slope(
    grid: Grid,
    cfg: OperatorConfig,
    p: float = 2.0,
    k: float = 0.5,
    t_window: tuple[float, float] | None = None,
    scheme: SchemeConfig | None = None,
    rel_tol: float = 0.2,
) -> RateReport:
    """Slope of log ||f(t)||_{L^p(m)} against log t from a near-delta datum.

    The smoothing gain from mass data predicts the slope -d/(q alpha) with
    q the conjugate exponent; the verdict accepts within rel_tol relative.
    """
    q = p / (p - 1.0)
    predicted = grid.d / (q * cfg.alpha)
    if t_window is None:
        t_window = (max(0.01, 4.0 * (2.0 * grid.h) ** cfg.alpha), 0.6)
    ts, vals = _slope_run(
        grid, cfg, scheme, t_window, lambda s: weighted_norm(s, p, k)
    )
    fitted, r2, used = _steepest_window_fit(ts, vals)
    ok = abs(fitted - predicted) <= rel_tol * predicted
    return RateReport(
        model="polynomial",
        fitted=fitted,
        predicted=predicted,
        window=used,
        r2=r2,
        verdict="bound-respected" if ok else "violated",
        details={"p": p, "k": k, "norm": "Lp(m)"},
    )


def linf_regularization_slope(
    grid: Grid,
    cfg: OperatorConfig,
    k: float = 0.5,
    t_window: tuple[float, float] | None = None,
    scheme: SchemeConfig | None = None,
    rel_tol: float = 0.2,
) -> RateReport:
    """Slope of log ||f(t)||_{L^inf(m)} against log t; predicted -d/alpha.

    Valid for gamma <= 2 (bounded-density regularization needs subcritical
    confinement growth).
    """
    if cfg.gamma > 2.0:
        raise ValueError("L-infinity regularization requires gamma <= 2")
    predicted = grid.d / cfg.alpha
    if t_window is None:
        t_window = (max(0.01, 4.0 * (2.0 * grid.h) ** cfg.alpha), 0.6)
    ts, vals = _slope_run(
        grid, cfg, scheme, t_window, lambda s: weighted_norm(s, math.inf, k)
    )
    fitted, r2, used = _steepest_window_fit(ts, vals)
    ok = abs(fitted - predicted) <= rel_tol * predicted
    return RateReport(
        model="polynomial",
        fitted=fitted,
        predicted=predicted,
        window=used,
        r2=r2,
        verdict="bound-respected" if ok else "violated",
        details={"k": k, "norm": "Linf(m)"},
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
    scheme: SchemeConfig | None = None,
    f0: Field | None = None,
    tol: float = 0.1,
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

    if f0 is None:
        s0 = k_heavy + (grid.d + 1.0) / p
        vals = grid.bracket() ** (-s0)
        f0 = Field(grid, vals / (np.sum(vals) * grid.cell_volume), tag="density")
    times = np.unique(np.concatenate([np.geomspace(t0, horizon, 40), [horizon]]))
    tr = evolve(f0, horizon, cfg, scheme, output_times=times)
    ts = np.array(tr.times)
    diffs = [
        weighted_norm(Field(grid, s.values - steady.values), p, k_light)
        for s in tr.snapshots
    ]
    mask = ts >= t0 * 0.999
    rep = decay_fit(
        ts[mask], np.array(diffs)[mask], model="polynomial", predicted=predicted, tol=tol
    )
    rep.details.update({"k_heavy": k_heavy, "k_light": k_light, "p": p, "warnings": warnings})
    return rep


# ---------------------------------------------------------------------------
# dissipative-part semigroup decay
# ---------------------------------------------------------------------------


def weighted_opnorm(mat: np.ndarray, p: float, w_out: np.ndarray, w_in: np.ndarray,
                    iters: int = 40, seeds: int = 4, seed: int = 0) -> float:
    """Estimate ||diag(w_out) mat diag(1/w_in)||_p (Boyd power iteration).

    Exact for p = 1 (maximum weighted column sum); for p in (1, inf) the
    iteration converges to a stationary value that lower-bounds the norm,
    maximized over several starts.
    """
    a = (w_out[:, None] * mat) / w_in[None, :]
    if p == 1.0:
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if p == math.inf:
        return float(np.max(np.sum(np.abs(a), axis=1)))
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    n = a.shape[1]
    best = 0.0
    starts = [np.ones(n)] + [rng.standard_normal(n) for _ in range(seeds)]
    j0 = int(np.argmax(np.sum(np.abs(a), axis=0)))
    e = np.zeros(n)
    e[j0] = 1.0
    starts.append(e)
    for x in starts:
        x = x / np.linalg.norm(x, p)
        est_prev = 0.0
        for _ in range(iters):
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
    t_samples=None,
    tol: float = 0.1,
) -> RateReport:
    """Decay of ||e^{tB}||, B = Lambda - M chi_R, from L^p(m) to L^p(m^theta).

    beta = gamma - 2 >= 0: theta = 1 and exponential decay with positive
    rate; beta in (-alpha, 0): polynomial decay with exponent at least
    k(1-theta)/|beta| (checked with slack tol); theta = 1 additionally keeps
    the norms below 1 up to discretization slack.
    """
    grid = gm.grid
    beta = gm.cfg.gamma - 2.0
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if t_samples is None:
        t_samples = np.geomspace(0.25, 16.0, 12) if beta < 0 else np.linspace(0.5, 8.0, 10)
    chi = smooth_indicator(grid, R).ravel(order="C")
    b = gm.mat - M * np.diag(chi)
    m_in = weight_field(grid, k).values.ravel(order="C")
    m_out = m_in**theta
    norms = []
    e_step = None
    cur = np.eye(grid.size)
    ts = np.asarray(sorted(t_samples), dtype=float)
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
        ok = rep.fitted > 0.0
        return RateReport(
            model="exponential",
            fitted=rep.fitted,
            predicted=None,
            window=(float(ts[0]), float(ts[-1])),
            r2=rep.r2,
            verdict="bound-respected" if ok else "violated",
            details=details,
        )
    predicted = k * (1.0 - theta) / abs(beta)
    if theta == 1.0:
        ok = bool(np.all(norms <= 1.0 + tol))
        return RateReport(
            model="polynomial",
            fitted=0.0,
            predicted=0.0,
            window=(float(ts[0]), float(ts[-1])),
            r2=1.0,
            verdict="bound-respected" if ok else "violated",
            details=details,
        )
    rep = decay_fit(ts, norms, model="polynomial")
    ok = rep.fitted >= predicted - tol
    return RateReport(
        model="polynomial",
        fitted=rep.fitted,
        predicted=predicted,
        window=(float(ts[0]), float(ts[-1])),
        r2=rep.r2,
        verdict="bound-respected" if ok else "violated",
        details=details,
    )


# ---------------------------------------------------------------------------
# Harris machinery
# ---------------------------------------------------------------------------


def harris_seminorm(phi: np.ndarray, m_lam: np.ndarray) -> float:
    """sup over pairs of |phi(x) - phi(y)| / (m_lam(x) + m_lam(y))."""
    phi = phi.ravel(order="C")
    m_lam = m_lam.ravel(order="C")
    num = np.abs(phi[:, None] - phi[None, :])
    den = m_lam[:, None] + m_lam[None, :]
    return float(np.max(num / den))


def harris_bank(grid: Grid, k: float, lambda_w: float, count: int = 50, seed: int = 411) -> list:
    """Seeded observables: band-limited noise, +-m_lambda, coordinates."""
    rng = np.random.default_rng(seed)
    m_lam = 1.0 + lambda_w * grid.bracket() ** k
    out = [m_lam, -m_lam]
    for c in grid.coords():
        out.append(c.copy())
    L = grid.L
    while len(out) < count:
        if grid.d == 1:
            x = grid.axis
            prof = np.zeros_like(x)
            for mode in range(1, 11):
                prof += rng.standard_normal() * np.exp(-mode / 4.0) * np.cos(
                    np.pi * mode * x / L + rng.uniform(0, 2 * np.pi)
                )
        else:
            X, Y = grid.coords()
            prof = np.zeros_like(X)
            for m1 in range(1, 4):
                for m2 in range(1, 4):
                    prof += rng.standard_normal() * np.exp(-(m1 + m2) / 4.0) * np.cos(
                        np.pi * m1 * X / L + rng.uniform(0, 2 * np.pi)
                    ) * np.cos(np.pi * m2 * Y / L)
        out.append(prof)
    return out[:count]


def harris_contraction(
    gm: GeneratorMatrix,
    t: float,
    k: float,
    lambda_w: float,
    bank_size: int = 50,
    seed: int = 411,
) -> float:
    """Largest seminorm-contraction ratio of P_t over the observable bank.

    P_t = e^{t Lambda^*} acts on observables; the seminorm weights are
    m_lambda = 1 + lambda_w <x>^k.  The bank supremum lower-bounds the true
    operator seminorm, so a ratio < 1 is necessary-but-weaker evidence of
    contraction (recorded as such).
    """
    if gm.which != "adjoint":
        raise ValueError("harris contraction expects the adjoint generator")
    if gm.grid.size > 512:  # pairwise sup is O(N^2) per bank function
        raise ValueError("harris contraction restricted to n^d <= 512")
    grid = gm.grid
    pt = expm(gm.mat * t)
    m_lam = (1.0 + lambda_w * grid.bracket() ** k).ravel(order="C")
    worst = 0.0
    for phi in harris_bank(grid, k, lambda_w, count=bank_size, seed=seed):
        phi = phi.ravel(order="C")
        s0 = harris_seminorm(phi, m_lam)
        if s0 <= 0.0:
            continue
        s1 = harris_seminorm(pt @ phi, m_lam)
        worst = max(worst, s1 / s0)
    return worst


def seminorm_shift_identity(phi: np.ndarray, m_lam: np.ndarray) -> tuple[float, float]:
    """(pairwise seminorm, inf over shifts of the weighted sup norm).

    The two agree: the seminorm is the distance to constants in the
    m_lambda^{-1}-weighted sup norm.
    """
    s = harris_seminorm(phi, m_lam)
    phi = phi.ravel(order="C")
    m = m_lam.ravel(order="C")
    # minimize max |phi - c| / m over c: golden-section on the 1d convex fn
    lo, hi = float(phi.min()), float(phi.max())
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    f = lambda c: np.max(np.abs(phi - c) / m)
    a, b = lo, hi
    c1, c2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(200):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = f(c2)
        if b - a < 1e-12 * (1.0 + abs(lo) + abs(hi)):
            break
    return s, float(min(f1, f2))


def lyapunov_check(gm: GeneratorMatrix, t_samples, k: float) -> dict:
    """Drift condition: P_t m <= gamma_t m + c with gamma_t = e^{-at}, c = b/a.

    Fits (a, b) from the generator inequality Lambda^* m <= b - a m (a is 90%
    of the worst outer-region ratio, b the resulting envelope max) and then
    verifies the semigroup envelope nodewise at each sampled t.
    """
    if gm.which != "adjoint":
        raise ValueError("lyapunov check expects the adjoint generator")
    grid = gm.grid
    m = weight_field(grid, k).values.ravel(order="C")
    z = gm.mat @ m
    outer = (grid.radius2() >= (grid.L / 2.0) ** 2).ravel(order="C")
    a = 0.9 * float(np.min(-z[outer] / m[outer]))
    if a <= 0.0:
        raise ArithmeticError("no positive drift rate: Lambda^* m is not pushed down")
    b = float(np.max(z + a * m))
    c = b / a
    out = {"a": a, "b": b, "c": c, "gamma": {}, "envelope_ok": {}, "k": k}
    for t in np.atleast_1d(t_samples):
        y = expm(gm.mat * float(t)) @ m
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
