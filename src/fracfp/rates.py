"""Convergence-rate measurements against predicted exponents, and the
Harris and Lyapunov checks of the dense semigroup.

All verdicts treat the predicted rates as upper bounds: decaying faster than
predicted is bound-respected, never a failure.  Fits start after the
transient (the rates suite samples from t = 1 on); they are asymptotic
statements.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from fracfp.grid import CheckFailure, Grid, line_fit, weight_field
from fracfp.operators import GeneratorMatrix, expm, readonly
from fracfp.evolution import evolve  # not called here: perfbench/spans.py LAYERS patches this binding
from fracfp.functionals import cosine_noise

__all__ = [
    "RateReport",
    "decay_fit",
    "harris_seminorm",
    "harris_bank",
    "harris_contraction",
    "lyapunov_check",
]


@dataclass
class RateReport:
    model: str  # {"exponential", "polynomial"}
    fitted: float  # decay rate a (exponential) or exponent rho (polynomial)
    predicted: float | None
    window: tuple[float, float]
    r2: float
    verdict: str  # {"bound-respected", "violated"}
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "bound-respected"


MIN_FIT_POINTS = 10  # fewest points decay_fit accepts in its window
ENVELOPE_TOL = 0.1  # relative slack of decay_fit's predicted envelope
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
        details={"n_points": int(len(ts))},
    )


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


def harris_bank(grid: Grid, k: float, lambda_w: float) -> list:
    """50 seeded observables: +-m_lambda, the coordinates, then band-limited
    noise drawn in order from one seeded stream."""
    rng = np.random.default_rng(411)
    m_lam = 1.0 + lambda_w * grid.bracket() ** k
    out = [m_lam, -m_lam]
    for c in grid.coords():
        out.append(c.copy())
    while len(out) < 50:
        # about 10 modes in all (10 in 1d, 3 x 3 in 2d), the phase on axis 0
        out.append(cosine_noise(grid, rng, round(10 ** (1 / grid.d)), 4.0, 0))
    return out


# generator -> {(t, key): sector of P_t}; an entry goes with its generator
_SEMIGROUPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _adjoint(gm: GeneratorMatrix, key: tuple) -> np.ndarray:
    """Lambda^* on the sector key of gm: G^-1 B^T G, B the sector matrix and
    G the diagonal of its orbit sizes (B^T when they are all equal)."""
    sizes = gm.maps[key][0].sizes
    return (gm.sector(key) * (sizes[:, None] / sizes)).T


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
               for key, maps in gm.maps.items() for omap in maps)


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
    even, (omap,) = next(iter(gm.maps.items()))
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


