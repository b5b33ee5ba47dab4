"""Weighted norms, the carre du champ, dissipation functionals and inequality checks.

The carre du champ, the dissipations and the inequality checks apply the
generator's jump J: the periodic quadrature circulant, fourier_multiply by
quadrature_symbol (what jump_apply evaluates for method "quadrature").  Its
off-diagonal weights are nonnegative and its rows and columns sum to zero,
so G(u, v) = (J(uv) - u J(v) - v J(u))/2 is the pairwise sum
1/2 sum_y c(x - y)(u(y) - u(x))(v(y) - v(x)), and the discrete product rule

    J(uv) = u J(v) + v J(u) + 2 G(u, v)

and the integration by parts <J(u), v> = -int G(u, v) are exact algebraic
identities of the discretization (up to roundoff).

Signed powers follow the convention x^a := |x|^(a-1) x throughout, including
inside the p-dissipation for sign-changing fields.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from fracfp.grid import Field, Grid, weight_field
from fracfp.operators import (
    OperatorConfig,
    fourier_multiply,
    get_stencil,  # not called here: perfbench/spans.py LAYERS patches this binding
    norm_constant,
    quadrature_symbol,
)

__all__ = [
    "weighted_norm",
    "signed_power",
    "carre_du_champ",
    "p_dissipation_field",
    "threshold_p_gamma",
    "poincare_wirtinger_check",
    "gp_equivalence_ratios",
    "nash_chain_check",
    "field_bank",
]

PW_REL_TOL = 1e-9  # relative slack of the poincare_wirtinger_check verdict
GP_FLOOR = 1e-10  # gp_equivalence_ratios skips nodes with D_p below this times max D_p


def weighted_norm(f: Field, p: float, k: float = 0.0) -> float:
    """||u||_{L^p(m)} = ||u m||_{L^p} with m = <x>^k; p = inf gives max |u m|."""
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    wm = f.values * f.grid.bracket() ** k
    if p == math.inf:
        return float(np.max(np.abs(wm)))
    return float((np.sum(np.abs(wm) ** p) * f.grid.cell_volume) ** (1.0 / p))


def signed_power(x: np.ndarray, a: float) -> np.ndarray:
    """x^a := |x|^(a-1) x (odd extension of the power to the real line)."""
    return np.sign(x) * np.abs(x) ** a


def _jump(values: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """J(values), J the generator's periodic quadrature circulant."""
    return fourier_multiply(values, quadrature_symbol(grid, float(alpha)))


def carre_du_champ(u: Field, v: Field, cfg: OperatorConfig) -> Field:
    """G(u, v) = (J(uv) - u J(v) - v J(u))/2 (Bakry, Gentil and Ledoux 2014,
    ch. 1), J the generator's periodic jump: nodewise the pair sum
    1/2 sum_y c(x - y)(u(y) - u(x))(v(y) - v(x)) over its circulant row c."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    g, a = u.grid, cfg.alpha
    uu, vv = u.values, v.values
    ju, jv = _jump(uu, g, a), _jump(vv, g, a)
    return u.with_values(0.5 * (_jump(uu * vv, g, a) - uu * jv - vv * ju))


def p_dissipation_field(u: Field, p: float, cfg: OperatorConfig) -> Field:
    """D_p(u) = G(u, u^(p-1)) nodewise (nonnegative up to roundoff)."""
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    up = u.with_values(signed_power(u.values, p - 1.0))
    return carre_du_champ(u, up, cfg)


# ---------------------------------------------------------------------------
# admissible-exponent threshold
# ---------------------------------------------------------------------------


def threshold_p_gamma(k: float, gamma: float, d: int) -> float:
    """Admissible-exponent threshold 1 + k/(d + gamma - 2 - k) for gamma > 2."""
    if gamma <= 2:
        return math.inf
    return 1.0 + k / (d + gamma - 2.0 - k)


# ---------------------------------------------------------------------------
# fractional Poincare-Wirtinger checks
# ---------------------------------------------------------------------------


def _omega_mask(grid: Grid, radius: float) -> np.ndarray:
    return grid.radius2() <= radius**2


def _pw_constant(grid: Grid, om: np.ndarray, muv: np.ndarray, mu_om: float, alpha: float) -> float:
    """C_PW = diam(Om)^(d+alpha) ||mu||_inf(Om) / (c_{alpha,d} mu(Om))."""
    diam = float(reduce(np.hypot, [c[om].max() - c[om].min() for c in grid.coords()]))
    return diam ** (grid.d + alpha) * float(np.max(muv[om])) / (norm_constant(alpha, grid.d) * mu_om)


def poincare_wirtinger_check(v: Field, mu: Field, radius: float, p: float, cfg: OperatorConfig):
    """int_Om |v|^p mu <= C_PW int_Om D_p(v) mu + eps_Om ||v||^(p-1)_Om ||v||_Om^c.

    Requires the global mean <v>_mu = 0; eps_Om = mu(Om^c)/mu(Om).  Passes
    within relative slack PW_REL_TOL.
    """
    grid = v.grid
    om = _omega_mask(grid, radius)
    vol = grid.cell_volume
    muv = mu.values
    mu_om = float(np.sum(muv[om]) * vol)
    mu_out = float(np.sum(muv[~om]) * vol)
    if mu_om <= 0.0:
        raise ValueError("mu has no mass on Omega")
    mean = float(np.sum(v.values * muv) * vol) / float(np.sum(muv) * vol)
    if abs(mean) > 1e-8 * (1.0 + weighted_norm(v, math.inf)):
        raise ValueError("v must have zero mu-mean on the whole grid")
    lhs = float(np.sum((np.abs(v.values) ** p * muv)[om]) * vol)
    dp = p_dissipation_field(v, p, cfg).values
    c_pw = _pw_constant(grid, om, muv, mu_om, cfg.alpha)
    eps_om = mu_out / mu_om
    norm_in = float(np.sum((np.abs(v.values) ** p * muv)[om]) * vol) ** ((p - 1.0) / p)
    norm_out = float(np.sum((np.abs(v.values) ** p * muv)[~om]) * vol) ** (1.0 / p)
    rhs = c_pw * float(np.sum((dp * muv)[om]) * vol) + eps_om * norm_in * norm_out
    return {
        "lhs": lhs,
        "rhs": rhs,
        "c_pw": c_pw,
        "eps_omega": eps_om,
        "passes": lhs <= rhs * (1.0 + PW_REL_TOL) + 1e-15,
    }


# ---------------------------------------------------------------------------
# equivalence brackets and the Nash chain
# ---------------------------------------------------------------------------


def gp_equivalence_ratios(u: Field, p: float, cfg: OperatorConfig):
    """Nodewise ratio brackets of the three D_p-equivalent expressions.

    Compares D_p(u) with (1/p) J(|u|^p) - u^(p-1) J(u), with
    (1/q) J(|u|^p) - u J(u^(p-1)), and with the squared-increment form
    G(u^(p/2), u^(p/2)), at nodes where D_p(u) > GP_FLOOR * max D_p(u).
    """
    q = p / (p - 1.0)
    g, a = u.grid, cfg.alpha
    uu = u.values
    dp = p_dissipation_field(u, p, cfg).values
    j_abs = _jump(np.abs(uu) ** p, g, a)
    e1 = j_abs / p - signed_power(uu, p - 1.0) * _jump(uu, g, a)
    e2 = j_abs / q - uu * _jump(signed_power(uu, p - 1.0), g, a)
    half = signed_power(uu, p / 2.0)
    e3 = carre_du_champ(u.with_values(half), u.with_values(half), cfg).values
    mask = dp > GP_FLOOR * np.max(dp)
    out = {}
    for name, e in (("value_vs_power", e1), ("dual_vs_power", e2), ("squared_half", e3)):
        r = e[mask] / dp[mask]
        out[name] = (float(np.min(r)), float(np.max(r)))
    return out


def nash_chain_check(bank, p: float, k: float, cfg: OperatorConfig):
    """Uniform constants for int J(u) u^(p-1) m^p <= C ||u||^p - c N(u).

    N(u) = ||u||_{L^p(m)}^{p + q alpha/d} ||u||_{L^1(m)}^{-q alpha/d}.  Fits
    C as the largest linear-growth ratio over the bank plus margin, then
    reports the worst-case c; existence (c > 0 across the whole bank) is the
    pass criterion.
    """
    q = p / (p - 1.0)
    grid = bank[0].grid
    d = grid.d
    mw = weight_field(grid, k).values
    vol = grid.cell_volume
    rows = []
    for u in bank:
        uu = u.values
        lhs = float(np.sum(_jump(uu, grid, cfg.alpha) * signed_power(uu, p - 1.0) * mw**p) * vol)
        xp = weighted_norm(u, p, k) ** p
        nash = weighted_norm(u, p, k) ** (p + q * cfg.alpha / d) * weighted_norm(
            u, 1, k
        ) ** (-q * cfg.alpha / d)
        rows.append((lhs, xp, nash))
    c_lin = max(0.0, max(lhs / xp for lhs, xp, _ in rows))
    c_big = 2.0 * c_lin + 1.0
    c_small = min((c_big * xp - lhs) / nash for lhs, xp, nash in rows)
    return {
        "C": c_big,
        "c": c_small,
        "passes": c_small > 0.0,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# reproducible test bank
# ---------------------------------------------------------------------------


def cosine_noise(grid: Grid, rng: np.random.Generator, modes: int, decay: float,
                 phase_axis: int) -> np.ndarray:
    """Seeded band-limited noise: the sum over mode tuples m in {1..modes}^d
    of N(0,1) e^{-|m|_1/decay} prod_a cos(pi m_a x_a / L), a U(0, 2 pi)
    phase added on axis phase_axis (the normal draw first, then the phase)."""
    xs = grid.coords()
    prof = np.zeros(grid.shape)
    for m in itertools.product(range(1, modes + 1), repeat=grid.d):
        term = rng.standard_normal() * np.exp(-sum(m) / decay)
        phase = rng.uniform(0, 2 * np.pi)
        for a, (ma, x) in enumerate(zip(m, xs)):
            arg = np.pi * ma * x / grid.L
            term = term * np.cos(arg + phase if a == phase_axis else arg)
        prof += term
    return prof


def field_bank(grid: Grid, count: int = 20, seed: int = 20260810) -> list:
    """Seeded bank of smooth decaying fields: Gaussians, bumps, band-limited noise."""
    rng = np.random.default_rng(seed)
    r2 = grid.radius2()
    L = grid.L
    fields = []
    widths = [0.5, 1.0, 2.0, 4.0]
    for i in range(count):
        kind = i % 3
        if kind == 0:
            s = widths[(i // 3) % len(widths)]
            shift = (i % 5 - 2) * L / 10.0
            x0, *rest = grid.coords()
            prof = np.exp(-sum((x**2 for x in rest), (x0 - shift) ** 2) / s**2)
        elif kind == 1:
            w = L / 3.0 + (i % 4) * L / 10.0
            prof = np.clip(1.0 - r2 / w**2, 0.0, None) ** 3
        else:
            # about 8 modes in all (8 in 1d, 3 x 3 in 2d), the phase on the last axis
            prof = cosine_noise(grid, rng, round(8 ** (1 / grid.d)), 3.0, grid.d - 1)
            prof *= np.exp(-r2 / (L / 3.0) ** 2)
        top = np.max(np.abs(prof))
        fields.append(Field(grid, prof / top if top > 0 else prof))
    return fields
