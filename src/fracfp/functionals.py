"""Weighted norms, the carre du champ, dissipation functionals and inequality checks.

All bilinear jump functionals share the conservative pair weights of the
operator module, so the discrete product rule

    I(uv) = u I(v) + v I(u) + 2 G(u, v)

and the integration by parts <I(u), v> = -int G(u, v) are exact algebraic
identities of the discretization (up to roundoff), while each side is
computed through its own code path.

Signed powers follow the convention x^a := |x|^(a-1) x throughout, including
inside the p-dissipation for sign-changing fields.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from fracfp.grid import Field, Grid, integrate, weight_field
from fracfp.operators import (
    JumpKernel,
    OperatorConfig,
    _gl_cell_integrals_2d,
    _hat_weights,
    _theta_quad,
    full_kernel,
    get_stencil,
    norm_constant,
)

__all__ = [
    "weighted_norm",
    "signed_power",
    "carre_du_champ",
    "p_dissipation_field",
    "p_dissipation",
    "sobolev_seminorm",
    "confinement_profile",
    "threshold_p_gamma",
    "relative_entropy",
    "poincare_wirtinger_check",
    "local_mean_control_check",
    "gp_equivalence_ratios",
    "nash_chain_check",
    "field_bank",
]


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


def _pair_ops(grid: Grid, alpha: float):
    return get_stencil(grid, full_kernel(alpha, grid.d))


def carre_du_champ(u: Field, v: Field, cfg: OperatorConfig) -> Field:
    """G(u, v)(x) = int kappa/2 (u* - u)(v* - v), conservative in-box pairs.

    Expanded as (P(uv) - u P(v) - v P(u) + uv deg)/2 through the pair-sum
    operator P, which is algebraically the pairwise double sum.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    st = _pair_ops(u.grid, cfg.alpha)
    uu, vv = u.values, v.values
    out = 0.5 * (
        st.pair_sum(uu * vv)
        - uu * st.pair_sum(vv)
        - vv * st.pair_sum(uu)
        + uu * vv * st.deg_in
    )
    return u.with_values(out)


def p_dissipation_field(u: Field, p: float, cfg: OperatorConfig) -> Field:
    """D_p(u) = G(u, u^(p-1)) nodewise (nonnegative up to roundoff)."""
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    up = u.with_values(signed_power(u.values, p - 1.0))
    return carre_du_champ(u, up, cfg)


def p_dissipation(u: Field, p: float, cfg: OperatorConfig) -> float:
    """int D_p(u): zero iff u is constant on the grid, else > 0."""
    return integrate(p_dissipation_field(u, p, cfg))


# ---------------------------------------------------------------------------
# fractional Sobolev seminorms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _seminorm_weights(grid: Grid, s: float, p: float):
    """Offset weights for iint |u(y)-u(x)|^p / |y-x|^{d+ps}, mollified by |z|^p.

    The seminorm constant c_{s,d} is fixed to c_{2s,d}/2, the unique choice
    consistent with Parseval at p = 2 (|u|_{H^s}^2 = int |2 pi xi|^{2s}|u^|^2).
    """
    c = norm_constant(2.0 * s, grid.d) / 2.0
    n, h = grid.n, grid.h
    # kernel |z|^{-d-ps}: reuse the moment machinery with alpha_eff = p s
    ker = JumpKernel(c=c, alpha=p * s, d=grid.d)
    if grid.d == 1:
        # hat-weight product integration of |u(x+z)-u(x)|^p / z^p against
        # kappa z^p, as in the operator stencil
        gw = _hat_weights(ker, n, h, p)
        return gw[1:] / (np.arange(1, n + 1) * h) ** p, gw[0]
    off = np.arange(-n, n + 1) * h
    c1, c2 = np.meshgrid(off, off, indexing="ij")
    m0, mp = _gl_cell_integrals_2d(ker, c1, c2, h, moment=p)
    rr = np.hypot(c1, c2)
    rr[n, n] = 1.0
    w = mp / rr**p
    w[n, n] = 0.0

    def self_rad(t):
        rmax = (h / 2) / np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t)))
        return ker.moment(0.0, rmax, p + 1)

    selfw = _theta_quad(self_rad, 0.0, 2.0 * math.pi)
    return w, selfw


def sobolev_seminorm(
    u: Field, s: float, p: float = 2.0, include_exterior: bool = False
) -> float:
    """|u|_{W^{s,p}} on in-box pairs, with the self-cell carried by |grad u|^p.

    With include_exterior the pairs with one point outside the box are added
    (the field is extended by zero there), giving the whole-space seminorm of
    the extension; constants then pick up their boundary jump, so the default
    keeps in-box pairs only (zero iff constant).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    grid = u.grid
    w, selfw = _seminorm_weights(grid, float(s), float(p))
    v = u.values
    vol = grid.cell_volume
    total = 0.0
    if include_exterior:
        ker = JumpKernel(
            c=norm_constant(2.0 * s, grid.d) / 2.0, alpha=p * s, d=grid.d
        )
        ext = get_stencil(grid, ker).ext_mass
        total += 2.0 * float(np.sum(np.abs(v) ** p * ext)) * vol
    if grid.d == 1:
        n = grid.n
        for j in range(1, n):
            d = np.abs(v[j:] - v[:-j]) ** p
            total += 2.0 * w[j - 1] * float(np.sum(d)) * vol
        gradp = np.abs(np.gradient(v, grid.h)) ** p
        total += 2.0 * selfw * float(np.sum(gradp)) * vol
    else:
        # sum_x sum_offsets w_J |u(x+z_J) - u(x)|^p by direct offset loop is
        # O(n^4); the |.|^p prevents a convolution shortcut, so keep n small
        n = grid.n
        if n > 96:
            raise ValueError("2d seminorm restricted to n <= 96 per axis")
        for j1 in range(-n + 1, n):
            for j2 in range(-n + 1, n):
                if j1 == 0 and j2 == 0:
                    continue
                ww = w[n + j1, n + j2]
                if ww == 0.0:
                    continue
                s1a = slice(max(0, j1), n + min(0, j1))
                s1b = slice(max(0, -j1), n + min(0, -j1))
                s2a = slice(max(0, j2), n + min(0, j2))
                s2b = slice(max(0, -j2), n + min(0, -j2))
                d = np.abs(v[s1a, s2a] - v[s1b, s2b]) ** p
                total += ww * float(np.sum(d)) * vol
        g1, g2 = np.gradient(v, grid.h)
        total += selfw * float(np.sum(np.hypot(g1, g2) ** p)) * vol
    return float(total ** (1.0 / p))


# ---------------------------------------------------------------------------
# confinement profile
# ---------------------------------------------------------------------------


def threshold_p_gamma(k: float, gamma: float, d: int) -> float:
    """Admissible-exponent threshold 1 + k/(d + gamma - 2 - k) for gamma > 2."""
    if gamma <= 2:
        return math.inf
    return 1.0 + k / (d + gamma - 2.0 - k)


def confinement_profile(grid: Grid, cfg: OperatorConfig, k: float, p: float):
    """phi_{m,p} = div(E)/q - E . grad(m)/m nodewise, plus the drift envelope.

    div(E) uses centered differences; grad(m)/m = k x / <x>^2 is analytic.
    For gamma > 2 also fits (a, b) with phi <= b 1_Omega - a <x>^(gamma-2)
    and reports the threshold p_gamma; p >= p_gamma is flagged.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    q = p / (p - 1.0)
    br2 = 1.0 + grid.radius2()
    coords = grid.coords()
    e = cfg.force_field().components(coords)
    div_e = sum(np.gradient(ea, grid.h, axis=a) for a, ea in enumerate(e))
    e_dot_x = sum(ea * xa for ea, xa in zip(e, coords))
    phi = div_e / q - k * e_dot_x / br2
    out = {"phi": Field(grid, phi), "p_gamma": threshold_p_gamma(k, cfg.gamma, grid.d)}
    out["p_admissible"] = p < out["p_gamma"]
    if cfg.gamma > 2:
        decay = np.sqrt(br2) ** (cfg.gamma - 2.0)
        outer = grid.radius2() > (grid.L / 4.0) ** 2
        a = float(np.min(-phi[outer] / decay[outer]))
        b = float(np.max(phi + max(a, 0.0) * decay))
        out["envelope"] = (a, b)
    return out


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------


def relative_entropy(f: Field, ref: Field, p: float, cfg: OperatorConfig):
    """(int |f|^p F^(1-p), -p int D_p(f/F) F): value and dissipation.

    The dissipation is nonpositive for every input pair with F > 0 (each pair
    term of D_p is a product of increments with matching monotonicity).
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    fv, rv = f.values, ref.values
    if np.min(rv) <= 0.0:
        raise ValueError("reference state must be strictly positive")
    vol = f.grid.cell_volume
    value = float(np.sum(np.abs(fv) ** p * rv ** (1.0 - p)) * vol)
    h = f.with_values(fv / rv)
    dp = p_dissipation_field(h, p, cfg).values
    dissipation = float(-p * np.sum(dp * rv) * vol)
    return value, dissipation


# ---------------------------------------------------------------------------
# fractional Poincare-Wirtinger checks
# ---------------------------------------------------------------------------


def _omega_mask(grid: Grid, radius: float) -> np.ndarray:
    return grid.radius2() <= radius**2


def local_mean_control_check(u: Field, mu: Field, radius: float, p: float, cfg: OperatorConfig):
    """0 <= int_Om u^(p-1)(u - <u>_mu,Om) mu <= C int_Om D_p(u) mu.

    C = diam(Om)^(d+alpha) ||mu||_inf(Om) / (c_{alpha,d} mu(Om)); the kernel
    constant enters because D_p carries the normalized kernel.
    """
    grid = u.grid
    om = _omega_mask(grid, radius)
    vol = grid.cell_volume
    muv = mu.values
    mu_om = float(np.sum(muv[om]) * vol)
    if mu_om <= 0.0:
        raise ValueError("mu has no mass on Omega")
    mean = float(np.sum((u.values * muv)[om]) * vol) / mu_om
    middle = float(
        np.sum((signed_power(u.values, p - 1.0) * (u.values - mean) * muv)[om]) * vol
    )
    dp = p_dissipation_field(u, p, cfg).values
    c_pw = _pw_constant(grid, om, muv, mu_om, cfg.alpha)
    rhs = c_pw * float(np.sum((dp * muv)[om]) * vol)
    return {"middle": middle, "rhs": rhs, "c_pw": c_pw, "passes": -1e-12 <= middle <= rhs * (1 + 1e-9) + 1e-15}


def _pw_constant(grid: Grid, om: np.ndarray, muv: np.ndarray, mu_om: float, alpha: float) -> float:
    """C_PW = diam(Om)^(d+alpha) ||mu||_inf(Om) / (c_{alpha,d} mu(Om))."""
    diam = float(reduce(np.hypot, [c[om].max() - c[om].min() for c in grid.coords()]))
    return diam ** (grid.d + alpha) * float(np.max(muv[om])) / (norm_constant(alpha, grid.d) * mu_om)


def poincare_wirtinger_check(
    v: Field, mu: Field, radius: float, p: float, cfg: OperatorConfig, tol: float = 1e-9
):
    """int_Om |v|^p mu <= C_PW int_Om D_p(v) mu + eps_Om ||v||^(p-1)_Om ||v||_Om^c.

    Requires the global mean <v>_mu = 0; eps_Om = mu(Om^c)/mu(Om).
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
        "passes": lhs <= rhs * (1.0 + tol) + 1e-15,
    }


# ---------------------------------------------------------------------------
# equivalence brackets and the Nash chain
# ---------------------------------------------------------------------------


def gp_equivalence_ratios(u: Field, p: float, cfg: OperatorConfig, floor: float = 1e-10):
    """Nodewise ratio brackets of the three D_p-equivalent expressions.

    Compares D_p(u) with (1/p) I(|u|^p) - u^(p-1) I(u), with
    (1/q) I(|u|^p) - u I(u^(p-1)), and with the squared-increment form
    G(u^(p/2), u^(p/2)), at nodes where D_p(u) > floor * max D_p(u).
    """
    st = _pair_ops(u.grid, cfg.alpha)

    def icons(vals):
        return st.apply(vals, "conservative")

    q = p / (p - 1.0)
    uu = u.values
    dp = p_dissipation_field(u, p, cfg).values
    absu_p = np.abs(uu) ** p
    e1 = icons(absu_p) / p - signed_power(uu, p - 1.0) * icons(uu)
    e2 = icons(absu_p) / q - uu * icons(signed_power(uu, p - 1.0))
    half = signed_power(uu, p / 2.0)
    e3 = carre_du_champ(u.with_values(half), u.with_values(half), cfg).values
    mask = dp > floor * np.max(dp)
    out = {}
    for name, e in (("value_vs_power", e1), ("dual_vs_power", e2), ("squared_half", e3)):
        r = e[mask] / dp[mask]
        out[name] = (float(np.min(r)), float(np.max(r)))
    return out


def nash_chain_check(bank, p: float, k: float, cfg: OperatorConfig):
    """Uniform constants for int I(u) u^(p-1) m^p <= C ||u||^p - c N(u).

    N(u) = ||u||_{L^p(m)}^{p + q alpha/d} ||u||_{L^1(m)}^{-q alpha/d}.  Fits
    C as the largest linear-growth ratio over the bank plus margin, then
    reports the worst-case c; existence (c > 0 across the whole bank) is the
    pass criterion.
    """
    q = p / (p - 1.0)
    d = bank[0].grid.d
    st = _pair_ops(bank[0].grid, cfg.alpha)
    mw = weight_field(bank[0].grid, k).values
    vol = bank[0].grid.cell_volume
    rows = []
    for u in bank:
        uu = u.values
        lhs = float(
            np.sum(st.apply(uu, "conservative") * signed_power(uu, p - 1.0) * mw**p) * vol
        )
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
            if grid.d == 1:
                prof = np.exp(-((grid.axis - shift) ** 2) / s**2)
            else:
                X, Y = grid.coords()
                prof = np.exp(-(((X - shift) ** 2) + Y**2) / s**2)
        elif kind == 1:
            w = L / 3.0 + (i % 4) * L / 10.0
            prof = np.clip(1.0 - r2 / w**2, 0.0, None) ** 3
        else:
            envelope = np.exp(-r2 / (L / 3.0) ** 2)
            if grid.d == 1:
                x = grid.axis
                prof = np.zeros_like(x)
                for mode in range(1, 9):
                    amp = rng.standard_normal() * np.exp(-mode / 3.0)
                    phase = rng.uniform(0, 2 * np.pi)
                    prof += amp * np.cos(np.pi * mode * x / L + phase)
                prof *= envelope
            else:
                X, Y = grid.coords()
                prof = np.zeros_like(X)
                for m1 in range(1, 4):
                    for m2 in range(1, 4):
                        amp = rng.standard_normal() * np.exp(-(m1 + m2) / 3.0)
                        prof += amp * np.cos(np.pi * m1 * X / L) * np.cos(
                            np.pi * m2 * Y / L + rng.uniform(0, 2 * np.pi)
                        )
                prof *= envelope
        top = np.max(np.abs(prof))
        fields.append(Field(grid, prof / top if top > 0 else prof))
    return fields
