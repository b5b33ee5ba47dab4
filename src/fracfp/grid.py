"""Uniform truncated tensor grids, Japanese-bracket weights and field containers.

The computational domain is the box [-L, L]^d (d = 1 or 2) discretized by n
cell-centered nodes per axis, x_i = -L + (i + 1/2) h with h = 2L/n.  Cell
centering keeps the node set symmetric under x -> -x and keeps the singular
jump kernel away from zero offsets.  All quadrature is the midpoint rule,
integral(u) ~ sum(u) * h^d.

Weights are powers of the Japanese bracket <x> = sqrt(1 + |x|^2).  Also here,
two helpers shared across modules: the smoothstep radial cutoff and the
least-squares line fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["Grid", "Field", "build_grid", "weight_field", "integrate",
           "smooth_indicator", "line_fit"]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-L, L]^d."""

    d: int
    L: float
    n: int

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def axis(self) -> np.ndarray:
        """Node coordinates along one axis (identical for every axis)."""
        return -self.L + (np.arange(self.n) + 0.5) * self.h

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays, one per axis, each shaped like a field."""
        return tuple(np.meshgrid(*[self.axis] * self.d, indexing="ij"))

    def nodes(self) -> np.ndarray:
        """All node coordinates as an (n^d, d) array in row-major order."""
        cs = self.coords()
        return np.stack([c.ravel(order="C") for c in cs], axis=-1)

    def radius2(self) -> np.ndarray:
        """|x|^2 at every node, field-shaped."""
        r2 = np.zeros(self.shape)
        for c in self.coords():
            r2 = r2 + c**2
        return r2

    def bracket(self) -> np.ndarray:
        """<x> = sqrt(1 + |x|^2) at every node, field-shaped."""
        return np.sqrt(1.0 + self.radius2())


@dataclass(frozen=True)
class Field:
    """Real values sampled at the nodes of a grid.

    Construction checks the shape and finiteness, so Fields are built at API
    boundaries; inner loops (the time stepper) work on the raw value arrays.
    """

    grid: Grid
    values: np.ndarray
    tag: str = field(default="", compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray, tag: str | None = None) -> "Field":
        return Field(self.grid, values, self.tag if tag is None else tag)

    def as_density(self, tol_pos: float = 0.0) -> "Field":
        """Tag as a density, checking near-nonnegativity and finite mass."""
        lo = float(self.values.min())
        if lo < -tol_pos:
            raise ValueError(f"density has negative values down to {lo:g}")
        return replace(self, tag="density")


def build_grid(d: int, L: float, n: int) -> Grid:
    """Construct a uniform cell-centered grid on [-L, L]^d.

    n must be a power of two with n >= 8 (the spectral operator relies on
    power-of-two transforms), L > 0 and d in {1, 2}.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if not L > 0:
        raise ValueError(f"box half-width must be positive, got {L}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"nodes per axis must be a power of two >= 8, got {n}")
    return Grid(d=d, L=float(L), n=int(n))


def weight_field(grid: Grid, k: float) -> Field:
    """The weight m(x) = <x>^k sampled on the grid."""
    return Field(grid, grid.bracket() ** float(k))


def integrate(f: Field) -> float:
    """Midpoint-rule integral: sum of values times the cell volume."""
    return float(np.sum(f.values) * f.grid.cell_volume)


def smooth_indicator(grid: Grid, R: float) -> np.ndarray:
    """Smoothstep radial cutoff with 1_{B_R} <= chi <= 1_{B_2R}."""
    s = np.clip((np.sqrt(grid.radius2()) - R) / R, 0.0, 1.0)
    return 1.0 - (3.0 * s**2 - 2.0 * s**3)


def line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ slope x + intercept: (slope, intercept, r^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return slope, intercept, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
