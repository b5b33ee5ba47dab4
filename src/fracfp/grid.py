"""Uniform truncated tensor grids, Japanese-bracket weights and field containers.

The computational domain is the box [-L, L]^d (d = 1 or 2) discretized by n
cell-centered nodes per axis, x_i = -L + (i + 1/2) h with h = 2L/n.  Cell
centering keeps the node set symmetric under x -> -x (bit for bit: the
negative half of the axis is the mirrored positive half) and keeps the
singular jump kernel away from zero offsets.  The first half of each
reflected axis (``Grid.half``) holds the representative nodes of the
reflections' orbits; the orbit maps of operators.orbit_maps restrict fields
to them and lift them back.  All quadrature is the midpoint rule,
integral(u) ~ sum(u) * h^d.

Weights are powers of the Japanese bracket <x> = sqrt(1 + |x|^2).  Also here,
what every module shares: CheckFailure, the one exception a numerical check
raises (the CLI turns it into a FAIL record), the Gaussian probe density and
the least-squares line fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CheckFailure", "Grid", "Field", "build_grid", "weight_field", "integrate",
           "normalized_gaussian", "line_fit"]


class CheckFailure(ArithmeticError):
    """A numerical check failed: its name, the measured value against the
    tolerance, and for a time-stepping check the step it stopped at (with
    the step size dt, so t = step * dt).  The CLI writes it as one FAIL
    record; input errors stay ValueError."""

    def __init__(self, check: str, measured: float, tolerance: float,
                 step: int | None = None, dt: float | None = None):
        super().__init__(check, measured, tolerance, step, dt)
        self.check, self.measured, self.tolerance = check, float(measured), float(tolerance)
        self.step, self.dt = step, dt

    @property
    def t(self) -> float:
        return self.step * self.dt

    def __str__(self) -> str:
        where = "" if self.step is None else f" at step {self.step} (t={self.t:g})"
        return f"{self.check}: measured {self.measured:g}, tolerance {self.tolerance:g}{where}"


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
        """Node coordinates along one axis (identical for every axis): the
        positive half (j + 1/2) h and its mirror image, so axis[::-1] is
        exactly -axis."""
        pos = (np.arange(self.n // 2) + 0.5) * self.h
        return np.concatenate([-pos[::-1], pos])

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    def half(self, axes) -> tuple:
        """Index of the first half of each axis in axes (n is even), every
        other axis whole: a field's (or a multiplier's) part on the
        half-grid."""
        return tuple(slice(self.n // 2) if a in axes else slice(None) for a in range(self.d))

    def half_shape(self, axes) -> tuple[int, ...]:
        """The shape of a field's part on the half-grid of axes (``half``)."""
        return tuple(self.n // 2 if a in axes else self.n for a in range(self.d))

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

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


def build_grid(d: int, L: float, n: int) -> Grid:
    """Construct a uniform cell-centered grid on [-L, L]^d.

    n must be a power of two with n >= 8 (the spectral operator relies on
    power-of-two transforms), L > 0 finite and d in {1, 2}.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if not L > 0:
        raise ValueError(f"box half-width must be positive, got {L}")
    if not np.isfinite(L):
        raise ValueError(f"L = {L} must be finite: the grid spacing is 2L / n")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"nodes per axis must be a power of two >= 8, got {n}")
    return Grid(d=d, L=float(L), n=int(n))


def weight_field(grid: Grid, k: float) -> Field:
    """The weight m(x) = <x>^k sampled on the grid."""
    return Field(grid, grid.bracket() ** float(k))


def integrate(f: Field) -> float:
    """Midpoint-rule integral: sum of values times the cell volume."""
    return float(np.sum(f.values) * f.grid.cell_volume)


def normalized_gaussian(grid: Grid) -> Field:
    """The probe density exp(-|x|^2), normalized to unit mass."""
    vals = np.exp(-grid.radius2())
    return Field(grid, vals / (np.sum(vals) * grid.cell_volume))


def line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ slope x + intercept: (slope, intercept, r^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return slope, intercept, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
