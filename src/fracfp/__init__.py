"""Numerical laboratory for the fractional Fokker-Planck equation

    d/dt f = Lap^(alpha/2) f + div(E f),   E = <x>^(gamma-2) x,

on truncated boxes in dimension 1 and 2: operator discretizations,
time integration, steady states, and quantitative convergence checks.
"""

from fracfp.grid import Field, Grid, build_grid, integrate, weight_field
from fracfp.operators import (
    ForceField,
    OperatorConfig,
    generator_apply,
    make_force,
    spectral_fraclap,
)
from fracfp.evolution import SchemeConfig, Trajectory, evolve

__all__ = [
    "Grid",
    "Field",
    "build_grid",
    "weight_field",
    "integrate",
    "OperatorConfig",
    "ForceField",
    "make_force",
    "spectral_fraclap",
    "generator_apply",
    "SchemeConfig",
    "Trajectory",
    "evolve",
]

__version__ = "0.1.0"
