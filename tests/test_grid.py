import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from fracfp.grid import build_grid, integrate, normalized_gaussian, weight_field, Field
from fracfp.operators import orbit_maps


def test_build_grid_basic_1d():
    g = build_grid(1, 1.0, 8)
    assert g.h == 0.25
    assert g.axis[0] == pytest.approx(-0.875)
    assert g.cell_volume * g.n == pytest.approx(2.0)


# non-dyadic half-widths: -L + (i + 1/2) h is not odd in the last ulp there
@pytest.mark.parametrize("d, L, n", [(1, 7.3, 64), (1, np.pi, 64), (2, 3.3, 32), (2, 0.7, 8)])
def test_axis_is_exactly_odd(d, L, n):
    g = build_grid(d, L, n)
    x = g.axis
    assert np.array_equal(x[::-1], -x)
    assert np.max(np.abs(x - (-L + (np.arange(n) + 0.5) * g.h))) <= 4 * np.spacing(L)
    # so the probe density is even bit for bit, and its half, the
    # coefficients of the even orbit map, lifts to it
    f = normalized_gaussian(g).values
    for a in range(d):
        assert np.array_equal(f, np.flip(f, a))
    axes = tuple(range(d))
    (even,) = next(iter(orbit_maps(g, axes).values()))
    assert np.array_equal(even.restrict(f), f[g.half(axes)].ravel())
    assert np.array_equal(even.lift(f[g.half(axes)]), f)


def test_build_grid_2d_cell_volume():
    g = build_grid(2, 10.0, 64)
    assert g.cell_volume == pytest.approx((20.0 / 64) ** 2)
    assert g.cell_volume == pytest.approx(0.09765625)
    assert g.cell_volume * g.n**2 == pytest.approx(20.0**2)


def test_grid_symmetry_pairing():
    g = build_grid(1, 20.0, 1024)
    x = g.axis
    assert len(x) == 1024
    assert np.allclose(x, -x[::-1], atol=0.0)


@pytest.mark.parametrize(
    "d,L,n",
    [(3, 1.0, 8), (0, 1.0, 8), (1, -1.0, 8), (1, 0.0, 8), (1, 1.0, 7), (1, 1.0, 4), (1, 1.0, 48)],
)
def test_build_grid_rejects(d, L, n):
    with pytest.raises(ValueError):
        build_grid(d, L, n)


def test_weight_field_values():
    g = build_grid(1, 20.0, 256)
    w = weight_field(g, 0.5)
    # <0> = 1 exactly at ... there is no node at 0 (cell-centered), so check formula
    x = g.axis
    assert np.allclose(w.values, (1 + x**2) ** 0.25)
    # <sqrt(3)> = 2, so k = 0.5 gives sqrt(2)
    assert float(np.interp(np.sqrt(3.0), x, w.values)) == pytest.approx(
        np.sqrt(2.0), rel=1e-4
    )


def test_weight_field_at_origin_2d():
    g = build_grid(2, 5.0, 16)
    w = weight_field(g, 3.7)
    assert w.values.min() >= 1.0  # m(x) >= m(0) = 1 for k > 0
    # symmetry m(x) = m(-x)
    assert np.allclose(w.values, w.values[::-1, ::-1])


def test_weight_tail_template():
    # k = -(d+alpha) with d=1, alpha=1 gives <x>^-2
    g = build_grid(1, 10.0, 64)
    w = weight_field(g, -2.0)
    assert np.allclose(w.values, 1.0 / (1.0 + g.axis**2))


def test_integrate_constant_exact():
    g = build_grid(1, 1.0, 16)
    assert integrate(Field(g, np.ones(16))) == pytest.approx(2.0, abs=1e-15)


def test_integrate_odd_function():
    g = build_grid(1, 3.0, 128)
    assert integrate(Field(g, g.axis)) == pytest.approx(0.0, abs=1e-13)


def test_integrate_gaussian_erf_oracle():
    # oracle: int of the standard normal density over [-20, 20] via erf
    g = build_grid(1, 20.0, 1024)
    x = g.axis
    f = Field(g, np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi))
    exact = float(erf(20.0 / np.sqrt(2.0)))
    assert integrate(f) == pytest.approx(exact, abs=1e-12)
    assert integrate(f) == pytest.approx(1.0, abs=1e-12)


def test_integrate_linear_monotone():
    g = build_grid(1, 2.0, 32)
    rng = np.random.default_rng(0)
    u = Field(g, rng.uniform(0.0, 1.0, 32))
    v = Field(g, u.values + rng.uniform(0.0, 1.0, 32))
    a, b = 0.7, -1.3
    lin = integrate(Field(g, a * u.values + b * v.values))
    assert lin == pytest.approx(a * integrate(u) + b * integrate(v), rel=1e-13)
    assert integrate(u) <= integrate(v)


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
)
def test_peetre_inequality(x, y):
    # <x+y> <= sqrt(2) <x> <y>
    br = lambda t: np.sqrt(1.0 + t**2)
    assert br(x + y) <= np.sqrt(2.0) * br(x) * br(y) * (1 + 1e-12)


def test_peetre_on_grid_pairs():
    g = build_grid(2, 8.0, 16)
    pts = g.nodes()
    rng = np.random.default_rng(7)
    idx = rng.integers(0, len(pts), size=(200, 2))
    a, b = pts[idx[:, 0]], pts[idx[:, 1]]
    br = lambda p: np.sqrt(1.0 + np.sum(p**2, axis=-1))
    assert np.all(br(a + b) <= np.sqrt(2.0) * br(a) * br(b) * (1 + 1e-12))


def test_weight_product_inverse():
    g = build_grid(1, 15.0, 512)
    w = weight_field(g, 1.7)
    winv = weight_field(g, -1.7)
    assert np.allclose(w.values * winv.values, 1.0, atol=1e-14)


def test_field_rejects_nan_and_shape():
    g = build_grid(1, 1.0, 8)
    with pytest.raises(ValueError):
        Field(g, np.full(8, np.nan))
    with pytest.raises(ValueError):
        Field(g, np.ones(9))
