import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wavetrig as wt
from wavetrig.errors import ConfigurationError, DataFormatError, ShapeError
from wavetrig.grid import (
    POINCARE_MARGIN, Field, _lam1, apply_laplacian, eigenvalues, grid_from_meta, grid_meta, h1_seminorm_sq,
    l2_norm_sq, sine_mode, sine_transform, smallest_laplacian_eigenpair,
)


def interval(L, n):
    return wt.build_grid(wt.Interval(L, n))


def sine_field(g, k=1):
    [x] = g.axes()
    return Field(np.sin(k * np.pi * x / g.lengths[0]), g)


# ---------------------------------------------------------------- build_grid

def test_interval_spacing_and_count():
    g = interval(1.0, 99)
    assert g.spacings == (0.01,)
    assert g.num_interior == 99
    assert g.weight == 0.01


def test_rectangle_count():
    g = wt.build_grid(wt.Rectangle(1.0, 1.0, 9, 9))
    assert g.num_interior == 81
    assert g.weight == pytest.approx(0.1 * 0.1)


@pytest.mark.parametrize("shape", [
    wt.Interval(0.0, 10),
    wt.Interval(-1.0, 10),
    wt.Interval(1.0, 1),
    wt.Rectangle(1.0, 0.0, 9, 9),
    wt.Rectangle(1.0, 1.0, 1, 9),
    wt.Interval(1e-200, 10),  # h^2 underflows to 0, and the stencil's 1/h^2 with it
    wt.Rectangle(1.0, 1e-170, 9, 9),
])
def test_degenerate_shapes_refused(shape):
    with pytest.raises(ConfigurationError):
        wt.build_grid(shape)


def test_a_grid_whose_lam1_underflows_has_an_infinite_poincare_constant():
    # at spacings near 1e300, 4/h^2 underflows to 0: C_Omega is infinite, which no design admits
    g = wt.build_grid(wt.Interval(1e300, 199))
    assert _lam1(g) == 0.0
    assert wt.discrete_poincare_constant(g) == math.inf


def test_field_length_mismatch():
    g = interval(1.0, 9)
    with pytest.raises(ShapeError):
        Field(np.zeros(8), g)


def test_field_rejects_nan():
    g = interval(1.0, 9)
    with pytest.raises(Exception):
        Field(np.full(9, np.nan), g)


# --------------------------------------------------------------------- norms

def test_l2_zero():
    g = interval(1.0, 9)
    assert l2_norm_sq(Field(np.zeros(9), g), g) == 0.0


def test_l2_sine_matches_integral():
    # int_0^1 sin^2(pi x) dx = 1/2
    g = interval(1.0, 999)
    assert l2_norm_sq(sine_field(g), g) == pytest.approx(0.5, abs=1e-4)


def test_l2_2d_product_mode():
    # int over unit square of sin^2(pi x) sin^2(pi y) = 1/4
    g = wt.build_grid(wt.Rectangle(1.0, 1.0, 99, 99))
    xx, yy = np.meshgrid(*g.axes(), indexing="ij")
    f = Field((np.sin(np.pi * xx) * np.sin(np.pi * yy)).ravel(), g)
    assert l2_norm_sq(f, g) == pytest.approx(0.25, abs=1e-3)


def test_h1_sine_matches_integral():
    # int_0^1 pi^2 cos^2(pi x) dx = pi^2 / 2
    g = interval(1.0, 999)
    assert h1_seminorm_sq(sine_field(g), g) == pytest.approx(np.pi ** 2 / 2, rel=1e-3)


def test_h1_positive_for_nonzero_field():
    # boundary edges are included, so even a lone spike has gradient energy
    g = interval(1.0, 2)
    f = Field(np.array([1.0, 0.0]), g)
    assert h1_seminorm_sq(f, g) > 0


def test_fourier_modes_orthogonal():
    g = interval(1.0, 999)
    assert g.weight * np.dot(sine_field(g, 1).values, sine_field(g, 2).values) == pytest.approx(0.0, abs=1e-6)


def test_mismatched_grids_rejected():
    g = interval(1.0, 9)
    other = interval(2.0, 9)
    f = Field(np.ones(9), other)
    with pytest.raises(ShapeError):
        l2_norm_sq(f, g)


# ----------------------------------------------------------------- laplacian

def test_laplacian_zero():
    g = interval(1.0, 9)
    out = apply_laplacian(Field(np.zeros(9), g), g)
    assert np.all(out.values == 0.0)


def test_laplacian_eigenfunction_1d():
    g = interval(1.0, 999)
    f = sine_field(g)
    out = apply_laplacian(f, g)
    np.testing.assert_allclose(out.values, -np.pi ** 2 * f.values, rtol=1e-4)


def test_laplacian_eigenfunction_2d():
    g = wt.build_grid(wt.Rectangle(1.0, 1.0, 99, 99))
    xx, yy = np.meshgrid(*g.axes(), indexing="ij")
    f = Field((np.sin(np.pi * xx) * np.sin(np.pi * yy)).ravel(), g)
    out = apply_laplacian(f, g)
    np.testing.assert_allclose(out.values, -2 * np.pi ** 2 * f.values, rtol=1e-2)


def kronecker_minus_laplacian(g):
    """The negated stencil built independently of grid.py: a Kronecker sum
    of 1-D Dirichlet second-difference matrices, x the slow index."""
    def second_difference(n, h):
        return (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)

    if g.ndim == 1:
        return second_difference(g.counts[0], g.spacings[0])
    (nx, ny), (dx, dy) = g.counts, g.spacings
    return np.kron(second_difference(nx, dx), np.eye(ny)) + np.kron(np.eye(nx), second_difference(ny, dy))


@pytest.mark.parametrize("shape", [
    wt.Interval(1.0, 2),
    wt.Interval(1.0, 3),
    wt.Interval(0.7, 49),
    wt.Rectangle(1.0, 0.7, 2, 5),
    wt.Rectangle(0.6, 1.3, 6, 2),
    wt.Rectangle(1.0, 1.0, 2, 2),
    wt.Rectangle(2.0, 0.7, 9, 13),
], ids=["n2", "n3", "n49", "rect-nx2", "rect-ny2", "rect-2x2", "rect-9x13"])
def test_laplacian_matches_kronecker_sum(shape):
    g = wt.build_grid(shape)
    a = kronecker_minus_laplacian(g)
    bound = 8 * np.finfo(float).eps * np.linalg.norm(a, 2)
    rng = np.random.default_rng(g.num_interior)
    for _ in range(5):
        f = rng.standard_normal(g.num_interior)
        got = -apply_laplacian(Field(f, g), g).values
        assert np.linalg.norm(got - a @ f) <= bound * np.linalg.norm(f)
        # the gradient norm over every edge is the same quadratic form
        assert h1_seminorm_sq(Field(f, g), g) == pytest.approx(g.weight * f @ a @ f, rel=1e-13)


# ---------------------------------------------------------- Poincare constant

def test_poincare_unit_interval():
    assert wt.discrete_poincare_constant(interval(1.0, 999)) == pytest.approx(1 / np.pi, rel=1e-4)


def test_poincare_scales_with_length():
    assert wt.discrete_poincare_constant(interval(2.0, 999)) == pytest.approx(2 / np.pi, rel=1e-4)


def test_poincare_unit_square():
    g = wt.build_grid(wt.Rectangle(1.0, 1.0, 99, 99))
    assert wt.discrete_poincare_constant(g) == pytest.approx(1 / (np.pi * np.sqrt(2)), rel=1e-2)


def test_poincare_monotone_in_n_and_convergent():
    values = [wt.discrete_poincare_constant(interval(1.0, n)) for n in (9, 19, 39, 79, 159, 319)]
    assert all(a > b for a, b in zip(values, values[1:]))
    c_fine = wt.discrete_poincare_constant(interval(1.0, 1023))
    assert abs(c_fine - 1 / np.pi) <= 0.01 / np.pi


def test_eigenpair_residual_small():
    eps = np.finfo(float).eps
    for g in (interval(1.0, 49), interval(1.0, 199), wt.build_grid(wt.Rectangle(1.0, 0.7, 9, 7))):
        lam, vec, resid = smallest_laplacian_eigenpair(g)
        assert np.linalg.norm(vec.values) == pytest.approx(1.0, rel=1e-15)
        # ||A v - lam v|| of the exact pair is rounding only, eps * ||A||
        norm_a = sum(4 / h ** 2 for h in g.spacings)
        assert resid <= 8 * eps * norm_a
        assert wt.discrete_poincare_constant(g) ** 2 * lam == pytest.approx(1 + POINCARE_MARGIN, rel=1e-14)


def dense_minus_laplacian(g):
    """The negated stencil as a dense matrix, one column per unit vector."""
    return -np.column_stack([apply_laplacian(Field(e, g), g).values for e in np.eye(g.num_interior)])


@pytest.mark.parametrize("shape", [
    wt.Interval(1.0, 2),
    wt.Interval(1.0, 3),
    wt.Interval(2.0, 20),
    wt.Interval(0.7, 49),
    wt.Rectangle(2.0, 0.7, 9, 7),
], ids=["n2", "n3", "L2-n20", "L0.7-n49", "rect-9x7"])
def test_closed_form_eigenvalue_matches_dense_eigvalsh(shape):
    g = wt.build_grid(shape)
    a = dense_minus_laplacian(g)
    lam = smallest_laplacian_eigenpair(g)[0]
    assert abs(lam - np.linalg.eigvalsh(a)[0]) <= 8 * np.finfo(float).eps * np.linalg.norm(a, 2)


@pytest.mark.parametrize("shape", [
    wt.Interval(1.0, 2),
    wt.Interval(1.0, 49),
    wt.Interval(0.7, 200),
    wt.Rectangle(2.0, 0.7, 9, 13),
    wt.Rectangle(1.0, 0.8, 15, 11),
], ids=["n2", "n49", "n200", "rect-9x13", "rect-15x11"])
def test_sine_transform_is_orthonormal_and_diagonalises_the_stencil(shape):
    g = wt.build_grid(shape)
    s = np.column_stack([sine_transform(e, g) for e in np.eye(g.num_interior)])
    assert np.abs(s @ s.T - np.eye(g.num_interior)).max() <= 1e-13
    np.testing.assert_allclose(s, s.T, rtol=0, atol=1e-15)  # its own inverse
    lam = eigenvalues(g)
    diagonal = s @ dense_minus_laplacian(g) @ s
    assert np.abs(diagonal - np.diag(lam)).max() <= 1e-13 * lam.max()


@pytest.mark.parametrize("shape", [
    wt.Interval(1.0, 2),
    wt.Interval(2.0, 799),
    wt.Interval(0.7, 3199),
    wt.Rectangle(1.0, 1.0, 127, 127),
    wt.Rectangle(2.0, 0.7, 9, 13),
], ids=["n2", "L2-n799", "n3199", "rect-127", "rect-9x13"])
def test_eigenvalue_table_starts_at_the_closed_form_lam1(shape):
    # the table's first entry is the smallest, and bit for bit the closed
    # form sum (4/h^2) sin^2(pi/(2(n+1))), so C_Omega and every certificate
    # built on it keep their bytes
    g = wt.build_grid(shape)
    closed_form = sum(4.0 / (h * h) * math.sin(math.pi / (2 * (n + 1))) ** 2 for h, n in zip(g.spacings, g.counts))
    lam = eigenvalues(g)
    assert lam.size == g.num_interior
    assert lam.min() == lam[0] == _lam1(g) == closed_form
    assert wt.discrete_poincare_constant(g) == 1.0 / math.sqrt(closed_form * (1.0 - POINCARE_MARGIN))


def test_eigenvalue_table_is_shared_per_grid_and_read_only():
    # every caller of one grid gets the same table, so none may write to it
    lam = eigenvalues(wt.build_grid(wt.Rectangle(1.0, 0.8, 15, 11)))
    assert eigenvalues(wt.build_grid(wt.Rectangle(1.0, 0.8, 15, 11))) is lam
    assert eigenvalues(wt.build_grid(wt.Rectangle(1.0, 0.8, 15, 13))) is not lam
    with pytest.raises(ValueError):
        lam[0] = 0.0


@pytest.mark.parametrize("shape", [wt.Interval(1.0, 49), wt.Rectangle(1.0, 0.8, 15, 11)], ids=["interval", "rect"])
def test_grid_meta_names_its_grid_and_builds_no_table(shape, monkeypatch):
    # load_run rebuilds a run's grid from meta.grid, its JSON read back, and
    # takes its discrete C_Omega; a summary may name any counts, so none of
    # these steps builds the eigenvalue table
    g = wt.build_grid(shape)
    lam1 = _lam1(g)
    monkeypatch.setattr(wt.grid, "eigenvalues", None)
    meta = json.loads(json.dumps(grid_meta(g)))
    assert meta["lam1"] == lam1 and meta["lengths"] == list(g.lengths)
    assert wt.discrete_poincare_constant(g) == 1.0 / math.sqrt(lam1 * (1.0 - POINCARE_MARGIN))
    assert grid_from_meta(meta) == g
    for key in meta:
        with pytest.raises(DataFormatError):
            grid_from_meta({k: v for k, v in meta.items() if k != key})


@pytest.mark.parametrize("shape", [
    wt.Interval(1.0, 78),
    wt.Interval(2.0, 799),
    wt.Rectangle(1.0, 1.0, 63, 63),
], ids=["n78", "L2-n799", "rect-63x63"])
def test_poincare_inequality_holds_at_the_exact_eigenvector(shape):
    # on these grids the computed norms of sine mode 1 exceed 1/lam1 by a
    # few ulp, which POINCARE_MARGIN has to cover
    g = wt.build_grid(shape)
    f = sine_mode(g, 1)
    c = wt.discrete_poincare_constant(g)
    assert l2_norm_sq(f, g) <= c ** 2 * h1_seminorm_sq(f, g)


def test_poincare_closed_form_sources():
    g = interval(1.0, 99)
    assert wt.poincare_constant(g, "dirichlet-closed-form") == pytest.approx(1 / np.pi)
    assert wt.poincare_constant(g, "wirtinger") == pytest.approx(1 / (2 * np.pi))
    g2 = wt.build_grid(wt.Rectangle(2.0, 1.0, 9, 9))
    assert wt.poincare_constant(g2, "dirichlet-closed-form") == pytest.approx(2 / (np.pi * np.sqrt(5)))
    with pytest.raises(ConfigurationError):
        wt.poincare_constant(g2, "wirtinger")
    with pytest.raises(ConfigurationError):
        wt.poincare_constant(g, "folklore")


# ------------------------------------------------------- property-based tests

GRID_1D = interval(1.0, 49)
GRID_2D = wt.build_grid(wt.Rectangle(1.0, 0.7, 9, 7))
C_1D = wt.discrete_poincare_constant(GRID_1D)
C_2D = wt.discrete_poincare_constant(GRID_2D)

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, width=64)


def values_on(g):
    return hnp.arrays(np.float64, g.num_interior, elements=finite_floats)


@settings(max_examples=100, deadline=None)
@given(vals=values_on(GRID_1D))
def test_poincare_inequality_random_fields_1d(vals):
    f = Field(vals, GRID_1D)
    lhs = l2_norm_sq(f, GRID_1D)
    rhs = C_1D ** 2 * h1_seminorm_sq(f, GRID_1D)
    assert lhs <= rhs * (1 + 1e-9) + 1e-300


@settings(max_examples=100, deadline=None)
@given(vals=values_on(GRID_2D))
def test_poincare_inequality_random_fields_2d(vals):
    f = Field(vals, GRID_2D)
    lhs = l2_norm_sq(f, GRID_2D)
    rhs = C_2D ** 2 * h1_seminorm_sq(f, GRID_2D)
    assert lhs <= rhs * (1 + 1e-9) + 1e-300


@settings(max_examples=100, deadline=None)
@given(a=values_on(GRID_1D), b=values_on(GRID_1D))
def test_cauchy_schwarz_random_fields(a, b):
    f, h = Field(a, GRID_1D), Field(b, GRID_1D)
    ip = GRID_1D.weight * np.dot(f.values, h.values)
    bound = l2_norm_sq(f, GRID_1D) * l2_norm_sq(h, GRID_1D)
    assert ip * ip <= bound * (1 + 1e-12) + 1e-300


@settings(max_examples=100, deadline=None)
@given(vals=values_on(GRID_1D))
def test_summation_by_parts_1d(vals):
    f = Field(vals, GRID_1D)
    lhs = GRID_1D.weight * np.dot(apply_laplacian(f, GRID_1D).values, f.values)
    rhs = -h1_seminorm_sq(f, GRID_1D)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


@settings(max_examples=100, deadline=None)
@given(vals=values_on(GRID_2D))
def test_summation_by_parts_2d(vals):
    f = Field(vals, GRID_2D)
    lhs = GRID_2D.weight * np.dot(apply_laplacian(f, GRID_2D).values, f.values)
    rhs = -h1_seminorm_sq(f, GRID_2D)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


@settings(max_examples=50, deadline=None)
@given(vals=values_on(GRID_1D))
def test_operations_keep_fields_finite(vals):
    f = Field(vals, GRID_1D)
    out = apply_laplacian(f, GRID_1D)
    assert np.isfinite(out.values).all()
