"""Uniform Dirichlet grids on an interval or rectangle, and the discrete
function-space machinery built on them.  :func:`build_grid` reduces either
shape to per-axis lengths and node counts, and what follows works axis by
axis, bar the continuous Poincare formulas, which are per dimension.

Fields live on interior nodes only; the boundary value is identically zero.
The quadrature is the composite rectangle rule at interior nodes and the
gradient seminorm sums forward differences over *all* edges, including the
two (or four) boundary-touching layers.  With these conventions the
summation-by-parts identity

    <laplacian(f), f> = -h1_seminorm_sq(f)

holds exactly, so energy bookkeeping on the grid mirrors the continuous
integration-by-parts computations with no identity-level slack.

A field is a flat array, one value per interior node, x the slow index on
a rectangle.  :func:`apply_laplacian` and :func:`h1_seminorm_sq` take it as
a ``counts``-shaped array with the zero boundary padded on, and sum second
and squared first differences along each axis.  No run calls this plain
nodal stencil; it is the reference the tests hold the sine basis against.

The orthonormal sine transform (DST-I, axis by axis) diagonalises the
stencil exactly: :func:`sine_transform` gives a field's coefficients in the
stencil's eigenbasis and :func:`eigenvalues` the negated stencil's
eigenvalue for each, in closed form.  By Parseval every norm above is then
a weighted dot product of coefficients, which is how the step kernel and
the initial-data norms take them.  The discrete Poincare constant needs no
solver: C = 1/sqrt(lam1), with lam1 the table's smallest entry, raised by a
relative margin that covers the rounding of the computed norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError

__all__ = [
    "Interval",
    "Rectangle",
    "Grid",
    "Field",
    "build_grid",
    "l2_norm_sq",
    "h1_seminorm_sq",
    "apply_laplacian",
    "sine_mode",
    "sine_transform",
    "eigenvalues",
    "smallest_laplacian_eigenpair",
    "discrete_poincare_constant",
    "POINCARE_MARGIN",
    "POINCARE_SOURCES",
    "C_OMEGA_SOURCES",
    "poincare_constant",
    "grid_meta",
]


@dataclass(frozen=True)
class Interval:
    """1D domain (0, length) with ``n`` interior nodes."""

    length: float
    n: int


@dataclass(frozen=True)
class Rectangle:
    """2D domain (0, a) x (0, b) with ``nx * ny`` interior nodes."""

    a: float
    b: float
    nx: int
    ny: int


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid with homogeneous Dirichlet boundary.

    ``lengths``, ``spacings`` and ``counts`` are per-axis; ``weight`` is the
    quadrature weight of one interior node (dx, or dx*dy).  Construct via
    :func:`build_grid`.
    """

    lengths: tuple[float, ...]
    spacings: tuple[float, ...]
    counts: tuple[int, ...]
    weight: float
    num_interior: int

    @property
    def ndim(self) -> int:
        return len(self.counts)

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    def axes(self) -> list[np.ndarray]:
        """The interior node coordinates along each axis."""
        return [h * np.arange(1, n + 1) for h, n in zip(self.spacings, self.counts)]


@dataclass
class Field:
    """Nodal values at the interior points of a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size != self.grid.num_interior:
            raise ShapeError(
                f"field has {self.values.size} values, grid has "
                f"{self.grid.num_interior} interior nodes"
            )
        if not np.isfinite(self.values).all():
            raise NumericalError("field contains non-finite values")

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.grid)


def build_grid(shape: Interval | Rectangle) -> Grid:
    """Validate a shape spec and derive spacings, node count and weight."""
    if isinstance(shape, Interval):
        lengths, counts = (shape.length,), (shape.n,)
    elif isinstance(shape, Rectangle):
        lengths, counts = (shape.a, shape.b), (shape.nx, shape.ny)
    else:
        raise ConfigurationError(f"unknown grid shape {shape!r}")
    if not (all(length > 0 for length in lengths) and min(counts) >= 2):
        raise ConfigurationError(f"need positive lengths and 2 or more nodes per axis, got {lengths}, {counts}")
    spacings = tuple(length / (n + 1) for length, n in zip(lengths, counts))
    if min(h * h for h in spacings) == 0:  # the stencil's 1/h^2 would divide by zero
        raise ConfigurationError(f"the spacings {spacings} of lengths {lengths} are too small: h^2 underflows to 0")
    return Grid(lengths, spacings, counts, math.prod(spacings), math.prod(counts))


def _check(f: Field, g: Grid):
    if f.grid != g or f.values.size != g.num_interior:
        raise ShapeError("field does not belong to this grid")


def _differences(f: Field, g: Grid, order: int) -> list[tuple[float, np.ndarray]]:
    """Per axis, its spacing and the ``order``-th differences along it of the
    field as a ``counts``-shaped array, with the zero boundary padded on at
    both ends of that axis."""
    z = f.values.reshape(g.counts)
    return [(h, np.diff(z, order, axis=axis, prepend=0.0, append=0.0)) for axis, h in enumerate(g.spacings)]


def l2_norm_sq(f: Field, g: Grid) -> float:
    """Squared discrete L2 norm: weight * sum of squared nodal values."""
    _check(f, g)
    return g.weight * float(np.dot(f.values, f.values))


def h1_seminorm_sq(f: Field, g: Grid) -> float:
    """Squared discrete gradient norm.

    Forward differences over every edge, with the zero boundary included,
    so the result vanishes only for the zero field.
    """
    _check(f, g)
    return g.weight * sum(float(np.vdot(d, d)) / (h * h) for h, d in _differences(f, g, 1))


def apply_laplacian(f: Field, g: Grid) -> Field:
    """Second-order Laplacian stencil with zero ghost boundary values."""
    _check(f, g)
    return Field(sum(d / (h * h) for h, d in _differences(f, g, 2)).ravel(), g)


def sine_mode(g: Grid, k: int = 1) -> Field:
    """The product over the axes of sin(k pi x / L), L the axis' length."""
    if k < 1:
        raise ConfigurationError(f"mode number must be >= 1, got {k}")
    factors = [np.sin(k * np.pi * x / length) for x, length in zip(g.axes(), g.lengths)]
    return Field(functools.reduce(np.multiply.outer, factors).ravel(), g)


def sine_transform(values: np.ndarray, g: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I of a flat field, axis by axis, into ``out`` (flat;
    a new array by default): its coefficients in the stencil's eigenbasis,
    in the order of :func:`eigenvalues`.  The transform is its own inverse.

    Along an axis of n nodes, coefficient k (1 <= k <= n) is
    sqrt(2/(n+1)) sum_j f_j sin(pi j k/(n+1)), read off ``np.fft.rfft`` of
    the odd extension (0, -f, 0, reversed f), whose imaginary part is twice
    that sum.
    """
    a = values.reshape(g.counts)
    for axis, n in enumerate(g.counts):
        a = np.moveaxis(a, axis, -1)
        ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
        np.negative(a, out=ext[..., 1:n + 1])
        ext[..., n + 2:] = a[..., ::-1]
        a = np.moveaxis(np.fft.rfft(ext).imag[..., 1:n + 1], -1, axis)
        del ext  # before the next axis allocates its own
    out = np.empty(g.num_interior) if out is None else out
    np.multiply(a, math.prod(1.0 / math.sqrt(2 * n + 2) for n in g.counts), out=out.reshape(g.counts))
    return out


def _axis_eigenvalue(h: float, n: int, k: int) -> float:
    return 4.0 / (h * h) * math.sin(math.pi * k / (2 * (n + 1))) ** 2


@functools.lru_cache(maxsize=8)
def eigenvalues(g: Grid) -> np.ndarray:
    """The negated stencil's eigenvalues, one per coefficient of
    :func:`sine_transform` (increasing along each axis): for mode k of an
    axis of n nodes and spacing h, (4/h^2) sin^2(pi k / (2 (n+1))), summed
    over the axes.  Entry 0 is lam1, the smallest.

    The table is kept per grid and shared by every caller, so it is
    read-only."""
    axes = [np.array([_axis_eigenvalue(h, n, k) for k in range(1, n + 1)]) for h, n in zip(g.spacings, g.counts)]
    lam = functools.reduce(np.add.outer, axes).ravel()
    lam.setflags(write=False)
    return lam


# Relative margin by which lam1 is lowered for C_Omega: at the exact
# eigenvector the computed l2/h1 exceeds 1/lam1 by a few ulp (up to 8.9e-16
# relative on intervals with n <= 3199 and rectangles up to 127x127).
POINCARE_MARGIN = 1e-12


def _lam1(g: Grid) -> float:  # eigenvalues(g)[0], with no table built for the grid a summary names
    return sum(_axis_eigenvalue(h, n, 1) for h, n in zip(g.spacings, g.counts))


def smallest_laplacian_eigenpair(g: Grid):
    """Smallest eigenvalue of the negated stencil, in closed form, its
    eigenvector (sine mode 1, unit norm) and the pair's floating-point
    residual ||A v - lam v||: ``(lam, eigvec_field, residual)``."""
    lam = _lam1(g)
    v = sine_mode(g, 1)
    v.values /= np.linalg.norm(v.values)
    return lam, v, float(np.linalg.norm(apply_laplacian(v, g).values + lam * v.values))


def discrete_poincare_constant(g: Grid) -> float:
    """1/sqrt(lam1 (1 - POINCARE_MARGIN)), so that every field on ``g``
    satisfies ``l2_norm_sq(f) <= C**2 * h1_seminorm_sq(f)``; infinity where
    lam1 underflows to 0 (spacings near 1e300), which no design admits."""
    lam = _lam1(g) * (1.0 - POINCARE_MARGIN)
    return 1.0 / math.sqrt(lam) if lam > 0 else math.inf


def _dirichlet_closed_form(g: Grid) -> float:
    if g.ndim == 1:
        return g.lengths[0] / math.pi
    a, b = g.lengths
    return a * b / (math.pi * math.hypot(a, b))


def _wirtinger(g: Grid) -> float:
    if g.ndim != 1:
        raise ConfigurationError("the wirtinger constant is defined for intervals only")
    return g.lengths[0] / (2.0 * math.pi)


# Provenances of the Poincare constant that are computed from the grid.
POINCARE_SOURCES = {
    "discrete": discrete_poincare_constant,
    "dirichlet-closed-form": _dirichlet_closed_form,
    "wirtinger": _wirtinger,
}

# Every provenance a certificate's C_Omega may name; "user" takes the
# constant from the configuration instead of computing it.
C_OMEGA_SOURCES = (*POINCARE_SOURCES, "user")


def poincare_constant(g: Grid, source: str = "discrete") -> float:
    """Poincare constant from one of the named provenances.

    ``discrete``
        1/sqrt(lam1) from the closed-form smallest eigenvalue of the grid
        operator, lowered by ``POINCARE_MARGIN`` (valid for discrete
        norms; the default everywhere a certificate is built).
    ``dirichlet-closed-form``
        continuous Dirichlet value: L/pi, or ab/(pi*sqrt(a^2+b^2)).
    ``wirtinger``
        L/(2*pi), the zero-mean Wirtinger constant (intervals only).  Too
        small for fields that vanish at both ends; kept selectable so the
        resulting certificate violations can be demonstrated.
    """
    if source not in POINCARE_SOURCES:
        raise ConfigurationError(f"unknown Poincare constant source {source!r}")
    return POINCARE_SOURCES[source](g)


def grid_meta(g: Grid) -> dict:
    """What a run records of its grid, ``meta.grid``: its lengths, counts and spacings, lam1
    and the margin by which C_Omega = 1/sqrt(lam1 (1 - margin)) is raised."""
    return {"lengths": list(g.lengths), "counts": list(g.counts), "spacings": list(g.spacings),
            "lam1": _lam1(g), "poincare_margin": POINCARE_MARGIN}
