"""Named initial-data builders: standing-wave modes (``grid.sine_mode``,
the one definition shared with the Poincare eigenvector), a smooth compactly
supported bump, and nodal values loaded from a file."""

from __future__ import annotations

import functools
import tokenize

import numpy as np

from .config import check_choice, integer, known_keys
from .errors import ConfigurationError, DataFormatError, MissingInputError
from .grid import Field, Grid, sine_mode

__all__ = ["sine_mode", "bump", "load_nodal", "build_field"]


def _bump_profile(x: np.ndarray, length: float) -> np.ndarray:
    # Supported on the middle half of (0, length), peak value 1.
    u = (x - 0.5 * length) / (0.25 * length)
    out = np.zeros_like(x)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def bump(g: Grid) -> Field:
    """Smooth bump vanishing to all orders at the edge of its support: the
    product over the axes of one profile each."""
    factors = [_bump_profile(x, length) for x, length in zip(g.axes(), g.lengths)]
    return Field(functools.reduce(np.multiply.outer, factors).ravel(), g)


def load_nodal(g: Grid, path: str) -> Field:
    """Nodal values from a .npy file or whitespace-separated text.

    A file that does not parse, or holds the wrong number of values or a
    non-finite one, raises DataFormatError.
    """
    try:
        if str(path).endswith(".npy"):
            vals = np.load(path)
        else:
            vals = np.loadtxt(path)
        vals = np.asarray(vals, dtype=float)
    except FileNotFoundError as exc:
        raise MissingInputError(f"initial data file not found: {path}") from exc
    except (OSError, ValueError, EOFError, tokenize.TokenError) as exc:
        # a corrupt .npy header fails in numpy's header tokenizer
        raise DataFormatError(f"cannot read nodal values from {path}: {exc}") from exc
    if vals.shape == g.counts:
        vals = vals.ravel()
    if vals.ndim != 1 or vals.size != g.num_interior:
        raise DataFormatError(
            f"file {path} holds {vals.shape} values, grid expects {g.num_interior} interior nodes"
        )
    if not np.isfinite(vals).all():
        raise DataFormatError(f"file {path} holds non-finite values")
    return Field(vals, g)


# The keys each kind of initial data takes besides "kind".
_FIELD_KEYS = {"zero": (), "sine": ("k",), "bump": (), "file": ("path",)}


def build_field(g: Grid, spec: dict) -> Field:
    """Build a field from a spec dict: {'kind': 'zero'|'sine'|'bump'|'file', ...}."""
    kind = spec.get("kind", "zero")
    check_choice("initial data kind", kind, tuple(_FIELD_KEYS))
    known_keys(f"{kind} initial data", spec, ("kind", *_FIELD_KEYS[kind]))
    if kind == "zero":
        return Field(np.zeros(g.num_interior), g)
    if kind == "sine":
        return sine_mode(g, integer("sine mode number", spec.get("k", 1)))
    if kind == "bump":
        return bump(g)
    if not isinstance(spec.get("path"), str):
        raise ConfigurationError(f"file initial data needs a 'path' string, got {spec.get('path')!r}")
    return load_nodal(g, spec["path"])
