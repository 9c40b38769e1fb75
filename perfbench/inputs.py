"""Seeded benchmark inputs.

Each workload's inputs are generated from the seed alone: a run config
JSON and the initial position/velocity as ``.npy`` nodal values.  The
program sees only these files (``"kind": "file"`` initial data).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Interval lengths vary per sweep cell; nodal mode shapes sin(k pi i/(n+1))
# do not depend on the length, so one pair of files serves every cell.
WORKLOADS = {
    "interval-long": {
        "domain": {"kind": "interval", "length": 1.0, "n": 199},
        "alpha": 1.0,
        "t_end": 40.0,
    },
    "rect-127": {
        "domain": {"kind": "rectangle", "a": 1.0, "b": 1.0, "nx": 127, "ny": 127},
        "alpha": 1.0,
        "t_end": 5.0,
    },
    "sweep-16": {
        "domain": {"kind": "interval", "length": 1.0, "n": 99},
        "alpha": 1.0,
        "t_end": 10.0,
        "alphas": (0.5, 1.0, 2.0, 4.0),
        "lengths": (0.5, 1.0, 2.0, 4.5),
        # lengths above pi*sqrt(2) have C_Omega >= sqrt(2): refused by design
        "feasible_cells": 12,
    },
}


def nodes(spec: dict) -> int:
    """Interior nodes of the workload's grid (of each cell, for a sweep)."""
    d = spec["domain"]
    return d["n"] if d["kind"] == "interval" else d["nx"] * d["ny"]


def _sine_modes(domain: dict) -> list[tuple[float, np.ndarray]]:
    """Lowest sine modes on the interior nodes as (wavenumber, flat values),
    flattened in the row-major (nx, ny) order ``load_nodal`` accepts."""
    if domain["kind"] == "interval":
        x = np.arange(1, domain["n"] + 1) / (domain["n"] + 1)
        return [(float(k), np.sin(k * np.pi * x)) for k in (1, 2, 3)]
    x = np.arange(1, domain["nx"] + 1) / (domain["nx"] + 1)
    y = np.arange(1, domain["ny"] + 1) / (domain["ny"] + 1)
    return [
        (float(np.hypot(j, k)), np.outer(np.sin(j * np.pi * x), np.sin(k * np.pi * y)).ravel())
        for j in (1, 2)
        for k in (1, 2)
    ]


def initial_data(domain: dict, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Smooth seeded data: the lowest mode always carries a weight in
    [0.5, 1], higher modes decay like 1/k^2, so the data is never degenerate
    and its second time derivative stays small enough for the vdot
    check's c_tol * dt^2 tolerance."""
    modes = _sine_modes(domain)
    z0 = np.zeros_like(modes[0][1])
    z1 = np.zeros_like(modes[0][1])
    for i, (k, phi) in enumerate(modes):
        a = rng.uniform(0.5, 1.0) if i == 0 else rng.uniform(-0.5, 0.5) / (k * k)
        b = rng.uniform(-1.0, 1.0) / (k * k)
        z0 += a * phi
        z1 += b * phi
    return z0, z1


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: str, seed: int, outdir: Path) -> dict:
    """Write ``config.json``, ``z0.npy`` and ``z1.npy`` for one workload into
    ``outdir``; return the spec with the seed and the files' sha256."""
    spec = WORKLOADS[workload]
    outdir.mkdir(parents=True, exist_ok=True)
    z0, z1 = initial_data(spec["domain"], np.random.default_rng(seed))
    z0_path, z1_path = outdir / "z0.npy", outdir / "z1.npy"
    np.save(z0_path, z0)
    np.save(z1_path, z1)
    config = {
        "domain": spec["domain"],
        "alpha": spec["alpha"],
        "t_end": spec["t_end"],
        "z0": {"kind": "file", "path": str(z0_path.resolve())},
        "z1": {"kind": "file", "path": str(z1_path.resolve())},
    }
    config_path = outdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    # the config names absolute paths; hash it with file names in their place
    # so that one seed gives one hash in every checkout
    portable = dict(config, z0={"kind": "file", "path": "z0.npy"}, z1={"kind": "file", "path": "z1.npy"})
    return {
        "workload": workload,
        "seed": seed,
        "config": config_path,
        "spec": spec,
        "files": {
            "config.json": hashlib.sha256(json.dumps(portable, sort_keys=True).encode()).hexdigest(),
            "z0.npy": _sha256(z0_path),
            "z1.npy": _sha256(z1_path),
        },
    }
