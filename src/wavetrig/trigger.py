"""The event-triggering mechanism: the decaying threshold floor eta0, the
firing predicate on squared norms, the threshold scale from the initial
data, the rows between the holds of the scheduled modes and the check of a
record's schedule, and dwell-time diagnostics over a run's event log."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import grid as _grid
from . import lyapunov as _lyapunov
from .errors import ConfigurationError
from .lyapunov import CheckReport, EventLog, RunRecord

if TYPE_CHECKING:  # only for annotations; avoids an import cycle
    from .design import StabilityCertificate

__all__ = [
    "ETA0_VARIANTS",
    "TriggerParams",
    "EventLog",
    "DwellStats",
    "eta0",
    "predicate_from_norms",
    "threshold_scale",
    "initial_threshold_scale",
    "hold_rows",
    "check_schedule",
    "zeno_report",
]

# Initial values that scale the threshold floor; see threshold_scale.
ETA0_VARIANTS = ("v0", "reduced")


@dataclass(frozen=True)
class TriggerParams:
    """Parameters of the firing rule

        ||e_k||^2 - gamma0 ||z||^2 - gamma1 ||v||^2 - eta0(t) >= 0

    with eta0(t) = eta0_scale * exp(-theta t).
    """

    gamma0: float
    gamma1: float
    theta: float
    eta0_scale: float

    def __post_init__(self):
        for name in ("gamma0", "gamma1", "theta", "eta0_scale"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"trigger parameter {name} must be positive, got {getattr(self, name)}")

    @classmethod
    def from_certificate(cls, cert: "StabilityCertificate", eta0_scale: float) -> "TriggerParams":
        # theta > beta/c2, which makes the threshold decay slower than the
        # certified Lyapunov rate, is an invariant of every certificate
        return cls(gamma0=cert.gamma0, gamma1=cert.gamma1, theta=cert.theta, eta0_scale=eta0_scale)


@dataclass(frozen=True)
class DwellStats:
    """Dwell-time summary of a completed run."""

    event_count: int
    min_dwell: float
    mean_dwell: float
    max_dwell: float
    floor_violations: int
    floor_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def eta0(t: float | np.ndarray, params: TriggerParams) -> float | np.ndarray:
    """Threshold floor eta0_scale * exp(-theta t), strictly decreasing, at a time or an array
    of times, each entry with ``math.exp``'s bits.  The exponential is numpy's complex exp of
    ``x + 0i``, which is libm's ``exp(x)`` times ``cos 0 = 1``, in one C loop over the array;
    ``np.exp`` on reals is numpy's own vectorised exp, a few entries an ulp off libm's."""
    times = np.asarray(t, dtype=float)
    if (times < 0).any():
        raise ConfigurationError(f"time must be nonnegative, got {t}")
    decay = np.exp(times * -params.theta + 0j).real
    return params.eta0_scale * (decay if times.ndim else float(decay))


def predicate_from_norms(
    norm_e_sq: float, norm_z_sq: float, norm_v_sq: float, eta0_value: float, params: TriggerParams
) -> float:
    """Firing predicate from precomputed squared norms; fires iff >= 0.
    Takes floats, or arrays of them, with the same result entry by entry."""
    return norm_e_sq - params.gamma0 * norm_z_sq - params.gamma1 * norm_v_sq - eta0_value


def threshold_scale(norms: tuple[float, float, float, float], epsilon: float, alpha: float, variant: str) -> float:
    """eta0_scale from the initial data's squared norms ``(||z||^2, ||v||^2,
    ||grad z||^2, <z, v>)``, those of row 0 of a record: ``simulate`` takes
    V[0] here, and ``runio.load_run`` checks a summary's scale here.

    ``v0`` is the full initial Lyapunov value; ``reduced`` omits its
    (eps*alpha/2)*||z0||^2 term, i.e. it is V evaluated with alpha = 0.
    Both are kept because they genuinely differ whenever z0 is nonzero.
    """
    if variant not in ETA0_VARIANTS:
        raise ConfigurationError(f"unknown eta0 variant {variant!r}, expected one of {ETA0_VARIANTS}")
    return _lyapunov.energy_lyapunov(*norms, epsilon, alpha if variant == "v0" else 0.0)[1]


def initial_threshold_scale(
    z0: _grid.Field,
    z1: _grid.Field,
    epsilon: float,
    alpha: float,
    g: _grid.Grid,
    variant: str = "v0",
) -> float:
    """:func:`threshold_scale` of the initial data, ``v0`` by default, its
    norms summed as the step kernel sums row 0's (``lyapunov.norm_sums``).
    Raises DegenerateInitialDataError when the scale is degenerate."""
    rows = _lyapunov.modal_rows(g, z0.values, z1.values, np.sqrt(_grid.eigenvalues(g)))
    nz, ngz, nv, _, zv = (g.weight * _lyapunov.norm_sums(rows)).tolist()
    scale = threshold_scale((nz, nv, ngz, zv), epsilon, alpha, variant)
    return _lyapunov.require_nondegenerate(scale, g, "threshold scale")


def hold_rows(mode: str, dt: float, period: float | None, rows: int) -> int:
    """The rows P from one hold to the next on the schedule of ``mode``, in
    a record of ``rows`` rows at step ``dt``; a hold is due at the rows P
    divides.  P is 1 for continuous damping; for a periodic run, the steps
    of dt that reach ``period``, rounded as ``dynamics.step_count`` rounds
    the horizon, and at most ``rows``, so a huge period does not overflow;
    ``rows``, no hold due after t = 0, for the other modes: an
    uncontrolled run holds its t = 0 sample with gain 0."""
    if mode == "continuous-damping":
        return 1
    if mode == "periodic":
        return max(1, math.ceil(min(period / dt - 1e-9, rows)))
    return rows


def check_schedule(record: RunRecord) -> CheckReport:
    """The event flags of a continuous-damping, periodic or uncontrolled
    record against its policy: the hold is refreshed at exactly the rows
    that :func:`hold_rows` divides, with the record's ``meta.period`` (row 0
    alone for an uncontrolled run).  ``worst`` is the time of the first row
    off the schedule, -inf when there is none.  The event-triggered
    schedule is the trigger invariant's (``lyapunov.check_trigger_invariant``).
    """
    if record.mode == "event-triggered":
        raise ConfigurationError("an event-triggered run has no schedule; its trigger invariant is checked instead")
    ev = record.event
    want = np.arange(ev.size) % hold_rows(record.mode, record.dt, record.meta.get("period"), ev.size) == 0
    holds = ev == want
    off = np.flatnonzero(~holds)
    return CheckReport(
        "schedule",
        holds,
        float(record.t[off[0]]) if off.size else float("-inf"),
        {"n_events": int(np.count_nonzero(ev)), "n_due": int(np.count_nonzero(want))},
    )


def zeno_report(log: EventLog, horizon: float, dt: float | None = None) -> DwellStats:
    """Dwell-time statistics and the deviation floor check.

    At every event after the initial one the firing predicate was
    nonnegative, which forces ||e_k||^2 >= eta0 there; ``floor_violations``
    counts events where that does not hold to rounding (a NaN never does).
    Event times are quantized to step boundaries, the run's ``dt``.

    ``dt`` is ignored; it is accepted only because ``perfbench/pipeline.py``
    still passes it.
    """
    if len(log) == 0:
        raise ConfigurationError("empty event log: degenerate run")
    dwells = np.diff(log.times)
    if log.times[0] != 0.0 or not (dwells > 0).all():
        raise ConfigurationError("event log must start at t = 0 with strictly increasing times")
    if not dwells.size:  # one event: it holds over the whole horizon
        dwells = np.array([horizon], dtype=float)
    floor_violations = int(np.count_nonzero(~(log.norm_e_sq_values[1:] >= log.eta0_values[1:] * (1.0 - 1e-12))))
    return DwellStats(
        event_count=len(log),
        min_dwell=float(dwells.min()),
        mean_dwell=float(dwells.mean()),
        max_dwell=float(dwells.max()),
        floor_violations=floor_violations,
        floor_ok=floor_violations == 0,
    )
