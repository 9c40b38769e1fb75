"""Energy and Lyapunov functionals, the per-run time series record with the
event log it holds, and the certificate checkers that validate a recorded
trajectory against the guarantees of its certificate.

A checker's report marks each row where its inequality holds, as
``x <= bound``, and counts every other row as a violation: a NaN compares
false either way, so a NaN in a check's input is a violation, never a
pass."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import grid as _grid
from .design import StabilityCertificate, vdot_bound_rhs
from .errors import ConfigurationError, DegenerateInitialDataError

if TYPE_CHECKING:
    from .trigger import TriggerParams

__all__ = [
    "EventLog",
    "RunRecord",
    "CheckReport",
    "DEGENERATE_REL",
    "modal_rows",
    "norm_sums",
    "energy_lyapunov",
    "require_nondegenerate",
    "check_equivalence",
    "check_vdot",
    "sup_energy_bound",
    "check_envelope",
    "check_trigger_invariant",
]

# Initial data whose Lyapunov value is this fraction of the domain volume or
# less is refused: the trigger threshold would be identically ~0.
DEGENERATE_REL = 1e-14


def modal_rows(
    g: _grid.Grid, z: np.ndarray, v: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The rows every norm is read from, one (4, M) array (``out``, or a new
    one): the sine coefficients z_hat, w z_hat and v_hat of the flat fields
    z and v (``grid.sine_transform``), with w = sqrt(lam) the modes'
    frequencies (``grid.eigenvalues``), and a zero row for the deviation
    v_hat - held_hat, which a holder fills in.  :func:`norm_sums` sums them.
    """
    rows = np.empty((4, g.num_interior)) if out is None else out
    rows[3] = 0.0
    _grid.sine_transform(z, g, out=rows[0])
    np.multiply(rows[0], w, out=rows[1])
    _grid.sine_transform(v, g, out=rows[2])
    return rows


def norm_sums(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Into ``out`` ((5,) or (5, k); a new array by default), each of the
    :func:`modal_rows` rows' (4, M), or a block's (4, k, M), squared sums,
    then the sums of z_hat v_hat.  By Parseval the grid weight times them is
    the norms of ``RunRecord.COLUMNS``.  The step kernel and the eta0 scale
    both sum here, so the ``v0`` scale is the recorded V[0] to the last bit.
    """
    out = np.empty((5, *rows.shape[1:-1])) if out is None else out
    np.vecdot(rows, rows, out=out[:4])
    np.vecdot(rows[0], rows[2], out=out[4, ...])  # a view, where a (5,) out's out[4] is a scalar
    return out


def energy_lyapunov(
    norm_z_sq: float, norm_v_sq: float, norm_gradz_sq: float, cross: float, epsilon: float, alpha: float
) -> tuple[float, float]:
    """(E, V) from squared norms and the cross term <z, v>:
    E = (||v||^2 + ||grad z||^2)/2 and V = E + (eps*alpha/2)||z||^2 + eps<z, v>.

    The terms are summed in this order everywhere, so the recorded V column
    and the eta0 scale (``trigger.threshold_scale``) agree to the last bit.
    """
    e = 0.5 * (norm_v_sq + norm_gradz_sq)
    return e, e + 0.5 * epsilon * alpha * norm_z_sq + epsilon * cross


def require_nondegenerate(value: float, g: _grid.Grid, what: str) -> float:
    """Return ``value``; raise DegenerateInitialDataError when it is at most
    DEGENERATE_REL times the domain volume."""
    if value <= DEGENERATE_REL * g.volume:
        raise DegenerateInitialDataError(
            f"initial {what} {value} is degenerate; the trigger threshold would vanish"
        )
    return value


@dataclass(frozen=True)
class EventLog:
    """The sampling events of a run: its event rows, in order, so entry k
    is event k.

    Entry 0 is the unconditional event at t = 0; every later entry holds
    the pre-refresh predicate, deviation norm and threshold floor at the
    firing step.
    """

    times: np.ndarray
    predicate_values: np.ndarray
    norm_e_sq_values: np.ndarray
    eta0_values: np.ndarray

    def __len__(self) -> int:
        return self.times.size


@dataclass
class RunRecord:
    """Per-step time series of a completed simulation.

    All arrays share one length; ``t`` is uniform with spacing ``dt``.  An
    uncontrolled run's one event is at t = 0, where it samples the hold it
    never refreshes, and its threshold and predicate columns hold NaN.
    Values at an event step are the pre-refresh ones, so the predicate
    column is the value that caused the firing.  The columns are the whole
    record: ``events`` is a view of the event rows.  ``inner_zv`` is the
    cross term <z, v> of V.
    """

    t: np.ndarray
    energy: np.ndarray
    lyapunov: np.ndarray
    norm_z_sq: np.ndarray
    norm_v_sq: np.ndarray
    norm_gradz_sq: np.ndarray
    norm_e_sq: np.ndarray
    inner_zv: np.ndarray
    eta0: np.ndarray
    trigger_value: np.ndarray
    event: np.ndarray
    certificate: StabilityCertificate | None
    trigger: TriggerParams | None
    mode: str
    dt: float
    meta: dict = field(default_factory=dict)

    # series.csv's columns, in file order: what the step loop computes, its
    # norms in the order of the kernel's sums, and the event flags.  Every
    # other series is rebuilt from them (dynamics.build_record).
    COLUMNS: ClassVar[tuple[str, ...]] = ("norm_z_sq", "norm_gradz_sq", "norm_v_sq", "norm_e_sq", "inner_zv", "event")
    # every per-step series of the record, the rebuilt ones first
    SERIES: ClassVar[tuple[str, ...]] = ("t", "energy", "lyapunov", "eta0", "trigger_value", *COLUMNS)

    def __post_init__(self):
        series = [getattr(self, name) for name in self.SERIES]
        if any(s.size != self.t.size for s in series):
            raise ConfigurationError("run record series have mismatched lengths")
        for arr in series:
            arr.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return self.t.size - 1

    @cached_property
    def events(self) -> EventLog:
        """The event rows as an EventLog; the first is t = 0's in every run."""
        rows = np.flatnonzero(self.event)
        return EventLog(self.t[rows], self.trigger_value[rows], self.norm_e_sq[rows], self.eta0[rows])


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one certificate check over a run record.

    ``holds`` is true at each checked row where the check's inequality
    held; the counts and the verdict are read from it, never passed in.
    """

    name: str
    holds: np.ndarray = field(repr=False, compare=False)
    worst: float
    details: dict = field(default_factory=dict)

    @property
    def n_checked(self) -> int:
        return self.holds.size

    @property
    def n_violations(self) -> int:
        return self.holds.size - int(np.count_nonzero(self.holds))

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "n_checked": self.n_checked,
            "n_violations": self.n_violations,
            "worst": float(self.worst),
            "details": self.details,
        }


def _require_certificate(record: RunRecord) -> StabilityCertificate:
    if record.certificate is None:
        raise ConfigurationError("run record carries no certificate")
    if record.t.size < 2:
        raise ConfigurationError("degenerate run: series too short to check")
    return record.certificate


def check_equivalence(record: RunRecord, rel_tol: float = 1e-9) -> CheckReport:
    """Sandwich check c1*E <= V <= c2*E at every step.

    Valid at the discrete level only when the certificate's Poincare
    constant is valid for the discrete norms, which is why certificates
    default to the discrete constant; violations are findings, not errors.
    """
    cert = _require_certificate(record)
    e, v = record.energy, record.lyapunov
    tiny = np.finfo(float).tiny
    lower = cert.c1 * e
    upper = cert.c2 * e
    rel_low = (lower - v) / np.maximum(lower, tiny)
    rel_up = (v - upper) / np.maximum(upper, tiny)
    return CheckReport(
        "equivalence",
        (rel_low <= rel_tol) & (rel_up <= rel_tol),
        float(np.max(np.maximum(rel_low, rel_up))),
        {
            "rel_tol": rel_tol,
            "worst_lower_rel": float(rel_low.max()),
            "worst_upper_rel": float(rel_up.max()),
            "c1": cert.c1,
            "c2": cert.c2,
        },
    )


def check_vdot(record: RunRecord, c_tol: float = 10.0) -> CheckReport:
    """Differential inequality check dV/dt <= -beta*E + (alpha/2)(1+alpha*eps)*eta0.

    dV/dt is approximated by centered differences on the recorded series,
    which cross-validates the integrator and the certificate arithmetic
    independently of how V was produced.  Steps within one index of an
    event are skipped: the held sample jumps there and the difference
    quotient straddles the jump.  Tolerance is c_tol * dt^2 * max|V|, over
    the finite V, so a NaN in V fails only the differences that read it.
    """
    cert = _require_certificate(record)
    v, e, eta, ev = record.lyapunov, record.energy, record.eta0, record.event.astype(bool)
    dt = record.dt
    if np.isnan(eta).any():
        raise ConfigurationError("vdot check needs the threshold series (controlled run)")
    vdot = (v[2:] - v[:-2]) / (2.0 * dt)  # index i+1 in the full series
    rhs = vdot_bound_rhs(cert, e[1:-1], eta[1:-1])  # broadcasts over the series
    usable = ~(ev[:-2] | ev[1:-1] | ev[2:])  # no event at index i, i+1 or i+2
    tol = c_tol * dt * dt * float(np.max(np.abs(v), where=np.isfinite(v), initial=0.0))
    margin = (vdot - rhs)[usable]
    return CheckReport(
        "vdot",
        margin <= tol,
        float(np.max(margin, initial=-np.inf)),
        {"c_tol": c_tol, "tolerance": tol, "excluded_steps": int(np.count_nonzero(~usable))},
    )


def sup_energy_bound(record: RunRecord, alpha: float) -> np.ndarray:
    """A bound on E over each step (t_i, t_{i+1}), from the record's columns
    alone.  The hold h is constant there and E' = -alpha <v, h>, so with
    ||v||^2 <= 2E, |d sqrt(E)/dt| <= alpha ||h|| / sqrt(2): sqrt(E) stays
    under the lines of that slope through its values at both ends, and
    sup E <= ((sqrt(E_i) + sqrt(E_{i+1}) + alpha ||h|| dt / sqrt(2)) / 2)^2.
    ||h||^2 is ``norm_v_sq`` at the last event row at or before i, as a hold
    copies that row's v."""
    rows = np.arange(record.t.size - 1)
    hold_rows = np.maximum.accumulate(np.where(record.event[:-1], rows, 0))
    root = np.sqrt(record.energy)
    return np.square(0.5 * (root[:-1] + root[1:] + alpha * record.dt * np.sqrt(0.5 * record.norm_v_sq[hold_rows])))


def check_envelope(record: RunRecord, rel_tol: float = 1e-9) -> CheckReport:
    """Decay envelope check on all of [0, T]: E(t) <= overshoot *
    exp(-decay_rate t) * E(0) at every row and, between rows, the
    :func:`sup_energy_bound` of each step against the envelope at its end,
    where the envelope is least; and the sharper two-exponential bound on V,
    V(t) <= (1+mu) V(0) exp(-decay_rate t) - mu V(0) exp(-theta t), at
    every row.

    A row violates when either of its bounds fails, or the bound of the
    step that ends there does.  ``worst`` is the largest of the three
    ratios, NaN when one is, and the details give each one's largest
    (``e_worst``, ``e_sup_worst``, ``v_worst``) and the V bound's own count.
    Also fits the empirical decay rate to ln E over the second half of the
    horizon (skipping the overshoot transient); a valid certificate is
    conservative, so the fitted rate is expected to be at least the
    certified one.  The fit is the closed-form least-squares slope, two
    sums over the centred times, with no LAPACK call whose rounding could
    depend on the CPU.
    """
    cert = _require_certificate(record)
    t, e, v = record.t, record.energy, record.lyapunov
    tiny = np.finfo(float).tiny
    decay = np.exp(-cert.decay_rate * t)
    envelope = cert.overshoot * decay * e[0]
    v_env = v[0] * ((1.0 + cert.mu) * decay - cert.mu * np.exp(-cert.theta * t))
    v_ok = v <= v_env * (1.0 + rel_tol)
    e_sup = sup_energy_bound(record, cert.alpha)
    holds = (e <= envelope * (1.0 + rel_tol)) & v_ok
    holds[1:] &= e_sup <= envelope[1:] * (1.0 + rel_tol)
    e_worst = float(np.max(e / np.maximum(envelope, tiny)))
    e_sup_worst = float(np.max(e_sup / np.maximum(envelope[1:], tiny)))
    v_worst = float(np.max(v / np.maximum(v_env, tiny)))
    fit_mask = (t >= 0.5 * t[-1]) & (e > 0)
    if np.count_nonzero(fit_mask) >= 2:
        tc = t[fit_mask] - t[fit_mask].mean()
        delta_emp = -float(np.add.reduce(tc * np.log(e[fit_mask])) / np.add.reduce(tc * tc))
    else:
        delta_emp = float("nan")
    return CheckReport(
        "envelope",
        holds,
        float(np.max([e_worst, e_sup_worst, v_worst])),
        {
            "rel_tol": rel_tol,
            "overshoot": cert.overshoot,
            "decay_rate": cert.decay_rate,
            "delta_emp": delta_emp,
            "delta_ratio": delta_emp / cert.decay_rate,
            "e_worst": e_worst,
            "e_sup_worst": e_sup_worst,
            "v_violations": int(np.count_nonzero(~v_ok)),
            "v_worst": v_worst,
        },
    )


def check_trigger_invariant(record: RunRecord) -> CheckReport:
    """Inter-event invariant of the firing rule over the whole record.

    At every non-event step the predicate must be strictly negative (the
    deviation stayed inside its allowance); at every event step after the
    unconditional one at t = 0 it must be nonnegative.  Event flags and
    predicate signs must agree exactly, since events are resolved at step
    boundaries from this very predicate; a NaN predicate is neither, and
    violates at any step.
    """
    if record.mode != "event-triggered":
        raise ConfigurationError("trigger invariant applies to event-triggered runs only")
    pred = record.trigger_value
    ev = record.event.astype(bool)
    holds = np.where(ev, pred >= 0, pred < 0)
    holds[0] |= ev[0]  # t = 0 event is unconditional
    return CheckReport(
        "trigger-invariant",
        holds,
        float(np.max(pred[~ev], initial=-np.inf)),
        {"n_events": int(np.count_nonzero(ev))},
    )
