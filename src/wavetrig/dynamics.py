"""Exact-in-time integration of the semi-discrete closed-loop wave equation
with sample-and-hold velocity feedback.

Between events the forcing -alpha * held is constant, so each mode of the
stencil's sine basis (``grid.sine_transform``) is an oscillator with a
constant force, z_hat'' = -lam z_hat - alpha held_hat, solved in closed
form: a step adds no time-discretisation error, and events, which are
resolved at step boundaries, change the forcing exactly where the hold does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from . import lyapunov as _lyapunov
from . import trigger as _trigger
from .design import StabilityCertificate
from .errors import BlowUpError, ConfigurationError

__all__ = [
    "WaveState",
    "IntegratorConfig",
    "MODES",
    "cfl_max_dt",
    "step",
    "refresh_sample",
    "simulate",
]

# Update policies of the hold; see simulate.
MODES = ("event-triggered", "continuous-damping", "periodic", "uncontrolled")


@dataclass
class WaveState:
    """State of the hybrid system: position z, velocity v, the held velocity
    sample driving the control, the sample index k and its time t_k."""

    t: float
    z: _grid.Field
    v: _grid.Field
    held: _grid.Field
    k: int
    t_k: float

    def __post_init__(self):
        if not (self.z.grid == self.v.grid == self.held.grid):
            raise ConfigurationError("state fields live on different grids")
        if self.t < self.t_k or self.t_k < 0 or self.k < 0:
            raise ConfigurationError(f"inconsistent state times t={self.t}, t_k={self.t_k}, k={self.k}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Time step selection: explicit dt, or a fraction of the CFL limit."""

    t_end: float
    dt: float | None = None
    cfl_fraction: float = 0.5

    def __post_init__(self):
        if not self.t_end > 0:
            raise ConfigurationError(f"horizon must be positive, got {self.t_end}")
        if not 0 < self.cfl_fraction <= 1:
            raise ConfigurationError(f"cfl_fraction must lie in (0, 1], got {self.cfl_fraction}")
        if self.dt is not None and not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")

    def resolve_dt(self, g: _grid.Grid) -> float:
        limit = self.cfl_fraction * cfl_max_dt(g)
        if self.dt is None:
            return limit
        if self.dt > limit * (1.0 + 1e-12):
            raise ConfigurationError(
                f"dt = {self.dt} exceeds cfl_fraction * cfl_max_dt = {limit}"
            )
        return self.dt


def cfl_max_dt(g: _grid.Grid) -> float:
    """The CFL bound 2/sqrt(lam_max), from the stencil bound
    lam_max <= 4/dx^2 (+ 4/dy^2), that step and simulate hold |dt| to.  The
    exact flow is stable at any dt; dt sets how often the trigger samples."""
    bound = sum(4.0 / (h * h) for h in g.spacings)
    return 2.0 / math.sqrt(bound)


def _check_step(g: _grid.Grid, dt: float, alpha: float):
    if abs(dt) > cfl_max_dt(g) * (1.0 + 1e-12):
        raise ConfigurationError(f"|dt| = {abs(dt)} exceeds the CFL limit {cfl_max_dt(g)}")
    if alpha < 0:
        raise ConfigurationError(f"damping gain must be nonnegative, got {alpha}")


class _Modal:
    """The step kernel: the exact flow of step dt in the stencil's eigenbasis.

    With w = sqrt(lam) and the mode's rest point p = -alpha held_hat / lam,
    q = w (z_hat - p) + i v_hat turns as q' = -i w q, so a step is the one
    in-place product ``q *= exp(-i w dt)``.  ``rows`` holds the state the
    norms are read from, rebuilt after every step: z_hat, w z_hat, v_hat and
    the deviation e_hat = v_hat - held_hat.  :meth:`hold` samples v_hat into
    the hold and shifts Re q to the new rest point.  Callers check dt and
    alpha (_check_step) and ignore overflow and invalid operations;
    :meth:`finite` tells whether the state blew up.
    """

    def __init__(self, g: _grid.Grid, z: np.ndarray, v: np.ndarray, held: np.ndarray, alpha: float, dt: float):
        """The kernel at the flat fields z, v and the hold ``held``."""
        w = np.sqrt(_grid.eigenvalues(g))
        self.held = _grid.sine_transform(held, g)
        self.rows = _lyapunov.modal_rows(g, z, v, w)
        self.zh, self.wz, self.vh, self.eh = self.rows
        np.subtract(self.vh, self.held, out=self.eh)
        self._wp = np.multiply(w, -dt)  # the phase -w dt, until _shift makes it w p
        self._rot = np.empty(w.size, dtype=complex)  # exp(-i w dt), built in place
        np.cos(self._wp, out=self._rot.real)
        np.sin(self._wp, out=self._rot.imag)
        self._winv = np.divide(1.0, w, out=w)
        self.q = np.empty_like(self._rot)
        self._re, self._im = self.q.real, self.q.imag
        self._alpha = alpha
        self._shift()
        np.copyto(self._im, self.vh)

    def _shift(self):  # w p = -alpha held_hat / w, and Re q = w z_hat - w p
        np.multiply(self.held, self._winv, out=self._wp)
        np.multiply(self._wp, -self._alpha, out=self._wp)
        np.subtract(self.wz, self._wp, out=self._re)

    def hold(self):
        """Drive the forcing -alpha * v_hat from now on."""
        np.copyto(self.held, self.vh)
        self._shift()

    def advance(self):
        """One step, then the rows of the new state."""
        np.multiply(self.q, self._rot, out=self.q)
        np.add(self._re, self._wp, out=self.wz)
        np.multiply(self.wz, self._winv, out=self.zh)
        np.copyto(self.vh, self._im)
        np.subtract(self.vh, self.held, out=self.eh)

    def finite(self) -> bool:
        """Whether every coefficient of z and v is finite."""
        return bool(np.isfinite(self.rows[::2]).all())


def step(s: WaveState, dt: float, alpha: float) -> WaveState:
    """One exact step with the forcing -alpha * held frozen.

    Accepts negative dt (the flow is time reversible); |dt| must respect
    the CFL limit.  Raises BlowUpError on non-finite output.  A thin wrapper
    over the kernel that simulate runs: it transforms the state into the
    sine basis, steps there and transforms back.
    """
    g = s.z.grid
    _check_step(g, dt, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
        kernel = _Modal(g, s.z.values, s.v.values, s.held.values, alpha, dt)
        kernel.advance()
        z, v = _grid.sine_transform(kernel.zh, g), _grid.sine_transform(kernel.vh, g)
    if not (np.isfinite(z).all() and np.isfinite(v).all()):
        raise BlowUpError(f"non-finite state after step from t = {s.t}", time=s.t)
    return WaveState(
        t=s.t + dt,
        z=_grid.Field(z, g, validate=False),
        v=_grid.Field(v, g, validate=False),
        held=s.held,
        k=s.k,
        t_k=s.t_k,
    )


def refresh_sample(s: WaveState, t_event: float) -> WaveState:
    """Sample the current velocity into the hold; increments k.

    Events are resolved at step boundaries, so t_event must be the state's
    current time.  The deviation is exactly zero afterwards.
    """
    if t_event != s.t:
        raise ConfigurationError(f"event time {t_event} is not the state time {s.t}")
    return WaveState(t=s.t, z=s.z, v=s.v, held=s.v.copy(), k=s.k + 1, t_k=t_event)


def simulate(
    z0: _grid.Field,
    z1: _grid.Field,
    alpha: float,
    g: _grid.Grid,
    config: IntegratorConfig,
    trigger_params: _trigger.TriggerParams | None = None,
    certificate: StabilityCertificate | None = None,
    mode: str = "event-triggered",
    period: float | None = None,
) -> RunRecord:
    """Run the closed loop to the horizon and record per-step series.

    An unconditional event fires at t = 0 (held := z1).  After every step
    the update policy of ``mode`` is evaluated on the post-step state and
    the hold is refreshed when it fires; recorded step values are the
    pre-refresh ones.  Every row, the t = 0 one included, is taken from
    the step kernel's buffers by one loop body.

    The Lyapunov column uses the certificate's cross-weight when one is
    given, else it degenerates to the energy.  Uncontrolled runs force
    alpha = 0 and record NaN deviation/threshold/predicate columns.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "event-triggered" and trigger_params is None:
        raise ConfigurationError("event-triggered mode needs trigger parameters")
    if mode == "periodic":
        if period is None or not period > 0:
            raise ConfigurationError(f"periodic mode needs a positive period, got {period}")

    uncontrolled = mode == "uncontrolled"
    a = 0.0 if uncontrolled else float(alpha)
    eps = certificate.epsilon if certificate is not None else 0.0
    dt = config.resolve_dt(g)
    n_steps = max(1, int(math.ceil(config.t_end / dt - 1e-9)))

    m = n_steps + 1
    # the series columns, written in place by the loop; cross is <z, v>
    nz, nv, ngz, cross, ne, eta, pred = (np.full(m, np.nan) for _ in range(7))
    event = np.zeros(m, dtype=bool)

    _check_step(g, dt, a)
    # lam1 and the margin by which C_Omega = 1/sqrt(lam1 (1 - margin)) is raised
    grid_meta = {
        "counts": list(g.counts),
        "spacings": list(g.spacings),
        "lam1": float(_grid.eigenvalues(g)[0]),
        "poincare_margin": _grid.POINCARE_MARGIN,
    }
    w = g.weight
    t_k = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected per step
        # the hold starts as z1, so row 0's deviation is zero
        kernel = _Modal(g, z0.values, z1.values, z1.values, a, dt)
        rows, zh, vh = kernel.rows, kernel.zh, kernel.vh
        sums = np.empty(len(rows))
        for i in range(m):  # row 0 is the initial state: its pass takes no step
            if i:
                kernel.advance()
            t = i * dt  # keep the time grid exactly uniform
            # the norms by Parseval, in the arithmetic of lyapunov.field_norms
            s_z, s_gz, s_v, s_e = np.vecdot(rows, rows, out=sums).tolist()
            nz_i, nv_i = w * s_z, w * s_v
            # a non-finite entry makes its norm non-finite; the entrywise
            # test runs only then, as norms of huge finite fields overflow
            if not (math.isfinite(nz_i) and math.isfinite(nv_i)) and not kernel.finite():
                raise BlowUpError(f"blow-up at step {i} (t = {t})", step=i, time=t)
            nz[i], nv[i] = nz_i, nv_i
            ngz[i] = ngz_i = w * s_gz
            cross[i] = cross_i = w * float(np.dot(zh, vh))
            if not i:  # t = 0: refuse degenerate data; the event there is unconditional
                v_0 = _lyapunov.energy_lyapunov(nz_i, nv_i, ngz_i, cross_i, eps, a)[1]
                _lyapunov.require_nondegenerate(v_0, g, "Lyapunov value")
                event[0] = not uncontrolled
            if uncontrolled:
                continue
            ne[i] = ne_i = w * s_e
            if trigger_params is not None:
                eta[i] = eta_i = _trigger.eta0(t, trigger_params)
                pred[i] = pred_i = _trigger.predicate_from_norms(ne_i, nz_i, nv_i, eta_i, trigger_params)
            if mode == "event-triggered":
                fire = pred_i >= 0.0
            elif mode == "continuous-damping":
                fire = True
            else:  # periodic
                fire = t - t_k >= period * (1.0 - 1e-12)
            if fire:
                event[i] = True
                kernel.hold()
                t_k = t
        # numpy warns on 0 * inf in V where Python floats did not
        energy, lyap = _lyapunov.energy_lyapunov(nz, nv, ngz, cross, eps, a)

    return _lyapunov.RunRecord(
        t=np.arange(m) * dt,
        energy=energy,
        lyapunov=lyap,
        norm_z_sq=nz,
        norm_v_sq=nv,
        norm_gradz_sq=ngz,
        norm_e_sq=ne,
        eta0=eta,
        trigger_value=pred,
        event=event,
        certificate=certificate,
        trigger=trigger_params,
        mode=mode,
        dt=dt,
        meta={
            "alpha": a,
            "n_steps": n_steps,
            "t_end": config.t_end,
            "period": period,
            "grid": grid_meta,
        },
    )
