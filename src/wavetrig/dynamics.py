"""Leapfrog (velocity Verlet) time integration of the closed-loop wave
equation with sample-and-hold velocity feedback.

The forcing -alpha * held is exactly piecewise constant: the held sample
changes only at events, events are resolved at step boundaries, and the
integrator never interpolates the forcing, so the hold introduces no
scheme-level error at event instants.
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
    """Stability limit 2/sqrt(lam_max) from the stencil bound
    lam_max <= 4/dx^2 (+ 4/dy^2)."""
    bound = sum(4.0 / (h * h) for h in g.spacings)
    return 2.0 / math.sqrt(bound)


def _check_step(g: _grid.Grid, dt: float, alpha: float):
    if abs(dt) > cfl_max_dt(g) * (1.0 + 1e-12):
        raise ConfigurationError(f"|dt| = {abs(dt)} exceeds the CFL limit {cfl_max_dt(g)}")
    if alpha < 0:
        raise ConfigurationError(f"damping gain must be nonnegative, got {alpha}")


class _Leapfrog:
    """The step kernel: velocity Verlet of step dt in place on seven flat
    buffers carved from one block by :func:`grid.carve`.

    The stencil's buffer (z and its ghost rows), ``lap`` and ``scratch``, v,
    the forcing -alpha * held, the half kick dt/2 * (L z + forcing) and the
    hold start 512 bytes apart modulo 4096 (4K aliasing: at 127x127 a step
    took about 100 us so, and 116-142 us with ``lap``, v and the kick 32
    bytes apart).  z is the stencil's ``values``; ``stencil.lap`` holds L z
    between steps, and the half kick that closes one step opens the next
    (first same as last), so a step applies the stencil once and forms the
    kick once; :meth:`hold` re-forms it when the forcing changes.  Callers
    check dt and alpha (_check_step) and ignore overflow and invalid
    operations; :meth:`finite` tells whether the state blew up.
    """

    def __init__(
        self, g: _grid.Grid, z: np.ndarray, v: np.ndarray, held: np.ndarray, alpha: float, dt: float
    ):
        bufs = _grid.carve(g, 7)
        self.stencil = _grid.Stencil(g, z, bufs)
        self.stencil.laplacian()
        self.z = self.stencil.values
        self.v, self.forcing, self.kick, self.held = bufs[3:]
        self.v[...] = v
        self.alpha = alpha
        self.dt = dt
        self._half = 0.5 * dt
        self.hold(held)

    def hold(self, held: np.ndarray):
        """Drive the forcing -alpha * held from now on (``held`` is copied)."""
        np.copyto(self.held, held)
        np.multiply(self.held, -self.alpha, out=self.forcing)
        self._form_kick()

    def _form_kick(self):
        # kick = dt/2 * (L z + forcing)
        np.add(self.stencil.lap, self.forcing, out=self.kick)
        np.multiply(self.kick, self._half, out=self.kick)

    def advance(self):
        """One step; afterwards ``stencil.lap`` holds L z of the new z."""
        np.add(self.v, self.kick, out=self.v)
        np.multiply(self.v, self.dt, out=self.kick)  # the kick is spent until _form_kick
        np.add(self.z, self.kick, out=self.z)
        self.stencil.laplacian()  # L z_new, which the next step starts from
        self._form_kick()
        np.add(self.v, self.kick, out=self.v)

    def finite(self) -> bool:
        """Whether every entry of z and v is finite."""
        return bool(np.isfinite(self.z).all() and np.isfinite(self.v).all())


def step(s: WaveState, dt: float, alpha: float) -> WaveState:
    """One velocity-Verlet step with the forcing -alpha * held frozen.

    Accepts negative dt (the scheme is time reversible); |dt| must respect
    the CFL limit.  Raises BlowUpError on non-finite output.  A thin wrapper
    over the kernel that simulate runs; the state's z and v own their memory.
    """
    g = s.z.grid
    _check_step(g, dt, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
        kernel = _Leapfrog(g, s.z.values, s.v.values, s.held.values, alpha, dt)
        kernel.advance()
    if not kernel.finite():
        raise BlowUpError(f"non-finite state after step from t = {s.t}", time=s.t)
    return WaveState(
        t=s.t + dt,
        z=_grid.Field(kernel.z.copy(), g, validate=False),  # copies: a kept state
        v=_grid.Field(kernel.v.copy(), g, validate=False),  # must not pin the block
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
    w = g.weight
    t_k = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected per step
        # the hold starts as a copy of z1, so row 0's deviation is zero
        kernel = _Leapfrog(g, z0.values, z1.values, z1.values, a, dt)
        lap, zv, vv = kernel.stencil.lap, kernel.z, kernel.v
        dev = kernel.stencil.scratch  # free until the next step's laplacian()
        for i in range(m):  # row 0 is the initial state: its pass takes no step
            if i:
                kernel.advance()
            t = i * dt  # keep the time grid exactly uniform
            nz_i = w * float(np.dot(zv, zv))
            nv_i = w * float(np.dot(vv, vv))
            # a non-finite entry makes its norm non-finite; the entrywise
            # test runs only then, as norms of huge finite fields overflow
            if not (math.isfinite(nz_i) and math.isfinite(nv_i)) and not kernel.finite():
                raise BlowUpError(f"blow-up at step {i} (t = {t})", step=i, time=t)
            nz[i], nv[i] = nz_i, nv_i
            ngz[i] = ngz_i = -(w * float(np.dot(lap, zv)))  # summation by parts: -w <L z, z>
            cross[i] = cross_i = w * float(np.dot(zv, vv))
            if not i:  # t = 0: refuse degenerate data; the event there is unconditional
                v_0 = _lyapunov.energy_lyapunov(nz_i, nv_i, ngz_i, cross_i, eps, a)[1]
                _lyapunov.require_nondegenerate(v_0, g, "Lyapunov value")
                event[0] = not uncontrolled
            if uncontrolled:
                continue
            np.subtract(vv, kernel.held, out=dev)
            ne[i] = ne_i = w * float(np.dot(dev, dev))
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
                kernel.hold(vv)
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
            "grid": {"counts": list(g.counts), "spacings": list(g.spacings)},
        },
    )
