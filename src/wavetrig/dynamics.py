"""Exact-in-time integration of the semi-discrete closed-loop wave equation
with sample-and-hold velocity feedback.

Between events the forcing -alpha * held is constant, so each mode of the
stencil's sine basis (``grid.sine_transform``) is an oscillator with a
constant force, z_hat'' = -lam z_hat - alpha held_hat, solved in closed
form: a step adds no time-discretisation error, and events, which are
resolved at step boundaries, change the forcing exactly where the hold does.

Since the flow up to the next event is known, :func:`simulate` advances it
a block of steps at a time and tests the trigger on the rows of the block
that reach the eta0 floor before it goes back to the kernel; an event cuts
the block.  Every block starts at an anchor, a held row or the last row of
a whole block, and each of its rows is that anchor times one row of a phase
table, so a row is the same product whatever the schedule; :func:`step` is
a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from . import lyapunov as _lyapunov
from . import trigger as _trigger
from .design import StabilityCertificate
from .errors import BlowUpError, ConfigurationError, ShapeError

__all__ = [
    "WaveState",
    "IntegratorConfig",
    "MODES",
    "cfl_max_dt",
    "step_count",
    "step",
    "simulate",
    "build_record",
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
    if not bound > 0:  # 4/h^2 underflows to 0 for spacings near 1e300
        raise ConfigurationError(f"the grid of lengths {g.lengths} and counts {g.counts} has no CFL bound: "
                                 f"4/h^2 underflows to 0 for its spacings {g.spacings}")
    return 2.0 / math.sqrt(bound)


def step_count(t_end: float, dt: float) -> int:
    """Steps of dt to the horizon t_end: the first that reaches it, to rounding."""
    steps = t_end / dt - 1e-9
    if not math.isfinite(steps):  # t_end / dt overflows, and no record has that many rows
        raise ConfigurationError(f"the horizon t_end = {t_end} is not a finite number of steps of dt = {dt}")
    return max(1, math.ceil(steps))


def _check_step(g: _grid.Grid, dt: float, alpha: float):
    if abs(dt) > cfl_max_dt(g) * (1.0 + 1e-12):
        raise ConfigurationError(f"|dt| = {abs(dt)} exceeds the CFL limit {cfl_max_dt(g)}")
    if alpha < 0:
        raise ConfigurationError(f"damping gain must be nonnegative, got {alpha}")


# Bytes the block buffers of the step kernel may take: a complex q and the
# four real rows, 48 bytes per coefficient and step.  That is T = 41 steps at
# n = 199 and one step (the floor) on 127x127, where a step is array-bound.
# Each of the four planes of the rows is padded to whole cache lines; the
# padding, at most 56 bytes a plane, is left out of the count.  The phase
# table of T rows takes 16 more bytes a coefficient and step, and the three
# (T, M) tiles of the kernel 24 more.
_BLOCK_BYTES = 3 << 17


def _aligned(shape: tuple, dtype=float, planes: int | None = None) -> np.ndarray:
    """An empty array starting on a 64-byte cache line: numpy aligns to 16 bytes, and a
    step's time on 127x127 depended on where in a line malloc put the kernel's buffers.
    With ``planes``, the array is that many planes of ``shape``, each padded to whole
    lines (at most 56 bytes a plane) so that every plane starts on a line too: on
    127x127 a plane is 129,032 bytes, and unpadded planes 1-3 of the rows started
    8, 16 and 24 bytes past a line, which split every wide load from them."""
    count = 1 if planes is None else planes
    size = math.prod(shape) * np.dtype(dtype).itemsize
    pitch = -(-size // 64) * 64  # a plane's bytes, rounded up to whole lines
    raw = np.empty(count * pitch + 64, dtype=np.uint8)
    raw = raw[-raw.ctypes.data % 64:][:count * pitch].reshape(count, pitch)[:, :size]
    return raw.view(dtype).reshape(shape if planes is None else (planes, *shape))


class _Modal:
    """The step kernel: the exact flow of step dt in the stencil's eigenbasis.

    With w = sqrt(lam) and the mode's rest point p = -alpha held_hat / lam,
    q = w (z_hat - p) + i v_hat turns as q' = -i w q, so the state r steps
    after an anchor state A is ``A * exp(-i w r dt)``.  The kernel keeps
    those factors for r = 1..size as its phase table, so a block of up to
    ``size`` rows that goes on from an anchor is one broadcast product.
    The kernel holds ``size`` states, one block row each: ``q[j]`` and
    ``rows[:, j]``, the rows the norms are read from (z_hat, w z_hat, v_hat
    and the deviation e_hat = v_hat - held_hat).  The hold, w p and 1/w
    are ``(size, M)`` tiles of equal rows, so that a block's rows are built
    by one flat loop a call.  Block row 0 starts as the state given.
    :meth:`hold` samples a row's v_hat into the hold and shifts that row's
    Re q to the new rest point.  Callers check dt and alpha (_check_step)
    and ignore overflow and invalid operations; :meth:`finite` tells
    whether a row blew up.
    """

    def __init__(
        self, g: _grid.Grid, z: np.ndarray, v: np.ndarray, held: np.ndarray | None, alpha: float, dt: float, size=1
    ):
        """The kernel at the flat fields z, v and the hold ``held`` (None for
        v, which saves its sine transform), with room for ``size`` states."""
        w = np.sqrt(_grid.eigenvalues(g))
        self.held = _aligned((size, w.size))
        self.rows = _aligned((size, w.size), planes=4)
        _lyapunov.modal_rows(g, z, v, w, out=self.rows[:, 0])
        self.held[:] = self.rows[2, 0] if held is None else _grid.sine_transform(held, g)
        np.subtract(self.rows[2, 0], self.held[0], out=self.rows[3, 0])
        self._wp = _aligned((size, w.size))  # w p, from _shift
        self._phase = _aligned((size, w.size), complex)  # exp(-i w r dt), built in place
        angle = self._phase.imag  # r (-w dt), until its sine
        np.multiply(w, -dt, out=angle[0])
        np.multiply(np.arange(2.0, size + 1.0)[:, None], angle[:1], out=angle[1:])
        np.cos(angle, out=self._phase.real)
        np.sin(angle, out=angle)
        self._winv = np.divide(1.0, w, out=_aligned((size, w.size)))
        self.q = _aligned((size, w.size), complex)
        # a copy of the anchor, which a block of more than one row overwrites;
        # a one-row block is its own (1, M) input and output, and has no buffer
        self._anchor = _aligned((1, w.size), complex) if size > 1 else None
        self._k = 0  # the block length of _views
        self._alpha = alpha
        np.copyto(self.q[0].imag, self.rows[2, 0])
        self._shift(0)

    def _shift(self, j: int):  # w p = -alpha held_hat / w, and Re q = w z_hat - w p
        np.multiply(self.held, self._winv, out=self._wp)
        np.multiply(self._wp, -self._alpha, out=self._wp)
        np.subtract(self.rows[1, j], self._wp[0], out=self.q[j].real)

    def hold(self, j: int):
        """Drive the forcing -alpha * v_hat of block row j from there on."""
        np.copyto(self.held, self.rows[2, j])
        self._shift(j)

    def advance(self, k: int = 1, start: int = 0) -> np.ndarray:
        """k <= size steps on from block row ``start``, an anchor, into
        block rows 0 to k-1; returns their rows, ``rows[:, :k]``.

        Block row r is the anchor times row r of the phase table, one
        product for the whole block.  The anchor goes in as a (1, M) array:
        with more than one row it is first copied out of the rows the block
        overwrites, which costs less than numpy's own copy for the overlap.
        """
        anchor = self.q[start:start + 1]
        if self._anchor is not None:
            np.copyto(self._anchor, anchor)
            anchor = self._anchor
        np.multiply(anchor, self._phase[:k], out=self.q[:k])
        re, im, rows, zh, wz, vh, eh, wp, winv, held = self._block(k)
        np.add(re, wp, out=wz)
        np.multiply(wz, winv, out=zh)
        np.copyto(vh, im)
        np.subtract(vh, held, out=eh)
        return rows

    def sums(self, k: int, out: np.ndarray):  # lyapunov.norm_sums of block rows 0 to k-1, into (5, k)
        _lyapunov.norm_sums(self._block(k)[2], out)

    def _block(self, k: int) -> tuple:
        # views of the first k block rows and tile rows, made again only when
        # k changes; at one step a block, making them each step cost 4 of 14
        # us a step on a small grid
        if k != self._k:
            q, rows = self.q[:k], self.rows[:, :k]
            self._k, self._views = k, (q.real, q.imag, rows, *rows, self._wp[:k], self._winv[:k], self.held[:k])
        return self._views

    def finite(self, j: int) -> bool:
        """Whether every coefficient of z and v in block row j is finite."""
        return bool(np.isfinite(self.rows[::2, j]).all())


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
        rows = _Modal(g, s.z.values, s.v.values, s.held.values, alpha, dt).advance()
        z, v = _grid.sine_transform(rows[0, 0], g), _grid.sine_transform(rows[2, 0], g)
    if not (np.isfinite(z).all() and np.isfinite(v).all()):
        raise BlowUpError(f"non-finite state after step from t = {s.t}", time=s.t)
    return WaveState(
        t=s.t + dt,
        z=_grid.Field(z, g),
        v=_grid.Field(v, g),
        held=s.held,
        k=s.k,
        t_k=s.t_k,
    )


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
    pre-refresh ones.  Every mode but the event-triggered one holds at the
    rows that P (``trigger.hold_rows``) divides; an uncontrolled run's P is
    the record's length, so it holds z1 from t = 0 on with gain 0, and the
    hold drives nothing.  Every row the scan tests, the t = 0 one included,
    is taken from the step kernel's buffers by one loop body.

    The loop takes blocks of steps: the kernel steps a block at once and
    writes the block's norm sums into the series columns
    (``lyapunov.norm_sums``), and a scan of the block's rows, as Python floats,
    cuts the block after the first row that fires.  In an event-triggered
    block after row 0 whose norms are all finite, the scan passes every row
    with ||e||^2 < eta0 untested, which cannot change an event: gamma0
    ||z||^2 and gamma1 ||v||^2 are >= 0 and rounding is monotone, so each
    difference of the predicate rounds to at most ||e||^2, and
    fl(x - eta0) >= 0 iff x >= eta0; a predicate >= 0 implies ||e||^2 >=
    eta0, the same product fl(w s_e) in both tests.  A block with a
    non-finite norm, which may be a blow-up, tests every row, so
    BlowUpError names the same step.  Every block goes on
    from an anchor, the row just held or the last row of a whole block,
    up to the next multiple of P, at most a phase table of T rows
    (``_BLOCK_BYTES``) and at most the horizon.  So the anchors are the
    holds and every T-th row after one, and each row is its anchor times
    one factor of the table, whatever the mode.  The eta0 column is filled
    before the loop; after it, one product scales the sums to the norms,
    and :func:`build_record` rebuilds the other series from them, the
    predicate column by the formula the scan tested.

    The Lyapunov column uses the certificate's cross-weight when one is
    given, else it degenerates to the energy.  Uncontrolled runs force
    alpha = 0 and record NaN threshold/predicate columns.  A horizon whose
    record cannot be allocated is a ConfigurationError.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "event-triggered" and trigger_params is None:
        raise ConfigurationError("event-triggered mode needs trigger parameters")
    if mode == "periodic":
        if period is None or not period > 0:
            raise ConfigurationError(f"periodic mode needs a positive period, got {period}")
    if z0.grid != g or z1.grid != g:
        raise ShapeError("the initial data do not live on the run's grid")
    if certificate is not None and certificate.alpha != alpha:
        raise ConfigurationError(f"certificate made for alpha = {certificate.alpha}, the run has alpha = {alpha}")

    uncontrolled, event_triggered = mode == "uncontrolled", mode == "event-triggered"
    a = 0.0 if uncontrolled else float(alpha)
    eps = certificate.epsilon if certificate is not None else 0.0
    dt = config.resolve_dt(g)
    n_steps = step_count(config.t_end, dt)

    m = n_steps + 1
    # the norms, written in place by the loop in the order of the kernel's
    # sums, then the eta0 column the scan tests
    try:
        cols, event = np.full((6, m), np.nan), np.zeros(m, dtype=bool)
    except (MemoryError, ValueError) as exc:  # ValueError: more rows than an array may have
        raise ConfigurationError(f"the {m} rows of dt = {dt} to t_end = {config.t_end} cannot be held: {exc}") from exc
    if trigger_params is not None and not uncontrolled:
        cols[5] = _trigger.eta0(np.arange(m) * dt, trigger_params)

    _check_step(g, dt, a)
    w = g.weight
    period_rows = _trigger.hold_rows(mode, dt, period, m)  # P: a scheduled hold is due at the rows P divides
    size = max(1, _BLOCK_BYTES // (48 * g.num_interior))
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected per row
        # the hold starts as z1, so row 0's deviation is zero
        kernel = _Modal(g, z0.values, z1.values, None, a, dt, size)
        i, n, j = 0, 1, 0  # the block's first row, its length and the block row it goes on from
        while i < m:  # the first block is row 0, the initial state: it takes no step
            if i:
                kernel.advance(n, j)
            block = cols[:, i:i + n]
            kernel.sums(n, out=block[:5])  # w times them are the norms, by Parseval
            # the block ends at its first row that fires; a scan over Python
            # floats, which at one row a block costs less than array calls
            s_z, s_gz, s_v, s_e, s_zv, eta_b = block.tolist()
            tested = range(n)
            # predicate >= 0 implies fl(w s_e) >= eta0 (rounding is monotone
            # and fl(x - y) >= 0 iff x >= y), so a row below the floor cannot
            # fire and is passed; unless the block, whose sums are of squares,
            # has a non-finite total, which may be a blow-up, or is row 0
            if event_triggered and i and math.isfinite(sum(s_z) + sum(s_v)):
                tested = [j for j, (ne_j, eta_j) in enumerate(zip(s_e, eta_b)) if not w * ne_j < eta_j]
            for j in tested:
                row = i + j
                nz_j, nv_j, ne_j = w * s_z[j], w * s_v[j], w * s_e[j]
                # a non-finite entry makes its norm non-finite; the entrywise
                # test runs only then, as norms of huge finite fields overflow
                if not (math.isfinite(nz_j) and math.isfinite(nv_j)) and not kernel.finite(j):
                    raise BlowUpError(f"blow-up at step {row} (t = {row * dt})", step=row, time=row * dt)
                if not row:  # t = 0: refuse degenerate data; the event there is unconditional
                    v_0 = _trigger.threshold_scale((nz_j, nv_j, w * s_gz[0], w * s_zv[0]), eps, a, "v0")
                    _lyapunov.require_nondegenerate(v_0, g, "Lyapunov value")
                    event[0] = True
                if event_triggered:
                    fire = _trigger.predicate_from_norms(ne_j, nz_j, nv_j, eta_b[j], trigger_params) >= 0.0
                else:  # the schedule's rows
                    fire = row % period_rows == 0
                if fire:
                    event[row] = True
                    kernel.hold(j)
                    break
            else:  # no row fired: the next block goes on from its last
                j = n - 1
            # up to the next row the schedule makes due, at most T rows and the horizon
            row = i + j
            i = row + 1
            n = min(period_rows - row % period_rows, size, m - i)
        np.multiply(cols[:5], w, out=cols[:5])  # the norms from their sums
    meta = {"t_end": config.t_end, "period": period, "grid": _grid.grid_meta(g)}
    return build_record(
        dict(zip(_lyapunov.RunRecord.COLUMNS, cols[:5]), event=event),
        certificate=certificate, trigger_params=trigger_params, mode=mode, dt=dt, meta=meta, eta0=cols[5],
    )


def build_record(
    columns: dict[str, np.ndarray],
    certificate: StabilityCertificate | None,
    trigger_params: _trigger.TriggerParams | None,
    mode: str,
    dt: float,
    meta: dict | None = None,
    eta0: np.ndarray | None = None,
) -> _lyapunov.RunRecord:
    """The record of a run from what its loop computes, the six series
    ``RunRecord.COLUMNS`` in every mode, and its certificate, trigger and
    mode; :func:`simulate` and ``runio.load_run`` both build their records
    here.

    The other series are rebuilt: ``t = k dt``, E and V by
    ``lyapunov.energy_lyapunov`` with the certificate's eps and alpha
    (alpha = 0 uncontrolled, eps = 0 with no certificate, when V is E),
    and, when trigger parameters drive a run that is not uncontrolled,
    ``eta0`` (``trigger.eta0``, unless the caller has the column already)
    and ``trigger_value`` (``trigger.predicate_from_norms``); else NaN.
    """
    m = columns["norm_z_sq"].size
    nan = np.full(m, np.nan)
    uncontrolled = mode == "uncontrolled"
    eps = certificate.epsilon if certificate is not None else 0.0
    a = certificate.alpha if certificate is not None and not uncontrolled else 0.0
    t = np.arange(m) * dt
    pred = nan
    with np.errstate(over="ignore", invalid="ignore"):  # numpy warns on 0 * inf where Python floats do not
        energy, lyap = _lyapunov.energy_lyapunov(
            columns["norm_z_sq"], columns["norm_v_sq"], columns["norm_gradz_sq"], columns["inner_zv"], eps, a
        )
        if trigger_params is not None and not uncontrolled:
            eta0 = _trigger.eta0(t, trigger_params) if eta0 is None else eta0
            pred = _trigger.predicate_from_norms(
                columns["norm_e_sq"], columns["norm_z_sq"], columns["norm_v_sq"], eta0, trigger_params
            )
    return _lyapunov.RunRecord(
        t=t, energy=energy, lyapunov=lyap, eta0=nan if eta0 is None else eta0, trigger_value=pred, **columns,
        certificate=certificate, trigger=trigger_params, mode=mode, dt=dt, meta={} if meta is None else meta,
    )
