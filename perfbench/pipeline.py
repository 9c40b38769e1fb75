"""The wavetrig pipeline taken apart into its public calls, with a span
around each call.

The fresh-interpreter set-up probe and the traced run both use it.  It
does what the ``wavetrig`` CLI does for ``simulate``, ``sweep`` and
``verify``, so on the same inputs it writes byte-identical series and
event files.  Spans are (name, start, end, parent index, op id).  A span's
name starts with the layer it times (``grid.``, ``dynamics.``, ...).
Spans named ``op...`` group the calls of one operation and hold no work of
their own.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path

from wavetrig import config as _config
from wavetrig import design as _design
from wavetrig import dynamics as _dynamics
from wavetrig import grid as _grid
from wavetrig import initial as _initial
from wavetrig import lyapunov as _lyapunov
from wavetrig import runio as _runio
from wavetrig import trigger as _trigger

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """Spans kept in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[dict]:
        """Each span with its duration and its self time (duration minus the
        time its child spans cover; children of one span never overlap)."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            {"name": name, "op": op, "parent": parent, "start": start, "end": end,
             "dur": end - start, "self": end - start - child[i]}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]


@dataclass
class Prepared:
    cfg: _config.RunConfig
    grid: _grid.Grid
    cert: _design.StabilityCertificate
    z0: _grid.Field
    z1: _grid.Field
    params: _trigger.TriggerParams


def prepare(config_path: Path, tr: Tracer, cell: tuple[float, float] | None = None) -> Prepared | None:
    """Everything before the first step.  ``cell`` = (alpha, length) sets up
    one sweep cell as ``wavetrig sweep`` does; None for an infeasible cell."""
    with tr.span("config.load"):
        cfg = _config.load_config(config_path)
        if cell is not None:
            cfg.alpha = cell[0]
            cfg.domain = dict(cfg.domain, length=cell[1])
    with tr.span("grid.build"):
        g = cfg.build_grid()
    with tr.span("grid.poincare"):
        c_omega = _grid.discrete_poincare_constant(g)
    if c_omega >= _design.SQRT2:
        return None
    with tr.span("design.certificate"):
        cert = _design.build_certificate(
            _design.DesignInput(
                alpha=cfg.alpha,
                c_omega=c_omega,
                c_omega_source="discrete" if cell is None else "user",
                s_gamma0=cfg.design.s_gamma0,
                s_gamma1=cfg.design.s_gamma1,
                theta_margin=cfg.design.theta_margin,
            )
        )
    with tr.span("initial.build"):
        z0 = _initial.build_field(g, cfg.z0)
        z1 = _initial.build_field(g, cfg.z1)
    with tr.span("trigger.threshold_scale"):
        scale = _trigger.initial_threshold_scale(z0, z1, cert.epsilon, cfg.alpha, g, variant=cfg.design.eta0_variant)
        params = _trigger.TriggerParams.from_certificate(cert, scale)
    return Prepared(cfg, g, cert, z0, z1, params)


def check(record: _lyapunov.RunRecord, tr: Tracer) -> tuple[bool, dict, int]:
    """The four certificate checks and the dwell report of an
    event-triggered run: (passed, reports, violations)."""
    with tr.span("lyapunov.checks"):
        reports = [
            _lyapunov.check_equivalence(record),
            _lyapunov.check_vdot(record),
            _lyapunov.check_envelope(record),
            _lyapunov.check_trigger_invariant(record),
        ]
    with tr.span("trigger.zeno"):
        stats = _trigger.zeno_report(record.events, horizon=float(record.t[-1]), dt=record.dt)
    passed = all(r.passed for r in reports) and stats.floor_ok and stats.min_dwell >= record.dt * (1.0 - 1e-12)
    return passed, {r.name: r.to_dict() for r in reports}, sum(r.n_violations for r in reports)


def simulate(p: Prepared, out: Path, tr: Tracer) -> tuple[_lyapunov.RunRecord, bool]:
    """Simulate, check and save one prepared run into ``out``."""
    integ = _dynamics.IntegratorConfig(t_end=p.cfg.t_end, dt=p.cfg.dt, cfl_fraction=p.cfg.cfl_fraction)
    with tr.span("dynamics.simulate"):
        record = _dynamics.simulate(p.z0, p.z1, p.cfg.alpha, p.grid, integ, p.params, p.cert, mode=p.cfg.mode)
    passed, reports, _ = check(record, tr)
    with tr.span("runio.save"):
        _runio.save_run(record, out, summary_extra={"checks": reports, "checks_passed": passed})
    return record, passed


def verify(rundir: Path, tr: Tracer) -> tuple[bool, int]:
    """Load a run directory and re-check it: (passed, violations)."""
    with tr.span("runio.load"):
        record, _summary = _runio.load_run(rundir)
    passed, _reports, violations = check(record, tr)
    return passed, violations


def cell_dirname(alpha: float, length: float) -> str:
    """Directory name ``wavetrig sweep`` gives a cell."""
    return f"cell_a{alpha:g}_L{length:g}"


def operation(inp: dict, out: Path, tr: Tracer) -> dict:
    """One operation of the workload through the public calls: prepare,
    simulate, check and save every run (one, or each sweep cell), then load
    and re-check each.  Returns what the correctness gate and the per-layer
    metrics need."""
    spec = inp["spec"]
    if "alphas" in spec:
        cells = [(a, length) for a in spec["alphas"] for length in spec["lengths"]]
    else:
        cells = [None]
    info = {"rundirs": [], "steps": 0, "events": 0, "shrink_iterations": 0,
            "violations": 0, "failures": []}
    with tr.span("op.simulate"):
        for cell in cells:
            p = prepare(inp["config"], tr, cell)
            if p is None:
                continue
            rundir = out if cell is None else out / cell_dirname(*cell)
            record, passed = simulate(p, rundir, tr)
            info["rundirs"].append(rundir)
            info["steps"] += record.n_steps
            info["events"] += len(record.events)
            info["shrink_iterations"] += p.cert.diagnostics["shrink_iterations"]
            if not passed:
                info["failures"].append(f"{rundir.name}: checks failed after simulate")
    with tr.span("op.verify"):
        for rundir in info["rundirs"]:
            passed, violations = verify(rundir, tr)
            info["violations"] += violations
            if not passed:
                info["failures"].append(f"{rundir.name}: checks failed after load")
    return info
