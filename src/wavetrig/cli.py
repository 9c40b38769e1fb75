"""Command line interface: design / simulate / sweep / verify.

Exit codes; from 2 up each is the ``exit_code`` of a ``wavetrig.errors`` class:
  0   every gating check passed
  1   a gating check failed (sweep: a cell errored or failed one)
  2   infeasible domain, C_Omega >= sqrt(2)
  3   design failure
  4   blow-up: non-finite values
  5   degenerate initial data
  64  usage or configuration error; a config file missing, unreadable or not UTF-8 JSON
  65  malformed data: a certificate, summary, series, events or initial-data file unreadable or invalid
  66  missing input: a certificate, run directory (or a file of one) or initial-data file that does not exist
  73  output error: an --out directory or a file in it that cannot be created or written
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

from . import dynamics as _dynamics
from . import lyapunov as _lyapunov
from . import runio as _runio
from . import trigger as _trigger
from .config import RunConfig, c_omega, load_config, run_certificate, set_up
from .errors import ConfigurationError, DataFormatError, InfeasibleDomainError, MissingInputError, OutputError, UsageError, WavetrigError
from .grid import C_OMEGA_SOURCES
from .initial import build_field

__all__ = ["main", "entrypoint", "run_from_config"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); 2 means infeasible here
        raise UsageError(message)


def run_checks(record: _lyapunov.RunRecord) -> tuple[dict, bool]:
    """All checks applicable to a record; returns (reports, all_passed).

    The decay-rate guarantees are proven for the event-triggered policy, so
    vdot/envelope/deviation-floor outcomes gate the verdict only there; on
    baseline policies they are reported as advisory.  The sandwich identity
    holds for any trajectory and always gates.  So does the schedule: the
    trigger invariant for an event-triggered run, ``trigger.check_schedule``
    for every other mode (an uncontrolled run's events are row 0 alone).
    Every run has its ``zeno`` report, whose floor gates an event-triggered
    run only.  The one-row dwell floor is not checked: a record has one
    flag a row, so it holds by construction.
    """
    reports: dict = {}
    ok = True
    event_mode = record.mode == "event-triggered"
    checks = []
    if record.certificate is not None:
        checks += [
            (_lyapunov.check_equivalence, True),
            (_lyapunov.check_vdot, event_mode),
            (_lyapunov.check_envelope, event_mode),
        ]
    checks.append((_lyapunov.check_trigger_invariant if event_mode else _trigger.check_schedule, True))
    for check, gating in checks:
        rep = check(record)
        reports[rep.name] = {**rep.to_dict(), "gating": gating}
        ok = ok and (rep.passed or not gating)
    stats = _trigger.zeno_report(record.events, horizon=float(record.t[-1]))
    floor_ok = stats.floor_ok or not event_mode
    reports["zeno"] = {"passed": floor_ok, "gating": True, **stats.to_dict()}
    return reports, ok and floor_ok


def run_from_config(cfg: RunConfig) -> tuple[_lyapunov.RunRecord, dict]:
    """Set up (designing if needed), simulate, and check one configured run."""
    controlled = cfg.mode != "uncontrolled"
    g, certificate, integ = set_up(cfg, _runio.read_certificate(cfg.certificate_path)
                                   if controlled and cfg.certificate_path else None)
    z0 = build_field(g, cfg.z0)
    z1 = build_field(g, cfg.z1)

    trigger_params = None
    period = cfg.period
    if controlled:
        scale = _trigger.initial_threshold_scale(
            z0, z1, certificate.epsilon, cfg.alpha, g, variant=cfg.design.eta0_variant
        )
        trigger_params = _trigger.TriggerParams.from_certificate(certificate, scale)
        if cfg.mode == "periodic" and period is None:
            # like-for-like update counts: reuse the matched run's mean dwell
            matched = _dynamics.simulate(
                z0, z1, cfg.alpha, g, integ, trigger_params, certificate, mode="event-triggered"
            )
            stats = _trigger.zeno_report(matched.events, horizon=float(matched.t[-1]))
            period = stats.mean_dwell

    t0 = time.perf_counter()
    record = _dynamics.simulate(z0, z1, cfg.alpha, g, integ, trigger_params, certificate, mode=cfg.mode, period=period)
    wall = time.perf_counter() - t0
    reports, ok = run_checks(record)
    return record, {"checks": reports, "checks_passed": ok, "wall_clock_s": wall, "config": cfg.to_dict()}


def _print_check_lines(reports: dict):
    for name, rep in reports.items():
        status = "PASS" if rep.get("passed") else "FAIL"
        if not rep.get("gating", True):
            status += " (advisory)"
        if name == "zeno":
            extra = f"events={rep['event_count']} min_dwell={rep['min_dwell']:.6g}"
        else:
            extra = f"violations={rep.get('n_violations', 0)} worst={rep.get('worst', float('nan')):.3e}"
        # the envelope's worst is 1 on every passing run (the V bound is V(0) at
        # t = 0): its margins, printed after the parenthesis, are the E ratios
        # at the rows and, with the bound between them, on all of [0, T]
        d = rep.get("details", {})
        margin = f" e_worst={d['e_worst']:.3e} at the rows, {d['e_sup_worst']:.3e} on all of [0, T]" if name == "envelope" else ""
        print(f"{name}: {status} ({extra}){margin}")


# Config keys settable from the command line, "section.key" when nested, each
# with its flag and add_argument keywords; the last component is the destination.
_OVERRIDES = {
    "alpha": ("--alpha", {"type": float}),
    "domain.length": ("--length", {"type": float, "help": "interval length override"}),
    "domain.n": ("--n", {"type": int, "help": "interior node count override"}),
    "dt": ("--dt", {"type": float}),
    "t_end": ("--t-end", {"type": float}),
    "mode": ("--mode", {"choices": _dynamics.MODES}),
    "period": ("--period", {"type": float}),
    "design.eta0_variant": ("--eta0-variant", {"choices": _trigger.ETA0_VARIANTS}),
    "design.comega_source": ("--comega-source", {"choices": C_OMEGA_SOURCES}),
    "design.comega_value": ("--comega-value", {"type": float}),
    "certificate_path": ("--certificate", {"help": "path to an existing certificate.json"}),
    "out": ("--out", {}),
}


def _load_cfg(args) -> RunConfig:
    """The config file, or the defaults, with the command-line overrides."""
    cfg = RunConfig() if args.config is None else load_config(args.config)
    if (args.length is not None or args.n is not None) and cfg.domain_kind != "interval":
        raise UsageError("--length and --n set an interval's length and nodes; the config's domain is not an interval")
    d = cfg.to_dict()
    for key in _OVERRIDES:
        section, _, name = key.rpartition(".")
        value = getattr(args, name)
        if value is not None:
            (d[section] if section else d)[name] = value
    return RunConfig.from_dict(d)


def cmd_design(args) -> int:
    cfg = _load_cfg(args)
    cert = run_certificate(cfg, cfg.build_grid())
    path = Path(cfg.out) / "certificate.json"
    _runio.write_certificate(cert, path)
    print(
        f"certificate written to {path}: alpha={cert.alpha:.6g} "
        f"C_Omega={cert.c_omega:.6g} ({cert.c_omega_source}) "
        f"decay_rate={cert.decay_rate:.6g} overshoot={cert.overshoot:.6g}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    record, extra = run_from_config(cfg)
    out = _runio.save_run(record, cfg.out, summary_extra=extra)
    print(f"run written to {out} (steps={record.n_steps}, events={len(record.events)})")
    _print_check_lines(extra["checks"])
    return EXIT_OK if extra["checks_passed"] else EXIT_CHECK_FAILED


def _parse_list(text: str, what: str) -> list[float]:
    """The finite positive floats of a comma-separated sweep list.  A cell's directory
    names its values as ``{:g}`` prints them, so two that print alike are
    refused: the second cell's run would overwrite the first's."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty {what} list")
    if not all(0 < v < math.inf for v in values):  # no cell of a value <= 0 or NaN can run
        raise UsageError(f"bad {what} list {text!r}: every {what} must be a finite number above 0")
    seen = {}
    for v in values:
        if (name := f"{v:g}") in seen:
            raise UsageError(f"{what}s {seen[name]!r} and {v!r} would share a cell directory (both named {name})")
        seen[name] = v
    return values


_SWEEP_COLUMNS = ("alpha", "L", "C_Omega", "feasible", "delta", "K", "events", "delta_emp")


def _sweep_cell(cfg: RunConfig, alpha: float, length: float, out_root: Path) -> dict:
    """Design, simulate and check one cell.  A cell that cannot be run or
    fails a gating check gets an ``error`` entry; an infeasible one does not."""
    row = dict.fromkeys(_SWEEP_COLUMNS, float("nan")) | {"alpha": alpha, "L": length, "feasible": 0, "events": 0}
    d = cfg.to_dict()
    d["alpha"] = alpha
    d["domain"]["length"] = length
    d["out"] = str(out_root / f"cell_a{alpha:g}_L{length:g}")
    try:
        cell_cfg = RunConfig.from_dict(d)
        row["C_Omega"] = c_omega(cell_cfg, cell_cfg.build_grid())
        record, extra = run_from_config(cell_cfg)
        _runio.save_run(record, cell_cfg.out, summary_extra=extra)
    except InfeasibleDomainError:
        return row  # infeasible cell, not a failure
    except (MissingInputError, DataFormatError, OutputError):
        raise  # the initial data every cell reads, or the sweep's output: not one cell's
    except WavetrigError as exc:
        row["error"] = str(exc)
        return row
    cert = record.certificate
    row.update(
        feasible=1,
        delta=cert.decay_rate,
        K=cert.overshoot,
        events=len(record.events),
        delta_emp=extra["checks"]["envelope"]["details"]["delta_emp"],
    )
    if not extra["checks_passed"]:
        row["error"] = "a gating check failed"
    return row


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    if cfg.domain_kind != "interval":
        raise ConfigurationError("sweep varies interval length; domain must be an interval")
    if cfg.certificate_path:
        raise ConfigurationError("sweep designs a certificate per cell; a certificate cannot be given")
    if cfg.mode == "uncontrolled":
        raise ConfigurationError("sweep tabulates each cell's certificate; an uncontrolled run has none")
    alphas = _parse_list(args.alphas, "alpha")
    lengths = _parse_list(args.lengths, "length")
    out_root = Path(cfg.out)
    with _runio.writing(out_root):
        out_root.mkdir(parents=True, exist_ok=True)
    rows = [_sweep_cell(cfg, a, L, out_root) for a in alphas for L in lengths]
    path = out_root / "sweep.csv"
    table = {name: [row[name] for row in rows] for name in _SWEEP_COLUMNS}
    with _runio.writing(path):
        _runio.write_table(path, table, ints=("feasible", "events"))
    failed = [r for r in rows if "error" in r]
    n_feasible = sum(r["feasible"] for r in rows)
    print(f"sweep written to {path}: {len(rows)} cells, {n_feasible} feasible, {len(failed)} failed")
    for row in failed:
        print(f"  cell alpha={row['alpha']:g} L={row['L']:g} failed: {row['error']}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_verify(args) -> int:
    record, _summary = _runio.load_run(args.rundir)
    reports, ok = run_checks(record)
    _print_check_lines(reports)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and returned by every later
    one.  ``main`` may run many times in one process (the tests and perfbench
    call it so), and building the tree of subparsers costs about a millisecond,
    a quarter to a third of a 127x127 ``verify``.  Sharing it is safe because
    ``parse_args`` never changes the parser: each call fills a fresh namespace,
    and the ``func`` defaults are constants."""
    parser = _Parser(prog="wavetrig", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        for key, (flag, kwargs) in _OVERRIDES.items():
            p.add_argument(flag, dest=key.rpartition(".")[2], **kwargs)

    p_design = sub.add_parser("design", help="compute and write a stability certificate")
    add_common(p_design)
    p_design.set_defaults(func=cmd_design)

    p_sim = sub.add_parser("simulate", help="simulate a configured run and check it")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="design+simulate over an alpha x length grid")
    add_common(p_sweep)
    p_sweep.add_argument("--alphas", required=True, help="comma-separated damping gains")
    p_sweep.add_argument("--lengths", required=True, help="comma-separated interval lengths")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="re-run all checks on a persisted run directory")
    p_verify.add_argument("rundir")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except WavetrigError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
