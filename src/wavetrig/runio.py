"""Run persistence: the CSV tables (time series, event log, sweep), written
by :func:`write_table`, and the JSON summary and certificate files, written
by one JSON writer.

``series.csv`` holds only what the step loop computes (``RunRecord.COLUMNS``);
:func:`load_run` rebuilds ``t``, E, V, eta0 and the predicate from it with
the code :func:`~wavetrig.dynamics.simulate` uses (``dynamics.build_record``).
Floats are written in scientific notation with 18 significant digits so a
write/read cycle is bit-exact and identical runs produce byte-identical
series files.
"""

from __future__ import annotations

import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .design import StabilityCertificate
from .dynamics import MODES, build_record, step_count
from .errors import DataFormatError, MissingInputError, OutputError, WavetrigError
from .lyapunov import RunRecord, energy_lyapunov
from .trigger import TriggerParams

__all__ = [
    "SERIES_COLUMNS",
    "SERIES_COLUMNS_UNCONTROLLED",
    "writing",
    "write_table",
    "save_run",
    "load_run",
    "write_certificate",
    "read_certificate",
]

SERIES_COLUMNS = RunRecord.COLUMNS
# no hold acts in an uncontrolled run: it has no deviation and no events
SERIES_COLUMNS_UNCONTROLLED = tuple(name for name in SERIES_COLUMNS if name not in ("norm_e_sq", "event"))
_FLOAT_FORMAT = "%.17e"
_BLOCK_ROWS = 1024  # rows of a table formatted and written at a time


def _json_default(obj):
    # numpy scalars/arrays show up in check details and diagnostics
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@contextmanager
def writing(path: str | Path):
    """Raise an OSError met while creating or writing ``path`` as an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_table(path: Path, table: dict, ints: tuple = ()):
    """Write the columns of ``table`` under a header of its keys, as
    csv.writer would, a block at a time: one bytes %-format of the block's
    cells, ``%d`` for the columns named in ``ints`` (it takes a flag or
    count as a float) and ``_FLOAT_FORMAT`` for the others."""
    row = (",".join("%d" if name in ints else _FLOAT_FORMAT for name in table) + "\r\n").encode()
    columns = list(table.values())
    with open(path, "wb") as fh:
        fh.write(",".join(table).encode() + b"\r\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([col[start:start + _BLOCK_ROWS] for col in columns])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path: str | Path, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def save_run(record: RunRecord, outdir: str | Path, summary_extra: dict | None = None) -> Path:
    """Write series.csv, events.csv and summary.json into ``outdir``."""
    out = Path(outdir)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
        names = SERIES_COLUMNS_UNCONTROLLED if record.mode == "uncontrolled" else SERIES_COLUMNS
        write_table(out / "series.csv", {name: getattr(record, name) for name in names}, ints=("event",))

        times = record.events.times.tolist()
        dwells = [float("nan")] + [t - prev for prev, t in zip(times, times[1:])]  # the first event has none
        write_table(out / "events.csv", {"k": np.arange(len(times)), "t_k": times, "dwell": dwells}, ints=("k",))

        summary = {
            "mode": record.mode,
            "dt": record.dt,
            "n_steps": record.n_steps,
            "event_count": len(record.events),
            "certificate": record.certificate.to_dict() if record.certificate else None,
            "trigger": asdict(record.trigger) if record.trigger else None,
            "meta": record.meta,
        }
        if summary_extra:
            summary.update(summary_extra)
        _write_json(out / "summary.json", summary)
    return out


def _parse_series(path: Path) -> dict[str, np.ndarray]:
    try:
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise DataFormatError(f"cannot read series file {path}: {exc}") from exc
    if header not in (list(SERIES_COLUMNS), list(SERIES_COLUMNS_UNCONTROLLED)):
        raise DataFormatError(
            f"unexpected series header in {path}: {','.join(header)}; expected "
            f"{','.join(SERIES_COLUMNS)}, or {','.join(SERIES_COLUMNS_UNCONTROLLED)} for an uncontrolled run"
        )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file is refused below
            data = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2)
    except ValueError as exc:  # a non-numeric cell or a ragged row
        raise DataFormatError(f"malformed series table in {path}: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] != len(header):
        raise DataFormatError(f"malformed series table in {path}")
    return dict(zip(header, np.ascontiguousarray(data.T)))  # each column contiguous


def load_run(rundir: str | Path) -> tuple[RunRecord, dict]:
    """Rebuild a RunRecord (and the summary dict) from a run directory."""
    d = Path(rundir)
    series_path = d / "series.csv"
    summary_path = d / "summary.json"
    if not series_path.is_file() or not summary_path.is_file():
        raise MissingInputError(f"run directory {d} lacks series.csv or summary.json")
    try:
        summary = json.loads(summary_path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise DataFormatError(f"cannot read {summary_path}: {exc}") from exc
    if not isinstance(summary, dict):
        raise DataFormatError(f"{summary_path} is not a JSON object")
    cols = _parse_series(series_path)
    n = cols["norm_z_sq"].size
    # the summary fixes the time axis: n_steps is simulate's step count of
    # dt to the horizon meta.t_end, so a rescaled dt is refused
    dt, n_steps, meta = summary.get("dt"), summary.get("n_steps"), summary.get("meta")
    if type(dt) not in (int, float) or not 0 < dt <= sys.float_info.max:
        raise DataFormatError(f"summary dt {dt!r} is not a positive number")
    dt = float(dt)  # an int beyond the float range is refused above
    t_end = meta.get("t_end") if isinstance(meta, dict) else None
    if type(t_end) not in (int, float) or not 0 < t_end <= sys.float_info.max or not t_end / dt < n:
        raise DataFormatError(f"summary meta.t_end {t_end!r} is not a horizon of the {n} rows of {series_path}")
    if type(n_steps) is not int or n != n_steps + 1:
        raise DataFormatError(f"summary n_steps {n_steps!r} does not fit the {n} rows of {series_path}")
    if step_count(t_end, dt) != n_steps:
        raise DataFormatError(f"summary n_steps {n_steps!r} is not the steps of dt = {dt} to t_end = {t_end}")
    mode = summary.get("mode")
    # an uncontrolled run, and only one, is written without the hold's columns
    if mode not in MODES or (mode == "uncontrolled") != ("event" not in cols):
        raise DataFormatError(f"summary mode {mode!r} does not fit the series header of {d}")
    cert = summary.get("certificate")
    certificate = StabilityCertificate.from_dict(cert) if cert is not None else None
    trig = summary.get("trigger")
    try:
        trigger_params = TriggerParams(**trig) if trig is not None else None
    except (TypeError, WavetrigError) as exc:
        raise DataFormatError(f"summary trigger {trig!r} is not valid: {exc}") from exc
    # without either, the checks an event-triggered run is held to would be switched off
    if mode == "event-triggered" and (certificate is None or trigger_params is None):
        raise DataFormatError(f"summary of an event-triggered run in {d} lacks its certificate or trigger")
    # eta0 and the predicate are rebuilt from this entry: it must be the certificate's, and its
    # scale V[0] with the certificate's eps and either its alpha (v0) or 0 (reduced)
    if trigger_params is not None and certificate is not None:
        if trigger_params != TriggerParams.from_certificate(certificate, trigger_params.eta0_scale):
            raise DataFormatError(f"summary trigger {trig!r} does not have its certificate's gamma0, gamma1 and theta")
        row0 = [float(cols[name][0]) for name in ("norm_z_sq", "norm_v_sq", "norm_gradz_sq", "inner_zv")]
        scales = [energy_lyapunov(*row0, certificate.epsilon, a)[1] for a in (certificate.alpha, 0.0)]
        if trigger_params.eta0_scale not in scales:
            raise DataFormatError(
                f"summary trigger eta0_scale {trigger_params.eta0_scale!r} is not V[0] of {series_path} "
                f"for the v0 or the reduced variant, {scales[0]!r} or {scales[1]!r}"
            )
    # 0/1 flags, with the unconditional event at t = 0
    if "event" in cols:
        event = cols["event"]
        if not (((event == 0) | (event == 1)).all() and event[0] == 1):
            raise DataFormatError(f"the event column of {series_path} is not 0/1 flags with an event at t = 0")
        cols["event"] = event == 1
    record = build_record(cols, certificate, trigger_params, mode, dt, meta)
    return record, summary


def write_certificate(cert: StabilityCertificate, path: str | Path):
    with writing(path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        _write_json(path, cert.to_dict())


def read_certificate(path: str | Path) -> StabilityCertificate:
    try:
        return StabilityCertificate.from_dict(json.loads(Path(path).read_text()))
    except FileNotFoundError as exc:
        raise MissingInputError(f"certificate file not found: {path}") from exc
    except (OSError, ValueError, DataFormatError) as exc:  # unreadable, not UTF-8, not JSON or not valid
        raise DataFormatError(f"cannot use certificate {path}: {exc}") from exc

