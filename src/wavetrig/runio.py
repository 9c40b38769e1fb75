"""Run persistence: the CSV tables (time series, event log, sweep), written
by :func:`write_table`, and the JSON summary and certificate files, written
by one JSON writer.

``series.csv`` holds only what the step loop computes (``RunRecord.COLUMNS``);
:func:`load_run` rebuilds ``t``, E, V, eta0 and the predicate from it with
the code :func:`~wavetrig.dynamics.simulate` uses (``dynamics.build_record``),
and requires ``events.csv`` to be that record's event table, byte for byte.
It sets the run up again with ``config.set_up`` from the summary's config echo,
or else its own keys (:func:`_stated_config`), and refuses a summary whose
``mode``, ``dt``, ``n_steps``, ``meta.t_end``, ``meta.grid`` or certificate is
not what that makes, in JSON type too: so a ``dt`` above the CFL limit is refused.
Floats are written as ``%.17e``, 18 significant digits, so a write/read cycle
is bit-exact and identical runs produce byte-identical series files.

A table of fewer than _PY_CELLS cells (an ``events.csv`` of up to 53 events,
a ``sweep.csv`` of up to 19 rows, the ``series.csv`` of a run of up to 25
steps) is formatted row by row with Python's ``b"%.17e" % x`` and
``b"%d" % x``, whose cost grows with its cells, where numpy's block encoder
pays about 60 array calls whatever a table's size. Larger tables are encoded
in numpy, a block of rows at a time, to the same bytes: a float's significand
``|x| 10^(17 - E)`` is a double-double (Dekker's exact product with 10^k as
``hi + lo``), rounded half to even. Its error, under 1e-13, is far inside the
1e-12 margin near a rounding tie or a decade's end where a cell is left to
Python, as are one whose log10 misses the decade or that rounds up into the
next, 0, -0, nan, inf, ``|x|`` outside 1e-99..1e99 (a three-digit exponent)
and ints outside 0..10^8 - 1; a run's tables hold none of the last two. Each cell is laid
out on a slot of _SLOT bytes; a table's slot buffer, one block of rows with
the separators laid in it, is prepared once, and each block writes its cells
into it. An int's 8 digits have one place, its leading zeros blanked.

:func:`load_run` reads ``series.csv`` with the writer's inverse, the rows
below the header _CHUNK bytes at a time, each run of adjacent float or int
columns decoded by one call, returning for each cell the bits of ``float()``
of its text. A ``%.17e`` cell with a first digit from 1 and a two-digit
exponent is decoded in numpy: eight ASCII digits to a word, the 18-digit
significand scaled by 10^(E - 17) as a double-double with the writer's powers
and product, rounded to nearest; ``float()`` reads a cell near a rounding tie,
0, subnormals, three-digit exponents, nan and inf. Only cells and lines of the
writer's shape are accepted (the shape of ``%.17e``, nan, inf and -inf, ``%d``
in the event column; lines ending in ``\\r\\n`` or ``\\n``); anything else is
a DataFormatError.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import RunConfig, set_up
from .design import StabilityCertificate
from .dynamics import build_record, step_count
from .errors import DataFormatError, MissingInputError, OutputError, WavetrigError
from .grid import grid_meta
from .lyapunov import RunRecord
from .trigger import ETA0_VARIANTS, TriggerParams, threshold_scale

__all__ = [
    "SERIES_COLUMNS", "writing", "write_table", "save_run", "load_run",
    "write_certificate", "read_certificate",
]

SERIES_COLUMNS = RunRecord.COLUMNS
_BLOCK_ROWS = 1024  # rows of a table formatted and written at a time
# a table of fewer cells is formatted by Python, about 0.45 us a cell, and a larger
# one in numpy, 65-95 us a table and 0.1 us a cell. Minima of 9 x 3 x 200 calls of
# each path, interleaved in one process on a 2-vCPU AVX-512 Xeon: the 6-column
# series.csv crosses first, 75/78/82/84 us in Python against 78/82/82/81 us in
# numpy at 25/26/27/28 rows (150/156/162/168 cells); events.csv, 3 columns, still
# wins at 66 rows (81 against 95 us), and the 8-column sweep.csv at 25 (92 against 184)
_PY_CELLS = 160
_FORMAT = (b"%.17e", b"%d")  # Python's format of a float cell and, at is_int, an int cell
# numpy writes 1e-99 <= |x| <= 1e99 and reads two-digit exponents, each one slot
# word "e+dd": no run's table holds a three-digit one, so Python's path takes those
_E_MAX = 99
_K = 17 + _E_MAX + 1  # the table of 10^k spans |k| <= _K, log10 missing the decade either way
_SLACK = 1e-12  # far above the double-double product's error, under 1e-13 at 1e18
_SLOT = 28  # bytes a cell is laid out on, 7 words: separator, sign/digit/point/digit, 16 digits, e+dd
# the bytes of a table read and decoded at a time: each chunk pays about 110
# array calls whatever its size, and its temporaries, about 12 times its bytes,
# stay in a 2 MiB L2 up to here (192 and 256 KiB chunks read slower)
_CHUNK = 1 << 17
# what b"%.17e" % x and b"%d" % x write, compiled (and cached by re) on first use
_FLOAT_CELL = rb"-?[0-9]\.[0-9]{17}e[+-][0-9]{2,3}|-?inf|nan"
_INT_CELL = rb"0|-?[1-9][0-9]*"


@contextmanager
def writing(path: str | Path):
    """Raise an OSError met while creating or writing ``path`` as an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _table_bytes(table: dict, ints: tuple):
    """The bytes of :func:`write_table`'s file of ``table``: row by row in Python
    if it has fewer than _PY_CELLS cells, else a block of rows at a time in numpy."""
    columns = [np.asarray(col, dtype=float) for col in table.values()]
    is_int = [name in ints for name in table]
    yield ",".join(table).encode()  # each row starts with the line break before it
    if len(columns[0]) * len(columns) < _PY_CELLS:
        line = b"\r\n" + b",".join(_FORMAT[i] for i in is_int)
        yield b"".join(line % row for row in zip(*(col.tolist() for col in columns), strict=True))
    else:
        # the slots of a block's rows, with the separators laid once: a block
        # writes each cell from byte 4 of its slot on (_encode_block)
        slots = np.zeros((min(len(columns[0]), _BLOCK_ROWS), len(columns), _SLOT), np.uint8)
        slots[:, 0, :2] = np.frombuffer(b"\r\n", np.uint8)
        slots[:, 1:, 0] = ord(",")
        runs = _runs(is_int, _int_cells, _float_cells)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([col[start:start + _BLOCK_ROWS] for col in columns])
            yield _encode_block(block, slots[:len(block)], runs, is_int)
    yield b"\r\n"


def write_table(path: Path, table: dict, ints: tuple = ()):
    """Write the columns of ``table`` under a header of its keys, as csv.writer
    would with ``b"%d" % x`` for the columns named in ``ints`` (a flag or count
    taken as a float) and ``b"%.17e" % x`` for the others (see :func:`_table_bytes`)."""
    with open(path, "wb") as fh:
        fh.writelines(_table_bytes(table, ints))


def _event_table(times: np.ndarray) -> dict:
    """The columns of events.csv: each event's index, time and dwell since the one before (NaN for the first)."""
    return {"k": np.arange(len(times)), "t_k": times, "dwell": np.diff(times, prepend=np.nan)}


def _runs(is_int, on_int, on_float) -> list:
    """The runs of adjacent columns of one kind, each encoded or decoded by one
    call: ``(slice, on_int)`` for a run of the columns ``is_int`` marks, else
    ``(slice, on_float)``."""
    edges = [0, *(c for c in range(1, len(is_int)) if is_int[c] != is_int[c - 1]), len(is_int)]
    return [(slice(a, b), on_int if is_int[a] else on_float) for a, b in zip(edges, edges[1:])]


def _encode_block(block: np.ndarray, slots: np.ndarray, runs: list, is_int: list) -> bytes:
    """The CSV lines of the rows of ``block``, encoded into their ``slots``. A cell's
    slot of 7 words holds the line break or comma before it, then a float's sign,
    digit, point, digit, 16 digits and "e", sign and two digits of its exponent (or
    an int's 8 digits in words 4-5), blank bytes NUL, which one ``translate``
    deletes. Only when a cell is left to Python does a copy of the slots hold a
    mark in its place, which its text replaces."""
    done = np.empty(block.shape, bool)
    for cols, encode in runs:
        done[:, cols] = encode(block[:, cols], slots[:, cols])
    if done.all():
        return slots.tobytes().translate(None, b"\0")
    fallback = [_FORMAT[is_int[c]] % float(block[r, c]) for r, c in np.argwhere(~done)]
    marked = slots.copy()
    marked[~done, 2:] = 0
    marked[~done, 2] = 1  # the mark where a cell's Python text goes
    pieces = marked.tobytes().translate(None, b"\0").split(b"\1")
    return b"".join(piece + text for piece, text in zip(pieces, fallback + [b""]))


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Slot words: the digits of 0..9999; sign, digit, point and digit of 10..99
    (+ 100 if negative); "e", sign and last two digits of ``e`` (at ``e + _K``). And
    10^k, |k| <= _K, as ``hi + lo`` (an int true division rounds correctly)."""
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    lead = b"".join(sign + b"%d.%d" % divmod(g, 10) for sign in (b"\0", b"-") for g in range(100))
    exps = b"".join(b"e%c%02d" % (b"+-"[e < 0], abs(e) % 100) for e in range(-_K, _K + 1))
    tens = [(10**k, 1) if k >= 0 else (1, 10**-k) for k in range(-_K, _K + 1)]
    hi = [num / den for num, den in tens]
    lo = [(num * q - p * den) / (den * q) for (num, den), (p, q) in zip(tens, (h.as_integer_ratio() for h in hi))]
    words = digits.view(np.uint32).ravel(), np.frombuffer(lead, np.uint32), np.frombuffer(exps, np.uint32)
    return *words, np.array(hi), np.array(lo)


def _scale(a: np.ndarray, k: np.ndarray, a_lo: np.ndarray | float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """``(a + a_lo) 10^k`` as a double-double ``p + c``, ``|k| <= _K``: Dekker's exact
    product of ``a`` with ``hi(10^k)``, plus ``a lo(10^k)`` and ``a_lo hi(10^k)``."""
    hi10, lo10 = _tables()[3:]
    h, lo = hi10[k + _K], lo10[k + _K]
    ah, hh = [(t := 134217729.0 * v) - (t - v) for v in (a, h)]  # Dekker's split, 26-bit halves
    al, hl, p = a - ah, h - hh, a * h
    return p, ((((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo) + a_lo * h


def _put_digits(words: np.ndarray, n: np.ndarray, first: int):
    """Write the zero-padded digits of each ``0 <= n``, four to a word, into words ``first``-5 of its slot."""
    digits = _tables()[0]
    for j in range(5, first, -1):
        q = n // 10000
        words[..., j] = digits[n - q * 10000]
        n = q
    words[..., first] = digits[n]


def _float_cells(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``b"%.17e" % x`` of each cell into bytes 4-27 of its slot; returns
    whether it is, a cell not ok being left to Python."""
    _, lead, exps, _, _ = _tables()
    a = np.abs(x)
    ok = (a >= 10.0**-_E_MAX) & (a <= 10.0**_E_MAX)  # nan fails both; the double 1e-99 is above 10^-99
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)  # a cell whose log10 misses its decade fails the test below
    p, c = _scale(a, 17 - e)
    whole = np.floor(c)
    frac = c - whole
    # in the decade, and not rounding up to 10^18 (of all doubles only 1e153 does, outside the range)
    ok &= ((p - 1e17) + c >= _SLACK) & ((p - 1e18) + c <= -0.5 - _SLACK) & (np.abs(frac - 0.5) >= _SLACK)
    n = np.where(ok, p, 1e17).astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)  # half to even
    words = slots.view(np.uint32)
    first = n // 10**16
    words[..., 1] = lead[first + 100 * np.signbit(x)]
    _put_digits(words, n - first * 10**16, 2)
    words[..., 6] = exps[e + _K]
    return ok


def _int_cells(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``b"%d" % x`` of each cell ``0 <= x < 10^8`` (every flag, event index and
    count) into words 4-5 of its slot, the cast truncating as %d does; returns
    whether it is, a cell not ok being left to Python."""
    ok = (x >= 0) & (x < 1e8)
    n = np.where(ok, x, 0.0).astype(np.int64)
    _put_digits(slots.view(np.uint32), n, 4)
    slots[..., 16:23][n[..., None] < 10 ** np.arange(7, 0, -1)] = 0  # digits 10^7 down to 10^1 above n
    return ok


def _write_json(path: str | Path, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_run(record: RunRecord, outdir: str | Path, summary_extra: dict | None = None) -> Path:
    """Write series.csv, events.csv and summary.json into ``outdir``."""
    out = Path(outdir)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
        write_table(out / "series.csv", {name: getattr(record, name) for name in SERIES_COLUMNS}, ints=("event",))

        write_table(out / "events.csv", _event_table(record.events.times), ints=("k",))

        summary = {
            "mode": record.mode,
            "dt": record.dt,
            "n_steps": record.n_steps,
            "certificate": record.certificate.to_dict() if record.certificate else None,
            "eta0_scale": record.trigger.eta0_scale if record.trigger else None,
            "meta": record.meta,
        }
        if summary_extra:
            summary.update(summary_extra)
        _write_json(out / "summary.json", summary)
    return out


def _parse_series(path: Path) -> dict[str, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode().rstrip("\r\n").split(",")
            if header != list(SERIES_COLUMNS):
                raise DataFormatError(
                    f"unexpected series header in {path}: {','.join(header)}; expected {','.join(SERIES_COLUMNS)}"
                )
            data = _read_rows(fh, [name == "event" for name in header], f"malformed series table in {path}")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise DataFormatError(f"cannot read series file {path}: {exc}") from exc
    if data.shape[1] < 2:
        raise DataFormatError(f"malformed series table in {path}: fewer than 2 rows")
    return dict(zip(header, data))


def _read_rows(fh, is_int: list, where: str) -> np.ndarray:
    """The rows below the header of a table that :func:`write_table` wrote, read
    from the binary file ``fh`` as one contiguous row per column, _CHUNK bytes
    at a time; a line cut by a chunk's end is carried into the next. Each cell
    is a float's ``%.17e``, ``nan`` or ``[-]inf``, or, in the columns ``is_int``
    marks, an int's ``%d``, each line ends in ``\\r\\n`` or ``\\n``; anything
    else is refused with a DataFormatError that begins with ``where``."""
    runs = _runs(is_int, _int_values, _float_values)
    blocks, pending, line = [np.empty((0, len(is_int)))], bytearray(), 2  # line 1 is the header
    while chunk := fh.read(_CHUNK):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending += chunk
            continue
        blocks.append(_decode_lines(pending + chunk[:cut], is_int, runs, where, line))
        pending, line = bytearray(chunk[cut:]), line + len(blocks[-1])
    if pending:
        raise DataFormatError(f"{where}: line {line} is not terminated")
    return np.concatenate([block.T for block in blocks], axis=1)  # (column, row), C order


def _decode_lines(lines: bytearray, is_int: list, runs: list, where: str, first: int) -> np.ndarray:
    """The cells of whole ``lines`` as (row, column), numbered from line ``first``,
    each run of columns decoded by one call."""
    size = len(lines)
    lines += bytes(_SLOT)  # a cell's reads past its end stay in the buffer
    buf = np.frombuffer(lines, np.uint8)
    seps = np.flatnonzero((buf[:size] == ord(",")) | (buf[:size] == ord("\n")))
    cols = len(is_int)
    breaks = np.flatnonzero(buf[seps] == ord("\n"))
    ragged = breaks != np.arange(cols - 1, cols * len(breaks), cols)
    if ragged.any():
        raise DataFormatError(f"{where}: line {first + ragged.argmax()} does not have {cols} cells")
    starts = np.concatenate([[0], seps[:-1] + 1]).reshape(-1, cols)
    ends = seps.reshape(-1, cols)
    ends[:, -1] -= buf[ends[:, -1] - 1] == ord("\r")
    values = np.empty(ends.shape)
    done = np.empty(ends.shape, bool)
    for run, decode in runs:
        values[:, run], done[:, run] = decode(buf, starts[:, run], ends[:, run])
    if done.all():
        return values
    for r, c in np.argwhere(~done):  # the writer's Python cells, or a cell it cannot have written
        text = bytes(lines[starts[r, c]:ends[r, c]])
        if not re.fullmatch(_INT_CELL if is_int[c] else _FLOAT_CELL, text):
            raise DataFormatError(f"{where}: line {first + r}: {text!r} is not a cell the writer writes")
        values[r, c] = float(text)
    return values


def _digit_test(w: np.ndarray) -> np.ndarray:
    """0x33 in each byte of ``w`` that is an ASCII digit (a byte of 0xFA up may spoil the next)."""
    return w & 0xF0F0F0F0F0F0F0F0 | ((w + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4


def _swar8(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of the eight ASCII digits of each little-endian word, and whether all eight are digits."""
    ok = _digit_test(w) == 0x3333333333333333
    w = w - 0x3030303030303030
    w = (w * 10 + (w >> 8)) & 0x00FF00FF00FF00FF  # 2-digit groups
    w = (w * (1 + (100 << 16)) >> 16) & 0x0000FFFF0000FFFF  # 4-digit groups
    return w * (1 + (10000 << 32)) >> 32, ok


def _float_values(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's float as (value, ok) when it is ``%.17e`` with a first digit from 1 and
    an exponent of two digits, and the double-double of its 18-digit significand times
    10^(E - 17) does not lie near a rounding tie."""
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # the 8 bytes from each offset
    neg = buf[start] == ord("-")
    at = start + neg
    lead = buf[at] - np.uint8(ord("1"))
    high, ok_high = _swar8(words[at + 2])  # digits 1-8 after the point
    low, ok_low = _swar8(words[at + 10])  # digits 9-16
    tail = words[at + 16]  # digits 15-17, "e", the exponent's sign and its 2 digits
    marks = tail >> 24 & 0xFFFF
    minus = marks == ord("e") | ord("-") << 8
    ok = (lead < 9) & (buf[at + 1] == ord(".")) & ok_high & ok_low & (end - at == 23)
    ok &= (minus | (marks == ord("e") | ord("+") << 8)) & (_digit_test(tail) & 0xFFFF0000FFFFFF == 0x33330000333333)
    exp = ((tail >> 40 & 0xFF) * 10 + (tail >> 48 & 0xFF) - 11 * ord("0")).view(np.int64)
    n = (lead + np.uint64(1)) * 10**17 + high * 10**9 + low * 10 + (tail >> 16 & 0xFF) - ord("0")
    n = np.where(ok, n.view(np.int64), 10**17)
    exp = np.where(ok, np.where(minus, -exp, exp), 17)
    n_hi = n.astype(float)
    p, c = _scale(n_hi, exp - 17, (n - n_hi.astype(np.int64)).astype(float))
    x = p + c
    rest = c - (x - p)  # exact (Fast2Sum): the double-double is x + rest
    # x is the nearest double unless rest lies within 2^-38 ulp(x) of half an ulp, far above
    # the double-double's error (under 9 2^-106 x < 2^-49 ulp), or x is a power of 2, whose lower gap is half
    bits = x.view(np.int64)
    ulp = ((bits >> 52) - 52 << 52).view(float)
    ok &= (bits & (1 << 52) - 1 != 0) & (np.abs(rest) < ulp * (0.5 - 2.0**-38))
    return np.where(neg, -x, x), ok


def _int_values(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each one-digit cell's value as (value, ok); longer ints are left to Python."""
    digit = buf[start] - np.uint8(ord("0"))
    return digit.astype(float), (end - start == 1) & (digit < 10)


# a JSON value's text with sorted keys, a certificate's of its fields: equal texts are equal in JSON type too
_canonical = functools.partial(json.dumps, sort_keys=True, default=vars)


def _stated_config(summary: dict) -> RunConfig:
    """The config a summary with no echo states: the domain of ``meta.grid``'s lengths and
    counts, its mode, dt, ``meta.t_end`` and ``meta.period``, its certificate's alpha, and
    cfl_fraction 1, which no summary records but which accepts every dt a run can have."""
    meta, cert = summary["meta"], summary.get("certificate")
    try:
        lengths, counts = list(meta["grid"]["lengths"]), list(meta["grid"]["counts"])
        names = ("length", "n") if len(counts) == 1 else ("a", "b", "nx", "ny")
        domain = {"kind": "interval" if len(counts) == 1 else "rectangle", **dict(zip(names, lengths + counts, strict=True))}
    except (TypeError, LookupError, ValueError) as exc:
        raise DataFormatError(f"meta.grid {meta.get('grid')!r} does not name a grid by its lengths and counts") from exc
    return RunConfig(domain=domain, alpha=cert.get("alpha") if isinstance(cert, dict) else 1.0, dt=summary.get("dt"),
                     cfl_fraction=1.0, t_end=meta.get("t_end"), mode=summary.get("mode"), period=meta.get("period"))


def load_run(rundir: str | Path) -> tuple[RunRecord, dict]:
    """Rebuild a RunRecord (and the summary dict) from a run directory."""
    d = Path(rundir)
    series_path, events_path, summary_path = d / "series.csv", d / "events.csv", d / "summary.json"
    if not (series_path.is_file() and events_path.is_file() and summary_path.is_file()):
        raise MissingInputError(f"run directory {d} lacks series.csv, events.csv or summary.json")
    try:
        summary = json.loads(summary_path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise DataFormatError(f"cannot read {summary_path}: {exc}") from exc
    if not isinstance(summary, dict):
        raise DataFormatError(f"{summary_path} is not a JSON object")
    cols = _parse_series(series_path)
    # the writer writes each squared norm as a sum of squares, >= 0 or inf where
    # it overflows, and a blow-up raises before a NaN is written: a negative or
    # NaN cell there is refused, not checked
    for name in ("norm_z_sq", "norm_gradz_sq", "norm_v_sq", "norm_e_sq"):
        bad = np.flatnonzero(~(cols[name] >= 0))
        if len(bad):
            raise DataFormatError(
                f"{name} of {series_path} is {float(cols[name][bad[0]])!r} in row {bad[0]}, not a squared norm"
            )
    n = cols["norm_z_sq"].size
    mode, meta, scale, cert = (summary.get(key) for key in ("mode", "meta", "eta0_scale", "certificate"))
    if not isinstance(meta, dict):
        raise DataFormatError(f"summary meta {meta!r} of {d} is not a JSON object")
    # a controlled run is checked against both (without either, its checks would be
    # switched off), an uncontrolled one against neither: set_up makes it no certificate
    if mode != "uncontrolled" and (cert is None or scale is None):
        raise DataFormatError(f"summary of the {mode} run in {d} lacks its certificate or eta0_scale")
    if mode == "uncontrolled" and scale is not None:
        raise DataFormatError(f"summary of the uncontrolled run in {d} has an eta0_scale")
    # set_up makes the run of the config echo or, with none (perfbench's), the summary's own keys,
    # given the stored certificate unless the echo designs one; each key that repeats it must match
    echo = summary.get("config")
    source = "its config echo" if echo is not None else "its own keys"
    try:
        cfg = RunConfig.from_dict(echo) if echo is not None else _stated_config(summary)
        given = StabilityCertificate.from_dict(cert) if cert is not None and (echo is None or cfg.certificate_path) else None
        grid, certificate, integ = set_up(cfg, given)
        dt = integ.resolve_dt(grid)
        made = {"mode": cfg.mode, "dt": dt, "n_steps": step_count(cfg.t_end, dt), "meta.t_end": cfg.t_end,
                "meta.grid": grid_meta(grid), "certificate": certificate,
                "meta.period": meta.get("period") if cfg.period is None else cfg.period}  # the echo's, if it names one
    except (ArithmeticError, WavetrigError) as exc:
        raise DataFormatError(f"config.set_up makes no run of {source} in {summary_path}: {exc}") from exc
    stated = {key: (meta if "." in key else summary).get(key.rpartition(".")[2]) for key in made}
    if _canonical(stated) != _canonical(made):
        keys = [key for key in made if _canonical(stated[key]) != _canonical(made[key])]
        raise DataFormatError(f"summary {', '.join(keys)} of {d}: not what config.set_up makes of {source}")
    if n != made["n_steps"] + 1:
        raise DataFormatError(f"summary n_steps {made['n_steps']} does not fit the {n} rows of {series_path}")
    # a periodic run refreshes its hold every meta.period, which simulate records;
    # a summary without one (an event-triggered run relabelled, say) is not a periodic run's
    period = meta.get("period")
    if mode == "periodic" and (type(period) not in (int, float) or not 0 < period <= sys.float_info.max):
        raise DataFormatError(f"summary meta.period {period!r} of the periodic run in {d} is not a positive number")
    variants = ETA0_VARIANTS if echo is None else (cfg.design.eta0_variant,)
    # eta0 and the predicate are rebuilt from the certificate and the scale, which must be
    # a positive V[0] with the certificate's eps and alpha, for the echo's eta0 variant or either
    trigger_params = None
    if certificate is not None:
        row0 = tuple(float(cols[name][0]) for name in ("norm_z_sq", "norm_v_sq", "norm_gradz_sq", "inner_zv"))
        scales = [threshold_scale(row0, certificate.epsilon, certificate.alpha, v) for v in variants]
        if scale not in scales or not scale > 0:
            raise DataFormatError(
                f"summary eta0_scale {scale!r} is not a positive V[0] of {series_path} for the eta0 variants "
                f"{variants}, {scales}"
            )
        trigger_params = TriggerParams.from_certificate(certificate, scale)
    # 0/1 flags, with the unconditional event at t = 0
    event = cols["event"]
    if not (((event == 0) | (event == 1)).all() and event[0] == 1):
        raise DataFormatError(f"the event column of {series_path} is not 0/1 flags with an event at t = 0")
    cols["event"] = event == 1
    record = build_record(cols, certificate, trigger_params, mode, float(dt), meta)
    # events.csv is the record's event table as save_run writes it, with either line end
    try:
        events = events_path.read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read {events_path}: {exc}") from exc
    want = b"".join(_table_bytes(_event_table(record.events.times), ("k",)))
    if events.replace(b"\r\n", b"\n") != want.replace(b"\r\n", b"\n"):
        raise DataFormatError(f"{events_path} is not the event table of {series_path}")
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

