import csv
import io
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavetrig import runio
from wavetrig.dynamics import MODES, build_record
from wavetrig.errors import DataFormatError
from wavetrig.runio import _BLOCK_ROWS, SERIES_COLUMNS, save_run, write_table


def fmt(x) -> str:
    return format(float(x), ".17e")


def reference_series(names, columns) -> bytes:
    """series.csv as a csv.writer with one fmt call per cell writes it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(names)
    for i in range(columns["norm_z_sq"].size):
        writer.writerow([str(int(columns[name][i])) if name == "event" else fmt(columns[name][i]) for name in names])
    return buf.getvalue().encode()


cells = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]))


@st.composite
def series(draw, elements=cells, min_rows=1, max_rows=12):
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    columns = {name: draw(hnp.arrays(float, n, elements=elements)) for name in SERIES_COLUMNS if name != "event"}
    columns["event"] = draw(hnp.arrays(bool, n))
    return columns


# the float columns of series.csv: a table of them alone is written and read
# by the series codec with no int column among them
FLOAT_COLUMNS = tuple(name for name in SERIES_COLUMNS if name != "event")


# the most rows of a series.csv that Python formats; from one more row up numpy encodes it
PY_SERIES_ROWS = (runio._PY_CELLS - 1) // len(SERIES_COLUMNS)


def series_either_side(elements=cells, min_rows=1):
    """Series of up to PY_SERIES_ROWS rows, which Python formats, or of more, up to
    twice as many, which numpy's block encoder writes."""
    return st.one_of(
        series(elements, min_rows, PY_SERIES_ROWS), series(elements, PY_SERIES_ROWS + 1, 2 * PY_SERIES_ROWS)
    )


def encoder_calls():
    """runio._encode_block, wrapped to record whether numpy's block encoder ran."""
    return mock.patch.object(runio, "_encode_block", wraps=runio._encode_block)


def numpy_rows(values, columns: int) -> int:
    """The rows of a table of ``columns`` columns that holds ``values``, at least
    as many as make it a table that numpy's block encoder writes."""
    return max(-(-len(values) // columns), -(-runio._PY_CELLS // columns))


@settings(max_examples=100, deadline=None)
@given(columns=series_either_side(), mode=st.sampled_from(MODES))
def test_series_writer_matches_csv_writer(columns, mode):
    # every mode writes the same header, in Python's formatting and in numpy's
    expected = reference_series(SERIES_COLUMNS, columns)
    record = build_record(columns, certificate=None, trigger_params=None, mode=mode, dt=1.0)
    with tempfile.TemporaryDirectory() as tmp, encoder_calls() as encode:
        save_run(record, tmp)
        assert (Path(tmp) / "series.csv").read_bytes() == expected
    assert encode.called == (len(columns["event"]) > PY_SERIES_ROWS)


@pytest.mark.parametrize("mode", ["event-triggered", "uncontrolled"], ids=["controlled", "uncontrolled"])
@pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (1, 1), (2, 1)], ids=["block-1", "block", "block+1", "2block+1"])
def test_series_writer_matches_csv_writer_across_row_blocks(blocks, mode):
    # save_run formats and writes series.csv a block of rows at a time; rows
    # on both sides of a block's edge, the special values among them, must
    # be what the one-row-at-a-time reference writes
    n = blocks[0] * _BLOCK_ROWS + blocks[1]
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.0, 1.0, -1.5e300])
    rng = np.random.default_rng(n)
    columns = {
        name: rng.choice(specials, n) * np.where(rng.random(n) < 0.5, 1.0, rng.standard_normal(n))
        for name in SERIES_COLUMNS if name != "event"
    }
    for k, name in enumerate(columns):  # special values on both sides of every block edge
        for edge in range(_BLOCK_ROWS, n, _BLOCK_ROWS):
            columns[name][edge - 1:edge + 1] = specials[k % 4::4]
    columns["event"] = rng.random(n) < 0.1
    record = build_record(columns, certificate=None, trigger_params=None, mode=mode, dt=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        save_run(record, tmp)
        assert (Path(tmp) / "series.csv").read_bytes() == reference_series(SERIES_COLUMNS, columns)


def assert_cells_are_python_formatted(path, table, ints=()):
    """write_table's file holds, cell by cell, b"%d" % x or b"%.17e" % x."""
    write_table(path, table, ints)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == ",".join(table).encode() and lines[-1] == b""
    rows = [line.split(b",") for line in lines[1:-1]]
    for j, (name, column) in enumerate(table.items()):
        fmt = b"%d" if name in ints else b"%.17e"
        values = np.asarray(column, dtype=float).tolist()
        assert len(rows) == len(values)
        wrong = [(x, row[j]) for x, row in zip(values, rows) if row[j] != fmt % x]
        assert not wrong, f"{name}: {wrong[:5]}"


@pytest.mark.parametrize("ints", [(), ("x",)], ids=["float", "int"])
@pytest.mark.parametrize("cells", [-1, 0, 1], ids=["below", "at", "above"])
def test_write_table_formats_either_side_of_the_python_crossover_as_python_does(tmp_path, cells, ints):
    # a table of fewer than _PY_CELLS cells is formatted by Python, one of
    # _PY_CELLS or more by numpy's block encoder; both write Python's bytes,
    # the cells that numpy leaves to Python's fallback included
    n = runio._PY_CELLS + cells
    rng = np.random.default_rng(n)
    if ints:  # counts of up to 9 digits, flags, and cells %d truncates
        x = rng.integers(0, 10**9, n).astype(float)
        x[:6] = [0, 1, -0.5, 2.7, 99_999_999, 1e8]
    else:  # in and beyond 1e-99..1e99, zeros, nan, inf, a subnormal and a carry
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-120, 120, n)
        x[:6] = [0.0, -0.0, np.nan, np.inf, 5e-324, 1e153]
    with encoder_calls() as encode:
        assert_cells_are_python_formatted(tmp_path / "t.csv", {"x": x}, ints)
    assert encode.called == (cells >= 0)


def _both_signs(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, -x])


def _near(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


def _is_tie(x: float) -> bool:
    """Whether x lies exactly halfway between two 18-digit decimals."""
    e = math.floor(math.log10(abs(x)))
    for k in (e - 1, e, e + 1):
        p = Fraction(abs(x)) * Fraction(10) ** (17 - k)
        if 10**17 <= p < 10**18:
            return p.denominator == 2
    return False


def _random_doubles(seed: int, count: int) -> np.ndarray:
    """``count`` seeded doubles of random sign and 53-bit significand, their binary
    exponents uniform from -328 to 327, so that they lie within 1.8e-99..5.5e98."""
    rng = np.random.default_rng(seed)
    significands = rng.integers(2**52, 2**53, count) * rng.choice([-1, 1], count)
    return np.ldexp(significands.astype(float), rng.integers(-328, 328, count) - 52)


def _random_bits_in_decades(seed: int, count: int, decades: int = 105) -> np.ndarray:
    """``count`` seeded uniform bit patterns with the exponent field redrawn uniform over
    the binary exponents of 1e-``decades``..1e``decades``: 94% of them lie within the
    numpy path's 1e-99..1e99, and the rest on both sides of its ends."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, count, dtype=np.uint64) & np.uint64(~(0x7FF << 52) & (2**64 - 1))
    e = round(decades * math.log2(10))
    return (bits | rng.integers(1023 - e, 1023 + e + 1, count).astype(np.uint64) << np.uint64(52)).view(float)


# each float is written by numpy unless it is 0, not finite, outside
# 1e-99..1e99, or its significand lies within 1e-12 of a rounding tie or
# of the decade's ends, or rounds up into the next decade; these cases aim
# at those edges from both sides, and at 1e-280 and 1e280, three-digit exponents.
# Of uniform bit patterns 32% lie within 1e-99..1e99, so most of "random-bits"
# compares Python's %.17e with itself; "random-in-range" all do, and
# "random-bits-in-decades" 94%, with random low bits and both range ends
ENCODER_CASES = {
    "powers-of-ten": _both_signs(_near([10.0**j for j in range(-323, 309)] + [float(f"1e{j}") for j in range(-323, 309)])),
    "ties": _both_signs([10.0**j * (1 + 2.0**-k) for j in range(-30, 31) for k in range(1, 53)]),
    "carry": _both_signs(_near([1e153, 9.999999999999999e22, 0.9999999999999999, 99999999999999.99])),
    "range-ends": _both_signs(
        _near([1e-99, 1e99, 1e-100, 1e100, 1e-280, 1e280, 5e-324, 2.2250738585072014e-308, 1.0, 0.1]).tolist()
        + [1.7976931348623157e308, 0.0, np.nan, np.inf]
    ),
    "random-bits": np.random.default_rng(18).integers(0, 2**64, 200_000, dtype=np.uint64).view(float),
    "random-in-range": _random_doubles(20, 200_000),
    "random-bits-in-decades": _random_bits_in_decades(33, 200_000),
}


@pytest.mark.parametrize("values", ENCODER_CASES.values(), ids=ENCODER_CASES.keys())
def test_write_table_formats_every_hard_float_as_python_does(tmp_path, values):
    # a case of fewer cells than numpy's block encoder takes is repeated up to them
    values = np.resize(values, numpy_rows(values, 2))
    with encoder_calls() as encode:
        assert_cells_are_python_formatted(tmp_path / "t.csv", {"a": values, "b": values[::-1]})
    assert encode.called


def test_encoder_cases_reach_a_tie_a_carry_and_a_subnormal():
    # the premises of the cases above: exact ties, a cell that rounds up
    # into the next decade, subnormals and both zeros are among them
    assert any(_is_tie(x) for x in ENCODER_CASES["ties"].tolist())
    assert Fraction(1e153) < 10**153 and b"%.17e" % 1e153 == b"1.00000000000000000e+153"
    edges = ENCODER_CASES["range-ends"]
    assert (edges == 5e-324).any() and (np.signbit(edges) & (edges == 0)).any()
    in_range = np.abs(ENCODER_CASES["random-in-range"])
    assert ((in_range >= 1e-99) & (in_range <= 1e99)).all()
    # most of the draws in ±105 decades take the numpy path, and some fall either side of it
    near = np.abs(ENCODER_CASES["random-bits-in-decades"])
    assert ((near >= 1e-99) & (near <= 1e99)).mean() > 0.9
    assert (near < 1e-99).any() and (near > 1e99).any()


def test_write_table_formats_multi_digit_int_columns_across_row_blocks(tmp_path):
    # events.csv's k beyond 1000 and sweep.csv's counts, with the cells %d
    # truncates toward 0 and ones from numpy's 10^8 bound up; blocks with
    # 18-digit cells and cells left to Python come before one of 7-digit
    # cells and none, and a block of 8-digit cells with 10^8 - 1 and 10^8
    # before one of 0/1 flags, in the one slot buffer the table's blocks share
    n = 5 * _BLOCK_ROWS + 7
    k = np.arange(n) * 997.0
    k[_BLOCK_ROWS - 2:_BLOCK_ROWS + 2] = [-0.5, -1.5, 2.7, -0.0]
    k[2 * _BLOCK_ROWS - 2:2 * _BLOCK_ROWS + 2] = [1e18 - 128, 1e18, -3e25, 1e300]
    counts = np.arange(n) % 1234567
    counts[3 * _BLOCK_ROWS:4 * _BLOCK_ROWS] = 99_999_999 - np.arange(_BLOCK_ROWS) * 9_000
    counts[3 * _BLOCK_ROWS + 1] = 100_000_000
    counts[4 * _BLOCK_ROWS:] %= 2
    assert_cells_are_python_formatted(tmp_path / "t.csv", {"k": k, "t_k": k / 7, "events": counts}, ints=("k", "events"))


def assert_same_floats(got, want):
    """Bit for bit, with any nan for a nan: the writer prints every nan as "nan"."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def read_series(path, chunk=runio._CHUNK) -> dict:
    with mock.patch.object(runio, "_CHUNK", chunk):
        return runio._parse_series(Path(path))


def read_floats(path, chunk=runio._CHUNK) -> dict:
    """A table of float columns that write_table wrote, as the series reader's
    row decoder (``runio._read_rows``) returns it, under its header's names."""
    with open(path, "rb") as fh, mock.patch.object(runio, "_CHUNK", chunk):
        header = fh.readline().decode().rstrip("\r\n").split(",")
        return dict(zip(header, runio._read_rows(fh, [False] * len(header), f"table {path}")))


# the writer's fallback classes and both sides of its range: zeros,
# subnormals, nan, inf, values either side of 1e-99 and 1e99 (and of
# 1e-280 and 1e280), and floats with 3-digit exponents; and floats within
# ±105 decades, most of which the numpy path writes and reads
round_trip_cells = st.one_of(
    st.floats(),
    st.floats(min_value=1e-105, max_value=1e105),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e-279, max_value=1e-100),
    st.floats(min_value=1e100, max_value=1e279),
    st.sampled_from(
        _near([1e-99, 1e99, 1e-100, 1e100, 1e-280, 1e280, 5e-324]).tolist()
        + [0.0, 1e-300, 1e300, 1.7976931348623157e308, np.nan, np.inf]
    ),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=150, deadline=None)
@given(
    columns=series_either_side(round_trip_cells, min_rows=2),
    floats_only=st.booleans(), chunk=st.integers(1, 400), lf=st.booleans(),
)
def test_reader_returns_every_float_the_writer_wrote(columns, floats_only, chunk, lf):
    # a chunk of 1 to 400 bytes puts its edges on both sides of rows of
    # about 150 bytes; the file is read with the writer's "\r\n" and with "\n".
    # A series table is read by the series reader, a table of its float
    # columns alone (one run of columns) by its row decoder; either is
    # written by Python or by numpy's block encoder, as its cells fall
    names = FLOAT_COLUMNS if floats_only else SERIES_COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        with encoder_calls() as encode:
            write_table(path, {name: columns[name] for name in names}, ints=("event",))
        assert encode.called == (len(columns["event"]) * len(names) >= runio._PY_CELLS)
        if lf:
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        got = (read_floats if floats_only else read_series)(path, chunk)
    assert list(got) == list(names)
    for name in names:
        assert got[name].flags.c_contiguous
        assert_same_floats(got[name], columns[name])


@pytest.mark.parametrize("values", ENCODER_CASES.values(), ids=ENCODER_CASES.keys())
def test_reader_returns_every_hard_float_the_writer_wrote(tmp_path, values):
    # the writer's edge cases, 200,000 random bit patterns, 200,000 doubles within
    # 1e-99..1e99 and 200,000 bit patterns within ±105 decades among them, five to a
    # row, a case of fewer cells than numpy's block encoder takes repeated up to them
    columns = np.resize(values, (numpy_rows(values, 5), 5)).T
    with encoder_calls() as encode:
        write_table(tmp_path / "series.csv", dict(zip(FLOAT_COLUMNS, columns)))
    assert encode.called
    got = read_floats(tmp_path / "series.csv")
    for name, column in zip(FLOAT_COLUMNS, columns):
        assert_same_floats(got[name], column)


def _cell(digits: str, exponent: int, negative: bool = False) -> str:
    """``d.ddddddddddddddddde±XX`` of an 18-digit significand."""
    return f"{'-' if negative else ''}{digits[0]}.{digits[1:]}e{exponent:+03d}"


def _tie(binade: int, i: int, offset: int) -> str:
    """An integer ``offset`` away from the midpoint of the doubles ``2^binade + i ulp``
    and the next, as a %.17e cell; at offset 0 the exact tie that the reader leaves to float()."""
    ulp = 2 ** (binade - 52)
    m = 2**binade + i * ulp + ulp // 2 + offset
    return _cell(str(m).ljust(18, "0"), len(str(m)) - 1)


decimal_text = st.one_of(
    st.builds(
        _cell, st.text("0123456789", min_size=18, max_size=18),
        st.integers(-330, 330), st.booleans(),
    ),
    # two-digit exponents, which the numpy decoder reads when the first digit is not 0
    st.builds(_cell, st.text("0123456789", min_size=18, max_size=18), st.integers(-99, 99), st.booleans()),
    st.builds(
        lambda d, e3, neg: _cell(d, 0, neg)[:-3] + e3, st.text("0123456789", min_size=18, max_size=18),
        st.from_regex(r"[+-][0-9]{2,3}", fullmatch=True), st.booleans(),
    ),
    st.builds(
        lambda b, i, offset, neg: ("-" if neg else "") + _tie(b, i, offset),
        st.integers(53, 59), st.integers(0, 2**52 - 1), st.sampled_from([0, 0, 1, -1, 2, -2]), st.booleans(),
    ).filter(lambda text: len(text.lstrip("-")) == 23),  # a significand below 1e18
)


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(decimal_text, min_size=8, max_size=40))
def test_reader_reads_any_18_digit_decimal_as_float_does(cells):
    # not only the %.17e of a double: any significand of 18 digits (a zero
    # first digit too) with a 2- or 3-digit exponent, and midpoints between
    # two doubles written exactly, which round half to even
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_floats(_read_cells(Path(tmp) / "series.csv", cells), [float(text) for text in cells])


def _read_cells(path, cells: list[str]) -> np.ndarray:
    """``cells``, five to a row of a table of the series' float columns at ``path``, as the reader returns them."""
    padded = cells + ["1.00000000000000000e+00"] * (-len(cells) % 5)
    rows = [",".join(padded[i:i + 5]) for i in range(0, len(padded), 5)]
    path.write_text("\r\n".join([",".join(FLOAT_COLUMNS), *rows, ""]))
    got = read_floats(path)
    return np.column_stack([got[name] for name in FLOAT_COLUMNS]).ravel()[:len(cells)]


def _fast_path(cells: list[str]) -> np.ndarray:
    """Whether the reader decodes each cell in numpy (else it is left to Python's float)."""
    data = ",".join(cells).encode() + b"\n" + bytes(runio._SLOT)
    ends = np.cumsum([len(cell) + 1 for cell in cells]) - 1
    return runio._float_values(np.frombuffer(data, np.uint8), ends - [len(cell) for cell in cells], ends)[1]


def test_reader_leaves_ties_and_the_writers_python_cells_to_float(tmp_path):
    # the fast path takes every cell the writer encodes in numpy, and none
    # of zero, subnormals, three-digit exponents, nan, inf, ties and powers
    # of two, each of which float() reads
    rng = np.random.default_rng(19)
    ordinary = np.exp(rng.uniform(-227, 227, 4000)) * rng.choice([-1.0, 1.0], 4000)  # within 1e-99..1e99
    ordinary = ordinary[np.frexp(ordinary)[0] != 0.5]  # a power of two is left to Python
    assert _fast_path([fmt(x) for x in ordinary]).all()
    # 9.99...e99 is the double 1.00000000000000002e+100
    wide = (0.0, -0.0, 5e-324, 9.9e-281, 1.1e281, 1e-150, -3e200, 9.99999999999999999e99)
    python_cells = [fmt(x) for x in wide] + ["nan", "inf", "-inf"]
    ties = [_tie(b, i, 0) for b in (53, 55, 57) for i in (0, 1, 12345)]
    assert float(ties[0]) == 2.0**53 and float(ties[1]) == 2.0**53 + 4  # half to even
    cells = python_cells + ties + [fmt(2.0**-3), fmt(-(2.0**60))]
    assert not _fast_path(cells).any()
    assert_same_floats(_read_cells(tmp_path / "series.csv", cells), [float(text) for text in cells])


def test_reader_refuses_a_cell_it_cannot_place(tmp_path):
    # the reader's own refusals, each with its line: the command line's
    # tampers (test_cli) cover the cells one by one
    header = ",".join(SERIES_COLUMNS)
    row = ",".join([fmt(0.25)] * 5 + ["1"])
    cases = {
        "unterminated": (f"{header}\r\n{row}\r\n{row}", "line 3 is not terminated"),
        "ragged": (f"{header}\n{row}\n{row},{fmt(1)}\n", "line 3 does not have 6 cells"),
        "empty": (f"{header}\n{row}\n{row.replace(fmt(0.25), '', 1)}\n", "line 3: b'' is not a cell"),
        "cr-inside": (f"{header}\n{row}\n{row.replace(',', chr(13) + ',', 1)}\n", "line 3: b'2.50"),
        "one-row": (f"{header}\n{row}\n", "fewer than 2 rows"),
    }
    for name, (text, message) in cases.items():
        (tmp_path / "series.csv").write_text(text)
        with pytest.raises(DataFormatError, match=re.escape(message)):
            read_series(tmp_path / "series.csv", chunk=64)


def _chunked_table(path, n: int) -> tuple[bytes, list[int]]:
    """A controlled series of ``n`` rows written to ``path``: its bytes and the offset of each line's start."""
    rng = np.random.default_rng(n)
    columns = {name: rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n) for name in SERIES_COLUMNS}
    columns["event"] = (rng.random(n) < 0.1).astype(float)
    write_table(path, columns, ints=("event",))
    data = path.read_bytes()
    return data, [0, *(np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")) + 1)]


def _decoded_lines(path, budget: int) -> list[tuple[int, int]]:
    """The first line and the bytes of each ``_decode_lines`` call that reading ``path`` makes."""
    calls, decode = [], runio._decode_lines

    def spy(lines, *args):
        calls.append((args[-1], len(lines)))
        return decode(lines, *args)

    with mock.patch.object(runio, "_decode_lines", spy):
        read_series(path, budget)
    return calls


def test_reader_refuses_a_cell_on_the_same_line_however_the_table_is_chunked(tmp_path):
    # a malformed cell on a chunk's first row, on its last row and on the row
    # a chunk's edge cuts, that cell holding the edge: each is refused with its
    # own line number under every budget, the whole table in one chunk too
    path = tmp_path / "series.csv"
    data, starts = _chunked_table(path, 3000)
    budgets = [50_001, 1 << 16, runio._CHUNK, 1 << 20]
    assert len(data) > 2 * runio._CHUNK
    cells = set()  # (line, offset of the cell's first byte)
    for budget in budgets[:-1]:
        edges = range(starts[1] + budget, len(data), budget)  # the reader reads budget bytes at a time
        cuts = [np.searchsorted(starts, edge, side="right") - 1 for edge in edges]  # the lines holding them
        assert [first for first, _ in _decoded_lines(path, budget)[1:]] == [cut + 1 for cut in cuts]
        for edge, cut in zip(edges, cuts):
            if starts[cut] == edge:  # an edge on a line's start cuts none
                continue
            cell = data.rindex(b",", starts[cut], edge) + 1 if b"," in data[starts[cut]:edge] else starts[cut]
            cells |= {(cut + 1, cell), (cut, starts[cut - 1]), (cut + 2, starts[cut + 1])}
    assert len(cells) >= 3 * (len(budgets) - 1)
    for line, cell in sorted(cells):
        bad = bytearray(data)
        bad[cell] = ord("x")  # the same length: the chunk edges do not move
        path.write_bytes(bad)
        text = bytes(bad[cell:cell + runio._SLOT]).split(b",")[0].split(b"\r")[0]
        for budget in budgets:
            with pytest.raises(DataFormatError, match=re.escape(f"line {line}: {text!r} is not a cell")):
                read_series(path, budget)


def test_reader_decodes_a_table_in_the_fewest_chunks(tmp_path):
    # a table under the budget is decoded by one call; a larger one by
    # ceil(rest / _CHUNK), a short tail chunk being one call as well
    for n, parts in ((800, 1), (3000, 3)):
        path = tmp_path / f"series-{n}.csv"
        data, starts = _chunked_table(path, n)
        assert -(-(len(data) - starts[1]) // runio._CHUNK) == parts == len(_decoded_lines(path, runio._CHUNK))
