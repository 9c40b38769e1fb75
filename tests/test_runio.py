import csv
import io
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavetrig.dynamics import build_record
from wavetrig.runio import _BLOCK_ROWS, SERIES_COLUMNS, SERIES_COLUMNS_UNCONTROLLED, save_run, write_table


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
def series(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    columns = {name: draw(hnp.arrays(float, n, elements=cells)) for name in SERIES_COLUMNS if name != "event"}
    columns["event"] = draw(hnp.arrays(bool, n))
    return columns


@settings(max_examples=100, deadline=None)
@given(columns=series(), uncontrolled=st.booleans())
def test_series_writer_matches_csv_writer(columns, uncontrolled):
    mode = "uncontrolled" if uncontrolled else "event-triggered"
    names = SERIES_COLUMNS_UNCONTROLLED if uncontrolled else SERIES_COLUMNS
    expected = reference_series(names, columns)
    record = build_record(columns, certificate=None, trigger_params=None, mode=mode, dt=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        save_run(record, tmp)
        assert (Path(tmp) / "series.csv").read_bytes() == expected


@pytest.mark.parametrize("uncontrolled", [False, True], ids=["controlled", "uncontrolled"])
@pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (1, 1), (2, 1)], ids=["block-1", "block", "block+1", "2block+1"])
def test_series_writer_matches_csv_writer_across_row_blocks(blocks, uncontrolled):
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
    mode = "uncontrolled" if uncontrolled else "event-triggered"
    names = SERIES_COLUMNS_UNCONTROLLED if uncontrolled else SERIES_COLUMNS
    record = build_record(columns, certificate=None, trigger_params=None, mode=mode, dt=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        save_run(record, tmp)
        assert (Path(tmp) / "series.csv").read_bytes() == reference_series(names, columns)


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


# each float is written by numpy unless it is 0, not finite, outside
# 1e-280..1e280, or its significand lies within 1e-12 of a rounding tie or
# of the decade's ends, or rounds up into the next decade; these cases aim
# at those edges from both sides
ENCODER_CASES = {
    "powers-of-ten": _both_signs(_near([10.0**j for j in range(-323, 309)] + [float(f"1e{j}") for j in range(-323, 309)])),
    "ties": _both_signs([10.0**j * (1 + 2.0**-k) for j in range(-30, 31) for k in range(1, 53)]),
    "carry": _both_signs(_near([1e153, 9.999999999999999e22, 0.9999999999999999, 99999999999999.99])),
    "range-ends": _both_signs(
        _near([1e-280, 1e280, 5e-324, 2.2250738585072014e-308, 1.0, 0.1]).tolist()
        + [1.7976931348623157e308, 0.0, np.nan, np.inf]
    ),
    "random-bits": np.random.default_rng(18).integers(0, 2**64, 200_000, dtype=np.uint64).view(float),
}


@pytest.mark.parametrize("values", ENCODER_CASES.values(), ids=ENCODER_CASES.keys())
def test_write_table_formats_every_hard_float_as_python_does(tmp_path, values):
    assert_cells_are_python_formatted(tmp_path / "t.csv", {"a": values, "b": values[::-1]})


def test_encoder_cases_reach_a_tie_a_carry_and_a_subnormal():
    # the premises of the cases above: exact ties, a cell that rounds up
    # into the next decade, subnormals and both zeros are among them
    assert any(_is_tie(x) for x in ENCODER_CASES["ties"].tolist())
    assert Fraction(1e153) < 10**153 and b"%.17e" % 1e153 == b"1.00000000000000000e+153"
    edges = ENCODER_CASES["range-ends"]
    assert (edges == 5e-324).any() and (np.signbit(edges) & (edges == 0)).any()


def test_write_table_formats_multi_digit_int_columns_across_row_blocks(tmp_path):
    # events.csv's k beyond 1000 and sweep.csv's counts, with the cells %d
    # truncates toward 0 and ones past numpy's 1e18 bound
    n = 3 * _BLOCK_ROWS + 7
    k = np.arange(n) * 997.0
    k[_BLOCK_ROWS - 2:_BLOCK_ROWS + 2] = [-0.5, -1.5, 2.7, -0.0]
    k[2 * _BLOCK_ROWS - 2:2 * _BLOCK_ROWS + 2] = [1e18 - 128, 1e18, -3e25, 1e300]
    counts = np.arange(n) % 1234567
    assert_cells_are_python_formatted(tmp_path / "t.csv", {"k": k, "t_k": k / 7, "events": counts}, ints=("k", "events"))
