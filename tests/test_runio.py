import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavetrig.dynamics import build_record
from wavetrig.runio import _BLOCK_ROWS, SERIES_COLUMNS, SERIES_COLUMNS_UNCONTROLLED, save_run


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
