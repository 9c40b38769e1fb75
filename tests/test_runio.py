import csv
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavetrig.lyapunov import RunRecord
from wavetrig.runio import SERIES_COLUMNS, SERIES_COLUMNS_UNCONTROLLED, save_run


def fmt(x) -> str:
    return format(float(x), ".17e")


def reference_series(names, columns) -> bytes:
    """series.csv as a csv.writer with one fmt call per cell writes it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(names)
    for i in range(columns["t"].size):
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
    record = RunRecord.from_columns(
        columns, certificate=None, trigger=None, mode=mode, dt=1.0
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_run(record, tmp)
        assert (Path(tmp) / "series.csv").read_bytes() == expected
