import builtins
import gc
import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from sdmkit.geodata import ObservationTable, RasterLayer


@pytest.fixture
def toy_raster():
    """4x4 grid holding 0..15 row-major; origin (0,4), 1-degree pixels, north-up."""
    return RasterLayer(
        name="toy",
        width=4,
        height=4,
        origin_x=0.0,
        origin_y=4.0,
        pixel_size_x=1.0,
        pixel_size_y=-1.0,
        crs="EPSG:4326",
        nodata=-9999.0,
        values=np.arange(16, dtype=np.float32).reshape(4, 4),
    )


# survey ids that csv.writer quotes: a comma, LF, CRLF or lone CR inside
ID_SUFFIXES = st.sampled_from(["", "", ",x", "\nx", "\r\nx", "\rx"])


def quoted_if_needed(text: str) -> str:
    """text as a field of csv.writer's excel dialect."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def table_of(surveys, num_classes=5):
    """The ObservationTable of (survey id, lon, lat, species) tuples, one per
    survey in table order, each survey's distinct species as its CSR row."""
    rows = [sorted(set(species)) for _, _, _, species in surveys]
    return ObservationTable(
        [sid for sid, _, _, _ in surveys],
        np.array([lon for _, lon, _, _ in surveys], dtype=np.float64),
        np.array([lat for _, _, lat, _ in surveys], dtype=np.float64),
        np.cumsum([0] + [len(row) for row in rows]),
        np.array([sp for row in rows for sp in row], dtype=np.int64),
        num_classes,
    )


def make_table(points, num_classes=5):
    """The table of (lon, lat, species) points as surveys s0, s1, ..."""
    return table_of([(f"s{i}", *point) for i, point in enumerate(points)], num_classes)


def table_rows(table):
    """(survey id, lon, lat, species list) of each row of table, and its
    num_classes: what two equal tables share, in a form == compares."""
    species = np.split(table.indices, table.indptr[1:-1])
    return list(zip(table.survey_ids, table.lon.tolist(), table.lat.tolist(),
                    [row.tolist() for row in species])), table.num_classes


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes that tracemalloc saw allocated during the
    call beyond what was allocated before it, the bytes the call leaves
    allocated beyond that). numpy reports its array buffers to tracemalloc,
    so these are the call's transient peak and what it retains, such as its
    result or state it keeps on an object."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, current - before


@contextmanager
def failing_writes(monkeypatch, name: str, after: int):
    """Within the block, a file whose name starts with name, opened for
    writing, raises OSError("disk full") at its write call after the first
    `after` ones, which it writes."""
    real_open = builtins.open

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

        def write(self, text):
            if self.writes == after:
                raise OSError("disk full")
            self.writes += 1
            return self.fh.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        writing = any(c in mode for c in "wax+")
        return FailingFile(fh) if writing and os.path.basename(file).startswith(name) else fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", failing_open)
        yield
