"""Row-by-row readers of the observation and predictions tables, each a loop
over csv.reader's rows of the whole file. They are the references that
geodata.read_table and the loaders built on it must reproduce, outcome for
outcome: the same table, or the same exception type and text."""

import csv
import re

import numpy as np

from sdmkit import engine
from sdmkit.errors import DataError, FormatError
from sdmkit.evalkit import Predictions
from sdmkit.geodata import ObservationTable, parse_field
from conftest import table_of


def csv_rows(path: str, columns):
    """Stream (row number, fields of the named columns) over a CSV table's
    non-blank rows; the header is row 1 and names each column once, and a row
    holding a byte that is not UTF-8 is refused."""
    csv.field_size_limit(2**31 - 1)
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        row = 0  # rows read so far, the header included
        try:
            header = next(reader, [])
            row = 1
            check_utf8(path, row, header)
            missing = [c for c in columns if c not in header]
            if missing:
                raise FormatError(f"{path} row 1: missing column(s) {missing}")
            repeated = [c for c in columns if header.count(c) > 1]
            if repeated:
                raise FormatError(f"{path} row 1: column(s) {repeated} named more than once")
            index = [header.index(c) for c in columns]
            for fields in reader:
                if not fields:
                    continue
                row += 1
                check_utf8(path, row, fields)
                if len(fields) != len(header):
                    raise FormatError(f"{path} row {row}: {len(fields)} fields, "
                                      f"the header has {len(header)}")
                yield row, [fields[i] for i in index]
        except csv.Error as exc:
            raise FormatError(f"{path} row {row + 1}: {exc}") from None


def check_utf8(path: str, row: int, fields) -> None:
    """Refuse a row with a byte that is not UTF-8, which the surrogateescape
    error handler decodes to one of U+DC80..U+DCFF."""
    if any(re.search("[\udc80-\udcff]", field) for field in fields):
        raise FormatError(f"{path} row {row}: not UTF-8 text")


def per_row_load_observations(path: str, num_classes: int) -> ObservationTable:
    """load_observations by a loop over csv_rows, grouping species rows per
    survey and checking each row as it comes."""
    grouped: dict[str, tuple] = {}  # surveyId -> (lon, lat, first row, species set)
    for i, (sid, lon, lat, species) in csv_rows(path, ("surveyId", "lon", "lat", "speciesId")):
        lon, lat = parse_field(path, i, "lon", float, lon), parse_field(path, i, "lat", float, lat)
        if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
            raise DataError(f"{path} row {i}: coordinate ({lon}, {lat}) out of range")
        species = parse_field(path, i, "speciesId", int, species) if species.strip() else None
        if species is not None and not (0 <= species < num_classes):
            raise DataError(f"{path} row {i}: speciesId {species} outside [0, {num_classes})")
        entry = grouped.get(sid)
        if entry is None:
            entry = grouped[sid] = (lon, lat, i, set())
        elif entry[0] != lon or entry[1] != lat:
            raise DataError(
                f"{path} row {i}: survey {sid!r} at ({lon}, {lat}) conflicts with "
                f"({entry[0]}, {entry[1]}) in row {entry[2]}"
            )
        if species is not None:
            entry[3].add(species)
    return table_of([(sid, lon, lat, species) for sid, (lon, lat, _, species) in grouped.items()],
                    num_classes)


def per_row_load_predictions(path: str) -> Predictions:
    """The row-by-row predictions reader, one numpy call per field: the
    reference the column parse of load_predictions must reproduce."""
    row_of, topks, scores = {}, [], []
    for i, (sid, topk, row_scores) in csv_rows(path, ("surveyId", "topk", "scores")):
        topk = parse_field(path, i, "topk", engine._int_array, topk)
        row_scores = parse_field(path, i, "scores", engine._float_array, row_scores)
        if topks and (topk.size, row_scores.size) != (topks[0].size, scores[0].size):
            raise FormatError(
                f"{path} row {i}: {topk.size} top-k ids and {row_scores.size} "
                f"scores, row 2 has {topks[0].size} and {scores[0].size}"
            )
        if row_of.setdefault(sid, i) != i:
            raise FormatError(f"{path} row {i}: survey {sid!r} already in row {row_of[sid]}")
        topks.append(topk)
        scores.append(row_scores)
    if not topks:
        return Predictions([], np.empty((0, 0)), np.empty((0, 0), dtype=np.int64))
    topk, scores = np.stack(topks), np.stack(scores)
    ranked = np.sort(topk, axis=1)
    bad = (((topk < 0) | (topk >= scores.shape[1])).any(axis=1)
           | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    if bad.any():
        rows = np.array(list(row_of.values()))[bad]
        raise FormatError(
            f"{path} row {rows[0]}, column topk: ids {topk[bad][0].tolist()} are not distinct "
            f"class indices in [0, {scores.shape[1]}) ({rows.size} such rows)"
        )
    return Predictions(list(row_of), scores, topk)
