"""Spatial block holdout: assign whole geographic cells to train or val.

Cells live on a fixed global grid anchored at (-180, -90) so indices are
stable across datasets. Occupied cells are shuffled with a seeded PRNG
and accumulated greedily into the validation zone set until the point
fraction first reaches VAL_FRACTION; every point in a selected cell goes to
val, all others to train, which guarantees no cell mixes partitions.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplitError, FormatError
from .geodata import ObservationTable, parse_field, read_table, replaced_on_success

CELL_SIZE = 1.0 / 6.0  # 10 arcminutes
VAL_FRACTION = 0.15  # val takes cells until it holds at least this share of surveys


def cell_index(lon, lat) -> tuple[np.ndarray, np.ndarray]:
    """Integer cell indices (cx, cy) of points (arrays or scalars) on the fixed global grid."""
    cx = np.floor((lon + 180.0) / CELL_SIZE).astype(np.int64)
    cy = np.floor((lat + 90.0) / CELL_SIZE).astype(np.int64)
    return cx, cy


@dataclass(frozen=True)
class SpatialSplit:
    assignment: dict[str, str]  # survey_id -> "train" | "val"
    cell_of: dict[str, tuple[int, int]]

    def partition(self, name: str) -> list[str]:
        return [sid for sid, part in self.assignment.items() if part == name]

    @property
    def val_fraction(self) -> float:
        n = len(self.assignment)
        return sum(1 for p in self.assignment.values() if p == "val") / n if n else 0.0


def block_holdout(table: ObservationTable, seed: int) -> SpatialSplit:
    """Greedy shuffled-cell holdout reaching at least VAL_FRACTION of the surveys."""
    cx, cy = cell_index(table.lon, table.lat)
    cell_of = dict(zip(table.survey_ids, zip(cx.tolist(), cy.tolist())))
    cells = Counter(cell_of.values())  # cell -> its survey count
    if len(cells) < 2:
        raise DegenerateSplitError(
            "all observations fall in a single cell; cannot form both partitions"
        )
    order = sorted(cells)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    val_cells: set[tuple[int, int]] = set()
    val_count = 0
    for cell in order:
        if val_count / len(table) >= VAL_FRACTION:
            break
        if len(val_cells) == len(cells) - 1:
            break  # keep at least one train cell
        val_cells.add(cell)
        val_count += cells[cell]
    assignment = {
        sid: ("val" if cell in val_cells else "train") for sid, cell in cell_of.items()
    }
    return SpatialSplit(assignment=assignment, cell_of=cell_of)


def save_split(split: SpatialSplit, path: str) -> None:
    """Write the split CSV through a temporary file that replaces path only
    once it is written whole."""
    with replaced_on_success(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["surveyId", "partition", "cx", "cy"])
        for sid, part in split.assignment.items():
            cx, cy = split.cell_of[sid]
            writer.writerow([sid, part, cx, cy])


def load_split(path: str) -> SpatialSplit:
    """Load a split CSV; "test" is accepted as an alias of "val". A survey
    listed on two rows raises FormatError."""
    assignment: dict[str, str] = {}
    cell_of: dict[str, tuple[int, int]] = {}
    first_row: dict[str, int] = {}
    rows = read_table(path, ("surveyId", "partition", "cx", "cy"))
    for i, (sid, part, cx, cy) in (row for start, columns in rows
                                   for row in enumerate(zip(*columns), start)):
        if first_row.setdefault(sid, i) != i:
            raise FormatError(f"{path} row {i}: survey {sid!r} already in row {first_row[sid]}")
        part = "val" if part == "test" else part
        if part not in ("train", "val"):
            raise FormatError(f"{path} row {i}, column partition: unknown partition token "
                              f"{part!r}")
        assignment[sid] = part
        cell_of[sid] = (parse_field(path, i, "cx", int, cx), parse_field(path, i, "cy", int, cy))
    return SpatialSplit(assignment=assignment, cell_of=cell_of)
