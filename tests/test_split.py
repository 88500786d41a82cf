import dataclasses
import os

import numpy as np
import pytest

from sdmkit.config import parse_config
from sdmkit.errors import DataError, DegenerateSplitError, FormatError
from sdmkit.pipeline import resolve_split
from sdmkit.split import block_holdout, cell_index, load_split, save_split
from sdmkit.synthetic import default_config_yaml
from conftest import failing_writes, make_table

CELL = 1.0 / 6.0


def uniform_table(rng, n=100, n_cells=10):
    # n_cells distinct cells along the lon axis, n/n_cells points each
    points = []
    per = n // n_cells
    for c in range(n_cells):
        base_lon = -170 + c * 1.0  # one degree apart -> distinct 1/6-degree cells
        for _ in range(per):
            points.append((base_lon + rng.uniform(0, 0.1), 10 + rng.uniform(0, 0.1), {0}))
    return make_table(points)


class TestCellIndex:
    def test_origin(self):
        assert cell_index(-180, -90) == (0, 0)

    def test_worked_point(self):
        assert cell_index(3.05, 43.61) == (1098, 801)

    def test_one_cell_shift_in_lon(self):
        assert cell_index(3.05 + CELL, 43.61) == (1099, 801)

    def test_matches_floor_formula_randomized(self):
        import math

        rng = np.random.default_rng(1)
        for _ in range(50):
            lon = rng.uniform(-180, 180)
            lat = rng.uniform(-90, 90)
            cx, cy = cell_index(lon, lat)
            assert cx == math.floor((lon + 180) / CELL)
            assert cy == math.floor((lat + 90) / CELL)


class TestBlockHoldout:
    def test_greedy_crosses_target(self):
        table = uniform_table(np.random.default_rng(0))
        split = block_holdout(table, seed=3)
        n_val_cells = len({split.cell_of[s] for s in split.partition("val")})
        assert n_val_cells == 2
        assert split.val_fraction == pytest.approx(0.20)

    def test_determinism(self):
        table = uniform_table(np.random.default_rng(0))
        a = block_holdout(table, seed=11)
        b = block_holdout(table, seed=11)
        assert a.assignment == b.assignment

    def test_block_purity_two_cells(self):
        points = [(-170 + (i % 2), 0.05, {0}) for i in range(40)]
        split = block_holdout(make_table(points), seed=0)
        cells_by_partition = {}
        for sid, part in split.assignment.items():
            cells_by_partition.setdefault(split.cell_of[sid], set()).add(part)
        assert all(len(parts) == 1 for parts in cells_by_partition.values())
        assert set(split.assignment.values()) == {"train", "val"}

    def test_block_purity_general(self):
        rng = np.random.default_rng(4)
        points = [(rng.uniform(-10, 10), rng.uniform(-10, 10), {0}) for _ in range(300)]
        split = block_holdout(make_table(points), seed=7)
        by_cell = {}
        for sid, part in split.assignment.items():
            by_cell.setdefault(split.cell_of[sid], set()).add(part)
        assert all(len(parts) == 1 for parts in by_cell.values())

    def test_fraction_bound(self):
        rng = np.random.default_rng(9)
        points = [(rng.uniform(-5, 5), rng.uniform(-5, 5), {0}) for _ in range(500)]
        table = make_table(points)
        split = block_holdout(table, seed=2)
        cell_counts = {}
        for sid, cell in split.cell_of.items():
            cell_counts[cell] = cell_counts.get(cell, 0) + 1
        max_share = max(cell_counts.values()) / len(table)
        assert 0.15 <= split.val_fraction < 0.15 + max_share + 1e-12

    def test_single_cell_degenerate(self):
        points = [(0.01 * i / 100, 0.001, {0}) for i in range(5)]
        with pytest.raises(DegenerateSplitError):
            block_holdout(make_table(points), seed=0)


class TestSplitRoundTrip:
    def test_save_load(self, tmp_path):
        table = uniform_table(np.random.default_rng(0))
        split = block_holdout(table, seed=1)
        path = str(tmp_path / "split.csv")
        save_split(split, path)
        loaded = load_split(path)
        assert loaded.assignment == split.assignment
        assert loaded.cell_of == split.cell_of

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        """A save that fails midway leaves the previous split.csv and no
        temporary file."""
        path = tmp_path / "split.csv"
        save_split(block_holdout(uniform_table(np.random.default_rng(0)), seed=1), str(path))
        before = path.read_bytes()
        other = block_holdout(uniform_table(np.random.default_rng(1)), seed=2)
        # writes the header and two rows, then fails
        with failing_writes(monkeypatch, "split.csv", after=3), \
                pytest.raises(OSError, match="disk full"):
            save_split(other, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["split.csv"]

    def test_test_alias(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("surveyId,partition,cx,cy\na,train,1,2\nb,test,3,4\n")
        loaded = load_split(str(path))
        assert loaded.assignment == {"a": "train", "b": "val"}

    def test_unknown_token(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("surveyId,partition,cx,cy\na,holdout,1,2\n")
        with pytest.raises(FormatError, match="holdout"):
            load_split(str(path))

    def test_survey_on_two_rows_rejected(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("surveyId,partition,cx,cy\na,train,0,0\nb,val,1,0\na,val,0,0\n")
        with pytest.raises(FormatError, match=r"split\.csv row 4: survey 'a' already in row 2"):
            load_split(str(path))

    def test_hand_written_three_rows(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("surveyId,partition,cx,cy\na,train,0,0\nb,val,1,0\nc,train,0,1\n")
        assert len(load_split(str(path)).assignment) == 3


class TestResolveSplit:
    def config(self, tmp_path, split_path):
        cfg = parse_config(default_config_yaml(str(tmp_path)))
        return dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, split_path=split_path))

    def test_split_missing_a_survey_rejected(self, tmp_path):
        table = uniform_table(np.random.default_rng(0), n=60)
        path = tmp_path / "split.csv"
        save_split(block_holdout(table, seed=1), str(path))
        header, *rows = path.read_text().splitlines()
        dropped = rows.pop(17).split(",")[0]
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DataError, match=rf"split\.csv.* 1 of the 60 .*'{dropped}'"):
            resolve_split(self.config(tmp_path, str(path)), table)

    @pytest.mark.parametrize("empty", ["train", "val"])
    def test_split_with_an_empty_partition_rejected(self, tmp_path, empty):
        """Every survey of the table in one partition; a survey beyond the
        table in the other does not count."""
        table = uniform_table(np.random.default_rng(0), n=60)
        full = "val" if empty == "train" else "train"
        path = tmp_path / "split.csv"
        path.write_text("surveyId,partition,cx,cy\n" + "".join(
            f"{sid},{full},0,0\n" for sid in table.survey_ids) + f"elsewhere,{empty},0,0\n")
        with pytest.raises(DataError, match=rf"split\.csv: partition '{empty}' holds none of "
                                            r"the 60 surveys in the observation table$"):
            resolve_split(self.config(tmp_path, str(path)), table)

    def test_configured_split_file_must_exist(self, tmp_path):
        table = uniform_table(np.random.default_rng(0), n=60)
        path = str(tmp_path / "no_such_split.csv")
        with pytest.raises(DataError, match=r"split_path: file not found: .*no_such_split\.csv"):
            resolve_split(self.config(tmp_path, path), table)

    def test_block_holdout_only_without_split_path(self, tmp_path):
        table = uniform_table(np.random.default_rng(0), n=60)
        cfg = self.config(tmp_path, None)
        split = resolve_split(cfg, table)
        assert split.assignment == block_holdout(table, seed=cfg.run.seed).assignment

    def test_split_may_list_surveys_beyond_the_table(self, tmp_path):
        table = uniform_table(np.random.default_rng(0), n=60)
        path = tmp_path / "split.csv"
        save_split(block_holdout(table, seed=1), str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("elsewhere,train,0,0\n")
        split = resolve_split(self.config(tmp_path, str(path)), table)
        assert len(split.assignment) == 61
