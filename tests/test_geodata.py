import csv
import dataclasses
import logging
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmkit import geodata
from sdmkit.config import parse_config
from sdmkit.errors import (
    DataError,
    SdmkitError,
    FormatError,
    MissingModalityError,
    ProjectionDomainError,
    UnsupportedCrsError,
)
from sdmkit.geodata import (
    COMPUTE_DTYPE,
    FILL_VALUE,
    CubeStore,
    PatchSpec,
    RasterLayer,
    SampleSource,
    build_time_series_cubes,
    collate,
    extract_patch,
    extract_patches,
    load_cubes,
    load_observations,
    load_raster,
    load_raster_manifest,
    normalize_layers,
    save_cubes,
    save_raster,
    transform_point,
)
from sdmkit.engine import load_predictions
from sdmkit.pipeline import LoadedData, load_data
from sdmkit.split import load_split
from sdmkit.synthetic import default_config_yaml, make_synthetic
from conftest import (ID_SUFFIXES, failing_writes, make_table, quoted_if_needed, table_rows,
                      traced_peak)
from csv_oracles import per_row_load_observations


def cube_payload(manifest_path) -> str:
    """The path of the payload that a cube manifest names."""
    return os.path.join(os.path.dirname(manifest_path), geodata.read_json(
        str(manifest_path), dict, ("payload",))["payload"])


def write_obs(tmp_path, rows):
    path = tmp_path / "obs.csv"
    lines = ["surveyId,lon,lat,speciesId"] + rows
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadObservations:
    def test_grouping(self, tmp_path):
        path = write_obs(tmp_path, ["s1,3.0,43.0,5", "s1,3.0,43.0,7"])
        table = load_observations(path, num_classes=10)
        assert table_rows(table) == ([("s1", 3.0, 43.0, [5, 7])], 10)
        assert [(r.survey_id, r.lon, r.lat) for r in table.records] == [("s1", 3.0, 43.0)]

    def test_out_of_range_lat(self, tmp_path):
        path = write_obs(tmp_path, ["s1,3.0,95.0,5"])
        with pytest.raises(DataError, match="row 2"):
            load_observations(path, num_classes=10)

    def test_unique_survey_count(self, tmp_path):
        path = write_obs(tmp_path, ["a,0,0,1", "a,0,0,2", "b,1,1,3", "c,2,2,4"])
        table = load_observations(path, num_classes=10)
        assert len(table) == 3

    def test_retained_memory_per_pair(self, tmp_path):
        """What load_observations leaves allocated, the table it returns,
        grows by at most 16 bytes per added (survey, species) pair on labels
        shaped like perfbench's evaluate ones: 200 classes at 2-20% prevalence
        and a few surveys with a blank species only."""
        rng = np.random.default_rng(0)
        paths, pairs = [], []
        for n in (2_000, 8_000):
            labels = rng.random((n, 200)) < rng.uniform(0.02, 0.20, size=200)
            labels[rng.random(n) < 0.02] = False
            points = zip(rng.uniform(-10, 10, n).tolist(), rng.uniform(40, 50, n).tolist())
            paths.append(str(tmp_path / f"obs-{n}.csv"))
            with open(paths[-1], "w") as fh:
                fh.write("surveyId,lon,lat,speciesId\n")
                fh.writelines(f"e{i:05d},{lon!r},{lat!r},{sp}\n"
                              for i, ((lon, lat), row) in enumerate(zip(points, labels))
                              for sp in np.flatnonzero(row).tolist() or [""])
            pairs.append(int(labels.sum()))
        load_observations(paths[0], 200)  # the first load fills caches that later loads reuse
        retained = []
        for path, n in zip(paths, (2_000, 8_000)):
            table, _, kept = traced_peak(load_observations, path, 200)
            assert len(table) == n
            retained.append(kept)
            del table
        assert (retained[1] - retained[0]) / (pairs[1] - pairs[0]) <= 16, (retained, pairs)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("surveyId,lon,lat\ns1,0,0\n")
        with pytest.raises(FormatError, match="speciesId"):
            load_observations(str(path), num_classes=10)

    def test_species_out_of_range(self, tmp_path):
        path = write_obs(tmp_path, ["s1,0,0,12"])
        with pytest.raises(DataError):
            load_observations(path, num_classes=10)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = write_obs(tmp_path, ["s1,3.0,43.0,5", "s2,1.0,1.0,2", "s1,3.5,43.0,7"])
        with pytest.raises(DataError, match=r"obs\.csv row 4: survey 's1'.*row 2"):
            load_observations(path, num_classes=10)


# The three CSV readers: (loader, a valid table as header and two rows, a numeric column).
CSV_READERS = {
    "observations": (lambda path: load_observations(path, num_classes=10),
                     ["surveyId,lon,lat,speciesId", "s1,3.0,43.0,5", "s2,1.0,1.0,2"], "lat"),
    "split": (load_split, ["surveyId,partition,cx,cy", "s1,train,0,0", "s2,val,1,0"], "cy"),
    "predictions": (load_predictions,
                    ["surveyId,topk,scores", "s1,1 0,0.1 0.7 0.2", "s2,0 2,0.5 0.1 0.3"],
                    "scores"),
}


def assert_same_table(reader, a, b):
    if reader == "predictions":
        assert a.survey_ids == b.survey_ids
        assert np.array_equal(a.scores, b.scores) and np.array_equal(a.topk, b.topk)
    elif reader == "observations":
        assert table_rows(a) == table_rows(b)
    else:
        assert a == b


class TestReadCsv:
    @pytest.mark.parametrize("reader", CSV_READERS)
    @pytest.mark.parametrize("case", ["non_numeric", "short_row", "extra_field",
                                      "missing_column", "repeated_column"])
    def test_malformed_file_rejected(self, tmp_path, reader, case):
        load, lines, column = CSV_READERS[reader]
        table = [line.split(",") for line in lines]
        at, width = table[0].index(column), len(table[0])
        if case == "non_numeric":
            table[2][at] += "x"
            expected = f"row 3, column {column}: "
        elif case == "short_row":
            del table[2][-1]
            expected = f"row 3: {width - 1} fields, the header has {width}"
        elif case == "extra_field":
            table[2].append("9")
            expected = f"row 3: {width + 1} fields, the header has {width}"
        elif case == "missing_column":
            for row in table:
                del row[at]
            expected = f"row 1: missing column(s) ['{column}']"
        else:  # a second column of that name, whose values are never valid
            for row in table:
                row.append(column if row is table[0] else "99.0")
            expected = f"row 1: column(s) ['{column}'] named more than once"
        path = tmp_path / f"{reader}.csv"
        path.write_text("".join(",".join(row) + "\n" for row in table))
        with pytest.raises(FormatError) as err:
            load(str(path))
        assert str(err.value).startswith(f"{path} {expected}")

    @pytest.mark.parametrize("reader", CSV_READERS)
    def test_blank_lines_and_extra_columns_ignored(self, tmp_path, reader):
        load, lines, _ = CSV_READERS[reader]
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text("\n".join(lines) + "\n")
        header, first, second = lines
        padded.write_text(f"note,{header}\n\na,{first}\n\n\nb,{second}\n\n")
        assert_same_table(reader, load(str(plain)), load(str(padded)))

    @pytest.mark.parametrize("reader", CSV_READERS)
    @pytest.mark.parametrize("hazard", ["bom", "crlf", "padded_numbers"])
    def test_spreadsheet_export_conventions_load(self, tmp_path, reader, hazard):
        """A UTF-8 byte-order mark, CRLF line endings and numbers padded with
        spaces read as the plain file does."""
        load, lines, column = CSV_READERS[reader]
        plain, exported = tmp_path / "plain.csv", tmp_path / "exported.csv"
        plain.write_text("\n".join(lines) + "\n")
        if hazard == "bom":
            exported.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        elif hazard == "crlf":
            exported.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
        else:
            table = [line.split(",") for line in lines]
            at = table[0].index(column)
            for row in table[1:]:
                row[at] = f"  {row[at]} "
            exported.write_text("".join(",".join(row) + "\n" for row in table))
        assert_same_table(reader, load(str(plain)), load(str(exported)))

    def test_row_numbers_skip_blank_lines(self, tmp_path):
        path = write_obs(tmp_path, ["s1,3.0,43.0,5", "", "s2,1.0,abc,2"])
        with pytest.raises(FormatError, match=r"obs\.csv row 3, column lat: .*'abc'"):
            load_observations(path, num_classes=10)

    def test_csv_error_names_row(self, tmp_path, monkeypatch):
        """A csv.Error becomes a FormatError naming the row. With the field limit
        at 2**31 - 1 a real file needs a 2 GiB field to raise one, so the parser
        is made to fail on row 3. The quoted field sends the table past the
        block reader to csv.reader."""
        real_reader = csv.reader

        def failing_reader(fh):
            for i, fields in enumerate(real_reader(fh)):
                if i == 2:
                    raise csv.Error("injected parse error")
                yield fields

        monkeypatch.setattr(csv, "reader", failing_reader)
        path = write_obs(tmp_path, ['"s1",3.0,43.0,5', "s2,1.0,1.0,2"])
        with pytest.raises(FormatError, match=r"obs\.csv row 3: injected parse error"):
            load_observations(path, num_classes=10)

    def test_field_longer_than_default_csv_limit(self, tmp_path):
        """Python's csv module stops at 131 072 characters a field by default."""
        path = write_obs(tmp_path, ["s1,3.0,43.0,5", "s2" + "0" * 200_000 + ",1.0,1.0,2"])
        assert load_observations(path, num_classes=10).survey_ids == ["s1", "s2" + "0" * 200_000]

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes(b"surveyId,lon,lat,speciesId\ns\xe9,3.0,43.0,5\n")
        with pytest.raises(FormatError, match=r"obs\.csv row 2: not UTF-8 text$"):
            load_observations(str(path), num_classes=10)

    def test_rows_before_a_byte_not_utf8_checked_first(self, tmp_path):
        """A bad field in row 2 is named, though a byte that is not UTF-8
        follows in the same block of text."""
        path = tmp_path / "obs.csv"
        filler = [f"f{i:05d},1.25,43.5,1" for i in range(2000)]
        path.write_bytes("\n".join(["surveyId,lon,lat,speciesId", "s1,3.0,abc,5", *filler,
                                    ""]).encode() + b"s\xff,3.0,43.0,5\n")
        assert 30_000 < os.path.getsize(path) < geodata.TEXT_BLOCK
        with pytest.raises(FormatError, match=r"obs\.csv row 2, column lat: "):
            load_observations(str(path), num_classes=10)
        path.write_bytes(path.read_bytes().replace(b"abc", b"43.0"))
        with pytest.raises(FormatError, match=r"obs\.csv row 2003: not UTF-8 text$"):
            load_observations(str(path), num_classes=10)


def spellings(value: float) -> list[str]:
    """Texts Python's float reads as value: repr, padded, %.17g and, for a
    whole number, the integer and one-decimal forms."""
    texts = [repr(value), f" {value!r} ", f"{value:.17g}"]
    if value == int(value):
        texts += [str(int(value)), f"{int(value)}.0"]
    return texts


COORDINATES = st.sampled_from([0.0, -0.0, 3.0, -180.0, 90.0]) | st.floats(-90, 90)
# fields the block reader must refuse or read as the row loop does
ODD_FIELDS = st.sampled_from(["nan", "inf", "-inf", "1e400", "181", "-91", "abc", "", " ",
                              "1_0", "\u0663", "-1", "5.0", "99999999999999999999999", "0x10",
                              "\ufeff3", "a b", "s\u2028t", "s\x85t", "s\x0ct"])
HAZARDS = ["conflict", "repeat", "short", "long", "odd", "quote", "nul", "lone_cr", "not_utf8",
           "blank_lines", "blank_species", "minus_one_species", "literal_quote"]


@st.composite
def observation_files(draw):
    """(bytes of an observation CSV, num_classes): a valid table of up to 5
    surveys whose rows spell the same coordinates in several ways, survey ids
    that need quotes (a comma, LF, CRLF or lone CR inside), then up to three
    hazards; extra columns, any column order, a BOM and CRLF endings."""
    num_classes = draw(st.integers(1, 5))
    surveys = [(quoted_if_needed(f"s{i}" + draw(ID_SUFFIXES)), draw(COORDINATES),
                draw(COORDINATES)) for i in range(draw(st.integers(1, 5)))]
    rows = []  # [fields in header order, line end]; no fields is a run of blank lines
    for _ in range(draw(st.integers(0, 25))):
        sid, lon, lat = draw(st.sampled_from(surveys))
        rows.append([[sid, draw(st.sampled_from(spellings(lon))),
                      draw(st.sampled_from(spellings(lat))),
                      str(draw(st.integers(0, num_classes - 1)))], "\n"])
    for _ in range(draw(st.integers(0, 3))):
        hazard = draw(st.sampled_from(HAZARDS))
        at = draw(st.integers(0, len(rows)))
        if hazard == "conflict":
            sid, lon, lat = draw(st.sampled_from(surveys))
            rows.insert(at, [[sid, repr(lon), repr(draw(COORDINATES)), "0"], "\n"])
            continue
        if hazard == "blank_lines":
            rows.insert(at, [[], "\n" * draw(st.integers(1, 3))])
            continue
        filled = [row for row in rows if row[0]]
        if hazard == "literal_quote" and len(filled) > 1:
            # csv.reader keeps a quote inside an unquoted field as text, so a
            # quoted multi-line id on a later row still opens its own field
            early, late = sorted(draw(st.lists(st.integers(0, len(filled) - 1), min_size=2,
                                               max_size=2, unique=True)))
            filled[early][0][0] = filled[early][0][0][:1] + '"' + filled[early][0][0][1:]
            filled[late][0][0] = draw(st.sampled_from(['"m\nx"', '"m\r\nx"', '"m\rx"']))
            continue
        if not filled or hazard == "literal_quote":
            continue
        row = draw(st.sampled_from(filled))
        fields, col = row[0], draw(st.integers(0, len(row[0]) - 1))
        if hazard == "repeat":
            rows.insert(at, [list(fields), row[1]])
        elif hazard == "short":
            del fields[col]
        elif hazard == "long":
            fields.insert(col, "9")
        elif hazard == "odd":
            fields[col] = draw(ODD_FIELDS)
        elif hazard == "quote":  # csv.reader drops the quotes
            fields[col] = f'"{fields[col]}"'
        elif hazard == "nul":
            fields[col] += "\0"
        elif hazard == "lone_cr":
            row[1] = "\r"
        elif hazard == "not_utf8":  # encodes as the byte 0xff
            fields[col] += "\udcff"
        elif hazard == "blank_species":
            fields[-1] = draw(st.sampled_from(["", " ", "  "]))
        else:
            fields[-1] = "-1"
    extra = draw(st.lists(st.sampled_from(["note", "year", ""]), max_size=2))
    order = draw(st.permutations(range(4 + len(extra))))
    lines = []
    for fields, end in [[["surveyId", "lon", "lat", "speciesId"], "\n"], *rows]:
        cells = fields + (extra if not lines else ["x"] * len(extra)) if fields else []
        lines.append(",".join([cells[i] for i in order if i < len(cells)]
                              + cells[len(order):]) + end)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8", errors="surrogateescape")
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + data, num_classes


def load_outcome(load, path, num_classes):
    try:
        return table_rows(load(path, num_classes))
    except SdmkitError as exc:
        return type(exc), str(exc)


class TestObservationBlocks:
    """load_observations checks read_table's blocks as arrays and parses a
    block that fails a check row by row; at any block size it gives what the
    row loop over csv.reader gives."""

    @settings(max_examples=400, deadline=None)
    @given(file=observation_files(), block_chars=st.sampled_from([1, 12, 40, geodata.TEXT_BLOCK]))
    def test_equal_to_row_loop(self, file, block_chars):
        data, num_classes = file
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "obs.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            expected = load_outcome(per_row_load_observations, path, num_classes)
            with mock.patch.object(geodata, "TEXT_BLOCK", block_chars):
                assert load_outcome(load_observations, path, num_classes) == expected

    def test_export_conventions_read_in_blocks(self, tmp_path, monkeypatch):
        """A BOM, CRLF endings, blank lines, an extra column, padded numbers,
        one coordinate spelled 3 and 3.0, and blank species are split without
        csv.reader past the first block, blocks splitting a survey's rows."""
        path = tmp_path / "obs.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join([
            "note,surveyId,lon,lat,speciesId", "a,s1,3,43.5, 4 ", "", "b,s1,3.0,43.50,1",
            "c,s2, -0.25 ,1e1,", "", "", "d,s1,3,43.5,4", "e,s3,0,-0,  ", "f,s2,-0.25,10,2", "",
        ]).encode())
        expected = per_row_load_observations(str(path), 5)
        assert table_rows(expected) == ([("s1", 3.0, 43.5, [1, 4]), ("s2", -0.25, 10.0, [2]),
                                         ("s3", 0.0, -0.0, [])], 5)
        readers = []
        real_reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda lines: readers.append(1) or real_reader(lines))
        monkeypatch.setattr(geodata, "TEXT_BLOCK", 30)
        assert table_rows(load_observations(str(path), 5)) == table_rows(expected)
        assert len(readers) == 1  # the first block, which holds the header

    def test_each_file_opened_once(self, tmp_path, monkeypatch):
        """A quoted field or a conflict in the last row of a file of many
        blocks is read in the one pass; the conflict still names both rows."""
        filler = [f"f{i:05d},1.25,43.5,1" for i in range(8000)]
        quoted, conflict = tmp_path / "quoted.csv", tmp_path / "conflict.csv"
        quoted.write_text("\n".join(["surveyId,lon,lat,speciesId", *filler,
                                     '"s,1",3.0,43.0,2']) + "\n")
        conflict.write_text("\n".join(["surveyId,lon,lat,speciesId", "s1,3.0,43.0,2", *filler,
                                       "s1,3.5,43.0,4"]) + "\n")
        assert os.path.getsize(conflict) > 2 * geodata.TEXT_BLOCK
        opened = []
        real_open = open
        monkeypatch.setattr("builtins.open", lambda file, *args, **kwargs: (
            opened.append(str(file)) or real_open(file, *args, **kwargs)))
        assert load_observations(str(quoted), 5).survey_ids[-1] == "s,1"
        with pytest.raises(DataError, match=r"conflict\.csv row 8003: survey 's1' at \(3\.5, "
                                            r"43\.0\) conflicts with \(3\.0, 43\.0\) in row 2$"):
            load_observations(str(conflict), 5)
        assert opened == [str(quoted), str(conflict)]

    @pytest.mark.parametrize("rows, expected", [
        (["1,2,3", "4,5,6,7,8"], "row 2: 3 fields, the header has 4"),
        (["s1\rs2,3.0,43.0,5"], "row 2: 1 fields, the header has 4"),
        (['"s1,x",3.0,43.0,5', 's2,3.0,43.0,"5"'], None),
    ], ids=["short_then_long_row", "lone_cr_in_id", "quoted_comma"])
    def test_rows_csv_reader_sees(self, tmp_path, rows, expected):
        """Rows as csv.reader splits them: a short and a long row do not make
        two whole rows, a lone CR ends a row, and a quoted comma is text."""
        path = write_obs(tmp_path, rows)
        if expected is None:
            assert load_observations(path, 10).survey_ids == ["s1,x", "s2"]
        else:
            with pytest.raises(FormatError, match=f"obs\\.csv {expected}$"):
                load_observations(path, 10)

    def test_minus_one_species_is_not_blank(self, tmp_path):
        path = write_obs(tmp_path, ["s1,3.0,43.0,", "s1,3.0,43.0,-1"])
        with pytest.raises(DataError, match=r"obs\.csv row 3: speciesId -1 outside \[0, 10\)"):
            load_observations(path, num_classes=10)

    def test_conflict_in_later_block_rejected(self, tmp_path, monkeypatch):
        rows = ["s1,3.0,43.0,5"] + [f"f{i},1.0,1.0,2" for i in range(20)] + ["s1,3.0,43.25,7"]
        path = write_obs(tmp_path, rows)
        monkeypatch.setattr(geodata, "TEXT_BLOCK", 40)
        with pytest.raises(DataError, match=r"obs\.csv row 23: survey 's1' at \(3\.0, 43\.25\) "
                                            r"conflicts with \(3\.0, 43\.0\) in row 2"):
            load_observations(path, num_classes=10)


class TestTransformPoint:
    def test_mercator_origin(self):
        assert transform_point(0, 0, "EPSG:3857") == (0.0, 0.0)

    def test_mercator_antimeridian(self):
        x, y = transform_point(180, 0, "EPSG:3857")
        assert x == pytest.approx(20037508.342789244, abs=1e-6)
        assert y == 0.0

    def test_wgs84_identity(self):
        assert transform_point(3.05, 43.61, "EPSG:4326") == (3.05, 43.61)

    def test_unsupported_crs(self):
        with pytest.raises(UnsupportedCrsError):
            transform_point(0, 0, "EPSG:2154")

    def test_mercator_domain(self):
        with pytest.raises(ProjectionDomainError):
            transform_point(0, 86.0, "EPSG:3857")

    @given(
        lon=st.floats(-179, 179),
        lat=st.floats(-84, 84),
        dlon=st.floats(0.01, 1.0),
        dlat=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_mercator_strictly_monotone(self, lon, lat, dlon, dlat):
        x0, y0 = transform_point(lon, lat, "EPSG:3857")
        x1, _ = transform_point(min(lon + dlon, 180), lat, "EPSG:3857")
        _, y1 = transform_point(lon, min(lat + dlat, 85), "EPSG:3857")
        assert x1 > x0
        assert y1 > y0


class TestExtractPatch:
    """extract_patch is extract_patches for one point, over the grids of
    normalize_layers."""

    def test_side1_center(self, toy_raster):
        spec = PatchSpec(side=1, layer_names=("toy",))
        patch = extract_patch(normalize_layers([toy_raster], spec), spec, 2.5, 1.5)
        assert patch.shape == (1, 1, 1)
        assert patch[0, 0, 0] == 10.0

    def test_side3_window(self, toy_raster):
        spec = PatchSpec(side=3, layer_names=("toy",))
        patch = extract_patch(normalize_layers([toy_raster], spec), spec, 2.5, 1.5)
        expected = np.array([[5, 6, 7], [9, 10, 11], [13, 14, 15]], dtype=float)
        np.testing.assert_array_equal(patch[0], expected)

    def test_out_of_bounds_fill(self, toy_raster):
        spec = PatchSpec(side=1, layer_names=("toy",))
        patch = extract_patch(normalize_layers([toy_raster], spec), spec, -0.5, 3.5)
        assert patch[0, 0, 0] == FILL_VALUE == 0.0

    def test_nodata_replaced(self, toy_raster):
        values = toy_raster.values.copy()
        values[2, 2] = toy_raster.nodata
        layer = RasterLayer(
            name="toy", width=4, height=4, origin_x=0, origin_y=4,
            pixel_size_x=1, pixel_size_y=-1, crs="EPSG:4326",
            nodata=toy_raster.nodata, values=values,
        )
        spec = PatchSpec(side=1, layer_names=("toy",))
        assert extract_patch(normalize_layers([layer], spec), spec, 2.5, 1.5)[0, 0, 0] == 0.0

    def test_nan_pixels_filled(self, toy_raster):
        # NaN never equals anything, so it must be masked on its own; so must +-inf
        for nodata in (math.nan, -9999.0):
            values = toy_raster.values.copy()
            values[1:3, 1] = math.nan
            values[2, 0] = math.inf
            values[0, 2] = -math.inf
            layer = RasterLayer(
                name="toy", width=4, height=4, origin_x=0, origin_y=4,
                pixel_size_x=1, pixel_size_y=-1, crs="EPSG:4326",
                nodata=nodata, values=values,
            )
            spec = PatchSpec(side=3, layer_names=("toy",))
            patch = extract_patch(normalize_layers([layer], spec), spec, 1.5, 2.5)[0]
            expected = np.array([[0, 1, 0], [4, 0, 6], [0, 0, 10]], dtype=float)
            np.testing.assert_array_equal(patch, expected)

    def test_float32_nodata_not_exact_in_float64_filled(self, toy_raster):
        # -3.4e38 rounds to another value in float32; the pixel must still
        # count as nodata, as it does in the normalization statistics
        values = toy_raster.values.copy()
        values[2, 2] = -3.4e38
        layer = RasterLayer(
            name="toy", width=4, height=4, origin_x=0, origin_y=4,
            pixel_size_x=1, pixel_size_y=-1, crs="EPSG:4326",
            nodata=-3.4e38, values=values,
        )
        assert layer.missing(layer.values).sum() == 1
        spec = PatchSpec(side=1, layer_names=("toy",))
        assert extract_patch(normalize_layers([layer], spec), spec, 2.5, 1.5)[0, 0, 0] == 0.0

    def test_normalization_applied_last(self, toy_raster):
        # a missing pixel is filled first, so it reads the normalized fill
        values = toy_raster.values.copy()
        values[1, 3] = toy_raster.nodata
        layer = dataclasses.replace(toy_raster, values=values)
        spec = PatchSpec(side=1, layer_names=("toy",), normalize={"toy": (10.0, 2.0)})
        prepared = normalize_layers([layer], spec)
        assert extract_patch(prepared, spec, 2.5, 1.5)[0, 0, 0] == 0.0
        assert extract_patch(prepared, spec, 3.5, 2.5)[0, 0, 0] == -5.0

    def test_extraction_is_pure(self, toy_raster):
        spec = PatchSpec(side=3, layer_names=("toy",))
        before = toy_raster.values.copy()
        prepared = normalize_layers([toy_raster], spec)
        a = extract_patch(prepared, spec, 2.5, 1.5)
        b = extract_patch(prepared, spec, 2.5, 1.5)
        np.testing.assert_array_equal(a, b)
        # the grid's one column is the raw layer inside a frame of side fill pixels
        (grid,) = prepared
        assert grid.channels == (0,) and grid.stack.shape == (10 * 10, 1)
        framed = grid.stack.reshape(10, 10)
        np.testing.assert_array_equal(framed[3:-3, 3:-3], before)
        assert (framed[[0, 1, 2, -3, -2, -1]] == FILL_VALUE).all()
        assert (framed[:, [0, 1, 2, -3, -2, -1]] == FILL_VALUE).all()
        np.testing.assert_array_equal(toy_raster.values, before)

    def test_side1_equals_direct_indexing_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h, w = rng.integers(4, 20, size=2)
            layer = RasterLayer(
                name="r", width=int(w), height=int(h),
                origin_x=float(rng.uniform(-10, 10)), origin_y=float(rng.uniform(20, 40)),
                pixel_size_x=float(rng.uniform(0.1, 2)), pixel_size_y=-float(rng.uniform(0.1, 2)),
                crs="EPSG:4326", nodata=-9999.0,
                values=rng.normal(size=(int(h), int(w))).astype(np.float32),
            )
            spec = PatchSpec(side=1, layer_names=("r",))
            prepared = normalize_layers([layer], spec)
            for _ in range(25):
                row = rng.integers(0, h)
                col = rng.integers(0, w)
                lon = layer.origin_x + (col + rng.uniform(0, 1)) * layer.pixel_size_x
                lat = layer.origin_y + (row + rng.uniform(0, 1)) * layer.pixel_size_y
                got = extract_patch(prepared, spec, lon, lat)[0, 0, 0]
                assert got == float(layer.values[row, col])


def make_grid_layers(seed):
    """Layers a and b share an EPSG:4326 grid, c has its own EPSG:4326 grid and m
    sits on an EPSG:3857 grid with another origin and pixel size. About 10% of
    pixels are nodata, 10% NaN and 5% +-inf."""
    rng = np.random.default_rng(seed)

    def values(h, w, nodata):
        v = rng.normal(size=(h, w)).astype(np.float32)
        v[rng.random((h, w)) < 0.1] = nodata
        v[rng.random((h, w)) < 0.1] = math.nan
        v[rng.random((h, w)) < 0.025] = math.inf
        v[rng.random((h, w)) < 0.025] = -math.inf
        return v

    wgs = dict(width=10, height=8, origin_x=0.0, origin_y=10.0,
               pixel_size_x=0.5, pixel_size_y=-0.5, crs="EPSG:4326")
    merc = dict(width=9, height=7, origin_x=150_000.0, origin_y=1_050_000.0,
                pixel_size_x=40_000.0, pixel_size_y=-60_000.0, crs="EPSG:3857")
    return [
        RasterLayer(name="a", nodata=-9999.0, values=values(8, 10, -9999.0), **wgs),
        RasterLayer(name="b", nodata=math.nan, values=values(8, 10, math.nan), **wgs),
        RasterLayer(name="c", width=6, height=5, origin_x=1.3, origin_y=9.1, pixel_size_x=0.7,
                    pixel_size_y=-0.9, crs="EPSG:4326", nodata=-9999.0,
                    values=values(5, 6, -9999.0)),
        RasterLayer(name="m", nodata=-1.0, values=values(7, 9, -1.0), **merc),
    ]


def oracle_patch(layers, spec, lon, lat):
    """One point's float64 patch from the raw layers by direct indexing, pixel
    by pixel: missing and out-of-bounds pixels take FILL_VALUE, then the
    layer's stats, if any, normalize it."""
    by_name = {layer.name: layer for layer in layers}
    half = spec.side // 2
    out = np.empty((len(spec.layer_names), spec.side, spec.side))
    for ci, name in enumerate(spec.layer_names):
        layer = by_name[name]
        x, y = transform_point(lon, lat, layer.crs)
        col0 = math.floor((x - layer.origin_x) / layer.pixel_size_x) - half
        row0 = math.floor((y - layer.origin_y) / layer.pixel_size_y) - half
        for i in range(spec.side):
            for j in range(spec.side):
                r, c = row0 + i, col0 + j
                v = FILL_VALUE
                if 0 <= r < layer.height and 0 <= c < layer.width:
                    # nodata is matched in float32: -3.4e38 is not exact in it
                    pixel = layer.values[r, c]
                    if pixel != layer.nodata and np.isfinite(pixel):
                        v = float(pixel)
                if spec.normalize and name in spec.normalize:
                    mean, std = spec.normalize[name]
                    v = (v - mean) / std
                out[ci, i, j] = v
    return out


def oracle_patches(layers, spec, lons, lats):
    """oracle_patch for each point, stacked and cast to COMPUTE_DTYPE."""
    return np.stack([oracle_patch(layers, spec, lon, lat)
                     for lon, lat in zip(lons, lats)]).astype(COMPUTE_DTYPE)


class TestExtractPatches:
    NAMES = ["a", "b", "c", "m"]
    STATS = {"a": (0.25, 2.0), "b": (-1.0, 0.5), "c": (0.5, 3.0), "m": (3.0, 1.5)}

    # the grids cover about lon 0..5, lat 5.6..10; the drawn points fall inside,
    # across an edge, or wholly outside every layer
    @given(
        seed=st.integers(0, 2**16),
        names=st.permutations(NAMES).flatmap(
            lambda p: st.integers(1, len(p)).map(lambda k: tuple(p[:k]))),
        side=st.integers(1, 5),
        with_stats=st.sets(st.sampled_from(NAMES)),
        points=st.lists(st.tuples(st.floats(-4, 9), st.floats(2, 14)), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_indexing_oracle(self, seed, names, side, with_stats, points):
        layers = make_grid_layers(seed)
        spec = PatchSpec(side=side, layer_names=names,
                         normalize={n: self.STATS[n] for n in with_stats})
        lons, lats = zip(*points)
        got = extract_patches(normalize_layers(layers, spec), spec, lons, lats)
        assert got.shape == (len(points), len(names), side, side)
        assert got.dtype == COMPUTE_DTYPE
        assert got.tobytes() == oracle_patches(layers, spec, lons, lats).tobytes()

    def test_batch_out_of_extent_policy(self, toy_raster, caplog):
        # a point outside every layer is filled; extract_patches, which knows no
        # survey ids, logs nothing, and a source logs the surveys outside every
        # layer once, as a count and the first id; a point inside only one of
        # the two layers is not counted
        far = dataclasses.replace(toy_raster, name="far", origin_x=10.0)
        spec = PatchSpec(side=1, layer_names=("toy", "far"))
        points = [(2.5, 1.5), (50.0, 1.5), (12.5, 1.5), (-20.0, -20.0)]
        grids = normalize_layers([toy_raster, far], spec)
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            patches = extract_patches(grids, spec, *zip(*points))
        assert caplog.messages == []
        assert patches[:, :, 0, 0].tolist() == [[10.0, 0.0], [0.0, 0.0], [0.0, 10.0], [0.0, 0.0]]
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            source = SampleSource(make_table([(lon, lat, {0}) for lon, lat in points]), grids,
                                  spec, {}, "predict")
        assert caplog.messages == ["2 of 4 surveys outside all patch layers, first 's1'; filled"]
        assert collate(source, range(4))["patch"].tobytes() == patches.tobytes()


class TestNormalizedLayers:
    """collate cuts patches from layers normalized once (normalize_layers);
    they equal the oracle's float64 patches of the raw layers cast to float32,
    bit for bit, and out-of-extent points are filled and logged once, when
    the source is built."""

    STATS = {"a": (0.25, 2.0), "b": (-1.0, 0.5), "m": (3.0, 1.5), "f": (-0.5, 0.75)}
    # inside every EPSG:4326 grid, on the west edge of a and b (their origin),
    # on the south-east corner of c, and outside every layer
    POINTS = [(2.3, 8.1), (0.0, 9.2), (5.5, 4.6), (1.1, 6.7), (-20.0, -20.0)]

    def layers(self):
        layers = make_grid_layers(4)
        # -3.4e38 is not exact in float32, so its pixels hold float32(-3.4e38)
        values = layers[0].values.copy()
        values[::3, ::2] = -3.4e38
        return layers + [dataclasses.replace(layers[0], name="f", nodata=-3.4e38,
                                             values=values)]

    def spec(self):
        # c has no stats, so it is filled but not normalized
        return PatchSpec(side=5, layer_names=("a", "b", "c", "m", "f"), normalize=self.STATS)

    def source(self, layers, spec):
        table = make_table([(lon, lat, {0}) for lon, lat in self.POINTS])
        return SampleSource(table, normalize_layers(layers, spec), spec, {}, "predict")

    # normalize_layers works a block of rows at a time: whole layers, blocks of
    # 2 to 4 rows with a shorter last block, and single rows
    @pytest.mark.parametrize("block_pixels", [1 << 20, 25, 1])
    def test_collate_equals_cast_float64_patches(self, caplog, monkeypatch, block_pixels):
        monkeypatch.setattr(geodata, "_NORMALIZE_BLOCK_PIXELS", block_pixels)
        layers, spec = self.layers(), self.spec()
        assert (layers[-1].values == np.float32(-3.4e38)).sum() > 0
        raw = [layer.values.copy() for layer in layers]
        lons, lats = zip(*self.POINTS)
        expected = oracle_patches(layers, spec, lons, lats)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            source = self.source(layers, spec)
        assert caplog.messages == ["1 of 5 surveys outside all patch layers, first 's4'; filled"]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            patches = collate(source, range(len(self.POINTS)))["patch"]
        assert caplog.messages == []
        assert patches.dtype == np.float32
        assert patches.tobytes() == expected.tobytes()
        # the normalized grids hold no NaN or inf; the raw layers are left as they were
        assert all(np.isfinite(grid.stack).all() for grid in source.grids)
        for layer, values in zip(layers, raw):
            assert layer.values.tobytes() == values.tobytes()
        # the edge point's patches are partly out of bounds, the outside point's wholly
        ones = [dataclasses.replace(layer, values=np.ones_like(layer.values))
                for layer in layers]
        plain = PatchSpec(5, spec.layer_names)
        inside = extract_patches(normalize_layers(ones, plain), plain, lons, lats) == 1
        assert inside[1, :2].any() and not inside[1, :2].all()
        assert not inside[-1].any() and inside[0].any()




class TestPatchLayout:
    """A batch's patch is the (N, C, side, side) view of one channels-last
    buffer, gathered with one take of whole stack rows per grid."""

    class CountingTake(np.ndarray):
        calls: list = []

        def take(self, *args, **kwargs):
            type(self).calls.append(self.shape)
            return np.asarray(self).take(*args, **kwargs)

    # a and b share one grid, c has its own: (a, c, b) interleaves them
    @pytest.mark.parametrize("names, grids", [(("a", "c", "b"), 2), (("a", "b"), 1),
                                              (("c",), 1)])
    def test_one_take_per_grid_into_channels_last_patch(self, names, grids):
        layers = make_grid_layers(6)
        spec = PatchSpec(side=3, layer_names=names, normalize={"a": (0.25, 2.0), "c": (0.5, 3.0)})
        points = [(2.3, 8.1), (0.0, 9.2), (5.5, 4.6), (1.1, 6.7), (-20.0, -20.0), (3.9, 6.1)]
        prepared = [dataclasses.replace(grid, stack=grid.stack.view(self.CountingTake))
                    for grid in normalize_layers(layers, spec)]
        assert len(prepared) == grids
        source = SampleSource(make_table([(lon, lat, {0}) for lon, lat in points]), prepared,
                              spec, {}, "predict")
        self.CountingTake.calls.clear()
        patch = collate(source, np.array([5, 0, 2, 4]))["patch"]
        assert len(self.CountingTake.calls) == grids
        assert all(len(shape) == 2 for shape in self.CountingTake.calls)  # whole stacks only
        assert patch.shape == (4, len(names), 3, 3) and patch.strides[1] == patch.itemsize
        assert patch.base.shape == (4, 3, 3, len(names)) and patch.base.flags.c_contiguous
        lons, lats = zip(*(points[i] for i in (5, 0, 2, 4)))
        assert patch.tobytes() == oracle_patches(layers, spec, lons, lats).tobytes()
        for row, (lon, lat) in enumerate(zip(lons, lats)):
            assert patch[row].tobytes() == extract_patch(prepared, spec, lon, lat).tobytes()


def test_projection_domain_error_names_survey_when_source_is_built():
    # a survey at lat 86 has no EPSG:3857 point: building its source refuses it
    # by id, so no batch of a run is cut first; a source without it is built
    merc = make_grid_layers(0)[3]
    spec = PatchSpec(side=3, layer_names=("m",))
    data = LoadedData(make_table([(2.0, 8.0, {0}), (10.0, 86.0, {1})]), [merc], spec, {})
    with pytest.raises(ProjectionDomainError, match=re.escape(
            "survey 's1': latitude 86.0 outside EPSG:3857 domain")):
        data.source_for()
    assert len(data.source_for(["s0"])) == 1


class TestCubes:
    def test_save_load_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(2, 2, 4, 3)).astype(np.float32)
        path = str(tmp_path / "cubes.json")
        save_cubes(["a", "b"], values, ["b0", "b1"], path)
        loaded = load_cubes(path)
        assert loaded.survey_ids == ["a", "b"]
        assert loaded.values.dtype == np.float32 and loaded.values.shape == (2, 2, 4, 3)
        assert loaded.values.tobytes() == values.tobytes()

    def test_lookup_by_survey_id(self, tmp_path):
        """store[survey_id].values is that survey's row of the payload; the
        index behind it is built once, on the first call."""
        values = np.arange(3 * 2 * 1 * 2, dtype=np.float32).reshape(3, 2, 1, 2)
        path = str(tmp_path / "cubes.json")
        save_cubes(["c", "a", "b"], values, ["b0", "b1"], path)
        loaded = load_cubes(path)
        assert "_rows" not in vars(loaded)
        for i, sid in enumerate(["c", "a", "b"]):
            assert loaded[sid].values.tobytes() == values[i].tobytes()
        assert vars(loaded)["_rows"] is loaded._rows
        with pytest.raises(KeyError):
            loaded["d"]

    def test_retained_memory_per_survey(self, tmp_path):
        """What load_cubes leaves allocated, the store it returns, grows by at
        most 170 bytes per added survey of (2, 4, 3) cubes: their 96 bytes of
        float32 values, the survey id and its list slot, and no object per
        survey besides."""
        rng = np.random.default_rng(0)
        sizes, paths, retained = (1_000, 4_000), [], []
        for n in sizes:
            paths.append(str(tmp_path / f"cubes-{n}.json"))
            save_cubes([f"s{i:05d}" for i in range(n)],
                       rng.normal(size=(n, 2, 4, 3)).astype(np.float32), ["b0", "b1"], paths[-1])
        load_cubes(paths[0])  # the first load fills caches that later loads reuse
        for path, n in zip(paths, sizes):
            store, _, kept = traced_peak(load_cubes, path)
            assert store.values.shape == (n, 2, 4, 3)
            retained.append(kept)
            del store
        assert (retained[1] - retained[0]) / (sizes[1] - sizes[0]) <= 170, retained

    def test_payload_size_check(self, tmp_path):
        path = str(tmp_path / "cubes.json")
        save_cubes(["a", "b"], np.zeros((2, 2, 4, 3), dtype=np.float32), ["b0", "b1"], path)
        with open(cube_payload(path), "r+b") as payload:
            payload.truncate(191)
        with pytest.raises(FormatError, match="truncat|bytes"):
            load_cubes(path)

    def test_expected_payload_bytes(self, tmp_path):
        path = str(tmp_path / "cubes.json")
        save_cubes(["a", "b"], np.zeros((2, 2, 4, 3), dtype=np.float32), ["b0", "b1"], path)
        assert os.path.getsize(cube_payload(path)) == 2 * 2 * 4 * 3 * 4

    def test_duplicate_survey_rejected(self, tmp_path):
        path = tmp_path / "cubes.json"
        path.write_text(
            '{"surveys": ["a", "a"], "shape": [1,1,1], "bands": ["b0"], "payload": "cubes.f32"}'
        )
        (tmp_path / "cubes.f32").write_bytes(b"\0" * 8)
        with pytest.raises(FormatError, match="duplicate"):
            load_cubes(str(path))

    def test_nan_imputed(self, tmp_path, caplog):
        # every non-finite entry reads 0, also an inf next to a NaN; finite ones are kept
        for entries in ([math.nan], [math.inf], [-math.inf], [math.nan, math.inf, -math.inf, 1.5]):
            values = np.array(entries, dtype=np.float32).reshape(1, 1, 1, -1)
            path = str(tmp_path / "cubes.json")
            save_cubes(["a"], values, ["b0"], path)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
                loaded = load_cubes(path)
            expected = [0.0 if not math.isfinite(v) else v for v in entries]
            assert loaded.values.ravel().tolist() == expected, entries
            bad = sum(not math.isfinite(v) for v in entries)
            assert caplog.messages == [f"{path}: imputed {bad} non-finite cube entries to 0"]

    def test_rewrite_replaces_the_pair_whole(self, tmp_path, monkeypatch):
        """Two surveys rewritten in swapped order, with the first write of the
        payload, then of the manifest, failing: each time the previous
        manifest and payload load unchanged and no other file is left. The
        rewrite that completes leaves only the new manifest and its payload,
        the swapped array's float32 bytes."""
        values = np.arange(2 * 2 * 4 * 3, dtype=np.float32).reshape(2, 2, 4, 3)
        path = str(tmp_path / "cubes.json")
        save_cubes(["a", "b"], values, ["b0", "b1"], path)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        for failing in ("cubes.", "cubes.json"):  # the payload is written first
            with failing_writes(monkeypatch, failing, after=0), \
                    pytest.raises(OSError, match="disk full"):
                save_cubes(["b", "a"], values[::-1], ["b0", "b1"], path)
            assert {name: (tmp_path / name).read_bytes()
                    for name in os.listdir(tmp_path)} == before, failing
            loaded = load_cubes(path)
            assert loaded.survey_ids == ["a", "b"]
            assert loaded.values.tobytes() == values.tobytes()
        save_cubes(["b", "a"], values[::-1], ["b0", "b1"], path)
        assert len(os.listdir(tmp_path)) == 2
        assert open(path, "rb").read() != before["cubes.json"]
        with open(cube_payload(path), "rb") as fh:
            assert fh.read() == values[::-1].tobytes()
        loaded = load_cubes(path)
        assert loaded.survey_ids == ["b", "a"]
        assert loaded.values.tobytes() == values[::-1].tobytes()

    def test_band_count_must_match_shape(self, tmp_path):
        path = str(tmp_path / "cubes.json")
        save_cubes(["a"], np.zeros((1, 2, 1, 1), dtype=np.float32), ["b0"], path)
        with pytest.raises(FormatError, match="band"):
            load_cubes(path)


class TestBuildCubes:
    def test_single_extraction(self, toy_raster, tmp_path):
        table = make_table([(2.5, 1.5, {0})])
        path = str(tmp_path / "c.json")
        build_time_series_cubes({(0, 0, 0): toy_raster}, table, (1, 1, 1), path)
        loaded = load_cubes(path)
        assert loaded.survey_ids == ["s0"] and loaded.values[0, 0, 0, 0] == 10.0

    def test_payload_size_arithmetic(self, toy_raster, tmp_path):
        table = make_table([(2.5, 1.5, {0}), (1.5, 2.5, {1})])
        tagged = {(b, 0, y): toy_raster for b in range(2) for y in range(2)}
        path = str(tmp_path / "c.json")
        build_time_series_cubes(tagged, table, (2, 1, 2), path)
        assert os.path.getsize(cube_payload(path)) == 2 * 2 * 1 * 2 * 4

    def test_values_match_patch_extractor(self, tmp_path):
        rng = np.random.default_rng(5)
        tagged = {}
        for b in range(2):
            for y in range(2):
                layer = RasterLayer(
                    name=f"l{b}{y}", width=6, height=6, origin_x=0, origin_y=6,
                    pixel_size_x=1, pixel_size_y=-1, crs="EPSG:4326", nodata=-9999.0,
                    values=rng.normal(size=(6, 6)).astype(np.float32),
                )
                tagged[(b, 0, y)] = layer
        table = make_table([(2.3, 3.7, {0}), (4.1, 1.2, {1})])
        path = str(tmp_path / "c.json")
        build_time_series_cubes(tagged, table, (2, 1, 2), path)
        loaded = load_cubes(path)
        assert loaded.survey_ids == table.survey_ids
        for cube, lon, lat in zip(loaded.values, table.lon.tolist(), table.lat.tolist()):
            for (band, step, year), layer in tagged.items():
                spec = PatchSpec(side=1, layer_names=(layer.name,))
                expected = oracle_patch([layer], spec, lon, lat)[0, 0, 0]
                assert cube[band, step, year] == np.float32(expected)

    def test_missing_and_out_of_extent_pixels_read_zero(self, toy_raster, tmp_path, caplog):
        # nodata, NaN and inf pixels and points outside the layer read 0.0;
        # -0.0 and every other pixel are written as they are: -9999 is a value
        # of the layer whose nodata is NaN
        values = toy_raster.values.copy()
        values[0, 0], values[0, 1], values[0, 2], values[0, 3] = -9999.0, math.nan, -0.0, math.inf
        nodata = dataclasses.replace(toy_raster, name="nodata", values=values)
        nan = dataclasses.replace(toy_raster, name="nan", nodata=math.nan, values=values)
        points = [(0.5, 3.5), (1.5, 3.5), (2.5, 3.5), (3.5, 3.5), (2.5, 1.5), (7.0, 2.0)]
        table = make_table([(lon, lat, {0}) for lon, lat in points])
        path = str(tmp_path / "c.json")
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            build_time_series_cubes({(0, 0, 0): nodata, (1, 0, 0): nan}, table, (2, 1, 1), path)
        assert caplog.messages == [f"1 of 6 surveys outside layer {name!r}, first 's5'; filled"
                                   for name in ("nodata", "nan")]
        loaded = load_cubes(path)
        assert loaded.survey_ids == table.survey_ids
        got = loaded.values[:, :, 0, 0]
        expected = np.array([[0, -9999], [0, 0], [-0.0, -0.0], [0, 0], [10, 10], [0, 0]],
                            dtype=np.float32)
        assert got.tobytes() == expected.tobytes()

    def test_reads_raw_pixels_as_the_normalized_gather_did(self, tmp_path, monkeypatch, caplog):
        """Each survey's pixel is read from the raw layer: normalize_layers is
        never called, and the payload and the warnings are those of the side-1
        normalized gather it replaces, computed here, on layers with nodata,
        NaN, +-inf and -0.0 pixels, an EPSG:3857 grid and points outside."""
        layers = make_grid_layers(3)
        layers[0].values[2, 3] = -0.0  # the pixel of point (1.75, 8.75) in layer a
        tagged = {(i % 2, 0, i // 2): layer for i, layer in enumerate(layers)}
        g = np.random.default_rng(4)
        points = list(zip(g.uniform(-2, 7, 60), g.uniform(3, 12, 60))) + [(1.75, 8.75)]
        table = make_table([(float(lon), float(lat), {0}) for lon, lat in points])
        expected = np.empty((len(points), 2, 1, 2), dtype=np.float32)
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            for (band, step, year), layer in tagged.items():
                grids = normalize_layers([layer], PatchSpec(side=1, layer_names=(layer.name,)))
                starts = geodata._survey_windows(grids, 1, table, f"layer {layer.name!r}")
                expected[:, band, step, year] = geodata._gather(grids, 1, starts)[:, 0, 0, 0]
        expected_messages = list(caplog.messages)
        caplog.clear()
        assert len(expected_messages) == 4  # every layer misses some surveys
        assert np.signbit(expected[-1, 0, 0, 0]) and expected[-1, 0, 0, 0] == 0

        def not_called(*args, **kwargs):
            raise AssertionError("build_time_series_cubes normalized a whole layer")

        monkeypatch.setattr(geodata, "normalize_layers", not_called)
        path = str(tmp_path / "c.json")
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            build_time_series_cubes(tagged, table, (2, 1, 2), path)
        assert caplog.messages == expected_messages
        with open(cube_payload(path), "rb") as fh:
            assert fh.read() == expected.tobytes()
        far_north = make_table([(2.0, 8.0, {0}), (2.0, 86.0, {0})])
        with pytest.raises(ProjectionDomainError, match=re.escape(
                "survey 's1': latitude 86.0 outside EPSG:3857 domain")):
            build_time_series_cubes(tagged, far_north, (2, 1, 2), path)

    def test_coverage_error(self, toy_raster):
        table = make_table([(2.5, 1.5, {0})])
        with pytest.raises(Exception, match="missing"):
            build_time_series_cubes({(0, 0, 0): toy_raster}, table, (2, 1, 1),
                                    "/tmp/never.json")


class TestMakeDataset:
    """A SampleSource over a table, a raster and a cube store, batched by collate."""

    def make_source(self, toy_raster, labels_mode="train"):
        table = make_table(
            [(0.5, 3.5, {0, 2}), (1.5, 2.5, {1}), (2.5, 1.5, {3}),
             (3.5, 0.5, {4}), (0.5, 0.5, {0})]
        )
        spec = PatchSpec(side=1, layer_names=("toy",))
        # survey s<i> holds cube i, stored in reverse table order
        cubes = np.repeat(np.arange(5, dtype=np.float32)[::-1], 4).reshape(5, 1, 2, 2)
        store = CubeStore(table.survey_ids[::-1], cubes)
        return SampleSource(table, normalize_layers([toy_raster], spec), spec,
                            {"cube": store}, labels_mode)

    def test_length(self, toy_raster):
        assert len(self.make_source(toy_raster)) == 5

    def test_deterministic_items(self, toy_raster):
        source = self.make_source(toy_raster)
        a, b = collate(source, [3]), collate(source, [3])
        np.testing.assert_array_equal(a["patch"], b["patch"])
        np.testing.assert_array_equal(a["labels"], b["labels"])
        assert a["cube"].dtype == COMPUTE_DTYPE and a["cube"].tolist() == [[[[3.0, 3.0]] * 2]]

    def test_multi_hot_encoding(self, toy_raster):
        label = collate(self.make_source(toy_raster), [0])["labels"][0]
        assert label.sum() == 2
        assert label[0] == 1 and label[2] == 1

    def test_multi_hot_sum_property(self, toy_raster):
        source = self.make_source(toy_raster)
        labels = collate(source, range(len(source)))["labels"]
        rows, _ = table_rows(source.table)
        assert [np.flatnonzero(label).tolist() for label in labels] == [sp for *_, sp in rows]

    def test_missing_cube_survey(self, toy_raster):
        table = make_table([(0.5, 3.5, {0}), (1.5, 2.5, {1}), (2.5, 1.5, {3})])
        spec = PatchSpec(side=1, layer_names=("toy",))
        store = CubeStore(["s0", "x"], np.zeros((2, 1, 2, 2), dtype=np.float32))
        with pytest.raises(MissingModalityError,
                           match=re.escape("survey 's1' missing from cube modality 'cube'")):
            SampleSource(table, normalize_layers([toy_raster], spec), spec, {"cube": store},
                         "train")

    def test_cube_batch_equals_payload_rows(self, tmp_path):
        """At shuffled rows, repeats included, of a source over a table subset,
        collate's cube batch holds each survey's row of the payload file,
        found in the manifest's survey order, which is not the table's."""
        rng = np.random.default_rng(3)
        table = make_table([(float(i), 0.0, {i % 5}) for i in range(12)])
        order = rng.permutation(12).tolist()
        ids = [table.survey_ids[i] for i in order] + ["extra"]
        path = str(tmp_path / "cubes.json")
        save_cubes(ids, rng.normal(size=(13, 2, 3, 2)).astype(np.float32), ["b0", "b1"], path)
        payload = np.fromfile(cube_payload(path), dtype="<f4").reshape(13, 2, 3, 2)
        subset = table.subset(table.survey_ids[::2] + ["s1"])
        source = SampleSource(subset, [], None, {"cube": load_cubes(path)}, "train")
        rows = rng.permutation(np.r_[np.arange(len(subset)), [2, 2, 5]])
        batch = collate(source, rows)
        expected = np.stack([payload[ids.index(sid)] for sid in batch["survey_ids"]])
        assert batch["survey_ids"] == [subset.survey_ids[i] for i in rows]
        assert batch["cube"].dtype == COMPUTE_DTYPE
        assert batch["cube"].tobytes() == expected.tobytes()


class TestObservationTable:
    @settings(max_examples=200, deadline=None)
    @given(species=st.lists(st.sets(st.integers(0, 4), max_size=5), max_size=8), data=st.data())
    def test_subset_and_labels_follow_the_csr_rows(self, species, data):
        """labels(rows) is the dense multi-hot of the rows asked for, in their
        order and with repeats; subset keeps the rows of the ids asked for, in
        table order; a survey without species is an empty row in both."""
        table = make_table([(float(i), -float(i), sp) for i, sp in enumerate(species)])
        dense = np.zeros((len(species), 5), dtype=bool)
        for i, sp in enumerate(species):
            dense[i, list(sp)] = True
        rows = data.draw(st.lists(st.integers(0, len(species) - 1), max_size=10)) if species else []
        assert table.labels(rows).tolist() == dense[rows].tolist()
        assert table.labels(np.array(rows, dtype=np.intp)).tolist() == dense[rows].tolist()
        ids = data.draw(st.sets(st.sampled_from([f"s{i}" for i in range(len(species))] + ["x"])))
        everything, _ = table_rows(table)
        assert table_rows(table.subset(ids)) == (
            [row for row in everything if row[0] in ids], 5)


def test_raster_manifest_repeated_name_rejected(toy_raster, tmp_path):
    # patches pick layers by name, so a repeated name would give two channels one raster
    for header, offset in (("a.json", 0.0), ("b.json", 100.0)):
        save_raster(dataclasses.replace(toy_raster, values=toy_raster.values + offset),
                    str(tmp_path / header))
    manifest = tmp_path / "rasters.json"
    manifest.write_text('{"layers": ["a.json", "b.json"]}')
    message = f"{manifest}: more than one layer named 'toy'"
    with pytest.raises(FormatError, match=re.escape(message)):
        load_raster_manifest(str(manifest))


class TestNormalizationStats:
    """load_data derives each layer's (mean, std) from its valid pixels only."""

    @pytest.fixture
    def synthetic(self, tmp_path):
        data_dir = str(tmp_path)
        make_synthetic(data_dir, n_surveys=40, num_species=5, seed=1)
        return data_dir, parse_config(default_config_yaml(data_dir, n_species=5))

    def replace_chan0(self, data_dir, values):
        header = os.path.join(data_dir, "chan0.json")
        layer = load_raster(header)
        save_raster(dataclasses.replace(layer, values=values.astype(np.float32)), header)

    def test_nodata_and_nan_excluded(self, synthetic):
        data_dir, cfg = synthetic
        rng = np.random.default_rng(0)
        values = rng.normal(5.0, 1.0, size=(128, 128))
        values[:32] = -9999.0  # 25% nodata
        values[32, :8] = math.nan
        self.replace_chan0(data_dir, values)
        valid = values[32:].astype(np.float32)
        valid = valid[~np.isnan(valid)]
        mean, std = load_data(cfg).patch_spec.normalize["chan0"]
        assert mean == pytest.approx(5.0, abs=0.05)
        assert mean == pytest.approx(float(valid.mean()), rel=1e-6)
        assert std == pytest.approx(float(valid.std()), rel=1e-6)

    def test_sources_cut_from_normalized_rasters(self, synthetic):
        """load_data keeps the rasters as read and gives its sources the layers
        normalized once; their float32 patches are the oracle's cast ones."""
        data_dir, cfg = synthetic
        values = np.random.default_rng(3).normal(5.0, 1.0, size=(128, 128))
        values[:, :4] = -9999.0
        values[60:70, 60:70] = math.nan
        self.replace_chan0(data_dir, values)
        data = load_data(cfg)
        assert data.layers[0].values.tobytes() == values.astype(np.float32).tobytes()
        source = data.source_for(labels_mode="predict")
        table = source.table
        patches = collate(source, range(len(table)))["patch"]
        expected = oracle_patches(data.layers, data.patch_spec, table.lon.tolist(),
                                  table.lat.tolist())
        assert patches.tobytes() == expected.tobytes()

    def test_infinite_pixels_missing(self, synthetic):
        """+-inf pixels are left out of the stats and filled like NaN, so one
        of them leaves the patches finite."""
        data_dir, cfg = synthetic
        values = np.random.default_rng(4).normal(5.0, 1.0, size=(128, 128))
        values[3, 4] = math.inf
        values[70, 71] = -math.inf
        self.replace_chan0(data_dir, values)
        data = load_data(cfg)
        valid = values.astype(np.float32)[np.isfinite(values)]
        mean, std = data.patch_spec.normalize["chan0"]
        assert mean == pytest.approx(float(valid.mean()), rel=1e-6)
        assert std == pytest.approx(float(valid.std()), rel=1e-6)
        assert data.layers[0].missing(data.layers[0].values).sum() == 2
        source = data.source_for(labels_mode="predict")
        table = source.table
        patches = collate(source, range(len(table)))["patch"]
        assert np.isfinite(patches).all()
        expected = oracle_patches(data.layers, data.patch_spec, table.lon.tolist(),
                                  table.lat.tolist())
        assert patches.tobytes() == expected.tobytes()

    def test_no_valid_pixel_names_raster(self, synthetic):
        data_dir, cfg = synthetic
        self.replace_chan0(data_dir, np.full((128, 128), -9999.0))
        with pytest.raises(DataError, match="chan0"):
            load_data(cfg)
