import csv
import dataclasses
import logging
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmkit import geodata
from sdmkit.config import parse_config
from sdmkit.errors import (
    DataError,
    FormatError,
    MissingModalityError,
    ProjectionDomainError,
    UnsupportedCrsError,
)
from sdmkit.geodata import (
    COMPUTE_DTYPE,
    FILL_VALUE,
    PatchSpec,
    RasterLayer,
    SampleSource,
    TaggedLayer,
    TimeSeriesCube,
    build_time_series_cubes,
    collate,
    extract_patch,
    extract_patches,
    load_cubes,
    load_observations,
    load_raster,
    multi_hot,
    normalize_layers,
    save_cubes,
    save_raster,
    transform_point,
)
from sdmkit.engine import load_predictions
from sdmkit.pipeline import load_data
from sdmkit.split import load_split
from sdmkit.synthetic import default_config_yaml, make_synthetic
from conftest import make_table


def write_obs(tmp_path, rows):
    path = tmp_path / "obs.csv"
    lines = ["surveyId,lon,lat,speciesId"] + rows
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadObservations:
    def test_grouping(self, tmp_path):
        path = write_obs(tmp_path, ["s1,3.0,43.0,5", "s1,3.0,43.0,7"])
        table = load_observations(path, num_classes=10)
        assert len(table) == 1
        assert table.records[0].species_ids == frozenset({5, 7})

    def test_out_of_range_lat(self, tmp_path):
        path = write_obs(tmp_path, ["s1,3.0,95.0,5"])
        with pytest.raises(DataError, match="row 2"):
            load_observations(path, num_classes=10)

    def test_unique_survey_count(self, tmp_path):
        path = write_obs(tmp_path, ["a,0,0,1", "a,0,0,2", "b,1,1,3", "c,2,2,4"])
        table = load_observations(path, num_classes=10)
        assert len(table) == 3

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
    else:
        assert a == b


class TestReadCsv:
    @pytest.mark.parametrize("reader", CSV_READERS)
    @pytest.mark.parametrize("case", ["non_numeric", "short_row", "extra_field",
                                      "missing_column"])
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
        else:
            for row in table:
                del row[at]
            expected = f"row 1: missing column(s) ['{column}']"
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
        is made to fail on row 3."""
        real_reader = csv.reader

        def failing_reader(fh):
            for i, fields in enumerate(real_reader(fh)):
                if i == 2:
                    raise csv.Error("injected parse error")
                yield fields

        monkeypatch.setattr(csv, "reader", failing_reader)
        path = write_obs(tmp_path, ["s1,3.0,43.0,5", "s2,1.0,1.0,2"])
        with pytest.raises(FormatError, match=r"obs\.csv row 3: injected parse error"):
            load_observations(path, num_classes=10)

    def test_field_longer_than_default_csv_limit(self, tmp_path):
        """Python's csv module stops at 131 072 characters a field by default."""
        path = write_obs(tmp_path, ["s1,3.0,43.0,5", "s2" + "0" * 200_000 + ",1.0,1.0,2"])
        assert load_observations(path, num_classes=10).survey_ids() == ["s1", "s2" + "0" * 200_000]

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes(b"surveyId,lon,lat,speciesId\ns\xe9,3.0,43.0,5\n")
        with pytest.raises(FormatError, match=r"obs\.csv: not UTF-8 text"):
            load_observations(str(path), num_classes=10)


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
    """extract_patch is extract_patches for one point, over layers prepared by
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
        np.testing.assert_array_equal(prepared[0].values, before)
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
        # a point outside every layer is filled and logged once; a point inside
        # only one of the two layers is not logged
        far = dataclasses.replace(toy_raster, name="far", origin_x=10.0)
        spec = PatchSpec(side=1, layer_names=("toy", "far"))
        lons, lats = [2.5, 50.0, 12.5, -20.0], [1.5, 1.5, 1.5, -20.0]
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            patches = extract_patches(normalize_layers([toy_raster, far], spec), spec, lons, lats)
        assert [r.getMessage() for r in caplog.records] == [
            "point (50.0, 1.5) outside all patch layers; filled",
            "point (-20.0, -20.0) outside all patch layers; filled",
        ]
        assert patches[:, :, 0, 0].tolist() == [[10.0, 0.0], [0.0, 0.0], [0.0, 10.0], [0.0, 0.0]]


class TestNormalizedLayers:
    """collate cuts patches from layers normalized once (normalize_layers);
    they equal the oracle's float64 patches of the raw layers cast to float32,
    bit for bit, and out-of-extent points are filled and logged."""

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
        source = self.source(layers, spec)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
            patches = collate(source, range(len(self.POINTS)))["patch"]
        assert caplog.messages == ["point (-20.0, -20.0) outside all patch layers; filled"]
        assert patches.dtype == np.float32
        assert patches.tobytes() == expected.tobytes()
        # the normalized layers hold no NaN or inf; the raw ones are left as they were
        assert all(np.isfinite(layer.values).all() for layer in source.layers)
        for layer, values in zip(layers, raw):
            assert layer.values.tobytes() == values.tobytes()
        # the edge point's patches are partly out of bounds, the outside point's wholly
        ones = [dataclasses.replace(layer, values=np.ones_like(layer.values))
                for layer in layers]
        plain = PatchSpec(5, spec.layer_names)
        inside = extract_patches(normalize_layers(ones, plain), plain, lons, lats) == 1
        assert inside[1, :2].any() and not inside[1, :2].all()
        assert not inside[-1].any() and inside[0].any()




class TestCubes:
    def test_save_load_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cubes = {"a": rng.normal(size=(2, 4, 3)).astype(np.float32),
                 "b": rng.normal(size=(2, 4, 3)).astype(np.float32)}
        path = str(tmp_path / "cubes.json")
        save_cubes(cubes, ["b0", "b1"], path)
        loaded = load_cubes(path)
        assert set(loaded) == {"a", "b"}
        for sid in cubes:
            np.testing.assert_array_equal(loaded[sid].values, cubes[sid])

    def test_payload_size_check(self, tmp_path):
        cubes = {"a": np.zeros((2, 4, 3), dtype=np.float32),
                 "b": np.zeros((2, 4, 3), dtype=np.float32)}
        path = str(tmp_path / "cubes.json")
        save_cubes(cubes, ["b0", "b1"], path)
        payload = tmp_path / "cubes.f32"
        payload.write_bytes(payload.read_bytes()[:-1])  # truncate to 191 bytes
        with pytest.raises(FormatError, match="truncat|bytes"):
            load_cubes(path)

    def test_expected_payload_bytes(self, tmp_path):
        cubes = {"a": np.zeros((2, 4, 3), dtype=np.float32),
                 "b": np.zeros((2, 4, 3), dtype=np.float32)}
        path = str(tmp_path / "cubes.json")
        save_cubes(cubes, ["b0", "b1"], path)
        assert (tmp_path / "cubes.f32").stat().st_size == 2 * 2 * 4 * 3 * 4

    def test_duplicate_survey_rejected(self, tmp_path):
        path = tmp_path / "cubes.json"
        path.write_text(
            '{"surveys": ["a", "a"], "shape": [1,1,1], "bands": ["b0"], "payload": "cubes.f32"}'
        )
        (tmp_path / "cubes.f32").write_bytes(b"\0" * 8)
        with pytest.raises(FormatError, match="duplicate"):
            load_cubes(str(path))

    def test_nan_imputed(self, tmp_path):
        cubes = {"a": np.full((1, 1, 1), np.nan, dtype=np.float32)}
        path = str(tmp_path / "cubes.json")
        save_cubes(cubes, ["b0"], path)
        loaded = load_cubes(path)
        assert loaded["a"].values[0, 0, 0] == 0.0


class TestBuildCubes:
    def test_single_extraction(self, toy_raster, tmp_path):
        table = make_table([(2.5, 1.5, {0})])
        tagged = [TaggedLayer(toy_raster, 0, 0, 0)]
        path = str(tmp_path / "c.json")
        build_time_series_cubes(tagged, table, (1, 1, 1), path)
        loaded = load_cubes(path)
        assert loaded["s0"].values[0, 0, 0] == 10.0

    def test_payload_size_arithmetic(self, toy_raster, tmp_path):
        table = make_table([(2.5, 1.5, {0}), (1.5, 2.5, {1})])
        tagged = [
            TaggedLayer(toy_raster, b, 0, y) for b in range(2) for y in range(2)
        ]
        path = str(tmp_path / "c.json")
        build_time_series_cubes(tagged, table, (2, 1, 2), path)
        assert (tmp_path / "c.f32").stat().st_size == 2 * 2 * 1 * 2 * 4

    def test_values_match_patch_extractor(self, tmp_path):
        rng = np.random.default_rng(5)
        layers = []
        tagged = []
        for b in range(2):
            for y in range(2):
                layer = RasterLayer(
                    name=f"l{b}{y}", width=6, height=6, origin_x=0, origin_y=6,
                    pixel_size_x=1, pixel_size_y=-1, crs="EPSG:4326", nodata=-9999.0,
                    values=rng.normal(size=(6, 6)).astype(np.float32),
                )
                layers.append(layer)
                tagged.append(TaggedLayer(layer, b, 0, y))
        table = make_table([(2.3, 3.7, {0}), (4.1, 1.2, {1})])
        path = str(tmp_path / "c.json")
        build_time_series_cubes(tagged, table, (2, 1, 2), path)
        loaded = load_cubes(path)
        for rec in table.records:
            for t in tagged:
                spec = PatchSpec(side=1, layer_names=(t.layer.name,))
                expected = oracle_patch([t.layer], spec, rec.lon, rec.lat)[0, 0, 0]
                assert loaded[rec.survey_id].values[t.band, t.step, t.year] == np.float32(expected)

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
            build_time_series_cubes([TaggedLayer(nodata, 0, 0, 0), TaggedLayer(nan, 1, 0, 0)],
                                    table, (2, 1, 1), path)
        assert caplog.messages == ["point (7.0, 2.0) outside all patch layers; filled"] * 2
        got = np.stack([c.values[:, 0, 0] for c in load_cubes(path).values()])
        expected = np.array([[0, -9999], [0, 0], [-0.0, -0.0], [0, 0], [10, 10], [0, 0]],
                            dtype=np.float32)
        assert got.tobytes() == expected.tobytes()

    def test_coverage_error(self, toy_raster):
        table = make_table([(2.5, 1.5, {0})])
        with pytest.raises(Exception, match="missing"):
            build_time_series_cubes([TaggedLayer(toy_raster, 0, 0, 0)], table,
                                    (2, 1, 1), "/tmp/never.json")


class TestMakeDataset:
    """A SampleSource over a table, a raster and a cube map, batched by collate."""

    def make_source(self, toy_raster, labels_mode="train"):
        table = make_table(
            [(0.5, 3.5, {0, 2}), (1.5, 2.5, {1}), (2.5, 1.5, {3}),
             (3.5, 0.5, {4}), (0.5, 0.5, {0})]
        )
        spec = PatchSpec(side=1, layer_names=("toy",))
        cube_map = {
            r.survey_id: TimeSeriesCube(
                r.survey_id, np.full((1, 2, 2), float(i), dtype=np.float32), ("b0",)
            )
            for i, r in enumerate(table.records)
        }
        return SampleSource(table, normalize_layers([toy_raster], spec), spec,
                            {"cube": cube_map}, labels_mode)

    def test_length(self, toy_raster):
        assert len(self.make_source(toy_raster)) == 5

    def test_deterministic_items(self, toy_raster):
        source = self.make_source(toy_raster)
        a, b = collate(source, [3]), collate(source, [3])
        np.testing.assert_array_equal(a["patch"], b["patch"])
        np.testing.assert_array_equal(a["labels"], b["labels"])

    def test_multi_hot_encoding(self, toy_raster):
        label = collate(self.make_source(toy_raster), [0])["labels"][0]
        assert label.sum() == 2
        assert label[0] == 1 and label[2] == 1

    def test_multi_hot_sum_property(self, toy_raster):
        source = self.make_source(toy_raster)
        labels = collate(source, range(len(source)))["labels"]
        for label, rec in zip(labels, source.table.records):
            assert label.sum() == len(rec.species_ids)
        np.testing.assert_array_equal(labels, multi_hot(source.table.records, 5))

    def test_missing_cube_survey(self, toy_raster):
        table = make_table([(0.5, 3.5, {0})])
        spec = PatchSpec(side=1, layer_names=("toy",))
        with pytest.raises(MissingModalityError, match="s0"):
            SampleSource(table, normalize_layers([toy_raster], spec), spec, {"cube": {}},
                         "train")


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
        recs = source.table.records
        patches = collate(source, range(len(recs)))["patch"]
        expected = oracle_patches(data.layers, data.patch_spec, [r.lon for r in recs],
                                  [r.lat for r in recs])
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
        recs = source.table.records
        patches = collate(source, range(len(recs)))["patch"]
        assert np.isfinite(patches).all()
        expected = oracle_patches(data.layers, data.patch_spec, [r.lon for r in recs],
                                  [r.lat for r in recs])
        assert patches.tobytes() == expected.tobytes()

    def test_no_valid_pixel_names_raster(self, synthetic):
        data_dir, cfg = synthetic
        self.replace_chan0(data_dir, np.full((128, 128), -9999.0))
        with pytest.raises(DataError, match="chan0"):
            load_data(cfg)
