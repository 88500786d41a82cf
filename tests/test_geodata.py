import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmkit.config import parse_config
from sdmkit.errors import (
    DataError,
    FormatError,
    MissingModalityError,
    OutOfExtentError,
    ProjectionDomainError,
    UnsupportedCrsError,
)
from sdmkit.geodata import (
    PatchSpec,
    RasterLayer,
    TaggedLayer,
    build_time_series_cubes,
    extract_patch,
    load_cubes,
    load_observations,
    load_raster,
    make_dataset,
    save_cubes,
    save_raster,
    transform_point,
)
from sdmkit.pipeline import load_data
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
    def test_side1_center(self, toy_raster):
        spec = PatchSpec(side=1, layer_names=("toy",))
        patch = extract_patch([toy_raster], spec, 2.5, 1.5)
        assert patch.shape == (1, 1, 1)
        assert patch[0, 0, 0] == 10.0

    def test_side3_window(self, toy_raster):
        spec = PatchSpec(side=3, layer_names=("toy",))
        patch = extract_patch([toy_raster], spec, 2.5, 1.5)
        expected = np.array([[5, 6, 7], [9, 10, 11], [13, 14, 15]], dtype=float)
        np.testing.assert_array_equal(patch[0], expected)

    def test_out_of_bounds_fill(self, toy_raster):
        spec = PatchSpec(side=1, layer_names=("toy",), fill_value=0.0)
        patch = extract_patch([toy_raster], spec, -0.5, 3.5)
        assert patch[0, 0, 0] == 0.0

    def test_out_of_extent_error_mode(self, toy_raster):
        spec = PatchSpec(side=1, layer_names=("toy",), oob_policy="error")
        with pytest.raises(OutOfExtentError):
            extract_patch([toy_raster], spec, 100.0, -60.0)

    def test_nodata_replaced(self, toy_raster):
        values = toy_raster.values.copy()
        values[2, 2] = toy_raster.nodata
        layer = RasterLayer(
            name="toy", width=4, height=4, origin_x=0, origin_y=4,
            pixel_size_x=1, pixel_size_y=-1, crs="EPSG:4326",
            nodata=toy_raster.nodata, values=values,
        )
        spec = PatchSpec(side=1, layer_names=("toy",), fill_value=-1.0)
        assert extract_patch([layer], spec, 2.5, 1.5)[0, 0, 0] == -1.0

    def test_nan_pixels_filled(self, toy_raster):
        # NaN never equals anything, so it must be masked on its own
        for nodata in (math.nan, -9999.0):
            values = toy_raster.values.copy()
            values[1:3, 1] = math.nan
            layer = RasterLayer(
                name="toy", width=4, height=4, origin_x=0, origin_y=4,
                pixel_size_x=1, pixel_size_y=-1, crs="EPSG:4326",
                nodata=nodata, values=values,
            )
            spec = PatchSpec(side=3, layer_names=("toy",), fill_value=-1.0)
            patch = extract_patch([layer], spec, 1.5, 2.5)[0]
            expected = np.array([[0, 1, 2], [4, -1, 6], [8, -1, 10]], dtype=float)
            np.testing.assert_array_equal(patch, expected)

    def test_normalization_applied_last(self, toy_raster):
        spec = PatchSpec(side=1, layer_names=("toy",), normalize={"toy": (10.0, 2.0)})
        assert extract_patch([toy_raster], spec, 2.5, 1.5)[0, 0, 0] == 0.0

    def test_extraction_is_pure(self, toy_raster):
        spec = PatchSpec(side=3, layer_names=("toy",))
        before = toy_raster.values.copy()
        a = extract_patch([toy_raster], spec, 2.5, 1.5)
        b = extract_patch([toy_raster], spec, 2.5, 1.5)
        np.testing.assert_array_equal(a, b)
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
            for _ in range(25):
                row = rng.integers(0, h)
                col = rng.integers(0, w)
                lon = layer.origin_x + (col + rng.uniform(0, 1)) * layer.pixel_size_x
                lat = layer.origin_y + (row + rng.uniform(0, 1)) * layer.pixel_size_y
                got = extract_patch([layer], spec, lon, lat)[0, 0, 0]
                assert got == float(layer.values[row, col])


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
                expected = extract_patch([t.layer], spec, rec.lon, rec.lat)[0, 0, 0]
                assert loaded[rec.survey_id].values[t.band, t.step, t.year] == np.float32(expected)

    def test_coverage_error(self, toy_raster):
        table = make_table([(2.5, 1.5, {0})])
        with pytest.raises(Exception, match="missing"):
            build_time_series_cubes([TaggedLayer(toy_raster, 0, 0, 0)], table,
                                    (2, 1, 1), "/tmp/never.json")


class TestMakeDataset:
    def make_source(self, toy_raster, labels_mode="train"):
        table = make_table(
            [(0.5, 3.5, {0, 2}), (1.5, 2.5, {1}), (2.5, 1.5, {3}),
             (3.5, 0.5, {4}), (0.5, 0.5, {0})]
        )
        spec = PatchSpec(side=1, layer_names=("toy",))
        cube_map = {
            r.survey_id: __import__("sdmkit.geodata", fromlist=["TimeSeriesCube"]).TimeSeriesCube(
                r.survey_id, np.full((1, 2, 2), float(i), dtype=np.float32), ("b0",)
            )
            for i, r in enumerate(table.records)
        }
        return make_dataset(table, layers=[toy_raster], patch_spec=spec,
                            cube_maps={"cube": cube_map}, labels_mode=labels_mode)

    def test_length(self, toy_raster):
        assert len(self.make_source(toy_raster)) == 5

    def test_deterministic_items(self, toy_raster):
        source = self.make_source(toy_raster)
        a, b = source[3], source[3]
        np.testing.assert_array_equal(a.patch, b.patch)
        np.testing.assert_array_equal(a.label, b.label)

    def test_multi_hot_encoding(self, toy_raster):
        source = self.make_source(toy_raster)
        sample = source[0]
        assert sample.label.sum() == 2
        assert sample.label[0] == 1 and sample.label[2] == 1

    def test_multi_hot_sum_property(self, toy_raster):
        source = self.make_source(toy_raster)
        for i in range(len(source)):
            sample = source[i]
            assert sample.label.sum() == len(source.table.records[i].species_ids)

    def test_missing_cube_survey(self, toy_raster):
        table = make_table([(0.5, 3.5, {0})])
        with pytest.raises(MissingModalityError, match="s0"):
            make_dataset(table, layers=[toy_raster],
                         patch_spec=PatchSpec(side=1, layer_names=("toy",)),
                         cube_maps={"cube": {}})


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

    def test_no_valid_pixel_names_raster(self, synthetic):
        data_dir, cfg = synthetic
        self.replace_chan0(data_dir, np.full((128, 128), -9999.0))
        with pytest.raises(DataError, match="chan0"):
            load_data(cfg)
