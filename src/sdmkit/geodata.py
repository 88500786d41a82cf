"""Geospatial data loading and sampling.

Observations are geolocated multilabel surveys; predictors come in two
flavors: georeferenced raster grids (patches are cut around each point,
transforming the point into each layer's CRS rather than warping the
raster) and per-survey time-series cubes (bands x steps x years blocks
pre-extracted at the observation locations).

File formats (all little-endian, sizes bit-exact):
  observations  CSV with header surveyId,lon,lat,speciesId, one row per
                (survey, species) pair
  raster        JSON header (width, height, origin_x, origin_y,
                pixel_size_x, pixel_size_y, crs, nodata, name) next to a
                .f32 file of float32 row-major values, north-up
  cubes         JSON manifest (surveys, shape [B,Q,Y], bands, payload)
                next to a float32 payload of one block per survey in
                manifest order
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoverageError,
    DataError,
    FormatError,
    MissingModalityError,
    OutOfExtentError,
    ProjectionDomainError,
    UnsupportedCrsError,
)

log = logging.getLogger(__name__)

_WEB_MERCATOR_R = 6378137.0
_WEB_MERCATOR_MAX_LAT = 85.06


def _wgs84_identity(lon, lat):
    return lon, lat


def _web_mercator(lon, lat):
    if abs(lat) >= _WEB_MERCATOR_MAX_LAT:
        raise ProjectionDomainError(
            f"latitude {lat} outside EPSG:3857 domain (|lat| < {_WEB_MERCATOR_MAX_LAT})"
        )
    lam = math.radians(lon)
    phi = math.radians(lat)
    x = _WEB_MERCATOR_R * lam
    # asinh(tan(phi)) == ln(tan(pi/4 + phi/2)) but exact at the equator
    y = _WEB_MERCATOR_R * math.asinh(math.tan(phi))
    return x, y


# CRS registry: identifier -> (lon, lat) -> (x, y) in CRS units.
# Extensible via register_crs; only point transforms, rasters are never warped.
_CRS_REGISTRY = {
    "EPSG:4326": _wgs84_identity,
    "EPSG:3857": _web_mercator,
}


def register_crs(identifier: str, transform) -> None:
    _CRS_REGISTRY[identifier] = transform


def transform_point(lon: float, lat: float, crs: str) -> tuple[float, float]:
    """Transform a WGS84 point into the target CRS."""
    try:
        fn = _CRS_REGISTRY[crs]
    except KeyError:
        raise UnsupportedCrsError(
            f"CRS {crs!r} not registered; available: {sorted(_CRS_REGISTRY)}"
        ) from None
    return fn(lon, lat)


@dataclass(frozen=True)
class ObservationRecord:
    survey_id: str
    lon: float
    lat: float
    species_ids: frozenset[int]


@dataclass(frozen=True)
class ObservationTable:
    records: tuple[ObservationRecord, ...]
    num_classes: int

    def __len__(self):
        return len(self.records)

    def survey_ids(self) -> list[str]:
        return [r.survey_id for r in self.records]

    def subset(self, survey_ids) -> "ObservationTable":
        wanted = set(survey_ids)
        return ObservationTable(
            records=tuple(r for r in self.records if r.survey_id in wanted),
            num_classes=self.num_classes,
        )


def load_observations(path: str, num_classes: int) -> ObservationTable:
    """Load an observation CSV, grouping species rows per survey."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"surveyId", "lon", "lat", "speciesId"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise FormatError(
                f"{path}: missing column(s) "
                f"{sorted(required - set(reader.fieldnames or []))}"
            )
        grouped: dict[str, dict] = {}
        for i, row in enumerate(reader, start=2):
            sid = row["surveyId"]
            lon, lat = float(row["lon"]), float(row["lat"])
            if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
                raise DataError(f"{path} row {i}: coordinate ({lon}, {lat}) out of range")
            species_field = row["speciesId"].strip()
            species = int(species_field) if species_field != "" else None
            if species is not None and not (0 <= species < num_classes):
                raise DataError(
                    f"{path} row {i}: speciesId {species} outside [0, {num_classes})"
                )
            entry = grouped.setdefault(sid, {"lon": lon, "lat": lat, "species": set()})
            if species is not None:
                entry["species"].add(species)
    records = tuple(
        ObservationRecord(sid, e["lon"], e["lat"], frozenset(e["species"]))
        for sid, e in grouped.items()
    )
    return ObservationTable(records=records, num_classes=num_classes)


def save_observations(table: ObservationTable, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["surveyId", "lon", "lat", "speciesId"])
        for rec in table.records:
            for sp in sorted(rec.species_ids):
                writer.writerow([rec.survey_id, repr(rec.lon), repr(rec.lat), sp])


@dataclass(frozen=True)
class RasterLayer:
    name: str
    width: int
    height: int
    origin_x: float  # top-left corner, CRS units
    origin_y: float
    pixel_size_x: float  # > 0
    pixel_size_y: float  # negative for north-up
    crs: str
    nodata: float
    values: np.ndarray  # (height, width) float32

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise FormatError(
                f"raster {self.name!r}: values shape {self.values.shape} != "
                f"({self.height}, {self.width})"
            )
        if self.pixel_size_x <= 0 or self.pixel_size_y == 0:
            raise FormatError(f"raster {self.name!r}: invalid pixel sizes")

    def missing(self, values: np.ndarray) -> np.ndarray:
        """True where values hold this layer's nodata value or NaN."""
        return (values == self.nodata) | np.isnan(values)

    def pixel_of(self, lon: float, lat: float) -> tuple[int, int]:
        """Map a WGS84 point to (row, col) in this layer's grid."""
        x, y = transform_point(lon, lat, self.crs)
        col = math.floor((x - self.origin_x) / self.pixel_size_x)
        row = math.floor((y - self.origin_y) / self.pixel_size_y)
        return row, col


def save_raster(layer: RasterLayer, header_path: str) -> None:
    payload_path = os.path.splitext(header_path)[0] + ".f32"
    header = {
        "name": layer.name,
        "width": layer.width,
        "height": layer.height,
        "origin_x": layer.origin_x,
        "origin_y": layer.origin_y,
        "pixel_size_x": layer.pixel_size_x,
        "pixel_size_y": layer.pixel_size_y,
        "crs": layer.crs,
        "nodata": layer.nodata,
        "payload": os.path.basename(payload_path),
    }
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
    layer.values.astype("<f4").tofile(payload_path)


def load_raster(header_path: str) -> RasterLayer:
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    payload_path = os.path.join(
        os.path.dirname(header_path),
        header.get("payload", os.path.splitext(os.path.basename(header_path))[0] + ".f32"),
    )
    values = np.fromfile(payload_path, dtype="<f4")
    expected = header["width"] * header["height"]
    if values.size != expected:
        raise FormatError(
            f"{payload_path}: {values.size} values, expected width*height={expected}"
        )
    return RasterLayer(
        name=header["name"],
        width=header["width"],
        height=header["height"],
        origin_x=header["origin_x"],
        origin_y=header["origin_y"],
        pixel_size_x=header["pixel_size_x"],
        pixel_size_y=header["pixel_size_y"],
        crs=header["crs"],
        nodata=header["nodata"],
        values=values.reshape(header["height"], header["width"]),
    )


def load_raster_manifest(manifest_path: str) -> list[RasterLayer]:
    """Load the layers listed in a raster manifest JSON ({"layers": [paths]})."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = os.path.dirname(manifest_path)
    return [load_raster(os.path.join(base, p)) for p in manifest["layers"]]


@dataclass(frozen=True)
class PatchSpec:
    side: int
    layer_names: tuple[str, ...]
    fill_value: float = 0.0
    normalize: dict[str, tuple[float, float]] | None = None  # name -> (mean, std)
    oob_policy: str = "fill"  # "fill" or "error"

    def __post_init__(self):
        if self.side < 1:
            raise DataError("patch side must be >= 1")
        if not self.layer_names:
            raise DataError("patch spec needs at least one layer")
        if self.normalize:
            for name, (_, std) in self.normalize.items():
                if std <= 0:
                    raise DataError(f"normalize std for {name!r} must be > 0")


def extract_patch(layers, spec: PatchSpec, lon: float, lat: float) -> np.ndarray:
    """Cut a (C, side, side) patch around a WGS84 point.

    The point is transformed into each layer's CRS and mapped to pixel
    indices by the floor convention; out-of-bounds, nodata and NaN pixels
    take fill_value; per-layer normalization is applied last.
    """
    by_name = {layer.name: layer for layer in layers}
    missing = [n for n in spec.layer_names if n not in by_name]
    if missing:
        raise MissingModalityError(f"patch layers not loaded: {missing}")
    side = spec.side
    half = side // 2
    out = np.empty((len(spec.layer_names), side, side), dtype=np.float64)
    any_overlap = False
    for ci, name in enumerate(spec.layer_names):
        layer = by_name[name]
        row, col = layer.pixel_of(lon, lat)
        r0, c0 = row - half, col - half
        patch = np.full((side, side), spec.fill_value, dtype=np.float64)
        rs, re = max(r0, 0), min(r0 + side, layer.height)
        cs, ce = max(c0, 0), min(c0 + side, layer.width)
        if rs < re and cs < ce:
            any_overlap = True
            block = layer.values[rs:re, cs:ce].astype(np.float64)
            block = np.where(layer.missing(block), spec.fill_value, block)
            patch[rs - r0 : re - r0, cs - c0 : ce - c0] = block
        if spec.normalize and name in spec.normalize:
            mean, std = spec.normalize[name]
            patch = (patch - mean) / std
        out[ci] = patch
    if not any_overlap:
        if spec.oob_policy == "error":
            raise OutOfExtentError(
                f"point ({lon}, {lat}) outside the extent of every patch layer"
            )
        log.warning("point (%s, %s) outside all patch layers; filled", lon, lat)
    return out


@dataclass(frozen=True)
class TimeSeriesCube:
    survey_id: str
    values: np.ndarray  # (B, Q, Y) float32, finite
    band_names: tuple[str, ...]

    def __post_init__(self):
        if self.values.ndim != 3 or self.values.shape[0] != len(self.band_names):
            raise FormatError(
                f"cube {self.survey_id!r}: shape {self.values.shape} inconsistent "
                f"with {len(self.band_names)} bands"
            )


def save_cubes(cubes: dict[str, np.ndarray], band_names, manifest_path: str) -> None:
    """Write cubes in manifest order; all blocks must share one (B,Q,Y) shape."""
    surveys = list(cubes)
    shapes = {tuple(v.shape) for v in cubes.values()}
    if len(shapes) != 1:
        raise FormatError(f"cube blocks disagree on shape: {sorted(shapes)}")
    shape = shapes.pop()
    payload_path = os.path.splitext(manifest_path)[0] + ".f32"
    manifest = {
        "surveys": surveys,
        "shape": list(shape),
        "bands": list(band_names),
        "payload": os.path.basename(payload_path),
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    payload = np.concatenate([cubes[s].astype("<f4").ravel() for s in surveys])
    payload.tofile(payload_path)


def load_cubes(manifest_path: str) -> dict[str, TimeSeriesCube]:
    """Load a cube manifest + payload into per-survey cubes.

    NaN payload entries are imputed to 0 with a logged count.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    surveys = manifest["surveys"]
    if len(set(surveys)) != len(surveys):
        raise FormatError(f"{manifest_path}: duplicate survey in manifest")
    b, q, y = manifest["shape"]
    bands = tuple(manifest["bands"])
    payload_path = os.path.join(
        os.path.dirname(manifest_path),
        manifest.get("payload", os.path.splitext(os.path.basename(manifest_path))[0] + ".f32"),
    )
    expected_bytes = len(surveys) * b * q * y * 4
    actual_bytes = os.path.getsize(payload_path)
    if actual_bytes != expected_bytes:
        raise FormatError(
            f"{payload_path}: payload is {actual_bytes} bytes, "
            f"expected {len(surveys)}*{b}*{q}*{y}*4 = {expected_bytes}"
        )
    data = np.fromfile(payload_path, dtype="<f4").reshape(len(surveys), b, q, y)
    nan_count = int(np.isnan(data).sum())
    if nan_count:
        log.warning("%s: imputed %d NaN cube entries to 0", manifest_path, nan_count)
        data = np.nan_to_num(data, nan=0.0)
    return {
        sid: TimeSeriesCube(survey_id=sid, values=data[i], band_names=bands)
        for i, sid in enumerate(surveys)
    }


@dataclass(frozen=True)
class TaggedLayer:
    """A raster layer tagged with its (band, step, year) cube coordinates."""

    layer: RasterLayer
    band: int
    step: int
    year: int


def build_time_series_cubes(
    tagged_layers: list[TaggedLayer],
    table: ObservationTable,
    shape: tuple[int, int, int],
    manifest_path: str,
    band_names=None,
) -> None:
    """Extract per-survey (B,Q,Y) cubes of single pixels and write them out."""
    b, q, y = shape
    by_tag = {(t.band, t.step, t.year): t.layer for t in tagged_layers}
    gaps = [
        (bi, qi, yi)
        for bi in range(b)
        for qi in range(q)
        for yi in range(y)
        if (bi, qi, yi) not in by_tag
    ]
    if gaps:
        raise CoverageError(f"missing (band, step, year) combinations: {gaps[:10]}")
    if band_names is None:
        band_names = [f"band{i}" for i in range(b)]
    cubes = {}
    for rec in table.records:
        cube = np.empty((b, q, y), dtype=np.float32)
        for (bi, qi, yi), layer in by_tag.items():
            spec = PatchSpec(side=1, layer_names=(layer.name,))
            cube[bi, qi, yi] = extract_patch([layer], spec, rec.lon, rec.lat)[0, 0, 0]
        cubes[rec.survey_id] = cube
    save_cubes(cubes, band_names, manifest_path)


@dataclass(frozen=True)
class MultiModalSample:
    survey_id: str
    patch: np.ndarray | None  # (C, side, side)
    cubes: dict[str, np.ndarray]  # modality name -> (B, Q, Y)
    coords: tuple[float, float]  # (lon, lat), for location encoders
    label: np.ndarray | None  # multi-hot (num_classes,), None in predict mode


@dataclass
class SampleSource:
    """Indexed, length-known source of aligned multimodal samples."""

    table: ObservationTable
    layers: list = field(default_factory=list)
    patch_spec: PatchSpec | None = None
    cube_maps: dict[str, dict[str, TimeSeriesCube]] = field(default_factory=dict)
    labels_mode: str = "train"  # "train" | "predict"

    def __post_init__(self):
        for modality, cube_map in self.cube_maps.items():
            for rec in self.table.records:
                if rec.survey_id not in cube_map:
                    raise MissingModalityError(
                        f"survey {rec.survey_id!r} missing from cube modality {modality!r}"
                    )
        if self.labels_mode == "train" and self.table.num_classes:
            for rec in self.table.records:
                if not rec.species_ids:
                    raise DataError(
                        f"survey {rec.survey_id!r} has an empty species set in train mode"
                    )

    def __len__(self):
        return len(self.table.records)

    def __getitem__(self, index: int) -> MultiModalSample:
        rec = self.table.records[index]
        patch = None
        if self.patch_spec is not None:
            patch = extract_patch(self.layers, self.patch_spec, rec.lon, rec.lat)
        cubes = {
            modality: cube_map[rec.survey_id].values.astype(np.float64)
            for modality, cube_map in self.cube_maps.items()
        }
        label = None
        if self.labels_mode == "train":
            label = np.zeros(self.table.num_classes, dtype=np.float64)
            label[sorted(rec.species_ids)] = 1.0
        return MultiModalSample(
            survey_id=rec.survey_id,
            patch=patch,
            cubes=cubes,
            coords=(rec.lon, rec.lat),
            label=label,
        )


def make_dataset(
    table: ObservationTable,
    layers=None,
    patch_spec: PatchSpec | None = None,
    cube_maps=None,
    labels_mode: str = "train",
) -> SampleSource:
    return SampleSource(
        table=table,
        layers=layers or [],
        patch_spec=patch_spec,
        cube_maps=cube_maps or {},
        labels_mode=labels_mode,
    )
