"""Geospatial data loading and sampling.

Observations are geolocated multilabel surveys; predictors come in two
flavors: georeferenced raster grids (patches are cut around each point,
transforming the point into each layer's CRS rather than warping the
raster) and per-survey time-series cubes (bands x steps x years blocks
pre-extracted at the observation locations).

Patches are cut a batch at a time from rasters normalized once by
normalize_layers: missing pixels (nodata, NaN or +-inf) take FILL_VALUE and
each layer is normalized into COMPUTE_DTYPE. extract_patches then transforms
each point once per distinct CRS; layers sharing a grid (CRS, origin, pixel
sizes, shape) share one flat window index and out-of-bounds mask, each layer is
gathered with one take, and out-of-bounds pixels take the channel's normalized
fill. A batch of training or prediction samples is built by collate; a single
sample is a batch of one. Time-series cubes are built the same way, from
side-1 patches.

File formats (all little-endian, sizes bit-exact):
  observations  CSV with header surveyId,lon,lat,speciesId, one row per
                (survey, species) pair; a survey's rows repeat its lon,lat
  raster        JSON header (width, height, origin_x, origin_y,
                pixel_size_x, pixel_size_y, crs, nodata, name) next to a
                .f32 file of float32 row-major values, north-up
  cubes         JSON manifest (surveys, shape [B,Q,Y], bands, payload)
                next to a float32 payload of one block per survey in
                manifest order
  split         CSV with header surveyId,partition,cx,cy, one row per survey
  predictions   CSV with header surveyId,topk,scores, one row per survey;
                topk holds k class ids in rank order, scores one value per
                class, both space-separated

The CSV tables follow one contract, that of read_csv: columns are found by
header name (extra columns are ignored), blank lines are skipped, every row
must hold as many fields as the header, a field may hold up to 2**31 - 1
characters (one scores field per survey, whatever the class count), and
parse_field turns a bad field into a FormatError naming the file, the row
(the header is row 1) and the column. Splits and predictions are read by
read_csv. Observations are read a block of lines at a time: each block's
fields are split at once, each distinct lon, lat and speciesId text is parsed
once and the checks run on arrays; a file with a quote, NUL or lone CR, or
one that fails any check, is read again row by row through read_csv, so
every error still names the file and the row.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    DataError,
    FormatError,
    MissingModalityError,
    ProjectionDomainError,
    UnsupportedCrsError,
)

log = logging.getLogger(__name__)

# dtype of the patch and cube arrays collate builds and of the model's params
# and grads (pipeline.build_model casts them); losses, scores and metrics stay float64
COMPUTE_DTYPE = np.float32
# value of missing and out-of-bounds pixels before normalization
FILL_VALUE = 0.0

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


# CRS identifier -> (lon, lat) -> (x, y) in CRS units; only point transforms,
# rasters are never warped.
_CRS_TRANSFORMS = {
    "EPSG:4326": _wgs84_identity,
    "EPSG:3857": _web_mercator,
}


def transform_point(lon: float, lat: float, crs: str) -> tuple[float, float]:
    """Transform a WGS84 point into the target CRS."""
    try:
        fn = _CRS_TRANSFORMS[crs]
    except KeyError:
        raise UnsupportedCrsError(
            f"CRS {crs!r} is not one of {sorted(_CRS_TRANSFORMS)}"
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


def read_csv(path: str, columns):
    """Stream (row number, fields of the named columns) over a CSV table's
    non-blank rows; the header is row 1."""
    # the default 131 072-character limit is one scores field of ~6 600 classes;
    # 2**31 - 1 fits a C long on every platform
    csv.field_size_limit(2**31 - 1)
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        row = 0  # rows read so far, the header included
        try:
            header = next(reader, [])
            row = 1
            missing = [c for c in columns if c not in header]
            if missing:
                raise FormatError(f"{path} row 1: missing column(s) {missing}")
            index = [header.index(c) for c in columns]
            for fields in reader:
                if not fields:
                    continue
                row += 1
                if len(fields) != len(header):
                    raise FormatError(f"{path} row {row}: {len(fields)} fields, "
                                      f"the header has {len(header)}")
                yield row, [fields[i] for i in index]
        except csv.Error as exc:
            raise FormatError(f"{path} row {row + 1}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded in blocks, so the row is not known
            raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


def parse_field(path: str, row: int, column: str, parse, text: str):
    """parse(text), with a ValueError or OverflowError raised as a FormatError
    naming the file, the row and the column."""
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path} row {row}, column {column}: {exc}") from None


def load_observations(path: str, num_classes: int) -> ObservationTable:
    """Load an observation CSV, grouping species rows per survey.

    Every row of a survey must repeat its coordinates; a conflicting row
    raises DataError. A file the block reader does not accept whole is read
    again by the row loop, which raises the error naming the file and row.
    """
    table = _load_observation_blocks(path, num_classes)
    return table if table is not None else _load_observation_rows(path, num_classes)


_OBSERVATION_COLUMNS = ("surveyId", "lon", "lat", "speciesId")
# characters of observation text split and checked at a time by _load_observation_blocks
_OBSERVATION_BLOCK_CHARS = 1 << 16


def _distinct_index(texts: list) -> tuple[list, np.ndarray]:
    """(the distinct texts in first-seen order, each text's index into them)."""
    position = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    return list(position), np.fromiter(map(position.__getitem__, texts), np.intp, len(texts))


def _load_observation_blocks(path: str, num_classes: int) -> ObservationTable | None:
    """The table of load_observations, read a block of lines at a time, or
    None when the file holds anything the row loop alone handles: a missing
    column, a quote, NUL or lone CR, text that is not UTF-8, a ragged row, a
    field that does not parse, a value out of range or a conflicting row.

    Without quotes or CRs a row's fields are its text split at commas, as
    csv.reader splits them. Each distinct lon, lat and speciesId text of a
    block is parsed once with float or int, as the row loop parses it.
    """
    codes: dict[str, int] = {}  # surveyId -> survey code, in first-seen order
    first_lon = first_lat = np.empty(0)  # by survey code: its first row's coordinates
    kept_codes, kept_species = [], []  # per block: survey code and species of each species row
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header = fh.readline().removesuffix("\n").removesuffix("\r")
            names = header.split(",")
            if any(c in header for c in '"\0\r') or not set(_OBSERVATION_COLUMNS) <= set(names):
                return None
            width = len(names)
            at_sid, at_lon, at_lat, at_species = map(names.index, _OBSERVATION_COLUMNS)
            while text := fh.read(_OBSERVATION_BLOCK_CHARS):
                text = (text + fh.readline()).replace("\r\n", "\n")  # up to a line's end
                if any(c in text for c in '"\0\r'):
                    return None
                while "\n\n" in text:
                    text = text.replace("\n\n", "\n")
                text = text.strip("\n")
                if not text:
                    continue
                raw = np.frombuffer(text.encode("utf-8"), np.uint8)
                seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
                rows = text.count("\n") + 1
                # width - 1 commas then a line break, on every row
                if (len(seps) != rows * width - 1
                        or not (raw[seps[width - 1::width]] == ord("\n")).all()):
                    return None
                fields = text.replace("\n", ",").split(",")

                sids = fields[at_sid::width]
                new = [sid for sid in dict.fromkeys(sids) if sid not in codes]
                codes.update(zip(new, range(len(codes), len(codes) + len(new))))
                code = np.fromiter(map(codes.__getitem__, sids), np.intp, rows)
                lon_texts, lon_at = _distinct_index(fields[at_lon::width])
                lat_texts, lat_at = _distinct_index(fields[at_lat::width])
                species_texts, species_at = _distinct_index(fields[at_species::width])
                blank = np.array([not t.strip() for t in species_texts])
                try:
                    lons = np.array(list(map(float, lon_texts)))
                    lats = np.array(list(map(float, lat_texts)))
                    species = np.array([int(t) if t.strip() else 0 for t in species_texts],
                                       dtype=np.int64)
                except (ValueError, OverflowError):
                    return None
                if (not ((-180.0 <= lons) & (lons <= 180.0)).all()
                        or not ((-90.0 <= lats) & (lats <= 90.0)).all()
                        or (~blank & ((species < 0) | (species >= num_classes))).any()):
                    return None

                lon, lat = lons[lon_at], lats[lat_at]
                if new:
                    first_new = np.unique(code, return_index=True)[1][-len(new):]
                    first_lon = np.concatenate([first_lon, lon[first_new]])
                    first_lat = np.concatenate([first_lat, lat[first_new]])
                if ((first_lon[code] != lon) | (first_lat[code] != lat)).any():
                    return None
                keep = ~blank[species_at]
                kept_codes.append(code[keep])
                kept_species.append(species[species_at][keep])
    except UnicodeDecodeError:
        return None

    code = np.concatenate([np.empty(0, np.intp), *kept_codes])
    species = np.concatenate([np.empty(0, np.int64), *kept_species])
    species = species[np.argsort(code, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(code, minlength=len(codes))).tolist()
    # frozenset(set) sizes its table to the set, which frozenset(list) overallocates
    records = tuple(
        ObservationRecord(sid, lon, lat, frozenset(set(species[start:end])))
        for sid, lon, lat, start, end in zip(codes, first_lon.tolist(), first_lat.tolist(),
                                             [0, *ends], ends)
    )
    return ObservationTable(records=records, num_classes=num_classes)


def _load_observation_rows(path: str, num_classes: int) -> ObservationTable:
    """load_observations by a loop over read_csv's rows: the reader of any
    file the block reader refuses, and of its errors."""
    grouped: dict[str, tuple] = {}  # surveyId -> (lon, lat, first row, species set)
    for i, (sid, lon, lat, species) in read_csv(path, _OBSERVATION_COLUMNS):
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
    records = tuple(
        ObservationRecord(sid, lon, lat, frozenset(species))
        for sid, (lon, lat, _, species) in grouped.items()
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
        """True where values hold this layer's nodata value or are not finite
        (NaN or +-inf)."""
        return (values == self.nodata) | ~np.isfinite(values)


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
    normalize: dict[str, tuple[float, float]] | None = None  # name -> (mean, std)

    def __post_init__(self):
        if self.side < 1:
            raise DataError("patch side must be >= 1")
        if not self.layer_names:
            raise DataError("patch spec needs at least one layer")
        if self.normalize:
            for name, (_, std) in self.normalize.items():
                if std <= 0:
                    raise DataError(f"normalize std for {name!r} must be > 0")


def _window_index(layer: RasterLayer, xs: np.ndarray, ys: np.ndarray, side: int):
    """Flat (N, side, side) pixel indices of the windows around points given in
    the layer's CRS, clipped into the grid, and the mask of out-of-bounds pixels."""
    half = side // 2
    offsets = np.arange(side) - half
    # clipping the centre keeps the int cast in range and leaves every window
    # that misses the grid still missing it
    col = np.clip(np.floor((xs - layer.origin_x) / layer.pixel_size_x), -side, layer.width + side)
    row = np.clip(np.floor((ys - layer.origin_y) / layer.pixel_size_y), -side, layer.height + side)
    cols = col.astype(np.intp)[:, None] + offsets
    rows = row.astype(np.intp)[:, None] + offsets
    outside = ((rows < 0) | (rows >= layer.height))[:, :, None] | (
        (cols < 0) | (cols >= layer.width))[:, None, :]
    flat = (np.clip(rows, 0, layer.height - 1)[:, :, None] * layer.width
            + np.clip(cols, 0, layer.width - 1)[:, None, :])
    return flat, outside


def extract_patches(layers, spec: PatchSpec, lons, lats) -> np.ndarray:
    """Cut (N, C, side, side) COMPUTE_DTYPE patches around N WGS84 points from
    layers prepared by normalize_layers(raw, spec).

    Each point is transformed into each layer's CRS and mapped to pixel
    indices by the floor convention; the windows are gathered as they are,
    and out-of-bounds pixels take the channel's normalized FILL_VALUE. A
    point that misses every layer is filled and logged once.
    """
    chosen = _chosen_layers(layers, spec)
    lons = np.asarray(lons, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    n, side = len(lons), spec.side
    points = {}  # crs -> (xs, ys)
    for crs in dict.fromkeys(layer.crs for layer in chosen):
        xy = [transform_point(lon, lat, crs) for lon, lat in zip(lons.tolist(), lats.tolist())]
        points[crs] = np.array(xy, dtype=np.float64).reshape(n, 2).T
    windows = {}  # grid -> (flat index, out-of-bounds mask)
    out = np.empty((n, len(chosen), side, side), dtype=COMPUTE_DTYPE)
    overlaps = np.zeros(n, dtype=bool)
    for ci, layer in enumerate(chosen):
        grid = (layer.crs, layer.origin_x, layer.origin_y, layer.pixel_size_x,
                layer.pixel_size_y, layer.width, layer.height)
        if grid not in windows:
            windows[grid] = _window_index(layer, *points[layer.crs], side)
            overlaps |= ~windows[grid][1].all(axis=(1, 2))
        flat, outside = windows[grid]
        out[:, ci] = layer.values.take(flat)
        mean, std = _layer_stats(spec, layer.name)
        np.copyto(out[:, ci], (FILL_VALUE - mean) / std, where=outside)
    for i in np.flatnonzero(~overlaps).tolist():
        log.warning("point (%s, %s) outside all patch layers; filled",
                    lons[i].item(), lats[i].item())
    return out


def _chosen_layers(layers, spec: PatchSpec) -> list[RasterLayer]:
    by_name = {layer.name: layer for layer in layers}
    missing = [n for n in spec.layer_names if n not in by_name]
    if missing:
        raise MissingModalityError(f"patch layers not loaded: {missing}")
    return [by_name[n] for n in spec.layer_names]


def _layer_stats(spec: PatchSpec, name: str) -> tuple[float, float]:
    return (spec.normalize or {}).get(name, (0.0, 1.0))


_NORMALIZE_BLOCK_PIXELS = 1 << 20


def normalize_layers(layers, spec: PatchSpec) -> list[RasterLayer]:
    """spec's layers with their values normalized once, for extract_patches:
    missing pixels take FILL_VALUE, then (v - mean) / std runs in float64 and
    is cast to COMPUTE_DTYPE. The float64 work runs a block of rows at a
    time, so no float64 copy of a whole layer is made. The results have no
    nodata value; the raw layers are left unchanged."""
    out = []
    for layer in _chosen_layers(layers, spec):
        mean, std = _layer_stats(spec, layer.name)
        values = np.empty(layer.values.shape, dtype=COMPUTE_DTYPE)
        rows = max(1, _NORMALIZE_BLOCK_PIXELS // max(1, layer.width))
        for start in range(0, layer.height, rows):
            raw = layer.values[start:start + rows]
            block = raw.astype(np.float64)
            block[layer.missing(raw)] = FILL_VALUE
            block -= mean
            block /= std
            values[start:start + rows] = block
        out.append(dataclasses.replace(layer, nodata=math.nan, values=values))
    return out


def extract_patch(layers, spec: PatchSpec, lon: float, lat: float) -> np.ndarray:
    """Cut a (C, side, side) patch around a WGS84 point from layers prepared by
    normalize_layers: extract_patches for one point."""
    return extract_patches(layers, spec, [lon], [lat])[0]


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
    """Extract per-survey (B,Q,Y) cubes of single pixels and write them out;
    missing and out-of-bounds pixels read FILL_VALUE."""
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
    lons = [rec.lon for rec in table.records]
    lats = [rec.lat for rec in table.records]
    values = np.empty((len(table.records), b, q, y), dtype=np.float32)
    for (bi, qi, yi), layer in by_tag.items():
        spec = PatchSpec(side=1, layer_names=(layer.name,))
        values[:, bi, qi, yi] = extract_patches(normalize_layers([layer], spec), spec,
                                                lons, lats)[:, 0, 0, 0]
    cubes = {rec.survey_id: values[i] for i, rec in enumerate(table.records)}
    save_cubes(cubes, band_names, manifest_path)


@dataclass
class SampleSource:
    """Aligned multimodal samples of an observation table, batched by collate.

    layers are normalize_layers(raw, patch_spec): collate only gathers them.
    """

    table: ObservationTable
    layers: list
    patch_spec: PatchSpec | None
    cube_maps: dict[str, dict[str, TimeSeriesCube]]
    labels_mode: str  # "train" | "predict"

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


def multi_hot(records, num_classes: int) -> np.ndarray:
    """(len(records), num_classes) float64 labels, 1.0 at each record's species."""
    labels = np.zeros((len(records), num_classes), dtype=np.float64)
    counts = [len(rec.species_ids) for rec in records]
    cols = np.fromiter((sp for rec in records for sp in rec.species_ids), np.intp, sum(counts))
    labels[np.repeat(np.arange(len(records)), counts), cols] = 1.0
    return labels


def collate(source: SampleSource, indices) -> dict:
    """Build the batch dict of the samples at indices: survey_ids, patch
    (B, C, side, side), one (B, *cube shape) array per cube modality, location
    (B, 2) as (lon, lat), and in train mode multi-hot labels (B, num_classes);
    patch and cubes are COMPUTE_DTYPE, location and labels float64."""
    records = [source.table.records[int(i)] for i in indices]
    batch: dict = {"survey_ids": [rec.survey_id for rec in records]}
    location = np.array([(rec.lon, rec.lat) for rec in records], dtype=np.float64)
    if source.patch_spec is not None:
        batch["patch"] = extract_patches(source.layers, source.patch_spec, location[:, 0],
                                         location[:, 1])
    for modality, cube_map in source.cube_maps.items():
        batch[modality] = np.stack([cube_map[rec.survey_id].values for rec in records],
                                   dtype=COMPUTE_DTYPE)
    batch["location"] = location
    if source.labels_mode == "train":
        batch["labels"] = multi_hot(records, source.table.num_classes)
    return batch

