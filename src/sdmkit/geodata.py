"""Geospatial data loading and sampling.

Observations are geolocated multilabel surveys, held as the columns of an
ObservationTable; predictors come in two flavors: georeferenced raster grids
(patches are cut around each point, transforming the point into each layer's
CRS rather than warping the raster) and time-series cubes (bands x steps x
years blocks pre-extracted at the observation locations), one CubeStore of
survey ids and an (N, B, Q, Y) array per modality.

Patches are cut from rasters normalized once by normalize_layers: missing
pixels (nodata, NaN or +-inf) take FILL_VALUE, each layer is normalized into
COMPUTE_DTYPE and framed by side pixels of its normalized fill, which costs
(H+2s)(W+2s) - HW pixels per layer, and the layers of each grid (CRS, origin,
pixel sizes, shape) become one PatchGrid, whose channels-last (H'W', C) stack
holds them as columns. A RasterLayer is only ever a raw raster.
patch_windows transforms each point once per grid into the first stack row
of its window in the frame. A SampleSource finds its surveys' windows and
cube rows once, when it is built, and logs the surveys outside every layer
once; collate then gathers each grid's window rows with one take, into an
(N, side, side, C) batch that it returns as an (N, C, side, side) view, and
each cube modality's rows with one take. A single sample is a batch of one.
build_time_series_cubes takes each survey's side-1 window the same way, but
reads its one pixel from the raw layer, with the values a normalized side-1
patch without stats would hold, and logs one warning per layer that misses
surveys; extract_patches, which knows no survey ids, logs nothing.

File formats (all little-endian, sizes bit-exact):
  observations  CSV with header surveyId,lon,lat,speciesId, one row per
                (survey, species) pair (a pair listed twice counts once);
                a survey's rows repeat its lon,lat
  raster        JSON header (width, height: positive integers; origin_x,
                origin_y, pixel_size_x, pixel_size_y, nodata: numbers; crs,
                name and the optional payload: strings) next to a .f32 file
                of float32 row-major values, north-up
  cubes         JSON manifest (surveys: distinct strings; shape [B,Q,Y];
                bands: B strings; the optional payload: a string) next to a
                float32 payload of one block per survey in manifest order;
                save_cubes names the payload by the digest of its bytes
  split         CSV with header surveyId,partition,cx,cy, one row per survey
  predictions   CSV with header surveyId,topk,scores, one row per survey;
                topk holds k class ids in rank order, scores one value per
                class (its repr), both space-separated; rows end in CRLF and
                a survey id is quoted as csv.writer's excel dialect quotes it

The CSV tables are read by read_table, in one pass over the file. Each
loader checks a block of rows at a time as arrays and parses a block that
fails a check again row by row, its one error path: its FormatError or
DataError names the file, the row (the header is row 1) and, through
parse_field, the column.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import math
import os
import re
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

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
# and grads (pipeline.build_model flattens them into buffers of it); losses,
# scores and metrics stay float64
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


ObservationRecord = namedtuple("ObservationRecord", "survey_id lon lat")


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """The surveys of an observation table as columns: row i is survey
    survey_ids[i] at (lon[i], lat[i]) (float64), and its distinct species,
    in ascending order, are indices[indptr[i]:indptr[i + 1]] (CSR rows)."""

    survey_ids: list[str]
    lon: np.ndarray
    lat: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    num_classes: int

    def __len__(self):
        return len(self.survey_ids)

    @property
    def records(self) -> tuple[ObservationRecord, ...]:
        """Each row's (survey_id, lon, lat), built on each access for perfbench."""
        return tuple(map(ObservationRecord, self.survey_ids, self.lon.tolist(), self.lat.tolist()))

    def subset(self, survey_ids) -> ObservationTable:
        """The rows whose id is one of survey_ids, in table order."""
        wanted = set(survey_ids)
        keep = np.array([sid in wanted for sid in self.survey_ids], dtype=bool)
        counts = np.diff(self.indptr)
        return ObservationTable([sid for sid in self.survey_ids if sid in wanted], self.lon[keep],
                                self.lat[keep], np.r_[0, np.cumsum(counts[keep])],
                                self.indices[np.repeat(keep, counts)], self.num_classes)

    def labels(self, rows) -> np.ndarray:
        """(len(rows), num_classes) bool labels of the surveys at rows, set with one scatter."""
        counts = self.indptr[1:][rows] - self.indptr[rows]
        at = np.repeat(self.indptr[rows] - np.cumsum(counts) + counts, counts)
        labels = np.zeros((len(rows), self.num_classes), dtype=bool)
        labels[np.repeat(np.arange(len(rows)), counts), self.indices[at + np.arange(len(at))]] = True
        return labels


# characters of CSV text that read_table reads at a time, up to a line's end
TEXT_BLOCK = 1 << 16


def read_table(path: str, columns):
    """Stream a CSV table in one pass, a block of about TEXT_BLOCK characters
    of whole lines at a time: (the block's first row number, one list of field
    texts per named column). Columns are found by header name, each named
    once (others are ignored); blank lines are skipped and not counted. A
    block without a quote, NUL, lone CR or non-UTF-8 byte, each of whose lines
    holds as many fields as the header, is split at commas and line ends; any
    other block, and the first, goes through csv.reader, which reads on past
    the block only to end a quoted field. A ragged row, a non-UTF-8 byte or a
    csv.Error is a FormatError naming its row, after the rows before it."""
    # the default 131 072-character limit is one scores field of ~6 600 classes;
    # 2**31 - 1 fits a C long on every platform
    csv.field_size_limit(2**31 - 1)
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        row, index, width = 0, None, 0  # rows read so far, the header included
        while text := fh.read(TEXT_BLOCK) + fh.readline():
            start, fault = row + 1, None
            plain = text.replace("\r\n", "\n")
            lines = list(filter(None, plain.split("\n")))
            if (index is not None and not any(c in plain for c in '"\0\r')
                    and not _undecoded(plain)
                    and not set(map(str.count, lines, itertools.repeat(","))) - {width - 1}):
                # without quotes or CRs csv.reader splits text at commas and line ends
                fields = ",".join(lines).split(",") if lines else []
                row += len(lines)
            else:
                fields, block = [], io.StringIO(text, newline="")
                try:
                    for cells in csv.reader(itertools.chain(block, iter(fh.readline, ""))):
                        if any(map(_undecoded, cells)):
                            fault = FormatError(f"{path} row {row + 1}: not UTF-8 text")
                            break
                        if index is None:  # the header
                            missing = [c for c in columns if c not in cells]
                            if missing:
                                raise FormatError(f"{path} row 1: missing column(s) {missing}")
                            repeated = [c for c in columns if cells.count(c) > 1]
                            if repeated:
                                raise FormatError(f"{path} row 1: column(s) {repeated} named "
                                                  "more than once")
                            index, width = [cells.index(c) for c in columns], len(cells)
                            row, start = 1, 2
                        elif cells and len(cells) != width:
                            fault = FormatError(f"{path} row {row + 1}: {len(cells)} fields, "
                                                f"the header has {width}")
                            break
                        elif cells:
                            fields += cells
                            row += 1
                        if block.tell() == len(text):
                            break
                except csv.Error as exc:
                    fault = FormatError(f"{path} row {row + 1}: {exc}")
            if fields:
                yield start, [fields[i::width] for i in index]
            if fault:
                raise fault
        if index is None:  # an empty file
            raise FormatError(f"{path} row 1: missing column(s) {list(columns)}")


def _undecoded(text: str) -> bool:
    """Whether text holds a byte that is not UTF-8, which the surrogateescape
    error handler read_table opens with decodes to one of U+DC80..U+DCFF."""
    return not text.isascii() and re.search("[\udc80-\udcff]", text) is not None


def parse_field(path: str, row: int, column: str, parse, text: str):
    """parse(text), with a ValueError or OverflowError raised as a FormatError
    naming the file, the row and the column."""
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path} row {row}, column {column}: {exc}") from None


def read_json(path: str, kind: type, keys=()):
    """The JSON document at path, which must be a kind (dict or list) holding
    each of keys; anything else raises a FormatError naming the file and the
    key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise FormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, kind):
        raise FormatError(f"{path}: expected a JSON {'mapping' if kind is dict else 'list'}, "
                          f"got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise FormatError(f"{path}: missing key {key!r}")
    return doc


@contextmanager
def replaced_on_success(path: str, mode: str, **kwargs):
    """Open a temporary file next to path and move it onto path only once the
    block completes, so a failed write leaves the previous file intact and no
    temporary file behind. Checkpoints, the predictions, split and observation
    tables, the evaluate report and the cube files are written through it."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_observations(path: str, num_classes: int) -> ObservationTable:
    """Load an observation CSV as an ObservationTable of its surveys in
    first-seen order, each with its distinct species: a (survey, species)
    pair listed twice counts once. Each block of read_table is checked as
    arrays, each distinct lon, lat and speciesId text parsed once; every row
    of a survey must repeat the coordinates of its first row. A block that
    fails a check goes to _raise_first_fault."""
    codes: dict[str, int] = {}  # surveyId -> survey code, in first-seen order
    # by survey code: its first row's (lon, lat) and row number
    first_xy, first_row = np.empty((0, 2)), np.empty(0, np.intp)
    kept = []  # per block: survey code * num_classes + species of each species row
    for start, columns in read_table(path, ("surveyId", "lon", "lat", "speciesId")):
        sids, lon_texts, lat_texts, species_texts = columns
        known = len(codes)
        codes.update(zip([s for s in dict.fromkeys(sids) if s not in codes], itertools.count(known)))
        code = np.fromiter(map(codes.__getitem__, sids), np.intp, len(sids))
        try:
            xy = _parsed(lon_texts + lat_texts, float).reshape(2, -1).T
            # NaN stands for a blank speciesId: a survey row without a species
            species = _parsed(species_texts, lambda t: int(t) if t.strip() else math.nan)
        except (ValueError, OverflowError):
            valid = False
        else:
            seen, first_at = np.unique(code, return_index=True)
            new_first = first_at[seen >= known]
            block_xy = np.concatenate([first_xy, xy[new_first]])
            blank = np.isnan(species)
            valid = ((np.abs(xy) <= (180.0, 90.0)).all() and (block_xy[code] == xy).all()
                     and (blank | (0 <= species) & (species < num_classes)).all())
        if not valid:
            grouped = dict(zip(codes, zip(*first_xy.T.tolist(), first_row.tolist())))
            _raise_first_fault(path, num_classes, start, columns, grouped)
        first_xy, first_row = block_xy, np.concatenate([first_row, start + new_first])
        kept.append(code[~blank] * num_classes + species[~blank].astype(np.int64))

    # one sort of the keys orders each survey's species and merges a pair listed twice
    keys = np.unique(np.concatenate([np.empty(0, np.int64), *kept]))
    indptr = np.searchsorted(keys, np.arange(len(codes) + 1) * num_classes)
    return ObservationTable(list(codes), *first_xy.T, indptr, keys % num_classes, num_classes)


def _parsed(texts: list, parse) -> np.ndarray:
    """The float64 array of parse(text) for each of texts, each distinct text parsed once."""
    values = {text: parse(text) for text in set(texts)}
    return np.fromiter(map(values.__getitem__, texts), np.float64, len(texts))


def _raise_first_fault(path: str, num_classes: int, start: int, columns, grouped) -> None:
    """Parse a block of observation rows numbered from start row by row, and
    raise the error of its first bad row. grouped maps the surveyId of each
    survey of the earlier blocks to (lon, lat, first row)."""
    for i, (sid, lon, lat, species) in enumerate(zip(*columns), start):
        lon, lat = parse_field(path, i, "lon", float, lon), parse_field(path, i, "lat", float, lat)
        if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
            raise DataError(f"{path} row {i}: coordinate ({lon}, {lat}) out of range")
        species = parse_field(path, i, "speciesId", int, species) if species.strip() else None
        if species is not None and not (0 <= species < num_classes):
            raise DataError(f"{path} row {i}: speciesId {species} outside [0, {num_classes})")
        first = grouped.setdefault(sid, (lon, lat, i))
        if first[0] != lon or first[1] != lat:
            raise DataError(f"{path} row {i}: survey {sid!r} at ({lon}, {lat}) conflicts with "
                            f"({first[0]}, {first[1]}) in row {first[2]}")
    raise AssertionError(f"{path}: no bad row in the block from row {start}")


def save_observations(survey_ids, lons, lats, labels, path: str) -> None:
    """Write one row per (survey, species) from N ids, N lons and lats and an
    (N, num_classes) boolean label matrix, species in ascending order; the
    file is replaced whole (replaced_on_success)."""
    with replaced_on_success(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["surveyId", "lon", "lat", "speciesId"])
        for sid, lon, lat, row in zip(survey_ids, np.asarray(lons).tolist(),
                                      np.asarray(lats).tolist(), labels):
            for sp in np.flatnonzero(row).tolist():
                writer.writerow([sid, repr(lon), repr(lat), sp])


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
            raise FormatError(f"raster {self.name!r}: values shape {self.values.shape} != "
                              f"({self.height}, {self.width})")
        if self.pixel_size_x <= 0 or self.pixel_size_y == 0:
            raise FormatError(f"raster {self.name!r}: invalid pixel sizes")

    def missing(self, values: np.ndarray) -> np.ndarray:
        """True where values hold this layer's nodata value or are not finite
        (NaN or +-inf)."""
        return (values == self.nodata) | ~np.isfinite(values)


def save_raster(layer: RasterLayer, header_path: str) -> None:
    payload_path = os.path.splitext(header_path)[0] + ".f32"
    header = {key: getattr(layer, key) for key in _RASTER_KEYS}
    header["payload"] = os.path.basename(payload_path)
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
    layer.values.astype("<f4").tofile(payload_path)


def _is_number(value) -> bool:
    return type(value) in (int, float)  # a bool is not a number here


# raster header key -> (test of its JSON value, what the value must be), in
# RasterLayer's field order; save_raster writes them in this order
_RASTER_KEYS = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "width": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "height": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "origin_x": (_is_number, "a number"),
    "origin_y": (_is_number, "a number"),
    "pixel_size_x": (_is_number, "a number"),
    "pixel_size_y": (_is_number, "a number"),
    "crs": (lambda v: isinstance(v, str), "a string"),
    "nodata": (_is_number, "a number"),
}


def _payload_path(path: str, doc: dict) -> str:
    """The payload file of the raster header or cube manifest doc read from
    path: its payload key (by default path's name with a .f32 suffix) taken
    relative to path's directory. A payload that is not a string is refused."""
    payload = doc.get("payload", os.path.splitext(os.path.basename(path))[0] + ".f32")
    if not isinstance(payload, str):
        raise FormatError(f"{path}: payload must be a string, got {payload!r}")
    return os.path.join(os.path.dirname(path), payload)


def _string_list(path: str, doc: dict, key: str, what: str) -> list[str]:
    """doc[key], which must be a list of strings; anything else raises a
    FormatError naming the file and the key."""
    value = doc[key]
    if not isinstance(value, list):
        raise FormatError(f"{path}: {key} must be {what}, got {value!r}")
    for item in value:
        if not isinstance(item, str):
            raise FormatError(f"{path}: {key} must be {what}, got an entry {item!r}")
    return value


def load_raster(header_path: str) -> RasterLayer:
    header = read_json(header_path, dict, _RASTER_KEYS)
    for key, (valid, what) in _RASTER_KEYS.items():
        if not valid(header[key]):
            raise FormatError(f"{header_path}: {key} must be {what}, got {header[key]!r}")
    payload_path = _payload_path(header_path, header)
    values = np.fromfile(payload_path, dtype="<f4")
    expected = header["width"] * header["height"]
    if values.size != expected:
        raise FormatError(
            f"{payload_path}: {values.size} values, expected width*height={expected}"
        )
    return RasterLayer(**{key: header[key] for key in _RASTER_KEYS},
                       values=values.reshape(header["height"], header["width"]))


def load_raster_manifest(manifest_path: str) -> list[RasterLayer]:
    """Load the layers listed in a raster manifest JSON ({"layers": [paths]});
    two layers with one name raise FormatError, since patches pick layers by
    name."""
    manifest = read_json(manifest_path, dict, ("layers",))
    paths = _string_list(manifest_path, manifest, "layers", "a list of header paths")
    layers = [load_raster(os.path.join(os.path.dirname(manifest_path), p)) for p in paths]
    seen = set()
    for layer in layers:
        if layer.name in seen:
            raise FormatError(f"{manifest_path}: more than one layer named {layer.name!r}")
        seen.add(layer.name)
    return layers


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


@dataclass(frozen=True)
class PatchGrid:
    """The layers of a PatchSpec that share one grid, normalized once by
    normalize_layers: stack is the ((height + 2 side) * (width + 2 side), C)
    channels-last COMPUTE_DTYPE array of their values framed by side pixels
    of fill, and channels are their C positions in the patch."""

    crs: str
    origin_x: float  # top-left corner of the unframed grid, CRS units
    origin_y: float
    pixel_size_x: float
    pixel_size_y: float
    width: int
    height: int
    stack: np.ndarray
    channels: tuple[int, ...]


def patch_windows(grids, side: int, lons, lats) -> tuple[list[np.ndarray], np.ndarray]:
    """Each grid's (N,) index of the first stack row of the side x side window
    around each of N WGS84 points, in grids built by normalize_layers with this
    side, and the mask of points whose window overlaps some grid. Only the
    grids' geometry is read (crs, origin, pixel sizes, width, height), so a
    RasterLayer serves as well, framed by side pixels. The start is
    clipped into the frame, so a window that misses the grid lies wholly in the
    fill and one that overlaps it starts strictly inside."""
    starts, overlaps = [], np.zeros(len(lons), dtype=bool)
    for grid in grids:
        xy = np.empty((len(lons), 2), dtype=np.float64)
        for i, point in enumerate(zip(lons, lats)):
            try:
                xy[i] = transform_point(*point, grid.crs)
            except ProjectionDomainError as exc:
                exc.point = i  # so that a caller can name the point
                raise
        x, y = xy.T
        # a window starts side // 2 pixels before its point's pixel; the frame adds side
        col = np.clip(np.floor((x - grid.origin_x) / grid.pixel_size_x) + side - side // 2,
                      0, grid.width + side).astype(np.intp)
        row = np.clip(np.floor((y - grid.origin_y) / grid.pixel_size_y) + side - side // 2,
                      0, grid.height + side).astype(np.intp)
        starts.append(row * (grid.width + 2 * side) + col)
        overlaps |= ((0 < row) & (row < grid.height + side)
                     & (0 < col) & (col < grid.width + side))
    return starts, overlaps


def _gather(grids, side: int, starts) -> np.ndarray:
    """(N, C, side, side) patches of the windows that begin at patch_windows'
    starts: one index add and one take of stack rows per grid, into an
    (N, side, side, C) channels-last array returned as its transposed view."""
    out = None
    for grid, start in zip(grids, starts):
        window = np.arange(side)[:, None] * (grid.width + 2 * side) + np.arange(side)
        taken = grid.stack.take(start[:, None, None] + window, axis=0)
        if len(grids) == 1:  # one grid holds every channel, in patch order
            return taken.transpose(0, 3, 1, 2)
        if out is None:
            channels = sum(len(g.channels) for g in grids)
            out = np.empty((len(start), side, side, channels), dtype=COMPUTE_DTYPE)
        out[..., grid.channels] = taken
    return out.transpose(0, 3, 1, 2)


def extract_patches(grids, spec: PatchSpec, lons, lats) -> np.ndarray:
    """Cut (N, C, side, side) COMPUTE_DTYPE patches around N WGS84 points from
    normalize_layers(raw, spec)'s grids; out-of-bounds pixels read the frame's
    fill."""
    return _gather(grids, spec.side, patch_windows(grids, spec.side, lons, lats)[0])


def _survey_windows(grids, side: int, table, outside_of: str) -> list[np.ndarray]:
    """patch_windows' starts for the table's points. A survey outside a grid's
    projection is refused by id, and the surveys whose windows miss every grid
    are logged once, as a count and the first id."""
    try:
        starts, overlaps = patch_windows(grids, side, table.lon.tolist(), table.lat.tolist())
    except ProjectionDomainError as exc:
        raise ProjectionDomainError(f"survey {table.survey_ids[exc.point]!r}: {exc}") from None
    outside = np.flatnonzero(~overlaps)
    if outside.size:
        log.warning("%d of %d surveys outside %s, first %r; filled", outside.size,
                    len(table), outside_of, table.survey_ids[outside[0]])
    return starts


_NORMALIZE_BLOCK_PIXELS = 1 << 20


def normalize_layers(layers, spec: PatchSpec) -> list[PatchGrid]:
    """One PatchGrid per grid (CRS, origin, pixel sizes, shape) of spec's
    layers, in order of first appearance: missing pixels take FILL_VALUE, then
    (v - mean) / std runs in float64 and is cast to COMPUTE_DTYPE, as does the
    fill of the spec.side-pixel frame. The float64 work runs a block of rows at
    a time, so no float64 copy of a whole layer is made; the raw layers are
    left unchanged."""
    by_name = {layer.name: layer for layer in layers}
    missing = [n for n in spec.layer_names if n not in by_name]
    if missing:
        raise MissingModalityError(f"patch layers not loaded: {missing}")
    chosen, pad = [by_name[n] for n in spec.layer_names], spec.side
    by_grid: dict[tuple, list[int]] = {}
    for i, layer in enumerate(chosen):
        by_grid.setdefault((layer.crs, layer.origin_x, layer.origin_y, layer.pixel_size_x,
                            layer.pixel_size_y, layer.width, layer.height), []).append(i)
    grids = []
    for key, channels in by_grid.items():
        height, width = chosen[channels[0]].height, chosen[channels[0]].width
        stats = [(spec.normalize or {}).get(chosen[i].name, (0.0, 1.0)) for i in channels]
        stack = np.empty(((height + 2 * pad) * (width + 2 * pad), len(channels)),
                         dtype=COMPUTE_DTYPE)
        stack[:] = [(FILL_VALUE - mean) / std for mean, std in stats]
        framed = stack.reshape(height + 2 * pad, width + 2 * pad, len(channels))
        rows = max(1, _NORMALIZE_BLOCK_PIXELS // max(1, width))
        for column, (i, (mean, std)) in enumerate(zip(channels, stats)):
            layer = chosen[i]
            inner = framed[pad:pad + height, pad:pad + width, column]
            for start in range(0, height, rows):
                raw = layer.values[start:start + rows]
                block = raw.astype(np.float64)
                block[layer.missing(raw)] = FILL_VALUE
                block -= mean
                block /= std
                inner[start:start + rows] = block
        grids.append(PatchGrid(*key, stack=stack, channels=tuple(channels)))
    return grids


def extract_patch(grids, spec: PatchSpec, lon: float, lat: float) -> np.ndarray:
    """Cut a (C, side, side) patch around a WGS84 point from normalize_layers'
    grids: extract_patches for one point."""
    return extract_patches(grids, spec, [lon], [lat])[0]


TimeSeriesCube = namedtuple("TimeSeriesCube", "values")  # one survey's (B, Q, Y) cube


@dataclass(frozen=True, eq=False)
class CubeStore:
    """One cube modality as columns: survey survey_ids[i] (distinct strings)
    has the cube values[i] of the (N, B, Q, Y) float32 payload, finite.
    store[survey_id], through an index built on its first call, is perfbench's."""

    survey_ids: list[str]
    values: np.ndarray

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {sid: i for i, sid in enumerate(self.survey_ids)}

    def __getitem__(self, survey_id: str) -> TimeSeriesCube:
        return TimeSeriesCube(self.values[self._rows[survey_id]])


def save_cubes(survey_ids, values: np.ndarray, band_names, manifest_path: str) -> None:
    """Write the (N, B, Q, Y) cube array of N surveys, in survey order, as a
    payload named <manifest name>.<digest of its bytes>.f32 and a manifest
    naming it, each replaced whole: the payload first, then the manifest,
    then the payload the previous manifest named in its directory is
    removed. So a manifest always names the payload written with it, and a
    failed write leaves the previous pair as it was, with no file of its
    own behind."""
    payload = np.ascontiguousarray(values, dtype="<f4")
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    name = f"{stem}.{hashlib.sha256(payload).hexdigest()[:16]}.f32"
    payload_path = os.path.abspath(os.path.join(os.path.dirname(manifest_path), name))
    previous = _previous_payload(manifest_path)
    manifest = {
        "surveys": list(survey_ids),
        "shape": list(values.shape[1:]),
        "bands": list(band_names),
        "payload": name,
    }
    with replaced_on_success(payload_path, "wb") as fh:
        fh.write(payload)
    try:
        with replaced_on_success(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, indent=2))
    except BaseException:
        if previous != payload_path:
            os.remove(payload_path)
        raise
    if previous not in (None, payload_path):
        os.remove(previous)


def _previous_payload(manifest_path: str) -> str | None:
    """The absolute path of the payload file that the cube manifest at
    manifest_path names, if it lies in the manifest's directory; None when
    there is no such file or no readable manifest."""
    try:
        previous = os.path.abspath(_payload_path(manifest_path, read_json(manifest_path, dict)))
    except (OSError, FormatError):
        return None
    same_dir = os.path.dirname(previous) == os.path.dirname(os.path.abspath(manifest_path))
    return previous if same_dir and os.path.isfile(previous) else None


def load_cubes(manifest_path: str) -> CubeStore:
    """Load a cube manifest + payload into one CubeStore.

    Non-finite payload entries (NaN, +-inf) are imputed to 0 with a logged
    count.
    """
    manifest = read_json(manifest_path, dict, ("surveys", "shape", "bands"))
    surveys = _string_list(manifest_path, manifest, "surveys", "a list of survey ids")
    counts = Counter(surveys)
    if len(counts) != len(surveys):
        repeat = next(sid for sid, n in counts.items() if n > 1)
        raise FormatError(f"{manifest_path}: surveys: duplicate survey {repeat!r}")
    shape = manifest["shape"]
    if (not isinstance(shape, list) or len(shape) != 3
            or not all(type(n) is int and n >= 0 for n in shape)):  # a bool is not a size
        raise FormatError(f"{manifest_path}: shape {shape!r} is not three non-negative integers")
    b, q, y = shape
    bands = _string_list(manifest_path, manifest, "bands", "a list of band names")
    if len(bands) != b:
        raise FormatError(f"{manifest_path}: bands: {len(bands)} band names for shape {shape}")
    payload_path = _payload_path(manifest_path, manifest)
    expected_bytes = len(surveys) * b * q * y * 4
    actual_bytes = os.path.getsize(payload_path)
    if actual_bytes != expected_bytes:
        raise FormatError(
            f"{payload_path}: payload is {actual_bytes} bytes, "
            f"expected {len(surveys)}*{b}*{q}*{y}*4 = {expected_bytes}"
        )
    data = np.fromfile(payload_path, dtype="<f4").reshape(len(surveys), b, q, y)
    nonfinite = ~np.isfinite(data)
    if nonfinite.any():
        log.warning("%s: imputed %d non-finite cube entries to 0", manifest_path,
                    int(nonfinite.sum()))
        data[nonfinite] = 0.0
    return CubeStore(surveys, data)


def build_time_series_cubes(
    layers: dict[tuple[int, int, int], RasterLayer],
    table: ObservationTable,
    shape: tuple[int, int, int],
    manifest_path: str,
) -> None:
    """Extract per-survey (B,Q,Y) cubes of single pixels, one from the raster
    that layers maps each (band, step, year) to, and write them out with
    band names band0, band1, ...; missing and out-of-bounds pixels read
    FILL_VALUE, and each layer that misses surveys is logged once. Each
    survey's pixel is read from the raw layer, so the cost grows with the
    surveys, not with the raster area; the values are those of a side-1
    patch of normalize_layers(...) without stats."""
    b, q, y = shape
    gaps = [tag for tag in itertools.product(range(b), range(q), range(y)) if tag not in layers]
    if gaps:
        raise CoverageError(f"missing (band, step, year) combinations: {gaps[:10]}")
    values = np.empty((len(table), b, q, y), dtype=np.float32)
    for (bi, qi, yi), layer in layers.items():
        # patch_windows reads only a grid's geometry, which a RasterLayer has too
        start = _survey_windows([layer], 1, table, f"layer {layer.name!r}")[0]
        row, col = np.divmod(start, layer.width + 2)  # in a frame of one pixel
        inside = (0 < row) & (row <= layer.height) & (0 < col) & (col <= layer.width)
        pixels = layer.values[row[inside] - 1, col[inside] - 1]
        values[:, bi, qi, yi] = FILL_VALUE
        values[inside, bi, qi, yi] = np.where(layer.missing(pixels), FILL_VALUE, pixels)
    save_cubes(table.survey_ids, values, [f"band{i}" for i in range(b)], manifest_path)


@dataclass
class SampleSource:
    """Aligned multimodal samples of an observation table, batched by collate.

    grids are normalize_layers(raw, patch_spec). Building the source finds the
    windows (patch_windows) and cube rows and logs the surveys outside every layer, once.
    """

    table: ObservationTable
    grids: list[PatchGrid]
    patch_spec: PatchSpec | None
    cubes: dict[str, CubeStore]
    labels_mode: str  # "train" | "predict"

    def __post_init__(self):
        self.cube_rows = {}  # per cube modality: each survey's row in its store
        for modality, store in self.cubes.items():
            row_of = {sid: i for i, sid in enumerate(store.survey_ids)}
            try:
                rows = [row_of[sid] for sid in self.table.survey_ids]
            except KeyError as missing:
                raise MissingModalityError(f"survey {missing.args[0]!r} missing from cube "
                                           f"modality {modality!r}") from None
            self.cube_rows[modality] = np.array(rows, dtype=np.intp)
        if self.labels_mode == "train" and self.table.num_classes:
            empty = np.flatnonzero(np.diff(self.table.indptr) == 0)
            if empty.size:
                raise DataError(f"survey {self.table.survey_ids[empty[0]]!r} has an empty "
                                "species set in train mode")
        self.starts = []  # per grid: each survey's window start (patch_windows)
        if self.patch_spec is not None:
            self.starts = _survey_windows(self.grids, self.patch_spec.side, self.table,
                                          "all patch layers")

    def __len__(self):
        return len(self.table)


def collate(source: SampleSource, indices) -> dict:
    """Build the batch dict of the samples at indices: survey_ids, patch
    (B, C, side, side) (a view of a channels-last (B, side, side, C) array, one
    take per grid), one (B, *cube shape) array per cube modality, location
    (B, 2) as (lon, lat), and in train mode multi-hot labels (B, num_classes);
    patch and cubes are COMPUTE_DTYPE, location float64 and labels bool."""
    table, rows = source.table, np.asarray(indices, dtype=np.intp)
    batch: dict = {"survey_ids": [table.survey_ids[i] for i in rows.tolist()]}
    if source.patch_spec is not None:
        batch["patch"] = _gather(source.grids, source.patch_spec.side,
                                 [start[rows] for start in source.starts])
    for modality, store in source.cubes.items():
        batch[modality] = store.values.take(source.cube_rows[modality][rows], axis=0)
    batch["location"] = np.stack([table.lon[rows], table.lat[rows]], axis=1)
    if source.labels_mode == "train":
        batch["labels"] = table.labels(rows)
    return batch

