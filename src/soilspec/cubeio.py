"""MSC1 cube container and observation-table CSV format.

MSC1 layout (all integers little-endian):

    magic "MSC1" | band_count u16 | width u16 | height u16
    | band_count x wavelength_nm u16
    | band_count x (height*width x intensity u16, row-major)

Dark frames reuse the container with band_count = 1 and wavelength 0.
Writing is byte-deterministic: equal values produce equal files.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .core import (
    BAND_WAVELENGTHS_NM,
    BLOCK_GRID,
    N_BANDS,
    DarkFrame,
    ObservationTable,
    SpectralCube,
    TextureClass,
)
from .errors import (
    BandCountMismatch,
    IoFailure,
    MalformedHeader,
    NumericalFailure,
    TruncatedPayload,
)

MAGIC = b"MSC1"
_HEADER = struct.Struct("<4sHHH")

OBSERVATION_HEADER = (
    ["specimen_id", "block_row", "block_col"]
    + [f"f{nm}" for nm in BAND_WAVELENGTHS_NM]
    + ["clay", "silt", "sand", "texture"]
)


def _pack(wavelengths: tuple[int, ...], planes: np.ndarray) -> bytes:
    bands, height, width = planes.shape
    parts = [_HEADER.pack(MAGIC, bands, width, height)]
    parts.append(np.asarray(wavelengths, dtype="<u2").tobytes())
    parts.append(np.ascontiguousarray(planes, dtype="<u2").tobytes())
    return b"".join(parts)


def _unpack(raw: bytes, path: Path) -> tuple[tuple[int, ...], np.ndarray]:
    if len(raw) < _HEADER.size:
        raise MalformedHeader(f"{path}: file shorter than the fixed header")
    magic, bands, width, height = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MalformedHeader(f"{path}: bad magic {magic!r}")
    offset = _HEADER.size
    if len(raw) < offset + 2 * bands:
        raise MalformedHeader(f"{path}: wavelength table truncated")
    wavelengths = tuple(
        int(v) for v in np.frombuffer(raw, dtype="<u2", count=bands, offset=offset)
    )
    offset += 2 * bands
    expected = offset + 2 * bands * height * width
    if len(raw) < expected:
        raise TruncatedPayload(
            f"{path}: payload has {len(raw) - offset} bytes, "
            f"expected {expected - offset}"
        )
    if len(raw) > expected:
        raise MalformedHeader(f"{path}: {len(raw) - expected} trailing bytes")
    planes = (
        np.frombuffer(raw, dtype="<u2", offset=offset)
        .reshape(bands, height, width)
        .astype(np.uint16)
    )
    return wavelengths, planes


def write_cube(cube: SpectralCube, path: str | Path) -> None:
    """Write a 13-band cube; identical cubes produce identical bytes."""
    try:
        Path(path).write_bytes(_pack(cube.wavelengths_nm, cube.planes))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_cube(path: str | Path) -> SpectralCube:
    """Read a 13-band MSC1 cube, validating header, payload, and range."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    wavelengths, planes = _unpack(raw, path)
    if len(wavelengths) != N_BANDS:
        raise BandCountMismatch(
            f"{path}: header declares {len(wavelengths)} bands, expected {N_BANDS}"
        )
    if wavelengths != BAND_WAVELENGTHS_NM:
        raise MalformedHeader(
            f"{path}: wavelength table {wavelengths} is not the canonical set"
        )
    return SpectralCube(planes=planes)


def write_dark_frame(dark: DarkFrame, path: str | Path) -> None:
    """Write a dark frame as a 1-band MSC1 container with wavelength 0."""
    try:
        Path(path).write_bytes(_pack((0,), dark.plane[np.newaxis]))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_dark_frame(path: str | Path) -> DarkFrame:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    wavelengths, planes = _unpack(raw, path)
    if len(wavelengths) != 1:
        raise BandCountMismatch(
            f"{path}: dark frame declares {len(wavelengths)} bands, expected 1"
        )
    if wavelengths[0] != 0:
        raise MalformedHeader(f"{path}: dark frame wavelength must be 0")
    return DarkFrame(plane=planes[0])


def fmt_float(value: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(value))


def write_observation_csv(table: ObservationTable, path: str | Path) -> None:
    """Write the block-level observation table with the canonical header."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(OBSERVATION_HEADER)
            for i in range(len(table)):
                row = [
                    str(table.specimen_ids[i]),
                    str(int(table.block_rows[i])),
                    str(int(table.block_cols[i])),
                ]
                row += [fmt_float(v) for v in table.features[i]]
                row += [fmt_float(v) for v in table.compositions[i]]
                row.append(TextureClass.from_index(int(table.texture_codes[i])).value)
                writer.writerow(row)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_observation_csv(path: str | Path) -> ObservationTable:
    """Read an observation table, rejecting non-numeric or non-finite cells,
    unknown texture names and block indices off the grid, each with the
    file and 1-based line."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != OBSERVATION_HEADER:
                raise MalformedHeader(f"{path}: unexpected observation header")
            rows = list(reader)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    n = len(rows)
    specimen_ids = np.empty(n, dtype=object)
    block_rows = np.empty(n, dtype=np.int64)
    block_cols = np.empty(n, dtype=np.int64)
    features = np.empty((n, N_BANDS), dtype=np.float64)
    compositions = np.empty((n, 3), dtype=np.float64)
    texture_codes = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != len(OBSERVATION_HEADER):
            raise MalformedHeader(f"{path}: line {i + 2} has {len(row)} fields")
        specimen_ids[i] = row[0]
        try:
            block_rows[i] = int(row[1])
            block_cols[i] = int(row[2])
            features[i] = [float(v) for v in row[3 : 3 + N_BANDS]]
            compositions[i] = [float(v) for v in row[3 + N_BANDS : 6 + N_BANDS]]
            texture_codes[i] = TextureClass.from_name(row[6 + N_BANDS]).index
        except (ValueError, OverflowError) as exc:
            raise MalformedHeader(f"{path}: line {i + 2}: {exc}") from None
    blocks = np.column_stack([block_rows, block_cols])
    for bad, error, what in (
        (~np.isfinite(np.column_stack([features, compositions])).all(axis=1),
         NumericalFailure, "non-finite feature or composition"),
        (((blocks < 1) | (blocks > BLOCK_GRID)).any(axis=1),
         MalformedHeader, f"block index outside 1..{BLOCK_GRID}"),
    ):
        if bad.any():  # the header is line 1
            raise error(f"{path}: line {np.flatnonzero(bad)[0] + 2}: {what}")
    return ObservationTable(
        specimen_ids=specimen_ids,
        block_rows=block_rows,
        block_cols=block_cols,
        features=features,
        compositions=compositions,
        texture_codes=texture_codes,
    )
