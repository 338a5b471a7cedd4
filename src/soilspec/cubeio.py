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
import os
import re
import struct
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    BAND_WAVELENGTHS_NM,
    BLOCK_GRID,
    COMPOSITION_TOL,
    N_BANDS,
    TEXTURE_CODES,
    TEXTURE_NAMES,
    DarkFrame,
    ObservationTable,
    SpectralCube,
    TextureClass,
)
from .errors import (
    BandCountMismatch,
    IoFailure,
    MalformedHeader,
    NegativeComponent,
    NumericalFailure,
    SoilspecError,
    SumViolation,
    TruncatedPayload,
    naming,
)
from .triangle import classify_percentages

MAGIC = b"MSC1"
_HEADER = struct.Struct("<4sHHH")

OBSERVATION_HEADER = (
    ["specimen_id", "block_row", "block_col"]
    + [f"f{nm}" for nm in BAND_WAVELENGTHS_NM]
    + ["clay", "silt", "sand", "texture"]
)


@contextmanager
def open_output(path: str | Path, mode: str):
    """The file every output is written through, in `mode` "w" (line ends as
    written) or "wb". The block writes ``{path}.partial``, which then replaces
    `path`; on any exception it is removed, so `path` holds a whole file or
    what it held before. An OSError fails as IoFailure naming `path`."""
    partial_path = f"{path}.partial"
    try:
        with open(partial_path, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(partial_path, path)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(partial_path)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def _write(path: str | Path, wavelengths: tuple[int, ...], planes: np.ndarray) -> None:
    """Write the header, the wavelength table and the planes straight to
    the file; a native little-endian C-contiguous cube is written without
    a copy."""
    bands, height, width = planes.shape
    payload = np.ascontiguousarray(planes, dtype="<u2")
    with open_output(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, bands, width, height))
        fh.write(np.asarray(wavelengths, dtype="<u2"))
        fh.write(payload)


def _unpack(path: Path) -> tuple[tuple[int, ...], np.ndarray]:
    """The wavelength table and the planes, read into one buffer: the file's
    size is checked against the header, then the payload is read straight
    into the planes, so a file cut short meanwhile fails as well."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise MalformedHeader(f"{path}: file shorter than the fixed header")
            magic, bands, width, height = _HEADER.unpack(head)
            if magic != MAGIC:
                raise MalformedHeader(f"{path}: bad magic {magic!r}")
            table = fh.read(2 * bands)
            if len(table) < 2 * bands:
                raise MalformedHeader(f"{path}: wavelength table truncated")
            expected = 2 * bands * height * width
            got = size - fh.tell()
            if got >= expected:
                planes = np.empty((bands, height, width), dtype="<u2")
                got = fh.readinto(planes)
            if got < expected:
                raise TruncatedPayload(
                    f"{path}: payload has {got} bytes, expected {expected}"
                )
            trailing = len(fh.read())
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if trailing:
        raise MalformedHeader(f"{path}: {trailing} trailing bytes")
    return struct.unpack(f"<{bands}H", table), planes


def write_cube(cube: SpectralCube, path: str | Path) -> None:
    """Write a 13-band cube; identical cubes produce identical bytes."""
    _write(path, BAND_WAVELENGTHS_NM, cube.planes)


def read_cube(path: str | Path) -> SpectralCube:
    """Read a 13-band MSC1 cube, validating header, payload, and range."""
    path = Path(path)
    wavelengths, planes = _unpack(path)
    if len(wavelengths) != N_BANDS:
        raise BandCountMismatch(
            f"{path}: header declares {len(wavelengths)} bands, expected {N_BANDS}"
        )
    if wavelengths != BAND_WAVELENGTHS_NM:
        raise MalformedHeader(
            f"{path}: wavelength table {wavelengths} is not the canonical set"
        )
    with naming(path):
        return SpectralCube(planes)


def write_dark_frame(dark: DarkFrame, path: str | Path) -> None:
    """Write a dark frame as a 1-band MSC1 container with wavelength 0."""
    _write(path, (0,), dark.plane[np.newaxis])


def read_dark_frame(path: str | Path) -> DarkFrame:
    path = Path(path)
    wavelengths, planes = _unpack(path)
    if len(wavelengths) != 1:
        raise BandCountMismatch(
            f"{path}: dark frame declares {len(wavelengths)} bands, expected 1"
        )
    if wavelengths[0] != 0:
        raise MalformedHeader(f"{path}: dark frame wavelength must be 0")
    with naming(path):
        return DarkFrame(planes[0])


def fmt_float(value: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(value))


# Rows formatted and written per chunk: one string for a whole table would
# hold every row's text and floats at once.
_CSV_CHUNK_ROWS = 500


def _csv_field(text: str) -> str:
    """One field as `write_csv_rows` writes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_observation_csv(table: ObservationTable, path: str | Path) -> None:
    """Write the block-level observation table with the canonical header.

    The bytes are those of ``write_csv_rows`` with ``fmt_float`` cells: CRLF
    line ends, and ids quoted where they hold a comma, a quote or a line
    break.
    """
    n = len(table)
    with open_output(path, "w") as fh:
        fh.write(",".join(OBSERVATION_HEADER) + "\r\n")
        for start in range(0, n, _CSV_CHUNK_ROWS):
            rows = slice(start, min(n, start + _CSV_CHUNK_ROWS))
            fh.write("".join(
                f"{_csv_field(str(sid))},{r},{c},"
                f"{','.join(map(repr, feats))},{','.join(map(repr, comps))},"
                f"{TEXTURE_NAMES[code]}\r\n"
                for sid, r, c, feats, comps, code in zip(
                    table.specimen_ids[rows].tolist(),
                    table.block_rows[rows].tolist(),
                    table.block_cols[rows].tolist(),
                    table.features[rows].tolist(),
                    table.compositions[rows].tolist(),
                    table.texture_codes[rows].tolist(),
                )
            ))


def _read_text(path: Path) -> str:
    """The file's text with its line ends as written; bytes that do not
    decode fail as MalformedHeader naming the line."""
    try:
        with naming(f"cannot read {path}"), open(path, newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise MalformedHeader(f"{path}: line {line}: not text: {exc}") from None


# One line of text and its line end, for csv.reader one at a time rather
# than a whole-text io.StringIO. csv ends a line at CR, LF or CRLF only;
# str.splitlines would also end one at \x0b, \x0c, \x1c-\x1e, \x85, \u2028
# or \u2029.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")


def read_csv_rows(
    path: Path, header: list[str], what: str, parse, text: str | None = None
) -> list:
    """``[parse(line, row), ...]`` for the rows after `header`, which the file
    must start with. `row` holds one str per header column and `line` is the
    1-based physical line it starts on, one past the previous record's last
    line; a row of another length fails as MalformedHeader ("line {line} has
    {n} fields"). A ValueError or OverflowError from `parse` fails as
    MalformedHeader, a SoilspecError as its own type, prefixed "{path}: line
    {line}: ", so the first bad row in file order is named. Pass `text` when
    the file is already read."""
    if text is None:
        text = _read_text(path)
    reader = csv.reader(match.group() for match in _LINE.finditer(text))
    parsed = []
    try:
        if next(reader, None) != header:
            raise MalformedHeader(f"{path}: unexpected {what} header")
        line = reader.line_num + 1
        for row in reader:
            if len(row) != len(header):
                raise MalformedHeader(f"{path}: line {line} has {len(row)} fields")
            try:
                parsed.append(parse(line, row))
            except (ValueError, OverflowError) as exc:
                raise MalformedHeader(f"{path}: line {line}: {exc}") from None
            except SoilspecError as exc:
                raise type(exc)(f"{path}: line {line}: {exc}") from None
            line = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedHeader(f"{path}: line {reader.line_num}: {exc}") from None
    return parsed


def write_csv_rows(path: str | Path, header: list[str], rows) -> None:
    """Write `header`, then `rows`, in csv.writer's default dialect."""
    with open_output(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reject_first(path: Path, lines, bad: np.ndarray, error: type, what: str) -> None:
    if bad.any():  # lines[i] is the line row i starts on
        raise error(f"{path}: line {lines[np.flatnonzero(bad)[0]]}: {what}")


# One observation row as np.loadtxt parses it.
_ROW = np.dtype([
    ("id", object),
    ("blocks", np.int64, (2,)),
    ("features", np.float64, (N_BANDS,)),
    ("compositions", np.float64, (3,)),
    ("texture", object),
])


def _parse_plain(text: str):
    """The table's columns from ``np.loadtxt`` over the split lines, or None.

    Only ASCII text without a quote character, a lone CR or a blank line is
    parsed here: there csv's records are the lines and its fields the pieces
    between commas, and loadtxt parses what ``int()`` and ``float()`` accept
    to the same values and rejects the rest. (It misreads non-ASCII digits
    in integer cells, and reads the separators \\x1c-\\x1f as blanks, so
    those stay out.) Anything else returns None, so the per-line parse reads
    it or names the bad line.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    # np.loadtxt would skip a blank line, which csv reads as a row
    if (not text.isascii() or any(c in text for c in '"\x1c\x1d\x1e\x1f')
            or text.count("\r") != text.count("\r\n") or len(lines) < 2
            or lines[0].removesuffix("\r") != ",".join(OBSERVATION_HEADER)
            or "" in lines or "\r" in lines
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        table = np.loadtxt(lines, dtype=_ROW, delimiter=",", comments=None,
                           ndmin=1, skiprows=1)
    except ValueError:
        return None
    codes = np.array([TEXTURE_CODES.get(name, -1) for name in table["texture"]],
                     dtype=np.int64)
    if (codes < 0).any():
        return None
    blocks = table["blocks"]
    return (
        table["id"].copy(),
        blocks[:, 0].copy(),
        blocks[:, 1].copy(),
        np.ascontiguousarray(table["features"]),
        np.ascontiguousarray(table["compositions"]),
        codes,
    )


def _parse_row(line: int, row: list[str]):
    """(id, block_row, block_col, 16 floats as one array, texture code,
    line); the blocks are int64 here so that one past int64 fails on its
    line."""
    return (
        row[0],
        np.int64(int(row[1])),
        np.int64(int(row[2])),
        np.fromiter(map(float, row[3 : 6 + N_BANDS]), np.float64, N_BANDS + 3),
        TextureClass.from_name(row[6 + N_BANDS]).index,
        line,
    )


def _parse_rows(path: Path, text: str):
    """The table's columns cell by cell, naming the first bad line, then the
    line each row starts on."""
    rows = read_csv_rows(path, OBSERVATION_HEADER, "observation", _parse_row, text)
    if not rows:
        raise MalformedHeader(f"{path}: no observation rows after the header")
    ids, block_rows, block_cols, values, codes, lines = zip(*rows)
    values = np.array(values)
    return (np.array(ids, dtype=object), np.array(block_rows), np.array(block_cols),
            values[:, :N_BANDS].copy(), values[:, N_BANDS:].copy(),
            np.array(codes, dtype=np.int64), np.array(lines))


def read_observation_csv(path: str | Path) -> ObservationTable:
    """Read an observation table, rejecting non-numeric or non-finite cells,
    unknown texture names, block indices off the grid, compositions off the
    100% simplex, textures other than the triangle's for the composition and
    repeated (specimen, block) pairs, each with the file and 1-based line. A
    table with no rows is rejected too."""
    path = Path(path)
    text = _read_text(path)
    columns = _parse_plain(text)
    if columns is None:
        *columns, lines = _parse_rows(path, text)
    else:  # one line a row, the header first
        lines = range(2, len(columns[0]) + 2)
    (specimen_ids, block_rows, block_cols, features, compositions,
     texture_codes) = columns
    reject_first = partial(_reject_first, path, lines)
    n = len(specimen_ids)
    finite = np.isfinite(np.column_stack([features, compositions])).all(axis=1)
    reject_first(~finite, NumericalFailure, "non-finite feature or composition")
    blocks = np.column_stack([block_rows, block_cols])
    reject_first(((blocks < 1) | (blocks > BLOCK_GRID)).any(axis=1),
                 MalformedHeader, f"block index outside 1..{BLOCK_GRID}")
    reject_first(((compositions < 0.0) | (compositions > 100.0)).any(axis=1),
                 NegativeComponent, "composition component outside [0, 100]")
    clay, silt, sand = compositions.T
    reject_first(np.abs(clay + silt + sand - 100.0) > COMPOSITION_TOL,
                 SumViolation, "composition does not sum to 100")
    reject_first(classify_percentages(clay, silt, sand) != texture_codes,
                 MalformedHeader, "texture is not the triangle's for the composition")
    # compared as Python strings: a "U" array would drop trailing NULs
    _, specimen = np.unique(specimen_ids, return_inverse=True)
    _, first = np.unique(np.column_stack([specimen, blocks]), axis=0, return_index=True)
    repeated = np.ones(n, dtype=bool)
    repeated[first] = False  # every row but the first of its (specimen, block)
    reject_first(repeated, MalformedHeader,
                 "repeats an earlier (specimen, block_row, block_col)")
    return ObservationTable(
        specimen_ids=specimen_ids,
        block_rows=block_rows,
        block_cols=block_cols,
        features=features,
        compositions=compositions,
        texture_codes=texture_codes,
    )
