"""Block-mean features, per-band min-max scaling, spectral signatures.

The 100x100 ROI is tiled into a 10x10 grid of 10x10-pixel blocks. The mean
of each block, per band, gives a 100x13 feature matrix per specimen; rows
are blocks in row-major grid order, columns are bands in ascending
wavelength order. Stacking all specimens yields the block-level learning
table (100 rows per specimen).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    BAND_WAVELENGTHS_NM,
    BLOCK_GRID,
    N_BANDS,
    ROI_SIDE,
    Composition,
    ObservationTable,
    TextureClass,
)
from .cubeio import fmt_float, write_csv_rows
from .errors import BadArgument, DegenerateBand, DimensionMismatch, EmptyGroup, NotFitted

BLOCK_SIDE = ROI_SIDE // BLOCK_GRID
BLOCKS_PER_SPECIMEN = BLOCK_GRID * BLOCK_GRID


def block_means(planes: np.ndarray) -> np.ndarray:
    """Per-band means of the 100 non-overlapping 10x10 blocks of the
    (13, 100, 100) planes that :func:`preprocess.preprocess_cube` returns.

    Returns a (100, 13) matrix; row (u-1)*10 + (v-1) is block (u, v) of the
    grid, columns follow ascending wavelength order.
    """
    if planes.shape != (N_BANDS, ROI_SIDE, ROI_SIDE):
        raise DimensionMismatch(
            f"expected ({N_BANDS}, {ROI_SIDE}, {ROI_SIDE}) planes, got {planes.shape}"
        )
    tiles = planes.reshape(N_BANDS, BLOCK_GRID, BLOCK_SIDE, BLOCK_GRID, BLOCK_SIDE)
    grid = tiles.mean(axis=(2, 4))  # (13, 10, 10)
    return grid.reshape(N_BANDS, BLOCKS_PER_SPECIMEN).T.copy()


def flatten_observations(
    blocks: np.ndarray,
    specimens: Iterable[tuple[Composition, TextureClass, str]],
) -> ObservationTable:
    """View per-specimen feature matrices as one block-level table.

    ``blocks[i]`` is the (100, 13) :func:`block_means` matrix of the i-th
    specimen, whose (composition, texture class, id) its 100 rows share;
    block_row/block_col record the grid position (1..10). The features of a
    C-contiguous float64 ``blocks`` are a view of it, not a copy.
    """
    specimens = list(specimens)
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.shape != (len(specimens), BLOCKS_PER_SPECIMEN, N_BANDS):
        raise DimensionMismatch(
            f"blocks of {len(specimens)} specimens have shape {blocks.shape}"
        )
    grid = np.arange(1, BLOCK_GRID + 1)
    return ObservationTable(
        specimen_ids=np.repeat(
            np.array([s[2] for s in specimens], dtype=object), BLOCKS_PER_SPECIMEN
        ),
        block_rows=np.tile(np.repeat(grid, BLOCK_GRID), len(specimens)),
        block_cols=np.tile(grid, BLOCK_GRID * len(specimens)),
        features=blocks.reshape(-1, N_BANDS),
        compositions=np.repeat(
            [s[0].as_array() for s in specimens], BLOCKS_PER_SPECIMEN, axis=0
        ).reshape(-1, 3),
        texture_codes=np.repeat([s[1].index for s in specimens], BLOCKS_PER_SPECIMEN),
    )


def constant_bands(features: np.ndarray) -> list[int]:
    """The columns of a (rows, bands) matrix with one value in every row,
    which no min-max scale can map onto [0, 1]."""
    return np.flatnonzero(features.max(axis=0) == features.min(axis=0)).tolist()


class MinMaxScaler:
    """Per-band linear map of training min/max onto [0, 1].

    Values outside the fitted range (external validation, test folds) are
    mapped linearly without clamping and may fall outside [0, 1].
    """

    def __init__(self) -> None:
        self.min_: np.ndarray | None = None
        self.max_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "MinMaxScaler":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 2:
            raise DegenerateBand("need at least two rows to fit a min-max scale")
        flat = constant_bands(features)
        if flat:
            raise DegenerateBand(f"band column(s) {flat} are constant")
        self.min_, self.max_ = features.min(axis=0), features.max(axis=0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.min_ is None or self.max_ is None:
            raise NotFitted("scaler used before fit()")
        features = np.asarray(features, dtype=np.float64)
        return (features - self.min_) / (self.max_ - self.min_)


def composition_group_labels(compositions: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Assign one integer code per distinct (clay, silt, sand) triple.

    Groups are ordered by ascending (clay, silt, sand); labels spell the
    triple as Cl/M/S percentages. Used both for signature grouping and as
    supervisory classes when reducing for composition analysis.
    """
    compositions = np.asarray(compositions, dtype=np.float64)
    keys, codes = np.unique(compositions, axis=0, return_inverse=True)
    labels = [f"Cl{k[0]:.2f}_M{k[1]:.2f}_S{k[2]:.2f}" for k in keys]
    return codes.astype(np.int64), labels


def group_signatures(
    table: ObservationTable, grouping: str
) -> tuple[list[str], np.ndarray]:
    """Per-group mean of each band column.

    grouping: "class" for texture classes, "composition" for distinct
    composition levels. Expects an already min-max scaled table.
    """
    if len(table) == 0:
        raise EmptyGroup("cannot emit signatures for an empty table")
    if grouping == "class":
        codes = table.texture_codes
        present = np.unique(codes)
        labels = [TextureClass.from_index(int(c)).value for c in present]
    elif grouping == "composition":
        codes, all_labels = composition_group_labels(table.compositions)
        present = np.unique(codes)
        labels = [all_labels[int(c)] for c in present]
    else:
        raise BadArgument(f"unknown grouping {grouping!r}")
    means = np.empty((present.size, N_BANDS), dtype=np.float64)
    for i, code in enumerate(present):
        means[i] = table.features[codes == code].mean(axis=0)
    return labels, means


def emit_signatures(table: ObservationTable, grouping: str, path: str | Path) -> None:
    """Write the signature CSV: one row per group, 13 per-band mean columns."""
    labels, means = group_signatures(table, grouping)
    write_csv_rows(
        path,
        ["group"] + [f"f{nm}" for nm in BAND_WAVELENGTHS_NM],
        ([label] + [fmt_float(v) for v in row] for label, row in zip(labels, means)),
    )
