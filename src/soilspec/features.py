"""Block-mean features, per-band min-max scaling, spectral signatures.

The 100x100 ROI is tiled into a 10x10 grid of 10x10-pixel blocks. The mean
of each block, per band, gives a 100x13 feature matrix per specimen; rows
are blocks in row-major grid order, columns are bands in ascending
wavelength order. Stacking all specimens yields the block-level learning
table (100 rows per specimen).
"""

from __future__ import annotations

import csv
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
from .cubeio import fmt_float
from .errors import DegenerateBand, DimensionMismatch, EmptyGroup, IoFailure, NotFitted
from .preprocess import PreprocessedRoi

BLOCK_SIDE = ROI_SIDE // BLOCK_GRID
BLOCKS_PER_SPECIMEN = BLOCK_GRID * BLOCK_GRID


def block_means(roi: PreprocessedRoi | np.ndarray) -> np.ndarray:
    """Per-band means of the 100 non-overlapping 10x10 blocks.

    Returns a (100, 13) matrix; row (u-1)*10 + (v-1) is block (u, v) of the
    grid, columns follow ascending wavelength order.
    """
    planes = roi.planes if isinstance(roi, PreprocessedRoi) else np.asarray(roi)
    if planes.shape != (N_BANDS, ROI_SIDE, ROI_SIDE):
        raise DimensionMismatch(
            f"expected ({N_BANDS}, {ROI_SIDE}, {ROI_SIDE}) planes, got {planes.shape}"
        )
    tiles = planes.reshape(N_BANDS, BLOCK_GRID, BLOCK_SIDE, BLOCK_GRID, BLOCK_SIDE)
    grid = tiles.mean(axis=(2, 4))  # (13, 10, 10)
    return grid.reshape(N_BANDS, BLOCKS_PER_SPECIMEN).T.copy()


def flatten_observations(
    specimens: Iterable[tuple[np.ndarray, Composition, TextureClass, str]],
) -> ObservationTable:
    """Stack per-specimen feature matrices into one block-level table.

    Each specimen contributes 100 rows that share its composition, texture
    class, and id; block_row/block_col record the grid position (1..10).
    """
    ids, rows, cols, feats, comps, codes = [], [], [], [], [], []
    grid_rows = np.repeat(np.arange(1, BLOCK_GRID + 1), BLOCK_GRID)
    grid_cols = np.tile(np.arange(1, BLOCK_GRID + 1), BLOCK_GRID)
    for matrix, composition, texture, specimen_id in specimens:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (BLOCKS_PER_SPECIMEN, N_BANDS):
            raise DimensionMismatch(
                f"feature matrix for {specimen_id!r} has shape {matrix.shape}"
            )
        ids.append(np.full(BLOCKS_PER_SPECIMEN, specimen_id, dtype=object))
        rows.append(grid_rows)
        cols.append(grid_cols)
        feats.append(matrix)
        comps.append(np.tile(composition.as_array(), (BLOCKS_PER_SPECIMEN, 1)))
        codes.append(np.full(BLOCKS_PER_SPECIMEN, texture.index, dtype=np.int64))
    if not ids:
        return ObservationTable(
            specimen_ids=np.empty(0, dtype=object),
            block_rows=np.empty(0, dtype=np.int64),
            block_cols=np.empty(0, dtype=np.int64),
            features=np.empty((0, N_BANDS)),
            compositions=np.empty((0, 3)),
            texture_codes=np.empty(0, dtype=np.int64),
        )
    return ObservationTable(
        specimen_ids=np.concatenate(ids),
        block_rows=np.concatenate(rows),
        block_cols=np.concatenate(cols),
        features=np.vstack(feats),
        compositions=np.vstack(comps),
        texture_codes=np.concatenate(codes),
    )


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
        lo = features.min(axis=0)
        hi = features.max(axis=0)
        flat = np.flatnonzero(hi == lo)
        if flat.size:
            raise DegenerateBand(f"band column(s) {flat.tolist()} are constant")
        self.min_, self.max_ = lo, hi
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
        raise ValueError(f"unknown grouping {grouping!r}")
    means = np.empty((present.size, N_BANDS), dtype=np.float64)
    for i, code in enumerate(present):
        members = table.features[codes == code]
        if members.shape[0] == 0:
            raise EmptyGroup(f"group {labels[i]!r} has no rows")
        means[i] = members.mean(axis=0)
    return labels, means


def emit_signatures(table: ObservationTable, grouping: str, path: str | Path) -> None:
    """Write the signature CSV: one row per group, 13 per-band mean columns."""
    labels, means = group_signatures(table, grouping)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group"] + [f"f{nm}" for nm in BAND_WAVELENGTHS_NM])
            for label, row in zip(labels, means):
                writer.writerow([label] + [fmt_float(v) for v in row])
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
