"""Exact k-nearest-neighbor search on a KD-tree, shared by KNN and SMOTE,
and the input checks that KNN, SMOTE and the trees share.

Rows are ranked by (squared distance, tree row index), as a linear scan
ranks them. The tree (Bentley 1975; Friedman, Bentley and Finkel 1977)
answers fixed-width queries: each query gets its w nearest rows, and once
the w-th lies beyond a padded k-th distance, those w hold every row that can
rank in the top k. Their squared distances are recomputed with the scan's
formula ``((q - x) ** 2).sum``, so ties resolve on the same bits. Queries
whose w-th row is still inside the padded radius (duplicates, grids) are
asked again with w doubled. Each round runs in chunks of query rows, so
heavily tied data never builds an (n, n) array at once. ``scipy.spatial`` is
imported on first use, which keeps it out of CLI start-up.
"""

from __future__ import annotations

import numpy as np

from ..errors import LabelOutOfRange, LengthMismatch, NumericalFailure

# Tree rows asked for beyond the reach on the first round: in general
# position the (reach + 1)-th row already lies outside the padded radius.
_FIRST_EXTRA = 1
# Query rows x width per chunk: about 20 MB of arrays at dim 2.
_CHUNK_CELLS = 1 << 18


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise NumericalFailure naming the first row with a NaN or inf."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise NumericalFailure(f"{what} row {bad.argmax()} is not finite")


def check_lengths(features: np.ndarray, targets: np.ndarray, what: str) -> None:
    """Raise LengthMismatch unless there is one target per feature row."""
    rows, count = len(features), len(targets) if targets.ndim else "scalar"
    if rows != count:
        raise LengthMismatch(f"{what} has {rows} feature rows but {count} targets")


def as_labels(labels) -> np.ndarray:
    """int64 labels; float labels must be finite whole numbers to convert."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":
        check_finite(labels.reshape(labels.shape[0], -1), "label")
        fractional = labels != np.trunc(labels)
        if fractional.any():
            row = int(fractional.argmax())
            raise LabelOutOfRange(
                f"label {labels[row]} at row {row} is not a whole number"
            )
    return labels.astype(np.int64, copy=False)


def check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Raise LabelOutOfRange naming the first label outside [0, n_classes)."""
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        row = int(bad.argmax())
        raise LabelOutOfRange(
            f"label {labels[row]} at row {row} is outside [0, {n_classes})"
        )


def build_tree(points: np.ndarray):
    """KD-tree over finite (n, dim) points; ``tree.data`` keeps the rows."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def k_nearest(tree, k: int, queries: np.ndarray | None = None) -> np.ndarray:
    """(n_queries, k) tree-row indices of each query's k nearest, nearest first.

    With ``queries=None`` every tree row is its own query and never its own
    neighbor: the self-match is dropped by index, not by distance, so
    duplicated rows still pick each other.
    """
    data = tree.data
    n = data.shape[0]
    self_query = queries is None
    if self_query:
        queries = data
    # a self-query's (k+1)-th distance is the k-th among the other rows
    reach = k + 1 if self_query else k
    nearest = np.empty((queries.shape[0], k), dtype=np.int64)
    rows = np.arange(queries.shape[0])
    width = min(reach + _FIRST_EXTRA, n)
    while rows.size:
        step = max(1, _CHUNK_CELLS // width)
        unresolved = []
        for start in range(0, rows.size, step):
            part = rows[start : start + step]
            dist, index = tree.query(queries[part], k=range(1, width + 1))
            far = np.isinf(dist[:, -1])  # the tree then pads with index n
            if far.any():
                raise NumericalFailure(f"query row {part[far.argmax()]} lies so far "
                                       "from the tree rows that its distance overflows")
            # The tree sums squares in another order than the scan, a few
            # ulps apart: pad the radius, and floor it so a zero k-th distance
            # keeps duplicates. Every row inside it is among the `width`
            # returned once the width-th lies outside, or once all n rows are.
            radius = np.maximum(dist[:, reach - 1] * (1.0 + 1e-9), 1e-150)
            done = dist[:, -1] > radius if width < n else np.ones(part.size, bool)
            found, index = part[done], index[done]
            if self_query:  # each row's own index is inside its radius
                keep = index != found[:, np.newaxis]
                index = index[keep].reshape(found.size, width - 1)
            d2 = ((queries[found][:, np.newaxis] - data[index]) ** 2).sum(axis=2)
            order = np.lexsort((index, d2))[:, :k]
            nearest[found] = np.take_along_axis(index, order, axis=1)
            unresolved.append(part[~done])
        rows = np.concatenate(unresolved)
        width = min(2 * width, n)
    return nearest
