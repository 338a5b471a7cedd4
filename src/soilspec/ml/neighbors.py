"""Exact k-nearest-neighbor search on a KD-tree, shared by KNN and SMOTE.

Rows are ranked by (squared distance, tree row index), as a linear scan
ranks them. The tree (Bentley 1975; Friedman, Bentley and Finkel 1977) only
collects the candidates within a padded k-th distance; their squared
distances are recomputed with the scan's formula ``((q - x) ** 2).sum(axis=1)``,
so ties resolve on the same bits. ``scipy.spatial`` is imported on first
use, which keeps it out of CLI start-up.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..errors import NumericalFailure


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise NumericalFailure naming the first row with a NaN or inf."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise NumericalFailure(f"{what} row {bad.argmax()} is not finite")


def build_tree(points: np.ndarray):
    """KD-tree over finite (n, dim) points; ``tree.data`` keeps the rows."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def k_nearest(
    tree, k: int, queries: np.ndarray | None = None, workers: int = 1
) -> np.ndarray:
    """(n_queries, k) tree-row indices of each query's k nearest, nearest first.

    With ``queries=None`` every tree row is its own query and never its own
    neighbor: the self-match is dropped by index, not by distance, so
    duplicated rows still pick each other.
    """
    data = tree.data
    self_query = queries is None
    if self_query:
        queries = data
    # a self-query's (k+1)-th distance is the k-th among the other rows
    reach = k + 1 if self_query else k
    kth = tree.query(queries, k=[reach], workers=workers)[0][:, 0]
    # The tree sums squares in another order than the scan, a few ulps apart:
    # pad the radius, and floor it so a zero k-th distance keeps duplicates.
    radius = np.maximum(kth * (1.0 + 1e-9), 1e-150)
    lists = tree.query_ball_point(queries, radius, workers=workers)
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    index = np.fromiter(chain.from_iterable(lists), np.int64, int(counts.sum()))
    query = np.repeat(np.arange(len(lists)), counts)
    if self_query:
        keep = index != query
        index, query, counts = index[keep], query[keep], counts - 1
    d2 = ((queries[query] - data[index]) ** 2).sum(axis=1)
    order = np.lexsort((index, d2, query))
    first = np.cumsum(counts) - counts
    return index[order][first[:, np.newaxis] + np.arange(k)]
