"""K-nearest-neighbor classifier and regressor with deterministic tie-breaks.

Distances are Euclidean. Neighbors come from the exact KD-tree search in
:mod:`.neighbors`, ranked by (distance, training row index), so duplicated
points resolve reproducibly; vote ties go to the smallest class index.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, EmptyTrainingSet, KTooLarge, NotFitted
from ..seeding import sha256_hex
from .neighbors import (
    as_labels,
    build_tree,
    check_finite,
    check_labels,
    check_lengths,
    k_nearest,
)


class _KnnBase:
    def __init__(self, k: int = 5):
        if k < 1:
            raise KTooLarge(f"k must be >= 1, got {k}")
        self.k = k
        self.train_x: np.ndarray | None = None
        self.train_y: np.ndarray | None = None

    def fit(self, features: np.ndarray, targets: np.ndarray):
        features = np.asarray(features, dtype=np.float64, order="C")
        if features.ndim != 2:
            raise DimensionMismatch(
                f"KNN training features of shape {features.shape} are not 2-D"
            )
        if features.shape[0] == 0:
            raise EmptyTrainingSet("KNN fitted with no training rows")
        if self.k > features.shape[0]:
            raise KTooLarge(f"k={self.k} exceeds {features.shape[0]} training rows")
        check_lengths(features, targets, "KNN training")
        check_finite(features, "KNN training")
        self.train_x = features
        self.train_y = targets
        self._tree = build_tree(features)
        return self

    def _neighbor_indices(self, queries: np.ndarray) -> np.ndarray:
        """(n_queries, k) training-row indices, nearest first."""
        if self.train_x is None:
            raise NotFitted("KNN predict before fit")
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        dim = self.train_x.shape[1]
        if queries.ndim != 2 or queries.shape[1] != dim:
            raise DimensionMismatch(
                f"KNN queries of shape {queries.shape} need {dim} columns"
            )
        check_finite(queries, "KNN query")
        return k_nearest(self._tree, self.k, queries)

    def params_digest(self) -> str:
        """Hash of everything the fit depends on (leakage audits)."""
        if self.train_x is None or self.train_y is None:
            raise NotFitted("KNN params_digest before fit")
        targets = np.asarray(self.train_y, dtype=np.float64)
        return sha256_hex(str(self.k).encode(), self.train_x, targets)


class KnnClassifier(_KnnBase):
    """Majority vote over the k nearest neighbors (integer class labels)."""

    def fit(self, features: np.ndarray, labels: np.ndarray):
        labels = as_labels(labels)
        n_classes = int(labels.max(initial=-1)) + 1
        check_labels(labels, n_classes)  # only a negative label can fail
        super().fit(features, labels)
        self._n_classes = n_classes
        return self

    def predict(self, queries: np.ndarray) -> np.ndarray:
        neighbors = self._neighbor_indices(queries)
        votes = self.train_y[neighbors]  # (n, k)
        counts = np.zeros((votes.shape[0], self._n_classes), dtype=np.int64)
        for j in range(votes.shape[1]):
            counts[np.arange(votes.shape[0]), votes[:, j]] += 1
        return counts.argmax(axis=1)  # argmax takes the smallest index on ties


class KnnRegressor(_KnnBase):
    """Unweighted mean of the k nearest neighbors' target vectors."""

    def fit(self, features: np.ndarray, targets: np.ndarray):
        return super().fit(features, np.asarray(targets, dtype=np.float64))

    def predict(self, queries: np.ndarray) -> np.ndarray:
        neighbors = self._neighbor_indices(queries)
        return self.train_y[neighbors].mean(axis=1)
