"""K-nearest-neighbor classifier and regressor with deterministic tie-breaks.

Distances are Euclidean. Neighbors come from the exact KD-tree search in
:mod:`.neighbors`, ranked by (distance, training row index), so duplicated
points resolve reproducibly; vote ties go to the smallest class index.
``n_jobs`` is the number of tree query workers.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import EmptyTrainingSet, KTooLarge, NotFitted
from .neighbors import build_tree, check_finite, k_nearest


class _KnnBase:
    def __init__(self, k: int = 5, n_jobs: int = 1):
        if k < 1:
            raise KTooLarge(f"k must be >= 1, got {k}")
        self.k = k
        self.n_jobs = max(1, n_jobs)
        self.train_x: np.ndarray | None = None
        self.train_y: np.ndarray | None = None

    def fit(self, features: np.ndarray, targets: np.ndarray):
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise EmptyTrainingSet("KNN fitted with no training rows")
        if self.k > features.shape[0]:
            raise KTooLarge(f"k={self.k} exceeds {features.shape[0]} training rows")
        check_finite(features, "KNN training")
        self.train_x = features
        self.train_y = np.asarray(targets)
        self._tree = build_tree(features)
        return self

    def _neighbor_indices(self, queries: np.ndarray) -> np.ndarray:
        """(n_queries, k) training-row indices, nearest first."""
        if self.train_x is None:
            raise NotFitted("KNN predict before fit")
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        check_finite(queries, "KNN query")
        return k_nearest(self._tree, self.k, queries, workers=self.n_jobs)

    def params_digest(self) -> str:
        """Hash of everything the fit depends on (leakage audits)."""
        if self.train_x is None or self.train_y is None:
            raise NotFitted("KNN params_digest before fit")
        h = hashlib.sha256()
        h.update(str(self.k).encode())
        h.update(np.ascontiguousarray(self.train_x).tobytes())
        h.update(np.ascontiguousarray(self.train_y, dtype=np.float64).tobytes())
        return h.hexdigest()


class KnnClassifier(_KnnBase):
    """Majority vote over the k nearest neighbors (integer class labels)."""

    def fit(self, features: np.ndarray, labels: np.ndarray):
        super().fit(features, np.asarray(labels, dtype=np.int64))
        self._n_classes = int(self.train_y.max()) + 1 if self.train_y.size else 0
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
