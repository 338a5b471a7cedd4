"""CART decision trees and bootstrap random forests.

Trees grow greedily: each node takes the (feature, threshold) pair that
minimizes Gini impurity (classification) or summed squared error
(regression), with candidate thresholds at midpoints between consecutive
distinct sorted values. Ties prefer the first feature in evaluation order
and the smallest threshold, so training is fully deterministic.

Forests fit trees on bootstrap resamples with per-split feature
subsampling; every tree draws its own generator from the forest seed, so
results do not depend on thread scheduling.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import EmptyTrainingSet, NotFitted
from ..seeding import derive_seed


class _Tree:
    """Flat-array binary tree shared by classifier and regressor variants."""

    __slots__ = ("feature", "threshold", "left", "right", "payload")

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.payload: list[np.ndarray] = []

    def add_node(self, payload: np.ndarray) -> int:
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.payload.append(payload)
        return len(self.feature) - 1

    def finalize(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.payload = np.stack(self.payload)

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Leaf payload row for every query."""
        node = np.zeros(features.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            current = node[active]
            go_left = (
                features[active, self.feature[current]] <= self.threshold[current]
            )
            node[active] = np.where(go_left, self.left[current], self.right[current])
            active = active[self.feature[node[active]] >= 0]
        return self.payload[node]

    def digest_into(self, h) -> None:
        h.update(self.feature.tobytes())
        h.update(self.threshold.tobytes())
        h.update(self.left.tobytes())
        h.update(self.right.tobytes())
        h.update(np.ascontiguousarray(self.payload, dtype=np.float64).tobytes())


def _valid_split_mask(sorted_x: np.ndarray, min_leaf: int) -> np.ndarray:
    """Boolean mask over split positions 1..n-1 (number of left rows)."""
    n = sorted_x.shape[0]
    mask = sorted_x[1:] > sorted_x[:-1]
    if min_leaf > 1:
        positions = np.arange(1, n)
        mask = mask & (positions >= min_leaf) & (n - positions >= min_leaf)
    return mask


class _TreeBuilder:
    """Grows one tree; subclasses supply impurity math and leaf payloads."""

    def __init__(self, max_depth, min_leaf, max_features, rng):
        self.max_depth = max_depth
        self.min_leaf = max(1, int(min_leaf))
        self.max_features = max_features
        self.rng = rng

    def build(self, features: np.ndarray, targets: np.ndarray) -> _Tree:
        tree = _Tree()
        n, d = features.shape
        root = tree.add_node(self.leaf_payload(targets))
        # Explicit preorder stack: recursion depth is data-dependent and the
        # per-node feature draws must follow a fixed traversal order.
        stack = [(root, np.arange(n), 0)]
        while stack:
            node_id, rows, depth = stack.pop()
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            if rows.size < 2 * self.min_leaf or self.is_pure(targets[rows]):
                continue
            if self.max_features is None or self.max_features >= d:
                feature_order = range(d)
            else:
                feature_order = self.rng.choice(d, self.max_features, replace=False)
            split = self.best_split(features, targets, rows, feature_order)
            if split is None:
                continue
            feat, threshold = split
            go_left = features[rows, feat] <= threshold
            left_rows, right_rows = rows[go_left], rows[~go_left]
            if left_rows.size == 0 or right_rows.size == 0:
                continue
            left_id = tree.add_node(self.leaf_payload(targets[left_rows]))
            right_id = tree.add_node(self.leaf_payload(targets[right_rows]))
            tree.feature[node_id] = int(feat)
            tree.threshold[node_id] = float(threshold)
            tree.left[node_id] = left_id
            tree.right[node_id] = right_id
            stack.append((right_id, right_rows, depth + 1))
            stack.append((left_id, left_rows, depth + 1))
        tree.finalize()
        return tree

    def best_split(self, features, targets, rows, feature_order):
        best_cost = np.inf
        best = None
        for feat in feature_order:
            order = np.argsort(features[rows, feat], kind="stable")
            xs = features[rows[order], feat]
            mask = _valid_split_mask(xs, self.min_leaf)
            if not mask.any():
                continue
            costs = self.split_costs(targets[rows[order]])
            costs = np.where(mask, costs, np.inf)
            pos = int(np.argmin(costs))
            if costs[pos] < best_cost:
                best_cost = costs[pos]
                threshold = (xs[pos] + xs[pos + 1]) / 2.0
                best = (int(feat), float(threshold))
        return best

    # subclass hooks -----------------------------------------------------
    def leaf_payload(self, targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def is_pure(self, targets: np.ndarray) -> bool:
        raise NotImplementedError

    def split_costs(self, sorted_targets: np.ndarray) -> np.ndarray:
        """Cost of splitting after position i (i+1 rows left), i in 0..n-2."""
        raise NotImplementedError


class _GiniBuilder(_TreeBuilder):
    def __init__(self, n_classes, **kwargs):
        super().__init__(**kwargs)
        self.n_classes = n_classes

    def leaf_payload(self, targets):
        return np.bincount(targets, minlength=self.n_classes).astype(np.float64)

    def is_pure(self, targets):
        return targets.size == 0 or bool((targets == targets[0]).all())

    def split_costs(self, sorted_targets):
        n = sorted_targets.shape[0]
        onehot = np.zeros((n, self.n_classes))
        onehot[np.arange(n), sorted_targets] = 1.0
        left = np.cumsum(onehot, axis=0)[:-1]  # counts with i+1 rows on the left
        total = np.bincount(sorted_targets, minlength=self.n_classes).astype(float)
        right = total - left
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        # Weighted Gini = n - (sum_l^2/n_l + sum_r^2/n_r); constant n dropped.
        return -(
            (left**2).sum(axis=1) / n_left + (right**2).sum(axis=1) / n_right
        )


class _VarianceBuilder(_TreeBuilder):
    def leaf_payload(self, targets):
        return targets.mean(axis=0)

    def is_pure(self, targets):
        return targets.size == 0 or bool((targets == targets[0]).all())

    def split_costs(self, sorted_targets):
        n = sorted_targets.shape[0]
        s1 = np.cumsum(sorted_targets, axis=0)
        s2 = np.cumsum(sorted_targets**2, axis=0)
        n_left = np.arange(1, n, dtype=np.float64)[:, np.newaxis]
        n_right = n - n_left
        sse_left = s2[:-1] - s1[:-1] ** 2 / n_left
        sse_right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / n_right
        return (sse_left + sse_right).sum(axis=1)


def _prepare_targets_regression(targets: np.ndarray) -> tuple[np.ndarray, bool]:
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        return targets[:, np.newaxis], True
    return targets, False


def _fitted(tree: _Tree | None) -> _Tree:
    if tree is None:
        raise NotFitted("decision tree used before fit")
    return tree


class DecisionTreeClassifier:
    """Greedy Gini CART classifier over integer class labels."""

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1,
                 n_classes: int | None = None):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_classes = n_classes
        self._tree: _Tree | None = None

    def fit(self, features, labels, rng=None, max_features=None):
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.shape[0] == 0:
            raise EmptyTrainingSet("tree fitted with no training rows")
        n_classes = self.n_classes or int(labels.max()) + 1
        builder = _GiniBuilder(
            n_classes=n_classes,
            max_depth=self.max_depth,
            min_leaf=self.min_leaf,
            max_features=max_features,
            rng=rng,
        )
        self._tree = builder.build(features, labels)
        self._n_classes = n_classes
        return self

    def predict_counts(self, features) -> np.ndarray:
        return _fitted(self._tree).apply(np.asarray(features, dtype=np.float64))

    def predict(self, features) -> np.ndarray:
        return self.predict_counts(features).argmax(axis=1)

    def params_digest(self) -> str:
        h = hashlib.sha256()
        _fitted(self._tree).digest_into(h)
        return h.hexdigest()


class DecisionTreeRegressor:
    """Greedy variance-reduction CART regressor; leaf predicts the mean."""

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._tree: _Tree | None = None

    def fit(self, features, targets, rng=None, max_features=None):
        features = np.ascontiguousarray(features, dtype=np.float64)
        targets, self._squeeze = _prepare_targets_regression(targets)
        if features.shape[0] == 0:
            raise EmptyTrainingSet("tree fitted with no training rows")
        builder = _VarianceBuilder(
            max_depth=self.max_depth,
            min_leaf=self.min_leaf,
            max_features=max_features,
            rng=rng,
        )
        self._tree = builder.build(features, targets)
        return self

    def predict(self, features) -> np.ndarray:
        out = _fitted(self._tree).apply(np.asarray(features, dtype=np.float64))
        return out[:, 0] if self._squeeze else out

    def params_digest(self) -> str:
        h = hashlib.sha256()
        _fitted(self._tree).digest_into(h)
        return h.hexdigest()


class _ForestBase:
    """Bootstrap ensemble scaffolding; subclasses define the base tree."""

    def __init__(self, n_trees=20, max_depth=None, min_leaf=1, bootstrap=True,
                 seed=0, n_jobs=1):
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.bootstrap = bootstrap
        self.seed = seed
        self.n_jobs = max(1, n_jobs)
        self.trees: list = []

    def _feature_count(self, n_features: int) -> int | None:
        raise NotImplementedError

    def _new_tree(self):
        raise NotImplementedError

    def _fit_one(self, index, features, targets, max_features):
        rng = np.random.Generator(np.random.PCG64(derive_seed(self.seed, index)))
        if self.bootstrap:
            rows = rng.integers(0, features.shape[0], size=features.shape[0])
            rows.sort()  # stable row ordering keeps split tie-breaks canonical
        else:
            rows = np.arange(features.shape[0])
        tree = self._new_tree()
        tree.fit(features[rows], targets[rows], rng=rng, max_features=max_features)
        return tree

    def fit(self, features, targets):
        features = np.ascontiguousarray(features, dtype=np.float64)
        targets = np.asarray(targets)
        if features.shape[0] == 0:
            raise EmptyTrainingSet("forest fitted with no training rows")
        max_features = self._feature_count(features.shape[1])
        indices = range(self.n_trees)
        if self.n_jobs == 1:
            self.trees = [
                self._fit_one(i, features, targets, max_features) for i in indices
            ]
        else:
            with ThreadPoolExecutor(max_workers=self.n_jobs) as pool:
                self.trees = list(
                    pool.map(
                        lambda i: self._fit_one(i, features, targets, max_features),
                        indices,
                    )
                )
        return self

    def params_digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.seed).encode())
        for tree in self.trees:
            tree._tree.digest_into(h)
        return h.hexdigest()


class RandomForestClassifier(_ForestBase):
    """Majority vote over Gini trees; ceil(sqrt(d)) features per split."""

    def __init__(self, n_trees=20, max_depth=None, min_leaf=1, bootstrap=True,
                 seed=0, n_jobs=1, n_classes=None):
        super().__init__(n_trees, max_depth, min_leaf, bootstrap, seed, n_jobs)
        self.n_classes = n_classes

    def _feature_count(self, n_features):
        if not self.bootstrap and self.n_trees == 1:
            return None  # degenerate single-tree mode matches a plain tree fit
        return int(np.ceil(np.sqrt(n_features)))

    def _new_tree(self):
        return DecisionTreeClassifier(
            max_depth=self.max_depth, min_leaf=self.min_leaf, n_classes=self._classes
        )

    def fit(self, features, labels):
        labels = np.asarray(labels, dtype=np.int64)
        self._classes = self.n_classes or int(labels.max()) + 1
        return super().fit(features, labels)

    def predict(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        votes = np.zeros((features.shape[0], self._classes), dtype=np.int64)
        for tree in self.trees:
            predictions = tree.predict(features)
            votes[np.arange(features.shape[0]), predictions] += 1
        return votes.argmax(axis=1)


class RandomForestRegressor(_ForestBase):
    """Mean over variance trees; ceil(d/3) features per split."""

    def _feature_count(self, n_features):
        if not self.bootstrap and self.n_trees == 1:
            return None
        return int(np.ceil(n_features / 3.0))

    def _new_tree(self):
        return DecisionTreeRegressor(max_depth=self.max_depth, min_leaf=self.min_leaf)

    def predict(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        stacked = np.stack([tree.predict(features) for tree in self.trees])
        return stacked.mean(axis=0)
