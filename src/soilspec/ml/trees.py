"""CART decision trees and bootstrap random forests.

Trees grow greedily: each node takes the (feature, threshold) pair that
minimizes Gini impurity (classification) or summed squared error
(regression), with candidate thresholds at midpoints between consecutive
distinct sorted values. Ties prefer the first feature in evaluation order
and the smallest threshold, so training is fully deterministic.

Every feature is sorted once per tree (Breiman et al. 1984; Louppe 2014,
section 5). A node's row list is always ascending, so the root's stable sort
orders each feature by (value, row), and filtering it down to a node's rows
keeps exactly the order a stable sort of that node would give.

Forests fit trees serially on bootstrap resamples with per-split feature
subsampling; every tree draws its own generator from the forest seed.
"""

from __future__ import annotations

import hashlib

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
        columns = np.ascontiguousarray(features.T)
        goes_left = np.zeros(n, dtype=bool)
        root = tree.add_node(self.leaf_payload(targets))
        # Explicit preorder stack of the nodes that may split: recursion depth
        # is data-dependent and the per-node feature draws must follow a
        # fixed traversal order. `rows` stays ascending, so leaf payloads keep
        # their summation order; orders[f] lists the same rows by (value of
        # feature f, row).
        stack = []
        if self.can_split(targets, 0):
            orders = np.argsort(columns, axis=1, kind="stable")
            stack.append((root, np.arange(n), orders, 0))
        while stack:
            node_id, rows, orders, depth = stack.pop()
            if self.max_features is None or self.max_features >= d:
                feature_order = range(d)
            else:
                feature_order = self.rng.choice(d, self.max_features, replace=False)
            split = self.best_split(columns, targets, orders, feature_order)
            if split is None:
                continue
            feat, threshold = split
            # Not a prefix of orders[feat]: a midpoint can round up onto the
            # next distinct value, which then goes left too.
            go_left = columns[feat][rows] <= threshold
            left_rows, right_rows = rows[go_left], rows[~go_left]
            if left_rows.size == 0 or right_rows.size == 0:
                continue
            left_targets, right_targets = targets[left_rows], targets[right_rows]
            left_id = tree.add_node(self.leaf_payload(left_targets))
            right_id = tree.add_node(self.leaf_payload(right_targets))
            tree.feature[node_id] = int(feat)
            tree.threshold[node_id] = float(threshold)
            tree.left[node_id] = left_id
            tree.right[node_id] = right_id
            grow_left = self.can_split(left_targets, depth + 1)
            grow_right = self.can_split(right_targets, depth + 1)
            if grow_left or grow_right:
                goes_left[left_rows] = True
                in_left = goes_left[orders]
                goes_left[left_rows] = False
            if grow_right:
                right_orders = orders[~in_left].reshape(d, right_rows.size)
                stack.append((right_id, right_rows, right_orders, depth + 1))
            if grow_left:
                left_orders = orders[in_left].reshape(d, left_rows.size)
                stack.append((left_id, left_rows, left_orders, depth + 1))
        tree.finalize()
        return tree

    def can_split(self, targets: np.ndarray, depth: int) -> bool:
        if self.max_depth is not None and depth >= self.max_depth:
            return False
        if targets.shape[0] < 2 * self.min_leaf:
            return False
        return not bool((targets == targets[0]).all())

    def best_split(self, columns, targets, orders, feature_order):
        best_cost = np.inf
        best = None
        for feat in feature_order:
            order = orders[feat]
            xs = columns[feat][order]
            # mask[i]: i + 1 rows go left, between two distinct values, and
            # both sides keep min_leaf rows
            mask = xs[1:] > xs[:-1]
            mask[: self.min_leaf - 1] = False
            mask[mask.size - self.min_leaf + 1 :] = False
            if not mask.any():
                continue
            costs = self.split_costs(targets[order])
            costs[~mask] = np.inf
            pos = int(costs.argmin())
            if costs[pos] < best_cost:
                best_cost = costs[pos]
                threshold = (xs[pos] + xs[pos + 1]) / 2.0
                best = (int(feat), float(threshold))
        return best

    # subclass hooks -----------------------------------------------------
    def leaf_payload(self, targets: np.ndarray) -> np.ndarray:
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

    def split_costs(self, sorted_targets):
        # Sums of squared class counts are integers, so they are exact in
        # int64 and in float64. Moving a row left raises sum_l^2 by 2r + 1,
        # where r counts the earlier rows of its class; sum_r^2 follows from
        # sum_c (T_c - L_c)^2 = sum T^2 - 2 sum_c T_c L_c + sum_l^2.
        n = sorted_targets.shape[0]
        total = np.bincount(sorted_targets, minlength=self.n_classes)
        keys = sorted_targets
        if total.size <= 256:
            keys = keys.astype(np.uint8)  # the stable sort becomes a radix sort
        by_class = np.argsort(keys, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[by_class] = np.arange(n) - np.repeat(np.cumsum(total) - total, total)
        left_sq = (2 * rank + 1).cumsum()[:-1]
        right_sq = total @ total - 2 * total[sorted_targets].cumsum()[:-1] + left_sq
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        # Weighted Gini = n - (sum_l^2/n_l + sum_r^2/n_r); constant n dropped.
        return -(left_sq / n_left + right_sq / n_right)


class _VarianceBuilder(_TreeBuilder):
    def leaf_payload(self, targets):
        # The same sum and division as targets.mean(axis=0), minus its
        # wrapper overhead, which shows at one call per node.
        return np.add.reduce(targets, axis=0) / targets.shape[0]

    def split_costs(self, sorted_targets):
        n = sorted_targets.shape[0]
        s1 = sorted_targets.cumsum(axis=0)
        s2 = (sorted_targets**2).cumsum(axis=0)
        n_left = np.arange(1, n, dtype=np.float64)[:, np.newaxis]
        n_right = n - n_left
        sse_left = s2[:-1] - s1[:-1] ** 2 / n_left
        sse_right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / n_right
        return (sse_left + sse_right).sum(axis=1)


class _DecisionTree:
    """Fit guard, fitted check and digest shared by the two CART learners."""

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._tree: _Tree | None = None

    def _grow(self, builder_type, features, targets, rng, max_features, **kwargs):
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.shape[0] == 0:
            raise EmptyTrainingSet("tree fitted with no training rows")
        builder = builder_type(
            max_depth=self.max_depth,
            min_leaf=self.min_leaf,
            max_features=max_features,
            rng=rng,
            **kwargs,
        )
        self._tree = builder.build(features, targets)
        return self

    def _fitted(self) -> _Tree:
        if self._tree is None:
            raise NotFitted("decision tree used before fit")
        return self._tree

    def params_digest(self) -> str:
        h = hashlib.sha256()
        self._fitted().digest_into(h)
        return h.hexdigest()


class DecisionTreeClassifier(_DecisionTree):
    """Greedy Gini CART classifier over integer class labels."""

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1,
                 n_classes: int | None = None):
        super().__init__(max_depth, min_leaf)
        self.n_classes = n_classes

    def fit(self, features, labels, rng=None, max_features=None):
        labels = np.asarray(labels, dtype=np.int64)
        n_classes = self.n_classes or int(labels.max(initial=-1)) + 1
        return self._grow(
            _GiniBuilder, features, labels, rng, max_features, n_classes=n_classes
        )

    def predict_counts(self, features) -> np.ndarray:
        return self._fitted().apply(np.asarray(features, dtype=np.float64))

    def predict(self, features) -> np.ndarray:
        return self.predict_counts(features).argmax(axis=1)


class DecisionTreeRegressor(_DecisionTree):
    """Greedy variance-reduction CART regressor; leaf predicts the mean."""

    def fit(self, features, targets, rng=None, max_features=None):
        targets = np.asarray(targets, dtype=np.float64)
        self._squeeze = targets.ndim == 1
        if self._squeeze:
            targets = targets[:, np.newaxis]
        return self._grow(_VarianceBuilder, features, targets, rng, max_features)

    def predict(self, features) -> np.ndarray:
        out = self._fitted().apply(np.asarray(features, dtype=np.float64))
        return out[:, 0] if self._squeeze else out


class _ForestBase:
    """Bootstrap ensemble scaffolding; subclasses define the base tree."""

    def __init__(self, n_trees=20, max_depth=None, min_leaf=1, bootstrap=True,
                 seed=0):
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees: list = []

    def _feature_count(self, n_features: int) -> int:
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
        if not self.bootstrap and self.n_trees == 1:
            max_features = None  # a single tree on all rows is a plain tree fit
        self.trees = [
            self._fit_one(i, features, targets, max_features)
            for i in range(self.n_trees)
        ]
        return self

    def _fitted_trees(self) -> list:
        if not self.trees:
            raise NotFitted("random forest used before fit")
        return self.trees

    def params_digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.seed).encode())
        for tree in self._fitted_trees():
            tree._tree.digest_into(h)
        return h.hexdigest()


class RandomForestClassifier(_ForestBase):
    """Majority vote over Gini trees; ceil(sqrt(d)) features per split."""

    def __init__(self, n_trees=20, max_depth=None, min_leaf=1, bootstrap=True,
                 seed=0, n_classes=None):
        super().__init__(n_trees, max_depth, min_leaf, bootstrap, seed)
        self.n_classes = n_classes

    def _feature_count(self, n_features):
        return int(np.ceil(np.sqrt(n_features)))

    def _new_tree(self):
        return DecisionTreeClassifier(
            max_depth=self.max_depth, min_leaf=self.min_leaf, n_classes=self._classes
        )

    def fit(self, features, labels):
        labels = np.asarray(labels, dtype=np.int64)
        self._classes = self.n_classes or int(labels.max(initial=-1)) + 1
        return super().fit(features, labels)

    def predict(self, features) -> np.ndarray:
        trees = self._fitted_trees()
        features = np.asarray(features, dtype=np.float64)
        votes = np.zeros((features.shape[0], self._classes), dtype=np.int64)
        for tree in trees:
            predictions = tree.predict(features)
            votes[np.arange(features.shape[0]), predictions] += 1
        return votes.argmax(axis=1)


class RandomForestRegressor(_ForestBase):
    """Mean over variance trees; ceil(d/3) features per split."""

    def _feature_count(self, n_features):
        return int(np.ceil(n_features / 3.0))

    def _new_tree(self):
        return DecisionTreeRegressor(max_depth=self.max_depth, min_leaf=self.min_leaf)

    def predict(self, features) -> np.ndarray:
        trees = self._fitted_trees()
        features = np.asarray(features, dtype=np.float64)
        stacked = np.stack([tree.predict(features) for tree in trees])
        return stacked.mean(axis=0)
