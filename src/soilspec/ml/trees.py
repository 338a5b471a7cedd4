"""CART decision trees and bootstrap random forests.

Trees grow greedily: each node takes the (feature, threshold) pair that
minimizes Gini impurity (classification) or summed squared error
(regression), with candidate thresholds at midpoints between consecutive
distinct sorted values. Ties prefer the first feature in evaluation order
and the smallest threshold, so training is fully deterministic.

One kernel, :func:`build`, grows every tree depth first. Every feature is
sorted once per tree (Breiman et al. 1984; Louppe 2014, section 5). A node's
row list is always ascending, so the root's stable sort orders each feature
by (value, row), and filtering it down to a node's rows keeps exactly the
order a stable sort of that node would give. Gini costs come from exact
int64 sums of squared class counts; squared-error costs from two cumulative
sums of the single target column.

Forests fit trees serially on bootstrap resamples with per-split feature
subsampling; every tree draws its own generator from the forest seed. When
a split draws one feature of d, ``rng.choice(d, 1, replace=False)`` makes a
single bounded draw on [0, d), the same draw as ``rng.integers(0, d)``, so
each tree takes those draws 256 at a time (`tests/test_ml.py` checks the
equivalence against ``choice``). A generator handed to ``fit`` is then left
further on than ``choice`` would leave it; a forest drops each tree's
generator after the fit. Other feature counts still call ``choice``.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadArgument, DimensionMismatch, EmptyTrainingSet, NotFitted
from ..seeding import make_rng, sha256_hex
from .neighbors import as_labels, check_finite, check_labels, check_lengths


class _Tree:
    """Flat-array binary tree shared by classifier and regressor variants."""

    __slots__ = ("feature", "threshold", "left", "right", "payload")

    def __init__(self, feature, threshold, left, right, payload) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.payload = payload

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

    def digest_parts(self) -> tuple[np.ndarray, ...]:
        return self.feature, self.threshold, self.left, self.right, self.payload


def _single_draws(rng, d: int):
    """The values of successive ``rng.choice(d, 1, replace=False)`` calls.

    For one of d features, ``choice`` makes one bounded draw on [0, d), as
    ``rng.integers(0, d)`` does, so 256 values are drawn per call.
    """
    while True:
        yield from rng.integers(0, d, size=256).tolist()


def build(features, targets, n_classes, max_depth, min_leaf, max_features, rng):
    """Grow one CART tree depth first.

    ``targets`` are int64 labels in [0, n_classes) for a Gini tree, or an
    (n,) float array for a squared-error tree (``n_classes`` None).
    """
    accumulate, count_nonzero = np.add.accumulate, np.count_nonzero
    n, d = features.shape
    min_leaf = max(1, int(min_leaf))
    max_depth = np.inf if max_depth is None else max_depth
    columns = np.ascontiguousarray(features.T)
    # Row counts left and right of each split position; a node of m rows
    # uses the first and the last m - 1 entries.
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = np.arange(n - 1, 0, -1, dtype=np.float64)
    classify = n_classes is not None
    if classify:
        # The root's class counts double as the label range check: bincount
        # rejects a negative label, and a label >= n_classes lengthens them.
        try:
            payload = np.bincount(targets, minlength=n_classes)
        except ValueError:
            payload = None
        if payload is None or payload.size != n_classes:
            check_labels(targets, n_classes)
        # uint8 keys turn the per-feature stable label sort into a radix sort
        keys = targets.astype(np.uint8) if n_classes <= 256 else targets
        pure = count_nonzero(payload) == 1
    else:
        payload = np.add.reduce(targets) / n
        # a NaN or inf target leaves the root mean non-finite
        if not np.isfinite(payload):
            check_finite(targets[:, np.newaxis], "tree target")
        pure = not count_nonzero(targets != targets[0])
    if max_features is not None and max_features < d:
        draws = _single_draws(rng, d) if max_features == 1 else None
    else:
        max_features = None
    # Per node; a leaf keeps feature -1. A split node's children are the
    # next two ids, so right = left + 1.
    feature, thresholds, left, payloads = [-1], [np.nan], [-1], [payload]
    # Explicit preorder stack of the nodes that may split: the per-node
    # feature draws follow this order. A node's `orders` holds d + 1 runs of
    # its m rows: run f by (value of feature f, row), run d ascending, so
    # leaf payloads keep their summation order.
    stack = []
    if max_depth > 0 and n >= 2 * min_leaf and not pure:
        orders = np.empty((d + 1, n), dtype=np.int64)
        orders[:d] = np.argsort(columns, axis=1, kind="stable")
        # NaN sorts last and -inf first: a non-finite value shows at an end
        ends = np.take_along_axis(columns, orders[:d, [0, -1]], axis=1)
        if not np.isfinite(ends).all():
            check_finite(features, "tree feature")
        orders[d] = np.arange(n)
        stack.append((0, orders.ravel(), 0, payload))
    else:
        check_finite(features, "tree feature")
    while stack:
        node, orders, depth, total = stack.pop()
        m = orders.size // (d + 1)
        if max_features is None:
            candidates = range(d)
        elif draws is not None:
            candidates = (next(draws),)
        else:
            candidates = rng.choice(d, max_features, replace=False)
        left_count, right_count = n_left[: m - 1], n_right[n - m :]
        if classify:
            # Sums of squared class counts are integers, exact in int64 and
            # float64. A row of class c moving left, after r rows of its
            # class, adds 2r + 1 to sum_l^2 and 2r + 1 - 2 T_c to sum_r^2
            # (T: the node's class counts). The sums are kept negated.
            total_sq = total @ total
            rank = np.arange(m) - (total.cumsum() - total).repeat(total)
            left_steps = -2 * rank - 1
            right_steps = left_steps + 2 * total.repeat(total)
            moves = np.empty((2, m), dtype=np.int64)
            left_moves, right_moves = moves
        best_cost, best = np.inf, None
        for feat in candidates:
            order = orders[feat * m : (feat + 1) * m]
            xs = columns[feat][order]
            if classify:
                by_class = keys[order].argsort(kind="stable")
                left_moves[by_class] = left_steps
                right_moves[by_class] = right_steps
                sums = accumulate(moves, axis=1)
                # weighted Gini - m = -(sum_l^2/n_l + sum_r^2/n_r)
                left_sq, right_sq = sums[0, :-1], sums[1, :-1] - total_sq
                costs = left_sq / left_count + right_sq / right_count
            else:
                # summed squared error left plus right
                t = targets[order]
                s1 = accumulate(t)
                s2 = accumulate(t * t)
                head, head_sq = s1[:-1], s2[:-1]
                tail = s1[-1] - head
                costs = (head_sq - head * head / left_count) + (
                    (s2[-1] - head_sq) - tail * tail / right_count
                )
            # costs[i]: i + 1 rows go left. Valid only between two distinct
            # values and with min_leaf rows on each side.
            costs[~(xs[1:] > xs[:-1])] = np.inf
            if min_leaf > 1:
                costs[: min_leaf - 1] = np.inf
                costs[m - min_leaf :] = np.inf
            pos = costs.argmin()
            if costs[pos] < best_cost:
                best_cost = costs[pos]
                best = (int(feat), float((xs[pos] + xs[pos + 1]) / 2.0))
        if best is None:
            continue
        feat, threshold = best
        # Not the first pos + 1 rows of run feat: a midpoint can round up
        # onto the next distinct value, which then goes left too.
        in_left = columns[feat][orders] <= threshold
        left_orders = orders.compress(in_left)
        right_orders = orders.compress(~in_left)
        left_m = left_orders.size // (d + 1)
        if left_m == 0 or left_m == m:
            continue
        child = len(payloads)
        feature[node], thresholds[node], left[node] = feat, threshold, child
        feature += (-1, -1)
        thresholds += (np.nan, np.nan)
        left += (-1, -1)
        left_rows = left_orders[d * left_m :]
        right_rows = right_orders[d * (m - left_m) :]
        if classify:
            left_payload = np.bincount(targets[left_rows], minlength=n_classes)
            right_payload = total - left_payload
        else:
            left_targets = targets.take(left_rows)
            right_targets = targets.take(right_rows)
            left_payload = np.add.reduce(left_targets) / left_m
            right_payload = np.add.reduce(right_targets) / (m - left_m)
        payloads += (left_payload, right_payload)
        if depth + 1 >= max_depth:
            continue
        if m - left_m >= 2 * min_leaf:
            if classify:
                pure = count_nonzero(right_payload) == 1
            else:
                pure = not count_nonzero(right_targets != right_targets[0])
            if not pure:
                stack.append((child + 1, right_orders, depth + 1, right_payload))
        if left_m >= 2 * min_leaf:
            if classify:
                pure = count_nonzero(left_payload) == 1
            else:
                pure = not count_nonzero(left_targets != left_targets[0])
            if not pure:
                stack.append((child, left_orders, depth + 1, left_payload))
    left = np.array(left, dtype=np.int64)
    return _Tree(
        np.array(feature, dtype=np.int64),
        np.array(thresholds, dtype=np.float64),
        left,
        np.where(left >= 0, left + 1, -1),
        np.array(payloads, dtype=np.float64).reshape(left.size, -1),
    )


class _DecisionTree:
    """Fit guard, fitted check and digest shared by the two CART learners."""

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._tree: _Tree | None = None

    def _grow(self, features, targets, n_classes, rng, max_features):
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.shape[0] == 0:
            raise EmptyTrainingSet("tree fitted with no training rows")
        check_lengths(features, targets, "tree training")
        self._tree = build(features, targets, n_classes, self.max_depth,
                           self.min_leaf, max_features, rng)
        return self

    def _fitted(self) -> _Tree:
        if self._tree is None:
            raise NotFitted("decision tree used before fit")
        return self._tree

    def params_digest(self) -> str:
        return sha256_hex(*self._fitted().digest_parts())


class DecisionTreeClassifier(_DecisionTree):
    """Greedy Gini CART classifier over integer class labels."""

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1,
                 n_classes: int | None = None):
        super().__init__(max_depth, min_leaf)
        self.n_classes = n_classes

    def fit(self, features, labels, rng=None, max_features=None):
        labels = as_labels(labels)
        n_classes = self.n_classes or int(labels.max(initial=-1)) + 1
        return self._grow(features, labels, n_classes, rng, max_features)

    def predict_counts(self, features) -> np.ndarray:
        return self._fitted().apply(np.asarray(features, dtype=np.float64))

    def predict(self, features) -> np.ndarray:
        return self.predict_counts(features).argmax(axis=1)


class DecisionTreeRegressor(_DecisionTree):
    """Greedy variance-reduction CART regressor over one target column; leaf
    predicts the mean."""

    def fit(self, features, targets, rng=None, max_features=None):
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim > 1:
            raise DimensionMismatch(f"tree targets must be 1-D, got {targets.shape}")
        return self._grow(features, targets, None, rng, max_features)

    def predict(self, features) -> np.ndarray:
        return self._fitted().apply(np.asarray(features, dtype=np.float64))[:, 0]


class _ForestBase:
    """Bootstrap ensemble scaffolding; subclasses define the base tree."""

    def __init__(self, n_trees=20, max_depth=None, min_leaf=1, seed=0):
        if n_trees < 1:
            raise BadArgument(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.seed = seed
        self.trees: list = []

    def _feature_count(self, n_features: int) -> int:
        raise NotImplementedError

    def _new_tree(self):
        raise NotImplementedError

    def _fit_one(self, index, features, targets, max_features):
        rng = make_rng(self.seed, index)
        rows = rng.integers(0, features.shape[0], size=features.shape[0])
        rows.sort()  # stable row ordering keeps split tie-breaks canonical
        tree = self._new_tree()
        tree.fit(features[rows], targets[rows], rng=rng, max_features=max_features)
        return tree

    def fit(self, features, targets):
        features = np.ascontiguousarray(features, dtype=np.float64)
        targets = np.asarray(targets)
        if features.shape[0] == 0:
            raise EmptyTrainingSet("forest fitted with no training rows")
        check_lengths(features, targets, "forest training")
        # Once per forest, naming rows of the caller's data; each tree's own
        # check is then only a look at its root sort and root mean.
        check_finite(features, "forest feature")
        check_finite(targets.reshape(targets.shape[0], -1), "forest target")
        max_features = self._feature_count(features.shape[1])
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
        parts = [p for tree in self._fitted_trees() for p in tree._tree.digest_parts()]
        return sha256_hex(str(self.seed).encode(), *parts)


class RandomForestClassifier(_ForestBase):
    """Majority vote over Gini trees; ceil(sqrt(d)) features per split."""

    def __init__(self, n_trees=20, max_depth=None, min_leaf=1, seed=0,
                 n_classes=None):
        super().__init__(n_trees, max_depth, min_leaf, seed)
        self.n_classes = n_classes

    def _feature_count(self, n_features):
        return int(np.ceil(np.sqrt(n_features)))

    def _new_tree(self):
        return DecisionTreeClassifier(
            max_depth=self.max_depth, min_leaf=self.min_leaf, n_classes=self._classes
        )

    def fit(self, features, labels):
        labels = as_labels(labels)
        self._classes = self.n_classes or int(labels.max(initial=-1)) + 1
        check_labels(labels, self._classes)
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
