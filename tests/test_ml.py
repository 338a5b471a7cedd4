import hashlib
import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilspec
from soilspec.errors import (
    ClassTooSmall,
    ConstantTruth,
    DimensionMismatch,
    EmptyTrainingSet,
    KTooLarge,
    LabelOutOfRange,
    LengthMismatch,
    NotFitted,
    NumericalFailure,
)
from soilspec.ml import neighbors, trees
from soilspec.ml.knn import KnnClassifier, KnnRegressor
from soilspec.ml.metrics import classification_metrics, regression_metrics
from soilspec.ml.smote import smote
from soilspec.ml.trees import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from soilspec.ml.neighbors import build_tree, k_nearest
from soilspec.seeding import derive_seed


def brute_force_neighbors(train_x, q, k, exclude=None):
    """Independent linear-scan ranking by (distance, index), minus `exclude`."""
    d2 = np.sum((train_x - q) ** 2, axis=1)
    rows = [j for j in range(train_x.shape[0]) if j != exclude]
    return sorted(rows, key=lambda j: (d2[j], j))[:k]


def brute_force_knn(train_x, train_y, queries, k, vote):
    """Independent linear-scan reference: sort by (distance, index)."""
    out = []
    for q in queries:
        ranked = brute_force_neighbors(train_x, q, k)
        targets = train_y[ranked]
        if vote:
            counts = np.bincount(targets, minlength=int(train_y.max()) + 1)
            out.append(int(np.flatnonzero(counts == counts.max())[0]))
        else:
            out.append(targets.mean(axis=0))
    return np.array(out)


def reference_tree(features, targets, n_classes=None, max_depth=None, min_leaf=1,
                   max_features=None, rng=None):
    """Per-node CART reference: a stable argsort of every candidate feature at
    every node and Gini costs from cumulative one-hot class counts. Returns
    the (feature, threshold, left, right, payload) arrays a fitted tree keeps.
    """
    classify = n_classes is not None
    if not classify and targets.ndim == 1:
        targets = targets[:, np.newaxis]
    n, d = features.shape

    def payload(t):
        if classify:
            return np.bincount(t, minlength=n_classes).astype(np.float64)
        return t.mean(axis=0)

    def costs(t):
        m = t.shape[0]
        n_left = np.arange(1, m, dtype=np.float64)
        if classify:
            onehot = np.zeros((m, n_classes))
            onehot[np.arange(m), t] = 1.0
            left = np.cumsum(onehot, axis=0)[:-1]
            right = onehot.sum(axis=0) - left
            return -(
                (left**2).sum(axis=1) / n_left + (right**2).sum(axis=1) / (m - n_left)
            )
        n_left = n_left[:, np.newaxis]
        s1 = np.cumsum(t, axis=0)
        s2 = np.cumsum(t**2, axis=0)
        sse_left = s2[:-1] - s1[:-1] ** 2 / n_left
        sse_right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / (m - n_left)
        return (sse_left + sse_right).sum(axis=1)

    feature, threshold, left, right = [-1], [np.nan], [-1], [-1]
    payloads = [payload(targets)]
    stack = [(0, np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        t = targets[rows]
        if (max_depth is not None and depth >= max_depth) or rows.size < 2 * min_leaf:
            continue
        if (t == t[0]).all():
            continue
        if max_features is None or max_features >= d:
            candidates = range(d)
        else:
            candidates = rng.choice(d, max_features, replace=False)
        best_cost, best = np.inf, None
        positions = np.arange(1, rows.size)
        for f in candidates:
            order = rows[np.argsort(features[rows, f], kind="stable")]
            xs = features[order, f]
            valid = (
                (xs[1:] > xs[:-1])
                & (positions >= min_leaf)
                & (rows.size - positions >= min_leaf)
            )
            if not valid.any():
                continue
            c = np.where(valid, costs(targets[order]), np.inf)
            pos = int(np.argmin(c))
            if c[pos] < best_cost:
                best_cost, best = c[pos], (int(f), float((xs[pos] + xs[pos + 1]) / 2))
        if best is None:
            continue
        f, thr = best
        go_left = features[rows, f] <= thr
        if go_left.all() or not go_left.any():
            continue
        feature[node], threshold[node] = f, thr
        left[node], right[node] = len(feature), len(feature) + 1
        for child in (rows[go_left], rows[~go_left]):
            feature.append(-1)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
            payloads.append(payload(targets[child]))
        stack.append((right[node], rows[~go_left], depth + 1))
        stack.append((left[node], rows[go_left], depth + 1))
    return (
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.stack(payloads),
    )


def reference_forest(features, targets, n_trees, seed, max_features, **tree_args):
    """Bootstrap trees as the forest draws them, each from the reference."""
    n = features.shape[0]
    trees = []
    for i in range(n_trees):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, i)))
        rows = np.sort(rng.integers(0, n, size=n))
        trees.append(
            reference_tree(features[rows], targets[rows], rng=rng,
                           max_features=max_features, **tree_args)
        )
    return trees


def reference_digest(trees, seed=None):
    h = hashlib.sha256()
    if seed is not None:
        h.update(str(seed).encode())
    for arrays in trees:
        for array in arrays:
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def assert_tree_matches(model, expected):
    got = model._tree
    for name, want in zip(("feature", "threshold", "left", "right", "payload"), expected):
        assert np.array_equal(getattr(got, name), want, equal_nan=True), name
    assert model.params_digest() == reference_digest([expected])


def oracle_features(rng, case, n, d):
    """Continuous, grid (many ties), duplicated rows, or adjacent floats whose
    midpoint rounds up onto the larger value."""
    kind = case % 4
    if kind == 0:
        return rng.normal(0, 1, (n, d))
    if kind == 1:
        return rng.integers(0, 4, (n, d)) * 0.5
    if kind == 2:
        base = rng.normal(0, 1, (n // 3 + 1, d))
        return base[rng.integers(0, len(base), n)]
    X = rng.integers(0, 3, (n, d)) * 0.5
    X[:, 0] = np.array([1.0, np.nextafter(1.0, 2.0), 3.0])[rng.integers(0, 3, n)]
    return X


class TestKnn:
    def test_k1_exact_match(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        y = np.array([3, 1, 7])
        model = KnnClassifier(k=1).fit(X, y)
        assert model.predict(np.array([[1.0, 1.0]]))[0] == 1

    def test_k_equals_n_regression_global_mean(self):
        rng = np.random.default_rng(50)
        X = rng.normal(0, 1, (40, 3))
        y = rng.normal(0, 1, (40, 3))
        model = KnnRegressor(k=40).fit(X, y)
        pred = model.predict(rng.normal(0, 1, (5, 3)))
        assert np.allclose(pred, y.mean(axis=0), atol=1e-12)

    def test_classifier_oracle(self):
        rng = np.random.default_rng(51)
        X = rng.normal(0, 1, (300, 4))
        y = rng.integers(0, 5, 300)
        queries = rng.normal(0, 1, (80, 4))
        model = KnnClassifier(k=7).fit(X, y)
        assert np.array_equal(
            model.predict(queries), brute_force_knn(X, y, queries, 7, vote=True)
        )

    def test_regressor_oracle(self):
        rng = np.random.default_rng(52)
        X = rng.normal(0, 1, (250, 3))
        y = rng.normal(0, 1, (250, 2))
        queries = rng.normal(0, 1, (60, 3))
        model = KnnRegressor(k=5).fit(X, y)
        assert np.array_equal(
            model.predict(queries), brute_force_knn(X, y, queries, 5, vote=False)
        )

    def test_oracle_with_duplicates(self):
        # duplicated training points force distance ties; index breaks them
        X = np.zeros((6, 2))
        X[3:] = 1.0
        y = np.array([4, 2, 0, 1, 1, 3])
        queries = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        model = KnnClassifier(k=3).fit(X, y)
        assert np.array_equal(
            model.predict(queries), brute_force_knn(X, y, queries, 3, vote=True)
        )

    def test_vote_tie_smallest_class(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([5, 1])
        model = KnnClassifier(k=2).fit(X, y)
        assert model.predict(np.array([[0.0]]))[0] == 1

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            KnnClassifier(k=4).fit(np.zeros((3, 2)), np.zeros(3, dtype=int))

    def test_empty_training(self):
        with pytest.raises(EmptyTrainingSet):
            KnnClassifier(k=1).fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("case", range(40))
    def test_randomized_oracle(self, case):
        # dims 1..13; continuous, grid (many ties) and duplicated rows;
        # k from 1 to n_train
        rng = np.random.default_rng(1000 + case)
        dim = case % 13 + 1
        n = int(rng.integers(2, 120))
        kind = case % 3
        if kind == 0:
            X = rng.normal(0, 1, (n, dim))
        elif kind == 1:
            X = rng.integers(-2, 3, (n, dim)) * 0.25
        else:
            base = rng.normal(0, 1, (n // 4 + 1, dim))
            X = base[rng.integers(0, len(base), n)]
        k = (1, n, int(rng.integers(1, n + 1)))[case // 3 % 3]
        queries = np.vstack(
            [X[rng.integers(0, n, 10)], rng.integers(-2, 3, (10, dim)) * 0.5]
        )
        y = rng.integers(0, 4, n)
        targets = rng.normal(0, 1, (n, 2))
        classifier = KnnClassifier(k=k).fit(X, y)
        expected = np.array([brute_force_neighbors(X, q, k) for q in queries])
        assert np.array_equal(classifier._neighbor_indices(queries), expected)
        assert np.array_equal(
            classifier.predict(queries), brute_force_knn(X, y, queries, k, vote=True)
        )
        regressor = KnnRegressor(k=k).fit(X, targets)
        assert np.array_equal(
            regressor.predict(queries),
            brute_force_knn(X, targets, queries, k, vote=False),
        )

    @pytest.mark.parametrize("learner", [KnnClassifier, KnnRegressor])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_named(self, learner, bad):
        X = np.zeros((5, 2))
        X[3, 1] = bad
        y = np.zeros(5, dtype=int)
        with pytest.raises(NumericalFailure, match="row 3"):
            learner(k=1).fit(X, y)
        model = learner(k=1).fit(np.zeros((5, 2)), y)
        queries = np.zeros((4, 2))
        queries[2, 0] = bad
        with pytest.raises(NumericalFailure, match="row 2"):
            model.predict(queries)

    def test_params_digest_before_fit(self):
        with pytest.raises(NotFitted):
            KnnRegressor(k=1).params_digest()

    @pytest.mark.parametrize("learner", [KnnClassifier, KnnRegressor])
    def test_predict_before_fit(self, learner):
        with pytest.raises(NotFitted):
            learner(k=1).predict(np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (4,), (2, 2, 2)])
    def test_query_column_count_checked(self, shape):
        model = KnnRegressor(k=1).fit(np.zeros((5, 2)), np.zeros(5))
        with pytest.raises(DimensionMismatch, match="need 2 columns"):
            model.predict(np.zeros(shape))

    @pytest.mark.parametrize("learner", [KnnClassifier, KnnRegressor])
    @pytest.mark.parametrize("shape", [(5,), (5, 2, 1), ()])
    def test_training_features_must_be_2d(self, learner, shape):
        with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
            learner(k=1).fit(np.zeros(shape), np.zeros(5, dtype=int))


class TestNeighborSearch:
    """k_nearest against the linear scan where the first fixed-width round
    cannot resolve every query."""

    class CountingTree:
        """A KD-tree that counts its queries and their widths."""

        def __init__(self, points):
            self.tree = build_tree(points)
            self.data = self.tree.data
            self.widths = []

        def query(self, queries, k):
            self.widths.append(len(k))
            return self.tree.query(queries, k=k)

    def expected(self, points, queries, k):
        if queries is None:
            return np.array([brute_force_neighbors(points, p, k, exclude=i)
                             for i, p in enumerate(points)])
        return np.array([brute_force_neighbors(points, q, k) for q in queries])

    @pytest.mark.parametrize("self_query", [True, False], ids=["self", "external"])
    def test_fifty_copies_widen_the_query(self, self_query):
        points = np.vstack([np.full((50, 2), 0.5), [[0.0, 0.0], [3.0, 1.0]]])
        external = np.array([[0.5, 0.5], [0.4, 0.5], [9.0, 9.0]])
        queries = None if self_query else external
        tree = self.CountingTree(points)
        got = k_nearest(tree, 1, queries)
        assert np.array_equal(got, self.expected(points, queries, 1))
        assert len(tree.widths) > 1 and tree.widths[-1] > tree.widths[0]

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                      min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=2, max_size=90),
        k=st.integers(1, 12),
        self_query=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_heavy_duplication_matches_the_scan(self, base, picks, k, self_query,
                                                seed):
        base = np.array(base, dtype=np.float64) * 0.25
        points = base[[p % len(base) for p in picks]]
        n = points.shape[0]
        rng = np.random.default_rng(seed)
        if self_query:
            queries, k = None, min(k, n - 1)
        else:
            k = min(k, n)
            queries = np.vstack([points[rng.integers(0, n, 4)],
                                 rng.integers(-3, 4, (4, 2)) * 0.125])
        got = k_nearest(build_tree(points), k, queries)
        assert np.array_equal(got, self.expected(points, queries, k))

    @pytest.mark.parametrize("cells", [1, 7, 60])
    @pytest.mark.parametrize("self_query", [True, False], ids=["self", "external"])
    def test_chunked_rounds_match_the_scan(self, monkeypatch, cells, self_query):
        rng = np.random.default_rng(11)
        points = rng.integers(0, 3, (120, 2)) * 0.5  # 9 distinct points
        queries = None if self_query else rng.integers(-1, 4, (30, 2)) * 0.5
        monkeypatch.setattr(neighbors, "_CHUNK_CELLS", cells)
        tree = self.CountingTree(points)
        got = k_nearest(tree, 4, queries)
        assert np.array_equal(got, self.expected(points, queries, 4))
        assert len(tree.widths) > len(set(tree.widths)) > 1

    def test_tied_rows_stay_in_bounded_memory(self):
        # 3,000 identical rows: the last round asks every query for every
        # row, which took about 480 MB when a round ran in one piece. VmHWM
        # is the peak since exec; ru_maxrss would count the forking parent's.
        probe = (
            "import numpy as np; from soilspec.ml.knn import KnnClassifier\n"
            "X = np.zeros((3000, 2)); y = np.zeros(3000, dtype=int)\n"
            "KnnClassifier(k=5).fit(X, y).predict(X)\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(int(status.split()[0]) // 1024)"
        )
        src = str(Path(soilspec.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 200  # MB, about 70 of them the interpreter


class TestDecisionTree:
    @pytest.mark.parametrize(
        "learner, method",
        [
            (DecisionTreeClassifier, "predict"),
            (DecisionTreeClassifier, "predict_counts"),
            (DecisionTreeClassifier, "params_digest"),
            (DecisionTreeRegressor, "predict"),
            (DecisionTreeRegressor, "params_digest"),
        ],
    )
    def test_use_before_fit(self, learner, method):
        args = () if method == "params_digest" else (np.zeros((2, 2)),)
        with pytest.raises(NotFitted):
            getattr(learner(), method)(*args)

    def test_separable_one_feature(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = DecisionTreeClassifier().fit(X, y)
        assert np.array_equal(model.predict(X), y)
        assert (model._tree.feature >= 0).sum() == 1  # single split suffices

    def test_constant_target_single_leaf(self):
        rng = np.random.default_rng(53)
        X = rng.normal(0, 1, (30, 4))
        y = np.full(30, 2.5)
        model = DecisionTreeRegressor().fit(X, y)
        assert len(model._tree.feature) == 1
        assert np.allclose(model.predict(X), 2.5)

    def test_memorizes_distinct_points(self):
        rng = np.random.default_rng(54)
        X = rng.uniform(0, 1, (60, 3))
        y = rng.integers(0, 4, 60)
        model = DecisionTreeClassifier().fit(X, y)
        assert np.array_equal(model.predict(X), y)
        targets = rng.normal(0, 1, 60)
        reg = DecisionTreeRegressor().fit(X, targets)
        assert np.allclose(reg.predict(X), targets, atol=1e-12)

    def test_training_loss_nonincreasing_with_depth(self):
        rng = np.random.default_rng(55)
        X = rng.uniform(0, 1, (200, 3))
        y = rng.integers(0, 3, 200)
        errors = []
        for depth in range(1, 9):
            model = DecisionTreeClassifier(max_depth=depth).fit(X, y)
            errors.append(int((model.predict(X) != y).sum()))
        assert all(b <= a for a, b in zip(errors, errors[1:]))

        targets = rng.normal(0, 1, 200)
        sses = []
        for depth in range(1, 9):
            reg = DecisionTreeRegressor(max_depth=depth).fit(X, targets)
            sses.append(float(((reg.predict(X) - targets) ** 2).sum()))
        assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(56)
        X = rng.uniform(0, 1, (100, 2))
        y = rng.integers(0, 2, 100)
        model = DecisionTreeClassifier(min_leaf=7).fit(X, y)
        tree = model._tree
        leaves = np.flatnonzero(tree.feature < 0)
        assert np.all(tree.payload[leaves].sum(axis=1) >= 7)

    @pytest.mark.parametrize("shape", [(80, 1), (80, 3)])
    def test_regressor_takes_one_target_column(self, shape):
        X = np.random.default_rng(57).uniform(0, 1, (80, 2))
        with pytest.raises(DimensionMismatch, match=rf"\({shape[0]}, {shape[1]}\)"):
            DecisionTreeRegressor().fit(X, np.zeros(shape))


class TestPresortedOracle:
    """The presorted builder against the per-node reference, bit for bit."""

    @pytest.mark.parametrize("case", range(48))
    def test_trees_match_reference(self, case):
        rng = np.random.default_rng(2000 + case)
        d = case % 13 + 1
        n = int(rng.integers(2, 260))
        X = oracle_features(rng, case, n, d)
        n_classes = int(rng.integers(2, 41))
        y = rng.integers(0, n_classes, n)
        # targets on a 0.1 grid tie in value
        t = np.round(rng.normal(0, 1, n), 1)
        args = {
            "max_depth": None if case % 3 else int(rng.integers(1, 8)),
            "min_leaf": int(rng.integers(1, 5)),
        }
        model = DecisionTreeClassifier(n_classes=n_classes, **args).fit(X, y)
        assert_tree_matches(model, reference_tree(X, y, n_classes, **args))
        model = DecisionTreeRegressor(**args).fit(X, t)
        assert_tree_matches(model, reference_tree(X, t, **args))

    @pytest.mark.parametrize("case", range(16))
    def test_forests_match_reference(self, case):
        rng = np.random.default_rng(3000 + case)
        d = case % 13 + 1
        n = int(rng.integers(2, 200))
        X = oracle_features(rng, case, n, d)
        n_classes = int(rng.integers(2, 41))
        y = rng.integers(0, n_classes, n)
        t = np.round(rng.normal(0, 1, n), 1)
        args = {
            "max_depth": None if case % 3 else int(rng.integers(1, 8)),
            "min_leaf": int(rng.integers(1, 5)),
        }
        forest = RandomForestClassifier(
            n_trees=3, seed=case, n_classes=n_classes, **args
        ).fit(X, y)
        expected = reference_forest(
            X, y, 3, case, int(np.ceil(np.sqrt(d))), n_classes=n_classes, **args
        )
        for tree, arrays in zip(forest.trees, expected, strict=True):
            assert_tree_matches(tree, arrays)
        assert forest.params_digest() == reference_digest(expected, seed=case)
        forest = RandomForestRegressor(n_trees=3, seed=case, **args).fit(X, t)
        expected = reference_forest(X, t, 3, case, int(np.ceil(d / 3)), **args)
        for tree, arrays in zip(forest.trees, expected, strict=True):
            assert_tree_matches(tree, arrays)
        assert forest.params_digest() == reference_digest(expected, seed=case)

    @pytest.mark.parametrize("n, n_classes", [(3000, 12), (900, 300)])
    def test_large_nodes_and_many_classes(self, n, n_classes):
        # a benchmark-sized 2-D node set, and more classes than a uint8 holds
        rng = np.random.default_rng(n_classes)
        X = np.round(rng.normal(0, 1, (n, 2)), 2)
        y = (rng.integers(0, n_classes, n) + (X[:, 0] > 0) * 7) % n_classes
        model = DecisionTreeClassifier(n_classes=n_classes).fit(X, y)
        assert_tree_matches(model, reference_tree(X, y, n_classes))


class TestFeatureDraws:
    @pytest.mark.parametrize("d", range(2, 14))
    def test_chunked_draws_equal_successive_choice_calls(self, d):
        # after a forest's bootstrap draw, over more than two chunks of 256
        for seed in range(4):
            streams = []
            for _ in range(2):
                rng = np.random.Generator(np.random.PCG64(derive_seed(seed, d)))
                rng.integers(0, 97, size=97)
                streams.append(rng)
            chunked, reference = streams
            got = list(itertools.islice(trees._single_draws(chunked, d), 700))
            want = [int(reference.choice(d, 1, replace=False)[0]) for _ in range(700)]
            assert got == want


class TestTreeFitCalls:
    @pytest.mark.parametrize(
        "forest, tree, labels",
        [
            (RandomForestClassifier, DecisionTreeClassifier, True),
            (RandomForestRegressor, DecisionTreeRegressor, False),
        ],
    )
    def test_forest_fits_each_tree_through_its_fit(self, monkeypatch, forest, tree,
                                                   labels):
        # per-tree instrumentation wraps the tree classes' fit, as a caller
        # sees it, and reads each fitted tree's node arrays
        calls = []
        original = tree.fit

        def counting_fit(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(tree, "fit", counting_fit)
        rng = np.random.default_rng(70)
        X = rng.normal(0, 1, (80, 4))
        y = rng.integers(0, 3, 80) if labels else rng.normal(0, 1, 80)
        model = forest(n_trees=5, seed=2).fit(X, y)
        assert calls == model.trees
        for fitted in model.trees:
            assert fitted._tree.feature.dtype == np.int64
            assert fitted._tree.feature.size >= 1


class TestLabelRange:
    @pytest.mark.parametrize("bad, row", [(5, 7), (-1, 3)])
    @pytest.mark.parametrize(
        "model",
        [lambda: DecisionTreeClassifier(n_classes=3),
         lambda: RandomForestClassifier(n_trees=2, n_classes=3)],
        ids=["tree", "forest"],
    )
    def test_label_outside_class_range(self, model, bad, row):
        X = np.arange(20.0)[:, np.newaxis]
        y = np.arange(20) % 3
        y[row] = bad
        y[row + 5] = bad
        with pytest.raises(LabelOutOfRange, match=rf"label {bad} at row {row} "):
            model().fit(X, y)

    @pytest.mark.parametrize(
        "model",
        [DecisionTreeClassifier, lambda: RandomForestClassifier(n_trees=2)],
        ids=["tree", "forest"],
    )
    def test_fractional_float_label_names_the_row(self, model):
        # the int64 cast alone would fit these as [0, 0, 1, 1, 2, 2]
        with pytest.raises(LabelOutOfRange,
                           match=r"label 0\.5 at row 1 is not a whole number"):
            model().fit(np.arange(6.0)[:, np.newaxis], [0, 0.5, 1.7, 1, 2.9, 2])

    @pytest.mark.parametrize(
        "model",
        [DecisionTreeClassifier, lambda: RandomForestClassifier(n_trees=2)],
        ids=["tree", "forest"],
    )
    def test_whole_float_labels_fit_as_integers(self, model):
        X = np.arange(6.0)[:, np.newaxis]
        y = np.array([0, 0, 1, 1, 2, 2])
        floats = model().fit(X, y.astype(np.float64)).predict(X)
        assert np.array_equal(floats, model().fit(X, y).predict(X))

    @pytest.mark.parametrize(
        "model",
        [DecisionTreeRegressor, lambda: RandomForestRegressor(n_trees=2)],
        ids=["tree", "forest"],
    )
    def test_regressors_keep_fractional_targets(self, model):
        X = np.arange(6.0)[:, np.newaxis]
        y = np.array([0, 0.5, 1.7, 1, 2.9, 2])
        predicted = model().fit(X, y).predict(X)
        assert not np.array_equal(predicted, np.trunc(predicted))

    def test_negative_label_without_class_count(self):
        with pytest.raises(LabelOutOfRange, match="label -2 at row 1 "):
            DecisionTreeClassifier().fit(np.zeros((3, 1)), [0, -2, 1])

    def test_knn_negative_label_names_the_row(self):
        # the int64 labels alone would let -1 vote for the last class
        with pytest.raises(LabelOutOfRange, match="label -1 at row 1 "):
            KnnClassifier(k=1).fit(np.zeros((3, 1)), [0, -1, 1])

    def test_knn_fractional_float_label_names_the_row(self):
        # the int64 cast alone would fit 1.7 as class 1
        with pytest.raises(LabelOutOfRange,
                           match=r"label 1\.7 at row 2 is not a whole number"):
            KnnClassifier(k=1).fit(np.arange(4.0)[:, np.newaxis], [0, 1, 1.7, 2])

    def test_knn_whole_float_labels_fit_as_integers(self):
        X = np.arange(6.0)[:, np.newaxis]
        y = np.array([0, 0, 1, 1, 2, 2])
        floats = KnnClassifier(k=3).fit(X, y.astype(np.float64))
        ints = KnnClassifier(k=3).fit(X, y)
        assert np.array_equal(floats.predict(X + 0.4), ints.predict(X + 0.4))
        assert floats.params_digest() == ints.params_digest()

    def test_forest_checks_labels_once(self, monkeypatch):
        checks = []
        original = trees.check_labels

        def counting(labels, n_classes):
            checks.append(labels.size)
            original(labels, n_classes)

        monkeypatch.setattr(trees, "check_labels", counting)
        rng = np.random.default_rng(71)
        RandomForestClassifier(n_trees=4, n_classes=3).fit(
            rng.normal(0, 1, (30, 2)), rng.integers(0, 3, 30)
        )
        assert checks == [30]


class TestLengthMismatch:
    @pytest.mark.parametrize(
        "fit",
        [
            lambda X, y: smote(X, y),
            lambda X, y: KnnClassifier(k=1).fit(X, y),
            lambda X, y: KnnRegressor(k=1).fit(X, y),
            lambda X, y: DecisionTreeClassifier().fit(X, y),
            lambda X, y: DecisionTreeRegressor().fit(X, y),
            lambda X, y: RandomForestClassifier(n_trees=2).fit(X, y),
            lambda X, y: RandomForestRegressor(n_trees=2).fit(X, y),
        ],
        ids=["smote", "knn-classifier", "knn-regressor", "tree-classifier",
             "tree-regressor", "forest-classifier", "forest-regressor"],
    )
    @pytest.mark.parametrize("targets", [5, 12])
    def test_targets_counted_against_rows(self, fit, targets):
        X = np.arange(20.0).reshape(10, 2)
        y = np.arange(targets) % 2
        with pytest.raises(LengthMismatch, match=rf"10 feature rows but {targets} "):
            fit(X, y)

    def test_multi_output_targets_count_rows(self):
        with pytest.raises(LengthMismatch, match="5 feature rows but 4 targets"):
            KnnRegressor(k=1).fit(np.zeros((5, 2)), np.zeros((4, 3)))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_scalar_target_is_not_one_per_row(self, rows):
        with pytest.raises(LengthMismatch, match=f"{rows} feature rows but scalar"):
            KnnRegressor(k=1).fit(np.zeros((rows, 2)), 5.0)


class TestNonFinite:
    # a NaN used to give a one-leaf tree predicting NaN, or to route its row
    # right at every split, without a word
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "model, what",
        [(DecisionTreeRegressor, "tree"),
         (lambda: RandomForestRegressor(n_trees=3), "forest"),
         (DecisionTreeClassifier, "tree"),
         (lambda: RandomForestClassifier(n_trees=3), "forest")],
        ids=["tree-reg", "forest-reg", "tree-clf", "forest-clf"],
    )
    def test_non_finite_feature_names_the_row(self, model, what, bad):
        X = np.arange(40.0).reshape(20, 2)
        X[6, 1] = bad
        with pytest.raises(NumericalFailure, match=f"{what} feature row 6 "):
            model().fit(X, np.arange(20) % 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "model, what",
        [(DecisionTreeRegressor, "tree target"),
         (lambda: RandomForestRegressor(n_trees=3), "forest target"),
         (DecisionTreeClassifier, "label"),
         (lambda: RandomForestClassifier(n_trees=3), "label")],
        ids=["tree-reg", "forest-reg", "tree-clf", "forest-clf"],
    )
    def test_non_finite_target_names_the_row(self, model, what, bad):
        y = (np.arange(20) % 3).astype(np.float64)
        y[11] = bad
        with pytest.raises(NumericalFailure, match=f"{what} row 11 "):
            model().fit(np.arange(20.0)[:, np.newaxis], y)

    @pytest.mark.parametrize(
        "model, kwargs",
        [(DecisionTreeClassifier, {}), (DecisionTreeRegressor, {}),
         (DecisionTreeClassifier, {"max_depth": 0}),
         (DecisionTreeRegressor, {"min_leaf": 20})],
    )
    def test_unsplit_root_still_checks_features(self, model, kwargs):
        # a pure or unsplittable root never sorts its features
        X = np.arange(20.0)[:, np.newaxis]
        X[3] = np.nan
        with pytest.raises(NumericalFailure, match="tree feature row 3 "):
            model(**kwargs).fit(X, np.zeros(20, dtype=np.int64))

    @pytest.mark.parametrize("forest", [RandomForestClassifier, RandomForestRegressor])
    def test_forest_checks_once(self, monkeypatch, forest):
        checks = []
        original = trees.check_finite

        def counting(values, what):
            checks.append((what, values.shape))
            original(values, what)

        monkeypatch.setattr(trees, "check_finite", counting)
        rng = np.random.default_rng(72)
        forest(n_trees=4).fit(rng.normal(0, 1, (30, 2)), rng.integers(0, 3, 30))
        assert checks == [("forest feature", (30, 2)), ("forest target", (30, 1))]


class TestRandomForest:
    def test_same_seed_identical(self):
        rng = np.random.default_rng(59)
        X = rng.uniform(0, 1, (150, 5))
        y = rng.integers(0, 4, 150)
        probe = rng.uniform(0, 1, (40, 5))
        a = RandomForestClassifier(n_trees=7, seed=3).fit(X, y).predict(probe)
        b = RandomForestClassifier(n_trees=7, seed=3).fit(X, y).predict(probe)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("forest", [RandomForestClassifier, RandomForestRegressor])
    def test_use_before_fit(self, forest):
        model = forest(n_trees=2)
        with pytest.raises(NotFitted):
            model.predict(np.zeros((2, 2)))
        with pytest.raises(NotFitted):
            model.params_digest()

    @pytest.mark.parametrize("forest", [RandomForestClassifier, RandomForestRegressor])
    def test_empty_training(self, forest):
        with pytest.raises(EmptyTrainingSet):
            forest(n_trees=2).fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_regressor_prediction_is_tree_mean(self):
        rng = np.random.default_rng(61)
        X = rng.uniform(0, 1, (100, 3))
        y = rng.normal(0, 1, 100)
        forest = RandomForestRegressor(n_trees=5, seed=1).fit(X, y)
        probe = rng.uniform(0, 1, (20, 3))
        stacked = np.stack([t.predict(probe) for t in forest.trees])
        assert np.allclose(forest.predict(probe), stacked.mean(axis=0), atol=1e-15)


class TestSmote:
    def test_balanced_input_unchanged(self):
        rng = np.random.default_rng(62)
        X = rng.normal(0, 1, (40, 3))
        y = np.repeat([0, 1], 20)
        out_x, out_y = smote(X, y, seed=5)
        assert np.array_equal(out_x, X) and np.array_equal(out_y, y)

    def test_counts_balanced_to_majority(self):
        rng = np.random.default_rng(63)
        X = rng.normal(0, 1, (150, 4))
        y = np.array([0] * 100 + [1] * 40 + [2] * 10)
        out_x, out_y = smote(X, y, seed=6)
        counts = np.bincount(out_y)
        assert counts.tolist() == [100, 100, 100]
        # originals retained unchanged, in order
        assert np.array_equal(out_x[:150], X) and np.array_equal(out_y[:150], y)

    def test_synthetic_points_on_parent_segment(self):
        # a 2-point minority class has a unique segment
        X = np.vstack(
            [
                np.random.default_rng(64).normal(5, 0.1, (10, 2)),
                np.array([[0.0, 0.0], [1.0, 2.0]]),
            ]
        )
        y = np.array([0] * 10 + [1] * 2)
        out_x, out_y = smote(X, y, seed=7)
        synthetic = out_x[12:]
        assert synthetic.shape[0] == 8
        direction = np.array([1.0, 2.0])
        for point in synthetic:
            t = point[0] / direction[0] if direction[0] else 0.0
            assert 0.0 <= t <= 1.0
            assert np.allclose(point, t * direction, atol=1e-9)

    def test_convex_hull_bounds(self):
        rng = np.random.default_rng(65)
        X = np.concatenate([rng.normal(0, 1, 60), rng.normal(10, 1, 12)])[:, None]
        y = np.array([0] * 60 + [1] * 12)
        out_x, out_y = smote(X, y, seed=8)
        synth = out_x[72:, 0]
        members = X[60:, 0]
        assert np.all(synth >= members.min() - 1e-12)
        assert np.all(synth <= members.max() + 1e-12)

    def test_class_too_small(self):
        X = np.zeros((4, 2))
        y = np.array([0, 0, 0, 1])
        with pytest.raises(ClassTooSmall):
            smote(X, y)

    def test_neighbor_oracle_excludes_self_by_index(self):
        # every point appears 2-3 times: self is dropped by index, so its
        # duplicates (distance 0) are still chosen as neighbors
        rng = np.random.default_rng(69)
        for dim in (1, 2, 5, 13):
            base = rng.integers(0, 3, (20, dim)) * 0.5
            points = base[np.r_[np.arange(20), np.arange(20), np.arange(8)]]
            for k in (1, 3, points.shape[0] - 1):
                got = k_nearest(build_tree(points), k)
                expected = [
                    brute_force_neighbors(points, points[i], k, exclude=i)
                    for i in range(points.shape[0])
                ]
                assert np.array_equal(got, np.array(expected))
            first = k_nearest(build_tree(points), 1)[:, 0]
            assert np.all(first != np.arange(points.shape[0]))
            assert np.array_equal(points[first], points)

    def test_non_finite_row_named(self):
        X = np.zeros((6, 2))
        X[4, 0] = np.nan
        y = np.array([0, 0, 0, 0, 1, 1])
        with pytest.raises(NumericalFailure, match="row 4"):
            smote(X, y)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(66)
        X = rng.normal(0, 1, (60, 3))
        y = np.array([0] * 40 + [1] * 20)
        a = smote(X, y, seed=11)
        b = smote(X, y, seed=11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestClassificationMetrics:
    def test_perfect_prediction(self):
        report = classification_metrics([1, 0, 2], [1, 0, 2], n_classes=3)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.macro_recall == 1.0

    def test_hand_computed_case(self):
        report = classification_metrics([1, 0, 0, 0], [1, 1, 0, 0], n_classes=2)
        assert report.accuracy == pytest.approx(0.75, abs=1e-9)
        assert report.macro_recall == pytest.approx((1.0 + 2.0 / 3.0) / 2, abs=1e-9)
        assert report.macro_f1 == pytest.approx((2.0 / 3.0 + 0.8) / 2, abs=1e-9)

    def test_single_class_truth(self):
        report = classification_metrics([3, 3, 3], [3, 3, 3])
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0 and report.macro_recall == 1.0

    def test_absent_classes_excluded(self):
        # class 2 never appears in truth; macro averages over {0, 1} only
        report = classification_metrics([0, 1], [0, 2], n_classes=3)
        assert report.macro_recall == pytest.approx(0.5, abs=1e-12)

    def test_confusion_row_sums(self):
        rng = np.random.default_rng(67)
        truth = rng.integers(0, 12, 500)
        predicted = rng.integers(0, 12, 500)
        report = classification_metrics(truth, predicted)
        support = report.confusion.sum(axis=1)
        assert np.array_equal(support, np.bincount(truth, minlength=12))
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.macro_f1 <= 1.0
        assert 0.0 <= report.macro_recall <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            classification_metrics([0, 1], [0])


class TestRegressionMetrics:
    def test_perfect(self):
        y = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        report = regression_metrics(y, y)
        assert report.r2 == (1.0, 1.0, 1.0)
        assert report.rmse == (0.0, 0.0, 0.0)

    def test_mean_predictor_r2_zero(self):
        y = np.array([[0.0], [10.0], [20.0]])
        pred = np.full((3, 1), 10.0)
        report = regression_metrics(y, pred)
        assert report.r2[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_case(self):
        report = regression_metrics(np.array([0.0, 10.0]), np.array([1.0, 9.0]))
        assert report.rmse[0] == pytest.approx(1.0, abs=1e-9)
        assert report.r2[0] == pytest.approx(0.96, abs=1e-9)

    def test_constant_truth(self):
        with pytest.raises(ConstantTruth):
            regression_metrics(np.array([5.0, 5.0]), np.array([5.0, 6.0]))

    def test_constant_truth_whose_mean_is_off_the_value(self):
        # the mean of three 0.1s is 0.10000000000000002, so the spread about
        # the mean is about 6e-34, not 0; R^2 of the third column read -5.19e29
        truth = np.full((3, 3), 0.1)
        predicted = truth.copy()
        predicted[:, 2] += 0.01
        with pytest.raises(ConstantTruth, match=r"\[0, 1, 2\] are constant"):
            regression_metrics(truth, predicted)

    def test_truth_spread_that_underflows_is_constant(self):
        # 0 and 1e-170 differ, but their squared deviations from the mean are 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstantTruth, match=r"\[0\] are constant"):
                regression_metrics(np.array([0.0, 1e-170]), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            regression_metrics(np.array([1.0, 2.0]), np.array([1.0]))

    def test_messages_name_the_cause(self):
        shapes = r"^truth \(2, 1\) and prediction \(1, 1\) shapes differ$"
        with pytest.raises(LengthMismatch, match=shapes):
            regression_metrics(np.array([1.0, 2.0]), np.array([1.0]))
        too_few = r"^R\^2 needs at least 2 rows, got 1$"
        with pytest.raises(LengthMismatch, match=too_few):
            regression_metrics(np.ones((1, 3)), np.ones((1, 3)))
