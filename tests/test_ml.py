import numpy as np
import pytest

from soilspec.errors import (
    ClassTooSmall,
    ConstantTruth,
    EmptyTrainingSet,
    KTooLarge,
    LengthMismatch,
    NotFitted,
    NumericalFailure,
)
from soilspec.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    KnnClassifier,
    KnnRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    classification_metrics,
    regression_metrics,
    smote,
)
from soilspec.ml.neighbors import build_tree, k_nearest


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

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(68)
        X = rng.integers(0, 6, (400, 2)) * 0.5  # grid: many boundary ties
        y = rng.integers(0, 5, 400)
        probe = rng.integers(0, 6, (300, 2)) * 0.5
        serial = KnnClassifier(k=5, n_jobs=1).fit(X, y)
        threaded = KnnClassifier(k=5, n_jobs=2).fit(X, y)
        assert np.array_equal(serial.predict(probe), threaded.predict(probe))
        assert serial.params_digest() == threaded.params_digest()

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

    def test_multi_output_regression(self):
        rng = np.random.default_rng(57)
        X = rng.uniform(0, 1, (80, 2))
        y = np.column_stack([X[:, 0] * 10, X[:, 1] * -4, X.sum(axis=1)])
        model = DecisionTreeRegressor().fit(X, y)
        assert model.predict(X).shape == (80, 3)
        assert np.allclose(model.predict(X), y, atol=1e-9)


class TestRandomForest:
    def test_single_tree_no_bootstrap_matches_tree(self):
        rng = np.random.default_rng(58)
        X = rng.uniform(0, 1, (120, 4))
        y = rng.integers(0, 3, 120)
        forest = RandomForestClassifier(n_trees=1, bootstrap=False, seed=9).fit(X, y)
        tree = DecisionTreeClassifier().fit(X, y)
        probe = rng.uniform(0, 1, (50, 4))
        assert np.array_equal(forest.predict(probe), tree.predict(probe))
        assert forest.trees[0].params_digest() == tree.params_digest()

    def test_same_seed_identical(self):
        rng = np.random.default_rng(59)
        X = rng.uniform(0, 1, (150, 5))
        y = rng.integers(0, 4, 150)
        probe = rng.uniform(0, 1, (40, 5))
        a = RandomForestClassifier(n_trees=7, seed=3).fit(X, y).predict(probe)
        b = RandomForestClassifier(n_trees=7, seed=3).fit(X, y).predict(probe)
        assert np.array_equal(a, b)

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(60)
        X = rng.uniform(0, 1, (150, 5))
        y = rng.normal(0, 1, 150)
        probe = rng.uniform(0, 1, (40, 5))
        serial = RandomForestRegressor(n_trees=6, seed=4, n_jobs=1).fit(X, y)
        threaded = RandomForestRegressor(n_trees=6, seed=4, n_jobs=3).fit(X, y)
        assert np.array_equal(serial.predict(probe), threaded.predict(probe))
        assert serial.params_digest() == threaded.params_digest()

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
        out_x, out_y = smote(X, y, k_neighbors=5, seed=7)
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
        present = support > 0
        assert np.allclose(
            report.normalized_confusion[present].sum(axis=1), 1.0, atol=1e-9
        )
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

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            regression_metrics(np.array([1.0, 2.0]), np.array([1.0]))
