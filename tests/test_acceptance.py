"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7, 8, and 10 run the real end-to-end benchmark (generate, extract,
evaluate at full scale, seed 7, bench noise); run it with `pytest
tests/test_acceptance.py -v -s`. The full suite takes several minutes, most
of it in the two complete benchmark runs used by criteria 7 and 10.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from soilspec.cli import main
from soilspec.core import TextureClass, validate_composition
from soilspec.cubeio import read_observation_csv
from soilspec.lda import fit_lda, scatter, select_k
from soilspec.ml.knn import KnnClassifier, KnnRegressor
from soilspec.ml.metrics import classification_metrics, regression_metrics
from soilspec.pipeline import ModelSpec, fit_fold
from soilspec.preprocess import NormalizationParams, normalize_contrast, roi_stats
from soilspec.triangle import TRIANGLE_RULES, classify_composition


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {number} ({name}): {detail}"


def test_criterion_1_normalization_bounds():
    rng = np.random.default_rng(1001)
    params = NormalizationParams()
    start = time.perf_counter()
    worst_overflow = 0.0
    worst_fixed_point = 0.0
    for i in range(1000):
        if i % 2 == 0:
            plane = rng.uniform(0, 1023, (100, 100))
        else:
            plane = rng.normal(rng.uniform(100, 900), rng.uniform(1, 200),
                               (100, 100))
        stats = roi_stats(plane)
        out = normalize_contrast(plane, stats, params)
        low, high = stats.mean - stats.std, stats.mean + stats.std
        worst_overflow = max(
            worst_overflow, float((low - out).max()), float((out - high).max())
        )
        fixed = normalize_contrast(np.full((100, 100), stats.mean), stats, params)
        worst_fixed_point = max(
            worst_fixed_point, float(np.abs(fixed - stats.mean).max())
        )
    elapsed = time.perf_counter() - start
    ok = worst_overflow <= 0.0 and worst_fixed_point <= 1e-12 and elapsed < 10.0
    _report(
        1,
        "tanh normalization bounds + mean fixed point",
        ok,
        f"overflow={worst_overflow:.2e} fixed_point={worst_fixed_point:.2e} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_2_triangle_partition():
    start = time.perf_counter()
    clay_i = np.arange(0, 1001)
    clay = np.repeat(clay_i, 1001 - clay_i)
    silt = np.concatenate([np.arange(0, 1001 - c) for c in clay_i])
    sand = 1000 - clay - silt
    clay, silt, sand = clay / 10.0, silt / 10.0, sand / 10.0
    counts = np.zeros(clay.size, dtype=np.int64)
    reached = set()
    for rule in TRIANGLE_RULES:
        hits = rule.predicate(clay, silt, sand)
        counts += hits
        if hits.any():
            reached.add(rule.texture)
    endmembers_ok = (
        classify_composition(validate_composition(78.63, 21.37, 0.0))
        is TextureClass.CLAY
        and classify_composition(validate_composition(0.0, 0.0, 100.0))
        is TextureClass.SAND
        and classify_composition(validate_composition(5.75, 94.25, 0.0))
        is TextureClass.SILT
    )
    elapsed = time.perf_counter() - start
    ok = (
        counts.min() == 1
        and counts.max() == 1
        and len(reached) == 12
        and endmembers_ok
        and elapsed < 30.0
    )
    _report(
        2,
        "USDA triangle partitions the simplex",
        ok,
        f"points={clay.size} coverage=[{counts.min()},{counts.max()}] "
        f"classes={len(reached)} time={elapsed:.1f}s",
    )


def test_criterion_3_lda_oracle():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst_angle = 0.0
    worst_residual = 0.0
    for _ in range(200):
        n_classes = int(rng.integers(2, 13))
        dim = int(rng.integers(2, 14))
        n = int(rng.integers(n_classes * (dim + 2), 2001))
        means = rng.normal(0.0, 3.0, (n_classes, dim))
        labels = rng.integers(0, n_classes, n)
        labels[:n_classes] = np.arange(n_classes)
        features = means[labels] + rng.normal(0.0, 1.0, (n, dim))
        pair = scatter(features, labels)
        model = fit_lda(pair)

        brute = np.linalg.eig(np.linalg.solve(pair.within, pair.between))
        order = np.argsort(brute.eigenvalues.real)[::-1]
        reference = brute.eigenvectors[:, order[: model.k_selected]].real
        worst_angle = max(
            worst_angle, float(subspace_angles(model.projection, reference).max())
        )

        ridge_scale = np.trace(pair.within) / dim
        regularized = pair.within + model.ridge * ridge_scale * np.eye(dim)
        norm_b = np.linalg.norm(pair.between, 2)
        for k in range(model.k_selected):
            w = model.projection[:, k]
            residual = pair.between @ w - model.eigenvalues[k] * (regularized @ w)
            worst_residual = max(
                worst_residual, float(np.linalg.norm(residual) / norm_b)
            )
    selection_ok = select_k(np.array([9.0, 0.9, 0.09, 0.009]), 0.99) == 2
    elapsed = time.perf_counter() - start
    ok = (
        worst_angle <= 1e-6
        and worst_residual <= 1e-8
        and selection_ok
        and elapsed < 60.0
    )
    _report(
        3,
        "generalized-eigen LDA matches brute force",
        ok,
        f"angle={worst_angle:.2e} residual={worst_residual:.2e} "
        f"k_rule={'ok' if selection_ok else 'bad'} time={elapsed:.1f}s",
    )


def test_criterion_4_knn_oracle():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    train_x = rng.uniform(-1, 1, (5000, 13))
    train_labels = rng.integers(0, 12, 5000)
    train_targets = rng.uniform(0, 100, (5000, 3))
    queries = rng.uniform(-1, 1, (1000, 13))
    k = 5

    classifier = KnnClassifier(k=k).fit(train_x, train_labels)
    regressor = KnnRegressor(k=k).fit(train_x, train_targets)
    predicted_labels = classifier.predict(queries)
    predicted_targets = regressor.predict(queries)

    label_ok = True
    target_ok = True
    for i, q in enumerate(queries):
        d2 = np.sum((train_x - q) ** 2, axis=1)
        ranked = sorted(range(5000), key=lambda j: (d2[j], j))[:k]
        counts = np.bincount(train_labels[ranked], minlength=12)
        expected_label = int(np.flatnonzero(counts == counts.max())[0])
        if predicted_labels[i] != expected_label:
            label_ok = False
        if not np.array_equal(predicted_targets[i], train_targets[ranked].mean(axis=0)):
            target_ok = False
    elapsed = time.perf_counter() - start
    ok = label_ok and target_ok and elapsed < 30.0
    _report(
        4,
        "KNN identical to linear-scan brute force",
        ok,
        f"classification={'ok' if label_ok else 'bad'} "
        f"regression={'ok' if target_ok else 'bad'} time={elapsed:.1f}s",
    )


def test_criterion_5_metric_hand_cases():
    report = classification_metrics([1, 0, 0, 0], [1, 1, 0, 0], n_classes=2)
    acc_ok = abs(report.accuracy - 0.75) <= 1e-9
    recall_ok = abs(report.macro_recall - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-9
    f1_ok = abs(report.macro_f1 - (2.0 / 3.0 + 0.8) / 2.0) <= 1e-9
    regression = regression_metrics(np.array([0.0, 10.0]), np.array([1.0, 9.0]))
    r2_ok = abs(regression.r2[0] - 0.96) <= 1e-9
    rmse_ok = abs(regression.rmse[0] - 1.0) <= 1e-9
    ok = acc_ok and recall_ok and f1_ok and r2_ok and rmse_ok
    _report(
        5,
        "metric hand-computed cases",
        ok,
        f"acc={report.accuracy} recall={report.macro_recall:.6f} "
        f"f1={report.macro_f1:.6f} r2={regression.r2[0]} rmse={regression.rmse[0]}",
    )


def test_criterion_6_scatter_identity():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        n_classes = int(rng.integers(2, 13))
        dim = int(rng.integers(2, 14))
        n = int(rng.integers(n_classes * 2, 2001))
        labels = rng.integers(0, n_classes, n)
        labels[:n_classes] = np.arange(n_classes)
        features = rng.normal(0.0, 3.0, (n, dim)) + labels[:, np.newaxis]
        pair = scatter(features, labels)
        centered = features - features.mean(axis=0)
        total = centered.T @ centered
        worst = max(worst, float(np.abs(pair.within + pair.between - total).max()))
    ok = worst <= 1e-8
    _report(6, "scatter identity S_W + S_B = S_T", ok, f"max_abs_err={worst:.2e}")


# -- full benchmark machinery ---------------------------------------------------


def _run_benchmark(base: Path) -> tuple[float, Path, Path, Path]:
    data = base / "data"
    features = base / "features"
    results_knn = base / "results_knn"
    results_rfdt = base / "results_rfdt"
    start = time.perf_counter()
    assert main(["generate", "--seed", "7", "--out", str(data),
                 "--noise", "bench", "--threads", "4"]) == 0
    assert main(["extract", "--data", str(data), "--out", str(features),
                 "--threads", "4"]) == 0
    assert main(["evaluate", "--features", str(features),
                 "--out", str(results_knn), "--models", "knn",
                 "--strategies", "1,2,3", "--seed", "7",
                 "--external-validation", "--threads", "4"]) == 0
    assert main(["evaluate", "--features", str(features),
                 "--out", str(results_rfdt), "--models", "rf,dt",
                 "--strategies", "1", "--seed", "7", "--threads", "4"]) == 0
    elapsed = time.perf_counter() - start
    return elapsed, features, results_knn, results_rfdt


def _fold_metric(results_csv: Path, strategy: str, model: str, metric: str):
    values = {}
    with open(results_csv) as fh:
        for row in csv.DictReader(fh):
            if (row["strategy"], row["model"], row["metric"]) == (
                strategy, model, metric,
            ):
                values[int(row["fold"])] = float(row["value"])
    return [values[f] for f in sorted(values)]


def _aggregate(aggregate_csv: Path):
    out = {}
    with open(aggregate_csv) as fh:
        for row in csv.DictReader(fh):
            out[(row["strategy"], row["model"], row["metric"])] = (
                float(row["mean"]), float(row["std"]),
            )
    return out


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance-run-a")
    elapsed, features, results_knn, results_rfdt = _run_benchmark(base)
    return {
        "base": base,
        "elapsed": elapsed,
        "features": features,
        "results_knn": results_knn,
        "results_rfdt": results_rfdt,
    }


def test_criterion_7_benchmark_targets(benchmark_run):
    agg = _aggregate(benchmark_run["results_knn"] / "aggregate.csv")
    knn_acc = agg[("1", "knn", "accuracy")][0]
    r2 = [agg[("2", "knn", f"r2_{c}")][0] for c in ("clay", "silt", "sand")]
    indirect_acc = agg[("3", "knn", "accuracy")][0]

    s1_folds = _fold_metric(
        benchmark_run["results_knn"] / "results.csv", "1", "knn", "accuracy"
    )
    s3_folds = _fold_metric(
        benchmark_run["results_knn"] / "results.csv", "3", "knn", "accuracy"
    )
    indirect_not_above = sum(x3 <= x1 for x1, x3 in zip(s1_folds, s3_folds))
    rf_folds = _fold_metric(
        benchmark_run["results_rfdt"] / "results.csv", "1", "rf", "accuracy"
    )
    dt_folds = _fold_metric(
        benchmark_run["results_rfdt"] / "results.csv", "1", "dt", "accuracy"
    )
    rf_not_below = sum(rf >= dt for rf, dt in zip(rf_folds, dt_folds))

    elapsed = benchmark_run["elapsed"]
    ok = (
        knn_acc >= 0.95
        and all(v >= 0.98 for v in r2)
        and indirect_acc >= 0.90
        and indirect_not_above >= 4
        and rf_not_below >= 4
        and elapsed < 600.0
    )
    _report(
        7,
        "end-to-end benchmark targets",
        ok,
        f"knn_acc={knn_acc:.4f} r2={[round(v, 4) for v in r2]} "
        f"indirect={indirect_acc:.4f} indirect<=direct {indirect_not_above}/5 "
        f"rf>=dt {rf_not_below}/5 time={elapsed:.0f}s",
    )


def test_criterion_8_external_validation(benchmark_run):
    values = {}
    with open(benchmark_run["results_knn"] / "external_validation.csv") as fh:
        for row in csv.DictReader(fh):
            values[row["metric"]] = float(row["value"])
    r2 = [values[f"r2_{c}"] for c in ("clay", "silt", "sand")]
    ok = all(v >= 0.95 for v in r2)
    _report(
        8,
        "frozen-transform external validation",
        ok,
        f"r2={[round(v, 4) for v in r2]}",
    )


def test_criterion_9_leakage_audit(benchmark_run):
    table = read_observation_csv(benchmark_run["features"] / "train.csv")
    assert len(table) == 44_000  # 440 specimens x 100 blocks
    # every 10th row keeps all mixtures present and the audit fast
    table = table.select(np.arange(0, len(table), 10))
    from soilspec.pipeline import make_folds

    plan = make_folds(table, seed=7)
    fold = 2
    train_index = plan.train_index(fold)
    test_index = plan.test_index(fold)
    rng = np.random.default_rng(1009)
    ok = True
    details = []
    for strategy in (1, 2, 3):
        spec = ModelSpec("rf", n_trees=3) if strategy == 1 else ModelSpec("knn")
        baseline = fit_fold(table, train_index, strategy, spec, seed=7)
        tampered = table.select(np.arange(len(table)))
        permuted = rng.permutation(test_index)
        tampered.features[test_index] = table.features[permuted]
        tampered.compositions[test_index] = table.compositions[permuted]
        tampered.texture_codes[test_index] = rng.integers(0, 12, test_index.size)
        refit = fit_fold(tampered, train_index, strategy, spec, seed=7)
        same = baseline.digests() == refit.digests()
        ok = ok and same
        details.append(f"s{strategy}={'ok' if same else 'LEAK'}")
    _report(9, "fitted parameters ignore the test fold", ok, " ".join(details))


def test_criterion_10_determinism(benchmark_run, tmp_path_factory):
    base_b = tmp_path_factory.mktemp("acceptance-run-b")
    _run_benchmark(base_b)
    compare = [
        ("features", "train.csv"),
        ("features", "validation.csv"),
        ("results_knn", "results.csv"),
        ("results_knn", "aggregate.csv"),
        ("results_knn", "confusion_s1_knn.csv"),
        ("results_knn", "confusion_s3_knn.csv"),
        ("results_knn", "external_validation.csv"),
        ("results_rfdt", "results.csv"),
        ("results_rfdt", "aggregate.csv"),
        ("results_rfdt", "confusion_s1_rf.csv"),
        ("results_rfdt", "confusion_s1_dt.csv"),
    ]
    mismatches = []
    for directory, name in compare:
        a = (benchmark_run[directory] if directory != "features"
             else benchmark_run["features"]) / name
        b = base_b / directory / name
        if a.read_bytes() != b.read_bytes():
            mismatches.append(f"{directory}/{name}")
    ok = not mismatches
    _report(
        10,
        "two identical-seed runs are byte-identical",
        ok,
        "all outputs match" if ok else f"mismatch: {mismatches}",
    )
