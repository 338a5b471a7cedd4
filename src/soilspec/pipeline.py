"""Five-fold cross-validation of the three texture-characterization strategies.

Strategy 1 classifies USDA texture classes directly; strategy 2 regresses
(clay, silt, sand); strategy 3 pushes strategy-2 predictions through the
texture triangle. One fold stage is the only path from a training split to
scores: `fit_fold` fits the scaler, the discriminant projection, the
oversampler and one learner per model on the training split only;
`evaluate_fold` transforms the held-out rows once with the frozen parameters
and scores every model under every requested strategy. `run_strategies`
runs the stage per fold and strategy family; `run_external_validation` runs
it once, with the validation table as the test split.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import N_CLASSES, ObservationTable, TextureClass
from .cubeio import fmt_float
from .errors import IoFailure, OffSimplex, SpecimenOverlap
from .features import MinMaxScaler, composition_group_labels
from .lda import LdaModel, fit_lda, project, scatter
from .ml import (
    ClassificationReport,
    KnnClassifier,
    KnnRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    RegressionReport,
    classification_metrics,
    regression_metrics,
    smote,
)
from .ml.trees import DecisionTreeClassifier, DecisionTreeRegressor
from .seeding import derive_seed
from .triangle import classify_percentages, normalize_predictions

N_FOLDS = 5
MODEL_NAMES = ("knn", "rf", "dt")
STRATEGY_IDS = (1, 2, 3)

# Sub-seed tags for per-fold derived randomness.
_SEED_SMOTE = 1
_SEED_MODEL = 2


def _family(strategy: int) -> int:
    # Strategies 2 and 3 share one regression fit, so they form one family:
    # it is both the family's seed tag and the strategy its fit runs under.
    return 1 if strategy == 1 else 2


@dataclass(frozen=True)
class CvPlan:
    """Fold assignment: observation index -> fold id in 1..n_folds."""

    n_folds: int
    seed: int
    granularity: str  # "block" | "specimen"
    assignment: np.ndarray  # (n,) int

    def train_index(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)

    def test_index(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)


def make_folds(
    table: ObservationTable,
    seed: int,
    granularity: str = "block",
    n_folds: int = N_FOLDS,
    stratify: bool = False,
) -> CvPlan:
    """Partition rows into mutually exclusive, jointly exhaustive folds.

    Block granularity assigns rows independently (fold sizes differ by at
    most one); specimen granularity keeps all 100 blocks of a specimen in
    one fold. Stratified block assignment deals each texture class
    round-robin across folds.
    """
    n = len(table)
    if n == 0:
        raise ValueError("cannot fold an empty table")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    assignment = np.empty(n, dtype=np.int64)
    if granularity == "block":
        if stratify:
            position = 0
            for code in np.unique(table.texture_codes):
                members = np.flatnonzero(table.texture_codes == code)
                members = rng.permutation(members)
                folds = (np.arange(position, position + members.size) % n_folds) + 1
                assignment[members] = folds
                position += members.size
        else:
            order = rng.permutation(n)
            sizes = np.full(n_folds, n // n_folds, dtype=np.int64)
            sizes[: n % n_folds] += 1
            start = 0
            for fold, size in enumerate(sizes, start=1):
                assignment[order[start : start + size]] = fold
                start += size
    elif granularity == "specimen":
        ids, first_pos = np.unique(table.specimen_ids.astype(str), return_index=True)
        ids = ids[np.argsort(first_pos, kind="stable")]  # first-appearance order
        order = rng.permutation(ids.size)
        sizes = np.full(n_folds, ids.size // n_folds, dtype=np.int64)
        sizes[: ids.size % n_folds] += 1
        specimen_fold = {}
        start = 0
        for fold, size in enumerate(sizes, start=1):
            for pos in order[start : start + size]:
                specimen_fold[ids[pos]] = fold
            start += size
        assignment = np.array(
            [specimen_fold[str(s)] for s in table.specimen_ids], dtype=np.int64
        )
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    return CvPlan(
        n_folds=n_folds, seed=seed, granularity=granularity, assignment=assignment
    )


@dataclass(frozen=True)
class ModelSpec:
    """Learner choice plus the hyperparameters exposed on the CLI."""

    name: str  # "knn" | "rf" | "dt"
    k: int = 5
    n_trees: int = 20
    max_depth: int | None = None
    min_leaf: int = 1
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}; choose from {MODEL_NAMES}")


def _make_classifier(spec: ModelSpec, seed: int):
    if spec.name == "knn":
        return KnnClassifier(k=spec.k, n_jobs=spec.n_jobs)
    if spec.name == "rf":
        return RandomForestClassifier(
            n_trees=spec.n_trees,
            max_depth=spec.max_depth,
            min_leaf=spec.min_leaf,
            seed=seed,
            n_jobs=spec.n_jobs,
            n_classes=N_CLASSES,
        )
    return DecisionTreeClassifier(
        max_depth=spec.max_depth, min_leaf=spec.min_leaf, n_classes=N_CLASSES
    )


class _PerComponentRegressor:
    """Three independent single-output regressors, one per composition part."""

    def __init__(self, makers):
        self.models = [maker() for maker in makers]

    def fit(self, features, targets):
        for i, model in enumerate(self.models):
            model.fit(features, targets[:, i])
        return self

    def predict(self, features):
        return np.column_stack([model.predict(features) for model in self.models])

    def params_digest(self) -> str:
        h = hashlib.sha256()
        for model in self.models:
            h.update(model.params_digest().encode())
        return h.hexdigest()


def _make_regressor(spec: ModelSpec, seed: int):
    # Tree-based models estimate each fraction independently, so predicted
    # triples drift off the 100% simplex. KNN is fit once on all three
    # targets: neighbor choice ignores targets, so the joint fit predicts
    # exactly what three per-component fits would.
    if spec.name == "knn":
        return KnnRegressor(k=spec.k, n_jobs=spec.n_jobs)
    if spec.name == "rf":
        return _PerComponentRegressor(
            [
                lambda i=i: RandomForestRegressor(
                    n_trees=spec.n_trees,
                    max_depth=spec.max_depth,
                    min_leaf=spec.min_leaf,
                    seed=derive_seed(seed, i),
                    n_jobs=spec.n_jobs,
                )
                for i in range(3)
            ]
        )
    return _PerComponentRegressor(
        [
            lambda: DecisionTreeRegressor(
                max_depth=spec.max_depth, min_leaf=spec.min_leaf
            )
            for _ in range(3)
        ]
    )


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class FoldArtifacts:
    """Everything fitted on one fold's training split."""

    strategy: int
    scaler: MinMaxScaler
    lda_model: LdaModel
    learners: dict[str, object]  # model name -> fitted learner, in spec order
    smote_features: np.ndarray | None = None
    smote_labels: np.ndarray | None = None

    def digests(self) -> dict[str, str]:
        out = {
            "scaler": _digest(self.scaler.min_, self.scaler.max_),
            "lda": _digest(
                self.lda_model.projection,
                self.lda_model.eigenvalues,
                np.array([self.lda_model.k_selected]),
                np.array([self.lda_model.ridge]),
            ),
        }
        for name, learner in self.learners.items():
            out[f"learner_{name}"] = learner.params_digest()
        if self.smote_features is not None:
            out["smote"] = _digest(self.smote_features, self.smote_labels)
        return out


def fit_fold(
    table: ObservationTable,
    train_index: np.ndarray,
    strategy: int,
    *specs: ModelSpec,
    seed: int,
    scaler: MinMaxScaler | None = None,
) -> FoldArtifacts:
    """Fit scaler, discriminant projection, and one learner per spec on one
    training split.

    Strategy 1 supervises the projection with texture classes and balances
    the projected training set with SMOTE before fitting the classifiers;
    strategies 2 and 3 supervise with composition-group labels (one group
    per distinct mixture triple in the training split) and fit regressors
    on the raw fractions. Every spec shares the transforms, and each learner
    gets the seed it would get alone. A pre-fitted scaler may be passed for
    pool-scoped scaling; by default the scaler is fitted on the training
    split.
    """
    names = [spec.name for spec in specs]
    if not names or len(set(names)) != len(names):
        raise ValueError(f"need one or more distinct model specs, got {names}")
    train = table.select(train_index)
    if scaler is None:
        scaler = MinMaxScaler().fit(train.features)
    scaled = scaler.transform(train.features)
    if strategy == 1:
        supervision = train.texture_codes
    else:
        supervision, _ = composition_group_labels(train.compositions)
    lda_model = fit_lda(scatter(scaled, supervision))
    projected = project(lda_model, scaled)
    smote_features = smote_labels = None
    if strategy == 1:
        smote_features, smote_labels = smote(
            projected,
            train.texture_codes,
            seed=derive_seed(seed, _SEED_SMOTE),
        )
        make, features, targets = _make_classifier, smote_features, smote_labels
    else:
        make, features, targets = _make_regressor, projected, train.compositions
    learners = {
        spec.name: make(spec, derive_seed(seed, _SEED_MODEL)).fit(features, targets)
        for spec in specs
    }
    return FoldArtifacts(
        strategy=strategy,
        scaler=scaler,
        lda_model=lda_model,
        learners=learners,
        smote_features=smote_features,
        smote_labels=smote_labels,
    )


def _triangle_report(test: ObservationTable, predicted: np.ndarray):
    """Strategy 3: renormalize predicted triples, map through the triangle."""
    normalized = normalize_predictions(predicted)
    codes = classify_percentages(normalized[:, 0], normalized[:, 1], normalized[:, 2])
    if np.any(codes < 0):
        raise OffSimplex("renormalized prediction matched no triangle region")
    return classification_metrics(test.texture_codes, codes, N_CLASSES)


def evaluate_fold(
    artifacts: FoldArtifacts,
    table: ObservationTable,
    test_index: np.ndarray,
    strategies: list[int],
) -> dict[tuple[int, str], object]:
    """Apply frozen fold transforms to the held-out rows and score them.

    The test rows are transformed and projected once; each learner predicts
    once, and that prediction is scored under every requested strategy
    (strategy 2 and 3 share the regression artifacts). Returns
    ``{(strategy, model): report}``, strategy first, then model in spec
    order.
    """
    if any(_family(s) != _family(artifacts.strategy) for s in strategies):
        raise ValueError(f"strategy-{artifacts.strategy} fit cannot score {strategies}")
    test = table.select(test_index)
    projected = project(artifacts.lda_model, artifacts.scaler.transform(test.features))
    predicted = {
        name: learner.predict(projected) for name, learner in artifacts.learners.items()
    }
    score = {
        1: lambda p: classification_metrics(test.texture_codes, p, N_CLASSES),
        2: lambda p: regression_metrics(test.compositions, p),
        3: lambda p: _triangle_report(test, p),
    }
    return {(s, name): score[s](p) for s in strategies for name, p in predicted.items()}


@dataclass
class StrategyResult:
    """Per-fold reports plus mean/std aggregates for one (strategy, model)."""

    strategy: int
    model: str
    fold_reports: list = field(default_factory=list)

    def fold_metrics(self) -> list[dict[str, float]]:
        out = []
        for report in self.fold_reports:
            if isinstance(report, ClassificationReport):
                out.append(
                    {
                        "accuracy": report.accuracy,
                        "macro_f1": report.macro_f1,
                        "macro_recall": report.macro_recall,
                    }
                )
            else:
                out.append(report.metric_dict())
        return out

    def aggregates(self) -> dict[str, tuple[float, float]]:
        """Mean and population std (over the fold count) of every metric."""
        per_fold = self.fold_metrics()
        out = {}
        for metric in per_fold[0]:
            values = np.array([fold[metric] for fold in per_fold])
            out[metric] = (float(values.mean()), float(values.std()))
        return out

    def pooled_confusion(self) -> np.ndarray | None:
        """Fold-summed confusion counts, row-normalized (classification only)."""
        if not isinstance(self.fold_reports[0], ClassificationReport):
            return None
        counts = sum(report.confusion for report in self.fold_reports)
        support = counts.sum(axis=1)
        normalized = np.zeros_like(counts, dtype=np.float64)
        rows = support > 0
        normalized[rows] = counts[rows] / support[rows, np.newaxis]
        return normalized


def run_strategies(
    table: ObservationTable,
    plan: CvPlan,
    strategies: list[int],
    specs: list[ModelSpec],
    scaler_scope: str = "fold",
) -> dict[tuple[int, str], StrategyResult]:
    """Run several strategies and models over the same folds.

    Per fold, each strategy family (classification; regression for
    strategies 2 and 3) fits its transforms once, one learner per spec, and
    scores every requested strategy of the family from one prediction per
    learner. Fold seeds depend on (plan seed, strategy family, fold), so
    results are identical whether strategies and models run together or
    separately. Returns ``{(strategy, model): result}``, strategy first,
    then model in spec order.
    """
    for strategy in strategies:
        if strategy not in STRATEGY_IDS:
            raise ValueError(f"unknown strategy {strategy}")
    if scaler_scope not in ("fold", "pool"):
        raise ValueError(f"scaler scope must be fold or pool, got {scaler_scope!r}")
    pool_scaler = (
        MinMaxScaler().fit(table.features) if scaler_scope == "pool" else None
    )
    results = {
        (s, spec.name): StrategyResult(strategy=s, model=spec.name)
        for s in strategies
        for spec in specs
    }
    families = {}
    for strategy in strategies:
        families.setdefault(_family(strategy), []).append(strategy)
    for fold in range(1, plan.n_folds + 1):
        train_index = plan.train_index(fold)
        test_index = plan.test_index(fold)
        for family, members in sorted(families.items()):
            artifacts = fit_fold(
                table, train_index, family, *specs,
                seed=derive_seed(plan.seed, family, fold),
                scaler=pool_scaler,
            )
            reports = evaluate_fold(artifacts, table, test_index, members)
            for key, report in reports.items():
                results[key].fold_reports.append(report)
    return results


def run_external_validation(
    train_table: ObservationTable,
    validation_table: ObservationTable,
    *specs: ModelSpec,
    seed: int = 0,
) -> dict[str, RegressionReport]:
    """Fit scaler + projection + one regressor per spec on the full training
    table, then score the frozen transforms on the external validation
    table. Returns ``{model: report}``."""
    train_ids = set(map(str, train_table.specimen_ids))
    validation_ids = set(map(str, validation_table.specimen_ids))
    shared = train_ids & validation_ids
    if shared:
        raise SpecimenOverlap(f"specimen ids in both tables: {sorted(shared)[:5]}")
    artifacts = fit_fold(
        train_table, np.arange(len(train_table)), 2, *specs, seed=derive_seed(seed, 4)
    )
    reports = evaluate_fold(
        artifacts, validation_table, np.arange(len(validation_table)), [2]
    )
    return {name: report for (_, name), report in reports.items()}


# -- result serialization ------------------------------------------------------

RESULTS_HEADER = ["strategy", "model", "fold", "metric", "value"]
AGGREGATE_HEADER = ["strategy", "model", "metric", "mean", "std"]


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_results_csv(results: list[StrategyResult], path: str | Path) -> None:
    _write_csv(
        path,
        RESULTS_HEADER,
        (
            [str(result.strategy), result.model, str(fold), metric, fmt_float(value)]
            for result in results
            for fold, metrics in enumerate(result.fold_metrics(), start=1)
            for metric, value in metrics.items()
        ),
    )


def write_aggregate_csv(results: list[StrategyResult], path: str | Path) -> None:
    _write_csv(
        path,
        AGGREGATE_HEADER,
        (
            [str(result.strategy), result.model, metric, fmt_float(m), fmt_float(sd)]
            for result in results
            for metric, (m, sd) in result.aggregates().items()
        ),
    )


def write_confusion_csv(result: StrategyResult, path: str | Path) -> None:
    normalized = result.pooled_confusion()
    if normalized is None:
        raise ValueError("confusion output only applies to classification results")
    names = [c.value for c in TextureClass]
    _write_csv(
        path,
        ["class"] + names,
        ([name] + [fmt_float(v) for v in row] for name, row in zip(names, normalized)),
    )


def write_external_csv(reports: dict[str, RegressionReport], path: str | Path) -> None:
    _write_csv(
        path,
        ["model", "metric", "value"],
        (
            [model, metric, fmt_float(value)]
            for model in sorted(reports)
            for metric, value in reports[model].metric_dict().items()
        ),
    )
