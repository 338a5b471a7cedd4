"""Five-fold cross-validation of the three texture-characterization strategies.

Strategy 1 classifies USDA texture classes directly; strategy 2 regresses
(clay, silt, sand); strategy 3 pushes strategy-2 predictions through the
texture triangle. One fold stage is the only path from a training split to
scores: `fit_fold` fits the per-band min-max scaler, the discriminant
projection, the oversampler and one learner per model on the training split
only; `evaluate_fold` transforms the held-out rows once with the frozen
parameters and scores every model under every requested strategy.
`run_evaluation` is the one path through it: it plans every fit (one per
fold and strategy family, then the external fit), checks them all, then runs
`run_task` over them on `lanes.map_in_lanes`'s worker lanes, which raise the
earliest failure in plan order.
`run_strategies` and `run_external_validation` are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import BAND_WAVELENGTHS_NM, N_CLASSES, ObservationTable, TextureClass
from .cubeio import fmt_float, write_csv_rows
from .errors import BadArgument, FoldPlanError, OffSimplex, SpecimenOverlap, naming
from .features import MinMaxScaler, composition_group_labels, constant_bands
from .lanes import map_in_lanes
from .lda import LdaModel, fit_lda, project, scatter
from .ml.knn import KnnClassifier, KnnRegressor
from .ml.metrics import (
    COMPONENTS,
    ClassificationReport,
    RegressionReport,
    classification_metrics,
    constant_columns,
    regression_metrics,
)
from .ml.smote import smote
from .ml.trees import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from .seeding import derive_seed, make_rng, sha256_hex
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
    """Fold assignment: observation index -> fold id in 1..N_FOLDS."""

    seed: int
    assignment: np.ndarray  # (n,) int

    def train_index(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)

    def test_index(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)


def make_folds(
    table: ObservationTable,
    seed: int,
    granularity: str = "block",
    stratify: bool = False,
) -> CvPlan:
    """Partition rows into N_FOLDS mutually exclusive, jointly exhaustive folds.

    Folds are dealt over units: rows at block granularity, specimens (all
    their blocks together) at specimen granularity. Unstratified plans deal
    one permutation of the units in contiguous runs whose sizes differ by at
    most one; stratified plans permute each texture class in ascending
    class order and deal the units round-robin, so per class the fold counts
    differ by at most one.
    """
    if granularity == "block":
        unit = np.arange(len(table))
    elif granularity == "specimen":
        # first-appearance order; a "U" array would drop trailing NULs
        first: dict = {}
        unit = np.array(
            [first.setdefault(s, len(first)) for s in table.specimen_ids.tolist()],
            dtype=np.int64,
        )
    else:
        raise BadArgument(f"unknown granularity {granularity!r}")
    count = int(unit.max(initial=-1)) + 1
    if count < N_FOLDS:
        raise FoldPlanError(
            f"{count} {granularity}s cannot fill N_FOLDS = {N_FOLDS} folds"
        )
    rng = make_rng(seed, 0)
    if stratify:
        codes = np.empty(count, dtype=np.int64)
        codes[unit] = table.texture_codes
        mixed = np.flatnonzero(codes[unit] != table.texture_codes)
        if mixed.size:
            raise FoldPlanError(
                f"specimen {table.specimen_ids[mixed[0]]!r} has blocks of more "
                "than one texture class; cannot stratify it"
            )
        order = np.concatenate(
            [rng.permutation(np.flatnonzero(codes == c)) for c in np.unique(codes)]
        )
        dealt = np.arange(count) % N_FOLDS + 1
    else:
        order = rng.permutation(count)
        sizes = count // N_FOLDS + (np.arange(N_FOLDS) < count % N_FOLDS)
        dealt = np.repeat(np.arange(1, N_FOLDS + 1), sizes)
    unit_fold = np.empty(count, dtype=np.int64)
    unit_fold[order] = dealt
    return CvPlan(seed=seed, assignment=unit_fold[unit])


@dataclass(frozen=True)
class ModelSpec:
    """Learner choice plus the hyperparameters exposed on the CLI."""

    name: str  # "knn" | "rf" | "dt"
    k: int = 5
    n_trees: int = 20
    max_depth: int | None = None
    min_leaf: int = 1

    def __post_init__(self) -> None:
        if self.name not in MODEL_NAMES:
            raise BadArgument(f"unknown model {self.name!r}; choose from {MODEL_NAMES}")


def _make_classifier(spec: ModelSpec, seed: int):
    if spec.name == "knn":
        return KnnClassifier(k=spec.k)
    if spec.name == "rf":
        return RandomForestClassifier(
            n_trees=spec.n_trees,
            max_depth=spec.max_depth,
            min_leaf=spec.min_leaf,
            seed=seed,
            n_classes=N_CLASSES,
        )
    return DecisionTreeClassifier(
        max_depth=spec.max_depth, min_leaf=spec.min_leaf, n_classes=N_CLASSES
    )


class _PerComponentRegressor:
    """Three independent single-output regressors, one per composition part."""

    def __init__(self, models):
        self.models = models

    def fit(self, features, targets):
        for i, model in enumerate(self.models):
            model.fit(features, targets[:, i])
        return self

    def predict(self, features):
        return np.column_stack([model.predict(features) for model in self.models])

    def params_digest(self) -> str:
        return sha256_hex(*(model.params_digest().encode() for model in self.models))


def _make_regressor(spec: ModelSpec, seed: int):
    # Tree-based models estimate each fraction independently, so predicted
    # triples drift off the 100% simplex. KNN is fit once on all three
    # targets: neighbor choice ignores targets, so the joint fit predicts
    # exactly what three per-component fits would.
    if spec.name == "knn":
        return KnnRegressor(k=spec.k)
    if spec.name == "rf":
        return _PerComponentRegressor([
            RandomForestRegressor(
                n_trees=spec.n_trees,
                max_depth=spec.max_depth,
                min_leaf=spec.min_leaf,
                seed=derive_seed(seed, i),
            )
            for i in range(3)
        ])
    return _PerComponentRegressor([
        DecisionTreeRegressor(max_depth=spec.max_depth, min_leaf=spec.min_leaf)
        for _ in range(3)
    ])


def _digest(*arrays) -> str:
    return sha256_hex(*(
        part for arr in arrays
        for part in (str(arr.dtype).encode(), str(arr.shape).encode(), arr)
    ))


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
) -> FoldArtifacts:
    """Fit the min-max scaler, discriminant projection, and one learner per
    spec on one training split; no held-out row shapes a transform.

    Strategy 1 supervises the projection with texture classes and balances
    the projected training set with SMOTE before fitting the classifiers;
    strategies 2 and 3 supervise with composition-group labels (one group
    per distinct mixture triple in the training split) and fit regressors
    on the raw fractions. Every spec shares the transforms, and each learner
    gets the seed it would get alone.
    """
    names = [spec.name for spec in specs]
    if not names or len(set(names)) != len(names):
        raise BadArgument(f"need one or more distinct model specs, got {names}")
    train = table.select(train_index)
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
    return classification_metrics(test.texture_codes, codes)


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
        raise BadArgument(f"strategy-{artifacts.strategy} fit cannot score {strategies}")
    test = table.select(test_index)
    projected = project(artifacts.lda_model, artifacts.scaler.transform(test.features))
    predicted = {
        name: learner.predict(projected) for name, learner in artifacts.learners.items()
    }
    score = {
        1: lambda p: classification_metrics(test.texture_codes, p),
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
        return [report.metric_dict() for report in self.fold_reports]

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


def check_scorable(truth: np.ndarray, where: str) -> None:
    """Raise FoldPlanError, naming `where`, unless R^2 can score every
    component of the (n, 3) test truth."""
    n = len(truth)
    if n < 2:
        raise FoldPlanError(f"{where} has {n} test row(s); R^2 needs at least 2")
    constant = ", ".join(COMPONENTS[j] for j in constant_columns(truth))
    if constant:
        raise FoldPlanError(
            f"{where}: every test row has the same {constant}; "
            "R^2 needs two values of each component"
        )


def _check_training(table: ObservationTable, train_index: np.ndarray,
                    strategy: int, specs: list[ModelSpec], where: str) -> None:
    """Raise FoldPlanError, naming `where`, for a training split that
    `fit_fold` would reject: a constant band, or one whose range overflows,
    for the scaler, one row of a class for SMOTE, one supervision group for
    the projection, or KNN's k above the rows KNN is fit on."""
    flat, wide = constant_bands(table.features[train_index])
    for bands, verbs, what in ((flat, ("is", "are"), "constant"),
                               (wide, ("spans", "span"), "more than a float64 holds")):
        if bands:
            names = ", ".join(f"f{BAND_WAVELENGTHS_NM[j]}" for j in bands)
            raise FoldPlanError(f"{where}: band{'s' * (len(bands) > 1)} {names} "
                                f"{verbs[len(bands) > 1]} {what} in the training split")
    if strategy == 1:
        counts = np.bincount(table.texture_codes[train_index])
        lone = np.flatnonzero(counts == 1)
        if lone.size:  # SMOTE draws each synthetic row between two of a class
            names = ", ".join(TextureClass.from_index(c).value for c in lone)
            raise FoldPlanError(
                f"{where}: the training split holds one row of {names}; "
                "strategy 1 needs none or at least 2 rows of each class per fold"
            )
        groups, kind = np.count_nonzero(counts), "texture class"
        rows = groups * int(counts.max())  # SMOTE's output
    else:
        compositions = table.compositions[train_index]
        groups = 2 if (compositions != compositions[0]).any() else 1
        kind, rows = "composition", len(compositions)
    if groups < 2:
        raise FoldPlanError(
            f"{where}: every training row has one {kind}; the projection needs two"
        )
    k = next((spec.k for spec in specs if spec.name == "knn"), 0)
    if k > rows:
        raise FoldPlanError(f"{where}: --k {k} exceeds the {rows} rows KNN is fit on")


class _Task(NamedTuple):
    """A fold of one strategy family, or the external fit; `names` name its
    test rows and its training split, and so its fit, in messages."""

    names: tuple[str, str]
    train_index: np.ndarray
    test: ObservationTable
    test_index: np.ndarray
    family: int
    strategies: list[int]
    seed: int


def run_task(table: ObservationTable, task: _Task,
             specs: list[ModelSpec]) -> dict[tuple[int, str], object]:
    """Fit one task on its training split of `table` and score its test
    rows: ``{(strategy, model): report}``. A failure names the fit."""
    with naming(task.names[1]):
        artifacts = fit_fold(table, task.train_index, task.family, *specs, seed=task.seed)
        return evaluate_fold(artifacts, task.test, task.test_index, task.strategies)


def run_evaluation(table: ObservationTable, plan: CvPlan, strategies: list[int],
                   specs: list[ModelSpec], validation: ObservationTable | None = None,
                   where: str = "the validation table", threads: int = 1):
    """Cross-validate `strategies` over the folds of `plan` and, given a
    `validation` table (named `where`), score a fit on all of `table` on it.

    A task (one per fold and strategy family, then the external fit) fits
    its transforms and one learner per spec once, and scores each strategy
    of its family from one prediction per learner. Seeds come from (plan
    seed, family, fold), or (plan seed, 4) for the external fit, so results
    do not depend on which strategies and models run together, nor on how
    many `threads` (worker lanes) run the tasks. Returns
    ``({(strategy, model): result}, {model: external report})``.
    """
    families = {}
    for strategy in strategies:
        if strategy not in STRATEGY_IDS:
            raise BadArgument(f"unknown strategy {strategy}")
        families.setdefault(_family(strategy), []).append(strategy)
    tasks = [
        _Task((f"fold {fold}",) * 2, plan.train_index(fold), table,
              plan.test_index(fold), family, members,
              derive_seed(plan.seed, family, fold))
        for fold in range(1, N_FOLDS + 1)
        for family, members in sorted(families.items())
    ]
    if validation is not None:
        shared = set(map(str, table.specimen_ids)) & set(map(str, validation.specimen_ids))
        if shared:
            raise SpecimenOverlap(f"specimen ids in both tables: {sorted(shared)[:5]}")
        tasks.append(_Task((where, "the --external-validation fit"),
                           np.arange(len(table)), validation,
                           np.arange(len(validation)), 2, [2], derive_seed(plan.seed, 4)))
    # every task must be feasible before the first fit: the external fit's
    # rules first, then the regression family's on every fold, then strategy 1's
    for task in sorted(tasks, key=lambda task: (task.test is table, -task.family)):
        if task.family == 2:
            check_scorable(task.test.compositions[task.test_index], task.names[0])
        _check_training(table, task.train_index, task.family, specs, task.names[1])
    results = {(s, spec.name): StrategyResult(s, spec.name)
               for s in strategies for spec in specs}
    if threads > 1 and len(tasks) > 1:  # imported once here, not in every lane
        import scipy.linalg  # noqa: F401
        import scipy.spatial  # noqa: F401
    outcomes = map_in_lanes(
        lambda task: run_task(table, task, specs), tasks, threads,
        lambda chunk: "fitting " + ", ".join(
            f"{t.names[1]} (strategy {','.join(map(str, t.strategies))})" for t in chunk))
    external = {}
    for task, reports in zip(tasks, outcomes):
        for (strategy, name), report in reports.items():
            if task.test is table:  # a fold's test rows come from `table`
                results[strategy, name].fold_reports.append(report)
            else:
                external[name] = report
    return results, external


def run_strategies(table: ObservationTable, plan: CvPlan, strategies: list[int],
                   specs: list[ModelSpec]) -> dict[tuple[int, str], StrategyResult]:
    """`run_evaluation` without a validation table: ``{(strategy, model): result}``."""
    return run_evaluation(table, plan, strategies, specs)[0]


def run_external_validation(train_table: ObservationTable,
                            validation_table: ObservationTable, *specs: ModelSpec,
                            seed: int = 0) -> dict[str, RegressionReport]:
    """`run_evaluation`'s external fit alone: ``{model: report}``."""
    plan = CvPlan(seed=seed, assignment=np.zeros(0, dtype=np.int64))
    return run_evaluation(train_table, plan, [], list(specs), validation_table)[1]


# -- result serialization ------------------------------------------------------

RESULTS_HEADER = ["strategy", "model", "fold", "metric", "value"]
AGGREGATE_HEADER = ["strategy", "model", "metric", "mean", "std"]


def write_results_csv(results: list[StrategyResult], path: str | Path) -> None:
    write_csv_rows(
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
    write_csv_rows(
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
        raise BadArgument("confusion output only applies to classification results")
    names = [c.value for c in TextureClass]
    write_csv_rows(
        path,
        ["class"] + names,
        ([name] + [fmt_float(v) for v in row] for name, row in zip(names, normalized)),
    )


def write_external_csv(reports: dict[str, RegressionReport], path: str | Path) -> None:
    write_csv_rows(
        path,
        ["model", "metric", "value"],
        (
            [model, metric, fmt_float(value)]
            for model in sorted(reports)
            for metric, value in reports[model].metric_dict().items()
        ),
    )
