"""Classification and regression evaluation reports.

Macro averages run over the classes present in the truth vector only, so
absent classes cannot dilute the scores. Regression metrics are computed
separately for each composition component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import N_CLASSES
from ..errors import ConstantTruth, LengthMismatch

COMPONENTS = ("clay", "silt", "sand")


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    macro_f1: float
    macro_recall: float
    confusion: np.ndarray  # (n_classes, n_classes) counts, rows = truth

    def metric_dict(self) -> dict[str, float]:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "macro_recall": self.macro_recall,
        }


@dataclass(frozen=True)
class RegressionReport:
    r2: tuple[float, ...]  # per component
    rmse: tuple[float, ...]

    def metric_dict(self) -> dict[str, float]:
        out = {}
        for name, value in zip(COMPONENTS, self.r2):
            out[f"r2_{name}"] = value
        for name, value in zip(COMPONENTS, self.rmse):
            out[f"rmse_{name}"] = value
        return out


def classification_metrics(
    truth: np.ndarray, predicted: np.ndarray, n_classes: int = N_CLASSES
) -> ClassificationReport:
    """Accuracy, macro F1, macro recall, and the confusion matrix."""
    truth = np.asarray(truth, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if truth.shape != predicted.shape or truth.size == 0:
        raise LengthMismatch(
            f"truth {truth.shape} and prediction {predicted.shape} must match "
            "and be nonempty"
        )
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (truth, predicted), 1)
    support = confusion.sum(axis=1)
    predicted_count = confusion.sum(axis=0)
    correct = np.diag(confusion)
    present = np.flatnonzero(support > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        recall = np.where(support > 0, correct / support, 0.0)
        precision = np.where(predicted_count > 0, correct / predicted_count, 0.0)
        f1 = np.where(
            precision + recall > 0,
            2.0 * precision * recall / (precision + recall),
            0.0,
        )
    return ClassificationReport(
        accuracy=float(correct.sum() / truth.size),
        macro_f1=float(f1[present].mean()),
        macro_recall=float(recall[present].mean()),
        confusion=confusion,
    )


def constant_columns(truth: np.ndarray) -> list[int]:
    """The columns of an (n, d) truth with no R^2: one value in every row, or
    a spread that underflows to 0, as for 0 and 1e-170."""
    spread = ((truth - truth.mean(axis=0)) ** 2).sum(axis=0)
    return np.flatnonzero((truth.min(axis=0) == truth.max(axis=0)) | (spread == 0)).tolist()


def regression_metrics(truth: np.ndarray, predicted: np.ndarray) -> RegressionReport:
    """Per-component R^2 and RMSE for (n, 3) composition arrays."""
    truth = np.asarray(truth, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if truth.ndim == 1:
        truth = truth[:, np.newaxis]
    if predicted.ndim == 1:
        predicted = predicted[:, np.newaxis]
    if truth.shape != predicted.shape:
        raise LengthMismatch(
            f"truth {truth.shape} and prediction {predicted.shape} shapes differ"
        )
    if truth.shape[0] < 2:
        raise LengthMismatch(f"R^2 needs at least 2 rows, got {truth.shape[0]}")
    residual = ((truth - predicted) ** 2).sum(axis=0)
    flat = constant_columns(truth)
    if flat:
        raise ConstantTruth(f"truth component(s) {flat} are constant")
    r2 = 1.0 - residual / ((truth - truth.mean(axis=0)) ** 2).sum(axis=0)
    rmse = np.sqrt(((truth - predicted) ** 2).mean(axis=0))
    return RegressionReport(r2=tuple(map(float, r2)), rmse=tuple(map(float, rmse)))
