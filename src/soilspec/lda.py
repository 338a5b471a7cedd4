"""Supervised linear discriminant reduction via the scatter-matrix eigenproblem.

Fitting solves between_scatter @ w = eigval * within_scatter @ w by reducing
with a Cholesky factor of the (always lightly ridged) within-class scatter
to a symmetric standard eigenproblem. The projection keeps the smallest
number of leading components whose cumulative eigenvalue share reaches
ENERGY (99%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, SingleClass

RIDGE = 1e-8
ENERGY = 0.99


@dataclass(frozen=True)
class ScatterPair:
    """Within- and between-class scatter matrices."""

    within: np.ndarray  # (d, d)
    between: np.ndarray  # (d, d)


@dataclass(frozen=True)
class LdaModel:
    """Fitted projection: columns of `projection` are the kept directions.

    Directions have unit within-scatter norm (w' S_w w = 1, ridged S_w) and
    a positive first non-negligible component, so refits are reproducible.
    """

    projection: np.ndarray  # (d, K)
    eigenvalues: np.ndarray  # all eigenvalues, descending, negatives clipped to 0
    k_selected: int
    ridge: float


def scatter(features: np.ndarray, labels: np.ndarray) -> ScatterPair:
    """Accumulate within- and between-class scatter over the distinct labels.

    within  = sum_c sum_{x in c} (x - mean_c)(x - mean_c)'
    between = sum_c n_c (mean_c - mean)(mean_c - mean)'

    Their sum equals the total scatter around the global mean.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise DimensionMismatch(
            f"features {features.shape} and labels {labels.shape} disagree"
        )
    classes = np.unique(labels)
    if classes.size < 2:
        raise SingleClass(f"need >= 2 classes, got {classes.size}")
    d = features.shape[1]
    within = np.zeros((d, d))
    between = np.zeros((d, d))
    global_mean = features.mean(axis=0)
    for cls in classes:
        members = features[labels == cls]
        mean_c = members.mean(axis=0)
        centered = members - mean_c
        within += centered.T @ centered
        offset = mean_c - global_mean
        between += members.shape[0] * np.outer(offset, offset)
    # Exact symmetry keeps downstream eigensolves deterministic.
    within = (within + within.T) / 2.0
    between = (between + between.T) / 2.0
    return ScatterPair(within=within, between=between)


def select_k(eigenvalues: np.ndarray, energy: float) -> int:
    """Smallest K whose leading eigenvalue share reaches `energy`."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    total = eigenvalues.sum()
    if total <= 0:
        raise NumericalFailure("eigenvalue spectrum carries no discriminative power")
    cumulative = np.cumsum(eigenvalues) / total
    return int(min(np.searchsorted(cumulative, energy) + 1, eigenvalues.size))


def fit_lda(pair: ScatterPair) -> LdaModel:
    """Solve the generalized scatter eigenproblem and pick K by energy.

    The within-class scatter is always ridged by RIDGE * trace/d on the
    diagonal before the Cholesky reduction; singular within-scatter from
    replicate-identical rows would otherwise break the factorization.
    """
    # scipy.linalg adds about 0.3 s to every start-up; only fitting needs it
    from scipy.linalg import solve_triangular

    within = np.asarray(pair.within, dtype=np.float64)
    between = np.asarray(pair.between, dtype=np.float64)
    d = within.shape[0]
    scale = np.trace(within) / d
    if scale <= 0.0:
        scale = 1.0  # degenerate all-identical-rows case: fall back to plain ridge
    regularized = within + RIDGE * scale * np.eye(d)
    try:
        chol = np.linalg.cholesky(regularized)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"within-scatter not positive definite: {exc}") from exc
    # Reduce to a symmetric standard problem: M = L^-1 B L^-T.
    half = solve_triangular(chol, between, lower=True)
    reduced = solve_triangular(chol, half.T, lower=True)
    reduced = (reduced + reduced.T) / 2.0
    try:
        eigvals, eigvecs = np.linalg.eigh(reduced)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolve did not converge: {exc}") from exc
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)  # clip the numerically-zero tail
    directions = solve_triangular(chol.T, eigvecs[:, order], lower=False)
    # eigh returns orthonormal y, so w = L^-T y already has w' S_w w = 1;
    # fix the sign so the first non-negligible component is positive.
    for k in range(directions.shape[1]):
        col = directions[:, k]
        nonzero = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if nonzero.size and col[nonzero[0]] < 0:
            directions[:, k] = -col
    k_selected = select_k(eigvals, ENERGY)
    return LdaModel(
        projection=directions[:, :k_selected].copy(),
        eigenvalues=eigvals,
        k_selected=k_selected,
        ridge=RIDGE,
    )


def project(model: LdaModel, features: np.ndarray) -> np.ndarray:
    """Apply the fixed projection: rows of `features` onto the K directions."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.projection.shape[0]:
        raise DimensionMismatch(
            f"features {features.shape} incompatible with projection "
            f"{model.projection.shape}"
        )
    return features @ model.projection
