"""Minority-class oversampling by segment interpolation (SMOTE).

Every class is brought up to the majority count. Each synthetic point picks
a random base sample of the class and a random one of its K_NEIGHBORS (5)
nearest same-class neighbors, then interpolates uniformly along the segment
between them. Neighbors come from the exact KD-tree search in :mod:`.neighbors`:
ranked by (distance, index), with each point's own row excluded by index,
so duplicated points still pick each other. Original rows are kept
unchanged, synthetics are appended grouped by ascending class code.
"""

from __future__ import annotations

import numpy as np

from ..errors import ClassTooSmall
from ..seeding import make_rng
from .neighbors import as_labels, build_tree, check_finite, check_lengths, k_nearest

K_NEIGHBORS = 5


def smote(
    features: np.ndarray, labels: np.ndarray, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Balance all classes up to the majority count.

    Returns (features, labels) with the original rows first. Already
    balanced input comes back identical. Every class needs >= 2 samples.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = as_labels(labels)
    check_lengths(features, labels, "SMOTE input")
    check_finite(features, "SMOTE feature")
    classes, counts = np.unique(labels, return_counts=True)
    small = classes[counts < 2]
    if small.size:
        raise ClassTooSmall(f"class(es) {small.tolist()} have fewer than 2 samples")
    majority = int(counts.max())
    new_features = [features]
    new_labels = [labels]
    rng = make_rng(seed)
    for cls, count in zip(classes, counts):
        deficit = majority - int(count)
        if deficit == 0:
            continue
        members = np.flatnonzero(labels == cls)
        points = features[members]
        k = min(K_NEIGHBORS, points.shape[0] - 1)
        neighbors = k_nearest(build_tree(points), k)
        base = rng.integers(0, points.shape[0], size=deficit)
        pick = rng.integers(0, k, size=deficit)
        delta = rng.uniform(0.0, 1.0, size=deficit)
        partner = neighbors[base, pick]
        synthetic = points[base] + delta[:, np.newaxis] * (
            points[partner] - points[base]
        )
        new_features.append(synthetic)
        new_labels.append(np.full(deficit, cls, dtype=np.int64))
    if len(new_features) == 1:
        return features, labels
    return np.vstack(new_features), np.concatenate(new_labels)
