"""Rule-based USDA soil-texture triangle classifier.

Twelve piecewise-linear regions over (clay, silt, sand) percentages. The
rule set partitions the simplex: on a 0.1-step scan every point satisfies
exactly one predicate and all twelve classes appear. Boundary inclusivity
follows the conventions written in each predicate; a partition test is the
arbiter for any future edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import COMPOSITION_TOL, Composition, TextureClass, validate_composition
from .errors import AllNonPositive, NumericalFailure, OffSimplex, WeightSumViolation


@dataclass(frozen=True)
class TriangleRule:
    """One region: target class, human-readable predicate, and its evaluator."""

    texture: TextureClass
    condition: str
    predicate: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


# Predicates are written with &/| so they evaluate on scalars and arrays alike.
TRIANGLE_RULES: tuple[TriangleRule, ...] = (
    TriangleRule(
        TextureClass.SAND,
        "silt + 1.5*clay < 15",
        lambda c, m, s: m + 1.5 * c < 15,
    ),
    TriangleRule(
        TextureClass.LOAMY_SAND,
        "silt + 1.5*clay >= 15 and silt + 2*clay < 30",
        lambda c, m, s: (m + 1.5 * c >= 15) & (m + 2 * c < 30),
    ),
    TriangleRule(
        TextureClass.SANDY_LOAM,
        "(7 <= clay < 20 and sand > 52 and silt + 2*clay >= 30) or "
        "(clay < 7 and silt < 50 and silt + 2*clay >= 30)",
        lambda c, m, s: ((c >= 7) & (c < 20) & (s > 52) & (m + 2 * c >= 30))
        | ((c < 7) & (m < 50) & (m + 2 * c >= 30)),
    ),
    TriangleRule(
        TextureClass.LOAM,
        "7 <= clay < 27 and 28 <= silt < 50 and sand <= 52",
        lambda c, m, s: (c >= 7) & (c < 27) & (m >= 28) & (m < 50) & (s <= 52),
    ),
    TriangleRule(
        TextureClass.SILT_LOAM,
        "(silt >= 50 and 12 <= clay < 27) or (50 <= silt < 80 and clay < 12)",
        lambda c, m, s: ((m >= 50) & (c >= 12) & (c < 27))
        | ((m >= 50) & (m < 80) & (c < 12)),
    ),
    TriangleRule(
        TextureClass.SILT,
        "silt >= 80 and clay < 12",
        lambda c, m, s: (m >= 80) & (c < 12),
    ),
    TriangleRule(
        TextureClass.SANDY_CLAY_LOAM,
        "20 <= clay < 35 and silt < 28 and sand > 45",
        lambda c, m, s: (c >= 20) & (c < 35) & (m < 28) & (s > 45),
    ),
    TriangleRule(
        TextureClass.CLAY_LOAM,
        "27 <= clay < 40 and 20 < sand <= 45",
        lambda c, m, s: (c >= 27) & (c < 40) & (s > 20) & (s <= 45),
    ),
    TriangleRule(
        TextureClass.SILTY_CLAY_LOAM,
        "27 <= clay < 40 and sand <= 20",
        lambda c, m, s: (c >= 27) & (c < 40) & (s <= 20),
    ),
    TriangleRule(
        TextureClass.SANDY_CLAY,
        "clay >= 35 and sand > 45",
        lambda c, m, s: (c >= 35) & (s > 45),
    ),
    TriangleRule(
        TextureClass.SILTY_CLAY,
        "clay >= 40 and silt >= 40",
        lambda c, m, s: (c >= 40) & (m >= 40),
    ),
    TriangleRule(
        TextureClass.CLAY,
        "clay >= 40 and sand <= 45 and silt < 40",
        lambda c, m, s: (c >= 40) & (s <= 45) & (m < 40),
    ),
)


def classify_percentages(
    clay: np.ndarray, silt: np.ndarray, sand: np.ndarray
) -> np.ndarray:
    """Vectorized triangle lookup; returns canonical class indices.

    Assumes inputs already lie on the simplex; rows matching no rule (only
    possible off-simplex) come back as -1.
    """
    clay = np.asarray(clay, dtype=np.float64)
    silt = np.asarray(silt, dtype=np.float64)
    sand = np.asarray(sand, dtype=np.float64)
    out = np.full(clay.shape, -1, dtype=np.int64)
    for rule in reversed(TRIANGLE_RULES):
        out = np.where(rule.predicate(clay, silt, sand), rule.texture.index, out)
    return out


def classify_composition(composition: Composition) -> TextureClass:
    """Map one on-simplex composition to its USDA class."""
    clay, silt, sand = (
        composition.clay_pct,
        composition.silt_pct,
        composition.sand_pct,
    )
    if min(clay, silt, sand) < 0 or abs(clay + silt + sand - 100.0) > COMPOSITION_TOL:
        raise OffSimplex(
            f"({clay}, {silt}, {sand}) is not on the 100% simplex; "
            "renormalize predictions first"
        )
    code = int(classify_percentages(clay, silt, sand))
    if code < 0:
        raise OffSimplex(f"({clay}, {silt}, {sand}) matched no triangle region")
    return TextureClass.from_index(code)


def normalize_prediction(clay: float, silt: float, sand: float) -> Composition:
    """Clamp negative components to zero and rescale the triple to sum 100.

    Regression outputs estimate each fraction independently, so their sums
    drift; this projects them back onto the simplex before triangle lookup.
    """
    try:
        ((clay_n, silt_n, sand_n),) = normalize_predictions([[clay, silt, sand]])
    except AllNonPositive:
        raise AllNonPositive(
            f"no positive component in ({clay}, {silt}, {sand})"
        ) from None
    except NumericalFailure:
        raise NumericalFailure(
            f"non-finite component or total in ({clay}, {silt}, {sand})"
        ) from None
    return Composition(float(clay_n), float(silt_n), float(sand_n))


def normalize_predictions(triples: np.ndarray) -> np.ndarray:
    """Vectorized clamp-then-rescale for an (n, 3) prediction array.

    A NaN or infinite component, or a clamped total that overflows, raises
    NumericalFailure naming the first such row.
    """
    triples = np.asarray(triples, dtype=np.float64)
    finite = np.isfinite(triples).all(axis=1)
    triples = np.maximum(triples, 0.0)
    with np.errstate(over="ignore"):
        totals = triples.sum(axis=1)
    finite &= np.isfinite(totals)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NumericalFailure(f"row {bad} has a non-finite component or total")
    if np.any(totals <= 0.0):
        bad = int(np.flatnonzero(totals <= 0.0)[0])
        raise AllNonPositive(f"row {bad} has no positive component")
    # dividing before scaling keeps subnormal totals from overflowing
    return triples / totals[:, np.newaxis] * 100.0


def mixture_composition(
    weights: np.ndarray, endmembers: tuple[Composition, ...]
) -> Composition:
    """Convex combination of endmember compositions by mass fraction."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(endmembers),):
        raise WeightSumViolation(
            f"{weights.size} weights for {len(endmembers)} endmembers"
        )
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise WeightSumViolation(
            f"weights {weights.tolist()} must be >= 0 and sum to 1"
        )
    stacked = np.stack([e.as_array() for e in endmembers])
    mixed = weights @ stacked
    return validate_composition(float(mixed[0]), float(mixed[1]), float(mixed[2]))


def dump_rules() -> str:
    """Human-readable listing of the twelve region predicates, in rule order."""
    lines = ["USDA texture triangle rules (clay/silt/sand in %):"]
    for rule in TRIANGLE_RULES:
        lines.append(f"  {rule.texture.value}: {rule.condition}")
    return "\n".join(lines)
