"""The rule-based USDA texture triangle.

Prints the twelve region predicates, classifies the three source-soil
compositions and a tour of interior points, and shows how drifting
regression outputs are clamped back onto the simplex before lookup.
"""

import numpy as np

from soilspec.core import TextureClass, validate_composition
from soilspec.triangle import (
    classify_composition,
    classify_percentages,
    dump_rules,
    normalize_prediction,
)

print(dump_rules())

print("\nsource soils:")
for name, triple in (
    ("clay rich", (78.63, 21.37, 0.0)),
    ("silt rich", (5.75, 94.25, 0.0)),
    ("sand rich", (0.0, 0.0, 100.0)),
):
    cls = classify_composition(validate_composition(*triple))
    print(f"  {name} {triple} -> {cls.value}")

print("\na walk across the simplex (clay/silt/sand %):")
for triple in [
    (5, 10, 85), (10, 30, 60), (18, 40, 42), (15, 65, 20),
    (5, 88, 7), (30, 15, 55), (33, 33, 34), (33, 52, 15),
    (45, 10, 45), (45, 45, 10), (60, 20, 20),
]:
    cls = classify_composition(validate_composition(*triple))
    print(f"  {str(triple):>14} -> {cls.value}")

print("\nrenormalizing drifting predictions:")
for raw in [(36.2, 12.1, 53.4), (50.0, 50.0, 50.0), (-2.0, 51.0, 51.0)]:
    fixed = normalize_prediction(*raw)
    cls = classify_composition(fixed)
    print(f"  raw {raw} -> ({fixed.clay_pct:.2f}, {fixed.silt_pct:.2f}, "
          f"{fixed.sand_pct:.2f}) -> {cls.value}")

# Vectorized lookup over a coarse sweep, counting region sizes.
step = 1.0
clay, silt = np.meshgrid(np.arange(0, 101, step), np.arange(0, 101, step))
clay, silt = clay.ravel(), silt.ravel()
keep = clay + silt <= 100.0
clay, silt = clay[keep], silt[keep]
codes = classify_percentages(clay, silt, 100.0 - clay - silt)

print(f"\nregion share on a {step:.0f}%-step grid ({codes.size} points):")
counts = np.bincount(codes, minlength=12)
for cls in TextureClass:
    share = counts[cls.index] / codes.size
    print(f"  {cls.value:>14}: {share:6.1%}")
