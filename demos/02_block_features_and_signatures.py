"""Block-mean features and per-group spectral signatures.

Generates a small dataset, extracts the 100-blocks-per-specimen feature
table, min-max scales it, and prints the per-class signature rows that a
plotting script would consume.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from soilspec.core import BAND_WAVELENGTHS_NM
from soilspec.features import MinMaxScaler, group_signatures
from soilspec.synthgen import (
    DEFAULT_ENDMEMBERS,
    default_benchmark,
    extract_tables,
    generate_dataset,
    noise_preset,
)

with tempfile.TemporaryDirectory() as tmp:
    # three replicates per training mixture keep this demo quick
    manifest = generate_dataset(
        default_benchmark(3, 0), DEFAULT_ENDMEMBERS,
        noise_preset("bench", seed=11), Path(tmp),
    )
    table = extract_tables(manifest)["train"]

print(f"feature table: {len(table)} block observations "
      f"({len(table) // 100} specimens x 100 blocks), "
      f"{table.features.shape[1]} bands")

scaler = MinMaxScaler().fit(table.features)
scaled = replace(table, features=scaler.transform(table.features))
print("train extremes map to [0, 1]:",
      scaled.features.min() == 0.0 and scaled.features.max() == 1.0)

labels, means = group_signatures(scaled, "class")
print(f"\nper-class signatures ({len(labels)} classes x 13 bands):")
header = "".join(f"{nm:>7}" for nm in BAND_WAVELENGTHS_NM)
print(f"{'class':>14} {header}")
for label, row in zip(labels, means):
    print(f"{label:>14} " + "".join(f"{v:7.3f}" for v in row))

sand_row = means[labels.index("Sand")]
others = np.array([row for label, row in zip(labels, means) if label != "Sand"])
print("\nsand signature dominates every band:",
      bool(np.all(sand_row > others.max(axis=0))))
