"""Supervised discriminant reduction on the block-feature table.

Fits the scatter-matrix eigenproblem twice (texture-class supervision and
composition-group supervision), shows the eigenvalue energy rule picking
the component count, and prints how tightly classes cluster after
projection.
"""

import tempfile
from pathlib import Path

import numpy as np

from soilspec.core import TextureClass
from soilspec.features import MinMaxScaler, composition_group_labels
from soilspec.lda import fit_lda, project, scatter
from soilspec.synthgen import (
    DEFAULT_ENDMEMBERS,
    default_benchmark,
    extract_tables,
    generate_dataset,
    noise_preset,
)

with tempfile.TemporaryDirectory() as tmp:
    manifest = generate_dataset(
        default_benchmark(3, 0), DEFAULT_ENDMEMBERS,
        noise_preset("bench", seed=21), Path(tmp),
    )
    table = extract_tables(manifest)["train"]

features = MinMaxScaler().fit(table.features).transform(table.features)

for name, labels in (
    ("texture classes", table.texture_codes),
    ("composition groups", composition_group_labels(table.compositions)[0]),
):
    pair = scatter(features, labels)
    model = fit_lda(pair)
    shares = model.eigenvalues / model.eigenvalues.sum()
    kept = ", ".join(f"{s:.4f}" for s in shares[: model.k_selected + 2])
    print(f"supervision: {name} ({np.unique(labels).size} classes)")
    print(f"  eigenvalue shares: {kept}, ...")
    print(f"  99% energy keeps K = {model.k_selected} of "
          f"{model.eigenvalues.size} directions")
    projected = project(model, features)
    # cluster tightness: class spread vs distance to the nearest other class
    centroids = np.stack(
        [projected[labels == c].mean(axis=0) for c in np.unique(labels)]
    )
    spreads = np.array(
        [projected[labels == c].std(axis=0).max() for c in np.unique(labels)]
    )
    gaps = np.linalg.norm(centroids[:, None] - centroids[None, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    print(f"  min centroid gap {gaps.min():.4f} vs max class spread "
          f"{spreads.max():.4f}\n")

# The projection is what downstream models consume; show a few rows.
pair = scatter(features, table.texture_codes)
model = fit_lda(pair)
projected = project(model, features)
print("first blocks of three specimens in the reduced space:")
for row in (0, 100, 200):
    cls = TextureClass.from_index(int(table.texture_codes[row])).value
    coords = ", ".join(f"{v:8.4f}" for v in projected[row])
    print(f"  {table.specimen_ids[row]:>14} [{coords}]  {cls}")
