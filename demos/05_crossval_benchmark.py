"""Reduced-scale run of the full five-fold benchmark.

Generates a 6-replicate dataset, runs all three strategies for KNN and a
decision tree under leakage-safe five-fold cross-validation, then scores
the external validation mixtures with frozen transforms. With the stock
20-replicate benchmark this is exactly what `soilspec evaluate` executes.
"""

import tempfile
import time
from pathlib import Path

from soilspec import MixtureSpec, ModelSpec, make_folds, noise_preset
from soilspec.pipeline import run_external_validation, run_strategies
from soilspec.synthgen import (
    DEFAULT_ENDMEMBERS,
    default_benchmark,
    extract_tables,
    generate_dataset,
)

start = time.time()
train, validation = default_benchmark()
train = [MixtureSpec(m.weights, 6, m.role) for m in train]
validation = [MixtureSpec(m.weights, 3, m.role) for m in validation]

with tempfile.TemporaryDirectory() as tmp:
    manifest = generate_dataset(
        (train, validation), DEFAULT_ENDMEMBERS,
        noise_preset("bench", seed=7), Path(tmp),
    )
    tables = extract_tables(manifest)

table, external = tables["train"], tables["validation"]
print(f"{len(table)} training blocks, {len(external)} validation blocks "
      f"({time.time() - start:.1f}s to synthesize + extract)")

plan = make_folds(table, seed=7)

# One fold stage fits the scaler, projection and SMOTE once per fold and
# strategy family, and shares them between both models.
models = [ModelSpec("knn", k=5), ModelSpec("dt")]
results = run_strategies(table, plan, [1, 2, 3], models)

for model in models:
    agg1 = results[1, model.name].aggregates()
    agg2 = results[2, model.name].aggregates()
    agg3 = results[3, model.name].aggregates()
    print(f"\n=== {model.name} ===")
    print(f"  direct classification:   accuracy {agg1['accuracy'][0]:.4f} "
          f"+/- {agg1['accuracy'][1]:.4f}, macro F1 {agg1['macro_f1'][0]:.4f}")
    r2 = ", ".join(
        f"{c} {agg2[f'r2_{c}'][0]:.4f}" for c in ("clay", "silt", "sand")
    )
    rmse = ", ".join(
        f"{agg2[f'rmse_{c}'][0]:.3f}" for c in ("clay", "silt", "sand")
    )
    print(f"  composition regression:  R2 [{r2}], RMSE [{rmse}]")
    print(f"  indirect via triangle:   accuracy {agg3['accuracy'][0]:.4f} "
          f"+/- {agg3['accuracy'][1]:.4f}")
    direct = [m["accuracy"] for m in results[1, model.name].fold_metrics()]
    indirect = [m["accuracy"] for m in results[3, model.name].fold_metrics()]
    wins = sum(i <= d for d, i in zip(direct, indirect))
    print(f"  indirect <= direct in {wins}/5 folds")

report = run_external_validation(table, external, models[0], seed=7)["knn"]
print("\n=== external validation (KNN, frozen transforms) ===")
for component, r2, rmse in zip(("clay", "silt", "sand"), report.r2, report.rmse):
    print(f"  {component}: R2 {r2:.4f}, RMSE {rmse:.3f}")
print(f"\ntotal {time.time() - start:.1f}s")
