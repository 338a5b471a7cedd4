"""Synthesize one specimen cube and walk it through preprocessing.

Shows the three stages on a single acquisition: absolute-difference dark
correction, the fixed 100x100 crop, and the bounded tanh contrast mapping,
with per-band statistics printed before and after.
"""

from soilspec.core import BAND_WAVELENGTHS_NM
from soilspec.preprocess import (
    NormalizationParams,
    crop_roi,
    dark_correct,
    preprocess_cube,
    roi_stats,
)
from soilspec.seeding import derive_seed
from soilspec.synthgen import (
    DEFAULT_ENDMEMBERS,
    DEFAULT_ROI,
    MixtureSpec,
    noise_preset,
    synthesize_cube,
    synthesize_dark_frame,
)
from soilspec.triangle import classify_composition

# A loam-ish mixture: 20% clay-rich, 38% silt-rich, 42% sand-rich by mass.
mixture = MixtureSpec(weights=(0.20, 0.38, 0.42), replicate_count=1, role="train")
noise = noise_preset("bench", seed=42)

cube = synthesize_cube(mixture, DEFAULT_ENDMEMBERS, noise, specimen_seed=42)
dark = synthesize_dark_frame(noise, derive_seed(42, 1))
composition = mixture.composition()
texture = classify_composition(composition)
print(f"specimen: {cube.planes.shape[1]}x{cube.planes.shape[2]} pixels, "
      f"{cube.planes.shape[0]} bands")
print(f"ground truth: clay {composition.clay_pct:.2f}%, "
      f"silt {composition.silt_pct:.2f}%, sand {composition.sand_pct:.2f}% "
      f"-> {texture.value}")

# Stage 1 + 2: dark correction, then the shared crop window.
corrected = crop_roi(dark_correct(cube, dark), DEFAULT_ROI)

# Stage 3: per-band tanh normalization; everything lands in [mean-std, mean+std].
processed = preprocess_cube(cube, dark, DEFAULT_ROI, NormalizationParams())

print(f"\n{'band':>6} {'raw mean':>9} {'raw std':>8} {'out mean':>9} "
      f"{'out std':>8} {'out range':>20}")
for i, nm in enumerate(BAND_WAVELENGTHS_NM):
    before = roi_stats(corrected[i])
    plane = processed.planes[i]
    print(f"{nm:>5}n {before.mean:9.2f} {before.std:8.2f} "
          f"{plane.mean():9.2f} {plane.std():8.2f} "
          f"[{plane.min():8.2f}, {plane.max():8.2f}]")

# The mapping compresses spread: output std never exceeds input std.
tighter = all(
    processed.planes[i].std() <= roi_stats(corrected[i]).std
    for i in range(len(BAND_WAVELENGTHS_NM))
)
print(f"\nhistogram compaction holds on all bands: {tighter}")
bounded = all(
    processed.planes[i].min() >= s.mean - s.std - 1e-12
    and processed.planes[i].max() <= s.mean + s.std + 1e-12
    for i, s in enumerate(processed.stats)
)
print(f"every pixel within [mean-std, mean+std]: {bounded}")
