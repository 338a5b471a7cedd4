"""Synthesize one specimen cube and walk it through preprocessing.

Shows the three stages on a single acquisition: absolute-difference dark
correction, the fixed 100x100 crop, and the bounded tanh contrast mapping,
with per-band statistics printed before and after.
"""

import numpy as np

from soilspec.core import BAND_WAVELENGTHS_NM, ROI_SIDE
from soilspec.preprocess import NormalizationParams, preprocess_cube, roi_stats
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

# Stage 1 + 2: the shared crop window of |band - dark|, spelled out in numpy.
window = (slice(DEFAULT_ROI.y1, DEFAULT_ROI.y1 + ROI_SIDE),
          slice(DEFAULT_ROI.x1, DEFAULT_ROI.x1 + ROI_SIDE))
corrected = np.abs(cube.planes[(slice(None), *window)].astype(np.float64)
                   - dark.plane[window].astype(np.float64))
stats = [roi_stats(band) for band in corrected]

# All three stages in one call: every band lands in [mean-std, mean+std] of
# its dark-corrected crop.
processed = preprocess_cube(cube, dark, DEFAULT_ROI, NormalizationParams())

print(f"\n{'band':>6} {'raw mean':>9} {'raw std':>8} {'out mean':>9} "
      f"{'out std':>8} {'out range':>20}")
for nm, plane, s in zip(BAND_WAVELENGTHS_NM, processed, stats):
    print(f"{nm:>5}n {s.mean:9.2f} {s.std:8.2f} "
          f"{plane.mean():9.2f} {plane.std():8.2f} "
          f"[{plane.min():8.2f}, {plane.max():8.2f}]")

# The mapping compresses spread: output std never exceeds input std.
tighter = all(plane.std() <= s.std for plane, s in zip(processed, stats))
print(f"\nhistogram compaction holds on all bands: {tighter}")
bounded = all(
    plane.min() >= s.mean - s.std - 1e-12 and plane.max() <= s.mean + s.std + 1e-12
    for plane, s in zip(processed, stats)
)
print(f"every pixel within [mean-std, mean+std]: {bounded}")
