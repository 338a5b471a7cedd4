"""Synthetic acquisition generator standing in for a physical dataset.

Specimens are linear mixtures of three endmember soils. Per band, the base
level is the weight-mixed endmember reflectance; blocks of 10x10 pixels get
a shared texture perturbation, and every pixel adds a dark-current offset
plus signal-proportional noise before 10-bit quantization. Linear mixing is
a modelling convenience that exercises the pipeline math; it does not claim
to reproduce real soil optics.

All randomness derives from one master seed through an explicit index path
(role, mixture, replicate), so generation is reproducible and specimens can
be synthesized in any order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    BAND_WAVELENGTHS_NM,
    COMPOSITION_TOL,
    MAX_INTENSITY,
    N_BANDS,
    Composition,
    DarkFrame,
    Roi,
    SpectralCube,
    TextureClass,
    validate_composition,
)
from .cubeio import (
    fmt_float,
    read_csv_rows,
    read_cube,
    read_dark_frame,
    write_csv_rows,
    write_cube,
    write_dark_frame,
)
from .errors import BadArgument, IoFailure, MalformedHeader, SoilspecError
from .features import (
    BLOCK_SIDE,
    BLOCKS_PER_SPECIMEN,
    block_means,
    flatten_observations,
)
from .preprocess import NormalizationParams, preprocess_cube
from .seeding import derive_seed
from .triangle import classify_composition, mixture_composition

# Laboratory-measured endmember compositions (clay%, silt%, sand%).
ENDMEMBER_NAMES = ("clayrich", "siltrich", "sandrich")
ENDMEMBER_COMPOSITIONS: tuple[Composition, ...] = (
    validate_composition(78.63, 21.37, 0.00),
    validate_composition(5.75, 94.25, 0.00),
    validate_composition(0.00, 0.00, 100.00),
)

# Default endmember reflectance levels (counts, 0..1023) per band, v1.
# Sand-rich quartz reflects most everywhere and plateaus in the NIR;
# silt-rich soil climbs steeply through the visible then flattens;
# clay-rich soil is darkest and dips again past 830 nm (absorption-like
# feature). The three shapes are deliberately non-parallel so mixtures
# spread over a genuinely two-dimensional spectral plane.
DEFAULT_ENDMEMBER_SPECTRA = np.array(
    [
        # 365  405  473  530  575  621  660  735  770  830  850  890  940
        [200, 228, 262, 290, 306, 316, 322, 330, 334, 330, 322, 310, 296],
        [330, 385, 445, 485, 508, 520, 528, 536, 539, 542, 543, 541, 538],
        [560, 600, 645, 675, 692, 702, 709, 716, 719, 721, 722, 722, 721],
    ],
    dtype=np.float64,
)

# Synthetic image geometry: the default ROI origin is block-aligned so the
# 10x10 feature grid sees the per-block texture noise coherently.
IMAGE_SIDE = 120
DEFAULT_ROI = Roi(x1=10, y1=10)
_CUBE_SHAPE = (N_BANDS, IMAGE_SIDE, IMAGE_SIDE)


@dataclass(frozen=True)
class EndmemberLibrary:
    """Spectra of the three endmembers (rows: clayrich, siltrich, sandrich)."""

    spectra: np.ndarray  # (3, 13) reflectance levels in (0, 1023)

    def __post_init__(self) -> None:
        spectra = np.asarray(self.spectra, dtype=np.float64)
        if spectra.shape != (3, N_BANDS):
            raise MalformedHeader(f"endmember spectra must be (3, {N_BANDS})")
        self.check_levels(spectra)
        object.__setattr__(self, "spectra", spectra)

    @staticmethod
    def check_levels(levels: np.ndarray) -> None:
        # written as a negation so that NaN fails it too
        if not ((levels > 0) & (levels < MAX_INTENSITY)).all():
            raise MalformedHeader("endmember levels must lie strictly in (0, 1023)")

    def mix(self, weights: np.ndarray) -> np.ndarray:
        """Per-band base level of a weighted mixture."""
        return np.asarray(weights, dtype=np.float64) @ self.spectra


DEFAULT_ENDMEMBERS = EndmemberLibrary(spectra=DEFAULT_ENDMEMBER_SPECTRA)


@dataclass(frozen=True)
class MixtureSpec:
    """One prepared mixture: endmember mass fractions and replicate count."""

    weights: tuple[float, float, float]  # clayrich, siltrich, sandrich
    replicate_count: int
    role: str  # "train" | "validation"

    def composition(self) -> Composition:
        return mixture_composition(np.asarray(self.weights), ENDMEMBER_COMPOSITIONS)


@dataclass(frozen=True)
class NoiseModel:
    """Acquisition noise parameters plus the master seed.

    The defaults are the `bench` preset.
    """

    dark_mean: float = 48.0
    dark_std: float = 6.0
    shot_scale: float = 0.05
    block_texture_std: float = 12.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.dark_std, self.shot_scale, self.block_texture_std) < 0:
            raise BadArgument("noise standard deviations must be >= 0")


# clean is noise-free, bench lands model scores in the high-but-imperfect
# regime the acceptance targets assume, stress pushes them below those
# targets.
NOISE_PRESETS = {
    "clean": NoiseModel(dark_mean=0.0, dark_std=0.0, shot_scale=0.0,
                        block_texture_std=0.0),
    "bench": NoiseModel(),
    "stress": NoiseModel(dark_mean=48.0, dark_std=12.0, shot_scale=0.18,
                         block_texture_std=30.0),
}


def noise_preset(name: str, seed: int = 0) -> NoiseModel:
    if name not in NOISE_PRESETS:
        raise BadArgument(f"unknown noise preset {name!r}; choose from "
                          f"{sorted(NOISE_PRESETS)}")
    return replace(NOISE_PRESETS[name], seed=seed)


# 22 training mixtures (mass-fraction percents of clayrich/siltrich/sandrich).
# Chosen so the derived compositions reach every one of the twelve USDA
# classes; verified by the all-classes-reachable test.
TRAIN_MIXTURES_PCT: tuple[tuple[int, int, int], ...] = (
    (0, 0, 100),
    (2, 5, 93),
    (5, 12, 83),
    (8, 20, 72),
    (11, 24, 65),
    (3, 35, 62),
    (20, 38, 42),
    (25, 30, 45),
    (15, 60, 25),
    (5, 75, 20),
    (1, 91, 8),
    (45, 27, 28),
    (35, 8, 57),
    (44, 5, 51),
    (40, 25, 35),
    (38, 47, 15),
    (47, 2, 51),
    (52, 36, 12),
    (75, 10, 15),
    (100, 0, 0),
    (0, 100, 0),
    (85, 5, 10),
)

# 7 held-out validation mixtures at intermediate ratios, each a few
# mass-percent away from its nearest training ratio.
VALIDATION_MIXTURES_PCT: tuple[tuple[int, int, int], ...] = (
    (4, 14, 82),
    (9, 21, 70),
    (21, 36, 43),
    (6, 73, 21),
    (34, 10, 56),
    (42, 28, 30),
    (73, 10, 17),
)

TRAIN_REPLICATES = 20
VALIDATION_REPLICATES = 12


def default_benchmark(
    train_replicates: int = TRAIN_REPLICATES,
    validation_replicates: int = VALIDATION_REPLICATES,
) -> tuple[list[MixtureSpec], list[MixtureSpec]]:
    """The stock desk-scale dataset: 22 train and 7 validation mixtures, by
    default with 20 and 12 replicates each. A count of 0 gives an empty list."""

    def specs(mixtures, replicates, role):
        return [
            MixtureSpec((a / 100.0, b / 100.0, c / 100.0), replicates, role)
            for a, b, c in mixtures
            if replicates
        ]

    return (
        specs(TRAIN_MIXTURES_PCT, train_replicates, "train"),
        specs(VALIDATION_MIXTURES_PCT, validation_replicates, "validation"),
    )


def synthesize_dark_frame(noise: NoiseModel, seed: int) -> DarkFrame:
    """Independent dark-current exposure: per-pixel Gaussian offsets."""
    rng = np.random.Generator(np.random.PCG64(seed))
    plane = rng.normal(noise.dark_mean, noise.dark_std, (IMAGE_SIDE, IMAGE_SIDE))
    plane = np.clip(np.rint(plane), 0, MAX_INTENSITY).astype(np.uint16)
    return DarkFrame(plane=plane)


def synthesize_cube(
    spec: MixtureSpec,
    endmembers: EndmemberLibrary,
    noise: NoiseModel,
    specimen_seed: int,
) -> SpectralCube:
    """Render one specimen cube.

    Draw order per band stack: block texture, dark offsets, then unit
    normals scaled by shot_scale * signal; fixed so a seed pins the cube.
    Per pixel, ``rint((signal + dark) + (shot_scale * signal) * shot)``
    clipped to 0..1023. Only the pixels take a whole cube: signal and shot
    noise are added one band at a time, and the shot normals drawn band
    after band are those of one whole-cube draw.
    """
    rng = np.random.Generator(np.random.PCG64(specimen_seed))
    base = endmembers.mix(np.asarray(spec.weights))
    grid = IMAGE_SIDE // BLOCK_SIDE
    # One texture draw per block, shared by all bands: a block is a coherent
    # surface patch whose packing shifts the whole spectrum together.
    block_noise = rng.normal(0.0, noise.block_texture_std, (grid, grid))
    block_pixels = np.kron(block_noise, np.ones((BLOCK_SIDE, BLOCK_SIDE)))
    pixels = rng.normal(noise.dark_mean, noise.dark_std, _CUBE_SHAPE)
    for band, level in zip(pixels, base):
        signal = level + block_pixels
        band += signal
        band += noise.shot_scale * signal * rng.standard_normal(signal.shape)
    np.rint(pixels, out=pixels)
    np.clip(pixels, 0, MAX_INTENSITY, out=pixels)
    return SpectralCube(planes=pixels.astype(np.uint16))


@dataclass(frozen=True)
class ManifestEntry:
    specimen_id: str
    role: str
    weights: tuple[float, float, float]
    composition: Composition
    texture: TextureClass
    cube_path: str  # relative to the manifest directory


MANIFEST_HEADER = [
    "specimen_id", "role",
    "w_clayrich", "w_siltrich", "w_sandrich",
    "clay", "silt", "sand", "texture", "cube_path",
]

_ROLE_INDEX = {"train": 0, "validation": 1}
_DARK_SEED_TAG = 2


def _specimen_plan(
    mixtures: list[MixtureSpec],
) -> list[tuple[str, MixtureSpec, int, int, int]]:
    plan = []
    for m_idx, mixture in enumerate(mixtures):
        for rep in range(mixture.replicate_count):
            specimen_id = f"{mixture.role}-{m_idx + 1:02d}-{rep + 1:02d}"
            plan.append((specimen_id, mixture, _ROLE_INDEX[mixture.role], m_idx, rep))
    return plan


def generate_dataset(
    benchmark: tuple[list[MixtureSpec], list[MixtureSpec]],
    endmembers: EndmemberLibrary,
    noise: NoiseModel,
    out_dir: str | Path,
    threads: int = 1,
) -> Path:
    """Write all cubes, the shared dark frame, and the manifest CSV.

    Deterministic under the noise seed: reruns produce byte-identical trees.
    Returns the manifest path.
    """
    out_dir = Path(out_dir)
    cube_dir = out_dir / "cubes"
    try:
        cube_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {cube_dir}: {exc}") from exc
    dark = synthesize_dark_frame(noise, derive_seed(noise.seed, _DARK_SEED_TAG))
    write_dark_frame(dark, out_dir / "dark.msc")
    train, validation = benchmark
    plan = _specimen_plan(list(train)) + _specimen_plan(list(validation))

    def render(entry):
        specimen_id, mixture, role_idx, m_idx, rep = entry
        seed = derive_seed(noise.seed, role_idx, m_idx, rep)
        rel_path = f"cubes/{specimen_id}.msc"
        write_cube(
            synthesize_cube(mixture, endmembers, noise, seed), out_dir / rel_path
        )
        composition = mixture.composition()
        return ManifestEntry(
            specimen_id=specimen_id,
            role=mixture.role,
            weights=mixture.weights,
            composition=composition,
            texture=classify_composition(composition),
            cube_path=rel_path,
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        entries = list(pool.map(render, plan))

    manifest_path = out_dir / "manifest.csv"
    write_csv_rows(
        manifest_path,
        MANIFEST_HEADER,
        (
            [e.specimen_id, e.role]
            + [fmt_float(w) for w in e.weights]
            + [fmt_float(v) for v in e.composition.as_array()]
            + [e.texture.value, e.cube_path]
            for e in entries
        ),
    )
    return manifest_path


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a manifest; a non-numeric or non-finite weight, a non-numeric or
    off-simplex composition, an unknown role or texture, weights that do not
    sum to 1 or mix to the composition, a texture other than the triangle's
    for it, or a repeated specimen id fails naming its line."""
    path = Path(path)
    first_lines: dict[str, int] = {}

    def parse(line: int, row: list[str]) -> ManifestEntry:
        first = first_lines.setdefault(row[0], line)
        if first != line:
            raise MalformedHeader(f"specimen id {row[0]!r} repeats line {first}")
        weights = (float(row[2]), float(row[3]), float(row[4]))
        composition = validate_composition(float(row[5]), float(row[6]), float(row[7]))
        texture = TextureClass.from_name(row[8])
        if row[1] not in _ROLE_INDEX:
            raise MalformedHeader(f"unknown role {row[1]!r}")
        if not np.isfinite(weights).all():
            raise MalformedHeader("non-finite weight")
        mixed = mixture_composition(
            np.asarray(weights), ENDMEMBER_COMPOSITIONS
        ).as_array()
        if np.abs(mixed - composition.as_array()).max() > COMPOSITION_TOL:
            raise MalformedHeader(
                f"weights {list(weights)} mix to {mixed.tolist()}, "
                f"not to the row's composition"
            )
        expected = classify_composition(composition)
        if texture is not expected:
            raise MalformedHeader(
                f"texture {texture.value} differs from the triangle's "
                f"{expected.value} for this composition"
            )
        return ManifestEntry(row[0], row[1], weights, composition, texture, row[9])

    return read_csv_rows(path, MANIFEST_HEADER, "manifest", parse)


def read_endmember_csv(path: str | Path) -> EndmemberLibrary:
    """Load endmember spectra overrides: band_nm,clayrich,siltrich,sandrich,
    one row per band in wavelength order. A non-integer band, a non-numeric
    level, a level outside (0, 1023) or a band out of order fails on its
    row, and a file without 13 band rows fails naming the file."""
    path = Path(path)
    bands = iter(BAND_WAVELENGTHS_NM)

    def parse(line: int, row: list[str]) -> np.ndarray:
        band = int(row[0])
        levels = np.array([float(row[1]), float(row[2]), float(row[3])])
        EndmemberLibrary.check_levels(levels)
        expected = next(bands, band)  # a row past the last band: counted below
        if band != expected:
            raise MalformedHeader(f"band {band} out of order (expected {expected})")
        return levels

    rows = read_csv_rows(path, ["band_nm", *ENDMEMBER_NAMES], "endmember", parse)
    if len(rows) != N_BANDS:
        raise MalformedHeader(f"{path}: expected {N_BANDS} band rows")
    return EndmemberLibrary(spectra=np.column_stack(rows))


def extract_tables(
    manifest_path: str | Path,
    roi: Roi = DEFAULT_ROI,
    params: NormalizationParams = NormalizationParams(),
    threads: int = 1,
):
    """Preprocess every manifest cube into block-level observation tables.

    Returns {"train": table, "validation": table}; a role missing from the
    manifest maps to an empty table.
    """
    manifest_path = Path(manifest_path)
    base_dir = manifest_path.parent
    entries = load_manifest(manifest_path)
    dark = read_dark_frame(base_dir / "dark.msc")

    members = {role: [e for e in entries if e.role == role] for role in _ROLE_INDEX}
    blocks = {
        role: np.empty((len(group), BLOCKS_PER_SPECIMEN, N_BANDS))
        for role, group in members.items()
    }
    # a cube's block means go to its place among its role's manifest rows
    row = {e.specimen_id: i for group in members.values() for i, e in enumerate(group)}

    def process(entry: ManifestEntry) -> None:
        try:
            cube = read_cube(base_dir / entry.cube_path)
            processed = preprocess_cube(cube, dark, roi, params)
        except SoilspecError as exc:
            raise type(exc)(f"specimen {entry.specimen_id}: {exc}") from exc
        blocks[entry.role][row[entry.specimen_id]] = block_means(processed)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(process, entries))

    return {
        role: flatten_observations(
            blocks[role], [(e.composition, e.texture, e.specimen_id) for e in group]
        )
        for role, group in members.items()
    }
