"""Core domain types: wavelength bands, spectral cubes, compositions, classes.

A spectral cube is a stack of 13 co-registered monochrome planes captured at
fixed LED wavelengths; intensities are 10-bit samples stored in 16-bit cells.
Compositions are (clay, silt, sand) percentage triples on the 100% simplex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadArgument,
    DimensionMismatch,
    IntensityOverflow,
    NegativeComponent,
    RoiOutOfBounds,
    SumViolation,
)

# The 13 LED center wavelengths, ascending. Storage order everywhere.
BAND_WAVELENGTHS_NM: tuple[int, ...] = (
    365, 405, 473, 530, 575, 621, 660, 735, 770, 830, 850, 890, 940,
)
N_BANDS = len(BAND_WAVELENGTHS_NM)

# 10-bit ADC: valid intensities are 0..1023 even though cells are 16-bit.
MAX_INTENSITY = 1023

# Fixed crop window side used by the whole pipeline.
ROI_SIDE = 100

# The crop window is split into BLOCK_GRID x BLOCK_GRID feature blocks.
BLOCK_GRID = 10

# Composition components must sum to 100 within this absolute tolerance.
COMPOSITION_TOL = 1e-6


class TextureClass(enum.Enum):
    """The twelve USDA texture categories.

    Enum order is the canonical class index (0..11) used for vote
    tie-breaking and confusion-matrix layout; values are the canonical
    CSV spellings.
    """

    SAND = "Sand"
    LOAMY_SAND = "LoamySand"
    SANDY_LOAM = "SandyLoam"
    LOAM = "Loam"
    SILT_LOAM = "SiltLoam"
    SILT = "Silt"
    SANDY_CLAY_LOAM = "SandyClayLoam"
    CLAY_LOAM = "ClayLoam"
    SILTY_CLAY_LOAM = "SiltyClayLoam"
    SANDY_CLAY = "SandyClay"
    SILTY_CLAY = "SiltyClay"
    CLAY = "Clay"

    @property
    def index(self) -> int:
        return _TEXTURE_INDEX[self]

    @classmethod
    def from_index(cls, idx: int) -> "TextureClass":
        return _TEXTURE_ORDER[idx]

    @classmethod
    def from_name(cls, name: str) -> "TextureClass":
        try:
            return cls(name)
        except ValueError:
            raise BadArgument(f"unknown texture class name: {name!r}") from None


_TEXTURE_ORDER = tuple(TextureClass)
_TEXTURE_INDEX = {c: i for i, c in enumerate(_TEXTURE_ORDER)}
N_CLASSES = len(_TEXTURE_ORDER)
TEXTURE_NAMES = tuple(c.value for c in _TEXTURE_ORDER)
TEXTURE_CODES = {name: code for code, name in enumerate(TEXTURE_NAMES)}


@dataclass(frozen=True)
class Composition:
    """A (clay, silt, sand) percentage triple.

    :func:`validate_composition` enforces the simplex constraint; model
    outputs may drift off it and must be renormalized before triangle
    classification.
    """

    clay_pct: float
    silt_pct: float
    sand_pct: float

    def as_array(self) -> np.ndarray:
        return np.array([self.clay_pct, self.silt_pct, self.sand_pct])


def validate_composition(clay: float, silt: float, sand: float) -> Composition:
    """Build a measured composition, enforcing the 100% simplex constraint."""
    for name, value in (("clay", clay), ("silt", silt), ("sand", sand)):
        if not np.isfinite(value) or value < 0.0 or value > 100.0:
            raise NegativeComponent(f"{name} component {value!r} outside [0, 100]")
    total = clay + silt + sand
    if abs(total - 100.0) > COMPOSITION_TOL:
        raise SumViolation(f"({clay}, {silt}, {sand}) sums to {total!r}, expected 100")
    return Composition(float(clay), float(silt), float(sand))


@dataclass(frozen=True)
class Roi:
    """ROI_SIDE x ROI_SIDE crop window at (x1, y1), identical for all 13 bands."""

    x1: int
    y1: int

    def check_fits(self, height: int, width: int) -> None:
        if self.x1 < 0 or self.y1 < 0:
            raise RoiOutOfBounds(f"negative ROI origin ({self.x1}, {self.y1})")
        if self.x1 + ROI_SIDE > width or self.y1 + ROI_SIDE > height:
            raise RoiOutOfBounds(
                f"ROI ({self.x1}, {self.y1}, side {ROI_SIDE}) exceeds "
                f"{width}x{height} image"
            )


def _check_intensities(planes: np.ndarray) -> None:
    if planes.size and int(planes.max()) > MAX_INTENSITY:
        raise IntensityOverflow(
            f"intensity {int(planes.max())} exceeds {MAX_INTENSITY}"
        )


@dataclass(frozen=True, eq=False)
class SpectralCube:
    """13 aligned uint16 planes, one per BAND_WAVELENGTHS_NM entry, in order."""

    planes: np.ndarray  # shape (13, height, width), dtype uint16

    def __post_init__(self) -> None:
        planes = np.asarray(self.planes, dtype=np.uint16)
        if planes.ndim != 3:
            raise DimensionMismatch(f"cube planes must be 3-D, got {planes.shape}")
        if planes.shape[0] != N_BANDS:
            raise DimensionMismatch(
                f"expected {N_BANDS} planes, got {planes.shape[0]}"
            )
        _check_intensities(planes)
        object.__setattr__(self, "planes", planes)


@dataclass(frozen=True, eq=False)
class DarkFrame:
    """Single no-illumination plane used for dark-current correction."""

    plane: np.ndarray  # shape (height, width), dtype uint16

    def __post_init__(self) -> None:
        plane = np.asarray(self.plane, dtype=np.uint16)
        if plane.ndim != 2:
            raise DimensionMismatch(f"dark frame must be 2-D, got {plane.shape}")
        _check_intensities(plane)
        object.__setattr__(self, "plane", plane)


@dataclass
class ObservationTable:
    """Column-oriented store for block-level observations.

    One row per 10x10 block: specimen id, block grid position, the 13
    per-band features, the (clay, silt, sand) targets, and the texture
    class code (canonical index).
    """

    specimen_ids: np.ndarray  # (n,) str
    block_rows: np.ndarray  # (n,) int, 1..10
    block_cols: np.ndarray  # (n,) int, 1..10
    features: np.ndarray  # (n, 13) float64
    compositions: np.ndarray  # (n, 3) float64, columns clay/silt/sand
    texture_codes: np.ndarray  # (n,) int, canonical class index

    def __post_init__(self) -> None:
        n = len(self.specimen_ids)
        self.specimen_ids = np.asarray(self.specimen_ids, dtype=object)
        self.block_rows = np.asarray(self.block_rows, dtype=np.int64)
        self.block_cols = np.asarray(self.block_cols, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.compositions = np.asarray(self.compositions, dtype=np.float64)
        self.texture_codes = np.asarray(self.texture_codes, dtype=np.int64)
        shapes_ok = (
            self.block_rows.shape == (n,)
            and self.block_cols.shape == (n,)
            and self.features.shape == (n, N_BANDS)
            and self.compositions.shape == (n, 3)
            and self.texture_codes.shape == (n,)
        )
        if not shapes_ok:
            raise DimensionMismatch("observation table columns disagree on length")

    def __len__(self) -> int:
        return len(self.specimen_ids)

    def select(self, index: np.ndarray) -> "ObservationTable":
        """Row subset (boolean mask or integer indices)."""
        return ObservationTable(
            specimen_ids=self.specimen_ids[index],
            block_rows=self.block_rows[index],
            block_cols=self.block_cols[index],
            features=self.features[index],
            compositions=self.compositions[index],
            texture_codes=self.texture_codes[index],
        )
