"""Preprocessing: dark-current correction, ROI crop, tanh contrast mapping.

Stage order is fixed: absolute-difference dark correction, then cropping the
shared 100x100 window from every band, then the bounded tanh normalization
using the mean/std of each dark-corrected cropped band. All arithmetic is
float64 from the dark correction onward.

:func:`preprocess_cube` crops the raw planes and the dark frame first and
casts only the window to float64; the correction is per pixel, so this
gives the bits of correcting first. It then corrects, measures and
normalizes each band in place in that one array, with the operations of
:func:`dark_correct`, :func:`roi_stats` and :func:`normalize_contrast` in
their order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ROI_SIDE, DarkFrame, Roi, SpectralCube
from .errors import DimensionMismatch

ROI_PIXELS = ROI_SIDE * ROI_SIDE


@dataclass(frozen=True)
class BandStats:
    """Population mean/std of one band inside the ROI (1/N denominator)."""

    mean: float
    std: float


@dataclass(frozen=True)
class NormalizationParams:
    """Steepness of the tanh contrast mapping."""

    kappa: float = 0.03

    def __post_init__(self) -> None:
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")


@dataclass(frozen=True)
class PreprocessedRoi:
    """13 normalized 100x100 planes plus the per-band stats used to map them.

    Every pixel of band i lies in [stats[i].mean - std, stats[i].mean + std].
    """

    planes: np.ndarray  # (13, 100, 100) float64
    stats: tuple[BandStats, ...]  # length 13


def _as_planes(cube: SpectralCube | np.ndarray) -> np.ndarray:
    planes = cube.planes if isinstance(cube, SpectralCube) else np.asarray(cube)
    if planes.ndim != 3:
        raise DimensionMismatch(f"expected (bands, h, w) planes, got {planes.shape}")
    return planes


def _dark_plane(planes: np.ndarray, dark: DarkFrame | np.ndarray) -> np.ndarray:
    dark_plane = dark.plane if isinstance(dark, DarkFrame) else np.asarray(dark)
    if dark_plane.shape != planes.shape[1:]:
        raise DimensionMismatch(
            f"dark frame {dark_plane.shape} does not match bands {planes.shape[1:]}"
        )
    return dark_plane


def _abs_difference(planes: np.ndarray, dark_plane: np.ndarray) -> np.ndarray:
    out = planes.astype(np.float64)
    out -= dark_plane.astype(np.float64)
    return np.abs(out, out=out)


def dark_correct(cube: SpectralCube | np.ndarray, dark: DarkFrame | np.ndarray) -> np.ndarray:
    """Absolute difference |band - dark| per pixel; output is float64, >= 0."""
    planes = _as_planes(cube)
    return _abs_difference(planes, _dark_plane(planes, dark))


def _window(roi: Roi) -> tuple[slice, slice]:
    return slice(roi.y1, roi.y1 + roi.side), slice(roi.x1, roi.x1 + roi.side)


def crop_roi(cube: SpectralCube | np.ndarray, roi: Roi) -> np.ndarray:
    """Crop the same window from every band: rows [y1, y1+side), cols [x1, x1+side)."""
    planes = _as_planes(cube)
    _, height, width = planes.shape
    roi.check_fits(height, width)
    return planes[(slice(None), *_window(roi))].copy()


def roi_stats(plane: np.ndarray) -> BandStats:
    """Population mean and standard deviation over the 10,000 ROI pixels."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.size != ROI_PIXELS:
        raise DimensionMismatch(f"expected {ROI_PIXELS} pixels, got {plane.size}")
    return BandStats(mean=float(plane.mean()), std=float(plane.std()))


def _normalize_in_place(
    plane: np.ndarray, stats: BandStats, params: NormalizationParams
) -> np.ndarray:
    """normalize_contrast's arithmetic, step for step, on a float64 plane."""
    mu, sigma = stats.mean, stats.std
    if sigma == 0.0:
        plane.fill(mu)
        return plane
    plane -= mu
    plane *= params.kappa
    np.tanh(plane, out=plane)
    plane += 1.0
    plane *= 2.0 * sigma
    plane /= 2.0
    plane += mu - sigma
    # Guard the closed range against last-ulp rounding of the affine map.
    return np.clip(plane, mu - sigma, mu + sigma, out=plane)


def normalize_contrast(
    plane: np.ndarray, stats: BandStats, params: NormalizationParams
) -> np.ndarray:
    """Bounded tanh intensity mapping.

    out = (mean - std) + 2*std * (tanh(kappa*(in - mean)) + 1) / 2

    Monotone in the input, fixes the mean, and compresses everything into
    [mean - std, mean + std]. A constant band (std = 0) maps to the constant
    mean plane, the continuous limit of the transform.
    """
    return _normalize_in_place(np.array(plane, dtype=np.float64), stats, params)


def preprocess_cube(
    cube: SpectralCube,
    dark: DarkFrame,
    roi: Roi,
    params: NormalizationParams = NormalizationParams(),
) -> PreprocessedRoi:
    """Dark-correct, crop, then normalize each band with its own ROI stats.

    Crops before the float64 cast, then works in place on that one array
    (see the module docstring).
    """
    planes = _as_planes(cube)
    dark_plane = _dark_plane(planes, dark)
    roi.check_fits(planes.shape[1], planes.shape[2])
    window = _window(roi)
    out = _abs_difference(planes[(slice(None), *window)], dark_plane[window])
    stats = []
    for band in out:
        band_stats = roi_stats(band)
        _normalize_in_place(band, band_stats, params)
        stats.append(band_stats)
    return PreprocessedRoi(planes=out, stats=tuple(stats))
