"""Preprocessing: dark-current correction, ROI crop, tanh contrast mapping.

Stage order is fixed: absolute-difference dark correction, then cropping the
shared 100x100 window from every band, then the bounded tanh normalization
using the mean/std of each dark-corrected cropped band. All arithmetic is
float64 from the dark correction onward.

:func:`preprocess_cube` crops the raw planes and the dark frame first and
casts only the window to float64; the correction is per pixel, so this
gives the bits of correcting first. It then works on the whole
``(bands, pixels)`` array at once: an axis-1 reduction gives every band's
mean, each band is centred in place, and squaring one band at a time gives
its std. One in-place pass then maps the centred bands with ``(bands, 1)``
mean and std columns, so a call holds one cube-sized float64 array.
:func:`roi_stats` and :func:`normalize_contrast` run the same two helpers
on a copy of one band. Each reduction is numpy's pairwise sum over one
band's pixels in row-major order, so the stats carry the bits of
``plane.mean()`` and ``plane.std()`` on a contiguous plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ROI_SIDE, DarkFrame, Roi, SpectralCube
from .errors import BadArgument, DimensionMismatch

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
        if not 0 < self.kappa < np.inf:
            raise BadArgument(f"kappa must be finite and > 0, got {self.kappa}")


def _center_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each row's mean from a C-contiguous float64 ``(bands,
    pixels)`` array in place; return the population mean and std of each
    row, with the IEEE operations of ``np.std``."""
    n = rows.shape[1]
    mean = np.add.reduce(rows, axis=1) / n
    rows -= mean[:, np.newaxis]
    std = np.array([np.add.reduce(np.square(row)) for row in rows]) / n
    return mean, np.sqrt(std)


def _normalize_rows(
    rows: np.ndarray, mean: np.ndarray, std: np.ndarray, params: NormalizationParams
) -> None:
    """The tanh map of :func:`normalize_contrast`, in place on every row of a
    float64 ``(bands, pixels)`` array already centred by `mean`, row i with
    mean[i] and std[i]; a row with std 0 becomes its mean."""
    mu, sigma = mean[:, np.newaxis], std[:, np.newaxis]
    # A huge kappa overflows to +-inf, which tanh saturates to +-1 exactly.
    with np.errstate(over="ignore"):
        rows *= params.kappa
    np.tanh(rows, out=rows)
    rows += 1.0
    rows *= 2.0 * sigma
    rows /= 2.0
    rows += mu - sigma
    # Guard the closed range against last-ulp rounding of the affine map.
    np.clip(rows, mu - sigma, mu + sigma, out=rows)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        rows[flat] = mean[flat, np.newaxis]


def roi_stats(plane: np.ndarray) -> BandStats:
    """Population mean and standard deviation over the 10,000 ROI pixels."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.size != ROI_PIXELS:
        raise DimensionMismatch(f"expected {ROI_PIXELS} pixels, got {plane.size}")
    # centred in place, so a copy: the caller's plane stays as it was
    mean, std = _center_rows(np.array(plane, order="C").reshape(1, ROI_PIXELS))
    return BandStats(mean=float(mean[0]), std=float(std[0]))


def normalize_contrast(
    plane: np.ndarray, stats: BandStats, params: NormalizationParams
) -> np.ndarray:
    """Bounded tanh intensity mapping.

    out = (mean - std) + 2*std * (tanh(kappa*(in - mean)) + 1) / 2

    Monotone in the input, fixes the mean, and compresses everything into
    [mean - std, mean + std]. A constant band (std = 0) maps to the constant
    mean plane, the continuous limit of the transform.
    """
    # C order makes the (1, pixels) reshape a view of `out` for any layout.
    out = np.array(plane, dtype=np.float64, order="C")
    out -= stats.mean
    _normalize_rows(out.reshape(1, -1), np.array([stats.mean]), np.array([stats.std]),
                    params)
    return out


def preprocess_cube(
    cube: SpectralCube,
    dark: DarkFrame,
    roi: Roi,
    params: NormalizationParams = NormalizationParams(),
) -> np.ndarray:
    """Dark-correct, crop, then normalize each band with its own ROI stats.

    Returns the C-contiguous float64 (13, 100, 100) normalized planes; every
    pixel of band i lies in [mean_i - std_i, mean_i + std_i] of that band's
    dark-corrected crop. Crops before the float64 cast, then measures and
    maps all bands at once in that one array (see the module docstring).
    """
    planes = cube.planes
    dark_plane = dark.plane
    if dark_plane.shape != planes.shape[1:]:
        raise DimensionMismatch(
            f"dark frame {dark_plane.shape} does not match bands {planes.shape[1:]}"
        )
    roi.check_fits(planes.shape[1], planes.shape[2])
    window = slice(roi.y1, roi.y1 + ROI_SIDE), slice(roi.x1, roi.x1 + ROI_SIDE)
    out = planes[(slice(None), *window)].astype(np.float64, order="C")
    out -= dark_plane[window].astype(np.float64)
    np.abs(out, out=out)
    rows = out.reshape(out.shape[0], -1)
    mean, std = _center_rows(rows)
    _normalize_rows(rows, mean, std, params)
    return out
