import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilspec.core import N_BANDS, ROI_SIDE, DarkFrame, Roi, SpectralCube
from soilspec.errors import DimensionMismatch, RoiOutOfBounds
from soilspec.preprocess import (
    BandStats,
    NormalizationParams,
    normalize_contrast,
    preprocess_cube,
    roi_stats,
)


def make_cube(fill=None, seed=0, side=120):
    rng = np.random.default_rng(seed)
    if fill is None:
        planes = rng.integers(0, 1024, (N_BANDS, side, side), dtype=np.uint16)
    else:
        planes = np.full((N_BANDS, side, side), fill, dtype=np.uint16)
    return SpectralCube(planes=planes)


def zero_dark(side=120):
    return DarkFrame(plane=np.zeros((side, side), dtype=np.uint16))


def reference_preprocess(cube, dark, roi, kappa):
    """The allocating stage-by-stage form: correct the whole frame, crop,
    then normalize each band out of place; also returns each band's stats."""
    corrected = np.abs(cube.planes.astype(np.float64) - dark.plane.astype(np.float64))
    cropped = corrected[:, roi.y1 : roi.y1 + ROI_SIDE, roi.x1 : roi.x1 + ROI_SIDE]
    out = np.empty(cropped.shape)
    stats = []
    for i, plane in enumerate(cropped.copy()):
        mu, sigma = float(plane.mean()), float(plane.std())
        stats.append(BandStats(mu, sigma))
        if sigma == 0.0:
            out[i] = mu
            continue
        mapped = (mu - sigma) + 2.0 * sigma * (np.tanh(kappa * (plane - mu)) + 1.0) / 2.0
        out[i] = np.clip(mapped, mu - sigma, mu + sigma)
    return out, tuple(stats)


def normalized_bands(planes):
    """Each band of float `planes` through roi_stats and normalize_contrast."""
    params = NormalizationParams()
    return np.array([normalize_contrast(p, roi_stats(p), params) for p in planes])


class TestDarkCorrect:
    def test_identical_inputs_cancel(self):
        cube = make_cube(seed=1, side=100)
        dark = DarkFrame(plane=cube.planes[0].copy())
        out = preprocess_cube(
            SpectralCube(planes=np.tile(dark.plane, (N_BANDS, 1, 1))), dark, Roi(0, 0))
        assert np.all(out == 0.0)

    def test_absolute_difference_prevents_negatives(self):
        cube = make_cube(fill=5, side=100)
        dark = DarkFrame(plane=np.full((100, 100), 9, dtype=np.uint16))
        out = preprocess_cube(cube, dark, Roi(0, 0))
        assert np.all(out == 4.0)

    def test_zero_dark_is_identity(self):
        cube = make_cube(seed=2)
        out = preprocess_cube(cube, zero_dark(), Roi(10, 10))
        raw = cube.planes[:, 10:110, 10:110].astype(np.float64)
        assert np.array_equal(out.view(np.uint64), normalized_bands(raw).view(np.uint64))

    def test_dimension_mismatch(self):
        cube = make_cube(side=100)
        with pytest.raises(DimensionMismatch):
            preprocess_cube(cube, zero_dark(99), Roi(0, 0))

    def test_output_nonnegative_random(self):
        # a zero cube corrects to |0 - D| = D, not to -D
        rng = np.random.default_rng(3)
        dark = DarkFrame(plane=rng.integers(0, 1024, (100, 100), dtype=np.uint16))
        out = preprocess_cube(make_cube(fill=0, side=100), dark, Roi(0, 0))
        magnitude = np.tile(dark.plane.astype(np.float64), (N_BANDS, 1, 1))
        assert np.array_equal(out, normalized_bands(magnitude))
        assert not np.allclose(out, normalized_bands(-magnitude))


class TestCropRoi:
    def test_identity_crop(self):
        # Roi(0, 0) of a 100x100 frame is the whole frame: it gives the
        # bits of the same pixels cropped out of a larger frame
        cube = make_cube(seed=4, side=100)
        framed = np.zeros((N_BANDS, 120, 120), dtype=np.uint16)
        framed[:, 10:110, 10:110] = cube.planes
        out = preprocess_cube(cube, zero_dark(100), Roi(0, 0))
        expected = preprocess_cube(SpectralCube(planes=framed), zero_dark(), Roi(10, 10))
        assert out.shape == (N_BANDS, 100, 100)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_out_of_bounds(self):
        cube = make_cube(side=100)
        with pytest.raises(RoiOutOfBounds):
            preprocess_cube(cube, zero_dark(100), Roi(50, 50))

    def test_index_shift(self):
        # one bright pixel inside the window at frame (y, x) = (3 + 3, 7 + 7)
        # and a brighter one just outside it: only the first is cropped
        planes = np.full((N_BANDS, 120, 120), 100, dtype=np.uint16)
        planes[4, 3 + 3, 7 + 7] = 900
        planes[4, 2, 7 + 7] = 1000
        out = preprocess_cube(SpectralCube(planes=planes), zero_dark(), Roi(7, 3))
        assert out.shape == (N_BANDS, 100, 100)
        assert np.unravel_index(np.argmax(out[4]), out[4].shape) == (3, 7)
        assert np.count_nonzero(out[4] == out[4].max()) == 1


class TestRoiStats:
    def test_constant_plane(self):
        stats = roi_stats(np.full((100, 100), 7.0))
        assert stats.mean == 7.0 and stats.std == 0.0

    def test_two_point_distribution(self):
        plane = np.zeros((100, 100))
        plane[:50] = 0.0
        plane[50:] = 2.0
        stats = roi_stats(plane)
        assert stats.mean == pytest.approx(1.0, abs=1e-12)
        assert stats.std == pytest.approx(1.0, abs=1e-12)

    def test_uniform_monte_carlo(self):
        # Uniform[0, 1023]: mean 511.5, sd 1023/sqrt(12); the sample mean of
        # 10,000 draws stays within 3 standard errors.
        rng = np.random.default_rng(42)
        plane = rng.uniform(0, 1023, (100, 100))
        stats = roi_stats(plane)
        standard_error = (1023 / math.sqrt(12)) / math.sqrt(10_000)
        assert abs(stats.mean - 511.5) <= 3 * standard_error

    def test_population_denominator(self):
        plane = np.arange(10_000, dtype=float).reshape(100, 100)
        stats = roi_stats(plane)
        assert stats.std == pytest.approx(np.std(plane), abs=0)  # 1/N, not 1/(N-1)

    def test_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            roi_stats(np.zeros((10, 10)))


class TestNormalizeContrast:
    def test_mean_fixed_point(self):
        stats = BandStats(mean=123.456, std=17.2)
        out = normalize_contrast(
            np.full((100, 100), stats.mean), stats, NormalizationParams()
        )
        assert np.all(np.abs(out - stats.mean) <= 1e-12)

    def test_scalar_value(self):
        # mu=100, sigma=20, kappa=0.03, in=120: independent scalar evaluation.
        stats = BandStats(mean=100.0, std=20.0)
        out = normalize_contrast(
            np.full((100, 100), 120.0), stats, NormalizationParams(kappa=0.03)
        )
        expected = 80.0 + 40.0 * (math.tanh(0.03 * 20.0) + 1.0) / 2.0
        assert expected == pytest.approx(110.741, abs=5e-4)
        assert np.all(np.abs(out - expected) <= 1e-9)

    def test_asymptotes(self):
        stats = BandStats(mean=500.0, std=50.0)
        params = NormalizationParams()
        high = normalize_contrast(np.full((100, 100), 1e9), stats, params)
        low = normalize_contrast(np.full((100, 100), -1e9), stats, params)
        assert np.all(high == stats.mean + stats.std)
        assert np.all(low == stats.mean - stats.std)

    def test_sigma_zero_degenerate(self):
        stats = BandStats(mean=42.0, std=0.0)
        out = normalize_contrast(np.full((100, 100), 977.0), stats,
                                 NormalizationParams())
        assert np.all(out == 42.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_bounds_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        plane = rng.uniform(0, 1023, (100, 100))
        stats = roi_stats(plane)
        out = normalize_contrast(plane, stats, NormalizationParams())
        assert np.all(out >= stats.mean - stats.std)
        assert np.all(out <= stats.mean + stats.std)
        flat_in = plane.ravel()
        flat_out = out.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_histogram_compaction(self, seed):
        rng = np.random.default_rng(seed)
        plane = rng.normal(400, rng.uniform(1, 300), (100, 100))
        stats = roi_stats(plane)
        out = normalize_contrast(plane, stats, NormalizationParams())
        assert out.std() <= plane.std() + 1e-12

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            NormalizationParams(kappa=0.0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
    def test_kappa_must_be_finite(self, kappa):
        with pytest.raises(ValueError, match="finite"):
            NormalizationParams(kappa=kappa)


class TestPreprocessCube:
    def test_constant_cube_zero_dark(self):
        cube = make_cube(fill=300)
        dark = DarkFrame(plane=np.zeros((120, 120), dtype=np.uint16))
        out = preprocess_cube(cube, dark, Roi(10, 10))
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert np.all(out == 300.0)

    def test_band_ranges_bounded(self):
        cube = make_cube(seed=6)
        rng = np.random.default_rng(7)
        dark = DarkFrame(plane=rng.integers(0, 60, (120, 120), dtype=np.uint16))
        out = preprocess_cube(cube, dark, Roi(10, 10))
        _, band_stats = reference_preprocess(cube, dark, Roi(10, 10), 0.03)
        for i, stats in enumerate(band_stats):
            assert np.all(out[i] >= stats.mean - stats.std)
            assert np.all(out[i] <= stats.mean + stats.std)

    def test_stage_order_is_pinned(self):
        # Craft pixels {10, 30} with dark 20: |X - D| is constant 10, so the
        # canonical pipeline returns a flat plane of 10. Normalizing before
        # dark correction sees mean 20, sigma 10 and cannot produce that.
        planes = np.full((N_BANDS, 120, 120), 10, dtype=np.uint16)
        planes[:, ::2, :] = 30
        cube = SpectralCube(planes=planes)
        dark = DarkFrame(plane=np.full((120, 120), 20, dtype=np.uint16))
        roi = Roi(10, 10)
        out = preprocess_cube(cube, dark, roi)
        assert np.all(out == 10.0)

        # permuted order: normalize the raw cropped ROI first, then |. - D|
        cropped_raw = cube.planes[:, 10:110, 10:110].astype(float)
        permuted = np.abs(normalized_bands(cropped_raw) - 20.0)
        assert not np.allclose(permuted, out)


class TestInPlacePreprocess:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("roi", [Roi(10, 10), Roi(0, 20), Roi(20, 0), Roi(0, 0)])
    @pytest.mark.parametrize("kappa", [0.03, 0.5])
    def test_bits_equal_the_allocating_form(self, seed, roi, kappa):
        side = ROI_SIDE if roi == Roi(0, 0) else 120  # Roi(0, 0) crops a whole frame
        rng = np.random.default_rng(seed + 10)
        dark = DarkFrame(plane=rng.integers(0, 90, (side, side), dtype=np.uint16))
        planes = make_cube(seed=seed, side=side).planes.copy()
        planes[4] = dark.plane + 77  # corrects to a constant: sigma == 0
        cube = SpectralCube(planes=planes)
        out = preprocess_cube(cube, dark, roi, NormalizationParams(kappa=kappa))
        expected, stats = reference_preprocess(cube, dark, roi, kappa)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert stats[4].std == 0.0 and np.all(out[4] == stats[4].mean)

    @pytest.mark.parametrize("flat_bands", [(0,), (6,), (12,), (0, 6, 12)])
    @pytest.mark.parametrize(
        "roi", [Roi(0, 0), Roi(20, 20), Roi(0, 20), Roi(20, 0)],
        ids=["top-left", "bottom-right", "bottom-left", "top-right"],
    )
    def test_flat_and_saturated_bands_at_the_frame_edges(self, flat_bands, roi):
        # a flat band takes the sigma == 0 fill; band 3 is two far-apart
        # levels, so kappa * (x - mean) drives tanh to +-1 exactly
        rng = np.random.default_rng(20)
        dark = DarkFrame(plane=rng.integers(0, 90, (120, 120), dtype=np.uint16))
        planes = make_cube(seed=21).planes.copy()
        for band in flat_bands:
            planes[band] = dark.plane + 40 * band + 5
        planes[3] = dark.plane
        planes[3, ::2] = dark.plane[::2] + 900
        cube = SpectralCube(planes=planes)
        kappa = 0.5
        out = preprocess_cube(cube, dark, roi, NormalizationParams(kappa=kappa))
        expected, stats = reference_preprocess(cube, dark, roi, kappa)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert [b for b, s in enumerate(stats) if s.std == 0.0] == list(flat_bands)
        saturated = out[3]
        mu, sigma = stats[3].mean, stats[3].std
        assert set(np.unique(saturated).tolist()) == {mu - sigma, mu + sigma}

    def test_threads_keep_their_own_scratch(self):
        # more workers than cores and a short switch interval: a deviation
        # buffer shared between threads would mix two cubes' stats and so
        # their planes
        dark = DarkFrame(plane=np.random.default_rng(22).integers(
            0, 90, (120, 120), dtype=np.uint16))
        cubes = [make_cube(seed=seed) for seed in range(40, 64)]
        expected = [preprocess_cube(cube, dark, Roi(10, 10)) for cube in cubes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(
                    lambda cube: preprocess_cube(cube, dark, Roi(10, 10)), cubes * 4))
        finally:
            sys.setswitchinterval(interval)
        for out, reference in zip(got, expected * 4):
            assert np.array_equal(out.view(np.uint64), reference.view(np.uint64))

    def test_peak_holds_one_cube_of_float64(self):
        # the output is the one cube-sized float64 array (0.99 MiB); bands
        # are centred in place and squared one at a time, so a second
        # cube-sized temporary would push the peak past the bound
        cube, dark = make_cube(seed=5), zero_dark()
        preprocess_cube(cube, dark, Roi(10, 10))  # a first call may import modules
        tracemalloc.start()
        try:
            preprocess_cube(cube, dark, Roi(10, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_fortran_ordered_cube_gives_the_same_bits(self):
        dark = DarkFrame(plane=np.zeros((120, 120), dtype=np.uint16))
        cube = make_cube(seed=23)
        fortran = SpectralCube(planes=np.asfortranarray(cube.planes))
        out = preprocess_cube(fortran, dark, Roi(10, 10))
        expected = preprocess_cube(cube, dark, Roi(10, 10))
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_normalize_contrast_leaves_its_input(self):
        plane = np.random.default_rng(3).uniform(0, 1023, (100, 100))
        kept = plane.copy()
        stats = roi_stats(plane)
        out = normalize_contrast(plane, stats, NormalizationParams())
        assert np.array_equal(plane, kept)
        mu, sigma = stats.mean, stats.std
        mapped = (mu - sigma) + 2.0 * sigma * (np.tanh(0.03 * (plane - mu)) + 1.0) / 2.0
        assert np.array_equal(out, np.clip(mapped, mu - sigma, mu + sigma))

    @pytest.mark.parametrize("seed", range(6))
    def test_roi_stats_bits_are_numpys(self, seed):
        rng = np.random.default_rng(seed)
        plane = rng.uniform(0, 1023, (100, 100)) * 10.0 ** rng.integers(-3, 6)
        stats = roi_stats(plane)
        assert stats == BandStats(float(plane.mean()), float(plane.std()))
        # a strided plane is measured in row-major order
        wide = np.repeat(plane, 2, axis=1)[:, ::2]
        assert roi_stats(wide) == stats
        transposed = plane.T
        contiguous = np.ascontiguousarray(transposed)
        assert roi_stats(transposed) == BandStats(
            float(contiguous.mean()), float(contiguous.std()))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kappa", [0.03, 0.5, 40.0])
    def test_normalize_contrast_bits_are_the_formula(self, seed, kappa):
        rng = np.random.default_rng(seed + 30)
        plane = rng.uniform(0, 1023, (100, 100))
        stats = BandStats(float(rng.uniform(0, 1023)), float(rng.uniform(0.5, 300)))
        out = normalize_contrast(plane, stats, NormalizationParams(kappa=kappa))
        mu, sigma = stats.mean, stats.std
        mapped = (mu - sigma) + 2.0 * sigma * (np.tanh(kappa * (plane - mu)) + 1.0) / 2.0
        expected = np.clip(mapped, mu - sigma, mu + sigma)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "strided"])
    def test_normalize_contrast_maps_any_layout(self, layout):
        rng = np.random.default_rng(37)
        base = rng.uniform(0, 1023, (80, 125))
        plane = {"transposed": base.T, "fortran": np.asfortranarray(base),
                 "strided": np.repeat(base, 2, axis=1)[:, ::2]}[layout]
        stats = BandStats(float(rng.uniform(0, 1023)), float(rng.uniform(0.5, 300)))
        out = normalize_contrast(plane, stats, NormalizationParams(kappa=0.5))
        mu, sigma = stats.mean, stats.std
        mapped = (mu - sigma) + 2.0 * sigma * (np.tanh(0.5 * (plane - mu)) + 1.0) / 2.0
        expected = np.clip(mapped, mu - sigma, mu + sigma)
        assert out.shape == plane.shape
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_normalize_contrast_keeps_the_shape_and_fills_flat_stats(self):
        plane = np.arange(12.0).reshape(3, 4)
        plane[1, 2] = np.nan
        out = normalize_contrast(plane, BandStats(5.0, 0.0), NormalizationParams())
        assert out.shape == (3, 4) and np.all(out == 5.0)

    @pytest.mark.parametrize(
        "cube, dark, roi, error, message",
        [(np.zeros((N_BANDS, 120)), np.zeros((120, 120)), Roi(10, 10),
          DimensionMismatch, "cube planes must be 3-D"),
         (make_cube().planes, np.zeros((120, 119)), Roi(10, 10),
          DimensionMismatch, "does not match bands"),
         (make_cube().planes, np.zeros((120, 120)), Roi(30, 10),
          RoiOutOfBounds, "exceeds 120x120 image"),
         (make_cube().planes, np.zeros((120, 120)), Roi(-1, 10),
          RoiOutOfBounds, "negative ROI origin")],
    )
    def test_checks_and_messages_kept(self, cube, dark, roi, error, message):
        # a 2-D cube stops at SpectralCube, whose planes are always 3-D
        with pytest.raises(error) as caught:
            preprocess_cube(SpectralCube(planes=cube), DarkFrame(plane=dark), roi)
        assert message in str(caught.value)

    def test_huge_kappa_saturates_without_a_warning(self):
        plane = np.random.default_rng(5).uniform(0, 1023, (100, 100))
        stats = roi_stats(plane)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize_contrast(plane, stats, NormalizationParams(kappa=1e308))
        assert set(np.unique(out).tolist()) == {
            stats.mean - stats.std, stats.mean + stats.std}
