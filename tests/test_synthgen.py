import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from soilspec.core import (
    MAX_INTENSITY,
    N_BANDS,
    ObservationTable,
    SpectralCube,
    validate_composition,
)
from soilspec.cubeio import read_cube, read_dark_frame
from soilspec.errors import MalformedHeader, TruncatedPayload
from soilspec import synthgen
from soilspec.features import block_means
from soilspec.preprocess import preprocess_cube
from soilspec.seeding import derive_seed
from soilspec.synthgen import (
    DEFAULT_ENDMEMBERS,
    DEFAULT_ROI,
    NOISE_PRESETS,
    EndmemberLibrary,
    MixtureSpec,
    default_benchmark,
    extract_tables,
    generate_dataset,
    load_manifest,
    noise_preset,
    read_endmember_csv,
    synthesize_cube,
    synthesize_dark_frame,
)
from soilspec.triangle import classify_composition


def tiny_benchmark(train_reps=2, val_reps=1, n_train=3, n_val=2):
    train, validation = default_benchmark()
    train = [MixtureSpec(m.weights, train_reps, m.role) for m in train[:n_train]]
    validation = [
        MixtureSpec(m.weights, val_reps, m.role) for m in validation[:n_val]
    ]
    return train, validation


class TestDefaultBenchmark:
    def test_specimen_counts(self):
        train, validation = default_benchmark()
        assert len(train) == 22 and len(validation) == 7
        assert sum(m.replicate_count for m in train) == 440
        assert sum(m.replicate_count for m in validation) == 84
        # 100 blocks per specimen
        assert sum(m.replicate_count for m in train) * 100 == 44_000
        assert sum(m.replicate_count for m in validation) * 100 == 8_400

    def test_every_usda_class_has_a_train_mixture(self):
        train, _ = default_benchmark()
        covered = {classify_composition(m.composition()).index for m in train}
        assert covered == set(range(12))

    def test_all_compositions_valid(self):
        train, validation = default_benchmark()
        for mixture in train + validation:
            comp = mixture.composition()
            validate_composition(comp.clay_pct, comp.silt_pct, comp.sand_pct)

    def test_weights_sum_to_one(self):
        train, validation = default_benchmark()
        for mixture in train + validation:
            assert sum(mixture.weights) == pytest.approx(1.0, abs=1e-9)

    def test_stock_specs_are_pinned(self):
        # sha256 of the specs' repr: weights, replicate counts and roles
        train, validation = default_benchmark()
        assert [(m.replicate_count, m.role) for m in train] == [(20, "train")] * 22
        assert [(m.replicate_count, m.role) for m in validation] == [
            (12, "validation")
        ] * 7
        assert hashlib.sha256(repr(train + validation).encode()).hexdigest() == (
            "ce08a387e34a7c3b7ca4689264ca2be2b66a5e44ad933e18919618828248d642"
        )

    def test_replicate_counts_override_and_zero_gives_no_specs(self):
        stock, _ = default_benchmark()
        train, validation = default_benchmark(3, 0)
        assert train == [MixtureSpec(m.weights, 3, "train") for m in stock]
        assert validation == []


class TestEndmembers:
    def test_default_spectra_in_range(self):
        spectra = DEFAULT_ENDMEMBERS.spectra
        assert np.all(spectra > 0) and np.all(spectra < MAX_INTENSITY)

    def test_sand_dominates_every_band(self):
        clay, silt, sand = DEFAULT_ENDMEMBERS.spectra
        assert np.all(sand > silt) and np.all(silt > clay)

    def test_monotonic_response_in_sand_weight(self):
        lib = DEFAULT_ENDMEMBERS
        lows = lib.mix(np.array([0.3, 0.3, 0.4]))
        for donor in (0, 1):
            weights = np.array([0.3, 0.3, 0.4])
            weights[donor] -= 0.1
            weights[2] += 0.1
            highs = lib.mix(weights)
            assert np.all(highs > lows)

    def test_identifiability_of_benchmark_mixtures(self):
        # Every pair of distinct mixtures is separated by >= 3 pooled
        # standard errors of the per-band ROI mean in at least one band.
        train, _ = default_benchmark()
        noise = noise_preset("bench")
        bases = np.stack(
            [DEFAULT_ENDMEMBERS.mix(np.asarray(m.weights)) for m in train]
        )
        max_level = bases.max()
        single_var = (
            noise.block_texture_std**2 / 100.0
            + (2 * noise.dark_std**2 + (noise.shot_scale * max_level) ** 2
               + 2.0 / 12.0)
            / 10_000.0
        )
        pooled_se = np.sqrt(2.0 * single_var)
        for i in range(len(train)):
            for j in range(i + 1, len(train)):
                separation = np.abs(bases[i] - bases[j]).max()
                assert separation >= 3.0 * pooled_se

    def test_override_csv_round_trip(self, tmp_path):
        from soilspec.core import BAND_WAVELENGTHS_NM

        path = tmp_path / "endmembers.csv"
        rows = ["band_nm,clayrich,siltrich,sandrich"]
        for i, nm in enumerate(BAND_WAVELENGTHS_NM):
            spectra = DEFAULT_ENDMEMBERS.spectra
            rows.append(f"{nm},{spectra[0, i]},{spectra[1, i]},{spectra[2, i]}")
        path.write_text("\n".join(rows) + "\n")
        lib = read_endmember_csv(path)
        assert np.array_equal(lib.spectra, DEFAULT_ENDMEMBERS.spectra)

    def test_override_csv_band_order_enforced(self, tmp_path):
        path = tmp_path / "endmembers.csv"
        path.write_text("band_nm,clayrich,siltrich,sandrich\n940,1,2,3\n")
        with pytest.raises(MalformedHeader):
            read_endmember_csv(path)

    @pytest.mark.parametrize("extra", [None, "999,1,2,3"], ids=["12-rows", "14-rows"])
    def test_override_csv_needs_thirteen_rows(self, tmp_path, extra):
        from soilspec.core import BAND_WAVELENGTHS_NM

        rows = ["band_nm,clayrich,siltrich,sandrich"] + [
            f"{nm},{','.join(map(str, DEFAULT_ENDMEMBERS.spectra[:, i]))}"
            for i, nm in enumerate(BAND_WAVELENGTHS_NM)
        ]
        rows = rows[:-1] if extra is None else rows + [extra]
        path = tmp_path / "endmembers.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedHeader,
                           match=r"endmembers\.csv: expected 13 band rows"):
            read_endmember_csv(path)

    def test_spectra_shape_validation(self):
        with pytest.raises(MalformedHeader):
            EndmemberLibrary(spectra=np.ones((3, 5)))

    @pytest.mark.parametrize("level", [np.nan, np.inf, 0.0, 1023.0])
    def test_spectra_level_validation(self, level):
        spectra = DEFAULT_ENDMEMBERS.spectra.copy()
        spectra[1, 4] = level
        with pytest.raises(MalformedHeader):
            EndmemberLibrary(spectra=spectra)


def reference_planes(spec, endmembers, noise, seed):
    """The allocating form of the cube formula, one temporary per step."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = endmembers.mix(np.asarray(spec.weights))
    block_noise = rng.normal(0.0, noise.block_texture_std, (12, 12))
    block_pixels = np.kron(block_noise, np.ones((10, 10)))
    signal = base[:, np.newaxis, np.newaxis] + block_pixels[np.newaxis, :, :]
    dark_offsets = rng.normal(noise.dark_mean, noise.dark_std, (N_BANDS, 120, 120))
    shot = rng.standard_normal((N_BANDS, 120, 120))
    pixels = signal + dark_offsets + noise.shot_scale * signal * shot
    return np.clip(np.rint(pixels), 0, MAX_INTENSITY).astype(np.uint16)


@pytest.mark.parametrize("seed", [0, 7, 123, 2**40 + 5])
@pytest.mark.parametrize("shape", [(1,), (5, 7), (12, 12), (N_BANDS, 120, 120)])
@pytest.mark.parametrize("mean, std", [(48.0, 6.0), (48.0, 12.0), (0.0, 0.0), (-3.5, 0.1)])
def test_scaled_standard_normals_are_normal_draws(seed, shape, mean, std):
    # rng.normal(mean, std) computes mean + std * z per element from the
    # same normals: the scaled in-place fill gives the same bits and leaves
    # the generator in the same state
    expected_rng = np.random.Generator(np.random.PCG64(seed))
    expected = expected_rng.normal(mean, std, shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    out = np.empty(shape)
    rng.standard_normal(out=out)
    out *= std
    out += mean
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestScratchSynthesis:
    SPECS = [MixtureSpec(w, 1, "train")
             for w in ((0.2, 0.3, 0.5), (1.0, 0.0, 0.0), (0.05, 0.9, 0.05))]

    @pytest.mark.parametrize("preset", sorted(NOISE_PRESETS))
    def test_cubes_equal_the_allocating_formula(self, preset):
        noise = noise_preset(preset, seed=4)
        for seed, spec in enumerate(self.SPECS * 2, 300):
            cube = synthesize_cube(spec, DEFAULT_ENDMEMBERS, noise, seed)
            expected = reference_planes(spec, DEFAULT_ENDMEMBERS, noise, seed)
            assert np.array_equal(cube.planes, expected)

    def test_returned_cube_is_not_the_scratch(self):
        noise = noise_preset("stress", seed=1)
        first = synthesize_cube(self.SPECS[0], DEFAULT_ENDMEMBERS, noise, 9)
        kept = first.planes.copy()
        synthesize_cube(self.SPECS[1], DEFAULT_ENDMEMBERS, noise, 10)
        assert np.array_equal(first.planes, kept)

    def test_threads_keep_their_own_scratch(self):
        # more workers than cores and a short switch interval: a buffer
        # shared between threads would mix two cubes
        noise = noise_preset("bench", seed=2)
        jobs = [(self.SPECS[i % 3], 500 + i) for i in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                cubes = list(pool.map(
                    lambda job: synthesize_cube(job[0], DEFAULT_ENDMEMBERS, noise,
                                                job[1]),
                    jobs,
                ))
        finally:
            sys.setswitchinterval(interval)
        for cube, (spec, seed) in zip(cubes, jobs):
            expected = reference_planes(spec, DEFAULT_ENDMEMBERS, noise, seed)
            assert np.array_equal(cube.planes, expected)

    def test_peak_holds_one_cube_of_float64(self):
        # only the float64 pixels (1.43 MiB) take a whole cube: signal and
        # shot noise are added one band at a time, so a second cube-sized
        # temporary would push the peak past the bound
        noise = noise_preset("bench")
        # a first call may import modules; measure the second
        synthesize_cube(self.SPECS[0], DEFAULT_ENDMEMBERS, noise, 3)
        tracemalloc.start()
        try:
            synthesize_cube(self.SPECS[0], DEFAULT_ENDMEMBERS, noise, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


class TestSynthesizeCube:
    def test_zero_noise_pure_sand_constant_planes(self):
        noise = noise_preset("clean")
        spec = MixtureSpec(weights=(0.0, 0.0, 1.0), replicate_count=1, role="train")
        cube = synthesize_cube(spec, DEFAULT_ENDMEMBERS, noise, specimen_seed=5)
        assert isinstance(cube, SpectralCube)
        expected = np.rint(DEFAULT_ENDMEMBERS.spectra[2])
        for band in range(N_BANDS):
            assert np.all(cube.planes[band] == expected[band])
        dark = synthesize_dark_frame(noise, derive_seed(5, 1))
        assert np.all(dark.plane == 0)
        assert classify_composition(spec.composition()).value == "Sand"
        assert spec.composition().sand_pct == 100.0

    def test_same_seed_identical(self):
        noise = noise_preset("bench", seed=3)
        spec = MixtureSpec(weights=(0.2, 0.3, 0.5), replicate_count=1, role="train")
        a = synthesize_cube(spec, DEFAULT_ENDMEMBERS, noise, 77)
        b = synthesize_cube(spec, DEFAULT_ENDMEMBERS, noise, 77)
        assert np.array_equal(a.planes, b.planes)
        c = synthesize_cube(spec, DEFAULT_ENDMEMBERS, noise, 78)
        assert not np.array_equal(a.planes, c.planes)

    def test_roi_mean_recovers_base_level(self):
        noise = noise_preset("bench", seed=9)
        weights = np.array([0.25, 0.35, 0.4])
        spec = MixtureSpec(weights=tuple(weights), replicate_count=1, role="train")
        cube = synthesize_cube(spec, DEFAULT_ENDMEMBERS, noise, 123)
        dark = synthesize_dark_frame(noise, derive_seed(123, 1))
        window = (slice(DEFAULT_ROI.y1, DEFAULT_ROI.y1 + 100),
                  slice(DEFAULT_ROI.x1, DEFAULT_ROI.x1 + 100))
        corrected = np.abs(cube.planes[(slice(None), *window)].astype(float)
                           - dark.plane[window].astype(float))
        base = DEFAULT_ENDMEMBERS.mix(weights)
        for band in range(N_BANDS):
            level = base[band]
            variance = (
                noise.block_texture_std**2 / 100.0
                + (
                    2 * noise.dark_std**2
                    + (noise.shot_scale * level) ** 2
                    + 2.0 / 12.0
                )
                / 10_000.0
            )
            tolerance = 3.0 * np.sqrt(variance)
            assert abs(corrected[band].mean() - level) <= tolerance


class TestGenerateDataset:
    def test_tiny_dataset_layout(self, tmp_path):
        noise = noise_preset("bench", seed=1)
        manifest = generate_dataset(
            tiny_benchmark(), DEFAULT_ENDMEMBERS, noise, tmp_path / "data"
        )
        entries = load_manifest(manifest)
        assert len(entries) == 3 * 2 + 2 * 1
        assert (tmp_path / "data" / "dark.msc").exists()
        for entry in entries:
            assert (tmp_path / "data" / entry.cube_path).exists()
            validate_composition(
                entry.composition.clay_pct,
                entry.composition.silt_pct,
                entry.composition.sand_pct,
            )

    def test_deterministic_bytes(self, tmp_path):
        noise = noise_preset("bench", seed=2)
        for name in ("a", "b"):
            generate_dataset(
                tiny_benchmark(), DEFAULT_ENDMEMBERS, noise, tmp_path / name
            )
        for rel in ["manifest.csv", "dark.msc", "cubes/train-01-01.msc"]:
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes()

    def test_threaded_generation_matches_serial(self, tmp_path):
        noise = noise_preset("bench", seed=4)
        generate_dataset(
            tiny_benchmark(), DEFAULT_ENDMEMBERS, noise, tmp_path / "serial",
            threads=1,
        )
        generate_dataset(
            tiny_benchmark(), DEFAULT_ENDMEMBERS, noise, tmp_path / "threaded",
            threads=4,
        )
        assert (tmp_path / "serial" / "manifest.csv").read_bytes() == (
            tmp_path / "threaded" / "manifest.csv"
        ).read_bytes()
        assert (tmp_path / "serial" / "cubes" / "train-02-02.msc").read_bytes() == (
            tmp_path / "threaded" / "cubes" / "train-02-02.msc"
        ).read_bytes()


class TestLoadManifest:
    @pytest.fixture
    def manifest_lines(self, tmp_path):
        noise = noise_preset("bench", seed=1)
        manifest = generate_dataset(
            tiny_benchmark(), DEFAULT_ENDMEMBERS, noise, tmp_path / "data"
        )
        return manifest.read_text().splitlines()

    def test_repeated_row_names_both_lines(self, manifest_lines, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("\n".join(manifest_lines + [manifest_lines[1]]) + "\n")
        first_id = manifest_lines[1].split(",")[0]
        with pytest.raises(MalformedHeader) as caught:
            load_manifest(path)
        assert str(caught.value) == (
            f"{path}: line {len(manifest_lines) + 1}: specimen id {first_id!r} "
            f"repeats line 2"
        )

    def test_one_id_as_train_and_validation(self, manifest_lines, tmp_path):
        line = next(i for i, text in enumerate(manifest_lines)
                    if text.split(",")[1] == "validation")
        fields = manifest_lines[line].split(",")
        fields[0] = manifest_lines[1].split(",")[0]
        manifest_lines[line] = ",".join(fields)
        path = tmp_path / "manifest.csv"
        path.write_text("\n".join(manifest_lines) + "\n")
        with pytest.raises(MalformedHeader, match=f"line {line + 1}: .* repeats line 2"):
            load_manifest(path)


def restacked_tables(manifest_path):
    """Each role's table built the plain way: its cubes' block-mean matrices
    collected in a list in manifest order, then stacked."""
    entries = load_manifest(manifest_path)
    dark = read_dark_frame(manifest_path.parent / "dark.msc")
    grid = np.arange(1, 11)
    tables = {}
    for role in ("train", "validation"):
        group = [e for e in entries if e.role == role]
        matrices = [
            block_means(preprocess_cube(read_cube(manifest_path.parent / e.cube_path),
                                        dark, DEFAULT_ROI))
            for e in group
        ]
        tables[role] = ObservationTable(
            specimen_ids=np.repeat(np.array([e.specimen_id for e in group],
                                            dtype=object), 100),
            block_rows=np.tile(np.repeat(grid, 10), len(group)),
            block_cols=np.tile(grid, 10 * len(group)),
            features=np.array(matrices).reshape(-1, N_BANDS),
            compositions=np.array([e.composition.as_array() for e in group
                                   for _ in range(100)]).reshape(-1, 3),
            texture_codes=np.array([e.texture.index for e in group
                                    for _ in range(100)]),
        )
    return tables


class TestExtractTables:
    def test_row_counts_per_role(self, tmp_path):
        noise = noise_preset("bench", seed=6)
        manifest = generate_dataset(
            tiny_benchmark(), DEFAULT_ENDMEMBERS, noise, tmp_path / "data"
        )
        tables = extract_tables(manifest)
        assert len(tables["train"]) == 6 * 100
        assert len(tables["validation"]) == 2 * 100
        assert tables["train"].features.shape[1] == N_BANDS

    def test_corrupt_cube_names_specimen(self, tmp_path):
        noise = noise_preset("bench", seed=7)
        manifest = generate_dataset(
            tiny_benchmark(), DEFAULT_ENDMEMBERS, noise, tmp_path / "data"
        )
        victim = tmp_path / "data" / "cubes" / "train-02-01.msc"
        victim.write_bytes(victim.read_bytes()[:-40])
        with pytest.raises(TruncatedPayload, match="train-02-01"):
            extract_tables(manifest)

    def test_thread_count_leaves_tables_and_stats_unchanged(self, tmp_path,
                                                           monkeypatch):
        # each worker allocates its own buffers per cube; a shared one would
        # mix two cubes' deviations, and so their stats and planes, under a
        # short switch interval
        noise = noise_preset("stress", seed=9)
        manifest = generate_dataset(
            tiny_benchmark(n_train=4), DEFAULT_ENDMEMBERS, noise, tmp_path / "data"
        )
        planes = {}

        def recording(cube, *args):
            out = preprocess_cube(cube, *args)
            planes[threads].append((cube.planes.tobytes(), out.tobytes()))
            return out

        monkeypatch.setattr(synthgen, "preprocess_cube", recording)
        tables = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 3):
                planes[threads] = []
                tables[threads] = extract_tables(manifest, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(planes[1]) == 10
        for records in planes.values():  # workers finish in any order
            records.sort(key=lambda record: record[0])
        for threads in (2, 3):
            assert planes[threads] == planes[1]
            for role in ("train", "validation"):
                got, expected = tables[threads][role], tables[1][role]
                assert got.features.tobytes() == expected.features.tobytes()
                assert got.compositions.tobytes() == expected.compositions.tobytes()
                assert np.array_equal(got.texture_codes, expected.texture_codes)
                assert list(got.specimen_ids) == list(expected.specimen_ids)

    def test_tables_match_a_restacking_reference(self, tmp_path):
        # workers write block means into per-role arrays; stacking each
        # role's matrices in manifest order, as a list, must give the same
        # table, also when train and validation rows interleave
        manifest = generate_dataset(
            default_benchmark(1, 1), DEFAULT_ENDMEMBERS, noise_preset("bench", seed=3),
            tmp_path / "data",
        )
        header, *lines = manifest.read_text().splitlines()
        train = [line for line in lines if ",train," in line]
        validation = [line for line in lines if ",validation," in line]
        mixed = [line for pair in zip(train, validation) for line in pair]
        mixed += train[len(validation):]
        interleaved = manifest.with_name("interleaved.csv")
        interleaved.write_text("\n".join([header, *mixed]) + "\n")
        for path in (manifest, interleaved):
            expected = restacked_tables(path)
            for threads in (1, 2):
                tables = extract_tables(path, threads=threads)
                for role in ("train", "validation"):
                    got, want = tables[role], expected[role]
                    assert got.specimen_ids.tolist() == want.specimen_ids.tolist()
                    for column in ("block_rows", "block_cols", "features",
                                   "compositions", "texture_codes"):
                        assert getattr(got, column).dtype == getattr(want, column).dtype
                        assert (getattr(got, column).tobytes()
                                == getattr(want, column).tobytes()), (role, column)

    def test_block_noise_visible_in_features(self, tmp_path):
        # block texture must survive preprocessing into feature variance
        noise = noise_preset("bench", seed=8)
        manifest = generate_dataset(
            tiny_benchmark(n_train=1), DEFAULT_ENDMEMBERS, noise, tmp_path / "data"
        )
        tables = extract_tables(manifest)
        spread = tables["train"].features[:100].std(axis=0)
        assert np.all(spread > 0.0)
