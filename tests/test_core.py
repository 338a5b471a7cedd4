import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilspec.core import (
    BAND_WAVELENGTHS_NM,
    N_BANDS,
    DarkFrame,
    ObservationTable,
    SpectralCube,
    TextureClass,
    validate_composition,
)
from soilspec.cubeio import (
    OBSERVATION_HEADER,
    read_cube,
    read_dark_frame,
    read_observation_csv,
    write_cube,
    write_dark_frame,
    write_observation_csv,
)
from soilspec.errors import (
    BandCountMismatch,
    IntensityOverflow,
    MalformedHeader,
    NegativeComponent,
    NumericalFailure,
    SumViolation,
    TruncatedPayload,
)


def make_cube(seed=0, height=5, width=7):
    rng = np.random.default_rng(seed)
    planes = rng.integers(0, 1024, (N_BANDS, height, width), dtype=np.uint16)
    return SpectralCube(planes=planes)


class TestCubeContainer:
    def test_round_trip_identity(self, tmp_path):
        cube = make_cube(seed=1)
        path = tmp_path / "cube.msc"
        write_cube(cube, path)
        assert read_cube(path) == cube

    def test_write_is_deterministic(self, tmp_path):
        cube = make_cube(seed=2)
        write_cube(cube, tmp_path / "a.msc")
        write_cube(cube, tmp_path / "b.msc")
        assert (tmp_path / "a.msc").read_bytes() == (tmp_path / "b.msc").read_bytes()

    def test_zero_cube(self, tmp_path):
        cube = SpectralCube(planes=np.zeros((N_BANDS, 4, 4), dtype=np.uint16))
        path = tmp_path / "zero.msc"
        write_cube(cube, path)
        loaded = read_cube(path)
        assert np.array_equal(loaded.planes, np.zeros((N_BANDS, 4, 4)))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        height=st.integers(1, 6),
        width=st.integers(1, 6),
    )
    def test_round_trip_property(self, tmp_path_factory, seed, height, width):
        cube = make_cube(seed=seed, height=height, width=width)
        path = tmp_path_factory.mktemp("cubes") / "c.msc"
        write_cube(cube, path)
        assert read_cube(path) == cube

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.msc"
        write_cube(make_cube(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeader):
            read_cube(path)

    def test_band_count_mismatch(self, tmp_path):
        path = tmp_path / "short.msc"
        write_cube(make_cube(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 12  # little-endian band_count low byte
        # drop one wavelength entry and one plane so sizes stay consistent
        height, width = 5, 7
        header = bytes(raw[:10])
        wavelengths = raw[10 : 10 + 2 * 12]
        payload = raw[10 + 2 * 13 : 10 + 2 * 13 + 12 * height * width * 2]
        path.write_bytes(header + bytes(wavelengths) + bytes(payload))
        with pytest.raises(BandCountMismatch):
            read_cube(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.msc"
        write_cube(make_cube(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(TruncatedPayload):
            read_cube(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.msc"
        write_cube(make_cube(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(MalformedHeader):
            read_cube(path)

    def test_intensity_overflow_at_construction(self):
        planes = np.zeros((N_BANDS, 2, 2), dtype=np.uint16)
        planes[0, 0, 0] = 1024
        with pytest.raises(IntensityOverflow):
            SpectralCube(planes=planes)

    def test_wrong_wavelength_table(self):
        planes = np.zeros((N_BANDS, 2, 2), dtype=np.uint16)
        bands = list(BAND_WAVELENGTHS_NM)
        bands[0] = 366
        with pytest.raises(MalformedHeader):
            SpectralCube(planes=planes, wavelengths_nm=tuple(bands))

    def test_dark_frame_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        dark = DarkFrame(plane=rng.integers(0, 100, (5, 7), dtype=np.uint16))
        path = tmp_path / "dark.msc"
        write_dark_frame(dark, path)
        assert read_dark_frame(path) == dark

    def test_dark_frame_rejects_multiband(self, tmp_path):
        path = tmp_path / "cube.msc"
        write_cube(make_cube(), path)
        with pytest.raises(BandCountMismatch):
            read_dark_frame(path)


class TestComposition:
    def test_table_endmembers_are_valid(self):
        assert validate_composition(78.63, 21.37, 0.0).clay_pct == 78.63
        assert validate_composition(0.0, 0.0, 100.0).sand_pct == 100.0
        assert validate_composition(5.75, 94.25, 0.0).silt_pct == 94.25

    def test_sum_violation(self):
        with pytest.raises(SumViolation):
            validate_composition(50, 40, 20)

    def test_negative_component(self):
        with pytest.raises(NegativeComponent):
            validate_composition(-1, 51, 50)

    def test_component_above_hundred(self):
        with pytest.raises(NegativeComponent):
            validate_composition(101, -0.5, -0.5)

    def test_measured_flag_default(self):
        assert validate_composition(30, 30, 40).predicted is False

    @settings(max_examples=100, deadline=None)
    @given(clay=st.floats(0, 100), silt=st.floats(0, 100))
    def test_simplex_closure(self, clay, silt):
        sand = 100.0 - clay - silt
        if sand < 0:
            return
        comp = validate_composition(clay, silt, sand)
        assert abs(comp.total() - 100.0) <= 1e-6


class TestTextureClass:
    def test_canonical_names(self):
        assert [c.value for c in TextureClass] == [
            "Sand", "LoamySand", "SandyLoam", "Loam", "SiltLoam", "Silt",
            "SandyClayLoam", "ClayLoam", "SiltyClayLoam", "SandyClay",
            "SiltyClay", "Clay",
        ]

    def test_index_round_trip(self):
        for i, cls in enumerate(TextureClass):
            assert cls.index == i
            assert TextureClass.from_index(i) is cls
            assert TextureClass.from_name(cls.value) is cls

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            TextureClass.from_name("Mud")


def make_table(n_specimens=2, seed=0):
    rng = np.random.default_rng(seed)
    n = n_specimens * 100
    comps = np.tile([30.0, 30.0, 40.0], (n, 1))
    return ObservationTable(
        specimen_ids=np.repeat(
            [f"s{i}" for i in range(n_specimens)], 100
        ).astype(object),
        block_rows=np.tile(np.repeat(np.arange(1, 11), 10), n_specimens),
        block_cols=np.tile(np.tile(np.arange(1, 11), 10), n_specimens),
        features=rng.uniform(0, 1023, (n, N_BANDS)),
        compositions=comps,
        texture_codes=rng.integers(0, 12, n),
    )


class TestObservationCsv:
    def test_header_exact(self, tmp_path):
        table = make_table()
        path = tmp_path / "obs.csv"
        write_observation_csv(table, path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(OBSERVATION_HEADER)

    def test_round_trip_exact(self, tmp_path):
        table = make_table(seed=5)
        path = tmp_path / "obs.csv"
        write_observation_csv(table, path)
        loaded = read_observation_csv(path)
        assert np.array_equal(loaded.features, table.features)
        assert np.array_equal(loaded.compositions, table.compositions)
        assert np.array_equal(loaded.texture_codes, table.texture_codes)
        assert list(loaded.specimen_ids) == list(table.specimen_ids)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(MalformedHeader):
            read_observation_csv(path)

    @pytest.mark.parametrize(
        "column, cell, error",
        [
            ("f365", "abc", MalformedHeader),
            ("block_row", "1.5", MalformedHeader),
            ("texture", "Mud", MalformedHeader),
            ("f530", "nan", NumericalFailure),
            ("sand", "inf", NumericalFailure),
            ("block_row", "0", MalformedHeader),
            ("block_col", "11", MalformedHeader),
        ],
    )
    def test_bad_cell_names_file_and_line(self, tmp_path, column, cell, error):
        path = tmp_path / "obs.csv"
        write_observation_csv(make_table(), path)
        lines = path.read_text().splitlines()
        fields = lines[4].split(",")
        fields[OBSERVATION_HEADER.index(column)] = cell
        lines[4] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match=r"obs\.csv: line 5\b"):
            read_observation_csv(path)
