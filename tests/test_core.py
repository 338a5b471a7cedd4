import csv
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilspec
from soilspec import cubeio, features, pipeline, preprocess, synthgen
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
    fmt_float,
    read_cube,
    read_dark_frame,
    read_observation_csv,
    write_cube,
    write_dark_frame,
    write_observation_csv,
)
from soilspec.errors import (
    BadArgument,
    BandCountMismatch,
    SoilspecError,
    IntensityOverflow,
    IoFailure,
    MalformedHeader,
    NegativeComponent,
    NumericalFailure,
    SumViolation,
    TruncatedPayload,
)
from soilspec.ml.trees import RandomForestClassifier
from soilspec.triangle import classify_composition, classify_percentages


def make_cube(seed=0, height=5, width=7):
    rng = np.random.default_rng(seed)
    planes = rng.integers(0, 1024, (N_BANDS, height, width), dtype=np.uint16)
    return SpectralCube(planes=planes)


class TestCubeContainer:
    def test_round_trip_identity(self, tmp_path):
        cube = make_cube(seed=1)
        path = tmp_path / "cube.msc"
        write_cube(cube, path)
        assert np.array_equal(read_cube(path).planes, cube.planes)

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
        assert np.array_equal(read_cube(path).planes, cube.planes)

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

    def test_reader_rejects_a_wrong_wavelength_table(self, tmp_path):
        # the reader is the only guard: a cube carries no wavelength table
        bands = (366,) + BAND_WAVELENGTHS_NM[1:]
        path = tmp_path / "bands.msc"
        path.write_bytes(msc1_reference(bands, np.zeros((N_BANDS, 2, 2))))
        with pytest.raises(MalformedHeader, match=r"bands\.msc: wavelength table \(366,"):
            read_cube(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.msc"
        write_cube(make_cube(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(TruncatedPayload):
            read_cube(path)

    def test_file_cut_short_after_sizing(self, tmp_path, monkeypatch):
        # the size is taken before the payload is read; a file that is shorter
        # by then still fails as a short payload
        path = tmp_path / "shrunk.msc"
        write_cube(make_cube(), path)
        stat = os.stat(path)
        path.write_bytes(path.read_bytes()[:-10])
        monkeypatch.setattr(cubeio.os, "fstat", lambda fd: stat)
        with pytest.raises(TruncatedPayload,
                           match=r"shrunk\.msc: payload has 900 bytes, expected 910"):
            read_cube(path)

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        # a stock-size cube (13 x 120 x 120) is read straight into its planes
        path = tmp_path / "stock.msc"
        write_cube(make_cube(seed=3, height=120, width=120), path)
        tracemalloc.start()
        try:
            read_cube(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size

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

    def test_dark_frame_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        dark = DarkFrame(plane=rng.integers(0, 100, (5, 7), dtype=np.uint16))
        path = tmp_path / "dark.msc"
        write_dark_frame(dark, path)
        assert np.array_equal(read_dark_frame(path).plane, dark.plane)

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

    @settings(max_examples=100, deadline=None)
    @given(clay=st.floats(0, 100), silt=st.floats(0, 100))
    def test_simplex_closure(self, clay, silt):
        sand = 100.0 - clay - silt
        if sand < 0:
            return
        comp = validate_composition(clay, silt, sand)
        assert abs(comp.as_array().sum() - 100.0) <= 1e-6


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


def msc1_reference(wavelengths, planes):
    """MSC1 bytes built by struct and tobytes, independent of the writer."""
    bands, height, width = planes.shape
    return (struct.pack("<4sHHH", b"MSC1", bands, width, height)
            + struct.pack(f"<{bands}H", *wavelengths)
            + np.asarray(planes).astype("<u2").tobytes(order="C"))


def valid_manifest():
    train, validation = synthgen.default_benchmark()
    lines = [",".join(synthgen.MANIFEST_HEADER)]
    for i, mixture in enumerate(train[:4] + validation[:2]):
        composition = mixture.composition()
        lines.append(",".join(
            [f"s{i}", mixture.role, *map(fmt_float, mixture.weights),
             *map(fmt_float, composition.as_array()),
             classify_composition(composition).value, f"cubes/s{i}.msc"]
        ))
    return ("\r\n".join(lines) + "\r\n").encode()


def valid_endmembers():
    lines = ["band_nm," + ",".join(synthgen.ENDMEMBER_NAMES)]
    for nm, levels in zip(BAND_WAVELENGTHS_NM, synthgen.DEFAULT_ENDMEMBERS.spectra.T):
        lines.append(",".join([str(nm), *map(fmt_float, levels)]))
    return ("\n".join(lines) + "\n").encode()


# reader, the type it returns, and a valid file
READERS = {
    "cube": (read_cube, SpectralCube,
             msc1_reference(BAND_WAVELENGTHS_NM, np.zeros((N_BANDS, 3, 2)))),
    "dark": (read_dark_frame, DarkFrame,
             msc1_reference((0,), np.full((1, 3, 2), 1023))),
    "manifest": (synthgen.load_manifest, list, valid_manifest()),
    "endmember": (synthgen.read_endmember_csv, synthgen.EndmemberLibrary,
                  valid_endmembers()),
}
_HEADER_BYTES = {"cube": 10, "dark": 10}
_CSV_BYTES = st.lists(st.sampled_from(
    [b",", b'"', b"\r", b"\n", b"0", b"9", b".", b"-", b"e", b" ", b"\x00", b"\xff"]
), max_size=6).map(b"".join)


class TestReaderProperties:
    """Any bytes given to the MSC1, manifest and endmember readers give a
    valid object or a domain error that names the file."""

    def check(self, path, kind):
        read, made, _ = READERS[kind]
        try:
            assert isinstance(read(path), made)
        except SoilspecError as exc:
            assert str(path) in str(exc)

    def test_valid_files_read(self, tmp_path):
        for kind, (read, made, raw) in READERS.items():
            path = tmp_path / kind
            path.write_bytes(raw)
            assert isinstance(read(path), made)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(max_size=300), head=st.booleans(),
           kind=st.sampled_from(sorted(READERS)))
    def test_any_bytes(self, tmp_path_factory, raw, head, kind):
        if head:  # after a valid MSC1 fixed header or CSV header line
            valid = READERS[kind][2]
            raw = valid[:_HEADER_BYTES.get(kind) or valid.index(b"\n") + 1] + raw
        path = tmp_path_factory.mktemp("fuzz") / kind
        path.write_bytes(raw)
        self.check(path, kind)

    @settings(max_examples=400, deadline=None)
    @given(insert=st.binary(max_size=8) | _CSV_BYTES, at=st.integers(0, 2000),
           drop=st.integers(0, 4), kind=st.sampled_from(sorted(READERS)))
    def test_mangled_files(self, tmp_path_factory, insert, at, drop, kind):
        raw = READERS[kind][2]
        at %= len(raw) + 1
        path = tmp_path_factory.mktemp("fuzz") / kind
        path.write_bytes(raw[:at] + insert + raw[at + drop:])
        self.check(path, kind)


class TestMsc1Bytes:
    """The writer's bytes against a struct/tobytes reference."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), height=st.integers(1, 40),
           width=st.integers(1, 40))
    def test_random_shapes(self, tmp_path_factory, seed, height, width):
        cube = make_cube(seed=seed, height=height, width=width)
        path = tmp_path_factory.mktemp("msc") / "c.msc"
        write_cube(cube, path)
        assert path.read_bytes() == msc1_reference(BAND_WAVELENGTHS_NM, cube.planes)

    def test_dark_frame_is_one_band(self, tmp_path):
        plane = np.random.default_rng(4).integers(0, 1024, (9, 11), dtype=np.uint16)
        write_dark_frame(DarkFrame(plane=plane), tmp_path / "dark.msc")
        assert (tmp_path / "dark.msc").read_bytes() == msc1_reference(
            (0,), plane[np.newaxis])

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_non_contiguous_planes(self, tmp_path, layout):
        planes = make_cube(seed=5, height=12, width=15).planes
        if layout == "strided":
            planes = planes[:, ::2, 1::3]
        else:
            planes = np.asfortranarray(planes)
        assert not planes.flags.c_contiguous
        write_cube(SpectralCube(planes=planes), tmp_path / "c.msc")
        assert (tmp_path / "c.msc").read_bytes() == msc1_reference(
            BAND_WAVELENGTHS_NM, planes)

    def test_big_endian_planes(self, tmp_path):
        # SpectralCube casts to native uint16, so the writer's own byte
        # order conversion is reached only through a raw array
        planes = make_cube(seed=6, height=4, width=3).planes.astype(">u2")
        cubeio._write(tmp_path / "c.msc", BAND_WAVELENGTHS_NM, planes)
        assert (tmp_path / "c.msc").read_bytes() == msc1_reference(
            BAND_WAVELENGTHS_NM, planes)

    def test_unwritable_path_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot write"):
            write_cube(make_cube(), tmp_path / "missing" / "c.msc")


# one composition per USDA class, (30, 30, 40) ClayLoam first; specimen i
# takes entry i mod 12
SPECIMEN_COMPOSITIONS = np.array([
    [30, 30, 40], [5, 5, 90], [5, 10, 85], [5, 20, 75], [10, 40, 50], [5, 50, 45],
    [5, 80, 15], [20, 5, 75], [30, 50, 20], [35, 5, 60], [40, 40, 20], [40, 15, 45],
], dtype=np.float64)


def make_table(n_specimens=2, seed=0):
    """Specimens of 100 blocks each, texture codes the triangle's."""
    rng = np.random.default_rng(seed)
    n = n_specimens * 100
    comps = np.repeat(SPECIMEN_COMPOSITIONS[np.arange(n_specimens) % 12], 100, axis=0)
    return ObservationTable(
        specimen_ids=np.repeat(
            [f"s{i}" for i in range(n_specimens)], 100
        ).astype(object),
        block_rows=np.tile(np.repeat(np.arange(1, 11), 10), n_specimens),
        block_cols=np.tile(np.tile(np.arange(1, 11), 10), n_specimens),
        features=rng.uniform(0, 1023, (n, N_BANDS)),
        compositions=comps,
        texture_codes=classify_percentages(*comps.T),
    )


def csv_writer_bytes(table, path):
    """The observation CSV as csv.writer writes it, one fmt_float per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBSERVATION_HEADER)
        for i in range(len(table)):
            writer.writerow(
                [str(table.specimen_ids[i]), str(int(table.block_rows[i])),
                 str(int(table.block_cols[i]))]
                + [fmt_float(v) for v in table.features[i]]
                + [fmt_float(v) for v in table.compositions[i]]
                + [TextureClass.from_index(int(table.texture_codes[i])).value]
            )
    return path.read_bytes()


class TestObservationCsvBytes:
    """The joined, chunked writer against csv.writer, byte for byte."""

    def check(self, table, tmp_path):
        write_observation_csv(table, tmp_path / "joined.csv")
        expected = csv_writer_bytes(table, tmp_path / "reference.csv")
        assert (tmp_path / "joined.csv").read_bytes() == expected
        return expected

    def test_ids_that_need_quoting(self, tmp_path):
        table = make_table(n_specimens=7)
        ids = ["a,b", 'say "hi"', "two\nlines", "cr\rid", "", " pad ", "plain"]
        table.specimen_ids = np.repeat(ids, 100).astype(object)
        written = self.check(table, tmp_path)
        assert b'"a,b",' in written and b'"say ""hi""",' in written
        assert b"\r\n\"two\nlines\"," in written

    def test_awkward_floats(self, tmp_path):
        table = make_table()
        table.features[0, :4] = [-0.0, 5e-324, 1e300, 0.1 + 0.2]
        table.compositions[1] = [1e-310, 100.0 - 1e-310, 0.0]
        written = self.check(table, tmp_path)
        assert b",-0.0,5e-324,1e+300,0.30000000000000004," in written

    def test_empty_table(self, tmp_path):
        table = make_table().select(np.zeros(200, dtype=bool))
        assert self.check(table, tmp_path).count(b"\r\n") == 1

    def test_longer_than_one_chunk(self, tmp_path):
        table = make_table(n_specimens=21, seed=9)
        assert len(table) > cubeio._CSV_CHUNK_ROWS
        written = self.check(table, tmp_path)
        assert written.count(b"\r\n") == 2101


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
            ("clay", "150", NegativeComponent),
            ("silt", "-0.5", NegativeComponent),
            ("clay", "31", SumViolation),
            ("sand", "40.00001", SumViolation),
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

    def test_sum_within_tolerance_accepted(self, tmp_path):
        path = tmp_path / "obs.csv"
        write_observation_csv(make_table(), path)
        lines = path.read_text().splitlines()
        fields = lines[4].split(",")
        fields[OBSERVATION_HEADER.index("sand")] = "40.0000001"
        lines[4] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert read_observation_csv(path).compositions[3, 2] == 40.0000001

    @pytest.mark.parametrize("texture", ["Clay", "Loam", "SiltyClayLoam"])
    def test_texture_off_the_triangle_names_file_and_line(self, tmp_path, texture):
        # (30, 30, 40) is ClayLoam; the first disagreeing row is named
        path = tmp_path / "obs.csv"
        write_observation_csv(make_table(n_specimens=3), path)
        lines = path.read_text().splitlines()
        for line in (5, 150, 260):
            fields = lines[line - 1].split(",")
            fields[OBSERVATION_HEADER.index("texture")] = texture
            lines[line - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedHeader,
                           match=r"obs\.csv: line 5: texture is not the triangle's"):
            read_observation_csv(path)

    def test_every_class_round_trips(self, tmp_path):
        path = tmp_path / "obs.csv"
        table = make_table(n_specimens=12)
        write_observation_csv(table, path)
        codes = read_observation_csv(path).texture_codes
        assert sorted(set(codes.tolist())) == list(range(12))

    def test_repeated_block_names_file_and_line(self, tmp_path):
        # the same block position in another specimen is fine; a second
        # row for one (specimen, block) is not, and the repeat is reported
        path = tmp_path / "obs.csv"
        write_observation_csv(make_table(), path)
        lines = path.read_text().splitlines()
        lines[4] = lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedHeader, match=r"obs\.csv: line 5: repeats"):
            read_observation_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(",".join(OBSERVATION_HEADER) + "\n")
        with pytest.raises(MalformedHeader, match=r"obs\.csv: no observation rows"):
            read_observation_csv(path)


class TestObservationCsvDecoding:
    @pytest.mark.parametrize("line", [1, 4])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "obs.csv"
        write_observation_csv(make_table(), path)
        raw = path.read_bytes().split(b"\r\n")
        raw[line - 1] = b"\xff" + raw[line - 1]
        path.write_bytes(b"\r\n".join(raw))
        with pytest.raises(MalformedHeader, match=rf"obs\.csv: line {line}: not text"):
            read_observation_csv(path)

    @pytest.mark.parametrize("quoted", [True, False], ids=["quoted", "plain"])
    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path, quoted):
        table = make_table()
        long_id = "x" * (csv.field_size_limit() + 1)
        table.specimen_ids = np.array(
            [long_id + ("," if quoted else "")] * 100 + ["s1"] * 100, dtype=object
        )
        path = tmp_path / "obs.csv"
        write_observation_csv(table, path)
        with pytest.raises(MalformedHeader, match=r"obs\.csv: line 2: field larger"):
            read_observation_csv(path)

    def test_manifest_reader_shares_the_mapping(self, tmp_path):
        path = tmp_path / "rows.csv"
        long_field = b'"' + b"y" * (csv.field_size_limit() + 1) + b'"'
        path.write_bytes(b"a,b\r\n1," + long_field + b"\r\n")
        with pytest.raises(MalformedHeader, match=r"rows\.csv: line 2: field larger"):
            cubeio.read_csv_rows(path, ["a", "b"], "test", lambda line, row: row)


class TestFirstBadLine:
    """A file with two defects is named at the earlier one."""

    def test_manifest_cell_before_an_over_limit_field(self, tmp_path):
        lines = valid_manifest().split(b"\r\n")
        fields = lines[2].split(b",")
        fields[2] = b"abc"
        lines[2] = b",".join(fields)
        lines[5] = lines[5] + b'"' + b"y" * (csv.field_size_limit() + 1) + b'"'
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(MalformedHeader,
                           match=r"manifest\.csv: line 3: could not convert"):
            synthgen.load_manifest(path)

    def test_quoted_table_cell_before_an_over_limit_id(self, tmp_path):
        table = make_table()
        table.specimen_ids[0] = "s,0"  # quoted, so the per-line parse reads it
        table.specimen_ids[4] = "y" * (csv.field_size_limit() + 1)
        path = tmp_path / "obs.csv"
        write_observation_csv(table, path)
        lines = path.read_bytes().split(b"\r\n")
        fields = lines[3].split(b",")
        fields[OBSERVATION_HEADER.index("f405")] = b"x1.5"
        lines[3] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(MalformedHeader, match=r"obs\.csv: line 4: could not"):
            read_observation_csv(path)


    @pytest.mark.parametrize("column, cell, line, error", [
        ("f405", "x1.5", 6, MalformedHeader),
        ("clay", "31", 7, SumViolation),
    ])
    def test_row_after_a_quoted_line_break_names_its_physical_line(
        self, tmp_path, column, cell, line, error
    ):
        table = make_table()
        table.specimen_ids[2] = "a\nb"  # one record on lines 4 and 5
        path = tmp_path / "obs.csv"
        write_observation_csv(table, path)
        records = path.read_bytes().split(b"\r\n")
        fields = records[line - 2].split(b",")
        fields[OBSERVATION_HEADER.index(column)] = cell.encode()
        records[line - 2] = b",".join(fields)
        path.write_bytes(b"\r\n".join(records))
        with pytest.raises(error, match=rf"obs\.csv: line {line}: "):
            read_observation_csv(path)


class TestOnePassParse:
    @pytest.mark.parametrize("line_end", [b"\r\n", b"\n"], ids=["crlf", "lf"])
    def test_writer_output_takes_the_one_pass_parse(self, tmp_path, line_end):
        path = tmp_path / "obs.csv"
        write_observation_csv(make_table(n_specimens=3, seed=2), path)
        text = path.read_bytes().replace(b"\r\n", line_end).decode()
        assert cubeio._parse_plain(text) is not None

    def edit(self, tmp_path, cells):
        """A written table with `cells` ((line, column, text)) replaced."""
        path = tmp_path / "obs.csv"
        write_observation_csv(make_table(), path)
        lines = path.read_text().splitlines()
        for line, column, cell in cells:
            fields = lines[line - 1].split(",")
            fields[OBSERVATION_HEADER.index(column)] = cell
            lines[line - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_non_ascii_digits_in_integer_cells_read_as_int_reads_them(self, tmp_path):
        # np.loadtxt reads this Devanagari 2 as 2360; blocks (1, 1), (1, 2) swap
        path = self.edit(tmp_path, [(2, "block_col", "\u0968"), (3, "block_col", "1")])
        assert read_observation_csv(path).block_cols[:3].tolist() == [2, 1, 3]

    def test_non_ascii_digits_in_float_cells_read_as_float_reads_them(self, tmp_path):
        path = self.edit(tmp_path, [(4, "f365", "\u0661.\u0665")])
        assert read_observation_csv(path).features[2, 0] == 1.5

    @pytest.mark.parametrize("line_end", ["\r\n", "\n"], ids=["crlf", "lf"])
    def test_blank_line_names_file_and_line(self, tmp_path, line_end):
        path = tmp_path / "obs.csv"
        write_observation_csv(make_table(), path)
        lines = path.read_text().splitlines()
        lines.insert(3, "")
        path.write_bytes(line_end.join(lines + [""]).encode())
        with pytest.raises(MalformedHeader, match=r"obs\.csv: line 4 has 0 fields"):
            read_observation_csv(path)

    @pytest.mark.parametrize("cell", ["3\x1f", "\x1c3", "3\x1e"])
    def test_separator_blanks_are_not_numbers(self, tmp_path, cell):
        path = self.edit(tmp_path, [(3, "f405", cell)])
        with pytest.raises(MalformedHeader, match=r"obs\.csv: line 3: could not"):
            read_observation_csv(path)

    def vmhwm_rise(self, tmp_path, first_id):
        """MB by which reading a 20,000-row table (5.4 MB) whose first id is
        `first_id` raises a child's VmHWM: the peak since exec, where
        ru_maxrss would count the forking parent's."""
        table = make_table(n_specimens=200)
        table.specimen_ids[0] = first_id
        path = tmp_path / "obs.csv"
        write_observation_csv(table, path)
        probe = (
            "import sys; from soilspec.cubeio import read_observation_csv\n"
            "def hwm():\n"
            "    status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "    return int(status.split()[0])\n"
            "before = hwm()\n"
            "read_observation_csv(sys.argv[1])\n"
            "print((hwm() - before) // 1024)"
        )
        src = str(Path(soilspec.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", probe, str(path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return int(result.stdout)

    def test_read_stays_in_bounded_memory(self, tmp_path):
        # about 20 MB; a copy of the text's body and a UCS-4 StringIO of it,
        # held as well, took 42 MB
        assert self.vmhwm_rise(tmp_path, "s0") < 30

    def test_quoted_ids_end_no_line_at_other_breaks(self, tmp_path):
        # csv ends lines only at CR and LF, not where str.splitlines would
        table = make_table()
        table.specimen_ids = np.repeat(["a\x0c,b", "c\u2028,d"], 100).astype(object)
        path = tmp_path / "obs.csv"
        write_observation_csv(table, path)
        loaded = read_observation_csv(path)
        assert list(loaded.specimen_ids) == list(table.specimen_ids)

    def test_per_line_read_stays_in_bounded_memory(self, tmp_path):
        # a quoted id takes the per-line parse: about 34 MB; its rows as lists
        # of str cells, all held before any was converted, took 56 MB
        assert self.vmhwm_rise(tmp_path, "s,0") < 45


_ID_TEXT = st.text(alphabet=st.sampled_from(list('ab, "\n\r\x00\t\u2028')), max_size=6)


class TestObservationCsvProperties:
    """Hypothesis properties of the observation reader."""

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=400))
    def test_any_bytes_give_a_table_or_a_domain_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "obs.csv"
        path.write_bytes(raw)
        try:
            assert isinstance(read_observation_csv(path), ObservationTable)
        except SoilspecError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(max_size=120), line=st.integers(0, 300),
           cut=st.integers(0, 400))
    def test_mangled_tables_give_a_table_or_a_domain_error(self, tmp_path_factory, raw,
                                                           line, cut):
        path = tmp_path_factory.mktemp("fuzz") / "obs.csv"
        write_observation_csv(make_table(n_specimens=3), path)
        lines = path.read_bytes().split(b"\r\n")
        line %= len(lines)
        lines[line] = lines[line][:cut] + raw + lines[line][cut:]
        path.write_bytes(b"\r\n".join(lines))
        try:
            assert isinstance(read_observation_csv(path), ObservationTable)
        except SoilspecError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(_ID_TEXT, min_size=1, max_size=4, unique=True),
        crlf=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_write_then_read_is_exact(self, tmp_path_factory, ids, crlf, seed):
        if not crlf:  # an LF file cannot hold a CR inside an id either
            ids = list(dict.fromkeys(i.replace("\r", "") for i in ids))
        table = make_table(n_specimens=len(ids), seed=seed)
        table.specimen_ids = np.array(ids, dtype=object).repeat(100)
        table.features[::7, 0] = -0.0
        path = tmp_path_factory.mktemp("trip") / "obs.csv"
        write_observation_csv(table, path)
        if not crlf:
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        loaded = read_observation_csv(path)
        assert list(loaded.specimen_ids) == list(table.specimen_ids)
        for name in ("block_rows", "block_cols", "features", "compositions",
                     "texture_codes"):
            got, want = getattr(loaded, name), getattr(table, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    # cells that int(), float() and np.loadtxt may read differently
    _CELLS = ["1", "+3", " 4", "5 ", "06", "7.0", "8_0", "1e1", "", " ", "-0.0",
              "1e400", "1e-400", "nan", "-inf", "0x1", ".", "--3", "1.2.3", "3e",
              "99999999999999999999", "-9223372036854775808", "\x0b3", "3\x0c",
              "\x1c3", "3\x1f", "\x002", "3\x7f", "\xa01.5", "1.5\u2003",
              "\u0669", "\u0968", "\u0661.\u0665", "Loam", " Sand", "Sand\t"]
    _PLAIN_ID = st.text(alphabet=st.sampled_from(list("ab \t\x00\x0b\x1c\x7f\xa0")),
                        max_size=5)

    @settings(max_examples=300, deadline=None)
    @given(
        ids=st.lists(_PLAIN_ID, min_size=1, max_size=3),
        edits=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 19),
                                 st.sampled_from(_CELLS)), max_size=3),
        crlf=st.booleans(),
    )
    def test_one_pass_parse_agrees_with_the_per_line_parse(self, ids, edits, crlf):
        # whatever the vectorized pass accepts, the csv loop reads the same
        lines = [",".join(OBSERVATION_HEADER)]
        for row in range(10):
            fields = [ids[row % len(ids)], str(row + 1), "1"]
            fields += [repr(0.1 * row + j) for j in range(N_BANDS)]
            fields += ["30.0", "30.0", "40.0", "ClayLoam"]
            lines.append(",".join(fields))
        for line, column, cell in edits:
            fields = lines[line + 1].split(",")
            fields[min(column, len(fields) - 1)] = cell
            lines[line + 1] = ",".join(fields)
        text = ("\r\n" if crlf else "\n").join(lines) + "\n"
        plain = cubeio._parse_plain(text)
        if plain is None:
            return
        rows = cubeio._parse_rows(Path("obs.csv"), text)
        for got, want in zip(plain, rows):
            assert got.dtype == want.dtype and got.shape == want.shape
            if got.dtype == object:
                assert got.tolist() == want.tolist()
            else:
                assert got.tobytes() == want.tobytes()


class Interrupted(Exception):
    """Stands for whatever stops a writer part-way: a bug, a signal."""


class IdThatInterrupts:
    def __str__(self):
        raise Interrupted("cut part-way")


def rows_then_interrupt():
    for i in range(5000):  # more than one buffer of text, so some reaches the file
        yield [str(i), "x"]
    raise Interrupted("cut part-way")


def observation_table_that_interrupts():
    table = make_table(n_specimens=7)
    table.specimen_ids[600] = IdThatInterrupts()  # in the second chunk
    return table


# each writer, stopped part-way through its rows
WRITERS_CUT_PART_WAY = {
    "write_csv_rows": lambda path: cubeio.write_csv_rows(
        path, ["i", "x"], rows_then_interrupt()),
    "write_observation_csv": lambda path: write_observation_csv(
        observation_table_that_interrupts(), path),
}


@pytest.mark.parametrize("write", WRITERS_CUT_PART_WAY.values(),
                         ids=WRITERS_CUT_PART_WAY.keys())
class TestWholeOutputs:
    """An output is written whole or not at all."""

    def test_a_cut_write_leaves_no_file(self, tmp_path, write):
        with pytest.raises(Interrupted):
            write(tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []

    def test_a_cut_write_keeps_the_old_file(self, tmp_path, write):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old,bytes\r\n")
        with pytest.raises(Interrupted):
            write(path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old,bytes\r\n"


def test_open_output_replaces_the_file_when_the_block_ends(tmp_path):
    path = tmp_path / "out.msc"
    path.write_bytes(b"old")
    with cubeio.open_output(path, "wb") as fh:
        fh.write(b"new")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.msc",
                                                             "out.msc.partial"]
    assert path.read_bytes() == b"new"
    assert list(tmp_path.iterdir()) == [path]


def test_open_output_turns_an_os_error_into_io_failure(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(IoFailure) as exc:
        with cubeio.open_output(path, "w"):
            raise OSError(28, "No space left on device")
    assert str(exc.value) == f"cannot write {path}: [Errno 28] No space left on device"
    assert list(tmp_path.iterdir()) == []


_TABLE = make_table()
_ROWS = np.arange(len(_TABLE))
# every call that rejects an argument the CLI's parser never lets through
BAD_ARGUMENTS = {
    "core.TextureClass.from_name": lambda: TextureClass.from_name("Mud"),
    "features.group_signatures": lambda: features.group_signatures(_TABLE, "hue"),
    "preprocess.NormalizationParams": lambda: preprocess.NormalizationParams(0.0),
    "synthgen.NoiseModel": lambda: synthgen.NoiseModel(dark_std=-1.0),
    "synthgen.noise_preset": lambda: synthgen.noise_preset("loud"),
    "ml.trees.RandomForestClassifier": lambda: RandomForestClassifier(n_trees=0),
    "pipeline.make_folds": lambda: pipeline.make_folds(_TABLE, 0, "pixel"),
    "pipeline.ModelSpec": lambda: pipeline.ModelSpec("svm"),
    "pipeline.fit_fold": lambda: pipeline.fit_fold(_TABLE, _ROWS, 1, seed=0),
    "pipeline.evaluate_fold": lambda: pipeline.evaluate_fold(
        SimpleNamespace(strategy=1), _TABLE, _ROWS, [2]),
    "pipeline.run_strategies": lambda: pipeline.run_strategies(
        _TABLE, None, [4], [pipeline.ModelSpec("knn")]),
    "pipeline.write_confusion_csv": lambda: pipeline.write_confusion_csv(
        SimpleNamespace(pooled_confusion=lambda: None), "unused.csv"),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_a_bad_argument_is_a_soilspec_error_and_a_value_error(call):
    with pytest.raises(BadArgument) as exc:
        call()
    assert isinstance(exc.value, SoilspecError) and isinstance(exc.value, ValueError)
