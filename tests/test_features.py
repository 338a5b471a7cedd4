import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilspec.core import N_BANDS, TextureClass, validate_composition
from soilspec.errors import DegenerateBand, DimensionMismatch, EmptyGroup, NotFitted
from soilspec.features import (
    MinMaxScaler,
    block_means,
    composition_group_labels,
    emit_signatures,
    flatten_observations,
    group_signatures,
)


def roi_planes(fill=0.0):
    return np.full((N_BANDS, 100, 100), fill, dtype=np.float64)


class TestBlockMeans:
    def test_constant_plane(self):
        planes = roi_planes(3.5)
        planes[4] = 9.0
        out = block_means(planes)
        assert out.shape == (100, N_BANDS)
        assert np.all(out[:, 4] == 9.0)
        assert np.all(out[:, 0] == 3.5)

    def test_indicator_block(self):
        planes = roi_planes(0.0)
        # block (u=2, v=3) covers rows 10..19, cols 20..29
        planes[6, 10:20, 20:30] = 10.0
        out = block_means(planes)
        row = (2 - 1) * 10 + (3 - 1)
        column = out[:, 6]
        assert column[row] == 10.0
        assert np.count_nonzero(column) == 1

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        planes = rng.uniform(0, 1023, (N_BANDS, 100, 100))
        out = block_means(planes)
        for band in (0, 5, 12):
            for u in (1, 4, 10):
                for v in (1, 7, 10):
                    block = planes[
                        band, (u - 1) * 10 : u * 10, (v - 1) * 10 : v * 10
                    ]
                    expected = block.sum() / 100.0
                    assert out[(u - 1) * 10 + (v - 1), band] == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_sum_preservation(self):
        rng = np.random.default_rng(12)
        planes = rng.uniform(0, 1023, (N_BANDS, 100, 100))
        out = block_means(planes)
        for band in range(N_BANDS):
            assert out[:, band].sum() * 100.0 == pytest.approx(
                planes[band].sum(), rel=1e-12
            )

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            block_means(np.zeros((N_BANDS, 50, 100)))


class TestFlattenObservations:
    def _specimen(self, specimen_id):
        return (validate_composition(20.0, 30.0, 50.0), TextureClass.LOAM, specimen_id)

    def _blocks(self, count, value=1.0):
        return np.full((count, 100, N_BANDS), value)

    def test_one_specimen_hundred_rows(self):
        table = flatten_observations(self._blocks(1), [self._specimen("a")])
        assert len(table) == 100
        assert set(zip(table.block_rows, table.block_cols)) == {
            (u, v) for u in range(1, 11) for v in range(1, 11)
        }

    def test_many_specimens_scale(self):
        table = flatten_observations(
            self._blocks(440), [self._specimen(f"s{i}") for i in range(440)]
        )
        assert len(table) == 44_000
        table = flatten_observations(
            self._blocks(84), [self._specimen(f"v{i}") for i in range(84)]
        )
        assert len(table) == 8_400

    def test_matches_a_per_specimen_loop(self):
        rng = np.random.default_rng(3)
        specimens = [
            (rng.random((100, N_BANDS)), validate_composition(*comp), texture, sid)
            for comp, texture, sid in [
                ((20.0, 30.0, 50.0), TextureClass.LOAM, "a"),
                ((60.0, 20.0, 20.0), TextureClass.CLAY, "b"),
                ((5.0, 5.0, 90.0), TextureClass.SAND, "c"),
            ]
        ]
        table = flatten_observations(
            np.array([s[0] for s in specimens]), iter(s[1:] for s in specimens)
        )
        u, v = np.divmod(np.arange(100), 10)
        for i, (matrix, comp, texture, sid) in enumerate(specimens):
            rows = slice(100 * i, 100 * (i + 1))
            assert table.specimen_ids[rows].tolist() == [sid] * 100
            assert np.array_equal(table.block_rows[rows], u + 1)
            assert np.array_equal(table.block_cols[rows], v + 1)
            assert np.array_equal(table.features[rows], matrix)
            assert np.array_equal(table.compositions[rows],
                                  np.tile(comp.as_array(), (100, 1)))
            assert np.all(table.texture_codes[rows] == texture.index)

    def test_ids_kept_as_given(self):
        # a "U" array would drop the trailing NUL and merge the two specimens
        table = flatten_observations(
            self._blocks(2), [self._specimen("a"), self._specimen("a\x00")]
        )
        assert table.specimen_ids.tolist() == ["a"] * 100 + ["a\x00"] * 100

    def test_no_specimens_give_an_empty_table(self):
        table = flatten_observations(self._blocks(0), [])
        assert len(table) == 0
        assert table.features.shape == (0, N_BANDS)
        assert table.compositions.shape == (0, 3)

    def test_row_block_correspondence(self):
        matrix = np.arange(100 * N_BANDS, dtype=float).reshape(100, N_BANDS)
        table = flatten_observations(
            matrix[np.newaxis],
            [(validate_composition(20, 30, 50), TextureClass.LOAM, "x")],
        )
        k = 37  # block (4, 8) -> row (4-1)*10 + (8-1)
        assert table.block_rows[k] == 4 and table.block_cols[k] == 8
        assert np.array_equal(table.features[k], matrix[k])

    def test_features_are_a_view_of_the_blocks(self):
        blocks = np.random.default_rng(5).random((3, 100, N_BANDS))
        specimens = [self._specimen(f"s{i}") for i in range(3)]
        table = flatten_observations(blocks, specimens)
        assert np.shares_memory(table.features, blocks)
        assert np.array_equal(table.features, blocks.reshape(300, N_BANDS))

    @pytest.mark.parametrize("shape", [(2, 100, N_BANDS), (3, N_BANDS, 100), (3, 100)])
    def test_blocks_must_match_the_specimens(self, shape):
        with pytest.raises(DimensionMismatch, match="blocks of 3 specimens"):
            flatten_observations(np.zeros(shape),
                                 [self._specimen(f"s{i}") for i in range(3)])


class TestMinMaxScaler:
    def test_fit_stores_extremes(self):
        X = np.tile([[2.0], [4.0], [6.0]], (1, N_BANDS))
        scaler = MinMaxScaler().fit(X)
        assert np.all(scaler.min_ == 2.0) and np.all(scaler.max_ == 6.0)

    def test_degenerate_band(self):
        X = np.ones((5, N_BANDS))
        X[:, :5] = np.arange(5)[:, None]
        with pytest.raises(DegenerateBand):
            MinMaxScaler().fit(X)

    def test_not_fitted(self):
        with pytest.raises(NotFitted):
            MinMaxScaler().transform(np.zeros((2, N_BANDS)))

    def test_train_extremes_map_to_unit(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-50, 400, (40, N_BANDS))
        scaler = MinMaxScaler().fit(X)
        out = scaler.transform(X)
        assert np.all(out.min(axis=0) == 0.0)
        assert np.all(out.max(axis=0) == 1.0)

    def test_extrapolation_not_clamped(self):
        X = np.tile([[0.0], [10.0]], (1, N_BANDS))
        scaler = MinMaxScaler().fit(X)
        out = scaler.transform(np.full((1, N_BANDS), 20.0))
        assert np.all(out == 2.0)

    def test_fold_scope_leakage_audit(self):
        # Refitting with test rows present must change the transform.
        rng = np.random.default_rng(14)
        train = rng.uniform(0, 1, (30, N_BANDS))
        test = rng.uniform(1.5, 2.0, (10, N_BANDS))  # outside the train range
        fold_scaler = MinMaxScaler().fit(train)
        leaky_scaler = MinMaxScaler().fit(np.vstack([train, test]))
        assert not np.allclose(
            fold_scaler.transform(test), leaky_scaler.transform(test)
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_round_trip_linearity(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 100, (20, N_BANDS))
        X[0] = 0.0  # guarantee spread
        X[1] = 100.0
        scaler = MinMaxScaler().fit(X)
        out = scaler.transform(X)
        restored = out * (scaler.max_ - scaler.min_) + scaler.min_
        assert np.allclose(restored, X, atol=1e-9)


def grouped_table(values_by_class):
    from soilspec.core import ObservationTable

    rows = []
    comps = []
    codes = []
    for code, (value, count, comp) in values_by_class.items():
        rows.append(np.full((count, N_BANDS), value))
        comps.append(np.tile(comp, (count, 1)))
        codes.append(np.full(count, code, dtype=np.int64))
    features = np.vstack(rows)
    n = features.shape[0]
    return ObservationTable(
        specimen_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
        block_rows=np.ones(n, dtype=np.int64),
        block_cols=np.ones(n, dtype=np.int64),
        features=features,
        compositions=np.vstack(comps),
        texture_codes=np.concatenate(codes),
    )


class TestSignatures:
    def test_single_constant_group(self):
        table = grouped_table({3: (0.25, 7, [20.0, 30.0, 50.0])})
        labels, means = group_signatures(table, "class")
        assert labels == [TextureClass.LOAM.value]
        assert np.all(means == 0.25)

    def test_two_disjoint_groups(self):
        table = grouped_table(
            {0: (0.1, 4, [1.0, 1.0, 98.0]), 11: (0.9, 6, [60.0, 25.0, 15.0])}
        )
        labels, means = group_signatures(table, "class")
        assert labels == ["Sand", "Clay"]
        assert np.all(means[0] == 0.1) and np.all(means[1] == 0.9)

    def test_group_mean_oracle(self):
        rng = np.random.default_rng(15)
        table = grouped_table(
            {0: (0.0, 5, [1.0, 1.0, 98.0]), 5: (0.0, 9, [5.0, 90.0, 5.0])}
        )
        table.features[:] = rng.uniform(0, 1, table.features.shape)
        labels, means = group_signatures(table, "class")
        for label_idx, code in enumerate((0, 5)):
            members = table.features[table.texture_codes == code]
            brute = members.sum(axis=0) / members.shape[0]
            assert np.allclose(means[label_idx], brute, atol=1e-12)

    def test_composition_grouping(self):
        table = grouped_table(
            {0: (0.2, 4, [1.0, 1.0, 98.0]), 1: (0.7, 4, [10.0, 15.0, 75.0])}
        )
        labels, means = group_signatures(table, "composition")
        assert labels == ["Cl1.00_M1.00_S98.00", "Cl10.00_M15.00_S75.00"]
        assert np.all(means[0] == 0.2) and np.all(means[1] == 0.7)

    def test_empty_table(self):
        table = grouped_table({0: (0.5, 1, [1.0, 1.0, 98.0])}).select([])
        with pytest.raises(EmptyGroup):
            group_signatures(table, "class")

    def test_csv_golden(self, tmp_path):
        table = grouped_table({0: (0.5, 2, [1.0, 1.0, 98.0])})
        path = tmp_path / "sig.csv"
        emit_signatures(table, "class", path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("group,f365,f405,")
        assert lines[1] == "Sand," + ",".join(["0.5"] * N_BANDS)


class TestCompositionGroups:
    def test_distinct_triples(self):
        comps = np.array([[10, 20, 70], [10, 20, 70], [5, 5, 90]], dtype=float)
        codes, labels = composition_group_labels(comps)
        assert len(labels) == 2
        assert codes[0] == codes[1] != codes[2]

    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(
            st.tuples(*[st.sampled_from([0.0, -0.0, 0.5, 12.5, 33.33, 100.0])] * 3),
            min_size=1, max_size=6,
        ),
        picks=st.lists(st.integers(0, 5), max_size=40),
    )
    def test_codes_and_labels_are_those_of_unique_rows(self, pool, picks):
        # rows repeat (drawn from a small pool) and mix 0.0 with -0.0, which
        # compare equal, so both fall in one group
        comps = np.array([pool[i % len(pool)] for i in picks], dtype=float).reshape(-1, 3)
        codes, labels = composition_group_labels(comps)
        keys, inverse = np.unique(comps, axis=0, return_inverse=True)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, inverse.reshape(-1))
        assert len(labels) == len(keys)
        assert not any("-0.00" in label for label in labels)
        if not np.any(np.signbit(comps)):
            assert labels == [f"Cl{k[0]:.2f}_M{k[1]:.2f}_S{k[2]:.2f}" for k in keys]
