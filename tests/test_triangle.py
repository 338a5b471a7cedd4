import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilspec.core import TextureClass, validate_composition
from soilspec.errors import (
    AllNonPositive,
    NumericalFailure,
    OffSimplex,
    WeightSumViolation,
)
from soilspec.triangle import (
    TRIANGLE_RULES,
    classify_composition,
    classify_percentages,
    dump_rules,
    mixture_composition,
    normalize_prediction,
    normalize_predictions,
)

ENDMEMBERS = (
    validate_composition(78.63, 21.37, 0.0),
    validate_composition(5.75, 94.25, 0.0),
    validate_composition(0.0, 0.0, 100.0),
)

# Every number a rule compares clay, silt or sand with.
RULE_EDGES = (0, 7, 12, 15, 20, 27, 28, 30, 35, 40, 45, 50, 52, 80, 100)
_near_edge = st.sampled_from(RULE_EDGES).flatmap(
    lambda v: st.floats(v - 1e-12, v + 1e-12))
_wide = st.floats(-1e300, 1e300)
_plausible = st.floats(-20, 120)
# Finite (clay, silt, sand) predictions with a positive component: clay and
# silt within 1e-12 of a rule edge and a sum within 1e-12 of 100, a
# regressor's plausible output, or any triple whose clamped total cannot
# overflow.
PREDICTION_ROWS = st.one_of(
    st.tuples(_near_edge, _near_edge, st.floats(-1e-12, 1e-12)).map(
        lambda t: (t[0], t[1], 100.0 - t[0] - t[1] + t[2])),
    st.tuples(_plausible, _plausible, _plausible),
    st.tuples(_wide, _wide, _wide),
).filter(lambda row: max(row) > 0)


def simplex_grid(step_tenths=1):
    """All (clay, silt, sand) triples on a 0.1%-step integer lattice."""
    clay_i = np.arange(0, 1001, step_tenths)
    clay = np.repeat(clay_i, (1001 - clay_i - 1) // step_tenths + 1)
    silt = np.concatenate(
        [np.arange(0, 1001 - c, step_tenths) for c in clay_i]
    )
    sand = 1000 - clay - silt
    return clay / 10.0, silt / 10.0, sand / 10.0


class TestClassification:
    def test_clay_rich_endmember(self):
        assert classify_composition(ENDMEMBERS[0]) is TextureClass.CLAY

    def test_silt_rich_endmember(self):
        assert classify_composition(ENDMEMBERS[1]) is TextureClass.SILT

    def test_sand_endmember(self):
        # silt + 1.5*clay = 0 < 15
        assert classify_composition(ENDMEMBERS[2]) is TextureClass.SAND

    def test_silty_clay_boundary_point(self):
        comp = validate_composition(40.0, 40.0, 20.0)
        assert classify_composition(comp) is TextureClass.SILTY_CLAY

    def test_off_simplex_rejected(self):
        from soilspec.core import Composition

        with pytest.raises(OffSimplex):
            classify_composition(Composition(50.0, 40.0, 20.0))

    def test_vectorized_agrees_with_scalar(self):
        rng = np.random.default_rng(41)
        raw = rng.dirichlet(np.ones(3), 300) * 100.0
        codes = classify_percentages(raw[:, 0], raw[:, 1], raw[:, 2])
        for i in range(raw.shape[0]):
            comp = validate_composition(*raw[i])
            assert classify_composition(comp).index == codes[i]


class TestPartition:
    def test_exactly_one_rule_per_point(self):
        clay, silt, sand = simplex_grid()
        counts = np.zeros(clay.size, dtype=np.int64)
        for rule in TRIANGLE_RULES:
            counts += rule.predicate(clay, silt, sand)
        assert counts.min() == 1 and counts.max() == 1

    def test_all_twelve_classes_reachable(self):
        clay, silt, sand = simplex_grid(step_tenths=5)
        codes = classify_percentages(clay, silt, sand)
        assert set(codes.tolist()) == set(range(12))

    def test_interior_points_survive_small_errors(self):
        # compositions at least ~2% from every region boundary keep their
        # class when perturbed by sub-1% per-component errors and
        # renormalized (the geometric-margin argument behind strategy 3)
        rng = np.random.default_rng(99)
        grid = [
            (c, m, 100.0 - c - m)
            for c in range(0, 101, 4)
            for m in range(0, 101 - c, 4)
        ]
        interiors = []
        for point in grid:
            base = classify_percentages(*np.array(point)[:, None]).item()
            probes = rng.uniform(-2.0, 2.0, (60, 3))
            probes -= probes.mean(axis=1, keepdims=True)  # stay on the simplex
            shifted = np.maximum(np.array(point) + probes, 0.0)
            shifted = shifted / shifted.sum(axis=1, keepdims=True) * 100.0
            codes = classify_percentages(
                shifted[:, 0], shifted[:, 1], shifted[:, 2]
            )
            if np.all(codes == base):
                interiors.append((point, base))
        assert len(interiors) >= 50  # the scan finds plenty of interior points
        for point, base in interiors:
            errors = rng.uniform(-1.0, 1.0, (40, 3))
            noisy = np.array(point) + errors
            normalized = normalize_predictions(np.maximum(noisy, 0.0))
            deviation = np.abs(normalized - np.array(point)).max(axis=1)
            inside = deviation <= 2.0
            assert inside.mean() >= 0.95  # sub-1% errors stay within the margin
            codes = classify_percentages(
                normalized[inside, 0], normalized[inside, 1], normalized[inside, 2]
            )
            assert np.all(codes == base)

    @pytest.mark.parametrize(
        "boundary_point,offset_axis,adjacent",
        [
            # clay = 35 line inside the sand > 45 region
            ((35.0, 12.0, 53.0), 0, {"SandyClayLoam", "SandyClay"}),
            # silt = 40 line at high clay
            ((45.0, 40.0, 15.0), 1, {"Clay", "SiltyClay"}),
            # sand = 45 line at clay 50
            ((50.0, 5.0, 45.0), 2, {"Clay", "SandyClay"}),
            # silt = 50 between Loam and SiltLoam at clay 20
            ((20.0, 50.0, 30.0), 1, {"Loam", "SiltLoam"}),
        ],
    )
    def test_adjacency_near_boundaries(self, boundary_point, offset_axis, adjacent):
        for delta in (-0.4, -0.2, 0.0, 0.2, 0.4):
            point = list(boundary_point)
            point[offset_axis] += delta
            # keep the triple on the simplex by absorbing into another axis
            other = (offset_axis + 1) % 3
            point[other] -= delta
            comp = validate_composition(*point)
            assert classify_composition(comp).value in adjacent


class TestNormalizePrediction:
    def test_already_valid_unchanged(self):
        comp = normalize_prediction(40.0, 40.0, 20.0)
        assert (comp.clay_pct, comp.silt_pct, comp.sand_pct) == (40.0, 40.0, 20.0)

    def test_uniform_rescale(self):
        comp = normalize_prediction(50.0, 50.0, 50.0)
        assert comp.clay_pct == pytest.approx(100.0 / 3.0, abs=1e-12)
        assert comp.as_array().sum() == pytest.approx(100.0, abs=1e-9)

    def test_clamp_then_rescale(self):
        comp = normalize_prediction(-2.0, 51.0, 51.0)
        assert comp.clay_pct == 0.0
        assert comp.silt_pct == pytest.approx(50.0, abs=1e-12)
        assert comp.sand_pct == pytest.approx(50.0, abs=1e-12)

    def test_all_nonpositive(self):
        with pytest.raises(AllNonPositive):
            normalize_prediction(-1.0, 0.0, -5.0)

    @settings(max_examples=100, deadline=None)
    @given(
        clay=st.floats(-20, 120),
        silt=st.floats(-20, 120),
        sand=st.floats(-20, 120),
    )
    def test_output_always_on_simplex(self, clay, silt, sand):
        if max(clay, silt, sand) <= 0:
            return
        comp = normalize_prediction(clay, silt, sand)
        assert abs(comp.as_array().sum() - 100.0) <= 1e-9
        assert min(comp.clay_pct, comp.silt_pct, comp.sand_pct) >= 0.0

    @pytest.mark.parametrize(
        "bad", [[np.nan, 1, 1], [np.inf, 1, 1], [1, -np.inf, 1], [1e308, 1e308, 0]]
    )
    def test_non_finite_row_is_named(self, bad):
        with np.errstate(all="raise"):
            with pytest.raises(NumericalFailure, match="row 1 has a non-finite"):
                normalize_predictions([[1.0, 2.0, 3.0], bad])

    def test_finite_rows_keep_the_clamp_then_rescale_bits(self):
        triples = np.random.default_rng(5).uniform(-5, 110, (200, 3))
        clamped = np.maximum(triples, 0.0)
        expected = clamped / clamped.sum(axis=1)[:, np.newaxis] * 100.0
        assert normalize_predictions(triples).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(PREDICTION_ROWS, min_size=1, max_size=8))
    def test_renormalized_predictions_always_match_a_region(self, rows):
        # strategy 3's OffSimplex check cannot fire on a finite prediction
        normalized = normalize_predictions(np.array(rows))
        assert (classify_percentages(*normalized.T) >= 0).all()

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(42)
        triples = rng.uniform(-5, 110, (50, 3))
        triples[triples.max(axis=1) <= 0] = 1.0
        out = normalize_predictions(triples)
        assert np.allclose(out.sum(axis=1), 100.0, atol=1e-9)
        for i in range(triples.shape[0]):
            comp = normalize_prediction(*triples[i])
            assert np.allclose(out[i], comp.as_array(), atol=1e-12)


class TestMixtureComposition:
    def test_pure_endmember(self):
        comp = mixture_composition(np.array([1.0, 0.0, 0.0]), ENDMEMBERS)
        assert (comp.clay_pct, comp.silt_pct, comp.sand_pct) == (78.63, 21.37, 0.0)

    def test_half_clay_half_sand(self):
        comp = mixture_composition(np.array([0.5, 0.0, 0.5]), ENDMEMBERS)
        assert comp.clay_pct == pytest.approx(39.315, abs=1e-12)
        assert comp.silt_pct == pytest.approx(10.685, abs=1e-12)
        assert comp.sand_pct == pytest.approx(50.0, abs=1e-12)

    def test_equal_thirds(self):
        comp = mixture_composition(np.full(3, 1.0 / 3.0), ENDMEMBERS)
        assert comp.clay_pct == pytest.approx(84.38 / 3.0, abs=1e-9)
        assert comp.silt_pct == pytest.approx(115.62 / 3.0, abs=1e-9)
        assert comp.sand_pct == pytest.approx(100.0 / 3.0, abs=1e-9)

    def test_weight_sum_violation(self):
        with pytest.raises(WeightSumViolation):
            mixture_composition(np.array([0.6, 0.6, 0.0]), ENDMEMBERS)
        with pytest.raises(WeightSumViolation):
            mixture_composition(np.array([-0.1, 0.6, 0.5]), ENDMEMBERS)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(0.001, 1),
        b=st.floats(0.001, 1),
        c=st.floats(0.001, 1),
    )
    def test_output_is_valid_composition(self, a, b, c):
        weights = np.array([a, b, c]) / (a + b + c)
        comp = mixture_composition(weights, ENDMEMBERS)
        assert abs(comp.as_array().sum() - 100.0) <= 1e-6


class TestRuleManifest:
    def test_twelve_predicates(self):
        text = dump_rules()
        lines = text.splitlines()
        assert len(lines) == 13  # header + 12 rules
        for cls in TextureClass:
            assert any(line.strip().startswith(cls.value + ":") for line in lines)
