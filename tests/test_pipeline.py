import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import soilspec.pipeline
from soilspec.core import N_BANDS, ObservationTable
from soilspec.errors import ConstantTruth, DegenerateBand, FoldPlanError, SpecimenOverlap
from soilspec.features import MinMaxScaler
from soilspec.ml.metrics import classification_metrics, regression_metrics
from soilspec.pipeline import (
    ModelSpec,
    StrategyResult,
    evaluate_fold,
    fit_fold,
    make_folds,
    run_evaluation,
    run_external_validation,
    run_strategies,
    write_aggregate_csv,
    write_confusion_csv,
    write_results_csv,
)


def cluster_table(
    n_mixtures=8, blocks_per_specimen=10, specimens_per_mixture=5, noise=0.0, seed=0
):
    """Synthetic observation table: one tight feature cluster per mixture."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(100, 900, (n_mixtures, N_BANDS))
    comps = rng.dirichlet(np.ones(3), n_mixtures) * 100.0
    textures = rng.integers(0, 12, n_mixtures)
    ids, rows, cols, feats, comp_rows, codes = [], [], [], [], [], []
    for m in range(n_mixtures):
        for s in range(specimens_per_mixture):
            sid = f"m{m}s{s}"
            for b in range(blocks_per_specimen):
                ids.append(sid)
                rows.append(b // 10 + 1)
                cols.append(b % 10 + 1)
                feats.append(centers[m] + rng.normal(0, noise, N_BANDS))
                comp_rows.append(comps[m])
                codes.append(textures[m])
    return ObservationTable(
        specimen_ids=np.array(ids, dtype=object),
        block_rows=np.array(rows),
        block_cols=np.array(cols),
        features=np.array(feats),
        compositions=np.array(comp_rows),
        texture_codes=np.array(codes),
    )



def run_one(table, plan, strategy, spec):
    """The result of one strategy run with one model."""
    return run_strategies(table, plan, [strategy], [spec])[strategy, spec.name]

class TestMakeFolds:
    def test_ten_rows_even_split(self):
        table = cluster_table(n_mixtures=2, specimens_per_mixture=1,
                              blocks_per_specimen=5)
        plan = make_folds(table, seed=1)
        sizes = np.bincount(plan.assignment)[1:]
        assert sizes.tolist() == [2, 2, 2, 2, 2]

    def test_sizes_differ_by_at_most_one(self):
        table = cluster_table(n_mixtures=4, specimens_per_mixture=3,
                              blocks_per_specimen=9)  # 108 rows
        plan = make_folds(table, seed=2)
        sizes = np.bincount(plan.assignment)[1:]
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == len(table)

    def test_mutually_exclusive_exhaustive(self):
        table = cluster_table()
        plan = make_folds(table, seed=3)
        assert np.all((plan.assignment >= 1) & (plan.assignment <= 5))
        for fold in range(1, 6):
            train = set(plan.train_index(fold).tolist())
            test = set(plan.test_index(fold).tolist())
            assert not train & test
            assert len(train | test) == len(table)

    def test_reproducible_under_seed(self):
        table = cluster_table()
        a = make_folds(table, seed=4)
        b = make_folds(table, seed=4)
        assert np.array_equal(a.assignment, b.assignment)
        c = make_folds(table, seed=5)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_specimen_granularity_keeps_blocks_together(self):
        table = cluster_table(n_mixtures=5, specimens_per_mixture=4,
                              blocks_per_specimen=10)
        plan = make_folds(table, seed=6, granularity="specimen")
        for sid in np.unique(table.specimen_ids.astype(str)):
            folds = plan.assignment[table.specimen_ids.astype(str) == sid]
            assert np.unique(folds).size == 1
        sizes = np.bincount(plan.assignment)[1:]
        assert sizes.max() - sizes.min() <= 10  # one specimen's worth

    def test_specimen_ids_differing_by_a_trailing_nul(self):
        # a "U" array holds "m0s0" and "m0s0\x00" as one string
        table = cluster_table(n_mixtures=1, specimens_per_mixture=10,
                              blocks_per_specimen=2)
        table.specimen_ids = np.array(
            ["m0s0" + "\x00" * int(sid[-1]) for sid in table.specimen_ids],
            dtype=object,
        )
        plan = make_folds(table, seed=6, granularity="specimen")
        assert np.bincount(plan.assignment)[1:].tolist() == [4] * 5

    def test_stratified_block_assignment(self):
        table = cluster_table(n_mixtures=6, specimens_per_mixture=5)
        plan = make_folds(table, seed=7, stratify=True)
        for code in np.unique(table.texture_codes):
            members = plan.assignment[table.texture_codes == code]
            counts = np.bincount(members, minlength=6)[1:]
            assert counts.max() - counts.min() <= 1

    # sha256 of assignment.tobytes() for 147 rows (21 specimens of 7 blocks)
    # at seed 7, as dealt by the per-fold loops this dealing replaced
    @pytest.mark.parametrize(
        "granularity, stratify, digest",
        [
            ("block", False,
             "167ce276ed4f9e8e28cbf36f2b086d2776ad23761259435c6a00e2853281675c"),
            ("block", True,
             "462a1b771dbbc4936fd45a349e8addda818a9311a166b59c38fc037576d698c9"),
            ("specimen", False,
             "e90a843121e642d5e76c7dfeb2523036353a48fd5ce431ce962877bd2f0f520d"),
        ],
    )
    def test_plans_are_pinned(self, granularity, stratify, digest):
        table = cluster_table(n_mixtures=7, specimens_per_mixture=3,
                              blocks_per_specimen=7)
        plan = make_folds(table, seed=7, granularity=granularity, stratify=stratify)
        assert hashlib.sha256(plan.assignment.tobytes()).hexdigest() == digest

    def test_stratified_specimen_assignment(self):
        table = cluster_table(n_mixtures=7, specimens_per_mixture=6,
                              blocks_per_specimen=7)
        plan = make_folds(table, seed=7, granularity="specimen", stratify=True)
        ids = table.specimen_ids.astype(str)
        specimen_fold = {}
        for sid in np.unique(ids):
            folds = np.unique(plan.assignment[ids == sid])
            assert folds.size == 1
            specimen_fold[sid] = folds[0]
        for code in np.unique(table.texture_codes):
            members = np.unique(ids[table.texture_codes == code])
            counts = np.bincount([specimen_fold[s] for s in members], minlength=6)[1:]
            assert counts.max() - counts.min() <= 1
        plain = make_folds(table, seed=7, granularity="specimen")
        assert not np.array_equal(plan.assignment, plain.assignment)

    def test_specimen_of_mixed_texture_cannot_be_stratified(self):
        table = cluster_table(n_mixtures=5, specimens_per_mixture=2,
                              blocks_per_specimen=4)
        table.texture_codes[13] = (table.texture_codes[13] + 1) % 12
        with pytest.raises(FoldPlanError, match="specimen 'm1s1'"):
            make_folds(table, seed=7, granularity="specimen", stratify=True)
        make_folds(table, seed=7, granularity="specimen")
        make_folds(table, seed=7, stratify=True)

    @pytest.mark.parametrize("stratify", [False, True])
    @pytest.mark.parametrize(
        "granularity, blocks, message",
        [("block", 1, "3 blocks"), ("specimen", 10, "3 specimens")],
    )
    def test_too_few_units_for_five_folds(self, granularity, blocks, message,
                                          stratify):
        table = cluster_table(n_mixtures=3, specimens_per_mixture=1,
                              blocks_per_specimen=blocks)
        with pytest.raises(FoldPlanError, match=f"{message} cannot fill N_FOLDS = 5"):
            make_folds(table, seed=7, granularity=granularity, stratify=stratify)


class TestStrategies:
    def test_strategy1_memorizing_knn_perfect(self):
        table = cluster_table(noise=0.0, seed=10)
        plan = make_folds(table, seed=11)
        result = run_one(table, plan, 1, ModelSpec("knn", k=1))
        for metrics in result.fold_metrics():
            assert metrics["accuracy"] == 1.0

    def test_strategy2_memorizing_knn_perfect(self):
        table = cluster_table(noise=0.0, seed=12)
        plan = make_folds(table, seed=13)
        result = run_one(table, plan, 2, ModelSpec("knn", k=1))
        for metrics in result.fold_metrics():
            assert metrics["r2_clay"] == pytest.approx(1.0, abs=1e-12)
            assert metrics["r2_silt"] == pytest.approx(1.0, abs=1e-12)
            assert metrics["r2_sand"] == pytest.approx(1.0, abs=1e-12)

    def test_strategy3_perfect_regression_maps_exactly(self):
        table = cluster_table(noise=0.0, seed=14)
        # align texture labels with the triangle so mapping is consistent
        from soilspec.triangle import classify_percentages

        table.texture_codes[:] = classify_percentages(
            table.compositions[:, 0],
            table.compositions[:, 1],
            table.compositions[:, 2],
        )
        plan = make_folds(table, seed=15)
        result = run_one(table, plan, 3, ModelSpec("knn", k=1))
        for metrics in result.fold_metrics():
            assert metrics["accuracy"] == 1.0

    def test_aggregate_equals_mean_of_folds(self):
        table = cluster_table(noise=2.0, seed=16)
        plan = make_folds(table, seed=17)
        result = run_one(table, plan, 1, ModelSpec("knn", k=3))
        per_fold = result.fold_metrics()
        for metric, (mean, std) in result.aggregates().items():
            values = np.array([fold[metric] for fold in per_fold])
            assert mean == pytest.approx(values.mean(), abs=1e-12)
            assert std == pytest.approx(values.std(), abs=1e-12)  # population
            assert values.min() <= mean <= values.max()

    def test_regression_sum_drift_stays_bounded(self):
        # per-component trees let predicted triples drift off 100; the drift
        # stays mild, which is what makes clamp-then-rescale adequate
        from soilspec.lda import project

        table = cluster_table(noise=2.5, seed=32)
        plan = make_folds(table, seed=33)
        sums = []
        for fold in range(1, 6):
            artifacts = fit_fold(
                table, plan.train_index(fold), 2,
                ModelSpec("dt", max_depth=8), seed=1,
            )
            test = table.select(plan.test_index(fold))
            projected = project(
                artifacts.lda_model, artifacts.scaler.transform(test.features)
            )
            sums.append(artifacts.learners["dt"].predict(projected).sum(axis=1))
        sums = np.concatenate(sums)
        assert np.mean((sums >= 90.0) & (sums <= 110.0)) >= 0.99

    def test_strategy3_handles_drifting_sums(self):
        # per-component trees predict fractions independently; the triangle
        # step renormalizes, so evaluation must not reject drifted sums
        table = cluster_table(noise=1.0, seed=18)
        from soilspec.triangle import classify_percentages

        table.texture_codes[:] = classify_percentages(
            table.compositions[:, 0],
            table.compositions[:, 1],
            table.compositions[:, 2],
        )
        plan = make_folds(table, seed=19)
        result = run_one(table, plan, 3, ModelSpec("dt", max_depth=6))
        for metrics in result.fold_metrics():
            assert 0.0 <= metrics["accuracy"] <= 1.0

    @pytest.mark.parametrize("strategies", [[2], [3], [1, 2]])
    def test_one_row_test_fold_fails_before_any_fit(self, monkeypatch, strategies):
        # 7 rows deal into test folds of 2, 2, 1, 1, 1: R^2 needs 2 rows
        table = cluster_table(n_mixtures=7, specimens_per_mixture=1,
                              blocks_per_specimen=1, seed=40)
        plan = make_folds(table, seed=41)
        fits = []
        monkeypatch.setattr(soilspec.pipeline, "fit_fold",
                            lambda *args, **kwargs: fits.append(args))
        with pytest.raises(FoldPlanError, match=r"^fold 3 has 1 test row\(s\);"):
            run_strategies(table, plan, strategies, [ModelSpec("knn", k=1)])
        assert fits == []


class TestLeakage:
    @pytest.mark.parametrize("strategy", [1, 2, 3])
    def test_fitted_parameters_ignore_test_fold(self, strategy):
        table = cluster_table(noise=1.0, seed=20)
        plan = make_folds(table, seed=21)
        fold = 3
        train_index = plan.train_index(fold)
        test_index = plan.test_index(fold)
        spec = ModelSpec("rf", n_trees=3) if strategy == 1 else ModelSpec("knn")
        baseline = fit_fold(table, train_index, strategy, spec, seed=99)

        # permute the content of the test rows and scramble their labels
        rng = np.random.default_rng(22)
        tampered = table.select(np.arange(len(table)))
        permuted = rng.permutation(test_index)
        tampered.features[test_index] = table.features[permuted]
        tampered.compositions[test_index] = table.compositions[permuted]
        tampered.texture_codes[test_index] = rng.integers(0, 12, test_index.size)
        refit = fit_fold(tampered, train_index, strategy, spec, seed=99)

        assert baseline.digests() == refit.digests()

    def test_test_fold_shuffle_changes_report_not_parameters(self):
        table = cluster_table(noise=1.0, seed=23)
        plan = make_folds(table, seed=24)
        fold = 1
        artifacts = fit_fold(
            table, plan.train_index(fold), 1, ModelSpec("knn"), seed=7
        )
        (report,) = evaluate_fold(
            artifacts, table, plan.test_index(fold), [1]
        ).values()
        rng = np.random.default_rng(25)
        tampered = table.select(np.arange(len(table)))
        test_index = plan.test_index(fold)
        tampered.texture_codes[test_index] = rng.integers(0, 12, test_index.size)
        (tampered_report,) = evaluate_fold(
            artifacts, tampered, test_index, [1]
        ).values()
        assert tampered_report.accuracy != report.accuracy



class TestSharedFoldStage:
    SPECS = [ModelSpec("knn", k=3), ModelSpec("rf", n_trees=3), ModelSpec("dt")]

    def test_joint_run_matches_single_model_runs(self, tmp_path):
        table = cluster_table(noise=2.0, seed=40)
        plan = make_folds(table, seed=41)
        joint = run_strategies(table, plan, [1, 2, 3], self.SPECS)
        assert list(joint) == [
            (s, spec.name) for s in (1, 2, 3) for spec in self.SPECS
        ]
        single = {}
        for spec in self.SPECS:
            single.update(run_strategies(table, plan, [1, 2, 3], [spec]))
        single = [single[key] for key in joint]
        for a, b in zip(joint.values(), single):
            assert a.fold_metrics() == b.fold_metrics()
        for name, writer in (
            ("results.csv", write_results_csv),
            ("aggregate.csv", write_aggregate_csv),
        ):
            writer(list(joint.values()), tmp_path / f"joint-{name}")
            writer(single, tmp_path / f"single-{name}")
            assert (tmp_path / f"joint-{name}").read_bytes() == (
                tmp_path / f"single-{name}"
            ).read_bytes()

    @pytest.mark.parametrize("strategy", [1, 2])
    def test_joint_fit_gives_each_learner_its_single_fit(self, strategy):
        table = cluster_table(noise=1.0, seed=42)
        train_index = make_folds(table, seed=43).train_index(2)
        joint = fit_fold(table, train_index, strategy, *self.SPECS, seed=9).digests()
        for spec in self.SPECS:
            alone = fit_fold(table, train_index, strategy, spec, seed=9).digests()
            assert f"learner_{spec.name}" in alone
            assert alone.items() <= joint.items()

    @pytest.mark.parametrize("names", [(), ("knn", "knn")])
    def test_fit_fold_needs_distinct_specs(self, names):
        table = cluster_table(seed=44)
        specs = [ModelSpec(name) for name in names]
        with pytest.raises(ValueError):
            fit_fold(table, np.arange(len(table)), 2, *specs, seed=0)

    def test_evaluate_fold_rejects_other_family(self):
        table = cluster_table(seed=45)
        index = np.arange(len(table))
        artifacts = fit_fold(table, index, 2, ModelSpec("knn"), seed=0)
        with pytest.raises(ValueError):
            evaluate_fold(artifacts, table, index, [1])

class TestExternalValidation:
    def test_copy_with_fresh_ids_is_perfect(self):
        table = cluster_table(noise=0.0, seed=26)
        renamed = table.select(np.arange(len(table)))
        renamed.specimen_ids = np.array(
            [f"val-{s}" for s in table.specimen_ids], dtype=object
        )
        reports = run_external_validation(table, renamed, ModelSpec("knn", k=1))
        assert reports["knn"].r2 == (1.0, 1.0, 1.0)

    def test_joint_reports_match_single_spec_runs(self):
        table = cluster_table(noise=2.0, seed=46)
        external = cluster_table(noise=2.0, seed=46, specimens_per_mixture=2)
        external.specimen_ids = np.array(
            [f"val-{s}" for s in external.specimen_ids], dtype=object
        )
        specs = [ModelSpec("knn", k=3), ModelSpec("rf", n_trees=3)]
        joint = run_external_validation(table, external, *specs, seed=5)
        assert list(joint) == ["knn", "rf"]
        for spec in specs:
            (alone,) = run_external_validation(
                table, external, spec, seed=5
            ).values()
            assert joint[spec.name].metric_dict() == alone.metric_dict()

    def test_specimen_overlap_rejected(self):
        table = cluster_table(seed=27)
        with pytest.raises(SpecimenOverlap):
            run_external_validation(table, table, ModelSpec("knn"))


class TestOnePath:
    SPECS = [ModelSpec("knn", k=3), ModelSpec("dt")]

    def test_one_call_matches_the_two_views(self):
        table = cluster_table(noise=2.0, seed=48)
        external = cluster_table(noise=2.0, seed=48, specimens_per_mixture=2)
        external.specimen_ids = np.array(
            [f"val-{s}" for s in external.specimen_ids], dtype=object
        )
        plan = make_folds(table, seed=49)
        results, reports = run_evaluation(table, plan, [1, 2, 3], self.SPECS, external)
        cv = run_strategies(table, plan, [1, 2, 3], self.SPECS)
        assert list(results) == list(cv)
        for key, result in results.items():
            assert result.fold_metrics() == cv[key].fold_metrics()
        alone = run_external_validation(table, external, *self.SPECS, seed=49)
        assert list(reports) == list(alone) == ["knn", "dt"]
        for name, report in reports.items():
            assert report.metric_dict() == alone[name].metric_dict()

    def test_specimen_overlap_raises_before_any_fit(self, monkeypatch):
        table = cluster_table(seed=50)
        fits = []
        monkeypatch.setattr(soilspec.pipeline, "fit_fold",
                            lambda *args, **kwargs: fits.append(args))
        with pytest.raises(SpecimenOverlap):
            run_evaluation(table, make_folds(table, seed=51), [1, 2, 3],
                           [ModelSpec("knn")], table)
        assert fits == []


class TestPooledConfusion:
    def test_rows_with_support_sum_to_one_and_absent_classes_are_zero(self):
        rng = np.random.default_rng(67)
        result = StrategyResult(strategy=1, model="knn")
        for _ in range(5):
            truth = rng.integers(0, 9, 100)  # classes 9..11 never occur
            predicted = rng.integers(0, 12, 100)
            result.fold_reports.append(classification_metrics(truth, predicted))
        pooled = result.pooled_confusion()
        counts = sum(report.confusion for report in result.fold_reports)
        support = counts.sum(axis=1)
        assert support[:9].all() and not support[9:].any()
        assert np.allclose(pooled[:9].sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pooled[9:] == 0.0)
        assert np.allclose(pooled * support[:, np.newaxis], counts, atol=1e-9)

    def test_regression_results_have_none(self):
        truth = np.array([[10.0, 20.0, 70.0], [30.0, 30.0, 40.0]])
        result = StrategyResult(2, "dt", [regression_metrics(truth, truth)])
        assert result.pooled_confusion() is None


class TestResultCsv:
    def test_cross_file_consistency(self, tmp_path):
        table = cluster_table(noise=2.0, seed=28)
        plan = make_folds(table, seed=29)
        results = [
            run_one(table, plan, 1, ModelSpec("knn", k=3)),
            run_one(table, plan, 2, ModelSpec("knn", k=3)),
        ]
        write_results_csv(results, tmp_path / "results.csv")
        write_aggregate_csv(results, tmp_path / "aggregate.csv")
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == "strategy,model,fold,metric,value"
        per_fold = {}
        for line in lines[1:]:
            strategy, model, fold, metric, value = line.split(",")
            per_fold.setdefault((strategy, model, metric), []).append(float(value))
        agg_lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert agg_lines[0] == "strategy,model,metric,mean,std"
        for line in agg_lines[1:]:
            strategy, model, metric, mean, std = line.split(",")
            values = per_fold[(strategy, model, metric)]
            assert len(values) == 5
            assert float(mean) == pytest.approx(np.mean(values), abs=1e-12)

    def test_confusion_csv_shape(self, tmp_path):
        table = cluster_table(noise=2.0, seed=30)
        plan = make_folds(table, seed=31)
        result = run_one(table, plan, 1, ModelSpec("knn", k=3))
        path = tmp_path / "confusion.csv"
        write_confusion_csv(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 13
        assert lines[0].split(",")[0] == "class"
        assert lines[1].split(",")[0] == "Sand"
        # data rows: 12 numeric columns each
        for line in lines[1:]:
            assert len(line.split(",")) == 13


def _raises(error, call, *args):
    try:
        call(*args)
    except error as exc:
        return str(exc)
    return None


class TestOnePredicatePerPrecondition:
    """A pre-fit rule fires exactly when the stage it guards would raise."""

    # the crafted clay column: two values whose spread underflows to 0
    UNDERFLOW = np.column_stack([[0.0, 1e-170, 0.0, 1e-170], [10.0, 20.0, 30.0, 40.0],
                                 [90.0, 80.0, 70.0, 60.0]])
    # the crafted f365 column: finite values whose range overflows
    OVERFLOW = np.column_stack([[1e308, -1e308, 0.0],
                                np.arange(3.0)[:, None] * np.ones(N_BANDS - 1)])

    @settings(max_examples=200, deadline=None)
    @given(truth=hnp.arrays(
        np.float64, st.tuples(st.integers(2, 6), st.just(3)),
        elements=st.sampled_from([0.0, 1e-170, 5e-324, 0.1, 100.0]) | st.floats(0, 100),
    ))
    @example(truth=UNDERFLOW)
    def test_check_scorable_raises_iff_r2_has_constant_truth(self, truth):
        rule = _raises(FoldPlanError, soilspec.pipeline.check_scorable, truth, "fold 1")
        stage = _raises(ConstantTruth, regression_metrics, truth, np.zeros_like(truth))
        assert (rule is None) == (stage is None), (rule, stage)

    @settings(max_examples=200, deadline=None)
    @given(features=hnp.arrays(
        np.float64, st.tuples(st.integers(2, 6), st.just(N_BANDS)),
        elements=st.sampled_from([0.0, 1.0, 1e308, -1e308, -1.7976931348623157e308])
        | st.floats(allow_nan=False, allow_infinity=False),
    ))
    @example(features=OVERFLOW)
    def test_band_rule_fires_iff_the_scaler_rejects_the_split(self, features):
        n = len(features)
        table = ObservationTable(
            specimen_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
            block_rows=np.ones(n), block_cols=np.arange(1, n + 1), features=features,
            compositions=np.tile([20.0, 40.0, 40.0], (n, 1)), texture_codes=np.zeros(n),
        )
        rule = _raises(FoldPlanError, soilspec.pipeline._check_training,
                       table, np.arange(n), 2, [], "fold 1")
        stage = _raises(DegenerateBand, MinMaxScaler().fit, features)
        assert (rule or "").startswith("fold 1: band") == (stage is not None), (rule, stage)
