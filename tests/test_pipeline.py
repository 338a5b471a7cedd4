import numpy as np
import pytest

from soilspec.core import N_BANDS, ObservationTable
from soilspec.errors import SpecimenOverlap
from soilspec.pipeline import (
    ModelSpec,
    evaluate_fold,
    fit_fold,
    make_folds,
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

    def test_stratified_block_assignment(self):
        table = cluster_table(n_mixtures=6, specimens_per_mixture=5)
        plan = make_folds(table, seed=7, stratify=True)
        for code in np.unique(table.texture_codes):
            members = plan.assignment[table.texture_codes == code]
            counts = np.bincount(members, minlength=6)[1:]
            assert counts.max() - counts.min() <= 1


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
