import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles

import soilspec

from soilspec.errors import (
    DimensionMismatch,
    EmptyClass,
    NumericalFailure,
    SingleClass,
)
from soilspec.lda import (
    LdaModel,
    fit_lda,
    load_model,
    project,
    save_model,
    scatter,
    select_k,
)


def random_instance(rng, n_classes=None, dim=None, n=None, spread=3.0):
    n_classes = n_classes or int(rng.integers(2, 13))
    dim = dim or int(rng.integers(2, 14))
    n = n or int(rng.integers(n_classes * (dim + 2), 2001))
    means = rng.normal(0.0, spread, (n_classes, dim))
    labels = rng.integers(0, n_classes, n)
    # guarantee every class occurs
    labels[:n_classes] = np.arange(n_classes)
    features = means[labels] + rng.normal(0.0, 1.0, (n, dim))
    return features, labels


class TestScatter:
    def test_within_zero_when_samples_equal_class_means(self):
        features = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 0.0], [5.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        pair = scatter(features, labels)
        assert np.all(pair.within == 0.0)

    def test_between_zero_when_class_means_equal(self):
        features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        pair = scatter(features, labels)
        assert np.allclose(pair.between, 0.0, atol=1e-12)

    def test_total_scatter_identity(self):
        rng = np.random.default_rng(21)
        features, labels = random_instance(rng, n_classes=4, dim=6, n=400)
        pair = scatter(features, labels)
        centered = features - features.mean(axis=0)
        total = centered.T @ centered
        assert np.allclose(pair.within + pair.between, total, atol=1e-8)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            scatter(np.zeros((3, 2)), np.zeros(3, dtype=int))

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            scatter(np.zeros((3, 2)), np.array([0, 0, 1]), classes=[0, 1, 2])

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        features, labels = random_instance(rng, n_classes=5, dim=9, n=300)
        pair = scatter(features, labels)
        assert np.array_equal(pair.within, pair.within.T)
        assert np.array_equal(pair.between, pair.between.T)


class TestSelectK:
    def test_documented_example(self):
        assert select_k(np.array([9.0, 0.9, 0.09, 0.009]), 0.99) == 2

    def test_full_energy(self):
        assert select_k(np.array([1.0, 1.0]), 1.0) == 2

    def test_single_direction(self):
        assert select_k(np.array([5.0, 0.0, 0.0]), 0.99) == 1

    def test_no_power(self):
        with pytest.raises(NumericalFailure):
            select_k(np.zeros(3), 0.99)


class TestFitLda:
    def test_fisher_direction_two_isotropic_classes(self):
        # Two classes with exactly isotropic within-scatter, separated along
        # axis 0: the closed-form direction S_w^-1 (mu1 - mu0) is (1, 0).
        cross = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        features = np.vstack([cross, cross + [3.0, 0.0]])
        labels = np.array([0] * 4 + [1] * 4)
        model = fit_lda(scatter(features, labels))
        direction = model.projection[:, 0]
        direction = direction / np.linalg.norm(direction)
        assert abs(abs(direction[0]) - 1.0) <= 1e-9
        assert abs(direction[1]) <= 1e-9

    def test_rank_bound(self):
        rng = np.random.default_rng(23)
        features, labels = random_instance(rng, n_classes=3, dim=10, n=600)
        model = fit_lda(scatter(features, labels))
        assert model.k_selected <= 2
        # eigenvalues past C-1 are numerically zero
        assert np.all(model.eigenvalues[2:] <= model.eigenvalues[0] * 1e-10)

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(24)
        features, labels = random_instance(rng, n_classes=6, dim=8, n=500)
        model = fit_lda(scatter(features, labels))
        assert np.all(np.diff(model.eigenvalues) <= 0)
        assert np.all(model.eigenvalues >= 0)

    def test_generalized_eigenpair_residual(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            features, labels = random_instance(rng)
            pair = scatter(features, labels)
            model = fit_lda(pair)
            dim = pair.within.shape[0]
            ridge_scale = np.trace(pair.within) / dim
            regularized = pair.within + model.ridge * ridge_scale * np.eye(dim)
            norm_b = np.linalg.norm(pair.between, 2)
            for k in range(model.k_selected):
                w = model.projection[:, k]
                residual = pair.between @ w - model.eigenvalues[k] * (
                    regularized @ w
                )
                assert np.linalg.norm(residual) <= 1e-8 * norm_b

    def test_rayleigh_quotient_oracle(self):
        rng = np.random.default_rng(26)
        features, labels = random_instance(rng, n_classes=7, dim=9, n=700)
        pair = scatter(features, labels)
        model = fit_lda(pair)
        for k in range(model.k_selected):
            w = model.projection[:, k]
            quotient = (w @ pair.between @ w) / (w @ pair.within @ w)
            assert abs(quotient - model.eigenvalues[k]) <= 1e-8 * (
                1.0 + model.eigenvalues[k]
            )

    def test_brute_force_subspace_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            features, labels = random_instance(rng)
            pair = scatter(features, labels)
            model = fit_lda(pair)
            brute = np.linalg.eig(np.linalg.solve(pair.within, pair.between))
            order = np.argsort(brute.eigenvalues.real)[::-1]
            vectors = brute.eigenvectors[:, order[: model.k_selected]].real
            angle = subspace_angles(model.projection, vectors).max()
            assert angle <= 1e-6

    def test_scale_invariance(self):
        rng = np.random.default_rng(28)
        features, labels = random_instance(rng, n_classes=5, dim=7, n=400)
        base = fit_lda(scatter(features, labels))
        scaled = fit_lda(scatter(features * 37.5, labels))
        assert scaled.k_selected == base.k_selected
        ratio_base = base.eigenvalues / base.eigenvalues.sum()
        ratio_scaled = scaled.eigenvalues / scaled.eigenvalues.sum()
        assert np.allclose(ratio_base, ratio_scaled, atol=1e-9)
        # class centroid ordering along the leading direction is preserved
        pair = scatter(features, labels)
        centroids = pair.class_means @ base.projection[:, 0]
        centroids_scaled = (pair.class_means * 37.5) @ scaled.projection[:, 0]
        assert np.array_equal(
            np.argsort(centroids, kind="stable"),
            np.argsort(centroids_scaled, kind="stable"),
        )

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(29)
        features, labels = random_instance(rng, n_classes=4, dim=5, n=300)
        a = fit_lda(scatter(features, labels))
        b = fit_lda(scatter(features.copy(), labels.copy()))
        assert np.array_equal(a.projection, b.projection)
        for k in range(a.k_selected):
            col = a.projection[:, k]
            first = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
            assert first > 0


class TestProject:
    def test_identity_projection(self):
        model = LdaModel(
            projection=np.eye(13),
            eigenvalues=np.ones(13),
            k_selected=13,
            ridge=0.0,
        )
        rng = np.random.default_rng(30)
        X = rng.normal(0, 1, (20, 13))
        assert np.array_equal(project(model, X), X)

    def test_zero_matrix(self):
        model = LdaModel(
            projection=np.ones((13, 2)),
            eigenvalues=np.ones(13),
            k_selected=2,
            ridge=0.0,
        )
        assert np.all(project(model, np.zeros((5, 13))) == 0.0)

    def test_dimension_mismatch(self):
        model = LdaModel(
            projection=np.ones((13, 2)),
            eigenvalues=np.ones(13),
            k_selected=2,
            ridge=0.0,
        )
        with pytest.raises(DimensionMismatch):
            project(model, np.zeros((5, 12)))

    def test_leakage_guard_permutation(self):
        rng = np.random.default_rng(31)
        features, labels = random_instance(rng, n_classes=4, dim=6, n=300)
        model = fit_lda(scatter(features[:200], labels[:200]))
        test = features[200:]
        permutation = rng.permutation(test.shape[0])
        direct = project(model, test)
        permuted = project(model, test[permutation])
        assert np.array_equal(direct[permutation], permuted)


class TestPersistence:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(32)
        features, labels = random_instance(rng, n_classes=6, dim=11, n=500)
        model = fit_lda(scatter(features, labels))
        path = tmp_path / "model.csv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.k_selected == model.k_selected
        assert loaded.ridge == model.ridge
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
        assert np.array_equal(loaded.projection, model.projection)

    def test_bad_header_rejected_under_optimize(self, tmp_path):
        # python -O strips assert statements; the header check must survive it
        path = tmp_path / "model.csv"
        # a well-formed model file except for its first label
        path.write_text(
            "bogus,1\nridge,0.5\neigenvalues,1.0\nprojection_rows,1\n2.0\n"
        )
        probe = (
            "import sys; from soilspec.errors import MalformedHeader; "
            "from soilspec.lda import load_model\n"
            "try:\n    load_model(sys.argv[1])\n"
            "except MalformedHeader:\n    sys.exit(0)\n"
            "sys.exit(1)"
        )
        src = str(Path(soilspec.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-O", "-c", probe, str(path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
