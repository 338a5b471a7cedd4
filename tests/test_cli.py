import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soilspec
from soilspec.cli import main
from soilspec.cubeio import read_observation_csv


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_out_the_kd_tree():
    # scipy.spatial adds about 0.12 s to every start-up; only KNN and SMOTE
    # need it, and they import it on first use
    src = str(Path(soilspec.__file__).resolve().parents[1])
    probe = "import sys, soilspec.cli; sys.exit('scipy.spatial' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


class TestTriangleCommand:
    def test_table_endmember_prints_clay(self, capsys):
        code, out, _ = run(
            ["triangle", "--clay", "78.63", "--silt", "21.37", "--sand", "0"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "Clay"

    def test_dump_rules_lists_twelve(self, capsys):
        code, out, _ = run(["triangle", "--dump-rules"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 13

    def test_off_simplex_is_domain_error(self, capsys):
        code, _, err = run(
            ["triangle", "--clay", "50", "--silt", "40", "--sand", "20"], capsys
        )
        assert code == 1
        assert "triangle" in err

    def test_normalize_flag_repairs_input(self, capsys):
        code, out, _ = run(
            ["triangle", "--clay", "50", "--silt", "40", "--sand", "20",
             "--normalize"],
            capsys,
        )
        assert code == 0
        assert out.strip() in {c for c in
                               ("ClayLoam", "Clay", "SandyClayLoam", "Loam")}

    def test_missing_arguments(self, capsys):
        code, _, err = run(["triangle"], capsys)
        assert code == 1
        assert "--clay" in err


class TestRunConfig:
    def test_json_round_trip(self):
        from soilspec.cli import RunConfig

        config = RunConfig(
            command="evaluate",
            params={"seed": 7, "models": ["knn"], "max_depth": None},
        )
        assert RunConfig.from_json(config.to_json()) == config


class TestThreadsConfig:
    def test_env_variable_mirrors_flag(self, monkeypatch):
        from soilspec.cli import _threads, build_parser

        parser = build_parser()
        args = parser.parse_args(["generate", "--out", "x"])
        monkeypatch.setenv("SOILSPEC_THREADS", "3")
        assert _threads(args) == 3
        args = parser.parse_args(["generate", "--out", "x", "--threads", "2"])
        assert _threads(args) == 2  # flag wins over the environment
        monkeypatch.delenv("SOILSPEC_THREADS")
        assert _threads(args) == 2


class TestUsageErrors:
    def test_missing_out_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--seed", "7"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--models", "foo"),
            ("--models", "knn,knn"),
            ("--models", ""),
            ("--strategies", "a"),
            ("--strategies", "4"),
            ("--strategies", ""),
            ("--k", "0"),
            ("--rf-trees", "0"),
            ("--min-leaf", "-1"),
            ("--max-depth", "x"),
        ],
    )
    def test_bad_evaluate_value_exits_two(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--features", str(tmp_path), "--out",
                  str(tmp_path / "results"), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_bad_threads_env_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOILSPEC_THREADS", "x")
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "data")])
        assert exc.value.code == 2
        assert "SOILSPEC_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_missing_features_dir_is_domain_error(self, tmp_path, capsys):
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path / "nope"),
             "--out", str(tmp_path / "results")],
            capsys,
        )
        assert code == 1


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """generate -> extract on a reduced-replicate benchmark."""
    base = tmp_path_factory.mktemp("cli-e2e")
    data = base / "data"
    features = base / "features"
    code = main(
        ["generate", "--seed", "3", "--out", str(data), "--replicates", "2,1"]
    )
    assert code == 0
    code = main(["extract", "--data", str(data), "--out", str(features)])
    assert code == 0
    return base, data, features


class TestEndToEnd:
    def test_generate_layout_and_provenance(self, tiny_run):
        base, data, features = tiny_run
        manifest = (data / "manifest.csv").read_text().splitlines()
        assert len(manifest) == 1 + 22 * 2 + 7 * 1
        config = json.loads((data / "run_config.json").read_text())
        assert config["command"] == "generate"
        assert config["params"]["seed"] == 3

    def test_extract_counts_and_kappa_provenance(self, tiny_run):
        base, data, features = tiny_run
        train = read_observation_csv(features / "train.csv")
        validation = read_observation_csv(features / "validation.csv")
        assert len(train) == 22 * 2 * 100
        assert len(validation) == 7 * 1 * 100
        config = json.loads((features / "run_config.json").read_text())
        assert config["params"]["kappa"] == 0.03
        assert config["params"]["roi"] == [10, 10]

    def test_evaluate_writes_cartesian_results(self, tiny_run, capsys):
        base, data, features = tiny_run
        out = base / "results"
        code, _, _ = run(
            [
                "evaluate",
                "--features", str(features),
                "--out", str(out),
                "--models", "knn,dt",
                "--strategies", "1,2,3",
                "--seed", "5",
                "--external-validation",
            ],
            capsys,
        )
        assert code == 0
        aggregate = (out / "aggregate.csv").read_text().splitlines()
        blocks = {tuple(line.split(",")[:2]) for line in aggregate[1:]}
        assert blocks == {
            (s, m) for s in ("1", "2", "3") for m in ("knn", "dt")
        }
        assert (out / "confusion_s1_knn.csv").exists()
        assert (out / "confusion_s3_dt.csv").exists()
        assert not (out / "confusion_s2_knn.csv").exists()
        assert (out / "external_validation.csv").exists()
        config = json.loads((out / "run_config.json").read_text())
        assert config["params"]["models"] == ["knn", "dt"]

    def test_aggregate_consistent_with_results(self, tiny_run):
        base, data, features = tiny_run
        out = base / "results"
        per_fold = {}
        for line in (out / "results.csv").read_text().splitlines()[1:]:
            strategy, model, fold, metric, value = line.split(",")
            per_fold.setdefault((strategy, model, metric), []).append(float(value))
        for line in (out / "aggregate.csv").read_text().splitlines()[1:]:
            strategy, model, metric, mean, std = line.split(",")
            values = per_fold[(strategy, model, metric)]
            assert float(mean) == pytest.approx(np.mean(values), abs=1e-12)

    def test_signatures_command(self, tiny_run, capsys):
        base, data, features = tiny_run
        out = base / "sigs"
        code, _, _ = run(
            ["signatures", "--features", str(features / "train.csv"),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        by_class = (out / "signatures_by_class.csv").read_text().splitlines()
        assert by_class[0].startswith("group,f365")
        assert len(by_class) >= 2
        comp_lines = (out / "signatures_by_composition.csv").read_text().splitlines()
        assert len(comp_lines) == 1 + 22  # one row per mixture level

    def test_sand_group_has_highest_visible_signature(self, tiny_run):
        base, data, features = tiny_run
        out = base / "sigs"
        rows = (out / "signatures_by_class.csv").read_text().splitlines()[1:]
        means = {
            line.split(",")[0]: float(line.split(",")[1]) for line in rows
        }
        assert means["Sand"] == max(means.values())

    def test_repeat_generate_identical_tree(self, tiny_run, tmp_path, capsys):
        base, data, features = tiny_run
        code, _, _ = run(
            ["generate", "--seed", "3", "--out", str(tmp_path / "again"),
             "--replicates", "2,1"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "again" / "manifest.csv").read_bytes() == (
            data / "manifest.csv"
        ).read_bytes()
        assert (tmp_path / "again" / "cubes" / "train-05-01.msc").read_bytes() == (
            data / "cubes" / "train-05-01.msc"
        ).read_bytes()

    def test_nan_feature_cell_names_the_line(self, tiny_run, tmp_path, capsys):
        base, data, features = tiny_run
        lines = (features / "train.csv").read_text().splitlines()
        fields = lines[6].split(",")
        fields[3] = "nan"
        lines[6] = ",".join(fields)
        (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out",
             str(tmp_path / "results"), "--models", "knn", "--strategies", "1"],
            capsys,
        )
        assert code == 1
        assert "train.csv: line 7" in err

    def test_repeat_evaluate_identical_results(self, tiny_run, capsys):
        base, data, features = tiny_run
        outputs = []
        for name in ("r1", "r2"):
            out = base / name
            code, _, _ = run(
                ["evaluate", "--features", str(features), "--out", str(out),
                 "--models", "knn", "--strategies", "1", "--seed", "5"],
                capsys,
            )
            assert code == 0
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
