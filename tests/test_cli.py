import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilspec
from soilspec import cli, cubeio, pipeline, synthgen
from soilspec.cli import main
from soilspec.core import BAND_WAVELENGTHS_NM
from soilspec.cubeio import read_observation_csv
from soilspec.errors import SoilspecError
from soilspec.synthgen import DEFAULT_ENDMEMBERS
from soilspec.triangle import classify_percentages


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def default_endmember_rows():
    rows = ["band_nm,clayrich,siltrich,sandrich"]
    for nm, levels in zip(BAND_WAVELENGTHS_NM, DEFAULT_ENDMEMBERS.spectra.T):
        rows.append(",".join([str(nm), *map(repr, levels.tolist())]))
    return rows


def test_cli_import_leaves_out_the_kd_tree():
    # scipy.spatial adds about 0.12 s to every start-up and scipy.linalg about
    # 0.3 s; only KNN and SMOTE, and the LDA fit, need them, and they import
    # them on first use
    src = str(Path(soilspec.__file__).resolve().parents[1])
    probe = (
        "import sys, soilspec.cli; "
        "loaded = {'scipy.spatial', 'scipy.linalg'} & set(sys.modules); "
        "sys.exit(' '.join(loaded) or None)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_leaves_out_openssl():
    # hashlib loads OpenSSL's libcrypto (about 4 MB of RSS), which extract,
    # signatures and triangle never use; a digest imports it when taken
    src = str(Path(soilspec.__file__).resolve().parents[1])
    probe = (
        "import sys, numpy as np, soilspec.cli\n"
        "assert '_hashlib' not in sys.modules, 'OpenSSL loaded at import'\n"
        "from soilspec.ml.knn import KnnClassifier\n"
        "knn = KnnClassifier(k=1).fit(np.zeros((2, 1)), np.array([0, 1]))\n"
        "print(knn.params_digest())"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.strip()) == 64


# sha256 of every output of generate + extract at --seed 3 --replicates 1,1,
# recorded before synthesis and preprocessing ran in place and the
# observation CSVs were written in joined chunks; "cubes" hashes the cube
# files concatenated in name order.
GOLDEN_DIGESTS = {
    "clean": {
        "cubes":
            "b123a506520b6552e8cd1b3d0d47740c8d3354e39398105f473e2dac10865e2d",
        "dark.msc":
            "4d1ca5c8a1a363bb324e01f494b08920fadcefcc143a78da20dbb55a0eda0d03",
        "manifest.csv":
            "13dbe5f1b00e88fbbdc90e756358c87d4a5baf1ea5259fedc12424a6480a0504",
        "train.csv":
            "83690798772eeffdbef4ea09b112ef3a9cca5ea44cfd2b3f83626bb2efd0d301",
        "validation.csv":
            "207e3149037d904463a8e3889c30ba27f2c7f4f0be12c08c79596488468d6a28",
    },
    "bench": {
        "cubes":
            "48ab6c0817882d405e4489464105c7485e5172950135eeea0bd823d9f8af5172",
        "dark.msc":
            "43d975b5c246d43d01918ea6c78c1bd28ef5a517505a2ca6614555d084740966",
        "manifest.csv":
            "13dbe5f1b00e88fbbdc90e756358c87d4a5baf1ea5259fedc12424a6480a0504",
        "train.csv":
            "96e96676c5ba624fdd9704c91d8cd3cb587bb49541cc96068bd4de189ec5da95",
        "validation.csv":
            "a5585d6e054b6a00d7d9d292be4e2435193127638c2294a1762f7fecc156ab56",
    },
    "stress": {
        "cubes":
            "e3a2f47b3298e46400c864a9ae7f9ad45bdb03da9dfae55bdfa056bac3e2b832",
        "dark.msc":
            "153dba8048833c7aa39211a51840f3676f8ee48436a18f3c7c75b483dfb895d5",
        "manifest.csv":
            "13dbe5f1b00e88fbbdc90e756358c87d4a5baf1ea5259fedc12424a6480a0504",
        "train.csv":
            "358c4733211ae0c47d7f1bf3c23c9ea32252e473b2eb29c35e4600b52ecdc87b",
        "validation.csv":
            "7f7ab57c07da07a3bc9ed03bef3598449bd2bffde108d5a4c52d760a5ef8c7dd",
    },
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("preset", sorted(GOLDEN_DIGESTS))
def test_generate_and_extract_bytes_are_pinned(tmp_path, preset, threads):
    data, features = tmp_path / "data", tmp_path / "features"
    assert main(["generate", "--seed", "3", "--noise", preset, "--replicates", "1,1",
                 "--out", str(data), "--threads", threads]) == 0
    assert main(["extract", "--data", str(data), "--out", str(features),
                 "--threads", threads]) == 0
    cubes = hashlib.sha256()
    for path in sorted((data / "cubes").iterdir()):
        cubes.update(path.read_bytes())
    digests = {"cubes": cubes.hexdigest()}
    for path in (data / "dark.msc", data / "manifest.csv",
                 features / "train.csv", features / "validation.csv"):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS[preset]


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

    @pytest.mark.parametrize(
        "clay, silt, triple",
        [
            ("nan", "1", "(nan, 1.0, 0.0)"),
            ("inf", "1", "(inf, 1.0, 0.0)"),
            ("-inf", "1", "(-inf, 1.0, 0.0)"),
            ("1e308", "1e308", "(1e+308, 1e+308, 0.0)"),  # the total overflows
        ],
    )
    def test_non_finite_normalize_names_the_triple(self, capsys, clay, silt, triple):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["triangle", f"--clay={clay}", f"--silt={silt}", "--sand", "0",
                 "--normalize"],
                capsys,
            )
        assert (code, out) == (1, "")
        assert err == (
            f"soilspec triangle: non-finite component or total in {triple}\n"
        )


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

    def test_pool_scaling_flag_is_gone(self, tmp_path, capsys):
        flag = "-".join(["--scaler", "scope"])
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--features", str(tmp_path), "--out",
                  str(tmp_path / "results"), flag, "pool"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} pool" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--kappa", "0"),
            ("--kappa", "-1"),
            ("--kappa", "nan"),
            ("--kappa", "inf"),
            ("--kappa", "x"),
            ("--roi", "-5,-5"),
            ("--roi", "5,-1"),
            ("--roi", "5"),
            ("--roi", "a,1"),
        ],
    )
    def test_bad_extract_value_exits_two(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--data", str(tmp_path), "--out",
                  str(tmp_path / "features"), f"{flag}={value}"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "features").exists()

    @pytest.mark.parametrize("value", ["0,1", "1,-1", "-1,0", "1", "a,1"])
    def test_bad_replicates_exit_two(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "data"), f"--replicates={value}"])
        assert exc.value.code == 2
        assert "--replicates" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("value", ["0", "-4", "x"])
    @pytest.mark.parametrize(
        "argv",
        [["generate"], ["extract", "--data", "d"], ["evaluate", "--features", "f"]],
        ids=["generate", "extract", "evaluate"],
    )
    def test_bad_threads_exit_two(self, tmp_path, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out"), "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_non_positive_threads_env_exits_two(self, tmp_path, capsys, monkeypatch,
                                                value):
        monkeypatch.setenv("SOILSPEC_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "data")])
        assert exc.value.code == 2
        assert "SOILSPEC_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_bad_threads_env_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOILSPEC_THREADS", "x")
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "data")])
        assert exc.value.code == 2
        assert "SOILSPEC_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("garbage", ["abc", "a,1", "1,a", "", "1,2,x"])
    def test_typed_flags_reject_garbage_by_name(self, tmp_path, capsys, garbage):
        from soilspec.cli import build_parser

        subparsers = build_parser()._subparsers._group_actions[0].choices
        checked = set()
        for command, subparser in subparsers.items():
            required = [
                arg
                for a in subparser._actions if a.required
                for arg in (a.option_strings[-1], str(tmp_path / a.dest))
            ]
            for action in subparser._actions:
                if getattr(action.type, "__module__", None) != "soilspec.cli":
                    continue
                flag = action.option_strings[-1]
                with pytest.raises(SystemExit) as exc:
                    main([command, *required, f"{flag}={garbage}"])
                err = capsys.readouterr().err
                assert exc.value.code == 2, (command, flag)
                assert f"argument {flag}: expected" in err, (command, flag)
                assert "_parse" not in err and "_positive" not in err, err
                checked.add(action.type.__name__)
        assert checked == {"_parse_replicates", "_parse_roi", "_positive_float",
                           "_positive_int", "_parse_models", "_parse_strategies"}
        assert list(tmp_path.iterdir()) == []

    def test_missing_features_dir_is_domain_error(self, tmp_path, capsys):
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path / "nope"),
             "--out", str(tmp_path / "results")],
            capsys,
        )
        assert code == 1


# extract's run_config.json for `--data ./d/ --out f//`: --data is recorded
# as typed, --out as the parsed path
EXTRACT_RUN_CONFIG = """{
  "command": "extract",
  "params": {
    "data": "./d/",
    "kappa": 0.03,
    "out": "f",
    "roi": [
      10,
      10
    ],
    "threads": 1
  }
}
"""


class TestProvenance:
    def test_run_config_records_every_argument(self, tmp_path, monkeypatch, capsys):
        from soilspec.cli import build_parser

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SOILSPEC_THREADS", raising=False)
        commands = {
            "generate": ["--seed", "3", "--replicates", "1,0", "--out", "./d/"],
            "extract": ["--data", "./d/", "--out", "f//"],
            "evaluate": ["--features", "f//", "--out", "r//", "--models", "dt",
                         "--strategies", "1"],
            "signatures": ["--features", "f//train.csv", "--out", "s/"],
        }
        outputs = {"generate": "d", "extract": "f", "evaluate": "r", "signatures": "s"}
        subparsers = build_parser()._subparsers._group_actions[0].choices
        for command, argv in commands.items():
            assert main([command, *argv]) == 0
            config = json.loads((tmp_path / outputs[command] / "run_config.json")
                                .read_text())
            dests = {a.dest for a in subparsers[command]._actions} - {"help"}
            assert config["command"] == command
            assert set(config["params"]) == dests, command
        assert (tmp_path / "f" / "run_config.json").read_text() == EXTRACT_RUN_CONFIG


def long_quoted_first_id(raw):
    """An observation CSV whose first id is a quoted 140,000-character field."""
    header, rest = raw.split(b"\r\n", 1)
    return header + b'\r\n"' + b"x" * 140_000 + b'"' + rest[rest.index(b","):]


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

    def test_extract_rerun_leaves_no_stale_validation_csv(self, tiny_run, tmp_path,
                                                           capsys):
        # a dataset without validation cubes, extracted over an earlier extract
        base, data, features = tiny_run
        out = tmp_path / "features"
        out.mkdir()
        (out / "validation.csv").write_bytes((features / "validation.csv").read_bytes())
        code, _, _ = run(["generate", "--seed", "5", "--replicates", "1,0",
                          "--out", str(tmp_path / "data")], capsys)
        assert code == 0
        code, stdout, _ = run(
            ["extract", "--data", str(tmp_path / "data"), "--out", str(out)], capsys
        )
        assert code == 0
        assert stdout.split() == [str(out / "train.csv"), str(out / "validation.csv")]
        header = (features / "validation.csv").read_bytes().splitlines()[0]
        assert (out / "validation.csv").read_bytes() == header + b"\r\n"
        code, _, err = run(
            ["evaluate", "--features", str(out), "--out", str(tmp_path / "results"),
             "--models", "knn", "--strategies", "1", "--external-validation"],
            capsys,
        )
        assert code == 1
        assert f"{out / 'validation.csv'}: no observation rows after the header" in err

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

    @pytest.mark.parametrize("name, line", [("train.csv", 9), ("validation.csv", 120)])
    def test_texture_off_the_triangle_names_the_line(self, tiny_run, tmp_path, capsys,
                                                     name, line):
        base, data, features = tiny_run
        for csv_name in ("train.csv", "validation.csv"):
            lines = (features / csv_name).read_text().splitlines()
            if csv_name == name:
                fields = lines[line - 1].split(",")
                fields[-1] = "Silt" if fields[-1] != "Silt" else "Clay"
                lines[line - 1] = ",".join(fields)
            (tmp_path / csv_name).write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out",
             str(tmp_path / "results"), "--models", "knn", "--strategies", "1",
             "--external-validation"],
            capsys,
        )
        assert code == 1
        assert f"{name}: line {line}: texture is not the triangle's" in err

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

    def test_missing_validation_csv_fails_before_cross_validation(
        self, tiny_run, tmp_path, capsys
    ):
        base, data, features = tiny_run
        (tmp_path / "train.csv").write_bytes((features / "train.csv").read_bytes())
        out = tmp_path / "results"
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out", str(out),
             "--models", "knn", "--strategies", "1", "--external-validation"],
            capsys,
        )
        assert code == 1
        assert "validation.csv" in err
        assert not (out / "results.csv").exists()

    def test_specimen_overlap_fails_before_cross_validation(
        self, tiny_run, tmp_path, capsys
    ):
        base, data, features = tiny_run
        for name in ("train.csv", "validation.csv"):
            (tmp_path / name).write_bytes((features / "train.csv").read_bytes())
        out = tmp_path / "results"
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out", str(out),
             "--models", "knn", "--strategies", "1", "--external-validation"],
            capsys,
        )
        assert code == 1
        assert "specimen ids in both tables: ['train-01-01', 'train-01-02'" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "granularity, lines, message",
        [("block", 3, "3 blocks"), ("specimen", 300, "3 specimens")],
    )
    def test_too_few_units_for_five_folds(self, tiny_run, tmp_path, capsys,
                                          granularity, lines, message):
        base, data, features = tiny_run
        rows = (features / "train.csv").read_bytes().splitlines(keepends=True)
        (tmp_path / "train.csv").write_bytes(b"".join(rows[: 1 + lines]))
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out",
             str(tmp_path / "results"), "--models", "knn", "--strategies", "1",
             "--granularity", granularity],
            capsys,
        )
        assert code == 1
        assert f"{message} cannot fill N_FOLDS = 5 folds" in err

    def test_one_row_test_fold_names_the_fold(self, tiny_run, tmp_path, capsys):
        # 7 rows from 7 specimens deal into test folds of 2, 2, 1, 1, 1 rows
        base, data, features = tiny_run
        rows = (features / "train.csv").read_bytes().splitlines(keepends=True)
        (tmp_path / "train.csv").write_bytes(
            b"".join([rows[0]] + [rows[1 + 100 * i] for i in range(7)])
        )
        out = tmp_path / "results"
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out", str(out),
             "--models", "knn", "--strategies", "2"],
            capsys,
        )
        assert code == 1
        assert "fold 3 has 1 test row(s); R^2 needs at least 2" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("seed, fold", [(0, 1), (1, 3), (2, None), (3, 1)])
    def test_one_composition_test_fold_names_the_fold(self, tiny_run, tmp_path, capsys,
                                                       monkeypatch, seed, fold):
        # 5 blocks each of two specimens of different mixtures: a test fold of
        # 2 rows from one specimen has one value of every component
        base, data, features = tiny_run
        rows = (features / "train.csv").read_bytes().splitlines(keepends=True)
        assert rows[1].startswith(b"train-01-01,")
        assert rows[201].startswith(b"train-02-01,")
        (tmp_path / "train.csv").write_bytes(b"".join(rows[:6] + rows[201:206]))
        fits = []
        if fold is not None:
            monkeypatch.setattr(pipeline, "fit_fold",
                                lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "results"
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out", str(out),
             "--models", "knn", "--strategies", "2", "--seed", str(seed)],
            capsys,
        )
        if fold is None:
            assert code == 0, err
            return
        assert code == 1
        assert (f"fold {fold}: every test row has the same clay, silt, sand; "
                "R^2 needs two values of each component") in err
        assert fits == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("seed, fold", [(0, 2), (1, 1), (2, None), (3, 2),
                                            (4, 4), (5, 3)])
    def test_lone_class_row_in_a_training_split_names_the_fold(
        self, tiny_run, tmp_path, capsys, monkeypatch, seed, fold
    ):
        # the first 6 blocks of each first replicate, but only 2 of the one
        # SiltyClay specimen: unless both land in one test fold, some
        # training split holds a single SiltyClay row, which SMOTE cannot pair
        base, data, features = tiny_run
        lines = (features / "train.csv").read_bytes().splitlines(keepends=True)
        kept = [lines[0]]
        for start in range(1, len(lines), 100):
            specimen = lines[start].split(b",")[0]
            if specimen.endswith(b"-01"):
                silty = lines[start].rstrip().endswith(b",SiltyClay")
                kept += lines[start : start + (2 if silty else 6)]
        assert len(kept) == 1 + 21 * 6 + 2
        (tmp_path / "train.csv").write_bytes(b"".join(kept))
        fits = []
        if fold is not None:
            monkeypatch.setattr(pipeline, "fit_fold",
                                lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "results"
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out", str(out),
             "--models", "knn", "--strategies", "1", "--seed", str(seed)],
            capsys,
        )
        if fold is None:
            assert code == 0, err
            digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in out.glob("*.csv")}
            assert digests == {
                "aggregate.csv":
                    "2a879f33e3586eea77517ef6908edf7bd800f87925d1dea4bf9ab69f9626f576",
                "confusion_s1_knn.csv":
                    "732fb905517fbdf0820db650bdf731c3b490e827aaf55cfd3722271800244534",
                "results.csv":
                    "c2c3f3350651d33f890d2b796e61505802c0023fc5a6f98e523cf2c9e09dbe2c",
            }
            return
        assert code == 1
        assert (f"fold {fold}: the training split holds one row of SiltyClay; "
                "strategy 1 needs none or at least 2 rows of each class per fold") in err
        assert fits == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "rows, message",
        [(slice(1, 2), " has 1 test row(s); R^2 needs at least 2"),
         (slice(1, 101), ": every test row has the same clay, silt, sand")],
        ids=["one-row", "one-specimen"],
    )
    def test_unscorable_validation_csv_fails_before_the_fit(
        self, tiny_run, tmp_path, capsys, monkeypatch, rows, message
    ):
        base, data, features = tiny_run
        (tmp_path / "train.csv").write_bytes((features / "train.csv").read_bytes())
        lines = (features / "validation.csv").read_bytes().splitlines(keepends=True)
        (tmp_path / "validation.csv").write_bytes(b"".join([lines[0], *lines[rows]]))
        fits = []
        monkeypatch.setattr(pipeline, "fit_fold",
                            lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "results"
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out", str(out),
             "--models", "knn", "--strategies", "1", "--external-validation"],
            capsys,
        )
        assert code == 1
        assert f"{tmp_path / 'validation.csv'}{message}" in err
        assert fits == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "rows, argv, message",
        [
            ("seven", ["--models", "knn", "--strategies", "2", "--external-validation"],
             "fold 3 has 1 test row(s); R^2 needs at least 2"),
            ("tenth", ["--models", "rf,knn", "--k", "400", "--strategies", "2"],
             "fold 1: --k 400 exceeds the 352 rows KNN is fit on"),
            # SMOTE fits KNN on 600, 600, 612, 552 and 636 rows
            ("tenth", ["--models", "knn", "--k", "560", "--strategies", "1"],
             "fold 4: --k 560 exceeds the 552 rows KNN is fit on"),
            ("tenth", ["--models", "knn", "--k", "441", "--strategies", "1",
                       "--external-validation"],
             "the --external-validation fit: --k 441 exceeds the 440 rows KNN is "
             "fit on"),
            ("sand", ["--models", "knn", "--strategies", "1"],
             "fold 1: every training row has one texture class; the projection "
             "needs two"),
            ("specimen", ["--models", "knn", "--strategies", "1",
                          "--external-validation"],
             "the --external-validation fit: every training row has one "
             "composition; the projection needs two"),
        ],
        ids=["one-row-fold", "k-over-split", "k-over-smote", "k-over-external",
             "one-class", "one-composition"],
    )
    def test_unfittable_plan_fails_before_any_fit(self, tiny_run, tmp_path, capsys,
                                                  monkeypatch, rows, argv, message):
        base, data, features = tiny_run
        lines = (features / "train.csv").read_bytes().splitlines(keepends=True)
        kept = {
            "seven": [lines[1 + 100 * i] for i in range(7)],
            "tenth": [line for i, line in enumerate(lines[1:]) if i % 100 < 10],
            "sand": [line for line in lines[1:] if line.rstrip().endswith(b",Sand")],
            "specimen": lines[1:101],
        }[rows]
        (tmp_path / "train.csv").write_bytes(b"".join([lines[0], *kept]))
        (tmp_path / "validation.csv").write_bytes(
            (features / "validation.csv").read_bytes()
        )
        fits = []
        monkeypatch.setattr(pipeline, "fit_fold",
                            lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "results"
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out", str(out), *argv], capsys
        )
        assert code == 1
        assert message in err
        assert fits == []
        assert list(out.iterdir()) == []

    def test_k_above_the_split_but_not_smote_output_still_runs(self, tiny_run, tmp_path,
                                                                capsys):
        # 352 training rows per fold, but SMOTE fits KNN on 552 or more
        base, data, features = tiny_run
        lines = (features / "train.csv").read_bytes().splitlines(keepends=True)
        (tmp_path / "train.csv").write_bytes(b"".join(
            [lines[0]] + [line for i, line in enumerate(lines[1:]) if i % 100 < 10]
        ))
        out = tmp_path / "results"
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out", str(out),
             "--models", "knn", "--k", "400", "--strategies", "1"],
            capsys,
        )
        assert code == 0, err
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.glob("*.csv")}
        assert digests == {
            "aggregate.csv":
                "e7fc6348599f91cb4992b9dd747bc74aba9d1a77a01f4add5952b5c82c9d0faf",
            "confusion_s1_knn.csv":
                "773fd7199f79bd26fa8587a4f801711a63b2e89969344fb7d58134b2148480cf",
            "results.csv":
                "af3493d2d44b7d31e695d1e8aad47376c8a9d4b0b7e3c18b75e624909c8d89ed",
        }

    @settings(max_examples=12, deadline=None)
    @given(
        specimens=st.sets(st.integers(0, 43), min_size=5, max_size=12),
        blocks=st.sets(st.integers(0, 99), min_size=1, max_size=4),
        models=st.lists(st.sampled_from(pipeline.MODEL_NAMES), min_size=1,
                        unique=True),
        strategies=st.lists(st.sampled_from(["1", "2", "3"]), min_size=1,
                            unique=True),
        k=st.integers(1, 30),
        granularity=st.sampled_from(["block", "specimen"]),
        stratify=st.booleans(),
        external=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_random_plans_run_or_fail_before_any_fit(
        self, tiny_run, specimens, blocks, models, strategies, k, granularity,
        stratify, external, seed,
    ):
        # at least 5 specimens, so make_folds can always deal five folds
        base, data, features = tiny_run
        tables = {}
        for name in ("train.csv", "validation.csv"):
            lines = (features / name).read_bytes().splitlines(keepends=True)
            chosen = specimens if name == "train.csv" else range(7)
            tables[name] = b"".join([lines[0]] + [
                lines[1 + 100 * s + b] for s in sorted(chosen) for b in sorted(blocks)
            ])
        argv = ["--models", ",".join(models), "--strategies", ",".join(strategies),
                "--k", str(k), "--rf-trees", "2", "--granularity", granularity,
                "--seed", str(seed)]
        argv += ["--stratify"] * stratify + ["--external-validation"] * external
        fits = []
        fit_fold = pipeline.fit_fold
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for name, raw in tables.items():
                (Path(tmp) / name).write_bytes(raw)
            out = Path(tmp) / "results"
            mp.setattr(pipeline, "fit_fold",
                       lambda *args, **kw: fits.append(1) or fit_fold(*args, **kw))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["evaluate", "--features", tmp, "--out", str(out), *argv])
            written = sorted(path.name for path in out.iterdir())
        if code == 0:
            assert "results.csv" in written
            return
        assert code == 1
        assert re.search(r"fold \d|\.csv|--[a-z]", err.getvalue()), err.getvalue()
        assert fits == []
        assert written == []

    def test_each_rule_and_fit_runs_once_per_task(self, tiny_run, tmp_path, capsys,
                                                  monkeypatch):
        base, data, features = tiny_run
        calls = {"check_scorable": [], "_check_training": [], "fit_fold": []}
        for name, record in calls.items():
            wrapped = getattr(pipeline, name)
            monkeypatch.setattr(
                pipeline, name,
                lambda *args, _wrapped=wrapped, _record=record, **kwargs:
                    _record.append(args) or _wrapped(*args, **kwargs),
            )
        code, _, err = run(
            ["evaluate", "--features", str(features), "--out", str(tmp_path / "r"),
             "--models", "knn,rf,dt", "--rf-trees", "2", "--strategies", "1,2,3",
             "--external-validation"],
            capsys,
        )
        assert code == 0, err
        assert len(calls["check_scorable"]) == 6
        assert len(calls["_check_training"]) == 11
        table = read_observation_csv(features / "train.csv")
        plan = pipeline.make_folds(table, seed=0)
        folds = {plan.train_index(fold).tobytes(): fold for fold in range(1, 6)}
        folds[np.arange(len(table)).tobytes()] = "all rows"
        fits = [(folds[args[1].tobytes()], args[2]) for args in calls["fit_fold"]]
        assert fits == [
            (fold, family) for fold in range(1, 6) for family in (1, 2)
        ] + [("all rows", 2)]

    def test_header_only_train_csv_names_the_file(self, tiny_run, tmp_path, capsys):
        base, data, features = tiny_run
        header = (features / "train.csv").read_text().splitlines()[0]
        (tmp_path / "train.csv").write_text(header + "\n")
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out",
             str(tmp_path / "results"), "--models", "knn", "--strategies", "1"],
            capsys,
        )
        assert code == 1
        assert "train.csv: no observation rows" in err

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda raw: b"\xff" + raw, "train.csv: line 1: not text"),
            (long_quoted_first_id, "train.csv: line 2: field larger than field limit"),
        ],
        ids=["leading-ff-byte", "oversized-quoted-field"],
    )
    def test_unreadable_train_csv_is_a_domain_error(self, tiny_run, tmp_path, capsys,
                                                    mangle, message):
        base, data, features = tiny_run
        raw = (features / "train.csv").read_bytes()
        (tmp_path / "train.csv").write_bytes(mangle(raw))
        code, _, err = run(
            ["evaluate", "--features", str(tmp_path), "--out",
             str(tmp_path / "results"), "--models", "knn", "--strategies", "1"],
            capsys,
        )
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, cells, message",
        [
            (5, ["nan"], "line 5: endmember levels"),
            (3, ["1023"], "line 3: endmember levels"),
            (4, ["abc"], "line 4: could not convert"),
            (6, None, "line 6 has 3 fields"),
        ],
    )
    def test_bad_endmember_cell_names_the_line(self, tmp_path, capsys, line, cells,
                                               message):
        rows = default_endmember_rows()
        fields = rows[line - 1].split(",")
        rows[line - 1] = ",".join(fields[:3] if cells is None else fields[:3] + cells)
        path = tmp_path / "endmembers.csv"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            ["generate", "--out", str(tmp_path / "data"), "--replicates", "1,0",
             "--endmembers", str(path)],
            capsys,
        )
        assert code == 1
        assert f"endmembers.csv: {message}" in err
        assert not (tmp_path / "data" / "manifest.csv").exists()

    def test_non_integer_endmember_band_names_the_line(self, tmp_path, capsys):
        rows = default_endmember_rows()
        rows[2] = "450.5" + rows[2][rows[2].index(","):]
        path = tmp_path / "endmembers.csv"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(["generate", "--out", str(tmp_path / "data"),
                            "--endmembers", str(path)], capsys)
        assert code == 1
        assert "endmembers.csv: line 3: invalid literal" in err

    @pytest.mark.parametrize(
        "column, value, message",
        [(2, "abc", "could not convert"), (3, "nan", "non-finite weight"),
         (1, "trian", "unknown role 'trian'"), (8, "loamy", "unknown texture"),
         (5, "150", "clay component"), (9, None, "has 9 fields"),
         (2, "0.5", "sum to 1"), (2, [3, 2], "not to the row's composition"),
         (8, "Clay", "texture Clay differs from the triangle's Sand "),
         (0, "train-01-01", "specimen id 'train-01-01' repeats line 2")],
    )
    def test_bad_manifest_cell_names_the_line(self, tiny_run, tmp_path, capsys,
                                              column, value, message):
        base, data, features = tiny_run
        lines = (data / "manifest.csv").read_text().splitlines()
        fields = lines[4].split(",")
        if value is None:
            del fields[column]
        elif isinstance(value, list):  # swap two weights: still sum to 1
            fields[column], fields[value[0]] = fields[value[0]], fields[column]
        else:
            fields[column] = value
        lines[4] = ",".join(fields)
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["extract", "--data", str(tmp_path), "--out", str(tmp_path / "features")],
            capsys,
        )
        assert code == 1
        assert "manifest.csv: line 5" in err and message in err

    def test_huge_kappa_extracts_without_a_warning(self, tiny_run, tmp_path, capsys):
        base, data, features = tiny_run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                ["extract", "--data", str(data), "--out", str(tmp_path / "features"),
                 "--kappa", "1e308"],
                capsys,
            )
        assert (code, err) == (0, "")

    def test_evaluate_starts_no_thread(self, tiny_run, capsys, monkeypatch):
        # evaluate forks its worker lanes, which is safe only if no thread
        # runs; a knn-only plan forks as a plan with a tree model does
        base, data, features = tiny_run
        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (starts.append(thread), start(thread)))
        for models in ("knn,dt", "knn"):
            code, _, _ = run(
                ["evaluate", "--features", str(features), "--out",
                 str(base / f"one-thread-{models}"), "--threads", "2", "--models",
                 models, "--strategies", "1,2,3", "--external-validation"],
                capsys,
            )
            assert code == 0, models
        assert starts == []

    def test_thread_count_leaves_tree_outputs_unchanged(self, tiny_run, capsys):
        # forests fit serially and each evaluate lane is one thread, so the
        # tree models write the same bytes at any --threads
        base, data, features = tiny_run
        outputs = []
        for threads in ("1", "2"):
            out = base / f"trees-threads-{threads}"
            code, _, _ = run(
                ["evaluate", "--features", str(features), "--out", str(out),
                 "--models", "rf,dt", "--strategies", "1,2,3", "--rf-trees", "3",
                 "--seed", "5", "--threads", threads],
                capsys,
            )
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert set(outputs[0]) == {
            "results.csv", "aggregate.csv", "confusion_s1_rf.csv",
            "confusion_s1_dt.csv", "confusion_s3_rf.csv", "confusion_s3_dt.csv",
        }
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """generate, extract, evaluate --external-validation and signatures on the
    seed-3 --replicates 1,1 tree, with every path opened for writing, also by
    a forked worker lane: each path is appended to a log file outside the tree."""
    base = tmp_path_factory.mktemp("recorded")
    data, features = base / "data", base / "features"
    results, sigs = base / "results", base / "sigs"
    log = tmp_path_factory.mktemp("opened") / "paths.txt"
    open_output = cubeio.open_output

    def recording(path, mode):
        with open(log, "a") as fh:
            fh.write(f"{path}\n")
        return open_output(path, mode)

    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cubeio, "open_output", recording)
        mp.setattr(cli, "open_output", recording)
        for argv in (
            ["generate", "--seed", "3", "--replicates", "1,1", "--out", str(data),
             "--threads", "2"],
            ["extract", "--data", str(data), "--out", str(features)],
            ["evaluate", "--features", str(features), "--out", str(results),
             "--models", "knn,dt", "--strategies", "1,3", "--external-validation"],
            ["signatures", "--features", str(features / "train.csv"),
             "--out", str(sigs)],
        ):
            assert main(argv) == 0, argv
    opened = [Path(line) for line in log.read_text().splitlines()]
    return base, opened


class TestOneWriter:
    def test_every_output_file_goes_through_open_output(self, recorded_run):
        base, opened = recorded_run
        written = sorted(path for path in base.rglob("*") if path.is_file())
        assert sorted(opened) == written
        assert {path.name for path in written} >= {
            "dark.msc", "manifest.csv", "train.csv", "external_validation.csv",
            "signatures_by_class.csv", "run_config.json",
        }
        assert not list(base.rglob("*.partial"))

    def test_evaluate_rerun_leaves_no_stale_results(self, tiny_run, tmp_path, capsys):
        base, data, features = tiny_run
        out = tmp_path / "results"
        out.mkdir()
        for name in ("notes.txt", "confusion_s2_knn.csv"):  # not evaluate's
            (out / name).write_text("kept\n")
        for argv in (["--models", "knn,dt", "--strategies", "1,3",
                      "--external-validation"],
                     ["--models", "knn", "--strategies", "1"]):
            code, _, _ = run(["evaluate", "--features", str(features),
                              "--out", str(out), *argv], capsys)
            assert code == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "aggregate.csv", "confusion_s1_knn.csv", "confusion_s2_knn.csv",
            "notes.txt", "results.csv", "run_config.json",
        ]

    def test_failed_rerun_leaves_no_run_config(self, tiny_run, tmp_path, capsys):
        base, data, features = tiny_run
        out = tmp_path / "f1"
        argv = ["evaluate", "--features", str(features), "--out", str(out),
                "--strategies", "1"]
        code, _, _ = run([*argv, "--models", "knn,dt", "--seed", "1"], capsys)
        assert code == 0
        (out / "results.csv").unlink()
        (out / "results.csv").mkdir()
        code, _, err = run([*argv, "--models", "knn", "--seed", "9"], capsys)
        assert code == 1
        assert f"cannot write {out / 'results.csv'}" in err
        # the seed-9 confusion matrix sits next to the seed-1 aggregate.csv,
        # and no run_config.json claims the directory holds a finished run
        assert (out / "confusion_s1_knn.csv").exists()
        assert not (out / "run_config.json").exists()

    def test_signatures_rerun_leaves_no_stale_grouping(self, tiny_run, tmp_path,
                                                       capsys):
        base, data, features = tiny_run
        out = tmp_path / "sigs"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        for group_by in ("both", "class"):
            code, _, _ = run(["signatures", "--features", str(features / "train.csv"),
                              "--out", str(out), "--group-by", group_by], capsys)
            assert code == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "notes.txt", "run_config.json", "signatures_by_class.csv",
        ]


def test_constant_band_fails_before_any_fit(recorded_run, tmp_path, capsys,
                                            monkeypatch):
    base, _ = recorded_run
    lines = (base / "features" / "train.csv").read_text().splitlines(keepends=True)
    column = lines[0].split(",").index("f575")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[column] = "0.5"
    (tmp_path / "train.csv").write_text(
        "".join([lines[0], *(",".join(row) for row in rows)])
    )
    fits = []
    monkeypatch.setattr(pipeline, "fit_fold", lambda *args, **kwargs: fits.append(args))
    out = tmp_path / "results"
    code, _, err = run(["evaluate", "--features", str(tmp_path), "--out", str(out),
                        "--models", "knn"], capsys)
    assert code == 1
    assert "fold 1: band f575 is constant in the training split" in err
    assert fits == []
    assert list(out.iterdir()) == []


def _evaluate_without_a_fit(features, out, argv, capsys, monkeypatch):
    """evaluate with every warning raised and fit_fold recording its calls."""
    fits = []
    monkeypatch.setattr(pipeline, "fit_fold", lambda *args, **kwargs: fits.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(["evaluate", "--features", str(features), "--out", str(out),
                            *argv], capsys)
    return code, err, fits


def test_band_range_overflow_fails_before_any_fit(recorded_run, tmp_path, capsys,
                                                  monkeypatch):
    # +-1e308 in two rows outside fold 1's test rows: every value is finite,
    # but the training split's f365 range max - min overflows to inf
    base, _ = recorded_run
    lines = (base / "features" / "train.csv").read_text().splitlines(keepends=True)
    column = lines[0].split(",").index("f365")
    rows = [line.split(",") for line in lines[1:]]
    plan = pipeline.make_folds(read_observation_csv(base / "features" / "train.csv"),
                               seed=0)
    high, low = np.flatnonzero(plan.assignment != 1)[:2]
    rows[high][column], rows[low][column] = "1e308", "-1e308"
    (tmp_path / "train.csv").write_text(
        "".join([lines[0], *(",".join(row) for row in rows)])
    )
    out = tmp_path / "results"
    code, err, fits = _evaluate_without_a_fit(tmp_path, out, [], capsys, monkeypatch)
    assert code == 1
    assert err == ("soilspec evaluate: fold 1: band f365 spans more than a float64 "
                   "holds in the training split\n")
    assert fits == []
    assert list(out.iterdir()) == []


def test_r2_spread_that_underflows_fails_before_any_fit(recorded_run, tmp_path, capsys,
                                                        monkeypatch):
    # clay of 0 or 1e-170: two values, but their squared deviations from the
    # mean underflow to 0, so no test fold's clay has an R^2
    base, _ = recorded_run
    table = read_observation_csv(base / "features" / "train.csv")
    clay = np.where(np.arange(len(table)) % 2, 0.0, 1e-170)
    silt = table.compositions[:, 1]
    sand = 100.0 - silt - clay
    crafted = dataclasses.replace(
        table,
        compositions=np.column_stack([clay, silt, sand]),
        texture_codes=classify_percentages(clay, silt, sand),
    )
    cubeio.write_observation_csv(crafted, tmp_path / "train.csv")
    written = read_observation_csv(tmp_path / "train.csv").compositions[:, 0]
    assert set(written.tolist()) == {0.0, 1e-170}
    out = tmp_path / "results"
    code, err, fits = _evaluate_without_a_fit(
        tmp_path, out, ["--models", "knn", "--strategies", "2"], capsys, monkeypatch)
    assert code == 1
    assert re.fullmatch(r"soilspec evaluate: fold \d: every test row has the same "
                        r"clay; R\^2 needs two values of each component\n", err), err
    assert fits == []
    assert list(out.iterdir()) == []


class TestWorkerLanes:
    """evaluate --threads N fits a plan on N forked lanes; every outcome
    must be the one a single lane gives."""

    ARGV = ["--models", "knn,dt", "--strategies", "1,2,3"]

    @staticmethod
    def evaluate(features, out, argv, capsys):
        return run(["evaluate", "--features", str(features), "--out", str(out), *argv],
                   capsys)

    @pytest.mark.parametrize("fault, fold", [(None, None), ("raise", 2),
                                             ("raise", 4), ("crash", 4)])
    def test_a_lane_fails_as_one_lane_would_and_leaves_no_child(
        self, recorded_run, tmp_path, capsys, monkeypatch, fault, fold
    ):
        # two lanes over ten tasks: this process runs the fits up to fold 3's
        # strategy-1 fit, the forked lane the rest, so the fault hits the
        # regression fit of fold 2 here and of fold 4 in the child
        base, _ = recorded_run
        features = base / "features"
        plan = pipeline.make_folds(read_observation_csv(features / "train.csv"), seed=0)
        target = plan.train_index(fold).tobytes() if fold else None
        parent, fit_fold = os.getpid(), pipeline.fit_fold

        def faulty(table, train_index, strategy, *specs, **kwargs):
            if strategy == 2 and train_index.tobytes() == target:
                if fault == "raise":
                    raise SoilspecError("injected")
                if os.getpid() != parent:
                    os._exit(3)
            return fit_fold(table, train_index, strategy, *specs, **kwargs)

        monkeypatch.setattr(pipeline, "fit_fold", faulty)
        outcomes = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            code, _, err = self.evaluate(features, out,
                                         [*self.ARGV, "--threads", threads], capsys)
            written = {p.name: p.read_bytes() for p in out.iterdir()
                       if p.name != "run_config.json"}
            outcomes.append((code, err, written))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if fault is None:
            assert outcomes[0][0] == 0
            assert outcomes[1] == outcomes[0]
        elif fault == "raise":
            assert outcomes[0] == (1, f"soilspec evaluate: fold {fold}: injected\n", {})
            assert outcomes[1] == outcomes[0]
        else:
            code, err, written = outcomes[1]
            assert (code, written) == (1, {})
            assert ("the worker fitting fold 3 (strategy 2,3), fold 4 (strategy 1), "
                    "fold 4 (strategy 2,3), fold 5 (strategy 1), fold 5 (strategy 2,3) "
                    "exited with status 3 before it sent its results") in err

    def test_bytes_are_equal_at_any_lane_count_and_forks_are_capped(
        self, recorded_run, tmp_path, capsys, monkeypatch
    ):
        base, _ = recorded_run
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        argv = ["--rf-trees", "3", "--strategies", "1,2,3", "--external-validation"]
        outputs, counts = {}, {}
        for models, threads in [("knn,rf,dt", "1"), ("knn,rf,dt", "2"),
                                ("knn,rf,dt", "3"), ("knn,rf,dt", "64"),
                                ("knn", "1"), ("knn", "2"), ("knn", "64")]:
            forks.clear()
            out = tmp_path / f"{models}-{threads}"
            code, _, err = self.evaluate(
                base / "features", out,
                [*argv, "--models", models, "--threads", threads], capsys,
            )
            assert code == 0, err
            outputs[models, threads] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
            counts[models, threads] = len(forks)
        assert counts == {("knn,rf,dt", "1"): 0, ("knn,rf,dt", "2"): 1,
                          ("knn,rf,dt", "3"): 2, ("knn,rf,dt", "64"): 10,
                          ("knn", "1"): 0, ("knn", "2"): 1, ("knn", "64"): 10}
        assert len(outputs["knn,rf,dt", "1"]) == 9
        for threads in ("2", "3", "64"):
            assert outputs["knn,rf,dt", threads] == outputs["knn,rf,dt", "1"]
        assert len(outputs["knn", "1"]) == 5
        for threads in ("2", "64"):
            assert outputs["knn", threads] == outputs["knn", "1"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_the_plan_runs_in_one_lane(self, recorded_run, tmp_path, capsys,
                                                    monkeypatch):
        base, _ = recorded_run
        outputs = {}
        for threads in ("1", "4"):
            if threads == "4":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / threads
            code, _, err = self.evaluate(base / "features", out,
                                         [*self.ARGV, "--threads", threads], capsys)
            assert code == 0, err
            outputs[threads] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(outputs["1"]) == 6
        assert outputs["4"] == outputs["1"]

    def test_one_lane_stops_at_the_first_failed_fit(self, recorded_run, tmp_path, capsys,
                                                    monkeypatch):
        base, _ = recorded_run
        features = base / "features"
        plan = pipeline.make_folds(read_observation_csv(features / "train.csv"), seed=0)
        folds = {plan.train_index(fold).tobytes(): fold for fold in range(1, 6)}
        fits, fit_fold = [], pipeline.fit_fold

        def faulty(table, train_index, strategy, *specs, **kwargs):
            fits.append((folds[train_index.tobytes()], strategy))
            if fits[-1] == (2, 2):
                raise SoilspecError("injected")
            return fit_fold(table, train_index, strategy, *specs, **kwargs)

        monkeypatch.setattr(pipeline, "fit_fold", faulty)
        out = tmp_path / "results"
        code, _, err = self.evaluate(features, out, [*self.ARGV, "--threads", "1"],
                                     capsys)
        assert (code, err) == (1, "soilspec evaluate: fold 2: injected\n")
        assert fits == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert list(out.iterdir()) == []

    def test_traced_tree_run_records_every_loaded_layer(self, tmp_path, monkeypatch):
        # perfbench/tracer.py patches its own process only, so a traced
        # evaluate at --threads 2 records the first lane's tasks alone; that
        # lane fits both strategy families, so every loaded layer shows
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        bench = importlib.import_module("run")
        stock = bench.WORKLOADS["cv-trees"]
        workload = dataclasses.replace(
            stock, replicates=(1, 1), setup_rounds=1, iterations=1,
            evaluate=stock.evaluate + ("--rf-trees", "3"),
        )
        record = bench.run_benchmark(workload, seed=3, trace=True, work_root=tmp_path)
        assert record["result"]["correct"], record["problems"]
        metrics = record["result"]["metrics"]
        for layer in sorted(stock.loaded):
            assert metrics[f"{layer}.calls"]["value"] > 0, layer


def test_far_knn_query_fails_naming_its_row(recorded_run, tmp_path, capsys):
    # -1e308 in one row's f365: inside its training splits the band range
    # still fits a float64, but as a test row it projects so far out that the
    # KD-tree's distances overflow
    base, _ = recorded_run
    lines = (base / "features" / "train.csv").read_text().splitlines(keepends=True)
    column = lines[0].split(",").index("f365")
    row = lines[1].split(",")
    row[column] = "-1e308"
    (tmp_path / "train.csv").write_text("".join([lines[0], ",".join(row), *lines[2:]]))
    errors = []
    for threads in ("1", "2"):
        out = tmp_path / f"results-{threads}"
        code, _, err = run(["evaluate", "--features", str(tmp_path), "--out", str(out),
                            "--models", "knn", "--strategies", "2",
                            "--threads", threads], capsys)
        assert code == 1
        assert list(out.iterdir()) == []
        errors.append(err)
    assert errors[1] == errors[0]
    assert re.fullmatch(r"soilspec evaluate: fold \d+: query row \d+ lies so far from "
                        r"the tree rows that its distance overflows\n", errors[0]), errors[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_far_external_query_fails_naming_the_external_fit(recorded_run, tmp_path,
                                                          capsys):
    # -1e308 in f365 of validation.csv's first row: the fit on train.csv is
    # sound, but that row projects so far out that the KD-tree's distances
    # overflow, and the failure names the fit it happened in
    base, _ = recorded_run
    features = base / "features"
    lines = (features / "validation.csv").read_text().splitlines(keepends=True)
    column = lines[0].split(",").index("f365")
    row = lines[1].split(",")
    row[column] = "-1e308"
    (tmp_path / "validation.csv").write_text(
        "".join([lines[0], ",".join(row), *lines[2:]]))
    (tmp_path / "train.csv").write_bytes((features / "train.csv").read_bytes())
    for threads in ("1", "2"):
        out = tmp_path / f"results-{threads}"
        code, _, err = run(["evaluate", "--features", str(tmp_path), "--out", str(out),
                            "--models", "knn", "--strategies", "2",
                            "--external-validation", "--threads", threads], capsys)
        assert (code, err) == (1, "soilspec evaluate: the --external-validation fit: "
                               "query row 0 lies so far from the tree rows that its "
                               "distance overflows\n")
        assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPrepLanes:
    """generate and extract --threads N map their cubes over N forked lanes;
    every outcome must be the one a single lane gives."""

    REPLICATES = ["--seed", "3", "--replicates", "1,1"]  # 29 cubes

    @staticmethod
    def prep(tmp_path, threads, capsys, data=None):
        """generate (unless given `data`), then extract, at `threads`:
        (exit code, stderr, {relative path: bytes} of every output)."""
        out = tmp_path / f"prep-{threads}"
        if data is None:
            data = out / "data"
            code, _, err = run(["generate", *TestPrepLanes.REPLICATES, "--out", str(data),
                                "--threads", threads], capsys)
            if code:
                return code, err, {}
        code, _, err = run(["extract", "--data", str(data), "--out",
                            str(out / "features"), "--threads", threads], capsys)
        written = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                   if p.is_file() and p.name != "run_config.json"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, err, written

    def test_bytes_are_equal_at_any_lane_count_and_forks_are_capped(
        self, tmp_path, capsys, monkeypatch
    ):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        outcomes, counts = {}, {}
        for threads in ("1", "2", "3", "64"):
            forks.clear()
            outcomes[threads] = self.prep(tmp_path, threads, capsys)
            counts[threads] = len(forks)
        # generate's forks, then extract's: lanes - 1 each, capped at 29 cubes
        assert counts == {"1": 0, "2": 1 + 1, "3": 2 + 2, "64": 28 + 28}
        code, err, written = outcomes["1"]
        assert (code, err) == (0, "")
        assert len([name for name in written if name.endswith(".msc")]) == 30
        assert {"data/manifest.csv", "features/train.csv",
                "features/validation.csv"} <= set(written)
        for threads in ("2", "3", "64"):
            assert outcomes[threads] == outcomes["1"]

    def test_a_truncated_late_cube_fails_as_one_lane_would(self, recorded_run, tmp_path,
                                                           capsys):
        base, _ = recorded_run
        data = tmp_path / "data"
        shutil.copytree(base / "data", data)
        victim = data / "cubes" / "validation-06-01.msc"
        victim.write_bytes(victim.read_bytes()[:-40])
        outcomes = [self.prep(tmp_path, threads, capsys, data) for threads in ("1", "2")]
        code, err, written = outcomes[0]
        assert code == 1
        assert err.startswith("soilspec extract: specimen validation-06-01: ")
        assert err.count("\n") == 1
        assert written == {}
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("command, stage, verb", [
        ("generate", "synthesize_cube", "synthesizing"),
        ("extract", "preprocess_cube", "extracting"),
    ])
    def test_a_dead_lane_names_its_cubes(self, recorded_run, tmp_path, capsys,
                                         monkeypatch, command, stage, verb):
        base, _ = recorded_run
        parent, work = os.getpid(), getattr(synthgen, stage)

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return work(*args)

        monkeypatch.setattr(synthgen, stage, dying)
        out = tmp_path / "out"
        if command == "generate":
            argv = ["generate", *self.REPLICATES, "--out", str(out)]
        else:
            argv = ["extract", "--data", str(base / "data"), "--out", str(out)]
        code, _, err = run([*argv, "--threads", "2"], capsys)
        # two lanes over 29 cubes: the forked one holds the last 15
        manifest = (base / "data" / "manifest.csv").read_text().splitlines()[1:]
        cubes = ", ".join(line.split(",")[0] for line in manifest[14:])
        assert (code, err) == (1, f"soilspec {command}: the worker {verb} cubes {cubes} "
                                  "exited with status 3 before it sent its results\n")
        assert not {"manifest.csv", "train.csv", "run_config.json"} & {
            p.name for p in out.iterdir()}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_no_command_starts_a_thread(tmp_path, capsys, monkeypatch):
    # every command that maps work over lanes forks them, which is safe only
    # while no thread runs
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (starts.append(thread), start(thread)))
    monkeypatch.setenv(cli.THREADS_ENV, "2")  # signatures takes no --threads flag
    data, features = tmp_path / "data", tmp_path / "features"
    for argv in (
        ["generate", "--seed", "3", "--replicates", "1,1", "--out", str(data),
         "--threads", "2"],
        ["extract", "--data", str(data), "--out", str(features), "--threads", "2"],
        ["evaluate", "--features", str(features), "--out", str(tmp_path / "results"),
         "--models", "knn,dt", "--strategies", "1,2,3", "--external-validation",
         "--threads", "2"],
        ["signatures", "--features", str(features / "train.csv"),
         "--out", str(tmp_path / "sigs")],
    ):
        code, _, err = run(argv, capsys)
        assert code == 0, err
    assert starts == []
