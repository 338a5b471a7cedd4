"""Command-line entry point: generate, extract, evaluate, signatures, triangle.

Every command that writes an output directory drops the exact RunConfig it
executed as run_config.json, so any result tree can be reproduced from its
own provenance. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import pipeline, synthgen
from .core import Roi, validate_composition
from .cubeio import read_observation_csv, write_observation_csv
from .errors import SoilspecError
from .features import MinMaxScaler, emit_signatures
from .pipeline import ModelSpec
from .preprocess import NormalizationParams
from .triangle import classify_composition, dump_rules, normalize_prediction

THREADS_ENV = "SOILSPEC_THREADS"


@dataclass(frozen=True)
class RunConfig:
    """Provenance record: the command and every parameter it ran with."""

    command: str
    params: dict

    def to_json(self) -> str:
        return json.dumps(
            {"command": self.command, "params": self.params},
            sort_keys=True,
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        payload = json.loads(text)
        return cls(command=payload["command"], params=payload["params"])

    def write(self, out_dir: Path) -> None:
        (out_dir / "run_config.json").write_text(self.to_json() + "\n")


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get(THREADS_ENV)
    return max(1, int(env)) if env else 1


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{flag} expects two comma-separated ints")
    return int(parts[0]), int(parts[1])


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_models(text: str) -> list[str]:
    models = [m.strip() for m in text.split(",") if m.strip()]
    if not set(models) <= set(pipeline.MODEL_NAMES) or len(set(models)) != len(models):
        raise argparse.ArgumentTypeError(f"expected distinct models, got {text!r}")
    if not models:
        raise argparse.ArgumentTypeError("expected at least one model")
    return models


def _parse_strategies(text: str) -> list[int]:
    parts = {s.strip() for s in text.split(",") if s.strip()}
    if not parts or not parts <= {str(s) for s in pipeline.STRATEGY_IDS}:
        raise argparse.ArgumentTypeError(f"expected strategies 1,2,3, got {text!r}")
    return sorted(int(s) for s in parts)


def cmd_generate(args) -> int:
    noise = synthgen.noise_preset(args.noise, seed=args.seed)
    endmembers = (
        synthgen.read_endmember_csv(args.endmembers)
        if args.endmembers
        else synthgen.DEFAULT_ENDMEMBERS
    )
    train, validation = synthgen.default_benchmark()
    if args.replicates is not None:
        r_train, r_val = args.replicates
        if r_train < 1 or r_val < 0:
            raise SoilspecError("replicate counts must be >= 1 train, >= 0 validation")
        train = [
            synthgen.MixtureSpec(m.weights, r_train, m.role) for m in train
        ]
        validation = [
            synthgen.MixtureSpec(m.weights, r_val, m.role) for m in validation
        ]
        validation = [m for m in validation if m.replicate_count > 0]
    out_dir = Path(args.out)
    manifest = synthgen.generate_dataset(
        (train, validation), endmembers, noise, out_dir, threads=args.threads
    )
    RunConfig(
        command="generate",
        params={
            "seed": args.seed,
            "noise": args.noise,
            "endmembers": args.endmembers,
            "replicates": list(args.replicates) if args.replicates else None,
            "out": str(out_dir),
            "threads": args.threads,
        },
    ).write(out_dir)
    print(manifest)
    return 0


def cmd_extract(args) -> int:
    roi = Roi(x1=args.roi[0], y1=args.roi[1])
    params = NormalizationParams(kappa=args.kappa)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = synthgen.extract_tables(
        Path(args.data) / "manifest.csv", roi=roi, params=params, threads=args.threads
    )
    written = []
    for role, filename in (("train", "train.csv"), ("validation", "validation.csv")):
        if len(tables[role]):
            write_observation_csv(tables[role], out_dir / filename)
            written.append(filename)
    RunConfig(
        command="extract",
        params={
            "data": str(args.data),
            "out": str(out_dir),
            "roi": [args.roi[0], args.roi[1]],
            "kappa": args.kappa,
            "threads": args.threads,
        },
    ).write(out_dir)
    for filename in written:
        print(out_dir / filename)
    return 0


def cmd_evaluate(args) -> int:
    features_dir = Path(args.features)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = read_observation_csv(features_dir / "train.csv")
    plan = pipeline.make_folds(
        table, seed=args.seed, granularity=args.granularity, stratify=args.stratify
    )
    specs = [
        ModelSpec(
            name=name,
            k=args.k,
            n_trees=args.rf_trees,
            max_depth=args.max_depth,
            min_leaf=args.min_leaf,
            n_jobs=args.threads,
        )
        for name in args.models
    ]
    results = pipeline.run_strategies(
        table, plan, args.strategies, specs, scaler_scope=args.scaler_scope
    )
    for (strategy, name), result in results.items():
        if result.pooled_confusion() is not None:
            pipeline.write_confusion_csv(
                result, out_dir / f"confusion_s{strategy}_{name}.csv"
            )
    pipeline.write_results_csv(list(results.values()), out_dir / "results.csv")
    pipeline.write_aggregate_csv(list(results.values()), out_dir / "aggregate.csv")
    if args.external_validation:
        validation = read_observation_csv(features_dir / "validation.csv")
        reports = pipeline.run_external_validation(
            table, validation, *specs, seed=args.seed
        )
        pipeline.write_external_csv(reports, out_dir / "external_validation.csv")
    RunConfig(
        command="evaluate",
        params={
            "features": str(features_dir),
            "out": str(out_dir),
            "models": args.models,
            "strategies": args.strategies,
            "granularity": args.granularity,
            "stratify": args.stratify,
            "seed": args.seed,
            "scaler_scope": args.scaler_scope,
            "k": args.k,
            "rf_trees": args.rf_trees,
            "max_depth": args.max_depth,
            "min_leaf": args.min_leaf,
            "external_validation": args.external_validation,
            "threads": args.threads,
        },
    ).write(out_dir)
    print(out_dir / "aggregate.csv")
    return 0


def cmd_signatures(args) -> int:
    table = read_observation_csv(args.features)
    # Signatures are defined over the column-wise min-max normalized table.
    scaler = MinMaxScaler().fit(table.features)
    table = table.with_features(scaler.transform(table.features))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    groupings = ("class", "composition") if args.group_by == "both" else (args.group_by,)
    for grouping in groupings:
        path = out_dir / f"signatures_by_{grouping}.csv"
        emit_signatures(table, grouping, path)
        print(path)
    RunConfig(
        command="signatures",
        params={
            "features": str(args.features),
            "out": str(out_dir),
            "group_by": args.group_by,
        },
    ).write(out_dir)
    return 0


def cmd_triangle(args) -> int:
    if args.dump_rules:
        print(dump_rules())
        return 0
    if args.clay is None or args.silt is None or args.sand is None:
        raise SoilspecError("provide --clay, --silt and --sand (or --dump-rules)")
    if args.normalize:
        composition = normalize_prediction(args.clay, args.silt, args.sand)
    else:
        composition = validate_composition(args.clay, args.silt, args.sand)
    print(classify_composition(composition).value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soilspec",
        description="Synthetic multispectral soil-texture benchmark pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a cube dataset + manifest")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=sorted(synthgen.NOISE_PRESETS), default="bench")
    p.add_argument("--endmembers", help="endmember spectra override CSV")
    p.add_argument(
        "--replicates",
        type=lambda s: _parse_pair(s, "--replicates"),
        default=None,
        metavar="TRAIN,VAL",
        help="override replicate counts (default 20,12)",
    )
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("extract", help="preprocess cubes into observation CSVs")
    p.add_argument("--data", required=True, help="dataset directory (manifest.csv)")
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.add_argument(
        "--roi",
        type=lambda s: _parse_pair(s, "--roi"),
        default=(synthgen.DEFAULT_ROI.x1, synthgen.DEFAULT_ROI.y1),
        metavar="X,Y",
        help="ROI top-left corner (default 10,10)",
    )
    p.add_argument("--kappa", type=float, default=0.03,
                   help="tanh contrast steepness")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="run cross-validated strategies")
    p.add_argument("--features", required=True, help="directory with train.csv")
    p.add_argument("--out", required=True, help="output directory for result CSVs")
    p.add_argument("--models", type=_parse_models, default="knn,rf,dt")
    p.add_argument("--strategies", type=_parse_strategies, default="1,2,3")
    p.add_argument("--granularity", choices=("block", "specimen"), default="block")
    p.add_argument("--stratify", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scaler-scope", choices=("fold", "pool"), default="fold")
    p.add_argument("--k", type=_positive_int, default=5, help="KNN neighbor count")
    p.add_argument("--rf-trees", type=_positive_int, default=20)
    p.add_argument("--max-depth", type=_positive_int, default=None)
    p.add_argument("--min-leaf", type=_positive_int, default=1)
    p.add_argument("--external-validation", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("signatures", help="emit per-group spectral signatures")
    p.add_argument("--features", required=True, help="observation CSV path")
    p.add_argument("--out", required=True)
    p.add_argument("--group-by", choices=("class", "composition", "both"),
                   default="both")
    p.set_defaults(func=cmd_signatures)

    p = sub.add_parser("triangle", help="classify a composition or dump rules")
    p.add_argument("--clay", type=float)
    p.add_argument("--silt", type=float)
    p.add_argument("--sand", type=float)
    p.add_argument("--normalize", action="store_true",
                   help="clamp/rescale the triple onto the simplex first")
    p.add_argument("--dump-rules", action="store_true")
    p.set_defaults(func=cmd_triangle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "threads"):
        try:
            args.threads = _threads(args)
        except ValueError:
            parser.error(
                f"{THREADS_ENV} must be an integer, got {os.environ[THREADS_ENV]!r}"
            )
    try:
        return args.func(args)
    except SoilspecError as exc:
        print(f"soilspec {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"soilspec {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
