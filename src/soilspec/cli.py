"""Command-line entry point: generate, extract, evaluate, signatures, triangle.

`main` creates a command's --out directory and removes its run_config.json,
runs the command and, only after it succeeds, writes the command and every
parsed argument there as run_config.json: a result tree that has one holds
a finished run and can be reproduced from its own provenance. Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline, synthgen
from .core import Roi, validate_composition
from .cubeio import open_output, read_observation_csv, write_observation_csv
from .errors import DegenerateBand, IoFailure, SoilspecError
from .features import MinMaxScaler, emit_signatures
from .pipeline import ModelSpec
from .preprocess import NormalizationParams
from .triangle import classify_composition, dump_rules, normalize_prediction

THREADS_ENV = "SOILSPEC_THREADS"


# The files a command writes on some runs and not others (strategies 1 and 3
# classify, so only they have a confusion matrix). Just before its first
# write a command removes those it will not write, so none is left from an
# earlier run; files it never writes are left alone.
_OPTIONAL_OUTPUTS = {
    "evaluate": {
        *(f"confusion_s{s}_{m}.csv" for s in (1, 3) for m in pipeline.MODEL_NAMES),
        "external_validation.csv",
    },
    "signatures": {"signatures_by_class.csv", "signatures_by_composition.csv"},
}


def _remove_stale(args, written) -> None:
    for name in _OPTIONAL_OUTPUTS[args.command].difference(written):
        (args.out / name).unlink(missing_ok=True)


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get(THREADS_ENV)
    return _positive_int(env) if env else 1


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        first, second = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers, got {text!r}"
        ) from None
    return first, second


def _parse_roi(text: str) -> tuple[int, int]:
    x, y = _parse_pair(text)
    if x < 0 or y < 0:
        raise argparse.ArgumentTypeError(f"expected non-negative ints, got {text!r}")
    return x, y


def _parse_replicates(text: str) -> tuple[int, int]:
    train, validation = _parse_pair(text)
    if train < 1 or validation < 0:
        raise argparse.ArgumentTypeError(
            f"expected TRAIN >= 1 and VAL >= 0, got {text!r}"
        )
    return train, validation


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


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
    manifest = synthgen.generate_dataset(
        synthgen.default_benchmark(*(args.replicates or ())),
        endmembers, noise, args.out, threads=args.threads,
    )
    print(manifest)
    return 0


def cmd_extract(args) -> int:
    roi = Roi(x1=args.roi[0], y1=args.roi[1])
    params = NormalizationParams(kappa=args.kappa)
    tables = synthgen.extract_tables(
        Path(args.data) / "manifest.csv", roi=roi, params=params, threads=args.threads
    )
    for role in ("train", "validation"):
        write_observation_csv(tables[role], args.out / f"{role}.csv")
    print(args.out / "train.csv", args.out / "validation.csv", sep="\n")
    return 0


def cmd_evaluate(args) -> int:
    table = read_observation_csv(args.features / "train.csv")
    specs = [ModelSpec(name=name, k=args.k, n_trees=args.rf_trees,
                       max_depth=args.max_depth, min_leaf=args.min_leaf)
             for name in args.models]
    path = args.features / "validation.csv"
    validation = read_observation_csv(path) if args.external_validation else None
    plan = pipeline.make_folds(
        table, seed=args.seed, granularity=args.granularity, stratify=args.stratify
    )
    results, reports = pipeline.run_evaluation(
        table, plan, args.strategies, specs, validation, str(path), args.threads
    )
    confusions = {
        f"confusion_s{strategy}_{name}.csv": result
        for (strategy, name), result in results.items()
        if result.pooled_confusion() is not None
    }
    external = ["external_validation.csv"] if args.external_validation else []
    _remove_stale(args, [*confusions, *external])
    for name, result in confusions.items():
        pipeline.write_confusion_csv(result, args.out / name)
    pipeline.write_results_csv(list(results.values()), args.out / "results.csv")
    pipeline.write_aggregate_csv(list(results.values()), args.out / "aggregate.csv")
    if args.external_validation:
        pipeline.write_external_csv(reports, args.out / "external_validation.csv")
    print(args.out / "aggregate.csv")
    return 0


def cmd_signatures(args) -> int:
    table = read_observation_csv(args.features)
    # Signatures are defined over the column-wise min-max normalized table.
    try:
        scaler = MinMaxScaler().fit(table.features)
    except DegenerateBand as exc:
        raise DegenerateBand(f"{args.features}: {exc}") from None
    table = replace(table, features=scaler.transform(table.features))
    groupings = ("class", "composition") if args.group_by == "both" else (args.group_by,)
    names = {grouping: f"signatures_by_{grouping}.csv" for grouping in groupings}
    _remove_stale(args, names.values())
    for grouping, name in names.items():
        emit_signatures(table, grouping, args.out / name)
        print(args.out / name)
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
    p.add_argument("--out", type=Path, required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=sorted(synthgen.NOISE_PRESETS), default="bench")
    p.add_argument("--endmembers", help="endmember spectra override CSV")
    p.add_argument(
        "--replicates",
        type=_parse_replicates,
        default=None,
        metavar="TRAIN,VAL",
        help="override replicate counts (default "
        f"{synthgen.TRAIN_REPLICATES},{synthgen.VALIDATION_REPLICATES})",
    )
    p.add_argument("--threads", type=_positive_int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("extract", help="preprocess cubes into observation CSVs")
    p.add_argument("--data", required=True, help="dataset directory (manifest.csv)")
    p.add_argument("--out", type=Path, required=True, help="output directory for CSVs")
    p.add_argument(
        "--roi",
        type=_parse_roi,
        default=(synthgen.DEFAULT_ROI.x1, synthgen.DEFAULT_ROI.y1),
        metavar="X,Y",
        help="ROI top-left corner (default 10,10)",
    )
    p.add_argument("--kappa", type=_positive_float, default=NormalizationParams.kappa,
                   help="tanh contrast steepness")
    p.add_argument("--threads", type=_positive_int, default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="run cross-validated strategies")
    p.add_argument("--features", type=Path, required=True,
                   help="directory with train.csv")
    p.add_argument("--out", type=Path, required=True,
                   help="output directory for result CSVs")
    p.add_argument("--models", type=_parse_models, default="knn,rf,dt")
    p.add_argument("--strategies", type=_parse_strategies, default="1,2,3")
    p.add_argument("--granularity", choices=("block", "specimen"), default="block")
    p.add_argument("--stratify", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=_positive_int, default=ModelSpec.k,
                   help="KNN neighbor count")
    p.add_argument("--rf-trees", type=_positive_int, default=ModelSpec.n_trees)
    p.add_argument("--max-depth", type=_positive_int, default=None)
    p.add_argument("--min-leaf", type=_positive_int, default=ModelSpec.min_leaf)
    p.add_argument("--external-validation", action="store_true")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="worker lanes for the fits, capped at the number of fits")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("signatures", help="emit per-group spectral signatures")
    p.add_argument("--features", required=True, help="observation CSV path")
    p.add_argument("--out", type=Path, required=True)
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
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{THREADS_ENV}: {exc}")
    out = getattr(args, "out", None)
    try:
        if out:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise IoFailure(f"cannot create {out}: {exc}") from exc
            (out / "run_config.json").unlink(missing_ok=True)
        code = args.func(args)
        if code == 0 and out:  # provenance: the command and every parsed argument
            params = {k: v for k, v in vars(args).items()
                      if k not in ("command", "func")}
            with open_output(out / "run_config.json", "w") as fh:
                fh.write(json.dumps({"command": args.command, "params": params},
                                    sort_keys=True, indent=2, default=str) + "\n")
        return code
    except (SoilspecError, OSError) as exc:
        print(f"soilspec {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
