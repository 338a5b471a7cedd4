#!/usr/bin/env python3
"""End-to-end benchmark of the soilspec CLI, with an optional per-layer trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload prep --seed 7 --seconds 10 --trace 0

Each workload drives the public CLI (``generate``, ``extract``,
``evaluate``) as users run it: one call at a time (a closed loop with one
client), each in a fresh ``PYTHONPATH=src python -m soilspec.cli`` child at
``--threads 2``. CPU time and peak RSS come from each child's own rusage.

Workloads (the seed is passed on to ``generate --seed`` and
``evaluate --seed``):

* ``prep``: ``generate`` at the stock size (524 cubes), then ``extract``;
  three iterations. Loads synthesis, MSC1 I/O, preprocessing and block
  means; never reaches LDA, the learners or the pipeline.
* ``cv-knn``: inputs from ``generate --replicates 8,4`` + ``extract``; timed
  call ``evaluate --models knn --strategies 1,2,3 --external-validation``,
  once. Neighbor search dominates; no tree is built.
* ``cv-trees``: inputs from ``generate --replicates 6,3`` + ``extract``;
  timed call ``evaluate --models rf,dt --strategies 1,2,3``, once. Tree
  building dominates; no KNN query is made.

Each workload runs a fixed number of iterations, so every run measures the
same work; ``--seconds`` is accepted for the benchmark interface and unused.

End-to-end metrics (``--trace 0``), medians over the iterations of a run:

* ``setup_s``: one set-up round, a ``--help`` start-up probe plus, for the
  ``cv-*`` workloads, the ``generate`` and ``extract`` calls that build the
  inputs; several rounds run and the median is reported.
* ``call_s``: wall time of one iteration of the timed calls (``prep``:
  generate + extract; ``cv-*``: evaluate).
* ``rows_per_s``: block rows written (``prep``) or scored (``cv-*``: every
  test fold of every model and strategy, plus the external rows) per second
  of ``call_s``. The row count is fixed by the workload.
* ``cpu_s``: user + system CPU of the timed calls of one iteration.
* ``peak_rss_mb``: highest peak RSS among the timed calls.
* ``success_ratio``: calls that succeeded / calls attempted, set-up included.

Every call's outputs are checked: exit code 0, sha256 digests of the output
files equal to those of every other run of the same seed (and, at the
default seed 7, to ``perfbench/expected_digests.json``), and the acceptance
floors on the scores. A call that raises, exits non-zero, or fails a check
counts as failed; the run goes on.

With ``--trace 1`` the same calls run once untraced and once through
``perfbench/tracer.py``; the per-layer totals are reported together with the
tracing overhead, and the run fails its self-check if a layer the workload
loads records no call, a layer it bypasses records any, or the traced
outputs differ from the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs, logs and a
full record with provenance go to ``.perfbench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402  (lives next to this file)

ROOT = BENCH_DIR.parent
THREADS = "2"
DEFAULT_SEED = 7
EXPECTED_DIGESTS = BENCH_DIR / "expected_digests.json"

# Each run must end within 180 s; leave room for the checks and cleanup.
RUN_BUDGET_S = 165.0

# Pinned in every child's environment and recorded with each result: one
# BLAS thread per process, so the program's --threads 2 workers are the only
# parallelism measured.
CHILD_ENV_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Acceptance floors (criteria 7-8) that every evaluate call must meet.
FLOORS = {
    "s1_accuracy": 0.95,
    "s2_r2_min": 0.98,
    "s3_accuracy": 0.90,
    "ext_r2_min": 0.95,
}

# (name, unit) of every end-to-end metric, in the order printed.
END_TO_END = (
    ("setup_s", "s"),
    ("call_s", "s"),
    ("rows_per_s", "rows/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)

TRACE_METRICS = (
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)

STOCK_REPLICATES = (20, 12)
TRAIN_MIXTURES = 22
VALIDATION_MIXTURES = 7
BLOCKS_PER_CUBE = 100

ALL_LAYERS = frozenset(tracer.LAYERS)
PREP_LAYERS = frozenset({"synthgen", "cubeio", "preprocess", "features", "cli"})


@dataclass(frozen=True)
class Workload:
    name: str
    replicates: tuple[int, int]
    evaluate: tuple[str, ...] | None  # None: the timed calls are generate + extract
    loaded: frozenset[str]
    setup_rounds: int
    iterations: int  # timed iterations per run

    @property
    def cubes(self) -> int:
        return TRAIN_MIXTURES * self.replicates[0] + VALIDATION_MIXTURES * self.replicates[1]

    @property
    def train_rows(self) -> int:
        return TRAIN_MIXTURES * self.replicates[0] * BLOCKS_PER_CUBE

    @property
    def validation_rows(self) -> int:
        return VALIDATION_MIXTURES * self.replicates[1] * BLOCKS_PER_CUBE

    @property
    def bypassed(self) -> frozenset[str]:
        return ALL_LAYERS - self.loaded

    @property
    def scored_rows(self) -> int:
        """Rows scored by one evaluate call: every test fold of every
        (model, strategy) pair, plus the external rows per model."""
        args = list(self.evaluate)
        models = args[args.index("--models") + 1].split(",")
        strategies = args[args.index("--strategies") + 1].split(",")
        rows = len(models) * len(strategies) * self.train_rows
        if "--external-validation" in args:
            rows += len(models) * self.validation_rows
        return rows


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prep", STOCK_REPLICATES, None, PREP_LAYERS, 15, 3),
        Workload(
            "cv-knn", (8, 4),
            ("--models", "knn", "--strategies", "1,2,3", "--external-validation"),
            ALL_LAYERS - {"ml.trees"}, 3, 1,
        ),
        Workload(
            "cv-trees", (6, 3),
            ("--models", "rf,dt", "--strategies", "1,2,3"),
            ALL_LAYERS - {"ml.knn"}, 3, 1,
        ),
    )
}


# -- one CLI call ----------------------------------------------------------------


@dataclass
class Call:
    label: str
    args: list[str]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    returncode: int | None = None
    error: str | None = None
    traced: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SOILSPEC_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(CHILD_ENV_PINS)
    return env


def run_child(call: Call, log_path: Path, timeout_s: float, trace_out: Path | None) -> None:
    """Run one CLI call in a fresh child; fill in wall, CPU and peak RSS."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "soilspec.cli", *call.args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_out), "--", *call.args]
    with open(log_path, "ab") as log:
        log.write(f"$ {' '.join(cmd)}\n".encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        call.wall_s = time.perf_counter() - start
    proc.returncode = call.returncode = os.waitstatus_to_exitcode(status)
    call.cpu_s = usage.ru_utime + usage.ru_stime
    call.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if call.returncode != 0:
        call.error = f"exit code {call.returncode}"


# -- output checks ---------------------------------------------------------------


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digests(kind: str, out_dir: Path) -> dict[str, str]:
    """Digests of a command's outputs; run_config.json holds paths, so it is left out."""
    if kind == "generate":
        cubes = hashlib.sha256()
        for path in sorted((out_dir / "cubes").glob("*.msc")):
            cubes.update(path.name.encode())
            cubes.update(sha256_file(path).encode())
        return {
            "manifest.csv": sha256_file(out_dir / "manifest.csv"),
            "dark.msc": sha256_file(out_dir / "dark.msc"),
            "cubes/*.msc": cubes.hexdigest(),
        }
    return {
        path.name: sha256_file(path)
        for path in sorted(out_dir.glob("*.csv"))
    }


def read_scores(out_dir: Path) -> dict[str, float]:
    """Lowest fold-mean scores over models (and components) of one evaluate."""
    scores: dict[str, list[float]] = {}
    with open(out_dir / "aggregate.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            strategy, metric, mean = row["strategy"], row["metric"], float(row["mean"])
            if strategy == "1" and metric == "accuracy":
                scores.setdefault("s1_accuracy", []).append(mean)
            elif strategy == "2" and metric.startswith("r2_"):
                scores.setdefault("s2_r2_min", []).append(mean)
            elif strategy == "3" and metric == "accuracy":
                scores.setdefault("s3_accuracy", []).append(mean)
    external = out_dir / "external_validation.csv"
    if external.exists():
        with open(external, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["metric"].startswith("r2_"):
                    scores.setdefault("ext_r2_min", []).append(float(row["value"]))
    return {name: min(values) for name, values in scores.items()}


class OutputCheck:
    """Every call of one kind must produce the same digests.

    The reference is, in order: the recorded digests of the default seed,
    the digests an earlier run of this seed left in the work directory, or
    the first call of this run.
    """

    def __init__(self, reference: dict[str, dict[str, str]]):
        self.reference = {kind: dict(d) for kind, d in reference.items()}
        self.seen: dict[str, dict[str, str]] = {}

    def check(self, kind: str, digests: dict[str, str]) -> str | None:
        self.seen.setdefault(kind, digests)
        expected = self.reference.setdefault(kind, digests)
        if digests != expected:
            differ = sorted(
                name for name in set(expected) | set(digests)
                if expected.get(name) != digests.get(name)
            )
            return f"{kind} outputs differ from the reference: {', '.join(differ)}"
        return None


# -- provenance ------------------------------------------------------------------


def provenance(workload: Workload, seed: int) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    commit = None  # a checkout without .git is identified by source_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "program_threads": int(THREADS),
        "child_env_pins": dict(CHILD_ENV_PINS),
        "parent_thread_env": {
            name: os.environ.get(name)
            for name in (*CHILD_ENV_PINS, "SOILSPEC_THREADS")
        },
        "seed": seed,
        "workload": workload.name,
        "replicates": list(workload.replicates),
        "cubes": workload.cubes,
        "train_rows": workload.train_rows,
        "validation_rows": workload.validation_rows,
    }


# -- one benchmark run -----------------------------------------------------------


@dataclass
class Runner:
    workload: Workload
    seed: int
    trace: bool
    work: Path
    reference: dict = field(default_factory=dict)
    fault: str | None = None  # "raise" or "corrupt": tests inject one fault

    def __post_init__(self) -> None:
        self.calls: list[Call] = []
        self.problems: list[str] = []
        self.checks = OutputCheck(self.reference)
        self.scores: dict[str, float] = {}
        self.layer_totals: list[dict[str, float]] = []
        self.started = time.perf_counter()
        self.log = self.work / "calls.log"
        self._faulted = False

    # paths
    def data(self, tag: str) -> Path:
        return self.work / tag / "data"

    def features(self, tag: str) -> Path:
        return self.work / tag / "features"

    def call(self, label: str, args: list[str], kind: str | None = None,
             out_dir: Path | None = None, traced: bool = False) -> Call:
        call = Call(label, args, traced=traced)
        self.calls.append(call)
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if remaining <= 5.0:
            call.error = "skipped: run time budget spent"
            return call
        trace_out = self.work / f"trace-{len(self.calls)}.json" if traced else None
        # An injected fault hits a call whose outputs nothing later in the
        # iteration reads, so it fails that call alone.
        fault = None
        if label == "timed" and kind != "generate" and not self._faulted:
            fault, self._faulted = self.fault, self.fault is not None
        try:
            if fault == "raise":
                raise RuntimeError("injected fault")
            run_child(call, self.log, remaining, trace_out)
            if call.failed:
                return call
            if fault == "corrupt":
                victim = sorted(out_dir.glob("*.csv"))[0]
                victim.write_bytes(victim.read_bytes()[:-2] + b"#\n")
            if kind is not None:
                call.error = self.checks.check(kind, output_digests(kind, out_dir))
            if call.error is None and kind == "evaluate":
                scores = read_scores(out_dir)
                low = [f"{n}={scores.get(n)}" for n in self.floor_names()
                       if scores.get(n, -1.0) < FLOORS[n]]
                if low:
                    call.error = "below acceptance floor: " + ", ".join(low)
                self.scores = scores
            if call.error is None and trace_out is not None:
                with open(trace_out) as fh:
                    self.layer_totals.append(json.load(fh))
        except Exception as exc:  # a raising call counts as failed; the run goes on
            call.error = f"{type(exc).__name__}: {exc}"
        return call

    def floor_names(self) -> list[str]:
        names = ["s1_accuracy", "s2_r2_min", "s3_accuracy"]
        if "--external-validation" in self.workload.evaluate:
            names.append("ext_r2_min")
        return names

    def generate(self, tag: str, label: str, traced: bool = False) -> Call:
        out = self.data(tag)
        shutil.rmtree(out, ignore_errors=True)
        args = ["generate", "--seed", str(self.seed), "--noise", "bench",
                "--out", str(out), "--threads", THREADS]
        if self.workload.replicates != STOCK_REPLICATES:
            args += ["--replicates", ",".join(map(str, self.workload.replicates))]
        return self.call(label, args, "generate", out, traced)

    def extract(self, tag: str, label: str, traced: bool = False) -> Call:
        out = self.features(tag)
        shutil.rmtree(out, ignore_errors=True)
        args = ["extract", "--data", str(self.data(tag)), "--out", str(out),
                "--threads", THREADS]
        return self.call(label, args, "extract", out, traced)

    def evaluate(self, tag: str, label: str, traced: bool = False) -> Call:
        out = self.work / tag / "results"
        shutil.rmtree(out, ignore_errors=True)
        args = ["evaluate", "--features", str(self.features("inputs")), "--out", str(out),
                "--seed", str(self.seed), "--threads", THREADS, *self.workload.evaluate]
        return self.call(label, args, "evaluate", out, traced)

    def probe(self) -> Call:
        return self.call("setup", ["--help"])

    def setup_round(self) -> float:
        """One set-up: start-up probe, then (cv-*) build the inputs."""
        start = time.perf_counter()
        self.probe()
        if self.workload.evaluate is not None:
            self.generate("inputs", "setup")
            self.extract("inputs", "setup")
        return time.perf_counter() - start

    def iteration(self, traced: bool = False, tag: str = "timed") -> list[Call]:
        """The timed CLI calls of one iteration of the workload."""
        if self.workload.evaluate is None:
            return [self.generate(tag, "timed", traced),
                    self.extract(tag, "timed", traced)]
        return [self.evaluate(tag, "timed", traced)]

    def run(self) -> dict[str, float]:
        if self.trace:
            return self.run_traced()
        setup = [self.setup_round() for _ in range(self.workload.setup_rounds)]
        iterations = [self.iteration() for _ in range(self.workload.iterations)]
        return self.end_to_end(setup, iterations)

    def run_traced(self) -> dict[str, float]:
        self.setup_round()
        if self.workload.evaluate is not None:
            self.generate("traced-inputs", "setup", traced=True)
            self.extract("traced-inputs", "setup", traced=True)
        untraced = self.iteration(tag="timed")
        traced = self.iteration(traced=True, tag="timed-traced")
        metrics = tracer.combine(self.layer_totals)
        untraced_s = sum(c.wall_s for c in untraced)
        traced_s = sum(c.wall_s for c in traced)
        metrics["trace.untraced_s"] = untraced_s
        metrics["trace.traced_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        for layer in sorted(self.workload.loaded):
            if metrics[f"{layer}.calls"] == 0:
                self.problems.append(f"layer {layer} is loaded but recorded no call")
        for layer in sorted(self.workload.bypassed):
            if metrics[f"{layer}.calls"] != 0:
                self.problems.append(
                    f"layer {layer} is bypassed but recorded "
                    f"{metrics[f'{layer}.calls']:.0f} calls"
                )
        return metrics

    def end_to_end(self, setup: list[float], iterations: list[list[Call]]) -> dict[str, float]:
        if self.workload.evaluate is None:  # block rows written by extract
            rows = self.workload.train_rows + self.workload.validation_rows
        else:
            rows = self.workload.scored_rows
        call_s = statistics.median(sum(c.wall_s for c in it) for it in iterations)
        attempted = len(self.calls)
        return {
            "setup_s": statistics.median(setup),
            "call_s": call_s,
            "rows_per_s": rows / call_s if call_s else 0.0,
            "cpu_s": statistics.median(sum(c.cpu_s for c in it) for it in iterations),
            "peak_rss_mb": max(c.rss_mb for it in iterations for c in it),
            "success_ratio": (attempted - sum(c.failed for c in self.calls)) / attempted,
        }


def digest_record_path(work_root: Path, workload: Workload, seed: int) -> Path:
    size = "x".join(map(str, workload.replicates))
    return work_root / "digests" / f"{workload.name}-{size}-seed{seed}.json"


def load_reference(work_root: Path, workload: Workload, seed: int) -> dict:
    if seed == DEFAULT_SEED and workload.name in WORKLOADS and (
        workload.replicates == WORKLOADS[workload.name].replicates
    ):
        with open(EXPECTED_DIGESTS) as fh:
            return json.load(fh)["workloads"][workload.name]
    record = digest_record_path(work_root, workload, seed)
    if record.exists():
        with open(record) as fh:
            return json.load(fh)
    return {}


def run_benchmark(workload: Workload, seed: int, trace: bool, work_root: Path,
                  fault: str | None = None) -> dict:
    """One benchmark run; returns the full record (result, calls, provenance)."""
    work = work_root / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, trace, work,
                    reference=load_reference(work_root, workload, seed), fault=fault)
    metrics = runner.run()
    failed = sum(c.failed for c in runner.calls)
    problems = runner.problems + [
        f"{c.label} {c.args[0]}: {c.error}" for c in runner.calls if c.failed
    ]
    if trace:
        units = dict(tracer.LAYER_METRICS + TRACE_METRICS)
    else:
        units = dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": len(runner.calls),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    if not problems:
        record = digest_record_path(work_root, workload, seed)
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(runner.checks.seen, indent=2, sort_keys=True) + "\n")
    # The cubes are large; keep only the logs, traces and the record.
    for tag in ("inputs", "traced-inputs", "timed", "timed-traced"):
        shutil.rmtree(work / tag / "data", ignore_errors=True)
    return {
        "result": result,
        "scores": runner.scores,
        "problems": problems,
        "calls": [vars(c) for c in runner.calls],
        "provenance": provenance(workload, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "soilspec" / "cli.py").is_file():
        print(f"perfbench: no soilspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    record = run_benchmark(WORKLOADS[args.workload], args.seed, bool(args.trace),
                           work_root)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (work_root / "records").mkdir(parents=True, exist_ok=True)
    (work_root / "records" / name).write_text(json.dumps(record, indent=2) + "\n")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for metric, entry in record["result"]["metrics"].items():
        print(f"{metric:32s} {entry['value']:.6g} {entry['unit']}")
    if record["scores"]:
        print("scores " + json.dumps(record["scores"], sort_keys=True))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
