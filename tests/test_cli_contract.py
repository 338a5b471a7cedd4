"""One contract for the command line, checked as a hypothesis property.

All five commands run in process on a small seed-3 tree. Each draw gives
every flag a valid or boundary value, except for at most one flag, which
gets a junk value. Whatever the draw, the exit code is 0, 1 or 2, nothing
escapes `main` as an exception (so no traceback and no warning reaches
stderr), and an exit-1 message names a path or a flag given on the command
line (for `triangle`, the triple it was given or a flag it lacks will do).
"""

import io
import itertools
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilspec.cli import main
from soilspec.core import BAND_WAVELENGTHS_NM
from soilspec.synthgen import DEFAULT_ENDMEMBERS

THREADS = (["1", "2", "4"], ["0", "-1", "x", ""])

# flag -> (valid and boundary values, junk values); None leaves the flag out.
# A path flag's values name entries of the `tree` fixture (see `resolve`).
GENERATE_FLAGS = {
    "--out": (["fresh"], ["file", "under-file"]),
    "--seed": (["0", "3", "-5", str(2**70)], ["x", "1.5", ""]),
    "--noise": (["clean", "bench", "stress"], ["loud", ""]),
    "--endmembers": ([None, "endmembers.csv"],
                     ["missing", "file", "data/manifest.csv", "data"]),
    "--replicates": (["1,0", "1,1", "2,0"], ["0,1", "1,-1", "1", "1,1,1", "x"]),
    "--threads": ([None, *THREADS[0]], THREADS[1]),
}
EXTRACT_FLAGS = {
    "--data": (["data"], ["features", "missing", "file", "data-cut"]),
    "--out": (["fresh"], ["file", "under-file"]),
    "--roi": ([None, "10,10", "0,0", "20,20", "21,0", "0,21", "5,19"],
              ["-1,0", "x", "1", "1,2,3"]),
    "--kappa": ([None, "0.03", "1e-320", "5e-324", "1e308", "1.7e308"],
                ["0", "-1", "nan", "inf", "x"]),
    "--threads": ([None, *THREADS[0]], THREADS[1]),
}
# train.csv with one byte replaced or inserted in the first feature cell of a
# line, or with a blank line inserted there; reading it must name that line
DAMAGES = {
    "features-x": (5, lambda cell: cell[:-1] + b"x"),  # its last digit
    "features-nul": (6, lambda cell: cell[:1] + b"\x00" + cell[1:]),
    "features-quote": (7, lambda cell: cell[:1] + b'"' + cell[1:]),
    "features-cr": (8, lambda cell: cell[:1] + b"\r" + cell[1:]),
    "features-blank": (9, None),
}
EVALUATE_FLAGS = {
    "--features": (["features"],
                   ["data", "missing", "file", "features-cut", *DAMAGES]),
    "--out": (["fresh"], ["file", "under-file"]),
    "--models": (["knn", "dt", "rf", "knn,dt"], ["knn,knn", "svm", "", ","]),
    "--strategies": (["1", "2", "3", "1,2,3", "3,1"], ["0", "4", "", "x"]),
    "--granularity": ([None, "block", "specimen"], ["blocks", ""]),
    "--seed": ([None, "0", "-1", str(2**70)], ["x", ""]),
    "--k": ([None, "1", "5", "1760", "1761", "100000"], ["0", "-3", "x"]),
    # always given: the stock 20 trees would make each draw slow
    "--rf-trees": (["1", "2"], ["0", "x"]),
    "--max-depth": ([None, "1", "4"], ["0", "x"]),
    "--min-leaf": ([None, "1", "40", "5000"], ["0", "x"]),
    "--threads": ([None, *THREADS[0]], THREADS[1]),
}
EVALUATE_SWITCHES = ("--stratify", "--external-validation")
SIGNATURES_FLAGS = {
    "--features": (["features/train.csv", "features/validation.csv"],
                   ["features", "missing", "file", "data/manifest.csv", "one-row.csv",
                    "features-cut/train.csv", *(f"{d}/train.csv" for d in DAMAGES)]),
    "--out": (["fresh"], ["file", "under-file"]),
    "--group-by": ([None, "class", "composition", "both"], ["classes", ""]),
}
PERCENT = ([None, "0", "20", "21.37", "40", "78.63", "100"],
           ["-1", "101", "nan", "inf", "-inf", "1e308", "x", ""])
TRIANGLE_FLAGS = {"--clay": PERCENT, "--silt": PERCENT, "--sand": PERCENT}
TRIANGLE_SWITCHES = ("--normalize", "--dump-rules")
PATH_FLAGS = {"--out", "--data", "--features", "--endmembers"}


def endmember_csv():
    rows = ["band_nm,clayrich,siltrich,sandrich"]
    for nm, levels in zip(BAND_WAVELENGTHS_NM, DEFAULT_ENDMEMBERS.spectra.T):
        rows.append(",".join([str(nm), *map(repr, levels.tolist())]))
    return "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A seed-3 `--replicates 1,1` tree, plus junk inputs beside it."""
    base = tmp_path_factory.mktemp("contract")
    data, features = base / "data", base / "features"
    assert main(["generate", "--seed", "3", "--replicates", "1,1", "--out",
                 str(data)]) == 0
    assert main(["extract", "--data", str(data), "--out", str(features)]) == 0
    (base / "file").write_text("not a directory\n")
    (base / "endmembers.csv").write_text(endmember_csv())
    # one corrupted file each: a cube cut short, a train.csv cut mid-line
    cut = base / "data-cut"
    (cut / "cubes").mkdir(parents=True)
    for path in data.rglob("*.msc"):
        (cut / path.relative_to(data)).write_bytes(path.read_bytes())
    (cut / "manifest.csv").write_bytes((data / "manifest.csv").read_bytes())
    cube = next((cut / "cubes").iterdir())
    cube.write_bytes(cube.read_bytes()[:-1000])
    (base / "features-cut").mkdir()
    for name in ("train.csv", "validation.csv"):
        raw = (features / name).read_bytes()
        (base / "features-cut" / name).write_bytes(raw[: len(raw) // 2])
    lines = (features / "train.csv").read_bytes().split(b"\r\n")
    (base / "one-row.csv").write_bytes(b"\r\n".join(lines[:2] + [b""]))
    for name, (line, damage) in DAMAGES.items():
        damaged = list(lines)
        if damage:
            cells = damaged[line - 1].split(b",")
            cells[3] = damage(cells[3])
            damaged[line - 1] = b",".join(cells)
        else:
            damaged.insert(line - 1, b"")
        (base / name).mkdir()
        (base / name / "train.csv").write_bytes(b"\r\n".join(damaged))
    return base, itertools.count()


@st.composite
def argv_values(draw, flags, switches=()):
    """{flag: symbolic value}; at most one flag draws from its junk values,
    and about half the draws have none."""
    junk = draw(st.none() | st.sampled_from(list(flags)))
    values = {
        flag: draw(st.sampled_from(bad if flag == junk else good))
        for flag, (good, bad) in flags.items()
    }
    for switch in switches:
        values[switch] = draw(st.booleans())
    return values


def resolve(tree, flag, value):
    base, counter = tree
    if flag not in PATH_FLAGS:
        return value
    if value == "fresh":
        return str(base / "out" / str(next(counter)))
    if value == "under-file":
        return str(base / "file" / "sub")
    return str(base / value)


def run_cli(tree, command, values):
    argv = [command]
    for flag, value in values.items():
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv += [flag, resolve(tree, flag, value)]
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return argv, code, err.getvalue()


def check_contract(argv, code, err, named=()):
    """`named`: further texts an exit-1 message may name the input by."""
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        paths = [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in PATH_FLAGS]
        names = [re.escape(arg[2:]) for arg in argv[1:]
                 if arg.startswith("--") and arg not in PATH_FLAGS]
        flag_named = names and re.search(
            rf"(?<![\w-])(--)?({'|'.join(names)})(?![\w-])", err, re.IGNORECASE
        )
        assert any(text in err for text in [*paths, *named]) or flag_named, (argv, err)


@settings(max_examples=10, deadline=None)
@given(values=argv_values(GENERATE_FLAGS))
def test_generate_keeps_the_contract(tree, values):
    check_contract(*run_cli(tree, "generate", values))


@settings(max_examples=10, deadline=None)
@given(values=argv_values(EXTRACT_FLAGS))
def test_extract_keeps_the_contract(tree, values):
    check_contract(*run_cli(tree, "extract", values))


@settings(max_examples=15, deadline=None)
@given(values=argv_values(EVALUATE_FLAGS, EVALUATE_SWITCHES))
def test_evaluate_keeps_the_contract(tree, values):
    check_contract(*run_cli(tree, "evaluate", values))


@settings(max_examples=10, deadline=None)
@given(values=argv_values(SIGNATURES_FLAGS))
def test_signatures_keeps_the_contract(tree, values):
    check_contract(*run_cli(tree, "signatures", values))


@settings(max_examples=10, deadline=None)
@given(values=argv_values(TRIANGLE_FLAGS, TRIANGLE_SWITCHES))
def test_triangle_keeps_the_contract(tree, values):
    named = list(TRIANGLE_FLAGS)  # "provide --clay, --silt and --sand"
    try:
        named.append(str(tuple(float(values[flag]) for flag in TRIANGLE_FLAGS)))
    except (TypeError, ValueError):  # a flag left out, or not a number
        pass
    check_contract(*run_cli(tree, "triangle", values), named=named)


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("command", ["evaluate", "signatures"])
def test_damaged_train_csv_names_the_file_and_line(tree, command, damage):
    features = f"{damage}/train.csv" if command == "signatures" else damage
    values = {"--features": features, "--out": "fresh"}
    if command == "evaluate":
        values |= {"--models": "knn", "--strategies": "1"}
    argv, code, err = run_cli(tree, command, values)
    path, line = tree[0] / damage / "train.csv", DAMAGES[damage][0]
    assert code == 1, (argv, err)
    assert err.startswith(f"soilspec {command}: {path}: line {line}"), err
