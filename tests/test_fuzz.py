"""Fuzzed CLI inputs: mutated demonstration documents and measurement CSVs
run through ``observability``, ``estimate`` and ``compare --mode kalman``
with numpy's RuntimeWarning raised as an error.  Every run must end with
a documented exit code, print exactly one ``error:`` line when it fails,
and never escape ``cli.main`` (which would print a traceback)."""

import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from daeminimax import cli, demo
from daeminimax.model import simulate

TAU = 5
DOCUMENT = demo.model_document(TAU)
# Exits that report a result rather than an error: inconsistent data
# (estimate) and a discrepancy above tolerance (compare).
RESULT_EXITS = {"estimate": {cli.EXIT_DATA}, "compare": {cli.EXIT_ASSERTION}}
CODES = {code for _, code in cli.EXIT_CODES} | {cli.EXIT_OK}

# Every value is small: a drawn horizon or dimension never asks for a
# large allocation, and 10**400 only overflows the float range.
NUMBERS = st.one_of(st.integers(-2, 6), st.sampled_from(
    [0.5, -0.0, 1e-300, 1e308, -1e308, math.nan, math.inf, -math.inf, 10**400]))
EXPRESSIONS = st.sampled_from(
    ["k", "sin(k)", "1/0", "k ** 2", "9**9**9", "__import__('os')", "k.real", "x", "", "(",
     "0.1 if k == 0 else 0.0", "10**200 * 10**200"])
ROWS = st.lists(NUMBERS, max_size=5)
MATRICES = st.lists(ROWS, max_size=3)
VALUES = st.one_of(NUMBERS, st.none(), st.booleans(), EXPRESSIONS, st.lists(EXPRESSIONS, max_size=5),
                   ROWS, MATRICES, st.lists(MATRICES, max_size=TAU + 2), st.just({}))
KEYS = st.sampled_from(sorted(DOCUMENT) + ["extra"])
ENTRY_EDITS = st.tuples(st.just("entry"), st.sampled_from("FCHSR"),
                        st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(0, 4), NUMBERS))
DOC_EDITS = st.one_of(st.tuples(st.just("set"), KEYS, VALUES),
                      st.tuples(st.just("drop"), KEYS, st.none()), ENTRY_EDITS, ENTRY_EDITS)
CELLS = st.sampled_from(["nan", "inf", "", "x", "1e400", "2.5", "-0", "1.5e-320", "0x10", "3", "1.0"])
CSV_EDITS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, TAU + 1), st.none()),
    st.tuples(st.just("repeat"), st.integers(0, TAU + 1), st.none()),
    st.tuples(st.just("cell"), st.tuples(st.integers(0, TAU + 1), st.integers(0, 2)), CELLS),
    st.tuples(st.just("column"), st.integers(0, TAU + 1), CELLS),
)
# Mostly the default cutoff and a valid direction, so most runs reach the model.
OPTIONS = st.tuples(st.sampled_from(["0"] * 5 + ["1e-8", "0.5", "-1", "nan"]),
                    st.sampled_from(["1,0,0,0"] * 3 + ["0,1,0,0", "1,0", "nan,0,0,0", "a"]))


def _measurements() -> list:
    f, g, w = demo.augmented_inputs(TAU)
    y = simulate(demo.build_model(TAU), f, g, w).outputs[:, 0]
    return ["k,y0"] + [f"{k},{v!r}" for k, v in enumerate(y.tolist())]


MEASUREMENTS = _measurements()


def _edit_document(edits) -> dict:
    doc = json.loads(json.dumps(DOCUMENT))
    for action, key, value in edits:
        if action == "set":
            doc[key] = value
        elif action == "drop":
            doc.pop(key, None)
        else:
            # Replace the first number on the path into the matrix field.
            *path, number = value
            node = doc.get(key)
            for i in path:
                if not isinstance(node, list) or i >= len(node):
                    break
                if not isinstance(node[i], list):
                    node[i] = number
                    break
                node = node[i]
    return doc


def _edit_measurements(edits) -> str:
    lines = list(MEASUREMENTS)
    for action, at, cell in edits:
        row = at[0] if action == "cell" else at
        if row >= len(lines):
            continue
        if action == "drop":
            del lines[row]
        elif action == "repeat":
            lines.insert(row, lines[row])
        elif action == "column":
            lines[row] += "," + cell
        else:
            cells = lines[row].split(",")
            cells[min(at[1], len(cells) - 1)] = cell
            lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(doc_edits=st.lists(DOC_EDITS, max_size=3), csv_edits=st.lists(CSV_EDITS, max_size=2),
       options=OPTIONS)
def test_mutated_inputs_end_with_a_documented_exit_and_one_error_line(doc_edits, csv_edits,
                                                                      options):
    rank_tol, direction = options
    with tempfile.TemporaryDirectory() as tmp:
        spec, ys = os.path.join(tmp, "model.json"), os.path.join(tmp, "ys.csv")
        with open(spec, "w") as handle:
            json.dump(_edit_document(doc_edits), handle)
        with open(ys, "w") as handle:
            handle.write(_edit_measurements(csv_edits))
        data = ["--spec", spec, "--measurements", ys, "--rank-tol", rank_tol]
        for argv in (["observability", "--spec", spec, "--rank-tol", rank_tol],
                     ["estimate", *data, "--out", os.path.join(tmp, "est.csv"),
                      "--direction", direction],
                     ["compare", *data, "--mode", "kalman"]):
            code, err = _run(argv)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code in CODES, (argv[0], code, err)
            assert "Traceback" not in err
            if code == cli.EXIT_OK or (code in RESULT_EXITS.get(argv[0], ()) and not errors):
                assert not errors, (argv[0], err)
            else:
                assert len(errors) == 1, (argv[0], code, err)
