"""JSON model documents and deterministic CSV tables."""

import json
import math

import numpy as np
import pytest

from daeminimax import demo, formats
from daeminimax.errors import ParseError
from daeminimax.model import validate


def scalar_doc(tau=1):
    return {
        "n": 1, "m": 1, "p": 1, "tau": tau,
        "F": [[1.0]], "C": [[1.0]], "H": [[1.0]],
        "S": [[1.0]], "R": [[1.0]],
    }


# --- number formatting ------------------------------------------------

def test_format_number_is_17_significant_digits():
    assert formats.format_number(0.1) == "0.10000000000000001"
    assert formats.format_number(1.0) == "1"
    assert formats.format_number(-2.5) == "-2.5"


def test_format_number_roundtrips_float64():
    rng = np.random.default_rng(7)
    for value in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(formats.format_number(value)) == value


def test_format_number_infinities():
    assert formats.format_number(math.inf) == "inf"
    assert formats.format_number(-math.inf) == "-inf"


# --- CSV tables -------------------------------------------------------

def test_write_table_roundtrip_and_layout(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[0, 0.1, math.inf], [1, -2.5e-17, -math.inf]]
    formats.write_table(path, ["k", "a", "b"], rows)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[1] == "0,0.10000000000000001,inf"
    header, back = formats.read_table(path)
    assert header == ["k", "a", "b"]
    assert back[0][1] == 0.1 and back[1][1] == -2.5e-17
    assert math.isinf(back[0][2]) and back[1][2] == -math.inf


def test_write_table_byte_identical_across_runs(tmp_path):
    rng = np.random.default_rng(11)
    rows = [[k] + list(rng.standard_normal(3)) for k in range(20)]
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    formats.write_table(first, ["k", "a", "b", "c"], rows)
    formats.write_table(second, ["k", "a", "b", "c"], rows)
    assert first.read_bytes() == second.read_bytes()


def test_write_table_pins_the_bytes_of_every_cell_kind(tmp_path):
    path = tmp_path / "kinds.csv"
    rows = [
        [3, np.int64(-7), 0, 1, 2**53],
        [-0.0, 0.1, 1e-300, math.nan, math.inf],
        [np.float64(-0.0), np.float64(math.nan), -math.inf, np.int64(0), np.int64(1)],
    ]
    formats.write_table(path, ["k", "a", "b", "c", "d"], rows)
    assert path.read_bytes() == (
        b"k,a,b,c,d\n"
        b"3,-7,0,1,9007199254740992\n"
        b"-0,0.10000000000000001,1e-300,nan,inf\n"
        b"-0,nan,-inf,0,1\n"
    )


def test_read_table_reports_bad_cell_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,y0\n0,1.0\n1,oops\n")
    with pytest.raises(ParseError, match="line 3"):
        formats.read_table(path)


def test_read_table_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        formats.read_table(path)


def test_write_table_unwritable_path_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="No such file"):
        formats.write_table(tmp_path / "missing" / "out.csv", ["k"], [[0]])


# --- model documents --------------------------------------------------

def test_load_model_constant_matrices():
    model, inputs = formats.load_model(scalar_doc(tau=3))
    assert (model.n, model.m, model.p, model.tau) == (1, 1, 1, 3)
    assert len(model.F) == 4 and len(model.C) == 3
    assert all(inputs[key] is None for key in ("f", "g", "w"))


def test_load_model_per_step_matrices():
    doc = scalar_doc(tau=2)
    doc["F"] = [[[1.0]], [[2.0]], [[3.0]]]
    model, _ = formats.load_model(doc)
    assert [float(Fk[0, 0]) for Fk in model.F] == [1.0, 2.0, 3.0]


def test_load_model_explicit_input_arrays():
    doc = scalar_doc(tau=1)
    doc["f"] = [[0.5], [0.25]]
    doc["g"] = [1.0, 2.0]
    model, inputs = formats.load_model(doc)
    assert inputs["f"].shape == (2, 1) and inputs["f"][1, 0] == 0.25
    assert inputs["g"].shape == (2, 1) and inputs["g"][1, 0] == 2.0
    assert inputs["w"] is None


def test_load_model_expression_inputs():
    doc = scalar_doc(tau=4)
    doc["g"] = ["2.0 * sin(k) / (k + 1.0)"]
    _, inputs = formats.load_model(doc)
    expected = [2.0 * math.sin(k) / (k + 1.0) for k in range(5)]
    assert np.allclose(inputs["g"][:, 0], expected, atol=0, rtol=0)


def test_load_model_rejects_unknown_expression_name():
    doc = scalar_doc(tau=1)
    doc["g"] = ["gamma(k)"]
    with pytest.raises(ParseError, match="gamma"):
        formats.load_model(doc)


def test_load_model_rejects_bad_shapes_and_fields():
    doc = scalar_doc(tau=1)
    doc["H"] = [[1.0, 0.0]]
    with pytest.raises(ParseError, match="'H'"):
        formats.load_model(doc)
    doc = scalar_doc(tau=1)
    del doc["S"]
    with pytest.raises(ParseError, match="'S'"):
        formats.load_model(doc)
    doc = scalar_doc(tau=1)
    doc["tau"] = 1.5
    with pytest.raises(ParseError, match="'tau'"):
        formats.load_model(doc)


def test_load_model_holds_a_long_constant_document_in_constant_memory():
    # 110 bytes with tau = 2,000,000: each field is one matrix with stride 0.
    doc = scalar_doc(tau=2_000_000)
    assert len(json.dumps(doc)) == 110
    model, _ = formats.load_model(doc)
    assert len(model.F) == 2_000_001 and len(model.C) == 2_000_000
    for name in "FCHSR":
        seq = getattr(model, name)
        assert seq.strides[0] == 0 and not seq.flags.writeable
    assert validate(model).ok


def test_load_model_file_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n": 1,\n  "m": 1,\n}\n')
    with pytest.raises(ParseError, match="line 4"):
        formats.load_model_file(path)


def test_demo_document_loads(tmp_path):
    doc = demo.model_document(tau=12)
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(doc))
    model, inputs = formats.load_model_file(path)
    reference = demo.build_model(tau=12)
    assert model.tau == 12 and model.n == reference.n
    for built, ref in zip(model.F, reference.F):
        assert np.array_equal(built, ref)
    for built, ref in zip(model.R, reference.R):
        assert np.allclose(built, ref, atol=1e-15, rtol=0)
    assert inputs["g"] is not None and inputs["f"] is not None


def test_load_inputs_file(tmp_path):
    model, _ = formats.load_model(scalar_doc(tau=2))
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"g": ["cos(k)"], "f": [[0.0], [1.0], [2.0]]}))
    inputs = formats.load_inputs_file(path, model)
    assert np.allclose(inputs["g"][:, 0], [math.cos(k) for k in range(3)])
    assert inputs["f"][2, 0] == 2.0
    assert inputs["w"] is None


# --- measurement extraction -------------------------------------------

def test_measurement_rows_by_column_name(tmp_path):
    model, _ = formats.load_model(scalar_doc(tau=2))
    path = tmp_path / "ys.csv"
    formats.write_table(path, ["k", "extra", "y0"], [[2, 9.0, 0.3], [0, 9.0, 0.1], [1, 9.0, 0.2]])
    ys = formats.measurement_rows(path, model)
    assert np.allclose(ys[:, 0], [0.1, 0.2, 0.3], atol=0, rtol=0)


def test_measurement_rows_positional_fallback(tmp_path):
    model, _ = formats.load_model(scalar_doc(tau=1))
    path = tmp_path / "ys.csv"
    formats.write_table(path, ["k", "value"], [[0, 1.0], [1, 2.0]])
    ys = formats.measurement_rows(path, model)
    assert list(ys[:, 0]) == [1.0, 2.0]


def test_measurement_rows_rejects_duplicates_and_gaps(tmp_path):
    model, _ = formats.load_model(scalar_doc(tau=1))
    dup = tmp_path / "dup.csv"
    formats.write_table(dup, ["k", "y0"], [[0, 1.0], [0, 2.0]])
    with pytest.raises(ParseError, match="repeated"):
        formats.measurement_rows(dup, model)
    short = tmp_path / "short.csv"
    formats.write_table(short, ["k", "y0"], [[0, 1.0]])
    with pytest.raises(ParseError, match="expected k = 0..1"):
        formats.measurement_rows(short, model)


def test_measurement_rows_wrong_y_count(tmp_path):
    model, _ = formats.load_model(scalar_doc(tau=0))
    path = tmp_path / "ys.csv"
    formats.write_table(path, ["k", "y0", "y1"], [[0, 1.0, 2.0]])
    with pytest.raises(ParseError, match="y-columns"):
        formats.measurement_rows(path, model)


def test_measurement_rows_reorders_y_columns_by_name(tmp_path):
    model, _ = formats.load_model(dict(scalar_doc(tau=0), p=2, H=[[1.0], [1.0]],
                                       R=[[1.0, 0.0], [0.0, 1.0]]))
    path = tmp_path / "ys.csv"
    formats.write_table(path, ["k", "y1", "y0"], [[0, 2.0, 1.0]])
    assert formats.measurement_rows(path, model).tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("header", [["k", "y0", "y0"], ["k", "y0", "y5"], ["k", "y00", "y1"]],
                         ids=["repeated", "gap", "padded"])
def test_measurement_rows_takes_only_the_names_y0_to_yp(tmp_path, header):
    model, _ = formats.load_model(dict(scalar_doc(tau=0), p=2, H=[[1.0], [1.0]],
                                       R=[[1.0, 0.0], [0.0, 1.0]]))
    path = tmp_path / "ys.csv"
    formats.write_table(path, header, [[0, 1.0, 2.0]])
    with pytest.raises(ParseError) as info:
        formats.measurement_rows(path, model)
    assert str(info.value) == f"{path}: y-columns {header[1:]} are not y0..y1"


def test_undecodable_files_raise_parse_error(tmp_path):
    model, _ = formats.load_model(scalar_doc(tau=0))
    path = tmp_path / "bad"
    path.write_bytes(b'{"f": [[1.0]]}\xff')
    for read in (formats.load_model_file, lambda p: formats.load_inputs_file(p, model),
                 formats.read_table, lambda p: formats.measurement_rows(p, model)):
        with pytest.raises(ParseError, match="can't decode byte 0xff"):
            read(path)


@pytest.mark.parametrize("body, message", [
    ("k,y0\n0,1.0\n1.7,1.0\n", "step index 1.7 is not an integer"),
    ("k,y0\n0,1.0\nnan,1.0\n", "step index nan is not an integer"),
    ("k,y0\n0,1.0\n-inf,1.0\n", "step index -inf is not an integer"),
    ("k,y0\n0,1.0\n2,1.0\n", "step index 2 outside 0..1 or repeated"),
    ("k,y0\n1,1.0\n1,1.0\n", "step index 1 outside 0..1 or repeated"),
    ("k,y0\n1,1.0\n0,nan\n", "non-finite measurement at k = 0"),
    ("k,y0\n0,1.0\n1\n", "a row has 1 cells, header has 2"),
], ids=["fraction", "nan", "inf", "outside", "repeated", "y-nan", "short-row"])
def test_measurement_rows_error_messages(tmp_path, body, message):
    model, _ = formats.load_model(scalar_doc(tau=1))
    path = tmp_path / "ys.csv"
    path.write_text(body)
    with pytest.raises(ParseError) as info:
        formats.measurement_rows(path, model)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("g", [["1e308 * 10"], [1.0, float("inf")], [float("nan"), 0.0]],
                         ids=["expression", "inf", "nan"])
def test_load_model_rejects_non_finite_inputs(g):
    doc = scalar_doc(tau=1)
    doc["g"] = g
    with pytest.raises(ParseError, match="'g' has non-finite entries"):
        formats.load_model(doc)


def test_load_model_rejects_an_input_beyond_the_float_range():
    doc = scalar_doc(tau=1)
    doc["g"] = [1.0, 10**400]
    with pytest.raises(ParseError, match="field 'g' is not numeric"):
        formats.load_model(doc)
