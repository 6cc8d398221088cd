"""On-disk formats: JSON model documents and CSV data tables.

Model documents are JSON objects with integer fields n, m, p, tau and
matrix fields F, C, H, S, R, each given either as one 2-D array (held
constant over the horizon) or as an array of 2-D arrays (one per step;
F, H, S, R need tau+1 entries, C needs tau).  Optional fields f, g, w
describe input sequences, either as an explicit array of vectors or as a
list of component expressions in the step variable k (e.g.
``"2.0 * sin(k) / (k + 1.0)"``), evaluated deterministically.

All CSV tables carry a header row, comma delimiters, a dot decimal
separator, LF line endings and 17 significant digits, so writing and
re-reading a table is lossless for float64 and byte-identical across
runs.  Infinities serialize as the literal tokens ``inf`` and ``-inf``.
"""

from __future__ import annotations

import ast
import csv
import json
import math

import numpy as np

from .errors import DimensionMismatch, ParseError
from .model import DescriptorModel, matrix_sequence

__all__ = [
    "format_number",
    "load_model",
    "load_model_file",
    "load_inputs_file",
    "write_table",
    "read_table",
    "measurement_rows",
]

_EXPR_NAMES = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
    "abs": abs,
    "min": min,
    "max": max,
    "pi": math.pi,
    "e": math.e,
}


def format_number(value) -> str:
    """Render one float at 17 significant digits (lossless for float64)."""
    return f"{float(value):.17g}"


# The only syntax an input expression may use: numeric constants, names,
# calls, arithmetic, comparisons and if-expressions.
_EXPR_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.IfExp,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.UnaryOp, ast.UAdd, ast.USub,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)


def _check_expression(tree, expr, name):
    """Reject syntax outside the whitelist, so that an expression reaches no
    Python object but ``k`` and the values and functions in _EXPR_NAMES."""
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            what = type(node).__name__
        elif isinstance(node, ast.Name) and node.id != "k" and node.id not in _EXPR_NAMES:
            what = f"unknown name {node.id!r}"
        elif isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            what = f"constant {node.value!r}"
        elif isinstance(node, ast.Call) and (not isinstance(node.func, ast.Name) or node.keywords):
            what = "a call of anything but a named function"
        else:
            continue
        raise ParseError(f"field {name!r}: expression {expr!r}: {what} is not allowed")


def _float_power(base, exponent):
    return float(base) ** float(exponent)


class _FloatPowers(ast.NodeTransformer):
    """Rewrite ``a ** b`` as ``_float_power(a, b)``.  An integer power is
    exact and can take unbounded time and memory (``9**9**9``); a float
    power overflows at once."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        call = ast.Call(ast.Name("_float_power", ast.Load()), [node.left, node.right], [])
        return ast.copy_location(call, node)


def _evaluate_series(exprs, count, dim, name):
    if len(exprs) != dim:
        raise ParseError(f"field {name!r} has {len(exprs)} expressions, expected {dim}")
    codes = []
    for i, expr in enumerate(exprs):
        try:
            tree = ast.parse(expr, mode="eval")
        except (SyntaxError, ValueError) as exc:
            raise ParseError(f"field {name!r}: bad expression: {exc}") from exc
        _check_expression(tree, expr, name)
        tree = ast.fix_missing_locations(_FloatPowers().visit(tree))
        codes.append(compile(tree, f"<{name}[{i}]>", "eval"))
    out = np.zeros((count, dim))
    for k in range(count):
        scope = dict(_EXPR_NAMES, k=k, _float_power=_float_power)
        for i, code in enumerate(codes):
            try:
                out[k, i] = float(eval(code, {"__builtins__": {}}, scope))
            except Exception as exc:
                raise ParseError(
                    f"field {name!r}: expression {exprs[i]!r} failed at k={k}: {exc}"
                ) from exc
    return out


def _input_series(doc, name, count, dim):
    value = doc.get(name)
    if value is None:
        return None
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        arr = _evaluate_series(value, count, dim, name)
    else:
        try:
            arr = np.asarray(value, dtype=float)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"field {name!r} is not numeric: {exc}") from exc
        if dim == 1 and arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape != (count, dim):
            raise ParseError(f"field {name!r} has shape {arr.shape}, expected {(count, dim)}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"field {name!r} has non-finite entries")
    return arr


def _inputs(doc, model):
    """The sequences f, g, w of ``doc`` for ``model``, checked in that order."""
    dims = {"f": model.m, "g": model.p, "w": model.n}
    return {name: _input_series(doc, name, model.tau + 1, dim) for name, dim in dims.items()}


def load_model(doc: dict):
    """Build ``(DescriptorModel, inputs)`` from a parsed model document.

    ``inputs`` is a dict with keys f, g, w mapping to evaluated arrays or
    None when the document does not carry that sequence.
    """
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    dims = {}
    for name in ("n", "m", "p", "tau"):
        if name not in doc:
            raise ParseError(f"missing required field {name!r}")
        value = doc[name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"field {name!r} must be an integer")
        dims[name] = value
    n, m, p, tau = dims["n"], dims["m"], dims["p"], dims["tau"]
    if min(n, m, p) < 1 or tau < 0:
        raise ParseError(f"bad dimensions n={n} m={m} p={p} tau={tau}")
    seqs = {}
    for name, count, shape in (("F", tau + 1, (m, n)), ("C", tau, (m, n)), ("H", tau + 1, (p, n)),
                               ("S", tau + 1, (m, m)), ("R", tau + 1, (p, p))):
        if name not in doc:
            raise ParseError(f"missing required field {name!r}")
        try:
            seqs[name] = matrix_sequence(doc[name], f"field {name!r}", count)
        except DimensionMismatch as exc:
            raise ParseError(str(exc)) from exc
        if len(seqs[name]) and seqs[name].shape[1:] != shape:
            raise ParseError(f"field {name!r} has {seqs[name].shape[1:]} matrices, expected {shape}")
    model = DescriptorModel(n=n, m=m, p=p, tau=tau, **seqs)
    return model, _inputs(doc, model)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def load_model_file(path):
    """Read and interpret a JSON model document; see :func:`load_model`."""
    return load_model(_load_json(path))


def load_inputs_file(path, model: DescriptorModel):
    """Read a JSON document holding only input sequences f, g, w."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: inputs document must be a JSON object")
    return _inputs(doc, model)


def write_table(path, header, rows) -> None:
    """Write one CSV table, every cell at 17 significant digits (integers exact below 2**53)."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(line % tuple(row) for row in np.asarray(rows, dtype=float).tolist())
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_table(path):
    """Read one CSV table back as ``(header, rows)`` with float cells."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError as exc:
                    raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return header, rows


def measurement_rows(path, model: DescriptorModel) -> np.ndarray:
    """Extract the measurement block y_0..y_tau from a CSV table.

    Accepts either a plain measurement table (columns k, y0..y{p-1}) or a
    full trajectory table; the y-columns must be named exactly y0..y{p-1},
    in any order, and with none named "the p columns after k" are taken.
    Rows must cover k = 0..tau exactly, with integral k and finite measurements.
    """
    header, rows = read_table(path)
    if "k" not in header:
        raise ParseError(f"{path}: no 'k' column in header {header}")
    k_col = header.index("k")
    y_cols = [
        i for i, name in enumerate(header) if name.startswith("y") and name[1:].isdigit()
    ]
    if y_cols:
        if len(y_cols) != model.p:
            raise ParseError(
                f"{path}: found {len(y_cols)} y-columns, model has p = {model.p}"
            )
        names = [f"y{i}" for i in range(model.p)]
        if {header[i] for i in y_cols} != set(names):
            raise ParseError(f"{path}: y-columns {[header[i] for i in y_cols]} are not "
                             f"y0..y{model.p - 1}")
        y_cols = [header.index(name) for name in names]
    else:
        y_cols = list(range(k_col + 1, k_col + 1 + model.p))
        if len(header) < k_col + 1 + model.p:
            raise ParseError(f"{path}: too few columns for p = {model.p}")
    want = model.tau + 1
    if len(rows) != want:
        raise ParseError(f"{path}: got {len(rows)} rows, expected k = 0..{model.tau}")
    for row in rows:
        if len(row) != len(header):
            raise ParseError(f"{path}: a row has {len(row)} cells, header has {len(header)}")
    table = np.array(rows)
    ks = table[:, k_col]
    bad = ~np.isfinite(ks) | (ks != np.floor(ks))
    if bad.any():
        raise ParseError(f"{path}: step index {float(ks[bad.argmax()])!r} is not an integer")
    first = np.zeros(want, dtype=bool)
    first[np.unique(ks, return_index=True)[1]] = True
    bad = ~first | (ks < 0) | (ks >= want)
    if bad.any():
        k = int(ks[bad.argmax()])
        raise ParseError(f"{path}: step index {k} outside 0..{model.tau} or repeated")
    y = table[:, y_cols]
    bad = ~np.all(np.isfinite(y), axis=1)
    if bad.any():
        k = int(ks[bad.argmax()])
        raise ParseError(f"{path}: non-finite measurement at k = {k}")
    ys = np.empty_like(y)
    ys[ks.astype(np.intp)] = y
    return ys
