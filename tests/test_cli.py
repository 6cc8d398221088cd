"""End-to-end command-line behavior, run in-process."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from conftest import CHOLESKY_REJECTED_WEIGHT, feasible_data, random_model
from daeminimax import batch, cli, demo, errors, estimator, kalman
from daeminimax.formats import load_model_file, measurement_rows, read_table, write_table
from daeminimax.model import validate


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def scalar_doc(tau=1):
    return {
        "n": 1, "m": 1, "p": 1, "tau": tau,
        "F": [[1.0]], "C": [[1.0]], "H": [[1.0]],
        "S": [[1.0]], "R": [[1.0]],
    }


@pytest.fixture
def scalar_setup(tmp_path):
    spec = write_json(tmp_path / "model.json", scalar_doc(tau=1))
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[0, 1.0], [1, 1.0]])
    return spec, str(ys)


def column(header, rows, name):
    return [row[header.index(name)] for row in rows]


# --- estimate ----------------------------------------------------------

def test_estimate_writes_worked_values(scalar_setup, tmp_path, capsys):
    spec, ys = scalar_setup
    out = tmp_path / "est.csv"
    rc = cli.main(["estimate", "--spec", spec, "--measurements", ys,
                   "--out", str(out), "--direction", "1"])
    assert rc == 0
    header, rows = read_table(out)
    assert column(header, rows, "k") == [0.0, 1.0]
    final = rows[1]
    assert final[header.index("xhat0")] == pytest.approx(0.8, abs=1e-12)
    assert final[header.index("beta")] == pytest.approx(0.4, abs=1e-12)
    radius = math.sqrt(0.24)
    assert final[header.index("dir0_low")] == pytest.approx(0.8 - radius, abs=1e-12)
    assert final[header.index("dir0_high")] == pytest.approx(0.8 + radius, abs=1e-12)
    assert final[header.index("dir0_observable")] == 1.0
    summary = json.loads(capsys.readouterr().out)
    assert summary["consistent"] is True
    assert summary["noncausality_index"] == 0
    assert summary["final_beta"] == pytest.approx(0.4, abs=1e-12)


def test_estimate_marks_unobservable_direction(tmp_path):
    # Second coordinate never observed: F = H = (1 0), C = 0.
    doc = {
        "n": 2, "m": 1, "p": 1, "tau": 1,
        "F": [[1.0, 0.0]], "C": [[0.0, 0.0]], "H": [[1.0, 0.0]],
        "S": [[1.0]], "R": [[1.0]],
    }
    spec = write_json(tmp_path / "model.json", doc)
    ys = tmp_path / "ys.csv"
    # Small measurements keep the data inside the unit uncertainty budget.
    write_table(ys, ["k", "y0"], [[0, 0.3], [1, 0.4]])
    out = tmp_path / "est.csv"
    rc = cli.main(["estimate", "--spec", spec, "--measurements", str(ys),
                   "--out", str(out), "--direction", "0,1", "--direction", "1,0"])
    assert rc == 0
    header, rows = read_table(out)
    assert column(header, rows, "dir0_low") == [-math.inf, -math.inf]
    assert column(header, rows, "dir0_high") == [math.inf, math.inf]
    assert column(header, rows, "dir0_observable") == [0.0, 0.0]
    assert all(math.isfinite(v) for v in column(header, rows, "dir1_low"))
    assert column(header, rows, "dir1_observable") == [1.0, 1.0]
    raw = out.read_bytes().decode()
    assert "inf" in raw and "\r" not in raw


def test_estimate_bounds_a_tilted_direction_at_no_cutoff(tmp_path, capsys):
    # x_2 is never weighted or measured: (1, 0.5) has a free component, so it
    # is unbounded however coarse the run's cutoff.
    doc = {
        "n": 2, "m": 1, "p": 1, "tau": 3,
        "F": [[1.0, 0.0]], "C": [[1.0, 0.0]], "H": [[1.0, 0.0]],
        "S": [[1.0]], "R": [[1.0]],
    }
    spec = write_json(tmp_path / "model.json", doc)
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[0, 0.3], [1, 0.1], [2, 0.2], [3, 0.1]])
    out = tmp_path / "est.csv"
    rc = cli.main(["estimate", "--rank-tol", "0.5", "--spec", spec, "--measurements", str(ys),
                   "--out", str(out), "--direction", "1,0.5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["consistent"] is True
    header, rows = read_table(out)
    assert column(header, rows, "dir0_low") == [-math.inf] * 4
    assert column(header, rows, "dir0_high") == [math.inf] * 4
    assert column(header, rows, "dir0_observable") == [0.0] * 4


def test_estimate_inconsistent_data_exits_4_but_writes(tmp_path, capsys):
    spec = write_json(tmp_path / "model.json", scalar_doc(tau=0))
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[0, 100.0]])
    out = tmp_path / "est.csv"
    rc = cli.main(["estimate", "--spec", spec, "--measurements", str(ys),
                   "--out", str(out), "--direction", "1"])
    assert rc == 4
    assert out.exists()
    header, rows = read_table(out)
    assert rows[0][header.index("beta")] < -1e-9
    assert math.isnan(rows[0][header.index("dir0_low")])
    assert rows[0][header.index("dir0_observable")] == 0.0
    summary = json.loads(capsys.readouterr().out)
    assert summary["consistent"] is False


def test_estimate_rejects_bad_direction(scalar_setup, tmp_path, capsys):
    spec, ys = scalar_setup
    rc = cli.main(["estimate", "--spec", spec, "--measurements", ys,
                   "--out", str(tmp_path / "est.csv"), "--direction", "1,2"])
    assert rc == 2
    assert "direction" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_estimate_rejects_nonfinite_direction_before_any_work(scalar_setup, tmp_path, capsys,
                                                              text):
    spec, ys = scalar_setup
    out = tmp_path / "est.csv"
    rc = cli.main(["estimate", "--spec", spec, "--measurements", ys,
                   "--out", str(out), f"--direction={text}"])
    assert rc == 2
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_estimate_rows_equal_per_state_queries(tmp_path):
    # Noncausal (m + p < n), so every P_k is singular and e_0 is unobservable.
    rng = np.random.default_rng(46)
    model = random_model(rng, n=4, m=2, p=1, tau=6)
    ys = feasible_data(rng, model)[3]
    doc = {"n": 4, "m": 2, "p": 1, "tau": 6,
           **{name: [mat.tolist() for mat in getattr(model, name)] for name in "FCHSR"}}
    spec = write_json(tmp_path / "model.json", doc)
    meas = tmp_path / "ys.csv"
    write_table(meas, ["k", "y0"], [[k, y[0]] for k, y in enumerate(ys)])
    loaded, _ = load_model_file(spec)
    states = estimator.run(loaded, measurement_rows(meas, loaded))
    directions = [np.eye(4)[0], estimator.estimate(states[-1]).basis[:, 0]]
    out = tmp_path / "est.csv"
    argv = ["estimate", "--spec", spec, "--measurements", str(meas), "--out", str(out)]
    for ell in directions:
        argv.append("--direction=" + ",".join(repr(float(v)) for v in ell))
    assert cli.main(argv) == 0
    _, rows = read_table(out)
    expected = []
    for state in states:
        report = estimator.estimate(state)
        row = [state.k, *report.xhat, report.beta]
        for ell in directions:
            value, radius = float(ell @ report.xhat), estimator.ell_error(state, ell)
            row += [value, value - radius, value + radius, float(radius < math.inf)]
        expected.append(row)
    assert rows == expected
    assert math.isinf(rows[-1][7]) and math.isfinite(rows[-1][11])


@pytest.mark.parametrize("body", [
    "k,y0\n0,1.0\nnan,1.0\n",   # non-finite step index
    "k,y0\n0,1.0\ninf,1.0\n",
    "k,y0\n0,1.0\n1.7,1.0\n",   # fractional step index
    "k,y0\n0,1.0\n1,nan\n",     # non-finite measurement
    "k,y0\n0,1.0\n1,-inf\n",
    "k,y0\n0,1.0\n1\n",         # short row
], ids=["k-nan", "k-inf", "k-fraction", "y-nan", "y-inf", "short-row"])
def test_estimate_bad_measurement_cell_exits_2(scalar_setup, tmp_path, capsys, body):
    spec, _ = scalar_setup
    ys = tmp_path / "bad.csv"
    ys.write_text(body)
    rc = cli.main(["estimate", "--spec", spec, "--measurements", str(ys),
                   "--out", str(tmp_path / "est.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("expr", [
    "(1).__class__.__mro__.__len__()",
    "[1.0][0]",
    "(lambda: 1.0)()",
    "gamma(k)",
    "__import__('os')",
    "9**9**9",                              # exact integer powers would not finish
    "floor(9.0)**floor(9.0)**floor(9.0)",
    "10**200 * 10**200",                    # overflows to inf
], ids=["attribute", "subscript", "lambda", "unknown-name", "builtin",
        "power-tower", "floor-power-tower", "non-finite"])
def test_expression_outside_whitelist_exits_2(tmp_path, capsys, expr):
    doc = scalar_doc(tau=1)
    doc["g"] = [expr]
    rc = cli.main(["observability", "--spec", write_json(tmp_path / "model.json", doc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# --- simulate ----------------------------------------------------------

def test_simulate_demo_document(tmp_path, capsys):
    spec = write_json(tmp_path / "demo.json", demo.model_document(tau=50))
    out = tmp_path / "traj.csv"
    rc = cli.main(["simulate", "--spec", spec, "--out", str(out)])
    assert rc == 0
    header, rows = read_table(out)
    assert len(rows) == 51
    q, y = demo.plant_trajectory(50)
    assert column(header, rows, "x0") == pytest.approx(list(q[:, 0]), abs=1e-12)
    assert column(header, rows, "y0") == pytest.approx(list(y), abs=1e-12)
    assert "budget" in capsys.readouterr().out


def test_simulate_warns_when_budget_exceeded(tmp_path, capsys):
    spec = write_json(tmp_path / "model.json", scalar_doc(tau=0))
    inputs = write_json(tmp_path / "inputs.json", {"f": [[3.0]]})
    rc = cli.main(["simulate", "--spec", spec, "--inputs", inputs,
                   "--out", str(tmp_path / "traj.csv")])
    assert rc == 0
    assert "exceeds 1" in capsys.readouterr().err


def test_simulate_inconsistent_dynamics_exits_3(tmp_path, capsys):
    # Second dynamics row reads 0 = f[1], violated at k = 1.
    doc = {
        "n": 1, "m": 2, "p": 1, "tau": 1,
        "F": [[1.0], [0.0]], "C": [[1.0], [0.0]], "H": [[1.0]],
        "S": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
    }
    spec = write_json(tmp_path / "model.json", doc)
    inputs = write_json(tmp_path / "inputs.json", {"f": [[1.0, 0.0], [0.0, 1.0]]})
    rc = cli.main(["simulate", "--spec", spec, "--inputs", inputs,
                   "--out", str(tmp_path / "traj.csv")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rank_tol, code", [("0", 0), ("0.5", 3)])
def test_simulate_applies_rank_tol_to_its_pseudoinverse(tmp_path, capsys, rank_tol, code):
    # At a cutoff of 0.5, pinv(F_0) drops the singular value 0.3 and leaves
    # a residual of 0.5 in the second dynamics row.
    doc = {
        "n": 2, "m": 2, "p": 1, "tau": 1,
        "F": [[1.0, 0.0], [0.0, 0.3]], "C": [[1.0, 0.0], [0.0, 1.0]], "H": [[1.0, 0.0]],
        "S": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
        "f": [[0.5, 0.5], [0.0, 0.0]],
    }
    spec = write_json(tmp_path / "model.json", doc)
    rc = cli.main(["simulate", "--spec", spec, "--out", str(tmp_path / "traj.csv"),
                   "--rank-tol", rank_tol])
    assert rc == code
    assert ("residual" in capsys.readouterr().err) == (code == 3)


# A 3-state model whose constant S Cholesky rejects (smallest eigenvalue
# 7.5e-17), over the horizon of the document it overrides.
REJECTED_DOC = {"n": 3, "m": 3, "p": 1, "F": np.eye(3).tolist(), "C": np.eye(3).tolist(),
                "H": [[1.0, 0.0, 0.0]], "S": CHOLESKY_REJECTED_WEIGHT.tolist(), "R": [[1.0]],
                "f": None, "g": None, "w": None}


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "traj.csv"], ["estimate", "--out", "est.csv"], ["observability"],
    ["compare", "--mode", "batch"], ["compare", "--mode", "kalman"],
], ids=["simulate", "estimate", "observability", "compare-batch", "compare-kalman"])
def test_every_command_refuses_a_weight_cholesky_rejects(tmp_path, capsys, command, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = write_json(tmp_path / "model.json", dict(scalar_doc(tau=3), **REJECTED_DOC))
    write_table(tmp_path / "ys.csv", ["k", "y0"], [[k, 0.0] for k in range(4)])
    data = [] if command[0] in ("simulate", "observability") else ["--measurements", "ys.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", errors.AsymmetryWarning)
        rc = cli.main(command[:1] + ["--spec", spec] + data + command[1:])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {spec}: invalid model: S_0..3 not positive "
                                       "definite (min eigenvalue 7.48e-17)\n")


@pytest.mark.parametrize("args, body", [
    (["observability", "--spec", "model.json"], None),
    (["estimate", "--spec", "model.json", "--measurements", "ys.csv", "--out", "est.csv"],
     "k,y0\n0,1.0\n"),
], ids=["spec", "measurements"])
def test_undecodable_file_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, args, body):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "model.json", scalar_doc(tau=0))
    bad = tmp_path / ("model.json" if body is None else "ys.csv")
    bad.write_bytes((body or json.dumps(scalar_doc(tau=0))).encode() + b"\xff\n")
    rc = cli.main(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad.name}: ") and err.count("\n") == 1
    assert "can't decode byte 0xff" in err


def test_malformed_json_exits_2_with_line(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text('{\n "n": 1,\n}\n')
    rc = cli.main(["observability", "--spec", str(spec)])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"tau": 10**30}, "field 'F': cannot hold"),
    ({"F": [[10**400, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]},
     "field 'F': an entry is beyond the float range"),
    ({"S": [[1.0, 1e308], [1e308, 1.0]]}, "S_0..5 not positive definite"),
    (REJECTED_DOC, "S_0..5 not positive definite (min eigenvalue 7.48e-17)"),
], ids=["huge-tau", "huge-entry", "indefinite-huge-weight", "cholesky-rejected-weight"])
def test_malformed_document_exits_2_with_one_error_line(tmp_path, capsys, override, message):
    # pytest turns a RuntimeWarning into an error, so an overflow fails here.
    spec = write_json(tmp_path / "model.json", dict(demo.model_document(5), **override))
    rc = cli.main(["observability", "--spec", spec])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_long_constant_bad_weight_makes_a_short_error_line(tmp_path, capsys):
    doc = dict(scalar_doc(tau=2_000_000), S=[[-1.0]])
    rc = cli.main(["observability", "--spec", write_json(tmp_path / "model.json", doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.endswith(": invalid model: S_0..2000000 not positive definite "
                        "(min eigenvalue -1)\n")


OVERFLOWS = [
    # G = W C overflows.
    ("estimate", {"C": [[1e300]], "S": [[1e300]]}, "step 1: a factor of P overflows"),
    # The factor of P_0 is finite, its square is not.
    ("estimate", {"F": [[1e200]]}, "step 0: a factor of P overflows"),
    # F_0'S_0 F_0 overflows.
    ("kalman", {"F": [[1e200]]}, "step 0: the information matrix overflows"),
    # inv(S_2) + C_1 P_1 C_1' overflows.
    ("kalman", {"C": [[1e300]], "S": [[1e300]]}, "step 2: the gain matrix overflows"),
]
# The override's index and the step that breaks down.
OVERFLOW_IDS = ["override0-1", "override1-0", "kalman-override1-0", "kalman-override0-2"]


def overflow_argv(tmp_path, command, override):
    spec = write_json(tmp_path / "model.json", dict(scalar_doc(tau=2), **override))
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[0, 0.0], [1, 0.0], [2, 0.0]])
    files = ["--spec", spec, "--measurements", str(ys)]
    if command == "kalman":
        return ["compare", *files, "--mode", "kalman"]
    return ["estimate", *files, "--out", str(tmp_path / "est.csv")]


@pytest.mark.parametrize("command, override, message", OVERFLOWS, ids=OVERFLOW_IDS)
def test_estimate_overflowing_factor_exits_1(tmp_path, capsys, command, override, message):
    # A breakdown with exit 1, never a traceback.
    argv = overflow_argv(tmp_path, command, override)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = cli.main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, override, message", OVERFLOWS, ids=OVERFLOW_IDS)
def test_estimate_overflowing_factor_warns_nothing(tmp_path, capsys, command, override, message):
    # The breakdown message is all that reaches stderr: no numpy warning.
    argv = overflow_argv(tmp_path, command, override)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# --- observability -----------------------------------------------------

def test_observability_scalar(tmp_path, capsys):
    spec = write_json(tmp_path / "model.json", scalar_doc(tau=2))
    rc = cli.main(["observability", "--spec", spec])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,rank,noncausality_index"
    assert out[1:4] == ["0,1,0", "1,1,0", "2,1,0"]
    assert any("orthonormal" in line for line in out)


def test_observability_demo_index_schedule(tmp_path, capsys):
    spec = write_json(tmp_path / "demo.json", demo.model_document(tau=5))
    rc = cli.main(["observability", "--spec", spec])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "0,2,2"
    assert out[2:7] == [f"{k},1,3" for k in range(1, 6)]


# --- compare -----------------------------------------------------------

def test_compare_batch_agrees(scalar_setup, capsys):
    spec, ys = scalar_setup
    rc = cli.main(["compare", "--spec", spec, "--measurements", ys,
                   "--mode", "batch"])
    assert rc == 0
    out = capsys.readouterr().out
    last = out.strip().splitlines()[-1]
    assert last.startswith("max_discrepancy,")
    assert float(last.split(",")[1]) <= 1e-8


def test_compare_kalman_agrees(scalar_setup, capsys):
    spec, ys = scalar_setup
    rc = cli.main(["compare", "--spec", spec, "--measurements", ys,
                   "--mode", "kalman"])
    assert rc == 0
    assert "max_discrepancy" in capsys.readouterr().out


def test_compare_kalman_fails_on_a_nan_discrepancy(scalar_setup, capsys, monkeypatch):
    run_kalman = kalman.run_kalman

    def poisoned(*args, **kwargs):
        states = run_kalman(*args, **kwargs)
        states[0] = dataclasses.replace(states[0], x=np.full_like(states[0].x, math.nan))
        return states

    monkeypatch.setattr(kalman, "run_kalman", poisoned)
    spec, ys = scalar_setup
    assert cli.main(["compare", "--spec", spec, "--measurements", ys, "--mode", "kalman"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "max_discrepancy,nan"


def test_compare_batch_fails_on_a_nan_discrepancy(scalar_setup, capsys, monkeypatch):
    solve, calls = batch.solve, []
    monkeypatch.setattr(batch, "_solvers", lambda: 1)  # calls in horizon order

    def poisoned(*args, **kwargs):
        solution = solve(*args, **kwargs)
        calls.append(solution)
        return dataclasses.replace(solution, minI=math.nan) if len(calls) == 1 else solution

    monkeypatch.setattr(batch, "solve", poisoned)
    spec, ys = scalar_setup
    assert cli.main(["compare", "--spec", spec, "--measurements", ys, "--mode", "batch"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(calls) == 2 and out[-1] == "max_discrepancy,nan"


def test_compare_kalman_regularity_violation_exits_5(tmp_path, capsys):
    spec = write_json(tmp_path / "demo.json", demo.model_document(tau=3))
    traj = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--spec", spec, "--out", str(traj)]) == 0
    capsys.readouterr()
    rc = cli.main(["compare", "--spec", spec, "--measurements", str(traj),
                   "--mode", "kalman"])
    assert rc == 5
    assert "regularity violated" in capsys.readouterr().err


def test_compare_kalman_rejects_an_irregular_model_before_the_recursion(
        tmp_path, capsys, monkeypatch):
    spec = write_json(tmp_path / "demo.json", demo.model_document(tau=3))
    traj = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--spec", spec, "--out", str(traj)]) == 0
    argv = ["compare", "--spec", spec, "--measurements", str(traj), "--mode", "kalman"]
    capsys.readouterr()
    assert cli.main(argv) == 5
    expected = capsys.readouterr().err

    def no_recursion(*args, **kwargs):
        raise AssertionError("estimator.run called on an irregular model")

    monkeypatch.setattr(estimator, "run", no_recursion)
    assert cli.main(argv) == 5
    assert capsys.readouterr().err == expected
    assert expected.startswith("error: regularity violated at steps [")


IRREGULAR_AT_0_2_5 = {"n": 1, "m": 1, "p": 1, "tau": 6, "F": [[0.0]], "C": [[1.0]],
                      "H": [[[0.0 if k in (0, 2, 5) else 1.0]] for k in range(7)],
                      "S": [[1.0]], "R": [[1.0]]}


@pytest.mark.parametrize("doc, steps", [(demo.model_document(300), "0..300"),
                                        (IRREGULAR_AT_0_2_5, "0, 2, 5")])
def test_compare_kalman_names_runs_of_irregular_steps(tmp_path, capsys, doc, steps):
    spec = write_json(tmp_path / "model.json", doc)
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[k, 0.5] for k in range(doc["tau"] + 1)])
    rc = cli.main(["compare", "--spec", spec, "--measurements", str(ys), "--mode", "kalman"])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: regularity violated at steps [{steps}]: rank [F_k; H_k] < n\n"


# Cholesky accepts this weight (eigenvalues near 1, 1e-8 and 7e-17), and
# with F = C = I, H = [1 0 0] the model is regular, yet inv rejects the
# Kalman reference's gain matrix at step 1.
SINGULAR_GAIN_WEIGHT = [
    [0.5994265438304082, -0.011830940304745598, 0.4898718108410314],
    [-0.011830940304745598, 0.0002335181071837424, -0.009668650264706837],
    [0.4898718108410314, -0.009668650264706837, 0.4003399480624082]]


def test_compare_kalman_singular_gain_is_a_breakdown(tmp_path, capsys):
    eye = np.eye(3).tolist()
    doc = {"n": 3, "m": 3, "p": 1, "tau": 3, "F": eye, "C": eye, "H": [[1.0, 0.0, 0.0]],
           "S": SINGULAR_GAIN_WEIGHT, "R": [[1.0]]}
    spec = write_json(tmp_path / "model.json", doc)
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[k, 0.0] for k in range(4)])
    model, _ = load_model_file(spec)
    assert validate(model).ok and all(kalman.check_regularity(model))
    files = ["--spec", spec, "--measurements", str(ys)]
    assert cli.main(["compare", *files, "--mode", "batch"]) == 0
    capsys.readouterr()
    # Past regularity and the weights, a singular gain is a breakdown (exit
    # 1), not a regularity violation (exit 5).
    assert cli.main(["compare", *files, "--mode", "kalman"]) == 1
    assert capsys.readouterr().err == "error: step 1: the gain matrix is numerically singular\n"


def test_reproduce_example_names_runs_of_the_noncausality_index(tmp_path, capsys):
    assert cli.main(["reproduce-example", "--out-dir", str(tmp_path)]) == 0
    assert "\nnoncausality index: k=0 -> 2; k=1..40 -> 3\n" in capsys.readouterr().out


def test_compare_kalman_decides_each_step_regularity_once(tmp_path, capsys, monkeypatch):
    tau = 5
    spec = write_json(tmp_path / "model.json", scalar_doc(tau=tau))
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[k, 0.1 * k] for k in range(tau + 1)])
    numerical_rank, calls = kalman.numerical_rank, []

    def counted(*args, **kwargs):
        calls.append(args)
        return numerical_rank(*args, **kwargs)

    monkeypatch.setattr(kalman, "numerical_rank", counted)
    rc = cli.main(["compare", "--spec", spec, "--measurements", str(ys), "--mode", "kalman"])
    assert rc == 0
    # One stacked decision over the runs of equal [F_k; H_k]; the constant
    # model has one run.
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("k,state_discrepancy\n")


def test_compare_batch_assembles_once_and_solves_each_horizon(tmp_path, capsys, monkeypatch):
    tau = 4
    spec = write_json(tmp_path / "model.json", scalar_doc(tau=tau))
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[k, 0.1 * k] for k in range(tau + 1)])
    assemble, solve, calls = batch.assemble, batch.solve, []
    monkeypatch.setattr(batch, "_solvers", lambda: 1)  # calls in horizon order
    monkeypatch.setattr(batch, "assemble", lambda *a: calls.append("assemble") or assemble(*a))
    monkeypatch.setattr(batch, "solve", lambda *a: calls.append(a[0].model.tau) or solve(*a))
    rc = cli.main(["compare", "--spec", spec, "--measurements", str(ys), "--mode", "batch"])
    assert rc == 0
    assert calls == ["assemble", 0, 1, 2, 3, 4]
    assert len(capsys.readouterr().out.splitlines()) == tau + 3


def test_compare_batch_reports_a_failed_horizon_alike_on_one_and_two_solvers(
        tmp_path, capsys, monkeypatch):
    tau = 6
    spec = write_json(tmp_path / "model.json", scalar_doc(tau=tau))
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[k, 0.1 * k] for k in range(tau + 1)])
    solve = batch.solve

    def fails_at_horizon_3(problem, rank_tol=0.0):
        if problem.model.tau == 3:
            raise errors.NumericalBreakdown("batch solve produced non-finite values")
        return solve(problem, rank_tol)

    monkeypatch.setattr(batch, "solve", fails_at_horizon_3)
    results = []
    for solvers in (1, 2):
        monkeypatch.setattr(batch, "_solvers", lambda: solvers)
        rc = cli.main(["compare", "--spec", spec, "--measurements", str(ys), "--mode", "batch"])
        results.append((rc, capsys.readouterr()))
    assert results[0] == results[1]
    rc, captured = results[0]
    assert rc == 1
    assert captured.out.splitlines()[0] == "k,state_discrepancy,beta_discrepancy"
    assert [line.split(",")[0] for line in captured.out.splitlines()[1:]] == ["0", "1", "2"]
    assert captured.err == "error: batch solve produced non-finite values\n"


def test_compare_absurd_rank_tol_exits_1(tmp_path, capsys):
    spec = write_json(tmp_path / "model.json", scalar_doc(tau=3))
    ys = tmp_path / "ys.csv"
    write_table(ys, ["k", "y0"], [[0, 1.0], [1, 1.0], [2, -0.5], [3, 2.0]])
    rc = cli.main(["compare", "--spec", spec, "--measurements", str(ys),
                   "--mode", "batch", "--rank-tol", "0.9"])
    assert rc == 1
    out = capsys.readouterr().out
    assert float(out.strip().splitlines()[-1].split(",")[1]) > 1e-8


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "estimate", "observability", "compare",
                                     "reproduce-example"])
def test_bad_rank_tol_exits_2_before_any_work(scalar_setup, tmp_path, capsys, command, value):
    spec, ys = scalar_setup
    out = tmp_path / "out"
    argv = {
        "simulate": ["--spec", spec, "--out", str(out)],
        "estimate": ["--spec", spec, "--measurements", ys, "--out", str(out)],
        "observability": ["--spec", spec],
        "compare": ["--spec", spec, "--measurements", ys],
        "reproduce-example": ["--out-dir", str(out)],
    }[command]
    rc = cli.main([command, *argv, f"--rank-tol={value}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert not out.exists()
    assert captured.out == ""
    assert captured.err.startswith("error: --rank-tol must be finite and nonnegative")


# --- round trip --------------------------------------------------------

def test_simulate_then_estimate_round_trip(tmp_path, capsys):
    spec = write_json(tmp_path / "demo.json", demo.model_document(tau=20))
    traj = tmp_path / "traj.csv"
    est = tmp_path / "est.csv"
    assert cli.main(["simulate", "--spec", spec, "--out", str(traj)]) == 0
    capsys.readouterr()
    rc = cli.main(["estimate", "--spec", spec, "--measurements", str(traj),
                   "--out", str(est),
                   "--direction", "1,0,0,0"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["consistent"] is True
    assert summary["noncausality_index"] == 3
    header, rows = read_table(est)
    q, y = demo.plant_trajectory(20)
    xhat0 = column(header, rows, "xhat0")
    assert xhat0[1:] == pytest.approx(list(y[1:]), abs=1e-9)
    lows = column(header, rows, "dir0_low")
    highs = column(header, rows, "dir0_high")
    for k in range(1, 21):
        assert lows[k] <= q[k, 0] + 1e-9
        assert highs[k] >= q[k, 0] - 1e-9


# --- reproduce-example -------------------------------------------------

def test_reproduce_example(tmp_path, capsys):
    out_dir = tmp_path / "curves"
    rc = cli.main(["reproduce-example", "--out-dir", str(out_dir)])
    assert rc == 0
    messages = capsys.readouterr().out
    assert "k=0 -> 2; k=1..40 -> 3" in messages
    assert "substituted machine epsilon" in messages
    assert "unobservable" in messages

    names = ["truth.csv", "estimate.csv", "bounds.csv"]
    for name in names:
        assert (out_dir / name).exists()

    header, rows = read_table(out_dir / "bounds.csv")
    assert len(rows) == 40
    assert column(header, rows, "q2_low") == [-math.inf] * 40
    assert column(header, rows, "q2_high") == [math.inf] * 40
    q1_low = column(header, rows, "q1_low")
    q1_high = column(header, rows, "q1_high")
    eheader, erows = read_table(out_dir / "estimate.csv")
    q1_est = column(eheader, erows, "q1")
    for low, high, center in zip(q1_low, q1_high, q1_est):
        assert math.isfinite(low) and math.isfinite(high)
        assert abs(0.5 * (low + high) - center) <= 1e-12

    theader, trows = read_table(out_dir / "truth.csv")
    q, _ = demo.plant_trajectory(40)
    assert column(theader, trows, "q1") == pytest.approx(list(q[1:, 0]), abs=1e-12)
    assert column(theader, trows, "q2") == pytest.approx(list(q[1:, 1]), abs=1e-12)

    first = {name: (out_dir / name).read_bytes() for name in names}
    rerun_dir = tmp_path / "curves2"
    assert cli.main(["reproduce-example", "--out-dir", str(rerun_dir)]) == 0
    for name in names:
        assert (rerun_dir / name).read_bytes() == first[name]


def test_reproduce_example_reports_coverage_of_the_truth(tmp_path, capsys):
    assert cli.main(["reproduce-example", "--out-dir", str(tmp_path)]) == 0
    line = next(text for text in capsys.readouterr().out.splitlines() if "coverage" in text)
    assert 0.0 < float(line.rsplit(":", 1)[1]) <= 1.0


def test_reproduce_example_fails_when_bounds_miss_the_truth(tmp_path, capsys, monkeypatch):
    answer = estimator.answer

    def halved(states, ells=()):
        got = answer(states, ells)
        return got._replace(radius=0.5 * got.radius)

    monkeypatch.setattr(estimator, "answer", halved)
    assert cli.main(["reproduce-example", "--out-dir", str(tmp_path)]) == 1
    assert "outside its bounds" in capsys.readouterr().err


def test_reproduce_example_exits_4_on_a_negative_beta(tmp_path, capsys, monkeypatch):
    answer = estimator.answer

    def sunk(states, ells=()):
        got = answer(states, ells)
        beta = got.beta.copy()
        beta[[5, 9]] = -2e-6, -3e-6
        return got._replace(beta=beta)

    monkeypatch.setattr(estimator, "answer", sunk)
    assert cli.main(["reproduce-example", "--out-dir", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "error: beta = -2.000e-06 below -1e-09\n"
    assert not (tmp_path / "out").exists()


# --- exit codes --------------------------------------------------------

@pytest.mark.parametrize("kind, code", [
    (errors.ParseError, 2),
    (errors.InconsistentDynamics, 3),
    (errors.InconsistentData, 4),
    (errors.SingularMatrix, 5),
    (errors.InvalidMatrix, 1),
    (errors.DimensionMismatch, 1),
    (errors.NumericalBreakdown, 1),
    (errors.OutsideObservable, 1),
])
def test_every_package_error_maps_to_its_exit_code(scalar_setup, capsys, monkeypatch, kind, code):
    def raising(args):
        raise kind("boom")

    monkeypatch.setattr(cli, "cmd_observability", raising)
    spec, _ = scalar_setup
    assert cli.main(["observability", "--spec", spec]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: boom\n"


# --- unwritable outputs ------------------------------------------------

def test_estimate_unwritable_out_exits_2(scalar_setup, tmp_path, capsys):
    spec, ys = scalar_setup
    out = tmp_path / "missing" / "est.csv"
    assert cli.main(["estimate", "--spec", spec, "--measurements", ys, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}:") and "Traceback" not in err


def test_reproduce_example_out_dir_under_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "curves"
    assert cli.main(["reproduce-example", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_dir}:") and "Traceback" not in err
