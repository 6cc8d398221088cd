"""Command-line interface.

Subcommands: simulate a model, run the estimator over measurements,
report per-step observability, cross-check the recursion against the
batch solver or the regular-case Kalman recursion, and regenerate the
built-in demonstration curves.  Exit codes: 0 success, 1 assertion or
comparison failure, 2 parse error, 3 inconsistent dynamics,
4 inconsistent data (budget violated), 5 regularity violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import batch, demo, estimator, kalman
from .errors import (
    DimensionMismatch,
    EstimationError,
    InconsistentData,
    InconsistentDynamics,
    InvalidMatrix,
    ParseError,
    SingularMatrix,
)
from .formats import format_number, load_inputs_file, load_model_file, measurement_rows, write_table
from .linalg import EPS, as_vector, pinv, range_projector
from .model import budget, simulate, truncate, validate

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_DYNAMICS = 3
EXIT_DATA = 4
EXIT_REGULARITY = 5

COMPARE_TOL = 1e-8


def _load_valid_model(path):
    model, inputs = load_model_file(path)
    report = validate(model)
    if not report.ok:
        raise ParseError(f"{path}: invalid model: {report}")
    return model, inputs


def _parse_direction(text, n):
    name = f"direction {text!r}"
    try:
        return as_vector([float(part) for part in text.split(",")], name, n)
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from exc
    except (InvalidMatrix, DimensionMismatch) as exc:
        raise ParseError(str(exc)) from exc


def cmd_simulate(args) -> int:
    model, inputs = _load_valid_model(args.spec)
    if args.inputs:
        override = load_inputs_file(args.inputs, model)
        inputs = {key: override[key] if override[key] is not None else inputs[key]
                  for key in inputs}
    traj = simulate(model, inputs["f"], inputs["g"], inputs["w"], args.rank_tol)
    used = budget(model, inputs["f"], inputs["g"])
    header = (
        ["k"]
        + [f"x{i}" for i in range(model.n)]
        + [f"f{i}" for i in range(model.m)]
        + [f"g{i}" for i in range(model.p)]
        + [f"y{i}" for i in range(model.p)]
    )
    rows = [
        [k, *traj.states[k], *traj.inputs[k], *traj.noises[k], *traj.outputs[k]]
        for k in range(model.tau + 1)
    ]
    write_table(args.out, header, rows)
    if used > 1.0:
        print(f"warning: uncertainty budget {format_number(used)} exceeds 1", file=sys.stderr)
    print(f"wrote {args.out} ({model.tau + 1} rows); budget = {format_number(used)}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    model, _ = _load_valid_model(args.spec)
    ys = measurement_rows(args.measurements, model)
    directions = [_parse_direction(text, model.n) for text in args.direction or []]
    states = estimator.run(model, ys, args.rank_tol)

    header = ["k"] + [f"xhat{i}" for i in range(model.n)] + ["beta"]
    for j in range(len(directions)):
        header += [f"dir{j}_value", f"dir{j}_low", f"dir{j}_high", f"dir{j}_observable"]
    rows = []
    for state in states:
        report = estimator.estimate(state)
        row = [state.k, *report.xhat, report.beta]
        for ell in directions:
            value = float(ell @ report.xhat)
            if not report.consistent:
                row += [value, math.nan, math.nan, 0]
                continue
            radius = estimator.radius(report, ell)
            row += [value, value - radius, value + radius, int(radius < math.inf)]
        rows.append(row)
    write_table(args.out, header, rows)
    summary = {
        "final_rank": report.observable_rank,
        "noncausality_index": report.noncausality_index,
        "consistent": report.consistent,
        "final_beta": report.beta,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if report.consistent else EXIT_DATA


def cmd_observability(args) -> int:
    model, _ = _load_valid_model(args.spec)
    links = estimator.schedule(model, args.rank_tol)
    print("k,rank,noncausality_index")
    for k, link in enumerate(links):
        print(f"{k},{link.lam.size},{model.n - link.lam.size}")
    print(f"observable subspace basis ({links[-1].lam.size} orthonormal columns):")
    for row in links[-1].V:
        print(",".join(format_number(v) for v in row))
    return EXIT_OK


def cmd_compare(args) -> int:
    model, _ = _load_valid_model(args.spec)
    ys = measurement_rows(args.measurements, model)
    states = estimator.run(model, ys, args.rank_tol)
    worst = 0.0
    if args.mode == "kalman":
        try:
            kstates = kalman.run_kalman(model, ys, args.rank_tol)
        except SingularMatrix:
            flags = kalman.check_regularity(model, args.rank_tol)
            bad = [k for k, ok in enumerate(flags) if not ok]
            if not bad:
                raise
            print(f"regularity violated at steps {bad}: rank [F_k; H_k] < n", file=sys.stderr)
            return EXIT_REGULARITY
        print("k,state_discrepancy")
        for state, kstate in zip(states, kstates):
            disc = float(np.linalg.norm(estimator.estimate(state).xhat - kstate.x))
            worst = max(worst, disc)
            print(f"{state.k},{format_number(disc)}")
    else:
        print("k,state_discrepancy,beta_discrepancy")
        for k, state in enumerate(states):
            problem = batch.assemble(truncate(model, k), ys[: k + 1])
            solution = batch.solve(problem, args.rank_tol)
            xlast = solution.xstack[-model.n :]
            proj = range_projector(state.P, args.rank_tol)
            xhat = pinv(state.P, args.rank_tol) @ state.r
            report = estimator.estimate(state)
            disc_x = float(np.linalg.norm(proj @ xlast - xhat))
            disc_b = abs(report.beta - (1.0 - solution.minI))
            worst = max(worst, disc_x, disc_b)
            print(f"{k},{format_number(disc_x)},{format_number(disc_b)}")
    print(f"max_discrepancy,{format_number(worst)}")
    return EXIT_OK if worst <= COMPARE_TOL else EXIT_ASSERTION


def cmd_reproduce(args) -> int:
    horizon = 40
    model = demo.build_model(horizon)
    plant, ys = demo.plant_trajectory(horizon)
    states = estimator.run(model, ys.reshape(-1, 1), args.rank_tol)
    # Plant directions: the measured coordinate q1 = (1,0) and the
    # unmeasured coordinate q2 = (0,1), lifted to the 4-state model.
    directions = {
        "q1": np.array([1.0, 0.0, 0.0, 0.0]),
        "q2": np.array([0.0, 1.0, 0.0, 0.0]),
    }

    truth_rows, estimate_rows, bound_rows = [], [], []
    worst_coverage = 0.0
    indices = [estimator.estimate(states[0]).noncausality_index]
    for k in range(1, horizon + 1):
        report = estimator.estimate(states[k])
        indices.append(report.noncausality_index)
        est_row, bnd_row = [k], [k]
        for name, ell in directions.items():
            value = float(ell @ report.xhat)
            err = estimator.radius(report, ell)
            if name == "q1":
                worst_coverage = max(worst_coverage,
                                     _coverage(plant[k, 0], value, err, report.beta))
            est_row.append(value)
            bnd_row.extend([value - err, value + err])
        truth_rows.append([k, plant[k, 0], plant[k, 1]])
        estimate_rows.append(est_row)
        bound_rows.append(bnd_row)

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"{args.out_dir}: {exc}") from exc
    write_table(os.path.join(args.out_dir, "truth.csv"),
                ["k", "q1", "q2"], truth_rows)
    write_table(os.path.join(args.out_dir, "estimate.csv"),
                ["k", "q1", "q2"], estimate_rows)
    write_table(os.path.join(args.out_dir, "bounds.csv"),
                ["k", "q1_low", "q1_high", "q2_low", "q2_high"], bound_rows)

    print(demo.WEIGHT_NOTE)
    print(f"noncausality index: {_collapse_runs(indices)}")
    print("direction q2 = (0,1) is unobservable at every step k >= 1; "
          "its bounds carry the inf marker")
    print(f"max coverage ratio of the true q1 by its bounds: {format_number(worst_coverage)}")
    print(f"wrote truth.csv, estimate.csv, bounds.csv to {args.out_dir}")
    if worst_coverage > 1.0:
        print("assertion failed: the true q1 lies outside its bounds", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _coverage(truth, value, err, beta) -> float:
    """Distance of a true projection from the estimate, as a share of what
    the membership test allows along a direction of radius ``err``: the
    radius widened by MEMBERSHIP_SLACK, plus 8 eps relative to the
    magnitudes compared.  Above 1 the bounds miss the truth."""
    allowed = err * math.sqrt(1.0 + estimator.MEMBERSHIP_SLACK / beta) if beta > 0.0 else 0.0
    allowed += 8.0 * EPS * max(1.0, abs(value), abs(truth))
    return abs(truth - value) / allowed


def _collapse_runs(values) -> str:
    """Render a sequence like [2,3,3,3] as 'k=0 -> 2; k=1..3 -> 3'."""
    parts = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            span = f"k={start}" if i - start == 1 else f"k={start}..{i - 1}"
            parts.append(f"{span} -> {values[start]}")
            start = i
    return "; ".join(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daeminimax",
        description="Set-membership minimax estimation for descriptor models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        cmd.add_argument("--rank-tol", type=float, default=0.0,
                         help="relative cutoff on eigenvalues of the information "
                              "matrix, finite and >= 0 (0 = machine default eps * n); "
                              "fixed for the whole run")
        return cmd

    cmd = add("simulate", cmd_simulate, "roll a model forward and write the trajectory")
    cmd.add_argument("--spec", required=True, help="model JSON document")
    cmd.add_argument("--inputs", help="JSON document overriding input sequences f, g, w")
    cmd.add_argument("--out", required=True, help="output trajectory CSV")

    cmd = add("estimate", cmd_estimate, "run the estimator over measurements")
    cmd.add_argument("--spec", required=True, help="model JSON document")
    cmd.add_argument("--measurements", required=True, help="measurement CSV")
    cmd.add_argument("--out", required=True, help="output estimate CSV")
    cmd.add_argument("--direction", action="append", metavar="V1,V2,...",
                     help="direction to bound (repeatable)")

    cmd = add("observability", cmd_observability, "per-step observable rank and index")
    cmd.add_argument("--spec", required=True, help="model JSON document")

    cmd = add("compare", cmd_compare, "cross-check the recursion against a reference")
    cmd.add_argument("--spec", required=True, help="model JSON document")
    cmd.add_argument("--measurements", required=True, help="measurement CSV")
    cmd.add_argument("--mode", choices=("kalman", "batch"), default="batch",
                     help="reference implementation to compare against")

    cmd = add("reproduce-example", cmd_reproduce,
              "regenerate the built-in demonstration curves")
    cmd.add_argument("--out-dir", default="example-output",
                     help="directory for truth.csv, estimate.csv, bounds.csv")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 <= args.rank_tol < math.inf:
            raise ParseError(f"--rank-tol must be finite and nonnegative, got {args.rank_tol}")
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InconsistentDynamics as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    except InconsistentData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SingularMatrix as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGULARITY
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
