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
from .linalg import EPS, as_vector
from .linalg import pinv, range_projector  # noqa: F401  (bench/tracing.py wraps them by name)
from .model import budget, simulate, step_changes, step_runs, validate
from .model import truncate  # noqa: F401  (bench/tracing.py wraps cli.truncate by name)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_DYNAMICS = 3
EXIT_DATA = 4
EXIT_REGULARITY = 5

# The exit code of each package error: the first kind that matches.
EXIT_CODES = ((ParseError, EXIT_PARSE), (InconsistentDynamics, EXIT_DYNAMICS),
              (InconsistentData, EXIT_DATA), (SingularMatrix, EXIT_REGULARITY),
              (EstimationError, EXIT_ASSERTION))

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
    steps = np.arange(model.tau + 1)[:, None]
    write_table(args.out, header,
                np.hstack((steps, traj.states, traj.inputs, traj.noises, traj.outputs)))
    if used > 1.0:
        print(f"warning: uncertainty budget {format_number(used)} exceeds 1", file=sys.stderr)
    print(f"wrote {args.out} ({model.tau + 1} rows); budget = {format_number(used)}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    model, _ = _load_valid_model(args.spec)
    ys = measurement_rows(args.measurements, model)
    directions = [_parse_direction(text, model.n) for text in args.direction or []]
    run = estimator.run(model, ys, args.rank_tol)
    got = estimator.answer(run, directions)

    header = ["k"] + [f"xhat{i}" for i in range(model.n)] + ["beta"]
    for j in range(len(directions)):
        header += [f"dir{j}_value", f"dir{j}_low", f"dir{j}_high", f"dir{j}_observable"]
    # Per direction: value, low, high, observable; NaN bounds where inconsistent.
    value, radius = got.value, got.radius
    bounds = np.stack((value, value - radius, value + radius, radius < math.inf), axis=2)
    steps = np.arange(len(run))[:, None]
    table = np.hstack((steps, got.xhat, got.beta[:, None], bounds.reshape(len(run), -1)))
    write_table(args.out, header, table)
    report = estimator.estimate(run[-1])
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
    links, link_of = estimator.schedule(model, args.rank_tol)
    print("k,rank,noncausality_index")
    for k, i in enumerate(link_of.tolist()):
        print(f"{k},{links[i].lam.size},{model.n - links[i].lam.size}")
    final = links[link_of[-1]]
    print(f"observable subspace basis ({final.lam.size} orthonormal columns):")
    for row in final.V:
        print(",".join(format_number(v) for v in row))
    return EXIT_OK


def cmd_compare(args) -> int:
    model, _ = _load_valid_model(args.spec)
    ys = measurement_rows(args.measurements, model)
    worst = 0.0
    if args.mode == "kalman":
        # run_kalman decides regularity first, so an irregular model exits 5
        # before it pays for either recursion.
        kstates = kalman.run_kalman(model, ys, args.rank_tol)
        xhats = estimator.answer(estimator.run(model, ys, args.rank_tol)).xhat
        print("k,state_discrepancy")
        for k, (xhat, kstate) in enumerate(zip(xhats, kstates)):
            disc = float(np.linalg.norm(xhat - kstate.x))
            worst = float(np.max((worst, disc)))  # NaN propagates, unlike max()
            print(f"{k},{format_number(disc)}")
    else:
        states = estimator.run(model, ys, args.rank_tol)
        solutions = batch.horizons(batch.assemble(model, ys), args.rank_tol)
        print("k,state_discrepancy,beta_discrepancy")
        for k, (state, solution) in enumerate(zip(states, solutions)):
            xlast = solution.xstack[-model.n :]
            report = estimator.estimate(state)
            disc_x = float(np.linalg.norm(report.projector @ xlast - report.xhat))
            disc_b = abs(report.beta - (1.0 - solution.minI))
            worst = float(np.max((worst, disc_x, disc_b)))
            print(f"{k},{format_number(disc_x)},{format_number(disc_b)}")
    print(f"max_discrepancy,{format_number(worst)}")
    return EXIT_OK if worst <= COMPARE_TOL else EXIT_ASSERTION


def cmd_reproduce(args) -> int:
    horizon = 40
    model = demo.build_model(horizon)
    plant, ys = demo.plant_trajectory(horizon)
    run = estimator.run(model, ys.reshape(-1, 1), args.rank_tol)
    # Plant directions: the measured coordinate q1 = (1,0) and the
    # unmeasured coordinate q2 = (0,1), lifted to the 4-state model.
    got = estimator.answer(run, np.eye(model.n)[:2])
    indices = np.array([model.n - link.lam.size for link in run.links])[run.link_of]
    beta, value, err = got.beta[1:], got.value[1:], got.radius[1:]
    low = beta < -estimator.BETA_TOL
    if low.any():
        raise InconsistentData(f"beta = {beta[low.argmax()]:.3e} below -{estimator.BETA_TOL:g}")
    worst_coverage = float(np.max(_coverage(plant[1:, 0], value[:, 0], err[:, 0], beta)))
    steps = np.arange(1, horizon + 1)[:, None]
    bounds = np.stack((value - err, value + err), axis=2).reshape(horizon, -1)

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"{args.out_dir}: {exc}") from exc
    write_table(os.path.join(args.out_dir, "truth.csv"),
                ["k", "q1", "q2"], np.hstack((steps, plant[1:])))
    write_table(os.path.join(args.out_dir, "estimate.csv"),
                ["k", "q1", "q2"], np.hstack((steps, value)))
    write_table(os.path.join(args.out_dir, "bounds.csv"),
                ["k", "q1_low", "q1_high", "q2_low", "q2_high"], np.hstack((steps, bounds)))

    print(demo.WEIGHT_NOTE)
    runs = step_runs(step_changes(indices))
    print("noncausality index: " + "; ".join(f"k={run} -> {indices[k]}" for k, run in runs))
    print("direction q2 = (0,1) is unobservable at every step k >= 1; "
          "its bounds carry the inf marker")
    print(f"max coverage ratio of the true q1 by its bounds: {format_number(worst_coverage)}")
    print(f"wrote truth.csv, estimate.csv, bounds.csv to {args.out_dir}")
    if not worst_coverage <= 1.0:
        print("assertion failed: the true q1 lies outside its bounds", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _coverage(truth, value, err, beta) -> np.ndarray:
    """Per step, the distance of a true projection from the estimate, as a
    share of what the membership test allows along a direction of radius
    ``err``: the radius widened by MEMBERSHIP_SLACK (no radius where beta <= 0),
    plus 8 eps relative to the magnitudes compared.  Above 1 the bounds miss the truth."""
    widen = np.sqrt(1.0 + estimator.MEMBERSHIP_SLACK / np.where(beta > 0.0, beta, math.inf))
    allowed = np.where(beta > 0.0, err * widen, 0.0)
    allowed += 8.0 * EPS * np.maximum(1.0, np.maximum(abs(value), abs(truth)))
    return abs(truth - value) / allowed


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
                     help="reference implementation to compare against; batch solves "
                          "every horizon 0..tau by dense least squares, so its cost "
                          "grows as tau^4: use kalman (regular models) on long horizons")

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
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
