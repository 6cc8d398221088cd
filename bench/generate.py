"""Seeded input generation for the benchmark workloads.

Specs and data come from the generators in ``tests/conftest.py``
(``random_model``, ``random_regular_model``, ``feasible_data``) and are
written to files before any timing starts: JSON model documents, CSV
measurement tables, ``truth.npz`` with the generator's true states and
``manifest.json`` describing what the workload runs.

The benchmark runs this file in a child process so that the memory the
generators use never shows in the measured process's peak RSS:

    python3 bench/generate.py --workload long-horizon --seed 3 --out DIR

Specs come from a stream fixed per workload, the same for every seed;
the seed draws the measurement data.  Per-operation cost depends on the
spec, so specs drawn per seed would make each seed time a different
problem.  The same seed always writes the same files.

By default the specs are regular models (``random_regular_model``:
rank [F_k; H_k] = n at every step), on which the estimator's answers
can be checked.  ``--noncausal`` draws noncausal specs instead
(``random_model`` with m + p < n), on which the estimator at the seed
diverges: ``beta`` grows past 1, reaches NaN on some specs, and the
recursion departs from the batch oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from benchpaths import generators, install_package_path

WORKLOADS = ("long-horizon", "wide-state", "monte-carlo", "oracle-check")

# Sizes of each workload.  The self-test swaps in TINY_SIZES.
# Regular specs take m = n and p from the generator; m and p apply to
# noncausal specs only.
SIZES = {
    # Constant matrices; one op per spec, a run makes whole passes over
    # the pool.
    "long-horizon": {"n": 4, "m": 2, "p": 1, "tau": 2000, "specs": 16},
    # Per-step matrices parsed from a large JSON document.
    "wide-state": {"n": 100, "m": 60, "p": 20, "tau": 50, "specs": 1},
    # One small time-varying model, many measurement sequences.
    "monte-carlo": {"n": 6, "m": 3, "p": 2, "tau": 300, "sequences": 48},
    # compare --mode batch, compare --mode kalman (always on a regular
    # spec), observability on a long-horizon spec.
    "oracle-check": {
        "batch": {"n": 4, "m": 2, "p": 1, "tau": 70},
        "kalman": {"n": 4, "tau": 1000},
        "observe": {"n": 4, "m": 2, "p": 1, "tau": 2000},
    },
}

TINY_SIZES = {
    "long-horizon": {"n": 4, "m": 2, "p": 1, "tau": 30, "specs": 3},
    "wide-state": {"n": 8, "m": 5, "p": 2, "tau": 10, "specs": 1},
    "monte-carlo": {"n": 4, "m": 2, "p": 1, "tau": 20, "sequences": 4},
    "oracle-check": {
        "batch": {"n": 3, "m": 2, "p": 1, "tau": 6},
        "kalman": {"n": 3, "tau": 20},
        "observe": {"n": 4, "m": 2, "p": 1, "tau": 20},
    },
}

# Budget share of the generated data: strictly inside the unit budget,
# so every estimate command must succeed (exit 0).
DATA_MARGIN = 0.9


def draw_model(gen, rng, size: dict, constant: bool, noncausal: bool):
    """One spec of ``size``: regular, or noncausal with the size's m and p.

    A constant spec holds one draw of each matrix over the horizon.
    """
    n, tau = size["n"], size["tau"]
    horizon = 1 if constant else tau
    if noncausal:
        model = gen.random_model(rng, n=n, m=size["m"], p=size["p"], tau=horizon)
    else:
        model = gen.random_regular_model(rng, n=n, tau=horizon)
    if constant:
        model = gen.DescriptorModel.constant(
            model.F[0], model.C[0], model.H[0], model.S[0], model.R[0], tau
        )
    return model


def _document(model, constant: bool) -> dict:
    doc = {"n": model.n, "m": model.m, "p": model.p, "tau": model.tau}
    for name in ("F", "C", "H", "S", "R"):
        seq = getattr(model, name)
        doc[name] = seq[0].tolist() if constant else [mat.tolist() for mat in seq]
    return doc


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _write_measurements(path, ys) -> None:
    header = ["k"] + [f"y{i}" for i in range(ys.shape[1])]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for k, row in enumerate(ys):
            handle.write(",".join([str(k)] + [repr(float(v)) for v in row]) + "\n")


def write_case(gen, rng, model, constant: bool, out: str, name: str):
    """Draw feasible data for ``model`` and write ``NAME.json`` (the model
    document) and ``NAME.csv`` (the measurements); return the true states."""
    xs, _, _, ys = gen.feasible_data(rng, model, DATA_MARGIN)
    _write_json(os.path.join(out, f"{name}.json"), _document(model, constant))
    _write_measurements(os.path.join(out, f"{name}.csv"), ys)
    return xs


def directions(model, count: int) -> list:
    """``count`` directions a user would bound: measured combinations
    (rows of the final H, up to half of them), then equation rows (rows
    of the final F)."""
    rows_h = min(count // 2, model.p)
    dirs = [model.H[-1][i] for i in range(rows_h)]
    dirs += [model.F[-1][i] for i in range(count - rows_h)]
    return [[float(v) for v in ell] for ell in dirs]


def _estimate_workload(gen, spec_rng, rng, sizes, constant, noncausal, out, truth):
    specs = []
    for i in range(sizes["specs"]):
        model = draw_model(gen, spec_rng, sizes, constant, noncausal)
        truth[f"xs{i}"] = write_case(gen, rng, model, constant, out, f"case{i}")
        specs.append({"spec": f"case{i}.json", "measurements": f"case{i}.csv",
                      "truth": f"xs{i}", "directions": directions(model, 2 if constant else 4)})
    return {"specs": specs, "n": sizes["n"], "tau": sizes["tau"]}


def _monte_carlo(gen, spec_rng, rng, sizes, noncausal, out, truth):
    model = draw_model(gen, spec_rng, sizes, False, noncausal)
    _write_json(os.path.join(out, "spec.json"), _document(model, constant=False))
    ys, finals = [], []
    for _ in range(sizes["sequences"]):
        xs, _, _, y = gen.feasible_data(rng, model, DATA_MARGIN)
        ys.append(y)
        finals.append(xs[-1])
    truth["ys"] = np.array(ys)
    truth["x_final"] = np.array(finals)
    return {"spec": "spec.json", "n": model.n, "tau": model.tau,
            "sequences": sizes["sequences"]}


def _oracle_check(gen, spec_rng, rng, sizes, noncausal, out, truth):
    b = sizes["batch"]
    batch_model = draw_model(gen, spec_rng, b, True, noncausal)
    write_case(gen, rng, batch_model, True, out, "batch")

    k = sizes["kalman"]
    kalman_model = draw_model(gen, spec_rng, k, False, False)
    write_case(gen, rng, kalman_model, False, out, "kalman")

    o = sizes["observe"]
    observe_model = draw_model(gen, spec_rng, o, True, noncausal)
    _write_json(os.path.join(out, "observe.json"), _document(observe_model, constant=True))
    return {
        "batch": {"spec": "batch.json", "measurements": "batch.csv", "tau": b["tau"]},
        "kalman": {"spec": "kalman.json", "measurements": "kalman.csv", "tau": k["tau"]},
        "observe": {"spec": "observe.json", "n": o["n"], "tau": o["tau"]},
    }


def build(workload: str, seed: int, out: str, sizes=None, noncausal: bool = False) -> dict:
    """Write every input of ``workload`` for ``seed`` into directory ``out``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = (sizes or SIZES)[workload]
    gen = generators()
    index = WORKLOADS.index(workload)
    spec_rng = np.random.default_rng([index])
    rng = np.random.default_rng([index, seed])
    truth = {}
    if workload == "long-horizon":
        body = _estimate_workload(gen, spec_rng, rng, sizes, True, noncausal, out, truth)
    elif workload == "wide-state":
        body = _estimate_workload(gen, spec_rng, rng, sizes, False, noncausal, out, truth)
    elif workload == "monte-carlo":
        body = _monte_carlo(gen, spec_rng, rng, sizes, noncausal, out, truth)
    else:
        body = _oracle_check(gen, spec_rng, rng, sizes, noncausal, out, truth)
    np.savez(os.path.join(out, "truth.npz"), **truth)
    manifest = {"workload": workload, "seed": seed, "noncausal": noncausal, **body}
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true", help="use the self-test sizes")
    parser.add_argument("--noncausal", action="store_true", help="draw noncausal specs")
    args = parser.parse_args(argv)
    install_package_path()
    os.makedirs(args.out, exist_ok=True)
    build(args.workload, args.seed, args.out, TINY_SIZES if args.tiny else SIZES, args.noncausal)
    return 0


if __name__ == "__main__":
    sys.exit(main())
