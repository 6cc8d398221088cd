"""Regenerate the quantities of the ROADMAP "Baseline" section.

    python3 bench/baseline.py

Run from the root of a checkout.  Prints a table and, last, one JSON
line with the same numbers and the machine record:

* cost per step of ``estimator.run`` at n = 4, 20, 100 (tau = 100);
* CLI ``estimate`` end to end on one long-horizon spec (n = 4, tau = 2000,
  2 directions), split into load + validate, recursion, queries and the
  rest (CSV and CLI) by the shares of one traced run;
* ``compare --mode batch`` at tau = 40, 80, 160 (n = 4), whose cost grows
  as a power of tau;
* ``reproduce-example``.

Every time is the best of 3 runs, with BLAS on one thread; the inputs
come from seed 0.
"""

import json
import os
import shutil
import sys
from time import perf_counter

import run as bench  # pins BLAS threads before numpy loads
from benchpaths import WORK, install_package_path
from workloads import call_cli

SEED = 0
REPEATS = 3
# The Baseline was measured on noncausal specs (m + p < n).
NONCAUSAL_N4 = {"n": 4, "m": 2, "p": 1}


def best(func):
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        func()
        times.append(perf_counter() - start)
    return min(times)


def main() -> int:
    install_package_path()
    import numpy as np

    import daeminimax
    import generate
    from tracing import QUERIES, Tracer

    gen = generate.generators()
    rng = np.random.default_rng([99, SEED])
    out = {"environment": bench.environment(SEED)}
    workdir = os.path.join(WORK, f"baseline-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        step_us = {}
        for n, m, p in ((4, 2, 1), (20, 12, 4), (100, 60, 20)):
            model = gen.random_model(rng, n=n, m=m, p=p, tau=100)
            ys = gen.feasible_data(rng, model)[3]
            seconds = best(lambda: daeminimax.estimator.run(model, ys))
            step_us[n] = 1e6 * seconds / model.tau
        out["run_step_us"] = step_us

        model = generate.draw_model(gen, rng, NONCAUSAL_N4 | {"tau": 2000}, True, True)
        generate.write_case(gen, rng, model, True, workdir, "long")
        argv = ["estimate", "--spec", os.path.join(workdir, "long.json"),
                "--measurements", os.path.join(workdir, "long.csv"),
                "--out", os.path.join(workdir, "estimate.csv")]
        argv += ["--direction=" + ",".join(repr(v) for v in ell)
                 for ell in generate.directions(model, 2)]
        total = best(lambda: call_cli(daeminimax, argv))
        tracer = Tracer()
        tracer.install(daeminimax)
        try:
            call_cli(daeminimax, argv)
        finally:
            tracer.uninstall()
        spent = dict.fromkeys(("load_validate", "recursion", "queries", "main"), 0.0)
        for span in tracer.spans:
            key = {"formats.load_model_file": "load_validate", "model.validate": "load_validate",
                   "estimator.run": "recursion", "cli.main": "main"}.get(span.name)
            parent = tracer.spans[span.parent].name if span.parent >= 0 else None
            if span.name in QUERIES and parent not in QUERIES:
                key = "queries"
            if key:
                spent[key] += span.duration
        main_s = spent.pop("main")
        parts = {key: total * value / main_s for key, value in spent.items()}
        parts["csv_and_other"] = total - sum(parts.values())
        out["cli_estimate_s"] = {"total": total, **parts}

        compare = {}
        for tau in (40, 80, 160):
            # The same matrices at every horizon: a fresh stream per tau.
            spec_rng = np.random.default_rng([98, SEED])
            model = generate.draw_model(gen, spec_rng, NONCAUSAL_N4 | {"tau": tau}, True, True)
            generate.write_case(gen, rng, model, True, workdir, "batch")
            cmd = ["compare", "--spec", os.path.join(workdir, "batch.json"),
                   "--measurements", os.path.join(workdir, "batch.csv"), "--mode", "batch"]
            compare[tau] = best(lambda: call_cli(daeminimax, cmd))
        out["compare_batch_s"] = compare
        cmd = ["reproduce-example", "--out-dir", os.path.join(workdir, "example")]
        out["reproduce_example_s"] = best(lambda: call_cli(daeminimax, cmd))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("estimator.run cost per step (tau=100): "
          + ", ".join(f"n={n}: {us:.0f} us" for n, us in step_us.items()))
    cli = out["cli_estimate_s"]
    print(f"CLI estimate (n=4, tau=2000, 2 directions): {cli['total']:.2f} s = "
          f"load+validate {cli['load_validate']:.2f} + recursion {cli['recursion']:.2f} "
          f"+ queries {cli['queries']:.2f} + CSV/other {cli['csv_and_other']:.2f}")
    print("compare --mode batch (n=4): "
          + ", ".join(f"tau={tau}: {s:.2f} s" for tau, s in compare.items()))
    print(f"reproduce-example: {1e3 * out['reproduce_example_s']:.0f} ms")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
