"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that:

* every metric named in BENCHMARK.json appears, with its unit and a
  finite value, in untraced and traced runs of every workload;
* the result line has exactly the keys the benchmark contract names;
* default specs are regular and ``--noncausal`` specs are not;
* the checks pass a correct answer and fire on deliberately wrong ones.
  Wrong answers are made by perturbing the harness's own parsed copy of
  a result; the package is never touched;
* exceptions raised by the package become failed operations;
* without the package sources the benchmark exits non-zero and prints
  no result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import run as bench  # pins BLAS threads before numpy loads
from benchpaths import ROOT, WORK, install_package_path
from workloads import call_cli

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_tables(spec):
    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "BENCHMARK.json repeats a metric name")


def check_result(spec, workload, trace):
    result, report = bench.run(workload, seed=0, seconds=0.2, trace=trace, tiny=True)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
    expect(result["correct"] == (result["failed"] == 0), f"{workload}: correct != (failed == 0)")
    names = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in names:
        got = result["metrics"].get(metric["name"])
        expect(got is not None, f"{workload} trace={trace}: {metric['name']} missing")
        if got is not None:
            expect(got["unit"] == metric["unit"], f"{workload}: {metric['name']} unit")
            expect(math.isfinite(got["value"]), f"{workload}: {metric['name']} not finite")
    expect(len(result["metrics"]) == len(names), f"{workload} trace={trace}: extra metrics")
    json.dumps(result, allow_nan=False)
    if trace:
        # At tiny sizes argument parsing outweighs the work, so only the range is checked.
        share = report["consistency"]["cli_main_self_share_max"]
        expect(0.0 <= share < 1.0, f"{workload}: cli.main self share {share}")
        layer = result["metrics"]
        if layer["estimator.step_factorizations"]["value"]:
            expect(layer["estimator.step_factorizations"]["value"] == 5.0,
                   f"{workload}: step factorizations")
        expect(layer["model.validate_factorizations"]["value"] == 1.0,
               f"{workload}: validate factorizations per weight")
    print(f"ok   {workload} trace={int(trace)}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} ops, {result['failed']} failed")


def fires(work, parsed, reason, mutate):
    """The checks pass ``parsed`` and fire with ``reason`` once mutated."""
    clean = work.evaluate(0, parsed)
    wrong = copy.deepcopy(parsed)
    mutate(wrong)
    broken = work.evaluate(0, wrong)
    expect(not clean.failures, f"{type(work).__name__}: clean copy failed {clean.failures}")
    expect(any(reason in f for f in broken.failures),
           f"{type(work).__name__}: '{reason}' did not fire ({broken.failures})")


def make_workload(workload, seed=0, noncausal=False):
    workdir = os.path.join(WORK, f"selftest-{workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bench.generate(workload, seed, workdir, tiny=True, noncausal=noncausal)
    return bench.load_workload(workload, workdir), workdir


def check_model_classes():
    """Default specs are regular (m = n); --noncausal ones have m + p < n."""
    for noncausal in (False, True):
        work, workdir = make_workload("long-horizon", noncausal=noncausal)
        with open(work.path(work.entry(0)["spec"]), encoding="utf-8") as handle:
            doc = json.load(handle)
        ok = doc["m"] + doc["p"] < doc["n"] if noncausal else doc["m"] == doc["n"]
        expect(ok, f"noncausal={noncausal}: spec has n={doc['n']} m={doc['m']} p={doc['p']}")
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok   default specs are regular, --noncausal specs are not")


def correct_estimate_copy(parsed):
    # Replace every reported value by one that satisfies the invariants.
    parsed["code"], parsed["error"] = 0, None
    for item in parsed["rows"]:
        item["xhat"] = [0.0] * len(item["xhat"])
        item["beta"] = 0.5
        item["bounds"] = [(-1.0, 1.0, 1.0, 0.25)] * len(item["bounds"])


def check_estimate_checks():
    work, workdir = make_workload("long-horizon")
    _, raw = work.op(0)
    parsed = work.parse(0, raw)
    correct_estimate_copy(parsed)
    fires(work, parsed, "beta outside", lambda p: p["rows"][-1].update(beta=1.5))
    fires(work, parsed, "beta outside", lambda p: p["rows"][0].update(beta=math.nan))
    fires(work, parsed, "true state outside",
          lambda p: p["rows"][1]["bounds"].__setitem__(0, (-1.0, 1.0, 1.0, 1.5)))
    fires(work, parsed, "non-finite xhat", lambda p: p["rows"][2]["xhat"].__setitem__(0, math.inf))
    fires(work, parsed, "exit code 4", lambda p: p.update(code=4))
    fires(work, parsed, "missing rows", lambda p: p["rows"].pop())
    # A package exception (argparse's SystemExit here) is a failed op, not a crash.
    _, raw = call_cli(work.pkg, ["estimate", "--spec", work.path("missing.json")])
    expect(raw["error"] is not None, "SystemExit from the CLI was not recorded")
    shutil.rmtree(workdir, ignore_errors=True)
    print("ok   estimate checks fire on perturbed copies")


def check_monte_carlo_checks():
    work, workdir = make_workload("monte-carlo")
    _, raw = work.op(0)
    parsed = work.parse(0, raw)
    parsed.update(errors=[], beta=0.5, member=True)
    parsed["bounds"] = [(t - 1.0, t + 1.0) for t in parsed["truths"]]
    fires(work, parsed, "beta outside", lambda p: p.update(beta=2.0))
    fires(work, parsed, "fails membership", lambda p: p.update(member=False))
    fires(work, parsed, "true state outside",
          lambda p: p["bounds"].__setitem__(0, (p["truths"][0] + 1.0, p["truths"][0] + 2.0)))
    # Wrong-shaped measurements in the harness's copy make the package raise.
    work.ys = work.ys[:, :-1]
    _, raw = work.op(0)
    check = work.check(0, raw)
    expect(any("DimensionMismatch" in f for f in check.failures),
           f"package exception not recorded: {check.failures}")
    shutil.rmtree(workdir, ignore_errors=True)
    print("ok   monte-carlo checks fire on perturbed copies")


def check_oracle_checks():
    work, workdir = make_workload("oracle-check")
    _, raw = work.op(0)
    parsed = work.parse(0, raw)
    for name in ("compare_batch", "compare_kalman"):
        parsed[name].update(code=0, error=None)
        parsed[name]["rows"] = [[0.0] * len(row) for row in parsed[name]["rows"]]
    fires(work, parsed, "compare_batch: discrepancy",
          lambda p: p["compare_batch"]["rows"][-1].__setitem__(0, 1.0))
    fires(work, parsed, "compare_kalman: discrepancy",
          lambda p: p["compare_kalman"]["rows"][0].__setitem__(0, math.nan))
    fires(work, parsed, "observability: missing rows", lambda p: p["observability"]["rows"].pop())
    fires(work, parsed, "reproduce: missing rows", lambda p: p["reproduce"]["rows"].pop())
    fires(work, parsed, "exit code 1", lambda p: p["reproduce"].update(code=1))
    shutil.rmtree(workdir, ignore_errors=True)
    print("ok   oracle-check checks fire on perturbed copies")


def check_missing_checkout():
    bare = os.path.join(WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monte-carlo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect("correct" not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"ok   bare directory exits {proc.returncode} without a result")


def main() -> int:
    install_package_path()
    spec = benchmark_spec()
    check_tables(spec)
    for workload in bench.WORKLOADS:
        check_result(spec, workload, trace=False)
        check_result(spec, workload, trace=True)
    check_model_classes()
    check_estimate_checks()
    check_monte_carlo_checks()
    check_oracle_checks()
    check_missing_checkout()
    print("self-test " + ("FAILED" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
