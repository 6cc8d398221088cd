"""Benchmark of the daeminimax package: four seeded workloads, end to end
and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It generates the workload's inputs
from the seed (in a child process), runs one warm-up operation, then
drives the package in a closed loop from this one process: one caller,
each call waiting for the previous one, BLAS pinned to one thread.  Every
operation's outputs are checked.

With ``--trace 0`` operations run in whole passes over the workload's
pool, as many as come closest to S seconds, with set-up (load and validate)
repeated between them, and the last line of
standard output carries the end-to-end metrics, with every timing scaled
to a fixed machine speed (``at_reference_speed``).  With ``--trace 1`` each
operation of a fixed list runs once untraced and once with spans and
factorization counters installed, and the last line carries the
per-layer metrics.  The line before it is a full report (machine record,
failure reasons, percentiles); it is also written to ``bench/_out/``
with the spans of a traced run.

``--noncausal`` runs the same workload on noncausal specs, on which the
estimator at the seed diverges and most operations fail; see
``bench/generate.py``.
"""

import os

# Pin BLAS before numpy loads; one thread is steadiest on two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

from benchpaths import OUT, ROOT, WORK, MissingCheckout, install_package_path  # noqa: E402
from generate import WORKLOADS  # noqa: E402

# Metric names and units come from BENCHMARK.json: every run with
# --trace 0 reports its end_to_end metrics, every run with --trace 1 its
# per_layer metrics.  A layer that a workload never reaches reports 0.
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The tail percentile is the highest one with this many operations beyond it.
TAIL_BEYOND = 10


def git_commit() -> str:
    # Only the checkout's own .git: git would otherwise report an enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times):
    """(value, percentile, count) at the highest percentile that has
    TAIL_BEYOND operations beyond it, but never below the median: a run
    of 2 * TAIL_BEYOND operations or fewer cannot resolve a tail."""
    ordered = sorted(times)
    count = len(ordered)
    rank = max(count - TAIL_BEYOND, count // 2 + 1)  # 1-based, at least the upper median
    return ordered[rank - 1], 100.0 * rank / count, count


def summarize_checks(checks) -> dict:
    reasons = Counter(reason for check in checks for reason in check.failures)
    steps = sum(check.steps for check in checks)
    reported = sum(check.reported for check in checks)
    bad = sum(check.bad_steps for check in checks)
    failed = sum(1 for check in checks if check.failures)
    return {
        "attempted": len(checks),
        "failed": failed,
        "fail_frac": failed / len(checks) if checks else 0.0,
        "steps": steps,
        "reported_steps": reported,
        "bad_steps": bad,
        "bad_step_frac": bad / reported if reported else 0.0,
        "failure_reasons": dict(sorted(reasons.items())),
    }


def generate(workload: str, seed: int, workdir: str, tiny: bool = False,
             noncausal: bool = False) -> None:
    argv = [sys.executable, os.path.join(ROOT, "bench", "generate.py"),
            "--workload", workload, "--seed", str(seed), "--out", workdir]
    if tiny:
        argv.append("--tiny")
    if noncausal:
        argv.append("--noncausal")
    subprocess.run(argv, check=True, timeout=170, stdout=subprocess.DEVNULL)


def load_workload(workload: str, workdir: str):
    import numpy as np

    import daeminimax
    from workloads import WORKLOAD_CLASSES

    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    with np.load(os.path.join(workdir, "truth.npz")) as npz:
        truth = {key: npz[key] for key in npz.files}
    return WORKLOAD_CLASSES[workload](daeminimax, workdir, manifest, truth)


# Median seconds of reference() on the machine the benchmark was defined
# on: 2 vCPUs (Xeon), Python 3.11.7, NumPy 2.4.6, one BLAS thread.
REFERENCE_S = 0.0036


def reference() -> float:
    """Seconds taken by a fixed computation of the program's kind: small
    eigendecompositions dispatched from Python, using no package code.
    The median of 3 timings, so that one interrupted timing does not
    count."""
    import numpy as np

    timings = []
    for _ in range(3):
        start = perf_counter()
        m = np.eye(5) + 0.1 * np.arange(25.0).reshape(5, 5)
        m = m @ m.T
        for _ in range(150):
            w, v = np.linalg.eigh(m)
            m = 0.5 * ((v * w) @ v.T + m.T) + 1e-3 * np.eye(5)
        timings.append(perf_counter() - start)
    return statistics.median(timings)


# An operation's speed is judged from the references timed within this
# many seconds of it: enough of them to damp the jitter of short
# measurements, few enough to follow the machine's drift.
REFERENCE_WINDOW_S = 0.5


def at_reference_speed(walls, refs):
    """Each of ``walls`` scaled to the speed at which reference() takes
    REFERENCE_S; ``refs[i]`` is reference() timed right after ``walls[i]``.

    A shared host's speed drifts by up to half, over seconds to minutes,
    and every timing of a run drifts with it; the reference, timed next
    to each measurement, drifts alike and cancels it.  Each wall time is
    scaled by the median reference within REFERENCE_WINDOW_S of it, and
    at least by the median of the references before and after it and
    after the next one.
    """
    k = max(1, int(REFERENCE_WINDOW_S / statistics.median(walls)))
    return [wall * REFERENCE_S / statistics.median(refs[max(0, i - k):i + k + 1])
            for i, wall in enumerate(walls)]


def timed_run(work, seconds: float):
    """Closed loop over whole passes of the workload's pool of operations,
    as many as come closest to ``seconds``, at least one.

    Whole passes keep the mix of operations the same however fast the
    machine runs.  The set-up repetitions are spread evenly through the
    operations, so that setup_s samples the machine over the same
    stretch of time as the operations do.  Every timing is reported at
    reference speed; the report also keeps the wall times.
    """
    work.op(0)  # warm-up, not counted
    reference()
    walls, refs, setup_walls, setup_refs, checks = [], [], [], [], []
    passes = 0
    while not passes or sum(walls) * (1.0 + 0.5 / passes) < seconds:
        for j in range(work.pool_size):
            i = passes * work.pool_size + j
            elapsed, raw = work.op(i)
            walls.append(elapsed)
            refs.append(reference())
            checks.append(work.check(i, raw))
            due = len(setup_walls) * seconds / work.setup_reps
            if len(setup_walls) < work.setup_reps and sum(walls) >= due:
                setup_walls.append(work.setup(len(setup_walls)))
                setup_refs.append(reference())
        passes += 1
    while len(setup_walls) < work.setup_reps:
        setup_walls.append(work.setup(len(setup_walls)))
        setup_refs.append(reference())
    times = at_reference_speed(walls, refs)
    # Set-up repetitions lie far apart: each has only its own reference.
    setups = [wall * REFERENCE_S / ref for wall, ref in zip(setup_walls, setup_refs)]
    summary = summarize_checks(checks)
    tail_value, tail_pct, tail_count = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": summary["steps"] / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        **summary,
        "setup_reps_s": setups,
        "op_tail_percentile": tail_pct,
        "op_count": tail_count,
        "op_min_s": min(times),
        "op_max_s": max(times),
        "op_times_s": times,
        "wall": {
            "setup_s": statistics.median(setup_walls),
            "steps_per_s": summary["steps"] / sum(walls),
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail(walls)[0],
            "timed_s": sum(walls),
            "setup_reps_s": setup_walls,
            "op_times_s": walls,
            "reference_s": refs,
        },
    }
    return metrics, report


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer, untraced, traced, ops_counts, ops_lapack, n_ops):
    """Per-layer metrics from the spans of the traced pass."""
    from tracing import FACTORIZATIONS, QUERIES, tau_exponent

    spans = tracer.spans
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def dur(name):
        return _mean(spans[i].duration for i in by_name.get(name, []))

    def per_call(name, kinds=FACTORIZATIONS):
        idx = [FACTORIZATIONS.index(kind) for kind in kinds]
        return _mean(sum(spans[i].counts[j] for j in idx) for i in by_name.get(name, []))

    validate = by_name.get("model.validate", [])
    weights = sum(spans[i].value for i in validate)
    queries = [i for name in QUERIES for i in by_name.get(name, [])
               if spans[i].parent < 0 or spans[spans[i].parent].name not in QUERIES]
    betas = [spans[i].value for i in by_name.get("estimator.estimate", [])]
    finite = [b for b in betas if math.isfinite(b)]
    selfs = tracer.self_times()
    cli_main = by_name.get("cli.main", [])
    untraced_s = sum(t for t, _ in untraced)
    traced_s = sum(t for t, _ in traced)
    matrices = tracer.matrices
    summary = summarize_checks([c for _, c in untraced])
    return {
        "model.validate_s": dur("model.validate"),
        "model.validate_factorizations":
            sum(sum(spans[i].counts) for i in validate) / weights if weights else 0.0,
        "formats.load_model_file_s": dur("formats.load_model_file"),
        "formats.measurement_rows_s": dur("formats.measurement_rows"),
        "formats.write_table_s": dur("formats.write_table"),
        "formats.rows_written":
            sum(spans[i].value for i in by_name.get("formats.write_table", [])) / n_ops,
        "cli.self_s": sum(s for span, s in zip(spans, selfs) if span.name.startswith("cli."))
                      / len(cli_main) if cli_main else 0.0,
        "estimator.run_s": dur("estimator.run"),
        "estimator.step_us": 1e6 * dur("estimator.step"),
        "estimator.step_factorizations": per_call("estimator.step"),
        "estimator.step_eigh": per_call("estimator.step", ("eigh",)),
        "estimator.step_eigvalsh": per_call("estimator.step", ("eigvalsh",)),
        "estimator.estimate_us": 1e6 * dur("estimator.estimate"),
        "estimator.ell_error_us": 1e6 * dur("estimator.ell_error"),
        "estimator.direction_bounds_us": 1e6 * dur("estimator.direction_bounds"),
        "estimator.membership_us": 1e6 * dur("estimator.membership"),
        "estimator.query_factorizations": _mean(sum(spans[i].counts) for i in queries),
        "estimator.estimate_svd": per_call("estimator.estimate", ("svd",)),
        "estimator.ell_error_svd": per_call("estimator.ell_error", ("svd",)),
        "estimator.direction_bounds_svd": per_call("estimator.direction_bounds", ("svd",)),
        "estimator.membership_svd": per_call("estimator.membership", ("svd",)),
        "estimator.beta_max": max(finite) if finite else 0.0,
        "estimator.beta_nonfinite": len(betas) - len(finite),
        "linalg.eigh_calls": ops_counts["eigh"] / n_ops,
        "linalg.eigvalsh_calls": ops_counts["eigvalsh"] / n_ops,
        "linalg.svd_calls": ops_counts["svd"] / n_ops,
        "linalg.inv_calls": ops_counts["inv"] / n_ops,
        "linalg.lapack_s": ops_lapack / n_ops,
        "linalg.lapack_share": ops_lapack / untraced_s,
        "linalg.factorizations_per_matrix":
            sum(matrices.values()) / len(matrices) if matrices else 0.0,
        "batch.assemble_s": dur("batch.assemble"),
        "batch.solve_s": dur("batch.solve"),
        "batch.normal_dim_max":
            max((spans[i].value for i in by_name.get("batch.solve", [])), default=0),
        "batch.tau_exponent": tau_exponent(tracer),
        "kalman.run_kalman_s": dur("kalman.run_kalman"),
        "kalman.step_us": 1e6 * dur("kalman.kalman_step"),
        "kalman.check_regularity_s": dur("kalman.check_regularity"),
        "cli.estimate_s": dur("cli.estimate"),
        "cli.compare_batch_s": dur("cli.compare_batch"),
        "cli.compare_kalman_s": dur("cli.compare_kalman"),
        "cli.observability_s": dur("cli.observability"),
        "cli.reproduce_s": dur("cli.reproduce"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "fail_frac": summary["fail_frac"],
        "bad_step_frac": summary["bad_step_frac"],
    }


def trace_consistency(tracer) -> dict:
    """Check that the child spans account for every cli.main span: its
    own self time must stay below CLI_MAIN_SELF_SHARE of its duration."""
    from tracing import CLI_MAIN_SELF_SHARE

    selfs = tracer.self_times()
    worst = max((selfs[i] / span.duration for i, span in enumerate(tracer.spans)
                 if span.name == "cli.main" and span.duration > 0.0), default=0.0)
    return {
        "cli_main_self_share_max": worst,
        "cli_main_self_share_limit": CLI_MAIN_SELF_SHARE,
        "ok": worst <= CLI_MAIN_SELF_SHARE,
    }


def traced_run(work, spans_path):
    """Fixed op list, each op run untraced and then traced, so that drift
    of the machine's speed hits both sides of trace.overhead_frac alike;
    per-layer metrics and report."""
    import daeminimax
    from tracing import Tracer

    n_ops = work.trace_ops
    work.op(0)  # warm-up, not counted
    tracer = Tracer()
    tracer.install(daeminimax)
    try:
        work.setup(0)
    finally:
        tracer.uninstall()
    tracer.matrices.clear()
    ops_counts = dict.fromkeys(tracer.counts, 0)
    ops_lapack = 0.0
    untraced, traced = [], []
    for i in range(n_ops):
        elapsed, raw = work.op(i)
        untraced.append((elapsed, work.check(i, raw)))
        before, lapack = dict(tracer.counts), tracer.lapack_s
        tracer.install(daeminimax)
        try:
            elapsed, raw = work.op(i)
        finally:
            tracer.uninstall()
        for kind in ops_counts:
            ops_counts[kind] += tracer.counts[kind] - before[kind]
        ops_lapack += tracer.lapack_s - lapack
        traced.append((elapsed, work.check(i, raw)))
    metrics = layer_metrics(tracer, untraced, traced, ops_counts, ops_lapack, n_ops)
    summary = summarize_checks([c for _, c in untraced])
    report = {
        **summary,
        "traced_failed": summarize_checks([c for _, c in traced])["failed"],
        "trace_ops": n_ops,
        "factorizations_per_op": {k: v / n_ops for k, v in ops_counts.items()},
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "consistency": trace_consistency(tracer),
    }
    tracer.write(spans_path)
    return metrics, report


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        noncausal: bool = False):
    """Generate, set up, measure; return (result line, report)."""
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tag = f"{workload}{'-noncausal' if noncausal else ''}-seed{seed}-trace{int(trace)}"
    try:
        generate(workload, seed, workdir, tiny, noncausal)
        work = load_workload(workload, workdir)
        if trace:
            spans_path = os.path.join(OUT, f"spans-{tag}.json")
            metrics, report = traced_run(work, spans_path)
        else:
            metrics, report = timed_run(work, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": workload, "noncausal": noncausal, "seconds": seconds,
              "trace": int(trace),
              "environment": environment(seed), **report, "metrics": metrics}
    with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    with open(SPEC, encoding="utf-8") as handle:
        names = json.load(handle)["per_layer" if trace else "end_to_end"]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in names},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="daeminimax benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--noncausal", action="store_true",
                        help="noncausal specs, on which the seed's estimator diverges")
    args = parser.parse_args(argv)
    try:
        install_package_path()
    except MissingCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         noncausal=args.noncausal)
    print(json.dumps({"report": report}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
