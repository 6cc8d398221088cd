"""The four benchmark workloads: their operations and their checks.

Each workload drives the package from outside, one call at a time.  An
operation returns its wall time and its raw outputs; checks run after
the clock stops, in two parts so the self-test can perturb a result:
``parse`` turns raw outputs into plain values and ``evaluate`` applies
the checks.  Any failed check fails the operation; every exception the
package raises (``numpy.linalg.LinAlgError`` included) is caught and
recorded as a failed operation.

Tolerances come from the package's own constants:

* ``beta`` must lie in ``[-BETA_TOL, 1 + BETA_TOL]`` and not be NaN.
  Exact theory gives ``beta <= 1``, and ``estimator.BETA_TOL`` is the
  margin the package itself applies to ``beta``.
* The generator's true state must satisfy the membership inequality
  ``<P d, d> <= beta + MEMBERSHIP_SLACK`` (``d`` its distance from the
  centre).  Along a direction with reported radius ``rho`` this allows
  ``|<l, d>| <= rho * sqrt(1 + MEMBERSHIP_SLACK / beta)``, plus
  ``ROUNDOFF`` relative to the magnitudes compared.
* ``compare`` discrepancies must not exceed ``cli.COMPARE_TOL``.
* Exit codes must be 0: generated data is feasible (budget 0.9) and
  ``compare`` and ``reproduce-example`` are expected to succeed.
  ``observability`` and ``reproduce-example`` are checked by exit status
  and row count only.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Check:
    """Outcome of checking one operation."""

    steps: int = 0  # horizon steps fully processed
    reported: int = 0  # steps whose results were reported and checked
    bad_steps: int = 0  # reported steps that violate an invariant
    failures: list = field(default_factory=list)


def _fail(check: Check, reason: str) -> None:
    if reason not in check.failures:
        check.failures.append(reason)


def _exception(exc: BaseException) -> str:
    return f"exception {type(exc).__module__}.{type(exc).__name__}"


def call_cli(pkg, argv):
    """Run ``cli.main(argv)`` in-process; return (seconds, raw outputs)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        error = f"SystemExit {exc.code}"
    except Exception as exc:
        error = _exception(exc)
    seconds = perf_counter() - start
    return seconds, {"code": code, "error": error, "stdout": out.getvalue()}


def _cli_status(check: Check, raw) -> None:
    if raw["error"] is not None:
        _fail(check, raw["error"])
    elif raw["code"] != 0:
        _fail(check, f"exit code {raw['code']}")


def _read_text(path):
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse_csv(text):
    """(header, float rows) of a CSV table; (None, []) when it is missing."""
    if text is None:
        return None, []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [[float(cell) for cell in row] for row in reader if row]


class Workload:
    """Common base; subclasses define one operation and its checks."""

    # Operations in the traced run: a fixed list, so counts repeat exactly.
    trace_ops = 1
    # Distinct operations; operation i repeats operation i mod pool_size.
    pool_size = 1
    # Set-up repetitions per run; setup_s is their median.
    setup_reps = 5

    def __init__(self, pkg, workdir, manifest, truth):
        self.pkg = pkg
        self.dir = workdir
        self.manifest = manifest
        self.truth = truth
        est = pkg.estimator
        self.beta_tol = est.BETA_TOL
        self.slack = est.MEMBERSHIP_SLACK
        self.roundoff = 8.0 * pkg.linalg.EPS
        self.compare_tol = pkg.cli.COMPARE_TOL

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup_specs(self, rep: int) -> list:
        raise NotImplementedError

    def setup(self, rep: int) -> float:
        """Load and validate the specs of one operation; return seconds."""
        formats, model = self.pkg.formats, self.pkg.model
        start = perf_counter()
        for spec in self.setup_specs(rep):
            loaded, _ = formats.load_model_file(self.path(spec))
            model.validate(loaded)
        return perf_counter() - start

    def op(self, i: int):
        raise NotImplementedError

    def parse(self, i: int, raw):
        raise NotImplementedError

    def evaluate(self, i: int, parsed) -> Check:
        raise NotImplementedError

    def check(self, i: int, raw) -> Check:
        try:
            parsed = self.parse(i, raw)
        except (ValueError, KeyError, IndexError) as exc:
            return Check(failures=[f"unreadable output: {type(exc).__name__}"])
        return self.evaluate(i, parsed)

    # -- shared checks -----------------------------------------------------

    def beta_ok(self, beta: float) -> bool:
        return -self.beta_tol <= beta <= 1.0 + self.beta_tol

    def inside(self, truth: float, low: float, high: float, beta: float) -> bool:
        """Whether a true projection lies within reported bounds, with slack."""
        if not (low <= high):
            return False
        value, radius = 0.5 * (low + high), 0.5 * (high - low)
        allowed = radius * math.sqrt(1.0 + self.slack / beta) if beta > 0.0 else 0.0
        allowed += self.roundoff * max(1.0, abs(value), abs(truth))
        return abs(truth - value) <= allowed


class EstimateWorkload(Workload):
    """CLI ``estimate`` over a pool of (spec, measurements) pairs.

    Operation i runs the command on pool entry i mod pool size, writing
    every step's estimate, beta and direction bounds to CSV.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.pool = self.manifest["specs"]
        self.pool_size = len(self.pool)
        self.n = self.manifest["n"]
        self.tau = self.manifest["tau"]

    def entry(self, i):
        return self.pool[i % self.pool_size]

    def setup_specs(self, rep):
        return [self.entry(rep)["spec"]]

    def op(self, i):
        entry = self.entry(i)
        out = self.path("estimate.csv")
        argv = ["estimate", "--spec", self.path(entry["spec"]),
                "--measurements", self.path(entry["measurements"]), "--out", out]
        argv += ["--direction=" + ",".join(repr(v) for v in ell) for ell in entry["directions"]]
        if os.path.exists(out):
            os.remove(out)
        seconds, raw = call_cli(self.pkg, argv)
        raw["csv"] = _read_text(out)
        return seconds, raw

    def parse(self, i, raw):
        header, rows = _parse_csv(raw["csv"])
        entry = self.entry(i)
        parsed = {"code": raw["code"], "error": raw["error"], "rows": []}
        if not header:
            return parsed
        col = {name: j for j, name in enumerate(header)}
        xs = self.truth[entry["truth"]]
        dirs = [np.asarray(ell) for ell in entry["directions"]]
        for row in rows:
            k = int(row[col["k"]])
            item = {
                "k": k,
                "xhat": [row[col[f"xhat{j}"]] for j in range(self.n)],
                "beta": row[col["beta"]],
                "bounds": [],
            }
            for j, ell in enumerate(dirs):
                truth = float(ell @ xs[k]) if 0 <= k < len(xs) else math.nan
                item["bounds"].append((row[col[f"dir{j}_low"]], row[col[f"dir{j}_high"]],
                                       row[col[f"dir{j}_observable"]], truth))
            parsed["rows"].append(item)
        return parsed

    def evaluate(self, i, parsed):
        check = Check(steps=len(parsed["rows"]), reported=len(parsed["rows"]))
        _cli_status(check, parsed)
        if parsed["error"] is None and len(parsed["rows"]) != self.tau + 1:
            _fail(check, "missing rows")
        for item in parsed["rows"]:
            bad = False
            if not all(math.isfinite(v) for v in item["xhat"]):
                bad = True
                _fail(check, "non-finite xhat")
            if not self.beta_ok(item["beta"]):
                bad = True
                _fail(check, "beta outside [-BETA_TOL, 1+BETA_TOL] or NaN")
            for low, high, observable, truth in item["bounds"]:
                if observable == 1.0 and not self.inside(truth, low, high, item["beta"]):
                    bad = True
                    _fail(check, "true state outside reported bounds")
            check.bad_steps += bad
        return check


class LongHorizon(EstimateWorkload):
    trace_ops = 4
    setup_reps = 6


class WideState(EstimateWorkload):
    trace_ops = 2
    setup_reps = 3


class MonteCarlo(Workload):
    """Library API on one model object, many measurement sequences.

    Operation i runs ``estimator.run`` on sequence i mod count, then
    ``estimate``, ``direction_bounds`` along an orthonormal basis of the
    observable subspace, and ``membership`` of the true final state.  The
    basis comes from the final projector, which depends only on the
    model, and is computed once before timing.
    """

    trace_ops = 24
    setup_reps = 15

    def __init__(self, *args):
        super().__init__(*args)
        self.model, _ = self.pkg.formats.load_model_file(self.path(self.manifest["spec"]))
        self.ys = self.truth["ys"]
        self.pool_size = len(self.ys)
        self.finals = self.truth["x_final"]
        est = self.pkg.estimator
        final = est.run(self.model, self.ys[0])[-1]
        vals, vecs = np.linalg.eigh(est.estimate(final).projector)
        self.basis = [vecs[:, j].copy() for j in range(len(vals)) if vals[j] > 0.5]

    def setup_specs(self, rep):
        return [self.manifest["spec"]]

    def op(self, i):
        est = self.pkg.estimator
        seq = i % self.pool_size
        raw = {"errors": [], "beta": None, "bounds": [], "member": None}
        start = perf_counter()
        try:
            final = est.run(self.model, self.ys[seq])[-1]
        except Exception as exc:
            raw["errors"].append(_exception(exc))
            return perf_counter() - start, raw
        try:
            raw["beta"] = est.estimate(final).beta
        except Exception as exc:
            raw["errors"].append(_exception(exc))
        for ell in self.basis:
            try:
                raw["bounds"].append(est.direction_bounds(final, ell))
            except Exception as exc:
                raw["errors"].append(_exception(exc))
                raw["bounds"].append(None)
        try:
            raw["member"] = est.membership(final, self.finals[seq])
        except Exception as exc:
            raw["errors"].append(_exception(exc))
        return perf_counter() - start, raw

    def parse(self, i, raw):
        x = self.finals[i % self.pool_size]
        parsed = dict(raw)
        parsed["truths"] = [float(ell @ x) for ell in self.basis]
        return parsed

    def evaluate(self, i, parsed):
        check = Check()
        for error in parsed["errors"]:
            _fail(check, error)
        if parsed["beta"] is None and not parsed["bounds"]:
            return check
        check.steps = self.manifest["tau"] + 1
        check.reported = 1
        beta = parsed["beta"]
        bad = False
        if beta is None or not self.beta_ok(beta):
            bad = True
            _fail(check, "beta outside [-BETA_TOL, 1+BETA_TOL] or NaN")
        for bounds, truth in zip(parsed["bounds"], parsed["truths"]):
            if bounds is None or beta is None or not self.inside(truth, *bounds, beta):
                bad = True
                _fail(check, "true state outside reported bounds")
        if not parsed["member"]:
            bad = True
            _fail(check, "true state fails membership")
        check.bad_steps = int(bad)
        return check


class OracleCheck(Workload):
    """One session: compare --mode batch, compare --mode kalman,
    observability and reproduce-example, each through ``cli.main``."""

    trace_ops = 2
    setup_reps = 5
    DEMO_ROWS = 40

    def setup_specs(self, rep):
        return [self.manifest[key]["spec"] for key in ("batch", "kalman", "observe")]

    def commands(self):
        m = self.manifest
        return [
            ("compare_batch", ["compare", "--spec", self.path(m["batch"]["spec"]),
                               "--measurements", self.path(m["batch"]["measurements"]),
                               "--mode", "batch"]),
            ("compare_kalman", ["compare", "--spec", self.path(m["kalman"]["spec"]),
                                "--measurements", self.path(m["kalman"]["measurements"]),
                                "--mode", "kalman"]),
            ("observability", ["observability", "--spec", self.path(m["observe"]["spec"])]),
            ("reproduce", ["reproduce-example", "--out-dir", self.path("example")]),
        ]

    def op(self, i):
        raws, total = {}, 0.0
        for name, argv in self.commands():
            seconds, raws[name] = call_cli(self.pkg, argv)
            total += seconds
        raws["reproduce"]["csv"] = _read_text(os.path.join(self.path("example"), "estimate.csv"))
        return total, raws

    @staticmethod
    def _lines(raw):
        return [line for line in raw["stdout"].splitlines() if line]

    def parse(self, i, raw):
        parsed = {}
        for name in ("compare_batch", "compare_kalman"):
            rows = []
            for line in self._lines(raw[name])[1:]:
                if line.startswith("max_discrepancy"):
                    break
                rows.append([float(v) for v in line.split(",")[1:]])
            parsed[name] = {**raw[name], "rows": rows}
        obs = raw["observability"]
        rows = []
        for line in self._lines(obs)[1:]:
            if line.startswith("observable subspace basis"):
                break
            rows.append(line)
        parsed["observability"] = {**obs, "rows": rows}
        rep = raw["reproduce"]
        _, rows = _parse_csv(rep["csv"])
        parsed["reproduce"] = {**rep, "rows": rows}
        return parsed

    def evaluate(self, i, parsed):
        check = Check()
        m = self.manifest
        for name in ("compare_batch", "compare_kalman"):
            item = parsed[name]
            _cli_status(check, item)
            key = "batch" if name == "compare_batch" else "kalman"
            if item["error"] is None and len(item["rows"]) != m[key]["tau"] + 1:
                _fail(check, f"{name}: missing rows")
            for row in item["rows"]:
                check.reported += 1
                if not all(v <= self.compare_tol for v in row):  # NaN fails too
                    check.bad_steps += 1
                    _fail(check, f"{name}: discrepancy above COMPARE_TOL or NaN")
        obs = parsed["observability"]
        _cli_status(check, obs)
        if obs["error"] is None and len(obs["rows"]) != m["observe"]["tau"] + 1:
            _fail(check, "observability: missing rows")
        rep = parsed["reproduce"]
        _cli_status(check, rep)
        if rep["error"] is None and len(rep["rows"]) != self.DEMO_ROWS:
            _fail(check, "reproduce: missing rows")
        # Every command processes its horizon; only compare rows carry checked values.
        check.steps = check.reported + len(obs["rows"]) + len(rep["rows"])
        return check


WORKLOAD_CLASSES = {
    "long-horizon": LongHorizon,
    "wide-state": WideState,
    "monte-carlo": MonteCarlo,
    "oracle-check": OracleCheck,
}
