"""Spans and factorization counters for the traced benchmark run.

Wrappers are installed from here, around the package's public functions
at the names their callers look up, and removed afterwards; the package
itself carries no tracing code.  Each call of a wrapped function records
one span ``(name, start, end, parent)`` in memory.  Every
``numpy.linalg`` factorization is counted by kind, timed, and keyed by the
content of its input matrix, and each span keeps the counts that fell
inside it.  The spans are written once, at the end.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# numpy.linalg entry points that factorize their argument.  Every module
# of the package reaches them as ``np.linalg.<name>`` at call time.
FACTORIZATIONS = ("eigh", "eigvalsh", "svd", "inv", "cholesky", "lstsq")

# Per CLI command, the child spans must account for the cli.main span
# within this share: cli.main's own self time (argument parsing and
# dispatch) stays below it.
CLI_MAIN_SELF_SHARE = 0.1

QUERIES = ("estimator.estimate", "estimator.ell_error",
           "estimator.direction_bounds", "estimator.membership")


def _compare_name(args, _kwargs):
    return f"cli.compare_{args[0].mode}"


def _rows(args, _kwargs, _result):
    return len(args[2])


def _weights(args, _kwargs, _result):
    model = args[0]
    return len(model.S) + len(model.R)


def _normal_dim(_args, _kwargs, result):
    return result.normal_matrix.shape[0]


def _beta(_args, _kwargs, result):
    return result.beta


def wrapped_functions(pkg):
    """(module, attribute, span name, measure) for every wrapped callable.

    ``cli`` binds several functions at import, so those are wrapped under
    the cli module's names as well as their home module's; ``estimator.run``
    looks ``step`` up through module globals, ``kalman.run_kalman`` does the
    same for ``kalman_step``.  A span name may be a callable of the
    arguments; ``measure`` stores one number on the span.
    """
    cli, estimator, formats, model = pkg.cli, pkg.estimator, pkg.formats, pkg.model
    batch, kalman, demo = pkg.batch, pkg.kalman, pkg.demo
    return [
        (cli, "main", "cli.main", None),
        (cli, "cmd_estimate", "cli.estimate", None),
        (cli, "cmd_compare", _compare_name, None),
        (cli, "cmd_observability", "cli.observability", None),
        (cli, "cmd_reproduce", "cli.reproduce", None),
        (cli, "load_model_file", "formats.load_model_file", None),
        (cli, "measurement_rows", "formats.measurement_rows", None),
        (cli, "write_table", "formats.write_table", _rows),
        (cli, "validate", "model.validate", _weights),
        (cli, "truncate", "model.truncate", None),
        (cli, "pinv", "linalg.pinv", None),
        (cli, "range_projector", "linalg.range_projector", None),
        (formats, "load_model_file", "formats.load_model_file", None),
        (formats, "measurement_rows", "formats.measurement_rows", None),
        (formats, "read_table", "formats.read_table", None),
        (formats, "write_table", "formats.write_table", _rows),
        (model, "validate", "model.validate", _weights),
        (model, "truncate", "model.truncate", None),
        (estimator, "init", "estimator.init", None),
        (estimator, "step", "estimator.step", None),
        (estimator, "run", "estimator.run", None),
        (estimator, "estimate", "estimator.estimate", _beta),
        (estimator, "ell_error", "estimator.ell_error", None),
        (estimator, "direction_bounds", "estimator.direction_bounds", None),
        (estimator, "membership", "estimator.membership", None),
        (batch, "assemble", "batch.assemble", None),
        (batch, "solve", "batch.solve", _normal_dim),
        (kalman, "check_regularity", "kalman.check_regularity", None),
        (kalman, "run_kalman", "kalman.run_kalman", None),
        (kalman, "kalman_init", "kalman.kalman_init", None),
        (kalman, "kalman_step", "kalman.kalman_step", None),
        (demo, "build_model", "demo.build_model", None),
        (demo, "plant_trajectory", "demo.plant_trajectory", None),
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "value")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None
        self.value = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder and numpy.linalg counters; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.counts = dict.fromkeys(FACTORIZATIONS, 0)
        self.lapack_s = 0.0
        self.matrices = Counter()

    # -- recording --------------------------------------------------------

    def span(self, name, func, measure=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            before = tuple(tracer.counts.values())
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                span.counts = tuple(a - b for a, b in zip(tracer.counts.values(), before))
            if measure is not None:
                span.value = measure(args, kwargs, result)
            return result

        return wrapper

    def _factorization(self, kind, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(a, *args, **kwargs):
            arr = np.ascontiguousarray(a)
            digest = hashlib.blake2b(arr, digest_size=16).digest()
            tracer.matrices[(arr.shape, arr.dtype.str, digest)] += 1
            tracer.counts[kind] += 1
            start = perf_counter()
            try:
                return func(a, *args, **kwargs)
            finally:
                tracer.lapack_s += perf_counter() - start

        return wrapper

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, pkg) -> None:
        for module, attr, name, measure in wrapped_functions(pkg):
            self._patch(module, attr, self.span(name, getattr(module, attr), measure))
        for kind in FACTORIZATIONS:
            self._patch(np.linalg, kind, self._factorization(kind, getattr(np.linalg, kind)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Duration of each span minus the time covered by its children."""
        covered = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent].append((span.start, span.end))
        out = []
        for i, span in enumerate(self.spans):
            busy, reach = 0.0, span.start
            for start, end in sorted(covered[i]):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    busy += end - start
                    reach = end
            out.append(span.duration - busy)
        return out

    def write(self, path) -> None:
        names = sorted({span.name for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent"],
            "names": names,
            "spans": [[index[s.name], s.start, s.end, s.parent] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _log_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx if sxx else 0.0


def tau_exponent(tracer) -> float:
    """Growth exponent of ``compare --mode batch`` in the horizon.

    Within one command, the cumulative solve time through step k is what
    the command costs at horizon k; this is the log-log slope of that
    cumulative time against k + 1 over the upper half of the horizon,
    the median over the traced commands.
    """
    slopes = []
    spans = tracer.spans
    for i, span in enumerate(spans):
        if span.name != "cli.compare_batch":
            continue
        solves = [s.duration for s in spans[i + 1:] if s.name == "batch.solve"
                  and s.start >= span.start and s.end <= span.end]
        if len(solves) < 4:
            continue
        cumulative, total = [], 0.0
        for d in solves:
            total += d
            cumulative.append(total)
        half = len(solves) // 2
        slopes.append(_log_slope(range(half + 1, len(solves) + 1), cumulative[half:]))
    return statistics.median(slopes) if slopes else 0.0
