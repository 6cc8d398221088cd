"""Descriptor-model data types, validation, simulation and the ODE embedding.

The model is the time-varying implicit linear recursion

    F[0] x_0 = f_0
    F[k+1] x_{k+1} - C[k] x_k = f_{k+1},      k = 0 .. tau-1
    y_k = H[k] x_k + g_k,                     k = 0 .. tau

with F[k], C[k] of shape (m, n), H[k] of shape (p, n), and positive
definite weights S[k] (m, m) and R[k] (p, p) defining the uncertainty
budget  sum_k (<S_k f_k, f_k> + <R_k g_k, g_k>) <= 1.

F need not be square or invertible, so the recursion may pin down only
part of the next state; simulation takes an explicit free component to
select one trajectory out of the affine solution set at each step.
Work that depends on the model alone is done once per run of equal
steps (:func:`per_run`).  Every route refuses (:func:`weight_runs`),
and :func:`validate` reports, a weight that LAPACK's Cholesky rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InconsistentDynamics, SingularMatrix
from .linalg import as_rows, pinv, qform, weight_factors

__all__ = [
    "SIM_RESIDUAL_TOL",
    "DescriptorModel",
    "matrix_sequence",
    "step_changes",
    "per_run",
    "step_runs",
    "weight_runs",
    "Trajectory",
    "ValidationReport",
    "validate",
    "simulate",
    "budget",
    "augment_ode",
    "truncate",
]

# Absolute residual above which a simulated step has no exact solution.
SIM_RESIDUAL_TOL = 1e-9


def matrix_sequence(value, name: str, count: int | None = None) -> np.ndarray:
    """Read-only (count, rows, cols) float stack of a sequence of matrices
    or, given ``count``, of one matrix for every step or a 3-D stack of
    ``count``.

    The input is copied once, unless its data already belong to a
    read-only float array (it is one, or a view of one): a model's own
    stacks and their slices stay shared, and the caller's arrays stay
    writable.  One matrix then becomes an ``np.broadcast_to`` view with
    stride 0 on the step axis.  In a sequence, a vector or a scalar reads
    as a one-row matrix.
    """
    try:
        owner = value if getattr(value, "base", None) is None else value.base
        if isinstance(owner, np.ndarray) and not owner.flags.writeable and value.dtype == float:
            arr = value
        else:
            arr = np.array(value, dtype=float)
            arr.flags.writeable = False
        if count is None:
            count = len(arr)
            if arr.ndim in (1, 2):
                arr = arr.reshape(arr.shape[:1] + (1,) * (3 - arr.ndim) + arr.shape[1:])
    except OverflowError as exc:
        raise DimensionMismatch(f"{name}: an entry is beyond the float range") from exc
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name}: not a matrix or a sequence of matrices") from exc
    if arr.ndim <= 2:
        arr = np.atleast_2d(arr)
        try:
            return np.broadcast_to(arr, (count, *arr.shape))
        except ValueError as exc:
            raise DimensionMismatch(f"{name}: cannot hold {count} steps") from exc
    if arr.ndim != 3 or len(arr) != count:
        raise DimensionMismatch(f"{name}: got shape {arr.shape}, expected a matrix or {count} stacked")
    return arr


def step_changes(seq) -> np.ndarray:
    """Per step of a per-step array (values, vectors or matrices), whether
    its entry differs bit for bit from the one before; step 0 always does.
    An array with stride 0 on the step axis compares nothing."""
    seq = np.asarray(seq)
    changes = np.zeros(len(seq), dtype=bool)
    changes[:1] = True
    if seq.strides[0]:
        bits = seq.view(f"u{seq.itemsize}")
        changes[1:] = np.any(bits[1:] != bits[:-1], axis=tuple(range(1, seq.ndim)))
    return changes


def per_run(fn, *fields) -> tuple:
    """``(values, run_of)``: ``fn`` applied in one call to the first step of
    every run of steps on which none of the per-step ``fields`` changes
    (:func:`step_changes`), and ``run_of``, the index into ``values`` of
    each step's run, so ``values[run_of[k]]`` is step k's value."""
    changes = np.logical_or.reduce([step_changes(seq) for seq in fields])
    starts = np.flatnonzero(changes)
    return fn(*(seq[starts] for seq in fields)), np.cumsum(changes) - 1


def step_runs(changes) -> list:
    """``(start, name)`` of each run of steps in a mask from
    :func:`step_changes`, named ``a`` for one step and ``a..b`` for more."""
    starts = np.flatnonzero(changes).tolist()
    ends = [end - 1 for end in starts[1:]] + [len(changes) - 1]
    return [(a, str(a) if a == b else f"{a}..{b}") for a, b in zip(starts, ends)]


def weight_runs(S, name: str, first: int = 0) -> tuple:
    """``(Wt, run_of)``: :func:`per_run` of ``linalg.weight_factors`` over
    S[first:], the one way a route factors a weight; ``Wt[run_of[k - first]]``
    is the C-contiguous W' of S_k, W'W = S_k.  A weight that Cholesky rejects
    raises SingularMatrix naming its run: ``{name}_2..3 is numerically singular``."""
    (W, accepted), run_of = per_run(weight_factors, S[first:])
    if not accepted.all():
        runs = step_runs(np.insert(step_changes(S[first:]), 0, np.ones(first, bool)))[first:]
        raise SingularMatrix(f"{name}_{runs[accepted.argmin()][1]} is numerically singular")
    return W.mT, run_of


@dataclass(frozen=True)
class DescriptorModel:
    """Implicit linear model over a finite horizon, with budget weights.

    Attributes
    ----------
    n, m, p : int
        State, equation and output dimensions.
    tau : int
        Horizon; matrices F, H, S, R have tau+1 entries, C has tau.
    F, C, H, S, R : numpy.ndarray
        The matrix sequences of the module docstring, each one read-only
        (count, rows, cols) stack however the model is built (see
        :func:`matrix_sequence`), so the estimator schedule kept on the
        model (see ``estimator.schedule``) cannot go stale.  A constant
        field has stride 0 on the step axis.
    """

    n: int
    m: int
    p: int
    tau: int
    F: np.ndarray
    C: np.ndarray
    H: np.ndarray
    S: np.ndarray
    R: np.ndarray
    # Last estimator schedule, (rank_tol, links, link_of); written only by estimator.schedule.
    _schedule: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("F", "C", "H", "S", "R"):
            object.__setattr__(self, name, matrix_sequence(getattr(self, name), name))

    @classmethod
    def from_sequences(cls, F, C, H, S, R) -> "DescriptorModel":
        """Build a model from matrix sequences, inferring (n, m, p, tau).

        Dimensions come from the stacks of F and H.  A field whose
        matrices differ in shape does not stack and raises DimensionMismatch.
        """
        F = matrix_sequence(F, "F")
        H = matrix_sequence(H, "H")
        if not len(F) or not len(H):
            raise DimensionMismatch("F and H must have at least one entry")
        _, m, n = F.shape
        p = H.shape[1]
        return cls(n=n, m=m, p=p, tau=len(F) - 1, F=F, C=C, H=H, S=S, R=R)

    @classmethod
    def constant(cls, F, C, H, S, R, tau: int) -> "DescriptorModel":
        """Build a time-invariant model: each field holds one matrix for every step."""
        if tau < 0:
            raise DimensionMismatch("tau must be nonnegative")
        counts = (tau + 1, tau, tau + 1, tau + 1, tau + 1)
        return cls.from_sequences(*map(matrix_sequence, (F, C, H, S, R), "FCHSR", counts))


@dataclass(frozen=True)
class Trajectory:
    """One realization of the model: states, inputs, noises and outputs.

    Arrays are stacked with one row per step k = 0..tau: ``states`` is
    (tau+1, n), ``inputs`` (tau+1, m), ``noises`` and ``outputs`` (tau+1, p).
    """

    states: np.ndarray
    inputs: np.ndarray
    noises: np.ndarray
    outputs: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: empty ``issues`` means the model is usable."""

    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.issues)


def _issues(mats, shape, weight: bool) -> list:
    """What is wrong with each matrix of a stack from one field, or None:
    its shape, then non-finite entries, then for a weight asymmetry and
    definiteness.  Each check is one call over the stack."""
    if mats.shape[1:] != shape:
        return [f"dimension mismatch: got {mats.shape[1:]}, expected {shape}"] * len(mats)
    finite = np.isfinite(mats).all(axis=(1, 2))
    found = [None if ok else "has non-finite entries" for ok in finite.tolist()]
    if weight:
        at = np.flatnonzero(finite)
        # |S - S'| > 1e-12 max(1, |S|), halved: h - h' and h + h', the
        # symmetric part, cannot overflow where S - S' and S + S' can.
        half = 0.5 * mats[at]
        scale = np.abs(half).max(axis=(1, 2), initial=0.5)
        skew = np.abs(half - half.mT).max(axis=(1, 2), initial=0.0) > 1e-12 * scale
        for i in at[skew].tolist():
            found[i] = "not symmetric"
        at = at[~skew]
        # linalg.weight_factors decides; an eigenvalue only words a rejection.
        for i in at[~weight_factors(mats[at])[1]].tolist():
            value = np.linalg.eigvalsh(0.5 * mats[i] + 0.5 * mats[i].T)[0]
            found[i] = f"not positive definite (min eigenvalue {value:.3g})"
    return found


def validate(model: DescriptorModel) -> ValidationReport:
    """Check shapes, finiteness and weight positivity; never raises.

    Every finding is reported, so a single call lists all dimension
    mismatches and all non-positive-definite weights at once.  Each field
    is checked in stacked calls over the steps where its matrix changes
    (:func:`step_changes`), and a finding is reported once per run of
    equal matrices, named by :func:`step_runs`: ``S_3`` alone, ``S_0..9`` a run.
    """
    issues = []
    n, m, p, tau = model.n, model.m, model.p, model.tau
    if min(n, m, p) < 1 or tau < 0:
        issues.append(f"bad dimensions n={n} m={m} p={p} tau={tau}")
    fields = (
        ("F", model.F, tau + 1, (m, n), False),
        ("C", model.C, tau, (m, n), False),
        ("H", model.H, tau + 1, (p, n), False),
        ("S", model.S, tau + 1, (m, m), True),
        ("R", model.R, tau + 1, (p, p), True),
    )
    issues.extend(f"{name} has {len(seq)} entries, expected {count}"
                  for name, seq, count, _, _ in fields if len(seq) != count)
    for name, seq, _, shape, weight in fields:
        changes = step_changes(seq)
        found = _issues(seq[changes], shape, weight)
        if any(found):
            # Only a field with an issue walks its runs of steps.
            issues.extend(f"{name}_{run} {issue}"
                          for (_, run), issue in zip(step_runs(changes), found) if issue)
    return ValidationReport(issues=tuple(issues))


def _input_rows(value, count: int, dim: int, name: str) -> np.ndarray:
    """Zeros when ``value`` is None, else :func:`linalg.as_rows` of it."""
    return np.zeros((count, dim)) if value is None else as_rows(value, count, dim, name)


def simulate(model: DescriptorModel, f, g, w=None, rank_tol: float = 0.0) -> Trajectory:
    """Roll the implicit recursion forward, selecting one exact trajectory.

    Each step solves ``F[k+1] x_{k+1} = C[k] x_k + f_{k+1}`` in the least
    squares sense and adds the projection of ``w_{k+1}`` onto the null
    space of ``F[k+1]``:

        x_{k+1} = pinv(F) (C x_k + f_{k+1}) + (I - pinv(F) F) w_{k+1}

    so the free component ``w`` chooses among the (possibly many) exact
    solutions; ``pinv(F)`` and ``I - pinv(F) F`` are formed once per run of
    equal ``F[k]``.  When F is square and invertible the step does not
    depend on ``w`` at all.  Outputs are noiseless in the model sense:
    ``y_k = H[k] x_k + g_k`` exactly.

    Parameters
    ----------
    f : array_like
        Inputs, shape (tau+1, m); ``f[0]`` is the initial-condition datum.
    g : array_like
        Output noises, shape (tau+1, p).
    w : array_like, optional
        Free components, shape (tau+1, n); zeros when omitted.
    rank_tol : float
        Relative cutoff of ``pinv(F)``; 0 selects the default.

    Raises
    ------
    InvalidMatrix, DimensionMismatch
        If an input is not a finite array of its shape.
    InconsistentDynamics
        If at some step the right side lies outside the range of F and no
        exact solution exists (residual above ``SIM_RESIDUAL_TOL``).
    """
    tau, n, m, p = model.tau, model.n, model.m, model.p
    f = _input_rows(f, tau + 1, m, "f")
    g = _input_rows(g, tau + 1, p, "g")
    w = _input_rows(w, tau + 1, n, "w")

    states = np.zeros((tau + 1, n))
    for k, (Fk, new) in enumerate(zip(model.F, step_changes(model.F))):
        if new:
            Fp = pinv(Fk, rank_tol)
            null = np.eye(n) - Fp @ Fk
        rhs = f[0] if k == 0 else model.C[k - 1] @ states[k - 1] + f[k]
        x = Fp @ rhs + null @ w[k]
        residual = float(np.linalg.norm(Fk @ x - rhs))
        if residual > SIM_RESIDUAL_TOL:
            raise InconsistentDynamics(f"step {k}: no exact solution, residual {residual:.3e}")
        states[k] = x
    outputs = np.matvec(model.H, states) + g
    return Trajectory(states=states, inputs=f.copy(), noises=g.copy(), outputs=outputs)


def budget(model: DescriptorModel, f, g) -> float:
    """Value of the uncertainty functional sum_k <S_k f_k, f_k> + <R_k g_k, g_k>.

    The model guarantees hold when this does not exceed 1; the value is
    reported as-is and never clamped.  Inputs are checked as in :func:`simulate`.
    """
    f = _input_rows(f, model.tau + 1, model.m, "f")
    g = _input_rows(g, model.tau + 1, model.p, "g")
    total = 0.0
    for k in range(model.tau + 1):
        total += qform(model.S[k], f[k]) + qform(model.R[k], g[k])
    return float(total)


def augment_ode(A, output_map, S, R, tau: int | None = None) -> DescriptorModel:
    """Embed an explicit recursion with unknown drive into descriptor form.

    The plant  ``q_{k+1} = A_k q_k + v_k``, observed via ``output_map``,
    with the drive v wholly unknown, becomes a descriptor model on the
    doubled state x_k = (q_k, v_k):

        F_k = [I 0],   C_k = [A_k I],   H_k = [output_map_k 0]

    Only the initial condition datum f_0 = q_0 and output noise remain in
    the budget (weights S and R); the drive rides in the unweighted half
    of the state, so those directions stay unobservable by construction.

    Each matrix argument may be a single matrix (time-invariant, requires
    ``tau``) or a stacked sequence: A with tau entries, the others tau+1.
    """
    if tau is None:
        for value, offset in ((output_map, -1), (S, -1), (R, -1), (A, 0)):
            if np.ndim(value) == 3:
                tau = len(value) + offset
                break
        else:
            raise DimensionMismatch("tau is required when all arguments are single matrices")
    A = matrix_sequence(A, "A", tau)
    output_map = matrix_sequence(output_map, "output_map", tau + 1)
    S = matrix_sequence(S, "S", tau + 1)
    R = matrix_sequence(R, "R", tau + 1)
    n = S.shape[1]
    if A.shape[1:] != (n, n):
        raise DimensionMismatch(f"A must be {n}-by-{n}, got {A.shape[1:]}")
    if output_map.shape[2] != n:
        raise DimensionMismatch(f"output_map has {output_map.shape[2]} columns, expected {n}")
    eye = np.eye(n)
    F = matrix_sequence(np.hstack([eye, np.zeros((n, n))]), "F", tau + 1)
    C = _widened(A, eye, "C")
    H = _widened(output_map, np.zeros((output_map.shape[1], n)), "H")
    return DescriptorModel.from_sequences(F, C, H, S, R)


def _widened(seq: np.ndarray, right: np.ndarray, name: str) -> np.ndarray:
    """Each matrix of ``seq`` with the columns ``right`` appended; a stack
    with stride 0 on the step axis (one matrix for every step) stays one."""
    if len(seq) and not seq.strides[0]:
        return matrix_sequence(np.hstack([seq[0], right]), name, len(seq))
    return np.concatenate((seq, np.broadcast_to(right, (len(seq), *right.shape))), axis=2)


def truncate(model: DescriptorModel, tau: int) -> DescriptorModel:
    """Restriction of the model to the shorter horizon 0..tau."""
    if not 0 <= tau <= model.tau:
        raise DimensionMismatch(f"cannot truncate horizon {model.tau} to {tau}")
    return DescriptorModel.from_sequences(model.F[: tau + 1], model.C[:tau], model.H[: tau + 1],
                                          model.S[: tau + 1], model.R[: tau + 1])
