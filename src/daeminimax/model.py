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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InconsistentDynamics
from .linalg import as_rows, pinv, qform

__all__ = [
    "SIM_RESIDUAL_TOL",
    "DescriptorModel",
    "matrix_sequence",
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


def _frozen(value) -> np.ndarray:
    """``value`` itself when it is a float matrix that neither it nor any
    array it views can write into, else a read-only float copy of it."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 2:
        base = value
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return value
    arr = np.atleast_2d(np.array(value, dtype=float))
    arr.flags.writeable = False
    return arr


def matrix_sequence(value, name: str, count: int | None = None) -> tuple:
    """Per-step tuple of read-only float matrices from a sequence of
    matrices or, given ``count``, from one matrix for every step or a 3-D
    stack of ``count``.  Each distinct input object is checked once and
    copied unless it already is a read-only float matrix over read-only
    data: steps that shared one share one array, and the caller's arrays
    stay writable.
    """
    try:
        if count is None:
            value = tuple(value)  # holds every input, so their ids stay unique
            frozen = {key: _frozen(mat) for key, mat in dict(zip(map(id, value), value)).items()}
            return tuple(map(frozen.__getitem__, map(id, value)))
        arr = _frozen(value)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name}: not a matrix or a sequence of matrices") from exc
    if arr.ndim == 2:
        return (arr,) * count
    if arr.ndim != 3 or arr.shape[0] != count:
        raise DimensionMismatch(f"{name}: got shape {arr.shape}, expected a matrix or {count} stacked")
    return tuple(arr)


@dataclass(frozen=True)
class DescriptorModel:
    """Implicit linear model over a finite horizon, with budget weights.

    Attributes
    ----------
    n, m, p : int
        State, equation and output dimensions.
    tau : int
        Horizon; matrices F, H, S, R have tau+1 entries, C has tau.
    F, C, H, S, R : tuple of numpy.ndarray
        Matrix sequences as described in the module docstring.  However
        the model is built, they are read-only (see :func:`matrix_sequence`),
        so the estimator schedule kept on the model (see
        ``estimator.schedule``) cannot go stale.
    """

    n: int
    m: int
    p: int
    tau: int
    F: tuple
    C: tuple
    H: tuple
    S: tuple
    R: tuple
    # Last estimator schedule, (rank_tol, links); written only by estimator.schedule.
    _schedule: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("F", "C", "H", "S", "R"):
            object.__setattr__(self, name, matrix_sequence(getattr(self, name), name))

    @classmethod
    def from_sequences(cls, F, C, H, S, R) -> "DescriptorModel":
        """Build a model from matrix sequences, inferring (n, m, p, tau).

        Dimensions come from the leading matrices; later entries are not
        checked here, so :func:`validate` can report every mismatch.
        """
        F = matrix_sequence(F, "F")
        H = matrix_sequence(H, "H")
        if not F or not H:
            raise DimensionMismatch("F and H must have at least one entry")
        m, n = F[0].shape
        p = H[0].shape[0]
        return cls(n=n, m=m, p=p, tau=len(F) - 1, F=F, C=C, H=H, S=S, R=R)

    @classmethod
    def constant(cls, F, C, H, S, R, tau: int) -> "DescriptorModel":
        """Build a time-invariant model by replicating one matrix of each kind."""
        if tau < 0:
            raise DimensionMismatch("tau must be nonnegative")
        return cls.from_sequences(
            [F] * (tau + 1), [C] * tau, [H] * (tau + 1), [S] * (tau + 1), [R] * (tau + 1)
        )


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


def _matrix_issue(mat, shape):
    """What is wrong with one model matrix of the given shape, or None."""
    if mat.shape != shape:
        return f"dimension mismatch: got {mat.shape}, expected {shape}"
    if not np.all(np.isfinite(mat)):
        return "has non-finite entries"
    return None


def _weight_issue(mat, shape):
    """What is wrong with one weight matrix of the given shape, or None."""
    issue = _matrix_issue(mat, shape)
    if issue is not None:
        return issue
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(mat).max()))):
        return "not symmetric"
    smallest = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
    if smallest <= 0.0:
        return f"not positive definite (min eigenvalue {smallest:.3g})"
    return None


def validate(model: DescriptorModel) -> ValidationReport:
    """Check shapes, finiteness and weight positivity; never raises.

    Every finding is reported, so a single call lists all dimension
    mismatches and all non-positive-definite weights at once.  A matrix
    object shared by several steps is checked once and reported under
    each of its names.
    """
    issues = []
    n, m, p, tau = model.n, model.m, model.p, model.tau
    if min(n, m, p) < 1 or tau < 0:
        issues.append(f"bad dimensions n={n} m={m} p={p} tau={tau}")
    fields = (
        ("F", model.F, tau + 1, (m, n), _matrix_issue),
        ("C", model.C, tau, (m, n), _matrix_issue),
        ("H", model.H, tau + 1, (p, n), _matrix_issue),
        ("S", model.S, tau + 1, (m, m), _weight_issue),
        ("R", model.R, tau + 1, (p, p), _weight_issue),
    )
    for name, seq, count, _, _ in fields:
        if len(seq) != count:
            issues.append(f"{name} has {len(seq)} entries, expected {count}")
    found = {}
    for name, seq, _, shape, check in fields:
        distinct = {id(mat): mat for mat in seq}
        for key, mat in distinct.items():
            if (key, shape, check) not in found:
                found[key, shape, check] = check(mat, shape)
        if any(found[key, shape, check] is not None for key in distinct):
            # Only a field with an issue walks its per-step names.
            for k, mat in enumerate(seq):
                issue = found[id(mat), shape, check]
                if issue is not None:
                    issues.append(f"{name}_{k} {issue}")
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
    solutions.  When F is square and invertible the step does not depend
    on ``w`` at all.  Outputs are noiseless in the model sense:
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
    eye = np.eye(n)
    for k in range(tau + 1):
        Fk = model.F[k]
        rhs = f[0] if k == 0 else model.C[k - 1] @ states[k - 1] + f[k]
        Fp = pinv(Fk, rank_tol)
        x = Fp @ rhs + (eye - Fp @ Fk) @ w[k]
        residual = float(np.linalg.norm(Fk @ x - rhs))
        if residual > SIM_RESIDUAL_TOL:
            raise InconsistentDynamics(
                f"step {k}: no exact solution, residual {residual:.3e}"
            )
        states[k] = x
    outputs = np.vstack([model.H[k] @ states[k] + g[k] for k in range(tau + 1)])
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
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 3:
                tau = arr.shape[0] + offset
                break
        else:
            raise DimensionMismatch("tau is required when all arguments are single matrices")
    A = matrix_sequence(A, "A", tau)
    output_map = matrix_sequence(output_map, "output_map", tau + 1)
    S = matrix_sequence(S, "S", tau + 1)
    R = matrix_sequence(R, "R", tau + 1)
    n = S[0].shape[0]
    for Ak in A:
        if Ak.shape != (n, n):
            raise DimensionMismatch(f"A must be {n}-by-{n}, got {Ak.shape}")
    if output_map[0].shape[1] != n:
        raise DimensionMismatch(
            f"output_map has {output_map[0].shape[1]} columns, expected {n}"
        )
    eye = np.eye(n)
    zero = np.zeros((n, n))
    F = [np.hstack([eye, zero])] * (tau + 1)
    C = [np.hstack([Ak, eye]) for Ak in A]
    H = [np.hstack([Hk, np.zeros((Hk.shape[0], n))]) for Hk in output_map]
    return DescriptorModel.from_sequences(F, C, H, S, R)


def truncate(model: DescriptorModel, tau: int) -> DescriptorModel:
    """Restriction of the model to the shorter horizon 0..tau."""
    if not 0 <= tau <= model.tau:
        raise DimensionMismatch(f"cannot truncate horizon {model.tau} to {tau}")
    return DescriptorModel(
        n=model.n,
        m=model.m,
        p=model.p,
        tau=tau,
        F=model.F[: tau + 1],
        C=model.C[:tau],
        H=model.H[: tau + 1],
        S=model.S[: tau + 1],
        R=model.R[: tau + 1],
    )
