"""Covariance-form Kalman recursion for regular descriptor models.

Valid when the stacked matrix [F_k; H_k] has full column rank n at every
step (regularity).  Then every information matrix below is invertible,
true inverses replace pseudoinverses, and the recursion reproduces the
minimax estimate exactly: P_{k|k} equals inv(P_k) of the general
estimator and xhat_{k|k} equals pinv(P_k) r_k, with noncausality index
zero throughout.

:func:`run_kalman` does the work that depends on the model alone once,
in stacked calls, before the recursion: regularity, inv(S_k) and
H_k'R_k H_k once per run of equal matrices (``model.per_run``), and
H_k'R_k y_k.  Its loop keeps only the work that depends on P.
:func:`kalman_init` and :func:`kalman_step` form the same terms for
their one step, regularity included (on a one-step slice), and go
through the same arithmetic, so the two routes agree bit for bit.
Every route refuses a weight that Cholesky rejects (``model.weight_runs``),
and inv(S_k) is inv(W) inv(W)' of the factor W'W = S_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown, SingularMatrix
from .linalg import as_rows, numerical_rank, symmetrize
from .model import DescriptorModel, per_run, step_changes, step_runs, weight_runs

__all__ = ["KalmanState", "check_regularity", "kalman_init", "kalman_step", "run_kalman"]


@dataclass(frozen=True)
class KalmanState:
    """Filtered covariance-form pair (P_{k|k}, xhat_{k|k})."""

    k: int
    P: np.ndarray
    x: np.ndarray


def _ranks(F: np.ndarray, H: np.ndarray, rank_tol: float) -> np.ndarray:
    """rank [F_k; H_k] of each step of the stacks F and H, in one stacked call."""
    return numerical_rank(np.concatenate((F, H), axis=1), rank_tol)


def check_regularity(model: DescriptorModel, rank_tol: float = 0.0) -> list:
    """Per-step regularity flags: rank [F_k; H_k] == n for k = 0..tau,
    decided once per run of equal (F_k, H_k) (``model.per_run``)."""
    ranks, run_of = per_run(lambda F, H: _ranks(F, H, rank_tol), model.F, model.H)
    return (ranks == model.n)[run_of].tolist()


def _require_regular(model: DescriptorModel, k: int, rank_tol: float) -> None:
    """The decision of :func:`check_regularity` on the one-step slice of step k."""
    if (rank := int(_ranks(model.F[k:k + 1], model.H[k:k + 1], rank_tol)[0])) < model.n:
        raise SingularMatrix(
            f"step {k}: rank [F_k; H_k] = {rank} < n = {model.n}, model not regular"
        )


def _inv(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{what} is numerically singular") from exc


def _weight_inverses(model: DescriptorModel, first: int, last: int) -> tuple:
    """``(inverses, run_of)``: inv(S_k) = inv(W) inv(W)' is ``inverses[run_of[k - first]]``
    for k = first..last, from ``model.weight_runs``, which refuses a rejected S_k or R_k."""
    Wt, run_of = weight_runs(model.S[:last + 1], "S", first)
    weight_runs(model.R[:last + 1], "R", first)
    root = np.linalg.inv(Wt.mT)
    return root @ root.mT, run_of


def _finite(mat: np.ndarray, k: int, what: str) -> np.ndarray:
    """``mat``, or a breakdown naming step k if its products overflowed."""
    if not np.isfinite(mat).all():
        raise NumericalBreakdown(f"step {k}: the {what} overflows")
    return mat


def _first(F: np.ndarray, S: np.ndarray, HtRH: np.ndarray, HtRy: np.ndarray) -> KalmanState:
    """The filtered state at k = 0 from step 0's terms H_0'R_0 H_0 and H_0'R_0 y_0."""
    with np.errstate(over="ignore", invalid="ignore"):
        info = _finite(F.T @ S @ F + HtRH, 0, "information matrix")
    P = _inv(symmetrize(info), "information matrix at k=0")
    return KalmanState(k=0, P=0.5 * (P + P.T), x=P @ HtRy)


def _advance(state: KalmanState, F: np.ndarray, C: np.ndarray, S_inv: np.ndarray,
             HtRH: np.ndarray, HtRy: np.ndarray) -> KalmanState:
    """One step of :func:`kalman_step` from the model's terms of step k:
    F_k, C_{k-1}, inv(S_k), H_k'R_k H_k and H_k'R_k y_k.  Only F'AF + H'RH
    goes through ``linalg.symmetrize``, which warns of a large skew."""
    k = state.k + 1
    with np.errstate(over="ignore", invalid="ignore"):
        gain = _finite(S_inv + C @ state.P @ C.T, k, "gain matrix")
        A = _inv(0.5 * (gain + gain.T), f"gain matrix at k={k}")
        info = _finite(F.T @ A @ F + HtRH, k, "information matrix")
    P = _inv(symmetrize(info), f"information matrix at k={k}")
    P = 0.5 * (P + P.T)
    return KalmanState(k=k, P=P, x=P @ (F.T @ (A @ (C @ state.x)) + HtRy))


def kalman_init(model: DescriptorModel, y0, rank_tol: float = 0.0) -> KalmanState:
    """Filtered state at k = 0: inv(P_{0|0}) = F_0' S_0 F_0 + H_0' R_0 H_0."""
    _require_regular(model, 0, rank_tol)
    for seq, name in zip((model.S, model.R), "SR"):
        weight_runs(seq[:1], name)
    y0 = as_rows(y0, 1, model.p, "y_0")[0]
    H0, R0 = model.H[0], model.R[0]
    return _first(model.F[0], model.S[0], H0.T @ R0 @ H0, H0.T @ (R0 @ y0))


def kalman_step(state: KalmanState, model: DescriptorModel, y, rank_tol: float = 0.0) -> KalmanState:
    """Advance the regular recursion from k-1 to k.

    The transition weight is indexed like the budget assigns it (S_k
    weighs the equation producing x_k), matching the general estimator:

        A_{k-1}   = inv( inv(S_k) + C_{k-1} P_{k-1|k-1} C_{k-1}' )
        P_{k|k}   = inv( F_k' A_{k-1} F_k + H_k' R_k H_k )
        xhat_{k|k} = P_{k|k} (F_k' A_{k-1} C_{k-1} xhat_{k-1|k-1}
                              + H_k' R_k y_k)
    """
    k = state.k + 1
    if k > model.tau:
        raise DimensionMismatch(f"step {k} is beyond the model horizon {model.tau}")
    _require_regular(model, k, rank_tol)
    S_inv = _weight_inverses(model, k, k)[0][0]
    y = as_rows(y, 1, model.p, f"y_{k}")[0]
    H, R = model.H[k], model.R[k]
    return _advance(state, model.F[k], model.C[k - 1], S_inv, H.T @ R @ H, H.T @ (R @ y))


def run_kalman(model: DescriptorModel, ys, rank_tol: float = 0.0) -> list:
    """All filtered states for the measurement rows ys[0..tau], in order.

    The work that depends on the model alone comes first, in stacked
    calls: regularity, from :func:`check_regularity` (a model irregular at
    any step raises SingularMatrix naming the runs of irregular steps);
    inv(S_k) once per run of equal S_k, refusing a rejected S_k or R_k;
    H_k'R_k H_k once per run of equal (H_k, R_k); and H_k'R_k y_k.  The
    loop then does only the work that depends on P, through the arithmetic
    of :func:`kalman_step`.
    """
    ys = as_rows(ys, model.tau + 1, model.p, "measurements")
    flags = check_regularity(model, rank_tol)
    if not all(flags):
        bad = ", ".join(run for k, run in step_runs(step_changes(flags)) if not flags[k])
        raise SingularMatrix(f"regularity violated at steps [{bad}]: rank [F_k; H_k] < n")
    S_inv, run_S = _weight_inverses(model, 0, model.tau)
    HtRH, run_HR = per_run(lambda H, R: H.mT @ R @ H, model.H, model.R)
    HtRy = np.matvec(model.H.mT, np.matvec(model.R, ys))
    states = [_first(model.F[0], model.S[0], HtRH[run_HR[0]], HtRy[0])]
    for k in range(1, model.tau + 1):
        states.append(_advance(states[-1], model.F[k], model.C[k - 1], S_inv[run_S[k]],
                               HtRH[run_HR[k]], HtRy[k]))
    return states
