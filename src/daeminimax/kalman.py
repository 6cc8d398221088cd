"""Information-form Kalman recursion for regular descriptor models.

Valid when the stacked matrix [F_k; H_k] has full column rank n at every
step (regularity).  Then every information matrix below is invertible,
true inverses replace pseudoinverses, and the recursion reproduces the
minimax estimate exactly: P_{k|k} equals inv(P_k) of the general
estimator and xhat_{k|k} equals pinv(P_k) r_k, with noncausality index
zero throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .linalg import as_rows, numerical_rank, symmetrize
from .model import DescriptorModel, step_changes

__all__ = ["KalmanState", "check_regularity", "kalman_init", "kalman_step", "run_kalman"]


@dataclass(frozen=True)
class KalmanState:
    """Filtered covariance-form pair (P_{k|k}, xhat_{k|k})."""

    k: int
    P: np.ndarray
    x: np.ndarray


def _rank(model: DescriptorModel, k: int, rank_tol: float) -> int:
    return numerical_rank(np.vstack([model.F[k], model.H[k]]), rank_tol)


def check_regularity(model: DescriptorModel, rank_tol: float = 0.0) -> list:
    """Per-step regularity flags: rank [F_k; H_k] == n for k = 0..tau,
    decided once per run of equal (F_k, H_k)."""
    starts = np.flatnonzero(step_changes(model.F) | step_changes(model.H))
    regular = [_rank(model, k, rank_tol) == model.n for k in starts.tolist()]
    return np.repeat(regular, np.diff(starts, append=model.tau + 1)).tolist()


def _require_regular(model: DescriptorModel, k: int, rank_tol: float) -> None:
    if (rank := _rank(model, k, rank_tol)) < model.n:
        raise SingularMatrix(
            f"step {k}: rank [F_k; H_k] = {rank} < n = {model.n}, model not regular"
        )


def _inv(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{what} is numerically singular") from exc


def kalman_init(model: DescriptorModel, y0, rank_tol: float = 0.0) -> KalmanState:
    """Filtered state at k = 0: inv(P_{0|0}) = F_0' S_0 F_0 + H_0' R_0 H_0."""
    _require_regular(model, 0, rank_tol)
    y0 = as_rows(y0, 1, model.p, "y_0")[0]
    F0, H0, S0, R0 = model.F[0], model.H[0], model.S[0], model.R[0]
    P = _inv(symmetrize(F0.T @ S0 @ F0 + H0.T @ R0 @ H0), "information matrix at k=0")
    return KalmanState(k=0, P=symmetrize(P), x=P @ (H0.T @ (R0 @ y0)))


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
    y = as_rows(y, 1, model.p, f"y_{k}")[0]
    F, H, S, R = model.F[k], model.H[k], model.S[k], model.R[k]
    C = model.C[k - 1]
    A = _inv(symmetrize(_inv(S, f"S_{k}") + C @ state.P @ C.T), f"gain matrix at k={k}")
    P = _inv(symmetrize(F.T @ A @ F + H.T @ R @ H), f"information matrix at k={k}")
    P = symmetrize(P)
    x = P @ (F.T @ (A @ (C @ state.x)) + H.T @ (R @ y))
    return KalmanState(k=k, P=P, x=x)


def run_kalman(model: DescriptorModel, ys, rank_tol: float = 0.0) -> list:
    """All filtered states for the measurement rows ys[0..tau], in order."""
    ys = as_rows(ys, model.tau + 1, model.p, "measurements")
    states = [kalman_init(model, ys[0], rank_tol)]
    for k in range(1, model.tau + 1):
        states.append(kalman_step(states[-1], model, ys[k], rank_tol))
    return states
