"""Covariance-form Kalman recursion for regular descriptor models.

Valid when the stacked matrix [F_k; H_k] has full column rank n at every
step (regularity).  Then every information matrix below is invertible,
true inverses replace pseudoinverses, and the recursion reproduces the
minimax estimate exactly: P_{k|k} equals inv(P_k) of the general
estimator and xhat_{k|k} equals pinv(P_k) r_k, with noncausality index
zero throughout.

:func:`run_kalman` does the work that depends on the model alone once,
in stacked calls, before the recursion: regularity, inv(S_k) and
H_k'R_k H_k once per run of equal matrices, and H_k'R_k y_k.  Its loop
keeps only the work that depends on P.  :func:`kalman_init` and
:func:`kalman_step` form the same terms for their one step and go
through the same arithmetic, so the two routes agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .linalg import as_rows, numerical_rank, symmetrize
from .model import DescriptorModel, step_changes, step_runs

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
    decided once per run of equal (F_k, H_k), in one stacked call."""
    starts = np.flatnonzero(step_changes(model.F) | step_changes(model.H))
    ranks = numerical_rank(np.concatenate((model.F[starts], model.H[starts]), axis=1), rank_tol)
    return np.repeat(ranks == model.n, np.diff(starts, append=model.tau + 1)).tolist()


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


def _transition_inverses(S: np.ndarray) -> np.ndarray:
    """inv(S_k) for k = 1..tau, one stacked call over the runs of equal
    S_k; a singular weight raises SingularMatrix naming its run."""
    changes = step_changes(S)
    changes[1:2] = True  # S_0 is not inverted: step 0 is a run of its own
    starts = np.flatnonzero(changes)[1:]
    try:
        inverses = np.linalg.inv(S[starts])
    except np.linalg.LinAlgError:
        for (_, run), weight in zip(step_runs(changes)[1:], S[starts]):
            _inv(weight, f"S_{run}")
        raise
    return inverses[np.cumsum(changes[1:]) - 1]


def _first(F: np.ndarray, S: np.ndarray, HtRH: np.ndarray, HtRy: np.ndarray) -> KalmanState:
    """The filtered state at k = 0 from step 0's terms H_0'R_0 H_0 and H_0'R_0 y_0."""
    P = _inv(symmetrize(F.T @ S @ F + HtRH), "information matrix at k=0")
    return KalmanState(k=0, P=symmetrize(P), x=P @ HtRy)


def _advance(state: KalmanState, F: np.ndarray, C: np.ndarray, S_inv: np.ndarray,
             HtRH: np.ndarray, HtRy: np.ndarray) -> KalmanState:
    """One step of :func:`kalman_step` from the model's terms of step k:
    F_k, C_{k-1}, inv(S_k), H_k'R_k H_k and H_k'R_k y_k."""
    k = state.k + 1
    A = _inv(symmetrize(S_inv + C @ state.P @ C.T), f"gain matrix at k={k}")
    P = _inv(symmetrize(F.T @ A @ F + HtRH), f"information matrix at k={k}")
    P = symmetrize(P)
    return KalmanState(k=k, P=P, x=P @ (F.T @ (A @ (C @ state.x)) + HtRy))


def kalman_init(model: DescriptorModel, y0, rank_tol: float = 0.0) -> KalmanState:
    """Filtered state at k = 0: inv(P_{0|0}) = F_0' S_0 F_0 + H_0' R_0 H_0."""
    _require_regular(model, 0, rank_tol)
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
    y = as_rows(y, 1, model.p, f"y_{k}")[0]
    H, R = model.H[k], model.R[k]
    return _advance(state, model.F[k], model.C[k - 1], _inv(model.S[k], f"S_{k}"),
                    H.T @ R @ H, H.T @ (R @ y))


def run_kalman(model: DescriptorModel, ys, rank_tol: float = 0.0) -> list:
    """All filtered states for the measurement rows ys[0..tau], in order.

    The work that depends on the model alone comes first, in stacked
    calls: regularity, from :func:`check_regularity` (a model irregular at
    any step raises SingularMatrix naming the runs of irregular steps);
    inv(S_k) once per run of equal S_k; H_k'R_k H_k once per run of equal
    (H_k, R_k); and H_k'R_k y_k.  The loop then does only the work that
    depends on P, through the arithmetic of :func:`kalman_step`.
    """
    ys = as_rows(ys, model.tau + 1, model.p, "measurements")
    flags = check_regularity(model, rank_tol)
    if not all(flags):
        bad = ", ".join(run for k, run in step_runs(step_changes(flags)) if not flags[k])
        raise SingularMatrix(f"regularity violated at steps [{bad}]: rank [F_k; H_k] < n")
    S_inv = _transition_inverses(model.S)
    runs = step_changes(model.H) | step_changes(model.R)
    H, R = model.H[runs], model.R[runs]
    HtRH = (H.mT @ R @ H)[np.cumsum(runs) - 1]
    HtRy = np.matvec(model.H.mT, np.matvec(model.R, ys))
    states = [_first(model.F[0], model.S[0], HtRH[0], HtRy[0])]
    for k in range(1, model.tau + 1):
        states.append(_advance(states[-1], model.F[k], model.C[k - 1], S_inv[k - 1],
                               HtRH[k], HtRy[k]))
    return states
