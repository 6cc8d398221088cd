"""Recursive minimax estimator and the geometry of its informational set.

After processing measurements y_0..y_k the estimator keeps the triple
(P_k, r_k, alpha_k).  It encodes the value function

    B_k(q) = min { sum of weighted squared residuals over all
                   trajectories x_0..x_k with x_k = q }
           = <P_k q, q> - 2 <r_k, q> + alpha_k

which is quadratic with P_k symmetric positive semidefinite.  The set of
final states consistent with the data and the unit uncertainty budget is
the sublevel set {q : B_k(q) <= 1}, a possibly degenerate and possibly
unbounded ellipsoid

    X(k) = xhat_k + sqrt(beta_k) * {u : <P_k u, u> <= 1}

centered at xhat_k = pinv(P_k) r_k with squared radius scale
beta_k = 1 - alpha_k + <P_k xhat_k, xhat_k>.  Directions outside
range(P_k) have unbounded shadow; range(P_k) is the observable subspace
and n - rank(P_k) counts the unobservable directions (the noncausality
index: it is zero exactly when the model behaves like a causal filtering
problem).

Each state also stores the kept eigenpairs (V_r, lam_r) of P_k, from the
one eigendecomposition per step that checks and cleans P_k, and every
query reads them: xhat = V_r (V_r' r / lam_r), rank = len(lam_r),
projector V_r V_r'.  Each step factors S_k as W'W by Cholesky instead of
taking its symmetric square root.

A negative beta_k (below -BETA_TOL) certifies that no trajectory within
the unit budget explains the data; it is reported, never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentData,
    NumericalBreakdown,
    OutsideObservable,
)
from .linalg import EPS, as_vector, qform, relative_cutoff, symmetrize
from .model import DescriptorModel

__all__ = [
    "BETA_TOL",
    "MEMBERSHIP_SLACK",
    "PSD_TOL",
    "FilterState",
    "EstimateReport",
    "init",
    "step",
    "run",
    "estimate",
    "ell_error",
    "direction_bounds",
    "membership",
]

# Consistency margin on beta: values below -BETA_TOL mean the data cannot
# be explained within the unit budget.
BETA_TOL = 1e-9
# Slack added to the membership inequality to absorb roundoff.
MEMBERSHIP_SLACK = 1e-9
# P must stay positive semidefinite; eigenvalues below -PSD_TOL (relative
# to the spectral radius) abort the recursion.
PSD_TOL = 1e-9


@dataclass(frozen=True)
class FilterState:
    """Sufficient statistic (P_k, r_k, alpha_k) after step k.

    ``V`` and ``lam`` are the kept eigenpairs of P_k, so that
    P = V diag(lam) V' up to roundoff; every set query reads them.
    """

    k: int
    P: np.ndarray
    r: np.ndarray
    alpha: float
    V: np.ndarray
    lam: np.ndarray


@dataclass(frozen=True)
class EstimateReport:
    """Central estimate and the shape of the informational set at one step;
    ``basis`` has orthonormal columns spanning range(P_k)."""

    xhat: np.ndarray
    beta: float
    basis: np.ndarray
    observable_rank: int
    noncausality_index: int
    consistent: bool

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto range(P_k); the exact identity at full rank."""
        n = self.basis.shape[0]
        return np.eye(n) if self.observable_rank == n else self.basis @ self.basis.T


def _factored(k: int, P: np.ndarray, r: np.ndarray, alpha: float, rank_tol: float) -> FilterState:
    """Filter state with the kept eigenpairs of P, from one eigh of P.

    Eigenvalues below -PSD_TOL (relative to the spectral radius) abort;
    those at or below the shared cutoff become exact zeros.  Leaving such
    roundoff-scale eigenvalues in P would let the next step's
    pseudoinverse keep a junk direction of B = P + C'SC and amplify it by
    its reciprocal, which can destroy positive semidefiniteness; at exact
    zero a kept junk direction satisfies the exact Rayleigh bound
    u'C'SCu <= lambda, so its contribution stays O(eps).
    """
    eigs, vecs = np.linalg.eigh(P)
    top = max(float(eigs[-1]), 0.0)
    if float(eigs[0]) < -PSD_TOL * max(1.0, top):
        raise NumericalBreakdown(
            f"step {k}: P lost positive semidefiniteness (min eigenvalue {eigs[0]:.3e})"
        )
    keep = eigs > relative_cutoff(rank_tol, P.shape) * top
    V, lam = vecs[:, keep], eigs[keep]
    if not bool(np.all(keep)):
        P = (V * lam) @ V.T
        P = 0.5 * (P + P.T)
    return FilterState(k=k, P=P, r=r, alpha=float(alpha), V=V, lam=lam)


def _weight_factor(S: np.ndarray) -> np.ndarray:
    """W with W'W = S: the transposed Cholesky factor, or, for a weight
    that is not numerically definite, diag(sqrt(clipped eigenvalues)) V'."""
    try:
        return np.linalg.cholesky(S).T
    except np.linalg.LinAlgError:
        eigs, vecs = np.linalg.eigh(S)
        return np.sqrt(np.clip(eigs, 0.0, None))[:, None] * vecs.T


def _measurement(model: DescriptorModel, y, k: int) -> np.ndarray:
    vec = as_vector(y, f"y_{k}")
    if vec.shape != (model.p,):
        raise DimensionMismatch(f"y_{k}: got shape {vec.shape}, expected ({model.p},)")
    return vec


def init(model: DescriptorModel, y0, rank_tol: float = 0.0) -> FilterState:
    """State of the recursion after absorbing the k = 0 data.

    P_0 = F_0' S_0 F_0 + H_0' R_0 H_0,  r_0 = H_0' R_0 y_0,
    alpha_0 = <R_0 y_0, y_0>.
    """
    y0 = _measurement(model, y0, 0)
    F0, H0, S0, R0 = model.F[0], model.H[0], model.S[0], model.R[0]
    P0 = symmetrize(F0.T @ S0 @ F0 + H0.T @ R0 @ H0)
    return _factored(0, P0, H0.T @ (R0 @ y0), qform(R0, y0), rank_tol)


def step(state: FilterState, model: DescriptorModel, y, rank_tol: float = 0.0) -> FilterState:
    """Advance the recursion from step k-1 to k with measurement y_k.

    The transition equation F_k x_k - C_{k-1} x_{k-1} = f_k carries the
    weight S_k, matching the index the budget assigns to f_k.  With
    B_{k-1} = P_{k-1} + C_{k-1}' S_k C_{k-1}:

        P_k = H_k' R_k H_k
              + F_k' (S_k - S_k C_{k-1} pinv(B_{k-1}) C_{k-1}' S_k) F_k
        r_k = F_k' S_k C_{k-1} pinv(B_{k-1}) r_{k-1} + H_k' R_k y_k
        alpha_k = alpha_{k-1} + <R_k y_k, y_k>
                  - <pinv(B_{k-1}) r_{k-1}, r_{k-1}>

    The parenthesized term in P_k is never formed by that expression:
    expanding pinv(B) between two copies of C'S suffers catastrophic
    cancellation once B carries a small kept eigenvalue lambda (the error
    scales with eps/lambda, which reached 1e-2 on hard random models).
    Instead, with W'W = S (W the transposed Cholesky factor), G = W C and
    B = P + G'G eigendecomposed as V diag(lambda) V', let
    K = G V_r diag(lambda_r^{-1/2}).  Every column of K has exact norm at
    most 1 because lambda = v'Pv + |Gv|^2, so

        S - S C pinv(B) C' S  =  W' (I - K K') W

    is evaluated from quantities of unit scale (error eps/sqrt(lambda))
    and I - K K', whose exact spectrum lies in [0, 1], is clipped back
    into that interval before use.  One eigendecomposition of P_k then
    checks it, clears its sub-cutoff eigenvalues and gives its eigenpairs.
    """
    k = state.k + 1
    if k > model.tau:
        raise DimensionMismatch(f"step {k} is beyond the model horizon {model.tau}")
    y = _measurement(model, y, k)
    F, H, R = model.F[k], model.H[k], model.R[k]
    C = model.C[k - 1]

    W = _weight_factor(model.S[k])
    G = W @ C
    B = symmetrize(state.P + G.T @ G)
    eigs, vecs = np.linalg.eigh(B)
    keep = eigs > relative_cutoff(rank_tol, B.shape) * max(float(eigs[-1]), 0.0)
    V = vecs[:, keep]
    lam = eigs[keep]
    K = G @ (V / np.sqrt(lam))

    M = symmetrize(np.eye(K.shape[0]) - K @ K.T)
    me, mv = np.linalg.eigh(M)
    M = (mv * np.clip(me, 0.0, 1.0)) @ mv.T
    WF = W @ F
    P = symmetrize(H.T @ R @ H + WF.T @ M @ WF)

    w = V.T @ state.r  # coordinates of r_{k-1} in the kept eigenbasis of B
    r = WF.T @ (K @ (w / np.sqrt(lam))) + H.T @ (R @ y)
    alpha = state.alpha + qform(R, y) - float(w @ (w / lam))
    return _factored(k, P, r, alpha, rank_tol)


def run(model: DescriptorModel, ys, rank_tol: float = 0.0) -> list:
    """All filter states for the measurement rows ys[0..tau], in order."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[0] == 1 and model.p == 1 and model.tau + 1 > 1:
        ys = ys.reshape(-1, 1)
    if ys.shape != (model.tau + 1, model.p):
        raise DimensionMismatch(
            f"measurements: got shape {ys.shape}, expected {(model.tau + 1, model.p)}"
        )
    states = [init(model, ys[0], rank_tol)]
    for k in range(1, model.tau + 1):
        states.append(step(states[-1], model, ys[k], rank_tol))
    return states


def _solution(state: FilterState, rank_tol: float):
    """Kept eigenpairs under the query cutoff, with xhat and beta.

    The state already holds P's eigenpairs above the run's cutoff; a
    stricter query cutoff drops more of them through the same rule.
    xhat = V (V'r / lam) and beta = 1 - alpha + |V'r / sqrt(lam)|^2.
    """
    V, lam = state.V, state.lam
    if lam.size:
        keep = lam > relative_cutoff(rank_tol, state.P.shape) * float(lam[-1])
        V, lam = V[:, keep], lam[keep]
    u = (V.T @ state.r) / np.sqrt(lam)
    return V, lam, V @ (u / np.sqrt(lam)), 1.0 - state.alpha + float(u @ u)


def estimate(state: FilterState, rank_tol: float = 0.0) -> EstimateReport:
    """Central estimate, consistency value beta and observability summary.

    xhat = pinv(P) r lies in range(P) by construction;
    beta = 1 - alpha + <P xhat, xhat>.  ``consistent`` is False when beta
    falls below -BETA_TOL, meaning no trajectory within the unit budget
    can produce the processed measurements.
    """
    V, lam, xhat, beta = _solution(state, rank_tol)
    return EstimateReport(
        xhat=xhat,
        beta=beta,
        basis=V,
        observable_rank=lam.size,
        noncausality_index=state.P.shape[0] - lam.size,
        consistent=beta >= -BETA_TOL,
    )


def _consistent_solution(state: FilterState, vec, name: str, rank_tol: float):
    vec = as_vector(vec, name)
    if vec.shape != state.r.shape:
        raise DimensionMismatch(f"{name}: got shape {vec.shape}, expected {state.r.shape}")
    V, lam, xhat, beta = _solution(state, rank_tol)
    if beta < -BETA_TOL:
        raise InconsistentData(f"beta = {beta:.3e} below -{BETA_TOL:g}")
    return vec, V, lam, xhat, beta


def ell_error(state: FilterState, ell, rank_tol: float = 0.0) -> float:
    """Worst-case error of the estimate in direction ell.

    Returns sqrt(beta) * sqrt(<pinv(P) ell, ell>) when ell lies in the
    observable subspace range(P), and ``math.inf`` otherwise (an infinite
    radius is an answer, not an error).

    Raises
    ------
    InconsistentData
        If beta < -BETA_TOL, since no error radius exists for data that
        violates the budget.
    """
    ell, V, lam, _, beta = _consistent_solution(state, ell, "ell", rank_tol)
    # Outside range(P) beyond the cutoff, floored at the projection's own roundoff.
    tol = max(relative_cutoff(rank_tol, ell.shape), 8.0 * EPS) * float(np.linalg.norm(ell))
    c = V.T @ ell
    if lam.size < ell.size and float(np.linalg.norm(ell - V @ c)) > tol:
        return inf
    return sqrt(max(beta, 0.0) * float(c @ (c / lam)))


def direction_bounds(state: FilterState, ell, rank_tol: float = 0.0):
    """Guaranteed interval for <ell, x_tau> over the informational set.

    Returns ``(low, high)`` with midpoint <ell, xhat>.

    Raises
    ------
    OutsideObservable
        If ell is not in the observable subspace (the interval would be
        the whole line).
    InconsistentData
        If beta < -BETA_TOL.
    """
    ell = as_vector(ell, "ell")
    radius = ell_error(state, ell, rank_tol)
    if radius == inf:
        raise OutsideObservable("direction outside the observable subspace")
    center = float(ell @ _solution(state, rank_tol)[2])
    return center - radius, center + radius


def membership(state: FilterState, x, rank_tol: float = 0.0) -> bool:
    """Whether x belongs to the informational set X(k).

    Tests <P (x - xhat), x - xhat> <= beta + MEMBERSHIP_SLACK; directions
    in the null space of P are unconstrained, as in X(k) itself.
    """
    x, V, lam, xhat, beta = _consistent_solution(state, x, "x", rank_tol)
    c = V.T @ (x - xhat)
    return float(c @ (lam * c)) <= beta + MEMBERSHIP_SLACK
