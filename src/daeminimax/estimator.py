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

P_k, and with it the observable subspace and the noncausality index,
depends on the model alone; only r_k and alpha_k see the data.  So the
recursion is split.  :func:`schedule` computes one :class:`Link` per
step: the kept eigenpairs (V_r, lam_r) of P_k, from the one
eigendecomposition that checks and cleans it, and the transport factors
of r and alpha.  The data pass maps (r, alpha) through the links and
factorizes nothing.  The model keeps its last schedule, and its matrices
are read-only so that schedule cannot go stale: a second :func:`run` on
the same model object factorizes nothing.  :func:`init` and :func:`step`
compute and apply one link each, through the same code.  Only the
schedule goes through ``symmetrize``, so an ``AsymmetryWarning`` comes
once per model and cutoff, not once per run.

Each state holds (V_r, lam_r) and the run's ``rank_tol`` they were kept
under, and its ``P`` is assembled from them on request.  :func:`estimate`
solves a state once from them, at that cutoff:
xhat = V_r (V_r' r / lam_r), rank = len(lam_r), projector V_r V_r'; its
report keeps the eigenpairs, so :func:`radius` answers every direction
without solving again.  Each link factors S_k as W'W by Cholesky instead
of taking its symmetric square root, and a step that reads the same
matrix objects as the step before reuses that factor and its products.

A negative beta_k (below -BETA_TOL) certifies that no trajectory within
the unit budget explains the data; it is reported, never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentData,
    NumericalBreakdown,
    OutsideObservable,
)
from .linalg import EPS, as_rows, as_vector, qform, relative_cutoff, symmetrize
from .model import DescriptorModel

__all__ = [
    "BETA_TOL",
    "MEMBERSHIP_SLACK",
    "PSD_TOL",
    "FilterState",
    "EstimateReport",
    "Link",
    "schedule",
    "init",
    "step",
    "run",
    "estimate",
    "radius",
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


def _assemble(V: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """V diag(lam) V', symmetrized."""
    P = (V * lam) @ V.T
    return 0.5 * (P + P.T)


@dataclass(frozen=True)
class FilterState:
    """Sufficient statistic (P_k, r_k, alpha_k) after step k.

    ``V`` and ``lam`` are the read-only kept eigenpairs of P_k under the
    run's cutoff ``rank_tol``; every set query reads them, and ``P`` is
    assembled from them on request.
    """

    k: int
    r: np.ndarray
    alpha: float
    V: np.ndarray
    lam: np.ndarray
    rank_tol: float

    @property
    def P(self) -> np.ndarray:
        """The information matrix P_k = V diag(lam) V'."""
        return _assemble(self.V, self.lam)


@dataclass(frozen=True)
class EstimateReport:
    """Central estimate and the shape of the informational set at one step.

    ``basis`` has orthonormal columns spanning range(P_k), ``lam`` holds
    the eigenvalues of P_k paired with them, and ``rank_tol`` is the run's
    cutoff they were kept under; :func:`radius` reads all three.
    """

    xhat: np.ndarray
    beta: float
    basis: np.ndarray
    lam: np.ndarray
    rank_tol: float
    observable_rank: int
    noncausality_index: int
    consistent: bool

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto range(P_k); the exact identity at full rank."""
        n = self.basis.shape[0]
        return np.eye(n) if self.observable_rank == n else self.basis @ self.basis.T


class Link(NamedTuple):
    """The model-only part of step k.

    ``V``, ``lam`` are the kept eigenpairs of P_k.  The data pass maps
    (r_{k-1}, alpha_{k-1}) to (r_k, alpha_k) through u = E' r_{k-1}:

        r_k = L u + HtR y_k,   alpha_k = alpha_{k-1} + <R y_k, y_k> - |u|^2

    with E = V_B diag(lam_B^{-1/2}) over the kept eigenpairs of B_{k-1}
    and L = (W F_k)' K; at k = 0 both have no columns.
    """

    V: np.ndarray
    lam: np.ndarray
    E: np.ndarray
    L: np.ndarray
    HtR: np.ndarray
    R: np.ndarray


def _weight_factor(S: np.ndarray) -> np.ndarray:
    """W with W'W = S: the transposed Cholesky factor, or, for a weight
    that is not numerically definite, diag(sqrt(clipped eigenvalues)) V'."""
    try:
        return np.linalg.cholesky(S).T
    except np.linalg.LinAlgError:
        eigs, vecs = np.linalg.eigh(S)
        return np.sqrt(np.clip(eigs, 0.0, None))[:, None] * vecs.T


class _Products(NamedTuple):
    """The products of step k that depend on the model alone.

    With W'W = S_k: G = W C_{k-1}, GtG = G'G and WF = W F_k (all None at
    k = 0), HtR = H_k'R_k, HtRH = H_k'R_k H_k, and R = R_k.
    """

    G: np.ndarray | None
    GtG: np.ndarray | None
    WF: np.ndarray | None
    HtR: np.ndarray
    HtRH: np.ndarray
    R: np.ndarray


def _products(model: DescriptorModel, k: int) -> _Products:
    """Step k's model-only products (see :class:`_Products`)."""
    H, R = model.H[k], model.R[k]
    HtR = H.T @ R
    if k == 0:
        return _Products(None, None, None, HtR, HtR @ H, R)
    W = _weight_factor(model.S[k])
    G = W @ model.C[k - 1]
    return _Products(G, G.T @ G, W @ model.F[k], HtR, HtR @ H, R)


def _same_matrices(model: DescriptorModel, k: int) -> bool:
    """Whether step k >= 2 reads the very objects step k-1 read, so that
    its model-only products are those of step k-1."""
    return (
        model.F[k] is model.F[k - 1]
        and model.C[k - 1] is model.C[k - 2]
        and model.H[k] is model.H[k - 1]
        and model.S[k] is model.S[k - 1]
        and model.R[k] is model.R[k - 1]
    )


def _link(V_prev, lam_prev, model: DescriptorModel, k: int, rank_tol: float,
          prod: _Products) -> Link:
    """Step k of the recursion without the data: P_k and the transport.

    P_{k-1} = V_prev diag(lam_prev) V_prev' and ``prod`` holds
    :func:`_products` of step k; the formulas are those of :func:`init`
    and :func:`step`.  The term
    S_k - S_k C_{k-1} pinv(B_{k-1}) C_{k-1}' S_k of P_k is never formed
    by that expression: expanding pinv(B) between two copies of C'S
    suffers catastrophic cancellation once B carries a small kept
    eigenvalue lambda (the error scales with eps/lambda, which reached
    1e-2 on hard random models).  Instead, with
    W'W = S (W the transposed Cholesky factor), G = W C and
    B = P + G'G eigendecomposed as V diag(lambda) V', let
    K = G V_r diag(lambda_r^{-1/2}).  Every column of K has exact norm at
    most 1 because lambda = v'Pv + |Gv|^2, so

        S - S C pinv(B) C' S  =  W' (I - K K') W

    is evaluated from quantities of unit scale (error eps/sqrt(lambda))
    and I - K K', whose exact spectrum lies in [0, 1], is clipped back
    into that interval before use.

    One eigendecomposition of P_k then checks it and gives its kept
    eigenpairs: eigenvalues below -PSD_TOL (relative to the spectral
    radius) abort, and those at or below the shared cutoff are dropped.
    Leaving such roundoff-scale eigenvalues in P would let the next
    step's pseudoinverse keep a junk direction of B = P + C'SC and amplify
    it by its reciprocal, which can destroy positive semidefiniteness; at
    exact zero a kept junk direction satisfies the exact Rayleigh bound
    u'C'SCu <= lambda, so its contribution stays O(eps).
    """
    if k == 0:
        E = L = np.zeros((model.n, 0))
        F = model.F[0]
        transported = F.T @ model.S[0] @ F
    else:
        B = symmetrize(_assemble(V_prev, lam_prev) + prod.GtG)
        eigs, vecs = np.linalg.eigh(B)
        keep = eigs > relative_cutoff(rank_tol, B.shape) * max(float(eigs[-1]), 0.0)
        E = vecs[:, keep] / np.sqrt(eigs[keep])
        K = prod.G @ E
        M = symmetrize(np.eye(K.shape[0]) - K @ K.T)
        me, mv = np.linalg.eigh(M)
        M = (mv * np.clip(me, 0.0, 1.0)) @ mv.T
        L = prod.WF.T @ K
        transported = prod.WF.T @ M @ prod.WF
    P = symmetrize(prod.HtRH + transported)

    eigs, vecs = np.linalg.eigh(P)
    top = max(float(eigs[-1]), 0.0)
    if float(eigs[0]) < -PSD_TOL * max(1.0, top):
        raise NumericalBreakdown(
            f"step {k}: P lost positive semidefiniteness (min eigenvalue {eigs[0]:.3e})"
        )
    keep = eigs > relative_cutoff(rank_tol, P.shape) * top
    link = Link(V=vecs[:, keep], lam=eigs[keep], E=E, L=L, HtR=prod.HtR, R=prod.R)
    # States and reports hand these arrays out, and the model keeps them.
    for arr in (link.V, link.lam, link.E, link.L, link.HtR):
        arr.flags.writeable = False
    return link


def _apply(link: Link, k: int, r: np.ndarray, alpha: float, y: np.ndarray,
           rank_tol: float) -> FilterState:
    """The data pass of step k: no factorization."""
    u = link.E.T @ r
    r = link.L @ u + link.HtR @ y
    alpha = alpha + qform(link.R, y) - float(u @ u)
    return FilterState(k=k, r=r, alpha=alpha, V=link.V, lam=link.lam, rank_tol=rank_tol)


def schedule(model: DescriptorModel, rank_tol: float = 0.0) -> tuple:
    """The links of steps 0..tau, which depend on the model alone.

    While step k reads the same matrix objects as step k-1, it reuses that
    step's model-only products (the Cholesky factor of S_k and the products
    with it), so a time-invariant model factors its weight once.  The model
    keeps its last schedule, so a second call with the same ``rank_tol``
    factorizes nothing; the model's matrices are read-only, so the kept
    schedule cannot go stale.
    """
    kept = model._schedule
    if kept is not None and kept[0] == rank_tol:
        return kept[1]
    links = [_link(None, None, model, 0, rank_tol, _products(model, 0))]
    for k in range(1, model.tau + 1):
        # Only the previous step's products are held: a dict over all steps
        # would keep every step's products alive on a time-varying model.
        if k == 1 or not _same_matrices(model, k):
            prod = _products(model, k)
        links.append(_link(links[-1].V, links[-1].lam, model, k, rank_tol, prod))
    links = tuple(links)
    object.__setattr__(model, "_schedule", (rank_tol, links))
    return links


def init(model: DescriptorModel, y0, rank_tol: float = 0.0) -> FilterState:
    """State of the recursion after absorbing the k = 0 data.

    P_0 = F_0' S_0 F_0 + H_0' R_0 H_0,  r_0 = H_0' R_0 y_0,
    alpha_0 = <R_0 y_0, y_0>, at the cutoff ``rank_tol`` of the whole chain.
    """
    y0 = as_rows(y0, 1, model.p, "y_0")[0]
    link = _link(None, None, model, 0, rank_tol, _products(model, 0))
    return _apply(link, 0, np.zeros(model.n), 0.0, y0, rank_tol)


def step(state: FilterState, model: DescriptorModel, y) -> FilterState:
    """Advance the chain from step k-1 to k with y_k, at its cutoff ``state.rank_tol``.

    The transition equation F_k x_k - C_{k-1} x_{k-1} = f_k carries the
    weight S_k, matching the index the budget assigns to f_k.  With
    B_{k-1} = P_{k-1} + C_{k-1}' S_k C_{k-1}:

        P_k = H_k' R_k H_k
              + F_k' (S_k - S_k C_{k-1} pinv(B_{k-1}) C_{k-1}' S_k) F_k
        r_k = F_k' S_k C_{k-1} pinv(B_{k-1}) r_{k-1} + H_k' R_k y_k
        alpha_k = alpha_{k-1} + <R_k y_k, y_k>
                  - <pinv(B_{k-1}) r_{k-1}, r_{k-1}>

    computed as one link (see :func:`_link`) applied to the data.
    """
    k = state.k + 1
    if k > model.tau:
        raise DimensionMismatch(f"step {k} is beyond the model horizon {model.tau}")
    y = as_rows(y, 1, model.p, f"y_{k}")[0]
    link = _link(state.V, state.lam, model, k, state.rank_tol, _products(model, k))
    return _apply(link, k, state.r, state.alpha, y, state.rank_tol)


def run(model: DescriptorModel, ys, rank_tol: float = 0.0) -> list:
    """All filter states for the measurement rows ys[0..tau], in order:
    the model's :func:`schedule` followed by the data pass."""
    ys = as_rows(ys, model.tau + 1, model.p, "measurements")
    r, alpha = np.zeros(model.n), 0.0
    states = []
    for k, link in enumerate(schedule(model, rank_tol)):
        states.append(_apply(link, k, r, alpha, ys[k], rank_tol))
        r, alpha = states[-1].r, states[-1].alpha
    return states


def _checked(state: FilterState, vec, name: str) -> np.ndarray:
    vec = as_vector(vec, name)
    if vec.shape != state.r.shape:
        raise DimensionMismatch(f"{name}: got shape {vec.shape}, expected {state.r.shape}")
    return vec


def _require_consistent(report: EstimateReport) -> None:
    if report.beta < -BETA_TOL:
        raise InconsistentData(f"beta = {report.beta:.3e} below -{BETA_TOL:g}")


def estimate(state: FilterState) -> EstimateReport:
    """Central estimate, consistency value beta and observability summary.

    xhat = pinv(P) r lies in range(P) by construction;
    beta = 1 - alpha + <P xhat, xhat>.  ``consistent`` is False when beta
    falls below -BETA_TOL, meaning no trajectory within the unit budget
    can produce the processed measurements.

    The state holds P's eigenpairs above the run's cutoff:
    xhat = V (V'r / lam) and beta = 1 - alpha + |V'r / sqrt(lam)|^2.  The
    report keeps the eigenpairs, so :func:`radius` answers any direction
    from it without solving again.
    """
    V, lam = state.V, state.lam
    u = (V.T @ state.r) / np.sqrt(lam)
    beta = 1.0 - state.alpha + float(u @ u)
    return EstimateReport(
        xhat=V @ (u / np.sqrt(lam)),
        beta=beta,
        basis=V,
        lam=lam,
        rank_tol=state.rank_tol,
        observable_rank=lam.size,
        noncausality_index=state.r.size - lam.size,
        consistent=beta >= -BETA_TOL,
    )


def radius(report: EstimateReport, ell: np.ndarray) -> float:
    """Worst-case error of the report's estimate in direction ell.

    Returns sqrt(beta) * sqrt(<pinv(P) ell, ell>) when ell lies in the
    observable subspace range(P), and ``math.inf`` otherwise (an infinite
    radius is an answer, not an error).  ``ell`` must be a finite float
    vector of length n; :func:`ell_error` checks it, this function does
    not.

    Raises
    ------
    InconsistentData
        If beta < -BETA_TOL, since no error radius exists for data that
        violates the budget.
    """
    _require_consistent(report)
    c = report.basis.T @ ell
    if report.observable_rank < ell.size:
        # Outside range(P) beyond the cutoff, floored at the projection's own roundoff.
        tol = max(relative_cutoff(report.rank_tol, ell.shape), 8.0 * EPS) * float(np.linalg.norm(ell))
        if float(np.linalg.norm(ell - report.basis @ c)) > tol:
            return inf
    return sqrt(max(report.beta, 0.0) * float(c @ (c / report.lam)))


def ell_error(state: FilterState, ell) -> float:
    """Worst-case error of the estimate in direction ell: :func:`radius`
    of :func:`estimate`, after checking that ell is a finite vector of
    length n.
    """
    ell = _checked(state, ell, "ell")
    return radius(estimate(state), ell)


def direction_bounds(state: FilterState, ell):
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
    ell = _checked(state, ell, "ell")
    report = estimate(state)
    half = radius(report, ell)
    if half == inf:
        raise OutsideObservable("direction outside the observable subspace")
    center = float(ell @ report.xhat)
    return center - half, center + half


def membership(state: FilterState, x) -> bool:
    """Whether x belongs to the informational set X(k).

    Tests <P (x - xhat), x - xhat> <= beta + MEMBERSHIP_SLACK; directions
    in the null space of P are unconstrained, as in X(k) itself.
    """
    x = _checked(state, x, "x")
    report = estimate(state)
    _require_consistent(report)
    c = report.basis.T @ (x - report.xhat)
    return float(c @ (report.lam * c)) <= report.beta + MEMBERSHIP_SLACK
