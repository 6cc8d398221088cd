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
recursion is split.  :func:`schedule` computes each distinct :class:`Link`
once, and ``link_of``, the index of each step's link: the kept eigenpairs
(V_r, lam_r) of P_k and the transport factors of r and alpha, in
square-root information form: P_k is never formed, only a factor Z_k
with P_k = Z_k'Z_k (see :func:`_link`).  Each run of equal weights is
factored once per model (``model.per_run``), and the products of the
factors with the model's matrices are computed in stacked calls over
blocks of steps (:func:`_step_products`).
On a time-invariant model a link depends only on the previous step's
eigenpairs, which recur exactly, so a recurring input reuses its link.
The data pass maps (r, alpha) through the links and factorizes nothing;
:func:`run` returns a :class:`Run`, its arrays indexed by step.  The model keeps its last schedule, and its
matrices are read-only so that schedule cannot go stale.  :func:`init`
and :func:`step` compute and apply one link each, through the same code.

Every rank decision is made on the singular values sigma of a factor,
and ``rank_tol`` is a relative cutoff on the eigenvalues sigma^2 of the
matrix it factors (P_k or B_k, n by n), as ``pinv(P, rank_tol)`` applies
it: sigma^2 > rank_tol * sigma_max^2, with the default (0) at eps * n.
An exact zero comes out of a factor near eps * sigma_max, far below.

Every query is answered by one kernel on a stack of steps of one rank q
(:func:`_centres` and :func:`_direction`): xhat = V_r (V_r' r / lam_r),
beta = 1 - alpha + |V_r' r / sqrt(lam_r)|^2, and along a direction ell,
c = V_r' ell, rho^2 = c'(c / lam_r) and the interval <ell, xhat> -/+
radius with radius = sqrt(max(beta, 0) rho^2).  :func:`answer` hands the
kernel every step of a run, one stack per rank; :func:`estimate` and
:func:`radius` hand it one step.  Each product is a ``np.matvec`` or
``np.vecdot``, which makes one BLAS call (gemv or dot) per step, the
call of that step's product alone, so a step's answers do not depend on
the steps stacked with it and the two routes agree bit for bit.  The
report of :func:`estimate` keeps the eigenpairs, so :func:`radius`
answers every direction without solving again.  The cutoff has chosen
the kept eigenpairs and is not applied twice: whether a direction lies
in range(P_k) is decided at the roundoff of its projection onto V_r, and
the radius is infinite exactly outside it.

A negative beta_k (below -BETA_TOL) certifies that no trajectory within
the unit budget explains the data; it is reported, never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, nan, sqrt
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentData,
    NumericalBreakdown,
    OutsideObservable,
)
from .linalg import EPS, as_rows, as_vector, factor_cutoff, kept_count, qform, weight_factors
from .model import DescriptorModel, per_run, step_changes

__all__ = [
    "BETA_TOL",
    "MEMBERSHIP_SLACK",
    "FilterState",
    "Run",
    "EstimateReport",
    "Link",
    "Answers",
    "schedule",
    "init",
    "step",
    "run",
    "answer",
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
# Singular values of a factor at or above this square to infinity.
_SQRT_MAX = sqrt(float(np.finfo(np.float64).max))
# Most elements in one stack of kept bases handed to the query kernel: a
# larger group of steps is answered in pieces, so a wide state never
# forms a (tau+1, q, n) array.
_STACK_ELEMENTS = 1 << 14


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
        """The information matrix P_k = V diag(lam) V', symmetrized."""
        P = (self.V * self.lam) @ self.V.T
        return 0.5 * (P + P.T)


@dataclass(frozen=True, eq=False)
class Run:
    """The steps of :func:`run`: step k has the link ``links[link_of[k]]`` and the
    data ``r[k]``, ``alpha[k]`` (all read-only); ``run[k]`` builds its FilterState."""

    links: tuple
    link_of: np.ndarray
    r: np.ndarray
    alpha: np.ndarray
    rank_tol: float

    def __len__(self) -> int:
        return self.link_of.size

    def __getitem__(self, k):
        k = range(len(self))[k]
        if isinstance(k, range):
            return [self[i] for i in k]
        link = self.links[self.link_of[k]]
        return FilterState(k, self.r[k], float(self.alpha[k]), link.V, link.lam, self.rank_tol)


@dataclass(frozen=True)
class EstimateReport:
    """Central estimate and the shape of the informational set at one step.

    ``basis`` has orthonormal columns spanning range(P_k) and ``lam``
    holds the eigenvalues of P_k paired with them; :func:`radius` reads
    both.
    """

    xhat: np.ndarray
    beta: float
    basis: np.ndarray
    lam: np.ndarray
    observable_rank: int
    noncausality_index: int
    consistent: bool

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto range(P_k); the exact identity at full rank."""
        n = self.basis.shape[0]
        return np.eye(n) if self.observable_rank == n else self.basis @ self.basis.T


class Answers(NamedTuple):
    """Every step's answers from :func:`answer`, for T steps and d directions.

    ``xhat`` is (T, n) and ``beta`` (T,); along direction j, ``value[:, j]``
    is <ell_j, xhat_k> and ``value -/+ radius`` the guaranteed interval.
    ``radius`` is inf where ell_j leaves range(P_k) and NaN where the data
    are inconsistent (beta not at or above -BETA_TOL).
    """

    xhat: np.ndarray
    beta: np.ndarray
    value: np.ndarray
    radius: np.ndarray


class Link(NamedTuple):
    """The model-only part of step k.

    ``V``, ``lam`` are the kept eigenpairs of P_k.  The data pass maps
    (r_{k-1}, alpha_{k-1}) to (r_k, alpha_k) through u = E' r_{k-1}:

        r_k = L u + HtR y_k,   alpha_k = alpha_{k-1} + <R y_k, y_k> - |u|^2

    with E = V_B diag(1/sigma_B) over the kept singular pairs of the factor
    of B_{k-1} and L = (W F_k)' K; at k = 0 both have no columns.
    """

    V: np.ndarray
    lam: np.ndarray
    E: np.ndarray
    L: np.ndarray
    HtR: np.ndarray
    R: np.ndarray


class _Products(NamedTuple):
    """The products of step k that depend on the model alone.

    With W'W = S_k and Q'Q = R_k (``linalg.weight_factors``): WF = W F_k,
    G = W C_{k-1} (zeros at k = 0, where no link reads it), QH = Q H_k,
    HtR = H_k'R_k.  For a stack of steps each has a leading step axis.
    """

    WF: np.ndarray
    G: np.ndarray
    QH: np.ndarray
    HtR: np.ndarray
    R: np.ndarray


def _stacked_products(model: DescriptorModel, k: np.ndarray, W: np.ndarray,
                      Q: np.ndarray) -> _Products:
    """The products of the ascending steps ``k`` (an index array), one
    stacked matmul each, from the (T, m, m) and (T, p, p) factors W and Q
    of their weights.  A stacked matmul makes each step's BLAS call alone,
    so every step's products equal its products on a stack of one."""
    F, H, R = model.F[k], model.H[k], model.R[k]
    WF = W @ F
    G = np.zeros_like(WF)
    late = k > 0
    if late.any():  # a model of horizon 0 may have C of any shape
        G[late] = W[late] @ model.C[k[late] - 1]
    return _Products(WF, G, Q @ H, H.mT @ R, R)


def _products(model: DescriptorModel, k: int) -> _Products:
    """Step k's products: :func:`_stacked_products` on a stack of one step."""
    at = np.array([k])
    stack = _stacked_products(model, at, weight_factors(model.S[at])[0],
                              weight_factors(model.R[at])[0])
    return _Products(*(a[0] for a in stack))


def _step_products(model: DescriptorModel):
    """Each step's :class:`_Products`, in order, one object for a run of
    steps none of whose matrices F_k, C_{k-1}, H_k, S_k, R_k changes.  The
    steps with a change are taken in blocks of at most _STACK_ELEMENTS
    product elements through :func:`_stacked_products`, and each run of
    equal weights is factored once, in one stacked call per weight field
    (``model.per_run``).  One block's products are held at a time; only
    the HtR and R that links keep outlive it."""
    changes = np.array([step_changes(model.F), np.insert(step_changes(model.C), 0, True),
                        step_changes(model.H), step_changes(model.S), step_changes(model.R)])
    new = np.flatnonzero(changes.any(axis=0))
    counts = np.diff(new, append=model.tau + 1).tolist()
    # W' of each weight run, C-contiguous, so each W keeps the layout of cholesky(S).T.
    Wt, run_S = per_run(lambda S: weight_factors(S)[0].mT, model.S)
    Qt, run_R = per_run(lambda R: weight_factors(R)[0].mT, model.R)
    m, n, p = model.m, model.n, model.p
    size = max(1, _STACK_ELEMENTS // (m * (m + 2 * n) + p * (p + 2 * n)))
    for at in range(0, new.size, size):
        k = new[at:at + size]
        block = _stacked_products(model, k, Wt[run_S[k]].mT, Qt[run_R[k]].mT)
        for i, count in enumerate(counts[at:at + size]):
            prod = _Products(*(a[i] for a in block))
            for _ in range(count):
                yield prod


def _quiet():
    """The floating-point state for the model-only products: an overflow
    there is left to :func:`_svd`'s finiteness check, which ends the run
    as a breakdown, so numpy's warnings about it would only be noise."""
    return np.errstate(over="ignore", invalid="ignore")


def _svd(M: np.ndarray, k: int, full: bool):
    """The SVD of one stacked factor of step k, behind the schedule's one
    finiteness check: a factor that overflowed, or whose squared singular
    values would, ends the run as a breakdown."""
    if np.isfinite(M).all():
        U, s, Vt = np.linalg.svd(M, full_matrices=full)
        if s[0] < _SQRT_MAX:
            return U, s, Vt
    raise NumericalBreakdown(f"step {k}: a factor of P overflows")


def _link(V_prev, lam_prev, k: int, rank_tol: float, prod: _Products) -> Link:
    """Step k of the recursion without the data: P_k and the transport.

    P_{k-1} = V_prev diag(lam_prev) V_prev' and ``prod`` holds
    :func:`_products` of step k; the formulas are those of :func:`step`.
    No information matrix is formed, only factors, whose singular values
    carry roundoff at eps relative to sigma rather than to sigma^2.  With
    W'W = S and G = W C, B = P_{k-1} + C'SC = A'A for the stacked

        A = [diag(sqrt(lam_prev)) V_prev'; G].

    One SVD of A, with its full orthogonal U, gives B's kept singular
    pairs (V_B, sigma_B), so E = V_B diag(1/sigma_B), and it splits the
    G-rows of U into K = G E (kept columns) and U_perp (the rest).  Since
    U U' = I, I - K K' = U_perp U_perp' exactly, so

        S - S C pinv(B) C' S  =  W' (I - K K') W  =  (U_perp' W)' (U_perp' W)

    has no cancellation and needs no clip, and P_k = Z'Z with
    Z = [Q H; U_perp' W F] (Q'Q = R; Z = [Q H; W F] at k = 0).  One economy
    SVD of Z gives the kept eigenpairs of P_k, lam = sigma^2; P_k cannot
    lose semidefiniteness.  Both SVDs go through :func:`_svd`, and each
    keeps sigma > sqrt(cutoff) * sigma_max: the eigenvalues of B and of P_k
    above the run's relative cutoff.
    """
    n = prod.WF.shape[1]
    cut = factor_cutoff(rank_tol, n)
    if k == 0:
        E = L = np.zeros((n, 0))
        transported = prod.WF
    else:
        A = np.concatenate((np.sqrt(lam_prev)[:, None] * V_prev.T, prod.G))
        U, s, Vt = _svd(A, k, True)
        q = kept_count(s, cut)
        E = Vt[:q].T / s[:q]
        G_rows = U[lam_prev.size:]
        L = prod.WF.T @ G_rows[:, :q]
        transported = G_rows[:, q:].T @ prod.WF
    Z = np.concatenate((prod.QH, transported))
    _, s, Vt = _svd(Z, k, False)
    q = kept_count(s, cut)
    link = Link(V=Vt[:q].T, lam=s[:q] ** 2, E=E, L=L, HtR=prod.HtR, R=prod.R)
    # States and reports hand these arrays out, and the model keeps them.
    for arr in (link.V, link.lam, link.E, link.L, link.HtR):
        arr.flags.writeable = False
    return link


def _apply(link: Link, r: np.ndarray, alpha: float, y: np.ndarray) -> tuple:
    """The data pass of step k, (r_{k-1}, alpha_{k-1}) to (r_k, alpha_k): no factorization.

    B_k(q) >= 0 for every q forces r_k into range(P_k); below full rank
    r_k is projected back onto it, so roundoff that leaves the range is
    not amplified by the next step's small kept singular values of B.
    """
    u = link.E.T @ r
    r = link.L @ u + link.HtR @ y
    if link.lam.size < r.size:
        r = link.V @ (link.V.T @ r)
    return r, alpha + qform(link.R, y) - float(u @ u)


def schedule(model: DescriptorModel, rank_tol: float = 0.0) -> tuple:
    """``(links, link_of)``: the distinct links of steps 0..tau, which depend
    on the model alone, and the read-only (tau+1,) index of each step's link.

    The products of every step come from :func:`_step_products`, in
    stacked calls over blocks of steps: a step whose matrices all repeat
    the step before's bit for bit (see ``model.step_changes``) reuses its
    products, and each run of equal weights is factored once.  While the
    products stay the same, a link is a function of its input
    (V_{k-1}, lam_{k-1}) alone, and in floating point that input falls
    into an exact cycle; so a step whose input recurs bit for bit reuses
    the link that input produced before, and a time-invariant model
    factorizes each distinct input once.  When the products change the
    table of inputs is dropped and no key is computed, so a time-varying
    model pays nothing for it.  The model keeps its last schedule, so a
    second call with the same ``rank_tol`` factorizes nothing; the
    model's matrices are read-only, so the kept schedule cannot go stale.
    """
    kept = model._schedule
    if kept is not None and kept[0] == rank_tol:
        return kept[1:]
    links, link_of, V, lam, last, seen = [], [], None, None, None, {}
    with _quiet():
        for k, prod in enumerate(_step_products(model)):
            key, seen = ((V.tobytes(), lam.tobytes()), seen) if prod is last else (None, {})
            last = prod
            i = seen.get(key)
            if i is None:
                i = seen[key] = len(links)
                links.append(_link(V, lam, k, rank_tol, prod))
            link_of.append(i)
            # The next input is the link taken here, reused or new.
            V, lam = links[i].V, links[i].lam
    links, link_of = tuple(links), np.array(link_of, np.intp)
    link_of.flags.writeable = False
    object.__setattr__(model, "_schedule", (rank_tol, links, link_of))
    return links, link_of


def init(model: DescriptorModel, y0, rank_tol: float = 0.0) -> FilterState:
    """State of the recursion after absorbing the k = 0 data.

    P_0 = F_0' S_0 F_0 + H_0' R_0 H_0,  r_0 = H_0' R_0 y_0,
    alpha_0 = <R_0 y_0, y_0>, at the cutoff ``rank_tol`` of the whole chain.
    """
    y0 = as_rows(y0, 1, model.p, "y_0")[0]
    with _quiet():
        link = _link(None, None, 0, rank_tol, _products(model, 0))
    return FilterState(0, *_apply(link, np.zeros(model.n), 0.0, y0), link.V, link.lam, rank_tol)


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
    with _quiet():
        link = _link(state.V, state.lam, k, state.rank_tol, _products(model, k))
    return FilterState(k, *_apply(link, state.r, state.alpha, y), link.V, link.lam, state.rank_tol)


def run(model: DescriptorModel, ys, rank_tol: float = 0.0) -> Run:
    """The :class:`Run` of the measurement rows ys[0..tau]: the model's
    :func:`schedule` followed by the data pass."""
    ys = as_rows(ys, model.tau + 1, model.p, "measurements")
    links, link_of = schedule(model, rank_tol)
    rs, alphas = np.empty((model.tau + 1, model.n)), np.empty(model.tau + 1)
    r, alpha = np.zeros(model.n), 0.0
    for k, i in enumerate(link_of.tolist()):
        r, alpha = rs[k], alphas[k] = _apply(links[i], r, alpha, ys[k])
    rs.flags.writeable = alphas.flags.writeable = False
    return Run(links=links, link_of=link_of, r=rs, alpha=alphas, rank_tol=rank_tol)


def _require_consistent(report: EstimateReport) -> None:
    if report.beta < -BETA_TOL:
        raise InconsistentData(f"beta = {report.beta:.3e} below -{BETA_TOL:g}")


def _centres(Vt: np.ndarray, lam: np.ndarray, r: np.ndarray, alpha) -> tuple:
    """xhat (G, n) and beta (G,) of a stack of G steps of one rank q.

    ``Vt`` (G, q, n) holds each step's V_r', ``lam`` (G, q) its kept
    eigenvalues, ``r`` (G, n) and ``alpha`` (G,) its data; one step may
    come without the stack axis.  Each product makes one BLAS call per
    step (see the module notes).
    """
    s = np.sqrt(lam)
    u = np.matvec(Vt, r) / s
    beta = (1.0 - alpha) + np.vecdot(u, u)
    return np.matvec(Vt.mT, u / s), beta


def _direction(Vt: np.ndarray, lam: np.ndarray, xhat: np.ndarray, beta,
               ell: np.ndarray) -> tuple:
    """<ell, xhat> and the radius along ``ell`` for the stack of :func:`_centres`.

    The radius is sqrt(max(beta, 0) rho^2) with c = V_r' ell and
    rho^2 = c'(c / lam), and inf where ell has a residual off V_r above
    the projection's roundoff max(eps * n, 8 eps) * |ell|.
    """
    c = np.matvec(Vt, ell)
    radius = np.sqrt(np.maximum(beta, 0.0) * np.vecdot(c, c / lam))
    if lam.shape[-1] < ell.size:
        off = ell - np.matvec(Vt.mT, c)
        tol = max(EPS * ell.size, 8.0 * EPS) * float(np.linalg.norm(ell))
        radius = np.where(np.sqrt(np.vecdot(off, off)) > tol, inf, radius)
    return np.vecdot(ell, xhat), radius


def answer(run: Run, ells=()) -> Answers:
    """Every step's estimate and beta, and along each of ``ells`` its
    guaranteed interval: :class:`Answers`, row k for ``run[k]``.

    The steps are stacked by rank, one stack per distinct rank (split
    so that no stack of bases exceeds _STACK_ELEMENTS), and each stack
    goes through the kernel of :func:`estimate` and :func:`radius`, so
    row k equals their answers for ``run[k]`` bit for bit, except
    that the radius is NaN wherever the data are inconsistent.  Steps
    that share a link copy its basis into the stack from one array.
    Each ell must be a finite float vector of length n, as
    :func:`radius` takes it.
    """
    count, n = run.r.shape
    ranks = np.array([link.lam.size for link in run.links], int)[run.link_of]
    xhat, beta = np.empty((count, n)), np.empty(count)
    value, radius = np.empty((count, len(ells))), np.empty((count, len(ells)))
    for q in set(ranks.tolist()):
        steps = np.flatnonzero(ranks == q)
        size = max(1, _STACK_ELEMENTS // max(1, q * n))
        for at in range(0, steps.size, size):
            idx = steps[at:at + size]
            used, slot = np.unique(run.link_of[idx], return_inverse=True)
            Vt = np.stack([run.links[i].V.T for i in used])[slot]
            lam = np.stack([run.links[i].lam for i in used])[slot]
            centre, b = _centres(Vt, lam, run.r[idx], run.alpha[idx])
            xhat[idx], beta[idx] = centre, b
            for j, ell in enumerate(ells):
                value[idx, j], radius[idx, j] = _direction(Vt, lam, centre, b, ell)
    radius[~(beta >= -BETA_TOL)] = nan
    return Answers(xhat=xhat, beta=beta, value=value, radius=radius)


def estimate(state: FilterState) -> EstimateReport:
    """Central estimate, consistency value beta and observability summary.

    xhat = pinv(P) r lies in range(P) by construction;
    beta = 1 - alpha + <P xhat, xhat>.  ``consistent`` is False when beta
    falls below -BETA_TOL, meaning no trajectory within the unit budget
    can produce the processed measurements.

    The state holds P's eigenpairs above the run's cutoff:
    xhat = V (V'r / lam) and beta = 1 - alpha + |V'r / sqrt(lam)|^2, the
    query kernel on a stack of one.  The report keeps the eigenpairs, so
    :func:`radius` answers any direction from it without solving again.
    """
    V, lam = state.V, state.lam
    xhat, beta = _centres(V.T, lam, state.r, state.alpha)
    beta = float(beta)
    return EstimateReport(
        xhat=xhat,
        beta=beta,
        basis=V,
        lam=lam,
        observable_rank=lam.size,
        noncausality_index=state.r.size - lam.size,
        consistent=beta >= -BETA_TOL,
    )


def _along(report: EstimateReport, ell: np.ndarray) -> tuple:
    """<ell, xhat> and the radius along ell of one report: the query
    kernel on a stack of one."""
    value, radius = _direction(report.basis.T, report.lam, report.xhat, report.beta, ell)
    return float(value), float(radius)


def radius(report: EstimateReport, ell: np.ndarray) -> float:
    """Worst-case error of the report's estimate in direction ell.

    Returns sqrt(beta) * sqrt(<pinv(P) ell, ell>) when ell lies in the
    observable subspace range(P), and ``math.inf`` otherwise (an infinite
    radius is an answer, not an error), so <ell, xhat> -/+ radius is the
    guaranteed interval either way.  Below full rank, ell lies in range(P)
    when its residual off the kept basis is at most the projection's own
    roundoff, max(eps * n, 8 eps) * |ell|, whatever the run's cutoff: that
    cutoff has already chosen the basis.  ``ell`` must be a finite float
    vector of length n; :func:`ell_error` checks it, this function does
    not.

    Raises
    ------
    InconsistentData
        If beta < -BETA_TOL, since no error radius exists for data that
        violates the budget.
    """
    _require_consistent(report)
    return _along(report, ell)[1]


def ell_error(state: FilterState, ell) -> float:
    """Worst-case error of the estimate in direction ell: :func:`radius`
    of :func:`estimate`, after checking that ell is a finite vector of
    length n.
    """
    ell = as_vector(ell, "ell", state.r.size)
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
    ell = as_vector(ell, "ell", state.r.size)
    report = estimate(state)
    _require_consistent(report)
    center, half = _along(report, ell)
    if half == inf:
        raise OutsideObservable("direction outside the observable subspace")
    return center - half, center + half


def membership(state: FilterState, x) -> bool:
    """Whether x belongs to the informational set X(k).

    Tests <P (x - xhat), x - xhat> <= beta + MEMBERSHIP_SLACK; directions
    in the null space of P are unconstrained, as in X(k) itself.
    """
    x = as_vector(x, "x", state.r.size)
    report = estimate(state)
    _require_consistent(report)
    c = report.basis.T @ (x - report.xhat)
    return float(c @ (report.lam * c)) <= report.beta + MEMBERSHIP_SLACK
