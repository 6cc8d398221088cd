"""Direct block least-squares solution of the whole-horizon problem.

The entire trajectory x = (x_0, ..., x_tau) is stacked into one vector
and the weighted residual functional

    I(x) = sum_k <S_k e_k, e_k> + <R_k g_k, g_k>,
    e_k = F_k x_k - C_{k-1} x_{k-1} (e_0 = F_0 x_0),  g_k = y_k - H_k x_k,

is minimized in one shot; I1(x) is I with the measurement data removed.
This is mathematically the same problem the recursive estimator solves
step by step, computed by an independent route, which makes it the
reference implementation the recursion is tested against.

A :class:`BatchProblem` holds the model, its measurements and the
weighted stack, with I(x) = ||M x - d||^2.  :func:`assemble` factors
each run of equal weights once and refuses one that Cholesky rejects
(``model.weight_runs``); it writes only the stack, block by block.  Its
rows go step by step, so the problem of a shorter horizon is the leading
blocks of a longer one (:func:`leading`) and one assembly serves every
horizon of a model.  No horizon's solve depends on another's:
:func:`horizons` solves them concurrently on threads when BLAS is pinned
to fewer threads than there are usable CPUs.  :func:`objective` sums I
from the model's own matrices, not from the stack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalBreakdown
from .linalg import as_rows, as_vector, factor_cutoff
from .model import DescriptorModel, truncate, weight_runs

__all__ = [
    "BatchProblem",
    "BatchSolution",
    "assemble",
    "leading",
    "objective",
    "homogeneous_objective",
    "solve",
    "horizons",
    "value_function",
    "decomposition_check",
]


@dataclass(frozen=True)
class BatchProblem:
    """The whole-horizon problem of ``model`` and its (tau+1, p)
    measurement rows ``y``.

    M and d are the weighted stack, I(x) = ||M x - d||^2, with W1_k'W1_k
    = S_k and W2_k'W2_k = R_k.  Its rows go in step order: step k holds
    the m rows W1_k F_k, -W1_k C_{k-1} (d: 0) and then the p rows W2_k H_k
    (d: W2_k y_k), so the stack of horizon k is the leading
    (k+1)(m+p) x (k+1)n block.
    """

    model: DescriptorModel
    y: np.ndarray
    M: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class BatchSolution:
    """Minimum-norm minimizer of I, its value, and the weighted stack M
    with I(x) = ||M x - d||^2."""

    xstack: np.ndarray
    minI: float
    stack: np.ndarray

    @property
    def normal_matrix(self) -> np.ndarray:
        """The normal matrix M'M, formed on request."""
        return self.stack.T @ self.stack


def assemble(model: DescriptorModel, ys) -> BatchProblem:
    """Stack the model and measurements into one least-squares problem."""
    tau, n, m, p = model.tau, model.n, model.m, model.p
    ys = as_rows(ys, tau + 1, p, "measurements")
    steps, k = tau + 1, np.arange(tau + 1)
    (Wt1, run_S), (Wt2, run_R) = weight_runs(model.S, "S"), weight_runs(model.R, "R")
    W1, W2 = Wt1[run_S].mT, Wt2[run_R].mT
    # The weighted stack in step order, written through its 4-D view
    # [step, row, step, column]: W1_k F_k on the diagonal, -W1_k C_{k-1}
    # below it, then W2_k H_k.
    M, d = np.zeros((steps, m + p, steps, n)), np.zeros((steps, m + p))
    M[k, :m, k, :] = W1 @ model.F
    M[k[1:], :m, k[:-1], :] = W1[1:] @ -model.C
    M[k, m:, k, :] = W2 @ model.H
    d[:, m:] = np.matvec(W2, ys)
    return BatchProblem(model=model, y=ys, M=M.reshape(steps * (m + p), steps * n),
                        d=d.reshape(-1))


def leading(problem: BatchProblem, tau: int) -> BatchProblem:
    """The problem of horizon ``tau``, equal to the assembly of the truncated
    model and data: that model and views of the leading blocks of ``problem``."""
    model = truncate(problem.model, tau)
    rows, cols = (tau + 1) * (model.m + model.p), (tau + 1) * model.n
    return BatchProblem(model=model, y=problem.y[:tau + 1], M=problem.M[:rows, :cols],
                        d=problem.d[:rows])


def objective(problem: BatchProblem, x) -> float:
    """I(x), the weighted residual of the stacked trajectory x, step by
    step from the model's own F, C, H, S and R."""
    model = problem.model
    xs = as_vector(x, "xstack", (model.tau + 1) * model.n).reshape(-1, model.n)
    e = np.matvec(model.F, xs)
    e[1:] -= np.matvec(model.C, xs[:-1])
    g = problem.y - np.matvec(model.H, xs)
    return float(np.vecdot(np.matvec(model.S, e), e).sum()
                 + np.vecdot(np.matvec(model.R, g), g).sum())


def homogeneous_objective(problem: BatchProblem, x) -> float:
    """I1(x), the same functional with the measurement data removed."""
    return objective(replace(problem, y=np.zeros_like(problem.y)), x)


def solve(problem: BatchProblem, rank_tol: float = 0.0) -> BatchSolution:
    """Minimum-norm minimizer of I by least squares on the weighted stack.

    The stack M is kept on the solution, so callers can form the normal
    matrix M'M to verify the optimality residual.
    """
    # rcond keeps sigma^2 > cutoff * sigma_max^2 (the schedule's rule), as
    # pinv(M'M) would.
    M = problem.M
    xstack = np.linalg.lstsq(M, problem.d, rcond=factor_cutoff(rank_tol, M.shape[1]))[0]
    value = objective(problem, xstack)
    if not np.isfinite(value) or not np.all(np.isfinite(xstack)):
        raise NumericalBreakdown("batch solve produced non-finite values")
    return BatchSolution(xstack=xstack, minI=float(value), stack=M)


def horizons(problem: BatchProblem, rank_tol: float = 0.0):
    """``solve(leading(problem, k), rank_tol)`` for k = 0..tau, in order.

    The horizons are solved on ``_solvers()`` threads, at most tau + 1;
    a solve that raises raises here when its horizon is reached.
    """
    def one(k):
        return solve(leading(problem, k), rank_tol)

    steps = problem.model.tau + 1
    workers = min(_solvers(), steps)
    if workers == 1:
        yield from map(one, range(steps))
    else:
        # Imported here: it loads logging, about 0.7 MB that no other
        # command needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            yield from pool.map(one, range(steps))


def _solvers() -> int:
    """The usable CPUs over the BLAS threads of each solve.

    That count is the first positive integer in OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS.  Without one, BLAS already uses every CPU, so one
    solver runs.  Where the platform has no CPU affinity, every CPU
    counts as usable.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            affinity = getattr(os, "sched_getaffinity", None)
            cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
            return max(1, cpus // threads)
    return 1


def value_function(problem: BatchProblem, q, rank_tol: float = 0.0) -> float:
    """Minimum of I over trajectories whose final state is pinned to q.

    Minimizes over x_0..x_{tau-1} by dense least squares with the last
    state block held at q, at the cutoff of ``solve``.  As a function of
    q this is the quadratic <P_tau q, q> - 2 <r_tau, q> + alpha_tau the
    recursion maintains.
    """
    q = as_vector(q, "q", problem.model.n)
    M, free = problem.M, problem.M.shape[1] - q.size
    Mz, rhs = M[:, :free], problem.d - M[:, free:] @ q
    z = np.linalg.lstsq(Mz, rhs, rcond=factor_cutoff(rank_tol, M.shape[1]))[0]
    residual = Mz @ z - rhs
    return float(residual @ residual)


def decomposition_check(problem: BatchProblem, solution: BatchSolution, x) -> float:
    """Residual of the identity I(xstack - x) = I1(x) + I(xstack).

    The identity holds exactly when ``solution.xstack`` satisfies the
    normal equations (the cross terms cancel), so the returned value
    measures how far the solver is from optimality; it should sit at
    roundoff level for any probe x.
    """
    x = as_vector(x, "xstack", problem.M.shape[1])
    lhs = objective(problem, solution.xstack - x)
    rhs = homogeneous_objective(problem, x) + solution.minI
    return float(abs(lhs - rhs))
