"""Direct block least-squares solution of the whole-horizon problem.

The entire trajectory x = (x_0, ..., x_tau) is stacked into one vector
and the weighted residual functional

    I(x)  = <Q1 L x, L x> + <Q2 (y - H x), y - H x>
    I1(x) = <Q1 L x, L x> + <Q2 H x, H x>

is minimized in one shot, where L holds the descriptor dynamics
(F_k on the block diagonal, -C_{k-1} on the subdiagonal), H stacks the
output maps and Q1, Q2 are the block-diagonal budget weights.  This is
mathematically the same problem the recursive estimator solves step by
step, computed by an independent route, which makes it the reference
implementation the recursion is tested against.

:func:`assemble` factors each distinct weight once, in one stacked call
per weight field, and the least-squares stack is built from blocks, so
nothing dense is factored or multiplied by a weight.  The problem of a
shorter horizon is the leading blocks of a longer one (:func:`leading`),
so one assembly serves every horizon of a model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown
from .linalg import as_rows, as_vector, factor_cutoff, weight_factors
from .model import DescriptorModel, step_changes

__all__ = [
    "BatchProblem",
    "BatchSolution",
    "assemble",
    "leading",
    "objective",
    "homogeneous_objective",
    "solve",
    "value_function",
    "decomposition_check",
]


@dataclass(frozen=True)
class BatchProblem:
    """Stacked operators and data for one horizon.

    L is ((tau+1) m, (tau+1) n), H is ((tau+1) p, (tau+1) n), Q1 and Q2
    are the block-diagonal weights, y the stacked measurement vector.
    W1 (tau+1, m, m) and W2 (tau+1, p, p) stack the square roots of the
    weight blocks: W1[k]'W1[k] = S_k and W2[k]'W2[k] = R_k.
    """

    L: np.ndarray
    H: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    y: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    n: int
    m: int
    p: int
    tau: int


@dataclass(frozen=True)
class BatchSolution:
    """Minimum-norm minimizer of I, its value, and the weighted stack M
    with I(x) = ||M x - d||^2."""

    xstack: np.ndarray
    minI: float
    stack: np.ndarray

    @property
    def normal_matrix(self) -> np.ndarray:
        """The normal matrix M'M = L' Q1 L + H' Q2 H, formed on request."""
        return self.stack.T @ self.stack


def _factors(weights: np.ndarray) -> np.ndarray:
    """``linalg.weight_factors`` of every step's weight, each run of equal
    weights factored once."""
    changes = step_changes(weights)
    return weight_factors(weights[changes])[np.cumsum(changes) - 1]


def assemble(model: DescriptorModel, ys) -> BatchProblem:
    """Stack the model and measurements into one least-squares problem."""
    tau, n, m, p = model.tau, model.n, model.m, model.p
    ys = as_rows(ys, tau + 1, p, "measurements")
    steps, k = tau + 1, np.arange(tau + 1)
    L, H = np.zeros((steps * m, steps * n)), np.zeros((steps * p, steps * n))
    Q1, Q2 = np.zeros((steps * m, steps * m)), np.zeros((steps * p, steps * p))
    # Block (j, k) of each operator is [j, :, k, :] of its 4-D view.
    for op, blocks in ((L, model.F), (H, model.H), (Q1, model.S), (Q2, model.R)):
        op.reshape(steps, blocks.shape[1], steps, -1)[k, :, k, :] = blocks
    L.reshape(steps, m, steps, n)[k[1:], :, k[:-1], :] = -model.C
    return BatchProblem(L=L, H=H, Q1=Q1, Q2=Q2, y=ys.reshape(-1), W1=_factors(model.S),
                        W2=_factors(model.R), n=n, m=m, p=p, tau=tau)


def leading(problem: BatchProblem, tau: int) -> BatchProblem:
    """The problem of horizon ``tau``: views of the leading blocks of
    ``problem``, equal to the assembly of the truncated model and data."""
    if not 0 <= tau <= problem.tau:
        raise DimensionMismatch(f"cannot truncate horizon {problem.tau} to {tau}")
    s, n, m, p = tau + 1, problem.n, problem.m, problem.p
    return BatchProblem(L=problem.L[:s * m, :s * n], H=problem.H[:s * p, :s * n],
                        Q1=problem.Q1[:s * m, :s * m], Q2=problem.Q2[:s * p, :s * p],
                        y=problem.y[:s * p], W1=problem.W1[:s], W2=problem.W2[:s],
                        n=n, m=m, p=p, tau=tau)


def objective(problem: BatchProblem, x) -> float:
    """I(x), the weighted residual of the stacked trajectory x."""
    x = as_vector(x, "xstack", problem.L.shape[1])
    Lx = problem.L @ x
    res = problem.y - problem.H @ x
    return float(Lx @ (problem.Q1 @ Lx) + res @ (problem.Q2 @ res))


def homogeneous_objective(problem: BatchProblem, x) -> float:
    """I1(x), the same functional with the measurement data removed."""
    return objective(replace(problem, y=np.zeros_like(problem.y)), x)


def solve(problem: BatchProblem, rank_tol: float = 0.0) -> BatchSolution:
    """Minimum-norm minimizer of I by least squares on the weighted stack.

    The stack M is kept on the solution, so callers can form the normal
    matrix M'M = L' Q1 L + H' Q2 H to verify the optimality residual.
    """
    M, d, rcond = _weighted_stack(problem, rank_tol)
    xstack = np.linalg.lstsq(M, d, rcond=rcond)[0]
    value = objective(problem, xstack)
    if not np.isfinite(value) or not np.all(np.isfinite(xstack)):
        raise NumericalBreakdown("batch solve produced non-finite values")
    return BatchSolution(xstack=xstack, minI=float(value), stack=M)


def _weighted_stack(problem: BatchProblem, rank_tol: float):
    # The weights' square roots turn I(x) into a plain residual norm,
    # I(x) = ||M x - d||^2 with M = [W1 L; W2 H], d = [0; W2 y] and W1, W2
    # block diagonal.  M is written block by block through 4-D views, as
    # assemble writes L and H: W1_k F_k on the diagonal, -W1_k C_{k-1} below
    # it, W2_k H_k.  rcond keeps sigma^2 > cutoff * sigma_max^2 (the
    # schedule's rule), as pinv(M'M) would.
    steps, n, m, p = problem.tau + 1, problem.n, problem.m, problem.p
    k = np.arange(steps)
    L = problem.L.reshape(steps, m, steps, n)
    M = np.zeros((steps * (m + p), steps * n))
    top = M[:steps * m].reshape(steps, m, steps, n)
    top[k, :, k, :] = problem.W1 @ L[k, :, k, :]
    top[k[1:], :, k[:-1], :] = problem.W1[1:] @ L[k[1:], :, k[:-1], :]
    M[steps * m:].reshape(steps, p, steps, n)[k, :, k, :] = (
        problem.W2 @ problem.H.reshape(steps, p, steps, n)[k, :, k, :])
    Wy = np.matvec(problem.W2, problem.y.reshape(steps, p))
    d = np.concatenate([np.zeros(steps * m), Wy.ravel()])
    return M, d, factor_cutoff(rank_tol, M.shape[1])


def value_function(problem: BatchProblem, q, rank_tol: float = 0.0) -> float:
    """Minimum of I over trajectories whose final state is pinned to q.

    Minimizes over x_0..x_{tau-1} by dense least squares with the last
    state block held at q, at the cutoff of ``solve``.  As a function of
    q this is the quadratic <P_tau q, q> - 2 <r_tau, q> + alpha_tau the
    recursion maintains.
    """
    q = as_vector(q, "q", problem.n)
    M, d, rcond = _weighted_stack(problem, rank_tol)
    free = problem.tau * problem.n
    Mz, rhs = M[:, :free], d - M[:, free:] @ q
    z = np.linalg.lstsq(Mz, rhs, rcond=rcond)[0]
    residual = Mz @ z - rhs
    return float(residual @ residual)


def decomposition_check(problem: BatchProblem, solution: BatchSolution, x) -> float:
    """Residual of the identity I(xstack - x) = I1(x) + I(xstack).

    The identity holds exactly when ``solution.xstack`` satisfies the
    normal equations (the cross terms cancel), so the returned value
    measures how far the solver is from optimality; it should sit at
    roundoff level for any probe x.
    """
    x = as_vector(x, "xstack", problem.L.shape[1])
    lhs = objective(problem, solution.xstack - x)
    rhs = homogeneous_objective(problem, x) + solution.minI
    return float(abs(lhs - rhs))
