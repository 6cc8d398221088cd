"""Dense linear-algebra kernels shared by all estimator modules.

Every rank decision in the package flows through the same relative
singular-value cutoff, so pseudoinverses, range projectors and
observability ranks agree with each other about what counts as zero.
``rank_tol`` is relative: singular values at or below
``rank_tol * sigma_max`` are treated as exact zeros, and ``rank_tol = 0``
selects the conventional default ``eps * max(rows, cols)``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import AsymmetryWarning, DimensionMismatch, InvalidMatrix

__all__ = [
    "EPS",
    "as_matrix",
    "as_vector",
    "as_rows",
    "relative_cutoff",
    "factor_cutoff",
    "kept_count",
    "weight_factors",
    "pinv",
    "numerical_rank",
    "sym_rank",
    "range_projector",
    "symmetrize",
    "qform",
]

EPS = float(np.finfo(np.float64).eps)
# Relative skew above which symmetrize warns of a drifting computation.
_ASYMMETRY_WARN = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float array.

    Raises
    ------
    InvalidMatrix
        If ``a`` is not interpretable as a 2-D numeric array with finite
        entries.
    """
    try:
        m = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidMatrix(f"{name}: not interpretable as a numeric array") from exc
    if m.ndim != 2:
        raise InvalidMatrix(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix(f"{name}: non-finite entries")
    return m


def as_vector(a, name: str = "vector", size: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a finite 1-D float array (scalars become length 1)
    of length ``size``, when given."""
    try:
        v = np.atleast_1d(np.asarray(a, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InvalidMatrix(f"{name}: not interpretable as a numeric array") from exc
    if v.ndim != 1:
        raise InvalidMatrix(f"{name}: expected a 1-D array, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise InvalidMatrix(f"{name}: non-finite entries")
    if size is not None and v.shape != (size,):
        raise DimensionMismatch(f"{name}: got shape {v.shape}, expected {(size,)}")
    return v


def as_rows(a, count: int, width: int, name: str = "rows") -> np.ndarray:
    """Coerce ``a`` to a finite float array of shape (count, width).

    A flat vector is read as one row, or as one column when width = 1, so
    a scalar-output measurement sequence may come unstacked.
    """
    try:
        m = np.atleast_2d(np.asarray(a, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InvalidMatrix(f"{name}: not interpretable as a numeric array") from exc
    if m.shape[0] == 1 and width == 1 and count > 1:
        m = m.reshape(-1, 1)
    if m.shape != (count, width):
        raise DimensionMismatch(f"{name}: got shape {m.shape}, expected {(count, width)}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix(f"{name}: non-finite entries")
    return m


def relative_cutoff(rank_tol: float, shape) -> float:
    """The shared relative cutoff: ``rank_tol``, or ``eps * max(shape)`` when 0."""
    if not 0.0 <= rank_tol < np.inf:
        raise InvalidMatrix(f"rank_tol must be finite and nonnegative, got {rank_tol}")
    return rank_tol if rank_tol > 0 else EPS * max(shape)


def factor_cutoff(rank_tol: float, n: int) -> float:
    """The relative cutoff on the singular values of a factor: the root of
    :func:`relative_cutoff` for the factor's n-by-n Gram matrix."""
    return math.sqrt(relative_cutoff(rank_tol, (n, n)))


def kept_count(s: np.ndarray, cut: float):
    """How many of the descending singular values ``s`` lie above ``cut * s[0]``
    (0 when ``s`` is empty): an int, or an int array for a stack of them."""
    kept = (s > cut * s[..., :1]).sum(axis=-1)
    return int(kept) if s.ndim == 1 else kept


def weight_factors(S: np.ndarray) -> tuple:
    """``(W, accepted)`` for a (T, m, m) stack of symmetric weights: W'W = S
    for each matrix, and whether Cholesky accepted it, the package's one
    test that a weight is positive definite.  W is the transposed Cholesky
    factor, or diag(sqrt(clipped eigenvalues)) V' for a rejected weight.

    One stacked Cholesky call; it raises when any matrix fails, and then
    each matrix is factored alone, so only those that fail take the
    eigen-factor.  W is the transposed view of a C-contiguous stack of W',
    the layout of ``cholesky(S_i).T``, so products with it make the BLAS
    calls of a single matrix's factor.
    """
    accepted = np.ones(len(S), dtype=bool)
    try:
        return np.linalg.cholesky(S).mT, accepted
    except np.linalg.LinAlgError:
        pass
    Wt = np.empty_like(S)
    for i, weight in enumerate(S):
        try:
            Wt[i] = np.linalg.cholesky(weight)
        except np.linalg.LinAlgError:
            accepted[i] = False
            eigs, vecs = np.linalg.eigh(weight)
            Wt[i] = vecs * np.sqrt(np.clip(eigs, 0.0, None))
    return Wt.mT, accepted


def pinv(a, rank_tol: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse via full SVD with a relative cutoff.

    Parameters
    ----------
    a : array_like
        Matrix to invert, any shape.
    rank_tol : float
        Relative singular-value cutoff; 0 selects the module default.

    Returns
    -------
    numpy.ndarray
        The pseudoinverse, with singular values at or below the cutoff
        treated as exact zeros.  A zero matrix comes back as the zero
        matrix of transposed shape.
    """
    m = as_matrix(a)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    r = kept_count(s, relative_cutoff(rank_tol, m.shape))
    if r == 0:
        return np.zeros((m.shape[1], m.shape[0]))
    return (vt[:r].T / s[:r]) @ u[:, :r].T


def numerical_rank(a, rank_tol: float = 0.0):
    """Number of singular values above the shared relative cutoff: an int
    for a matrix, an int array for a (T, rows, cols) stack of finite
    matrices, decided in one stacked call with each matrix's own cutoff."""
    m = np.asarray(a, dtype=float) if np.ndim(a) == 3 else as_matrix(a)
    return kept_count(np.linalg.svd(m, compute_uv=False), relative_cutoff(rank_tol, m.shape[-2:]))


def sym_rank(a, rank_tol: float = 0.0) -> int:
    """Numerical rank of a square symmetric matrix."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"sym_rank needs a square matrix, got {m.shape}")
    return numerical_rank(m, rank_tol)


def range_projector(a, rank_tol: float = 0.0) -> np.ndarray:
    """Orthogonal projector onto the range of a square symmetric matrix.

    Equals ``pinv(a) @ a`` in exact arithmetic but is assembled from an
    orthonormal singular basis, so the result is symmetric and idempotent
    to roundoff.  A full-rank input yields the exact identity.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"range_projector needs a square matrix, got {m.shape}")
    m = 0.5 * (m + m.T)
    u, s, _ = np.linalg.svd(m)
    r = kept_count(s, relative_cutoff(rank_tol, m.shape))
    if r == m.shape[0]:
        return np.eye(m.shape[0])
    proj = u[:, :r] @ u[:, :r].T
    return 0.5 * (proj + proj.T)


def symmetrize(a) -> np.ndarray:
    """Return ``(a + a.T) / 2``.

    Emits :class:`AsymmetryWarning` when the skew part is large relative
    to the matrix itself, ``max|a - a.T| > 1e-8 * max|a|`` at any scale
    (largest entries cannot overflow, unlike Frobenius norms), which
    signals a drifting computation rather than ordinary roundoff.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"symmetrize needs a square matrix, got {m.shape}")
    skew = float(np.abs(m - m.T).max(initial=0.0))
    if skew > _ASYMMETRY_WARN * float(np.abs(m).max(initial=0.0)):
        warnings.warn(
            f"asymmetry {skew:.3e} above warn threshold", AsymmetryWarning, stacklevel=2
        )
    return 0.5 * (m + m.T)


def qform(m, v) -> float:
    """Quadratic form ``<m v, v>``."""
    vec = np.asarray(v, dtype=float)
    return float(vec @ np.asarray(m, dtype=float) @ vec)
