"""Shared generators for randomized tests.

All randomness flows through explicitly seeded ``numpy.random.Generator``
instances created inside each test, so every run is reproducible.  The
helpers here only build objects; they never assert.
"""

from __future__ import annotations

import warnings

import numpy as np

from daeminimax import estimator
from daeminimax.errors import NumericalBreakdown
from daeminimax.linalg import numerical_rank
from daeminimax.model import DescriptorModel, budget

# Eigenvalue band treated as "gray": directions with information in this
# band are neither exact zeros nor solidly observed, so any two correct
# solvers may legitimately disagree there by far more than the comparison
# tolerances (the minimizer along a direction of curvature lambda is
# determined only to roundoff/lambda, and keep-vs-drop decisions near the
# rank cutoff flip between algorithms).  The band therefore runs from
# well below each matrix's own rank cutoff (so "negligible" eigenvalues
# are unambiguously dropped by every solver) up to the smallest relative
# eigenvalue a float64 least-squares solve resolves to 1e-8.
# Oracle-equivalence tests draw instances whose spectra avoid the band.
GRAY_CUTOFF_MARGIN = 0.05
GRAY_HIGH = 1e-5

# A weight that Cholesky rejects although its smallest eigenvalue is
# 7.5e-17 > 0: validate refuses it, and a library call on an unvalidated
# model takes the eigen-factor of ``linalg.weight_factors``.
CHOLESKY_REJECTED_WEIGHT = np.array([
    [0.6775286921397962, 0.0645164888856857, -1.2707611296467278],
    [0.0645164888856857, 0.07602325651304703, -0.26691964495471],
    [-1.2707611296467278, -0.26691964495471, 2.688095002762758]])

# A weight that Cholesky accepts (smallest eigenvalue 7.5e-18) but on
# which the LU factorization of ``np.linalg.inv`` meets an exact zero pivot.
LU_SINGULAR_WEIGHT = np.array([
    [0.03646453603287805, -0.18060460125770547, -0.05016821415248019],
    [-0.18060460125770547, 0.8945136086894162, 0.24847734416383754],
    [-0.05016821415248019, 0.24847734416383754, 0.06902185843998357]])


def random_psd_weight(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random symmetric positive-definite matrix, comfortably conditioned."""
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.5 * np.eye(dim)


def random_model(
    rng: np.random.Generator,
    n: int | None = None,
    m: int | None = None,
    p: int | None = None,
    tau: int | None = None,
) -> DescriptorModel:
    """Random time-varying descriptor model with PD weights.

    Dimensions default to the 1..4 range and the horizon to 1..8; the
    F, C, H sequences are dense Gaussian, so rank deficiency of the
    stacked information operator occurs naturally for m + p < n.
    """
    n = int(rng.integers(1, 5)) if n is None else n
    m = int(rng.integers(1, 5)) if m is None else m
    p = int(rng.integers(1, 5)) if p is None else p
    tau = int(rng.integers(1, 9)) if tau is None else tau
    F = [rng.normal(size=(m, n)) for _ in range(tau + 1)]
    C = [rng.normal(size=(m, n)) for _ in range(tau)]
    H = [rng.normal(size=(p, n)) for _ in range(tau + 1)]
    S = [random_psd_weight(rng, m) for _ in range(tau + 1)]
    R = [random_psd_weight(rng, p) for _ in range(tau + 1)]
    return DescriptorModel.from_sequences(F, C, H, S, R)


def random_regular_model(
    rng: np.random.Generator,
    n: int | None = None,
    tau: int = 20,
) -> DescriptorModel:
    """Random model with rank [F_k; H_k] = n enforced at every step."""
    n = int(rng.integers(1, 4)) if n is None else n
    m = n
    p = int(rng.integers(1, 3))
    while True:
        F = [rng.normal(size=(m, n)) for _ in range(tau + 1)]
        H = [rng.normal(size=(p, n)) for _ in range(tau + 1)]
        if all(
            numerical_rank(np.vstack([Fk, Hk])) == n
            for Fk, Hk in zip(F, H)
        ):
            break
    C = [rng.normal(size=(m, n)) for _ in range(tau)]
    S = [random_psd_weight(rng, m) for _ in range(tau + 1)]
    R = [random_psd_weight(rng, p) for _ in range(tau + 1)]
    return DescriptorModel.from_sequences(F, C, H, S, R)


def random_measurements(rng: np.random.Generator, model: DescriptorModel) -> np.ndarray:
    """Unstructured Gaussian measurement sequence, shape (tau+1, p)."""
    return rng.normal(size=(model.tau + 1, model.p))


def dense_operators(model: DescriptorModel):
    """The whole-horizon operators (L, H, Q1, Q2) of ``model`` as dense
    block matrices: L holds F_k on its block diagonal and -C_{k-1} below
    it, H the output maps, Q1 and Q2 the weights on their diagonals, so
    I(x) = <Q1 L x, L x> + <Q2 (y - H x), y - H x>."""
    n, m, p, steps = model.n, model.m, model.p, model.tau + 1
    k = np.arange(steps)
    L, H = np.zeros((steps * m, steps * n)), np.zeros((steps * p, steps * n))
    Q1, Q2 = np.zeros((steps * m, steps * m)), np.zeros((steps * p, steps * p))
    # Block (j, k) of each operator is [j, :, k, :] of its 4-D view.
    for op, blocks in ((L, model.F), (H, model.H), (Q1, model.S), (Q2, model.R)):
        op.reshape(steps, blocks.shape[1], steps, -1)[k, :, k, :] = blocks
    L.reshape(steps, m, steps, n)[k[1:], :, k[:-1], :] = -model.C
    return L, H, Q1, Q2


def _spectrum_clear(mat: np.ndarray) -> bool:
    """True when no relative eigenvalue magnitude falls in the gray band."""
    eigs = np.abs(np.linalg.eigvalsh(0.5 * (mat + mat.T)))
    top = float(eigs.max(initial=0.0))
    if top == 0.0:
        return True
    rel = eigs / top
    low = GRAY_CUTOFF_MARGIN * np.finfo(float).eps * max(mat.shape)
    return not bool(np.any((rel > low) & (rel < GRAY_HIGH)))


def well_conditioned_instance(
    rng: np.random.Generator,
    n: int | None = None,
    m: int | None = None,
    p: int | None = None,
    tau: int | None = None,
    regular: bool = False,
):
    """Random (model, measurements) whose information spectra avoid the
    gray band, so solver agreement at 1e-8 is meaningful.

    The predicate inspects only model-intrinsic matrices: every filter
    information matrix P_k, every B_k = P_{k-1} + C'S_kC, and the
    whole-horizon normal matrix.  ``regular`` draws the model from
    :func:`random_regular_model` (``m`` and ``p`` are then ignored and
    ``tau`` defaults to 8).
    """
    while True:
        if regular:
            model = random_regular_model(rng, n=n, tau=8 if tau is None else tau)
        else:
            model = random_model(rng, n=n, m=m, p=p, tau=tau)
        ys = random_measurements(rng, model)
        try:
            # Probing a candidate may hit the very conditioning problems
            # this generator exists to filter out; their warnings are
            # expected here and say nothing about the accepted instance.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                states = estimator.run(model, ys)
        except NumericalBreakdown:
            continue
        mats = [state.P for state in states]
        mats += [
            states[k - 1].P
            + model.C[k - 1].T @ model.S[k] @ model.C[k - 1]
            for k in range(1, model.tau + 1)
        ]
        L, H, Q1, Q2 = dense_operators(model)
        mats.append(L.T @ Q1 @ L + H.T @ Q2 @ H)
        if all(_spectrum_clear(mat) for mat in mats):
            return model, ys


def feasible_data(
    rng: np.random.Generator,
    model: DescriptorModel,
    margin: float = 0.9,
):
    """States, inputs and measurements whose budget is exactly ``margin``.

    Draws a Gaussian state sequence, reads the dynamics inputs off the
    residuals, then rescales states and inputs jointly so the quadratic
    budget lands on ``margin`` (< 1 keeps the data strictly feasible).

    Returns ``(xs, f, g, ys)``.
    """
    tau = model.tau
    xs = rng.normal(size=(tau + 1, model.n))
    f = np.zeros((tau + 1, model.m))
    f[0] = model.F[0] @ xs[0]
    for k in range(1, tau + 1):
        f[k] = model.F[k] @ xs[k] - model.C[k - 1] @ xs[k - 1]
    g = rng.normal(size=(tau + 1, model.p))
    total = budget(model, f, g)
    scale = np.sqrt(margin / total) if total > 0 else 1.0
    xs, f, g = xs * scale, f * scale, g * scale
    ys = np.array([model.H[k] @ xs[k] + g[k] for k in range(tau + 1)])
    return xs, f, g, ys
