"""Matrix kernel: pseudoinverse, rank decisions, projectors."""

import warnings

import numpy as np
import pytest

from conftest import CHOLESKY_REJECTED_WEIGHT, random_psd_weight, sym_rank
from daeminimax import estimator
from daeminimax.errors import DimensionMismatch, InvalidMatrix
from daeminimax.linalg import (
    EPS,
    AsymmetryWarning,
    as_matrix,
    as_rows,
    as_vector,
    factor_cutoff,
    kept_count,
    numerical_rank,
    pinv,
    qform,
    range_projector,
    relative_cutoff,
    symmetrize,
    weight_factors,
)

ATOL = 1e-10


def random_matrix(rng, max_dim=6):
    """Random matrix, frequently rank-deficient via low-rank factors."""
    rows = int(rng.integers(1, max_dim + 1))
    cols = int(rng.integers(1, max_dim + 1))
    if rng.random() < 0.5:
        inner = int(rng.integers(1, min(rows, cols) + 1))
        return rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
    return rng.normal(size=(rows, cols))


def moore_penrose_residuals(a, ap):
    return (
        np.linalg.norm(a @ ap @ a - a),
        np.linalg.norm(ap @ a @ ap - ap),
        np.linalg.norm((a @ ap).T - a @ ap),
        np.linalg.norm((ap @ a).T - ap @ a),
    )


def test_pinv_satisfies_moore_penrose_axioms():
    rng = np.random.default_rng(20310)
    for _ in range(300):
        a = random_matrix(rng)
        ap = pinv(a)
        for residual in moore_penrose_residuals(a, ap):
            assert residual <= ATOL


def test_pinv_diagonal():
    got = pinv(np.diag([2.0, 0.0]))
    assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-15)


def test_pinv_zero_matrix():
    got = pinv(np.zeros((3, 2)))
    assert got.shape == (2, 3)
    assert np.all(got == 0.0)


def test_pinv_matches_numpy_on_full_rank():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    assert np.allclose(pinv(a), np.linalg.inv(a), atol=1e-10)


def test_pinv_rank_tol_truncates():
    a = np.diag([1.0, 1e-6])
    assert np.allclose(pinv(a), np.diag([1.0, 1e6]), atol=1e-4)
    assert np.allclose(pinv(a, rank_tol=1e-3), np.diag([1.0, 0.0]), atol=1e-15)


def test_numerical_rank_default_and_override():
    a = np.diag([1.0, 1e-12, 0.0])
    assert numerical_rank(a) == 2
    assert numerical_rank(a, rank_tol=1e-6) == 1
    assert numerical_rank(np.zeros((2, 2))) == 0


def test_numerical_rank_scale_invariance():
    a = np.diag([1.0, 1e-20])
    assert numerical_rank(a) == numerical_rank(1e8 * a) == 1


def test_sym_rank_requires_square():
    with pytest.raises(DimensionMismatch):
        sym_rank(np.zeros((2, 3)))


def test_range_projector_diagonal():
    got = range_projector(np.diag([4.0, 0.0]))
    assert np.array_equal(got, np.diag([1.0, 0.0]))


def test_range_projector_zero():
    assert np.all(range_projector(np.zeros((3, 3))) == 0.0)


def test_range_projector_full_rank_is_exact_identity():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    assert np.array_equal(range_projector(a @ a.T), np.eye(4))


def test_range_projector_axioms_random():
    rng = np.random.default_rng(20311)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        rank = int(rng.integers(0, dim + 1))
        basis = rng.normal(size=(dim, rank))
        mat = basis @ basis.T
        proj = range_projector(mat)
        assert np.linalg.norm(proj @ proj - proj) <= ATOL
        assert np.linalg.norm(proj - proj.T) <= ATOL
        assert numerical_rank(proj) == numerical_rank(mat)
        # Projection reproduces the range: P m = m.
        assert np.linalg.norm(proj @ mat - mat) <= ATOL * max(
            1.0, np.linalg.norm(mat)
        )


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(InvalidMatrix):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        as_matrix(np.array([[np.inf]]))


def test_as_vector_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        as_vector(np.array([[1.0, 2.0]]))
    with pytest.raises(InvalidMatrix):
        as_vector(np.array([np.nan]))


@pytest.mark.parametrize("coerce", [
    lambda a: as_matrix([[a, 0.0]]),
    lambda a: as_vector([a, 0.0]),
    lambda a: as_rows([a, 0.0], 1, 2),
    lambda a: estimator.ell_error(
        estimator.FilterState(0, np.zeros(2), 0.0, np.eye(2), np.ones(2), 0.0), [a, 0.0]),
], ids=["as_matrix", "as_vector", "as_rows", "ell_error"])
def test_an_entry_beyond_the_float_range_is_an_invalid_matrix(coerce):
    with pytest.raises(InvalidMatrix, match="not interpretable as a numeric array"):
        coerce(10**400)


@pytest.mark.parametrize("rank_tol", [-1.0, np.nan, np.inf])
def test_relative_cutoff_rejects_bad_rank_tol(rank_tol):
    with pytest.raises(InvalidMatrix):
        relative_cutoff(rank_tol, (2, 2))


@pytest.mark.parametrize("rank_tol, n, expected", [(0.0, 4, 4 * EPS), (1e-10, 7, 1e-10)])
def test_factor_cutoff_is_the_root_of_the_gram_cutoff(rank_tol, n, expected):
    assert factor_cutoff(rank_tol, n) == np.sqrt(expected)
    with pytest.raises(InvalidMatrix):
        factor_cutoff(-1.0, n)


def test_symmetrize_quiet_below_tolerance():
    a = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
    got = symmetrize(a)
    assert np.array_equal(got, got.T)


def test_symmetrize_warns_on_gross_asymmetry():
    a = np.array([[1.0, 2.0], [-2.0, 1.0]])
    with pytest.warns(AsymmetryWarning):
        symmetrize(a)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_symmetrize_does_not_overflow_at_extreme_scale(scale):
    a = scale * np.array([[1.0, 2.0], [2.0 * (1.0 + 1e-13), 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = symmetrize(a)
    assert np.array_equal(got, got.T)


def test_symmetrize_warns_on_gross_asymmetry_at_large_scale():
    with pytest.warns(AsymmetryWarning):
        symmetrize(1e200 * np.array([[1.0, 2.0], [-2.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-9, 1e-200])
def test_symmetrize_warns_on_gross_asymmetry_at_small_scale(scale):
    with pytest.warns(AsymmetryWarning):
        symmetrize(scale * np.array([[1.0, 2.0], [-2.0, 1.0]]))


def test_qform():
    m = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert qform(m, np.array([1.0, 2.0])) == pytest.approx(14.0, abs=1e-15)


def test_eps_constant_matches_float64():
    assert EPS == np.finfo(np.float64).eps


def test_weight_factors_are_each_matrix_cholesky_factor_bit_for_bit():
    rng = np.random.default_rng(60)
    S = np.stack([random_psd_weight(rng, 3) for _ in range(5)])
    W, accepted = weight_factors(S)
    assert accepted.tolist() == [True] * 5
    for Wk, Sk in zip(W, S):
        want = np.linalg.cholesky(Sk).T
        assert Wk.tobytes() == want.tobytes() and Wk.strides == want.strides


def test_weight_factors_flag_one_rejected_weight_and_take_no_eigen_factor(monkeypatch):
    rng = np.random.default_rng(61)
    S = np.stack([random_psd_weight(rng, 3), CHOLESKY_REJECTED_WEIGHT, random_psd_weight(rng, 3)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(CHOLESKY_REJECTED_WEIGHT)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    W, accepted = weight_factors(S)
    assert accepted.tolist() == [True, False, True]
    assert calls == []
    # The accepted weights keep their Cholesky factors; the rejected one gets zeros.
    wants = [np.linalg.cholesky(S[0]).T, np.zeros((3, 3)).T, np.linalg.cholesky(S[2]).T]
    for Wk, want in zip(W, wants):
        assert Wk.tobytes() == want.tobytes() and Wk.strides == want.strides


def test_kept_count_of_a_stack_counts_each_vector_alone():
    s = np.array([[4.0, 2.0, 1e-9], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert kept_count(s, 1e-6).tolist() == [kept_count(v, 1e-6) for v in s] == [2, 1, 0]
    assert type(kept_count(s[0], 1e-6)) is int and kept_count(np.zeros(0), 0.5) == 0


def test_numerical_rank_of_a_stack_decides_each_matrix_alone():
    rng = np.random.default_rng(62)
    stack = np.stack([rng.normal(size=(5, r)) @ rng.normal(size=(r, 4)) for r in (0, 1, 3, 4)])
    for tol in (0.0, 1e-3):
        ranks = numerical_rank(stack, tol)
        assert ranks.tolist() == [numerical_rank(a, tol) for a in stack] == [0, 1, 3, 4]
