"""Whole-horizon least-squares oracle: assembly, solve, value function."""

import concurrent.futures
import os

import numpy as np
import pytest

from conftest import (CHOLESKY_REJECTED_WEIGHT, feasible_data, random_measurements, random_model,
                      random_regular_model)
from daeminimax import batch, estimator
from daeminimax.errors import DimensionMismatch
from daeminimax.model import DescriptorModel, truncate


def scalar_chain(tau=1):
    one = np.array([[1.0]])
    return DescriptorModel.constant(one, one, one, one, one, tau)


def test_assemble_block_structure():
    model = scalar_chain(1)
    prob = batch.assemble(model, np.array([[1.0], [1.0]]))
    assert np.array_equal(prob.L, np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert np.array_equal(prob.H, np.eye(2))
    assert np.array_equal(prob.Q1, np.eye(2))
    assert np.array_equal(prob.Q2, np.eye(2))
    assert np.array_equal(prob.y, np.array([1.0, 1.0]))


def test_assemble_block_structure_nontrivial_dims():
    rng = np.random.default_rng(21)
    model = random_model(rng, n=2, m=3, p=1, tau=2)
    ys = random_measurements(rng, model)
    prob = batch.assemble(model, ys)
    assert prob.L.shape == (9, 6)
    assert np.array_equal(prob.L[3:6, 0:2], -model.C[0])
    assert np.array_equal(prob.L[3:6, 2:4], model.F[1])
    assert np.all(prob.L[0:3, 2:6] == 0.0)
    assert np.array_equal(prob.H[2:3, 4:6], model.H[2])
    assert np.array_equal(prob.Q1[3:6, 3:6], model.S[1])
    assert np.array_equal(prob.Q2[1:2, 1:2], model.R[1])


def test_solve_scalar_chain_worked():
    # min x0^2 + (x1-x0)^2 + (1-x0)^2 + (1-x1)^2 -> (0.6, 0.8), value 0.6.
    model = scalar_chain(1)
    prob = batch.assemble(model, np.array([[1.0], [1.0]]))
    sol = batch.solve(prob)
    assert np.allclose(sol.xstack, [0.6, 0.8], atol=1e-12)
    assert sol.minI == pytest.approx(0.6, abs=1e-12)


def test_objective_matches_by_hand():
    model = scalar_chain(1)
    prob = batch.assemble(model, np.array([[1.0], [1.0]]))
    x = np.array([0.5, 1.5])
    # 0.25 + 1.0 + 0.25 + 0.25
    assert batch.objective(prob, x) == pytest.approx(1.75, abs=1e-14)
    assert batch.homogeneous_objective(prob, x) == pytest.approx(
        0.25 + 1.0 + 0.25 + 2.25, abs=1e-14
    )


def test_value_function_scalar_chain_worked():
    model = scalar_chain(1)
    prob = batch.assemble(model, np.array([[1.0], [1.0]]))
    # At the minimizer's final block the value function equals min I.
    assert batch.value_function(prob, np.array([0.8])) == pytest.approx(
        0.6, abs=1e-12
    )
    # Quadratic form check against the hand recursion (P, r, alpha) =
    # (5/3, 4/3, 5/3): B(p) = 5/3 p^2 - 8/3 p + 5/3.
    assert batch.value_function(prob, np.array([0.0])) == pytest.approx(
        5.0 / 3.0, abs=1e-12
    )
    assert batch.value_function(prob, np.array([2.0])) == pytest.approx(
        5.0 / 3.0 * 4 - 8.0 / 3.0 * 2 + 5.0 / 3.0, abs=1e-12
    )


def test_value_function_horizon_zero():
    model = scalar_chain(0)
    prob = batch.assemble(model, np.array([[1.0]]))
    # I(x) = x^2 + (1-x)^2; at p the value is the stage cost itself.
    assert batch.value_function(prob, np.array([0.5])) == pytest.approx(
        0.5, abs=1e-14
    )
    assert batch.value_function(prob, np.array([0.0])) == pytest.approx(
        1.0, abs=1e-14
    )


def test_solve_minimum_dominates_probes():
    rng = np.random.default_rng(22)
    for _ in range(20):
        model = random_model(rng)
        ys = random_measurements(rng, model)
        prob = batch.assemble(model, ys)
        sol = batch.solve(prob)
        for _ in range(5):
            probe = sol.xstack + rng.normal(
                scale=0.3, size=sol.xstack.shape
            )
            assert batch.objective(prob, probe) >= sol.minI - 1e-9


def test_decomposition_identity_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        model = random_model(rng)
        ys = random_measurements(rng, model)
        prob = batch.assemble(model, ys)
        sol = batch.solve(prob)
        x = rng.normal(size=sol.xstack.shape)
        assert batch.decomposition_check(prob, sol, x) <= 1e-9


def test_feasible_truth_bounds_minimum():
    rng = np.random.default_rng(24)
    for _ in range(10):
        model = random_model(rng)
        xs, f, g, ys = feasible_data(rng, model)
        prob = batch.assemble(model, ys)
        sol = batch.solve(prob)
        # The generating trajectory is one admissible competitor.
        assert sol.minI <= batch.objective(prob, xs.ravel()) + 1e-9
        assert sol.minI <= 0.9 + 1e-9


@pytest.mark.parametrize("tol, expected", [(0.25, 1.0), (0.0, 0.0)])
def test_oracle_and_recursion_share_the_cutoff(tol, expected):
    # The normal matrix is diag(1, 0.16, 1, 1): a cutoff of 0.25 drops the
    # weakly measured x0[1], so the measurement y0[1] = 1 stays unexplained.
    # The same decision shows on the singular value 0.4 of the weighted stack.
    zero, eye = np.zeros((2, 2)), np.eye(2)
    model = DescriptorModel.from_sequences(
        [zero, eye], [zero], [np.diag([1.0, 0.4]), zero], [eye, eye], [eye, eye])
    ys = np.array([[0.0, 1.0], [0.0, 0.0]])
    prob = batch.assemble(model, ys)
    sol = batch.solve(prob, tol)
    q = sol.xstack[-2:]
    state = estimator.run(model, ys, tol)[-1]
    assert sol.minI == pytest.approx(expected, abs=1e-12)
    assert batch.value_function(prob, q, tol) == pytest.approx(expected, abs=1e-12)
    recursion = q @ state.P @ q - 2.0 * state.r @ q + state.alpha
    assert recursion == pytest.approx(expected, abs=1e-12)


def test_weighted_stack_from_blocks_matches_the_dense_products():
    rng = np.random.default_rng(25)
    for _ in range(10):
        model = random_model(rng)
        prob = batch.assemble(model, random_measurements(rng, model))
        M, d = prob.M, prob.d
        W1, W2 = np.linalg.cholesky(prob.Q1).T, np.linalg.cholesky(prob.Q2).T
        # The stack's rows go step by step: step k's m rows of W1 L, then
        # its p rows of W2 H.
        steps, m, p = prob.tau + 1, prob.m, prob.p
        order = np.hstack([np.arange(steps * m).reshape(steps, m),
                           steps * m + np.arange(steps * p).reshape(steps, p)]).ravel()
        dense = np.vstack([W1 @ prob.L, W2 @ prob.H])[order]
        assert np.allclose(M, dense, rtol=0.0, atol=1e-13 * np.abs(dense).max())
        assert np.allclose(d, np.concatenate([np.zeros(prob.L.shape[0]), W2 @ prob.y])[order],
                           rtol=0.0, atol=1e-13 * np.abs(d).max())


def test_leading_blocks_are_the_truncated_problem():
    rng = np.random.default_rng(26)
    model = random_model(rng, n=3, m=2, p=2, tau=6)
    ys = random_measurements(rng, model)
    whole = batch.assemble(model, ys)
    for k in range(model.tau + 1):
        got, want = batch.leading(whole, k), batch.assemble(truncate(model, k), ys[: k + 1])
        for name in ("L", "H", "Q1", "Q2", "y", "W1", "W2", "M", "d", "n", "m", "p", "tau"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert batch.solve(got).minI == pytest.approx(batch.solve(want).minI, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        batch.leading(whole, model.tau + 1)


def test_solve_takes_the_eigen_factor_of_a_weight_cholesky_rejects():
    # validate refuses this weight, but the library takes it unvalidated:
    # its dense block-diagonal Cholesky factor used to end the solve in a
    # LinAlgError.
    eye = np.eye(3)
    model = DescriptorModel.constant(eye, eye, [[1.0, 0.0, 0.0]], CHOLESKY_REJECTED_WEIGHT,
                                     [[1.0]], tau=3)
    prob = batch.assemble(model, np.array([[0.1], [0.2], [0.0], [-0.1]]))
    assert np.allclose(prob.W1.mT @ prob.W1, CHOLESKY_REJECTED_WEIGHT, atol=1e-14)
    sol = batch.solve(prob)
    assert sol.minI == pytest.approx(batch.objective(prob, sol.xstack), abs=1e-15)
    assert batch.decomposition_check(prob, sol, np.ones(12)) <= 1e-9


@pytest.mark.parametrize("draw", [lambda rng: random_regular_model(rng, n=3, tau=12),
                                  lambda rng: random_model(rng, n=4, m=1, p=1, tau=12)],
                         ids=["regular", "noncausal"])
def test_horizons_are_equal_on_one_and_two_solvers(draw, monkeypatch):
    rng = np.random.default_rng(27)
    model = draw(rng)
    problem = batch.assemble(model, random_measurements(rng, model))
    solutions = {}
    for solvers in (1, 2):
        monkeypatch.setattr(batch, "_solvers", lambda: solvers)
        solutions[solvers] = list(batch.horizons(problem))
    assert [s.xstack.size for s in solutions[1]] == [k * model.n for k in range(1, model.tau + 2)]
    for one, two in zip(solutions[1], solutions[2], strict=True):
        assert np.array_equal(one.xstack, two.xstack) and one.minI == two.minI


@pytest.mark.parametrize("env, cpus, solvers", [
    ({}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ({"OMP_NUM_THREADS": "1"}, 3, 3),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "many"}, 2, 1),
], ids=["unset", "1", "2", "2-of-8", "4-of-2", "omp", "0", "0-then-omp", "non-numeric"])
def test_solvers_are_the_usable_cpus_over_the_blas_threads(monkeypatch, env, cpus, solvers):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert batch._solvers() == solvers


def test_solvers_count_every_cpu_where_the_platform_has_no_affinity(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert batch._solvers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert batch._solvers() == 1


class _Pool:
    """A stand-in for ThreadPoolExecutor that records its size and maps in
    the calling thread."""

    def __init__(self, sizes, workers):
        sizes.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("solvers, tau, pools", [(2, 6, [2]), (8, 2, [3]), (1, 6, [])],
                         ids=["more-horizons-than-cpus", "fewer", "one-solver"])
def test_horizons_take_at_most_one_solver_per_horizon(monkeypatch, solvers, tau, pools):
    sizes = []
    monkeypatch.setattr(batch, "_solvers", lambda: solvers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda workers: _Pool(sizes, workers))
    problem = batch.assemble(scalar_chain(tau), np.ones((tau + 1, 1)))
    got = [solution.minI for solution in batch.horizons(problem)]
    assert got == [batch.solve(batch.leading(problem, k)).minI for k in range(tau + 1)]
    assert sizes == pools
