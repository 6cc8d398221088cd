"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints one PASS line (visible with ``pytest -s``; ``pytest -v``
shows one PASSED/FAILED line per criterion either way) and enforces the
stated tolerance.  Criteria 1 and 2 share one batch of randomly generated
well-conditioned models; generation time is charged to criterion 1's
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    feasible_data,
    random_measurements,
    random_model,
    random_regular_model,
    sym_rank,
    well_conditioned_instance,
)
from daeminimax import batch, demo, estimator, kalman
from daeminimax.linalg import numerical_rank, pinv, range_projector

_shared = {}


def _passed(number, description):
    print(f"ACCEPTANCE {number} PASS — {description}")


def shared_models():
    """100 random (model, measurements) pairs reused by criteria 1 and 2."""
    if "models" not in _shared:
        rng = np.random.default_rng(20240817)
        _shared["models"] = [well_conditioned_instance(rng) for _ in range(100)]
    return _shared["models"]


def test_acceptance_1_recursion_matches_batch_oracle():
    start = time.perf_counter()
    worst_x = worst_beta = 0.0
    for model, ys in shared_models():
        final = estimator.run(model, ys)[-1]
        report = estimator.estimate(final)
        solution = batch.solve(batch.assemble(model, ys))
        projected = range_projector(final.P) @ solution.xstack[-model.n:]
        worst_x = max(worst_x, float(np.linalg.norm(projected - report.xhat)))
        worst_beta = max(worst_beta, abs(report.beta - (1.0 - solution.minI)))
    elapsed = time.perf_counter() - start
    assert worst_x <= 1e-8, f"state agreement {worst_x:.3e} above 1e-8"
    assert worst_beta <= 1e-8, f"beta agreement {worst_beta:.3e} above 1e-8"
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    _passed(1, f"100 models: recursion vs batch, state {worst_x:.1e}, "
               f"beta {worst_beta:.1e}, {elapsed:.2f}s")


def test_acceptance_2_value_function_is_the_maintained_quadratic():
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for model, ys in shared_models():
        final = estimator.run(model, ys)[-1]
        problem = batch.assemble(model, ys)
        for _ in range(10):
            point = rng.normal(size=model.n)
            quadratic = float(
                point @ final.P @ point - 2.0 * final.r @ point + final.alpha
            )
            worst = max(worst, abs(batch.value_function(problem, point) - quadratic))
    assert worst <= 1e-8, f"quadratic agreement {worst:.3e} above 1e-8"
    _passed(2, f"100 models x 10 probes: pinned-state minimum vs "
               f"<Pq,q> - 2<r,q> + alpha, worst {worst:.1e}")


def test_acceptance_3_regular_models_reduce_to_covariance_recursion():
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(50):
        model = random_regular_model(rng, tau=20)
        ys = random_measurements(rng, model)
        kstates = kalman.run_kalman(model, ys)
        mstates = estimator.run(model, ys)
        for ks, ms in zip(kstates, mstates):
            xhat = pinv(ms.P) @ ms.r
            worst = max(worst, float(np.linalg.norm(xhat - ks.x)))
            assert estimator.estimate(ms).noncausality_index == 0
    assert worst <= 1e-8, f"state agreement {worst:.3e} above 1e-8"
    _passed(3, f"50 regular models, tau=20: recursion vs covariance form, "
               f"worst {worst:.1e}, index 0 throughout")


def test_acceptance_4_push_through_identity():
    rng = np.random.default_rng(20240820)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(n, m))
        root = rng.normal(size=(m, m))
        B = root @ root.T + 0.5 * np.eye(m)
        lhs = A @ np.linalg.inv(A.T @ A + np.linalg.inv(B))
        rhs = np.linalg.inv(np.eye(n) + A @ B @ A.T) @ A @ B
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    assert worst <= 1e-10, f"identity residual {worst:.3e} above 1e-10"
    _passed(4, f"1000 (A,B) pairs: A(A'A+B^-1)^-1 = (E+ABA')^-1 AB, "
               f"worst {worst:.1e}")


def test_acceptance_5_worked_scalar_chain():
    one = np.array([[1.0]])
    from daeminimax.model import DescriptorModel

    model = DescriptorModel.constant(one, one, one, one, one, tau=1)
    state = estimator.init(model, np.array([1.0]))
    assert state.P[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert state.r[0] == pytest.approx(1.0, abs=1e-12)
    assert state.alpha == pytest.approx(1.0, abs=1e-12)
    state = estimator.step(state, model, np.array([1.0]))
    report = estimator.estimate(state)
    assert report.xhat[0] == pytest.approx(0.8, abs=1e-12)
    assert report.beta == pytest.approx(0.4, abs=1e-12)
    err = estimator.ell_error(state, np.array([1.0]))
    assert err == pytest.approx(math.sqrt(0.24), abs=1e-12)
    _passed(5, "scalar chain: (P,r,alpha)=(2,1,1), xhat=0.8, beta=0.4, "
               "error sqrt(0.24), all to 1e-12")


def test_acceptance_6_demonstration_model():
    start = time.perf_counter()
    horizon = 40
    model = demo.build_model(horizon)
    _, ys = demo.plant_trajectory(horizon)
    states = estimator.run(model, ys.reshape(-1, 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"41-step run took {elapsed:.3f}s, budget 1s"

    # The drive block is completely unbounded, so it is never observable
    # and no information survives transport through the dynamics: two
    # directions are lost at step 0 and three at every later step.
    indices = [
        estimator.estimate(s).noncausality_index
        for s in states
    ]
    assert indices == [2] + [3] * horizon, f"index schedule {indices[:5]}..."

    final = states[-1]
    for direction in ([0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1.0, -2.0], [0, 1, 0, 0]):
        err = estimator.ell_error(final, np.array(direction, dtype=float))
        assert math.isinf(err), f"direction {direction} should be unobservable"

    worst = 0.0
    measured = np.array([1.0, 0.0, 0.0, 0.0])
    for state in states:
        low, high = estimator.direction_bounds(state, measured)
        center = float(measured @ estimator.estimate(state).xhat)
        assert math.isfinite(low) and math.isfinite(high)
        worst = max(worst, abs(center - 0.5 * (low + high)))
    assert worst <= 1e-12, f"centering residual {worst:.3e} above 1e-12"
    _passed(6, f"41-step demonstration in {elapsed:.3f}s; index 2 then 3; "
               f"drive directions infinite; centering {worst:.1e}")


def test_acceptance_7_feasible_data_keeps_the_true_state():
    rng = np.random.default_rng(20240821)
    hits = 0
    for _ in range(100):
        model = random_model(rng)
        xs, _, _, ys = feasible_data(rng, model)
        final = estimator.run(model, ys)[-1]
        report = estimator.estimate(final)
        assert report.beta >= -1e-9, f"beta {report.beta:.3e} below -1e-9"
        assert estimator.membership(final, xs[-1]), "true final state excluded"
        hits += 1
    assert hits == 100
    _passed(7, "100/100 budget-feasible trials: membership true and "
               "beta >= -1e-9")


def test_acceptance_8_objective_decomposition():
    rng = np.random.default_rng(20240822)
    worst = 0.0
    for _ in range(100):
        model, ys = well_conditioned_instance(rng)
        problem = batch.assemble(model, ys)
        solution = batch.solve(problem)
        x = rng.normal(size=solution.xstack.shape)
        worst = max(worst, batch.decomposition_check(problem, solution, x))
    assert worst <= 1e-9, f"decomposition residual {worst:.3e} above 1e-9"
    _passed(8, f"100 (model, x) pairs: I(xhat - x) = I1(x) + I(xhat), "
               f"worst {worst:.1e}")


def test_acceptance_9_pseudoinverse_and_projector_axioms():
    rng = np.random.default_rng(20240823)
    worst = 0.0
    for _ in range(1000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            inner = int(rng.integers(1, min(rows, cols) + 1))
            a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
        else:
            a = rng.normal(size=(rows, cols))
        ap = pinv(a)
        worst = max(
            worst,
            float(np.linalg.norm(a @ ap @ a - a)),
            float(np.linalg.norm(ap @ a @ ap - ap)),
            float(np.linalg.norm((a @ ap).T - a @ ap)),
            float(np.linalg.norm((ap @ a).T - ap @ a)),
        )
        sym = a @ a.T
        proj = range_projector(sym)
        worst = max(
            worst,
            float(np.linalg.norm(proj @ proj - proj)),
            float(np.linalg.norm(proj.T - proj)),
            float(np.linalg.norm(proj @ sym - sym) / max(1.0, np.linalg.norm(sym))),
        )
        assert sym_rank(proj) == numerical_rank(sym)
    assert worst <= 1e-10, f"axiom residual {worst:.3e} above 1e-10"
    _passed(9, f"1000 matrices up to 6x6: Moore-Penrose and projector "
               f"axioms, worst {worst:.1e}")
