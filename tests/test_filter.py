"""Recursive estimator: sufficient statistics, estimates, set geometry."""

import math

import numpy as np
import pytest

from conftest import (
    feasible_data,
    random_measurements,
    random_model,
    random_psd_weight,
    well_conditioned_instance,
)
from daeminimax import batch, estimator
from daeminimax.errors import DimensionMismatch, InconsistentData, OutsideObservable
from daeminimax.linalg import numerical_rank, pinv
from daeminimax.model import DescriptorModel, truncate

SQRT24 = math.sqrt(0.24)


def scalar_chain(tau=1):
    one = np.array([[1.0]])
    return DescriptorModel.constant(one, one, one, one, one, tau)


def chain_states():
    model = scalar_chain(1)
    s0 = estimator.init(model, np.array([1.0]))
    s1 = estimator.step(s0, model, np.array([1.0]))
    return model, s0, s1


def test_init_worked_values():
    _, s0, _ = chain_states()
    assert s0.k == 0
    assert s0.P[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert s0.r[0] == pytest.approx(1.0, abs=1e-12)
    assert s0.alpha == pytest.approx(1.0, abs=1e-12)


def test_init_zero_measurement():
    model = scalar_chain(1)
    state = estimator.init(model, np.array([0.0]))
    assert state.r[0] == 0.0
    assert state.alpha == 0.0
    assert state.P[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_step_worked_values():
    _, _, s1 = chain_states()
    assert s1.k == 1
    assert s1.P[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert s1.r[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert s1.alpha == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_estimate_after_init():
    # min over x of x^2 + (1-x)^2 is 0.5 at x = 0.5.
    _, s0, _ = chain_states()
    report = estimator.estimate(s0)
    assert report.xhat[0] == pytest.approx(0.5, abs=1e-12)
    assert report.beta == pytest.approx(0.5, abs=1e-12)
    assert report.consistent


def test_estimate_worked_values():
    _, _, s1 = chain_states()
    report = estimator.estimate(s1)
    assert report.xhat[0] == pytest.approx(0.8, abs=1e-12)
    assert report.beta == pytest.approx(0.4, abs=1e-12)
    assert report.observable_rank == 1
    assert report.noncausality_index == 0


def test_estimate_report_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        model = random_model(rng)
        ys = random_measurements(rng, model)
        state = estimator.run(model, ys)[-1]
        report = estimator.estimate(state)
        proj = report.projector
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10
        assert np.linalg.norm(proj - proj.T) <= 1e-10
        assert report.noncausality_index == model.n - report.observable_rank
        assert np.linalg.norm(proj @ report.xhat - report.xhat) <= 1e-10


def test_ell_error_worked_value():
    _, _, s1 = chain_states()
    assert estimator.ell_error(s1, np.array([1.0])) == pytest.approx(
        SQRT24, abs=1e-12
    )


def test_ell_error_zero_direction():
    _, _, s1 = chain_states()
    assert estimator.ell_error(s1, np.array([0.0])) == 0.0


def test_direction_bounds_worked_values():
    _, _, s1 = chain_states()
    low, high = estimator.direction_bounds(s1, np.array([1.0]))
    assert low == pytest.approx(0.8 - SQRT24, abs=1e-12)
    assert high == pytest.approx(0.8 + SQRT24, abs=1e-12)


def test_direction_bounds_degenerate_when_beta_zero():
    # tau = 0, y = sqrt(2): min of x^2 + (sqrt2 - x)^2 is exactly 1, so
    # the residual budget is zero and the segment collapses to a point.
    model = scalar_chain(0)
    state = estimator.init(model, np.array([math.sqrt(2.0)]))
    low, high = estimator.direction_bounds(state, np.array([1.0]))
    mid = math.sqrt(2.0) / 2.0
    assert low == pytest.approx(mid, abs=1e-12)
    assert high == pytest.approx(mid, abs=1e-12)


def test_membership_worked_values():
    _, _, s1 = chain_states()
    assert estimator.membership(s1, np.array([0.8]))
    assert estimator.membership(s1, np.array([0.8 + SQRT24]))
    assert not estimator.membership(s1, np.array([2.0]))


def test_zero_measurements_give_zero_estimate():
    rng = np.random.default_rng(32)
    model = random_model(rng)
    ys = np.zeros((model.tau + 1, model.p))
    for state in estimator.run(model, ys):
        assert np.all(state.r == 0.0)
        assert np.all(estimator.estimate(state).xhat == 0.0)


def test_decoupled_step_without_transport():
    # C = 0 removes information transport: P_k = H'RH + F'SF exactly.
    rng = np.random.default_rng(33)
    n = 3
    F = rng.normal(size=(n, n))
    H = rng.normal(size=(2, n))
    S = random_psd_weight(rng, n)
    R = random_psd_weight(rng, 2)
    model = DescriptorModel.constant(F, np.zeros((n, n)), H, S, R, 1)
    state = estimator.init(model, np.zeros(2))
    nxt = estimator.step(state, model, np.zeros(2))
    expected = H.T @ R @ H + F.T @ S @ F
    assert np.allclose(nxt.P, expected, atol=1e-12)


def test_psd_preserved_along_random_runs():
    rng = np.random.default_rng(34)
    for _ in range(20):
        model = random_model(rng)
        ys = random_measurements(rng, model)
        for state in estimator.run(model, ys):
            eigenvalues = np.linalg.eigvalsh(state.P)
            assert eigenvalues.min() >= -1e-9


def test_estimate_matches_batch_oracle():
    rng = np.random.default_rng(35)
    for _ in range(30):
        model, ys = well_conditioned_instance(rng)
        state = estimator.run(model, ys)[-1]
        report = estimator.estimate(state)
        prob = batch.assemble(model, ys)
        sol = batch.solve(prob)
        xstar = sol.xstack[-model.n:]
        proj = report.projector
        assert np.linalg.norm(proj @ xstar - report.xhat) <= 1e-8
        assert abs(report.beta - (1.0 - sol.minI)) <= 1e-8


@pytest.mark.parametrize("seed", [2, 6])
def test_long_noncausal_run_keeps_beta_and_the_batch_oracle(seed):
    # A constant noncausal spec (m + p < n) over 2000 steps of feasible data.
    # Roundoff that moves r_k out of range(P_k) must not be amplified by the
    # small kept singular values of B: beta stays in the budget at every step.
    rng = np.random.default_rng(seed)
    drawn = random_model(rng, n=4, m=2, p=1, tau=1)
    model = DescriptorModel.constant(drawn.F[0], drawn.C[0], drawn.H[0], drawn.S[0],
                                     drawn.R[0], tau=2000)
    _, _, _, ys = feasible_data(rng, model)
    states = estimator.run(model, ys)
    betas = np.array([estimator.estimate(state).beta for state in states])
    assert np.all((betas >= -estimator.BETA_TOL) & (betas <= 1.0 + estimator.BETA_TOL))
    for k in (50, 150):
        report = estimator.estimate(states[k])
        sol = batch.solve(batch.assemble(truncate(model, k), ys[: k + 1]))
        assert np.linalg.norm(report.projector @ sol.xstack[-model.n:] - report.xhat) <= 1e-8
        assert abs(report.beta - (1.0 - sol.minI)) <= 1e-8


def test_beta_monotone_nonincreasing_on_any_data():
    rng = np.random.default_rng(36)
    for _ in range(10):
        model = random_model(rng)
        _, _, _, ys = feasible_data(rng, model)
        betas = [
            estimator.estimate(state).beta
            for state in estimator.run(model, ys)
        ]
        for earlier, later in zip(betas, betas[1:]):
            assert later <= earlier + 1e-9


def test_feasible_budget_guarantees_membership():
    rng = np.random.default_rng(37)
    for _ in range(20):
        model = random_model(rng)
        xs, _, _, ys = feasible_data(rng, model)
        state = estimator.run(model, ys)[-1]
        report = estimator.estimate(state)
        assert report.beta >= -1e-9
        assert estimator.membership(state, xs[-1])


def test_scaling_weights_leaves_estimate_and_projector():
    rng = np.random.default_rng(38)
    model = random_model(rng, n=3, m=2, p=2, tau=5)
    ys = random_measurements(rng, model)
    scaled = DescriptorModel.from_sequences(
        model.F, model.C, model.H,
        [7.5 * Sk for Sk in model.S],
        [7.5 * Rk for Rk in model.R],
    )
    base = estimator.estimate(estimator.run(model, ys)[-1])
    other = estimator.estimate(estimator.run(scaled, ys)[-1])
    assert np.allclose(base.xhat, other.xhat, atol=1e-9)
    assert np.allclose(base.projector, other.projector, atol=1e-9)


def test_inconsistent_data_reported_not_clamped():
    # One measurement of 100 forces min I = 5000 >> 1: beta goes deeply
    # negative and must surface as the inconsistency flag plus errors.
    model = scalar_chain(0)
    state = estimator.init(model, np.array([100.0]))
    report = estimator.estimate(state)
    assert report.beta < -1e-9
    assert not report.consistent
    with pytest.raises(InconsistentData):
        estimator.ell_error(state, np.array([1.0]))
    with pytest.raises(InconsistentData):
        estimator.membership(state, np.array([50.0]))


def test_unobservable_direction_reports_infinite_error():
    # F = (1 0), H = (1 0), C = 0: the second coordinate is never pinned.
    F = np.array([[1.0, 0.0]])
    H = np.array([[1.0, 0.0]])
    one = np.array([[1.0]])
    model = DescriptorModel.constant(F, np.zeros((1, 2)), H, one, one, 1)
    state = estimator.run(model, np.array([[0.3], [0.1]]))[-1]
    assert math.isinf(estimator.ell_error(state, np.array([0.0, 1.0])))
    assert not math.isinf(estimator.ell_error(state, np.array([1.0, 0.0])))
    with pytest.raises(OutsideObservable):
        estimator.direction_bounds(state, np.array([0.0, 1.0]))


def test_range_test_ignores_the_run_cutoff():
    # F = C = H = (1 0): x_2 is never weighted or measured.  A direction with
    # a free component of 1e-7 is unbounded at any cutoff, 1e-6 included.
    F = np.array([[1.0, 0.0]])
    one = np.array([[1.0]])
    model = DescriptorModel.constant(F, F, F, one, one, 3)
    state = estimator.run(model, np.array([0.3, 0.1, 0.2, 0.1]), 1e-6)[-1]
    assert estimator.estimate(state).consistent
    tilted = np.array([1.0, 1e-7])
    assert estimator.ell_error(state, tilted) == math.inf
    with pytest.raises(OutsideObservable):
        estimator.direction_bounds(state, tilted)
    assert math.isfinite(estimator.ell_error(state, np.array([1.0, 0.0])))


@pytest.mark.parametrize("query, size, message", [
    (lambda state, problem, v: estimator.ell_error(state, v), 3,
     "ell: got shape (3,), expected (4,)"),
    (lambda state, problem, v: estimator.direction_bounds(state, v), 5,
     "ell: got shape (5,), expected (4,)"),
    (lambda state, problem, v: estimator.membership(state, v), 1,
     "x: got shape (1,), expected (4,)"),
    (lambda state, problem, v: batch.objective(problem, v), 4,
     "xstack: got shape (4,), expected (12,)"),
    (lambda state, problem, v: batch.value_function(problem, v), 12,
     "q: got shape (12,), expected (4,)"),
], ids=["ell_error", "direction_bounds", "membership", "objective", "value_function"])
def test_vector_length_message(query, size, message):
    rng = np.random.default_rng(50)
    model = random_model(rng, n=4, m=2, p=1, tau=2)
    ys = random_measurements(rng, model)
    state = estimator.run(model, ys)[-1]
    with pytest.raises(DimensionMismatch) as info:
        query(state, batch.assemble(model, ys), np.ones(size))
    assert str(info.value) == message


def test_run_accepts_flat_measurements_for_scalar_output():
    model = scalar_chain(2)
    flat = estimator.run(model, np.array([1.0, 1.0, 0.5]))
    stacked = estimator.run(model, np.array([[1.0], [1.0], [0.5]]))
    for a, b in zip(flat, stacked):
        assert np.array_equal(a.P, b.P)
        assert np.array_equal(a.r, b.r)
        assert a.alpha == b.alpha


def test_filter_state_immutable():
    _, s0, _ = chain_states()
    with pytest.raises(Exception):
        s0.alpha = 99.0


def test_xhat_in_range_of_p():
    rng = np.random.default_rng(39)
    for _ in range(10):
        model = random_model(rng)
        ys = random_measurements(rng, model)
        state = estimator.run(model, ys)[-1]
        report = estimator.estimate(state)
        recon = pinv(state.P) @ (state.P @ report.xhat)
        assert np.linalg.norm(recon - report.xhat) <= 1e-10
        assert numerical_rank(state.P) == report.observable_rank


def _attainment_instances():
    rng = np.random.default_rng(39)
    for _ in range(20):
        yield rng, well_conditioned_instance(rng)[0]
    for _ in range(20):
        yield rng, well_conditioned_instance(rng, n=4, m=2, p=1)[0]


def test_minimax_bound_is_attained():
    # Tightness of the guaranteed interval against the independent batch
    # route: the boundary point q* along an observable direction l has
    # pinned-state minimum exactly 1, the unit budget, and a step along the
    # null space of P_tau leaves the minimum at 1 - beta.  The bound is
    # acceptance criterion 2's.
    noncausal = 0
    for rng, model in _attainment_instances():
        _, _, _, ys = feasible_data(rng, model)
        report = estimator.estimate(estimator.run(model, ys)[-1])
        prob = batch.assemble(model, ys)
        ell = report.basis @ rng.normal(size=report.observable_rank)
        radius = estimator.radius(report, ell)
        pl = report.basis @ ((report.basis.T @ ell) / report.lam)
        qstar = report.xhat + radius * pl / (pl @ ell)
        assert abs(batch.value_function(prob, qstar) - 1.0) <= 1e-8
        assert ell @ qstar == pytest.approx(ell @ report.xhat + radius, rel=1e-12, abs=1e-12)
        if report.noncausality_index == 0:
            continue
        noncausal += 1
        null = np.linalg.svd(report.basis.T)[2][report.observable_rank:]
        v = null.T @ rng.normal(size=report.noncausality_index)
        v /= np.linalg.norm(v)
        for t in (1.0, 10.0):
            value = batch.value_function(prob, report.xhat + t * v)
            assert abs(value - (1.0 - report.beta)) <= 1e-8
    assert noncausal >= 10, "too few noncausal instances reach the null-space check"
