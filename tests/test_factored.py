"""The stored eigenpairs of P_k: factorization counts, agreement of every
set query with the dense pseudoinverse route applied to state.P and of the
rows of CLI ``estimate`` with the per-state queries, the model-only
schedule kept on the model, and the invariance of the set under changes
of state coordinates and of equation rows."""

import io
import json
import math
import os
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CHOLESKY_REJECTED_WEIGHT,
    feasible_data,
    random_model,
    random_psd_weight,
    random_regular_model,
    sym_rank,
    well_conditioned_instance,
)
from daeminimax import batch, cli, estimator, formats, kalman
from daeminimax.errors import SingularMatrix
from daeminimax.linalg import EPS, factor_cutoff, pinv, qform, range_projector, symmetrize
from daeminimax.model import DescriptorModel, step_changes, truncate, validate

FACTORIZATIONS = ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
                  "pinv", "qr", "solve", "svd")


@pytest.fixture
def factorizations(monkeypatch):
    """Counter of numpy.linalg factorization calls made during the test."""
    calls = Counter()
    for name in FACTORIZATIONS:
        def counted(*args, _name=name, _func=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def factored(monkeypatch):
    """Counter of the matrices numpy.linalg factorizations took during the
    test: a call on a (T, m, m) stack counts T."""
    matrices = Counter()
    for name in FACTORIZATIONS:
        def counted(a, *args, _name=name, _func=getattr(np.linalg, name), **kwargs):
            matrices[_name] += math.prod(np.shape(a)[:-2])
            return _func(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return matrices


def test_queries_make_no_factorization(factorizations):
    rng = np.random.default_rng(41)
    for _ in range(5):
        model = random_model(rng, n=4, m=2, p=1, tau=6)
        xs, _, _, ys = feasible_data(rng, model)
        states = estimator.run(model, ys)
        factorizations.clear()
        for state, x in zip(states, xs):
            report = estimator.estimate(state)
            for ell in (np.eye(model.n)[0], report.basis[:, -1]):
                estimator.ell_error(state, ell)
            estimator.direction_bounds(state, report.basis[:, -1])
            estimator.membership(state, x)
        assert sum(factorizations.values()) == 0, dict(factorizations)


def test_step_makes_at_most_four_factorizations(factorizations):
    # One SVD of the stacked factor of B, one of the factor of P_k, and the
    # Cholesky factors of S_k and R_k; no eigendecomposition.
    rng = np.random.default_rng(42)
    model = random_model(rng, n=4, m=3, p=2, tau=5)
    ys = rng.normal(size=(model.tau + 1, model.p))
    state = estimator.init(model, ys[0])
    for k in range(1, model.tau + 1):
        factorizations.clear()
        state = estimator.step(state, model, ys[k])
        assert factorizations["eigh"] == 0, dict(factorizations)
        assert factorizations["svd"] <= 2, dict(factorizations)
        assert factorizations["cholesky"] <= 2, dict(factorizations)
        assert sum(factorizations.values()) <= 4, dict(factorizations)


def test_step_refuses_a_semidefinite_weight():
    # S = diag(1, 0) has no Cholesky factor: init refuses it as S_0, and
    # step refuses it as S_1 after an accepted S_0.
    rng = np.random.default_rng(44)
    F, C, H = rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=(1, 2))
    S = np.diag([1.0, 0.0])
    model = DescriptorModel.constant(F, C, H, S, np.eye(1), tau=1)
    with pytest.raises(SingularMatrix, match=r"^S_0 is numerically singular$"):
        estimator.init(model, np.array([0.3]))
    model = DescriptorModel.constant(F, C, H, [np.eye(2), S], np.eye(1), tau=1)
    s0 = estimator.init(model, np.array([0.3]))
    with pytest.raises(SingularMatrix, match=r"^S_1 is numerically singular$"):
        estimator.step(s0, model, np.array([0.2]))


def test_validate_checks_each_distinct_weight_once(factorizations):
    one = np.array([[1.0]])
    model = DescriptorModel.constant(one, one, one, 2.0 * one, 3.0 * one, tau=200)
    assert validate(model).ok
    assert sum(factorizations.values()) == 2


def test_validate_takes_an_eigenvalue_only_of_a_rejected_weight(factorizations):
    model = random_model(np.random.default_rng(6), tau=20)
    assert validate(model).ok
    assert factorizations == Counter(cholesky=2)
    bad = DescriptorModel.from_sequences(model.F, model.C, model.H, model.S,
                                         [-Rk if k == 4 else Rk for k, Rk in enumerate(model.R)])
    assert validate(bad).issues[0].startswith("R_4 not positive definite")
    assert factorizations["eigvalsh"] == 1 and factorizations["eigh"] == 0


def test_validate_reports_a_shared_bad_weight_under_every_name():
    # One issue names the whole run of steps that holds the bad weight.
    one = np.array([[1.0]])
    model = DescriptorModel.constant(one, one, one, -one, one, tau=3)
    assert validate(model).issues == ("S_0..3 not positive definite (min eigenvalue -1)",)


def test_stricter_query_cutoff_drops_more_eigenpairs():
    # P_0 = diag(2, 1e-4): a run at the relative cutoff 1e-3 drops the second
    # direction, and every query of its states answers at that cutoff.
    model = DescriptorModel.constant(np.diag([1.0, 1e-2]), np.zeros((2, 2)),
                                     np.array([[1.0, 0.0]]), np.eye(2), np.eye(1), tau=0)
    state = estimator.init(model, np.array([0.5]))
    stricter = estimator.init(model, np.array([0.5]), 1e-3)
    e2 = np.array([0.0, 1.0])
    assert estimator.estimate(state).observable_rank == 2
    assert estimator.ell_error(state, e2) == pytest.approx(math.sqrt(0.875e4), rel=1e-12)
    strict = estimator.estimate(stricter)
    assert stricter.rank_tol == 1e-3
    assert strict.observable_rank == sym_rank(state.P, 1e-3) == 1
    assert np.allclose(strict.projector, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(strict.xhat, pinv(state.P, 1e-3) @ state.r, atol=1e-15)
    assert math.isinf(estimator.ell_error(stricter, e2))
    assert estimator.membership(stricter, np.array([0.25, 1e3]))
    assert not estimator.membership(state, np.array([0.25, 1e3]))


def _close(a, b, tol=1e-8) -> bool:
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0)) <= tol * scale


def _screened_instance(seed, noncausal):
    """Gray-band-screened (model, ys): noncausal (m + p < n) or regular."""
    rng = np.random.default_rng(seed)
    if noncausal:
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, n - 1))
        model, ys = well_conditioned_instance(rng, n=n, m=m, p=int(rng.integers(1, n - m)))
    else:
        model, ys = well_conditioned_instance(rng, n=int(rng.integers(1, 5)), regular=True)
    return rng, model, ys


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), noncausal=st.booleans())
def test_factored_queries_match_dense_route(seed, noncausal):
    rng, model, ys = _screened_instance(seed, noncausal)
    directions = list(np.eye(model.n)) + [rng.normal(size=model.n)]
    for state in estimator.run(model, ys):
        report = estimator.estimate(state)
        xhat = pinv(state.P) @ state.r
        beta = 1.0 - state.alpha + qform(state.P, xhat)
        assert _close(report.xhat, xhat)
        assert _close(report.beta, beta)
        assert report.observable_rank == sym_rank(state.P)
        proj = range_projector(state.P)
        assert _close(report.projector, proj)
        if beta < -estimator.BETA_TOL:
            continue
        for ell in directions:
            got = estimator.ell_error(state, ell)
            tol = max(model.n, 8) * EPS * float(np.linalg.norm(ell))
            if float(np.linalg.norm(proj @ ell - ell)) > tol:
                assert math.isinf(got)
            else:
                assert _close(got, math.sqrt(max(beta, 0.0) * max(ell @ pinv(state.P) @ ell, 0.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rank_tol=st.sampled_from([0.0, 1e-10, 1e-6, 1e-3]),
       exponent=st.floats(-6.0, 0.0))
def test_radius_decides_range_at_roundoff_under_any_cutoff(seed, rank_tol, exponent):
    # ell = b + t u with b in range(P_k) and u a unit vector orthogonal to it:
    # unbounded for any t >= 1e-6 |b|, whatever the run's cutoff, and the
    # dense route's radius at t = 0.
    rng, model, ys = _screened_instance(seed, noncausal=True)
    for state in estimator.run(model, ys, rank_tol):
        report = estimator.estimate(state)
        if not report.consistent:
            continue
        V = report.basis
        b = V @ rng.normal(size=V.shape[1])
        u = rng.normal(size=model.n)
        for _ in range(2):
            u -= V @ (V.T @ u)
        u /= np.linalg.norm(u)
        t = 10.0**exponent * float(np.linalg.norm(b))
        assert estimator.radius(report, b + t * u) == math.inf
        dense = math.sqrt(max(report.beta, 0.0) * max(b @ pinv(state.P) @ b, 0.0))
        assert _close(estimator.radius(report, b), dense)


def _same_states(got, want) -> bool:
    return len(got) == len(want) and all(
        a.k == b.k and a.alpha == b.alpha and a.rank_tol == b.rank_tol
        and np.array_equal(a.r, b.r) and np.array_equal(a.V, b.V)
        and np.array_equal(a.lam, b.lam)
        for a, b in zip(got, want)
    )


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), noncausal=st.booleans())
def test_run_equals_init_step_chain_bit_for_bit(seed, noncausal):
    _, model, ys = _screened_instance(seed, noncausal)
    chain = [estimator.init(model, ys[0])]
    for k in range(1, model.tau + 1):
        chain.append(estimator.step(chain[-1], model, ys[k]))
    assert _same_states(estimator.run(model, ys), chain)


def _faint_model(tau=2, T=np.eye(2)):
    """P_0 = diag(2, 1e-4) in the coordinates x = T z, and the faint second
    direction fades by 4e-4 per step: the default cutoff keeps it up to k = 3,
    the cutoff 1e-3 on eigenvalues of P drops it at every step."""
    return DescriptorModel.constant(np.diag([1.0, 1e-2]) @ T, 0.5 * T,
                                    np.array([[1.0, 0.0]]) @ T, np.eye(2), np.eye(1), tau=tau)


FAINT_YS = np.array([0.5, 0.2, -0.1])


def test_chain_keeps_the_cutoff_of_init():
    # A chain started at 1e-3 must not fall back to the default at any step.
    model = _faint_model()
    chain = [estimator.init(model, FAINT_YS[0], 1e-3)]
    for k in range(1, model.tau + 1):
        chain.append(estimator.step(chain[-1], model, FAINT_YS[k]))
    assert all(state.rank_tol == 1e-3 and state.lam.size == 1 for state in chain)
    assert _same_states(chain, estimator.run(_faint_model(), FAINT_YS, 1e-3))


def test_second_run_on_a_model_factorizes_nothing(factorizations):
    rng = np.random.default_rng(45)
    model = random_model(rng, n=4, m=2, p=1, tau=8)
    estimator.run(model, rng.normal(size=(model.tau + 1, model.p)))
    assert sum(factorizations.values()) > 0
    factorizations.clear()
    states = estimator.run(model, rng.normal(size=(model.tau + 1, model.p)))
    assert len(states) == model.tau + 1
    assert sum(factorizations.values()) == 0, dict(factorizations)


def test_run_with_another_cutoff_recomputes_like_a_fresh_model():
    # The default cutoff and 1e-3 disagree on the rank of every P_k, so a
    # stale schedule would show in the index.
    model = _faint_model()
    default = estimator.run(model, FAINT_YS)
    pinned = estimator.run(model, FAINT_YS, 1e-3)
    assert _same_states(pinned, estimator.run(_faint_model(), FAINT_YS, 1e-3))
    assert [estimator.estimate(s).noncausality_index for s in pinned] == [1, 1, 1]
    assert [estimator.estimate(s).noncausality_index for s in default] == [0, 0, 0]
    assert _same_states(estimator.run(model, FAINT_YS), default)


def test_default_cutoff_drops_a_faded_direction_in_any_coordinates():
    # From k = 4 the faint eigenvalue is below 1e-17 of the largest, where the
    # estimate along it is roundoff: the default cutoff drops it whether or not
    # the coordinates are rotated, so xhat and beta agree.
    T = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    ys = np.array([0.5, 0.2, -0.1, 0.3, 0.4, 0.1, 0.2, 0.3, -0.2])
    pairs = zip(estimator.run(_faint_model(8), ys), estimator.run(_faint_model(8, T), ys))
    for state, other in list(pairs)[4:]:
        want, got = estimator.estimate(state), estimator.estimate(other)
        assert want.noncausality_index == got.noncausality_index == 1
        assert _close(T @ got.xhat, want.xhat)
        assert _close(got.beta, want.beta)


def test_run_arrays_are_read_only():
    one = np.array([[1.0]])
    model = DescriptorModel.constant(one, one, one, one, one, tau=1)
    ys = np.array([1.0, 1.0])
    run = estimator.run(model, ys)
    state = run[-1]
    report = estimator.estimate(state)
    for arr in (state.lam, state.V, report.basis, report.lam, run.r, run.alpha, run.link_of):
        with pytest.raises(ValueError):
            arr[0] = 100.0
    fresh = DescriptorModel.constant(one, one, one, one, one, tau=1)
    want = estimator.estimate(estimator.run(fresh, ys)[-1]).xhat
    assert want == pytest.approx([0.8], abs=1e-12)
    assert np.array_equal(estimator.estimate(estimator.run(model, ys)[-1]).xhat, want)


def test_run_indexes_like_a_list_of_states():
    rng = np.random.default_rng(51)
    model = random_model(rng, n=3, m=2, p=1, tau=6)
    ys = feasible_data(rng, model)[3]
    run = estimator.run(model, ys)
    chain = [estimator.init(model, ys[0])]
    for k in range(1, model.tau + 1):
        chain.append(estimator.step(chain[-1], model, ys[k]))
    assert len(run) == model.tau + 1
    assert _same_states([run[-1], run[-7]], [chain[-1], chain[0]])
    assert _same_states(run[1:5:2], chain[1:5:2])
    assert _same_states(run[::-1], chain[::-1])
    assert run[7:] == [] and run[-1].k == 6
    for k in (7, -8):
        with pytest.raises(IndexError):
            run[k]


def test_model_matrices_are_read_only():
    one = np.array([[1.0]])
    built = DescriptorModel.constant(one, one, one, one, one, tau=2)
    loaded, _ = formats.load_model({"n": 1, "m": 1, "p": 1, "tau": 2, "F": [[[1.0]]] * 3,
                                    "C": [[1.0]], "H": [[1.0]], "S": [[1.0]], "R": [[1.0]]})
    for model in (built, loaded):
        with pytest.raises(ValueError):
            model.F[0][0, 0] = 2.0


def test_from_sequences_leaves_the_caller_array_writable():
    F = np.eye(2)
    model = DescriptorModel.constant(F, np.eye(2), np.ones((1, 2)), np.eye(2), np.eye(1), tau=3)
    assert model.F.shape == (4, 2, 2) and model.F.strides[0] == 0
    assert not model.F.flags.writeable and not np.shares_memory(model.F, F)
    F[0, 0] = 5.0
    assert F.flags.writeable and model.F[0][0, 0] == 1.0


def _constant_model(rng, n, m, p, tau):
    F, C, H = rng.normal(size=(m, n)), rng.normal(size=(m, n)), rng.normal(size=(p, n))
    S, R = random_psd_weight(rng, m), random_psd_weight(rng, p)
    return DescriptorModel.constant(F, C, H, S, R, tau=tau)


@pytest.mark.parametrize("n, m, p", [(3, 3, 1), (4, 1, 2)])
def test_schedule_reuse_is_bit_identical(n, m, p):
    # Distinct copies at every step are compared by value, and reuse the
    # products that one stride-0 matrix per field reuses.
    model = _constant_model(np.random.default_rng(47), n, m, p, tau=30)
    fresh = DescriptorModel.from_sequences(
        *([mat.copy() for mat in getattr(model, name)] for name in "FCHSR"))
    assert model.F.strides[0] == 0 and fresh.F.strides[0] != 0
    assert not np.shares_memory(fresh.F, model.F)
    links, link_of = estimator.schedule(model)
    fresh_links, fresh_link_of = estimator.schedule(fresh)
    assert link_of.shape == fresh_link_of.shape == (31,)
    for i, j in zip(link_of, fresh_link_of):
        assert all(np.array_equal(a, b) for a, b in zip(links[i], fresh_links[j]))
    _assert_schedule_is_the_chain(fresh)


def _chained_links(model):
    """Each link computed afresh from the one before, as init and step do."""
    links, V, lam = [], None, None
    with estimator._quiet():
        for k in range(model.tau + 1):
            W, Q = np.linalg.cholesky(model.S[k]).T, np.linalg.cholesky(model.R[k]).T
            links.append(estimator._link(V, lam, k, factor_cutoff(0.0, model.n),
                                         estimator._products(model, k, W, Q)))
            V, lam = links[-1].V, links[-1].lam
    return links


def _assert_schedule_is_the_chain(model):
    """Step k's link, links[link_of[k]], is the chain's link bit for bit."""
    links, link_of = estimator.schedule(model)
    assert link_of.shape == (model.tau + 1,)
    for i, want in zip(link_of, _chained_links(model), strict=True):
        for name in ("V", "lam", "E", "L"):
            a, b = getattr(links[i], name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return links


def test_schedule_reuses_the_link_of_a_recurring_input():
    # The scalar chain's P_k settles into a cycle of 20 distinct floats.
    one = np.array([[1.0]])
    tau = 300
    links = _assert_schedule_is_the_chain(DescriptorModel.constant(one, one, one, one, one, tau))
    assert len(links) < tau + 1


@pytest.mark.parametrize("n, m, p", [(4, 4, 1), (4, 2, 1)])
def test_schedule_with_reuse_equals_the_chain(n, m, p):
    # A constant regular model and a constant noncausal one (m + p < n).
    _assert_schedule_is_the_chain(_constant_model(np.random.default_rng(42), n, m, p, tau=300))


def test_schedule_drops_reuse_when_a_weight_switches():
    # S switches to another matrix and back mid-horizon: a link reused
    # across the switch would carry the other weight.
    rng = np.random.default_rng(49)
    base = _constant_model(rng, 4, 2, 1, tau=120)
    other = random_psd_weight(rng, 2)
    S = [base.S[0]] * 40 + [other] * 40 + [base.S[0]] * 41
    model = DescriptorModel.from_sequences(base.F, base.C, base.H, S, base.R)
    assert np.array_equal(model.S[39], model.S[80])
    assert np.flatnonzero(step_changes(model.S)).tolist() == [0, 40, 80]
    _assert_schedule_is_the_chain(model)


def test_schedule_factors_each_run_of_equal_weights_once(factorizations, factored):
    # Time-varying F, C, H, and per-step copies of S and R whose values run
    # a a b b b a and c c c d c c: each run of equal weights is factored
    # once, in one stacked call per weight field.
    rng = np.random.default_rng(50)
    base = random_model(rng, n=3, m=2, p=1, tau=5)
    S_a, S_b = random_psd_weight(rng, 2), random_psd_weight(rng, 2)
    R_c, R_d = random_psd_weight(rng, 1), random_psd_weight(rng, 1)
    S = [mat.copy() for mat in (S_a, S_a, S_b, S_b, S_b, S_a)]
    R = [mat.copy() for mat in (R_c, R_c, R_c, R_d, R_c, R_c)]
    model = DescriptorModel.from_sequences(base.F, base.C, base.H, S, R)
    assert step_changes(model.S).tolist() == [True, False, True, False, False, True]
    assert step_changes(model.R).tolist() == [True, False, False, True, True, False]
    factorizations.clear()
    factored.clear()
    estimator.schedule(model)
    assert factored["cholesky"] == 3 + 3
    assert factorizations["cholesky"] == 2
    _assert_schedule_is_the_chain(model)


def test_schedule_factors_a_repeated_weight_once(factorizations, factored):
    rng = np.random.default_rng(48)
    # One Cholesky factor per distinct S and R object, k = 0 included, in
    # one stacked call per weight field.
    estimator.schedule(_constant_model(rng, 3, 3, 1, tau=50))
    assert factored["cholesky"] == 2
    factorizations.clear()
    factored.clear()
    estimator.schedule(random_model(rng, n=3, m=3, p=1, tau=50))
    assert factored["cholesky"] == 2 * 51
    assert factorizations["cholesky"] == 2


def _products_of_one_step(model, k):
    """WF, G, QH and HtR of step k by the arithmetic of that step alone."""
    W, Q = np.linalg.cholesky(model.S[k]).T, np.linalg.cholesky(model.R[k]).T
    G = W @ model.C[k - 1] if k else np.zeros((model.m, model.n))
    return W @ model.F[k], G, Q @ model.H[k], model.H[k].T @ model.R[k]


def _weight_runs_model(kind, tau=30):
    """A model of n = m = 3, p = 1 whose weights are constant, vary at every
    step, switch mid-horizon and back, or hold one weight that Cholesky
    rejects for a few steps."""
    rng = np.random.default_rng(63)
    base = random_model(rng, n=3, m=3, p=1, tau=tau)
    if kind == "time-varying":
        return base
    if kind == "constant":
        return _constant_model(rng, 3, 3, 1, tau)
    S_a, S_b = random_psd_weight(rng, 3), random_psd_weight(rng, 3)
    if kind == "rejected":
        S_b = CHOLESKY_REJECTED_WEIGHT
    S = [S_b if 10 <= k < 14 else S_a for k in range(tau + 1)]
    R = [base.R[0] if k < 20 else base.R[1] for k in range(tau + 1)]
    return DescriptorModel.from_sequences(base.F, base.C, base.H, S, R)


@pytest.mark.parametrize("kind", ["constant", "time-varying", "switching", "rejected"])
def test_step_products_match_the_arithmetic_of_each_step(kind, monkeypatch, factored):
    model = _weight_runs_model(kind)
    runs_S = np.count_nonzero(step_changes(model.S))
    if kind == "rejected":
        # The one-step factors of each of steps 10..13 refuse its S_k, and
        # the schedule refuses the run by name: the stacked call over the
        # runs of S fails, each run is factored once more alone, and no R
        # is factored.
        for k in range(10, 14):
            state = estimator.FilterState(k - 1, np.zeros(3), 0.0, np.eye(3), np.ones(3), 0.0)
            with pytest.raises(SingularMatrix, match=f"^S_{k} is numerically singular$"):
                estimator.step(state, model, [0.0])
        factored.clear()
        with pytest.raises(SingularMatrix, match=r"^S_10\.\.13 is numerically singular$"):
            estimator.schedule(model)
        assert factored == Counter(cholesky=2 * runs_S)
        return
    products, calls = estimator._products, []

    def recorded(model, k, W, Q):
        calls.append((k, products(model, k, W, Q)))
        return calls[-1][1]

    monkeypatch.setattr(estimator, "_products", recorded)
    estimator.schedule(model)
    # Products are made once at each step where F_k, C_{k-1}, H_k, S_k or
    # R_k changes, in order, and nowhere else.
    changes = np.array([step_changes(model.F), np.insert(step_changes(model.C), 0, True),
                        step_changes(model.H), step_changes(model.S), step_changes(model.R)])
    assert [k for k, _ in calls] == np.flatnonzero(changes.any(axis=0)).tolist()
    # On a constant model, only step 0 and step 1 (the first to read C_0).
    assert kind != "constant" or len(calls) == 2
    # A weight field takes one stacked call over all its runs.
    assert factored["cholesky"] == runs_S + np.count_nonzero(step_changes(model.R))
    assert factored["eigh"] == 0
    for k, prod in calls:
        for got, want in zip(prod, _products_of_one_step(model, k), strict=False):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["constant", "switching", "rejected"])
def test_batch_factors_each_run_of_equal_weights_once_per_command(kind, factored):
    model = _weight_runs_model(kind, tau=16)
    ys = np.random.default_rng(64).normal(size=(17, 1))
    runs_S = np.count_nonzero(step_changes(model.S))
    if kind == "rejected":
        # The stacked call over the runs of S fails, each run is tried once
        # more alone, and the rejected run is refused by name.
        with pytest.raises(SingularMatrix, match=r"^S_10\.\.13 is numerically singular$"):
            batch.assemble(model, ys)
        assert factored == Counter(cholesky=2 * runs_S)
        return
    whole = batch.assemble(model, ys)
    runs = runs_S + np.count_nonzero(step_changes(model.R))
    assert factored["cholesky"] == runs
    for k in range(model.tau + 1):
        batch.solve(batch.leading(whole, k))
    assert factored["cholesky"] == runs and factored["eigh"] == 0
    assert factored["lstsq"] == model.tau + 1


def test_run_kalman_inverts_each_run_of_equal_weights_once(factorizations, factored):
    rng = np.random.default_rng(65)
    base = random_regular_model(rng, n=2, tau=24)
    S_a, S_b = random_psd_weight(rng, 2), random_psd_weight(rng, 2)
    S = [S_b if 5 <= k < 9 else S_a for k in range(25)]
    model = DescriptorModel.from_sequences(base.F, base.C, base.H, S, base.R)
    ys = rng.normal(size=(25, base.p))
    factorizations.clear()
    factored.clear()
    kalman.run_kalman(model, ys)
    # Runs of S_k over k = 1..24: a, b, a.  Then one gain and one
    # information matrix a step, and P_{0|0}.
    assert factored["inv"] == 3 + 2 * 24 + 1
    # Regularity: one stacked singular-value call over the 25 distinct [F_k; H_k].
    assert factorizations["svd"] == 1 and factored["svd"] == 25


def test_validate_reports_a_shared_bad_matrix_under_every_name():
    # Each run of equal matrices is named once, as its range of steps; a run
    # of one step keeps its own name.
    one = np.array([[1.0]])
    model = DescriptorModel.constant(np.array([[np.nan]]), one, one, one, one, tau=3)
    assert validate(model).issues == ("F_0..3 has non-finite entries",)
    S = [one, -one, -one, one, -2.0 * one, -one]
    model = DescriptorModel.from_sequences([one] * 6, [one] * 5, [one] * 6, S, [one] * 6)
    assert validate(model).issues == (
        "S_1..2 not positive definite (min eigenvalue -1)",
        "S_4 not positive definite (min eigenvalue -2)",
        "S_5 not positive definite (min eigenvalue -1)",
    )


def test_directly_built_model_cannot_go_stale():
    F, one = np.array([[1.0]]), np.array([[1.0]])
    model = DescriptorModel(n=1, m=1, p=1, tau=1, F=(F, F), C=(one,), H=(one, one),
                            S=(one, one), R=(one, one))
    ys = np.array([1.0, 1.0])
    before = estimator.estimate(estimator.run(model, ys)[-1]).xhat
    assert before == pytest.approx([0.8], abs=1e-12)
    F[0, 0] = 3.0
    assert estimator.estimate(estimator.run(model, ys)[-1]).xhat == before
    assert np.array_equal(model.F[0], model.F[1]) and not np.shares_memory(model.F, F)
    assert not np.shares_memory(model.C, one) and F.flags.writeable
    assert not model.F.flags.writeable
    with pytest.raises(ValueError):
        model.F[0][0, 0] = 2.0
    # A read-only view of a writable array is copied; the model's own arrays are not.
    view = F.view()
    view.flags.writeable = False
    assert not np.shares_memory(DescriptorModel.constant(view, one, one, one, one, tau=1).F, F)
    again = DescriptorModel(n=1, m=1, p=1, tau=1, F=model.F, C=model.C, H=model.H,
                            S=model.S, R=model.R)
    assert all(np.shares_memory(getattr(again, name), getattr(model, name)) for name in "FCHSR")


def _transformed(model, F=None, C=None, H=None, S=None):
    """The model with each given map applied to every matrix of its kind."""
    def seq(name, func):
        return [func(mat) if func else mat for mat in getattr(model, name)]
    return DescriptorModel.from_sequences(seq("F", F), seq("C", C), seq("H", H), seq("S", S),
                                          seq("R", None))


def _scaled_orthogonal(rng, dim):
    """Q diag(d), Q orthogonal and d in [0.5, 2]: condition number at most 4."""
    Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    return Q * rng.uniform(0.5, 2.0, size=dim)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), noncausal=st.booleans())
def test_change_of_state_coordinates(seed, noncausal):
    # x = T z: F, C, H -> FT, CT, HT maps the set X(k) to T^-1 X(k), so it keeps beta
    # and the index and maps xhat to T^-1 xhat up to the unobservable subspace:
    # xhat is the point of least norm, which a T that is not orthogonal does not keep.
    rng, model, ys = _screened_instance(seed, noncausal)
    T = _scaled_orthogonal(rng, model.n)
    right = lambda mat: mat @ T  # noqa: E731
    moved = _transformed(model, F=right, C=right, H=right)
    for state, other in zip(estimator.run(model, ys), estimator.run(moved, ys)):
        want, got = estimator.estimate(state), estimator.estimate(other)
        assert _close(got.xhat, got.projector @ np.linalg.solve(T, want.xhat))
        assert _close(got.beta, want.beta)
        assert got.noncausality_index == want.noncausality_index


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), noncausal=st.booleans())
def test_change_of_equation_rows(seed, noncausal):
    # F, C -> UF, UC with S -> U^-T S U^-1 weighs the same residuals: nothing changes.
    rng, model, ys = _screened_instance(seed, noncausal)
    U = _scaled_orthogonal(rng, model.m)
    Ui = np.linalg.inv(U)
    left = lambda mat: U @ mat  # noqa: E731
    moved = _transformed(model, F=left, C=left, S=lambda S: symmetrize(Ui.T @ S @ Ui))
    for state, other in zip(estimator.run(model, ys), estimator.run(moved, ys)):
        want, got = estimator.estimate(state), estimator.estimate(other)
        assert _close(got.xhat, want.xhat)
        assert _close(got.beta, want.beta)
        assert got.noncausality_index == want.noncausality_index


def _degenerate(model, ys, kind):
    """The model with horizon 0, with every F zero, or with every H zero."""
    if kind == "tau=0":
        return truncate(model, 0), ys[:1]
    zero = lambda mat: np.zeros_like(mat)  # noqa: E731
    return _transformed(model, **{kind[0]: zero}), ys


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), noncausal=st.booleans(),
       kind=st.sampled_from(["tau=0", "F=0", "H=0"]))
def test_degenerate_models_match_batch_oracle(seed, noncausal, kind):
    _, model, ys = _screened_instance(seed, noncausal)
    model, ys = _degenerate(model, ys, kind)
    final = estimator.run(model, ys)[-1]
    report = estimator.estimate(final)
    solution = batch.solve(batch.assemble(model, ys))
    assert _close(report.xhat, range_projector(final.P) @ solution.xstack[-model.n:])
    assert _close(report.beta, 1.0 - solution.minI)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), noncausal=st.booleans(),
       scale=st.sampled_from([1e100, 1e-100]))
def test_scaled_models(seed, noncausal, scale):
    # F, C, H -> cF, cC, cH maps the set X(k) to X(k) / c: it keeps beta and
    # the index, and c xhat is the unscaled xhat.  No step may overflow.
    _, model, ys = _screened_instance(seed, noncausal)
    times = lambda mat: scale * mat  # noqa: E731
    scaled = _transformed(model, F=times, C=times, H=times)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = list(zip(estimator.run(model, ys), estimator.run(scaled, ys)))
        for state, other in pairs:
            want, got = estimator.estimate(state), estimator.estimate(other)
            assert _close(scale * got.xhat, want.xhat)
            assert _close(got.beta, want.beta)
            assert got.noncausality_index == want.noncausality_index


def _estimate_rows(model, ys, directions, constant=False):
    """Exit code of CLI ``estimate`` on the model, its CSV text, and the
    same table written from the per-state queries, the CLI's rule applied
    to ``estimate`` and ``ell_error``.  A constant model is written with
    one matrix per field, so the loaded model shares them across steps."""
    doc = {"n": model.n, "m": model.m, "p": model.p, "tau": model.tau}
    for name in "FCHSR":
        mats = getattr(model, name)
        doc[name] = mats[0].tolist() if constant else [mat.tolist() for mat in mats]
    header = ["k"] + [f"xhat{i}" for i in range(model.n)] + ["beta"]
    for j in range(len(directions)):
        header += [f"dir{j}_value", f"dir{j}_low", f"dir{j}_high", f"dir{j}_observable"]
    with tempfile.TemporaryDirectory() as tmp:
        spec, meas = os.path.join(tmp, "model.json"), os.path.join(tmp, "ys.csv")
        out, want = os.path.join(tmp, "est.csv"), os.path.join(tmp, "want.csv")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        formats.write_table(meas, ["k"] + [f"y{i}" for i in range(model.p)],
                            [[k, *y] for k, y in enumerate(ys)])
        argv = ["estimate", "--spec", spec, "--measurements", meas, "--out", out]
        argv += ["--direction=" + ",".join(repr(float(v)) for v in ell) for ell in directions]
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        loaded, _ = formats.load_model_file(spec)
        rows = []
        for state in estimator.run(loaded, formats.measurement_rows(meas, loaded)):
            report = estimator.estimate(state)
            row = [state.k, *report.xhat, report.beta]
            for ell in directions:
                value = float(ell @ report.xhat)
                if not report.consistent:
                    row += [value, math.nan, math.nan, 0]
                    continue
                radius = estimator.ell_error(state, ell)
                row += [value, value - radius, value + radius, int(radius < math.inf)]
                if radius < math.inf:
                    assert estimator.direction_bounds(state, ell) == (row[-3], row[-2])
            rows.append(row)
        formats.write_table(want, header, rows)
        with open(out, encoding="utf-8") as got, open(want, encoding="utf-8") as expected:
            return code, got.read(), expected.read()


def _three_directions(rng, model, ys):
    """One direction in range(P_tau) (zero at rank 0), a random one, which
    has a component off range(P_k) below full rank, and zero."""
    final = estimator.run(model, ys)[-1]
    inside = final.V[:, 0] if final.lam.size else np.zeros(model.n)
    return [inside, rng.normal(size=model.n), np.zeros(model.n)]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), noncausal=st.booleans(),
       kind=st.sampled_from(["drawn", "constant", "F=H=0"]), scale=st.sampled_from([1.0, 30.0]))
def test_estimate_rows_equal_per_state_queries_bit_for_bit(seed, noncausal, kind, scale):
    # A constant model puts link reuse on the path; F = H = 0 has rank 0 at
    # every step.  Scaled-up data make some rows inconsistent.
    rng, model, _ = _screened_instance(seed, noncausal)
    if kind == "constant":
        model = DescriptorModel.constant(*(getattr(model, name)[0] for name in "FCHSR"), tau=40)
    elif kind == "F=H=0":
        model = _transformed(model, F=np.zeros_like, H=np.zeros_like)
    ys = scale * feasible_data(rng, model)[3]
    code, got, want = _estimate_rows(model, ys, _three_directions(rng, model, ys),
                                     constant=kind == "constant")
    assert got == want
    final_beta = float(got.splitlines()[-1].split(",")[model.n + 1])
    assert code == (cli.EXIT_OK if final_beta >= -estimator.BETA_TOL else cli.EXIT_DATA)


@pytest.mark.parametrize("kind", ["regular", "F=H=0"])
def test_estimate_rows_of_inconsistent_data(kind):
    # A noncausal model explains any data; its rank-0 variant explains none.
    rng, model, _ = _screened_instance(7, noncausal=kind != "regular")
    if kind == "F=H=0":
        model = _transformed(model, F=np.zeros_like, H=np.zeros_like)
    ys = 1e3 * feasible_data(rng, model)[3]
    code, got, want = _estimate_rows(model, ys, _three_directions(rng, model, ys))
    assert got == want
    final = got.splitlines()[-1].split(",")
    assert code == cli.EXIT_DATA and float(final[model.n + 1]) < -estimator.BETA_TOL
    for j in range(3):
        value, low, high, observable = final[model.n + 2 + 4 * j:model.n + 6 + 4 * j]
        assert low == high == "nan" and observable == "0" and value != "nan"
