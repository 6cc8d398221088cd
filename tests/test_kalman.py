"""Regular-case recursion in covariance form and its equivalence."""

import numpy as np
import pytest

from conftest import (CHOLESKY_REJECTED_WEIGHT, LU_SINGULAR_WEIGHT, random_measurements,
                      random_regular_model)
from daeminimax import batch, estimator, kalman
from daeminimax.errors import DimensionMismatch, InvalidMatrix, NumericalBreakdown, SingularMatrix
from daeminimax.linalg import pinv, weight_factors
from daeminimax.model import DescriptorModel, validate


def scalar_chain(tau=1):
    one = np.array([[1.0]])
    return DescriptorModel.constant(one, one, one, one, one, tau)


def test_check_regularity_scalar_chain():
    assert kalman.check_regularity(scalar_chain(3)) == [True] * 4


def test_check_regularity_flags_rank_deficiency():
    # F = (1 0), H = (1 0): stacked rank 1 < n = 2 at every step.
    F = np.array([[1.0, 0.0]])
    H = np.array([[1.0, 0.0]])
    one = np.array([[1.0]])
    model = DescriptorModel.constant(F, np.zeros((1, 2)), H, one, one, 2)
    assert kalman.check_regularity(model) == [False] * 3


def test_check_regularity_decides_each_run_of_equal_steps_once(monkeypatch):
    F = np.array([[1.0, 0.0]])
    one = np.array([[1.0]])
    model = DescriptorModel.constant(F, np.zeros((1, 2)), F, one, one, 2000)
    numerical_rank, calls = kalman.numerical_rank, []

    def counted(*args, **kwargs):
        calls.append(args)
        return numerical_rank(*args, **kwargs)

    monkeypatch.setattr(kalman, "numerical_rank", counted)
    assert kalman.check_regularity(model) == [False] * 2001
    assert len(calls) == 1


def test_check_regularity_follows_runs_of_f_and_h():
    # H_k = 0 at steps 0, 2, 5 makes [F_k; H_k] = [0; 0] rank deficient there.
    H = [[[0.0 if k in (0, 2, 5) else 1.0]] for k in range(7)]
    model = DescriptorModel.from_sequences([[[0.0]]] * 7, [[[1.0]]] * 6, H,
                                           [[[1.0]]] * 7, [[[1.0]]] * 7)
    assert kalman.check_regularity(model) == [k not in (0, 2, 5) for k in range(7)]


def test_kalman_steps_decide_regularity_as_check_regularity_does():
    # At steps 0, 2 and 5 the second column of F_k and H_k is zero, so
    # rank [F_k; H_k] = 1 < n = 2 there; the other steps are generic.
    rng = np.random.default_rng(67)
    F, H = rng.normal(size=(2, 7, 1, 2))
    F[[0, 2, 5], :, 1] = H[[0, 2, 5], :, 1] = 0.0
    one = [[[1.0]]] * 7
    model = DescriptorModel.from_sequences(F, rng.normal(size=(6, 1, 2)), H, one, one)
    flags = kalman.check_regularity(model)
    assert flags == [k not in (0, 2, 5) for k in range(7)]
    for k, regular in enumerate(flags):
        state = kalman.KalmanState(k=k - 1, P=np.eye(2), x=np.zeros(2))
        try:
            kalman.kalman_step(state, model, [0.0]) if k else kalman.kalman_init(model, [0.0])
        except SingularMatrix as exc:
            assert not regular
            assert str(exc) == f"step {k}: rank [F_k; H_k] = 1 < n = 2, model not regular"
        else:
            assert regular


def test_kalman_init_worked_values():
    state = kalman.kalman_init(scalar_chain(1), np.array([1.0]))
    assert state.k == 0
    assert state.P[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert state.x[0] == pytest.approx(0.5, abs=1e-12)


def test_kalman_step_worked_values():
    model = scalar_chain(1)
    s0 = kalman.kalman_init(model, np.array([1.0]))
    s1 = kalman.kalman_step(s0, model, np.array([1.0]))
    assert s1.P[0, 0] == pytest.approx(0.6, abs=1e-12)
    assert s1.x[0] == pytest.approx(0.8, abs=1e-12)


def test_kalman_matches_minimax_on_regular_models():
    rng = np.random.default_rng(41)
    for _ in range(10):
        model = random_regular_model(rng, tau=10)
        ys = random_measurements(rng, model)
        kstates = kalman.run_kalman(model, ys)
        mstates = estimator.run(model, ys)
        for ks, ms in zip(kstates, mstates):
            xhat = pinv(ms.P) @ ms.r
            assert np.linalg.norm(xhat - ks.x) <= 1e-8
            assert estimator.estimate(ms).noncausality_index == 0


def test_kalman_covariance_is_inverse_information():
    rng = np.random.default_rng(42)
    model = random_regular_model(rng, tau=6)
    ys = random_measurements(rng, model)
    for ks, ms in zip(kalman.run_kalman(model, ys), estimator.run(model, ys)):
        assert np.linalg.norm(ks.P @ ms.P - np.eye(model.n)) <= 1e-7


def test_kalman_rejects_irregular_model():
    F = np.array([[1.0, 0.0]])
    H = np.array([[1.0, 0.0]])
    one = np.array([[1.0]])
    model = DescriptorModel.constant(F, np.zeros((1, 2)), H, one, one, 1)
    with pytest.raises(SingularMatrix):
        kalman.kalman_init(model, np.array([0.0]))


def test_kalman_singular_transition_weight():
    # A singular S_k denies the covariance-form inverse even though the
    # model is regular; the failure must be reported, not silently NaN.
    one = np.array([[1.0]])
    good = scalar_chain(1)
    model = DescriptorModel.from_sequences(
        good.F, good.C, good.H,
        [np.array([[1.0]]), np.array([[0.0]])],
        good.R,
    )
    s0 = kalman.kalman_init(model, np.array([1.0]))
    with pytest.raises(SingularMatrix):
        kalman.kalman_step(s0, model, np.array([1.0]))


def test_kalman_steps_check_the_measurement():
    eye = np.eye(2)
    model = DescriptorModel.constant(eye, eye, eye, eye, eye, tau=1)
    with pytest.raises(DimensionMismatch):
        kalman.kalman_init(model, np.ones(3))
    s0 = kalman.kalman_init(model, np.ones(2))
    with pytest.raises(DimensionMismatch):
        kalman.kalman_step(s0, model, np.ones(3))
    with pytest.raises(InvalidMatrix):
        kalman.kalman_step(s0, model, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("entry", [estimator.run, kalman.run_kalman, batch.assemble],
                         ids=["run", "run_kalman", "assemble"])
def test_measurement_blocks_are_checked_alike(entry):
    eye = np.eye(2)
    model = DescriptorModel.constant(eye, eye, eye, eye, eye, tau=1)
    with pytest.raises(DimensionMismatch):
        entry(model, np.ones((2, 3)))
    with pytest.raises(InvalidMatrix):
        entry(model, np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_run_kalman_is_the_chain_of_its_steps_bit_for_bit():
    rng = np.random.default_rng(43)
    for _ in range(5):
        model = random_regular_model(rng, tau=12)
        ys = random_measurements(rng, model)
        state = kalman.kalman_init(model, ys[0])
        for k, got in enumerate(kalman.run_kalman(model, ys)):
            if k:
                state = kalman.kalman_step(state, model, ys[k])
            assert got.k == state.k
            assert got.P.tobytes() == state.P.tobytes() and got.x.tobytes() == state.x.tobytes()


def test_run_kalman_names_the_runs_of_irregular_steps_before_the_recursion(monkeypatch):
    # H_k = 0 at steps 0, 2, 5 and 6 makes [F_k; H_k] = [0; 0] rank deficient there.
    H = [[[0.0 if k in (0, 2, 5, 6) else 1.0]] for k in range(8)]
    model = DescriptorModel.from_sequences([[[0.0]]] * 8, [[[1.0]]] * 7, H,
                                           [[[1.0]]] * 8, [[[1.0]]] * 8)

    def no_recursion(*args):
        raise AssertionError("recursion on an irregular model")

    monkeypatch.setattr(kalman, "_first", no_recursion)
    with pytest.raises(SingularMatrix) as info:
        kalman.run_kalman(model, np.zeros((8, 1)))
    assert str(info.value) == "regularity violated at steps [0, 2, 5..6]: rank [F_k; H_k] < n"


def test_run_kalman_names_a_singular_transition_weight():
    # S_k = 0 at steps 2 and 3 (one run): no covariance-form inverse exists.
    one, zero = np.array([[1.0]]), np.array([[0.0]])
    model = DescriptorModel.from_sequences([one] * 6, [one] * 5, [one] * 6,
                                           [zero if k in (2, 3) else one for k in range(6)],
                                           [one] * 6)
    with pytest.raises(SingularMatrix, match=r"^S_2\.\.3 is numerically singular$"):
        kalman.run_kalman(model, np.ones((6, 1)))
    state = kalman.kalman_step(kalman.kalman_init(model, [1.0]), model, [1.0])
    with pytest.raises(SingularMatrix, match=r"^S_2 is numerically singular$"):
        kalman.kalman_step(state, model, [1.0])


def _weight_model(S, R=None):
    """n = m = 3, tau = 3, regular: the weight S, and R = 1 with p = 1 or
    the weight R with H = I; each weight one matrix or one for every step."""
    eye = np.eye(3)
    H, R = ([[1.0, 0.0, 0.0]], [[1.0]]) if R is None else (eye, R)
    return DescriptorModel.constant(eye, eye, H, S, R, tau=3)


# The routes that factor the weights of steps 0..3, of step 0 and of step 1.
WHOLE = ("schedule", "run", "assemble", "run_kalman")
FIRST = ("init", "kalman_init")
SECOND = ("step", "kalman_step")


def _refusals(model) -> dict:
    """The message with which each route refuses a weight of ``model``, or
    None where it refuses none; step 1 starts from a state of full rank.
    Past an accepted weight near singular, the Kalman reference may break
    down, which is no refusal, but never raises SingularMatrix."""
    ys = np.zeros((model.tau + 1, model.p))
    state = estimator.FilterState(0, np.zeros(3), 0.0, np.eye(3), np.ones(3), 0.0)
    kstate = kalman.KalmanState(k=0, P=np.eye(3), x=np.zeros(3))
    calls = {"schedule": lambda: estimator.schedule(model),
             "run": lambda: estimator.run(model, ys),
             "assemble": lambda: batch.assemble(model, ys),
             "run_kalman": lambda: kalman.run_kalman(model, ys),
             "init": lambda: estimator.init(model, ys[0]),
             "kalman_init": lambda: kalman.kalman_init(model, ys[0]),
             "step": lambda: estimator.step(state, model, ys[1]),
             "kalman_step": lambda: kalman.kalman_step(kstate, model, ys[1])}
    refusals = dict.fromkeys(calls)
    for name, call in calls.items():
        try:
            call()
        except SingularMatrix as exc:
            refusals[name] = str(exc)
        except NumericalBreakdown:
            pass
    return refusals


def _refused(field: str, run: str, second: bool) -> dict:
    """:func:`_refusals` of a model whose ``field`` weight Cholesky rejects
    on the run of steps ``run`` from step 0, and at step 1 when ``second``."""
    def message(steps):
        return f"{field}_{steps} is numerically singular"

    return {**dict.fromkeys(WHOLE, message(run)), **dict.fromkeys(FIRST, message(0)),
            **dict.fromkeys(SECOND, message(1) if second else None)}


def test_kalman_refuses_the_weight_cholesky_rejects():
    refusals = _refusals(_weight_model(CHOLESKY_REJECTED_WEIGHT))
    assert [refusals[name] for name in ("run_kalman", "kalman_init", "kalman_step")] == [
        "S_0..3 is numerically singular", "S_0 is numerically singular",
        "S_1 is numerically singular"]


def test_kalman_inverts_a_weight_cholesky_accepts_where_lu_fails():
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(LU_SINGULAR_WEIGHT)
    eye = np.eye(3)
    model = DescriptorModel.from_sequences(
        [eye] * 6, [eye] * 5, [[[1.0, 0.0, 0.0]]] * 6,
        [LU_SINGULAR_WEIGHT if k in (2, 3) else eye for k in range(6)], [[[1.0]]] * 6)
    ys = np.random.default_rng(44).normal(size=(6, 1))
    states = kalman.run_kalman(model, ys)
    state = kalman.kalman_init(model, ys[0])
    for k, got in enumerate(states[1:], start=1):
        state = kalman.kalman_step(state, model, ys[k])
        assert got.P.tobytes() == state.P.tobytes() and got.x.tobytes() == state.x.tobytes()
    # inv(S) = inv(W) inv(W)' for the Cholesky factor W'W = S.
    root = np.linalg.inv(np.linalg.cholesky(LU_SINGULAR_WEIGHT).T)
    assert np.array_equal(kalman._weight_inverses(model, 2, 2)[0][0], root @ root.T)


# Past a weight near singular, the Kalman reference's information matrix may skew.
@pytest.mark.filterwarnings("ignore::daeminimax.errors.AsymmetryWarning")
def test_every_route_makes_the_same_decision_on_graded_weights():
    # Weights with eigenvalues 1, 10^(-e/2) and 10^(-e) in random
    # directions: at these grades Cholesky accepts some and rejects others.
    # Held as a constant S, as a constant R or as S_0 alone, each weight
    # must be decided alike by validate and by every route.
    rng = np.random.default_rng(1)
    eye = np.eye(3)
    decisions = []
    for grade in (16, 17, 18):
        for _ in range(30):
            Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            S = (Q * [1.0, 10.0 ** (-grade / 2), 10.0 ** -grade]) @ Q.T
            S = 0.5 * (S + S.T)
            accepted = bool(weight_factors(S[None])[1][0])
            cases = [(_weight_model(S), ("S", "0..3", True)),
                     (_weight_model(eye, S), ("R", "0..3", True)),
                     (_weight_model([S, eye, eye, eye]), ("S", "0", False))]
            for model, rejection in cases:
                assert validate(model).ok == accepted
                want = dict.fromkeys(WHOLE + FIRST + SECOND) if accepted else _refused(*rejection)
                assert _refusals(model) == want
            if accepted:
                model = cases[0][0]
                W1 = batch.assemble(model, np.zeros((4, 1))).M[:3, :3]  # step 0's factor, F_0 = I
                assert np.array_equal(W1, np.linalg.cholesky(S).T)
            decisions.append(accepted)
    assert 0 < sum(decisions) < len(decisions)
