"""Model container, validation, simulation, budget, ODE augmentation."""

import numpy as np
import pytest

from conftest import CHOLESKY_REJECTED_WEIGHT, feasible_data, random_model, random_psd_weight
from daeminimax import demo, model as model_module
from daeminimax.errors import DimensionMismatch, EstimationError, InconsistentDynamics, SingularMatrix
from daeminimax.linalg import pinv
from daeminimax.model import (
    DescriptorModel,
    augment_ode,
    budget,
    per_run,
    simulate,
    step_changes,
    step_runs,
    truncate,
    validate,
    weight_runs,
)


def scalar_chain(tau=1):
    one = np.array([[1.0]])
    return DescriptorModel.constant(one, one, one, one, one, tau)


def test_constant_constructor_shapes():
    model = scalar_chain(3)
    assert (model.n, model.m, model.p, model.tau) == (1, 1, 1, 3)
    assert len(model.F) == len(model.H) == 4
    assert len(model.C) == 3
    assert len(model.S) == len(model.R) == 4


def test_from_sequences_infers_dimensions():
    rng = np.random.default_rng(5)
    model = random_model(rng, n=3, m=2, p=1, tau=4)
    assert (model.n, model.m, model.p, model.tau) == (3, 2, 1, 4)


def test_validate_accepts_random_model():
    rng = np.random.default_rng(6)
    report = validate(random_model(rng))
    assert report.ok, str(report)


def test_validate_reports_shape_mismatch():
    # Matrices of different shapes within one field do not stack into one array.
    model = scalar_chain(2)
    with pytest.raises(DimensionMismatch, match="^H: "):
        DescriptorModel.from_sequences(
            model.F, model.C,
            [np.array([[1.0]]), np.array([[1.0, 0.0]]), np.array([[1.0]])],
            model.S, model.R,
        )


def test_validate_reports_a_whole_field_of_the_wrong_shape():
    model = scalar_chain(2)
    bad = DescriptorModel(n=1, m=1, p=1, tau=2, F=model.F, C=model.C, H=np.ones((3, 1, 2)),
                          S=model.S, R=model.R)
    assert validate(bad).issues == ("H_0..2 dimension mismatch: got (1, 2), expected (1, 1)",)


@pytest.mark.parametrize("S, issue", [
    ([[1.0, 1e308], [1e308, 1.0]], "not positive definite (min eigenvalue -1e+308)"),
    ([[1e308, 0.0], [0.0, 1e308]], None),
    ([[1.0, 1e308], [-1e308, 1.0]], "not symmetric"),
], ids=["indefinite", "definite", "skew"])
def test_validate_weights_of_huge_entries_without_overflow(S, issue):
    # pytest turns a RuntimeWarning into an error, so an overflow fails here.
    eye = np.eye(2)
    model = DescriptorModel.constant(eye, eye, np.ones((1, 2)), np.array(S), np.eye(1), tau=1)
    want = () if issue is None else (f"S_0..1 {issue}",)
    assert validate(model).issues == want


def test_validate_reports_indefinite_weight():
    model = scalar_chain(1)
    bad = DescriptorModel.from_sequences(
        model.F, model.C, model.H,
        [np.array([[-1.0]]), np.array([[1.0]])],
        model.R,
    )
    report = validate(bad)
    assert not report.ok
    assert any("S_0" in issue and "positive definite" in issue
               for issue in report.issues)


def test_validate_reports_asymmetric_weight():
    rng = np.random.default_rng(8)
    model = random_model(rng, n=2, m=2, p=2, tau=1)
    R = [np.array([[1.0, 0.5], [0.0, 1.0]])] * 2
    bad = DescriptorModel.from_sequences(model.F, model.C, model.H, model.S, R)
    report = validate(bad)
    assert not report.ok


def test_simulate_zero_inputs_gives_zero_trajectory():
    model = scalar_chain(3)
    traj = simulate(model, np.zeros((4, 1)), np.zeros((4, 1)))
    assert np.all(traj.states == 0.0)
    assert np.all(traj.outputs == 0.0)


def test_simulate_scalar_chain_worked():
    # x_0 = f_0, x_{k+1} = x_k + f_{k+1}; y_k = x_k + g_k.
    model = scalar_chain(2)
    f = np.array([[1.0], [2.0], [-0.5]])
    g = np.array([[0.1], [0.0], [0.0]])
    traj = simulate(model, f, g)
    assert np.allclose(traj.states.ravel(), [1.0, 3.0, 2.5], atol=1e-15)
    assert np.allclose(traj.outputs.ravel(), [1.1, 3.0, 2.5], atol=1e-15)


def test_simulate_satisfies_dynamics_residual():
    rng = np.random.default_rng(9)
    for _ in range(20):
        model = random_model(rng)
        xs, f, g, _ = feasible_data(rng, model)
        traj = simulate(model, f, g, w=xs)
        for k in range(model.tau + 1):
            prev = traj.states[k - 1] if k else None
            lhs = model.F[k] @ traj.states[k]
            if k:
                lhs = lhs - model.C[k - 1] @ prev
            assert np.linalg.norm(lhs - f[k]) <= 1e-8


def test_simulate_free_component_fills_nullspace():
    # F = (1 0): the second state coordinate is unconstrained and must
    # come from the w sequence's projection onto the null space.
    F = np.array([[1.0, 0.0]])
    C = np.zeros((1, 2))
    H = np.array([[1.0, 0.0]])
    one = np.array([[1.0]])
    model = DescriptorModel.constant(F, C, H, one, one, 1)
    f = np.array([[2.0], [3.0]])
    g = np.zeros((2, 1))
    w = np.array([[0.0, 7.0], [0.0, -4.0]])
    traj = simulate(model, f, g, w=w)
    assert np.allclose(traj.states, [[2.0, 7.0], [3.0, -4.0]], atol=1e-12)


@pytest.fixture
def pinv_calls(monkeypatch):
    """The arguments of every pinv call that simulate makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(model_module, "pinv", counted)
    return calls


def test_simulate_takes_one_pinv_per_run_of_equal_f(pinv_calls):
    tau = 2000
    model = demo.build_model(tau)
    f, g, w = demo.augmented_inputs(tau)
    # The chain with its own pinv at every step, as the docstring states it.
    states = np.zeros((tau + 1, model.n))
    for k in range(tau + 1):
        rhs = f[0] if k == 0 else model.C[k - 1] @ states[k - 1] + f[k]
        Fp = pinv(model.F[k])
        states[k] = Fp @ rhs + (np.eye(model.n) - Fp @ model.F[k]) @ w[k]
    outputs = np.vstack([model.H[k] @ states[k] + g[k] for k in range(tau + 1)])
    traj = simulate(model, f, g, w)
    assert len(pinv_calls) == 1
    assert np.array_equal(traj.states, states) and np.array_equal(traj.outputs, outputs)


def test_simulate_takes_a_pinv_where_f_changes(pinv_calls):
    F = [np.eye(2)] * 3 + [np.diag([2.0, 1.0])] * 2 + [np.eye(2)]
    model = DescriptorModel.from_sequences(F, [np.eye(2)] * 5, [np.ones((1, 2))] * 6,
                                           [np.eye(2)] * 6, [np.eye(1)] * 6)
    traj = simulate(model, np.ones((6, 2)), np.zeros((6, 1)))
    assert [Fk.tolist() for Fk, _ in pinv_calls] == [F[0].tolist(), F[3].tolist(), F[5].tolist()]
    assert np.allclose(traj.states[3], [2.0, 4.0]) and np.allclose(traj.states[5], [2.5, 6.0])


def test_step_changes_reads_values_vectors_and_stacks():
    assert step_changes([2, 3, 3, 3, 2]).tolist() == [True, True, False, False, True]
    assert step_changes([False, False, True]).tolist() == [True, False, True]
    assert step_changes(np.array([0.0, -0.0, -0.0])).tolist() == [True, True, False]
    assert step_changes(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 3.0]])).tolist() == [True, False, True]
    assert step_changes(np.broadcast_to(np.eye(2), (4, 2, 2))).tolist() == [True] + [False] * 3
    assert step_changes(np.zeros((0, 2, 2))).tolist() == []


def test_step_runs_names_single_steps_and_ranges():
    assert step_runs(step_changes([2, 3, 3, 3, 4, 4])) == [(0, "0"), (1, "1..3"), (4, "4..5")]
    assert step_runs(step_changes(np.ones(2001))) == [(0, "0..2000")]
    assert step_runs([True, True]) == [(0, "0"), (1, "1")]
    assert step_runs([]) == []


@pytest.mark.parametrize("kind", ["constant", "time-varying", "switch-and-back", "two fields"])
def test_per_run_matches_each_step_bit_for_bit(kind):
    rng = np.random.default_rng(66)
    a, b = rng.normal(size=(2, 3, 3))
    fields, starts = {
        "constant": ((np.broadcast_to(a, (6, 3, 3)),), [0]),
        "time-varying": ((rng.normal(size=(6, 3, 3)),), [0, 1, 2, 3, 4, 5]),
        "switch-and-back": ((np.stack([a, a, b, b, b, a]),), [0, 2, 5]),
        # A run ends where either field changes.
        "two fields": ((np.stack([a, a, b, b, b, a]), np.stack([b, b, b, a, a, a])), [0, 2, 3, 5]),
    }[kind]
    calls = []

    def fn(*stacks):
        calls.append(len(stacks[0]))
        return sum(np.linalg.inv(mats) @ mats.mT for mats in stacks)

    values, run_of = per_run(fn, *fields)
    assert calls == [len(starts)]
    assert np.flatnonzero(np.diff(run_of, prepend=-1)).tolist() == starts
    for k in range(6):
        alone = fn(*(field[k:k + 1] for field in fields))[0]
        assert values[run_of[k]].tobytes() == alone.tobytes()


def test_weight_runs_factor_each_run_once_and_refuse_a_rejected_run():
    rng = np.random.default_rng(67)
    a, b = random_psd_weight(rng, 3), random_psd_weight(rng, 3)
    S = np.stack([a, a, b, b, b, a])
    Wt, run_of = weight_runs(S, "S")
    assert run_of.tolist() == [0, 0, 1, 1, 1, 2] and Wt.flags.c_contiguous
    for k in range(6):
        assert Wt[run_of[k]].tobytes() == np.linalg.cholesky(S[k]).tobytes()
    # From step 2 on, the runs are b b b and a.
    assert weight_runs(S, "S", 2)[1].tolist() == [0, 0, 0, 1]
    # A rejected weight is refused by the name of its run, from step first on.
    S[2:5] = CHOLESKY_REJECTED_WEIGHT
    for first, run in ((0, "2..4"), (3, "3..4"), (4, "4")):
        with pytest.raises(SingularMatrix, match=rf"^R_{run} is numerically singular$"):
            weight_runs(S, "R", first)
    assert weight_runs(S, "S", 5)[1].tolist() == [0]


def test_simulate_rejects_inconsistent_dynamics():
    # Second equation row reads 0 = f_k[1]; a nonzero datum there is
    # unsatisfiable for every state.
    F = np.array([[1.0], [0.0]])
    C = np.zeros((2, 1))
    H = np.array([[1.0]])
    one = np.array([[1.0]])
    model = DescriptorModel.constant(F, C, H, np.eye(2), one, 1)
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InconsistentDynamics):
        simulate(model, f, np.zeros((2, 1)))


def test_budget_is_weighted_square_sum():
    model = scalar_chain(1)
    f = np.array([[1.0], [2.0]])
    g = np.array([[3.0], [0.0]])
    assert budget(model, f, g) == pytest.approx(1.0 + 4.0 + 9.0, abs=1e-15)


def test_budget_weights_enter():
    one = np.array([[1.0]])
    model = DescriptorModel.constant(
        one, one, one, np.array([[2.0]]), np.array([[0.5]]), 1
    )
    f = np.array([[1.0], [1.0]])
    g = np.array([[2.0], [0.0]])
    assert budget(model, f, g) == pytest.approx(2.0 + 2.0 + 2.0, abs=1e-15)


@pytest.mark.parametrize("f", [[[np.nan]] * 3, [[np.inf]] * 3, [[1.0], [2.0, 3.0], [4.0]],
                               [[1.0]] * 2],
                         ids=["nan", "inf", "ragged", "short"])
def test_simulate_and_budget_reject_bad_inputs(f):
    model = scalar_chain(2)
    g = np.zeros((3, 1))
    with pytest.raises(EstimationError):
        simulate(model, f, g)
    with pytest.raises(EstimationError):
        budget(model, f, g)
    with pytest.raises(EstimationError):
        budget(model, g, f)


def test_augment_ode_block_structure():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Htilde = np.array([[1.0, 0.0]])
    model = augment_ode(A, Htilde, np.eye(2), np.array([[1.0]]), tau=3)
    assert (model.n, model.m, model.p, model.tau) == (4, 2, 1, 3)
    eye2 = np.eye(2)
    assert np.array_equal(model.F[1], np.hstack([eye2, np.zeros((2, 2))]))
    assert np.array_equal(model.C[1], np.hstack([A, eye2]))
    assert np.array_equal(model.H[1], np.hstack([Htilde, np.zeros((1, 2))]))


def test_augment_ode_reproduces_ode_trajectory():
    # Drive injected through the free half of the state: the first two
    # state components must equal the driven ODE trajectory to 1e-12.
    rng = np.random.default_rng(10)
    A = np.array([[0.1, -0.2], [0.28, -0.1]])
    tau = 12
    v0 = np.array([0.1, 0.1])
    drives = rng.normal(size=(tau + 1, 2))
    p = np.zeros((tau + 1, 2))
    p[0] = v0
    for k in range(tau):
        p[k + 1] = A @ p[k] + drives[k]

    model = augment_ode(A, np.array([[1.0, 0.0]]), np.eye(2),
                        np.array([[1.0]]), tau=tau)
    f = np.zeros((tau + 1, 2))
    f[0] = v0
    w = np.zeros((tau + 1, 4))
    w[:, 2:] = drives
    traj = simulate(model, f, np.zeros((tau + 1, 1)), w=w)
    assert np.max(np.abs(traj.states[:, :2] - p)) <= 1e-12


def test_augment_ode_time_varying_and_tau_inference():
    A = [np.eye(2) * (k + 1) for k in range(3)]
    H = [np.array([[1.0, float(k)]]) for k in range(4)]
    S = [np.eye(2)] * 4
    R = [np.array([[1.0]])] * 4
    model = augment_ode(A, H, S, R)
    assert model.tau == 3
    assert np.array_equal(model.C[2][:, :2], 3 * np.eye(2))


def test_augment_ode_keeps_a_single_matrix_one_matrix():
    # The demonstration's A and output map are single matrices: C and H keep
    # stride 0 on the step axis, and hold the blocks of every step.
    model = demo.build_model(2000)
    assert model.C.strides[0] == 0 and model.H.strides[0] == 0
    assert model.C.shape == (2000, 2, 4) and model.H.shape == (2001, 1, 4)
    assert np.array_equal(model.C[1999], np.hstack([demo.DRIVE_MATRIX, np.eye(2)]))
    assert np.array_equal(model.H[2000], np.hstack([demo.OUTPUT_MATRIX, np.zeros((1, 2))]))
    # A time-varying A still makes per-step blocks.
    A = np.stack([np.eye(2) * (k + 1) for k in range(3)])
    varying = augment_ode(A, np.array([[1.0, 0.0]]), np.eye(2), [[1.0]])
    assert varying.C.strides[0] != 0 and varying.H.strides[0] == 0
    assert np.array_equal(varying.C, [np.hstack([Ak, np.eye(2)]) for Ak in A])


def test_augment_ode_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        augment_ode(
            np.eye(2),
            np.array([[1.0, 0.0, 0.0]]),  # output map for a 3-state plant
            np.eye(2),
            np.array([[1.0]]),
            tau=2,
        )


def test_truncate():
    rng = np.random.default_rng(11)
    model = random_model(rng, n=2, m=2, p=1, tau=6)
    short = truncate(model, 2)
    assert short.tau == 2
    assert np.array_equal(short.F[2], model.F[2])
    with pytest.raises(DimensionMismatch):
        truncate(model, 7)
