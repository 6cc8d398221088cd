"""Built-in demonstration problem: frozen reference values and behavior."""

import math

import numpy as np
import pytest

from daeminimax import demo, estimator, formats, model as model_mod


def test_plant_trajectory_first_steps():
    q, y = demo.plant_trajectory(tau=2)
    assert np.allclose(q[0], [0.1, 0.1], atol=0, rtol=0)
    # q1 = A q0 + drive(0) with drive(0) = 0.
    assert q[1, 0] == pytest.approx(-0.01, abs=1e-15)
    assert q[1, 1] == pytest.approx(0.018, abs=1e-15)
    # y0 = q0[0] + 2 sin(0)/1 = 0.1.
    assert y[0] == pytest.approx(0.1, abs=1e-15)
    assert y[1] == pytest.approx(-0.01 + 2.0 * math.sin(1.0) / 2.0, abs=1e-15)


def test_reference_data_nearly_exhausts_budget():
    tau = 40
    built = demo.build_model(tau)
    f, g, _ = demo.augmented_inputs(tau)
    value = model_mod.budget(built, f, g)
    assert value == pytest.approx(0.9943656761140547, abs=1e-12)
    assert value <= 1.0


def test_simulate_reproduces_plant_trajectory():
    tau = 15
    built = demo.build_model(tau)
    assert model_mod.validate(built).ok
    f, g, w = demo.augmented_inputs(tau)
    traj = model_mod.simulate(built, f, g, w)
    q, y = demo.plant_trajectory(tau)
    assert np.max(np.abs(traj.states[:, :2] - q)) <= 1e-12
    assert np.max(np.abs(traj.outputs[:, 0] - y)) <= 1e-12
    # The drive occupies the second half of the augmented state.
    drives = np.array([demo.drive(k) for k in range(tau + 1)])
    assert np.max(np.abs(traj.states[:, 2:] - drives)) <= 1e-12


def test_noncausality_index_schedule():
    tau = 8
    built = demo.build_model(tau)
    _, y = demo.plant_trajectory(tau)
    states = estimator.run(built, y)
    indices = [
        estimator.estimate(s).noncausality_index for s in states
    ]
    assert indices == [2] + [3] * tau


def test_observable_and_unobservable_directions():
    tau = 6
    built = demo.build_model(tau)
    _, y = demo.plant_trajectory(tau)
    states = estimator.run(built, y)
    final = states[-1]
    for direction in ([0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]):
        assert math.isinf(
            estimator.ell_error(final, np.array(direction, float))
        )
    measured = estimator.ell_error(final, np.array([1.0, 0, 0, 0]))
    assert math.isfinite(measured) and measured >= 0.0


def test_estimate_tracks_measured_coordinate():
    tau = 10
    built = demo.build_model(tau)
    _, y = demo.plant_trajectory(tau)
    states = estimator.run(built, y)
    for k in range(1, tau + 1):
        xhat = estimator.estimate(states[k]).xhat
        # All information past step 0 comes from the current measurement,
        # so the estimate is y_k on the measured coordinate, 0 elsewhere.
        assert xhat[0] == pytest.approx(y[k], abs=1e-9)
        assert np.max(np.abs(xhat[1:])) <= 1e-9


def test_bounds_centering_on_measured_coordinate():
    tau = 12
    built = demo.build_model(tau)
    _, y = demo.plant_trajectory(tau)
    states = estimator.run(built, y)
    ell = np.array([1.0, 0, 0, 0])
    for state in states[1:]:
        low, high = estimator.direction_bounds(state, ell)
        xhat = estimator.estimate(state).xhat
        assert abs(0.5 * (low + high) - float(ell @ xhat)) <= 1e-12


def test_output_weight_flooring():
    assert demo.output_weight(0) == demo.WEIGHT_FLOOR
    assert demo.output_weight(3) == pytest.approx(0.75, abs=0)
    assert "k=0" in demo.WEIGHT_NOTE


def test_model_document_round_trips_through_loader():
    tau = 9
    doc = demo.model_document(tau)
    loaded, inputs = formats.load_model(doc)
    built = demo.build_model(tau)
    for name in ("F", "C", "H", "S", "R"):
        for got, want in zip(getattr(loaded, name), getattr(built, name)):
            assert np.allclose(got, want, atol=1e-15, rtol=0)
    f, g, w = demo.augmented_inputs(tau)
    assert np.max(np.abs(inputs["f"] - f)) <= 1e-15
    assert np.max(np.abs(inputs["g"] - g)) <= 1e-15
    assert np.max(np.abs(inputs["w"] - w)) <= 1e-15
