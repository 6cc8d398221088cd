"""Built-in demonstration problem: planar plant with an unknown drive.

The plant is q_{k+1} = A q_k + v_k with a fixed 2-by-2 matrix A, observed
through the first coordinate only, y_k = q_k[0] + g_k.  The drive v_k is
completely unknown (no bound on it at all), so it is carried as the
second half of a doubled state x_k = (q_k, v_k) in descriptor form; only
the initial condition q_0 and the output noise g enter the uncertainty
budget.  Consequences the tests pin down exactly:

* the drive half of the state is never observable: directions of the
  form (0, 0, *, *) have infinite worst-case error at every step;
* because the unbounded drive feeds every plant coordinate, the
  information transported from past steps vanishes identically (the
  transition block of the transported-information update is exactly
  zero), so for k >= 1 the only observable direction is the measured
  coordinate (1, 0, 0, 0): the noncausality index is 2 at step 0 and 3
  at every later step, and the unmeasured plant coordinate (0, 1, 0, 0)
  also carries infinite worst-case error;
* the measured coordinate keeps finite guaranteed bounds whose midpoint
  equals the estimate exactly, at every step.

The output weight schedule k / (k + 1) vanishes at k = 0, which would
violate positive definiteness, so the k = 0 weight is floored at machine
epsilon; the reproduction command reports this substitution.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import EPS
from .model import DescriptorModel, augment_ode

__all__ = [
    "WEIGHT_FLOOR",
    "WEIGHT_NOTE",
    "DRIVE_MATRIX",
    "OUTPUT_MATRIX",
    "INITIAL_STATE",
    "drive",
    "output_noise",
    "output_weight",
    "build_model",
    "plant_trajectory",
    "augmented_inputs",
    "model_document",
]

WEIGHT_FLOOR = EPS
WEIGHT_NOTE = (
    "note: output weight k/(k+1) vanishes at k=0; "
    f"substituted machine epsilon ({WEIGHT_FLOOR:.3g}) to keep R_0 positive definite"
)

DRIVE_MATRIX = np.array([[0.1, -0.2], [0.28, -0.1]])
OUTPUT_MATRIX = np.array([[1.0, 0.0]])
INITIAL_STATE = np.array([0.1, 0.1])


def drive(k: int) -> np.ndarray:
    """Unknown drive sequence used to generate the reference data."""
    return np.array([-k * math.sin(k) / 10.0, k * math.sin(k) / 10.0])


def output_noise(k: int) -> float:
    """Output noise sequence used to generate the reference data."""
    return 2.0 * math.sin(k) / (k + 1.0)


def output_weight(k: int) -> float:
    """Budget weight on the output noise at step k, floored at k = 0."""
    return max(k / (k + 1.0), WEIGHT_FLOOR)


def build_model(tau: int = 50) -> DescriptorModel:
    """Augmented 4-state descriptor model over the horizon 0..tau."""
    R = np.array([[[output_weight(k)]] for k in range(tau + 1)])
    return augment_ode(DRIVE_MATRIX, OUTPUT_MATRIX, np.eye(2), R, tau=tau)


def plant_trajectory(tau: int = 50):
    """Reference plant states and measurements.

    Returns ``(q, y)`` where q is (tau+1, 2) with q[0] = INITIAL_STATE and
    q[k+1] = A q[k] + drive(k), and y is (tau+1,) with
    y[k] = q[k][0] + output_noise(k).
    """
    q = np.zeros((tau + 1, 2))
    q[0] = INITIAL_STATE
    for k in range(tau):
        q[k + 1] = DRIVE_MATRIX @ q[k] + drive(k)
    y = q[:, 0] + np.array([output_noise(k) for k in range(tau + 1)])
    return q, y


def augmented_inputs(tau: int = 50):
    """Sequences (f, g, w) that make ``simulate`` reproduce the reference data.

    f carries only the initial condition, g the output noise, and the free
    component w injects drive(k) into the unconstrained half of the state.
    """
    f = np.zeros((tau + 1, 2))
    f[0] = INITIAL_STATE
    g = np.array([[output_noise(k)] for k in range(tau + 1)])
    w = np.zeros((tau + 1, 4))
    for k in range(tau + 1):
        w[k, 2:] = drive(k)
    return f, g, w


def model_document(tau: int = 50) -> dict:
    """JSON-ready model document with generators for the reference data."""
    model = build_model(tau)
    return {
        "n": model.n,
        "m": model.m,
        "p": model.p,
        "tau": tau,
        "F": model.F[0].tolist(),
        "C": model.C[0].tolist(),
        "H": model.H[0].tolist(),
        "S": model.S[0].tolist(),
        "R": [Rk.tolist() for Rk in model.R],
        "f": ["0.1 if k == 0 else 0.0", "0.1 if k == 0 else 0.0"],
        "g": ["2.0 * sin(k) / (k + 1.0)"],
        "w": ["0.0", "0.0", "-k * sin(k) / 10.0", "k * sin(k) / 10.0"],
    }
