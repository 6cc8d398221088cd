"""Set-membership minimax state estimation for linear discrete-time
descriptor systems under ellipsoidal uncertainty.

The model couples consecutive states through a possibly rectangular,
possibly rank-deficient matrix pair (F, C), so the recursion need not be
causal: part of the state can stay undetermined by the data.  The
estimator tracks the exact set of final states consistent with the
measurements and a unit budget on the weighted inputs and output noises,
and reports guaranteed error intervals in every observable direction.

Modules
-------
``model``      model type, validation, simulation, ODE embedding
``estimator``  recursive minimax estimator and informational-set queries
``batch``      whole-horizon least-squares reference solution
``kalman``     covariance-form recursion for the regular (causal) case
``linalg``     shared SVD-cutoff pseudoinverse, projectors, ranks
``formats``    JSON model documents and CSV tables
``demo``       built-in demonstration problem
``cli``        command-line interface
"""

from . import batch, cli, demo, errors, estimator, formats, kalman, linalg, model
from .batch import BatchProblem, BatchSolution, assemble, decomposition_check, solve, value_function
from .errors import (
    AsymmetryWarning,
    DimensionMismatch,
    EstimationError,
    InconsistentData,
    InconsistentDynamics,
    InvalidMatrix,
    NumericalBreakdown,
    OutsideObservable,
    ParseError,
    SingularMatrix,
)
from .estimator import (
    EstimateReport,
    FilterState,
    direction_bounds,
    ell_error,
    estimate,
    membership,
)
from .kalman import KalmanState, check_regularity, kalman_init, kalman_step, run_kalman
from .linalg import numerical_rank, pinv, range_projector, sym_rank, symmetrize
from .model import (
    DescriptorModel,
    Trajectory,
    ValidationReport,
    augment_ode,
    budget,
    simulate,
    truncate,
    validate,
)

__version__ = "0.1.0"
