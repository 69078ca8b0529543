"""Uniform approximation of continuous functions by quantum-derived and
classical constructions: exact phase-estimation and quantum-counting
outcome models, Bernstein and kernel-convolution baselines, degree and
error certification, and a statevector oracle."""

__version__ = "0.1.0"

from .numerics import (
    EvaluationError,
    Grid,
    LobattoPoly,
    PreconditionError,
    TargetFunction,
    TrigPoly,
    cheb_lobatto_nodes,
    circle_dist,
    effective_algebraic_degree,
    effective_trig_degree,
    median3_pmf,
    modulus_estimate,
    sup_distance,
    trig_coeffs_from_samples,
)
from .corpus import CORPUS, get_target, target_from_csv
from .phase_dist import (
    KernelSpec,
    PhasePMF,
    fejer_identity_check,
    fejer_kernel,
    fejer_value,
    jackson_kernel,
    median3_amp_pmf,
    pe_pmf,
    single_run_pmf,
    theta_of_weight,
)
from .constructors import (
    METHODS,
    Approximant,
    ErrorReport,
    build_approximant,
    error_report,
)
from .qsim import (
    counting_statevector_pmf,
    eigencheck,
    grover_unitary,
    pe_statevector_pmf,
)
from .verify import run_verification
