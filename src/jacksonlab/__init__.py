"""Uniform approximation of continuous functions by quantum-derived and
classical constructions: exact phase-estimation and quantum-counting
outcome models, Bernstein and kernel-convolution baselines, degree and
error certification, and a statevector oracle."""

__version__ = "0.1.0"

from .numerics import (
    ChebPoly,
    DegreeReport,
    EvaluationError,
    Grid,
    LobattoPoly,
    PreconditionError,
    TargetFunction,
    TrigPoly,
    cheb_coeffs_from_samples,
    cheb_lobatto_nodes,
    cheb_nodes,
    circle_dist,
    effective_algebraic_degree,
    effective_trig_degree,
    median3,
    median3_pmf,
    modulus_estimate,
    sup_distance,
    trig_coeffs_from_samples,
)
from .corpus import CORPUS, get_target, target_from_csv
from .phase_dist import (
    KernelSpec,
    PhasePMF,
    expected_circle_error,
    fejer_identity_check,
    fejer_kernel,
    fejer_value,
    jackson_kernel,
    median3_circle_error,
    pe_pmf,
)
from .counting_model import (
    CountingModel,
    amp_estimate,
    binom_weights,
    build_counting_model,
    expected_amp_error,
    median3_amp_pmf,
    single_run_pmf,
    theta_of_weight,
)
from .constructors import (
    METHODS,
    Approximant,
    ErrorReport,
    bernstein_eval,
    build_approximant,
    counting_eval,
    counting_single_eval,
    error_report,
    kernel_convolve,
    phase_eval,
    phase_to_trigpoly,
)
from .qsim import (
    counting_statevector_pmf,
    eigencheck,
    grover_unitary,
    pe_statevector_pmf,
)
from .verify import run_verification
