"""Bad inputs raise rather than return numbers, at every public evaluator.

The first matrix covers the evaluators that refuse every bad x, NaN and
infinities included.  The second covers those that return NaN for a NaN x
by design (fejer_value, KernelSpec.__call__, circle_dist, tail_bound) and
the other entries gated by real_x or _finite (median3_pmf, binom_weight_matrix,
TargetFunction.__call__, and the f of sup_distance and modulus_estimate):
a str, None, bool, complex or str-array x is refused there, not parsed, read
as 1, turned into NaN or cast to its real part.
"""

from functools import lru_cache

import numpy as np
import pytest

from jacksonlab import (
    EvaluationError,
    Grid,
    LobattoPoly,
    PreconditionError,
    TrigPoly,
    build_approximant,
    circle_dist,
    effective_algebraic_degree,
    effective_trig_degree,
    fejer_identity_check,
    fejer_value,
    jackson_kernel,
    median3_pmf,
    modulus_estimate,
    pe_pmf,
    pe_statevector_pmf,
    sup_distance,
)
from jacksonlab.constructors import METHODS, TRIG_METHODS, binom_weight_matrix
from jacksonlab.corpus import CORPUS
from jacksonlab.phase_dist import pe_pmf_rows, tail_bound

BAD_X = [np.nan, np.inf, -np.inf, "0.25", None, True, 1 + 1j,
         np.array([np.nan]), np.array(["0.25"])]
BAD_IDS = ["nan", "inf", "-inf", "str", "None", "True", "complex", "nan-array", "str-array"]


@lru_cache(maxsize=None)
def _approximant(method):
    return build_approximant(CORPUS["triangle" if method in TRIG_METHODS else "sqrt"], method, 8)


EVALUATORS = {
    **{m: lambda x, m=m: _approximant(m)(x) for m in METHODS},
    **{f"{m}.reference": lambda x, m=m: _approximant(m).reference(x) for m in METHODS},
    "LobattoPoly": LobattoPoly(np.array([1.0, 0.5, 0.0, 0.5, 1.0])),
    "TrigPoly": TrigPoly(np.array([0.25, 1.0, 0.25])),
    "pe_pmf": lambda x: pe_pmf(8, x),
    "pe_pmf_rows": lambda x: pe_pmf_rows(8, x),
    "pe_statevector_pmf": lambda x: pe_statevector_pmf(8, x),
    "fejer_identity_check": lambda x: fejer_identity_check(8, x),
}


@pytest.mark.parametrize("x", BAD_X, ids=BAD_IDS)
@pytest.mark.parametrize("name", EVALUATORS)
def test_bad_x_raises(name, x):
    # a bad x is a precondition at every gate; EvaluationError is kept for a non-finite output
    with pytest.raises(PreconditionError):
        EVALUATORS[name](x)


# the bad x that are not real numbers: the second matrix's
NOT_REAL = {"str": "0.25", "None": None, "True": True, "complex": 1 + 1j,
            "str-array": np.array(["0.25"])}

# NaN in, NaN out, as each documents
NAN_PASSING = {
    "fejer_value": lambda x: fejer_value(4, x),
    "KernelSpec": lambda x: jackson_kernel(4)(x),
    "circle_dist": lambda x: circle_dist(x, 0.0),
    "tail_bound": lambda x: tail_bound(4, x),
}


@pytest.mark.parametrize("x", NOT_REAL.values(), ids=NOT_REAL)
@pytest.mark.parametrize("name", NAN_PASSING)
def test_nan_passes_but_a_non_real_x_raises(name, x):
    # a str was parsed, None became NaN, True ran at 1 and a complex x was cast
    evaluate = NAN_PASSING[name]
    nan = evaluate(np.nan)
    assert isinstance(nan, float) and np.isnan(nan)
    assert np.isnan(evaluate(np.array([np.nan]))).all()
    with pytest.raises(PreconditionError):
        evaluate(x)


_GRID = Grid.uniform(17)

# each with the error it raises for a non-finite value
GATED = {
    "median3_pmf": (lambda x: median3_pmf([0.0], [x]), PreconditionError),
    "binom_weight_matrix": (lambda x: binom_weight_matrix(4, [x]), PreconditionError),
    "TargetFunction": (lambda x: CORPUS["sqrt"](x), PreconditionError),
    "sup_distance.f": (lambda x: sup_distance(lambda _p: x, np.sqrt, _GRID), EvaluationError),
    "modulus_estimate.f": (lambda x: modulus_estimate(lambda _p: x, 0.5, _GRID),
                           PreconditionError),
}
# None became NaN at these, which refused it as a NaN already, so that case is left out
NONE_REFUSED_AS_NAN = {"binom_weight_matrix", "sup_distance.f", "modulus_estimate.f"}
GATED_CASES = [pytest.param(name, x, id=f"{name}-{label}")
               for name in GATED for label, x in NOT_REAL.items()
               if not (label == "None" and name in NONE_REFUSED_AS_NAN)]


@pytest.mark.parametrize("name, x", GATED_CASES)
def test_gated_entry_refuses_a_non_real_value(name, x):
    evaluate, error = GATED[name]
    with pytest.raises(error):
        evaluate(x)


# each probe with a function of degree <= 3 in its basis
PROBES = {"algebraic": (effective_algebraic_degree, lambda x: np.asarray(x) ** 2),
          "trig": (effective_trig_degree, CORPUS["cos"])}


@pytest.mark.parametrize("seed", [-1, np.int64(-5), -2**70], ids=["-1", "int64", "huge"])
@pytest.mark.parametrize("probe", PROBES)
def test_negative_seed_raises(probe, seed):
    # numpy's default_rng refused it with a plain ValueError
    probe, h = PROBES[probe]
    with pytest.raises(PreconditionError, match="seed must be a non-negative integer"):
        probe(h, 3, seed=seed)


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3", None, True, np.bool_(True)],
                         ids=["float", "float64", "str", "None", "True", "np-bool"])
@pytest.mark.parametrize("probe", PROBES)
def test_seed_that_is_not_an_integer_raises(probe, seed):
    # numpy raised its own TypeError, or (None, True) seeded from the OS or as 1;
    # a bool is refused, as positive_int refuses one
    probe, h = PROBES[probe]
    with pytest.raises(PreconditionError, match="seed must be a non-negative integer"):
        probe(h, 3, seed=seed)


@pytest.mark.parametrize("seed", [0, np.int64(5), 2**70], ids=["0", "int64", "huge"])
@pytest.mark.parametrize("probe", PROBES)
def test_non_negative_seed_is_kept(probe, seed):
    probe, h = PROBES[probe]
    residual = probe(h, 3, seed=seed)
    assert residual == probe(h, 3, seed=int(seed)) and residual < 1e-12
