"""Bad inputs raise rather than return numbers, at every public evaluator.

fejer_value, KernelSpec.__call__ and circle_dist are left out: they return
NaN for a NaN phase by design.
"""

from functools import lru_cache

import numpy as np
import pytest

from jacksonlab import (
    LobattoPoly,
    PreconditionError,
    TrigPoly,
    build_approximant,
    effective_algebraic_degree,
    effective_trig_degree,
    fejer_identity_check,
    pe_pmf,
    pe_statevector_pmf,
)
from jacksonlab.constructors import METHODS, TRIG_METHODS
from jacksonlab.corpus import CORPUS
from jacksonlab.phase_dist import pe_pmf_rows

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


@pytest.mark.parametrize("seed", [0, np.int64(5), 2**70], ids=["0", "int64", "huge"])
@pytest.mark.parametrize("probe", PROBES)
def test_non_negative_seed_is_kept(probe, seed):
    probe, h = PROBES[probe]
    residual = probe(h, 3, seed=seed)
    assert residual == probe(h, 3, seed=int(seed)) and residual < 1e-12
