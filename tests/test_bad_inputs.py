"""Bad inputs raise rather than return numbers, at every public evaluator.

fejer_value, KernelSpec.__call__ and circle_dist are left out: they return
NaN for a NaN phase by design.
"""

from functools import lru_cache

import numpy as np
import pytest

from jacksonlab import (
    EvaluationError,
    LobattoPoly,
    PreconditionError,
    TrigPoly,
    build_approximant,
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
    # the forms parsed "0.25", read True as 1 and gave NaN at inf
    with pytest.raises((PreconditionError, EvaluationError)):
        EVALUATORS[name](x)
