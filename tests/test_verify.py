import numpy as np

from jacksonlab import verify
from jacksonlab.counting_model import amp_support, theta_of_weight
from jacksonlab.numerics import circle_dist
from jacksonlab.phase_dist import pe_probs

TOLERANCE = {name: tol for name, _fn, tol in verify.CHECKS}


def test_amp_law_check_passes():
    assert verify.check_amp_law() <= TOLERANCE["amp_law_vs_statevector"]


def test_amp_law_check_catches_a_dropped_fold(monkeypatch):
    def unfolded(k, N, M):
        # the law of the eigenphase theta/pi on z <= M/2, without the mass of M - z
        values, _fold, phases = amp_support(M)
        return values, pe_probs(M, circle_dist(phases, theta_of_weight(k, N) / np.pi))[: len(values)]

    monkeypatch.setattr(verify, "single_run_amp_pmf", unfolded)
    assert verify.check_amp_law() > TOLERANCE["amp_law_vs_statevector"]


def test_one_run_simulates_each_counting_law_once(monkeypatch):
    calls = []
    simulate = verify.qsim.counting_statevector_pmf
    monkeypatch.setattr(verify.qsim, "counting_statevector_pmf",
                        lambda w, M: calls.append(M) or simulate(w, M))
    expect = sum(N + 1 for N in (4, 8, 16)) * len(range(2, 9))  # 217 (k, N, M) triples
    residuals = []
    for _run in range(2):  # nothing is kept from one run to the next
        calls.clear()
        manifest = verify.run_verification()
        assert len(calls) == expect
        residuals.append({name: c["max_residual"] for name, c in manifest["checks"].items()})
    assert residuals[0] == residuals[1]
    assert residuals[0]["no_interference_mixture"] == verify.check_mixture()
    assert residuals[0]["amp_law_vs_statevector"] == verify.check_amp_law()
