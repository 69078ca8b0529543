import numpy as np

import pytest

from jacksonlab import numerics, phase_dist, verify
from jacksonlab.phase_dist import amp_support, pe_pmf, pe_pmf_rows, theta_of_weight

TOLERANCE = {name: tol for name, _fn, tol in verify.CHECKS}
CHECK = {name: fn for name, fn, _tol in verify.CHECKS}
# the phase grids of the three phase-estimation checks
PE_GRIDS = (verify._x_sweep(), (np.arange(32) + 0.5) / 32 + 1e-4)


def test_amp_law_check_passes():
    assert verify.check_amp_law() <= TOLERANCE["amp_law_vs_statevector"]


def test_amp_law_check_catches_a_dropped_fold(monkeypatch):
    def unfolded(k, N, M):
        # the law of the eigenphase theta/pi on z <= M/2, without the mass of M - z
        values, _fold = amp_support(M)
        return values, pe_pmf_rows(M, theta_of_weight(k, N) / np.pi)[: len(values)]

    monkeypatch.setattr(verify, "single_run_amp_pmf", unfolded)
    assert verify.check_amp_law() > TOLERANCE["amp_law_vs_statevector"]


def test_amp_law_check_catches_a_fold_bug_shared_with_the_law(monkeypatch):
    # a symmetric fold bug, estimates 1 and 2 swapped for M >= 6: the law under
    # test folds by amp_support, so the check must fold the statevector law itself
    def swapped(M):
        values, fold = amp_support(M)
        if M >= 6:
            swap = np.arange(len(values))
            swap[[1, 2]] = 2, 1
            fold = swap[fold]
        return values, fold

    monkeypatch.setattr(phase_dist, "amp_support", swapped)
    monkeypatch.setattr(verify, "amp_support", swapped, raising=False)
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


def test_checked_rows_are_pe_pmf_bit_for_bit():
    # the batched checks certify exactly what pe_pmf returns, and a float phase gives one row
    for xs in PE_GRIDS:
        for M in range(2, 65):
            expect = np.array([pe_pmf(M, x).probs for x in xs])
            assert np.array_equal(pe_pmf_rows(M, xs), expect)
            assert all(np.array_equal(pe_pmf_rows(M, float(x)), row) for x, row in zip(xs, expect))


@pytest.mark.parametrize("name", ["pe_closed_form_vs_statevector", "quadratic_tail_bound",
                                  "fejer_identity"])
def test_phase_check_catches_shifted_closed_form(monkeypatch, name):
    assert CHECK[name]() <= TOLERANCE[name]
    monkeypatch.setattr(phase_dist, "pe_pmf_rows",
                        lambda M, xs: pe_pmf_rows(M, np.asarray(xs) + 0.5 / M))
    assert CHECK[name]() > TOLERANCE[name]


@pytest.mark.parametrize("form, field, mutate", [
    ("TrigPoly", "_giant_exps", lambda exps: exps + 1),  # giant steps off by one power of z^B
    ("LobattoPoly", "_weights", np.abs),                 # barycentric weights without their signs
], ids=["TrigPoly", "LobattoPoly"])
def test_form_check_catches_a_broken_form(monkeypatch, form, field, mutate):
    name = "form_vs_reference"
    assert CHECK[name]() <= TOLERANCE[name]
    cls = getattr(numerics, form)
    post_init = cls.__post_init__

    def broken(self):
        post_init(self)
        object.__setattr__(self, field, mutate(getattr(self, field)))

    monkeypatch.setattr(cls, "__post_init__", broken)
    assert CHECK[name]() > TOLERANCE[name]


def test_manifest_reports_runtimes():
    manifest = verify.run_verification()
    assert manifest["laws_s"] > 0.0
    assert list(manifest["checks"]) == list(TOLERANCE)
    for c in manifest["checks"].values():
        assert c["runtime_s"] >= 0.0
        assert c["max_residual"] <= c["tolerance"] and c["pass"]
