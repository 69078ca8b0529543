"""One library session: build rounds through the public API, interleaved
with a stream of timed calls.

Run as a child process (``python3 perfbench/libsession.py SPEC OUT``) by
the untraced benchmark, or called in-process through ``run`` by the
traced one.  SPEC is a JSON file.  A session streams part ``part`` of
``parts`` of the stored calls (every parts-th call), split into
``rounds`` chunks; before each chunk it builds everything again, so
build and call timings are both spread over the session.  The result,
written to OUT as JSON, holds the time of each build round, the per-call
latencies, the speed scale of each (see speed.py) and the calibration
times, the failures the checks found, and the time the checks took.  The
checks run after the stream; the benchmark leaves their time and the
calibrations' out of the session's wall time.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, speed  # noqa: E402

TRIG_METHODS = ("phase_median3", "jackson_kernel")
MAX_ERRORS = 5


def _target(jl, b):
    if "csv" in b:
        return jl.target_from_csv(b["csv"], periodic=b["periodic"])
    return jl.get_target(b["target"])


def coefficient_form(approx, n, trig):
    """Sample approx where its degree-n interpolant is exact; return a numpy evaluator."""
    if trig:
        coeffs = checks.fourier_fit(np.asarray(approx(np.arange(2 * n + 1) / (2 * n + 1))))
        return lambda x: checks.fourier_eval(coeffs, x)
    coeffs = checks.cheb_fit(np.asarray(approx(checks.cheb_points(n + 1))))
    return lambda x: checks.cheb_eval(coeffs, x)


def _chunks(spec, total):
    """This session's call indices, split into one chunk per build round."""
    return np.array_split(np.arange(spec["part"], total, spec["parts"]), spec["rounds"])


def _result(build_s, latency, clock, marks, builds, calls, failed, errors, checks_from):
    return {
        "build_s": build_s,
        "latency_s": latency,
        "build_scale": clock.scales(marks[0]),
        "call_scale": clock.scales(marks[1]),
        "cal_s": clock.cal_s,
        "attempted": builds + calls,
        "failed": failed,
        "errors": errors[:MAX_ERRORS],
        "check_s": time.perf_counter() - checks_from,
    }


def approx_session(jl, spec, checking):
    """Build rounds of spec["builds"], each followed by a chunk of calls."""
    targets = [_target(jl, b) for b in spec["builds"]]
    data = np.load(spec["stream"])
    which, sizes, xs = data["which"].tolist(), data["sizes"], data["xs"]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).tolist()
    build_s, latency, args, outs = [], [], {}, {}
    clock, marks = speed.Calibrator(), ([], [])
    for chunk in _chunks(spec, len(which)):
        marks[0].append(clock.tick(force=True))
        t0 = time.perf_counter()
        approxes = [jl.build_approximant(g, b["method"], b["n"])
                    for g, b in zip(targets, spec["builds"])]
        build_s.append(time.perf_counter() - t0)
        for i in chunk.tolist():
            k, s = int(sizes[i]), starts[i]
            x = float(xs[s]) if k == 1 else xs[s:s + k]
            a = approxes[which[i]]
            marks[1].append(clock.tick())
            t0 = time.perf_counter()
            y = a(x)
            latency.append(time.perf_counter() - t0)
            args[i], outs[i] = x, y
    clock.close()

    checks_from = time.perf_counter()
    with checking():
        bad = {i for i in args if not checks.call_ok(args[i], outs[i])}
        errors = [f"call {i}: bad result for x={args[i]!r}" for i in sorted(bad)]
        forms = [coefficient_form(a, b["n"], b["method"] in TRIG_METHODS)
                 for a, b in zip(approxes, spec["builds"])]
        for i in data["check"].tolist():
            if i not in args or i in bad:
                continue
            gap = float(np.max(np.abs(forms[which[i]](args[i]) - outs[i])))
            if not gap <= checks.FORM_TOL:
                bad.add(i)
                errors.append(f"call {i}: {gap:.3g} away from the coefficient form")
        failed_builds = 0
        grid = np.linspace(0.0, 1.0, 4097)
        for b, form in zip(spec["builds"], forms):
            if "sup_err" in b:
                sup = float(np.max(np.abs(checks.CORPUS[b["target"]](grid) - form(grid))))
                if not abs(sup - b["sup_err"]) <= checks.SUP_TOL:
                    failed_builds += 1
                    errors.append(f"build {b['method']}/{b['n']}: sup_err {sup!r}, "
                                  f"reference {b['sup_err']!r}")
    return _result(build_s, latency, clock, marks, len(build_s) * len(targets), len(args),
                   failed_builds + len(bad), errors, checks_from)


def oracle_session(jl, spec, checking):
    """Build rounds of Jackson kernels of spec["kernels"] orders, each
    followed by a chunk of scalar pe_pmf calls."""
    data = np.load(spec["stream"])
    ms, xs = data["ms"].tolist(), data["xs"].tolist()
    build_s, latency, outs = [], [], {}
    clock, marks = speed.Calibrator(), ([], [])
    for chunk in _chunks(spec, len(ms)):
        marks[0].append(clock.tick(force=True))
        t0 = time.perf_counter()
        kernels = [jl.jackson_kernel(order) for order in spec["kernels"]]
        build_s.append(time.perf_counter() - t0)
        for i in chunk.tolist():
            marks[1].append(clock.tick())
            t0 = time.perf_counter()
            pmf = jl.pe_pmf(ms[i], xs[i])
            latency.append(time.perf_counter() - t0)
            outs[i] = pmf.probs
    clock.close()

    checks_from = time.perf_counter()
    with checking():
        errors = []
        failed = 0
        for order, kernel in zip(spec["kernels"], kernels):
            m = 4 * order - 1  # odd, above twice the kernel's trig degree 2(order-1)
            integral = float(np.mean(kernel(np.arange(m) / m)))
            if not abs(integral - 1.0) <= checks.KERNEL_TOL:
                failed += 1
                errors.append(f"jackson_kernel({order}): integral {integral!r}")
        against = set(data["check"].tolist())
        for i, probs in outs.items():
            e = checks.pmf_errors(ms[i], xs[i], np.asarray(probs), i in against)
            failed += bool(e)
            errors += e
    return _result(build_s, latency, clock, marks, len(build_s) * len(kernels), len(outs),
                   failed, errors, checks_from)


def run(spec, checking=contextlib.nullcontext):
    """The session's result; its checks run inside the context checking()."""
    import jacksonlab

    session = oracle_session if "kernels" in spec else approx_session
    return session(jacksonlab, spec, checking)


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        result = run(json.load(fh))
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
