"""The four workloads, each a closed loop: one client, operations in sequence.

An operation is either one CLI command (``Cli``) or one library session
(``Session``, see libsession.py).  ``build`` writes a workload's seeded
inputs into a work directory and returns its operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import checks, inputs

GRID = 4097       # the CLI's default --grid-size
CLI_SEED = 1234   # the CLI's default --seed for the degree probe
WORKLOADS = ("counting", "periodic", "eval", "oracle")
# what every workload reports with --trace 0: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("build_s", "s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
)

# fresh interpreter to jacksonlab ready, as a CLI user and as a library user meet it
CLI_SETUP = ("-m", "jacksonlab.cli", "--version")
LIB_SETUP = ("-c", "import jacksonlab")

# eval: (method, corpus target, n) of its five builds
EVAL_BUILDS = (
    ("bernstein", "abs-half", 200),
    ("counting_median3", "abs-half", 40),
    ("counting_single", "sqrt", 40),
    ("phase_median3", "cos", 200),
    ("jackson_kernel", "cos", 200),
)
# the CLI sweeps of the counting and periodic workloads: (method, n range, target)
SWEEPS = {
    "counting": (("counting_median3", "8:64:8", "abs-half"),
                 ("counting_single", "8:48:8", "sqrt")),
    "periodic": (("jackson_kernel", "64:512:64", "triangle"),
                 ("phase_median3", "64:512:64", "cos")),
}
# oracle: the Jackson kernel orders and phase-estimation calls of the verify
# checks (kernel_normalization; pe_closed_form_vs_statevector and the two
# others that sweep M in 2..64 over 32 phases), the latter repeated
ORACLE_KERNELS = range(1, 33)
ORACLE_REPEATS = 80


@dataclass(frozen=True)
class Cli:
    args: tuple
    check: Callable[[Path], list]  # output file -> error strings


@dataclass(frozen=True)
class Session:
    spec: dict
    ops: int  # builds + calls, all counted failed if the session dies


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _sweep(method, n_range, target, reference):
    lo, hi, step = (int(v) for v in n_range.split(":"))
    ns = list(range(lo, hi + 1, step))

    def check(path):
        return checks.check_sweep(Path(path).read_text(), method, target, ns,
                                  reference, GRID, CLI_SEED)

    return Cli(("sweep", "--method", method, "--n", n_range, "--target", target), check)


def _construct(method, n, csv_path, periodic):
    xs, ys = inputs.read_target_csv(csv_path)

    def check(path):
        return checks.check_construct(_read_json(path), method, n, xs, ys, periodic, GRID)

    args = ("construct", "--method", method, "--n", str(n), "--target", str(csv_path))
    return Cli(args + (("--periodic",) if periodic else ()), check)


def _verify():
    return Cli(("verify",), lambda path: checks.check_verify(_read_json(path)))


def _target_csv(work, seed, periodic):
    path = work / ("periodic_target.csv" if periodic else "target.csv")
    inputs.write_target_csv(path, *inputs.target_knots(seed, periodic))
    return path


def _sessions(spec, rounds, builds, calls, parts):
    """One Session per part of a stored call stream (see libsession.py).

    Parts go between the CLI commands and builds repeat in rounds between
    chunks of calls, so build and call timings are spread over the pass
    rather than caught in one burst of a noisy machine.
    """
    return [Session({**spec, "rounds": rounds, "part": k, "parts": parts},
                    builds * rounds + len(range(k, calls, parts)))
            for k in range(parts)]


def _approx_sessions(work, seed, builds, rounds, calls, parts, name):
    which, sizes, xs, check = inputs.call_stream(seed, len(builds), calls)
    stream = work / f"{name}_stream.npz"
    np.savez(stream, which=which, sizes=sizes, xs=xs, check=check)
    return _sessions({"builds": builds, "stream": str(stream)},
                     rounds, len(builds), calls, parts)


def build(name, seed, work, reference):
    """(setup arguments, operations) of a workload, its inputs written to work."""
    if name == "counting":
        csv_path = _target_csv(work, seed, periodic=False)
        on_csv = {"csv": str(csv_path), "periodic": False}
        lib = _approx_sessions(work, seed, [
            {**on_csv, "method": "counting_median3", "n": 40},
            {**on_csv, "method": "counting_single", "n": 40},
        ], 3, 6600, 4, name)
        first, second = (_sweep(*sweep, reference["sweep"]) for sweep in SWEEPS[name])
        return CLI_SETUP, [lib[0], first, lib[1], second, lib[2],
                           _construct("counting_median3", 96, csv_path, periodic=False), lib[3]]
    if name == "periodic":
        csv_path = _target_csv(work, seed, periodic=True)
        on_csv = {"csv": str(csv_path), "periodic": True}
        lib = _approx_sessions(work, seed, [
            {**on_csv, "method": "phase_median3", "n": 200},
            {**on_csv, "method": "jackson_kernel", "n": 200},
        ], 11, 6600, 4, name)
        first, second = (_sweep(*sweep, reference["sweep"]) for sweep in SWEEPS[name])
        return CLI_SETUP, [lib[0], first, lib[1], second, lib[2],
                           _construct("phase_median3", 400, csv_path, periodic=True), lib[3]]
    if name == "eval":
        builds = [{"target": t, "method": m, "n": n,
                   "sup_err": reference["build"][f"{m}/{t}/{n}"]}
                  for m, t, n in EVAL_BUILDS]
        return LIB_SETUP, _approx_sessions(work, seed, builds, 5, 11000, 1, name)
    if name == "oracle":
        ms, xs, check = inputs.pe_stream(seed, ORACLE_REPEATS)
        stream = work / "oracle_stream.npz"
        np.savez(stream, ms=ms, xs=xs, check=check)
        lib = _sessions({"kernels": list(ORACLE_KERNELS), "stream": str(stream)},
                        8, len(ORACLE_KERNELS), len(ms), 4)
        return CLI_SETUP, [op for part in lib for op in (_verify(), part)]
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
