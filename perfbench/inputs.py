"""Seeded benchmark inputs: piecewise-linear CSV targets and call streams.

Everything here is a pure function of the seed, so the same seed gives
byte-identical files.  The program under test only ever sees the files
and values, never the seed.
"""

from __future__ import annotations

import csv

import numpy as np

KNOTS = 30
BATCH = 64
BATCH_SHARE = 10  # one call in BATCH_SHARE is a BATCH-point array
CHECK_SHARE = 20  # one call in CHECK_SHARE is compared with the coefficient form
# the phase-estimation grid of the verify checks: M in 2..PE_M_MAX at PE_X_COUNT phases
PE_M_MAX = 64
PE_X_COUNT = 32

# separate streams of randomness per input kind, all derived from one seed
_TARGET, _PERIODIC_TARGET, _CALLS, _PE_CALLS = range(4)


def target_knots(seed, periodic):
    """(xs, ys) of a KNOTS-knot target on [0, 1]; y(0) = y(1) when periodic."""
    rng = np.random.default_rng([seed, _PERIODIC_TARGET if periodic else _TARGET])
    # knots jittered around an even spacing, so no segment is steeper
    # than about 2 / (0.4 / (KNOTS - 1))
    jitter = rng.uniform(-0.3, 0.3, KNOTS - 2)
    xs = np.concatenate(([0.0], (np.arange(1, KNOTS - 1) + jitter) / (KNOTS - 1), [1.0]))
    ys = rng.uniform(-1.0, 1.0, KNOTS)
    if periodic:
        ys[-1] = ys[0]
    return xs, ys


def write_target_csv(path, xs, ys):
    """Write x,y rows with round-trip float formatting."""
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_target_csv(path):
    """Knots of a CSV written by write_target_csv, as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def call_stream(seed, approximants, calls):
    """Calls spread evenly over approximants, in seeded order.

    Returns (which, sizes, xs, check): the approximant index of each call,
    its size (1 means a scalar x, BATCH an array), the x values of all
    calls concatenated, and the indices of the calls whose results are
    compared with the coefficient form.  The counts per approximant and
    per kind are the same for every seed.
    """
    per, rest = divmod(calls, approximants)
    if rest or per % BATCH_SHARE:
        raise ValueError("calls must split evenly into multiples of BATCH_SHARE")
    which = np.repeat(np.arange(approximants), per)
    sizes = np.tile(np.where(np.arange(per) < per // BATCH_SHARE, BATCH, 1), approximants)
    rng = np.random.default_rng([seed, _CALLS])
    order = rng.permutation(calls)
    which, sizes = which[order], sizes[order]
    xs = rng.uniform(0.0, 1.0, int(sizes.sum()))
    check = np.sort(rng.choice(calls, calls // CHECK_SHARE, replace=False))
    return which, sizes, xs, check


def pe_stream(seed, repeats):
    """Scalar phase-estimation calls on the grid the verify checks sweep:
    every precision M in [2, PE_M_MAX] at each of the PE_X_COUNT phases
    k / PE_X_COUNT, repeats times, in seeded order.

    Returns (ms, xs, check); check indexes the calls whose outcome law is
    compared with the statevector law.
    """
    ms, xs = np.meshgrid(np.arange(2, PE_M_MAX + 1), np.arange(PE_X_COUNT) / PE_X_COUNT,
                         indexing="ij")
    ms, xs = np.tile(ms.ravel(), repeats), np.tile(xs.ravel(), repeats)
    rng = np.random.default_rng([seed, _PE_CALLS])
    order = rng.permutation(len(ms))
    check = np.sort(rng.choice(len(ms), len(ms) // CHECK_SHARE, replace=False))
    return ms[order], xs[order], check
