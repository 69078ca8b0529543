"""Built-in target functions with exact moduli of continuity, plus CSV ingestion."""

from __future__ import annotations

import csv

import numpy as np

from .numerics import PreconditionError, TargetFunction, _finite, frac


def _triangle(x):
    f = frac(np.asarray(x, dtype=float))
    return 2.0 * np.minimum(f, 1.0 - f)


def _holder_cusp(x):
    return np.sqrt(np.abs(np.asarray(x, dtype=float) - 1.0 / 3.0))


CORPUS = {target.name: target for target in (
    TargetFunction(
        lambda x: np.abs(x - 0.5),
        analytic_modulus=lambda d: min(d, 0.5),
        name="abs-half",
    ),
    TargetFunction(
        np.sqrt,
        analytic_modulus=lambda d: np.sqrt(d),
        name="sqrt",
    ),
    TargetFunction(
        lambda x: np.asarray(x, dtype=float) + 0.0,
        analytic_modulus=lambda d: d,
        name="identity",
    ),
    TargetFunction(
        lambda x: np.full_like(np.asarray(x, dtype=float), 0.75),
        analytic_modulus=lambda d: 0.0,
        name="const",
    ),
    # sup |f(x)-f(y)| over |x-y|<=d equals sqrt(d) up to d=2/3, then saturates
    TargetFunction(
        _holder_cusp,
        analytic_modulus=lambda d: np.sqrt(min(d, 2.0 / 3.0)),
        name="holder-cusp",
    ),
    TargetFunction(
        _triangle,
        periodic=True,
        analytic_modulus=lambda d: min(2.0 * d, 1.0),
        name="triangle",
    ),
    TargetFunction(
        lambda x: np.cos(2.0 * np.pi * frac(np.asarray(x, dtype=float))),
        periodic=True,
        analytic_modulus=lambda d: 2.0 * np.sin(np.pi * min(d, 0.5)),
        name="cos",
    ),
    TargetFunction(
        lambda x: np.full_like(np.asarray(x, dtype=float), 0.75),
        periodic=True,
        analytic_modulus=lambda d: 0.0,
        name="const-periodic",
    ),
)}


def get_target(name):
    try:
        return CORPUS[name]
    except KeyError:
        valid = ", ".join(sorted(CORPUS))
        raise PreconditionError(f"unknown target {name!r}; valid names: {valid}") from None


def target_from_csv(path, periodic=False):
    """Piecewise-linear target from a two-column x,y CSV file.

    x must be strictly increasing with first x = 0 and last x = 1, and
    every y finite.  Periodic targets additionally require y(0) = y(1).
    The file is UTF-8 (a byte-order mark is dropped).  A first non-empty row
    with a non-numeric field is a header and skipped; any other row that is
    not two numbers raises PreconditionError, as does a file that is not text.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"not a text file ({exc.reason} at byte {exc.start})") from None
    points = []
    for i, row in enumerate(rows):
        try:
            fields = [float(field) for field in row]
        except ValueError:
            if i == 0:
                continue  # header row
            fields = []
        if len(fields) != 2:
            raise PreconditionError(f"malformed CSV row: {row!r}")
        points.append(fields)
    xs, ys = np.reshape(points, (-1, 2)).T.copy()  # contiguous columns for np.interp
    if len(xs) < 2:
        raise PreconditionError("need at least two data rows")
    if not np.all(np.diff(xs) > 0):
        raise PreconditionError("x column must be strictly increasing")
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise PreconditionError("x must start at 0 and end at 1")
    ys = _finite(ys, PreconditionError, "y column must be finite")
    if periodic and ys[0] != ys[-1]:
        raise PreconditionError("periodic target requires y(0) = y(1)")

    if periodic:
        evaluator = lambda t: np.interp(frac(np.asarray(t, dtype=float)), xs, ys)
    else:
        evaluator = lambda t: np.interp(np.asarray(t, dtype=float), xs, ys)
    return TargetFunction(evaluator, periodic=periodic, name=str(path))
