"""Command-line surface: construct, sweep, verify, dist, kernel.

All numeric content is produced by the library modules; this layer only
parses configuration, formats CSV/JSON, and maps failures to exit codes
(0 success, 2 usage, 3 verification failure, 4 I/O).
"""

from __future__ import annotations

import configparser
import json
import os
import sys
import warnings

import click
import numpy as np

from . import __version__
from .constructors import (
    DEFAULT_GRID_SIZE,
    METHODS,
    TRIG_METHODS,
    approximant_coefficients,
    build_approximant,
    error_report,
)
from .corpus import CORPUS, get_target, target_from_csv
from .numerics import (
    EvaluationError,
    Grid,
    PreconditionError,
    effective_algebraic_degree,
    effective_trig_degree,
    positive_int,
)
from .phase_dist import KERNEL_KINDS, KernelSpec, median3_amp_pmf, pe_pmf, single_run_pmf
from .verify import run_verification

SCHEMA_VERSION = 1
DEFAULT_SEED = 1234


def _fmt(v):
    """A CSV field: a float to 17 significant digits, None empty, anything else str()."""
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _resolve_target(name_or_path, periodic_hint=False):
    if name_or_path in CORPUS:
        return get_target(name_or_path)
    if os.path.exists(name_or_path):
        try:
            return target_from_csv(name_or_path, periodic=periodic_hint)
        except PreconditionError as exc:
            raise click.UsageError(f"bad target CSV {name_or_path!r}: {exc}")
    valid = ", ".join(sorted(CORPUS))
    raise click.UsageError(
        f"unknown target {name_or_path!r}: not a corpus name ({valid}) or CSV path"
    )


def _parse_range(spec):
    """Inclusive start:stop:step range, start <= stop and step >= 1, or a single integer."""
    try:
        values = [int(p) for p in spec.split(":")]
    except ValueError:
        values = []
    if len(values) == 1:
        return values
    if len(values) in (2, 3):
        start, stop, step = (values + [1])[:3]
        if step >= 1 and start <= stop:
            return list(range(start, stop + 1, step))
    raise click.UsageError(f"bad n range {spec!r}; expected N or start:stop:step, start <= stop")


class LibraryCommand(click.Command):
    """A subcommand whose library failures exit 2: a refused input, a non-finite
    result (too large for float64) or a refused allocation; nothing broader.
    numpy's floating-point warnings are off: the library checks its results, so
    an overflow exits 2 whatever the warnings filter, not with a traceback.
    The library's own notices (a UserWarning, such as a degenerate approximant)
    are recorded and shown on stderr after the command, whatever the filter."""

    def invoke(self, ctx):
        try:
            with warnings.catch_warnings(record=True) as notices, np.errstate(all="ignore"):
                warnings.simplefilter("always", UserWarning)
                return super().invoke(ctx)
        except (PreconditionError, EvaluationError, MemoryError) as exc:
            raise click.UsageError(str(exc), ctx) from None
        finally:
            # shown, not warned again: showwarning passes no filter
            for notice in notices:
                warnings.showwarning(notice.message, notice.category, notice.filename,
                                     notice.lineno)


class ConfigDefaults(click.Group):
    """Lets a key=value config file (sections per subcommand) seed defaults;
    every OSError, the config file's or a subcommand's, exits 4."""

    command_class = LibraryCommand

    def invoke(self, ctx):
        path = ctx.params.get("config")
        try:
            if path:
                ctx.default_map = self._read_config(ctx, path)
            return super().invoke(ctx)
        except OSError as exc:
            click.echo(f"I/O error: {exc}", err=True)
            sys.exit(4)

    def _read_config(self, ctx, path):
        """{subcommand: {parameter name: value}}; a section that names no subcommand,
        or a key that names none of its parameters, is a usage error."""
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are parameter names, such as dist's M
        try:
            with open(path) as fh:
                parser.read_file(fh)
            # items() interpolates, so a bad %-reference is caught here too
            defaults = {section: dict(parser.items(section)) for section in parser.sections()}
            if parser.defaults():  # [DEFAULT] names no subcommand, yet would seed every one
                defaults[parser.default_section] = parser.defaults()
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise click.UsageError(f"bad config file {path!r}: {exc}", ctx) from None
        for section, values in defaults.items():
            if section not in self.commands:
                valid = ", ".join(sorted(self.commands))
                raise click.UsageError(
                    f"bad config file {path!r}: [{section}] names no subcommand ({valid})", ctx)
            names = sorted(param.name for param in self.commands[section].params)
            for key in values:
                if key not in names:
                    raise click.UsageError(f"bad config file {path!r}: [{section}] {key!r} "
                                           f"names no parameter ({', '.join(names)})", ctx)
        return defaults


@click.group(cls=ConfigDefaults)
@click.version_option(__version__)
@click.option("--config", type=click.Path(), default=None,
              help="Config file with [subcommand] sections of key=value defaults.")
def main(config):
    """Uniform approximation lab: quantum-derived and classical constructions."""


def _measure(g, method, n, grid, seed):
    """(approx, a record of every field that construct and sweep print)."""
    approx = build_approximant(g, method, n)
    report = error_report(g, approx, grid=grid)
    probe = effective_trig_degree if approx.basis == "fourier" else effective_algebraic_degree
    return approx, {
        "method": method,
        "target": g.name,
        "n": n,
        "M": approx.M,
        "N": approx.N,
        "degree": approx.degree,
        "degenerate": approx.degenerate,
        "seed": seed,
        "basis": approx.basis,
        "degree_residual": probe(approx.reference, approx.n, seed=seed),
        "sup_err": report.sup_err,
        "omega_ref": report.omega_ref,
        "ratio": report.ratio,
        "grid_size": report.grid_size,
    }


def _options(n_type, n_help):
    """The options construct and sweep share; only the type and help of --n differ."""
    return [
        click.Option(["--method"], required=True, type=click.Choice(METHODS)),
        click.Option(["--n"], required=True, type=n_type, help=n_help),
        click.Option(["--target"], required=True),
        click.Option(["--periodic"], is_flag=True, help="Treat a CSV target as 1-periodic."),
        click.Option(["--grid-size"], default=DEFAULT_GRID_SIZE, type=click.IntRange(min=65)),
        click.Option(["--seed"], default=DEFAULT_SEED, type=click.IntRange(min=0)),
        click.Option(["--output"], type=click.Path(), default=None),
    ]


@main.command(params=_options(int, "Degree budget n."))
def construct(method, n, target, periodic, grid_size, seed, output):
    """Build one approximant; emit coefficients and its error report as JSON."""
    g = _resolve_target(target, periodic_hint=periodic or method in TRIG_METHODS)
    approx, record = _measure(g, method, n, Grid.uniform(grid_size), seed)
    coeffs = approximant_coefficients(approx)
    if approx.basis == "fourier":  # JSON has no complex numbers: each c_k as [re, im]
        coeffs = np.stack((coeffs.real, coeffs.imag), axis=1)
    report = {key: record.pop(key) for key in ("sup_err", "omega_ref", "ratio", "grid_size")}
    residual = record.pop("degree_residual")
    doc = {"schema_version": SCHEMA_VERSION, **record, "coefficients": coeffs.tolist(),
           "degree_residual": residual, "error_report": report}
    _write_text(output, json.dumps(doc, indent=2) + "\n")


SWEEP_COLUMNS = ("method", "n", "M", "sup_err", "omega_ref", "ratio", "degree_residual",
                 "grid_size", "seed")
SWEEP_HEADER = ",".join(SWEEP_COLUMNS)


@main.command(params=_options(str, "Degree budget n, or a range of them as start:stop:step."))
def sweep(method, n, target, periodic, grid_size, seed, output):
    """Error and degree-residual sweep over a range of degree budgets (CSV)."""
    ns = _parse_range(n)
    g = _resolve_target(target, periodic_hint=periodic or method in TRIG_METHODS)
    grid = Grid.uniform(grid_size)
    records = [_measure(g, method, budget, grid, seed)[1] for budget in ns]
    rows = [",".join(_fmt(record[column]) for column in SWEEP_COLUMNS) for record in records]
    _write_text(output, SWEEP_HEADER + "\n" + "\n".join(rows) + "\n")


@main.command()
@click.option("--output", type=click.Path(), default=None)
def verify(output):
    """Run the full oracle cross-check suite; exit 3 on any failure."""
    manifest = run_verification()
    _write_text(output, json.dumps(manifest, indent=2) + "\n")
    if not manifest["passed"]:
        sys.exit(3)


@main.command()
@click.option("--m", "M", required=True, type=click.IntRange(min=1),
              help="Phase-estimation precision.")
@click.option("--x", type=float, default=None, help="Eigenphase in [0,1).")
@click.option("--count-n", "count_n", type=click.IntRange(min=1), default=None,
              help="Bitstring length for a quantum-counting pmf.")
@click.option("--weight", type=click.IntRange(min=0), default=None,
              help="Hamming weight, at most --count-n.")
@click.option("--median3", is_flag=True, help="Dump the median-of-three A' pmf.")
@click.option("--output", type=click.Path(), default=None)
def dist(M, x, count_n, weight, median3, output):
    """Dump an outcome distribution as CSV (columns: index/value, probability)."""
    if x is not None and (count_n is not None or weight is not None or median3):
        raise click.UsageError("use either --x or --count-n with --weight")
    if x is None and (count_n is None or weight is None):
        raise click.UsageError("need either --x, or --count-n with --weight")
    if median3:
        values, probs = median3_amp_pmf(weight, count_n, M)
        header, keys = "estimate", [_fmt(v) for v in values]
    else:
        probs = pe_pmf(M, x).probs if x is not None else single_run_pmf(weight, count_n, M)
        header, keys = "index", range(len(probs))
    rows = [f"{k},{_fmt(p)}" for k, p in zip(keys, probs)]
    _write_text(output, header + ",value\n" + "\n".join(rows) + "\n")


@main.command()
@click.option("--kind", type=click.Choice(KERNEL_KINDS), required=True)
@click.option("--n", "n", required=True, type=click.IntRange(min=1))
@click.option("--points", default=512, type=click.IntRange(min=2))
@click.option("--output", type=click.Path(), default=None)
def kernel(kind, n, points, output):
    """Tabulate an approximation kernel on a uniform grid (CSV)."""
    spec = KernelSpec(kind, n)
    ts = np.arange(positive_int(points, "points")) / points
    vals = spec(ts)
    rows = [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(ts, vals)]
    _write_text(output, "abscissa,value\n" + "\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
