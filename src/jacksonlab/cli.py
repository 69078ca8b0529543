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

import click
import numpy as np

from . import __version__
from .constructors import (
    METHODS,
    TRIG_METHODS,
    approximant_coefficients,
    build_approximant,
    error_report,
)
from .corpus import CORPUS, get_target, target_from_csv
from .counting_model import median3_amp_pmf, single_run_pmf
from .numerics import (
    Grid,
    PreconditionError,
    effective_algebraic_degree,
    effective_trig_degree,
)
from .phase_dist import KernelSpec, pe_pmf
from .verify import run_verification

SCHEMA_VERSION = 1
DEFAULT_SEED = 1234
DEFAULT_GRID = 4097


def _fmt(v):
    return f"{v:.17g}"


def _io_error(exc):
    click.echo(f"I/O error: {exc}", err=True)
    sys.exit(4)


def _write_text(path, text):
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        _io_error(exc)


def _resolve_target(name_or_path, periodic_hint=False):
    if name_or_path in CORPUS:
        return get_target(name_or_path)
    if os.path.exists(name_or_path):
        try:
            return target_from_csv(name_or_path, periodic=periodic_hint)
        except PreconditionError as exc:
            raise click.UsageError(f"bad target CSV {name_or_path!r}: {exc}")
        except OSError as exc:
            _io_error(exc)
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
    """A subcommand whose library PreconditionError is a usage error (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PreconditionError as exc:
            raise click.UsageError(str(exc), ctx) from None


class ConfigDefaults(click.Group):
    """Lets a key=value config file (sections per subcommand) seed defaults."""

    command_class = LibraryCommand

    def invoke(self, ctx):
        path = ctx.params.get("config")
        if path:
            parser = configparser.ConfigParser()
            try:
                with open(path) as fh:
                    parser.read_file(fh)
                # items() interpolates, so a bad %-reference is caught here too
                ctx.default_map = {
                    section: dict(parser.items(section)) for section in parser.sections()
                }
            except OSError as exc:
                _io_error(exc)
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise click.UsageError(f"bad config file {path!r}: {exc}", ctx) from None
        return super().invoke(ctx)


@click.group(cls=ConfigDefaults)
@click.version_option(__version__)
@click.option("--config", type=click.Path(), default=None,
              help="Config file with [subcommand] sections of key=value defaults.")
def main(config):
    """Uniform approximation lab: quantum-derived and classical constructions."""


def _measure(g, method, n, grid, seed):
    """(approx, its error report on grid, the degree residual of its defining expectation)."""
    approx = build_approximant(g, method, n)
    report = error_report(g, approx, grid=grid)
    probe = effective_trig_degree if approx.basis == "fourier" else effective_algebraic_degree
    return approx, report, probe(approx.reference, approx.n, seed=seed)


@main.command()
@click.option("--method", required=True, type=click.Choice(METHODS))
@click.option("--n", "n", required=True, type=int, help="Degree budget n.")
@click.option("--target", required=True)
@click.option("--periodic", is_flag=True, help="Treat a CSV target as 1-periodic.")
@click.option("--grid-size", default=DEFAULT_GRID, type=click.IntRange(min=65))
@click.option("--seed", default=DEFAULT_SEED, type=int)
@click.option("--output", type=click.Path(), default=None)
def construct(method, n, target, periodic, grid_size, seed, output):
    """Build one approximant; emit coefficients and its error report as JSON."""
    g = _resolve_target(target, periodic_hint=periodic or method in TRIG_METHODS)
    approx, report, residual = _measure(g, method, n, Grid.uniform(grid_size), seed)
    coeffs = approximant_coefficients(approx)
    if approx.basis == "fourier":
        coeff_list = [[float(c.real), float(c.imag)] for c in coeffs]
    else:
        coeff_list = [float(c) for c in coeffs]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "target": g.name,
        "n": n,
        "M": approx.M,
        "N": approx.N,
        "degenerate": approx.degenerate,
        "seed": seed,
        "basis": approx.basis,
        "coefficients": coeff_list,
        "degree_residual": residual,
        "error_report": {
            "sup_err": report.sup_err,
            "omega_ref": report.omega_ref,
            "ratio": report.ratio,
            "grid_size": report.grid_size,
        },
    }
    _write_text(output, json.dumps(doc, indent=2) + "\n")


SWEEP_HEADER = "method,n,M,sup_err,omega_ref,ratio,degree_residual,grid_size,seed"


@main.command()
@click.option("--method", required=True, type=click.Choice(METHODS))
@click.option("--n", "n_range", required=True,
              help="Degree budget n, or a range of them as start:stop:step.")
@click.option("--target", required=True)
@click.option("--periodic", is_flag=True, help="Treat a CSV target as 1-periodic.")
@click.option("--grid-size", default=DEFAULT_GRID, type=click.IntRange(min=65))
@click.option("--seed", default=DEFAULT_SEED, type=int)
@click.option("--output", type=click.Path(), default=None)
def sweep(method, n_range, target, periodic, grid_size, seed, output):
    """Error and degree-residual sweep over a range of degree budgets (CSV)."""
    ns = _parse_range(n_range)
    g = _resolve_target(target, periodic_hint=periodic or method in TRIG_METHODS)
    grid = Grid.uniform(grid_size)

    def row(n):
        approx, report, residual = _measure(g, method, n, grid, seed)
        m_field = "" if approx.M is None else str(approx.M)
        return ",".join(
            [method, str(n), m_field, _fmt(report.sup_err), _fmt(report.omega_ref),
             _fmt(report.ratio), _fmt(residual), str(grid_size), str(seed)]
        )

    rows = [row(n) for n in ns]
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
@click.option("--count-n", "count_n", type=int, default=None,
              help="Bitstring length for a quantum-counting pmf.")
@click.option("--weight", type=int, default=None, help="Hamming weight.")
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
@click.option("--kind", type=click.Choice(["fejer", "jackson"]), required=True)
@click.option("--n", "n", required=True, type=click.IntRange(min=1))
@click.option("--points", default=512, type=click.IntRange(min=2))
@click.option("--output", type=click.Path(), default=None)
def kernel(kind, n, points, output):
    """Tabulate an approximation kernel on a uniform grid (CSV)."""
    spec = KernelSpec(kind, n)
    ts = np.arange(points) / points
    vals = spec(ts)
    rows = [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(ts, vals)]
    _write_text(output, "abscissa,value\n" + "\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
