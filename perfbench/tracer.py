"""Outside-in tracer: spans around jacksonlab's public functions.

The benchmark wraps the names that callers actually resolve (module
attributes, the names bound by ``from ... import``, and methods on the
classes) and restores them afterwards.  The program itself is not
changed.  Spans are kept in memory; per-layer metrics are computed from
them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from perfbench.checks import VERIFY_CHECKS


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    size: float = 0.0   # work done by the call: points, bytes
    info: Any = None    # identity of the call's object, where a layer needs one


class Tracer:
    """Records spans with a parent stack per thread.

    A span opened on a thread whose stack is empty (a pool worker) takes
    as parent the innermost open span of the thread that created the
    tracer, so a sweep's pool rows nest under their command.  A call into
    a layer from inside the same layer is not a new span, and neither is
    a call made while the tracer is paused.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._stacks = {}
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """No spans inside: for the benchmark's own checks, which call the program."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def call(self, name, fn, args=(), kwargs=None, measure=None):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if self._paused or (stack and stack[-1][1] == name):
            return fn(*args, **(kwargs or {}))
        if stack:
            parent = stack[-1][0]
        else:
            owner = self._stacks.get(self._owner) if tid != self._owner else None
            parent = owner[-1][0] if owner else None
        with self._lock:
            sid = next(self._ids)
        stack.append((sid, name))
        start = self._clock()
        result = None
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = self._clock()
            stack.pop()
            size, info = 0.0, None
            if measure:
                try:
                    size, info = measure(args, result)
                except (IndexError, TypeError, AttributeError, ValueError):
                    pass  # called in a form the measure does not know: no size
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, size, info))

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)

        return traced


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """{span id: duration minus the part of it covered by child spans}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end) for s in spans}


def by_layer(spans):
    """{layer: {"calls", "s" (self time), "size"}} over all spans."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "size": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += own[s.id]
        row["size"] += s.size
    return out


# --- what is wrapped -------------------------------------------------------

def _points(args, result):
    return float(np.size(args[1])), None


def _build(args, result):
    g, method, n = args[:3]
    return 0.0, (g.name, method, int(n), getattr(result, "N", None))


def _binom_bytes(args, result):
    N, xs = args[:2]
    return float(np.size(xs) * (int(N) + 1) * 8), None


# layer -> (measure, [(owner, attribute), ...]); an owner is a module of the
# package ("" for the package itself) or "module.Class"
LAYERS = {
    "constructors.build": (_build, [("constructors", "build_approximant"),
                                    ("cli", "build_approximant"),
                                    ("", "build_approximant")]),
    "constructors.eval": (_points, [("constructors.Approximant", "__call__")]),
    "constructors.coefficients": (None, [("cli", "approximant_coefficients"),
                                         ("constructors", "approximant_coefficients")]),
    "constructors.error_report": (None, [("cli", "error_report"),
                                         ("constructors", "error_report"),
                                         ("", "error_report")]),
    "counting_model.amp_pmf": (None, [("constructors", "median3_amp_pmf"),
                                      ("constructors", "single_run_amp_pmf"),
                                      ("cli", "median3_amp_pmf"),
                                      ("counting_model", "median3_amp_pmf"),
                                      ("counting_model", "single_run_amp_pmf"),
                                      ("", "median3_amp_pmf")]),
    "counting_model.binom": (_binom_bytes, [("constructors", "binom_weight_matrix"),
                                            ("counting_model", "binom_weight_matrix")]),
    "phase_dist.pe_pmf": (None, [("phase_dist", "pe_pmf"), ("counting_model", "pe_pmf"),
                                 ("cli", "pe_pmf"), ("", "pe_pmf")]),
    "phase_dist.kernel": (_points, [("phase_dist.KernelSpec", "__call__"),
                                    ("phase_dist", "fejer_value"), ("", "fejer_value")]),
    "numerics.median3_pmf": (None, [("counting_model", "median3_pmf"),
                                    ("phase_dist", "median3_pmf"),
                                    ("numerics", "median3_pmf"), ("", "median3_pmf")]),
    "numerics.sup_distance": (None, [("constructors", "sup_distance")]),
    "numerics.degree_probe": (None, [("cli", "effective_algebraic_degree"),
                                     ("cli", "effective_trig_degree")]),
    "numerics.coeffs_from_samples": (None, [("constructors", "cheb_coeffs_from_samples"),
                                            ("constructors", "trig_coeffs_from_samples"),
                                            ("numerics", "cheb_coeffs_from_samples"),
                                            ("numerics", "trig_coeffs_from_samples")]),
    "numerics.modulus_estimate": (None, [("constructors", "modulus_estimate")]),
    "corpus.target": (_points, [("numerics.TargetFunction", "__call__")]),
    "corpus.target_from_csv": (None, [("cli", "target_from_csv"),
                                      ("corpus", "target_from_csv"),
                                      ("", "target_from_csv")]),
    "qsim.statevector": (None, [("qsim", "pe_statevector_pmf"),
                                ("qsim", "counting_statevector_pmf")]),
    "qsim.grover_unitary": (None, [("qsim", "grover_unitary")]),
}


def _owner(package, path):
    obj = package
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


def install(tracer, package):
    """Wrap every name in LAYERS and each verify check; returns an undo function.

    A name the program does not have (a later version may drop or move
    one) is skipped, and its layer reads 0.
    """
    saved = []
    wrapped = {}
    for layer, (measure, sites) in LAYERS.items():
        for path, attr in sites:
            try:
                owner = _owner(package, path)
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = tracer.wrap(layer, original, measure)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
    verify = package.verify
    saved.append((verify, "CHECKS", verify.CHECKS))
    verify.CHECKS = tuple((check[0], tracer.wrap(f"verify.{check[0]}", check[1]), *check[2:])
                          for check in verify.CHECKS)

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


# --- per-layer metrics -----------------------------------------------------

PER_LAYER = (
    ("cli.command.calls", "count"),
    ("cli.command.s", "s"),
    ("constructors.build.calls", "count"),
    ("constructors.build.s", "s"),
    ("constructors.builds_per_approx", "ratio"),
    ("constructors.eval.calls", "count"),
    ("constructors.eval.points", "count"),
    ("constructors.eval.s", "s"),
    ("constructors.eval_points_per_approx", "count"),
    ("constructors.coefficients.s", "s"),
    ("constructors.error_report.s", "s"),
    ("counting_model.amp_pmf.calls", "count"),
    ("counting_model.amp_pmf.s", "s"),
    ("counting_model.table_rows", "count"),
    ("counting_model.binom.calls", "count"),
    ("counting_model.binom.s", "s"),
    ("counting_model.binom.bytes", "B"),
    ("phase_dist.pe_pmf.calls", "count"),
    ("phase_dist.pe_pmf.s", "s"),
    ("phase_dist.kernel.points", "count"),
    ("phase_dist.kernel.s", "s"),
    ("numerics.median3_pmf.calls", "count"),
    ("numerics.median3_pmf.s", "s"),
    ("numerics.sup_distance.s", "s"),
    ("numerics.degree_probe.s", "s"),
    ("numerics.coeffs_from_samples.s", "s"),
    ("numerics.modulus_estimate.s", "s"),
    ("corpus.target.points", "count"),
    ("corpus.target_from_csv.s", "s"),
    ("qsim.statevector.calls", "count"),
    ("qsim.statevector.s", "s"),
    ("qsim.grover_unitary.s", "s"),
) + tuple((f"verify.{name}.s", "s") for name in VERIFY_CHECKS) + (
    ("trace_overhead_frac", "ratio"),
)


def _under(spans, layer):
    """Ids of the spans that have an ancestor span of the named layer."""
    by_id = {s.id: s for s in spans}
    found = set()
    for s in spans:
        p = by_id.get(s.parent)
        while p is not None and p.name != layer:
            p = by_id.get(p.parent)
        if p is not None:
            found.add(s.id)
    return found


def layer_metrics(spans, overhead_frac):
    """{metric name: value} for every name in PER_LAYER.

    The per-approximant ratios count what CLI commands do for each
    distinct (target, method, n) they serve; they are 0 where no CLI
    command runs.
    """
    layers = by_layer(spans)
    builds = [s.info for s in spans if s.name == "constructors.build"]
    in_cli = _under(spans, "cli.command")
    cli_builds = [s.info for s in spans if s.name == "constructors.build" and s.id in in_cli]
    cli_points = sum(s.size for s in spans if s.name == "constructors.eval" and s.id in in_cli)
    approx = len(set(cli_builds))
    out = {}
    for name, _unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "s"):
            out[name] = layers[layer][field] if layer in layers else 0
        elif field in ("points", "bytes"):
            out[name] = int(layers[layer]["size"]) if layer in layers else 0
    out["constructors.builds_per_approx"] = len(cli_builds) / approx if approx else 0.0
    out["constructors.eval_points_per_approx"] = cli_points / approx if approx else 0.0
    out["counting_model.table_rows"] = sum(b[3] + 1 for b in builds if b and b[3] is not None)
    out["trace_overhead_frac"] = overhead_frac
    return out
