"""jacksonlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a jacksonlab checkout (the package is imported from
src/).  Makes the workload's inputs from the seed, repeats its closed
loop of operations for about S seconds (at least once), checks every
output, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0: every operation is a fresh child process; reports the
end-to-end metrics, every time scaled to a reference machine speed by a
calibration loop timed around it (see speed.py; the unscaled figures are
printed on a comment line).  --trace 1: runs the loop in-process three
times, plain, with the outside-in tracer installed, and plain again, and
reports the per-layer metrics of the traced pass.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every child
THREAD_ENV = {
    "JACKSONLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import libsession, speed, tracer, workloads  # noqa: E402
from perfbench.workloads import END_TO_END, Cli  # noqa: E402

SETUP_MIN = 8  # set-up samples per run, at least
CHILD_TIMEOUT_S = 150
MAX_ERRORS = 10
# the package is not installed: children import it from the checkout
CHILD_ENV = {"PYTHONPATH": "src", **THREAD_ENV}


def child_env():
    return {**os.environ, **CHILD_ENV}


def environment_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": CHILD_ENV,
    }


def run_child(cmd, env, errfile):
    """(exit code, wall s, peak RSS MB) of one child, reaped with os.wait4.

    os.wait4 gives the child's own peak RSS; RUSAGE_CHILDREN would give
    a running maximum over every child reaped so far.
    """
    with open(errfile, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _tail(path):
    lines = Path(path).read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class ChildRunner:
    """Each operation in a fresh interpreter, as a user meets it.

    Before each operation of the kind its set-up command stands for (a
    CLI command, or a library session) it also times that set-up
    command, so that the set-up samples are spread over the run.  After
    every child it times the calibration loop, so each child has one
    calibration just before it and one just after.
    """

    def __init__(self, work, setup_args):
        self.env = child_env()
        self.err = work / "stderr.txt"
        self.work = work
        self.setup_cmd = [sys.executable, *setup_args]
        self.setup_before_cli = tuple(setup_args) == workloads.CLI_SETUP
        self.setup_s = []      # (wall s, speed scale) of each set-up sample
        self.cal_s = [speed.calibration_s()]

    def _child(self, cmd):
        """(exit code, wall s, peak RSS MB, calibrations around the child)."""
        rc, wall, rss = run_child(cmd, self.env, self.err)
        self.cal_s.append(speed.calibration_s())
        return rc, wall, rss, self.cal_s[-2:]

    def sample_setup(self):
        rc, wall, _, around = self._child(self.setup_cmd)
        if rc:
            raise SystemExit(f"perfbench: set-up command failed (exit {rc}): {_tail(self.err)}")
        self.setup_s.append((wall, speed.scale(around)))

    def cli(self, args, out):
        if self.setup_before_cli:
            self.sample_setup()
        cmd = [sys.executable, "-m", "jacksonlab.cli", *args, "--output", str(out)]
        rc, wall, rss, around = self._child(cmd)
        return rc, wall, rss, _tail(self.err) if rc else "", speed.scale(around)

    def session(self, spec, out):
        if not self.setup_before_cli:
            self.sample_setup()
        spec_path = self.work / "session_spec.json"
        spec_path.write_text(json.dumps(spec))
        cmd = [sys.executable, str(ROOT / "perfbench" / "libsession.py"), str(spec_path), str(out)]
        rc, wall, rss, around = self._child(cmd)
        if rc:
            return rc, wall, rss, _tail(self.err), speed.scale(around)
        with open(out) as fh:
            result = json.load(fh)
        return rc, wall, rss, result, speed.scale(around + result["cal_s"])


class InProcessRunner:
    """Each operation in this process: the CLI through cli.main, sessions directly.

    Its times are not scaled (speed scale 1): they feed only the tracing
    overhead, a ratio of passes run back to back.
    """

    def __init__(self, package, trace=None):
        self.package = package
        self.trace = trace

    def cli(self, args, out):
        argv = [*args, "--output", str(out)]
        main = self.package.cli.main
        t0 = time.perf_counter()
        try:
            if self.trace:
                self.trace.call("cli.command", main, (argv,), {"standalone_mode": False})
            else:
                main(argv, standalone_mode=False)
            rc, msg = 0, ""
        except SystemExit as exc:
            rc, msg = exc.code if isinstance(exc.code, int) else 1, "exit"
        except Exception:  # a failed command is counted, and the loop goes on
            rc, msg = 1, traceback.format_exc(limit=-1).strip().splitlines()[-1]
        return rc, time.perf_counter() - t0, None, msg, 1.0

    def session(self, spec, out):
        t0 = time.perf_counter()
        try:
            checking = self.trace.paused if self.trace else contextlib.nullcontext
            result = libsession.run(spec, checking)
        except Exception:  # a failed session is counted, and the loop goes on
            return 1, time.perf_counter() - t0, None, traceback.format_exc(limit=-1), 1.0
        return 0, time.perf_counter() - t0, None, result, 1.0


@dataclass
class PassResult:
    wall_s: float = 0.0         # sum over operations, each child's start-up included
    raw_wall_s: float = 0.0     # the same, unscaled
    peak_rss_mb: float = 0.0    # max over operations' own peaks
    sessions: list = field(default_factory=list)  # (median build round s, p50 s, p99 s)
    raw_sessions: list = field(default_factory=list)  # the same, unscaled
    calls: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def run_pass(ops, runner, work):
    """One closed loop over ops; checks run between operations, untimed."""
    res = PassResult()
    for i, op in enumerate(ops):
        out = work / f"op{i}.out"
        if isinstance(op, Cli):
            rc, wall, rss, msg, scale = runner.cli(op.args, out)
            errors = [f"{' '.join(op.args[:3])}: exit {rc} {msg}"] if rc else _checked(op, out)
            res.attempted += 1
            res.failed += bool(errors)
        else:
            rc, wall, rss, result, scale = runner.session(op.spec, out)
            if rc:
                errors = [f"session: exit {rc} {result}"]
                res.attempted += op.ops
                res.failed += op.ops
            else:
                errors = result["errors"]
                res.attempted += result["attempted"]
                res.failed += result["failed"]
                res.sessions.append(_session_figures(
                    np.multiply(result["build_s"], result["build_scale"]),
                    np.multiply(result["latency_s"], result["call_scale"])))
                res.raw_sessions.append(_session_figures(result["build_s"], result["latency_s"]))
                res.calls += len(result["latency_s"])
                wall -= result["check_s"] + sum(result["cal_s"])
        res.wall_s += wall * scale
        res.raw_wall_s += wall
        res.peak_rss_mb = max(res.peak_rss_mb, rss or 0.0)
        res.errors += errors
    return res


def _session_figures(build_s, latency_s):
    return (float(np.median(build_s)), *np.percentile(latency_s, [50, 99]))


def _checked(op, out):
    try:
        return op.check(out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{' '.join(op.args[:3])}: unreadable output ({exc!r})"]


def untraced(ops, setup_args, seconds, work):
    runner = ChildRunner(work, setup_args)
    runner.sample_setup()  # warm-up: bytecode caches; not counted
    runner.setup_s.clear()
    per_pass = sum(isinstance(op, Cli) == runner.setup_before_cli for op in ops)
    for _ in range(SETUP_MIN - per_pass):
        runner.sample_setup()
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, runner, work))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:  # the next pass would overrun
            break
    def figures(setup_s, wall_s, sessions):
        # session figures are averaged over the run's sessions
        build_s, p50, p99 = np.mean(sessions, axis=0)
        return {"setup_s": statistics.median(setup_s), "wall_s": statistics.median(wall_s),
                "peak_rss_mb": max(p.peak_rss_mb for p in passes), "build_s": float(build_s),
                "call_p50_us": float(p50) * 1e6, "call_p99_us": float(p99) * 1e6}

    metrics = figures([wall * scale for wall, scale in runner.setup_s],
                      [p.wall_s for p in passes], [s for p in passes for s in p.sessions])
    raw = figures([wall for wall, _ in runner.setup_s],
                  [p.raw_wall_s for p in passes], [s for p in passes for s in p.raw_sessions])
    info = {"passes": len(passes), "sessions": sum(len(p.sessions) for p in passes),
            "calls": sum(p.calls for p in passes), "setup_runs": len(runner.setup_s),
            "calibrations": len(runner.cal_s), "unscaled": raw}
    return metrics, END_TO_END, passes, info


def traced(ops, work):
    sys.path.insert(0, str(ROOT / "src"))
    import jacksonlab
    import jacksonlab.cli  # noqa: F401  (the tracer wraps names in it)

    # plain passes on both sides of the traced one, so warm-up is not read as overhead
    before = run_pass(ops, InProcessRunner(jacksonlab), work)
    trace = tracer.Tracer()
    undo = tracer.install(trace, jacksonlab)
    try:
        with_trace = run_pass(ops, InProcessRunner(jacksonlab, trace), work)
    finally:
        undo()
    after = run_pass(ops, InProcessRunner(jacksonlab), work)
    plain_s = statistics.fmean((before.wall_s, after.wall_s))
    metrics = tracer.layer_metrics(trace.spans, with_trace.wall_s / plain_s - 1.0)
    info = {"spans": len(trace.spans), "plain_wall_s": [before.wall_s, after.wall_s],
            "traced_wall_s": with_trace.wall_s}
    return metrics, tracer.PER_LAYER, [before, with_trace, after], info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jacksonlab" / "__init__.py").is_file():
        print(f"perfbench: no src/jacksonlab under {ROOT}; run from a jacksonlab checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_args, ops = workloads.build(args.workload, args.seed, work, reference)
        if args.trace:
            metrics, units, passes, info = traced(ops, work)
        else:
            metrics, units, passes, info = untraced(ops, setup_args, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for e in [e for p in passes for e in p.errors][:MAX_ERRORS]:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    print("# environment " + json.dumps(environment_record()))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **info}))
    for name, unit in units:
        print(f"# {name:40s} {metrics[name]!r:>24} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
