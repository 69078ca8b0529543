"""Tests of the benchmark's own code: tracer arithmetic, inputs, output checks."""

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, inputs, libsession, speed, tracer, workloads
from perfbench.tracer import Span

ROOT = Path(__file__).resolve().parents[2]


# --- tracer ----------------------------------------------------------------

def test_self_time_nested_and_overlapping_children():
    spans = [
        Span(1, "cmd", 0.0, 10.0, None),
        Span(2, "row", 1.0, 4.0, 1),    # two pool rows that overlap in time
        Span(3, "row", 3.0, 6.0, 1),
        Span(4, "row", 8.0, 12.0, 1),   # runs past its parent: clipped at 10
        Span(5, "leaf", 2.0, 3.0, 2),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    layers = tracer.by_layer(spans)
    assert layers["row"]["calls"] == 3
    assert layers["row"]["s"] == pytest.approx(2.0 + 3.0 + 4.0)


def test_pool_rows_nest_under_the_command_that_started_them():
    t = tracer.Tracer()
    leaf = t.wrap("leaf", lambda x: x + 1)
    inner = t.wrap("leaf", lambda x: leaf(x))  # same layer again: no new span

    def command():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(4)))

    assert t.call("cmd", command) == [1, 2, 3, 4]
    cmd = next(s for s in t.spans if s.name == "cmd")
    rows = [s for s in t.spans if s.name == "leaf"]
    assert len(rows) == 4
    assert all(s.parent == cmd.id for s in rows)
    own = tracer.self_times(t.spans)
    assert 0.0 <= own[cmd.id] <= cmd.end - cmd.start


def test_span_recorded_when_the_call_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.call("layer", boom)
    assert [s.name for s in t.spans] == ["layer"]


def test_no_spans_while_paused():
    t = tracer.Tracer()
    leaf = t.wrap("leaf", lambda x: x + 1)
    with t.paused():
        assert leaf(1) == 2
    assert t.spans == []
    assert leaf(1) == 2 and len(t.spans) == 1


def test_layer_metrics_cover_every_per_layer_name():
    spans = [
        Span(1, "cli.command", 0.0, 10.0, None),
        Span(2, "constructors.build", 1.0, 2.0, 1, info=("g", "counting_median3", 4, 16)),
        Span(3, "constructors.build", 3.0, 4.0, 1, info=("g", "counting_median3", 4, 16)),
        Span(4, "constructors.eval", 5.0, 6.0, 1, size=100.0),
        Span(5, "constructors.build", 11.0, 12.0, None, info=("g", "bernstein", 4, None)),
    ]
    m = tracer.layer_metrics(spans, 0.05)
    assert set(m) == {name for name, _ in tracer.PER_LAYER}
    assert m["constructors.build.calls"] == 3
    assert m["constructors.builds_per_approx"] == 2.0   # CLI builds only
    assert m["constructors.eval_points_per_approx"] == 100.0
    assert m["counting_model.table_rows"] == 2 * 17
    assert m["trace_overhead_frac"] == 0.05


def test_install_wraps_and_undo_restores():
    jacksonlab = pytest.importorskip("jacksonlab")
    import jacksonlab.cli

    before = jacksonlab.constructors.Approximant.__dict__["__call__"]
    t = tracer.Tracer()
    undo = tracer.install(t, jacksonlab)
    try:
        approx = jacksonlab.build_approximant(jacksonlab.get_target("sqrt"), "counting_single", 4)
        approx(np.linspace(0.0, 1.0, 5))
    finally:
        undo()
    assert jacksonlab.constructors.Approximant.__dict__["__call__"] is before
    layers = tracer.by_layer(t.spans)
    assert layers["constructors.build"]["calls"] == 1
    assert layers["counting_model.amp_pmf"]["calls"] == 17      # N + 1 weights
    assert layers["constructors.eval"]["size"] == 5
    assert layers["counting_model.binom"]["size"] == 5 * 17 * 8


# --- speed scale -----------------------------------------------------------

def test_calibrator_scales_each_item_by_the_calibrations_around_it(monkeypatch):
    times = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(speed, "calibration_s", lambda: next(times))
    clock = speed.Calibrator()
    first = clock.tick(force=True)
    second = clock.tick()            # not due yet: same calibrations around it
    third = clock.tick(force=True)
    clock.close()
    assert (first, second, third) == (0, 0, 1)
    assert clock.scales([first, third]) == pytest.approx(
        [speed.CAL_REF_S / 1.5, speed.CAL_REF_S / 3.0])
    assert speed.scale([1.0, 3.0, 8.0]) == pytest.approx(speed.CAL_REF_S / 3.0)


# --- inputs ----------------------------------------------------------------

def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for periodic in (False, True):
        paths = []
        for i, seed in enumerate((7, 7, 8)):
            p = tmp_path / f"{periodic}-{i}.csv"
            inputs.write_target_csv(p, *inputs.target_knots(seed, periodic))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1] != paths[2]
    a, b, c = (inputs.call_stream(s, 5, 1000) for s in (3, 3, 4))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[2][:10], c[2][:10])


def test_targets_are_valid_knot_lists(tmp_path):
    for periodic in (False, True):
        xs, ys = inputs.target_knots(11, periodic)
        assert xs[0] == 0.0 and xs[-1] == 1.0 and np.all(np.diff(xs) > 0)
        assert len(xs) == inputs.KNOTS
        assert (ys[0] == ys[-1]) == periodic
        p = tmp_path / "t.csv"
        inputs.write_target_csv(p, xs, ys)
        rx, ry = inputs.read_target_csv(p)
        assert np.array_equal(rx, xs) and np.array_equal(ry, ys)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_session_parts_cover_each_call_once(tmp_path, name):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    _, ops = workloads.build(name, 3, tmp_path, reference)
    sessions = [op for op in ops if isinstance(op, workloads.Session)]
    stream = np.load(sessions[0].spec["stream"])
    total = len(stream["which"] if "which" in stream else stream["ms"])
    seen = np.concatenate([c for s in sessions for c in libsession._chunks(s.spec, total)])
    assert np.array_equal(np.sort(seen), np.arange(total))
    builds = len(sessions[0].spec.get("builds", sessions[0].spec.get("kernels")))
    assert sum(s.ops for s in sessions) == total + builds * sum(s.spec["rounds"] for s in sessions)


def test_stream_composition_does_not_depend_on_the_seed():
    for seed in (1, 2):
        which, sizes, xs, check = inputs.call_stream(seed, 3, 6000)
        for j in range(3):
            assert np.sum(which == j) == 2000
            assert np.sum((which == j) & (sizes == inputs.BATCH)) == 2000 // inputs.BATCH_SHARE
        assert len(xs) == sizes.sum() and len(check) == 6000 // inputs.CHECK_SHARE
        ms, xs, check = inputs.pe_stream(seed, 3)
        pairs, counts = np.unique(np.stack((ms, xs)), axis=1, return_counts=True)
        assert pairs.shape == (2, (inputs.PE_M_MAX - 1) * inputs.PE_X_COUNT)
        assert np.all(counts == 3)
        assert len(check) == len(ms) // inputs.CHECK_SHARE
    assert not np.array_equal(inputs.pe_stream(1, 3)[0], inputs.pe_stream(2, 3)[0])


# --- output checks ---------------------------------------------------------

@pytest.fixture
def cli(tmp_path):
    jacksonlab_cli = pytest.importorskip("jacksonlab.cli")

    def run(*args):
        out = tmp_path / "out"
        jacksonlab_cli.main([*args, "--output", str(out)], standalone_mode=False)
        return out.read_text()

    return run


@pytest.mark.parametrize("method,n,periodic", [("counting_median3", 12, False),
                                               ("phase_median3", 9, True)])
def test_construct_check_rejects_one_perturbed_coefficient(cli, tmp_path, method, n, periodic):
    xs, ys = inputs.target_knots(5, periodic)
    target = tmp_path / "target.csv"
    inputs.write_target_csv(target, xs, ys)
    args = ["construct", "--method", method, "--n", str(n), "--target", str(target)]
    doc = json.loads(cli(*args, *(["--periodic"] if periodic else [])))
    assert checks.check_construct(doc, method, n, xs, ys, periodic, 4097) == []
    for k in (0, 1, len(doc["coefficients"]) // 2):
        bad = json.loads(json.dumps(doc))
        if periodic:
            bad["coefficients"][k][0] += 1e-4
        else:
            bad["coefficients"][k] += 1e-4
        assert checks.check_construct(bad, method, n, xs, ys, periodic, 4097), k
    bad = json.loads(json.dumps(doc))
    bad["degree_residual"] = 1e-3
    assert checks.check_construct(bad, method, n, xs, ys, periodic, 4097)


def test_sweep_check_rejects_a_shifted_sup_err(cli):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["sweep"]
    text = cli("sweep", "--method", "counting_median3", "--n", "8:16:8", "--target", "abs-half")
    ok = dict(method="counting_median3", target="abs-half", ns=[8, 16], reference=reference,
              grid_size=4097, seed=1234)
    assert checks.check_sweep(text, **ok) == []
    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[3] = repr(float(fields[3]) + 1e-7)
    shifted = "\n".join(lines[:2] + [",".join(fields)]) + "\n"
    assert checks.check_sweep(shifted, **ok)
    assert checks.check_sweep("\n".join(lines[:2]) + "\n", **ok)  # a row missing


def test_verify_check():
    good = {"passed": True, "checks": {name: {"max_residual": 0.0, "tolerance": 1e-12,
                                              "pass": True} for name in checks.VERIFY_CHECKS}}
    assert checks.check_verify(good) == []
    bad = json.loads(json.dumps(good))
    bad["checks"]["fejer_identity"]["pass"] = False
    assert checks.check_verify(bad)
    assert checks.check_verify({**good, "passed": False})


def test_call_and_pmf_checks():
    assert checks.call_ok(0.5, 0.25)
    assert not checks.call_ok(0.5, np.array([0.25]))
    assert not checks.call_ok(0.5, float("nan"))
    x = np.linspace(0.0, 1.0, 4)
    assert checks.call_ok(x, x * 2)
    assert not checks.call_ok(x, x[:3])
    probs = checks.statevector_pmf(8, 0.3)
    assert checks.pmf_errors(8, 0.3, probs, True) == []
    assert checks.pmf_errors(8, 0.3, probs + 1e-9 * np.eye(8)[2], True)


def test_modulus_bounds_bracket_the_exact_modulus():
    xs = np.array([0.0, 0.5, 1.0])
    ys = np.array([0.0, 1.0, 0.0])   # slope 2 tent
    lo, hi = checks.modulus_bounds(xs, ys, 0.1, periodic=False)
    assert lo <= 0.2 <= hi and hi < 0.2 + 1e-9 and lo == pytest.approx(0.2 - 2 * 0.1 / 4)
    spike = np.array([0.0, 0.4, 0.45, 0.5, 1.0]), np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    lo, hi = checks.modulus_bounds(*spike, 0.1, periodic=False)
    assert hi == pytest.approx(1.0)  # up and down again within delta
    ramp = np.array([0.0, 0.95, 1.0]), np.array([0.0, 0.95, 0.0])
    assert checks.modulus_bounds(*ramp, 0.1, periodic=True)[1] == pytest.approx(0.95)


# --- the benchmark's declaration ---------------------------------------------

def test_benchmark_json_matches_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
