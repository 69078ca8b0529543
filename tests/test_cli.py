import json
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import jacksonlab
from jacksonlab.cli import main
from jacksonlab.constructors import METHODS, TRIG_METHODS
from jacksonlab.numerics import PreconditionError
from jacksonlab.phase_dist import KERNEL_KINDS, KernelSpec


# a size above numerics._MAX_SIZE, so large that numpy can hold no array of it
HUGE = "100000000000000000000000"
# requests whose approximants degenerate to a constant, each with a UserWarning
DEGENERATE_REQUESTS = [
    ["construct", "--method", "jackson_kernel", "--n", "2", "--target", "cos"],
    ["sweep", "--method", "counting_median3", "--n", "1:12:1", "--target", "sqrt"],
]


@pytest.fixture
def runner():
    return CliRunner()


class TestConstruct:
    @pytest.mark.parametrize("method", METHODS)
    def test_smoke(self, runner, method):
        trig = method in TRIG_METHODS
        result = runner.invoke(main, ["construct", "--method", method, "--n", "8",
                                      "--target", "triangle" if trig else "abs-half"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema_version"] == 1
        assert doc["method"] == method
        assert doc["error_report"]["sup_err"] > 0
        assert "ratio" in doc["error_report"]
        assert doc["basis"] == ("fourier" if trig else "chebyshev")
        assert len(doc["coefficients"]) == (17 if trig else 9)

    @pytest.mark.parametrize("method,n,degree", [("counting_median3", 40, 18),
                                                  ("counting_single", 41, 20),
                                                  ("bernstein", 8, 8)])
    def test_exact_degree_and_padded_coefficients(self, runner, method, n, degree):
        result = runner.invoke(main, ["construct", "--method", method, "--n", str(n),
                                      "--target", "abs-half"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["degree"] == degree and len(doc["coefficients"]) == n + 1
        assert not any(doc["coefficients"][degree + 1 :]) and doc["coefficients"][degree] != 0

    def test_trig_method_emits_fourier(self, runner):
        result = runner.invoke(
            main,
            ["construct", "--method", "phase_median3", "--n", "6", "--target", "triangle"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["basis"] == "fourier"
        assert doc["M"] == 3

    def test_degenerate_flag(self, runner):
        with pytest.warns(UserWarning, match="degenerates"):
            result = runner.invoke(
                main,
                ["construct", "--method", "counting_median3", "--n", "3", "--target", "sqrt"],
            )
        assert result.exit_code == 0
        assert json.loads(result.output)["degenerate"] is True

    @pytest.mark.parametrize("n,degenerate", [("1", True), ("2", True), ("3", False)])
    def test_phase_degenerate_flag(self, runner, n, degenerate):
        args = ["construct", "--method", "phase_median3", "--n", n, "--target", "cos"]
        if degenerate:
            with pytest.warns(UserWarning, match="degenerates"):
                result = runner.invoke(main, args)
        else:
            result = runner.invoke(main, args)  # any warning fails the test
        assert result.exit_code == 0
        assert json.loads(result.output)["degenerate"] is degenerate

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_usage_error(self, runner, n):
        result = runner.invoke(
            main, ["construct", "--method", "bernstein", "--n", n, "--target", "sqrt"]
        )
        assert result.exit_code == 2
        assert "n must be a positive integer" in result.output
        assert "Usage: main construct [OPTIONS]" in result.output

    def test_unknown_target_usage_error(self, runner):
        result = runner.invoke(
            main, ["construct", "--method", "bernstein", "--n", "8", "--target", "bogus"]
        )
        assert result.exit_code == 2
        assert "abs-half" in result.output  # lists valid names

    def test_unknown_method_usage_error(self, runner):
        result = runner.invoke(
            main, ["construct", "--method", "remez", "--n", "8", "--target", "sqrt"]
        )
        assert result.exit_code == 2

    def test_periodic_mismatch_usage_error(self, runner):
        result = runner.invoke(
            main, ["construct", "--method", "phase_median3", "--n", "6", "--target", "sqrt"]
        )
        assert result.exit_code == 2

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "doc.json"
        result = runner.invoke(
            main,
            ["construct", "--method", "bernstein", "--n", "4", "--target", "identity",
             "--output", str(out)],
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["n"] == 4

    def test_unwritable_output(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["construct", "--method", "bernstein", "--n", "4", "--target", "identity",
             "--output", str(tmp_path / "nope" / "doc.json")],
        )
        assert result.exit_code == 4

    def test_csv_target(self, runner, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0\n0.5,1\n1,0\n")
        result = runner.invoke(
            main, ["construct", "--method", "bernstein", "--n", "6", "--target", str(path)]
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("command,n", [("construct", "6"), ("sweep", "4:6")])
    @pytest.mark.parametrize("rows", [b"0,0\n0.6,1\n0.4,0.5\n1,0\n",
                                      b"0,0\n0.5,nan\n1,0\n",
                                      b"0,0\n0.5,inf\n1,0\n",
                                      b"\x80\x81\xff\xfe",
                                      b"x,y\n0,abc\n0,1\n1,2\n",
                                      b"x,y\nfoo,bar\nbaz\n0,0\n1,1\n"],
                             ids=["x-not-increasing", "y-nan", "y-inf", "not-utf8",
                                  "bad-y-after-header", "second-header"])
    def test_bad_csv_target_is_usage_error(self, runner, tmp_path, command, n, rows):
        path = tmp_path / "t.csv"
        path.write_bytes(rows)
        result = runner.invoke(
            main, [command, "--method", "bernstein", "--n", n, "--target", str(path)]
        )
        assert result.exit_code == 2
        assert "bad target CSV" in result.output

    @pytest.mark.parametrize("command,n", [("construct", "6"), ("sweep", "4:6")])
    @pytest.mark.parametrize("method", ["bernstein", "phase_median3", "jackson_kernel"])
    def test_nonfinite_target_values_are_usage_error(self, runner, tmp_path, command, n, method):
        # every knot is finite, but the interpolated target overflows to -inf between them
        path = tmp_path / "big.csv"
        path.write_text("0,1.7e308\n0.5,-1.7e308\n1,1.7e308\n")
        result = runner.invoke(main, [command, "--method", method, "--n", n,
                                      "--target", str(path), "--periodic"])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("command,n", [("construct", "8"), ("sweep", "8:16:8")])
    @pytest.mark.parametrize("method", METHODS)
    def test_float64_overflow_is_usage_error(self, runner, tmp_path, command, n, method):
        # the knots and the target are finite, but a form's matmul, an FFT or the
        # degree probe's truncation overflows; numpy's warning on it must not turn
        # into a traceback under the warnings-as-errors filter
        path = tmp_path / "huge.csv"
        path.write_text("0,3e307\n0.5,-3e307\n1,3e307\n")
        result = runner.invoke(main, [command, "--method", method, "--n", n,
                                      "--target", str(path), "--periodic"])
        assert result.exit_code == 2, result.output
        assert "non-finite" in result.output
        assert f"Usage: main {command} [OPTIONS]" in result.output
        assert "np.float64" not in result.output  # the point prints as a Python float
        if method not in TRIG_METHODS:  # the error grid's second point, 1/4096
            assert "non-finite value at x=0.000244140625" in result.output

    @pytest.mark.parametrize("command,n", [("construct", "4"), ("sweep", "4:6")])
    def test_unreadable_target_is_io_error(self, runner, tmp_path, command, n):
        result = runner.invoke(
            main, [command, "--method", "bernstein", "--n", n, "--target", str(tmp_path)]
        )
        assert result.exit_code == 4
        assert "I/O error" in result.output


class TestSweep:
    def test_header_and_rows(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--method", "counting_median3", "--n", "6:36:6",
             "--target", "abs-half"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == (
            "method,n,M,sup_err,omega_ref,ratio,degree_residual,grid_size,seed"
        )
        assert len(lines) == 7
        ratios = [float(line.split(",")[5]) for line in lines[1:]]
        assert max(ratios) / min(ratios) < 3.0

    def test_byte_identical_reruns(self, runner):
        args = ["sweep", "--method", "bernstein", "--n", "4:8:2", "--target", "sqrt"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_rows_run_in_order_on_the_calling_thread(self, runner, monkeypatch):
        from jacksonlab import cli

        built = []
        original = cli.build_approximant

        def recorded(g, method, n):
            built.append((threading.get_ident(), n))
            return original(g, method, n)

        monkeypatch.setattr(cli, "build_approximant", recorded)
        result = runner.invoke(
            main, ["sweep", "--method", "bernstein", "--n", "4:12:2", "--target", "sqrt"]
        )
        assert result.exit_code == 0
        assert built == [(threading.get_ident(), n) for n in (4, 6, 8, 10, 12)]

    def test_bad_range(self, runner):
        result = runner.invoke(
            main, ["sweep", "--method", "bernstein", "--n", "4:x", "--target", "sqrt"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("spec", ["10:5", "16:8:-8", "8:16:-8"])
    def test_empty_or_descending_range_is_usage_error(self, runner, spec):
        result = runner.invoke(
            main, ["sweep", "--method", "bernstein", "--n", spec, "--target", "sqrt"]
        )
        assert result.exit_code == 2
        assert "bad n range" in result.output

    def test_nonpositive_n_usage_error(self, runner):
        for spec in ("0:2", "-1"):
            result = runner.invoke(
                main, ["sweep", "--method", "bernstein", "--n", spec, "--target", "sqrt"]
            )
            assert result.exit_code == 2, spec
            assert "Usage: main sweep [OPTIONS]" in result.output, spec


@pytest.mark.parametrize("command,n,expect", [("construct", "6", [6]),
                                              ("sweep", "4:12:4", [4, 8, 12])])
def test_one_build_per_n(runner, monkeypatch, command, n, expect):
    from jacksonlab import cli, constructors

    built = []
    original = constructors.build_approximant

    def counted(g, method, n):
        built.append(n)
        return original(g, method, n)

    monkeypatch.setattr(cli, "build_approximant", counted)
    monkeypatch.setattr(constructors, "build_approximant", counted)
    result = runner.invoke(
        main, [command, "--method", "counting_single", "--n", n, "--target", "sqrt"]
    )
    assert result.exit_code == 0
    assert sorted(built) == expect


class TestLibraryFailures:
    """Each failure kind has one handler: a library failure exits 2, an
    OSError 4, and any other exception keeps its traceback."""

    @staticmethod
    def _failing_build(monkeypatch, exc):
        from jacksonlab import cli

        def build(g, method, n):
            raise exc

        monkeypatch.setattr(cli, "build_approximant", build)

    @pytest.mark.parametrize("command,n", [("construct", "6"), ("sweep", "4:8:2")])
    def test_refused_allocation_is_usage_error(self, runner, monkeypatch, command, n):
        self._failing_build(monkeypatch, MemoryError("Unable to allocate 745. GiB"))
        result = runner.invoke(
            main, [command, "--method", "bernstein", "--n", n, "--target", "sqrt"]
        )
        assert result.exit_code == 2
        assert "Unable to allocate 745. GiB" in result.output
        assert f"Usage: main {command} [OPTIONS]" in result.output

    @pytest.mark.parametrize("command,n", [("construct", "6"), ("sweep", "4:8:2")])
    def test_os_error_is_io_error(self, runner, monkeypatch, command, n):
        self._failing_build(monkeypatch, PermissionError("denied"))
        result = runner.invoke(
            main, [command, "--method", "bernstein", "--n", n, "--target", "sqrt"]
        )
        assert result.exit_code == 4
        assert "I/O error: denied" in result.output

    @pytest.mark.parametrize("args", [
        *(["construct", "--method", method, "--n", HUGE,
           "--target", "cos" if method in TRIG_METHODS else "sqrt"] for method in METHODS),
        ["dist", "--m", HUGE, "--x", "0.3"],
    ], ids=[*METHODS, "dist"])
    def test_size_no_array_can_hold_is_usage_error(self, runner, args):
        # numpy refuses such an array with a ValueError, so the size is refused before
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "arrays of that size cannot be allocated" in result.output

    @pytest.mark.parametrize("args", [
        ["construct", "--method", "phase_median3", "--n", "3000000000", "--target", "cos"],
        ["construct", "--method", "jackson_kernel", "--n", "200000000", "--target", "cos"],
        ["dist", "--m", "759250125", "--x", "0.3"],
        ["dist", "--m", "759250125", "--count-n", "16", "--weight", "5"],
        ["dist", "--m", "759250125", "--count-n", "16", "--weight", "5", "--median3"],
    ], ids=["phase_median3", "jackson_kernel", "dist", "dist-counting", "dist-median3"])
    def test_window_view_numpy_cannot_describe_is_usage_error(self, runner, args):
        # numpy raised ValueError("array is too big") on the window view (exit 1)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "numpy cannot describe" in result.output

    @pytest.mark.parametrize("args", DEGENERATE_REQUESTS, ids=["construct", "sweep"])
    def test_degenerate_request_exits_0_under_any_filter(self, runner, args):
        # the notice is shown, whatever the filter, and the output is the same
        stdouts = set()
        for action in ("error", "ignore", "default"):
            with pytest.warns(UserWarning, match="degenerates to a constant"):
                warnings.simplefilter(action)
                result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            stdouts.add(result.stdout)
        assert len(stdouts) == 1

    @pytest.mark.parametrize("exc", [ValueError("defect"), ZeroDivisionError("defect"),
                                     RuntimeError("defect"), KeyError("defect")])
    def test_other_exceptions_are_not_caught(self, runner, monkeypatch, exc):
        self._failing_build(monkeypatch, exc)
        result = runner.invoke(
            main, ["construct", "--method", "bernstein", "--n", "6", "--target", "sqrt"]
        )
        assert result.exit_code == 1
        assert result.exception is exc


def test_shared_options_share_their_help():
    # --n takes one budget in construct and a range in sweep; its help starts alike
    helps = [{p.name: p.help for p in main.commands[c].params} for c in ("construct", "sweep")]
    assert helps[0].keys() <= helps[1].keys()
    for name, text in helps[0].items():
        if name == "n":
            assert text and helps[1]["n"].startswith(text[:-1]), helps[1]["n"]
        else:
            assert text == helps[1][name], name


class TestVerify:
    def test_manifest(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["passed"] is True
        for check in doc["checks"].values():
            assert check["max_residual"] < check["tolerance"]

    def test_os_error_is_io_error(self, runner, monkeypatch):
        from jacksonlab import cli

        def run_verification():
            raise OSError("no space left")

        monkeypatch.setattr(cli, "run_verification", run_verification)
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 4
        assert "I/O error: no space left" in result.output


class TestDist:
    def test_phase_pmf(self, runner):
        result = runner.invoke(main, ["dist", "--m", "4", "--x", "0.25"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "index,value"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert probs[1] == pytest.approx(1.0)

    def test_counting_pmf(self, runner):
        result = runner.invoke(
            main, ["dist", "--m", "4", "--count-n", "9", "--weight", "3"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert len(lines) == 5

    def test_median3_pmf(self, runner):
        result = runner.invoke(
            main, ["dist", "--m", "4", "--count-n", "9", "--weight", "3", "--median3"]
        )
        assert result.exit_code == 0
        assert result.output.startswith("estimate,value")

    def test_missing_options(self, runner):
        result = runner.invoke(main, ["dist", "--m", "4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("median3", [[], ["--median3"]], ids=["single", "median3"])
    def test_zero_length_is_usage_error(self, runner, median3):
        result = runner.invoke(
            main, ["dist", "--m", "4", "--count-n", "0", "--weight", "0", *median3]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--count-n'" in result.output

    @pytest.mark.parametrize("median3", [[], ["--median3"]], ids=["single", "median3"])
    def test_negative_weight_is_usage_error(self, runner, median3):
        result = runner.invoke(
            main, ["dist", "--m", "4", "--count-n", "9", "--weight", "-1", *median3]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--weight'" in result.output

    @pytest.mark.parametrize("median3", [[], ["--median3"]], ids=["single", "median3"])
    def test_weight_above_length_is_usage_error(self, runner, median3):
        result = runner.invoke(
            main, ["dist", "--m", "4", "--count-n", "9", "--weight", "10", *median3]
        )
        assert result.exit_code == 2
        assert "weight k must lie in [0, N]" in result.output

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_nonfinite_phase_is_usage_error(self, runner, x):
        result = runner.invoke(main, ["dist", "--m", "4", "--x", x])
        assert result.exit_code == 2
        assert "finite" in result.output
        assert "Usage: main dist [OPTIONS]" in result.output

    @pytest.mark.parametrize("extra", [["--count-n", "16"], ["--weight", "5"], ["--median3"],
                                       ["--count-n", "16", "--weight", "5", "--median3"]])
    def test_phase_with_counting_options_is_usage_error(self, runner, extra):
        result = runner.invoke(main, ["dist", "--m", "4", "--x", "0.3", *extra])
        assert result.exit_code == 2
        assert "use either --x or --count-n with --weight" in result.output


@pytest.mark.parametrize("command,n", [("construct", "6"), ("sweep", "4:6:2")])
def test_negative_seed_is_usage_error(runner, command, n):
    # numpy's default_rng refused -1 with a ValueError traceback (exit 1)
    result = runner.invoke(main, [command, "--method", "bernstein", "--n", n,
                                  "--target", "sqrt", "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("seed", ["0", "7", str(2**70)])
@pytest.mark.parametrize("command,n", [("construct", "6"), ("sweep", "6")])
def test_every_non_negative_seed_runs(runner, command, n, seed):
    result = runner.invoke(main, [command, "--method", "bernstein", "--n", n,
                                  "--target", "sqrt", "--seed", seed])
    assert result.exit_code == 0, result.output
    if command == "construct":
        assert json.loads(result.output)["seed"] == int(seed)
    else:
        assert result.output.strip().split("\n")[1].endswith("," + seed)


class TestKernel:
    def test_points_no_array_can_hold_is_usage_error(self, runner):
        # numpy refused the abscissae with ValueError("array is too big") (exit 1)
        result = runner.invoke(main, ["kernel", "--kind", "fejer", "--n", "3",
                                      "--points", "2000000000000000000"])
        assert result.exit_code == 2, result.output
        assert "points must be at most" in result.output

    def test_fejer_table(self, runner):
        result = runner.invoke(main, ["kernel", "--kind", "fejer", "--n", "2", "--points", "4"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "abscissa,value"
        assert float(lines[1].split(",")[1]) == pytest.approx(2.0)

    def test_jackson_table(self, runner):
        result = runner.invoke(main, ["kernel", "--kind", "jackson", "--n", "3"])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 513

    def test_kinds_are_the_kernel_kinds(self, runner):
        # --kind offers exactly the kinds KernelSpec accepts, read from one tuple
        choices = next(p for p in main.commands["kernel"].params if p.name == "kind").type.choices
        assert tuple(choices) == KERNEL_KINDS
        for kind in KERNEL_KINDS:
            assert KernelSpec(kind, 3).kind == kind
        with pytest.raises(PreconditionError):
            KernelSpec("gauss", 3)
        result = runner.invoke(main, ["kernel", "--kind", "gauss", "--n", "3"])
        assert result.exit_code == 2


class TestConfigFile:
    def test_config_seeds_defaults(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[construct]\nmethod = bernstein\nn = 6\ntarget = sqrt\n")
        result = runner.invoke(main, ["--config", str(cfg), "construct"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["method"] == "bernstein" and doc["n"] == 6

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[construct]\nmethod = bernstein\nn = 6\ntarget = sqrt\n")
        result = runner.invoke(main, ["--config", str(cfg), "construct", "--n", "9"])
        assert result.exit_code == 0
        assert json.loads(result.output)["n"] == 9

    @pytest.mark.parametrize("content", [
        b"method = bernstein\n",
        b"[construct]\nn = 6\n[construct]\nn = 7\n",
        b"[construct]\nmethod = \x80\x81\xff\xfe\n",
        b"[construct]\nmethod = %(nowhere\n",
        b"[construct]\ngrid-size = 129\n",
        b"[sweeep]\nmethod = bernstein\n",
        b"[DEFAULT]\nn = 6\n",
    ], ids=["no-section-header", "duplicate-section", "not-utf8", "bad-interpolation",
            "key-not-a-parameter", "section-not-a-subcommand", "default-section"])
    def test_malformed_config_is_usage_error(self, runner, tmp_path, content):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        result = runner.invoke(main, ["--config", str(cfg), "construct", "--method",
                                      "bernstein", "--target", "sqrt"])
        assert result.exit_code == 2
        assert f"bad config file {str(cfg)!r}" in result.output

    def test_refusal_names_the_key_and_the_valid_keys(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[sweep]\nn_range = 4:8:2\n")
        result = runner.invoke(main, ["--config", str(cfg), "sweep", "--method", "bernstein",
                                      "--target", "sqrt"])
        assert result.exit_code == 2
        assert ("[sweep] 'n_range' names no parameter (grid_size, method, n, output, periodic, "
                "seed, target)") in result.output

    def test_config_seeds_sweep_n(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nn = 4:8:2\n")
        args = ["sweep", "--method", "bernstein", "--target", "sqrt"]
        result = runner.invoke(main, ["--config", str(cfg), *args])
        assert result.exit_code == 0, result.output
        assert result.output == runner.invoke(main, [*args, "--n", "4:8:2"]).output
        assert len(result.output.splitlines()) == 4

    def test_keys_keep_their_case(self, runner, tmp_path):
        # dist's --m is the parameter M
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[dist]\nM = 4\nx = 0.25\n")
        result = runner.invoke(main, ["--config", str(cfg), "dist"])
        assert result.exit_code == 0, result.output
        assert result.output == runner.invoke(main, ["dist", "--m", "4", "--x", "0.25"]).output

    def test_unreadable_config_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, ["--config", str(tmp_path), "construct", "--method",
                                      "bernstein", "--target", "sqrt"])
        assert result.exit_code == 4
        assert "I/O error" in result.output


def _src_path():
    src = str(Path(jacksonlab.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def test_import_does_not_load_scipy():
    path = _src_path()
    code = ("import sys, jacksonlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_numpy_fft_but_not_numpy_random():
    # numpy.fft loads lazily, so numerics imports it: else the first form call pays for
    # it; numpy.random stays out (verify's form-check points say why)
    code = "import sys, jacksonlab; print('numpy.fft' in sys.modules, 'numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": _src_path()},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True False"


def test_construct_and_sweep_do_not_load_numpy_polynomial():
    # the degree probe's truncation was np.polynomial.chebyshev.chebval, 4.6 ms of imports
    code = ("import sys; from click.testing import CliRunner; from jacksonlab.cli import main; "
            "args = ['--method', 'counting_single', '--n', '8', '--target', 'sqrt']; "
            "codes = [CliRunner().invoke(main, [cmd, *args]).exit_code for cmd in "
            "('construct', 'sweep')]; print(codes, 'numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": _src_path()},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0] False"


def test_degenerate_notice_under_warnings_as_errors():
    # the installed CLI runs under PYTHONWARNINGS=error: the notice is on stderr, not a traceback
    out = subprocess.run([sys.executable, "-m", "jacksonlab.cli", *DEGENERATE_REQUESTS[0]],
                         env={**os.environ, "PYTHONPATH": _src_path(), "PYTHONWARNINGS": "error"},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "UserWarning: jackson_kernel with n=2 has exact degree 0" in out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stdout)["degenerate"] is True


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, lang):
    """The first fenced code block of one language under a README heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


class TestReadmeExamples:
    def test_library_quick_start_runs(self):
        exec(compile(_readme_block("Library quick start", "python"), str(README), "exec"), {})

    @pytest.mark.parametrize("line", [line for line in _readme_block("CLI", "sh").splitlines()
                                      if line.startswith("jacksonlab ")])
    def test_cli_example_exits_zero(self, runner, line):
        result = runner.invoke(main, shlex.split(line, comments=True)[1:])
        assert result.exit_code == 0, result.output
