import json

import pytest
from click.testing import CliRunner

from jacksonlab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestConstruct:
    def test_smoke(self, runner):
        result = runner.invoke(
            main, ["construct", "--method", "bernstein", "--n", "8", "--target", "abs-half"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema_version"] == 1
        assert doc["method"] == "bernstein"
        assert doc["error_report"]["sup_err"] > 0
        assert "ratio" in doc["error_report"]
        assert doc["basis"] == "chebyshev"
        assert len(doc["coefficients"]) == 9

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
        result = runner.invoke(
            main,
            ["construct", "--method", "counting_median3", "--n", "3", "--target", "sqrt"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["degenerate"] is True

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
    @pytest.mark.parametrize("rows", ["0,0\n0.6,1\n0.4,0.5\n1,0\n",
                                      "0,0\n0.5,nan\n1,0\n",
                                      "0,0\n0.5,inf\n1,0\n"],
                             ids=["x-not-increasing", "y-nan", "y-inf"])
    def test_bad_csv_target_is_usage_error(self, runner, tmp_path, command, n, rows):
        path = tmp_path / "t.csv"
        path.write_text(rows)
        result = runner.invoke(
            main, [command, "--method", "bernstein", "--n", n, "--target", str(path)]
        )
        assert result.exit_code == 2
        assert "bad target CSV" in result.output


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

    def test_thread_cap_env(self, runner, monkeypatch):
        monkeypatch.setenv("JACKSONLAB_THREADS", "1")
        result = runner.invoke(
            main, ["sweep", "--method", "bernstein", "--n", "4:6", "--target", "sqrt"]
        )
        assert result.exit_code == 0

    def test_bad_range(self, runner):
        result = runner.invoke(
            main, ["sweep", "--method", "bernstein", "--n", "4:x", "--target", "sqrt"]
        )
        assert result.exit_code == 2

    def test_nonpositive_n_usage_error(self, runner):
        for spec in ("0:2", "-1"):
            result = runner.invoke(
                main, ["sweep", "--method", "bernstein", "--n", spec, "--target", "sqrt"]
            )
            assert result.exit_code == 2, spec


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


class TestVerify:
    def test_manifest(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["passed"] is True
        for check in doc["checks"].values():
            assert check["max_residual"] < check["tolerance"]


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

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_nonfinite_phase_is_usage_error(self, runner, x):
        result = runner.invoke(main, ["dist", "--m", "4", "--x", x])
        assert result.exit_code == 2
        assert "finite" in result.output


class TestKernel:
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
