"""The CI verdict script .github/check_tier1.py, fed small xunit1 reports."""

import importlib.util
from pathlib import Path
import xml.etree.ElementTree as ET

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "check_tier1.py"
_spec = importlib.util.spec_from_file_location("check_tier1", _SCRIPT)
check_tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tier1)

CRITERION_10 = ('<testcase classname="tests.test_acceptance" name="test_criterion_10_log_factor_gap" '
                'file="tests/test_acceptance.py" line="160" time="1.0"{}')
FAILURE = '><failure message="assert False">bound</failure></testcase>'
ERROR = '><error message="fixture">setup</error></testcase>'
PASSED = " />"


def _case(classname, name, file, outcome=PASSED):
    return f'<testcase classname="{classname}" name="{name}" file="{file}" line="1" time="0.1"{outcome}'


def _verdict(tmp_path, *cases):
    report = tmp_path / "tier1-junit.xml"
    report.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">'
                      f'<testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    return check_tier1.main(["check_tier1.py", str(report)])


PASSING = (_case("tests.test_cli.TestSweep", "test_rows[1-2]", "tests/test_cli.py"),
           _case("perfbench.tests.test_perfbench", "test_pool", "perfbench/tests/test_perfbench.py",
                 '><skipped message="no numpy" type="pytest.skip">skip</skipped></testcase>'))


def test_only_criterion_10_failing_passes(tmp_path, capsys):
    assert _verdict(tmp_path, CRITERION_10.format(FAILURE), *PASSING) == 0
    assert "3 tests, 2 passed or skipped, 1 failed" in capsys.readouterr().out


@pytest.mark.parametrize("outcome", [FAILURE, ERROR])
def test_one_more_failure_or_error_fails(tmp_path, capsys, outcome):
    extra = _case("tests.test_numerics", "test_probe", "tests/test_numerics.py", outcome)
    assert _verdict(tmp_path, CRITERION_10.format(FAILURE), *PASSING, extra) == 1
    assert "FAILED (not expected): tests/test_numerics.py::test_probe" in capsys.readouterr().out


def test_criterion_10_passing_fails(tmp_path, capsys):
    assert _verdict(tmp_path, CRITERION_10.format(PASSED), *PASSING) == 1
    assert "NOW PASSES or did not run" in capsys.readouterr().out


def test_no_testcases_fails(tmp_path):
    assert _verdict(tmp_path) == 1


@pytest.mark.parametrize("case, expected", [
    (_case("tests.test_constructors.TestQuadratureReference", "test_rows[1-fejer_kernel]",
           "tests/test_constructors.py"),
     "tests/test_constructors.py::TestQuadratureReference::test_rows[1-fejer_kernel]"),
    (_case("perfbench.tests.test_perfbench", "test_pool", "perfbench/tests/test_perfbench.py"),
     "perfbench/tests/test_perfbench.py::test_pool"),
    (CRITERION_10.format(PASSED), "tests/test_acceptance.py::test_criterion_10_log_factor_gap"),
])
def test_id_is_pytest_node_id(case, expected):
    assert check_tier1.test_id(ET.fromstring(case)) == expected
