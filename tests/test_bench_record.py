"""Unit tests of `tools/bench_record.py`'s summary arithmetic and its Tier-1
record, without running a benchmark or a test suite."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spread_of_one_value_is_that_value():
    assert load_tool().spread([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "iqr": 0.0}


def test_spread_of_several_values_uses_inclusive_quartiles():
    got = load_tool().spread([5.0, 1.0, 3.0, 2.0, 4.0])
    assert got == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}


def _runs(metric, parent, change):
    return {"change": [{metric: v} for v in change], "parent": [{metric: v} for v in parent]}


def test_summarize_higher_is_better():
    runs = _runs("ops_per_s", parent=[100, 100, 100, 100], change=[120, 130, 90, 125])
    got = load_tool().summarize(runs, {"ops_per_s": "higher"})["ops_per_s"]
    assert got["ratio"] == pytest.approx(122.5 / 100)
    assert got["change_better_pairs"] == 3 and got["pairs"] == 4
    assert got["parent"]["median"] == 100 and got["change"]["median"] == 122.5


def test_summarize_lower_is_better():
    runs = _runs("op_ms_p50", parent=[2.0, 2.0, 2.0], change=[1.0, 2.0, 3.0])
    got = load_tool().summarize(runs, {"op_ms_p50": "lower"})["op_ms_p50"]
    assert got["ratio"] == pytest.approx(1.0)
    assert got["change_better_pairs"] == 1 and got["pairs"] == 3  # a tie is not a win


def test_summarize_without_parent_has_no_comparison():
    got = load_tool().summarize({"change": [{"setup_s": 0.2}]}, {"setup_s": "lower"})["setup_s"]
    assert set(got) == {"change"}


def _fake_pytest(monkeypatch, tool, stdout, returncode):
    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr="")

    monkeypatch.setattr(tool.subprocess, "run", run)


def test_tier1_reads_the_summary_and_slowest_tests(monkeypatch, tmp_path):
    tool = load_tool()
    stdout = ("....\n============ slowest 5 durations ============\n"
              "2.50s call     tests/test_a.py::test_x\n"
              "0.10s setup    tests/test_a.py::test_y\n"
              "3 passed, 1 failed in 4.20s\n")
    _fake_pytest(monkeypatch, tool, stdout, 1)
    got = tool.tier1(tmp_path)
    assert got["exit_code"] == 1 and got["summary"] == "3 passed, 1 failed in 4.20s"
    assert got["counts"] == {"passed": 3, "failed": 1}
    assert got["slowest"] == [{"seconds": 2.5, "test": "tests/test_a.py::test_x"}]


def test_tier1_records_an_empty_summary_when_pytest_prints_nothing(monkeypatch, tmp_path):
    tool = load_tool()
    _fake_pytest(monkeypatch, tool, "", 4)
    got = tool.tier1(tmp_path)
    assert got["exit_code"] == 4 and got["summary"] == ""
    assert got["counts"] == {} and got["slowest"] == []
