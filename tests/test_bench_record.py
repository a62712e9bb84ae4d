"""Unit tests of `tools/bench_record.py`'s summary arithmetic, its Tier-1
record and its row digests, without running a benchmark, a test suite or a
benchmark process."""

import importlib.util
import json
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


def _fake_child(monkeypatch, tool, digests):
    """Child runs that report `digests[tree name]`; returns the commands run."""
    commands = []

    def run(cmd, cwd, **kwargs):
        commands.append((cmd, Path(cwd).name, kwargs["env"]["PYTHONPATH"]))
        report = {"rows": 1500, "digest": digests[Path(cwd).name]}
        stdout = f"noise\n{json.dumps(report)}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(tool.subprocess, "run", run)
    return commands


def test_row_digests_run_the_fixed_size_child_in_each_tree(monkeypatch, tmp_path):
    tool = load_tool()
    trees = {"change": tmp_path / "change", "parent": tmp_path / "parent"}
    commands = _fake_child(monkeypatch, tool, {"change": "ab", "parent": "ab"})
    got = tool.row_digests(trees, "deny-short")
    assert got == {"ops": 1500, "master_seed": "7", "match": True,
                   "change": {"rows": 1500, "digest": "ab"},
                   "parent": {"rows": 1500, "digest": "ab"}}
    for (cmd, tree, pythonpath), name in zip(commands, ["change", "parent"]):
        assert cmd[1:] == ["perfbench/child.py", "--workload", "deny-short", "--master-seed", "7",
                           "--seconds", "0", "--ops", "1500"]
        assert tree == name and pythonpath == str(trees[name] / "src")


def test_row_digests_report_a_mismatch(monkeypatch, tmp_path):
    tool = load_tool()
    trees = {"change": tmp_path / "change", "parent": tmp_path / "parent"}
    _fake_child(monkeypatch, tool, {"change": "ab", "parent": "cd"})
    assert tool.row_digests(trees, "bb84-long")["match"] is False


def test_row_digests_without_parent_have_no_comparison(monkeypatch, tmp_path):
    tool = load_tool()
    _fake_child(monkeypatch, tool, {"change": "ab"})
    got = tool.row_digests({"change": tmp_path / "change"}, "ue-teleport")
    assert "match" not in got and got["change"]["digest"] == "ab"
