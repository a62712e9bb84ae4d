"""Inputs that once hung or crashed: each must now exit 2 with a one-line
message, checked in a subprocess under a time limit so a regression fails
instead of stalling the suite, or in process where the input fails before
any experiment runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdeny import bb84, channel, cli, denial, gf2, ue

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 60


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=TIMEOUT_S, env=env
    )


def _assert_config_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), proc.stderr


@pytest.mark.parametrize("params", [{"N": 0, "eta": 0}, {"N": 4, "eta": 2, "flips": 5}])
def test_attack_deny_unreachable_flips_exit_2(tmp_path, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "attack-deny", "params": params}))
    _assert_config_error(_python("-m", "qdeny.cli", "attack-deny", "--config", str(cfg),
                                 "--trials", "100"))


@pytest.mark.parametrize("call, message", [
    ("d(4, 2, 5, 100, 1)", "ValueError: cannot flip 5 of 4"),
    ("d(10, 2, 1, 0, 1)", "ValueError: need at least one trial"),
])
def test_detection_probability_rejects_unrunnable_input(call, message):
    proc = _python("-c", f"from qdeny.denial import detection_probability as d; {call}")
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith(message)


@pytest.mark.parametrize("experiment, trials", [("covert", "5"), ("dcqke", "50")])
def test_game_trials_below_100_exit_2(experiment, trials):
    _assert_config_error(_python("-m", "qdeny.cli", experiment, "--trials", trials))


@pytest.mark.parametrize("experiment", ["covert", "dcqke"])
def test_seed_search_against_strong_generator_exit_2(tmp_path, experiment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "params": {"warden": "seed-search"}}))
    _assert_config_error(_python("-m", "qdeny.cli", experiment, "--config", str(cfg)))


@pytest.mark.parametrize("data", [
    {"experiment": "bb84", "params": [14, 0.5]},
    {"experiment": "bb84", "params": "n=14"},
    ["experiment", "bb84"],
])
def test_config_not_an_object_exit_2(tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    _assert_config_error(_python("-m", "qdeny.cli", "bb84", "--config", str(cfg), "--trials", "1"))


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.6, "pi"])
def test_distill_theta_outside_open_interval_exit_2(tmp_path, theta):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "distill", "params": {"theta": theta}}))
    _assert_config_error(_python("-m", "qdeny.cli", "distill", "--config", str(cfg),
                                 "--trials", "10"))


@pytest.mark.parametrize("theta", [1e-160, 1e-200])
def test_distill_theta_with_subnormal_success_probability_exit_2(tmp_path, theta):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "distill", "params": {"theta": theta}}))
    _assert_config_error(_python("-m", "qdeny.cli", "distill", "--config", str(cfg),
                                 "--trials", "10"))


def test_distill_tiny_theta_with_normal_success_probability_exit_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "distill", "params": {"theta": 1e-150}}))
    proc = _python("-m", "qdeny.cli", "distill", "--config", str(cfg), "--trials", "10")
    assert proc.returncode == 3, proc.stderr
    assert "no pair survived the filter" in proc.stderr


@pytest.mark.parametrize("experiment, config", [
    ("bb84", '{"experiment": "bb84", "params": {"n": null}}'),
    ("ue", '{"experiment": "ue", "params": {"n": [1]}}'),
    ("distill", '{"experiment": "distill", "params": {"theta": null}}'),
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "seed": [1]}}}'),
    ("bb84", '{"experiment": "bb84", "params": {"n": 1e400}}'),
    ("bb84", '{"experiment": "bb84", "params": {"delta": 1e400}}'),
    ("bb84", '{"experiment": "bb84", "trials": null}'),
    ("bb84", '{"experiment": "bb84", "seed": 5}'),
    ("bb84", '{"experiment": "bb84", "params": {"c1_file": 5, "c2_file": 5}}'),
    ("covert", '{"experiment": "covert", "params": {"n_used": -5}}'),
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "seed": 70000}}}'),
    # values that would otherwise run rounded or coerced
    ("covert", '{"experiment": "covert", "params": {"n_used": 64.5}}'),
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "seed": 3.9}}}'),
    ("bb84", '{"experiment": "bb84", "trials": 20.7}'),
    ("bb84", '{"experiment": "bb84", "params": {"flip_probability": true}}'),
    # a real key takes only a JSON number, never a string
    ("bb84", '{"experiment": "bb84", "params": {"flip_probability": "0.05"}}'),
    ("bb84", '{"experiment": "bb84", "params": {"delta": "0.5"}}'),
    ("bb84", '{"experiment": "bb84", "params": {"error_threshold": "0.11"}}'),
    ("covert", '{"experiment": "covert", "params": {"p_dark": "0.05"}}'),
    ("dcqke", '{"experiment": "dcqke", "params": {"p_signal": "0.08"}}'),
    ("distill", '{"experiment": "distill", "params": {"theta": "0.5"}}'),
    # a prng object holds only "kind" and "seed", and a seed string only hex digits
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "sede": 5}}}'),
    ("dcqke", '{"experiment": "dcqke", "params": {"prng": {"kind": "strong", "bits": 16}}}'),
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "seed": "1_0"}}}'),
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "seed": "0x10"}}}'),
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "seed": " 10"}}}'),
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "seed": "+10"}}}'),
    ("covert", '{"experiment": "covert", "params": {"prng": {"kind": "weak", "seed": ""}}}'),
])
def test_bad_config_value_exit_2(tmp_path, capsys, experiment, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    _assert_main_config_error(capsys, [experiment, "--config", str(cfg)])


def test_real_key_takes_a_json_integer_as_a_float(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "bb84", "params": {"flip_probability": 0, "delta": 1}}')
    assert cli.main(["bb84", "--config", str(cfg), "--trials", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2:4] == ["1.0", "0.0"]  # delta, flip_probability


def test_prng_seed_hex_string_equals_its_integer(tmp_path, capsys):
    outputs = []
    for seed in ("1F", "1f", 31):
        cfg = tmp_path / "cfg.json"
        params = {"prng": {"kind": "weak", "seed": seed}}
        cfg.write_text(json.dumps({"experiment": "covert", "params": params}))
        assert cli.main(["covert", "--config", str(cfg), "--trials", "100"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("experiment, params, trials, limit", [
    ("bb84", {"delta": 1e9}, None, bb84.MAX_QUBIT_COUNT),  # 1.4e10 qubits per session
    ("bb84", {"n": 7 * 10**6}, None, bb84.MAX_QUBIT_COUNT),
    ("covert", {"n_slots": 10**9}, None, channel.MAX_SLOTS),
    # a 65536 x 10**5 uint32 schedule table would take 26 GB
    ("dcqke", {"prng": {"kind": "weak"}, "warden": "seed-search", "n_slots": 200000,
               "n_used": 10**5}, None, channel.MAX_WEAK_TABLE_SLOTS),
    ("bb84", {}, 10**12, cli.MAX_TRIALS),
    ("distill", {}, cli.MAX_TRIALS + 1, cli.MAX_TRIALS),
    # each block of draws would be 20000 x 10**9 bytes
    ("attack-deny", {"N": 10**9}, None, denial.MAX_DETECTION_QUBITS),
    ("ue", {"n": 10**9}, None, ue.MAX_MESSAGE_BITS),
])
def test_sizes_over_their_limit_exit_2_before_running(tmp_path, capsys, experiment, params,
                                                       trials, limit):
    cfg = tmp_path / "cfg.json"
    data = {"experiment": experiment, "params": params}
    if trials is not None:
        data["trials"] = trials
    cfg.write_text(json.dumps(data))
    _assert_main_config_error(capsys, [experiment, "--config", str(cfg)], names=limit)


def test_trials_flag_over_its_limit_exit_2(capsys):
    _assert_main_config_error(capsys, ["covert", "--trials", str(10**12)], names=cli.MAX_TRIALS)


def _assert_main_config_error(capsys, argv, names=None) -> None:
    """Exit 2 with one `config error:` line, which names `names` (a file or
    a limit) when given."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), err
    if names is not None:
        assert str(names) in lines[0], err


def test_out_in_missing_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    _assert_main_config_error(capsys, ["distill", "--trials", "10", "--out", str(out)])


def test_config_is_a_directory_exit_2(tmp_path, capsys):
    _assert_main_config_error(capsys, ["bb84", "--config", str(tmp_path)])


def test_parameters_at_the_config_top_level_exit_2(tmp_path, capsys):
    # read as a config with no params, this once ran the strong defaults and exited 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "covert", "prng": {"kind": "weak"}, "warden": "seed-search",
        "n_slots": 16384, "n_used": 182, "p_dark": 0.3, "p_signal": 0.95,
    }))
    _assert_main_config_error(capsys, ["covert", "--config", str(cfg)], names="'n_slots'")


@pytest.mark.parametrize("name", ["missing.json", "latin1.json"])
def test_config_unreadable_exit_2(tmp_path, capsys, name):
    (tmp_path / "latin1.json").write_bytes(b'{"experiment": "bb84", "params": {"n": "\xe9"}}')
    path = tmp_path / name
    _assert_main_config_error(capsys, ["bb84", "--config", str(path)], names=path)


@pytest.mark.parametrize("c1, c2", [
    ("dir", "dir"), ("missing.txt", "missing.txt"), ("empty.txt", "empty.txt"),
    ("hamming.txt", "latin1.txt"),
])
def test_code_file_unusable_exit_2(tmp_path, capsys, c1, c2):
    (tmp_path / "dir").mkdir()
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "hamming.txt").write_text("7 4\n1110000\n1001100\n0101010\n1101001\n")
    (tmp_path / "latin1.txt").write_bytes(b"7 1\n\xff\xff\xff\xff\xff\xff\xff\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bb84", "params": {
        "c1_file": str(tmp_path / c1), "c2_file": str(tmp_path / c2)}}))
    # an empty file decodes, and the parse error that follows names no file
    named = None if c1 == "empty.txt" else tmp_path / c2
    _assert_main_config_error(capsys, ["bb84", "--config", str(cfg), "--trials", "1"], names=named)


def test_code_file_over_the_table_cap_exit_2_before_elimination(tmp_path, capsys, monkeypatch):
    # a 17-bit code is rejected from its header, before rref runs in cubic time
    def no_elimination(m):
        raise AssertionError("gf2.rref ran on a code over the table cap")

    monkeypatch.setattr(gf2, "rref", no_elimination)
    (tmp_path / "c17.txt").write_text("17 1\n" + "1" * 17 + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bb84", "params": {
        "c1_file": str(tmp_path / "c17.txt"), "c2_file": str(tmp_path / "c17.txt")}}))
    _assert_main_config_error(capsys, ["bb84", "--config", str(cfg), "--trials", "1"],
                              names="capped at 16-bit words")


@pytest.mark.parametrize("setup", ["latin1", "directory", "long-field"])
def test_report_over_unreadable_csv_exit_2(tmp_path, capsys, setup):
    if setup == "latin1":
        (tmp_path / "a.csv").write_bytes(b"experiment,n\nbb84,\xe9\n")
    elif setup == "directory":
        (tmp_path / "d.csv").mkdir()
    else:
        (tmp_path / "a.csv").write_text("experiment,n\nbb84," + "7" * 131073 + "\n")
    (tmp_path / "b.csv").write_text("experiment,n\nbb84,14\n")
    bad = tmp_path / ("d.csv" if setup == "directory" else "a.csv")
    _assert_main_config_error(capsys, ["report", "--out", str(tmp_path)], names=bad)
