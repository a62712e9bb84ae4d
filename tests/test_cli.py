"""CLI behavior: determinism, exit codes, config handling, output formats."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdeny.cli import main

SEED = "000000000000000000000000000000ab"


def run(tmp_path, *args):
    return main(list(args))


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(["attack-deny", "--seed", SEED, "--trials", "2000",
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_reruns_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["distill", "--seed", SEED, "--trials", "3000",
                         "--format", "json", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_changes_estimate(self, tmp_path):
        outs = []
        for seed in (SEED, "000000000000000000000000000000ac"):
            out = tmp_path / f"{seed}.csv"
            main(["attack-deny", "--seed", seed, "--trials", "2000", "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] != outs[1]


class TestOutputs:
    def test_csv_row_is_self_describing(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["attack-deny", "--seed", SEED, "--trials", "1500", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        row = rows[0]
        assert row["seed"] == SEED
        assert {"experiment", "N", "eta", "flips", "trials",
                "estimate", "ci_low", "ci_high"} <= set(row)

    def test_json_matches_csv_field_for_field(self, tmp_path):
        out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
        args = ["covert", "--seed", SEED, "--trials", "300"]
        assert main(args + ["--out", str(out_csv)]) == 0
        assert main(args + ["--format", "json", "--out", str(out_json)]) == 0
        csv_rows = list(csv.reader(out_csv.open()))
        payload = json.loads(out_json.read_text())
        assert payload["columns"] == csv_rows[0]
        assert payload["rows"] == csv_rows[1:]

    def test_stdout_when_no_out(self, capsys):
        assert main(["distill", "--seed", SEED, "--trials", "500"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("experiment,theta,n,")

    def test_ue_json_carries_key_material(self, tmp_path):
        out = tmp_path / "ue.json"
        assert main(["ue", "--seed", SEED, "--trials", "20", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        key = payload["detail"]["preshared_key"]
        assert set(key) == {"n", "s", "k", "e", "c1_syn", "b"}
        int(key["e"], 16)  # hex fields parse


class TestConfigHandling:
    def test_config_file_supplies_params(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "attack-deny",
            "params": {"N": 128, "eta": 16, "flips": 2},
            "seed": SEED,
            "trials": 1200,
        }))
        out = tmp_path / "out.csv"
        assert main(["attack-deny", "--config", str(cfg), "--out", str(out)]) == 0
        row = next(csv.DictReader(out.open()))
        assert row["N"] == "128" and row["eta"] == "16" and row["flips"] == "2"
        assert row["trials"] == "1200" and row["seed"] == SEED

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "attack-deny", "params": {"N": 64, "eta": 8, "flips": 1},
            "trials": 5000, "seed": "0" * 32,
        }))
        out = tmp_path / "out.csv"
        assert main(["attack-deny", "--config", str(cfg), "--trials", "800",
                     "--seed", SEED, "--out", str(out)]) == 0
        row = next(csv.DictReader(out.open()))
        assert row["trials"] == "800" and row["seed"] == SEED

    def test_missing_experiment_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"params": {"N": 64}}))
        assert main(["attack-deny", "--config", str(cfg)]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_unknown_param_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "attack-deny", "params": {"NN": 1}}))
        assert main(["attack-deny", "--config", str(cfg)]) == 2
        assert "NN" in capsys.readouterr().err

    def test_wrong_experiment_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "distill"}))
        assert main(["attack-deny", "--config", str(cfg)]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        assert main(["attack-deny", "--config", str(cfg)]) == 2

    def test_bad_seed_exits_2(self):
        assert main(["attack-deny", "--seed", "zz", "--trials", "200"]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "abc"], "qdeny bb84: error: argument --trials: invalid int value"),
        (["--bogus"], "qdeny bb84: error: unrecognized arguments: --bogus"),
        (["--format", "xml"], "qdeny bb84: error: argument --format: invalid choice"),
    ])
    def test_flag_error_is_one_line(self, flags, message):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "qdeny.cli", "bb84", *flags],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), proc.stderr
        assert "usage:" not in proc.stderr and proc.stdout == ""

    def test_invalid_param_value_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "bb84", "params": {"n": 10}}))
        assert main(["bb84", "--config", str(cfg), "--trials", "5"]) == 2

    def test_code_files_via_text_format(self, tmp_path):
        # n = 7 with explicit Hamming / repetition definitions
        hamming = ("7 4\n"
                   "1110000\n"
                   "1001100\n"
                   "0101010\n"
                   "1101001\n")
        repetition = "7 1\n1111111\n"
        (tmp_path / "c1.txt").write_text(hamming)
        (tmp_path / "c2.txt").write_text(repetition)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "bb84",
            "params": {"n": 7, "c1_file": str(tmp_path / "c1.txt"),
                       "c2_file": str(tmp_path / "c2.txt")},
            "trials": 20,
        }))
        out = tmp_path / "out.csv"
        assert main(["bb84", "--config", str(cfg), "--seed", SEED, "--out", str(out)]) == 0
        row = next(csv.DictReader(out.open()))
        assert row["agreement_rate"] == "1.0"

    def test_code_file_pair_required_together(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "bb84", "params": {"c1_file": "only-one.txt"},
        }))
        assert main(["bb84", "--config", str(cfg), "--trials", "5"]) == 2


class TestAbortExit:
    def test_all_aborted_sessions_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "noisy.json"
        cfg.write_text(json.dumps({
            "experiment": "bb84",
            "params": {"n": 70, "flip_probability": 0.5},
            "trials": 5,
        }))
        assert main(["bb84", "--config", str(cfg), "--seed", SEED]) == 3
        assert "abort" in capsys.readouterr().err

    def test_filter_starvation_exit_3(self, tmp_path):
        cfg = tmp_path / "cold.json"
        cfg.write_text(json.dumps({
            "experiment": "distill", "params": {"theta": 0.001}, "trials": 100,
        }))
        assert main(["distill", "--config", str(cfg), "--seed", SEED]) == 3


class TestReport:
    def test_aggregates_one_row_per_experiment(self, tmp_path):
        for i, trials in enumerate(("1500", "2500")):
            main(["attack-deny", "--seed", SEED, "--trials", trials,
                  "--out", str(tmp_path / f"ad{i}.csv")])
        main(["distill", "--seed", SEED, "--trials", "2000",
              "--out", str(tmp_path / "d.csv")])
        assert main(["report", "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader((tmp_path / "report.csv").open()))
        by_name = {r["experiment"]: r for r in rows}
        assert set(by_name) == {"attack-deny", "distill"}
        assert by_name["attack-deny"]["rows"] == "2"
        mean_trials = float(by_name["attack-deny"]["mean_trials"])
        assert mean_trials == 2000.0

    @pytest.mark.parametrize("flags", [
        ["--format", "json"], ["--seed", "zz"], ["--trials", "-5"], ["--config", "missing.json"],
    ])
    def test_report_takes_out_only(self, tmp_path, capsys, flags):
        # each of these flags was ignored: exit 0 and report.csv written
        main(["distill", "--seed", SEED, "--trials", "10", "--out", str(tmp_path / "d.csv")])
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path), *flags]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("qdeny report: error: unrecognized arguments")
        assert not (tmp_path / "report.csv").exists()

    def test_report_requires_out(self):
        assert main(["report"]) == 2

    def test_report_empty_dir_exits_2(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2
