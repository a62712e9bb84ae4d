"""Batch experiment runner.

Each subcommand runs one experiment family and emits a self-describing
result table (CSV or JSON): every row carries the seed and the full
parameter set, so any line of output can be reproduced byte-for-byte by
rerunning with the same seed. All randomness flows from --seed; nothing
reads the clock or the OS entropy pool.

Exit codes: 0 success, 2 configuration error, 3 experiment abort.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import bb84 as bb84_mod
from . import dcqke as dcqke_mod
from . import denial as denial_mod
from . import distill as distill_mod
from . import ue as ue_mod
from .channel import QubitChannel, TimeBinChannel
from .rng import RandomStream

__all__ = ["main", "entrypoint"]

DEFAULT_SEED_HEX = "00000000000000000000000000000001"

EXPERIMENTS = ("bb84", "attack-deny", "ue", "covert", "dcqke", "distill")


class ConfigError(Exception):
    pass


class ExperimentAbort(Exception):
    pass


def _parse_seed(text) -> int:
    clean = text.strip().lower() if isinstance(text, str) else ""
    if len(clean) != 32 or set(clean) - set("0123456789abcdef"):
        raise ConfigError(f"seed must be 32 hex characters, got {text!r}")
    return int(clean, 16)


def _file_name(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError("expected a file name")
    return value


def _prng(value) -> dict:
    if not isinstance(value, dict) or "kind" not in value:
        raise ValueError('expected an object like {"kind": "strong"}')
    seed = value.get("seed")
    if seed is not None:
        seed = int(seed, 16) if isinstance(seed, str) else int(seed)
    return {"kind": value["kind"], "seed": seed}


# How each parameter is read from JSON; keys not listed pass through as given.
_PARAM_TYPES = {
    **dict.fromkeys(("n", "s", "N", "eta", "flips", "n_slots"), int),
    **dict.fromkeys(
        ("delta", "flip_probability", "error_threshold", "p_dark", "p_signal", "theta"), float
    ),
    "n_used": lambda value: None if value is None else int(value),
    "c1_file": _file_name,
    "c2_file": _file_name,
    "prng": _prng,
}


def _merge_params(defaults: dict, config_params: dict, experiment: str) -> dict:
    """Defaults overridden by the config, each value converted to its type once."""
    params = dict(defaults)
    for key, value in config_params.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for experiment {experiment!r}")
        params[key] = value
    for key, convert in _PARAM_TYPES.items():
        if key in params:
            params[key] = _convert(key, params[key], convert)
    return params


def _convert(key: str, value, convert):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value {value!r} for config key {key!r}: {exc}")


def _read_text(path: str) -> str:
    """A UTF-8 input file's text; a file that does not decode is a
    configuration error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}")


def _load_config(path: str, experiment: str) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "experiment" not in data:
        raise ConfigError("missing required config key 'experiment'")
    if data["experiment"] != experiment:
        raise ConfigError(
            f"config is for experiment {data['experiment']!r}, not {experiment!r}"
        )
    if not isinstance(data.get("params", {}), dict):
        raise ConfigError("config key 'params' must be an object")
    return data


# -- experiment runners ----------------------------------------------------------
# each returns (columns, rows, detail); every row repeats seed and parameters


def _load_code_pair(params: dict):
    """Optional override of the toy codes from text-format definition files."""
    from . import gf2

    c1_file, c2_file = params["c1_file"], params["c2_file"]
    if (c1_file is None) != (c2_file is None):
        raise ConfigError("c1_file and c2_file must be given together")
    if c1_file is None:
        return gf2.default_nested_pair()
    c1 = gf2.load_code(_read_text(c1_file))
    c2 = gf2.load_code(_read_text(c2_file))
    return gf2.NestedCodePair(c1=c1, c2=c2)


def _run_bb84(params: dict, seed: int, trials: int):
    codes = _load_code_pair(params)
    cfg = bb84_mod.Bb84Config(
        n=params["n"], delta=params["delta"], error_threshold=params["error_threshold"], codes=codes
    )
    qchan = QubitChannel(flip_probability=params["flip_probability"])
    master = RandomStream(seed)
    agree = aborts = 0
    err_sum = 0.0
    last = None
    for i in range(trials):
        outcome = bb84_mod.run_session(cfg, qchan, master.substream("session", i))
        err_sum += outcome.session.estimated_error
        if outcome.aborted:
            aborts += 1
        elif outcome.keys_agree:
            agree += 1
        last = outcome
    completed = trials - aborts
    if completed == 0:
        raise ExperimentAbort("every session aborted; no key material produced")
    columns = [
        "experiment", "n", "delta", "flip_probability", "error_threshold",
        "trials", "agreement_rate", "abort_rate", "mean_error", "seed",
    ]
    row = [
        "bb84", cfg.n, cfg.delta, qchan.flip_probability, cfg.error_threshold,
        trials, (agree / completed if completed else 0.0), aborts / trials,
        err_sum / trials, f"{seed:032x}",
    ]
    detail = None
    if last is not None and not last.aborted:
        detail = {
            "last_session": {
                "session_key": "".join(str(int(b)) for b in last.alice.session_key),
                "party_id": last.alice.party_id,
                "public_values": [
                    {"sender": m.sender, "label": m.label, "bits": "".join(str(int(x)) for x in m.bits)}
                    for m in last.alice.public_values
                ],
                "private_value_names": sorted(last.alice.private_values),
            }
        }
    return columns, [row], detail


def _run_attack_deny(params: dict, seed: int, trials: int):
    est = denial_mod.detection_probability(
        n_qubits=params["N"], n_decoys=params["eta"], flips=params["flips"],
        trials=trials, master_seed=seed,
    )
    columns = ["experiment", "N", "eta", "flips", "trials",
               "estimate", "ci_low", "ci_high", "seed"]
    row = ["attack-deny", params["N"], params["eta"], params["flips"],
           trials, est.rate, est.ci_low, est.ci_high, f"{seed:032x}"]
    return columns, [row], None


def _run_ue(params: dict, seed: int, trials: int):
    ue_params = ue_mod.UeParams(n=params["n"], s=params["s"])
    master = RandomStream(seed)
    accepted = 0
    first_key_json = None
    for i in range(trials):
        r = master.substream("run", i)
        key = ue_mod.generate_ue_key(ue_params, r.substream("key"))
        if first_key_json is None:
            first_key_json = ue_mod.ue_key_to_json(ue_params, key)
        result = ue_mod.qke_from_ue(ue_params, key, r.substream("session"))
        accepted += int(result.accepted and np.array_equal(result.key_alice, result.key_bob))
    columns = ["experiment", "n", "s", "trials", "accept_rate", "seed"]
    row = ["ue", ue_params.n, ue_params.s, trials, accepted / trials, f"{seed:032x}"]
    detail = {"preshared_key": json.loads(first_key_json)} if first_key_json else None
    return columns, [row], detail


def _covert_config(params: dict) -> dcqke_mod.CovertQkeConfig:
    prng = dcqke_mod.PrngSpec(**params["prng"])
    timebin = TimeBinChannel(
        n_slots=params["n_slots"], p_dark=params["p_dark"], p_signal=params["p_signal"]
    )
    bb = bb84_mod.Bb84Config(n=params["n"], delta=params["delta"])
    return dcqke_mod.CovertQkeConfig(bb84=bb, timebin=timebin, prng=prng, n_used=params["n_used"])


def _pick_warden(name: str, config: dcqke_mod.CovertQkeConfig):
    if name == "count":
        return dcqke_mod.CountTestWarden(config)
    if name == "seed-search":
        return dcqke_mod.SeedSearchWarden(config)
    raise ConfigError(f"unknown warden {name!r}")


_COVERT_DEFAULTS = {
    "n": 7, "delta": 0.5, "n_slots": 4096, "p_dark": 0.05, "p_signal": 0.08,
    "n_used": 64, "prng": {"kind": "strong"}, "warden": "count",
}


def _run_covert_game(experiment: str, params: dict, seed: int, trials: int):
    """The covert-detection game ("covert") or the deniability game of the
    dual-session construction ("dcqke"), against the configured warden."""
    config = _covert_config(params)
    if experiment == "dcqke":
        config.require_session_capacity()
    warden = _pick_warden(params["warden"], config)
    if experiment == "dcqke":
        est = dcqke_mod.deniability_experiment(config, warden, trials, seed)
    else:
        est = dcqke_mod.covert_game(config, trials, seed, warden=warden)
    columns = ["experiment", "prng", "n_slots", "n_used", "p_dark", "p_signal",
               "trials", "advantage", "ci_low", "ci_high", "seed"]
    row = [experiment, config.prng.kind, config.timebin.n_slots, config.effective_n_used,
           config.timebin.p_dark, config.timebin.p_signal, trials,
           est.advantage, est.ci_low, est.ci_high, f"{seed:032x}"]
    return columns, [row], None


def _run_distill(params: dict, seed: int, trials: int):
    theta = distill_mod.PartialPair(params["theta"]).theta
    _, report = distill_mod.distill_batch(trials, theta, RandomStream(seed).substream("batch"))
    if report.succeeded == 0:
        raise ExperimentAbort("no pair survived the filter")
    columns = ["experiment", "theta", "n", "succeeded", "rate", "bound",
               "min_fidelity", "seed"]
    row = ["distill", theta, report.attempted, report.succeeded, report.rate,
           report.rate_bound, report.output_fidelity_min, f"{seed:032x}"]
    return columns, [row], None


_RUNNERS = {
    "bb84": (_run_bb84, {"n": 14, "delta": 0.5, "flip_probability": 0.0,
                         "error_threshold": 0.11, "c1_file": None, "c2_file": None}),
    "attack-deny": (_run_attack_deny, {"N": 512, "eta": 32, "flips": 1}),
    "ue": (_run_ue, {"n": 4, "s": 4}),
    "covert": (partial(_run_covert_game, "covert"), _COVERT_DEFAULTS),
    "dcqke": (partial(_run_covert_game, "dcqke"), {**_COVERT_DEFAULTS, "n_used": None}),
    "distill": (_run_distill, {"theta": float(np.pi / 6)}),
}


# -- output -----------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _render_json(experiment, columns, rows, detail) -> str:
    payload = {
        "experiment": experiment,
        "columns": list(columns),
        "rows": [[_format_cell(v) for v in row] for row in rows],
    }
    if detail is not None:
        payload["detail"] = detail
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _run_report(out_dir: str) -> int:
    """Aggregate prior CSVs in a directory: one mean row per experiment."""
    directory = Path(out_dir)
    if not directory.is_dir():
        raise ConfigError(f"report needs an existing directory, got {out_dir!r}")
    grouped: dict[str, list[dict]] = {}
    numeric: dict[str, list[str]] = {}
    for path in sorted(directory.glob("*.csv")):
        if path.name == "report.csv":
            continue
        try:
            with path.open(encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"{path}: {exc}")
        for row in rows:
            name = row.get("experiment")
            if name:
                grouped.setdefault(name, []).append(row)
    if not grouped:
        raise ConfigError(f"no experiment CSV rows found under {out_dir!r}")
    for name, rows in grouped.items():
        cols = []
        for col in rows[0]:
            if col in ("experiment", "seed"):
                continue
            try:
                for r in rows:
                    float(r[col])
            except (ValueError, KeyError, TypeError):
                continue
            cols.append(col)
        numeric[name] = cols
    all_cols = sorted({c for cols in numeric.values() for c in cols})
    columns = ["experiment", "rows"] + [f"mean_{c}" for c in all_cols]
    out_rows = []
    for name in sorted(grouped):
        rows = grouped[name]
        row = [name, len(rows)]
        for col in all_cols:
            if col in numeric[name]:
                row.append(sum(float(r[col]) for r in rows) / len(rows))
            else:
                row.append("")
        out_rows.append(row)
    (directory / "report.csv").write_text(_render_csv(columns, out_rows))
    return 0


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdeny",
        description="seeded experiments on deniable and covert key exchange",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS + ("report",):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", default=None, help="128-bit hex seed")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None, help="output file (report: directory)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.experiment == "report":
            if args.out is None:
                raise ConfigError("report requires --out <directory>")
            return _run_report(args.out)
        runner, defaults = _RUNNERS[args.experiment]
        config_params: dict = {}
        seed_hex: str | None = None
        trials: int | None = None
        if args.config:
            data = _load_config(args.config, args.experiment)
            config_params = data.get("params", {})
            seed_hex = data.get("seed")
            if "trials" in data:
                trials = _convert("trials", data["trials"], int)
        if args.seed is not None:  # flags override the config file
            seed_hex = args.seed
        if args.trials is not None:
            trials = args.trials
        seed_hex = seed_hex or DEFAULT_SEED_HEX
        trials = 1000 if trials is None else trials
        params = _merge_params(defaults, config_params, args.experiment)
        seed = _parse_seed(seed_hex)
        if trials < 1:
            raise ConfigError("trials must be positive")
        columns, rows, detail = runner(params, seed, trials)
        if args.format == "csv":
            _emit(_render_csv(columns, rows), args.out)
        else:
            _emit(_render_json(args.experiment, columns, rows, detail), args.out)
        return 0
    except (ConfigError, ValueError, OverflowError, OSError, csv.Error) as exc:
        # a rejected parameter, or a file that cannot be read, decoded, parsed or
        # written, is a configuration error (OverflowError: e.g. an infinite delta)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentAbort, RuntimeError) as exc:
        print(f"experiment abort: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
