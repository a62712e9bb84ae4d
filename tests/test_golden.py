"""Golden digests of seeded protocol outputs.

`tests/golden/digests.json` pins a SHA-256 digest per case over the seeded
outputs of BB84 sessions, UE key exchange and the UE codeword sampler, key
exchange over teleportation (and all of Bob's outcomes in it), the weak
generator's schedule tables and the seed-search warden's guesses, and the
`--format json` output of every CLI experiment at the default seed, so a
refactor can show that it changed no seeded output. The distillation cases pin text instead of a digest: the
`repr` of every `DistillReport` field and the `distill` CLI's CSV row.
A declared change to a random stream's layout regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

which prints one `name: old → new` line per case that moved, added or
dropped, and the count of cases left unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qdeny import bb84, dcqke, denial, distill, gf2, ue
from qdeny.cli import main as cli_main
from qdeny.channel import QubitChannel, TimeBinChannel, weak_schedule_table
from qdeny.rng import RandomStream

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
MASTER_SEED = 0x601DE7
SESSIONS = 5
UE_RUNS = 20
WARDEN_TRIALS = 40
UE_BLOCKS = 200
DISTILL_PAIRS = 4000
CLI_TRIALS = {"bb84": 20, "attack-deny": 20000, "ue": 50, "covert": 200, "dcqke": 100,
              "distill": 2000}


class _Digest:
    """SHA-256 over labelled values; arrays hash by shape and integer value."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, value) -> None:
        if value is None:
            data = b"none"
        else:
            arr = np.asarray(value).astype(np.int64)
            data = repr(arr.shape).encode() + arr.tobytes()
        self._h.update(label.encode() + b"=" + data + b";")

    def add_transcript(self, messages) -> None:
        for m in messages:
            self.add(f"msg:{m.sender}:{m.label}", m.bits)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _add_outcome(d: _Digest, i: int, out: bb84.Bb84Outcome) -> None:
    s = out.session
    d.add(f"{i}.aborted", int(out.aborted))
    for name in ("a", "b", "b_prime", "a_prime"):
        d.add(f"{i}.{name}", getattr(s, name))
    d.add(f"{i}.key_alice", out.alice.session_key)
    d.add(f"{i}.key_bob", out.bob.session_key)
    rec = s.eve_record
    for name in ("positions", "bases", "outcomes"):
        d.add(f"{i}.eve.{name}", None if rec is None else getattr(rec, name))


def _bb84_long_sessions():
    config = bb84.Bb84Config(n=700)
    qchan = QubitChannel(flip_probability=0.05)
    master = RandomStream(MASTER_SEED).substream("bb84-n700")
    for i in range(SESSIONS):
        yield bb84.run_session(config, qchan, master.substream("session", i))


def _bb84_long() -> str:
    d = _Digest()
    for i, out in enumerate(_bb84_long_sessions()):
        _add_outcome(d, i, out)
    return d.hexdigest()


def _bb84_decoy_trials():
    """(outcome, fake view) of the n=14 denial sessions under 8 decoys."""
    protocol = denial.NaiveBb84DenialProtocol(bb84.Bb84Config(n=14), n_decoys=8, flips=1)
    master = RandomStream(MASTER_SEED).substream("bb84-n14-decoys")
    for i in range(SESSIONS):
        r = master.substream("trial", i)
        out = protocol.run_session(r.substream("session"))
        yield out, protocol.fake(out, r.substream("fake"))


def _bb84_decoys() -> str:
    d = _Digest()
    for i, (out, fake) in enumerate(_bb84_decoy_trials()):
        _add_outcome(d, i, out)
        d.add(f"{i}.fake_key", fake.key)
        d.add(f"{i}.fake_codeword", fake.randomness["codeword"])
    return d.hexdigest()


def _transcripts(outcomes) -> str:
    """Every classical message of each session, in order."""
    d = _Digest()
    for i, out in enumerate(outcomes):
        d.add(f"{i}.messages", len(out.session.transcript))
        d.add_transcript(out.session.transcript)
    return d.hexdigest()


def _fake_randomness_names() -> str:
    d = _Digest()
    for i, (_, fake) in enumerate(_bb84_decoy_trials()):
        for name in sorted(fake.randomness):
            d.add(f"{i}.randomness:{name}", None)
    return d.hexdigest()


def _ue(interceptor) -> str:
    params = ue.UeParams(4, 4)
    master = RandomStream(MASTER_SEED).substream("ue")
    d = _Digest()
    for i in range(UE_RUNS):
        r = master.substream("run", i)
        key = ue.generate_ue_key(params, r.substream("key"))
        res = ue.qke_from_ue(params, key, r.substream("session"), interceptor=interceptor)
        d.add(f"{i}.accepted", int(res.accepted))
        d.add(f"{i}.key_alice", res.key_alice)
        d.add(f"{i}.key_bob", res.key_bob)
        d.add(f"{i}.sent", res.sent_codeword)
        d.add_transcript(res.transcript)
    return d.hexdigest()


def _teleport() -> str:
    codes = gf2.default_nested_pair()
    master = RandomStream(MASTER_SEED).substream("teleport")
    d = _Digest()
    for i in range(SESSIONS):
        key_a, key_b, transcript = distill.qke_over_teleportation(
            14, math.pi / 6, master.substream("run", i), codes=codes
        )
        d.add(f"{i}.key_a", key_a)
        d.add(f"{i}.key_b", key_b)
        d.add_transcript(transcript)
    return d.hexdigest()


def _teleport_bob_outcomes() -> str:
    """All m of Bob's outcomes in each teleported session of `_teleport`,
    caught where `bb84._check_and_reconcile` receives them. Keys and
    transcript show only the matched-basis outcomes, which are certain on
    this channel; this case also sees the ones his uniforms decide."""
    outcomes = []
    check_and_reconcile = bb84._check_and_reconcile

    def catching(cchan, pair, a, a_prime, *rest):
        outcomes.append(a_prime.copy())
        return check_and_reconcile(cchan, pair, a, a_prime, *rest)

    codes = gf2.default_nested_pair()
    master = RandomStream(MASTER_SEED).substream("teleport")
    bb84._check_and_reconcile = catching
    try:
        for i in range(SESSIONS):
            distill.qke_over_teleportation(14, math.pi / 6, master.substream("run", i), codes=codes)
    finally:
        bb84._check_and_reconcile = check_and_reconcile
    assert len(outcomes) == SESSIONS
    d = _Digest()
    for i, a_prime in enumerate(outcomes):
        d.add(f"{i}.bob_outcomes", a_prime)
    return d.hexdigest()


def _even_weight_over_hamming() -> gf2.DualContainingPair:
    """C1 the [7,6] even-weight code, C2 Hamming[7,4]: three payload bits
    and a three-dimensional nullspace per block."""
    h = np.ones((1, 7), dtype=np.uint8)
    even = gf2.BinaryLinearCode(n=7, k=6, generator=gf2.nullspace(h), parity_check=h)
    return gf2.DualContainingPair(c1=even, c2=gf2.hamming74())


def _ue_codewords() -> str:
    """UE_BLOCKS single-block encodings, each from its own stream."""
    pair = _even_weight_over_hamming()
    master = RandomStream(MASTER_SEED).substream("ue-codeword")
    d = _Digest()
    for i in range(UE_BLOCKS):
        r = master.substream("block", i)
        c1_syn = r.bits(pair.c1.n - pair.c1.k)
        y = r.bits(pair.payload_bits)
        d.add(f"{i}.z", gf2.encode_ue_codeword(pair, c1_syn, y, r.substream("encoder")))
    return d.hexdigest()


def _distill_report(theta: float) -> str:
    rng = RandomStream(MASTER_SEED).substream("distill", int(theta * 1e6))
    report = distill.distill_batch(DISTILL_PAIRS, theta, rng)
    return " ".join(
        f"{name}={getattr(report, name)!r}"
        for name in ("attempted", "succeeded", "output_fidelity_min", "rate_bound", "rate")
    )


def _distill_cli_row(theta: float) -> str:
    """The `distill` CSV data row at the default seed and 2000 pairs."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "distill.json"
        config.write_text(json.dumps({"experiment": "distill", "params": {"theta": theta}}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["distill", "--config", str(config), "--trials", "2000"]) == 0
    return out.getvalue().splitlines()[1]


def _cli_json(experiment: str) -> str:
    """Digest of the `--format json` output (rows and `detail`) at the default seed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args = [experiment, "--trials", str(CLI_TRIALS[experiment]), "--format", "json"]
        assert cli_main(args) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _weak_table(n_slots: int, n_used: int) -> str:
    table = weak_schedule_table(n_slots, n_used)
    return hashlib.sha256(repr((table.dtype.str, table.shape)).encode() + table.tobytes()).hexdigest()


class _Enough(Exception):
    """Ends a game after WARDEN_TRIALS decisions; games insist on 100 trials."""


class _RecordingWarden:
    """Seed-search warden that records its first WARDEN_TRIALS guesses."""

    def __init__(self, config):
        self._warden = dcqke.SeedSearchWarden(config)
        self.digest = _Digest()
        self.n = 0

    def decide(self, observation, rng):
        if self.n == WARDEN_TRIALS:
            raise _Enough
        guess = self._warden.decide(observation, rng)
        window = getattr(observation, "covert_window", observation)
        self.digest.add(f"{self.n}.count", window.count)
        self.digest.add(f"{self.n}.guess", guess)
        self.n += 1
        return guess


def _seed_search(game: str) -> str:
    config = dcqke.CovertQkeConfig(
        bb84.Bb84Config(n=7, delta=0.5), TimeBinChannel(16384, 0.3, 0.95), dcqke.PrngSpec("weak")
    )
    warden = _RecordingWarden(config)
    try:
        if game == "covert":
            dcqke.covert_game(config, 100, MASTER_SEED, warden=warden)
        else:
            dcqke.deniability_experiment(config, warden, 100, MASTER_SEED)
    except _Enough:
        pass
    assert warden.n == WARDEN_TRIALS
    return warden.digest.hexdigest()


CASES = {
    "bb84_n700_flip0.05": _bb84_long,
    "bb84_n14_decoys8": _bb84_decoys,
    "bb84_n700_flip0.05_transcript": lambda: _transcripts(_bb84_long_sessions()),
    "bb84_n14_decoys8_transcript": lambda: _transcripts(out for out, _ in _bb84_decoy_trials()),
    "bb84_n14_decoys8_fake_randomness_names": _fake_randomness_names,
    "ue_4_4": lambda: _ue(None),
    "ue_4_4_eve1.0": lambda: _ue(denial.EvePolicy(1.0)),
    "teleport_m14_codes": _teleport,
    "teleport_m14_bob_outcomes": _teleport_bob_outcomes,
    "ue_codeword_even7_hamming7": _ue_codewords,
    "distill_report_pi_6": lambda: _distill_report(math.pi / 6),
    "distill_report_pi_4": lambda: _distill_report(math.pi / 4),
    "distill_report_1.2": lambda: _distill_report(1.2),
    "distill_report_0.05": lambda: _distill_report(0.05),
    "distill_cli_row_1.2": lambda: _distill_cli_row(1.2),
    "distill_cli_row_0.05": lambda: _distill_cli_row(0.05),
    "weak_table_16384_182": lambda: _weak_table(16384, 182),
    "weak_table_2048_24": lambda: _weak_table(2048, 24),
    "weak_table_1000_37": lambda: _weak_table(1000, 37),
    "seed_search_covert_40": lambda: _seed_search("covert"),
    "seed_search_deniability_40": lambda: _seed_search("deniability"),
    **{f"cli_json_{name}": partial(_cli_json, name) for name in CLI_TRIALS},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    golden = json.loads(GOLDEN.read_text())
    assert CASES[case]() == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = {name: compute() for name, compute in CASES.items()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    for name in sorted(old.keys() | digests.keys()):
        if old.get(name) != digests.get(name):
            print(f"{name}: {old.get(name, '(added)')} → {digests.get(name, '(dropped)')}")
    print(f"{sum(old.get(name) == d for name, d in digests.items())} unchanged")
