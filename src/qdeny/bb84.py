"""Prepare-and-measure BB84 with code-based information reconciliation.

A session sends (4 + delta) * n qubits, sifts on matching bases, spends
half of 2n retained bits on error estimation and turns the remaining n
payload bits into key material: per code-length block, the announced
correction word is the payload XOR a random C1 codeword, and the final key
is the label of that codeword's coset modulo C2. Check-bit comparison
discloses positions and values on the classical channel.

All announcements use fixed-size encodings (index sets as full-length
masks) so a session's classical bit count is a function of the
configuration alone; the covert layer relies on that.

The classical tail is private and shared with
`distill.qke_over_teleportation`: `_announce_bases`, `_split_check` and
`_check_and_reconcile` (check values, verdict, correction). Each protocol
keeps its own positions and abort rule. The steps announce the protocols'
own uint8 bits through the channel's trusted `_send`, unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2, qcore
from .channel import ClassicalAuthChannel, Message, QubitChannel, transmit
from .gf2 import NestedCodePair
from .rng import RandomStream, _integer

__all__ = [
    "Bb84Config",
    "Bb84Session",
    "SessionResult",
    "Bb84Outcome",
    "SiftShortfall",
    "run_bb84",
    "run_session",
    "sift",
    "block_keys",
    "extract_key",
    "required_slots",
]

DEFAULT_ERROR_THRESHOLD = 0.11  # conventional BB84 abort point
MAX_ATTEMPTS = 100  # run_session resamples a session at most this often
MAX_QUBIT_COUNT = 1 << 20  # qubits per session; the largest in use is 3150 (n=700)


class SiftShortfall(RuntimeError):
    """Fewer than 2n bases matched; the whole session is resampled."""


@dataclass(frozen=True)
class Bb84Config:
    """n payload bits (one half of the retained bits), oversampled by delta."""

    n: int
    delta: float = 0.5
    error_threshold: float = DEFAULT_ERROR_THRESHOLD
    codes: NestedCodePair = field(default_factory=gf2.default_nested_pair)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.delta < float("inf"):  # nan fails both comparisons
            raise ValueError(f"delta must be finite and non-negative, not {self.delta}")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValueError("error threshold must lie in [0, 1]")
        if self.n % self.codes.c1.n:
            raise ValueError(
                f"n = {self.n} must be a multiple of the code block length {self.codes.c1.n}"
            )
        qubits = np.ceil((4 + self.delta) * self.n)  # a float, inf for a huge delta
        if qubits > MAX_QUBIT_COUNT:
            raise ValueError(f"session needs {qubits:.0f} qubits, over the limit {MAX_QUBIT_COUNT}")

    @property
    def qubit_count(self) -> int:
        return int(np.ceil((4 + self.delta) * self.n))

    @property
    def blocks(self) -> int:
        return self.n // self.codes.c1.n

    @property
    def key_bits(self) -> int:
        return self.blocks * self.codes.key_bits


@dataclass(frozen=True)
class SessionResult:
    """What one party holds alone: its session key (None on abort) and its
    secret values. The public values are the session's transcript."""

    session_key: np.ndarray | None
    private_values: dict[str, np.ndarray]


@dataclass(frozen=True)
class Bb84Session:
    """Full internal record of one protocol run, for experiments and replay."""

    config: Bb84Config
    a: np.ndarray  # Alice's raw bits
    b: np.ndarray  # Alice's bases
    b_prime: np.ndarray  # Bob's bases
    a_prime: np.ndarray  # Bob's outcomes
    sifted: np.ndarray  # indices with matching bases
    check_positions: np.ndarray
    payload_positions: np.ndarray
    u: np.ndarray | None  # Alice's random codeword(s), None on abort
    estimated_error: float
    transcript: tuple[Message, ...]
    eve_record: object | None


@dataclass(frozen=True)
class Bb84Outcome:
    aborted: bool
    alice: SessionResult
    bob: SessionResult
    session: Bb84Session

    @property
    def keys_agree(self) -> bool:
        if self.aborted:
            return False
        return bool(np.array_equal(self.alice.session_key, self.bob.session_key))


def sift(b, b_prime) -> np.ndarray:
    """Indices where preparation and measurement bases agree; both base
    strings are read with `gf2.bits`."""
    return _matching(gf2.bits(b), gf2.bits(b_prime))


def _matching(b: np.ndarray, b_prime: np.ndarray) -> np.ndarray:
    """`sift` of two uint8 base strings, unchecked."""
    if b.size != b_prime.size:
        raise ValueError("both base strings must have equal length")
    return np.where(b == b_prime)[0]


def _announce_bases(cchan: ClassicalAuthChannel, b: np.ndarray, sifted: np.ndarray) -> None:
    """Alice announces her bases and Bob the mask of matching ones."""
    cchan._send("alice", "bases", b.copy())
    cchan._send("bob", "sift-mask", _mask(b.size, sifted))


def _split_check(
    positions: np.ndarray, n_check: int, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """n_check random positions for error estimation, and the rest as
    payload. `positions` must be sorted and distinct, as `sift` returns
    them; both parts then come out sorted."""
    picked = rng.choice_distinct(positions.size, n_check)
    rest = np.ones(positions.size, dtype=bool)
    rest[picked] = False
    return positions[picked], positions[rest]


def _check_and_reconcile(
    cchan: ClassicalAuthChannel, pair: NestedCodePair, a: np.ndarray, a_prime: np.ndarray,
    check: np.ndarray, payload: np.ndarray, max_error: float, rng: RandomStream,
) -> tuple[float, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Both parties disclose their check values and Alice announces the
    verdict: accept iff errors / check.size (0 with nothing checked) is at
    most max_error. On acceptance Alice draws a random C1 codeword u per
    whole block of payload and announces the correction u XOR her payload;
    a payload under one block is kept as the raw keys, with u None.
    Returns (error rate, u, Alice's key, Bob's key), the last three None on
    abort."""
    cchan._send("alice", "check-values-alice", a[check])
    cchan._send("bob", "check-values-bob", a_prime[check])
    errors = int(np.sum(a[check] ^ a_prime[check]))
    error_rate = errors / check.size if check.size else 0.0
    ok = error_rate <= max_error
    cchan._send("alice", "verdict", np.array([ok], dtype=np.uint8))
    if not ok:
        return error_rate, None, None, None
    v_alice, v_bob = a[payload], a_prime[payload]
    usable = payload.size - payload.size % pair.c1.n
    if not usable:
        return error_rate, None, v_alice, v_bob
    u = gf2.sample_codeword(pair.c1, rng, usable // pair.c1.n).reshape(-1)
    cchan._send("alice", "correction", u ^ v_alice[:usable])
    return (error_rate, u, *extract_key(pair, v_alice[:usable], v_bob[:usable], u))


def block_keys(pair: NestedCodePair, words: np.ndarray) -> np.ndarray:
    """Key bits of a run of code-length blocks, concatenated in block order:
    each block is decoded to its nearest C1 codeword and labeled by its
    coset modulo C2."""
    blocks = gf2.decode_to_codeword(pair.c1, np.asarray(words).reshape(-1, pair.c1.n))
    return gf2.key_from_coset(pair, blocks).reshape(-1)


def extract_key(
    pair: NestedCodePair, v_alice: np.ndarray, v_bob: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coset-label keys for both sides, block by block.

    Alice's key labels u directly; Bob removes the announced correction
    u XOR v_alice from his noisy payload and decodes to the nearest C1
    codeword before labeling. Keys agree whenever each block's error stays
    within the code's correction radius.
    """
    parts = [np.asarray(x) for x in (v_alice, v_bob, u)]
    if not (parts[0].size == parts[1].size == parts[2].size) or parts[0].size % pair.c1.n:
        raise ValueError("payload length must be a shared multiple of the block length")
    v_alice, v_bob, u = gf2.bits(np.concatenate(parts)).reshape(3, -1)  # one check for all three
    k_a = gf2.key_from_coset(pair, u.reshape(-1, pair.c1.n)).reshape(-1)
    return k_a, block_keys(pair, v_bob ^ u ^ v_alice)


def _mask(length: int, positions: np.ndarray) -> np.ndarray:
    m = np.zeros(length, dtype=np.uint8)
    m[positions] = 1
    return m


def required_slots(config: Bb84Config) -> int:
    """Covert slots for one session: qubits plus every classical bit."""
    q, n = config.qubit_count, config.n
    return q + (4 * q + 3 * n + 1)


def run_bb84(
    config: Bb84Config,
    qchan: QubitChannel,
    cchan: ClassicalAuthChannel,
    rng_a: RandomStream,
    rng_b: RandomStream,
    rng_env: RandomStream,
) -> Bb84Outcome:
    """One protocol attempt. Raises SiftShortfall if under 2n bases match.

    The base strings decide the shortfall alone, so both are drawn first and
    an attempt that falls short raises before any qubit is prepared: the
    interceptor never runs, `rng_env` is never drawn and `cchan` stays
    empty. Each stream keeps its draw order: `rng_a` draws a, then b;
    `rng_b` draws b_prime, then the measurement uniforms; `rng_env` feeds
    the interceptor, then the noise.
    """
    q_count, n = config.qubit_count, config.n

    a = rng_a.bits(q_count)
    b = rng_a.bits(q_count)
    b_prime = rng_b.bits(q_count)
    sifted = sift(b, b_prime)
    if sifted.size < 2 * n:
        raise SiftShortfall(f"only {sifted.size} sifted bits, need {2 * n}")

    delivered, eve_record = transmit(qchan, qcore.prepare_bb84(a, b), rng_env)
    a_prime = qcore.measure(delivered, b_prime, rng_b)
    _announce_bases(cchan, b, sifted)

    retained = sifted[rng_a.choice_distinct(sifted.size, 2 * n)]
    check_positions, payload_positions = _split_check(retained, n, rng_a)
    cchan._send("alice", "check-mask", _mask(q_count, check_positions))
    cchan._send("alice", "payload-mask", _mask(q_count, payload_positions))

    estimated_error, u, k_a, k_b = _check_and_reconcile(
        cchan, config.codes, a, a_prime, check_positions, payload_positions,
        config.error_threshold, rng_a,
    )
    alice_private = {"raw_bits": a, "bases": b}
    if u is not None:
        alice_private["codeword"] = u
    session = Bb84Session(
        config, a, b, b_prime, a_prime, sifted, check_positions, payload_positions,
        u, estimated_error, cchan.log, eve_record,
    )
    alice = SessionResult(k_a, alice_private)
    bob = SessionResult(k_b, {"outcomes": a_prime, "bases": b_prime})
    return Bb84Outcome(k_a is None, alice, bob, session)


def run_session(
    config: Bb84Config,
    qchan: QubitChannel,
    rng: RandomStream,
    retry_abort: bool = False,
) -> Bb84Outcome:
    """Run until a full session completes, resampling on sift shortfall.

    With retry_abort, error-threshold aborts are also resampled; use this in
    experiments that need a completed key (detection-rate studies with an
    interceptor present).
    """
    for attempt in range(MAX_ATTEMPTS):
        cchan = ClassicalAuthChannel()
        try:
            outcome = run_bb84(
                config,
                qchan,
                cchan,
                rng.substream("alice", attempt),
                rng.substream("bob", attempt),
                rng.substream("environment", attempt),
            )
        except SiftShortfall:
            continue
        if outcome.aborted and retry_abort:
            continue
        return outcome
    raise RuntimeError(f"no usable session after {MAX_ATTEMPTS} attempts")
