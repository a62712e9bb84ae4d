"""Uncloneable encryption, its fake-pad denial algebra, and key exchange
built on top of it.

The plaintext-plus-tag string is one-time padded before any quantum
encoding, so the qubits only ever bind the adversary to the padded
codeword z. Whoever knows the pad can therefore reopen an observed
ciphertext to any plaintext of their choice by handing over the fake pad
(real padded string) XOR (fake plaintext-plus-tag); the syndrome and basis
key parts are revealed honestly and stay consistent with any record of z.

The authentication tag is a one-time polynomial hash over GF(2^s): the
message is split into s-bit blocks, evaluated as a polynomial at a secret
field point, and masked with a second secret; the key therefore holds 2s
bits. Zero message under the zero key gives the all-zero tag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import gf2
from .channel import ClassicalAuthChannel
from .gf2 import DualContainingPair
from .qcore import Bb84Qubits, measure, prepare_bb84
from .rng import RandomStream, _integer

__all__ = [
    "MacScheme",
    "UeParams",
    "UeKey",
    "DecryptionOutcome",
    "QkeFromUeResult",
    "mac_tag",
    "mac_verify",
    "generate_ue_key",
    "ue_encrypt",
    "ue_decrypt",
    "ue_fake",
    "fake_opens_consistently",
    "qke_from_ue",
    "ue_key_to_json",
    "ue_key_from_json",
]

_MAX_TAG_BITS = 32
MAX_MESSAGE_BITS = 1 << 16  # n + s per exchange; the largest in use is 14


# -- GF(2^s) arithmetic on ints ----------------------------------------------


def _clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod(a: int, f: int) -> int:
    fdeg = f.bit_length() - 1
    while a.bit_length() - 1 >= fdeg:
        a ^= f << (a.bit_length() - 1 - fdeg)
    return a


def _gf_mul(a: int, b: int, f: int) -> int:
    return _poly_mod(_clmul(a, b), f)


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _is_irreducible(f: int, s: int) -> bool:
    # Ben-Or: f has no factor of degree i <= s/2 iff gcd(x^(2^i) - x, f) == 1,
    # since x^(2^i) - x is the product of the irreducibles of degree dividing i
    power = 0b10
    for _ in range(s // 2):
        power = _gf_mul(power, power, f)
        if _poly_gcd(f, power ^ 0b10) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _irreducible(s: int) -> int:
    """Lowest-valued degree-s irreducible polynomial over GF(2)."""
    for low in range(1, 1 << s, 2):  # constant term must be 1
        f = (1 << s) | low
        if _is_irreducible(f, s):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {s} found")


# -- one-time MAC --------------------------------------------------------------


@dataclass(frozen=True)
class MacScheme:
    """One-time polynomial-evaluation MAC with s-bit tags and 2s-bit keys."""

    s: int
    modulus: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "s", _integer(self.s, "tag length"))
        if not 1 <= self.s <= _MAX_TAG_BITS:
            raise ValueError(f"tag length must lie in [1, {_MAX_TAG_BITS}]")
        object.__setattr__(self, "modulus", _irreducible(self.s))

    @property
    def key_bits(self) -> int:
        return 2 * self.s

    def blocks(self, message_bits: int) -> int:
        return (message_bits + 1 + self.s - 1) // self.s  # includes the 1-padding

    def forgery_bound(self, message_bits: int) -> float:
        return self.blocks(message_bits) / float(1 << self.s)


def mac_tag(scheme: MacScheme, key: np.ndarray, message: np.ndarray) -> np.ndarray:
    """Tag = poly-eval of the 1-padded message at the point half of the key,
    masked with the other half. Deterministic in (key, message).

    Each s-bit block is read most significant bit first. The key and the
    1-padded message sit in one buffer, whose first two s-bit blocks are
    the key halves; one product with the bit weights packs every block into
    an integer. The tag is unpacked by one shift.
    """
    key, message = gf2.bits(key), gf2.bits(message)
    if key.size != scheme.key_bits:
        raise ValueError(f"key must hold {scheme.key_bits} bits")
    s = scheme.s
    end = key.size + message.size
    padded = np.zeros(key.size + scheme.blocks(message.size) * s, dtype=np.uint8)
    padded[: key.size], padded[key.size : end] = key, message
    padded[end] = 1
    shifts = np.arange(s - 1, -1, -1, dtype=np.int64)
    point, mask, *blocks = (padded.reshape(-1, s) @ np.left_shift(1, shifts)).tolist()
    acc = 0
    for block in blocks:
        acc = _gf_mul(acc ^ block, point, scheme.modulus)
    return ((acc ^ mask) >> shifts & 1).astype(np.uint8)


def mac_verify(scheme: MacScheme, key: np.ndarray, message: np.ndarray, tag: np.ndarray) -> bool:
    """Whether tag is the tag of message under key; a tag that is not a bit
    vector raises ValueError."""
    return bool(np.array_equal(mac_tag(scheme, key, message), gf2.bits(tag)))


# -- UE parameters and keys -----------------------------------------------------


@dataclass(frozen=True)
class UeParams:
    """Message length n and tag length s over the stock per-block code pair
    (`gf2.default_dual_pair`)."""

    n: int
    s: int
    pair: DualContainingPair = field(init=False)
    scheme: MacScheme = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "message length"))
        object.__setattr__(self, "pair", gf2.default_dual_pair())
        object.__setattr__(self, "scheme", MacScheme(self.s))
        object.__setattr__(self, "s", self.scheme.s)  # the tag length as an int
        if self.n < 1:
            raise ValueError("message length must be positive")
        if self.n + self.s > MAX_MESSAGE_BITS:
            raise ValueError(
                f"n + s = {self.n + self.s} bits, more than the limit {MAX_MESSAGE_BITS}"
            )
        per_block = self.pair.payload_bits
        if (self.n + self.s) % per_block:
            raise ValueError(
                f"n + s = {self.n + self.s} must be a multiple of the"
                f" per-block payload {per_block}"
            )

    @property
    def blocks(self) -> int:
        return (self.n + self.s) // self.pair.payload_bits

    @property
    def block_length(self) -> int:
        return self.pair.c1.n

    @property
    def n_qubits(self) -> int:
        return self.blocks * self.block_length

    @property
    def syndrome_bits(self) -> int:
        return self.blocks * (self.pair.c1.n - self.pair.c1.k)


@dataclass(frozen=True)
class UeKey:
    """Pre-shared key: MAC key, one-time pad, per-block syndromes, bases;
    each a read-only copy, checked by `gf2.bits`."""

    k: np.ndarray
    e: np.ndarray
    c1_syn: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        names = ("k", "e", "c1_syn", "b")
        gf2._freeze(self, **{name: gf2.bits(getattr(self, name)) for name in names})

    def check_shape(self, params: UeParams) -> None:
        for name, size in _key_sizes(params).items():
            if getattr(self, name).size != size:
                raise ValueError(f"UE key field {name} must hold {size} bits")


def _key_sizes(params: UeParams) -> dict[str, int]:
    """Bits in each UE key field, in field order."""
    return {
        "k": params.scheme.key_bits,
        "e": params.n + params.s,
        "c1_syn": params.syndrome_bits,
        "b": params.n_qubits,
    }


def generate_ue_key(params: UeParams, rng: RandomStream) -> UeKey:
    """All four key pieces drawn uniformly at random, in field order."""
    return UeKey(**{name: rng.bits(size) for name, size in _key_sizes(params).items()})


def ue_key_to_json(params: UeParams, key: UeKey) -> str:
    key.check_shape(params)
    fields = {name: gf2.bits_to_hex(getattr(key, name)) for name in _key_sizes(params)}
    return json.dumps({"n": params.n, "s": params.s, **fields}, sort_keys=True)


def ue_key_from_json(params: UeParams, text: str) -> UeKey:
    """The key `ue_key_to_json` wrote for `params`; any other document
    raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("UE key material must be a JSON object")
    if data.get("n") != params.n or data.get("s") != params.s:
        raise ValueError("key material belongs to different parameters")
    sizes = _key_sizes(params)
    for name in sizes:
        if not isinstance(data.get(name), str):
            raise ValueError(f"UE key field {name} must be a hex string")
    return UeKey(**{name: gf2.hex_to_bits(data[name], size) for name, size in sizes.items()})


# -- encryption / decryption ----------------------------------------------------


def _padded_plaintext(params: UeParams, key: UeKey, message: np.ndarray) -> np.ndarray:
    tag = mac_tag(params.scheme, key.k, message)
    x = np.concatenate([message, tag])
    return x ^ key.e  # y = x XOR pad


def ue_encrypt(
    params: UeParams, key: UeKey, message: np.ndarray, rng: RandomStream
) -> Bb84Qubits:
    """Encode message||tag XOR pad into per-block random codewords, one qubit
    per codeword bit in the pre-shared basis sequence; the batch's `.bits`
    are the transmitted codeword."""
    message = gf2.bits(message)
    if message.size != params.n:
        raise ValueError(f"message must hold {params.n} bits")
    key.check_shape(params)
    y = _padded_plaintext(params, key, message).reshape(params.blocks, -1)
    c1_syn = key.c1_syn.reshape(params.blocks, -1)
    z = gf2.encode_ue_codeword(params.pair, c1_syn, y, rng).reshape(-1)
    return prepare_bb84(z, key.b)


@dataclass(frozen=True)
class DecryptionOutcome:
    accepted: bool
    message: np.ndarray | None
    measured: np.ndarray  # raw codeword measurements, before correction

    def __post_init__(self):
        if self.accepted and self.message is None:
            raise ValueError("accepted decryptions carry the message")


def _open(params: UeParams, key: UeKey, blocks: np.ndarray) -> tuple[np.ndarray, bool]:
    """(message, tag verifies) of one C1 codeword per row under `key`: the
    quotient checks give the padded string, the pad comes off, and the
    message and tag split apart."""
    x = ((blocks @ params.pair.quotient_checks.T) % 2).reshape(-1) ^ key.e
    message, tag = x[: params.n], x[params.n :]
    return message, mac_verify(params.scheme, key.k, message, tag)


def ue_decrypt(
    params: UeParams, key: UeKey, qubits: Bb84Qubits, rng: RandomStream
) -> DecryptionOutcome:
    """Measure in the key bases, correct relative to the key syndromes,
    apply the quotient checks, strip the pad and verify the tag.

    Measurement outcomes on tampered qubits are genuinely random, hence the
    explicit stream argument.
    """
    key.check_shape(params)
    if len(qubits) != params.n_qubits:
        raise ValueError(f"expected {params.n_qubits} qubits, got {len(qubits)}")
    z_meas = measure(qubits, key.b, rng)
    c1 = params.pair.c1
    blocks = z_meas.reshape(params.blocks, c1.n)
    rel_syn = gf2.syndrome(c1, blocks) ^ key.c1_syn.reshape(params.blocks, c1.n - c1.k)
    message, verified = _open(params, key, blocks ^ gf2.coset_leader(c1, rel_syn))
    return DecryptionOutcome(verified, message if verified else None, z_meas)


def ue_fake(
    params: UeParams, key: UeKey, message: np.ndarray, m_fake: np.ndarray, rng: RandomStream
) -> UeKey:
    """Fake key opening the sent ciphertext to m_fake.

    Picks a fresh MAC key, tags the fake message, and sets the fake pad to
    (real padded string) XOR (fake plaintext-plus-tag), so decrypting the
    observed codewords under the fake key yields m_fake with a valid tag.
    Syndrome and bases are revealed honestly. The sender needs her real
    message to form the padded string; nothing about the transmitted
    codeword itself is required.
    """
    message, m_fake = gf2.bits(message), gf2.bits(m_fake)
    if message.size != params.n or m_fake.size != params.n:
        raise ValueError(f"messages must hold {params.n} bits")
    key.check_shape(params)
    y = _padded_plaintext(params, key, message)
    k_fake = rng.bits(params.scheme.key_bits)
    tag_fake = mac_tag(params.scheme, k_fake, m_fake)
    x_fake = np.concatenate([m_fake, tag_fake])
    return UeKey(k=k_fake, e=y ^ x_fake, c1_syn=key.c1_syn, b=key.b)


def fake_opens_consistently(
    params: UeParams, claimed_key: UeKey, m_claimed: np.ndarray, z: np.ndarray
) -> bool:
    """Judge replay against a full record of the transmitted codeword.

    Even an adversary bound to every (codeword bit, basis) pair finds no
    inconsistency: the claimed key must reproduce the recorded codeword's
    syndromes, and decoding the record under the claimed key must yield the
    claimed message with a verifying tag.
    """
    m_claimed = gf2.bits(m_claimed)
    z = gf2.bits(z)
    claimed_key.check_shape(params)
    if z.size != params.n_qubits:
        raise ValueError("record length mismatch")
    blocks = z.reshape(params.blocks, params.block_length)
    if np.any(gf2.syndrome(params.pair.c1, blocks) ^ claimed_key.c1_syn.reshape(params.blocks, -1)):
        return False
    message, verified = _open(params, claimed_key, blocks)
    return verified and np.array_equal(message, m_claimed)


# -- key exchange from UE --------------------------------------------------------


@dataclass(frozen=True)
class QkeFromUeResult:
    accepted: bool
    key_alice: np.ndarray | None
    key_bob: np.ndarray | None
    transcript: tuple
    sent_codeword: np.ndarray  # what actually rode the quantum channel


def qke_from_ue(
    params: UeParams,
    key: UeKey,
    rng: RandomStream,
    interceptor=None,
) -> QkeFromUeResult:
    """Key exchange by sending a fresh random string under UE.

    The sender draws the future session key, ships it encrypted, and only
    announces the MAC key after the receiver confirms arrival; acceptance is
    announced back. An interceptor, when given, acts on the qubits in
    flight (tamper evidence comes from the tag check).
    """
    cchan = ClassicalAuthChannel()
    x_key = rng.substream("key-material").bits(params.n)
    qubits = ue_encrypt(params, key, x_key, rng.substream("encoder"))
    sent = qubits.bits
    if interceptor is not None:
        qubits, _ = interceptor.intercept(qubits, rng.substream("interceptor"))
    cchan._send("bob", "received", np.ones(1, dtype=np.uint8))
    cchan._send("alice", "mac-key", key.k)
    outcome = ue_decrypt(params, key, qubits, rng.substream("decoder"))
    cchan._send("bob", "valid", np.array([outcome.accepted], dtype=np.uint8))
    if not outcome.accepted:
        return QkeFromUeResult(False, None, None, cchan.log, sent)
    return QkeFromUeResult(True, x_key, outcome.message, cchan.log, sent)
