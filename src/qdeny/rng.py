"""Deterministic randomness plumbing shared by every simulation.

All random events in this package flow from a single 128-bit master seed
through named substreams, which makes every experiment a pure function of
its configuration and seed.

Two constructions live here:

``RandomStream``
    General-purpose stream backed by numpy's Philox counter-based bit
    generator. Substreams are derived by hashing (parent key, label, index)
    with SHA-256; streams under distinct labels are independent for every
    statistical purpose in this package. No stream reads the OS entropy
    pool or hashes a ``SeedSequence``: each generator is handed the
    stream's own 128 bits as its Philox key.

``CounterModePrng``
    The covert-schedule expander. Block ``j`` of the keystream is
    ``SHA-256(key_be16 || j_be8)``, consumed as big-endian 32-bit words;
    integers below a bound come from rejection sampling on those words.
    It is keyed either with a 128-bit seed (the strong instance) or a
    16-bit seed (the deliberately breakable instance used to demonstrate
    covertness collapsing together with the generator).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

__all__ = ["RandomStream", "CounterModePrng", "WEAK_SEED_BITS", "STRONG_SEED_BITS"]

STRONG_SEED_BITS = 128
WEAK_SEED_BITS = 16

_DOMAIN = b"qdeny.rng.v1"
_WORD = (1 << 64) - 1


def _derive_key(parent: bytes, label: str, index: int) -> bytes:
    h = hashlib.sha256()
    h.update(_DOMAIN)
    h.update(parent)
    h.update(label.encode("utf-8"))
    h.update(int(index).to_bytes(8, "big"))
    return h.digest()[:16]


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Seeds `np.random.Philox` with a given 128-bit key: Philox asks its
    seed sequence for two uint64 words and uses them as the key, low word
    first, with counter 0, which is `np.random.Philox(key=key)`. Unlike
    `Philox(key=...)` it builds no `SeedSequence`, so nothing reads OS
    entropy or runs the seed hash."""

    def __init__(self, key: int):
        self._words = np.array([key & _WORD, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError(f"a Philox key is two uint64 words, not {n_words} of {dtype}")
        return self._words


class RandomStream:
    """Seeded stream of random values with labeled substream derivation.

    Identical (seed, label, index) paths always produce identical values.
    Instances are cheap; experiments derive one substream per trial.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, bytes):
            if len(seed) != 16:
                raise ValueError("byte seed must be exactly 16 bytes")
            self._key = seed
        else:
            seed = int(seed)
            if seed < 0 or seed >= 1 << 128:
                raise ValueError("integer seed must fit in 128 bits")
            self._key = seed.to_bytes(16, "big")
        key = int.from_bytes(self._key, "big")
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(key)))

    def substream(self, label: str, index: int = 0) -> "RandomStream":
        """Independent child stream for (label, index)."""
        return RandomStream(_derive_key(self._key, label, index))

    # -- draws -------------------------------------------------------------

    def random(self) -> float:
        """One uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(int(n))

    def bit(self) -> int:
        return int(self._gen.integers(0, 2))

    def bits(self, n: int) -> np.ndarray:
        """Uniform bit vector of length n (dtype uint8)."""
        return self._gen.integers(0, 2, size=int(n), dtype=np.uint8)

    def choice_distinct(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), sorted ascending."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        picked = self._gen.choice(n, size=k, replace=False)
        return np.sort(picked)

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy Generator, for bulk vectorized draws."""
        return self._gen


class CounterModePrng:
    """Keyed counter-mode keystream over SHA-256.

    block(j) = SHA-256(key as 16 bytes big-endian || j as 8 bytes big-endian)

    Each block yields eight big-endian uint32 words, consumed in order.
    ``key_bits`` only bounds the accepted key range; the construction is
    otherwise identical for the strong and weak instances.
    """

    def __init__(self, key: int, key_bits: int = STRONG_SEED_BITS):
        key = int(key)
        if key_bits not in (WEAK_SEED_BITS, STRONG_SEED_BITS):
            raise ValueError("key_bits must be 16 or 128")
        if key < 0 or key >= 1 << key_bits:
            raise ValueError(f"key out of range for {key_bits}-bit instance")
        self.key = key
        self.key_bits = key_bits
        self._key_bytes = key.to_bytes(16, "big")
        self._counter = 0
        self._buffer = np.empty(0, dtype=np.uint32)

    def _refill(self, n_words: int) -> None:
        n_blocks = (n_words - self._buffer.size + 7) // 8
        counters = range(self._counter, self._counter + n_blocks)
        fresh = _words(_blocks([self._key_bytes], counters), 1)[0]
        self._counter += n_blocks
        self._buffer = np.concatenate([self._buffer, fresh])

    def words(self, n_words: int) -> np.ndarray:
        """Next n_words uint32 keystream words."""
        if self._buffer.size < n_words:
            self._refill(n_words)
        out, self._buffer = self._buffer[:n_words], self._buffer[n_words:]
        return out

    def sample_distinct(self, n_slots: int, n_used: int) -> np.ndarray:
        """n_used distinct slot indices in [0, n_slots), sorted.

        Uniform words are rejection-filtered below the largest multiple of
        n_slots, reduced mod n_slots, and deduplicated in draw order.
        """
        if n_used > n_slots:
            raise ValueError(f"cannot schedule {n_used} of {n_slots} slots")
        if n_used == n_slots:
            return np.arange(n_slots, dtype=np.int64)
        limit = _accept_limit(n_slots)
        accepted = np.empty(0, dtype=np.int64)
        while True:
            u = self.words(_refill_size(n_used - accepted.size))
            keep = u < limit
            accepted = np.concatenate([accepted, (u[keep] % n_slots).astype(np.int64)])
            _, first = np.unique(accepted, return_index=True)
            if first.size >= n_used:
                ordered = accepted[np.sort(first)]
                return np.sort(ordered[:n_used])


def _distinct_rows(seeds: Sequence[int], n_slots: int, n_used: int) -> np.ndarray:
    """`CounterModePrng(seed, 16).sample_distinct(n_slots, n_used)` for every
    seed, one int32 row per seed, from one batch of keystream words.

    sample_distinct returns the first n_used distinct accepted words in
    keystream order, sorted, however its refills are chunked. Here every
    seed's first draw is hashed at once; a row-wise sort of
    value * width + position puts each value's first occurrence at the head
    of its run, the n_used earliest first occurrences are kept, and they come
    out in ascending order. Rows the first draw cannot fill fall back to the
    scalar path.
    """
    if n_slots > 1 << 31:
        raise ValueError("int32 rows hold at most 2**31 slots")
    if n_used == n_slots or n_used == 0:
        return np.tile(np.arange(n_used, dtype=np.int32), (len(seeds), 1))
    width = _refill_size(n_used)
    key_bytes = [seed.to_bytes(16, "big") for seed in seeds]
    u = _words(_blocks(key_bytes, range((width + 7) // 8)), len(seeds))[:, :width]
    values = np.where(u < _accept_limit(n_slots), u % n_slots, n_slots).astype(np.int64)
    order = np.sort(values * width + np.arange(width), axis=1)
    values, position = np.divmod(order, width)
    first = np.empty(values.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
    first &= values < n_slots
    first_position = np.where(first, position, width)
    cutoff = np.partition(first_position, n_used - 1, axis=1)[:, n_used - 1]
    keep = first_position <= cutoff[:, None]
    full = cutoff < width
    out = np.empty((len(seeds), n_used), dtype=np.int32)
    out[full] = values[keep & full[:, None]].reshape(-1, n_used)
    for row in np.flatnonzero(~full):
        out[row] = CounterModePrng(seeds[row], WEAK_SEED_BITS).sample_distinct(n_slots, n_used)
    return out

def _accept_limit(n_slots: int) -> int:
    """Words at or above this bound are rejected, so `word % n_slots` is uniform."""
    return (1 << 32) - ((1 << 32) % n_slots)


def _refill_size(shortfall: int) -> int:
    """Words sample_distinct draws while `shortfall` = n_used minus the words
    accepted so far; its first draw is `_refill_size(n_used)`."""
    return max(16, int(1.2 * shortfall) + 8)


def _blocks(key_bytes: list[bytes], counters: range) -> bytes:
    """Keystream blocks `counters` of every key, key-major."""
    suffixes = [j.to_bytes(8, "big") for j in counters]
    sha256 = hashlib.sha256
    return b"".join([sha256(key + c).digest() for key in key_bytes for c in suffixes])


def _words(blocks: bytes, n_keys: int) -> np.ndarray:
    """Big-endian uint32 words of `_blocks` output, one row per key."""
    return np.frombuffer(blocks, dtype=">u4").astype(np.uint32).reshape(n_keys, -1)
