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
    ``SHA-256(key_be16 || j_be8)``, read as big-endian 32-bit words, so the
    keystream is a pure function of the key; integers below a bound come
    from rejection sampling on those words. A schedule is the sorted array
    that ``sample_distinct`` returns. The key is any 128-bit integer; the
    deliberately breakable instance, used to demonstrate covertness
    collapsing together with the generator, is the same construction keyed
    with a 16-bit seed (``dcqke.PrngSpec`` bounds and draws it).
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

__all__ = ["RandomStream", "CounterModePrng", "WEAK_SEED_BITS", "STRONG_SEED_BITS"]

STRONG_SEED_BITS = 128
WEAK_SEED_BITS = 16

_DOMAIN = b"qdeny.rng.v1"
_WORD = (1 << 64) - 1
# Philox's starting counter, built once and read-only. Passed as an array,
# numpy only reads it; left as None, numpy converts the integer 0 to an
# array on every construction, over a third of the cost of a Philox.
_COUNTER_0 = np.zeros(4, dtype=np.uint64)
_COUNTER_0.flags.writeable = False


def _integer(value, name: str) -> int:
    """`value` as a Python int through `operator.index`: integers and numpy
    integers pass, and a bool, a float, a string or any other object raises
    ValueError rather than being read as 0 or 1, truncated or parsed."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {type(value).__name__}")


def _derive_key(parent: bytes, label: str, index: int) -> bytes:
    try:
        suffix = index.to_bytes(8, "big")
    except OverflowError:
        raise ValueError(f"substream index must lie in [0, 2**64), not {index}") from None
    h = hashlib.sha256()
    h.update(_DOMAIN)
    h.update(parent)
    h.update(label.encode("utf-8"))
    h.update(suffix)
    return h.digest()[:16]


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Seeds `np.random.Philox` with a given 128-bit key: Philox asks its
    seed sequence for two uint64 words and uses them as the key, low word
    first, which is `np.random.Philox(key=key)` once the counter is 0.
    Unlike `Philox(key=...)` it builds no `SeedSequence`, so nothing reads
    OS entropy or runs the seed hash. `RandomStream` passes that zero
    counter as the ready array `_COUNTER_0`, which numpy reads without
    converting."""

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
            seed = _integer(seed, "seed")
            if seed < 0 or seed >= 1 << 128:
                raise ValueError("integer seed must fit in 128 bits")
            self._key = seed.to_bytes(16, "big")
        key = int.from_bytes(self._key, "big")
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=_COUNTER_0))

    def substream(self, label: str, index: int = 0) -> "RandomStream":
        """Independent child stream for (label, index), an integer index in [0, 2**64)."""
        return RandomStream(_derive_key(self._key, label, _integer(index, "substream index")))

    # -- draws -------------------------------------------------------------

    def random(self) -> float:
        """One uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(_integer(n, "uniform count"))

    def bit(self) -> int:
        return int(self._gen.integers(0, 2))

    def bits(self, n: int) -> np.ndarray:
        """Uniform bit vector of length n (dtype uint8)."""
        return self._gen.integers(0, 2, size=_integer(n, "bit count"), dtype=np.uint8)

    def bit_rows(self, count: int, k: int) -> np.ndarray:
        """(count x k) uint8 matrix whose rows are the bits that `count`
        successive `bits(k)` calls would return, from one draw; the stream
        is left where those calls would leave it.

        Each uint8 bit takes one byte of a 32-bit Philox word, and a call
        drops the unused bytes of its last word. So one draw of rows padded
        to `4 * ceil(k / 4)` bits, cut to their first k, equals the
        row-by-row draws. `tests/test_rng.py` guards this against numpy
        changing its bounded-uint8 buffering.
        """
        width = -(-k // 4) * 4
        return self.bits(width * count).reshape(count, width)[:, :k]

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

    Each block yields eight big-endian uint32 words. The keystream is a pure
    function of the key: every call reads it from block 0. Any key in
    [0, 2**128) is accepted; a weak seed is such a key below 2**16.
    """

    def __init__(self, key: int):
        key = _integer(key, "key")
        if key < 0 or key >= 1 << STRONG_SEED_BITS:
            raise ValueError(f"key must fit in {STRONG_SEED_BITS} bits")
        self.key = key
        self._key_bytes = key.to_bytes(16, "big")

    def words(self, n_words: int) -> np.ndarray:
        """The first n_words uint32 keystream words; n_words is a
        non-negative integer (`_integer`)."""
        n_words = _integer(n_words, "word count")
        if n_words < 0:
            raise ValueError(f"word count must be non-negative, not {n_words}")
        return _words(_blocks([self._key_bytes], range((n_words + 7) // 8)), 1)[0, :n_words]

    def sample_distinct(self, n_slots: int, n_used: int) -> np.ndarray:
        """n_used distinct slot indices in [0, n_slots), sorted.

        Uniform words are rejection-filtered below the largest multiple of
        n_slots and reduced mod n_slots; the result is the first n_used
        distinct accepted words in keystream order, read from a keystream
        prefix that is lengthened until it holds enough. Both sizes are
        integers (`_integer`), with 1 <= n_slots <= 2**32 and
        0 <= n_used <= n_slots (`_check_schedule`).
        """
        n_slots, n_used = _integer(n_slots, "slot count"), _integer(n_used, "slots in use")
        _check_schedule(n_slots, n_used)
        if n_used == n_slots:
            return np.arange(n_slots, dtype=np.int64)
        limit = _accept_limit(n_slots)
        n_words = _refill_size(n_used)
        while True:
            u = self.words(n_words)
            accepted = u[u < limit].astype(np.int64) % n_slots
            _, first = np.unique(accepted, return_index=True)
            if first.size >= n_used:
                return np.sort(accepted[np.sort(first)[:n_used]])
            n_words += _refill_size(n_used - first.size)


def _distinct_rows(seeds: Sequence[int], n_slots: int, n_used: int) -> np.ndarray:
    """`CounterModePrng(seed).sample_distinct(n_slots, n_used)` for every
    seed, one int32 row per seed, from one batch of keystream words.

    sample_distinct returns the first n_used distinct accepted words in
    keystream order, sorted. Here every seed's first draw, `_first_draw`
    words long, is hashed at once and packed into one unsigned sort key per
    word, `value << shift | position` (`_sort_key`; a rejected word's value
    is n_slots). An in-place row-wise sort of the keys puts each value's
    first occurrence at the head of its run; a shift and a mask read the
    values and positions back, the n_used earliest first occurrences are
    kept, and they come out in ascending order. Rows the first draw cannot
    fill fall back to the scalar path, so a row never depends on the draw's
    width.
    """
    _check_schedule(n_slots, n_used)
    if n_slots > 1 << 31:
        raise ValueError("int32 rows hold at most 2**31 slots")
    if n_used == n_slots or n_used == 0:
        return np.tile(np.arange(n_used, dtype=np.int32), (len(seeds), 1))
    width = _first_draw(n_slots, n_used)
    shift, key_type = _sort_key(n_slots, width)
    key_bytes = [seed.to_bytes(16, "big") for seed in seeds]
    u = _words(_blocks(key_bytes, range((width + 7) // 8)), len(seeds))[:, :width]
    key = (u % n_slots).astype(key_type, copy=False)
    key[u >= _accept_limit(n_slots)] = n_slots
    key <<= shift
    key |= np.arange(width, dtype=key_type)
    key.sort(axis=1)
    values = key >> shift
    first = np.empty(values.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
    first &= values < n_slots
    first_position = key & ((1 << shift) - 1)
    first_position[~first] = width
    cutoff = np.partition(first_position, n_used - 1, axis=1)[:, n_used - 1]
    keep = first_position <= cutoff[:, None]
    full = cutoff < width
    out = np.empty((len(seeds), n_used), dtype=np.int32)
    out[full] = values[keep & full[:, None]].reshape(-1, n_used)
    for row in np.flatnonzero(~full):
        out[row] = CounterModePrng(seeds[row]).sample_distinct(n_slots, n_used)
    return out


def _check_schedule(n_slots: int, n_used: int) -> None:
    """Raise ValueError unless 1 <= n_slots <= 2**32 and 0 <= n_used <= n_slots."""
    if not 1 <= n_slots <= 1 << 32:
        raise ValueError(f"slot count must lie in [1, 2**32], not {n_slots}")
    if not 0 <= n_used <= n_slots:
        raise ValueError(f"cannot schedule {n_used} of {n_slots} slots")


def _sort_key(n_slots: int, width: int) -> tuple[int, np.dtype]:
    """Shift and dtype of `_distinct_rows`' key `value << shift | position`
    for values up to n_slots and positions below width: the shift is the bit
    length of width - 1, the dtype the smallest unsigned one that holds
    `((n_slots + 1) << shift) - 1`. That is uint32 at every channel size
    (up to `channel.MAX_SLOTS` slots and 1024 per seed); larger sizes get
    uint64."""
    shift = (width - 1).bit_length()
    return shift, np.min_scalar_type(((n_slots + 1) << shift) - 1)


def _accept_limit(n_slots: int) -> int:
    """Words at or above this bound are rejected, so `word % n_slots` is uniform."""
    return (1 << 32) - ((1 << 32) % n_slots)


def _refill_size(shortfall: int) -> int:
    """Words sample_distinct adds to its keystream prefix while `shortfall` =
    n_used minus the distinct words accepted so far; its first prefix is
    `_refill_size(n_used)` words long."""
    return max(16, int(1.2 * shortfall) + 8)


# Standard deviations of a seed's word demand that `_first_draw` adds to its
# mean. A normal tail puts a row's fall-back to the scalar path near 3e-5:
# of the 65536 weak seeds none falls back at 182 of 16384, 64 of 4096, 24 of
# 2048 or 37 of 1000 slots, and 15 at 20 of 3 * 2**29 + 1 (a quarter rejected).
_FIRST_DRAW_SD = 4


@lru_cache(maxsize=16)
def _first_draw(n_slots: int, n_used: int) -> int:
    """Words per seed in `_distinct_rows`' batched draw: the mean number of
    keystream words that yield n_used distinct accepted values, plus
    `_FIRST_DRAW_SD` standard deviations, in whole 8-word blocks. It may be
    wider than sample_distinct's first prefix `_refill_size(n_used)`, which
    does not grow with the share of rejected words. It depends on the two
    sizes alone, so it is cached: a table build's chunks compute it once.

    With i distinct values found, each word brings a new one with
    probability q_i = (accept rate) * (n_slots - i) / n_slots, so the wait
    for it is geometric: the coupon collector's demand over the accepted
    words, divided by the accept rate. At 182 of 16384 slots that is 192
    words (24 blocks), not 226 (29 blocks).
    """
    q = _accept_limit(n_slots) / 2**32 * (n_slots - np.arange(n_used)) / n_slots
    demand = (1 / q).sum() + _FIRST_DRAW_SD * math.sqrt(((1 - q) / q**2).sum())
    return -(-math.ceil(demand) // 8) * 8


def _blocks(key_bytes: list[bytes], counters: range) -> bytes:
    """Keystream blocks `counters` of every key, key-major. Each key is
    hashed once; every block is a copy of that SHA-256 context updated with
    its counter, which is the same digest as hashing key || counter anew."""
    suffixes = [j.to_bytes(8, "big") for j in counters]
    out = []
    append = out.append
    for key in key_bytes:
        keyed = hashlib.sha256(key).copy
        for c in suffixes:
            block = keyed()
            block.update(c)
            append(block.digest())
    return b"".join(out)


def _words(blocks: bytes, n_keys: int) -> np.ndarray:
    """Big-endian uint32 words of `_blocks` output, one row per key."""
    return np.frombuffer(blocks, dtype=">u4").astype(np.uint32).reshape(n_keys, -1)
