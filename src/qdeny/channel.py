"""Transmission media: noisy qubit channel, authenticated classical channel
with transcript logging, and the covert time-bin channel with its warden.

The time-bin detection model is per-slot independent Bernoulli: an idle slot
fires with probability p_dark, a slot carrying a signal with p_signal. The
warden knows every channel parameter and the number of occupied slots but
not their positions, which makes the total detection count its sufficient
statistic; warden_bias_exact computes the optimal advantage from the two
exact count distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2, qcore
from .rng import WEAK_SEED_BITS, RandomStream, _check_schedule, _distinct_rows, _integer

__all__ = [
    "QubitChannel",
    "Message",
    "ClassicalAuthChannel",
    "TimeBinChannel",
    "WardenObservation",
    "transmit",
    "warden_observe",
    "warden_bias_exact",
    "count_distributions",
    "max_covert_slots",
    "weak_schedule_table",
]


@dataclass(frozen=True)
class QubitChannel:
    """Single-qubit channel with independent bit-flip noise and an optional
    interceptor that acts before the noise.

    The noise is a genuine Pauli X, so it flips computational-basis
    encodings but leaves diagonal ones invariant up to phase; after sifting,
    a random-basis protocol therefore observes an error rate of half the
    flip probability.

    An interceptor is any object with a method
    `intercept(qubits, rng) -> (qubits, record)` taking and returning a
    `qcore.Bb84Qubits` batch; `denial.EvePolicy` is the one used here. It
    runs only on BB84 attempts that sift enough: `bb84.run_bb84` raises
    `SiftShortfall` from the base strings before any qubit is prepared.
    """

    flip_probability: float = 0.0
    interceptor: object | None = None

    def __post_init__(self):
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must lie in [0, 1]")


@dataclass(frozen=True)
class Message:
    """One announced bit vector, checked by `gf2.bits`."""

    sender: str
    label: str
    bits: np.ndarray

    def __post_init__(self):
        # a copy: the caller's array stays writable
        gf2._freeze(self, bits=gf2.bits(self.bits))

    @property
    def n_bits(self) -> int:
        return int(self.bits.size)


class ClassicalAuthChannel:
    """Append-only authenticated classical channel; the log is the transcript."""

    def __init__(self):
        self._log: list[Message] = []

    def send(self, sender: str, label: str, payload) -> Message:
        msg = Message(sender, label, payload)
        self._log.append(msg)
        return msg

    def _send(self, sender: str, label: str, bits: np.ndarray) -> Message:
        """`send` for the protocols' own bits: a 0/1 uint8 vector this
        package has just built, stored as given with no check and no copy;
        it belongs to the message from then on."""
        msg = gf2._freeze(object.__new__(Message), bits=bits)
        object.__setattr__(msg, "sender", sender)
        object.__setattr__(msg, "label", label)
        self._log.append(msg)
        return msg

    @property
    def log(self) -> tuple[Message, ...]:
        return tuple(self._log)


def transmit(
    channel: QubitChannel, qubits: qcore.Bb84Qubits, rng: RandomStream
) -> tuple[qcore.Bb84Qubits, object | None]:
    """Deliver qubits: interceptor first, then Pauli-X noise through
    `Bb84Qubits.pauli_x` on the qubits whose uniform, from one
    `rng.uniforms(n)` draw, falls below the flip probability."""
    record = None
    if channel.interceptor is not None:
        qubits, record = channel.interceptor.intercept(qubits, rng)
    return qubits.pauli_x(rng.uniforms(len(qubits)) < channel.flip_probability), record


MAX_SLOTS = 1 << 20  # time-bin slots per window; the largest in use is 16384


@dataclass(frozen=True)
class TimeBinChannel:
    n_slots: int
    p_dark: float
    p_signal: float

    def __post_init__(self):
        if not 1 <= _integer(self.n_slots, "slot count") <= MAX_SLOTS:
            raise ValueError(f"slot count must lie in [1, {MAX_SLOTS}]")
        if not 0.0 <= self.p_dark <= self.p_signal <= 1.0:
            raise ValueError("require 0 <= p_dark <= p_signal <= 1")


@dataclass(frozen=True)
class WardenObservation:
    """One detection bit per slot, checked by `gf2.bits`."""

    detections: np.ndarray

    def __post_init__(self):
        # a copy: the caller's array stays writable
        gf2._freeze(self, detections=gf2.bits(self.detections))

    @property
    def count(self) -> int:
        return int(self.detections.sum())


def warden_observe(
    channel: TimeBinChannel, used_slots: np.ndarray | None, rng: RandomStream
) -> WardenObservation:
    """Per-slot detections: p_signal on the used slots, p_dark elsewhere.

    `used_slots` is a schedule as `CounterModePrng.sample_distinct` returns
    it, or None for an idle window.
    """
    p = np.full(channel.n_slots, channel.p_dark)
    if used_slots is not None:
        if used_slots.size and (used_slots.min() < 0 or used_slots.max() >= channel.n_slots):
            raise ValueError(f"schedule slots must lie in [0, {channel.n_slots})")
        p[used_slots] = channel.p_signal
    detections = (rng.uniforms(channel.n_slots) < p).astype(np.uint8)
    return WardenObservation(detections)


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf on 0..n, from log-gamma in float64: within about
    5e-11 relative of an exact pmf at n = 16384, 2e-13 at n <= 182."""
    pmf = np.zeros(n + 1)
    if p == 0.0 or p == 1.0:
        pmf[n if p == 1.0 else 0] = 1.0
        return pmf
    log_factorial = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    k = np.arange(n + 1)
    return np.exp(log_factorial[n] - log_factorial - log_factorial[::-1]
                  + k * math.log(p) + (n - k) * math.log1p(-p))


def count_distributions(channel: TimeBinChannel, n_used: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact pmfs of the total detection count: (idle channel, active channel).

    Idle: Binomial(n_slots, p_dark). Active: the convolution of
    Binomial(n_slots - n_used, p_dark) with Binomial(n_used, p_signal);
    since slots detect independently, the count does not depend on which
    slots carry signal. At equal rates the two laws are one, and the active
    pmf is a copy of the idle one, so a count test comparing them never
    reads rounding noise as evidence.

    The pmfs are numpy's own (`_binomial_pmf`), so no exact warden bias
    and no count-test warden loads scipy.
    """
    n, n_used = channel.n_slots, _integer(n_used, "slots in use")
    if not 0 <= n_used <= n:
        raise ValueError("n_used out of range")
    idle = _binomial_pmf(n, channel.p_dark)
    if channel.p_dark == channel.p_signal:
        return idle, idle.copy()
    active = np.convolve(_binomial_pmf(n - n_used, channel.p_dark),
                         _binomial_pmf(n_used, channel.p_signal))
    return idle, active


def warden_bias_exact(channel: TimeBinChannel, n_used: int) -> float:
    """Detection bias: half the total variation distance between the idle and
    active count distributions (the optimal warden's advantage over 1/2).
    It is exactly 0.0 at no slots in use and at equal rates, where
    `count_distributions` returns two equal pmfs."""
    idle, active = count_distributions(channel, n_used)
    tv = 0.5 * float(np.abs(idle - active).sum())
    return 0.5 * tv


def max_covert_slots(channel: TimeBinChannel, bias_target: float) -> int:
    """Largest occupancy whose exact warden bias stays within bias_target."""
    if not bias_target >= 0:
        raise ValueError(f"bias target must be non-negative, not {bias_target}")
    lo, hi = 0, channel.n_slots
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if warden_bias_exact(channel, mid) <= bias_target:
            lo = mid
        else:
            hi = mid - 1
    return lo


_TABLE_CHUNK = 64  # seeds per batch in weak_schedule_table
# Slots per seed in weak_schedule_table: 65536 seeds x 1024 slots is 128 MiB
# as uint16 (up to 2**16 time-bin slots) and 256 MiB as uint32 (more); the
# largest occupancy in use is 256.
MAX_WEAK_TABLE_SLOTS = 1024


@lru_cache(maxsize=8)
def weak_schedule_table(n_slots: int, n_used: int) -> np.ndarray:
    """Schedules for every weak seed, one row per seed: the 2**16 seeds
    that `dcqke.PrngSpec("weak")` accepts.

    This is the exhaustive search space handed to the seed-search warden in
    the broken-generator experiments. Row `seed` equals
    `CounterModePrng(seed).sample_distinct(n_slots, n_used)`, and the
    sizes are checked as it checks them before anything is allocated. The
    rows are expanded a small chunk of seeds at a time, which keeps the
    build's working memory far below the table's own, each chunk from one
    batched keystream draw sized to its expected demand (`rng._first_draw`)
    and sorted as 32-bit packed keys (`rng._sort_key`). Most of the build
    is SHA-256: one keyed context per seed, copied for each block. Slots
    are stored in the smallest unsigned dtype that holds `n_slots - 1`
    (uint16 at every channel size in use).
    """
    n_slots, n_used = _integer(n_slots, "slot count"), _integer(n_used, "slots per seed")
    _check_schedule(n_slots, n_used)
    if n_used > MAX_WEAK_TABLE_SLOTS:
        raise ValueError(
            f"the weak schedule table holds at most {MAX_WEAK_TABLE_SLOTS} slots per seed,"
            f" not {n_used}"
        )
    table = np.empty((1 << WEAK_SEED_BITS, n_used), dtype=np.min_scalar_type(n_slots - 1))
    for start in range(0, 1 << WEAK_SEED_BITS, _TABLE_CHUNK):
        seeds = range(start, start + _TABLE_CHUNK)
        table[start : start + _TABLE_CHUNK] = _distinct_rows(seeds, n_slots, n_used)
    table.setflags(write=False)
    return table
