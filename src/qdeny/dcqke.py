"""Covert key exchange over the time-bin channel and the dual-session
deniable construction built on it.

Covert runs expand a pre-shared seed through the counter-mode generator
into a transmission schedule; every protocol event (each qubit and each
classical bit of the covert sub-session) occupies one scheduled slot, so a
session's footprint on the warden's detector is occupancy alone. The
deniable construction runs the covert session for the real key and an
ordinary, fully visible session beside it; under coercion the parties
hand over the ordinary session's key and coins, honestly and completely,
and keep the covert key.

`run_dc_qke` returns the real or the fake story as a `denial.CoercionView`,
the view the naive-denial game uses too. Both stories disclose the same
ordinary session and differ only in the warden's window, active or idle.
This is the shape of Canetti et al.'s deniable encryption, and it is what
the reduction to covertness needs: a view holding the covert session's own
coins beside the ordinary transcript would be told apart by comparing the
two, however covert the window.

Distinguishing a coerced disclosure from an honest one then amounts to
deciding whether the covert session happened at all, which is exactly the
covert-detection game: the two experiments here share per-trial substreams
so that the reduction inequality can be checked on paired seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import bb84 as bb84_mod
from .channel import (
    QubitChannel,
    TimeBinChannel,
    WardenObservation,
    count_distributions,
    warden_observe,
    weak_schedule_table,
)
from .denial import CoercionView
from .games import AdvantageEstimate, run_experiment
from .rng import STRONG_SEED_BITS, WEAK_SEED_BITS, CounterModePrng, RandomStream, _integer

__all__ = [
    "PrngSpec",
    "CovertQkeConfig",
    "CovertRunResult",
    "run_covert_qke",
    "covert_game",
    "run_dc_qke",
    "deniability_experiment",
    "ReductionDistinguisher",
    "CountTestWarden",
    "SeedSearchWarden",
    "seed_prefix_incidence",
]


@dataclass(frozen=True)
class PrngSpec:
    """Schedule-generator choice: 'strong' (128-bit seed) or 'weak' (16-bit).

    Both key the same `CounterModePrng`; this is where a seed's size is
    bounded. Without a fixed seed, every run draws a fresh one of that size
    from its stream.
    """

    kind: str = "strong"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("strong", "weak"):
            raise ValueError("prng kind must be 'strong' or 'weak'")
        if self.seed is not None and not 0 <= _integer(self.seed, "prng seed") < 1 << self.bits:
            raise ValueError(f"prng seed out of range for the {self.bits}-bit generator")

    @property
    def bits(self) -> int:
        return STRONG_SEED_BITS if self.kind == "strong" else WEAK_SEED_BITS

    def draw_seed(self, rng: RandomStream) -> int:
        if self.seed is not None:
            return self.seed
        words = rng.generator.integers(0, 1 << 16, size=self.bits // 16)
        seed = 0
        for w in words:
            seed = (seed << 16) | int(w)
        return seed


@dataclass(frozen=True)
class CovertQkeConfig:
    bb84: bb84_mod.Bb84Config
    timebin: TimeBinChannel
    prng: PrngSpec = field(default_factory=PrngSpec)
    n_used: int | None = None  # defaults to the session's own slot demand

    def __post_init__(self):
        if self.n_used is not None:
            _integer(self.n_used, "schedule demand")
        if not 0 <= self.effective_n_used <= self.timebin.n_slots:
            raise ValueError("schedule demand must lie between 0 and the channel's slot count")

    @property
    def slots_required(self) -> int:
        return bb84_mod.required_slots(self.bb84)

    @property
    def effective_n_used(self) -> int:
        return self.slots_required if self.n_used is None else self.n_used

    def require_session_capacity(self) -> None:
        if self.effective_n_used < self.slots_required:
            raise ValueError(
                f"schedule holds {self.effective_n_used} slots but the session"
                f" needs {self.slots_required}"
            )


@dataclass(frozen=True)
class CovertRunResult:
    key: np.ndarray
    schedule: np.ndarray  # the used slots, sorted
    warden_view: WardenObservation


def _sample_window(
    config: CovertQkeConfig, trial_rng: RandomStream, active: bool
) -> tuple[WardenObservation, np.ndarray | None]:
    """Warden observation for one trial; labels are shared between the covert
    game and the deniability experiment so paired seeds see identical draws."""
    if not active:
        obs = warden_observe(config.timebin, None, trial_rng.substream("idle-window"))
        return obs, None
    seed = config.prng.draw_seed(trial_rng.substream("prng-seed"))
    schedule = CounterModePrng(seed).sample_distinct(
        config.timebin.n_slots, config.effective_n_used
    )
    obs = warden_observe(config.timebin, schedule, trial_rng.substream("window"))
    return obs, schedule


def run_covert_qke(config: CovertQkeConfig, rng: RandomStream) -> CovertRunResult:
    """Key exchange with every protocol event hidden in a scheduled slot.

    The schedule covers the session's qubits and classical bits (filler
    occupies any surplus slots), so the warden-facing footprint is exactly
    effective_n_used occupied slots regardless of message content.
    """
    config.require_session_capacity()
    obs, schedule = _sample_window(config, rng, active=True)
    outcome = bb84_mod.run_session(
        config.bb84, QubitChannel(flip_probability=0.0), rng.substream("bb84")
    )
    return CovertRunResult(
        key=outcome.alice.session_key,
        schedule=schedule,
        warden_view=obs,
    )


class CountTestWarden:
    """Bayes-optimal test on the total detection count.

    Decides from the exact idle/active count pmfs: guess 'session ran' when
    the active pmf dominates at the observed count. Its advantage equals the
    exact detection bias in expectation.
    """

    name = "count-test"

    def __init__(self, config: CovertQkeConfig):
        self._idle, self._active = count_distributions(
            config.timebin, config.effective_n_used
        )

    def decide(self, observation, rng: RandomStream) -> int:
        count = _window_of(observation).count
        return 0 if self._active[count] > self._idle[count] else 1


# Head slots per seed in the seed-search screen. At >= 7 of 8 detections a
# true seed passes at 0.94 on criterion 7's channel, a dark one at 2e-4.
SCREEN_SLOTS = 8
# Standard deviations of a dark seed's prefix count that must lie below the
# prefix bar: at 4 a dark seed survives the prefix with probability about
# 3e-5 or less, a few of the 65536 seeds per idle window.
PREFIX_MARGIN_SD = 4


class SeedSearchWarden:
    """Exhausts the 16-bit seed space of the weak generator.

    Guesses 'session ran' when some candidate schedule collects at least
    `threshold` detections; the default threshold sits halfway between the
    dark and signal expectations over one schedule.

    A screen runs first. The seeds that detect on at least
    `SCREEN_SLOTS - 1` of their first `SCREEN_SLOTS` scheduled slots (one
    small product with their `seed_prefix_incidence`) get their exact
    counts from their table rows, and the warden answers 'session ran' as
    soon as one of them reaches the threshold. On an active window the true
    seed is almost always such a candidate.

    Every other window goes on to one product over each seed's first K
    scheduled slots, K from `_prefix_slots`. A seed whose full count
    reaches the threshold T has at least T - (n_used - K) detections
    there, so only the seeds at that bar can meet T; their counts are
    finished from the rest of their table rows. Each decision therefore
    equals the dense rule: some seed's schedule holds at least T detections.
    """

    name = "seed-search"

    def __init__(self, config: CovertQkeConfig, threshold: float | None = None):
        if config.prng.kind != "weak":
            raise ValueError("seed search only makes sense against the weak generator")
        tb = config.timebin
        n_slots, n_used = tb.n_slots, config.effective_n_used
        if threshold is None:
            threshold = n_used * (tb.p_dark + tb.p_signal) / 2
        self._threshold = threshold
        self._table = weak_schedule_table(n_slots, n_used)
        # below SCREEN_SLOTS slots per seed the prefix product is cheap anyway
        self._head = (
            seed_prefix_incidence(n_slots, n_used, SCREEN_SLOTS) if n_used >= SCREEN_SLOTS else None
        )
        self._k = _prefix_slots(n_used, threshold, tb.p_dark)  # the prefix length
        self._prefix = seed_prefix_incidence(n_slots, n_used, self._k)
        self._bar = threshold - (n_used - self._k)

    def decide(self, observation, rng: RandomStream) -> int:
        det = _window_of(observation).detections
        if self._head is not None:
            candidates = np.flatnonzero(self._head @ det >= SCREEN_SLOTS - 1)
            if candidates.size and self._counts(det, candidates, 0).max() >= self._threshold:
                return 0
        prefix = self._prefix @ det.astype(self._prefix.dtype, copy=False)
        survivors = np.flatnonzero(prefix >= self._bar)
        if not survivors.size:
            return 1
        counts = prefix[survivors] + self._counts(det, survivors, self._k)
        return 0 if counts.max() >= self._threshold else 1

    def _counts(self, det: np.ndarray, seeds: np.ndarray, start: int) -> np.ndarray:
        """Detections on each given seed's scheduled slots from column `start` on."""
        return det[self._table[seeds, start:]].sum(axis=1)


def _prefix_slots(n_used: int, threshold: float, p_dark: float) -> int:
    """Smallest prefix length k at which a dark seed's expected count on its
    first k slots, plus PREFIX_MARGIN_SD standard deviations, lies below the
    bar `threshold - (n_used - k)`; n_used if no shorter prefix does."""
    for k in range(n_used):
        mean = k * p_dark
        if mean + PREFIX_MARGIN_SD * math.sqrt(mean * (1 - p_dark)) < threshold - (n_used - k):
            return k
    return n_used


@lru_cache(maxsize=8)
def seed_prefix_incidence(n_slots: int, n_used: int, k: int):
    """Seed x slot incidence matrix of each seed's first `k` scheduled slots,
    a `scipy.sparse.csr_matrix`: row `seed` holds a one at each slot among
    the first `k` columns of `weak_schedule_table(n_slots, n_used)`. Cached,
    so every warden on the same channel shares it. This is the package's
    one scipy import, so only the seed-search warden loads scipy.

    scipy needs int32 column indices, so they are a contiguous int32 copy
    of those columns. The values use the smallest unsigned dtype that holds
    k: scipy accumulates a product in the operands' common dtype, and no
    row's count can exceed k, so a detection vector of the same dtype gives
    exact counts without upcasting the values on every call.
    """
    if not 0 <= k <= n_used:
        raise ValueError(f"prefix length must lie in [0, {n_used}], not {k}")
    from scipy import sparse

    table = weak_schedule_table(n_slots, n_used)
    n_seeds = table.shape[0]
    indices = np.ascontiguousarray(table[:, :k], dtype=np.int32).reshape(-1)
    indptr = np.arange(n_seeds + 1, dtype=np.int32) * np.int32(k)
    data = np.ones(indices.size, dtype=np.min_scalar_type(k))
    for arr in (indices, indptr, data):
        arr.setflags(write=False)  # shared by every caller, like the table
    return sparse.csr_matrix((data, indices, indptr), shape=(n_seeds, n_slots), copy=False)


def _window_of(observation) -> WardenObservation:
    if isinstance(observation, WardenObservation):
        return observation
    if isinstance(observation, CoercionView) and observation.covert_window is not None:
        return observation.covert_window
    raise TypeError(f"no covert window in {type(observation)!r}")


def covert_game(
    config: CovertQkeConfig,
    trials: int,
    master_seed: int,
    warden,
) -> AdvantageEstimate:
    """Ran-or-not detection game against the warden.

    Occupancy is all the warden can see, so trials run the scheduling layer
    (seed draw, schedule expansion, per-slot detections) rather than full
    key agreement; tests cross-check that full sessions produce identically
    distributed windows. Each trial samples only the window it shows, the
    active one for b = 0 and the idle one for b = 1, under the labels the
    deniability experiment uses for them.
    """

    def setup(trial_rng: RandomStream, b: int):
        return _sample_window(config, trial_rng, active=b == 0)[0]

    return run_experiment(setup, warden, trials, master_seed)


# -- the deniable construction -------------------------------------------------


def _ordinary_session(
    config: CovertQkeConfig, rng: RandomStream, interceptor
) -> bb84_mod.Bb84Outcome:
    """The ordinary BB84 session of one run, on the "fake-session"
    substream; under an interceptor, aborts are resampled."""
    return bb84_mod.run_session(
        config.bb84,
        QubitChannel(flip_probability=0.0, interceptor=interceptor),
        rng.substream("fake-session"),
        retry_abort=interceptor is not None,
    )


def run_dc_qke(
    config: CovertQkeConfig, rng: RandomStream, b: int, interceptor=None
) -> CoercionView:
    """The real (b = 0) or fake (b = 1) coercer view of one run of the
    deniable construction.

    Both views are the honest disclosure of the ordinary session: its key,
    its complete coins, its transcript and the record of `interceptor`,
    which may attack it head-on. They differ only in the window, the
    active covert one for b = 0 and an idle one for b = 1, sampled as in
    `covert_game`. The covert key and coins stay with the parties: beside
    the ordinary transcript they would give the real view away.
    """
    config.require_session_capacity()
    window = _sample_window(config, rng, active=b == 0)[0]
    return CoercionView.of_session(_ordinary_session(config, rng, interceptor), window)


def deniability_experiment(
    config: CovertQkeConfig,
    distinguisher,
    trials: int,
    master_seed: int,
) -> AdvantageEstimate:
    """Coercer game for the deniable construction: real view versus the
    faking program's view, with full sessions behind every trial. Each
    trial builds the one view it shows, with `run_dc_qke`."""
    return run_experiment(partial(run_dc_qke, config), distinguisher, trials, master_seed)


class ReductionDistinguisher:
    """Covert-game warden built from a view distinguisher.

    Completes a coercer view around the observed window: it runs one
    ordinary session locally, on the "synth" substream and without an
    interceptor, as `deniability_experiment` runs it, and declares
    'session ran' exactly when the wrapped adversary calls that view real.
    Since `run_dc_qke`'s views differ only in the window, the synthesized
    view is distributed as the real view on an active window and as the
    fake view on an idle one: the wrapper's covert advantage has the
    adversary's deniability advantage as its expectation. Invokes the
    adversary once per decision.
    """

    def __init__(self, adversary, config: CovertQkeConfig):
        self.adversary = adversary
        self.config = config
        self.invocations = 0

    @property
    def name(self) -> str:
        return f"reduction({getattr(self.adversary, 'name', 'adversary')})"

    def decide(self, observation, rng: RandomStream) -> int:
        window = _window_of(observation)
        view = CoercionView.of_session(
            _ordinary_session(self.config, rng.substream("synth"), None), window
        )
        self.invocations += 1
        guess_fake = self.adversary.decide(view, rng.substream("wrapped"))
        return 0 if guess_fake == 0 else 1
