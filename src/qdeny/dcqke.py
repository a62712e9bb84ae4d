"""Covert key exchange over the time-bin channel and the dual-session
deniable construction built on it.

Covert runs expand a pre-shared seed through the counter-mode generator
into a transmission schedule; every protocol event (each qubit and each
classical bit of the covert sub-session) occupies one scheduled slot, so a
session's footprint on the warden's detector is occupancy alone. The
deniable construction runs the covert session for the real key and an
ordinary, fully visible session for a fake key; under coercion the parties
hand over the fake session's key and coins, honestly and completely.

Distinguishing a coerced disclosure from an honest one then amounts to
deciding whether the covert session happened at all, which is exactly the
covert-detection game: the two experiments here share per-trial substreams
so that the reduction inequality can be checked on paired seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import bb84 as bb84_mod
from .channel import (
    CovertSchedule,
    Message,
    QubitChannel,
    TimeBinChannel,
    WardenObservation,
    count_distributions,
    covert_schedule,
    warden_observe,
    weak_schedule_table,
)
from .games import AdvantageEstimate, run_experiment
from .rng import STRONG_SEED_BITS, WEAK_SEED_BITS, CounterModePrng, RandomStream

__all__ = [
    "PrngSpec",
    "CovertQkeConfig",
    "View",
    "CovertRunResult",
    "DcQkeResult",
    "AdvantageEstimate",
    "run_covert_qke",
    "covert_game",
    "run_dc_qke",
    "faking_program",
    "build_views",
    "deniability_experiment",
    "ReductionDistinguisher",
    "CountTestWarden",
    "SeedSearchWarden",
    "seed_slot_incidence",
]


@dataclass(frozen=True)
class PrngSpec:
    """Schedule-generator choice: 'strong' (128-bit seed) or 'weak' (16-bit).

    Without a fixed seed, every run draws a fresh one from its stream.
    """

    kind: str = "strong"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("strong", "weak"):
            raise ValueError("prng kind must be 'strong' or 'weak'")
        if self.seed is not None and not 0 <= self.seed < 1 << self.bits:
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
class View:
    """What the coercer evaluates: a key, the in-the-clear transcript, the
    covert-window observation, and the disclosed private randomness."""

    key: np.ndarray
    classical_transcript: tuple[Message, ...]
    covert_window: WardenObservation
    randomness: dict[str, np.ndarray]


@dataclass(frozen=True)
class CovertRunResult:
    key: np.ndarray
    schedule: CovertSchedule
    warden_view: WardenObservation
    randomness: dict[str, np.ndarray]


def _sample_window(
    config: CovertQkeConfig, trial_rng: RandomStream, active: bool
) -> tuple[WardenObservation, CovertSchedule | None]:
    """Warden observation for one trial; labels are shared between the covert
    game and the deniability experiment so paired seeds see identical draws."""
    if not active:
        obs = warden_observe(config.timebin, None, trial_rng.substream("idle-window"))
        return obs, None
    seed = config.prng.draw_seed(trial_rng.substream("prng-seed"))
    schedule = covert_schedule(
        config.timebin.n_slots,
        config.effective_n_used,
        CounterModePrng(seed, config.prng.bits),
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
        randomness=dict(outcome.alice.private_values),
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


class SeedSearchWarden:
    """Exhausts the 16-bit seed space of the weak generator.

    Guesses 'session ran' when some candidate schedule collects at least
    `threshold` detections; the default threshold sits halfway between the
    dark and signal expectations over one schedule. Every seed's detection
    count comes from one product of the seed x slot incidence matrix with
    the detection vector.
    """

    name = "seed-search"

    def __init__(self, config: CovertQkeConfig, threshold: float | None = None):
        if config.prng.kind != "weak":
            raise ValueError("seed search only makes sense against the weak generator")
        self._incidence = seed_slot_incidence(config.timebin.n_slots, config.effective_n_used)
        if threshold is None:
            tb = config.timebin
            threshold = config.effective_n_used * (tb.p_dark + tb.p_signal) / 2
        self._threshold = threshold

    def decide(self, observation, rng: RandomStream) -> int:
        det = _window_of(observation).detections.astype(self._incidence.dtype, copy=False)
        per_seed = self._incidence @ det
        return 0 if per_seed.max() >= self._threshold else 1


@lru_cache(maxsize=4)
def seed_slot_incidence(n_slots: int, n_used: int) -> sparse.csr_matrix:
    """Seed x slot incidence matrix of `weak_schedule_table(n_slots, n_used)`.

    Row `seed` holds a one at each slot of that seed's schedule. Its column
    indices alias the cached table rather than copy it, and its values use
    the smallest unsigned dtype that holds n_used: scipy accumulates a
    product in the operands' common dtype, and no seed's count can exceed
    n_used, so a detection vector of the same dtype gives exact counts
    without upcasting the values on every call.
    """
    table = weak_schedule_table(n_slots, n_used)
    n_seeds = table.shape[0]
    dtype = np.min_scalar_type(n_used)
    indptr = np.arange(n_seeds + 1, dtype=np.int32) * np.int32(n_used)
    data = np.ones(table.size, dtype=dtype)
    for arr in (indptr, data):
        arr.setflags(write=False)  # shared by every caller, like the table
    return sparse.csr_matrix((data, table.reshape(-1), indptr), shape=(n_seeds, n_slots), copy=False)


def _window_of(observation) -> WardenObservation:
    if isinstance(observation, WardenObservation):
        return observation
    if isinstance(observation, View):
        return observation.covert_window
    raise TypeError(f"no covert window in {type(observation)!r}")


def covert_game(
    config: CovertQkeConfig,
    trials: int,
    master_seed: int,
    warden=None,
) -> AdvantageEstimate:
    """Ran-or-not detection game against the warden.

    Occupancy is all the warden can see, so trials run the scheduling layer
    (seed draw, schedule expansion, per-slot detections) rather than full
    key agreement; tests cross-check that full sessions produce identically
    distributed windows.
    """
    if warden is None:
        warden = CountTestWarden(config)

    def setup(trial_rng: RandomStream):
        active, _ = _sample_window(config, trial_rng, active=True)
        idle, _ = _sample_window(config, trial_rng, active=False)
        return active, idle

    return run_experiment(setup, warden, trials, master_seed)


# -- the deniable construction -------------------------------------------------


@dataclass(frozen=True)
class DcQkeResult:
    real_key: np.ndarray
    fake_key: np.ndarray
    real_randomness: dict[str, np.ndarray]
    fake_randomness: dict[str, np.ndarray]
    covert_window: WardenObservation
    noncovert_transcript: tuple[Message, ...]
    idle_window: WardenObservation  # fresh idle sample for the faked story
    fake_eve_record: object | None = None

    def __post_init__(self):
        if self.real_key.size != self.fake_key.size:
            raise ValueError("real and fake keys must have equal length")


def run_dc_qke(
    config: CovertQkeConfig, rng: RandomStream, fake_interceptor=None
) -> DcQkeResult:
    """Covert session for the real key plus an ordinary session for the fake
    key; both sessions use the same protocol parameters, so disclosed coin
    vectors have identical shapes in either story.

    The ordinary session is the one an eavesdropper may attack head-on, so
    it accepts an optional interceptor; its coins are disclosed honestly
    under coercion, which is exactly why decoy records never bite.
    """
    covert = run_covert_qke(config, rng)
    fake = bb84_mod.run_session(
        config.bb84,
        QubitChannel(flip_probability=0.0, interceptor=fake_interceptor),
        rng.substream("fake-session"),
        retry_abort=fake_interceptor is not None,
    )
    idle, _ = _sample_window(config, rng, active=False)
    return DcQkeResult(
        real_key=covert.key,
        fake_key=fake.alice.session_key,
        real_randomness=covert.randomness,
        fake_randomness=dict(fake.alice.private_values),
        covert_window=covert.warden_view,
        noncovert_transcript=fake.session.transcript,
        idle_window=idle,
        fake_eve_record=fake.session.eve_record,
    )


def faking_program(result: DcQkeResult) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Denial output: the fake key and the ordinary session's complete coins.

    Everything returned is an honest record of a session that really ran;
    nothing references the covert sub-session.
    """
    return result.fake_key, dict(result.fake_randomness)


def build_views(result: DcQkeResult) -> tuple[View, View]:
    """Real and fake coercer views.

    Both stories share the ordinary session's public transcript. The real
    view carries the warden-facing observation of the covert window and the
    covert session's coins; the fake view carries a fresh idle-channel
    observation (dark counts included) and the ordinary session's coins.
    """
    real = View(
        key=result.real_key,
        classical_transcript=result.noncovert_transcript,
        covert_window=result.covert_window,
        randomness=dict(result.real_randomness),
    )
    fake_key, fake_coins = faking_program(result)
    fake = View(
        key=fake_key,
        classical_transcript=result.noncovert_transcript,
        covert_window=result.idle_window,
        randomness=fake_coins,
    )
    return real, fake


def deniability_experiment(
    config: CovertQkeConfig,
    distinguisher,
    trials: int,
    master_seed: int,
) -> AdvantageEstimate:
    """Coercer game for the deniable construction: real view versus the
    faking program's view, with full sessions behind every trial."""

    def setup(trial_rng: RandomStream):
        result = run_dc_qke(config, trial_rng)
        return build_views(result)

    return run_experiment(setup, distinguisher, trials, master_seed)


class ReductionDistinguisher:
    """Covert-game warden built from a view distinguisher.

    Synthesizes the remainder of a coercer view around the observed window
    (one locally simulated run) and declares 'session ran' exactly when the
    wrapped adversary calls the synthesized view real. Invokes the adversary
    once per decision.
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
        local = run_dc_qke(self.config, rng.substream("synth"))
        view = View(
            key=local.real_key,
            classical_transcript=local.noncovert_transcript,
            covert_window=window,
            randomness=dict(local.real_randomness),
        )
        self.invocations += 1
        guess_fake = self.adversary.decide(view, rng.substream("wrapped"))
        return 0 if guess_fake == 0 else 1

