"""Two-hypothesis security experiments: trial orchestration and statistics.

An experiment repeatedly flips a hidden challenge bit b, builds the
observation for that hypothesis alone, shows it to a distinguisher, and
scores its guesses. Reported advantage is |win rate - 1/2| with a Wilson
95% interval mapped through the folding, clamped to [0, 1/2].

Everything is a pure function of (trials, master_seed): each trial draws
from the substream (master_seed, "trial", index), and the challenge bit
from ("challenge", index), so paired experiments can share observation
substreams exactly.

Only the challenge round itself is modeled. The wider query surface of
authenticated-key-exchange games (session initiation, corruption,
ephemeral-key reveal, partnering) is out of scope here: the experiments in
this package need exactly one completed session per trial and a
post-session disclosure, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

from .rng import RandomStream

__all__ = [
    "Distinguisher",
    "CoinFlipDistinguisher",
    "AdvantageEstimate",
    "RateEstimate",
    "run_experiment",
    "wilson_interval",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class Distinguisher(Protocol):
    """Decision procedure mapping an observation to a guessed challenge bit."""

    def decide(self, observation, rng: RandomStream) -> int: ...


class CoinFlipDistinguisher:
    """Baseline adversary that ignores its input."""

    name = "coin-flip"

    def decide(self, observation, rng: RandomStream) -> int:
        return rng.bit()


@dataclass(frozen=True)
class RateEstimate:
    """Monte-Carlo estimate of a probability in [0, 1]."""

    rate: float
    ci_low: float
    ci_high: float
    trials: int


@dataclass(frozen=True)
class AdvantageEstimate:
    """Distinguisher advantage |Pr[b = b'] - 1/2|, clamped to [0, 1/2]."""

    advantage: float
    ci_low: float
    ci_high: float
    trials: int

    @classmethod
    def from_wins(cls, wins: int, trials: int) -> "AdvantageEstimate":
        lo, hi = wilson_interval(wins, trials)
        adv = abs(wins / trials - 0.5)
        if lo <= 0.5 <= hi:
            ci_low = 0.0
        else:
            ci_low = min(abs(lo - 0.5), abs(hi - 0.5))
        ci_high = max(abs(lo - 0.5), abs(hi - 0.5))
        return cls(
            advantage=min(adv, 0.5),
            ci_low=min(ci_low, 0.5),
            ci_high=min(ci_high, 0.5),
            trials=trials,
        )

    @property
    def std_error(self) -> float:
        p = 0.5 + self.advantage
        return math.sqrt(max(p * (1 - p), 1e-12) / self.trials)


def wilson_interval(wins: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if not 0 <= wins <= trials:
        raise ValueError("wins must lie in [0, trials]")
    if trials == 0:
        return 0.0, 1.0
    z2 = _Z95 * _Z95
    p = wins / trials
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if wins == 0 else max(0.0, center - half)  # boundary cases are exact
    hi = 1.0 if wins == trials else min(1.0, center + half)
    return lo, hi


def rate_estimate(successes: int, trials: int) -> RateEstimate:
    lo, hi = wilson_interval(successes, trials)
    return RateEstimate(rate=successes / trials, ci_low=lo, ci_high=hi, trials=trials)


def run_experiment(
    setup: Callable[[RandomStream, int], object],
    dist: Distinguisher,
    trials: int,
    master_seed: int,
) -> AdvantageEstimate:
    """Score `dist` over `trials` challenge rounds.

    Each round the harness flips b first; `setup(trial_rng, b)` then builds
    only the observation for hypothesis b, the one the distinguisher is
    shown, and the harness counts wins. The other hypothesis's observation
    is never built: every substream is a pure function of its path, so
    skipping it moves no draw of the one shown.
    """
    if trials < 100:
        raise ValueError("experiments need at least 100 trials for the interval to mean much")
    master = RandomStream(master_seed)
    wins = 0
    for i in range(trials):
        b = master.substream("challenge", i).bit()
        observation = setup(master.substream("trial", i), b)
        guess = dist.decide(observation, master.substream("distinguisher", i))
        wins += int(guess == b)
    return AdvantageEstimate.from_wins(wins, trials)

