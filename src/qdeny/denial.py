"""Decoy-measurement eavesdropping, the consistency judge, and the
coercer-distinguishing experiment instantiated for naive BB84 denial.

The interceptor measures each passing qubit with a small probability in a
uniformly random basis and remembers (position, basis, outcome). A party
later claiming different raw bits is caught exactly when a flipped claim
lands on a position the interceptor measured in the claimed basis: the
claimed state and the recorded one are then orthogonal, so no alternative
preparation explains the record. With n_decoys expected measurements over
n_qubits transmissions, each position is checkable independently with
probability p = n_decoys / (2 * n_qubits): f distinct flips escape at (1 - p)**f.

`CoercionView` is the one coercer view, here and in `dcqke`. Naive denial
fills its interceptor record and changes the coins. The deniable
construction discloses one ordinary session honestly in both views, record
included, and fills the covert window, the only field its views differ in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bb84 as bb84_mod
from . import gf2, qcore
from .channel import QubitChannel, WardenObservation
from .games import AdvantageEstimate, RateEstimate, rate_estimate, run_experiment
from .rng import RandomStream, _integer

__all__ = [
    "EvePolicy",
    "EveRecord",
    "CoercionView",
    "eve_decoy_attack",
    "judge_check",
    "detection_probability",
    "exact_detection_probability",
    "coercer_experiment",
    "NaiveBb84DenialProtocol",
    "JudgeDistinguisher",
]

@dataclass(frozen=True)
class EvePolicy:
    """Measure each qubit with this probability, in a uniform random basis."""

    measure_probability: float

    def __post_init__(self):
        if not 0.0 <= self.measure_probability <= 1.0:
            raise ValueError("measure_probability must lie in [0, 1]")

    def intercept(self, qubits, rng: RandomStream):
        return eve_decoy_attack(self, qubits, rng)


@dataclass(frozen=True)
class EveRecord:
    """Measured positions with basis and outcome; positions strictly increase.
    Holds read-only copies of equal-length vectors: integer positions as
    int64, and bases and outcomes as `gf2.bits` makes them."""

    positions: np.ndarray
    bases: np.ndarray  # 0 computational, 1 diagonal
    outcomes: np.ndarray

    def __post_init__(self):
        positions, bases, outcomes = map(np.asarray, (self.positions, self.bases, self.outcomes))
        if positions.ndim != 1 or not positions.shape == bases.shape == outcomes.shape:
            raise ValueError("positions, bases and outcomes must be vectors of equal length")
        if positions.size and positions.dtype.kind not in "iu":
            raise ValueError(f"positions must be integers, not {positions.dtype}")
        positions = positions.astype(np.int64)
        if np.any(np.diff(positions) <= 0):
            raise ValueError("positions must be strictly increasing")
        gf2._freeze(self, positions=positions, bases=gf2.bits(bases), outcomes=gf2.bits(outcomes))

    def __len__(self) -> int:
        return int(self.positions.size)


def eve_decoy_attack(
    policy: EvePolicy, qubits: qcore.Bb84Qubits, rng: RandomStream
) -> tuple[qcore.Bb84Qubits, EveRecord]:
    """Measure-and-forward on a random subset of the qubits in flight.

    Draws three vectors, in order: one uniform per qubit to decide whether
    to measure it (below `measure_probability`), then one basis bit per
    measured qubit, then one measurement uniform per measured qubit.
    """
    positions = np.flatnonzero(rng.uniforms(len(qubits)) < policy.measure_probability)
    bases = rng.bits(positions.size)
    outcomes, forwarded = qubits._collapsed(positions, bases, rng.uniforms(positions.size))
    record = object.__new__(EveRecord)
    return forwarded, gf2._freeze(record, positions=positions, bases=bases, outcomes=outcomes)


def judge_check(bits, bases, record: EveRecord) -> int | None:
    """Position of the first record entry whose basis matches the claimed
    basis but whose outcome contradicts the claimed bit (orthogonal
    same-basis states), or None when no entry is such a witness. The
    claimed bits and bases are checked by `gf2.bits`."""
    bits, bases = gf2.bits(bits), gf2.bits(bases)
    if bits.size != bases.size:
        raise ValueError("claimed bits and bases must have equal length")
    pos = record.positions
    if pos.size and (pos[0] < 0 or pos[-1] >= bits.size):
        raise ValueError("record position outside the claimed strings")
    witnesses = pos[(record.bases == bases[pos]) & (record.outcomes != bits[pos])]
    return int(witnesses[0]) if witnesses.size else None


# -- detection-rate study (prepare-and-measure reduction) --------------------
#
# Everything the judge sees factorizes per position: a position is
# "checkable" iff the interceptor measured it in the basis the claim uses
# (probability measure_probability / 2, independently per position), and a
# flip is detected iff it lands on a checkable position. Sifting keeps a
# position with independent probability 1/2, so each of f distinct flips
# escapes on its own: the exact rate is 1 - (1 - measure_probability / 2)**f.
# The Monte-Carlo sampler below draws those per-position masks, which is
# exact for BB84 with single-qubit states; tests cross-check the quantum path.

_CHUNK = 20000  # trials per block of draws; the block layout fixes the stream
MAX_DETECTION_QUBITS = 1024  # a block is 20000 x N bytes per draw; the largest N in use is 512
_REDRAWS = 1000  # shortfall redraw rounds per block before `flips` counts as out of reach


def detection_probability(
    n_qubits: int,
    n_decoys: int,
    flips: int,
    trials: int,
    master_seed: int,
) -> RateEstimate:
    """Monte-Carlo judge-detection rate for flipping random sifted bits.

    Trials whose sifted set is smaller than `flips` are redrawn, which at
    these sizes is vanishingly rare; `flips` above `n_qubits` could never
    be met and is rejected, and so is a `flips` so close to `n_qubits`
    that a block still holds a short trial after 1000 redraw rounds.

    Eve measures a qubit when a float32 uniform falls below
    `n_decoys / n_qubits`, and the comparison runs in float32: the ratio is
    rounded to float32 and the uniforms lie on a 2**-24 grid, so the decoy
    rate is a quantized ratio that differs from the exact fraction by at
    most 2**-23.
    """
    n_qubits, n_decoys, flips = _detection_sizes(n_qubits, n_decoys, flips)
    trials = _integer(trials, "trial count")
    if trials < 1:
        raise ValueError("need at least one trial")
    g = RandomStream(master_seed).substream("detection-mc").generator
    detected = 0
    done = 0
    while done < trials:
        m = min(_CHUNK, trials - done)
        sifted = g.integers(0, 2, (m, n_qubits), dtype=np.uint8).astype(bool)
        enough = sifted.sum(axis=1) >= flips
        for _ in range(_REDRAWS):  # redraw shortfall rows
            if np.all(enough):
                break
            bad = np.where(~enough)[0]
            sifted[bad] = g.integers(0, 2, (bad.size, n_qubits), dtype=np.uint8).astype(bool)
            enough = sifted.sum(axis=1) >= flips
        if not np.all(enough):
            raise ValueError(
                f"{flips} flips of {n_qubits} qubits is out of reach: trials still sift"
                f" fewer bits after {_REDRAWS} redraws"
            )
        measured = g.random((m, n_qubits), dtype=np.float32) < (n_decoys / n_qubits)
        matched = g.integers(0, 2, (m, n_qubits), dtype=np.uint8).astype(bool)
        checkable = measured & matched
        keys = g.random((m, n_qubits), dtype=np.float32)
        keys[~sifted] = -1.0
        flip_cols = np.argpartition(keys, -flips, axis=1)[:, -flips:]
        hit = np.take_along_axis(checkable, flip_cols, axis=1).any(axis=1)
        detected += int(hit.sum())
        done += m
    return rate_estimate(detected, trials)


def exact_detection_probability(n_qubits: int, n_decoys: int, flips: int) -> float:
    """Exact detection rate, 1 - (1 - n_decoys / 2N)**flips in rationals, on
    `detection_probability`'s domain; conditioning on a sifted set large
    enough to flip, as its sampler does, leaves the rate unchanged."""
    n_qubits, n_decoys, flips = _detection_sizes(n_qubits, n_decoys, flips)
    return float(1 - (1 - Fraction(n_decoys, 2 * n_qubits)) ** flips)


def _detection_sizes(n_qubits, n_decoys, flips) -> tuple[int, int, int]:
    """The qubit, decoy and flip counts as ints, checked: N at most
    `MAX_DETECTION_QUBITS`, 1 <= flips <= N and 0 <= n_decoys <= N."""
    counts = {"qubit": n_qubits, "decoy": n_decoys, "flip": flips}
    n_qubits, n_decoys, flips = (_integer(v, f"{k} count") for k, v in counts.items())
    if n_qubits > MAX_DETECTION_QUBITS:
        raise ValueError(f"{n_qubits} qubits is more than the limit {MAX_DETECTION_QUBITS}")
    if flips < 1:
        raise ValueError("need at least one flip")
    if flips > n_qubits:
        raise ValueError(f"cannot flip {flips} of {n_qubits} qubits")
    if not 0 <= n_decoys <= n_qubits:
        raise ValueError("n_decoys must lie in [0, n_qubits]")
    return n_qubits, n_decoys, flips


# -- coercer experiment -------------------------------------------------------


@dataclass(frozen=True)
class CoercionView:
    """What the coercer receives: a key, the claimed private randomness, the
    public transcript, and the channel evidence.

    `eve_record` is the interceptor's record of the visible qubit channel
    and `covert_window` the warden's observation of the time-bin window;
    each is None where the protocol has no such channel.
    """

    key: np.ndarray | None
    randomness: dict[str, np.ndarray]
    transcript: tuple
    eve_record: EveRecord | None
    covert_window: WardenObservation | None

    @classmethod
    def of_session(
        cls, outcome: bb84_mod.Bb84Outcome, covert_window: WardenObservation | None
    ) -> "CoercionView":
        """Alice's honest disclosure of a BB84 session: her key and coins, its
        transcript and interceptor record, and the given window observation."""
        alice, session = outcome.alice, outcome.session
        return cls(key=alice.session_key, randomness=dict(alice.private_values),
                   transcript=session.transcript, eve_record=session.eve_record,
                   covert_window=covert_window)


def coercer_experiment(
    protocol, adversary, trials: int, master_seed: int
) -> AdvantageEstimate:
    """Real-versus-faked view distinguishing game.

    Per trial the challenger hands the adversary the honest view (b = 0) or
    the faking program's view (b = 1) according to a hidden bit, and the
    protocol's `view(trial_rng, b)` builds only that one.
    """
    if not hasattr(protocol, "view"):
        raise TypeError("protocol must expose view(trial_rng, b)")
    return run_experiment(protocol.view, adversary, trials, master_seed)


class NaiveBb84DenialProtocol:
    """BB84 under decoy eavesdropping, denied by flipping raw key bits.

    The faking program flips `flips` uniformly random sifted positions in
    the claimed raw bits, keeps bases honest, and rebuilds the codeword
    claim so the announced correction still matches. It discloses the same
    randomness fields as the honest view, and makes no attempt at record
    consistency; that is the weakness under study.
    """

    def __init__(self, config: bb84_mod.Bb84Config, n_decoys: int, flips: int = 1):
        self.config = config
        self.flips = flips
        self.policy = EvePolicy(n_decoys / config.qubit_count)
        self.channel = QubitChannel(flip_probability=0.0, interceptor=self.policy)

    def run_session(self, rng: RandomStream) -> bb84_mod.Bb84Outcome:
        return bb84_mod.run_session(self.config, self.channel, rng, retry_abort=True)

    def view(self, trial_rng: RandomStream, b: int) -> CoercionView:
        """The session on the trial's "session" substream, disclosed honestly
        (b = 0) or by the faking program on the "fake" substream (b = 1)."""
        outcome = self.run_session(trial_rng.substream("session"))
        if b == 0:
            return CoercionView.of_session(outcome, None)
        return self.fake(outcome, trial_rng.substream("fake"))

    def fake(self, outcome: bb84_mod.Bb84Outcome, rng: RandomStream) -> CoercionView:
        session = outcome.session
        sifted = session.sifted
        chosen = sifted[rng.choice_distinct(sifted.size, self.flips)]
        claimed_bits = session.a.copy()
        claimed_bits[chosen] ^= 1
        # keep the announced correction word consistent with the new claim
        payload_claim = claimed_bits[session.payload_positions]
        claimed_u = (session.u ^ session.a[session.payload_positions]) ^ payload_claim
        return CoercionView(
            key=bb84_mod.block_keys(self.config.codes, claimed_u),
            randomness={"raw_bits": claimed_bits, "bases": session.b, "codeword": claimed_u},
            transcript=session.transcript,
            eve_record=session.eve_record,
            covert_window=None,
        )


class JudgeDistinguisher:
    """Coercer that guesses "faked" exactly when the judge finds a witness."""

    name = "judge-check"

    def decide(self, view: CoercionView, rng: RandomStream) -> int:
        witness = judge_check(view.randomness["raw_bits"], view.randomness["bases"], view.eve_record)
        return int(witness is not None)
