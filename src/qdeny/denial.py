"""Decoy-measurement eavesdropping, the consistency judge, and the
coercer-distinguishing experiment instantiated for naive BB84 denial.

The interceptor measures each passing qubit with a small probability in a
uniformly random basis and remembers (position, basis, outcome). A party
later claiming different raw bits is caught exactly when a flipped claim
lands on a position the interceptor measured in the claimed basis: the
claimed state and the recorded one are then orthogonal, so no alternative
preparation explains the record. With n_decoys expected measurements over
n_qubits transmissions, a single random flip is caught with probability
n_decoys / (2 * n_qubits).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import bb84 as bb84_mod
from . import qcore
from .channel import QubitChannel
from .games import AdvantageEstimate, RateEstimate, rate_estimate, run_experiment
from .rng import RandomStream

__all__ = [
    "EvePolicy",
    "EveRecord",
    "DenialClaim",
    "JudgeVerdict",
    "CoercionView",
    "eve_decoy_attack",
    "judge_check",
    "detection_probability",
    "exact_detection_probability",
    "coercer_experiment",
    "NaiveBb84DenialProtocol",
    "JudgeDistinguisher",
]

_EXACT_CAP = 64  # exact enumeration is quadratic in n_qubits; plenty here


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
    """Measured positions with basis and outcome; positions strictly increase."""

    positions: np.ndarray
    bases: np.ndarray  # 0 computational, 1 diagonal
    outcomes: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64)
        if pos.size and np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        for name in ("positions", "bases", "outcomes"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True)
class DenialClaim:
    claimed_bits: np.ndarray
    claimed_bases: np.ndarray

    def __post_init__(self):
        if np.asarray(self.claimed_bits).size != np.asarray(self.claimed_bases).size:
            raise ValueError("claimed bits and bases must have equal length")


@dataclass(frozen=True)
class JudgeVerdict:
    detected: bool
    witness_position: int | None = None

    def __post_init__(self):
        if self.detected and self.witness_position is None:
            raise ValueError("a detection needs a witness position")


def eve_decoy_attack(
    policy: EvePolicy, qubits: qcore.Bb84Qubits, rng: RandomStream
) -> tuple[qcore.Bb84Qubits, EveRecord]:
    """Measure-and-forward on a random subset of the qubits in flight.

    Draws per qubit, in order: one uniform to decide whether to measure,
    then for a measured qubit its basis bit and its measurement uniform.
    """
    positions, bases, uniforms = [], [], []
    for i in range(len(qubits)):
        if rng.random() < policy.measure_probability:
            positions.append(i)
            bases.append(rng.bit())
            uniforms.append(rng.random())
    positions = np.array(positions, dtype=np.int64)
    bases = np.array(bases, dtype=np.uint8)
    outcomes, forwarded = qubits.measured(bases, np.array(uniforms), at=positions)
    return forwarded, EveRecord(positions, bases, outcomes)


def judge_check(claim: DenialClaim, record: EveRecord) -> JudgeVerdict:
    """Flag the first record entry whose basis matches the claim but whose
    outcome contradicts the claimed bit (orthogonal same-basis states)."""
    bits = np.asarray(claim.claimed_bits, dtype=np.uint8)
    bases = np.asarray(claim.claimed_bases, dtype=np.uint8)
    for pos, eve_basis, eve_outcome in zip(record.positions, record.bases, record.outcomes):
        if pos >= bits.size:
            raise ValueError("record position outside the claimed strings")
        if eve_basis == bases[pos] and eve_outcome != bits[pos]:
            return JudgeVerdict(detected=True, witness_position=int(pos))
    return JudgeVerdict(detected=False)


# -- detection-rate study (prepare-and-measure reduction) --------------------
#
# Everything the judge sees factorizes per position: a position is
# "checkable" iff the interceptor measured it in the basis the claim uses
# (probability measure_probability / 2, independently per position), and a
# flip is detected iff it lands on a checkable position. Sifting keeps a
# position with independent probability 1/2. The Monte-Carlo sampler below
# simulates those per-position masks directly, which is exact for BB84 with
# single-qubit states; the full quantum path is cross-checked in tests.

_CHUNK = 20000  # trials per block of draws; the block layout fixes the stream
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
    if flips < 1:
        raise ValueError("need at least one flip")
    if flips > n_qubits:
        raise ValueError(f"cannot flip {flips} of {n_qubits} qubits")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= n_decoys <= n_qubits:
        raise ValueError("n_decoys must lie in [0, n_qubits]")
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
    """Exact detection rate by enumeration over (sifted size, checkable count).

    Conditions on the sifted set being large enough to flip, matching the
    Monte-Carlo sampler. Exact rational arithmetic throughout.
    """
    if n_qubits > _EXACT_CAP:
        raise ValueError(f"exact enumeration capped at {_EXACT_CAP} qubits")
    if flips < 1 or flips > n_qubits:
        raise ValueError("flips out of range")
    p_check = Fraction(n_decoys, 2 * n_qubits)
    half = Fraction(1, 2)
    total = Fraction(0)
    norm = Fraction(0)
    for s in range(flips, n_qubits + 1):
        w_s = comb(n_qubits, s) * half**n_qubits
        norm += w_s
        miss = Fraction(0)
        for c in range(0, s + 1):
            w_c = comb(s, c) * p_check**c * (1 - p_check) ** (s - c)
            if s - c >= flips:
                miss += w_c * Fraction(comb(s - c, flips), comb(s, flips))
        total += w_s * (1 - miss)
    return float(total / norm)


# -- coercer experiment -------------------------------------------------------


@dataclass(frozen=True)
class CoercionView:
    """What the coercer receives: a key, claimed private randomness, and the
    channel evidence (interceptor record plus public transcript)."""

    key: np.ndarray | None
    randomness: dict[str, np.ndarray]
    eve_record: EveRecord
    transcript: tuple


def coercer_experiment(
    protocol, adversary, trials: int, master_seed: int
) -> AdvantageEstimate:
    """Real-versus-faked view distinguishing game.

    Per trial the protocol runs once; the challenger hands the adversary the
    honest view or the faking program's view according to a hidden bit.
    """
    if not hasattr(protocol, "fake") or not hasattr(protocol, "run_session"):
        raise TypeError("protocol must expose run_session() and a faking program fake()")

    def setup(trial_rng: RandomStream):
        session = protocol.run_session(trial_rng.substream("session"))
        real = protocol.real_view(session)
        fake = protocol.fake(session, trial_rng.substream("fake"))
        return real, fake

    return run_experiment(setup, adversary, trials, master_seed)


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

    def real_view(self, outcome: bb84_mod.Bb84Outcome) -> CoercionView:
        return CoercionView(
            key=outcome.alice.session_key,
            randomness=dict(outcome.alice.private_values),
            eve_record=outcome.session.eve_record,
            transcript=outcome.session.transcript,
        )

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
            eve_record=session.eve_record,
            transcript=session.transcript,
        )


class JudgeDistinguisher:
    """Coercer that guesses "faked" exactly when the judge finds a witness."""

    name = "judge-check"

    def decide(self, view: CoercionView, rng: RandomStream) -> int:
        claim = DenialClaim(view.randomness["raw_bits"], view.randomness["bases"])
        return int(judge_check(claim, view.eve_record).detected)
