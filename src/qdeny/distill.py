"""Entanglement filtering, teleportation, and the decoupling check behind
the information-theoretic denial argument.

Partially entangled pairs cos(theta)|00> + sin(theta)|11> are filtered
pair by pair by a local two-outcome operation on the first qubit; success
leaves a perfect ebit and happens with probability 2*sin^2(theta) for
theta <= pi/4 (the filter attacks the other amplitude past pi/4). The
asymptotic conversion ceiling for such pairs is the entanglement entropy
H2(cos^2 theta); single-pair filtering stays below it and the gap is
reported, not hidden. Every success at one theta is the same immutable
ebit, so a batch counts its successes in one array draw of uniforms.

Once the ebit passes verification, teleporting a fresh qubit through it
consumes the pair and publishes two uniformly random classical bits that
carry no information about the teleported state; an eavesdropper of the
classical channel is left with a maximally mixed view, which is the
decoupling that eve_decoupling_check certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bb84, qcore
from .channel import ClassicalAuthChannel
from .gf2 import NestedCodePair
from .qcore import BellKind, StateVector
from .rng import RandomStream, _integer

__all__ = [
    "PartialPair",
    "DistillReport",
    "binary_entropy",
    "procrustean_filter",
    "distill_batch",
    "verify_ebits",
    "teleport",
    "eve_decoupling_check",
    "qke_over_teleportation",
]

_EBIT_TOL = 1e-9
FILTER_ATTEMPTS = 50  # filter batches qke_over_teleportation runs before it gives up
_CHUNK = 2**16  # most uniforms distill_batch holds at once
_PHI_PLUS = qcore.bell_state(BellKind.PHI_PLUS)


@dataclass(frozen=True)
class PartialPair:
    """Two qubits in cos(theta)|00> + sin(theta)|11>, 0 < theta < pi/2."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < np.pi / 2:
            raise ValueError("theta must lie strictly between 0 and pi/2")
        if self.success_probability < np.finfo(float).tiny:
            raise ValueError(f"theta {self.theta!r} is too close to 0: the filter's success"
                             f" probability {self.success_probability!r} is subnormal")

    @property
    def state(self) -> StateVector:
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = np.cos(self.theta)
        amps[0b11] = np.sin(self.theta)
        return StateVector(2, amps)

    @property
    def success_probability(self) -> float:
        return float(2 * min(np.sin(self.theta) ** 2, np.cos(self.theta) ** 2))


@dataclass(frozen=True)
class DistillReport:
    attempted: int
    succeeded: int
    output_fidelity_min: float
    rate_bound: float

    def __post_init__(self):
        if self.succeeded > self.attempted:
            raise ValueError("cannot succeed more often than attempted")

    @property
    def rate(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 0.0


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


@lru_cache(maxsize=64)
def _filter_output(theta: float) -> tuple[StateVector, float, float]:
    """(ebit, success probability, fidelity with Phi+) of the filter at theta.

    Everything here depends on theta alone, so every success shares one
    immutable ebit.
    """
    amps = PartialPair(theta).state.amplitudes
    if theta <= np.pi / 4:
        scale = np.tan(theta)  # shrink the |00> amplitude down to the |11> one
        filtered = np.array([amps[0] * scale, 0, 0, amps[3]], dtype=complex)
    else:
        scale = 1 / np.tan(theta)
        filtered = np.array([amps[0], 0, 0, amps[3] * scale], dtype=complex)
    p_success = float(np.sum(np.abs(filtered) ** 2))
    ebit = StateVector(2, filtered / np.sqrt(p_success))
    return ebit, p_success, qcore.fidelity(_PHI_PLUS, qcore.to_density(ebit))


def _is_ebit(state: StateVector) -> bool:
    """|<Phi+|state>|^2 >= 1 - 1e-9: the pure-state fidelity with the ebit."""
    return abs(np.vdot(_PHI_PLUS.amplitudes, state.amplitudes)) ** 2 >= 1.0 - _EBIT_TOL


def procrustean_filter(pair: PartialPair, rng: RandomStream) -> StateVector | None:
    """Single-pair local filtering; returns the ebit on success, else None.

    The first qubit passes through the two-outcome operation with Kraus
    elements diag(t, 1) and diag(sqrt(1 - t^2), 0) where t = tan(theta)
    (amplitudes swap roles for theta > pi/4). One uniform draw decides the
    outcome; the success branch is exactly the Phi+ ebit, the same shared
    state on every success at this theta.
    """
    ebit, p_success, _ = _filter_output(pair.theta)
    if rng.random() >= p_success:
        return None
    return ebit


def distill_batch(n: int, theta: float, rng: RandomStream) -> DistillReport:
    """Filter n independent pairs and report how many became the shared
    ebit `_filter_output(theta)[0]`, with the achieved rate against the
    ceiling. Pair i succeeds iff rng's i-th uniform, drawn _CHUNK at a time,
    lies below the success probability: n `procrustean_filter` draws."""
    n = _integer(n, "pair count")
    if n < 1:
        raise ValueError("need at least one pair")
    _, p_success, fid = _filter_output(theta)
    succeeded = sum(int(np.count_nonzero(rng.uniforms(min(_CHUNK, n - start)) < p_success))
                    for start in range(0, n, _CHUNK))
    return DistillReport(
        attempted=n,
        succeeded=succeeded,
        output_fidelity_min=min(1.0, fid) if succeeded else 0.0,
        rate_bound=binary_entropy(float(np.cos(theta) ** 2)),
    )


def verify_ebits(ebit: StateVector, count: int, n_sample: int) -> bool:
    """Sacrifice n_sample of count copies of one shared ebit for direct
    fidelity evaluation; True iff they pass.

    The copies are one immutable state, so every sample checks the same
    thing and the ebit is tested once, with no draw. Simulation privilege:
    the check reads the state vector instead of running a statistical test
    on measurement outcomes; fidelity below 1 - 1e-9 with Phi+ fails.
    """
    count = _integer(count, "ebit count")
    n_sample = _integer(n_sample, "sample size")
    if count < 1:
        raise ValueError("nothing to verify")
    if not 1 <= n_sample <= count:
        raise ValueError(f"sample size must lie in [1, {count}], got {n_sample}")
    return bool(_is_ebit(ebit))


_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
# An accepted pair has fidelity at least 1 - eps with Phi+, which moves each
# teleportation branch probability off 1/4 by at most sqrt(eps) + 2 eps.
_BRANCH_TOL = np.sqrt(_EBIT_TOL) + 2 * _EBIT_TOL


class _Draws:
    """A RandomStream stand-in whose `random()` returns the given values in
    turn; _FORCED[k] forces outcome k of a test u < P(0), 0 < P(0) < 1."""

    def __init__(self, *values: float):
        self.random = iter(values).__next__


_FORCED = (0.0, float(np.nextafter(1.0, 0.0)))


@lru_cache(maxsize=256)
def _teleport_table(psi: StateVector, ebit: StateVector):
    """(p_phase, p_bit, outputs) of teleporting psi through ebit.

    Checks the inputs first: lru_cache keeps no exception, so a bad one
    raises on every call. The dense circuit is run once per branch: p_phase
    is P(m_phase = 0) and p_bit[m_phase] is P(m_bit = 0) after that outcome,
    both computed as `qcore.measure_subsystem` computes its threshold, and
    outputs[m_phase][m_bit] is the fixed-up receiver qubit. States compare
    by amplitude bytes, so every call with equal (state, ebit) shares one
    table and its immutable outputs.
    """
    if psi.n_qubits != 1:
        raise ValueError("can only teleport a single qubit")
    if ebit.n_qubits != 2:
        raise ValueError("the shared pair must be two qubits")
    if not _is_ebit(ebit):
        raise ValueError("shared pair is not a Phi+ ebit")
    joint = qcore.tensor(psi, ebit)  # qubits: 0 input, 1 sender half, 2 receiver
    joint = qcore.apply_unitary(joint, _CNOT, [0, 1])
    joint = qcore.apply_unitary(joint, qcore.HADAMARD, [0])
    p_phase = qcore._p0_of_qubit(joint.tensor_shape(), 0)
    p_bit, outputs = [], []
    for m_phase in (0, 1):
        _, phased = qcore.measure_subsystem(joint, 0, 0, _Draws(_FORCED[m_phase]))
        p_bit.append(qcore._p0_of_qubit(phased.tensor_shape(), 1))
        row = []
        for m_bit in (0, 1):
            p = abs(m_phase - p_phase) * abs(m_bit - p_bit[m_phase])  # P(m) is |m - P(0)|
            if abs(p - 0.25) > _BRANCH_TOL:
                raise RuntimeError(f"teleportation branch {m_phase}{m_bit} has probability {p}")
            _, fixed = qcore.measure_subsystem(phased, 1, 0, _Draws(_FORCED[m_bit]))
            if m_bit:
                fixed = qcore.apply_unitary(fixed, qcore.PAULI_X, [2])
            if m_phase:
                fixed = qcore.apply_unitary(fixed, qcore.PAULI_Z, [2])
            # qubits 0 and 1 are collapsed; the receiver qubit is the surviving slice
            row.append(StateVector(1, fixed.tensor_shape()[m_phase, m_bit, :]))
        outputs.append(tuple(row))
    return p_phase, tuple(p_bit), tuple(outputs)


def teleport(
    psi: StateVector, ebit: StateVector, rng: RandomStream
) -> tuple[StateVector, tuple[int, int]]:
    """Teleport a single-qubit state through a shared Phi+ pair.

    Bell measurement on (input, sender half), two classical bits
    (m_phase, m_bit) out, conditional Pauli fix-up on the receiver half.
    Anything but a one-qubit state and a perfect ebit is rejected before
    any draw. The circuit is run, and the inputs checked, once per (state,
    ebit) and its branches kept (`_teleport_table`); a call draws
    `rng.random()` for m_phase and then for m_bit against the thresholds of
    the two dense measurements and returns that branch's shared output.
    """
    p_phase, p_bit, outputs = _teleport_table(psi, ebit)
    m_phase = 0 if rng.random() < p_phase else 1
    m_bit = 0 if rng.random() < p_bit[m_phase] else 1
    return outputs[m_phase][m_bit], (m_phase, m_bit)


@lru_cache(maxsize=64)
def _exchange_table(ebit: StateVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`teleport`'s thresholds p_phase[s], p_bit[s, m_phase] for the BB84
    state s = 2*bit + basis through ebit, and P(0) in each basis of each
    branch's output, p0[s, m_phase, m_bit, basis], from forced `teleport`s."""
    p_phase, p_bit, p0 = np.empty(4), np.empty((4, 2)), np.empty((4, 2, 2, 2))
    for s, (bit, basis) in enumerate(np.ndindex(2, 2)):
        psi = qcore.bb84_state(bit, basis)
        p_phase[s], p_bit[s] = _teleport_table(psi, ebit)[:2]
        for m_phase, m_bit in np.ndindex(2, 2):
            received, _ = teleport(psi, ebit, _Draws(_FORCED[m_phase], _FORCED[m_bit]))
            p0[s, m_phase, m_bit] = [qcore._p0(received.amplitudes, m_basis) for m_basis in (0, 1)]
    for table in (p_phase, p_bit, p0):
        table.setflags(write=False)
    return p_phase, p_bit, p0


def eve_decoupling_check(
    state: StateVector, a_qubit: int, b_qubit: int
) -> bool:
    """True iff the (a, b) pair is maximally entangled and pure, which forces
    every other subsystem to decouple into a product factor.

    Certifies both halves: the pair's reduced state must be pure with a
    fully mixed single-qubit reduction (that is fidelity 1 with some
    maximally entangled state), and the global state must equal the product
    of the pair's state with the remainder's, in trace distance.
    """
    n = state.n_qubits
    if a_qubit == b_qubit or not (0 <= a_qubit < n and 0 <= b_qubit < n):
        raise ValueError("invalid A/B partition")
    rho = qcore.to_density(state)
    rho_ab = qcore.partial_trace(rho, [a_qubit, b_qubit])
    if abs(qcore.purity(rho_ab) - 1.0) > _EBIT_TOL:
        return False
    rho_a = qcore.partial_trace(rho_ab, [0])
    if np.max(np.abs(rho_a.matrix - np.eye(2) / 2)) > _EBIT_TOL:
        return False
    rest = [q for q in range(n) if q not in (a_qubit, b_qubit)]
    if rest:
        rho_rest = qcore.partial_trace(rho, rest)
        reordered = qcore.permute_qubits(state, [a_qubit, b_qubit] + rest)
        product = qcore.tensor(rho_ab, rho_rest)
        if qcore.trace_distance(qcore.to_density(reordered), product) > _EBIT_TOL:
            return False
    return True


def qke_over_teleportation(
    m: int, theta: float, rng: RandomStream, codes: NestedCodePair
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Key exchange where the quantum layer rides teleportation.

    Distills at least m ebits from partially entangled pairs (the batches
    count successes of the one shared ebit, the filter's success branch),
    verifies a sample, teleports m fresh BB84 states through it, then sifts
    and checks. The transcript holds exactly 2m teleportation bits plus the
    usual protocol messages. The m teleportations are one `uniforms(2m)`
    draw, the draws of m `teleport` calls, against the ebit's
    `_exchange_table`; Bob's outcomes are one `uniforms(m)` draw against
    the received states' P(0).

    Sifting and the check-reconcile tail are `bb84`'s private path
    (`_announce_bases`, `_split_check`, `_check_and_reconcile`); this
    exchange checks half of the sifted bits and aborts on any disagreement
    (an error rate above 0.0). At m=14 about 7 bases match and half are
    checked, so the default pair's 7-bit blocks are (almost) never filled
    and the keys are the raw payload bits.
    """
    m = _integer(m, "teleported qubit count")
    if m < 1:
        raise ValueError("need at least one teleported qubit")
    needed = m + max(4, m // 4)  # sacrifice margin for verification
    distilled = 0
    for attempt in range(FILTER_ATTEMPTS):
        distilled += distill_batch(needed * 2, theta, rng.substream("filter", attempt)).succeeded
        if distilled >= needed:
            break
    if distilled < needed:
        raise RuntimeError(f"distillation shortfall: {distilled} of {needed} ebits")
    ebit = procrustean_filter(PartialPair(theta), _Draws(0.0))  # the success branch
    if not verify_ebits(ebit, distilled, distilled - m):
        raise RuntimeError("ebit verification failed")
    p_phase, p_bit, p0 = _exchange_table(ebit)

    cchan = ClassicalAuthChannel()
    rng_a, rng_b = rng.substream("alice"), rng.substream("bob")
    a, b = rng_a.bits(m), rng_a.bits(m)
    b_prime = rng_b.bits(m)
    s = 2 * a + b
    u = rng.substream("teleport").uniforms(2 * m).reshape(m, 2)
    m_phase = (u[:, 0] >= p_phase[s]).astype(np.uint8)
    m_bit = (u[:, 1] >= p_bit[s, m_phase]).astype(np.uint8)
    a_prime = (rng_b.uniforms(m) >= p0[s, m_phase, m_bit, b_prime]).astype(np.uint8)
    cchan._send("alice", "teleport-bits", np.column_stack((m_phase, m_bit)).ravel())

    matched = bb84._matching(b, b_prime)
    bb84._announce_bases(cchan, b, matched)
    check_pos, payload_pos = bb84._split_check(matched, matched.size // 2, rng_a)
    _, _, key_a, key_b = bb84._check_and_reconcile(
        cchan, codes, a, a_prime, check_pos, payload_pos, 0.0, rng_a
    )
    if key_a is None:
        raise RuntimeError("teleported qubits disagreed on check bits")
    return key_a, key_b, cchan.log
