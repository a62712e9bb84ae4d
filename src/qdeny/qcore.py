"""Exact linear algebra for small pure and mixed qubit systems.

States are dense complex vectors / matrices over at most MAX_QUBITS qubits,
which is far more than the protocols here need (six joint qubits at most).
Qubit 0 is the leftmost / most significant index bit, so the basis state
|q0 q1 ... q_{n-1}> sits at amplitude index q0*2^(n-1) + ... + q_{n-1}.

Everything is immutable and pure: operations that need randomness take an
explicit RandomStream and consume exactly one uniform draw per measurement
(cumulative-probability inversion), which keeps seeded runs reproducible.

BB84 product states under Pauli-X noise never need the dense form:
`Bb84Qubits` holds a batch of them as two bit arrays, bits and bases, and
`measure` returns a batch's outcomes: it looks each qubit's outcome-0
probability up in a table built from the dense states with the dense
formula, drawing all uniforms in one call (Philox gives the same values as
one scalar draw per qubit). Dense states, such as `bb84_state`, serve
entangled states and tests and are measured by `measure_subsystem`. Both
forms take a basis as a bit: 0 computational (+), 1 diagonal (x). Bits and
bases from callers are checked by `gf2.bits`, the package's one rule for
what a bit is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence

import numpy as np

from . import gf2
from .rng import RandomStream

__all__ = [
    "MAX_QUBITS",
    "BellKind",
    "StateVector",
    "DensityMatrix",
    "Bb84Qubits",
    "PAULI_X",
    "PAULI_Z",
    "HADAMARD",
    "prepare_bb84",
    "bb84_state",
    "basis_state",
    "measure",
    "measure_subsystem",
    "tensor",
    "partial_trace",
    "fidelity",
    "bell_state",
    "apply_unitary",
    "permute_qubits",
    "to_density",
    "trace_distance",
    "purity",
]

MAX_QUBITS = 12

_HERM_TOL = 1e-12
_PSD_TOL = 1e-10
_UNITARY_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class BellKind(Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


def _check_qubit_count(n_qubits: int, dim: int) -> None:
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"dense simulation capped at {MAX_QUBITS} qubits, got {n_qubits}")
    if dim != 1 << n_qubits:
        raise ValueError(f"dimension {dim} does not match {n_qubits} qubits")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of n_qubits qubits as a unit-norm complex vector; it
    compares and hashes by qubit count and amplitude bytes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        _check_qubit_count(self.n_qubits, amps.size)
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:  # a non-finite entry makes the norm nan or inf
            raise ValueError(f"state vector not normalized: |psi| = {norm}")
        # scrub rounding so chained operations stay at 1e-12
        gf2._freeze(self, amplitudes=amps / norm)

    def _key(self) -> tuple[int, bytes]:
        return self.n_qubits, self.amplitudes.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, StateVector) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def tensor_shape(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state of n_qubits qubits: Hermitian, unit trace, PSD; it
    compares and hashes by qubit count and matrix bytes."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        _check_qubit_count(self.n_qubits, mat.shape[0])
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has a non-finite entry")
        if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL:
            raise ValueError("density matrix not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} != 1")
        if np.min(np.linalg.eigvalsh(mat)) < -_PSD_TOL:
            raise ValueError("density matrix has eigenvalue below -1e-10")
        gf2._freeze(self, matrix=mat / tr)

    def _key(self) -> tuple[int, bytes]:
        return self.n_qubits, self.matrix.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, DensityMatrix) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def basis_state(bits: str | Sequence[int]) -> StateVector:
    """Computational basis state |b0 b1 ...> from a bit string or sequence."""
    bits = gf2.bits(bits)
    n = bits.size
    _check_qubit_count(n, 1 << n)  # before allocating 2^n amplitudes
    index = 0
    for b in bits.tolist():
        index = (index << 1) | b
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def _build_bb84_states() -> dict[tuple[int, int], StateVector]:
    r = 1 / np.sqrt(2)
    return {
        (0, 0): StateVector(1, np.array([1, 0], dtype=complex)),
        (1, 0): StateVector(1, np.array([0, 1], dtype=complex)),
        (0, 1): StateVector(1, np.array([r, r], dtype=complex)),
        (1, 1): StateVector(1, np.array([r, -r], dtype=complex)),
    }


_BB84_STATES = _build_bb84_states()


def _p0(amplitudes: np.ndarray, basis: int) -> float:
    """Born probability of outcome 0 for a single-qubit state in basis bit `basis`."""
    a0, a1 = amplitudes
    if not basis:
        return abs(a0) ** 2
    return abs(a0 + a1) ** 2 / 2


def _build_p0_table() -> np.ndarray:
    """P(outcome 0) indexed [bit, basis, measurement basis].

    Taken from the dense states with the dense formula, rounding included:
    a diagonal state gives 0.5000000000000001 in the computational basis
    and 1.0000000000000002 or 0.0 in the diagonal one.
    """
    table = np.empty((2, 2, 2))
    for bit, basis, m_basis in product((0, 1), repeat=3):
        table[bit, basis, m_basis] = _p0(_BB84_STATES[(bit, basis)].amplitudes, m_basis)
    table.setflags(write=False)
    return table


_BB84_P0 = _build_p0_table()


@dataclass(frozen=True, eq=False)
class Bb84Qubits:
    """A batch of single-qubit BB84 states |bit>_basis.

    Two equal-length uint8 vectors: the bit and the basis (0 computational,
    1 diagonal). Pauli X maps a batch to a batch (`pauli_x`). Channels,
    interceptors and decryption take BB84 qubits in this form only; the
    dense per-qubit view is kept in the tests as the oracle.
    """

    bits: np.ndarray
    bases: np.ndarray

    def __post_init__(self):
        bits, bases = np.asarray(self.bits), np.asarray(self.bases)
        if bits.ndim != 1 or bits.shape != bases.shape:
            raise ValueError("bits and bases must be vectors of equal length")
        gf2._freeze(self, bits=gf2.bits(bits), bases=gf2.bits(bases))

    def __len__(self) -> int:
        return int(self.bits.size)

    def pauli_x(self, mask) -> "Bb84Qubits":
        """The batch after X on the qubits under `mask`, one bit per qubit as
        `gf2.bits` reads it. X swaps |0> and |1> and leaves |+> and |->
        as they are up to global phase, so it flips the bits of the
        computational-basis qubits only."""
        mask = gf2.bits(mask).view(bool)
        if mask.shape != self.bits.shape:
            raise ValueError("need one mask entry per qubit")
        flipped = self.bits ^ (mask & (self.bases == 0))
        return gf2._freeze(object.__new__(Bb84Qubits), bits=flipped, bases=self.bases)

    def _collapsed(
        self, at: np.ndarray, bases: np.ndarray, uniforms: np.ndarray
    ) -> tuple[np.ndarray, "Bb84Qubits"]:
        """Measure the qubits at positions `at` in `bases`, one uniform each,
        as `measure` does; returns the outcomes and the batch with those
        qubits collapsed onto the measured eigenstates. Takes int64
        positions, uint8 0/1 bases and uniforms of equal length that this
        package has just built, without checks or copies of them."""
        p0 = _BB84_P0[self.bits[at], self.bases[at], bases]
        outcomes = (uniforms >= p0).astype(np.uint8)
        post_bits, post_bases = self.bits.copy(), self.bases.copy()
        post_bits[at], post_bases[at] = outcomes, bases
        return outcomes, gf2._freeze(object.__new__(Bb84Qubits), bits=post_bits, bases=post_bases)


def prepare_bb84(bits, bases) -> Bb84Qubits:
    """The batch encoding each bit of `bits` in the basis bit at the same
    position of `bases`; both must be 0/1 vectors of equal length."""
    return Bb84Qubits(bits, bases)


def bb84_state(bit: int, basis: int) -> StateVector:
    """Dense single qubit encoding `bit` in basis bit `basis`; the four BB84
    states. States are immutable, so the four instances are shared."""
    if not isinstance(bit, (int, np.integer)) or bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if not isinstance(basis, (int, np.integer)) or basis not in (0, 1):
        raise ValueError("basis must be 0 or 1")
    return _BB84_STATES[(bit, basis)]


def _hadamard_axis(tensor: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(HADAMARD, tensor, axes=([1], [axis])), 0, axis)


def _p0_of_qubit(psi: np.ndarray, qubit_index: int) -> float:
    """Born probability that the qubit at `qubit_index` of the state tensor
    `psi` reads 0 in the computational basis: measure_subsystem's threshold."""
    return float(np.sum(np.abs(np.take(psi, 0, axis=qubit_index)) ** 2))


def measure_subsystem(
    state: StateVector, qubit_index: int, basis: int, rng: RandomStream
) -> tuple[int, StateVector]:
    """Projective measurement of one qubit; the rest is renormalized in place.

    Consumes exactly one uniform draw: outcome 0 iff u < P(outcome 0).
    """
    n = state.n_qubits
    if not 0 <= qubit_index < n:
        raise ValueError(f"qubit index {qubit_index} out of range for {n} qubits")
    if basis not in (0, 1):
        raise ValueError("basis must be 0 or 1")
    if n == 1:
        outcome = 0 if rng.random() < _p0(state.amplitudes, basis) else 1
        return outcome, _BB84_STATES[(outcome, basis)]
    psi = state.tensor_shape()
    if basis:
        psi = _hadamard_axis(psi, qubit_index)
    p0 = _p0_of_qubit(psi, qubit_index)
    outcome = 0 if rng.random() < p0 else 1
    prob = p0 if outcome == 0 else 1.0 - p0
    collapsed = np.zeros_like(psi)
    idx = [slice(None)] * n
    idx[qubit_index] = outcome
    collapsed[tuple(idx)] = np.take(psi, outcome, axis=qubit_index)
    collapsed = collapsed / np.sqrt(prob)
    if basis:
        collapsed = _hadamard_axis(collapsed, qubit_index)
    return outcome, StateVector(n, collapsed.reshape(-1))


def measure(qubits: Bb84Qubits, bases, rng: RandomStream) -> np.ndarray:
    """uint8 outcomes of measuring a batch in the basis bits `bases`, one per
    qubit: outcome 0 iff u < P(outcome 0), as in the dense measurement, with
    the uniforms from one `rng.uniforms(n)` call (the values of n scalar
    draws)."""
    bases = gf2.bits(bases)
    if bases.shape != qubits.bits.shape:
        raise ValueError("need one basis per qubit")
    p0 = _BB84_P0[qubits.bits, qubits.bases, bases]
    return (rng.uniforms(len(qubits)) >= p0).astype(np.uint8)


def tensor(a, b):
    """Kronecker product of two StateVectors or two DensityMatrices."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        amps = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)  # np.kron's bytes, less its overhead
        return StateVector(a.n_qubits + b.n_qubits, amps)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.n_qubits + b.n_qubits, np.kron(a.matrix, b.matrix))
    raise TypeError("tensor() needs two states of the same kind")


def to_density(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(psi.n_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the qubits in `keep` (result ordered as given)."""
    keep = list(keep)
    n = rho.n_qubits
    if not keep:
        raise ValueError("keep set must be non-empty")
    if len(set(keep)) != len(keep) or any(not 0 <= q < n for q in keep):
        raise ValueError(f"invalid keep set {keep} for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    t = rho.matrix.reshape((2,) * (2 * n))
    # contract row/column indices of every traced qubit
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    # remaining axes follow the original ascending order; permute to `keep`
    kept_sorted = sorted(keep)
    order = [kept_sorted.index(q) for q in keep]
    m = len(keep)
    t = t.transpose(tuple(order) + tuple(m + o for o in order))
    return DensityMatrix(m, t.reshape(1 << m, 1 << m))


def fidelity(psi: StateVector, rho: DensityMatrix) -> float:
    """Expected fidelity <psi|rho|psi> between a pure and a mixed state."""
    if psi.n_qubits != rho.n_qubits:
        raise ValueError("fidelity: dimension mismatch")
    value = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)
    if abs(value.imag) > 1e-10:
        raise ValueError("fidelity came out non-real; inputs are inconsistent")
    return float(value.real)


def bell_state(kind: BellKind) -> StateVector:
    amps = np.zeros(4, dtype=complex)
    r = 1 / np.sqrt(2)
    if kind is BellKind.PHI_PLUS:
        amps[0b00], amps[0b11] = r, r
    elif kind is BellKind.PHI_MINUS:
        amps[0b00], amps[0b11] = r, -r
    elif kind is BellKind.PSI_PLUS:
        amps[0b01], amps[0b10] = r, r
    else:
        amps[0b01], amps[0b10] = r, -r
    return StateVector(2, amps)


def apply_unitary(state: StateVector, u: np.ndarray, targets: Sequence[int]) -> StateVector:
    """Apply a unitary on the listed target qubits (in the given order)."""
    targets = list(targets)
    n = state.n_qubits
    if len(set(targets)) != len(targets) or any(not 0 <= t < n for t in targets):
        raise ValueError(f"bad target list {targets}")
    u = np.asarray(u, dtype=complex)
    dim = 1 << len(targets)
    if u.shape != (dim, dim):
        raise ValueError(f"unitary shape {u.shape} does not match {len(targets)} targets")
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > _UNITARY_TOL:
        raise ValueError("matrix is not unitary within 1e-10")
    psi = state.tensor_shape()
    rest = [q for q in range(n) if q not in targets]
    psi = psi.transpose(targets + rest).reshape(dim, -1)
    psi = (u @ psi).reshape((2,) * n)
    inverse = np.argsort(targets + rest)
    psi = psi.transpose(inverse)
    return StateVector(n, psi.reshape(-1))


def permute_qubits(state: StateVector, order: Sequence[int]) -> StateVector:
    """Reorder qubits so new qubit i is old qubit order[i]."""
    order = list(order)
    if sorted(order) != list(range(state.n_qubits)):
        raise ValueError(f"order {order} is not a permutation of the qubits")
    psi = state.tensor_shape().transpose(order)
    return StateVector(state.n_qubits, psi.reshape(-1))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) * trace norm of rho - sigma."""
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError("trace_distance: dimension mismatch")
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(eigs)))


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)
