"""Exact linear algebra for small pure and mixed qubit systems.

States are dense complex vectors / matrices over at most MAX_QUBITS qubits,
which is far more than the protocols here need (six joint qubits at most).
Qubit 0 is the leftmost / most significant index bit, so the basis state
|q0 q1 ... q_{n-1}> sits at amplitude index q0*2^(n-1) + ... + q_{n-1}.

Everything is immutable and pure: operations that need randomness take an
explicit RandomStream and consume exactly one uniform draw per measurement
(cumulative-probability inversion), which keeps seeded runs reproducible.

BB84 product states under Pauli-X noise never need the dense form:
`Bb84Qubits` holds a batch of them as three bit arrays, and measuring a
batch looks each qubit's outcome-0 probability up in a table built from the
dense states with the dense formula, drawing all uniforms in one call
(Philox gives the same values as one scalar draw per qubit). The dense
classes remain for entangled states and as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence

import numpy as np

from .rng import RandomStream

__all__ = [
    "MAX_QUBITS",
    "Basis",
    "BellKind",
    "StateVector",
    "DensityMatrix",
    "Bb84Qubits",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Z",
    "HADAMARD",
    "prepare_bb84",
    "basis_state",
    "measure",
    "measure_subsystem",
    "tensor",
    "partial_trace",
    "fidelity",
    "von_neumann_entropy",
    "bell_state",
    "apply_unitary",
    "permute_qubits",
    "to_density",
    "trace_distance",
    "purity",
]

MAX_QUBITS = 12

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
_UNITARY_TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class Basis(Enum):
    """The two BB84 measurement bases."""

    COMPUTATIONAL = 0  # (+): {|0>, |1>}
    DIAGONAL = 1  # (x): {(|0>+|1>)/sqrt2, (|0>-|1>)/sqrt2}

    @classmethod
    def from_bit(cls, b: int) -> "Basis":
        return cls.DIAGONAL if int(b) else cls.COMPUTATIONAL


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


@dataclass(frozen=True)
class StateVector:
    """Pure state of n_qubits qubits as a unit-norm complex vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        _check_qubit_count(self.n_qubits, amps.size)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state vector not normalized: |psi| = {norm}")
        amps = amps / norm  # scrub rounding so chained operations stay at 1e-12
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def tensor_shape(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of n_qubits qubits: Hermitian, unit trace, PSD."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        _check_qubit_count(self.n_qubits, mat.shape[0])
        if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL:
            raise ValueError("density matrix not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} != 1")
        if np.min(np.linalg.eigvalsh(mat)) < -_PSD_TOL:
            raise ValueError("density matrix has eigenvalue below -1e-10")
        mat = mat / tr
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def basis_state(bits: str | Sequence[int]) -> StateVector:
    """Computational basis state |b0 b1 ...> from a bit string or sequence."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    n = len(bits)
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        index = (index << 1) | b
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def _build_bb84_states() -> dict[tuple[int, Basis], StateVector]:
    r = 1 / np.sqrt(2)
    return {
        (0, Basis.COMPUTATIONAL): StateVector(1, np.array([1, 0], dtype=complex)),
        (1, Basis.COMPUTATIONAL): StateVector(1, np.array([0, 1], dtype=complex)),
        (0, Basis.DIAGONAL): StateVector(1, np.array([r, r], dtype=complex)),
        (1, Basis.DIAGONAL): StateVector(1, np.array([r, -r], dtype=complex)),
    }


_BB84_STATES = _build_bb84_states()


def _p0(amplitudes: np.ndarray, basis: Basis) -> float:
    """Born probability of outcome 0 for a single-qubit state."""
    a0, a1 = amplitudes
    if basis is Basis.COMPUTATIONAL:
        return abs(a0) ** 2
    return abs(a0 + a1) ** 2 / 2


def _build_p0_table() -> np.ndarray:
    """P(outcome 0) indexed [bit, basis, flip, measurement basis].

    Taken from the dense states with the dense formula, rounding included:
    a diagonal state gives 0.5000000000000001 in the computational basis
    and 1.0000000000000002 or 0.0 in the diagonal one.
    """
    table = np.empty((2, 2, 2, 2))
    for bit, basis, flip, m_basis in product((0, 1), repeat=4):
        state = _BB84_STATES[(bit, Basis.from_bit(basis))]
        if flip:
            state = StateVector(1, state.amplitudes[::-1])  # Pauli-X swaps amplitudes
        table[bit, basis, flip, m_basis] = _p0(state.amplitudes, Basis.from_bit(m_basis))
    table.setflags(write=False)
    return table


_BB84_P0 = _build_p0_table()


def _bit_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.uint8)
    if (arr > 1).any():
        raise ValueError("BB84 bits, bases and flips must be 0 or 1")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Bb84Qubits:
    """A batch of single-qubit BB84 states X^flip |bit>_basis.

    Three equal-length uint8 vectors: the prepared bit, the basis (0
    computational, 1 diagonal) and the Pauli-X flag. Channels, interceptors
    and decryption take BB84 qubits in this form only; the dense per-qubit
    view is kept in the tests as the oracle.
    """

    bits: np.ndarray
    bases: np.ndarray
    flips: np.ndarray

    def __post_init__(self):
        names = ("bits", "bases", "flips")
        arrays = [_bit_array(getattr(self, name)) for name in names]
        if arrays[0].ndim != 1 or len({arr.shape for arr in arrays}) != 1:
            raise ValueError("bits, bases and flips must be vectors of equal length")
        for name, arr in zip(names, arrays):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.bits.size)

    def measured(
        self, bases, uniforms: np.ndarray, at=slice(None)
    ) -> tuple[np.ndarray, "Bb84Qubits"]:
        """Measure the qubits at positions `at` in `bases`, one uniform each.

        Outcome 0 iff u < P(outcome 0), as in the dense measurement. Returns
        the outcomes and the batch with those qubits collapsed onto the
        measured eigenstates.
        """
        bases = _bit_array(bases)
        bits, flips = self.bits[at], self.flips[at]
        uniforms = np.asarray(uniforms)
        if not bases.shape == uniforms.shape == bits.shape:
            raise ValueError("need one basis and one uniform per measured qubit")
        outcomes = (uniforms >= _BB84_P0[bits, self.bases[at], flips, bases]).astype(np.uint8)
        post = [self.bits.copy(), self.bases.copy(), self.flips.copy()]
        post[0][at], post[1][at], post[2][at] = outcomes, bases, 0
        return outcomes, Bb84Qubits(*post)


def prepare_bb84(
    bit: int | np.ndarray, basis: Basis | np.ndarray
) -> StateVector | Bb84Qubits:
    """Single qubit encoding `bit` in `basis`; the four BB84 states.

    States are immutable, so the four instances are shared. Given arrays of
    bits and basis bits instead, returns them as an unflipped Bb84Qubits
    batch.
    """
    if not isinstance(basis, Basis):
        return Bb84Qubits(bit, basis, np.zeros(np.shape(bit), dtype=np.uint8))
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return _BB84_STATES[(bit, basis)]


def _hadamard_axis(tensor: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(HADAMARD, tensor, axes=([1], [axis])), 0, axis)


def _p0_of_qubit(psi: np.ndarray, qubit_index: int) -> float:
    """Born probability that the qubit at `qubit_index` of the state tensor
    `psi` reads 0 in the computational basis: measure_subsystem's threshold."""
    return float(np.sum(np.abs(np.take(psi, 0, axis=qubit_index)) ** 2))


def measure_subsystem(
    state: StateVector, qubit_index: int, basis: Basis, rng: RandomStream
) -> tuple[int, StateVector]:
    """Projective measurement of one qubit; the rest is renormalized in place.

    Consumes exactly one uniform draw: outcome 0 iff u < P(outcome 0).
    """
    n = state.n_qubits
    if not 0 <= qubit_index < n:
        raise ValueError(f"qubit index {qubit_index} out of range for {n} qubits")
    if n == 1:
        return _measure_single(state, basis, rng)
    psi = state.tensor_shape()
    if basis is Basis.DIAGONAL:
        psi = _hadamard_axis(psi, qubit_index)
    p0 = _p0_of_qubit(psi, qubit_index)
    outcome = 0 if rng.random() < p0 else 1
    prob = p0 if outcome == 0 else 1.0 - p0
    collapsed = np.zeros_like(psi)
    idx = [slice(None)] * n
    idx[qubit_index] = outcome
    collapsed[tuple(idx)] = np.take(psi, outcome, axis=qubit_index)
    collapsed = collapsed / np.sqrt(prob)
    if basis is Basis.DIAGONAL:
        collapsed = _hadamard_axis(collapsed, qubit_index)
    return outcome, StateVector(n, collapsed.reshape(-1))


def _measure_single(state: StateVector, basis: Basis, rng: RandomStream) -> tuple[int, StateVector]:
    # direct Born probabilities; the post-measurement state is a shared eigenstate
    outcome = 0 if rng.random() < _p0(state.amplitudes, basis) else 1
    return outcome, _BB84_STATES[(outcome, basis)]


def measure(state: StateVector | Bb84Qubits, basis: Basis | np.ndarray, rng: RandomStream):
    """Measure a single-qubit state; returns (outcome, post-measurement state).

    A Bb84Qubits batch is measured in the basis bits `basis`, one per qubit,
    with a single `rng.uniforms(n)` call (the values of n scalar draws);
    the outcomes come back as a uint8 array with the collapsed batch.
    """
    if isinstance(state, Bb84Qubits):
        return state.measured(basis, rng.uniforms(len(state)))
    if state.n_qubits != 1:
        raise ValueError("measure() takes a single-qubit state; use measure_subsystem")
    return _measure_single(state, basis, rng)


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


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of rho in bits (base-2 logarithm)."""
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = np.clip(eigs.real, 0.0, None)
    nz = eigs[eigs > 1e-15]
    return float(-np.sum(nz * np.log2(nz)))


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
