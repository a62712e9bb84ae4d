"""Unit tests for the state-vector / density-matrix core."""

import numpy as np
import pytest

from qdeny import qcore
from qdeny.qcore import BellKind
from qdeny.rng import RandomStream


def random_state(gen, n_qubits: int) -> qcore.StateVector:
    amps = gen.normal(size=1 << n_qubits) + 1j * gen.normal(size=1 << n_qubits)
    return qcore.StateVector(n_qubits, amps / np.linalg.norm(amps))


def random_density(gen, n_qubits: int, terms: int = 3) -> qcore.DensityMatrix:
    dim = 1 << n_qubits
    weights = gen.random(terms)
    weights /= weights.sum()
    mat = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        psi /= np.linalg.norm(psi)
        mat += w * np.outer(psi, psi.conj())
    return qcore.DensityMatrix(n_qubits, mat)


def von_neumann_entropy(rho: qcore.DensityMatrix) -> float:
    """Entropy of rho in bits (base-2 logarithm)."""
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = np.clip(eigs.real, 0.0, None)
    nz = eigs[eigs > 1e-15]
    return float(-np.sum(nz * np.log2(nz)))


class TestPreparation:
    def test_computational_zero(self):
        np.testing.assert_allclose(
            qcore.bb84_state(0, 0).amplitudes, [1, 0], atol=1e-15
        )

    def test_diagonal_one_is_minus(self):
        # (1/sqrt2)(|0> - |1>)
        np.testing.assert_allclose(
            qcore.bb84_state(1, 1).amplitudes,
            np.array([1, -1]) / np.sqrt(2),
            atol=1e-15,
        )

    def test_eigenstate_measured_in_own_basis(self):
        rng = RandomStream(1)
        for bit in (0, 1):
            for basis in (0, 1):
                outcome, post = qcore.measure_subsystem(qcore.bb84_state(bit, basis), 0, basis, rng)
                assert outcome == bit
                np.testing.assert_allclose(
                    post.amplitudes, qcore.bb84_state(bit, basis).amplitudes, atol=1e-12
                )

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            qcore.bb84_state(2, 0)

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError, match="basis must be 0 or 1"):
            qcore.bb84_state(0, 2)

    @pytest.mark.parametrize("bit, basis", [
        (np.array([0, 1]), 0), (np.array([1]), 0), ([0, 1], 1), ([1], 1),
        (0, np.array([0, 1])), (np.uint8(1), np.zeros(1, np.uint8)),
    ])
    def test_bb84_state_rejects_arrays(self, bit, basis):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            qcore.bb84_state(bit, basis)

    def test_bb84_state_returns_the_four_shared_states(self):
        for bit, basis in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            assert qcore.bb84_state(np.uint8(bit), np.int64(basis)) is qcore.bb84_state(bit, basis)

    @pytest.mark.parametrize("bit, basis", [(0, 1), (np.uint8(1), np.uint8(0))])
    def test_prepare_bb84_takes_vectors_only(self, bit, basis):
        with pytest.raises(ValueError, match="vectors of equal length"):
            qcore.prepare_bb84(bit, basis)


class TestMeasurement:
    def test_zero_in_diagonal_basis_is_fair(self):
        rng = RandomStream(2)
        trials = 100_000
        zero = qcore.bb84_state(0, 0)
        ones = sum(qcore.measure_subsystem(zero, 0, 1, rng)[0] for _ in range(trials))
        sigma = np.sqrt(0.25 / trials)
        assert abs(ones / trials - 0.5) < 3 * sigma

    def test_bell_subsystem_correlas(self):
        rng = RandomStream(3)
        seen = set()
        for _ in range(50):
            b, post = qcore.measure_subsystem(
                qcore.bell_state(BellKind.PHI_PLUS), 0, 0, rng
            )
            seen.add(b)
            residual = qcore.partial_trace(qcore.to_density(post), [1])
            expect = qcore.to_density(qcore.basis_state([b]))
            np.testing.assert_allclose(residual.matrix, expect.matrix, atol=1e-12)
        assert seen == {0, 1}

    def test_psi_plus_anticorrelated(self):
        rng = RandomStream(4)
        for _ in range(20):
            b, post = qcore.measure_subsystem(
                qcore.bell_state(BellKind.PSI_PLUS), 0, 0, rng
            )
            residual = qcore.partial_trace(qcore.to_density(post), [1])
            expect = qcore.to_density(qcore.basis_state([1 - b]))
            np.testing.assert_allclose(residual.matrix, expect.matrix, atol=1e-12)

    def test_product_state_untouched_qubit(self):
        rng = RandomStream(5)
        state = qcore.basis_state("00")
        bit, post = qcore.measure_subsystem(state, 1, 0, rng)
        assert bit == 0
        np.testing.assert_allclose(post.amplitudes, state.amplitudes, atol=1e-12)

    def test_one_draw_per_measurement(self):
        # identical streams after one measurement each, regardless of basis
        r1, r2 = RandomStream(9), RandomStream(9)
        qcore.measure_subsystem(qcore.bb84_state(0, 0), 0, 1, r1)
        qcore.measure_subsystem(qcore.bb84_state(1, 1), 0, 0, r2)
        assert r1.random() == r2.random()


    def test_basis_bits_select_the_basis(self):
        # basis 1 on |++> never gives 1; basis 0 does about half the time
        plus_plus = qcore.tensor(qcore.bb84_state(0, 1), qcore.bb84_state(0, 1))
        rng = RandomStream(10)
        assert not any(qcore.measure_subsystem(plus_plus, 0, 1, rng)[0] for _ in range(200))
        assert 0 < sum(qcore.measure_subsystem(plus_plus, 0, 0, rng)[0] for _ in range(200)) < 200

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_bad_basis_rejected_without_a_draw(self, n_qubits):
        rng = RandomStream(11)
        with pytest.raises(ValueError, match="basis must be 0 or 1"):
            qcore.measure_subsystem(qcore.basis_state("0" * n_qubits), 0, 2, rng)
        assert rng.random() == RandomStream(11).random()


class TestStateEquality:
    def test_equal_amplitude_bytes_equal_and_share_a_hash(self):
        r = 1 / np.sqrt(2)
        a = qcore.StateVector(1, np.array([r, -r], dtype=complex))
        b = qcore.StateVector(1, np.array([r, -r], dtype=complex))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a == qcore.bb84_state(1, 1)
        assert len({a, b, qcore.bb84_state(1, 1)}) == 1

    def test_one_ulp_apart_unequal(self):
        zero = qcore.basis_state("0")
        tilted = qcore.StateVector(1, np.array([1, np.nextafter(0.0, 1.0)], dtype=complex))
        assert tilted.amplitudes.tobytes() != zero.amplitudes.tobytes()
        assert tilted != zero and not tilted == zero

    def test_other_objects_unequal(self):
        zero = qcore.basis_state("0")
        assert zero != zero.amplitudes
        assert zero != qcore.to_density(zero)
        assert not zero == None  # noqa: E711
        assert zero != qcore.basis_state("00")


class TestDensityEquality:
    def test_equal_matrix_bytes_equal_and_share_a_hash(self):
        a = qcore.DensityMatrix(1, np.eye(2) / 2)
        b = qcore.DensityMatrix(1, np.eye(2) / 2)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_one_ulp_apart_unequal(self):
        half = qcore.DensityMatrix(1, np.eye(2) / 2)
        tilted = qcore.DensityMatrix(1, np.diag([0.5, np.nextafter(0.5, 1.0)]))
        assert tilted.matrix.tobytes() != half.matrix.tobytes()
        assert tilted != half and not tilted == half

    def test_other_objects_unequal(self):
        zero = qcore.to_density(qcore.basis_state("0"))
        assert zero != zero.matrix
        assert zero != qcore.basis_state("0")
        assert not zero == None  # noqa: E711
        assert zero != qcore.to_density(qcore.basis_state("00"))


class TestTensorAndTrace:
    def test_tensor_kets(self):
        got = qcore.tensor(qcore.basis_state("0"), qcore.basis_state("1"))
        np.testing.assert_allclose(got.amplitudes, qcore.basis_state("01").amplitudes)

    def test_tensor_density(self):
        half = qcore.DensityMatrix(1, np.eye(2) / 2)
        got = qcore.tensor(half, half)
        np.testing.assert_allclose(got.matrix, np.eye(4) / 4, atol=1e-15)

    def test_tensor_plus_plus_uniform(self):
        plus = qcore.bb84_state(0, 1)
        got = qcore.tensor(plus, plus)
        np.testing.assert_allclose(got.amplitudes, np.full(4, 0.5), atol=1e-12)

    def test_partial_trace_bell_is_mixed(self):
        rho = qcore.to_density(qcore.bell_state(BellKind.PHI_PLUS))
        np.testing.assert_allclose(
            qcore.partial_trace(rho, [0]).matrix, np.eye(2) / 2, atol=1e-12
        )

    def test_partial_trace_product(self):
        rho = qcore.to_density(qcore.basis_state("01"))
        np.testing.assert_allclose(
            qcore.partial_trace(rho, [0]).matrix,
            qcore.to_density(qcore.basis_state("0")).matrix,
            atol=1e-15,
        )

    def test_partial_trace_partially_entangled(self):
        # cos(pi/6)|00> + sin(pi/6)|11> reduces to diag(3/4, 1/4)
        theta = np.pi / 6
        amps = np.zeros(4, dtype=complex)
        amps[0b00], amps[0b11] = np.cos(theta), np.sin(theta)
        rho = qcore.partial_trace(qcore.to_density(qcore.StateVector(2, amps)), [0])
        np.testing.assert_allclose(rho.matrix, np.diag([0.75, 0.25]), atol=1e-12)

    def test_partial_trace_rejects_empty_keep(self):
        rho = qcore.to_density(qcore.bell_state(BellKind.PHI_PLUS))
        with pytest.raises(ValueError):
            qcore.partial_trace(rho, [])

    def test_trace_preserved(self):
        gen = RandomStream(6).generator
        for _ in range(30):
            rho = random_density(gen, 3)
            red = qcore.partial_trace(rho, [0, 2])
            assert abs(np.trace(red.matrix) - 1) < 1e-12


class TestFidelityEntropy:
    def test_fidelity_identical(self):
        zero = qcore.basis_state("0")
        assert qcore.fidelity(zero, qcore.to_density(zero)) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_orthogonal_zero(self):
        assert qcore.fidelity(
            qcore.basis_state("0"), qcore.to_density(qcore.basis_state("1"))
        ) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_maximally_mixed(self):
        half = qcore.DensityMatrix(1, np.eye(2) / 2)
        assert qcore.fidelity(qcore.basis_state("0"), half) == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qcore.fidelity(qcore.basis_state("00"), qcore.DensityMatrix(1, np.eye(2) / 2))

    def test_entropy_pure_zero(self):
        assert von_neumann_entropy(qcore.to_density(qcore.basis_state("0"))) == 0.0

    def test_entropy_mixed_one_bit(self):
        assert von_neumann_entropy(
            qcore.DensityMatrix(1, np.eye(2) / 2)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_unbalanced(self):
        rho = qcore.DensityMatrix(1, np.diag([0.75, 0.25]))
        expect = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert von_neumann_entropy(rho) == pytest.approx(expect, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.8113, abs=5e-5)


class TestBellAndUnitaries:
    @pytest.mark.parametrize(
        "kind,indices,signs",
        [
            (BellKind.PHI_PLUS, (0, 3), (1, 1)),
            (BellKind.PHI_MINUS, (0, 3), (1, -1)),
            (BellKind.PSI_PLUS, (1, 2), (1, 1)),
            (BellKind.PSI_MINUS, (1, 2), (1, -1)),
        ],
    )
    def test_bell_states(self, kind, indices, signs):
        amps = qcore.bell_state(kind).amplitudes
        expect = np.zeros(4, dtype=complex)
        expect[indices[0]], expect[indices[1]] = signs[0] / np.sqrt(2), signs[1] / np.sqrt(2)
        np.testing.assert_allclose(amps, expect, atol=1e-15)

    def test_bell_orthogonality(self):
        phi_plus = qcore.bell_state(BellKind.PHI_PLUS)
        phi_minus = qcore.to_density(qcore.bell_state(BellKind.PHI_MINUS))
        assert qcore.fidelity(phi_plus, phi_minus) == pytest.approx(0.0, abs=1e-12)

    def test_x_flips(self):
        got = qcore.apply_unitary(qcore.basis_state("0"), qcore.PAULI_X, [0])
        np.testing.assert_allclose(got.amplitudes, [0, 1], atol=1e-15)

    def test_z_on_plus_gives_minus(self):
        plus = qcore.bb84_state(0, 1)
        got = qcore.apply_unitary(plus, qcore.PAULI_Z, [0])
        np.testing.assert_allclose(
            got.amplitudes, qcore.bb84_state(1, 1).amplitudes, atol=1e-15
        )

    def test_x_on_first_bell_qubit(self):
        got = qcore.apply_unitary(qcore.bell_state(BellKind.PHI_PLUS), qcore.PAULI_X, [0])
        np.testing.assert_allclose(
            got.amplitudes, qcore.bell_state(BellKind.PSI_PLUS).amplitudes, atol=1e-15
        )

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            qcore.apply_unitary(qcore.basis_state("0"), np.array([[1, 0], [0, 2]]), [0])

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            qcore.apply_unitary(qcore.basis_state("0"), qcore.PAULI_X, [1])


class TestInvariantSuites:
    """Randomized invariant checks; the acceptance suite scales these up."""

    def test_norm_preservation(self):
        gen = RandomStream(7).generator
        rng = RandomStream(8)
        for _ in range(100):
            state = random_state(gen, 2)
            rotated = qcore.apply_unitary(state, qcore.HADAMARD, [1])
            assert abs(np.linalg.norm(rotated.amplitudes) - 1) < 1e-12
            _, post = qcore.measure_subsystem(state, 0, 1, rng)
            assert abs(np.linalg.norm(post.amplitudes) - 1) < 1e-12

    def test_fidelity_bounds(self):
        gen = RandomStream(9).generator
        for _ in range(200):
            psi = random_state(gen, 2)
            rho = random_density(gen, 2)
            f = qcore.fidelity(psi, rho)
            assert -1e-12 <= f <= 1 + 1e-12

    def test_entropy_additive_on_products(self):
        gen = RandomStream(10).generator
        for _ in range(100):
            a, b = random_density(gen, 1), random_density(gen, 2)
            joint = qcore.tensor(a, b)
            total = von_neumann_entropy(joint)
            parts = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert abs(total - parts) < 1e-10

    def test_maximally_entangled_reductions(self):
        for kind in BellKind:
            rho = qcore.to_density(qcore.bell_state(kind))
            for keep in ([0], [1]):
                np.testing.assert_allclose(
                    qcore.partial_trace(rho, keep).matrix, np.eye(2) / 2, atol=1e-12
                )

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            qcore.StateVector(13, np.zeros(1 << 13, dtype=complex))

    @pytest.mark.parametrize("entry", [np.nan, complex(0, np.nan)])
    def test_state_vector_rejects_nan_entries(self, entry):
        with pytest.raises(ValueError, match="not normalized"):
            qcore.StateVector(1, [entry, 0])

    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_density_matrix_rejects_nan_entries(self, at):
        mat = np.diag([1.0, 0.0]).astype(complex)
        mat[at] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            qcore.DensityMatrix(1, mat)


class TestPermutation:
    def test_permute_round_trip(self):
        gen = RandomStream(11).generator
        state = random_state(gen, 3)
        perm = qcore.permute_qubits(state, [2, 0, 1])
        back = qcore.permute_qubits(perm, [1, 2, 0])
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_permute_basis_state(self):
        got = qcore.permute_qubits(qcore.basis_state("011"), [2, 1, 0])
        np.testing.assert_allclose(got.amplitudes, qcore.basis_state("110").amplitudes)
