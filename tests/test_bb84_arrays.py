"""The BB84 array path against the dense qcore oracle.

`qcore.Bb84Qubits` is the only form of BB84 qubits in the package. These
tests pin it to the dense path: the outcome-0 probability table against
the dense measurement's own threshold, `pauli_x` against a genuine X on
the dense states, and whole `run_bb84` attempts against a per-qubit dense
replay of the same substreams. The conversions between a batch and dense
states live here, with the oracle.
"""

import dataclasses
from itertools import product

import numpy as np
import pytest

from qdeny import bb84, gf2, qcore
from qdeny.channel import ClassicalAuthChannel, QubitChannel, transmit
from qdeny.denial import EvePolicy
from qdeny.qcore import Bb84Qubits, StateVector
from qdeny.rng import RandomStream


class FixedDraws:
    """Stand-in stream whose every uniform is `u`."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u

    def uniforms(self, n: int) -> np.ndarray:
        return np.full(n, self.u)


def _dense(bit: int, basis: int, flip: int) -> StateVector:
    """The dense BB84 state, after a genuine Pauli X (its amplitudes
    swapped) when `flip` is set."""
    state = qcore.bb84_state(bit, basis)
    return StateVector(1, state.amplitudes[::-1]) if flip else state


def dense_states(batch: Bb84Qubits) -> list[StateVector]:
    """Each qubit of a batch as its shared `bb84_state` instance."""
    return [qcore.bb84_state(int(bit), int(basis)) for bit, basis in zip(batch.bits, batch.bases)]


# Dense BB84 states in batch index order 2 * basis + bit.
_BB84_AMPS = np.array([_dense(bit, basis, 0).amplitudes for basis in (0, 1) for bit in (0, 1)])


def from_states(states) -> Bb84Qubits:
    """Batch of dense single-qubit states.

    Each state must equal one of the four BB84 states up to global phase
    (fidelity within 1e-9), else ValueError. It is stored as that state,
    so BB84 states round-trip exactly and Pauli-X images round-trip up to
    global phase.
    """
    states = list(states)
    if any(not isinstance(s, StateVector) or s.n_qubits != 1 for s in states):
        raise ValueError("a BB84 batch holds single-qubit states only")
    amps = np.array([s.amplitudes for s in states], dtype=complex).reshape(-1, 2)
    match = np.abs(amps.conj() @ _BB84_AMPS.T) ** 2 > 1.0 - 1e-9
    found = match.any(axis=1)
    if not np.all(found):
        raise ValueError(f"state {int(np.argmin(found))} is not a BB84 state")
    index = match.argmax(axis=1)
    return Bb84Qubits(index & 1, index >> 1)


@pytest.mark.parametrize("bit, basis, flip, m_basis", list(product((0, 1), repeat=4)))
def test_p0_table_is_the_dense_threshold(bit, basis, flip, m_basis):
    # the dense state after a genuine X against the batch after pauli_x
    state = _dense(bit, basis, flip)
    batch = Bb84Qubits([bit], [basis]).pauli_x([bool(flip)])
    p0 = qcore._BB84_P0[batch.bits[0], basis, m_basis]
    below = np.nextafter(p0, -np.inf)
    # outcome 0 exactly when u < p0, in the dense and in the batch measurement
    assert qcore.measure_subsystem(state, 0, m_basis, FixedDraws(p0))[0] == 1
    assert qcore.measure(batch, [m_basis], FixedDraws(p0))[0] == 1
    if p0 > 0:
        assert qcore.measure_subsystem(state, 0, m_basis, FixedDraws(below))[0] == 0
        assert qcore.measure(batch, [m_basis], FixedDraws(below))[0] == 0


@pytest.mark.parametrize("bit, basis, m_basis", list(product((0, 1), repeat=3)))
def test_x_folds_into_the_bit_exactly(bit, basis, m_basis):
    # X|b> in the computational basis is |1-b>; in the diagonal basis it is
    # |b> up to global phase, with the same dense probability to the bit
    flipped = StateVector(1, qcore.bb84_state(bit, basis).amplitudes[::-1])
    p0 = qcore._p0(flipped.amplitudes, m_basis)
    assert p0 == qcore._BB84_P0[bit ^ (1 - basis), basis, m_basis]


def test_p0_table_keeps_dense_rounding():
    assert qcore._BB84_P0.shape == (2, 2, 2)
    # diagonal states: 0.5 + 1 ulp in the computational basis, 1 + 2 ulp in their own
    assert qcore._BB84_P0[0, 1, 0] == 0.5000000000000001
    assert qcore._BB84_P0[0, 1, 1] == 1.0000000000000002
    assert qcore._BB84_P0[1, 1, 1] == 0.0


def test_measure_returns_the_outcomes_of_n_scalar_draws():
    root = RandomStream(12)
    batch = qcore.prepare_bb84(root.bits(40), root.bits(40))
    m_bases = root.bits(40)
    got_rng, want_rng = RandomStream(13), RandomStream(13)
    got = qcore.measure(batch, m_bases, got_rng)
    want = [qcore.measure_subsystem(state, 0, int(m), want_rng)[0]
            for state, m in zip(dense_states(batch), m_bases)]
    assert type(got) is np.ndarray and got.dtype == np.uint8 and got.shape == (40,)
    assert got.tolist() == want
    assert got_rng.random() == want_rng.random()


def _dense_attempt(config, qchan, rng_a, rng_b, rng_env):
    """run_bb84 rebuilt on the dense path: one StateVector and one scalar
    measurement per qubit, per-block codeword sampling and decoding.
    Returns (a_prime, eve record or None, keys, or None on shortfall or
    "abort")."""
    q, n = config.qubit_count, config.n
    a, b = rng_a.bits(q), rng_a.bits(q)
    states = [qcore.bb84_state(int(a[i]), int(b[i])) for i in range(q)]
    record = None
    if qchan.interceptor is not None:
        decide = rng_env.uniforms(q)
        positions = [i for i in range(q) if decide[i] < qchan.interceptor.measure_probability]
        eve_bases = rng_env.bits(len(positions))
        outcomes = []
        for i, basis_bit in zip(positions, eve_bases):
            outcome, states[i] = qcore.measure_subsystem(states[i], 0, int(basis_bit), rng_env)
            outcomes.append(outcome)
        record = positions, eve_bases, outcomes
    flips = rng_env.uniforms(q) < qchan.flip_probability
    states = [StateVector(1, s.amplitudes[::-1]) if f else s for s, f in zip(states, flips)]
    b_prime = rng_b.bits(q)
    a_prime = np.array(
        [qcore.measure_subsystem(s, 0, b_prime[i], rng_b)[0]
         for i, s in enumerate(states)],
        dtype=np.uint8,
    )
    sifted = np.where(b == b_prime)[0]
    if sifted.size < 2 * n:
        return a_prime, record, None
    retained = sifted[rng_a.choice_distinct(sifted.size, 2 * n)]
    check = retained[rng_a.choice_distinct(2 * n, n)]
    payload = np.setdiff1d(retained, check)
    if np.mean(a[check] ^ a_prime[check]) > config.error_threshold:
        return a_prime, record, "abort"
    pair, nb = config.codes, config.codes.c1.n
    k_a, k_b = [], []
    for j in range(config.blocks):
        u = gf2.sample_codeword(pair.c1, rng_a, 1)[0]
        sl = slice(j * nb, (j + 1) * nb)
        k_a.append(gf2.key_from_coset(pair, u))
        noisy = a_prime[payload][sl] ^ u ^ a[payload][sl]
        k_b.append(gf2.key_from_coset(pair, gf2.decode_to_codeword(pair.c1, noisy)))
    return a_prime, record, (np.concatenate(k_a), np.concatenate(k_b))


def _streams(seed):
    root = RandomStream(seed)
    return root.substream("alice"), root.substream("bob"), root.substream("environment")


SETTINGS = {
    "n14-decoys": (bb84.Bb84Config(n=14), QubitChannel(0.0, interceptor=EvePolicy(8 / 63))),
    "n70-flips": (bb84.Bb84Config(n=70), QubitChannel(0.05)),
    # 4 errors in 70 checks sit exactly at the threshold and are kept
    "n70-at-threshold": (bb84.Bb84Config(n=70, error_threshold=4 / 70), QubitChannel(0.1)),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_run_bb84_matches_dense_replay(setting):
    config, qchan = SETTINGS[setting]
    completed = 0
    for seed in range(50):
        a_prime, record, keys = _dense_attempt(config, qchan, *_streams(seed))
        if keys is None:
            with pytest.raises(bb84.SiftShortfall):
                bb84.run_bb84(config, qchan, ClassicalAuthChannel(), *_streams(seed))
            continue
        out = bb84.run_bb84(config, qchan, ClassicalAuthChannel(), *_streams(seed))
        assert np.array_equal(out.session.a_prime, a_prime)
        if record is None:
            assert out.session.eve_record is None
        else:
            eve = out.session.eve_record
            for got, want in zip((eve.positions, eve.bases, eve.outcomes), record):
                assert np.array_equal(got, np.array(want, dtype=got.dtype))
        assert out.aborted == (keys == "abort")
        if not out.aborted:
            assert np.array_equal(out.alice.session_key, keys[0])
            assert np.array_equal(out.bob.session_key, keys[1])
            completed += 1
    assert completed >= 25


class TestFromStates:
    def test_bb84_states_round_trip(self):
        states = [qcore.bb84_state(bit, basis) for bit in (0, 1) for basis in (0, 1)]
        batch = from_states(states)
        assert batch.bits.tolist() == [0, 0, 1, 1] and batch.bases.tolist() == [0, 1, 0, 1]
        assert all(got is want for got, want in zip(dense_states(batch), states))

    def test_flipped_and_phased_states_round_trip_up_to_phase(self):
        states = [_dense(bit, basis, 1) for bit in (0, 1) for basis in (0, 1)]
        states.append(StateVector(1, 1j * qcore.bb84_state(0, 1).amplitudes))
        for got, want in zip(dense_states(from_states(states)), states):
            assert abs(np.vdot(got.amplitudes, want.amplitudes)) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_x_batch_is_the_dense_x_up_to_phase(self):
        batch = Bb84Qubits([0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 1])
        mask = np.array([1, 1, 1, 1, 0, 0], dtype=bool)
        flipped = batch.pauli_x(mask)
        assert flipped.bases is batch.bases and flipped.bits.tolist() == [1, 0, 0, 1, 0, 1]
        for got, state, x in zip(dense_states(flipped), dense_states(batch), mask):
            want = state.amplitudes[::-1] if x else state.amplitudes
            assert abs(np.vdot(got.amplitudes, want)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("mask", [[0.5], [1.0], [2], np.array([-1]), ["1"], [[True]]])
    def test_pauli_x_rejects_a_mask_that_is_not_bits(self, mask):
        # at a float or wide-integer mask the bool cast used to flip the bit
        with pytest.raises(ValueError):
            qcore.prepare_bb84([0], [0]).pauli_x(mask)

    def test_bell_state_rejected(self):
        with pytest.raises(ValueError):
            from_states([qcore.bell_state(qcore.BellKind.PHI_PLUS)])

    def test_non_bb84_qubit_rejected(self):
        tilted = StateVector(1, np.array([np.cos(0.3), np.sin(0.3)]))
        with pytest.raises(ValueError):
            from_states([qcore.bb84_state(0, 0), tilted])

    def test_bad_batch_fields_rejected(self):
        assert [f.name for f in dataclasses.fields(Bb84Qubits)] == ["bits", "bases"]
        with pytest.raises(ValueError):
            Bb84Qubits([0, 2], [0, 0])
        with pytest.raises(ValueError):
            Bb84Qubits([0, 1], [0])
        with pytest.raises(ValueError):
            qcore.prepare_bb84(0, 1)

    def test_batches_built_inside_are_valid_and_read_only(self):
        # transmit and the interceptor skip the public checks; prepare_bb84,
        # measure and pauli_x keep them
        with pytest.raises(ValueError):
            qcore.prepare_bb84(np.array([0, 2]), np.array([0, 0]))
        with pytest.raises(ValueError):
            qcore.prepare_bb84(np.array([0, 1]), np.array([0]))
        sent = qcore.prepare_bb84(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 1]))
        delivered, _ = transmit(QubitChannel(flip_probability=0.5), sent, RandomStream(3))
        collapsed, _ = EvePolicy(1.0).intercept(delivered, RandomStream(4))
        for batch in (delivered, collapsed):
            for arr in (batch.bits, batch.bases):
                assert arr.dtype == np.uint8 and arr.shape == (4,)
                assert not arr.flags.writeable and (arr <= 1).all()
        with pytest.raises(ValueError):
            qcore.measure(delivered, [2, 0, 0, 0], RandomStream(5))
        with pytest.raises(ValueError):
            qcore.measure(delivered, [0], RandomStream(5))
        with pytest.raises(ValueError):
            delivered.pauli_x([True])
