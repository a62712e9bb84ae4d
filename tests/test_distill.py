"""Filtering, verification, teleportation, decoupling, and the teleported
key exchange with its uniform-classical-bits property."""

import numpy as np
import pytest
from scipy import stats

from qdeny import bb84, distill, gf2, qcore
from qdeny.channel import ClassicalAuthChannel
from qdeny.distill import (
    PartialPair,
    binary_entropy,
    distill_batch,
    eve_decoupling_check,
    procrustean_filter,
    qke_over_teleportation,
    teleport,
    verify_ebits,
)
from qdeny.qcore import BellKind, StateVector
from qdeny.rng import RandomStream


def random_qubit(gen) -> StateVector:
    amps = gen.normal(size=2) + 1j * gen.normal(size=2)
    return StateVector(1, amps / np.linalg.norm(amps))


PHI_PLUS = qcore.bell_state(BellKind.PHI_PLUS)
CODES = gf2.default_nested_pair()


def dense_filter(pair: PartialPair, rng: RandomStream):
    """The oracle: build the filtered state afresh on every call."""
    amps = pair.state.amplitudes.copy()
    if pair.theta <= np.pi / 4:
        filtered = np.array([amps[0] * np.tan(pair.theta), 0, 0, amps[3]], dtype=complex)
    else:
        filtered = np.array([amps[0], 0, 0, amps[3] / np.tan(pair.theta)], dtype=complex)
    p_success = float(np.sum(np.abs(filtered) ** 2))
    if rng.random() >= p_success:
        return None
    return StateVector(2, filtered / np.sqrt(p_success))


def dense_is_ebit(state: StateVector) -> bool:
    """The oracle: fidelity with Phi+ through the density matrix."""
    return qcore.fidelity(PHI_PLUS, qcore.to_density(state)) >= 1.0 - 1e-9


def dense_teleport(psi: StateVector, ebit: StateVector, rng):
    """The oracle: the dense circuit run afresh on every call."""
    if psi.n_qubits != 1 or ebit.n_qubits != 2 or not dense_is_ebit(ebit):
        raise ValueError("can only teleport a single qubit through a Phi+ ebit")
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    joint = qcore.tensor(psi, ebit)
    joint = qcore.apply_unitary(joint, cnot, [0, 1])
    joint = qcore.apply_unitary(joint, qcore.HADAMARD, [0])
    m_phase, joint = qcore.measure_subsystem(joint, 0, 0, rng)
    m_bit, joint = qcore.measure_subsystem(joint, 1, 0, rng)
    if m_bit:
        joint = qcore.apply_unitary(joint, qcore.PAULI_X, [2])
    if m_phase:
        joint = qcore.apply_unitary(joint, qcore.PAULI_Z, [2])
    return StateVector(1, joint.tensor_shape()[m_phase, m_bit, :]), (m_phase, m_bit)


class NearHalfStream:
    """Seeded uniforms, two thirds of them moved next to 1/2: onto a grid of
    ulps around it, or to within 5e-6 of it.

    Teleportation's Born thresholds sit an ulp or two from 1/2 (a few 1e-6
    for an accepted near-ebit), so plain uniforms almost never fall between
    a threshold and a slightly wrong one; these draws do.
    """

    def __init__(self, seed: int):
        self._gen = RandomStream(seed).generator

    def random(self) -> float:
        kind, u = int(self._gen.integers(3)), float(self._gen.random())
        if kind == 0:
            return u
        if kind == 1:
            return 0.5 + (u - 0.5) * 1e-5
        return 0.5 + int(self._gen.integers(-4, 5)) * 2.0**-54

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.random() for _ in range(n)])


class NearHalfTeleports:
    """A RandomStream whose `teleport` substream is a NearHalfStream."""

    def __init__(self, seed: int):
        self._rng, self._seed = RandomStream(seed), seed

    def substream(self, label: str, index: int = 0):
        return NearHalfStream(self._seed) if label == "teleport" else self._rng.substream(label, index)


def near_ebit(infidelity: float) -> StateVector:
    """sqrt(1 - e) Phi+ + sqrt(e) Phi-: fidelity 1 - e with Phi+."""
    phi_minus = qcore.bell_state(BellKind.PHI_MINUS).amplitudes
    amps = np.sqrt(1 - infidelity) * PHI_PLUS.amplitudes + np.sqrt(infidelity) * phi_minus
    return StateVector(2, amps)


class TestFilter:
    def test_maximally_entangled_always_succeeds(self):
        rng = RandomStream(1)
        pair = PartialPair(np.pi / 4)
        assert pair.success_probability == pytest.approx(1.0)
        for _ in range(50):
            out = procrustean_filter(pair, rng)
            assert out is not None
            assert qcore.fidelity(PHI_PLUS, qcore.to_density(out)) == pytest.approx(1.0, abs=1e-12)

    def test_success_rate_pi_over_6(self):
        rng = RandomStream(2)
        trials = 100_000
        pair = PartialPair(np.pi / 6)
        wins = sum(procrustean_filter(pair, rng) is not None for _ in range(trials))
        sigma = np.sqrt(0.25 / trials)
        assert abs(wins / trials - 0.5) < 3 * sigma

    def test_small_theta_rare_success(self):
        rng = RandomStream(3)
        pair = PartialPair(0.05)
        expect = 2 * np.sin(0.05) ** 2
        assert expect == pytest.approx(0.004997, abs=1e-5)
        trials = 200_000
        wins = sum(procrustean_filter(pair, rng) is not None for _ in range(trials))
        sigma = np.sqrt(expect / trials)
        assert abs(wins / trials - expect) < 3.5 * sigma

    def test_symmetric_filter_past_pi_over_4(self):
        rng = RandomStream(4)
        theta = np.pi / 3  # success probability 2 cos^2 = 1/2
        pair = PartialPair(theta)
        assert pair.success_probability == pytest.approx(0.5)
        outs = [procrustean_filter(pair, rng) for _ in range(2000)]
        hits = [o for o in outs if o is not None]
        assert abs(len(hits) / 2000 - 0.5) < 3 * np.sqrt(0.25 / 2000)
        for out in hits[:20]:
            assert qcore.fidelity(PHI_PLUS, qcore.to_density(out)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "theta",
        [float(t) for t in np.linspace(0.05, np.pi / 4 - 0.01, 10)]
        + [float(t) for t in np.linspace(np.pi / 4 + 0.01, np.pi / 2 - 0.05, 10)],
    )
    def test_cached_output_equals_per_call_construction(self, theta):
        pair = PartialPair(theta)
        fast, dense = RandomStream(30), RandomStream(30)
        hits = 0
        for _ in range(2000):
            got, want = procrustean_filter(pair, fast), dense_filter(pair, dense)
            assert (got is None) == (want is None)
            if got is not None:
                hits += 1
                assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert hits > 0
        report = distill_batch(2000, theta, RandomStream(31))
        ebit, rng = None, RandomStream(32)
        while ebit is None:
            ebit = dense_filter(pair, rng)
        fid = qcore.fidelity(PHI_PLUS, qcore.to_density(ebit))
        assert report.output_fidelity_min == min(1.0, fid)

    def test_successes_share_one_immutable_ebit(self):
        pair, rng = PartialPair(np.pi / 6), RandomStream(33)
        outs = [procrustean_filter(pair, rng) for _ in range(200)]
        shared = distill._filter_output(np.pi / 6)[0]
        assert {id(e) for e in outs if e is not None} == {id(shared)}
        assert not shared.amplitudes.flags.writeable

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            PartialPair(0.0)
        with pytest.raises(ValueError):
            PartialPair(np.pi / 2)


class TestBatch:
    def test_rate_below_entropy_bound(self):
        rng = RandomStream(5)
        n = 50_000
        for theta in (np.pi / 8, np.pi / 6, np.pi / 5, np.pi / 4):
            report = distill_batch(n, theta, rng)
            expect = 2 * np.sin(theta) ** 2
            sigma = np.sqrt(expect * (1 - expect) / n) if expect < 1 else 0.0
            assert report.rate <= report.rate_bound + 3 * sigma
            assert abs(report.rate - expect) <= 3.5 * max(sigma, 1e-9)

    @pytest.mark.parametrize("theta", [np.pi / 6, 0.3, 1.1, 0.02])
    def test_count_is_the_filter_successes_of_an_equal_stream(self, theta):
        n, pair, fast, oracle = 20_000, PartialPair(theta), RandomStream(34), RandomStream(34)
        report = distill_batch(n, theta, fast)
        hits = sum(procrustean_filter(pair, oracle) is not None for _ in range(n))
        assert 0 < report.succeeded == hits < n
        assert fast.random() == oracle.random()  # one draw a pair, no more

    def test_count_across_a_chunk_boundary_equals_one_draw(self):
        n, theta = distill._CHUNK + 3, 0.3
        fast, oracle = RandomStream(37), RandomStream(37)
        report = distill_batch(n, theta, fast)
        p_success = PartialPair(theta).success_probability
        assert report.succeeded == np.count_nonzero(oracle.uniforms(n) < p_success)
        assert fast.random() == oracle.random()

    def test_no_success_reports_zero_fidelity_and_rate(self):
        pair, oracle = PartialPair(0.02), RandomStream(35)
        assert not any(procrustean_filter(pair, oracle) is not None for _ in range(20))
        report = distill_batch(20, 0.02, RandomStream(35))
        assert (report.succeeded, report.rate, report.output_fidelity_min) == (0, 0.0, 0.0)

    def test_pi_over_4_saturates(self):
        report = distill_batch(2000, np.pi / 4, RandomStream(6))
        assert report.rate == 1.0
        assert report.rate_bound == pytest.approx(1.0)

    def test_all_outputs_perfect(self):
        report = distill_batch(5000, np.pi / 6, RandomStream(7))
        assert report.output_fidelity_min >= 1 - 1e-10

    def test_entropy_bound_value(self):
        assert binary_entropy(0.75) == pytest.approx(0.8112781244591328, abs=1e-12)


class TestVerification:
    def test_filtered_batch_passes(self):
        report = distill_batch(200, np.pi / 6, RandomStream(8))
        ebit = distill._filter_output(np.pi / 6)[0]
        assert verify_ebits(ebit, report.succeeded, round(0.25 * report.succeeded)) is True

    def test_planted_partial_pair_detected_at_full_sampling(self):
        assert verify_ebits(PartialPair(np.pi / 6).state, 51, 51) is False

    def test_product_states_detected(self):
        fake = qcore.basis_state("00")
        assert qcore.fidelity(PHI_PLUS, qcore.to_density(fake)) == pytest.approx(0.5)
        assert verify_ebits(fake, 10, 10) is False

    @pytest.mark.parametrize("theta", [0.3, np.pi / 6, np.pi / 4, 1.1])
    def test_shared_ebit_passes_on_both_sides_of_pi_over_4(self, theta):
        # past pi/4 the filter shrinks the other amplitude; both give Phi+
        ebit = distill._filter_output(theta)[0]
        assert dense_is_ebit(ebit)
        assert verify_ebits(ebit, 8, 2) is True

    @pytest.mark.parametrize("n_sample", [0, 4])
    def test_sample_size_outside_one_to_count_rejected(self, n_sample):
        with pytest.raises(ValueError, match="sample size"):
            verify_ebits(PHI_PLUS, 3, n_sample)

    def test_no_ebits_rejected(self):
        with pytest.raises(ValueError, match="nothing to verify"):
            verify_ebits(PHI_PLUS, 0, 1)


class TestTeleport:
    def test_basis_states_exact(self):
        rng = RandomStream(13)
        for label in ("0", "1"):
            out, _ = teleport(qcore.basis_state(label), PHI_PLUS, rng)
            fid = abs(np.vdot(qcore.basis_state(label).amplitudes, out.amplitudes)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-12)

    def test_random_states_fidelity_one(self):
        gen = RandomStream(14).generator
        rng = RandomStream(15)
        for _ in range(300):
            psi = random_qubit(gen)
            out, _ = teleport(psi, PHI_PLUS, rng)
            fid = abs(np.vdot(psi.amplitudes, out.amplitudes)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-10)

    def test_classical_bits_uniform(self):
        rng = RandomStream(16)
        plus = qcore.bb84_state(0, 1)
        counts = np.zeros(4, dtype=int)
        trials = 10_000
        for _ in range(trials):
            _, (m_phase, m_bit) = teleport(plus, PHI_PLUS, rng)
            counts[2 * m_phase + m_bit] += 1
        _, p = stats.chisquare(counts)
        assert p > 1e-3

    def test_classical_bits_independent_of_state(self):
        # mutual information between teleported encoding and announced bits
        rng = RandomStream(17)
        gen = RandomStream(18).generator
        joint = np.zeros((4, 4), dtype=int)
        trials = 10_000
        for _ in range(trials):
            bit, basis_bit = int(gen.integers(0, 2)), int(gen.integers(0, 2))
            psi = qcore.bb84_state(bit, basis_bit)
            _, (m_phase, m_bit) = teleport(psi, PHI_PLUS, rng)
            joint[2 * bit + basis_bit, 2 * m_phase + m_bit] += 1
        pxy = joint / trials
        px = pxy.sum(axis=1, keepdims=True)
        py = pxy.sum(axis=0, keepdims=True)
        nz = pxy > 0
        mi = float(np.sum(pxy[nz] * np.log2(pxy[nz] / (px @ py)[nz])))
        # plug-in MI bias is about (|X|-1)(|Y|-1) / (2 N ln 2)
        assert mi < 9 / (2 * trials * np.log(2)) * 3 + 1e-3

    def assert_matches_dense(self, psi, ebit, seed, draws):
        fast, dense = NearHalfStream(seed), NearHalfStream(seed)
        shared = {}
        for _ in range(draws):
            got, got_bits = teleport(psi, ebit, fast)
            want, want_bits = dense_teleport(psi, ebit, dense)
            assert got_bits == want_bits
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert shared.setdefault(got_bits, got) is got
        return set(shared)

    @pytest.mark.parametrize(
        "theta",
        [float(t) for t in np.linspace(0.05, np.pi / 4 - 0.01, 6)]
        + [float(t) for t in np.linspace(np.pi / 4 + 0.01, np.pi / 2 - 0.05, 6)],
    )
    def test_bb84_states_through_filter_ebit_equal_dense_oracle(self, theta):
        ebit, rng = None, RandomStream(42)
        while ebit is None:
            ebit = procrustean_filter(PartialPair(theta), rng)
        for i, (bit, basis) in enumerate(np.ndindex(2, 2)):
            psi = qcore.bb84_state(bit, basis)
            assert len(self.assert_matches_dense(psi, ebit, 50 + i, draws=40)) == 4
            p_phase, p_bit, _ = distill._teleport_table(psi, ebit)
            for p in (p_phase, *p_bit):
                assert abs(p - 0.5) < 1e-12

    def test_bb84_states_and_random_states_through_phi_plus_equal_dense_oracle(self):
        for i, (bit, basis) in enumerate(np.ndindex(2, 2)):
            psi = qcore.bb84_state(bit, basis)
            assert len(self.assert_matches_dense(psi, PHI_PLUS, 60 + i, draws=100)) == 4
        gen = RandomStream(61).generator
        for i in range(200):
            self.assert_matches_dense(random_qubit(gen), PHI_PLUS, 1000 + i, draws=2)

    def test_accepted_near_ebit_equals_dense_oracle(self):
        # thresholds a few 1e-6 off 1/2, still within the branch tolerance
        ebit = near_ebit(1e-11)
        for i in range(10):
            psi = random_qubit(RandomStream(70 + i).generator)
            assert len(self.assert_matches_dense(psi, ebit, 80 + i, draws=40)) == 4

    def test_rejects_non_ebit(self):
        with pytest.raises(ValueError):
            teleport(qcore.basis_state("0"), qcore.basis_state("00"), RandomStream(19))

    @pytest.mark.parametrize(
        "psi, pair, message",
        [
            (qcore.basis_state("00"), PHI_PLUS, "single qubit"),
            (qcore.basis_state("0"), qcore.basis_state("0"), "two qubits"),
            (qcore.basis_state("0"), near_ebit(1e-6), "not a Phi\\+ ebit"),
        ],
        ids=["two-qubit psi", "one-qubit pair", "fidelity 1-1e-6"],
    )
    def test_bad_input_rejected_on_every_call_without_a_draw(self, psi, pair, message):
        if psi.n_qubits == 1:
            teleport(psi, PHI_PLUS, RandomStream(20))  # psi alone is fine
        for _ in range(3):
            rng = RandomStream(21)
            with pytest.raises(ValueError, match=message):
                teleport(psi, pair, rng)
            assert rng.random() == RandomStream(21).random()

    def test_equal_states_share_one_table(self, monkeypatch):
        psi = random_qubit(RandomStream(22).generator)
        teleport(psi, PHI_PLUS, RandomStream(23))
        checks = []
        monkeypatch.setattr(distill, "_is_ebit", lambda state: checks.append(state) or True)
        hits = distill._teleport_table.cache_info().hits
        psi_again = StateVector(1, psi.amplitudes.copy())
        ebit_again = StateVector(2, PHI_PLUS.amplitudes.copy())
        for _ in range(14):
            teleport(psi_again, ebit_again, RandomStream(24))
        assert distill._teleport_table.cache_info().hits == hits + 14
        assert checks == []  # the input checks ran when the table was built

    @pytest.mark.parametrize(
        "pair, accepted",
        [
            (PHI_PLUS, True),
            (near_ebit(1e-11), True),
            (near_ebit(1e-8), False),
            (qcore.bell_state(BellKind.PHI_MINUS), False),
            (qcore.bell_state(BellKind.PSI_PLUS), False),
        ],
        ids=["phi+", "fidelity 1-1e-11", "fidelity 1-1e-8", "phi-", "psi+"],
    )
    def test_ebit_check_matches_density_oracle(self, pair, accepted):
        assert dense_is_ebit(pair) is accepted
        psi = qcore.basis_state("1")
        if accepted:
            out, _ = teleport(psi, pair, RandomStream(40))
            assert abs(np.vdot(psi.amplitudes, out.amplitudes)) ** 2 == pytest.approx(1.0)
        else:
            with pytest.raises(ValueError, match="not a Phi\\+ ebit"):
                teleport(psi, pair, RandomStream(40))
        assert verify_ebits(pair, 1, 1) is accepted


class TestDecoupling:
    def test_product_with_spectator_true(self):
        state = qcore.tensor(PHI_PLUS, qcore.basis_state("0"))
        assert eve_decoupling_check(state, 0, 1)

    def test_ghz_false(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b111] = 1 / np.sqrt(2)
        ghz = StateVector(3, amps)
        assert not eve_decoupling_check(ghz, 0, 1)
        rho_ab = qcore.partial_trace(qcore.to_density(ghz), [0, 1])
        assert qcore.fidelity(PHI_PLUS, rho_ab) == pytest.approx(0.5)

    def test_filter_outcome_flag_is_classical(self):
        # spectator records the filter outcome; success branch stays product
        rng = RandomStream(20)
        out = None
        while out is None:
            out = procrustean_filter(PartialPair(np.pi / 6), rng)
        flagged = qcore.tensor(out, qcore.basis_state("1"))
        assert eve_decoupling_check(flagged, 0, 1)

    def test_distilled_outputs_with_arbitrary_spectator(self):
        gen = RandomStream(21).generator
        ebit = distill._filter_output(np.pi / 5)[0]
        for _ in range(20):
            spectator = random_qubit(gen)
            state = qcore.tensor(ebit, spectator)
            assert eve_decoupling_check(state, 0, 1)

    def test_other_bell_states_count_as_maximally_entangled(self):
        for kind in BellKind:
            state = qcore.tensor(qcore.bell_state(kind), qcore.basis_state("0"))
            assert eve_decoupling_check(state, 0, 1)

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            eve_decoupling_check(qcore.tensor(PHI_PLUS, qcore.basis_state("0")), 1, 1)


def dense_qke_over_teleportation(m, theta, rng, codes):
    """The oracle: `qke_over_teleportation` with each pair filtered on its
    own into a list of ebits, and Bob measuring each received qubit on its
    own, one dense one-qubit measurement drawn from his stream."""
    needed = m + max(4, m // 4)
    pair, ebits = PartialPair(theta), []
    for attempt in range(distill.FILTER_ATTEMPTS):
        filter_rng = rng.substream("filter", attempt)
        outs = [procrustean_filter(pair, filter_rng) for _ in range(needed * 2)]
        ebits.extend(e for e in outs if e is not None)
        if len(ebits) >= needed:
            break
    assert len(ebits) >= needed and all(distill._is_ebit(e) for e in ebits)
    cchan = ClassicalAuthChannel()
    rng_a, rng_b = rng.substream("alice"), rng.substream("bob")
    a, b = rng_a.bits(m), rng_a.bits(m)
    b_prime = rng_b.bits(m)
    rng_t = rng.substream("teleport")
    a_prime = np.empty(m, dtype=np.uint8)
    teleport_bits = np.empty(2 * m, dtype=np.uint8)
    for i in range(m):
        state = qcore.bb84_state(int(a[i]), b[i])
        received, bits = teleport(state, ebits[i], rng_t)
        teleport_bits[2 * i : 2 * i + 2] = bits
        a_prime[i], _ = qcore.measure_subsystem(received, 0, b_prime[i], rng_b)
    cchan.send("alice", "teleport-bits", teleport_bits)
    matched = np.where(b == b_prime)[0]
    bb84._announce_bases(cchan, b, matched)
    check_pos, payload_pos = bb84._split_check(matched, matched.size // 2, rng_a)
    error_rate, _, key_a, key_b = bb84._check_and_reconcile(
        cchan, codes, a, a_prime, check_pos, payload_pos, 0.0, rng_a)
    assert error_rate == 0.0
    return key_a, key_b, cchan.log


class TestTeleportedKeyExchange:
    def test_noiseless_agreement(self):
        root = RandomStream(23)
        for i in range(10):
            k_a, k_b, _ = qke_over_teleportation(16, np.pi / 4, root.substream("s", i), CODES)
            assert np.array_equal(k_a, k_b)
            assert k_a.size > 0

    def test_classical_bit_accounting(self):
        m = 24
        _, _, transcript = qke_over_teleportation(m, np.pi / 4, RandomStream(24), CODES)
        by_label = {msg.label: msg for msg in transcript}
        assert by_label["teleport-bits"].n_bits == 2 * m
        protocol_bits = sum(msg.n_bits for msg in transcript) - 2 * m
        assert protocol_bits > 0  # ordinary chatter rides alongside

    def test_transcript_is_the_shared_bb84_steps(self):
        # after the teleportation bits, every message is one that the bb84
        # sifting and check-reconcile path sends: replay that path on a
        # fresh channel from the announced bases and sift mask
        m, codes = 40, gf2.default_nested_pair()
        k_a, k_b, transcript = qke_over_teleportation(m, np.pi / 6, RandomStream(27), codes=codes)
        by_label = {msg.label: msg.bits for msg in transcript}
        b = by_label["bases"]
        b_prime = b ^ 1 ^ by_label["sift-mask"]  # matches exactly where the mask is set
        replay = ClassicalAuthChannel()
        sifted = bb84._matching(b, b_prime)
        bb84._announce_bases(replay, b, sifted)
        check, payload = bb84._split_check(sifted, sifted.size // 2, RandomStream(0))
        bits = np.zeros(m, np.uint8)
        error_rate, u, *_ = bb84._check_and_reconcile(
            replay, codes, bits, bits, check, payload, 0.0, RandomStream(1))
        assert error_rate == 0.0
        usable = payload.size - payload.size % codes.c1.n
        assert usable > 0 and u.size == usable
        replayed = {msg.label: msg.bits for msg in replay.log}
        shape = [(msg.sender, msg.label, msg.n_bits) for msg in transcript]
        assert shape[0] == ("alice", "teleport-bits", 2 * m)
        assert shape[1:] == [(msg.sender, msg.label, msg.n_bits) for msg in replay.log]
        for label in ("bases", "sift-mask"):
            assert np.array_equal(by_label[label], replayed[label])
        assert np.array_equal(by_label["check-values-alice"], by_label["check-values-bob"])
        assert by_label["verdict"].tolist() == [1]
        assert k_a.size == k_b.size == usable // codes.c1.n * codes.key_bits

    def test_reconciles_only_with_a_full_block_of_payload(self):
        # at m=14 about 7 bases match and half of them are checked, so the
        # payload never fills a 7-bit block: no correction message, and the
        # keys are the raw payload bits; at m=40 most sessions reconcile
        codes = gf2.default_nested_pair()
        root = RandomStream(28)
        reconciled = {14: 0, 40: 0}
        for m in reconciled:
            for i in range(25):
                k_a, _, transcript = qke_over_teleportation(
                    m, np.pi / 6, root.substream(f"m{m}", i), codes=codes
                )
                sifted = int(next(msg for msg in transcript if msg.label == "sift-mask").bits.sum())
                payload = sifted - sifted // 2
                if any(msg.label == "correction" for msg in transcript):
                    reconciled[m] += 1
                    assert payload >= codes.c1.n
                    assert k_a.size == payload // codes.c1.n * codes.key_bits
                else:
                    assert payload < codes.c1.n
                    assert k_a.size == payload
        assert reconciled[14] == 0
        assert reconciled[40] >= 20

    @pytest.mark.parametrize("m", [1, 2, 7, 14, 40])
    @pytest.mark.parametrize("theta", [np.pi / 6, 0.3, 1.1, np.pi / 4])
    def test_batch_measurement_equals_per_qubit_oracle(self, monkeypatch, m, theta):
        # keys and transcript show Bob's outcomes only where the bases match,
        # where they are certain; _check_and_reconcile is handed all m of
        # them. At m = 1 and 2 nothing may be checked and the keys hold 0 or
        # 1 bits
        outcomes = []
        check_and_reconcile = bb84._check_and_reconcile
        monkeypatch.setattr(bb84, "_check_and_reconcile", lambda *args: (  # args[3] is a_prime
            outcomes.append(args[3].tolist()) or check_and_reconcile(*args)))
        root = RandomStream(29)
        for i in range(10):
            got = qke_over_teleportation(m, theta, root.substream("s", i), CODES)
            want = dense_qke_over_teleportation(m, theta, root.substream("s", i), CODES)
            got_outcomes, want_outcomes = outcomes
            outcomes.clear()
            assert got_outcomes == want_outcomes
            assert [k.tolist() for k in got[:2]] == [k.tolist() for k in want[:2]]
            assert [(msg.sender, msg.label, msg.bits.tolist()) for msg in got[2]] == [
                (msg.sender, msg.label, msg.bits.tolist()) for msg in want[2]]

    def test_one_teleport_stream_per_exchange(self, monkeypatch):
        labels = []
        substream = RandomStream.substream
        monkeypatch.setattr(RandomStream, "substream", lambda self, label, index=0: (
            labels.append((label, index)) or substream(self, label, index)))
        qke_over_teleportation(14, np.pi / 6, RandomStream(30), CODES)
        attempts = sum(label == "filter" for label, _ in labels)
        assert 1 <= attempts <= distill.FILTER_ATTEMPTS
        assert labels == [("filter", i) for i in range(attempts)] + [
            ("alice", 0), ("bob", 0), ("teleport", 0)]

    @pytest.mark.parametrize("theta", [np.pi / 6, 1.1])
    def test_verifies_and_teleports_through_the_counted_shared_ebit(self, monkeypatch, theta):
        # the exchange's teleport table is built afresh here, one forced
        # `teleport` call per BB84 state and branch, all through the ebit
        m, counts, verified, teleported = 14, [], [], []
        batch, verify, tele = distill.distill_batch, distill.verify_ebits, distill.teleport

        def counted_batch(n, t, rng):
            report = batch(n, t, rng)
            counts.append(report.succeeded)
            return report

        monkeypatch.setattr(distill, "distill_batch", counted_batch)
        monkeypatch.setattr(distill, "verify_ebits", lambda ebit, count, n_sample: (
            verified.append((id(ebit), count, n_sample)) or verify(ebit, count, n_sample)))
        monkeypatch.setattr(distill, "teleport", lambda psi, ebit, rng: (
            teleported.append(id(ebit)) or tele(psi, ebit, rng)))
        distill._exchange_table.cache_clear()
        qke_over_teleportation(m, theta, RandomStream(36), CODES)
        shared = id(distill._filter_output(theta)[0])
        assert verified == [(shared, sum(counts), sum(counts) - m)]
        assert sum(counts) >= m + max(4, m // 4)
        assert teleported == [shared] * 16

    def test_teleport_bits_are_successive_draws_of_the_teleport_stream(self, monkeypatch):
        # the oracle: one `teleport` call per qubit, from the teleport
        # stream, and Bob's outcomes drawn against each received state's P(0);
        # near-1/2 teleport draws tell apart thresholds an ulp or two apart
        outcomes = []
        check_and_reconcile = bb84._check_and_reconcile
        monkeypatch.setattr(bb84, "_check_and_reconcile", lambda *args: (  # args[3] is a_prime
            outcomes.append(args[3].tolist()) or check_and_reconcile(*args)))
        m, root = 14, RandomStream(31)
        for theta in (np.pi / 6, np.pi / 5, 1.1):
            ebit, r = None, RandomStream(0)
            while ebit is None:  # every success at theta is the one shared ebit
                ebit = procrustean_filter(PartialPair(theta), r)
            for i in range(400):
                rng = root.substream(f"theta {theta}", i) if i % 2 else NearHalfTeleports(i)
                _, _, transcript = qke_over_teleportation(m, theta, rng, CODES)
                rng_a, rng_b = rng.substream("alice"), rng.substream("bob")
                a, b, b_prime = rng_a.bits(m), rng_a.bits(m), rng_b.bits(m)
                rng_t, p0, want = rng.substream("teleport"), np.empty(m), []
                for j in range(m):
                    received, bits = teleport(qcore.bb84_state(int(a[j]), int(b[j])), ebit, rng_t)
                    want.extend(bits)
                    p0[j] = qcore._p0(received.amplitudes, b_prime[j])
                got = next(msg for msg in transcript if msg.label == "teleport-bits").bits
                assert got.tolist() == want
                assert outcomes.pop() == (rng_b.uniforms(m) >= p0).astype(np.uint8).tolist()

    def test_distillation_shortfall_raises(self):
        with pytest.raises(RuntimeError, match="distillation shortfall"):
            qke_over_teleportation(64, 0.02, RandomStream(25), CODES)

    def test_teleport_bits_tell_judge_nothing(self):
        # sweep sessions; the announced bit pairs are uniform regardless of
        # the BB84 encodings teleported through them
        root = RandomStream(26)
        joint = np.zeros((2, 4), dtype=int)
        for i in range(400):
            r = root.substream("s", i)
            m = 4
            k_a, k_b, transcript = qke_over_teleportation(m, np.pi / 4, r, CODES)
            bits = {msg.label: msg.bits for msg in transcript}["teleport-bits"]
            bases = {msg.label: msg.bits for msg in transcript}["bases"]
            for j in range(m):
                pair_val = 2 * bits[2 * j] + bits[2 * j + 1]
                joint[bases[j], pair_val] += 1
        _, p, _, _ = stats.chi2_contingency(joint)
        assert p > 1e-3
