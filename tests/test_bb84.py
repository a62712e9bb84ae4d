"""Protocol-level BB84 tests: sifting, key extraction, transcripts, secrecy."""

import numpy as np
import pytest

from qdeny import bb84, gf2
from qdeny.bb84 import (
    Bb84Config, SiftShortfall, extract_key, required_slots, run_bb84, run_session, sift,
)
from qdeny.channel import ClassicalAuthChannel, QubitChannel
from qdeny.rng import RandomStream

NOISELESS = QubitChannel(flip_probability=0.0)


@pytest.fixture(scope="module")
def config():
    return Bb84Config(n=14, delta=0.5)


class TestSift:
    def test_all_match(self):
        b = np.array([0, 1, 0, 1], dtype=np.uint8)
        idx = sift(b, b.copy())
        assert np.array_equal(idx, np.arange(4))

    def test_none_match(self):
        b = np.array([0, 1, 0, 1], dtype=np.uint8)
        idx = sift(b, 1 - b)
        assert idx.size == 0

    def test_retention_is_half(self):
        rng = RandomStream(1)
        n = 10_000
        b, b_prime = rng.bits(n), rng.bits(n)
        idx = sift(b, b_prime)
        sigma = np.sqrt(0.25 / n)
        assert abs(idx.size / n - 0.5) < 3 * sigma

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sift(np.zeros(3, np.uint8), np.zeros(4, np.uint8))


class CountingInterceptor:
    """Passes the qubits through untouched and counts its calls."""

    def __init__(self):
        self.calls = 0

    def intercept(self, qubits, rng):
        self.calls += 1
        return qubits, None


class TestShortfall:
    @staticmethod
    def _attempt(config, seed):
        """run_bb84 on the attempt streams of `seed` behind a counting
        interceptor; returns (run it, interceptor, channel, environment stream)."""
        root = RandomStream(seed)
        interceptor, cchan = CountingInterceptor(), ClassicalAuthChannel()
        env = root.substream("environment")
        qchan = QubitChannel(flip_probability=0.0, interceptor=interceptor)
        streams = root.substream("alice"), root.substream("bob"), env
        return lambda: run_bb84(config, qchan, cchan, *streams), interceptor, cchan, env

    def test_raises_before_any_qubit_is_sent(self, config):
        # seed 33 matches 22 of 63 bases; the base strings alone decide that
        attempt, interceptor, cchan, env = self._attempt(config, 33)
        with pytest.raises(SiftShortfall, match="^only 22 sifted bits, need 28$"):
            attempt()
        assert interceptor.calls == 0 and cchan.log == ()
        assert env.random() == RandomStream(33).substream("environment").random()

    def test_a_full_attempt_calls_the_interceptor_once(self, config):
        attempt, interceptor, cchan, env = self._attempt(config, 0)
        attempt()
        assert interceptor.calls == 1 and len(cchan.log) > 0
        assert env.random() != RandomStream(0).substream("environment").random()


class TestSplitCheck:
    def test_equals_setdiff_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # sorted, distinct positions, as sift returns them; n_check from 0 to
        # size, with distill's size // 2 among the cases
        @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @hypothesis.given(seed=st.integers(0, (1 << 128) - 1), data=st.data())
        def check(seed, data):
            positions = np.array(
                sorted(data.draw(st.sets(st.integers(0, 199), max_size=60))), dtype=np.int64)
            n_check = data.draw(st.one_of(st.integers(0, positions.size),
                                          st.just(positions.size // 2)))
            a, b = RandomStream(seed), RandomStream(seed)
            check_pos, payload = bb84._split_check(positions, n_check, a)
            want_check = positions[b.choice_distinct(positions.size, n_check)]
            assert np.array_equal(check_pos, want_check)
            assert np.array_equal(payload, np.setdiff1d(positions, want_check))
            assert payload.dtype == positions.dtype
            assert a.random() == b.random()

        check()


class TestExtractKey:
    def test_no_error_agreement(self):
        pair = gf2.default_nested_pair()
        rng = RandomStream(2)
        for _ in range(50):
            u = np.concatenate([gf2.sample_codeword(pair.c1, rng, 1)[0] for _ in range(2)])
            v = rng.bits(14)
            k_a, k_b = extract_key(pair, v, v, u)
            assert np.array_equal(k_a, k_b)

    def test_single_flip_per_block_corrected(self):
        pair = gf2.default_nested_pair()
        rng = RandomStream(3)
        u = np.concatenate([gf2.sample_codeword(pair.c1, rng, 1)[0] for _ in range(2)])
        v = rng.bits(14)
        for i in range(7):
            for j in range(7):
                noisy = v.copy()
                noisy[i] ^= 1
                noisy[7 + j] ^= 1
                k_a, k_b = extract_key(pair, v, noisy, u)
                assert np.array_equal(k_a, k_b), f"flips at ({i}, {j})"

    def test_double_flip_can_fail(self):
        pair = gf2.default_nested_pair()
        rng = RandomStream(4)
        u = gf2.sample_codeword(pair.c1, rng, 1)[0]
        v = rng.bits(7)
        failures = 0
        for i in range(7):
            for j in range(i + 1, 7):
                noisy = v.copy()
                noisy[i] ^= 1
                noisy[j] ^= 1
                k_a, k_b = extract_key(pair, v, noisy, u)
                failures += int(not np.array_equal(k_a, k_b))
        assert failures > 0  # beyond the correction radius

    @pytest.mark.parametrize("bad", range(3))
    def test_non_bit_entry_in_any_input_rejected(self, bad):
        pair = gf2.default_nested_pair()
        inputs = [np.zeros(14, dtype=np.uint8) for _ in range(3)]
        inputs[bad][9] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            extract_key(pair, *inputs)

    @pytest.mark.parametrize("sizes", [(14, 14, 7), (14, 7, 14), (7, 14, 14), (6, 6, 6)])
    def test_size_mismatch_rejected(self, sizes):
        pair = gf2.default_nested_pair()
        with pytest.raises(ValueError, match="shared multiple of the block length"):
            extract_key(pair, *(np.zeros(size, dtype=np.uint8) for size in sizes))


class TestSessions:
    def test_noiseless_agreement(self, config):
        root = RandomStream(5)
        for i in range(50):
            out = run_session(config, NOISELESS, root.substream("s", i))
            assert not out.aborted
            assert out.keys_agree
            assert out.session.estimated_error == 0.0
            assert out.alice.session_key.size == config.key_bits

    def test_abort_under_heavy_noise(self):
        # Pauli-X noise at 0.5 shows up as a 25% error rate after sifting
        # (diagonal encodings are X-invariant); far above the 11% threshold,
        # so essentially every session aborts once enough check bits exist
        config = Bb84Config(n=70, delta=0.5)
        noisy = QubitChannel(flip_probability=0.5)
        root = RandomStream(6)
        aborted = 0
        for i in range(100):
            out = run_session(config, noisy, root.substream("s", i))
            aborted += int(out.aborted)
        assert aborted >= 99

    def test_session_result_tuple_shape(self, config):
        out = run_session(config, NOISELESS, RandomStream(7))
        assert set(out.alice.private_values) == {"raw_bits", "bases", "codeword"}
        assert set(out.bob.private_values) == {"outcomes", "bases"}

    def test_abort_marker(self, config):
        noisy = QubitChannel(flip_probability=0.5)
        root = RandomStream(8)
        out = run_session(config, noisy, root)
        assert out.aborted
        assert out.alice.session_key is None


class TestTranscript:
    def test_announcement_inventory(self, config):
        out = run_session(config, NOISELESS, RandomStream(9))
        labels = [m.label for m in out.session.transcript]
        assert labels == [
            "bases", "sift-mask", "check-mask", "payload-mask",
            "check-values-alice", "check-values-bob", "verdict", "correction",
        ]

    def test_transcript_contents_match_session(self, config):
        out = run_session(config, NOISELESS, RandomStream(10))
        s = out.session
        by_label = {m.label: m.bits for m in s.transcript}
        assert np.array_equal(by_label["bases"], s.b)
        q = config.qubit_count
        sift_mask = np.zeros(q, np.uint8)
        sift_mask[s.sifted] = 1
        assert np.array_equal(by_label["sift-mask"], sift_mask)
        assert np.array_equal(by_label["check-values-alice"], s.a[s.check_positions])
        assert np.array_equal(
            by_label["correction"], s.u ^ s.a[s.payload_positions]
        )

    def test_raw_strings_never_disclosed(self, config):
        # neither raw string appears verbatim in any single announcement
        out = run_session(config, NOISELESS, RandomStream(11))
        s = out.session
        for m in s.transcript:
            assert not np.array_equal(m.bits, s.a)
            assert not np.array_equal(m.bits, s.a_prime)

    def test_classical_bit_count_fixed(self, config):
        sizes = set()
        root = RandomStream(12)
        for i in range(10):
            out = run_session(config, NOISELESS, root.substream("s", i))
            sizes.add(sum(m.n_bits for m in out.session.transcript))
        assert sizes == {4 * config.qubit_count + 3 * config.n + 1}
        assert required_slots(config) == config.qubit_count + sizes.pop()


class TestKeySecrecy:
    def test_transcript_alone_never_pins_key(self):
        # withholding u, every candidate codeword explains the announced
        # correction; all eight coset labels stay live, the real one included
        config = Bb84Config(n=7, delta=0.5)
        pair = config.codes
        root = RandomStream(13)
        for i in range(200):
            out = run_session(config, NOISELESS, root.substream("s", i))
            correction = out.session.transcript[-1].bits
            candidates = set()
            for u_cand in pair.c1.codewords:
                v_cand = correction ^ u_cand  # consistent payload claim for this u
                assert v_cand.size == 7
                candidates.add(gf2.key_from_coset(pair, u_cand).tobytes())
            assert len(candidates) == 8
            assert out.alice.session_key.tobytes() in candidates

    def test_agreement_rate_at_noise_matches_exhaustive_oracle(self):
        # per-block success = P(corrected error is a C2 word), enumerated
        # exactly; a sifted position only sees the X flip when it was encoded
        # computationally, so the effective per-bit error rate is flip_p / 2
        config = Bb84Config(n=7, delta=0.5)
        pair = config.codes
        flip_p = 0.05
        p_eff = flip_p / 2
        exact = 0.0
        for pattern in range(128):
            err = np.array([(pattern >> k) & 1 for k in range(7)], dtype=np.uint8)
            weight = int(err.sum())
            prob = p_eff**weight * (1 - p_eff) ** (7 - weight)
            survivor = err ^ gf2.coset_leader(pair.c1, gf2.syndrome(pair.c1, err))
            in_c2 = any(np.array_equal(survivor, w) for w in pair.c2.codewords)
            exact += prob * in_c2
        qchan = QubitChannel(flip_probability=flip_p)
        root = RandomStream(14)
        agree = 0
        trials = 800
        for i in range(trials):
            out = run_session(config, qchan, root.substream("s", i), retry_abort=True)
            agree += int(out.keys_agree)
        sigma = np.sqrt(exact * (1 - exact) / trials)
        assert abs(agree / trials - exact) < 3.5 * sigma


class TestConfigValidation:
    def test_block_divisibility(self):
        with pytest.raises(ValueError):
            Bb84Config(n=10)

    @pytest.mark.parametrize("delta, message", [
        (-0.1, "delta must be finite and non-negative"),
        (float("nan"), "delta must be finite and non-negative"),
        (float("inf"), "delta must be finite and non-negative"),
        (1e308, "session needs inf qubits"),
    ], ids=["-0.1", "nan", "inf", "1e308"])
    def test_negative_delta(self, delta, message):
        # an infinite or finite huge delta raised OverflowError, nan a bare
        # conversion error
        with pytest.raises(ValueError, match=message):
            Bb84Config(n=7, delta=delta)
