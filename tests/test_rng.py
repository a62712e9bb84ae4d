"""Determinism and independence of the seeded stream machinery."""

import hashlib
import os
import sys

import numpy as np
import pytest

from qdeny.bb84 import Bb84Config
from qdeny.channel import TimeBinChannel, warden_bias_exact
from qdeny.denial import detection_probability, exact_detection_probability
from qdeny.distill import distill_batch, qke_over_teleportation, verify_ebits
from qdeny.gf2 import default_nested_pair
from qdeny.qcore import BellKind, bell_state
from qdeny.rng import _COUNTER_0, CounterModePrng, RandomStream, _PhiloxKey, _blocks
from qdeny.ue import MacScheme, UeParams


def _plain_state(bit_generator) -> dict:
    """A Philox state with its arrays as lists, so states compare with ==."""
    state = dict(bit_generator.state)
    state["state"] = {name: v.tolist() for name, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    return state


class TestRandomStream:
    def test_same_seed_same_stream(self):
        a, b = RandomStream(0xDEADBEEF), RandomStream(0xDEADBEEF)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_substream_path_determinism(self):
        a = RandomStream(5).substream("x", 3).substream("y", 1)
        b = RandomStream(5).substream("x", 3).substream("y", 1)
        assert a.random() == b.random()

    def test_distinct_labels_differ(self):
        root = RandomStream(5)
        assert root.substream("a").random() != root.substream("b").random()

    def test_distinct_indices_differ(self):
        root = RandomStream(5)
        assert root.substream("a", 0).random() != root.substream("a", 1).random()

    def test_parent_consumption_irrelevant(self):
        r1 = RandomStream(5)
        r1.uniforms(100)
        r2 = RandomStream(5)
        assert r1.substream("x").random() == r2.substream("x").random()

    def test_bits_are_bits(self):
        v = RandomStream(1).bits(1000)
        assert v.dtype == np.uint8 and set(np.unique(v)) <= {0, 1}

    def test_choice_distinct_sorted_unique(self):
        got = RandomStream(2).choice_distinct(100, 20)
        assert len(np.unique(got)) == 20
        assert np.all(np.diff(got) > 0)

    def test_choice_distinct_overflow(self):
        with pytest.raises(ValueError):
            RandomStream(2).choice_distinct(5, 6)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            RandomStream(1 << 128)

    @pytest.mark.parametrize("seed", [3.9, 3.0, "7", None, [3], True])
    def test_seed_must_be_an_integer(self, seed):
        # a float was truncated, a string parsed and True read as 1; none is a seed
        with pytest.raises(ValueError, match="seed must be an integer"):
            RandomStream(seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        a, b = RandomStream(np.uint64(3)), RandomStream(3)
        assert np.array_equal(a.uniforms(8), b.uniforms(8))

    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, (1 << 128) - 1, (1 << 64) + 5])
    def test_generator_is_philox_keyed_by_the_stream(self, seed):
        for stream in (RandomStream(seed), RandomStream(seed).substream("x", 7)):
            key = int.from_bytes(stream._key, "big")
            want = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(stream.uniforms(50), want.random(50))
            assert np.array_equal(stream.bits(70), want.integers(0, 2, size=70, dtype=np.uint8))

    @pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1])
    def test_philox_state_and_raw_words_equal_keyed_philox(self, seed):
        for stream in (RandomStream(seed), RandomStream(seed).substream("teleport")):
            key = int.from_bytes(stream._key, "big")
            got, want = stream.generator.bit_generator, np.random.Philox(key=key)
            assert _plain_state(got) == _plain_state(want)
            assert np.array_equal(got.random_raw(5), want.random_raw(5))

    def test_zero_counter_stays_zero_and_read_only(self):
        root = RandomStream(9)
        for i in range(200):
            stream = root.substream("s", i)
            stream.uniforms(9)
            stream.bits(13)
            stream.generator.bit_generator.advance(3)
        assert _COUNTER_0.dtype == np.uint64 and _COUNTER_0.tolist() == [0, 0, 0, 0]
        assert not _COUNTER_0.flags.writeable
        with pytest.raises(ValueError):
            _COUNTER_0[0] = 1

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint32), (1, np.uint64)])
    def test_philox_key_serves_only_the_key_request(self, n_words, dtype):
        with pytest.raises(ValueError, match="two uint64 words"):
            _PhiloxKey(5).generate_state(n_words, dtype)

    def test_no_os_entropy_read(self):
        # count calls of the os.urandom builtin however they are reached
        # (numpy's SeedSequence() goes through random.SystemRandom)
        reads = 0

        def profile(frame, event, arg):
            nonlocal reads
            if event == "c_call" and arg is os.urandom:
                reads += 1

        root = RandomStream(3)
        sys.setprofile(profile)
        try:
            for i in range(1000):
                stream = root.substream("s", i)
                stream.bits(8)
                stream.random()
        finally:
            sys.setprofile(None)
        assert reads == 0


@pytest.mark.parametrize("call, name", [
    # n=14.0 and the tag length 4.0 once failed later with a bare TypeError,
    # and 8.5 decoys ran
    (lambda: Bb84Config(n=14.0), "n"),
    (lambda: Bb84Config(n=True), "n"),
    (lambda: UeParams(4.0, 4), "message length"),
    (lambda: UeParams(4, 4.0), "tag length"),
    (lambda: MacScheme(True), "tag length"),
    (lambda: distill_batch(10.0, 0.5, RandomStream(1)), "pair count"),
    (lambda: qke_over_teleportation(14.0, 0.5, RandomStream(1), default_nested_pair()),
     "teleported qubit count"),
    (lambda: verify_ebits(bell_state(BellKind.PHI_PLUS), 2.5, 1), "ebit count"),
    (lambda: verify_ebits(bell_state(BellKind.PHI_PLUS), 4, 1.0), "sample size"),
    (lambda: detection_probability(64.0, 8, 1, 100, 1), "qubit count"),
    (lambda: detection_probability(64, 8.5, 1, 100, 1), "decoy count"),
    (lambda: detection_probability(64, 8, True, 100, 1), "flip count"),
    (lambda: detection_probability(64, 8, 1, 100.0, 1), "trial count"),
    # these two once failed inside Fraction and range with a bare TypeError
    pytest.param(lambda: exact_detection_probability(8, 2.5, 1), "decoy count",
                 id="exact-decoy count"),
    pytest.param(lambda: exact_detection_probability(8, 2, 1.0), "flip count",
                 id="exact-flip count"),
    # these three once returned 0.0 through the no-slots and equal-rates
    # shortcut
    pytest.param(lambda: warden_bias_exact(TimeBinChannel(16, 0.1, 0.5), False), "slots in use",
                 id="bias-used-False"),
    pytest.param(lambda: warden_bias_exact(TimeBinChannel(16, 0.1, 0.5), 0.0), "slots in use",
                 id="bias-used-0.0"),
    pytest.param(lambda: warden_bias_exact(TimeBinChannel(16, 0.3, 0.3), 2.5), "slots in use",
                 id="bias-equal-rates-used-2.5"),
    # words(2.5) once raised a bare TypeError and words(True) read one word;
    # sample_distinct(10.5, 3) once drew [2 7 8]
    pytest.param(lambda: CounterModePrng(1).words(2.5), "word count", id="words-2.5"),
    pytest.param(lambda: CounterModePrng(1).words(True), "word count", id="words-True"),
    pytest.param(lambda: CounterModePrng(1).words("8"), "word count", id="words-str"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(10.5, 3), "slot count",
                 id="sample-slots-10.5"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(True, 1), "slot count",
                 id="sample-slots-True"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(10, 3.0), "slots in use",
                 id="sample-used-3.0"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(10, False), "slots in use",
                 id="sample-used-False"),
    # bits(True) once drew 1 bit, bits(2.7) and uniforms(2.9) drew 2, and
    # substream("x", 1.5) was the stream of index 1
    pytest.param(lambda: RandomStream(5).bits(True), "bit count", id="bits-True"),
    pytest.param(lambda: RandomStream(5).bits(2.7), "bit count", id="bits-2.7"),
    pytest.param(lambda: RandomStream(5).uniforms(2.9), "uniform count", id="uniforms-2.9"),
    pytest.param(lambda: RandomStream(5).substream("x", 1.5), "substream index",
                 id="substream-1.5"),
    pytest.param(lambda: RandomStream(5).substream("x", True), "substream index",
                 id="substream-True"),
])
def test_protocol_sizes_must_be_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize("call, message", [
    # sample_distinct(10, -1) once drew 7 slots, sample_distinct(2**33, 1)
    # raised numpy's OverflowError, and words(-3) read no word
    pytest.param(lambda: CounterModePrng(1).words(-3), "word count must be non-negative, not -3",
                 id="words--3"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(10, -1),
                 "cannot schedule -1 of 10 slots", id="sample-used--1"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(4, 5),
                 "cannot schedule 5 of 4 slots", id="sample-used-5-of-4"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(0, 0),
                 "slot count must lie in [1, 2**32], not 0", id="sample-slots-0"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(-5, 3),
                 "slot count must lie in [1, 2**32], not -5", id="sample-slots--5"),
    pytest.param(lambda: CounterModePrng(1).sample_distinct(2**33, 1),
                 "slot count must lie in [1, 2**32], not 8589934592", id="sample-slots-2**33"),
    # a substream index outside 64 bits once raised OverflowError
    pytest.param(lambda: RandomStream(5).substream("x", -1),
                 "substream index must lie in [0, 2**64), not -1", id="substream--1"),
    pytest.param(lambda: RandomStream(5).substream("x", 2**64),
                 "substream index must lie in [0, 2**64), not 18446744073709551616",
                 id="substream-2**64"),
])
def test_keystream_sizes_out_of_range_raise_one_line(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integer_stream_sizes_and_indices_are_the_int_ones():
    assert np.array_equal(RandomStream(5).bits(np.int64(9)), RandomStream(5).bits(9))
    assert np.array_equal(RandomStream(5).uniforms(np.uint8(3)), RandomStream(5).uniforms(3))
    root = RandomStream(5)
    for index in (3, 2**64 - 1):
        a, b = root.substream("x", np.uint64(index)), root.substream("x", index)
        assert a.random() == b.random()


def test_numpy_integer_protocol_sizes_are_read_as_ints():
    # a numpy tag length once failed with an AttributeError in the field arithmetic
    params = UeParams(np.int64(4), np.uint8(4))
    assert type(params.n) is type(params.s) is type(params.scheme.s) is int
    assert params.blocks == UeParams(4, 4).blocks
    assert type(Bb84Config(n=np.int64(14)).n) is int


def _per_row(stream: RandomStream, count: int, k: int) -> np.ndarray:
    return np.array([stream.bits(k) for _ in range(count)], dtype=np.uint8).reshape(count, k)


def _same_position(a: RandomStream, b: RandomStream) -> bool:
    return a.bit() == b.bit() and np.array_equal(a.bits(5), b.bits(5)) and a.random() == b.random()


class TestBitRows:
    def test_equals_per_row_draws(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # bit() before the rows leaves Philox's buffered half-word at either parity
        @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @hypothesis.given(seed=st.integers(0, (1 << 128) - 1), k=st.integers(0, 16),
                          count=st.integers(0, 40), before=st.integers(0, 5))
        def check(seed, k, count, before):
            a, b = RandomStream(seed), RandomStream(seed)
            for _ in range(before):
                assert a.bit() == b.bit()
            got = a.bit_rows(count, k)
            assert got.dtype == np.uint8 and got.shape == (count, k)
            assert np.array_equal(got, _per_row(b, count, k))
            assert _same_position(a, b)

        check()

    # seed, bit() calls before, count, k, the rows, then the next bits(6)
    PINNED = [
        (0x5EED, 0, 3, 7, [[1, 0, 1, 0, 1, 0, 1], [0, 0, 0, 1, 0, 0, 1], [1, 0, 0, 0, 0, 0, 1]],
         [1, 0, 0, 0, 0, 0]),
        (0x5EED, 1, 2, 5, [[1, 0, 1, 0, 0], [0, 0, 1, 1, 1]], [0, 0, 1, 0, 1, 0]),
        (7, 0, 4, 3, [[1, 1, 1], [1, 0, 0], [1, 0, 1], [1, 0, 1]], [1, 1, 0, 0, 0, 1]),
    ]

    @pytest.mark.parametrize("seed, before, count, k, rows, after", PINNED)
    def test_pinned_against_numpy_buffering(self, seed, before, count, k, rows, after):
        # bit_rows relies on numpy's bounded uint8 draw taking one byte of a
        # 32-bit word per value and dropping the rest at the end of a call;
        # if a numpy upgrade changes that, this fails before the golden digests
        a, b = RandomStream(seed), RandomStream(seed)
        for _ in range(before):
            a.bit(), b.bit()
        per_row = _per_row(b, count, k)
        assert per_row.tolist() == rows and b.bits(6).tolist() == after, (
            "numpy's bit draws changed: re-derive the pinned values")
        assert a.bit_rows(count, k).tolist() == rows and a.bits(6).tolist() == after, (
            "RandomStream.bit_rows no longer equals one bits(k) draw per row: "
            "numpy's bounded-uint8 buffering has changed")


def _keystream_walk(prng: CounterModePrng, n_slots: int, n_used: int) -> list[int]:
    """The first n_used distinct accepted slots, read one keystream word at a
    time in plain Python, sorted."""
    if n_used == n_slots:
        return list(range(n_slots))
    limit = (1 << 32) - (1 << 32) % n_slots
    seen = []
    for word in prng.words(4096).tolist():
        if len(seen) == n_used:
            break
        if word < limit and word % n_slots not in seen:
            seen.append(word % n_slots)
    assert len(seen) == n_used, "4096 keystream words held too few distinct slots"
    return sorted(seen)


class TestCounterModePrng:
    def test_keystream_deterministic(self):
        a, b = CounterModePrng(42), CounterModePrng(42)
        assert np.array_equal(a.words(37), b.words(37))

    def test_keystream_differs_by_key(self):
        assert not np.array_equal(CounterModePrng(1).words(8), CounterModePrng(2).words(8))

    def test_words_are_keystream_prefixes(self):
        prng = CounterModePrng(7)
        long = prng.words(45)
        for n in (0, 1, 3, 8, 13, 45):
            assert np.array_equal(prng.words(n), long[:n])

    def test_sample_distinct_equals_keystream_walk(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # n_used = n_slots - 1 above about 10 slots outgrows the first prefix;
        # 3 << 30 slots rejects a quarter of the words
        @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @hypothesis.given(key=st.integers(0, (1 << 128) - 1),
                          n_slots=st.integers(1, 80) | st.sampled_from([300, 3 << 30]),
                          pick=st.integers(0, 2))
        @hypothesis.example(key=5, n_slots=3, pick=0)
        @hypothesis.example(key=5, n_slots=3, pick=1)
        @hypothesis.example(key=5, n_slots=3, pick=2)
        def check(key, n_slots, pick):
            n_used = ([0, n_slots - 1, n_slots] if n_slots <= 300 else [0, 1, 64])[pick]
            got = CounterModePrng(key).sample_distinct(n_slots, n_used)
            assert got.tolist() == _keystream_walk(CounterModePrng(key), n_slots, n_used)

        check()

    def test_sample_distinct_lengthens_a_short_prefix(self):
        lengths = []

        class Counted(CounterModePrng):
            def words(self, n_words):
                lengths.append(n_words)
                return super().words(n_words)

        got = Counted(11).sample_distinct(300, 299)
        assert got.tolist() == _keystream_walk(CounterModePrng(11), 300, 299)
        assert len(lengths) > 1 and lengths == sorted(set(lengths))

    def test_sample_distinct_basic(self):
        got = CounterModePrng(9).sample_distinct(100, 10)
        assert got.size == 10 == np.unique(got).size
        assert got.min() >= 0 and got.max() < 100

    def test_sample_all_slots(self):
        assert np.array_equal(CounterModePrng(9).sample_distinct(12, 12), np.arange(12))

    def test_sample_too_many(self):
        with pytest.raises(ValueError):
            CounterModePrng(9).sample_distinct(4, 5)

    def test_key_range(self):
        CounterModePrng(0)
        CounterModePrng((1 << 128) - 1)
        for key in (-1, 1 << 128):
            with pytest.raises(ValueError, match="128 bits"):
                CounterModePrng(key)

    @pytest.mark.parametrize("key", [3.9, 3.0, "7", None, False])
    def test_key_must_be_an_integer(self, key):
        with pytest.raises(ValueError, match="key must be an integer"):
            CounterModePrng(key)

    def test_numpy_integer_key_is_the_int_key(self):
        prng = CounterModePrng(np.int64(7))
        assert prng.key == 7 and type(prng.key) is int
        assert np.array_equal(prng.words(16), CounterModePrng(7).words(16))

    def test_keystream_is_big_endian_sha256_of_key_and_counter(self):
        # computed here from hashlib alone, not from rng._blocks or a golden file
        keys = [0, 65535, (1 << 128) - 1]
        for key in keys:
            for n in (1, 8, 13, 200):
                stream = b"".join(
                    hashlib.sha256(key.to_bytes(16, "big") + j.to_bytes(8, "big")).digest()
                    for j in range(-(-n // 8))
                )
                want = [int.from_bytes(stream[4 * i : 4 * i + 4], "big") for i in range(n)]
                got = CounterModePrng(key).words(n)
                assert got.dtype == np.uint32 and got.tolist() == want, (key, n)
        key_bytes = [key.to_bytes(16, "big") for key in keys]
        per_key = b"".join(_blocks([k], range(2, 7)) for k in key_bytes)
        assert _blocks(key_bytes, range(2, 7)) == per_key
        assert per_key[:32] == hashlib.sha256(key_bytes[0] + (2).to_bytes(8, "big")).digest()

    def test_sample_distinct_takes_every_word_at_2_to_the_32_slots(self):
        # no word is rejected and none is reduced: the slots are the words
        got = CounterModePrng(5).sample_distinct(1 << 32, 3)
        assert got.dtype == np.int64
        assert got.tolist() == _keystream_walk(CounterModePrng(5), 1 << 32, 3)
        assert got.tolist() == sorted(CounterModePrng(5).words(3).tolist())

    def test_numpy_integer_sizes_are_the_int_sizes(self):
        prng = CounterModePrng(7)
        assert np.array_equal(prng.words(np.int64(13)), prng.words(13))
        assert np.array_equal(prng.sample_distinct(np.int64(100), np.uint8(10)),
                              prng.sample_distinct(100, 10))
        assert prng.words(0).size == 0 and prng.sample_distinct(1, 0).size == 0

    def test_weak_schedules_mostly_distinct(self):
        seen = {CounterModePrng(k).sample_distinct(256, 16).tobytes() for k in range(200)}
        assert len(seen) == 200
