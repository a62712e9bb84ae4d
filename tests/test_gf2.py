"""Unit tests for the binary linear algebra and code machinery."""

import itertools

import numpy as np
import pytest

from qdeny import gf2
from qdeny.rng import RandomStream


def dump_code(code: gf2.BinaryLinearCode) -> str:
    """The text format `gf2.load_code` reads: "n k", then one generator row a line."""
    rows = "\n".join(gf2.bits_to_str(row) for row in code.generator)
    return f"{code.n} {code.k}\n{rows}\n"


@pytest.fixture(scope="module")
def hamming():
    return gf2.hamming74()


@pytest.fixture(scope="module")
def nested():
    return gf2.default_nested_pair()


@pytest.fixture(scope="module")
def dual():
    return gf2.default_dual_pair()


def all_words(n):
    """Every n-bit word; row i is the word whose big-endian value is i."""
    return np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.uint8)


def reed_muller_pair():
    """RM(2,4) over RM(1,4): a [16,11] code over a [16,5] subcode."""
    points = all_words(4).T  # row i: coordinate i of the 16 evaluation points
    linear = np.vstack([np.ones(16, dtype=np.uint8), points])
    quadratic = [points[i] & points[j] for i, j in itertools.combinations(range(4), 2)]
    return gf2.NestedCodePair(
        c1=gf2.BinaryLinearCode.from_generator(np.vstack([linear, quadratic])),
        c2=gf2.BinaryLinearCode.from_generator(linear),
    )


def decode_oracle(code, words):
    return words ^ gf2.coset_leader(code, gf2.syndrome(code, words))


def label_oracle(pair, words):
    h2, t = pair._coset_map
    return (t @ ((h2 @ words.T) % 2) % 2).T.astype(np.uint8)


RM_PAIR = reed_muller_pair()
TABLE_CODES = {
    "hamming74": gf2.hamming74(),
    "repetition7": gf2.repetition_code(7),
    "nested.c1": gf2.default_nested_pair().c1,
    "nested.c2": gf2.default_nested_pair().c2,
    "dual.c1": gf2.default_dual_pair().c1,
    "dual.c2": gf2.default_dual_pair().c2,
    "rm24": RM_PAIR.c1,
}
TABLE_PAIRS = {"nested": gf2.default_nested_pair(), "rm24_over_rm14": RM_PAIR}


class TestSyndrome:
    def test_codewords_have_zero_syndrome(self, hamming):
        for word in hamming.codewords:
            assert not gf2.syndrome(hamming, word).any()

    def test_unit_errors_distinct_nonzero(self, hamming):
        # brute force over all seven single-bit errors
        seen = set()
        for i in range(7):
            e = np.zeros(7, dtype=np.uint8)
            e[i] = 1
            syn = gf2.syndrome(hamming, e)
            assert syn.any()
            seen.add(syn.tobytes())
        assert len(seen) == 7

    def test_linearity(self, hamming):
        rng = RandomStream(1)
        for _ in range(100):
            v, w = rng.bits(7), rng.bits(7)
            lhs = gf2.syndrome(hamming, v ^ w)
            rhs = gf2.syndrome(hamming, v) ^ gf2.syndrome(hamming, w)
            assert np.array_equal(lhs, rhs)

    def test_codeword_shift_invariance(self, hamming):
        rng = RandomStream(2)
        v = rng.bits(7)
        c = gf2.sample_codeword(hamming, rng, 1)[0]
        assert np.array_equal(gf2.syndrome(hamming, v ^ c), gf2.syndrome(hamming, v))

    def test_length_mismatch(self, hamming):
        with pytest.raises(ValueError):
            gf2.syndrome(hamming, gf2.bits("0101"))


class TestDecoding:
    def test_codeword_fixed_point(self, hamming):
        for word in hamming.codewords:
            assert np.array_equal(gf2.decode_to_codeword(hamming, word), word)

    def test_single_error_corrected_exhaustive(self, hamming):
        for word in hamming.codewords:
            for i in range(7):
                noisy = word.copy()
                noisy[i] ^= 1
                assert np.array_equal(gf2.decode_to_codeword(hamming, noisy), word)

    def test_double_error_lands_on_some_codeword(self, hamming):
        # beyond the correction radius: result is a codeword within distance 2,
        # possibly not the transmitted one
        recovered = 0
        total = 0
        codeword_set = {w.tobytes() for w in hamming.codewords}
        for word in hamming.codewords:
            for i in range(7):
                for j in range(i + 1, 7):
                    noisy = word.copy()
                    noisy[i] ^= 1
                    noisy[j] ^= 1
                    out = gf2.decode_to_codeword(hamming, noisy)
                    assert out.tobytes() in codeword_set
                    assert (out ^ noisy).sum() <= 2
                    total += 1
                    recovered += int(np.array_equal(out, word))
        assert recovered < total  # two flips genuinely defeat the decoder sometimes

    def test_zero_syndrome_leader_is_zero(self, hamming):
        assert not gf2.coset_leader(hamming, np.zeros(3, dtype=np.uint8)).any()

    def test_hamming_leaders_have_weight_one(self, hamming):
        # perfect code: every nonzero syndrome's leader is a unit vector
        for s in range(1, 8):
            syn = np.array([(s >> 2) & 1, (s >> 1) & 1, s & 1], dtype=np.uint8)
            assert gf2.coset_leader(hamming, syn).sum() == 1

    def test_leader_deterministic(self, nested):
        rng = RandomStream(3)
        noisy = gf2.sample_codeword(nested.c1, rng, 1)[0] ^ rng.bits(7)
        syn = gf2.syndrome(nested.c1, noisy)
        first = gf2.coset_leader(nested.c1, syn)
        second = gf2.coset_leader(nested.c1, syn)
        assert np.array_equal(first, second)


class TestCosetKeys:
    def test_c2_words_label_zero(self, nested):
        for word in nested.c2.codewords:
            assert not gf2.key_from_coset(nested, word).any()

    def test_label_length(self, nested):
        rng = RandomStream(4)
        u = gf2.sample_codeword(nested.c1, rng, 1)[0]
        assert gf2.key_from_coset(nested, u).size == nested.c1.k - nested.c2.k == 3

    def test_coset_shift_invariant(self, nested):
        rng = RandomStream(5)
        ones = np.ones(7, dtype=np.uint8)
        for _ in range(20):
            u = gf2.sample_codeword(nested.c1, rng, 1)[0]
            assert np.array_equal(
                gf2.key_from_coset(nested, u), gf2.key_from_coset(nested, u ^ ones)
            )

    def test_constant_on_cosets_injective_across(self, nested):
        # exhaustive over all 16 codewords of C1
        labels = {}
        for word in nested.c1.codewords:
            label = gf2.key_from_coset(nested, word).tobytes()
            coset = min((word ^ c2w).tobytes() for c2w in nested.c2.codewords)
            labels.setdefault(coset, set()).add(label)
        per_coset = [len(v) for v in labels.values()]
        assert all(c == 1 for c in per_coset)
        all_labels = {next(iter(v)) for v in labels.values()}
        assert len(all_labels) == len(labels) == 8

    def test_non_codeword_rejected(self, nested):
        with pytest.raises(ValueError):
            gf2.key_from_coset(nested, gf2.bits("1000000"))


class TestCodeTables:
    """The decode and label tables against the formulas they replace."""

    @pytest.mark.parametrize("name", TABLE_CODES)
    def test_decode_table_equals_leader_oracle_on_every_word(self, name):
        code = TABLE_CODES[name]
        words = all_words(code.n)
        want = decode_oracle(code, words)
        assert np.array_equal(code.decode_table, want)
        got = gf2.decode_to_codeword(code, words)
        assert got.dtype == np.uint8 and got.flags.writeable
        assert np.array_equal(got, want)
        for i in range(0, 1 << code.n, max(1, (1 << code.n) // 128)):
            assert np.array_equal(gf2.decode_to_codeword(code, words[i]), want[i])

    @pytest.mark.parametrize("name", TABLE_PAIRS)
    def test_label_table_equals_formula_on_every_codeword(self, name):
        pair = TABLE_PAIRS[name]
        words = all_words(pair.c1.n)
        labels, in_c1 = pair.label_table
        assert np.array_equal(in_c1, ~gf2.syndrome(pair.c1, words).any(axis=1))
        codewords = words[in_c1]
        assert len(codewords) == 1 << pair.c1.k
        want = label_oracle(pair, codewords)
        assert np.array_equal(labels[in_c1], want)
        assert np.array_equal(gf2.key_from_coset(pair, codewords), want)
        for i in range(0, len(codewords), max(1, len(codewords) // 64)):
            assert np.array_equal(gf2.key_from_coset(pair, codewords[i]), want[i])

    @pytest.mark.parametrize("name", TABLE_PAIRS)
    def test_every_non_codeword_rejected(self, name):
        pair = TABLE_PAIRS[name]
        words = all_words(pair.c1.n)
        outside = words[gf2.syndrome(pair.c1, words).any(axis=1)]
        assert len(outside) == (1 << pair.c1.n) - (1 << pair.c1.k)
        codeword = pair.c1.codewords[1]
        for word in outside:
            with pytest.raises(ValueError, match="not a codeword"):
                gf2.key_from_coset(pair, word)
        with pytest.raises(ValueError, match="not a codeword"):
            gf2.key_from_coset(pair, np.vstack([codeword, outside[-1], codeword]))

    def test_tables_read_only_and_built_once_per_code(self, monkeypatch):
        pair = gf2.NestedCodePair(c1=gf2.hamming74(), c2=gf2.repetition_code(7))
        word = np.ones((3, 7), dtype=np.uint8)
        decoded = gf2.decode_to_codeword(pair.c1, word)
        gf2.key_from_coset(pair, decoded)
        gf2.sample_codeword(pair.c1, RandomStream(1), 2)
        tables = [pair.c1.decode_table, *pair.label_table, pair.c1.codewords]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

        def no_rebuild(width):
            raise AssertionError("a code table was built twice")

        monkeypatch.setattr(gf2, "_all_words", no_rebuild)
        for _ in range(3):
            gf2.key_from_coset(pair, gf2.decode_to_codeword(pair.c1, word))
            gf2.sample_codeword(pair.c1, RandomStream(1), 2)
        again = [pair.c1.decode_table, *pair.label_table, pair.c1.codewords]
        assert all(a is b for a, b in zip(again, tables))
        monkeypatch.undo()
        assert gf2.hamming74().decode_table is not pair.c1.decode_table  # one per code object

    def test_tables_capped_at_16_bits(self):
        c1 = gf2.BinaryLinearCode.from_generator(
            np.array([[1] * 17, [1] * 8 + [0] * 9], dtype=np.uint8)
        )
        pair = gf2.NestedCodePair(c1=c1, c2=gf2.repetition_code(17))
        u = gf2.sample_codeword(c1, RandomStream(2), 3)
        assert not gf2.syndrome(c1, u).any()
        with pytest.raises(ValueError, match="capped"):
            gf2.decode_to_codeword(c1, u)
        with pytest.raises(ValueError, match="capped"):
            gf2.key_from_coset(pair, u)


class TestSampling:
    @pytest.mark.parametrize("name", ["hamming74", "repetition7", "rm24"])
    def test_rows_equal_generator_product(self, name):
        code = TABLE_CODES[name]
        got = gf2.sample_codeword(code, RandomStream(9), 40)
        want = (RandomStream(9).bit_rows(40, code.k) @ code.generator) % 2
        assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_repetition_is_fair(self):
        rep = gf2.repetition_code(7)
        rng = RandomStream(6)
        trials = 100_000
        ones = sum(int(gf2.sample_codeword(rep, rng, 1)[0][0]) for _ in range(trials))
        sigma = np.sqrt(0.25 / trials)
        assert abs(ones / trials - 0.5) < 3 * sigma

    def test_sampled_word_is_codeword(self, hamming):
        rng = RandomStream(7)
        for _ in range(50):
            assert not gf2.syndrome(hamming, gf2.sample_codeword(hamming, rng, 1)[0]).any()

    def test_hamming_sampling_uniform_chi2(self, hamming):
        from scipy import stats

        rng = RandomStream(8)
        trials = 100_000
        counts = {}
        for _ in range(trials):
            w = gf2.sample_codeword(hamming, rng, 1)[0].tobytes()
            counts[w] = counts.get(w, 0) + 1
        assert len(counts) == 16
        _, p = stats.chisquare(list(counts.values()))
        assert p > 1e-3


class TestUeCodewordSampler:
    def test_payload_width(self, dual):
        assert dual.payload_bits == 1  # 4 + 4 - 7

    def test_round_trip_constraints(self, dual):
        rng = RandomStream(9)
        for _ in range(1000):
            c1_syn = rng.bits(3)
            y = rng.bits(1)
            z = gf2.encode_ue_codeword(dual, c1_syn, y, rng)
            assert np.array_equal(gf2.syndrome(dual.c1, z), c1_syn)
            assert np.array_equal((dual.quotient_checks @ z) % 2, y)

    def test_nullspace_randomness(self, dual):
        rng = RandomStream(10)
        c1_syn, y = gf2.bits("011"), gf2.bits("1")
        outputs = {
            gf2.encode_ue_codeword(dual, c1_syn, y, rng).tobytes() for _ in range(64)
        }
        assert len(outputs) > 1  # nullspace dimension is 3, so 8 solutions exist
        assert len(outputs) <= 8


def even_weight_over_hamming():
    """C1 the [7,6] even-weight code, C2 Hamming[7,4]: three payload bits."""
    h = np.ones((1, 7), dtype=np.uint8)
    even = gf2.BinaryLinearCode(n=7, k=6, generator=gf2.nullspace(h), parity_check=h)
    return gf2.DualContainingPair(c1=even, c2=gf2.hamming74())


def dense_encode(pair, c1_syn, y, rng):
    """The oracle: solve the stacked system for this block and add a random
    nullspace element, eliminating afresh on every call."""
    a = np.vstack([pair.c1.parity_check, pair.quotient_checks])
    z = gf2.solve(a, np.concatenate([c1_syn, y]))
    basis = gf2.nullspace(a)
    if basis.shape[0]:
        z = z ^ (rng.bits(basis.shape[0]) @ basis).astype(np.uint8) % 2
    return z


class TestUeEncoderOracle:
    """The cached encoder map against per-call elimination."""

    CASES = 2000

    @pytest.fixture(params=["hamming_self_dual", "even_weight_over_hamming"])
    def pair(self, request):
        if request.param == "hamming_self_dual":
            return gf2.default_dual_pair()
        return even_weight_over_hamming()

    def test_shapes(self, pair):
        a = np.vstack([pair.c1.parity_check, pair.quotient_checks])
        dim = gf2.nullspace(a).shape[0]
        assert (pair.payload_bits, dim) in ((1, 3), (3, 3))

    def test_single_blocks_equal_oracle(self, pair):
        root = RandomStream(11)
        for i in range(self.CASES):
            r = root.substream("case", i)
            c1_syn, y = r.bits(pair.c1.n - pair.c1.k), r.bits(pair.payload_bits)
            got = gf2.encode_ue_codeword(pair, c1_syn, y, r.substream("stream"))
            want = dense_encode(pair, c1_syn, y, r.substream("stream"))
            assert got.dtype == want.dtype == np.uint8
            assert got.tobytes() == want.tobytes(), i

    def test_matrix_equals_single_calls_in_row_order(self, pair):
        root = RandomStream(12)
        for i in range(self.CASES // 20):
            r = root.substream("case", i)
            rows = 1 + i % 20
            c1_syn = r.bits(rows * (pair.c1.n - pair.c1.k)).reshape(rows, -1)
            y = r.bits(rows * pair.payload_bits).reshape(rows, -1)
            got = gf2.encode_ue_codeword(pair, c1_syn, y, r.substream("stream"))
            oracle = r.substream("stream")
            want = np.array([dense_encode(pair, s, p, oracle) for s, p in zip(c1_syn, y)])
            assert got.shape == (rows, pair.c1.n)
            assert got.tobytes() == want.tobytes(), i

    def test_constraints_hold_on_every_row(self, pair):
        rng = RandomStream(13)
        c1_syn = rng.bits(500 * (pair.c1.n - pair.c1.k)).reshape(500, -1)
        y = rng.bits(500 * pair.payload_bits).reshape(500, -1)
        z = gf2.encode_ue_codeword(pair, c1_syn, y, rng)
        assert np.array_equal(gf2.syndrome(pair.c1, z), c1_syn)
        assert np.array_equal((z @ pair.quotient_checks.T) % 2, y)

    def test_mismatched_shapes_rejected(self, pair):
        rng = RandomStream(14)
        syn_bits, pay_bits = pair.c1.n - pair.c1.k, pair.payload_bits
        with pytest.raises(ValueError):
            gf2.encode_ue_codeword(pair, rng.bits(syn_bits + 1), rng.bits(pay_bits), rng)
        with pytest.raises(ValueError):
            gf2.encode_ue_codeword(pair, rng.bits(syn_bits), rng.bits(pay_bits + 1), rng)
        with pytest.raises(ValueError):  # two syndromes, three payloads
            gf2.encode_ue_codeword(
                pair, np.zeros((2, syn_bits), np.uint8), np.zeros((3, pay_bits), np.uint8), rng
            )
        with pytest.raises(ValueError):  # a matrix of syndromes with one payload
            gf2.encode_ue_codeword(pair, np.zeros((1, syn_bits), np.uint8), rng.bits(pay_bits), rng)


class TestNesting:
    def test_default_nested_true(self, nested):
        assert gf2.is_nested(nested.c1, nested.c2)
        # the all-ones word really is a Hamming codeword
        assert not gf2.syndrome(nested.c1, np.ones(7, dtype=np.uint8)).any()

    def test_hamming_self_dual_containing(self, dual):
        assert gf2.is_dual_containing(dual.c1, dual.c2)
        q, h1 = dual.quotient_checks, dual.c1.parity_check
        assert not ((q @ dual.c2.parity_check.T) % 2).any()  # the rows lie in C2
        assert gf2.rank(np.vstack([h1, q])) == gf2.rank(h1) + dual.payload_bits
        # rows of the parity check (the dual's generator) are codewords of C1
        for row in dual.c2.parity_check:
            assert not gf2.syndrome(dual.c1, row).any()

    def test_pair_without_payload_rejected(self):
        # the length-2 repetition code is its own dual: k1 + k2 - n = 0
        rep = gf2.repetition_code(2)
        with pytest.raises(ValueError, match=r"payload_bits = k1 \+ k2 - n must be at least 1"):
            gf2.DualContainingPair(rep, rep)

    def test_quotient_checks_are_built_not_given(self, hamming):
        with pytest.raises(TypeError):
            gf2.DualContainingPair(hamming, hamming, np.ones((1, 7), np.uint8))

    def test_wrong_order_rejected(self, hamming):
        rep = gf2.repetition_code(7)
        assert not gf2.is_nested(rep, hamming)
        with pytest.raises(ValueError):
            gf2.NestedCodePair(c1=rep, c2=hamming)


class TestTextFormat:
    def test_round_trip(self, hamming):
        text = dump_code(hamming)
        loaded = gf2.load_code(text)
        assert loaded.n == 7 and loaded.k == 4
        assert np.array_equal(loaded.generator, hamming.generator)

    def test_parse_repetition(self):
        code = gf2.load_code("7 1\n1111111\n")
        assert code.k == 1 and code.distance == 7

    def test_bad_header(self):
        with pytest.raises(ValueError):
            gf2.load_code("7\n1111111\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            gf2.load_code("7 2\n1111111\n")


class TestBitSerialization:
    def test_hex_round_trip(self):
        rng = RandomStream(11)
        for length in (1, 7, 8, 9, 64, 129):
            v = rng.bits(length)
            assert np.array_equal(gf2.hex_to_bits(gf2.bits_to_hex(v), length), v)

    def test_hex_rejects_trailing_garbage(self):
        with pytest.raises(ValueError):
            gf2.hex_to_bits("ff", 4)

    @pytest.mark.parametrize("text, length", [("0000", 4), ("00", 0), ("f0", 12), ("", 1)])
    def test_hex_rejects_a_byte_count_other_than_bits_to_hex_writes(self, text, length):
        with pytest.raises(ValueError):
            gf2.hex_to_bits(text, length)
