"""One rule for what a bit is: every public function that takes caller bits
checks them with `gf2.bits`, which takes bool or integer entries 0 and 1
and raises ValueError for anything else before any cast."""

import numpy as np
import pytest

from qdeny import gf2, qcore, ue
from qdeny.bb84 import extract_key, sift
from qdeny.channel import ClassicalAuthChannel, Message, WardenObservation
from qdeny.denial import EveRecord, judge_check
from qdeny.rng import RandomStream

BAD_ENTRIES = [0.5, 1.0, -1, 2, 256]

HAMMING = gf2.hamming74()
NESTED = gf2.default_nested_pair()
DUAL = gf2.default_dual_pair()
UE_PARAMS = ue.UeParams(n=4, s=3)
UE_KEY = ue.generate_ue_key(UE_PARAMS, RandomStream(3))
MAC = ue.MacScheme(4)


def ones(size):
    return [1] * size


def with_entry(valid, entry, at=0):
    """A list copy of `valid` whose entry `at` is `entry`; the entry it
    replaces is 1, so `with_entry(valid, 1)` is `valid` itself."""
    out = list(valid)
    assert out[at] == 1
    out[at] = entry
    return out


def with_matrix_entry(valid, entry):
    """A nested-list copy of the matrix `valid` with its first 1 set to `entry`."""
    rows = [list(row) for row in np.asarray(valid).tolist()]
    i, j = map(int, np.argwhere(np.asarray(valid) == 1)[0])
    rows[i][j] = entry
    return rows


def ue_key_with(name, entry):
    fields = {f: getattr(UE_KEY, f) for f in ("k", "e", "c1_syn", "b")}
    fields[name] = with_entry(np.ones(fields[name].size, dtype=int).tolist(), entry)
    return ue.UeKey(**fields)


CODEWORD = HAMMING.codewords[-1]  # the all-ones word is a Hamming codeword
CALLS = {
    "bits": lambda v: gf2.bits(with_entry([1, 0, 1], v)),
    "bits_to_hex": lambda v: gf2.bits_to_hex(with_entry([1, 0, 1], v)),
    "syndrome": lambda v: gf2.syndrome(HAMMING, with_entry(ones(7), v)),
    "syndrome rows": lambda v: gf2.syndrome(HAMMING, [ones(7), with_entry(ones(7), v, 6)]),
    "coset_leader": lambda v: gf2.coset_leader(HAMMING, with_entry(ones(3), v)),
    "coset_leader rows": lambda v: gf2.coset_leader(HAMMING, [with_entry(ones(3), v, 2)]),
    "decode_to_codeword": lambda v: gf2.decode_to_codeword(HAMMING, with_entry(ones(7), v)),
    "decode_to_codeword rows": lambda v: gf2.decode_to_codeword(
        HAMMING, [ones(7), with_entry(ones(7), v, 3)]
    ),
    "key_from_coset": lambda v: gf2.key_from_coset(NESTED, with_entry(CODEWORD.tolist(), v)),
    "encode_ue_codeword c1_syn": lambda v: gf2.encode_ue_codeword(
        DUAL, with_entry(ones(3), v), [1], RandomStream(1)
    ),
    "encode_ue_codeword y": lambda v: gf2.encode_ue_codeword(
        DUAL, [[1, 1, 1]], [with_entry([1], v)], RandomStream(1)
    ),
    "BinaryLinearCode generator": lambda v: gf2.BinaryLinearCode(
        7, 4, with_matrix_entry(HAMMING.generator, v), HAMMING.parity_check
    ),
    "BinaryLinearCode parity_check": lambda v: gf2.BinaryLinearCode(
        7, 4, HAMMING.generator, with_matrix_entry(HAMMING.parity_check, v)
    ),
    "from_generator": lambda v: gf2.BinaryLinearCode.from_generator(
        with_matrix_entry(HAMMING.generator, v)
    ),
    "rref": lambda v: gf2.rref(with_matrix_entry(HAMMING.generator, v)),
    "nullspace": lambda v: gf2.nullspace(with_matrix_entry(HAMMING.parity_check, v)),
    "solve": lambda v: gf2.solve(with_matrix_entry(HAMMING.parity_check, v), [0, 0, 0]),
    "prepare_bb84 bits": lambda v: qcore.prepare_bb84(with_entry([1, 0], v), [0, 1]),
    "prepare_bb84 bases": lambda v: qcore.prepare_bb84([0, 1], with_entry([1, 0], v)),
    "Bb84Qubits bits": lambda v: qcore.Bb84Qubits(np.array(with_entry([1, 1], v)), [0, 1]),
    "Bb84Qubits bases": lambda v: qcore.Bb84Qubits([0, 1], np.array(with_entry([1, 1], v))),
    "pauli_x mask": lambda v: qcore.prepare_bb84([0, 1], [0, 1]).pauli_x(with_entry([1, 0], v)),
    "WardenObservation": lambda v: WardenObservation(with_entry([1, 0, 1], v)),
    "Message": lambda v: Message("alice", "x", with_entry([1, 0, 1], v)),
    "send": lambda v: ClassicalAuthChannel().send("alice", "x", with_entry([1, 0, 1], v)),
    "measure": lambda v: qcore.measure(
        qcore.prepare_bb84([0, 1], [0, 1]), with_entry([1, 0], v), RandomStream(1)
    ),
    "basis_state": lambda v: qcore.basis_state(with_entry([1, 0], v)),
    "EveRecord bases": lambda v: EveRecord([0, 2], with_entry([1, 0], v), [0, 1]),
    "EveRecord outcomes": lambda v: EveRecord([0, 2], [0, 1], with_entry([1, 0], v)),
    "judge_check bits": lambda v: judge_check(
        with_entry([1, 0, 1], v), [0, 0, 0], EveRecord([0], [1], [1])
    ),
    "judge_check bases": lambda v: judge_check(
        [1, 0, 1], with_entry([1, 0, 0], v), EveRecord([0], [1], [1])
    ),
    "extract_key v_alice": lambda v: extract_key(
        NESTED, with_entry(ones(7), v), ones(7), CODEWORD
    ),
    "extract_key v_bob": lambda v: extract_key(NESTED, ones(7), with_entry(ones(7), v), CODEWORD),
    "extract_key u": lambda v: extract_key(
        NESTED, ones(7), ones(7), with_entry(CODEWORD.tolist(), v)
    ),
    "sift b": lambda v: sift(with_entry([1, 0, 1], v), [1, 0, 0]),
    "sift b_prime": lambda v: sift([1, 0, 1], with_entry([1, 0, 1], v)),
    "mac_tag key": lambda v: ue.mac_tag(MAC, with_entry(ones(8), v), [0, 1]),
    "mac_tag message": lambda v: ue.mac_tag(MAC, ones(8), with_entry([1, 0], v)),
    "mac_verify tag": lambda v: ue.mac_verify(MAC, ones(8), [1], with_entry(ones(4), v)),
    "UeKey k": lambda v: ue_key_with("k", v),
    "UeKey e": lambda v: ue_key_with("e", v),
    "UeKey c1_syn": lambda v: ue_key_with("c1_syn", v),
    "UeKey b": lambda v: ue_key_with("b", v),
    "ue_encrypt": lambda v: ue.ue_encrypt(
        UE_PARAMS, UE_KEY, with_entry(ones(4), v), RandomStream(1)
    ),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_bit_input_takes_one_and_rejects_the_rest(name):
    CALLS[name](1)  # the valid call runs
    for entry in BAD_ENTRIES:
        with pytest.raises(ValueError):
            CALLS[name](entry)


def test_measure_rejects_bad_bases_before_drawing():
    rng = RandomStream(4)
    with pytest.raises(ValueError):
        qcore.measure(qcore.prepare_bb84([0, 1], [0, 1]), [0.5, 1], rng)
    assert rng.random() == RandomStream(4).random()


@pytest.mark.parametrize("positions", [[0.7], [1.0], np.array([2.0]), ["1"], [True]])
def test_eve_record_positions_must_be_integers(positions):
    with pytest.raises(ValueError, match="positions must be integers"):
        EveRecord(positions, [0], [1])


@pytest.mark.parametrize("call", [
    lambda: gf2.bits([256, 1]),
    lambda: extract_key(NESTED, *[np.full(7, 0.5)] * 3),
    lambda: qcore.Bb84Qubits([0.5], [0]),
    lambda: qcore.Bb84Qubits([-1], [0]),
    lambda: judge_check([256, 1], [0, 0], EveRecord([0], [0], [1])),
    lambda: EveRecord([0.7], [0], [1]),
    lambda: gf2.BinaryLinearCode.from_generator([[2, 1, 1], [1, 3, 0]]),
    lambda: judge_check([0.6, 1], [0, 0], EveRecord([0], [0], [1])),
    lambda: Message("a", "b", [0.5, 1.7]),
    lambda: Message("a", "b", [2, 255]),
    lambda: Message("a", "b", [-1]),
    lambda: sift([0.5, 2, 1], [0.5, 2, 0]),
])
def test_inputs_once_read_as_other_bits_raise_value_error(call):
    """Each of these ran, or raised OverflowError, before the one rule."""
    with pytest.raises(ValueError):
        call()


class TestBits:
    @pytest.mark.parametrize("values", [
        "0110",
        [0, 1, 1, 0],
        (False, True, True, False),
        [0, True, 1, False],
        np.array([0, 1, 1, 0], dtype=np.int64),
        np.array([0, 1, 1, 0], dtype=np.int8),
        np.array([0, 1, 1, 0], dtype=np.uint64),
        np.array([False, True, True, False]),
        iter([0, 1, 1, 0]),
    ])
    def test_every_accepted_form_gives_the_same_bytes(self, values):
        out = gf2.bits(values)
        assert out.dtype == np.uint8
        assert out.tobytes() == bytes([0, 1, 1, 0])

    def test_returns_a_fresh_writable_copy(self):
        arr = np.array([0, 1, 1], dtype=np.uint8)
        arr.setflags(write=False)
        out = gf2.bits(arr)
        assert out.flags.writeable and not np.shares_memory(out, arr)
        out[0] = 1
        assert arr[0] == 0

    @pytest.mark.parametrize("values", [[], "", np.zeros(0), np.zeros(0, dtype=np.int64)])
    def test_empty_vector_has_no_entry_to_check(self, values):
        out = gf2.bits(values)
        assert out.dtype == np.uint8 and out.size == 0

    @pytest.mark.parametrize("values", [
        "012", "0 1", "0b1", "+1", ["0", "1"], [None, 1], [2**70, 1], [1j],
        np.array([0, 1], dtype=np.float16), np.array([0, 1], dtype=np.float32),
        np.array([0.0, 1.0]), np.array([0, 1], dtype=complex),
        np.array([1, -1], dtype=np.int8), np.array([-128], dtype=np.int8),
        np.array([1, 2], dtype=np.uint8), np.array([255], dtype=np.uint8),
        np.array([256], dtype=np.int16), np.array([-1], dtype=np.int64),
        np.array([2**63], dtype=np.uint64),
        5, np.uint8(1), [[0, 1]], np.zeros((2, 2), dtype=np.uint8),
    ])
    def test_other_forms_rejected(self, values):
        with pytest.raises(ValueError):
            gf2.bits(values)

    def test_matrix_entries_follow_the_same_rule(self):
        rows = np.array([[0, 1, 1, 0, 1, 0, 1], [1, 1, 0, 1, 0, 0, 0]])
        expect = gf2.syndrome(HAMMING, rows)
        assert gf2.syndrome(HAMMING, rows.astype(bool)).tobytes() == expect.tobytes()
        for bad in (rows * 2, rows - 1, rows.astype(float)):
            with pytest.raises(ValueError, match="0 or 1"):
                gf2.syndrome(HAMMING, bad)
