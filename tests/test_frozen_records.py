"""Every record stores its arrays read-only, through `gf2._freeze`: the nine
public constructors, which copy what the caller gives them, and the three
trusted builds, which store arrays the package has just built."""

import dataclasses

import numpy as np
import pytest

from qdeny import channel, denial, gf2, qcore, ue
from qdeny.rng import RandomStream

R = 1 / np.sqrt(2)
HAMMING = gf2.hamming74()
DUAL = gf2.default_dual_pair()

# Each public constructor, and the arguments a caller hands it.
PUBLIC = {
    "StateVector": (qcore.StateVector, lambda: [1, np.array([R, R], complex)]),
    "DensityMatrix": (qcore.DensityMatrix, lambda: [1, np.eye(2, dtype=complex) / 2]),
    "Bb84Qubits": (qcore.Bb84Qubits, lambda: [np.array([0, 1, 1], np.uint8), np.array([1, 0, 1])]),
    "Message": (channel.Message, lambda: ["alice", "bits", np.array([0, 1, 1], np.uint8)]),
    "WardenObservation": (channel.WardenObservation, lambda: [np.array([0, 1, 0], np.uint8)]),
    "EveRecord": (denial.EveRecord, lambda: [
        np.array([1, 4], np.int64), np.array([1, 0], np.uint8), np.array([0, 1], np.uint8)
    ]),
    "UeKey": (ue.UeKey, lambda: [np.array([1, 0, 1], np.uint8) for _ in range(4)]),
    "BinaryLinearCode": (gf2.BinaryLinearCode, lambda: [
        7, 4, np.array(HAMMING.generator), np.array(HAMMING.parity_check)
    ]),
    "DualContainingPair": (gf2.DualContainingPair, lambda: [DUAL.c1, DUAL.c2]),
}


def _batch() -> qcore.Bb84Qubits:
    return qcore.prepare_bb84([0, 1, 1, 0], [0, 0, 1, 1])


TRUSTED = {
    "Bb84Qubits.pauli_x": lambda: _batch().pauli_x([1, 1, 0, 0]),
    "Bb84Qubits._collapsed": lambda: _batch()._collapsed(
        np.array([1, 2]), np.array([1, 0], np.uint8), np.array([0.3, 0.7])
    )[1],
    "eve_decoy_attack": lambda: denial.eve_decoy_attack(
        denial.EvePolicy(0.5), _batch(), RandomStream(3)
    )[1],
}


def _arrays(record) -> dict[str, np.ndarray]:
    """The record's fields declared as arrays, by name."""
    fields = [f.name for f in dataclasses.fields(record) if f.type == "np.ndarray"]
    assert fields
    return {name: getattr(record, name) for name in fields}


def _assert_read_only(record) -> None:
    for name, arr in _arrays(record).items():
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


@pytest.mark.parametrize("name", PUBLIC)
def test_public_record_holds_read_only_copies(name):
    cls, make_args = PUBLIC[name]
    args = make_args()
    record = cls(*args)
    _assert_read_only(record)
    for given in (arg for arg in args if isinstance(arg, np.ndarray)):
        assert given.flags.writeable  # the caller's array stays writable and its own
        assert not any(np.shares_memory(given, arr) for arr in _arrays(record).values())


@pytest.mark.parametrize("name", TRUSTED)
def test_trusted_build_holds_read_only_arrays_the_public_record_would(name):
    record = TRUSTED[name]()
    _assert_read_only(record)
    arrays = _arrays(record)
    public = type(record)(**{field: np.array(arr) for field, arr in arrays.items()})
    for field, arr in arrays.items():
        want = getattr(public, field)
        assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes(), field
