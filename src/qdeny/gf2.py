"""Binary linear algebra and the small code machinery the protocols use.

Bit vectors are numpy uint8 arrays with entries in {0, 1}; matrices are
2-D uint8 arrays. `bits` decides, for every module, whether caller input
is bits; matrices pass through it row-major. Codes are immutable after
construction and build exact tables on first use (block lengths stay
tiny here, so exhaustive minimum-distance decoding is the simplest correct
choice): coset leaders per syndrome, the nearest codeword of every n-bit
word, and for a nested pair the coset label and C1 membership of every
n-bit word. Tables over all 2^n words are capped at n <= `_TABLE_CAP`;
with them, decoding a block or labelling its coset is one pack of each
row into its big-endian word index and one gather. Wherever a
minimum-weight choice is ambiguous, ties break lexicographically. The
per-block operations (syndromes, coset leaders, decoding, coset labels)
take one word or a matrix of words, one block per row, and treat every
row alike.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .rng import RandomStream

__all__ = [
    "bits",
    "bits_to_hex",
    "hex_to_bits",
    "bits_to_str",
    "rank",
    "rref",
    "solve",
    "nullspace",
    "BinaryLinearCode",
    "NestedCodePair",
    "DualContainingPair",
    "syndrome",
    "decode_to_codeword",
    "coset_leader",
    "key_from_coset",
    "sample_codeword",
    "encode_ue_codeword",
    "is_nested",
    "is_dual_containing",
    "load_code",
    "hamming74",
    "repetition_code",
    "default_nested_pair",
    "default_dual_pair",
]

_TABLE_CAP = 16  # code tables enumerate all 2^n words


def bits(values: Iterable[int] | str) -> np.ndarray:
    """A fresh writable uint8 copy of a '0101' string or a vector of bool or
    integer entries 0 and 1 (an empty vector has none); anything else,
    floats included, raises ValueError: no entry is read as another value."""
    if not isinstance(values, np.ndarray):
        if isinstance(values, str):
            if set(values) - {"0", "1"}:
                raise ValueError("a bit string holds only the characters 0 and 1")
            values = [c == "1" for c in values]
        values = np.asarray(list(values) if isinstance(values, Iterable) else values)
    if values.ndim != 1:
        raise ValueError("a bit vector must be one-dimensional")
    kind = values.dtype.kind
    if kind not in "biu" and values.size:
        raise ValueError(f"bit entries must be 0 or 1 as integers or bools, not {values.dtype}")
    out = values.astype(np.uint8)  # a one-byte entry keeps its byte, so `out` shows it
    wide = kind in "iu" and values.dtype.itemsize > 1  # the cast may wrap: check the source
    if wide and np.count_nonzero(values >> 1) or out.tobytes().translate(None, b"\0\1"):
        raise ValueError("bit entries must be 0 or 1")
    return out


def _freeze(record, **arrays: np.ndarray):
    """`record`, a frozen dataclass instance, with each of `arrays` stored
    on it under its name as given and made read-only: no copy, no check.

    This is the package's one way to store arrays on a record. A public
    constructor hands it the arrays its `__post_init__` has just checked,
    copied or built. A trusted build hands it `object.__new__(cls)` and
    arrays this package has just built, of the dtypes, shapes and values
    the public constructor would store, skipping that constructor's checks
    and copies; an array so handed over belongs to the record from then on.
    """
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)
    return record


def bits_to_str(v: np.ndarray) -> str:
    return "".join(str(int(b)) for b in v)


def bits_to_hex(v: np.ndarray) -> str:
    """Hex serialization; bits are packed big-endian, zero-padded at the end."""
    v = bits(v)
    padded = np.concatenate([v, np.zeros((-len(v)) % 8, dtype=np.uint8)])
    return bytes(np.packbits(padded)).hex()


def hex_to_bits(s: str, length: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(s), dtype=np.uint8)
    unpacked = np.unpackbits(raw)
    if raw.size != -(-length // 8) or np.any(unpacked[length:]):  # bits_to_hex's byte count
        raise ValueError(f"hex string does not hold exactly {length} bits")
    return unpacked[:length].astype(np.uint8)


# -- elimination ------------------------------------------------------------


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (R, pivot columns)."""
    r = _matrix(m)
    n_rows, n_cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        pivot = None
        for i in range(row, n_rows):
            if r[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        r[[row, pivot]] = r[[pivot, row]]
        mask = r[:, col].copy().astype(bool)
        mask[row] = False
        r[mask] ^= r[row]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return r, pivots


def rank(m: np.ndarray) -> int:
    return len(rref(m)[1])


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of A x = b over GF(2), or None if inconsistent."""
    a, b = _matrix(a), bits(b)
    aug = np.concatenate([a, b[:, None]], axis=1)
    r, pivots = rref(aug)
    if aug.shape[1] - 1 in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.uint8)
    for i, col in enumerate(pivots):
        x[col] = r[i, -1]
    return x


def nullspace(m: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace of m over GF(2), one vector per row."""
    r, pivots = rref(m)
    n_cols = r.shape[1]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.uint8)
    for j, fc in enumerate(free):
        basis[j, fc] = 1
        for i, pc in enumerate(pivots):
            basis[j, pc] = r[i, fc]
    return basis


def _mul(m: np.ndarray, words: np.ndarray) -> np.ndarray:
    """m @ w over GF(2) for a word w, or for each row w of a matrix."""
    return (words @ m.T).astype(np.uint8) % 2


def _matrix(values) -> np.ndarray:
    """A 2-D bit array, its entries checked by `bits`."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError("a bit matrix must be two-dimensional")
    return bits(arr.reshape(-1)).reshape(arr.shape)


def _words(values, width: int, what: str) -> np.ndarray:
    """A bit vector, or a matrix with one word per row, of `width` bits."""
    arr = _matrix(values) if np.ndim(values) == 2 else bits(values)
    if arr.shape[-1] != width:
        raise ValueError(f"{what} length {arr.shape[-1]} != {width}")
    return arr


def _all_words(width: int) -> np.ndarray:
    """Every `width`-bit word, one per row; row i is the word whose
    big-endian value is i."""
    if width > _TABLE_CAP:
        raise ValueError(f"exact code tables are capped at {_TABLE_CAP}-bit words")
    return ((np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def _index(words: np.ndarray) -> np.ndarray:
    """Big-endian integer value of a word, or of each row of a matrix."""
    return words @ (1 << np.arange(words.shape[-1] - 1, -1, -1))


# -- codes ------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryLinearCode:
    """An [n, k] binary linear code given by full-rank generator and check."""

    n: int
    k: int
    generator: np.ndarray
    parity_check: np.ndarray

    def __post_init__(self):
        g, h = _matrix(self.generator), _matrix(self.parity_check)
        if g.shape != (self.k, self.n) or h.shape != (self.n - self.k, self.n):
            raise ValueError("generator / parity check shapes inconsistent with (n, k)")
        if rank(g) != self.k or rank(h) != self.n - self.k:
            raise ValueError("generator and parity check must be full rank")
        if np.any((g @ h.T) % 2):
            raise ValueError("generator rows must satisfy all parity checks")
        _freeze(self, generator=g, parity_check=h)

    @classmethod
    def from_generator(cls, g: np.ndarray) -> "BinaryLinearCode":
        g = _matrix(g)
        k, n = g.shape
        if rank(g) != k:
            raise ValueError("generator rows must be independent")
        return cls(n=n, k=k, generator=g, parity_check=nullspace(g))

    @cached_property
    def codewords(self) -> np.ndarray:
        """All 2^k codewords, row i encodes the k-bit message with value i."""
        table = (_all_words(self.k) @ self.generator) % 2
        table.setflags(write=False)
        return table

    @cached_property
    def distance(self) -> int:
        w = self.codewords.sum(axis=1)
        return int(w[w > 0].min())

    @cached_property
    def leader_table(self) -> np.ndarray:
        """Minimum-weight coset leaders, lexicographic tie-break; row s is
        the leader of the syndrome whose big-endian value is s."""
        words = _all_words(self.n)
        order = np.lexsort((np.arange(1 << self.n), words.sum(axis=1)))
        index = _index(_mul(self.parity_check, words[order]))
        _, first = np.unique(index, return_index=True)  # lightest word per syndrome
        table = np.empty((1 << (self.n - self.k), self.n), dtype=np.uint8)
        table[index[first]] = words[order[first]]
        table.setflags(write=False)
        return table

    @cached_property
    def decode_table(self) -> np.ndarray:
        """Nearest codeword of every n-bit word, each word XOR the leader of
        its syndrome; row i decodes the word whose big-endian value is i."""
        words = _all_words(self.n)
        table = words ^ self.leader_table[_index(_mul(self.parity_check, words))]
        table.setflags(write=False)
        return table


def syndrome(code: BinaryLinearCode, v: np.ndarray) -> np.ndarray:
    """Parity-check image of v (or of each row of v), length n - k."""
    return _mul(code.parity_check, _words(v, code.n, "vector"))


def coset_leader(code: BinaryLinearCode, syn: np.ndarray) -> np.ndarray:
    """Minimum-weight vector with the given syndrome (lexicographic ties);
    one leader per row for a matrix of syndromes."""
    syn = _words(syn, code.n - code.k, "syndrome")
    return code.leader_table[_index(syn)].copy()


def decode_to_codeword(code: BinaryLinearCode, word: np.ndarray) -> np.ndarray:
    """Nearest codeword under Hamming distance (exact, via coset leaders),
    of a word or of each row of a matrix of words; read off the code's
    decode table."""
    word = _words(word, code.n, "word")
    return code.decode_table.take(_index(word), axis=0)


def sample_codeword(code: BinaryLinearCode, rng: RandomStream, count: int) -> np.ndarray:
    """(count x n) matrix of uniformly random codewords.

    The messages of all codewords come from one `rng.bit_rows(count, k)`
    draw, whose rows equal `count` single `rng.bits(k)` draws; each
    message's codeword is read off `code.codewords`.
    """
    return code.codewords.take(_index(rng.bit_rows(count, code.k)), axis=0)


@dataclass(frozen=True)
class NestedCodePair:
    """Codes with {0} < C2 < C1, the BB84 key-coset construction."""

    c1: BinaryLinearCode
    c2: BinaryLinearCode

    def __post_init__(self):
        if self.c1.n != self.c2.n:
            raise ValueError("codes must share a block length")
        if not is_nested(self.c1, self.c2):
            raise ValueError("C2 is not a proper subcode of C1")

    @property
    def key_bits(self) -> int:
        return self.c1.k - self.c2.k

    @cached_property
    def _coset_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(H2, T): label(u) = T @ (H2 @ u); kernel on C1 is exactly C2."""
        h2 = self.c2.parity_check
        image = (self.c1.generator @ h2.T) % 2  # k1 x (n - k2), rank k1 - k2
        r, pivots = rref(image)
        t = np.zeros((len(pivots), h2.shape[0]), dtype=np.uint8)
        for i, col in enumerate(pivots):
            t[i, col] = 1
        # pivot-coordinate projection is injective on the row space of `image`
        return h2, t

    @cached_property
    def label_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(labels, in_c1) over every n-bit word: row i of labels is
        T @ (H2 @ w) and in_c1[i] says whether w is a codeword of C1, for
        the word w whose big-endian value is i."""
        words = _all_words(self.c1.n)
        h2, t = self._coset_map
        labels = _mul(t, _mul(h2, words))
        in_c1 = ~_mul(self.c1.parity_check, words).any(axis=1)
        labels.setflags(write=False)
        in_c1.setflags(write=False)
        return labels, in_c1


def key_from_coset(pair: NestedCodePair, u: np.ndarray) -> np.ndarray:
    """Canonical (k1 - k2)-bit label of the coset u + C2 inside C1; one
    label per row for a matrix of codewords."""
    u = _words(u, pair.c1.n, "codeword")
    labels, in_c1 = pair.label_table
    index = _index(u)
    if not in_c1[index].all():
        raise ValueError("u is not a codeword of C1")
    return labels.take(index, axis=0)


@dataclass(frozen=True)
class DualContainingPair:
    """Codes with C2-dual contained in C1, as uncloneable encryption needs.

    quotient_checks rows are codewords of C2 that are independent modulo
    the dual of C1; evaluating them on a codeword extracts the
    (k1 + k2 - n)-bit payload that survives privacy amplification.
    """

    c1: BinaryLinearCode
    c2: BinaryLinearCode
    quotient_checks: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.c1.n != self.c2.n:
            raise ValueError("codes must share a block length")
        if not is_dual_containing(self.c1, self.c2):
            raise ValueError("the dual of C2 is not contained in C1")
        if self.payload_bits < 1:
            raise ValueError(
                f"payload_bits = k1 + k2 - n must be at least 1, got {self.payload_bits}"
            )
        _freeze(self, quotient_checks=self._build_quotient_checks())

    def _build_quotient_checks(self) -> np.ndarray:
        """The first payload_bits rows of C2's generator that raise the rank
        over H1. C1-dual is inside C2, so C2 has exactly that many dimensions
        more, and the greedy pass always finds them."""
        rows = []
        current = self.c1.parity_check  # spans the dual of C1
        for row in self.c2.generator:
            if rank(np.vstack([current, row])) > rank(current):
                rows.append(row)
                current = np.vstack([current, row])
            if len(rows) == self.payload_bits:
                break
        return np.array(rows, dtype=np.uint8)

    @property
    def payload_bits(self) -> int:
        return self.c1.k + self.c2.k - self.c1.n

    @cached_property
    def _encoder(self) -> tuple[np.ndarray, int]:
        """(E, dim): the UE codeword for syndrome c1_syn, payload y and
        nullspace coefficients r (dim bits) is [c1_syn, y, r] @ E over GF(2).

        For A = [H1; Q], `solve(A, b)` is GF(2)-linear in b (its elimination
        steps depend on A alone, and A has full row rank), so row j of E is
        `solve(A, e_j)` for each unit vector e_j; the last dim rows are
        `nullspace(A)`. Built once per pair.
        """
        a = np.vstack([self.c1.parity_check, self.quotient_checks])
        columns = [solve(a, unit) for unit in np.eye(a.shape[0], dtype=np.uint8)]
        if any(col is None for col in columns):
            raise RuntimeError("constraint system inconsistent; pair invariants are broken")
        basis = nullspace(a)
        encoder = np.vstack([np.array(columns, dtype=np.uint8), basis])
        encoder.setflags(write=False)
        return encoder, basis.shape[0]


def is_nested(c1: BinaryLinearCode, c2: BinaryLinearCode) -> bool:
    """True iff {0} < C2 < C1, checked row by row on C2's generator."""
    if c1.n != c2.n or c2.k >= c1.k or c2.k < 1:
        return False
    return not np.any((c2.generator @ c1.parity_check.T) % 2)


def is_dual_containing(c1: BinaryLinearCode, c2: BinaryLinearCode) -> bool:
    """True iff the dual of C2 sits inside C1."""
    if c1.n != c2.n:
        return False
    # generator of the dual of C2 is C2's parity check
    return not np.any((c2.parity_check @ c1.parity_check.T) % 2)


def encode_ue_codeword(
    pair: DualContainingPair, c1_syn: np.ndarray, y: np.ndarray, rng: RandomStream
) -> np.ndarray:
    """Uniform z with C1-syndrome c1_syn and quotient image y; for matrices
    of syndromes and payloads, one codeword per row.

    A particular solution of the stacked linear system plus a uniformly
    random nullspace element, so repeated calls sample the whole solution
    coset. The coefficients of all rows come from one `rng.bit_rows` draw,
    whose rows equal one `rng.bits(dim)` draw per row in row order; so a
    matrix holds the codewords that single calls would return.
    """
    c1_syn = _words(c1_syn, pair.c1.n - pair.c1.k, "c1 syndrome")
    y = _words(y, pair.payload_bits, "payload")
    if c1_syn.shape[:-1] != y.shape[:-1]:
        raise ValueError("need one c1 syndrome per payload")
    encoder, dim = pair._encoder
    rows = np.atleast_2d(np.concatenate([c1_syn, y], axis=-1))
    z = _mul(encoder.T, np.hstack([rows, rng.bit_rows(len(rows), dim)]))
    return z if c1_syn.ndim == 2 else z[0]


# -- text format and stock codes ---------------------------------------------


def load_code(text: str) -> BinaryLinearCode:
    """Parse the `n k` + k generator-row text format."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code definition")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be 'n k'")
    n, k = int(header[0]), int(header[1])
    if n > _TABLE_CAP:  # checked before the elimination, which is cubic in n
        raise ValueError(f"exact code tables are capped at {_TABLE_CAP}-bit words")
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} generator rows, got {len(lines) - 1}")
    if any(len(ln) != n for ln in lines[1:]):
        raise ValueError(f"generator rows must hold {n} bits")
    return BinaryLinearCode.from_generator([bits(ln) for ln in lines[1:]])


def hamming74() -> BinaryLinearCode:
    """The [7,4] Hamming code, distance 3."""
    h = np.array([bits(row) for row in ("1010101", "0110011", "0001111")])
    return BinaryLinearCode(n=7, k=4, generator=nullspace(h), parity_check=h)


def repetition_code(n: int) -> BinaryLinearCode:
    """The [n,1] repetition code {0^n, 1^n}, distance n."""
    g = np.ones((1, n), dtype=np.uint8)
    return BinaryLinearCode.from_generator(g)


def default_nested_pair() -> NestedCodePair:
    """Hamming[7,4] over repetition[7,1]: three key bits per block."""
    return NestedCodePair(c1=hamming74(), c2=repetition_code(7))


@lru_cache(maxsize=None)
def default_dual_pair() -> DualContainingPair:
    """C1 = C2 = Hamming[7,4]; one payload bit per seven-qubit block.

    One shared pair: it is immutable apart from its caches, which only
    ever fill with maps derived from the two codes.
    """
    return DualContainingPair(c1=hamming74(), c2=hamming74())
