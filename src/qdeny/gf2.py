"""Binary linear algebra and the small code machinery the protocols use.

Bit vectors are numpy uint8 arrays with entries in {0, 1}; matrices are
2-D uint8 arrays. Codes are immutable after construction and build exact
coset-leader tables on first use (block lengths stay tiny here, so
exhaustive minimum-distance decoding is the simplest correct choice).
Wherever a minimum-weight choice is ambiguous, ties break
lexicographically. The per-block operations (syndromes, coset leaders,
decoding, coset labels) take one word or a matrix of words, one block per
row, and treat every row alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

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
    "dump_code",
    "hamming74",
    "repetition_code",
    "default_nested_pair",
    "default_dual_pair",
]

_TABLE_CAP = 16  # coset-leader tables enumerate all 2^n words


def bits(values: Iterable[int] | str) -> np.ndarray:
    """Normalize a bit container (iterable or '0101' string) to uint8."""
    if isinstance(values, str):
        values = [int(c) for c in values]
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    arr = arr.astype(np.uint8)
    if arr.ndim != 1 or (arr > 1).any():
        raise ValueError("bit vector entries must be 0 or 1")
    return arr


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
    if unpacked.size < length or np.any(unpacked[length:]):
        raise ValueError(f"hex string does not hold exactly {length} bits")
    return unpacked[:length].astype(np.uint8)


# -- elimination ------------------------------------------------------------


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (R, pivot columns)."""
    r = np.array(m, dtype=np.uint8) % 2
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
    a = np.asarray(a, dtype=np.uint8)
    b = bits(b)
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
    m = np.asarray(m, dtype=np.uint8)
    n_cols = m.shape[1]
    r, pivots = rref(m)
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


def _words(values, width: int, what: str) -> np.ndarray:
    """A bit vector, or a matrix with one word per row, of `width` bits."""
    arr = np.asarray(values)
    if arr.ndim == 2:
        arr = arr.astype(np.uint8)
        if (arr > 1).any():
            raise ValueError("bit entries must be 0 or 1")
    else:
        arr = bits(values)
    if arr.shape[-1] != width:
        raise ValueError(f"{what} length {arr.shape[-1]} != {width}")
    return arr


# -- codes ------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryLinearCode:
    """An [n, k] binary linear code given by full-rank generator and check."""

    n: int
    k: int
    generator: np.ndarray
    parity_check: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=np.uint8) % 2
        h = np.asarray(self.parity_check, dtype=np.uint8) % 2
        if g.shape != (self.k, self.n) or h.shape != (self.n - self.k, self.n):
            raise ValueError("generator / parity check shapes inconsistent with (n, k)")
        if rank(g) != self.k or rank(h) != self.n - self.k:
            raise ValueError("generator and parity check must be full rank")
        if np.any((g @ h.T) % 2):
            raise ValueError("generator rows must satisfy all parity checks")
        g.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "generator", g)
        object.__setattr__(self, "parity_check", h)

    @classmethod
    def from_generator(cls, g: np.ndarray) -> "BinaryLinearCode":
        g = np.asarray(g, dtype=np.uint8) % 2
        k, n = g.shape
        if rank(g) != k:
            raise ValueError("generator rows must be independent")
        return cls(n=n, k=k, generator=g, parity_check=nullspace(g))

    def codewords(self) -> np.ndarray:
        """All 2^k codewords, row i encodes the k-bit message with value i."""
        if "codewords" not in self._cache:
            msgs = ((np.arange(1 << self.k)[:, None] >> np.arange(self.k - 1, -1, -1)) & 1).astype(
                np.uint8
            )
            self._cache["codewords"] = (msgs @ self.generator) % 2
        return self._cache["codewords"]

    def distance(self) -> int:
        if "distance" not in self._cache:
            w = self.codewords().sum(axis=1)
            self._cache["distance"] = int(w[w > 0].min())
        return self._cache["distance"]

    def leader_table(self) -> np.ndarray:
        """Minimum-weight coset leaders, lexicographic tie-break; row s is
        the leader of the syndrome whose big-endian value is s."""
        if "leaders" not in self._cache:
            if self.n > _TABLE_CAP:
                raise ValueError(f"exact decoding tables are capped at n <= {_TABLE_CAP}")
            words = ((np.arange(1 << self.n)[:, None] >> np.arange(self.n - 1, -1, -1)) & 1).astype(
                np.uint8
            )
            order = np.lexsort((np.arange(1 << self.n), words.sum(axis=1)))
            index = _syndrome_index(_mul(self.parity_check, words[order]))
            _, first = np.unique(index, return_index=True)  # lightest word per syndrome
            table = np.empty((1 << (self.n - self.k), self.n), dtype=np.uint8)
            table[index[first]] = words[order[first]]
            table.setflags(write=False)
            self._cache["leaders"] = table
        return self._cache["leaders"]


def _syndrome_index(syn: np.ndarray) -> np.ndarray:
    """Big-endian integer value of each syndrome (last axis)."""
    weights = 1 << np.arange(syn.shape[-1] - 1, -1, -1)
    return syn.astype(np.int64) @ weights


def syndrome(code: BinaryLinearCode, v: np.ndarray) -> np.ndarray:
    """Parity-check image of v (or of each row of v), length n - k."""
    return _mul(code.parity_check, _words(v, code.n, "vector"))


def coset_leader(code: BinaryLinearCode, syn: np.ndarray) -> np.ndarray:
    """Minimum-weight vector with the given syndrome (lexicographic ties);
    one leader per row for a matrix of syndromes."""
    syn = _words(syn, code.n - code.k, "syndrome")
    return code.leader_table()[_syndrome_index(syn)].copy()


def decode_to_codeword(code: BinaryLinearCode, word: np.ndarray) -> np.ndarray:
    """Nearest codeword under Hamming distance (exact, via coset leaders),
    of a word or of each row of a matrix of words."""
    word = _words(word, code.n, "word")
    return word ^ coset_leader(code, syndrome(code, word))


def sample_codeword(
    code: BinaryLinearCode, rng: RandomStream, count: int | None = None
) -> np.ndarray:
    """Uniformly random codeword, or a (count x n) matrix of them.

    Each codeword takes its own `rng.bits(k)` draw, so a matrix holds the
    codewords that `count` single calls would return, in order.
    """
    messages = [rng.bits(code.k) for _ in range(1 if count is None else count)]
    words = _mul(code.generator.T, np.array(messages, dtype=np.uint8).reshape(-1, code.k))
    return words[0] if count is None else words


@dataclass(frozen=True)
class NestedCodePair:
    """Codes with {0} < C2 < C1, the BB84 key-coset construction."""

    c1: BinaryLinearCode
    c2: BinaryLinearCode
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.c1.n != self.c2.n:
            raise ValueError("codes must share a block length")
        if not is_nested(self.c1, self.c2):
            raise ValueError("C2 is not a proper subcode of C1")

    @property
    def key_bits(self) -> int:
        return self.c1.k - self.c2.k

    def _coset_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(H2, T): label(u) = T @ (H2 @ u); kernel on C1 is exactly C2."""
        if "coset_map" not in self._cache:
            h2 = self.c2.parity_check
            image = (self.c1.generator @ h2.T) % 2  # k1 x (n - k2), rank k1 - k2
            r, pivots = rref(image)
            t = np.zeros((len(pivots), h2.shape[0]), dtype=np.uint8)
            for i, col in enumerate(pivots):
                t[i, col] = 1
            # pivot-coordinate projection is injective on the row space of `image`
            self._cache["coset_map"] = (h2, t)
        return self._cache["coset_map"]


def key_from_coset(pair: NestedCodePair, u: np.ndarray) -> np.ndarray:
    """Canonical (k1 - k2)-bit label of the coset u + C2 inside C1; one
    label per row for a matrix of codewords."""
    u = _words(u, pair.c1.n, "codeword")
    if np.any(syndrome(pair.c1, u)):
        raise ValueError("u is not a codeword of C1")
    h2, t = pair._coset_map()
    return _mul(t, _mul(h2, u))


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
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.c1.n != self.c2.n:
            raise ValueError("codes must share a block length")
        if not is_dual_containing(self.c1, self.c2):
            raise ValueError("the dual of C2 is not contained in C1")
        q = self._build_quotient_checks()
        q.setflags(write=False)
        object.__setattr__(self, "quotient_checks", q)
        if not is_dual_containing(self.c1, self.c2, self.quotient_checks):
            raise ValueError("pair violates dual containment or quotient-check invariants")

    def _build_quotient_checks(self) -> np.ndarray:
        n, k1, k2 = self.c1.n, self.c1.k, self.c2.k
        want = k1 + k2 - n
        base = self.c1.parity_check  # spans the dual of C1
        rows = []
        current = base
        for row in self.c2.generator:
            if rank(np.vstack([current, row])) > rank(current):
                rows.append(row)
                current = np.vstack([current, row])
            if len(rows) == want:
                break
        if len(rows) != want:
            raise ValueError("could not span C2 modulo the dual of C1")
        return np.array(rows, dtype=np.uint8)

    @property
    def payload_bits(self) -> int:
        return self.c1.k + self.c2.k - self.c1.n

    def _encoder(self) -> tuple[np.ndarray, int]:
        """(E, dim): the UE codeword for syndrome c1_syn, payload y and
        nullspace coefficients r (dim bits) is [c1_syn, y, r] @ E over GF(2).

        For A = [H1; Q], `solve(A, b)` is GF(2)-linear in b (its elimination
        steps depend on A alone, and A has full row rank), so row j of E is
        `solve(A, e_j)` for each unit vector e_j; the last dim rows are
        `nullspace(A)`. Built once per pair.
        """
        if "encoder" not in self._cache:
            a = np.vstack([self.c1.parity_check, self.quotient_checks])
            columns = [solve(a, unit) for unit in np.eye(a.shape[0], dtype=np.uint8)]
            if any(col is None for col in columns):
                raise RuntimeError("constraint system inconsistent; pair invariants are broken")
            basis = nullspace(a)
            encoder = np.vstack([np.array(columns, dtype=np.uint8), basis])
            encoder.setflags(write=False)
            self._cache["encoder"] = (encoder, basis.shape[0])
        return self._cache["encoder"]


def is_nested(c1: BinaryLinearCode, c2: BinaryLinearCode) -> bool:
    """True iff {0} < C2 < C1, checked row by row on C2's generator."""
    if c1.n != c2.n or c2.k >= c1.k or c2.k < 1:
        return False
    return not np.any((c2.generator @ c1.parity_check.T) % 2)


def is_dual_containing(
    c1: BinaryLinearCode, c2: BinaryLinearCode, quotient_checks: np.ndarray | None = None
) -> bool:
    """True iff the dual of C2 sits inside C1 (and quotient checks are valid)."""
    if c1.n != c2.n:
        return False
    # generator of the dual of C2 is C2's parity check
    if np.any((c2.parity_check @ c1.parity_check.T) % 2):
        return False
    if quotient_checks is None:
        return True
    q = np.asarray(quotient_checks, dtype=np.uint8)
    want = c1.k + c2.k - c1.n
    if q.shape != (want, c1.n):
        return False
    if np.any((q @ c2.parity_check.T) % 2):  # rows must live in C2
        return False
    base = c1.parity_check
    return rank(np.vstack([base, q])) == rank(base) + want


def encode_ue_codeword(
    pair: DualContainingPair, c1_syn: np.ndarray, y: np.ndarray, rng: RandomStream
) -> np.ndarray:
    """Uniform z with C1-syndrome c1_syn and quotient image y; for matrices
    of syndromes and payloads, one codeword per row.

    A particular solution of the stacked linear system plus a uniformly
    random nullspace element, so repeated calls sample the whole solution
    coset. Each row takes its own `rng.bits(dim)` draw, in row order, so a
    matrix holds the codewords that single calls would return.
    """
    c1_syn = _words(c1_syn, pair.c1.n - pair.c1.k, "c1 syndrome")
    y = _words(y, pair.payload_bits, "payload")
    if c1_syn.shape[:-1] != y.shape[:-1]:
        raise ValueError("need one c1 syndrome per payload")
    encoder, dim = pair._encoder()
    rows = np.atleast_2d(np.concatenate([c1_syn, y], axis=-1))
    draws = [rng.bits(dim) for _ in range(len(rows))] if dim else []
    coeffs = np.array(draws, dtype=np.uint8).reshape(len(rows), dim)
    z = _mul(encoder.T, np.hstack([rows, coeffs]))
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
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} generator rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"bad generator row {ln!r}")
        rows.append([int(c) for c in ln])
    return BinaryLinearCode.from_generator(np.array(rows, dtype=np.uint8))


def dump_code(code: BinaryLinearCode) -> str:
    rows = "\n".join(bits_to_str(row) for row in code.generator)
    return f"{code.n} {code.k}\n{rows}\n"


def hamming74() -> BinaryLinearCode:
    """The [7,4] Hamming code, distance 3."""
    h = np.array(
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
        dtype=np.uint8,
    )
    return BinaryLinearCode(n=7, k=4, generator=nullspace(h), parity_check=h)


def repetition_code(n: int = 7) -> BinaryLinearCode:
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
