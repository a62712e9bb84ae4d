"""Oracles for the seed-search warden's fast paths.

The weak schedule table is expanded in seed batches; row `seed` must equal
the scalar `CounterModePrng(seed).sample_distinct` for each 16-bit seed.
The warden screens seeds on their first slots, then counts detections on
each seed's first K slots with one sparse product and finishes only the
seeds that can still reach the threshold; every decision must equal the
dense gather-and-sum over the table, on uniform windows and on windows
planted from a real seed's schedule, whatever K is.
"""

import numpy as np
import pytest

from qdeny import dcqke, rng
from qdeny.bb84 import Bb84Config
from qdeny.channel import (
    MAX_SLOTS,
    MAX_WEAK_TABLE_SLOTS,
    TimeBinChannel,
    WardenObservation,
    weak_schedule_table,
)
from qdeny.rng import (
    WEAK_SEED_BITS,
    CounterModePrng,
    RandomStream,
    _distinct_rows,
    _first_draw,
    _refill_size,
)

N_SEEDS = 1 << WEAK_SEED_BITS


@pytest.fixture(scope="module", autouse=True)
def _release_tables():
    """The tables here are large; do not keep them cached past this module."""
    yield
    dcqke.seed_prefix_incidence.cache_clear()
    weak_schedule_table.cache_clear()


def _scalar_row(seed: int, n_slots: int, n_used: int) -> np.ndarray:
    return CounterModePrng(seed).sample_distinct(n_slots, n_used)


@pytest.mark.parametrize("n_slots, n_used", [(1000, 37), (40, 40)])
def test_table_equals_scalar_sample_distinct_on_every_seed(n_slots, n_used):
    table = weak_schedule_table(n_slots, n_used)
    assert table.shape == (N_SEEDS, n_used) and table.dtype == np.min_scalar_type(n_slots - 1)
    assert not table.flags.writeable
    for seed in range(N_SEEDS):
        assert np.array_equal(table[seed], _scalar_row(seed, n_slots, n_used)), seed


def _scalar_calls(monkeypatch) -> list[int]:
    """Seeds of every scalar `CounterModePrng.sample_distinct` call from here on."""
    calls = []
    scalar = CounterModePrng.sample_distinct

    def counted(self, n_slots, n_used):
        calls.append(self.key)
        return scalar(self, n_slots, n_used)

    monkeypatch.setattr(CounterModePrng, "sample_distinct", counted)
    return calls


def test_rows_the_first_draw_cannot_fill_fall_back(monkeypatch):
    # a first draw of 308 words from 300 values holds about 194 distinct
    # ones, short of 250 (the 4-sd demand is 664 words)
    seeds = range(1000, 1032)
    expected = np.array([_scalar_row(seed, 300, 250) for seed in seeds])
    monkeypatch.setattr(rng, "_first_draw", lambda n_slots, n_used: 308)
    scalar_calls = _scalar_calls(monkeypatch)
    got = _distinct_rows(seeds, 300, 250)
    assert scalar_calls == list(seeds)
    assert got.dtype == np.int32 and np.array_equal(got, expected)


def _hashed_blocks(monkeypatch) -> list[tuple[int, int]]:
    """(keys, counters) of every `rng._blocks` call from here on."""
    calls = []
    blocks = rng._blocks

    def counted(key_bytes, counters):
        calls.append((len(key_bytes), len(counters)))
        return blocks(key_bytes, counters)

    monkeypatch.setattr(rng, "_blocks", counted)
    return calls


def test_first_draw_at_the_weak_table_size_is_24_blocks(monkeypatch):
    # 182 distinct of 16384 slots take 183 words on average, sd 1.0; the
    # scalar path's first prefix is 226 words, 29 blocks
    calls = _hashed_blocks(monkeypatch)
    got = _distinct_rows(range(64), 16384, 182)
    assert calls == [(64, 24)]
    assert np.array_equal(got, [_scalar_row(seed, 16384, 182) for seed in range(64)])


def test_first_draw_is_computed_once_per_size():
    # the chunks of one table build share their sizes, so they share the width
    _first_draw.cache_clear()
    for start in range(0, 32, 8):
        _distinct_rows(range(start, start + 8), 2048, 24)
    assert _first_draw.cache_info().misses == 1


def test_rejected_words_are_skipped_in_draw_order(monkeypatch):
    # 2**32 % n_slots is about a quarter of 2**32, so about a quarter of the
    # words are rejected; at the table sizes above rejections almost never
    # occur. The 4-sd demand is 40 words, more than the scalar path's first
    # prefix of 32, which seeds 23 and 52 would not fill
    n_slots = 3 * 2**29 + 1
    seeds = range(64)
    expected = [_scalar_row(seed, n_slots, 20) for seed in seeds]
    assert _first_draw(n_slots, 20) == 40 > _refill_size(20)
    scalar_calls = _scalar_calls(monkeypatch)
    got = _distinct_rows(seeds, n_slots, 20)
    assert scalar_calls == []
    assert np.array_equal(got, expected)


# (n_slots, n_used) around the uint32 limit of the packed sort key
# ((n_slots + 1) << shift) - 1, shift being the bit length of the first
# draw's width less one: 24 words (shift 5) at 20 slots a seed, 48 (shift 6)
# at 40
PACKED_KEY_SIZES = [
    pytest.param(2**27 - 1, 20, np.uint32, id="fits"),
    pytest.param(2**27, 20, np.uint64, id="past-by-one-slot"),
    pytest.param(2**27 - 1, 40, np.uint64, id="past-by-width"),
    pytest.param(2**26 - 1, 40, np.uint32, id="fits-at-width-48"),
]


def _doctored_blocks(monkeypatch, n_slots: int) -> None:
    """Make block 0 of every key hold a duplicate, rejected words (where
    n_slots rejects any) and the largest slot twice, so the packed keys
    reach the top of their type; both `_distinct_rows` and the scalar path
    read the same doctored keystream."""
    blocks = rng._blocks
    limit = rng._accept_limit(n_slots)

    def doctored(key_bytes, counters):
        words = np.frombuffer(blocks(key_bytes, counters), dtype=">u4").astype(np.int64)
        words = words.reshape(len(key_bytes), -1)
        if counters[0] == 0:
            again = words[:, 0] % n_slots + n_slots  # the same slot as word 0
            words[:, 1] = np.where(again < limit, again, again - 2 * n_slots)
            words[:, 2] = (1 << 32) - 1  # rejected unless n_slots divides 2**32
            words[:, 3] = n_slots - 1
            words[:, 5] = 2 * n_slots - 1  # the top slot again
            words[:, 7] = limit if limit < 1 << 32 else 0
        return words.astype(">u4").tobytes()

    monkeypatch.setattr(rng, "_blocks", doctored)


@pytest.mark.parametrize("n_slots, n_used, key_type", PACKED_KEY_SIZES)
def test_packed_key_rows_equal_scalar_rows_at_the_uint32_limit(
    monkeypatch, n_slots, n_used, key_type
):
    assert rng._sort_key(n_slots, _first_draw(n_slots, n_used))[1] == key_type
    _doctored_blocks(monkeypatch, n_slots)
    seeds = range(64)
    expected = np.array([_scalar_row(seed, n_slots, n_used) for seed in seeds])
    assert (expected == n_slots - 1).any(axis=1).all()
    scalar_calls = _scalar_calls(monkeypatch)
    got = _distinct_rows(seeds, n_slots, n_used)
    assert scalar_calls == []  # every row came from the packed keys
    assert got.dtype == np.int32 and np.array_equal(got, expected)


def test_sort_key_is_uint32_at_every_channel_size():
    width = _first_draw(MAX_SLOTS, MAX_WEAK_TABLE_SLOTS)
    assert width <= _refill_size(MAX_WEAK_TABLE_SLOTS)
    assert rng._sort_key(MAX_SLOTS, width)[1] == np.uint32
    assert rng._sort_key(MAX_SLOTS, _refill_size(MAX_WEAK_TABLE_SLOTS))[1] == np.uint32
    assert rng._sort_key(16384, _first_draw(16384, 182)) == (8, np.uint32)


def test_table_over_its_occupancy_limit_is_rejected():
    # checked before the table is allocated: this one would take 26 GB
    with pytest.raises(ValueError, match=str(MAX_WEAK_TABLE_SLOTS)):
        weak_schedule_table(200_000, 100_000)


@pytest.mark.parametrize(
    "n_slots, n_used, name",
    [(16.5, 4, "slot count"), (16.0, 4, "slot count"), (16, 4.0, "slots per seed"),
     (16, True, "slots per seed")],
)
def test_table_sizes_must_be_integers(n_slots, n_used, name):
    # 16.5 slots once built a float16 table: np.min_scalar_type(15.5)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        weak_schedule_table(n_slots, n_used)


@pytest.mark.parametrize("n_slots, n_used", [(10, 20), (-5, 3), (0, 0), (16, -1), (2**33, 4)])
def test_table_sizes_out_of_range_raise_as_sample_distinct_does(monkeypatch, n_slots, n_used):
    # (10, 20) once raised an OverflowError from float infinity, (-5, 3) a
    # math domain error, and (0, 0) built a (65536, 0) table
    with pytest.raises(ValueError) as scalar:
        CounterModePrng(0).sample_distinct(n_slots, n_used)
    monkeypatch.setattr(np, "empty", None)  # checked before the table is allocated
    with pytest.raises(ValueError) as table:
        weak_schedule_table(n_slots, n_used)
    assert str(table.value) == str(scalar.value)


def test_rows_out_of_range_raise_as_sample_distinct_does():
    # this once raised an IndexError
    with pytest.raises(ValueError, match=r"^cannot schedule -1 of 10 slots$"):
        _distinct_rows(range(3), 10, -1)


def test_config_schedule_demand_must_be_an_integer():
    with pytest.raises(ValueError, match="schedule demand must be an integer"):
        _config(64, 4.5)


def test_rows_beyond_int32_are_rejected():
    with pytest.raises(ValueError):
        _distinct_rows(range(4), 2**31 + 1, 4)


def _config(n_slots: int, n_used: int, p_dark: float = 0.3, p_signal: float = 0.95):
    return dcqke.CovertQkeConfig(
        Bb84Config(n=7, delta=0.5),
        TimeBinChannel(n_slots, p_dark, p_signal),
        dcqke.PrngSpec("weak"),
        n_used=n_used,
    )


def _windows(n_slots: int, rng: np.random.Generator):
    yield np.zeros(n_slots, dtype=np.uint8)
    yield np.ones(n_slots, dtype=np.uint8)
    for p in (0.01, 0.3, 0.6):
        yield (rng.random(n_slots) < p).astype(np.uint8)


HEAD = dcqke.SCREEN_SLOTS


def _planted(table, n_slots: int, seed: int, rng, head: int | None = None, dark: float = 0.3):
    """Active window of `seed`: its slots fire at 0.95, the rest at `dark`.
    With `head` given, the seed's first HEAD slots are all set to it."""
    p = np.full(n_slots, dark)
    p[table[seed]] = 0.95
    det = (rng.random(n_slots) < p).astype(np.uint8)
    if head is not None:
        det[table[seed, :HEAD]] = head
    return det


def _planted_windows(table, n_slots: int, rng: np.random.Generator):
    for seed in rng.integers(0, N_SEEDS, size=2):
        for head in (None, 1, 0):
            yield _planted(table, n_slots, seed, rng, head)


class _CountedProduct:
    """Stands in for a warden's prefix incidence matrix and counts products."""

    def __init__(self, matrix):
        self.matrix, self.dtype, self.calls = matrix, matrix.dtype, 0

    def __matmul__(self, other):
        self.calls += 1
        return self.matrix @ other


def _counted_warden(config, threshold=None):
    warden = dcqke.SeedSearchWarden(config, threshold=threshold)
    warden._prefix = _CountedProduct(warden._prefix)
    return warden


@pytest.mark.parametrize("n_slots, n_used", [(2048, 24), (1000, 37), (255, 255), (256, 256)])
def test_sparse_counts_equal_dense_gather(n_slots, n_used):
    table = weak_schedule_table(n_slots, n_used)
    rng = np.random.default_rng(n_slots)
    windows = [*_windows(n_slots, rng), *_planted_windows(table, n_slots, rng)]
    for k in (HEAD, n_used // 2, n_used):
        prefix = dcqke.seed_prefix_incidence(n_slots, n_used, k)
        assert prefix.shape == (N_SEEDS, n_slots)
        assert prefix.dtype == (np.uint8 if k < 256 else np.uint16)
        assert prefix.indices.dtype == np.int32 and prefix.indices.flags.c_contiguous
        assert not prefix.indices.flags.writeable and not prefix.data.flags.writeable
        for det in windows:
            dense = det[table[:, :k]].sum(axis=1)
            assert np.array_equal(prefix @ det.astype(prefix.dtype), dense)
    ones = prefix @ np.ones(n_slots, dtype=prefix.dtype)
    assert np.all(ones == n_used)  # 256 would wrap to 0 in a uint8 accumulator
    with pytest.raises(ValueError):
        dcqke.seed_prefix_incidence(n_slots, n_used, n_used + 1)


@pytest.mark.parametrize(
    "n_slots, n_used", [(2048, 24), (1000, 37), (255, 255), (256, 256), (100, 5), (64, 0)]
)
def test_decide_equals_dense_rule(n_slots, n_used):
    """Every decision equals the dense rule, and the prefix product runs
    exactly when the screen cannot answer: when no seed with at least
    HEAD - 1 detections on its first HEAD slots reaches the threshold."""
    table = weak_schedule_table(n_slots, n_used)
    config = _config(n_slots, n_used)
    default = n_used * (0.3 + 0.95) / 2
    rng = np.random.default_rng(7 * n_slots)
    stream = RandomStream(1)
    products = set()
    for det in [*_windows(n_slots, rng), *_planted_windows(table, n_slots, rng)]:
        counts = det[table].sum(axis=1)
        best = int(counts.max())
        screened = counts[:0]  # with fewer than HEAD slots per seed there is no screen
        if n_used >= HEAD:
            screened = counts[det[table[:, :HEAD]].sum(axis=1) >= HEAD - 1]
        for threshold in (None, best, best + 1, best - 0.5):
            level = default if threshold is None else threshold
            warden = _counted_warden(config, threshold)
            assert (warden._head is None) == (n_used < HEAD)
            assert warden.decide(WardenObservation(det), stream) == (0 if best >= level else 1)
            assert warden._prefix.calls == (0 if (screened >= level).any() else 1)
            products.add(warden._prefix.calls)
    assert products == ({0, 1} if n_used >= HEAD else {1})  # both paths ran


@pytest.mark.parametrize("n_slots, n_used", [(1000, 37), (256, 256), (100, 5)])
@pytest.mark.parametrize("prefix", ["derived", "n_used", "small"])
def test_decide_equals_dense_rule_at_any_prefix_length(monkeypatch, n_slots, n_used, prefix):
    """The prefix length K only decides how many seeds get finished from
    their table rows: at the derived K, at K = n_used (no rows left to
    finish) and at a small K (most seeds survive), every decision is the
    dense rule's."""
    derived = dcqke._prefix_slots
    if prefix != "derived":
        k = n_used if prefix == "n_used" else 2
        monkeypatch.setattr(dcqke, "_prefix_slots", lambda n_used, threshold, p_dark: k)
    table = weak_schedule_table(n_slots, n_used)
    config = _config(n_slots, n_used)
    rng = np.random.default_rng(11 * n_slots)
    for det in [*_windows(n_slots, rng), *_planted_windows(table, n_slots, rng)]:
        best = int(det[table].sum(axis=1).max())
        for threshold in (None, best, best + 1, best - 0.5):
            warden = dcqke.SeedSearchWarden(config, threshold)
            if prefix == "derived":
                assert warden._k == derived(n_used, warden._threshold, 0.3)
            assert warden._bar == warden._threshold - (n_used - warden._k)
            assert warden.decide(WardenObservation(det), None) == (
                0 if best >= warden._threshold else 1
            )
    if prefix == "derived" and n_used >= HEAD:  # the default threshold leaves rows to finish
        assert dcqke.SeedSearchWarden(config)._k < n_used


def test_seed_exactly_at_the_prefix_bar_is_found():
    """A seed that meets the threshold with exactly `bar` detections on its
    first K slots survives the prefix and is found; one fewer and it is not."""
    n_slots, n_used, threshold = 2048, 24, 12
    config = _config(n_slots, n_used, p_dark=0.01)
    table = weak_schedule_table(n_slots, n_used)
    warden = _counted_warden(config, threshold)
    k, bar = warden._k, warden._bar
    assert HEAD < k < n_used and bar == int(bar) and HEAD + bar <= k
    seed = 4321
    det = np.zeros(n_slots, dtype=np.uint8)
    det[table[seed, k:]] = 1  # every slot after the prefix
    det[table[seed, HEAD : HEAD + int(bar)]] = 1  # none on the screened head
    assert det[table[seed, :k]].sum() == bar and det[table[seed]].sum() == threshold
    assert warden.decide(WardenObservation(det.copy()), None) == 0 and warden._prefix.calls == 1
    det[table[seed, HEAD]] = 0
    assert det[table].sum(axis=1).max() == threshold - 1
    warden = _counted_warden(config, threshold)
    assert warden.decide(WardenObservation(det), None) == 1 and warden._prefix.calls == 1


def test_screen_finds_the_true_seed_and_only_it():
    n_slots, n_used = 1000, 37
    table = weak_schedule_table(n_slots, n_used)
    config = _config(n_slots, n_used)
    head = dcqke.seed_prefix_incidence(n_slots, n_used, HEAD)
    rng = np.random.default_rng(n_used)
    seed = 4321
    # the true seed is a candidate and answers before the prefix product
    det = _planted(table, n_slots, seed, rng, head=1, dark=0.1)
    assert (head @ det)[seed] == HEAD
    warden = _counted_warden(config)
    assert warden.decide(WardenObservation(det), None) == 0 and warden._prefix.calls == 0
    # its head slots are dark: the screen misses it, the prefix product finds it
    det = _planted(table, n_slots, seed, rng, head=0, dark=0.1)
    det[table[seed, HEAD:]] = 1
    assert (head @ det)[seed] == 0 and n_used - HEAD >= warden._threshold
    warden = _counted_warden(config)
    assert warden.decide(WardenObservation(det), None) == 0 and warden._prefix.calls == 1
    # an idle window has false candidates, none of which reaches the threshold
    det = (rng.random(n_slots) < 0.25).astype(np.uint8)
    candidates = np.flatnonzero(head @ det >= HEAD - 1)
    assert candidates.size >= 5 and det[table[candidates]].sum(axis=1).max() < warden._threshold
    warden = _counted_warden(config)
    assert warden.decide(WardenObservation(det), None) == 1 and warden._prefix.calls == 1


def test_wardens_share_one_incidence_matrix():
    a = dcqke.SeedSearchWarden(_config(2048, 24))
    b = dcqke.SeedSearchWarden(_config(2048, 24, p_dark=0.01, p_signal=0.5))
    assert a._prefix is dcqke.seed_prefix_incidence(2048, 24, a._k)
    assert b._prefix is dcqke.seed_prefix_incidence(2048, 24, b._k)
    assert a._head is b._head
    assert np.array_equal(a._table, weak_schedule_table(2048, 24))
    assert np.shares_memory(a._table, b._table)


def test_wardens_on_one_channel_share_one_prefix_matrix():
    config = _config(1000, 37)
    a, b = dcqke.SeedSearchWarden(config), dcqke.SeedSearchWarden(config)
    assert a._k == b._k < 37
    assert a._prefix is b._prefix and a._head is b._head
