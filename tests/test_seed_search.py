"""Oracles for the seed-search warden's two fast paths.

The weak schedule table is expanded in seed batches; every row must equal
the scalar `CounterModePrng(seed, 16).sample_distinct`. The warden counts
detections per seed with one sparse product; every decision must equal
the dense gather-and-sum over the table.
"""

import numpy as np
import pytest

from qdeny import dcqke
from qdeny.bb84 import Bb84Config
from qdeny.channel import TimeBinChannel, WardenObservation, weak_schedule_table
from qdeny.rng import WEAK_SEED_BITS, CounterModePrng, RandomStream, _distinct_rows

N_SEEDS = 1 << WEAK_SEED_BITS


@pytest.fixture(scope="module", autouse=True)
def _release_tables():
    """The tables here are large; do not keep them cached past this module."""
    yield
    dcqke.seed_slot_incidence.cache_clear()
    weak_schedule_table.cache_clear()


def _scalar_row(seed: int, n_slots: int, n_used: int) -> np.ndarray:
    return CounterModePrng(seed, WEAK_SEED_BITS).sample_distinct(n_slots, n_used)


@pytest.mark.parametrize("n_slots, n_used", [(1000, 37), (40, 40)])
def test_table_equals_scalar_sample_distinct_on_every_seed(n_slots, n_used):
    table = weak_schedule_table(n_slots, n_used)
    assert table.shape == (N_SEEDS, n_used) and table.dtype == np.int32
    assert not table.flags.writeable
    for seed in range(N_SEEDS):
        assert np.array_equal(table[seed], _scalar_row(seed, n_slots, n_used)), seed


def test_rows_the_first_draw_cannot_fill_fall_back(monkeypatch):
    # 308 draws from 300 values hold about 194 distinct ones, short of 250
    seeds = range(1000, 1032)
    expected = np.array([_scalar_row(seed, 300, 250) for seed in seeds])
    scalar_calls = []
    scalar = CounterModePrng.sample_distinct

    def counted(self, n_slots, n_used):
        scalar_calls.append(self.key)
        return scalar(self, n_slots, n_used)

    monkeypatch.setattr(CounterModePrng, "sample_distinct", counted)
    got = _distinct_rows(seeds, 300, 250)
    assert scalar_calls == list(seeds)
    assert got.dtype == np.int32 and np.array_equal(got, expected)


def test_rejected_words_are_skipped_in_draw_order():
    # 2**32 % n_slots is about a quarter of 2**32, so about a quarter of the
    # words are rejected; at the table sizes above rejections almost never occur
    n_slots = 3 * 2**29 + 1
    seeds = range(64)
    got = _distinct_rows(seeds, n_slots, 20)
    assert np.array_equal(got, [_scalar_row(seed, n_slots, 20) for seed in seeds])


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


@pytest.mark.parametrize("n_slots, n_used", [(2048, 24), (1000, 37), (255, 255), (256, 256)])
def test_sparse_counts_equal_dense_gather(n_slots, n_used):
    table = weak_schedule_table(n_slots, n_used)
    incidence = dcqke.seed_slot_incidence(n_slots, n_used)
    assert incidence.shape == (N_SEEDS, n_slots)
    assert incidence.dtype == (np.uint8 if n_used < 256 else np.uint16)
    assert np.shares_memory(incidence.indices, table)
    rng = np.random.default_rng(n_slots)
    for det in _windows(n_slots, rng):
        dense = det[table].sum(axis=1)
        assert np.array_equal(incidence @ det.astype(incidence.dtype), dense)
    ones = incidence @ np.ones(n_slots, dtype=incidence.dtype)
    assert np.all(ones == n_used)  # 256 would wrap to 0 in a uint8 accumulator


@pytest.mark.parametrize("n_slots, n_used", [(2048, 24), (1000, 37), (255, 255), (256, 256), (64, 0)])
def test_decide_equals_dense_rule(n_slots, n_used):
    table = weak_schedule_table(n_slots, n_used)
    config = _config(n_slots, n_used)
    default = n_used * (0.3 + 0.95) / 2
    rng = np.random.default_rng(7 * n_slots)
    stream = RandomStream(1)
    for det in _windows(n_slots, rng):
        best = int(det[table].sum(axis=1).max())
        for threshold in (default, best, best + 1, best - 0.5):
            want = 0 if best >= threshold else 1
            warden = dcqke.SeedSearchWarden(config, threshold=threshold)
            assert warden.decide(WardenObservation(det), stream) == want
        guess = dcqke.SeedSearchWarden(config).decide(WardenObservation(det), stream)
        assert guess == (0 if best >= default else 1)


def test_wardens_share_one_incidence_matrix():
    a = dcqke.SeedSearchWarden(_config(2048, 24))
    b = dcqke.SeedSearchWarden(_config(2048, 24, p_dark=0.01, p_signal=0.5))
    assert a._incidence is b._incidence
