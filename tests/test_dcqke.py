"""Covert scheduling, DC-QKE views, and the deniability-covertness reduction."""

import numpy as np
import pytest
from scipy import stats

from qdeny import dcqke
from qdeny.bb84 import Bb84Config, run_session
from qdeny.channel import QubitChannel, TimeBinChannel, warden_bias_exact
from qdeny.dcqke import (
    CountTestWarden,
    CovertQkeConfig,
    PrngSpec,
    ReductionDistinguisher,
    SeedSearchWarden,
    build_views,
    covert_game,
    deniability_experiment,
    faking_program,
    run_covert_qke,
    run_dc_qke,
)
from qdeny.denial import DenialClaim, EvePolicy, judge_check
from qdeny.games import CoinFlipDistinguisher
from qdeny.rng import RandomStream


def strong_config(n_slots=4096, p_dark=0.05, p_signal=0.08, n_used=None):
    return CovertQkeConfig(
        bb84=Bb84Config(n=7, delta=0.5),
        timebin=TimeBinChannel(n_slots, p_dark, p_signal),
        prng=PrngSpec("strong"),
        n_used=n_used,
    )


class TestCovertRuns:
    def test_key_agreement_matches_plain_bb84(self):
        # covertness is transparent to the key logic: same sub-seed, same key
        config = strong_config()
        rng = RandomStream(1)
        covert = run_covert_qke(config, rng)
        plain = run_session(
            config.bb84, QubitChannel(0.0), RandomStream(1).substream("bb84")
        )
        assert np.array_equal(covert.key, plain.alice.session_key)

    def test_schedule_occupancy_exact(self):
        config = strong_config()
        covert = run_covert_qke(config, RandomStream(2))
        assert covert.schedule.size == config.slots_required == 182

    def test_window_detection_rates(self):
        config = strong_config(p_dark=0.01, p_signal=0.5)
        covert = run_covert_qke(config, RandomStream(3))
        det = covert.warden_view.detections
        on = det[covert.schedule].mean()
        off_mask = np.ones(config.timebin.n_slots, bool)
        off_mask[covert.schedule] = False
        off = det[off_mask].mean()
        assert abs(on - 0.5) < 3 * np.sqrt(0.25 / 182)
        assert abs(off - 0.01) < 3 * np.sqrt(0.01 / off_mask.sum())

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            strong_config(n_used=100).require_session_capacity()
        with pytest.raises(ValueError):
            strong_config(n_slots=100)  # cannot even hold the session

    def test_full_session_window_matches_schedule_level_path(self):
        # the covert game's fast path and the full run draw identical windows
        # from a shared trial stream
        config = strong_config()
        trial = RandomStream(77).substream("trial", 5)
        full = run_dc_qke(config, trial)
        obs, _ = dcqke._sample_window(config, RandomStream(77).substream("trial", 5), True)
        assert np.array_equal(full.covert_window.detections, obs.detections)


class TestCovertGame:
    def test_equal_rates_no_advantage(self):
        config = strong_config(p_dark=0.1, p_signal=0.1, n_used=64)
        est = covert_game(config, 600, master_seed=4)
        assert est.ci_low == 0.0

    def test_zero_occupancy_no_advantage(self):
        config = strong_config(n_used=0)
        est = covert_game(config, 600, master_seed=5)
        assert warden_bias_exact(config.timebin, config.effective_n_used) == 0.0
        assert est.ci_low == 0.0

    def test_strong_prng_matches_exact_bias(self):
        config = strong_config(n_slots=4096, p_dark=0.05, p_signal=0.08, n_used=128)
        exact = warden_bias_exact(config.timebin, config.effective_n_used)
        est = covert_game(config, 20_000, master_seed=6)
        sigma = np.sqrt(0.25 / est.trials)
        assert abs(est.advantage - exact) < 3 * sigma

    def test_strong_prng_loud_channel_saturates(self):
        # strongly detectable occupancy: the bias is essentially maximal and
        # the game tracks it just the same
        config = strong_config(n_slots=4096, p_dark=0.01, p_signal=0.5, n_used=64)
        exact = warden_bias_exact(config.timebin, config.effective_n_used)
        est = covert_game(config, 2000, master_seed=60)
        assert exact > 0.45
        assert abs(est.advantage - exact) < 3 * np.sqrt(0.25 / est.trials)

    def test_weak_prng_seed_search_breaks_covertness(self):
        config = CovertQkeConfig(
            bb84=Bb84Config(n=7, delta=0.5),
            timebin=TimeBinChannel(2048, 0.01, 0.5),
            prng=PrngSpec("weak"),
            n_used=24,
        )
        warden = SeedSearchWarden(config)
        est = covert_game(config, 150, master_seed=7, warden=warden)
        assert est.advantage > 0.45

    def test_seed_search_requires_weak_generator(self):
        with pytest.raises(ValueError):
            SeedSearchWarden(strong_config())


class TestDcQkeSessions:
    def test_key_lengths_equal(self):
        result = run_dc_qke(strong_config(), RandomStream(8))
        assert result.real_key.size == result.fake_key.size == 3

    def test_keys_independent_uniform(self):
        config = strong_config()
        root = RandomStream(9)
        table = np.zeros((8, 8), dtype=int)
        for i in range(800):
            result = run_dc_qke(config, root.substream("t", i))
            ka = int("".join(map(str, result.real_key)), 2)
            kb = int("".join(map(str, result.fake_key)), 2)
            table[ka, kb] += 1
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 1e-3
        _, p_a = stats.chisquare(table.sum(axis=1))
        _, p_b = stats.chisquare(table.sum(axis=0))
        assert p_a > 1e-3 and p_b > 1e-3

    def test_fake_session_replays_as_honest_bb84(self):
        # the disclosed coins reproduce every announced message bit-exactly
        config = strong_config()
        root = RandomStream(10)
        for i in range(50):
            result = run_dc_qke(config, root.substream("t", i))
            coins = result.fake_randomness
            by_label = {m.label: m.bits for m in result.noncovert_transcript}
            assert np.array_equal(by_label["bases"], coins["bases"])
            q = by_label["bases"].size
            payload_pos = np.where(by_label["payload-mask"])[0]
            check_pos = np.where(by_label["check-mask"])[0]
            assert np.array_equal(
                by_label["correction"],
                coins["codeword"] ^ coins["raw_bits"][payload_pos],
            )
            assert np.array_equal(
                by_label["check-values-alice"], coins["raw_bits"][check_pos]
            )

    def test_honest_disclosure_survives_decoy_records(self):
        # judge replay over sessions where the ordinary exchange was itself
        # under decoy attack: honest coins are never flagged
        config = strong_config()
        root = RandomStream(11)
        policy = EvePolicy(0.25)
        for i in range(300):
            result = run_dc_qke(config, root.substream("t", i), fake_interceptor=policy)
            claim = DenialClaim(
                result.fake_randomness["raw_bits"], result.fake_randomness["bases"]
            )
            assert not judge_check(claim, result.fake_eve_record).detected

    def test_faking_program_structure(self):
        result = run_dc_qke(strong_config(), RandomStream(12))
        key, coins = faking_program(result)
        assert np.array_equal(key, result.fake_key)
        assert set(coins) == set(result.fake_randomness)
        for name, value in coins.items():
            assert np.array_equal(value, result.fake_randomness[name])


class TestViews:
    def test_views_share_clear_transcript(self):
        result = run_dc_qke(strong_config(), RandomStream(13))
        real, fake = build_views(result)
        assert real.classical_transcript is fake.classical_transcript
        assert real.covert_window is result.covert_window
        assert fake.covert_window is result.idle_window
        assert set(real.randomness) == set(fake.randomness)  # same coin schema

    def test_equal_rates_views_identically_distributed(self):
        config = strong_config(p_dark=0.2, p_signal=0.2)
        root = RandomStream(14)
        real_counts, fake_counts = [], []
        for i in range(300):
            result = run_dc_qke(config, root.substream("t", i))
            real, fake = build_views(result)
            real_counts.append(real.covert_window.count)
            fake_counts.append(fake.covert_window.count)
        _, p = stats.mannwhitneyu(real_counts, fake_counts)
        assert p > 1e-3

    def test_fake_view_replay_consistent(self):
        result = run_dc_qke(strong_config(), RandomStream(15))
        _, fake = build_views(result)
        by_label = {m.label: m.bits for m in fake.classical_transcript}
        payload_pos = np.where(by_label["payload-mask"])[0]
        assert np.array_equal(
            by_label["correction"],
            fake.randomness["codeword"] ^ fake.randomness["raw_bits"][payload_pos],
        )


class TestDeniabilityExperiment:
    def test_coin_flip_adversary(self):
        est = deniability_experiment(strong_config(), CoinFlipDistinguisher(), 200, 16)
        assert est.ci_low == 0.0

    def test_paired_reduction_inequality_strong(self):
        config = strong_config()
        warden = CountTestWarden(config)
        den = deniability_experiment(config, warden, 400, master_seed=17)
        cov = covert_game(config, 400, master_seed=17, warden=warden)
        sigma = np.sqrt(den.std_error**2 + cov.std_error**2)
        assert den.advantage <= cov.advantage + 2 * sigma
        assert den.advantage == cov.advantage  # shared substreams pair exactly

    def test_interval_contains_exact_bias(self):
        config = strong_config()
        warden = CountTestWarden(config)
        est = deniability_experiment(config, warden, 2000, master_seed=18)
        exact = warden_bias_exact(config.timebin, config.effective_n_used)
        assert est.ci_low <= exact <= est.ci_high


class DcQkeCoercionAdapter:
    """Present DC-QKE to the generic coercer game in record-checkable form.

    The denial story discloses the ordinary session's coins, checkable
    against that session's decoy record; the honest story discloses the
    covert session's coins, of which the eavesdropper holds no channel
    record at all (she never found the slots).
    """

    def __init__(self, config, eve_policy):
        self.config = config
        self.policy = eve_policy

    def run_session(self, rng):
        return run_dc_qke(self.config, rng, fake_interceptor=self.policy)

    def real_view(self, result):
        from qdeny.denial import CoercionView, EveRecord

        empty = EveRecord(
            np.empty(0, np.int64), np.empty(0, np.uint8), np.empty(0, np.uint8)
        )
        return CoercionView(
            key=result.real_key,
            randomness=dict(result.real_randomness),
            eve_record=empty,
            transcript=result.noncovert_transcript,
        )

    def fake(self, result, rng):
        from qdeny.denial import CoercionView

        return CoercionView(
            key=result.fake_key,
            randomness=dict(result.fake_randomness),
            eve_record=result.fake_eve_record,
            transcript=result.noncovert_transcript,
        )


class TestJudgeAdversaryAgainstDcQke:
    def test_record_checking_gains_nothing(self):
        # the strategy that breaks naive BB84 denial: here both stories
        # survive every record check, so the adversary is reduced to guessing
        from qdeny.denial import JudgeDistinguisher, coercer_experiment

        config = strong_config()
        adapter = DcQkeCoercionAdapter(config, EvePolicy(0.25))
        est = coercer_experiment(adapter, JudgeDistinguisher(), 300, master_seed=31)
        assert est.ci_low == 0.0


class TestReductionWrapper:
    def test_wrapped_coin_flip_near_zero(self):
        config = strong_config()
        wrapper = ReductionDistinguisher(CoinFlipDistinguisher(), config)
        est = covert_game(config, 300, master_seed=101, warden=wrapper)
        assert est.ci_low == 0.0

    def test_wrapped_count_test_preserves_advantage(self):
        config = strong_config()
        warden = CountTestWarden(config)
        den = deniability_experiment(config, warden, 300, master_seed=20)
        wrapper = ReductionDistinguisher(warden, config)
        cov = covert_game(config, 300, master_seed=20, warden=wrapper)
        sigma = np.sqrt(den.std_error**2 + cov.std_error**2)
        assert cov.advantage >= den.advantage - 2 * sigma

    def test_one_invocation_per_trial(self):
        config = strong_config()
        wrapper = ReductionDistinguisher(CoinFlipDistinguisher(), config)
        covert_game(config, 150, master_seed=21, warden=wrapper)
        assert wrapper.invocations == 150
