"""Covert scheduling, DC-QKE views, and the deniability-covertness reduction."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import stats

from qdeny import bb84, dcqke, gf2
from qdeny.bb84 import Bb84Config, run_session
from qdeny.channel import QubitChannel, TimeBinChannel, warden_bias_exact
from qdeny.dcqke import (
    CountTestWarden,
    CovertQkeConfig,
    PrngSpec,
    ReductionDistinguisher,
    SeedSearchWarden,
    covert_game,
    deniability_experiment,
    run_covert_qke,
    run_dc_qke,
)
from qdeny.denial import EvePolicy, JudgeDistinguisher, judge_check
from qdeny.games import CoinFlipDistinguisher, run_experiment
from qdeny.rng import RandomStream


def strong_config(n_slots=4096, p_dark=0.05, p_signal=0.08, n_used=None):
    return CovertQkeConfig(
        bb84=Bb84Config(n=7, delta=0.5),
        timebin=TimeBinChannel(n_slots, p_dark, p_signal),
        prng=PrngSpec("strong"),
        n_used=n_used,
    )


def assert_same_transcript(got, want):
    assert len(got) == len(want)
    for m, w in zip(got, want):
        assert (m.sender, m.label) == (w.sender, w.label)
        assert np.array_equal(m.bits, w.bits)


def replay_mismatch(view, codes):
    """The first announcement that the view's disclosed coins fail to
    reproduce, or None when they replay as an honest BB84 session: the
    announced bases, Alice's check values, the correction, and a codeword
    in C1."""
    coins = view.randomness
    by_label = {m.label: m.bits for m in view.transcript}
    check_pos = np.flatnonzero(by_label["check-mask"])
    payload_pos = np.flatnonzero(by_label["payload-mask"])
    if not np.array_equal(by_label["bases"], coins["bases"]):
        return "bases"
    if not np.array_equal(by_label["check-values-alice"], coins["raw_bits"][check_pos]):
        return "check-values-alice"
    if not np.array_equal(
        by_label["correction"], coins["codeword"] ^ coins["raw_bits"][payload_pos]
    ):
        return "correction"
    if gf2.syndrome(codes.c1, coins["codeword"].reshape(-1, codes.c1.n)).any():
        return "codeword"
    return None


def assert_same_disclosure(real, fake):
    # everything but the covert window: key, coins, transcript and record
    assert np.array_equal(real.key, fake.key)
    assert set(real.randomness) == set(fake.randomness)
    for name, value in real.randomness.items():
        assert np.array_equal(value, fake.randomness[name])
    assert_same_transcript(real.transcript, fake.transcript)
    if real.eve_record is None:
        assert fake.eve_record is None
    else:
        for name in ("positions", "bases", "outcomes"):
            assert np.array_equal(getattr(real.eve_record, name), getattr(fake.eve_record, name))


class ReplayCoercer:
    """Guesses "real" exactly when the disclosed coins fail to replay the
    announced transcript."""

    name = "replay"

    def __init__(self, codes):
        self.codes = codes

    def decide(self, view, rng):
        return 0 if replay_mismatch(view, self.codes) else 1


class RecordLengthCoercer:
    """Guesses "real" exactly when the view holds no interceptor record."""

    name = "record-length"

    def decide(self, view, rng):
        return 0 if view.eve_record is None else 1


class GuessLog:
    """Wraps a distinguisher and logs its guesses in trial order."""

    def __init__(self, inner):
        self.inner = inner
        self.guesses = []

    def decide(self, observation, rng):
        guess = self.inner.decide(observation, rng)
        self.guesses.append(guess)
        return guess


class TestPrngSpec:
    @pytest.mark.parametrize("seed", [3.9, 3.0, "5", [5], True])
    def test_seed_must_be_an_integer(self, seed):
        # 3.9 was accepted and "5" failed with a bare TypeError from <=
        with pytest.raises(ValueError, match="prng seed must be an integer"):
            PrngSpec("weak", seed=seed)

    def test_numpy_integer_seed_accepted_and_range_checked(self):
        assert PrngSpec("weak", seed=np.uint16(5)).draw_seed(RandomStream(0)) == 5
        with pytest.raises(ValueError, match="out of range"):
            PrngSpec("weak", seed=np.int64(1 << 16))


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
        for b in (0, 1):  # either view of the deniable construction needs the room
            with pytest.raises(ValueError, match="schedule holds 100 slots"):
                run_dc_qke(strong_config(n_used=100), RandomStream(0), b)
        with pytest.raises(ValueError, match="schedule demand must be an integer"):
            strong_config(n_used=182.0)
        with pytest.raises(ValueError):
            strong_config(n_slots=100)  # cannot even hold the session

    def test_full_session_window_matches_schedule_level_path(self):
        # the covert game's fast path and the full run draw identical windows
        # from a shared trial stream
        config = strong_config()
        trial = RandomStream(77).substream("trial", 5)
        real = run_dc_qke(config, trial, 0)
        obs, _ = dcqke._sample_window(config, RandomStream(77).substream("trial", 5), True)
        assert np.array_equal(real.covert_window.detections, obs.detections)


class TestCovertGame:
    def test_equal_rates_no_advantage(self):
        config = strong_config(p_dark=0.1, p_signal=0.1, n_used=64)
        est = covert_game(config, 600, master_seed=4, warden=CountTestWarden(config))
        assert est.ci_low == 0.0

    def test_each_trial_samples_only_the_window_it_shows(self, monkeypatch):
        config = strong_config()
        windows = []
        observe = dcqke.warden_observe

        def counted(timebin, schedule, rng):
            windows.append(schedule is not None)
            return observe(timebin, schedule, rng)

        monkeypatch.setattr(dcqke, "warden_observe", counted)
        covert_game(config, 150, master_seed=8, warden=CountTestWarden(config))
        master = RandomStream(8)
        assert windows == [master.substream("challenge", i).bit() == 0 for i in range(150)]

    def test_zero_occupancy_no_advantage(self):
        config = strong_config(n_used=0)
        est = covert_game(config, 600, master_seed=5, warden=CountTestWarden(config))
        assert warden_bias_exact(config.timebin, config.effective_n_used) == 0.0
        assert est.ci_low == 0.0

    def test_strong_prng_matches_exact_bias(self):
        config = strong_config(n_slots=4096, p_dark=0.05, p_signal=0.08, n_used=128)
        exact = warden_bias_exact(config.timebin, config.effective_n_used)
        est = covert_game(config, 20_000, master_seed=6, warden=CountTestWarden(config))
        sigma = np.sqrt(0.25 / est.trials)
        assert abs(est.advantage - exact) < 3 * sigma

    def test_strong_prng_loud_channel_saturates(self):
        # strongly detectable occupancy: the bias is essentially maximal and
        # the game tracks it just the same
        config = strong_config(n_slots=4096, p_dark=0.01, p_signal=0.5, n_used=64)
        exact = warden_bias_exact(config.timebin, config.effective_n_used)
        est = covert_game(config, 2000, master_seed=60, warden=CountTestWarden(config))
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
        config = strong_config()
        real, fake = (run_dc_qke(config, RandomStream(8), b) for b in (0, 1))
        assert real.key.size == fake.key.size == 3

    def test_keys_independent_uniform(self):
        # the covert key the parties keep against the ordinary key either
        # view discloses, on the same trial stream
        config = strong_config()
        root = RandomStream(9)
        table = np.zeros((8, 8), dtype=int)
        for i in range(800):
            kept = run_covert_qke(config, root.substream("t", i)).key
            disclosed = run_dc_qke(config, root.substream("t", i), i % 2).key
            ka = int("".join(map(str, kept)), 2)
            kb = int("".join(map(str, disclosed)), 2)
            table[ka, kb] += 1
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 1e-3
        _, p_a = stats.chisquare(table.sum(axis=1))
        _, p_b = stats.chisquare(table.sum(axis=0))
        assert p_a > 1e-3 and p_b > 1e-3

    def test_fake_session_replays_as_honest_bb84(self):
        # the disclosed coins reproduce every announced message bit-exactly,
        # in either view
        config = strong_config()
        root = RandomStream(10)
        for i in range(50):
            for b in (0, 1):
                view = run_dc_qke(config, root.substream("t", i), b)
                assert replay_mismatch(view, config.bb84.codes) is None

    def test_replay_check_catches_each_kind_of_lie(self):
        config = strong_config()
        view = run_dc_qke(config, RandomStream(10), 1)
        masks = {m.label: np.flatnonzero(m.bits) for m in view.transcript if "mask" in m.label}
        check, payload = masks["check-mask"][0], masks["payload-mask"][0]
        lies = {  # flipped coin positions, and the announcement each breaks
            "bases": {"bases": 0},
            "check-values-alice": {"raw_bits": check},
            "correction": {"codeword": 0},
            # the correction still matches, but the codeword leaves C1
            "codeword": {"codeword": 0, "raw_bits": payload},
        }
        for expected, flips in lies.items():
            coins = dict(view.randomness)
            for name, pos in flips.items():
                coins[name] = coins[name].copy()
                coins[name][pos] ^= 1
            assert replay_mismatch(replace(view, randomness=coins), config.bb84.codes) == expected

    def test_honest_disclosure_survives_decoy_records(self):
        # judge replay over sessions where the ordinary exchange was itself
        # under decoy attack: honest coins are never flagged
        config = strong_config()
        root = RandomStream(11)
        policy = EvePolicy(0.25)
        for i in range(300):
            view = run_dc_qke(config, root.substream("t", i), i % 2, interceptor=policy)
            coins = view.randomness
            assert judge_check(coins["raw_bits"], coins["bases"], view.eve_record) is None

    def test_each_view_is_the_ordinary_session(self):
        # both views disclose the ordinary session as it ran, on its own
        # substream, with the interceptor's record of it
        config = strong_config()
        policy = EvePolicy(0.25)
        rerun = run_session(
            config.bb84,
            QubitChannel(0.0, interceptor=policy),
            RandomStream(12).substream("fake-session"),
            retry_abort=True,
        )
        for b in (0, 1):
            view = run_dc_qke(config, RandomStream(12), b, interceptor=policy)
            assert view.eve_record is not None
            assert_same_disclosure(view, dcqke.CoercionView.of_session(rerun, None))


class TestViews:
    def test_views_differ_only_in_the_window(self):
        config = strong_config()
        real, fake = (run_dc_qke(config, RandomStream(13), b) for b in (0, 1))
        assert_same_disclosure(real, fake)
        assert real.eve_record is None and fake.eve_record is None  # no interceptor
        active, _ = dcqke._sample_window(config, RandomStream(13), active=True)
        idle, _ = dcqke._sample_window(config, RandomStream(13), active=False)
        assert np.array_equal(real.covert_window.detections, active.detections)
        assert np.array_equal(fake.covert_window.detections, idle.detections)

    def test_equal_rates_views_identically_distributed(self):
        config = strong_config(p_dark=0.2, p_signal=0.2)
        root = RandomStream(14)
        real_counts, fake_counts = [], []
        for i in range(300):
            real, fake = (run_dc_qke(config, root.substream("t", i), b) for b in (0, 1))
            real_counts.append(real.covert_window.count)
            fake_counts.append(fake.covert_window.count)
        _, p = stats.mannwhitneyu(real_counts, fake_counts)
        assert p > 1e-3

    def test_fake_view_replay_consistent(self):
        config = strong_config()
        assert replay_mismatch(run_dc_qke(config, RandomStream(15), 1), config.bb84.codes) is None


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

    def test_wardens_guess_alike_trial_by_trial(self):
        # both games show the warden the same window on every trial index
        # (the seed-search warden's guesses are pinned equal, trial by
        # trial, by the seed_search_covert_40 and seed_search_deniability_40
        # golden digests)
        config = strong_config()
        warden = CountTestWarden(config)
        cov, den = GuessLog(warden), GuessLog(warden)
        covert_game(config, 400, master_seed=17, warden=cov)
        deniability_experiment(config, den, 400, master_seed=17)
        assert len(cov.guesses) == 400
        assert den.guesses == cov.guesses

    @pytest.mark.parametrize("coercer, interceptor", [
        (ReplayCoercer(strong_config().bb84.codes), None),
        (RecordLengthCoercer(), EvePolicy(0.25)),
    ], ids=["coins-vs-transcript", "record-length"])
    def test_coercer_meets_its_reduction(self, coercer, interceptor):
        # both views disclose one honest session, coins and record alike, so
        # neither coercer does better than it does on the window alone. The
        # reduction synthesizes its session without an interceptor, so it is
        # the exact reduction only of the game without one: with a decoy
        # record in the game the pairing alone shows little, and the
        # advantage is also checked against zero directly
        config = strong_config()
        views = partial(run_dc_qke, config, interceptor=interceptor)
        den = run_experiment(views, coercer, 400, master_seed=17)
        wrapper = ReductionDistinguisher(coercer, config)
        cov = covert_game(config, 400, master_seed=17, warden=wrapper)
        sigma = np.sqrt(den.std_error**2 + cov.std_error**2)
        assert den.advantage <= cov.advantage + 2 * sigma
        if interceptor is not None:
            assert abs(den.advantage) <= 2 * den.std_error

    def test_each_trial_builds_only_the_view_it_shows(self, monkeypatch):
        # one ordinary session and the one window shown per trial, and never
        # the covert session; the reduction runs one session around the
        # window it is given
        config = strong_config()
        observation, _ = dcqke._sample_window(config, RandomStream(25), active=True)
        built = []
        session, window = bb84.run_session, dcqke._sample_window

        def counted_session(*args, **kwargs):
            built.append("session")
            return session(*args, **kwargs)

        def counted_window(config, trial_rng, active):
            built.append("active" if active else "idle")
            return window(config, trial_rng, active)

        def no_covert(config, rng):
            raise AssertionError("a game ran the covert session")

        monkeypatch.setattr(bb84, "run_session", counted_session)
        monkeypatch.setattr(dcqke, "_sample_window", counted_window)
        monkeypatch.setattr(dcqke, "run_covert_qke", no_covert)
        deniability_experiment(config, CountTestWarden(config), 120, master_seed=24)
        master = RandomStream(24)
        bits = [master.substream("challenge", i).bit() for i in range(120)]
        assert built == [e for b in bits for e in ("idle" if b else "active", "session")]
        built.clear()
        ReductionDistinguisher(CoinFlipDistinguisher(), config).decide(observation, RandomStream(26))
        assert built == ["session"]

    def test_interval_contains_exact_bias(self):
        config = strong_config()
        warden = CountTestWarden(config)
        est = deniability_experiment(config, warden, 2000, master_seed=18)
        exact = warden_bias_exact(config.timebin, config.effective_n_used)
        assert est.ci_low <= exact <= est.ci_high


class TestJudgeAdversaryAgainstDcQke:
    def test_record_checking_gains_nothing(self):
        # the strategy that breaks naive BB84 denial: here both stories
        # survive every record check, so the adversary is reduced to guessing
        config = strong_config()
        views = partial(run_dc_qke, config, interceptor=EvePolicy(0.25))
        est = run_experiment(views, JudgeDistinguisher(), 300, master_seed=31)
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

    def test_observation_without_a_window_rejected_first(self):
        config = strong_config()
        wrapper = ReductionDistinguisher(CoinFlipDistinguisher(), config)
        real = run_dc_qke(config, RandomStream(22), 0)
        no_window = replace(real, covert_window=None)
        for observation in (None, real.key, no_window):
            with pytest.raises(TypeError, match="no covert window"):
                wrapper.decide(observation, RandomStream(23))
        assert wrapper.invocations == 0
        wrapper.decide(real, RandomStream(23))
        assert wrapper.invocations == 1
