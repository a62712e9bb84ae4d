"""Channel behavior: qubit noise, transcripts, schedules, warden statistics."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import qdeny
from qdeny import bb84, channel, dcqke, distill, gf2, qcore, ue
from qdeny.bb84 import Bb84Config
from qdeny.channel import (
    ClassicalAuthChannel,
    QubitChannel,
    TimeBinChannel,
    WardenObservation,
    count_distributions,
    max_covert_slots,
    transmit,
    warden_bias_exact,
    warden_observe,
)
from qdeny.rng import CounterModePrng, RandomStream


def _functions(tree):
    """(name, node) of each module-level function and of each method, as
    `Class.method`."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def bernoulli_dp_pmf(probabilities):
    """Count pmf by per-slot dynamic programming; the independent oracle."""
    pmf = np.array([1.0])
    for p in probabilities:
        nxt = np.zeros(pmf.size + 1)
        nxt[:-1] += pmf * (1 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def bias_oracle(n_slots, p_dark, p_signal, n_used):
    idle = bernoulli_dp_pmf([p_dark] * n_slots)
    active = bernoulli_dp_pmf([p_dark] * (n_slots - n_used) + [p_signal] * n_used)
    return 0.25 * np.abs(idle - active).sum()


def scipy_count_distributions(tb, n_used):
    """`count_distributions` from `scipy.stats.binom.pmf`, the oracle of the
    numpy pmfs."""
    n = tb.n_slots
    idle = stats.binom.pmf(np.arange(n + 1), n, tb.p_dark)
    dark = stats.binom.pmf(np.arange(n - n_used + 1), n - n_used, tb.p_dark)
    signal = stats.binom.pmf(np.arange(n_used + 1), n_used, tb.p_signal)
    return idle, np.convolve(dark, signal)


def assert_pmf_matches(got, oracle):
    """Relative 1e-9 on every oracle entry above 1e-300; the rest stay below it."""
    assert got.shape == oracle.shape
    big = oracle > 1e-300
    np.testing.assert_allclose(got[big], oracle[big], rtol=1e-9, atol=0)
    assert np.all(got[~big] <= 1e-300)


def covert_config(n_slots, p_dark, p_signal, kind="strong", n_used=None):
    """A covert config on one n = 7 session, which occupies 182 slots by default."""
    return dcqke.CovertQkeConfig(Bb84Config(n=7, delta=0.5),
                                 TimeBinChannel(n_slots, p_dark, p_signal),
                                 dcqke.PrngSpec(kind), n_used=n_used)


# The CLI's default covert channel and criterion 7's grid, whose weak channel
# is the weak-warden one. The grid's equal-rate channel is tested on its own.
COUNT_TEST_CONFIGS = {
    "cli default": covert_config(4096, 0.05, 0.08, n_used=64),
    "strong-a": covert_config(4096, 0.05, 0.08),
    "strong-b": covert_config(8192, 0.05, 0.08),
    "weak": covert_config(16384, 0.3, 0.95, kind="weak"),
}


class TestCountPmfs:
    @pytest.mark.parametrize("n", [0, 1, 100, 4096, 16384])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.95, 1.0])
    def test_binomial_pmf_matches_scipy(self, n, p):
        assert_pmf_matches(channel._binomial_pmf(n, p), stats.binom.pmf(np.arange(n + 1), n, p))

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_outcome_is_exact(self, p):
        pmf = channel._binomial_pmf(100, p)
        assert pmf[100 if p else 0] == 1.0 and pmf.sum() == 1.0

    @pytest.mark.parametrize("n_slots, p_dark, p_signal", [
        (100, 0.05, 0.95), (4096, 0.05, 0.08), (16384, 0.3, 0.95), (64, 0.0, 1.0),
    ])
    @pytest.mark.parametrize("occupancy", ["none", "all"])
    def test_count_distributions_match_scipy_at_the_ends(self, n_slots, p_dark, p_signal,
                                                         occupancy):
        tb = TimeBinChannel(n_slots, p_dark, p_signal)
        n_used = 0 if occupancy == "none" else n_slots
        for got, oracle in zip(count_distributions(tb, n_used),
                               scipy_count_distributions(tb, n_used)):
            assert_pmf_matches(got, oracle)

    @pytest.mark.parametrize("name", sorted(COUNT_TEST_CONFIGS))
    def test_count_test_guesses_as_with_scipy_pmfs(self, name):
        config = COUNT_TEST_CONFIGS[name]
        n = config.timebin.n_slots
        idle, active = scipy_count_distributions(config.timebin, config.effective_n_used)
        warden, rng = dcqke.CountTestWarden(config), RandomStream(0)
        guesses = [warden.decide(WardenObservation(np.arange(n) < count), rng)
                   for count in range(n + 1)]
        assert guesses == np.where(active > idle, 0, 1).tolist()

    def test_equal_rates_never_guess_a_session(self):
        # criterion 7's null channel: the two laws are one; scipy's pmfs
        # differ there by rounding alone, and compared they guess 'ran' on
        # about 41% of the counts in the bulk
        config = covert_config(4096, 0.1, 0.1)
        idle, active = count_distributions(config.timebin, config.effective_n_used)
        assert np.array_equal(idle, active) and not np.shares_memory(idle, active)
        warden, rng = dcqke.CountTestWarden(config), RandomStream(0)
        assert {warden.decide(WardenObservation(np.arange(4096) < count), rng)
                for count in range(4097)} == {1}

    @pytest.mark.parametrize("n_used", [2.5, 4.0, True, "4"])
    def test_slots_in_use_must_be_an_integer(self, n_used):
        with pytest.raises(ValueError, match="slots in use must be an integer"):
            count_distributions(TimeBinChannel(64, 0.1, 0.5), n_used)


class TestQubitTransmission:
    def test_noiseless_identity(self):
        sent = qcore.prepare_bb84(np.array([0, 1, 0]), np.zeros(3, np.uint8))
        out, record = transmit(QubitChannel(0.0), sent, RandomStream(1))
        assert record is None
        for name in ("bits", "bases"):
            assert np.array_equal(getattr(out, name), getattr(sent, name))

    def test_certain_flip(self):
        # X|0> = |1> and X|1> = |0>; |+> and |-> are unchanged up to phase
        sent = qcore.prepare_bb84(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
        out, _ = transmit(QubitChannel(1.0), sent, RandomStream(1))
        assert out.bits.tolist() == [1, 0, 0, 1] and np.array_equal(out.bases, sent.bases)
        assert qcore._BB84_P0[1, 0, 0] == 0.0  # outcome 1 is certain for |1>

    def test_flip_rate_monte_carlo(self):
        n = 10_000
        sent = qcore.prepare_bb84(np.zeros(n, np.uint8), np.zeros(n, np.uint8))
        out, _ = transmit(QubitChannel(0.1), sent, RandomStream(2))
        errors = int(qcore.measure(out, np.zeros(n, np.uint8), RandomStream(3)).sum())
        sigma = np.sqrt(0.1 * 0.9 / n)
        assert abs(errors / n - 0.1) < 3 * sigma

    def test_multiqubit_rejected(self):
        # a batch holds one single-qubit state per entry; a two-qubit entry
        # cannot be formed, so it never reaches the channel
        with pytest.raises(ValueError):
            transmit(
                QubitChannel(0.0),
                qcore.Bb84Qubits([[0, 0]], [[0, 0]]),
                RandomStream(1),
            )

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            QubitChannel(1.5)


class TestClassicalChannel:
    def test_append_only_order(self):
        chan = ClassicalAuthChannel()
        chan.send("alice", "first", [1, 0])
        chan.send("bob", "second", [1])
        log = chan.log
        assert [(m.sender, m.label, m.n_bits) for m in log] == [
            ("alice", "first", 2), ("bob", "second", 1)
        ]

    def test_messages_immutable(self):
        chan = ClassicalAuthChannel()
        msg = chan.send("alice", "x", [1, 0])
        with pytest.raises(ValueError):
            msg.bits[0] = 0

    def test_send_leaves_the_callers_array_writable(self):
        payload = np.array([1, 0, 1], dtype=np.uint8)
        msg = ClassicalAuthChannel().send("alice", "x", payload)
        assert payload.flags.writeable
        payload[0] = 0
        assert msg.bits.tolist() == [1, 0, 1] and not msg.bits.flags.writeable


    def test_protocol_messages_hold_read_only_bit_vectors(self):
        # the protocols announce through the unchecked `_send`: every message
        # must hold what the checked `Message` would store
        outcome = bb84.run_session(Bb84Config(n=14, delta=0.5), QubitChannel(0.05),
                                   RandomStream(7))
        params = ue.UeParams(4, 4)
        over_ue = ue.qke_from_ue(params, ue.generate_ue_key(params, RandomStream(8)),
                                 RandomStream(9))
        *_, teleported = distill.qke_over_teleportation(
            16, np.pi / 4, RandomStream(10), gf2.default_nested_pair()
        )
        transcripts = [outcome.session.transcript, over_ue.transcript, teleported]
        for msg in (m for transcript in transcripts for m in transcript):
            assert np.array_equal(gf2.bits(msg.bits), msg.bits), msg.label
            assert msg.bits.dtype == np.uint8 and not msg.bits.flags.writeable, msg.label
        assert not np.shares_memory(outcome.session.transcript[0].bits, outcome.session.b)

    def test_only_the_exchanges_call_the_unchecked_send(self):
        # `_send` trusts its caller's bits, so no public function may hand it
        # arrays a caller passed in: only the three exchanges that build their
        # own bits call it, and every other caller is private
        callers = set()
        for path in Path(qdeny.__path__[0]).glob("*.py"):
            for name, fn in _functions(ast.parse(path.read_text())):
                public = not any(p.startswith("_") and not p.endswith("__")
                                 for p in name.split("."))
                if public and any(isinstance(call, ast.Call)
                                  and isinstance(call.func, ast.Attribute)
                                  and call.func.attr == "_send" for call in ast.walk(fn)):
                    callers.add(f"{path.stem}.{name}")
        assert callers == {"bb84.run_bb84", "distill.qke_over_teleportation", "ue.qke_from_ue"}


class TestSchedules:
    def test_one_prng_gives_one_schedule(self):
        # the keystream is a function of the key alone, so reusing a generator
        # repeats its schedule, including one that needs a longer prefix
        for n_slots, n_used in [(1024, 32), (300, 250)]:
            prng = CounterModePrng(77)
            first = prng.sample_distinct(n_slots, n_used)
            assert np.array_equal(prng.sample_distinct(n_slots, n_used), first)
            assert np.array_equal(CounterModePrng(77).sample_distinct(n_slots, n_used), first)

    def test_slot_usage_uniform(self):
        # per-slot usage frequency over many keys
        n_slots, n_used, draws = 1 << 10, 32, 10_000
        keys = RandomStream(4).generator.integers(0, 1 << 63, size=draws)
        counts = np.zeros(n_slots)
        for key in keys.tolist():
            counts[CounterModePrng(key).sample_distinct(n_slots, n_used)] += 1
        expect = draws * n_used / n_slots
        sigma = np.sqrt(draws * (n_used / n_slots) * (1 - n_used / n_slots))
        assert np.all(np.abs(counts - expect) < 5 * sigma)
        assert abs(counts.mean() - expect) < 3 * sigma / np.sqrt(n_slots)


class TestTimeBinChannel:
    @pytest.mark.parametrize("n_slots", [10.5, 10.0, "10", None, True])
    def test_slot_count_must_be_an_integer(self, n_slots):
        with pytest.raises(ValueError, match="slot count must be an integer"):
            TimeBinChannel(n_slots, 0.1, 0.2)

    def test_numpy_integer_slot_count_accepted(self):
        assert TimeBinChannel(np.int64(10), 0.1, 0.2) == TimeBinChannel(10, 0.1, 0.2)


class TestWardenObserve:
    def test_deterministic_extremes(self):
        tb = TimeBinChannel(8, 0.0, 1.0)
        obs = warden_observe(tb, np.array([3]), RandomStream(1))
        expect = np.zeros(8, dtype=np.uint8)
        expect[3] = 1
        assert np.array_equal(obs.detections, expect)

    @pytest.mark.parametrize("slots", [[-1], [0, 8], [2, 3, 9]])
    def test_slots_outside_the_window_rejected(self, slots):
        tb = TimeBinChannel(8, 0.1, 0.9)
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            warden_observe(tb, np.array(slots), RandomStream(1))
        warden_observe(tb, np.array([0, 7]), RandomStream(1))

    def test_observation_leaves_the_callers_array_writable(self):
        det = np.zeros(4, dtype=np.uint8)
        obs = WardenObservation(det)
        assert det.flags.writeable
        det[1] = 1
        assert obs.count == 0 and not obs.detections.flags.writeable

    @pytest.mark.parametrize("detections", [[2, 0.9], [0.5, 0], [1.0], [2, 0], np.array([-1, 1]), [256]])
    def test_observation_rejects_entries_that_are_not_bits(self, detections):
        with pytest.raises(ValueError):
            WardenObservation(detections)

    def test_observation_takes_bool_and_integer_bits_alike(self):
        for det in ([True, False, True], [1, 0, 1], np.array([1, 0, 1], dtype=np.int64), "101"):
            obs = WardenObservation(det)
            assert obs.detections.dtype == np.uint8 and obs.detections.tolist() == [1, 0, 1]
            assert obs.count == 2

    def test_idle_dark_counts(self):
        tb = TimeBinChannel(10_000, 0.01, 0.5)
        obs = warden_observe(tb, None, RandomStream(2))
        sigma = np.sqrt(10_000 * 0.01 * 0.99)
        assert abs(obs.count - 100) < 3 * sigma

    def test_indistinguishable_when_rates_equal(self):
        tb = TimeBinChannel(64, 0.3, 0.3)
        sched = RandomStream(3).choice_distinct(64, 16)
        # same substream: identical detections with and without the schedule
        with_sched = warden_observe(tb, sched, RandomStream(4))
        without = warden_observe(tb, None, RandomStream(4))
        assert np.array_equal(with_sched.detections, without.detections)


class TestExactBias:
    def test_zero_cases(self):
        assert warden_bias_exact(TimeBinChannel(100, 0.1, 0.5), 0) == 0.0
        assert warden_bias_exact(TimeBinChannel(100, 0.1, 0.1), 10) == 0.0

    @pytest.mark.parametrize("p_dark, p_signal, n_used", [
        # the equal-rates shortcut once returned 0.0 for these two
        (0.3, 0.3, -1), (0.3, 0.3, 17), (0.1, 0.5, -1), (0.1, 0.5, 17),
    ])
    def test_slots_in_use_out_of_range_rejected(self, p_dark, p_signal, n_used):
        with pytest.raises(ValueError, match="^n_used out of range$"):
            warden_bias_exact(TimeBinChannel(16, p_dark, p_signal), n_used)

    def test_golden_value(self):
        # frozen from the per-slot Bernoulli convolution oracle before the build
        tb = TimeBinChannel(100, 0.01, 0.5)
        assert warden_bias_exact(tb, 10) == pytest.approx(0.4471895236102093, abs=1e-12)

    @pytest.mark.parametrize(
        "n_slots,p_dark,p_signal,n_used",
        [(64, 0.1, 0.3, 8), (100, 0.01, 0.5, 10), (128, 0.0, 1.0, 4), (50, 0.2, 0.6, 25)],
    )
    def test_matches_bernoulli_dp_oracle(self, n_slots, p_dark, p_signal, n_used):
        tb = TimeBinChannel(n_slots, p_dark, p_signal)
        assert warden_bias_exact(tb, n_used) == pytest.approx(
            bias_oracle(n_slots, p_dark, p_signal, n_used), abs=1e-10
        )

    def test_monotone_in_n_used(self):
        tb = TimeBinChannel(256, 0.05, 0.2)
        biases = [warden_bias_exact(tb, m) for m in (0, 2, 4, 8, 16, 32, 64)]
        assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(biases, biases[1:]))

    def test_monotone_in_signal_gap(self):
        biases = [
            warden_bias_exact(TimeBinChannel(256, 0.05, ps), 16)
            for ps in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(biases, biases[1:]))


class TestCountTestConvergence:
    def test_monte_carlo_matches_exact(self):
        # optimal count test, sampled at the observation level
        tb = TimeBinChannel(256, 0.05, 0.2)
        n_used = 24
        idle_pmf, active_pmf = count_distributions(tb, n_used)
        exact = warden_bias_exact(tb, n_used)
        g = RandomStream(5).generator
        trials = 100_000
        b = g.integers(0, 2, trials)
        counts = np.where(
            b == 0,
            g.binomial(tb.n_slots - n_used, tb.p_dark, trials)
            + g.binomial(n_used, tb.p_signal, trials),
            g.binomial(tb.n_slots, tb.p_dark, trials),
        )
        guess = np.where(active_pmf[counts] > idle_pmf[counts], 0, 1)
        advantage = abs(np.mean(guess == b) - 0.5)
        sigma = np.sqrt(0.25 / trials)
        assert abs(advantage - exact) < 3 * sigma

    def test_full_observation_path_agrees(self):
        # warden_observe -> count, smaller trial count
        tb = TimeBinChannel(128, 0.05, 0.4)
        n_used = 12
        idle_pmf, active_pmf = count_distributions(tb, n_used)
        exact = warden_bias_exact(tb, n_used)
        root = RandomStream(6)
        wins = 0
        trials = 4000
        for i in range(trials):
            trial = root.substream("t", i)
            b = trial.bit()
            if b == 0:
                sched = trial.substream("sched").choice_distinct(tb.n_slots, n_used)
                obs = warden_observe(tb, sched, trial.substream("obs"))
            else:
                obs = warden_observe(tb, None, trial.substream("obs"))
            guess = 0 if active_pmf[obs.count] > idle_pmf[obs.count] else 1
            wins += int(guess == b)
        advantage = abs(wins / trials - 0.5)
        assert abs(advantage - exact) < 3 * np.sqrt(0.25 / trials)


class TestSquareRootLaw:
    @pytest.mark.parametrize("bias_target", [-0.1, float("nan")])
    def test_bias_target_below_zero_rejected(self, bias_target):
        # both once returned 0 slots, whose bias 0.0 is not within the target
        with pytest.raises(ValueError, match="^bias target must be non-negative"):
            max_covert_slots(TimeBinChannel(64, 0.05, 0.10), bias_target)

    def test_loglog_slope_near_half(self):
        # reduced grid; the acceptance suite runs the full 2^8..2^14 sweep
        ns = [2**k for k in range(8, 13)]
        ms = [max_covert_slots(TimeBinChannel(n, 0.05, 0.10), 0.1) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(ms), 1)[0]
        assert 0.4 <= slope <= 0.6
