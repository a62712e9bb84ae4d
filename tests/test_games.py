"""Experiment harness statistics and determinism."""

import pytest

from qdeny.games import (
    AdvantageEstimate,
    CoinFlipDistinguisher,
    run_experiment,
    wilson_interval,
)


def _constant_pair_setup(trial_rng):
    # observations that leak the challenge bit outright
    return ("real", "fake")


class LeakReader:
    name = "leak-reader"

    def decide(self, observation, rng):
        return 0 if observation == "real" else 1


class TestWilson:
    def test_half_centered_symmetric(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert abs((0.5 - lo) - (hi - 0.5)) < 1e-4

    def test_zero_wins(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0

    def test_all_wins(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0

    def test_endpoints_satisfy_defining_equation(self):
        # Wilson endpoints solve (p_hat - p)^2 = z^2 p (1 - p) / n
        z = 1.959963984540054
        for wins, trials in [(80, 100), (3, 217), (999, 1000), (50, 100)]:
            p_hat = wins / trials
            for p in wilson_interval(wins, trials):
                lhs = (p_hat - p) ** 2
                rhs = z * z * p * (1 - p) / trials
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bad_wins_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestAdvantageEstimate:
    def test_interval_contains_zero_when_near_half(self):
        est = AdvantageEstimate.from_wins(101, 200)
        assert est.ci_low == 0.0

    def test_interval_excludes_zero_when_far(self):
        est = AdvantageEstimate.from_wins(190, 200)
        assert est.ci_low > 0.0

    def test_clamped_to_half(self):
        est = AdvantageEstimate.from_wins(200, 200)
        assert est.advantage == 0.5 and est.ci_high == 0.5


class TestRunExperiment:
    def test_null_distinguisher_near_zero(self):
        est = run_experiment(_constant_pair_setup, CoinFlipDistinguisher(), 2000, 7)
        assert est.ci_low == 0.0
        assert est.advantage < 0.05

    def test_leaky_observation_full_advantage(self):
        est = run_experiment(_constant_pair_setup, LeakReader(), 500, 7)
        assert est.advantage == 0.5

    def test_deterministic_given_seed(self):
        runs = [
            run_experiment(_constant_pair_setup, CoinFlipDistinguisher(), 300, 9)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_trial_floor(self):
        def no_trial(trial_rng):
            raise AssertionError("the floor must reject before any trial runs")

        with pytest.raises(ValueError):
            run_experiment(no_trial, CoinFlipDistinguisher(), 50, 1)

    def test_interval_coverage_meta(self):
        # 95% Wilson interval should cover the null in at least 93 of 100 reps
        covered = 0
        for rep in range(100):
            est = run_experiment(_constant_pair_setup, CoinFlipDistinguisher(), 400, 20000 + rep)
            covered += int(est.ci_low == 0.0)
        assert covered >= 93

