"""Decoy eavesdropping, judge soundness, detection rates, coercer game."""

import hashlib
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from qdeny import denial, qcore
from qdeny.bb84 import Bb84Config
from qdeny.channel import TimeBinChannel
from qdeny.dcqke import CountTestWarden, CovertQkeConfig, PrngSpec, build_views, run_dc_qke
from qdeny.denial import (
    DenialClaim,
    EvePolicy,
    EveRecord,
    JudgeDistinguisher,
    NaiveBb84DenialProtocol,
    coercer_experiment,
    detection_probability,
    eve_decoy_attack,
    exact_detection_probability,
    judge_check,
)
from qdeny.games import CoinFlipDistinguisher
from qdeny.rng import RandomStream


def naive_detection_oracle(n_qubits: int, flips: int, p_check: Fraction) -> float:
    """Fully naive enumeration over sift masks and checkable masks.

    Exponential in n_qubits; only for cross-validating the production
    (sifted-size, checkable-count) enumeration at toy sizes.
    """
    total = Fraction(0)
    norm = Fraction(0)
    half = Fraction(1, 2)
    for sift_mask in range(1 << n_qubits):
        s = bin(sift_mask).count("1")
        if s < flips:
            continue
        p_sift = half**n_qubits
        norm += p_sift
        sifted = [i for i in range(n_qubits) if (sift_mask >> i) & 1]
        for check_mask in range(1 << s):
            c = bin(check_mask).count("1")
            p_check_mask = p_check**c * (1 - p_check) ** (s - c)
            # flips are a uniform size-f subset of the sifted positions
            p_miss = Fraction(comb(s - c, flips), comb(s, flips)) if s - c >= flips else Fraction(0)
            total += p_sift * p_check_mask * (1 - p_miss)
    return float(total / norm)


class TestEveDecoyAttack:
    def test_zero_rate_is_transparent(self):
        rng = RandomStream(1)
        bits, bases = rng.bits(32), rng.bits(32)
        states = qcore.prepare_bb84(bits, bases)
        forwarded, record = eve_decoy_attack(EvePolicy(0.0), states, rng)
        assert len(record) == 0
        for name in ("bits", "bases", "flips"):
            assert np.array_equal(getattr(forwarded, name), getattr(states, name))

    def test_full_rate_matched_bases_reproduce_bits(self):
        rng = RandomStream(2)
        bits, bases = rng.bits(200), rng.bits(200)
        states = qcore.prepare_bb84(bits, bases)
        _, record = eve_decoy_attack(EvePolicy(1.0), states, rng)
        assert len(record) == 200
        matched = record.bases == bases
        assert matched.sum() > 50
        assert np.array_equal(record.outcomes[matched], bits[record.positions][matched])

    def test_record_size_binomial(self):
        rng = RandomStream(3)
        n, eta = 10_000, 100
        states = qcore.prepare_bb84(rng.bits(n), rng.bits(n))
        _, record = eve_decoy_attack(EvePolicy(eta / n), states, rng)
        sigma = np.sqrt(eta * (1 - eta / n))
        assert abs(len(record) - eta) < 3 * sigma

    def test_positions_strictly_increasing(self):
        rng = RandomStream(4)
        states = qcore.prepare_bb84(rng.bits(64), rng.bits(64))
        _, record = eve_decoy_attack(EvePolicy(0.5), states, rng)
        assert np.all(np.diff(record.positions) > 0)


class TestJudge:
    def _session_record(self, seed, eta_rate=0.5, n=64):
        rng = RandomStream(seed)
        bits, bases = rng.bits(n), rng.bits(n)
        states = qcore.prepare_bb84(bits, bases)
        _, record = eve_decoy_attack(EvePolicy(eta_rate), states, rng)
        return bits, bases, record

    def test_honest_claim_never_detected(self):
        for seed in range(20):
            bits, bases, record = self._session_record(seed)
            claim = DenialClaim(bits, bases)
            assert not judge_check(claim, record).detected

    def test_flip_at_checked_position_detected(self):
        bits, bases, record = self._session_record(99, eta_rate=1.0)
        matched = record.positions[record.bases == bases[record.positions]]
        pos = int(matched[0])
        claimed = bits.copy()
        claimed[pos] ^= 1
        verdict = judge_check(DenialClaim(claimed, bases), record)
        assert verdict.detected and verdict.witness_position == pos

    def test_flip_outside_record_unnoticed(self):
        bits, bases, record = self._session_record(7, eta_rate=0.2)
        untouched = sorted(set(range(64)) - set(record.positions.tolist()))
        claimed = bits.copy()
        claimed[untouched[0]] ^= 1
        assert not judge_check(DenialClaim(claimed, bases), record).detected

    def test_wrong_basis_record_is_ignored(self):
        # entry measured in the other basis cannot witness a flip
        record = EveRecord(np.array([3]), np.array([1], np.uint8), np.array([0], np.uint8))
        claim = DenialClaim(
            claimed_bits=np.array([0, 0, 0, 1], np.uint8), claimed_bases=np.zeros(4, np.uint8)
        )
        assert not judge_check(claim, record).detected

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            denial.JudgeVerdict(detected=True)


class TestDetectionRates:
    def test_zero_decoys(self):
        est = detection_probability(64, 0, 1, 2000, master_seed=1)
        assert est.rate == 0.0

    def test_flips_near_qubit_count_rejected_not_redrawn_forever(self):
        # a trial sifts all 28 bits once in 2**28 draws
        with pytest.raises(ValueError, match="out of reach"):
            detection_probability(28, 0, 28, 3, master_seed=1)

    def test_paper_rate_at_bench_size(self):
        est = detection_probability(512, 32, 1, 50_000, master_seed=2)
        assert est.ci_low <= 32 / 1024 <= est.ci_high
        assert abs(est.rate - 0.03125) < 0.005

    def test_exact_matches_naive_enumeration(self):
        # production enumeration against the fully naive 4^n oracle
        for n, eta, flips in [(6, 2, 1), (6, 3, 2), (8, 4, 1), (8, 2, 3)]:
            production = exact_detection_probability(n, eta, flips)
            naive = naive_detection_oracle(n, flips, Fraction(eta, 2 * n))
            assert production == pytest.approx(naive, abs=1e-12), (n, eta, flips)

    def test_exact_single_flip_closed_form(self):
        # one random flip among sifted bits is caught at eta / 2N exactly
        for n, eta in [(16, 4), (16, 16), (12, 5)]:
            assert exact_detection_probability(n, eta, 1) == pytest.approx(
                eta / (2 * n), abs=1e-12
            )

    def test_monte_carlo_matches_exact_small(self):
        for n, eta, flips in [(16, 4, 1), (16, 8, 2), (12, 6, 3)]:
            exact = exact_detection_probability(n, eta, flips)
            est = detection_probability(n, eta, flips, 40_000, master_seed=3)
            sigma = np.sqrt(exact * (1 - exact) / est.trials)
            assert abs(est.rate - exact) < 3 * sigma, (n, eta, flips)

    def test_monotone_in_decoys_and_flips(self):
        grid_eta = [exact_detection_probability(16, eta, 1) for eta in (0, 2, 4, 8, 16)]
        assert all(a <= b + 1e-15 for a, b in zip(grid_eta, grid_eta[1:]))
        grid_flips = [exact_detection_probability(16, 4, f) for f in (1, 2, 3, 4)]
        assert all(a <= b + 1e-15 for a, b in zip(grid_flips, grid_flips[1:]))


class TestFullQuantumPathAgreement:
    def test_session_level_detection_rate(self):
        # the per-position reduction against real sessions end to end
        config = Bb84Config(n=14, delta=0.5)
        n_decoys = 16
        proto = NaiveBb84DenialProtocol(config, n_decoys=n_decoys, flips=1)
        root = RandomStream(11)
        detected = 0
        trials = 1500
        for i in range(trials):
            outcome = proto.run_session(root.substream("s", i))
            fake = proto.fake(outcome, root.substream("f", i))
            claim = DenialClaim(fake.randomness["raw_bits"], fake.randomness["bases"])
            detected += int(judge_check(claim, outcome.session.eve_record).detected)
        expect = n_decoys / (2 * config.qubit_count)
        sigma = np.sqrt(expect * (1 - expect) / trials)
        assert abs(detected / trials - expect) < 3.5 * sigma

    def test_sifting_neutrality(self):
        # Eve-checked fraction among sifted bits stays at eta / 2N
        config = Bb84Config(n=14, delta=0.5)
        n_decoys = 24
        proto = NaiveBb84DenialProtocol(config, n_decoys=n_decoys)
        root = RandomStream(12)
        checked = sifted_total = 0
        for i in range(400):
            outcome = proto.run_session(root.substream("s", i))
            s = outcome.session
            record = s.eve_record
            matched = record.bases == s.b[record.positions]
            in_sifted = np.isin(record.positions[matched], s.sifted)
            checked += int(in_sifted.sum())
            sifted_total += s.sifted.size
        rate = checked / sifted_total
        expect = n_decoys / (2 * config.qubit_count)
        sigma = np.sqrt(expect / sifted_total)
        assert abs(rate - expect) < 4 * sigma


class TestCoercerExperiment:
    def test_coin_flip_has_no_advantage(self):
        config = Bb84Config(n=7, delta=0.5)
        proto = NaiveBb84DenialProtocol(config, n_decoys=8)
        est = coercer_experiment(proto, CoinFlipDistinguisher(), 300, master_seed=21)
        assert est.ci_low == 0.0

    def test_judge_adversary_beats_naive_denial(self):
        config = Bb84Config(n=14, delta=0.5)
        n_decoys = 32
        proto = NaiveBb84DenialProtocol(config, n_decoys=n_decoys, flips=1)
        est = coercer_experiment(proto, JudgeDistinguisher(), 2500, master_seed=22)
        # the judge wins every real round and the detection-rate share of fakes
        expect = n_decoys / (2 * config.qubit_count) / 2
        assert est.ci_low > 0.0, "advantage must separate from zero"
        sigma = est.std_error
        assert abs(est.advantage - expect) < 4 * sigma

    def test_protocol_without_faker_rejected(self):
        class KeyOnly:
            def run_session(self, rng):
                return None

        with pytest.raises(TypeError):
            coercer_experiment(KeyOnly(), CoinFlipDistinguisher(), 200, master_seed=1)


class DcQkeViews:
    """DC-QKE in the coercer game's form, with the views of `build_views`."""

    def __init__(self):
        self.config = CovertQkeConfig(
            Bb84Config(n=7, delta=0.5), TimeBinChannel(4096, 0.05, 0.08), PrngSpec("strong")
        )

    def run_session(self, rng):
        return build_views(run_dc_qke(self.config, rng))

    def real_view(self, views):
        return views[0]

    def fake(self, views, rng):
        return views[1]


class KeySetDistinguisher:
    """Calls a view faked exactly when its randomness names differ from an
    honest view's."""

    def __init__(self, honest_names):
        self.honest_names = set(honest_names)

    def decide(self, view, rng):
        return int(set(view.randomness) != self.honest_names)


class RowRecorder:
    """Wraps a distinguisher; hashes each trial's row of guess, channel
    evidence (decoy record length or window count) and key."""

    def __init__(self, inner):
        self.inner = inner
        self.sha = hashlib.sha256()

    def decide(self, view, rng):
        guess = self.inner.decide(view, rng)
        record = getattr(view, "eve_record", None)
        evidence = len(record) if record is not None else view.covert_window.count
        self.sha.update(f"{guess} {evidence} {view.key.size}:{np.packbits(view.key).tobytes().hex()};".encode())
        return guess


# protocol, the distinguisher behind its seeded rows, and those rows' digest
# as recorded before the fake view stopped disclosing flipped positions
VIEW_PROTOCOLS = {
    "naive-bb84-denial": (
        lambda: NaiveBb84DenialProtocol(Bb84Config(n=14), n_decoys=8, flips=1),
        lambda proto: JudgeDistinguisher(),
        "86e68b656ee58c3c65dac8c5cd0257649a7c46add525159bed3d6815ce8c66f2",
    ),
    "dc-qke": (
        DcQkeViews,
        lambda proto: CountTestWarden(proto.config),
        "3a76639adca8d36788db9351ae69a5dc3267e12c96cae63c2799098ecb7dec27",
    ),
}


def _layout(view) -> dict:
    return {name: (value.shape, value.dtype) for name, value in view.randomness.items()}


@pytest.mark.parametrize("name", sorted(VIEW_PROTOCOLS))
def test_fake_view_discloses_what_the_real_view_does(name):
    make, make_row_distinguisher, rows_digest = VIEW_PROTOCOLS[name]
    proto = make()
    root = RandomStream(41)
    for i in range(20):
        session = proto.run_session(root.substream("s", i))
        real, fake = proto.real_view(session), proto.fake(session, root.substream("f", i))
        assert _layout(fake) == _layout(real)
    # equal names in every trial: the key-set guess never depends on the
    # challenge bit, so its advantage is zero and the game cannot tell
    # it apart from zero
    est = coercer_experiment(proto, KeySetDistinguisher(real.randomness), 200, master_seed=42)
    assert est.ci_low == 0.0
    rows = RowRecorder(make_row_distinguisher(proto))
    coercer_experiment(proto, rows, 100, master_seed=43)
    assert rows.sha.hexdigest() == rows_digest
