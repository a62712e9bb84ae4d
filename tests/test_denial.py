"""Decoy eavesdropping, judge soundness, detection rates, coercer game."""

import hashlib
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from qdeny import gf2, qcore
from qdeny.bb84 import Bb84Config
from qdeny.channel import TimeBinChannel
from qdeny.dcqke import CountTestWarden, CovertQkeConfig, PrngSpec, run_dc_qke
from qdeny.denial import (
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

    Exponential in n_qubits; only for cross-checking the production closed
    form 1 - (1 - p_check)**flips at toy sizes.
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


def accepted_session_detection_oracle(config: Bb84Config, n_decoys: int) -> Fraction:
    """Exact rate at which the judge catches one random flip in the live
    naive-denial game, which only counts sessions that pass the check.

    Sifting keeps S ~ Bin(N, 1/2) positions, resampled until S >= 2n. With
    p = n_decoys / N, each sifted position is, independently, checkable
    (Eve measured it in Alice's basis: p/2), an error (Eve's other basis,
    then the other outcome: p/4), or neither. The check reads a uniform
    n-subset of the sifted positions, and a session with k errors there is
    accepted when k / n stays within the error threshold; its other n - k
    check positions are then each checkable with probability
    (p/2) / (1 - p/4). Acceptance does not depend on S, and the flip lands
    on a uniform sifted position, so the rate is
    E_S[(A + (S - n) p/2) / S], where A is the expected checkable count
    among the check positions of an accepted session.
    """
    n, big_n = config.n, config.qubit_count
    p = Fraction(n_decoys, big_n)
    checkable, error = p / 2, p / 4
    accepted = [k for k in range(n + 1) if k / n <= config.error_threshold]
    weights = [comb(n, k) * error**k * (1 - error) ** (n - k) for k in accepted]
    clean = sum(w * (n - k) for w, k in zip(weights, accepted)) / sum(weights)
    a = clean * checkable / (1 - error)
    sifts = range(2 * n, big_n + 1)
    total = sum(comb(big_n, s) * (a + (s - n) * checkable) / s for s in sifts)
    return total / sum(comb(big_n, s) for s in sifts)


class TestEveDecoyAttack:
    def test_zero_rate_is_transparent(self):
        rng = RandomStream(1)
        bits, bases = rng.bits(32), rng.bits(32)
        states = qcore.prepare_bb84(bits, bases)
        forwarded, record = eve_decoy_attack(EvePolicy(0.0), states, rng)
        assert len(record) == 0
        for name in ("bits", "bases"):
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

    # bit() calls before the attack leave Philox's buffered half-word at either parity
    @pytest.mark.parametrize("p", [0.0, 1.0, 8 / 63, 0.5, 0.03, 1e-300, 0.9999])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 63, 200])
    @pytest.mark.parametrize("before", [0, 1, 2])
    def test_equals_the_per_qubit_loop(self, p, n, before):
        for seed in range(10):
            a, b = RandomStream(seed), RandomStream(seed)
            states = qcore.prepare_bb84(a.bits(n), a.bits(n))
            b.bits(n), b.bits(n)
            for _ in range(before):
                assert a.bit() == b.bit()
            forwarded, record = eve_decoy_attack(EvePolicy(p), states, a)
            want_forwarded, want = reference_attack(EvePolicy(p), states, b)
            for name in ("positions", "bases", "outcomes"):
                got = getattr(record, name)
                assert got.dtype == getattr(want, name).dtype and not got.flags.writeable
                assert np.array_equal(got, getattr(want, name))
            for name in ("bits", "bases"):
                assert np.array_equal(getattr(forwarded, name), getattr(want_forwarded, name))
            assert a.bit() == b.bit() and a.random() == b.random()
            assert np.array_equal(a.uniforms(5), b.uniforms(5)) and a.bit() == b.bit()


def reference_attack(policy, qubits, rng):
    """The interceptor as three draws and a per-qubit loop of dense
    measurements: uniforms(n) to decide, bits(k) for the k measured
    qubits' bases, then one dense measurement of each measured qubit's
    state, in position order, each reading one random() for its outcome.
    A measured qubit is forwarded as the eigenstate it collapsed onto: its
    bit becomes the outcome and its basis the measurement basis."""
    bits, bases = qubits.bits.copy(), qubits.bases.copy()
    positions = [i for i, u in enumerate(rng.uniforms(len(qubits))) if u < policy.measure_probability]
    eve_bases = [int(basis) for basis in rng.bits(len(positions))]
    outcomes = []
    for i, basis in zip(positions, eve_bases):
        state = qcore.bb84_state(int(bits[i]), int(bases[i]))
        outcome, _ = qcore.measure_subsystem(state, 0, basis, rng)
        outcomes.append(outcome)
        bits[i], bases[i] = outcome, basis
    record = EveRecord(np.array(positions, dtype=np.int64), eve_bases, outcomes)
    return qcore.Bb84Qubits(bits, bases), record


def reference_judge(bits, bases, record):
    """The judge as a per-entry loop: the first entry measured in the
    claimed basis whose outcome contradicts the claimed bit."""
    for pos, eve_basis, eve_outcome in zip(record.positions, record.bases, record.outcomes):
        if pos >= len(bits):
            raise ValueError("record position outside the claimed strings")
        if eve_basis == bases[pos] and eve_outcome != bits[pos]:
            return int(pos)
    return None


class TestEveRecord:
    def test_empty_lists_judged_clean(self):
        record = EveRecord([], [], [])
        assert record.positions.dtype == np.int64
        assert judge_check(np.zeros(4, np.uint8), np.zeros(4, np.uint8), record) is None

    def test_keeps_typed_read_only_copies(self):
        positions = np.array([1, 4], dtype=np.int32)
        bases = [1, 0]
        outcomes = np.array([0, 1], dtype=np.int64)
        record = EveRecord(positions, bases, outcomes)
        assert record.positions.dtype == np.int64
        assert record.bases.dtype == record.outcomes.dtype == np.uint8
        positions[0] = 7  # the caller's array stays writable and its own
        outcomes[:] = 1
        assert record.positions.tolist() == [1, 4]
        assert record.outcomes.tolist() == [0, 1]
        with pytest.raises(ValueError):
            record.bases[0] = 0

    def test_positions_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EveRecord([2, 2], [0, 0], [0, 0])

    @pytest.mark.parametrize("positions, bases, outcomes", [
        ([0, 3], [1], [0, 1, 1]), ([0, 3], [1, 0], [0]), ([[0, 3]], [[1, 0]], [[0, 1]]),
    ])
    def test_unequal_lengths_rejected(self, positions, bases, outcomes):
        with pytest.raises(ValueError, match="vectors of equal length"):
            EveRecord(positions, bases, outcomes)

    @pytest.mark.parametrize("bases, outcomes", [([2, 0], [0, 1]), ([1, 0], [0, 7])])
    def test_bases_and_outcomes_must_be_bits(self, bases, outcomes):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            EveRecord([0, 3], bases, outcomes)

    @pytest.mark.parametrize("positions, bases, outcomes", [
        ([], [], []), ([3], [1], [0]), ([0, 4, 9], [1, 0, 1], [0, 1, 1]),
    ])
    def test_trusted_arrays_equal_the_public_record(self, positions, bases, outcomes):
        arrays = (np.array(positions, np.int64), np.array(bases, np.uint8),
                  np.array(outcomes, np.uint8))
        public = EveRecord(*arrays)
        names = ("positions", "bases", "outcomes")
        trusted = gf2._freeze(object.__new__(EveRecord), **dict(zip(names, arrays)))
        assert len(trusted) == len(public)
        for name in names:
            got, want = getattr(trusted, name), getattr(public, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[...] = 0


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
            assert judge_check(bits, bases, record) is None

    def test_flip_at_checked_position_detected(self):
        bits, bases, record = self._session_record(99, eta_rate=1.0)
        matched = record.positions[record.bases == bases[record.positions]]
        pos = int(matched[0])
        claimed = bits.copy()
        claimed[pos] ^= 1
        assert judge_check(claimed, bases, record) == pos

    def test_flip_outside_record_unnoticed(self):
        bits, bases, record = self._session_record(7, eta_rate=0.2)
        untouched = sorted(set(range(64)) - set(record.positions.tolist()))
        claimed = bits.copy()
        claimed[untouched[0]] ^= 1
        assert judge_check(claimed, bases, record) is None

    def test_wrong_basis_record_is_ignored(self):
        # entry measured in the other basis cannot witness a flip
        record = EveRecord(np.array([3]), np.array([1], np.uint8), np.array([0], np.uint8))
        claimed_bits = np.array([0, 0, 0, 1], np.uint8)
        assert judge_check(claimed_bits, np.zeros(4, np.uint8), record) is None

    def test_matches_the_per_entry_loop(self):
        # empty and non-empty records; honest, one-flip, all-flipped and
        # unrelated claims; against the loop the vectorized judge replaced
        root = RandomStream(61)
        cases = 0
        for i in range(300):
            r = root.substream("record", i)
            n = int(r.generator.integers(1, 40))
            bits, bases = r.bits(n), r.bits(n)
            states = qcore.prepare_bb84(bits, bases)
            rate = 0.0 if i % 10 == 0 else float(r.random())  # every tenth record empty
            _, record = eve_decoy_attack(EvePolicy(rate), states, r)
            flipped = bits.copy()
            flipped[int(r.generator.integers(0, n))] ^= 1
            claims = [
                (bits, bases),  # honest: every same-basis entry matches
                (flipped, bases),  # one flip
                (bits ^ 1, bases),  # every same-basis entry contradicts
                (r.bits(n), r.bits(n)),  # unrelated claim
            ]
            for claim_bits, claim_bases in claims:
                want = reference_judge(claim_bits, claim_bases, record)
                assert judge_check(claim_bits, claim_bases, record) == want
                cases += want is not None
        assert 100 < cases < 1200  # both outcomes are exercised

    def test_record_outside_the_claim_rejected(self):
        # the whole record is checked, also past a witness where the loop
        # stopped before reaching the entry outside the claim
        record = EveRecord([0, 4], [0, 0], [1, 0])
        bits, bases = np.zeros(4, np.uint8), np.zeros(4, np.uint8)
        assert reference_judge(bits, bases, record) == 0
        with pytest.raises(ValueError, match="outside the claimed strings"):
            judge_check(bits, bases, record)
        with pytest.raises(ValueError, match="outside the claimed strings"):
            judge_check(bits, bases, EveRecord([-1], [0], [0]))

    def test_claim_lengths_must_agree(self):
        record = EveRecord([0], [0], [0])
        with pytest.raises(ValueError, match="equal length"):
            judge_check(np.zeros(4, np.uint8), np.zeros(3, np.uint8), record)


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

    @pytest.mark.parametrize("sizes, message", [
        # the exact oracle once returned 1.25 and -0.25 for these two
        pytest.param((8, 20, 1), "n_decoys must lie in [0, n_qubits]", id="decoys-20-of-8"),
        pytest.param((8, -4, 1), "n_decoys must lie in [0, n_qubits]", id="decoys--4"),
        pytest.param((2000, 2, 1), "2000 qubits is more than the limit 1024", id="qubits-2000"),
        pytest.param((8, 2, 0), "need at least one flip", id="flips-0"),
        pytest.param((8, 2, 9), "cannot flip 9 of 8 qubits", id="flips-9-of-8"),
    ])
    def test_sizes_out_of_range_rejected_by_both_paths(self, sizes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exact_detection_probability(*sizes)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            detection_probability(*sizes, 100, master_seed=1)

    def test_exact_matches_naive_enumeration(self):
        # production closed form against the fully naive 4^n oracle
        for n, eta, flips in [(6, 2, 1), (6, 3, 2), (8, 4, 1), (8, 2, 3), (6, 3, 6)]:
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
        # (512, 32, *) is the attack-deny default size
        for n, eta, flips in [(16, 4, 1), (16, 8, 2), (12, 6, 3), (512, 32, 2), (512, 32, 3)]:
            exact = exact_detection_probability(n, eta, flips)
            est = detection_probability(n, eta, flips, 40_000, master_seed=3)
            sigma = np.sqrt(exact * (1 - exact) / est.trials)
            assert abs(est.rate - exact) < 3 * sigma, (n, eta, flips)

    def test_accepted_session_oracle_pinned(self):
        # sessions that pass the check hold fewer wrong-basis decoys, so
        # relatively more of the checkable ones: above n_decoys / 2N
        config = Bb84Config(n=14, delta=0.5)
        for n_decoys, want in [(32, 0.263927), (16, 0.128669), (8, 0.063755)]:
            exact = accepted_session_detection_oracle(config, n_decoys)
            assert float(exact) == pytest.approx(want, abs=5e-7), n_decoys
            assert exact > Fraction(n_decoys, 2 * config.qubit_count)

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
            witness = judge_check(
                fake.randomness["raw_bits"], fake.randomness["bases"], outcome.session.eve_record
            )
            detected += int(witness is not None)
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

    def test_live_game_follows_the_accepted_session_oracle(self):
        # Eve measures every qubit, so only sessions with no check error are
        # accepted; n_decoys / 2N = 0.5 lies about 6 sigma below the oracle
        config = Bb84Config(n=7, delta=0.5)
        n_decoys = 32
        proto = NaiveBb84DenialProtocol(config, n_decoys=n_decoys, flips=1)
        exact = float(accepted_session_detection_oracle(config, n_decoys))
        assert exact == pytest.approx(0.569933, abs=5e-7)
        root = RandomStream(13)
        detected = 0
        trials = 2000
        for i in range(trials):
            outcome = proto.run_session(root.substream("s", i))
            fake = proto.fake(outcome, root.substream("f", i))
            witness = judge_check(
                fake.randomness["raw_bits"], fake.randomness["bases"], outcome.session.eve_record
            )
            detected += int(witness is not None)
        rate = detected / trials
        sigma = np.sqrt(exact * (1 - exact) / trials)
        assert abs(rate - exact) < 4 * sigma
        assert abs(rate - n_decoys / (2 * config.qubit_count)) > 4 * sigma


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

    def test_only_the_shown_view_is_built(self):
        # one session per trial; the faking program runs exactly in the
        # trials whose challenge bit is 1
        sessions, faked = [], []

        class Counted(NaiveBb84DenialProtocol):
            def run_session(self, rng):
                sessions.append(rng)
                return super().run_session(rng)

            def fake(self, outcome, rng):
                faked.append(len(sessions) - 1)
                return super().fake(outcome, rng)

        proto = Counted(Bb84Config(n=7, delta=0.5), n_decoys=8)
        coercer_experiment(proto, CoinFlipDistinguisher(), 120, master_seed=23)
        master = RandomStream(23)
        bits = [master.substream("challenge", i).bit() for i in range(120)]
        assert len(sessions) == 120
        assert faked == [i for i, b in enumerate(bits) if b == 1]

    def test_protocol_without_faker_rejected(self):
        class KeyOnly:
            def run_session(self, rng):
                return None

        class NoView(KeyOnly):  # the parts of a view, but no view(trial_rng, b)
            def real_view(self, session):
                return None

            def fake(self, session, rng):
                return None

        for protocol in (KeyOnly(), NoView()):
            with pytest.raises(TypeError, match="view"):
                coercer_experiment(protocol, CoinFlipDistinguisher(), 200, master_seed=1)


class DcQkeViews:
    """DC-QKE in the coercer game's form, with the views of `run_dc_qke`."""

    def __init__(self):
        self.config = CovertQkeConfig(
            Bb84Config(n=7, delta=0.5), TimeBinChannel(4096, 0.05, 0.08), PrngSpec("strong")
        )

    def view(self, rng, b):
        return run_dc_qke(self.config, rng.substream("session"), b)


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


# protocol, the distinguisher behind its seeded rows, and those rows' digest:
# naive denial's as recorded before the fake view stopped disclosing flipped
# positions, DC-QKE's since its real view discloses the ordinary session's
# key (the rows without the key column hash as before)
VIEW_PROTOCOLS = {
    "naive-bb84-denial": (
        lambda: NaiveBb84DenialProtocol(Bb84Config(n=14), n_decoys=8, flips=1),
        lambda proto: JudgeDistinguisher(),
        "b52168407689d436ab5af08c8816491ca244feb4dfaa68ee80fd6511c32ef94b",
    ),
    "dc-qke": (
        DcQkeViews,
        lambda proto: CountTestWarden(proto.config),
        "6b957d6ee4f01aeeec3832bae3b117efcb55d4a31f8a2c6d63e3afe3d8ac296c",
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
        real, fake = (proto.view(root.substream("s", i), b) for b in (0, 1))
        assert _layout(fake) == _layout(real)
    # equal names in every trial: the key-set guess never depends on the
    # challenge bit, so its advantage is zero and the game cannot tell
    # it apart from zero
    est = coercer_experiment(proto, KeySetDistinguisher(real.randomness), 200, master_seed=42)
    assert est.ci_low == 0.0
    rows = RowRecorder(make_row_distinguisher(proto))
    coercer_experiment(proto, rows, 100, master_seed=43)
    assert rows.sha.hexdigest() == rows_digest
