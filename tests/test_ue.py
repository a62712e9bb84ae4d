"""Uncloneable encryption: MAC soundness, round trips, fake-pad denial."""

import json

import numpy as np
import pytest
from scipy import stats

from qdeny import gf2, ue
from qdeny.denial import EvePolicy, judge_check
from qdeny.qcore import Bb84Qubits
from qdeny.rng import RandomStream
from qdeny.ue import (
    MacScheme,
    UeParams,
    fake_opens_consistently,
    generate_ue_key,
    mac_tag,
    mac_verify,
    qke_from_ue,
    ue_decrypt,
    ue_encrypt,
    ue_fake,
    ue_key_from_json,
    ue_key_to_json,
)


# The field modulus of each tag length s = 1..32, as the package has always
# chosen it; every tag depends on it.
PINNED_MODULI = [
    0x3, 0x7, 0xB, 0x13, 0x25, 0x43, 0x83, 0x11B, 0x203, 0x409, 0x805, 0x1009, 0x201B,
    0x4021, 0x8003, 0x1002B, 0x20009, 0x40009, 0x80027, 0x100009, 0x200005, 0x400003,
    0x800021, 0x100001B, 0x2000009, 0x400001B, 0x8000027, 0x10000003, 0x20000005,
    0x40000003, 0x80000009, 0x10000008D,
]


def _has_factor(f: int) -> bool:
    """Trial division of f by every polynomial of degree 1 to deg(f) // 2."""
    half = (f.bit_length() - 1) // 2
    return any(ue._poly_mod(f, d) == 0 for d in range(2, 1 << (half + 1)))


@pytest.fixture(scope="module")
def params():
    return UeParams(n=4, s=4)


def loop_mac_tag(scheme: MacScheme, key: np.ndarray, message: np.ndarray) -> np.ndarray:
    """The oracle: the tag built bit by bit and block by block in Python."""

    def to_int(v):
        out = 0
        for b in v:
            out = (out << 1) | int(b)
        return out

    point, mask = to_int(key[: scheme.s]), to_int(key[scheme.s :])
    padded = np.concatenate([message, [1]])
    padded = np.concatenate([padded, np.zeros((-padded.size) % scheme.s, dtype=np.uint8)])
    acc = 0
    for start in range(0, padded.size, scheme.s):
        acc = ue._gf_mul(acc ^ to_int(padded[start : start + scheme.s]), point, scheme.modulus)
    tag = acc ^ mask
    return np.array([(tag >> (scheme.s - 1 - i)) & 1 for i in range(scheme.s)], dtype=np.uint8)


class TestMac:
    def test_deterministic(self):
        scheme = MacScheme(8)
        rng = RandomStream(1)
        key, msg = rng.bits(16), rng.bits(24)
        assert np.array_equal(mac_tag(scheme, key, msg), mac_tag(scheme, key, msg))

    def test_zero_message_zero_key(self):
        scheme = MacScheme(4)
        tag = mac_tag(scheme, np.zeros(8, np.uint8), np.zeros(4, np.uint8))
        assert not tag.any()  # the construction's forced constant

    def test_distinct_messages_almost_always_tagged_apart(self):
        scheme = MacScheme(8)
        rng = RandomStream(2)
        trials = 100_000
        collisions = 0
        for _ in range(trials):
            key = rng.bits(16)
            m1, m2 = rng.bits(16), rng.bits(16)
            if np.array_equal(m1, m2):
                continue
            collisions += int(
                np.array_equal(mac_tag(scheme, key, m1), mac_tag(scheme, key, m2))
            )
        bound = scheme.forgery_bound(16)  # blocks / 2^s
        sigma = np.sqrt(bound * (1 - bound) / trials)
        assert collisions / trials <= bound + 3 * sigma

    def test_forgery_rate_without_key_knowledge(self):
        scheme = MacScheme(6)
        rng = RandomStream(3)
        trials = 50_000
        accepted = 0
        for _ in range(trials):
            key = rng.bits(12)
            forged_msg, forged_tag = rng.bits(12), rng.bits(6)
            accepted += int(mac_verify(scheme, key, forged_msg, forged_tag))
        rate = accepted / trials
        base = 2**-6
        assert rate <= base + 3 * np.sqrt(base * (1 - base) / trials)

    @pytest.mark.parametrize("s", list(range(1, 9)) + [32])
    def test_packed_tag_equals_loop_oracle(self, s):
        scheme = MacScheme(s)
        root = RandomStream(5)
        for i in range(300):
            r = root.substream("case", i)
            key = r.bits(2 * s)
            message = r.bits(int(r.generator.integers(0, 3 * s + 2)))
            got = mac_tag(scheme, key, message)
            assert got.dtype == np.uint8
            assert got.tobytes() == loop_mac_tag(scheme, key, message).tobytes()

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            mac_tag(MacScheme(4), np.zeros(4, np.uint8), np.zeros(4, np.uint8))

    @pytest.mark.parametrize("bad", ["key", "message", "tag"])
    def test_non_bit_inputs_rejected(self, bad):
        scheme = MacScheme(4)
        args = {"key": np.zeros(8, np.uint8), "message": np.zeros(5, np.uint8),
                "tag": np.zeros(4, np.uint8)}
        args[bad][-1] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            mac_verify(scheme, args["key"], args["message"], args["tag"])
        if bad != "tag":
            with pytest.raises(ValueError, match="0 or 1"):
                mac_tag(scheme, args["key"], args["message"])

    def test_modulus_is_irreducible_degree_s(self):
        # trial division: the modulus is the lowest-valued irreducible
        # polynomial of degree s (even ones all have the factor x)
        for s in range(1, 17):
            mod = MacScheme(s).modulus
            assert mod.bit_length() == s + 1 and not _has_factor(mod), s
            assert all(_has_factor(f) for f in range((1 << s) | 1, mod, 2)), s

    def test_moduli_pinned(self):
        assert [MacScheme(s).modulus for s in range(1, 33)] == PINNED_MODULI

    def test_irreducibility_agrees_with_trial_division(self):
        for f in range(2, 1 << 11):
            assert ue._is_irreducible(f, f.bit_length() - 1) == (not _has_factor(f)), bin(f)

    def test_modulus_and_pair_are_not_settable(self):
        # the modulus is always the field's own, the pair always the stock one
        with pytest.raises(TypeError):
            MacScheme(4, 7)
        with pytest.raises(TypeError):
            UeParams(4, 4, gf2.default_dual_pair())
        assert MacScheme(4).modulus == 0b10011
        pair = UeParams(4, 4).pair
        assert gf2.is_dual_containing(pair.c1, pair.c2)
        q, h1 = pair.quotient_checks, pair.c1.parity_check
        assert not ((q @ pair.c2.parity_check.T) % 2).any()  # the rows lie in C2
        assert gf2.rank(np.vstack([h1, q])) == gf2.rank(h1) + pair.payload_bits

    @pytest.mark.parametrize("n, s", [(5, -1), (4, 40)])
    def test_tag_length_checked_when_params_are_built(self, n, s):
        # n + s is a whole number of blocks in both cases: only s is wrong
        with pytest.raises(ValueError, match=r"tag length must lie in \[1, 32\]"):
            UeParams(n, s)

    def test_params_share_one_stock_pair_with_unchanged_encodings(self):
        shared = UeParams(4, 4).pair
        assert UeParams(8, 6).pair is shared is gf2.default_dual_pair()
        fresh = gf2.DualContainingPair(c1=gf2.hamming74(), c2=gf2.hamming74())
        assert np.array_equal(shared.quotient_checks, fresh.quotient_checks)
        root = RandomStream(6)
        for i in range(200):
            r = root.substream("case", i)
            c1_syn, y = r.bits(3 * 8).reshape(8, 3), r.bits(8).reshape(8, 1)
            got = gf2.encode_ue_codeword(shared, c1_syn, y, r.substream("encoder"))
            want = gf2.encode_ue_codeword(fresh, c1_syn, y, r.substream("encoder"))
            assert got.tobytes() == want.tobytes()


class TestRoundTrip:
    def test_exact_on_random_messages(self, params):
        root = RandomStream(4)
        for i in range(300):
            r = root.substream("case", i)
            key = generate_ue_key(params, r.substream("key"))
            m = r.substream("msg").bits(params.n)
            states = ue_encrypt(params, key, m, r.substream("enc"))
            out = ue_decrypt(params, key, states, r.substream("dec"))
            assert out.accepted
            assert np.array_equal(out.message, m)

    def test_single_flip_per_block_corrected(self, params):
        root = RandomStream(5)
        key = generate_ue_key(params, root.substream("key"))
        m = gf2.bits("1010")
        # flip one qubit outcome per block by X-ing the state before decryption
        for pos_in_block in range(params.block_length):
            r = root.substream("flip", pos_in_block)
            states = ue_encrypt(params, key, m, r.substream("enc"))
            bits, hit = states.bits.copy(), np.zeros(len(states), dtype=bool)
            for blk in range(params.blocks):
                idx = blk * params.block_length + pos_in_block
                if key.b[idx]:  # diagonal encoding: Z maps it to the other diagonal state
                    bits[idx] ^= 1
                else:  # computational encoding: X flips it
                    hit[idx] = True
            tampered = Bb84Qubits(bits, states.bases).pauli_x(hit)
            out = ue_decrypt(params, key, tampered, r.substream("dec"))
            assert out.accepted and np.array_equal(out.message, m)

    def test_key_pad_cannot_be_edited_in_place(self, params):
        # the pad of a frozen key was writable, and decryption read the edited pad
        rng = RandomStream(8)
        key = generate_ue_key(params, rng.substream("key"))
        m = rng.substream("msg").bits(params.n)
        states = ue_encrypt(params, key, m, rng.substream("enc"))
        with pytest.raises(ValueError, match="read-only"):
            key.e[0] ^= 1
        out = ue_decrypt(params, key, states, rng.substream("dec"))
        assert out.accepted and np.array_equal(out.message, m)

    def test_same_message_different_streams_same_plaintext(self, params):
        root = RandomStream(6)
        key = generate_ue_key(params, root.substream("key"))
        m = gf2.bits("0110")
        s1 = ue_encrypt(params, key, m, root.substream("enc", 1))
        s2 = ue_encrypt(params, key, m, root.substream("enc", 2))
        z1 = ue_decrypt(params, key, s1, root.substream("dec", 1))
        z2 = ue_decrypt(params, key, s2, root.substream("dec", 2))
        assert not np.array_equal(z1.measured, z2.measured)  # nullspace randomness
        assert np.array_equal(z1.message, z2.message)

    def test_intercept_resend_rejected_regression(self, params):
        # frozen under the interceptor's three-vector draws: 1387 of 1500
        # tampered transmissions rejected
        master = RandomStream(0x7A11)
        adv = EvePolicy(1.0)
        rejected = 0
        trials = 1500
        for i in range(trials):
            r = master.substream("tamper", i)
            key = generate_ue_key(params, r.substream("key"))
            m = r.substream("msg").bits(params.n)
            states = ue_encrypt(params, key, m, r.substream("enc"))
            forwarded, _ = adv.intercept(states, r.substream("eve"))
            out = ue_decrypt(params, key, forwarded, r.substream("dec"))
            rejected += int(not out.accepted)
        assert rejected == 1387
        assert rejected / trials >= 1 - 2**-params.s - 0.05  # decoding survival term


class TestOtpUniformity:
    def test_padded_string_distribution(self, params):
        # with a uniform pad, the padded string is uniform whatever the message
        rng = RandomStream(7)
        counts = np.zeros(256, dtype=int)
        m = gf2.bits("1111")
        trials = 100_000
        scheme = params.scheme
        for _ in range(trials):
            e = rng.bits(8)
            k = rng.bits(scheme.key_bits)
            x = np.concatenate([m, mac_tag(scheme, k, m)])
            y = x ^ e
            counts[int("".join(map(str, y)), 2)] += 1
        _, p = stats.chisquare(counts)
        assert p > 1e-3


class TestFakePad:
    def test_fake_completeness_exhaustive(self):
        # every (m, m_fake) pair at n = 4: decryption under the faked key
        # yields exactly the fake message
        params = UeParams(n=4, s=4)
        root = RandomStream(8)
        key = generate_ue_key(params, root.substream("key"))
        for m_val in range(16):
            m = gf2.bits(format(m_val, "04b"))
            states = ue_encrypt(params, key, m, root.substream("enc", m_val))
            for f_val in range(16):
                m_fake = gf2.bits(format(f_val, "04b"))
                fake_key = ue_fake(params, key, m, m_fake,
                                   root.substream("fake", 16 * m_val + f_val))
                out = ue_decrypt(params, fake_key, states,
                                 root.substream("dec", 16 * m_val + f_val))
                assert out.accepted
                assert np.array_equal(out.message, m_fake), (m_val, f_val)

    def test_identity_case(self, params):
        # faking to the original message with the original MAC key returns
        # the original pad
        root = RandomStream(9)
        key = generate_ue_key(params, root.substream("key"))
        m = gf2.bits("1001")
        y = np.concatenate([m, mac_tag(params.scheme, key.k, m)]) ^ key.e
        rebuilt = y ^ np.concatenate([m, mac_tag(params.scheme, key.k, m)])
        assert np.array_equal(rebuilt, key.e)

    def test_judge_replay_accepts_fakes(self, params):
        # the adversary holds the full (codeword, basis) record and still
        # finds no inconsistency in the faked opening
        root = RandomStream(10)
        for i in range(1000):
            r = root.substream("sess", i)
            key = generate_ue_key(params, r.substream("key"))
            m = r.substream("m").bits(params.n)
            m_fake = r.substream("mf").bits(params.n)
            states = ue_encrypt(params, key, m, r.substream("enc"))
            out = ue_decrypt(params, key, states, r.substream("dec"))
            fake_key = ue_fake(params, key, m, m_fake, r.substream("fake"))
            assert fake_opens_consistently(params, fake_key, m_fake, out.measured)

    def test_replay_rejects_inconsistent_claims(self, params):
        root = RandomStream(11)
        key = generate_ue_key(params, root.substream("key"))
        m = gf2.bits("0011")
        states = ue_encrypt(params, key, m, root.substream("enc"))
        out = ue_decrypt(params, key, states, root.substream("dec"))
        wrong = gf2.bits("1100")
        # honest key but wrong claimed message: replay must fail
        assert not fake_opens_consistently(params, key, wrong, out.measured)

    def test_replay_rejects_a_record_off_the_key_syndromes(self, params):
        root = RandomStream(12)
        key = generate_ue_key(params, root.substream("key"))
        m = gf2.bits("0110")
        out = ue_decrypt(params, key, ue_encrypt(params, key, m, root.substream("enc")),
                         root.substream("dec"))
        assert fake_opens_consistently(params, key, m, out.measured)
        for block in range(params.blocks):
            record = out.measured.copy()
            record[block * params.block_length] ^= 1  # one bit off in this block
            assert not fake_opens_consistently(params, key, m, record)


class TestKeyJson:
    def test_round_trip(self, params):
        for i in range(20):
            key = generate_ue_key(params, RandomStream(50).substream("key", i))
            back = ue_key_from_json(params, ue_key_to_json(params, key))
            for name in ("k", "e", "c1_syn", "b"):
                assert np.array_equal(getattr(back, name), getattr(key, name))

    def test_other_parameters_rejected(self, params):
        text = ue_key_to_json(params, generate_ue_key(params, RandomStream(51)))
        for other in (UeParams(n=3, s=4), UeParams(n=4, s=3)):
            with pytest.raises(ValueError, match="different parameters"):
                ue_key_from_json(other, text)

    @pytest.mark.parametrize("field", ["k", "e", "c1_syn", "b"])
    def test_padding_bits_and_short_hex_rejected(self, field):
        params = UeParams(n=3, s=2)  # 4, 5, 15 and 35 bits: every field is padded
        data = json.loads(ue_key_to_json(params, generate_ue_key(params, RandomStream(52))))
        raw = bytes.fromhex(data[field])
        padded = raw[:-1] + bytes([raw[-1] | 1])  # set the last padding bit
        assert padded != raw
        for bad in (padded.hex(), raw[:-1].hex()):
            with pytest.raises(ValueError, match="exactly"):
                ue_key_from_json(params, json.dumps({**data, field: bad}))

    @pytest.mark.parametrize("field", ["k", "e", "c1_syn", "b"])
    def test_missing_or_non_string_field_rejected(self, field):
        params = UeParams(n=3, s=2)
        data = json.loads(ue_key_to_json(params, generate_ue_key(params, RandomStream(53))))
        missing = {name: value for name, value in data.items() if name != field}
        for doc in (missing, {**data, field: 5}, {**data, field: None}, {**data, field: ["00"]}):
            with pytest.raises(ValueError, match=f"field {field} must be a hex string"):
                ue_key_from_json(params, json.dumps(doc))
        with pytest.raises(ValueError):  # not hex at all
            ue_key_from_json(params, json.dumps({**data, field: "zz"}))

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", '"key"', "5", "null", "{", ""])
    def test_document_that_is_not_a_key_object_rejected(self, text):
        with pytest.raises(ValueError):
            ue_key_from_json(UeParams(n=3, s=2), text)


class TestQkeFromUe:
    def test_noiseless_key_agreement(self, params):
        root = RandomStream(12)
        for i in range(100):
            r = root.substream("run", i)
            key = generate_ue_key(params, r.substream("key"))
            result = qke_from_ue(params, key, r.substream("session"))
            assert result.accepted
            assert np.array_equal(result.key_alice, result.key_bob)
        labels = [m.label for m in result.transcript]
        assert labels == ["received", "mac-key", "valid"]

    def test_tampering_fails_session(self, params):
        root = RandomStream(13)
        failures = 0
        trials = 300
        for i in range(trials):
            r = root.substream("run", i)
            key = generate_ue_key(params, r.substream("key"))
            result = qke_from_ue(params, key, r.substream("session"),
                                 interceptor=EvePolicy(1.0))
            failures += int(not result.accepted)
            if not result.accepted:
                assert result.key_alice is None and result.key_bob is None
        assert failures / trials > 0.8  # matches the decrypt rejection rate

    def test_codeword_denial_caught_at_decoy_rate(self, params):
        # flipping claimed codeword bits against a decoy record is detected
        # at the same rate the plain protocol suffers: n_decoys / (2 N)
        root = RandomStream(14)
        n_qubits = params.n_qubits
        n_decoys = 14
        policy = EvePolicy(n_decoys / n_qubits)
        detected = 0
        trials = 4000
        for i in range(trials):
            r = root.substream("run", i)
            key = generate_ue_key(params, r.substream("key"))
            m = r.substream("msg").bits(params.n)
            states = ue_encrypt(params, key, m, r.substream("enc"))
            forwarded, record = policy.intercept(states, r.substream("eve"))
            out = ue_decrypt(params, key, forwarded, r.substream("dec"))
            # deny one uniformly chosen codeword bit, bases revealed honestly
            z_sent = states.bits
            pos = int(r.substream("flip").generator.integers(0, n_qubits))
            claimed = z_sent.copy()
            claimed[pos] ^= 1
            detected += int(judge_check(claimed, key.b, record) is not None)
        expect = n_decoys / (2 * n_qubits)
        sigma = np.sqrt(expect * (1 - expect) / trials)
        assert abs(detected / trials - expect) < 3.5 * sigma
