"""Crypto core: derivations, widths, and the independent curve oracle."""

import json
import random
from importlib import resources

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ec_oracle
from tracecorona import crypto


def reference_hkdf(ikm, salt, info, length):
    """HKDF-SHA256 from ``cryptography``'s own HKDF class, independent of
    the module's HMAC-based helper."""
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=salt, info=info).derive(ikm)


def _each_length(count):
    """Add one example of every length below ``count``: bytes counting up
    from 0, the single zero byte among them."""

    def add(test):
        for n in range(count):
            test = example(bytes(range(n)))(test)
        return test

    return add


def keypair(seed, frame=0):
    return crypto.generate_frame_keypair(frame, random.Random(seed))


class TestFrameKeypair:
    def test_deterministic_for_seed_and_frame(self):
        assert keypair(42, 0) == keypair(42, 0)

    def test_fresh_key_per_frame(self):
        a, b = keypair(42, 0), keypair(42, 1)
        assert a.private_key != b.private_key
        assert a.public_key != b.public_key

    def test_public_key_matches_scalar_mult_oracle(self):
        for seed in (1, 2, 3, 99):
            kp = keypair(seed, 5)
            d = int.from_bytes(kp.private_key, "big")
            assert ec_oracle.public_key_x(d) == kp.public_key

    def test_wire_widths(self):
        kp = keypair(9)
        assert len(kp.private_key) == 32
        assert len(kp.public_key) == 48

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            crypto.generate_frame_keypair(-1, random.Random(0))


class TestDeriveToken:
    def test_commutative(self):
        a, b = keypair(1), keypair(2)
        assert crypto.derive_token(a.private_key, b.public_key) == crypto.derive_token(
            b.private_key, a.public_key
        )

    def test_agreement_over_1000_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(1000):
            a = crypto.generate_frame_keypair(rng.randrange(1000), rng)
            b = crypto.generate_frame_keypair(rng.randrange(1000), rng)
            t1 = crypto.derive_token(a.private_key, b.public_key)
            t2 = crypto.derive_token(b.private_key, a.public_key)
            assert t1 == t2
            assert len(t1) == 32

    def test_matches_independent_ecdh_oracle(self):
        a, b = keypair(5), keypair(6)
        shared = ec_oracle.shared_x(int.from_bytes(a.private_key, "big"), b.public_key)
        expected = reference_hkdf(shared, b"tc-et", b"", 32)
        assert crypto.derive_token(a.private_key, b.public_key) == expected

    def test_identity_element_rejected(self):
        a = keypair(1)
        with pytest.raises(crypto.InvalidPoint):
            crypto.derive_token(a.private_key, b"\x00")

    def test_off_curve_x_rejected(self):
        a = keypair(1)
        # x = 1 has no square root of x^3 - 3x + b on secp384r1
        assert ec_oracle.lift_x(1) is None
        with pytest.raises(crypto.InvalidPoint):
            crypto.derive_token(a.private_key, (1).to_bytes(48, "big"))

    def test_wrong_length_rejected(self):
        a = keypair(1)
        with pytest.raises(crypto.InvalidPoint):
            crypto.derive_token(a.private_key, b"\x02" * 33)

    def test_out_of_field_x_rejected(self):
        a = keypair(1)
        with pytest.raises(crypto.InvalidPoint):
            crypto.derive_token(a.private_key, b"\xff" * 48)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=0, max_value=2**384 - 1).map(lambda x: x.to_bytes(48, "big")),
            st.integers(min_value=0, max_value=100).flatmap(
                lambda n: st.binary(min_size=n, max_size=n)
            ),
        )
    )
    @example(ec_oracle.P.to_bytes(48, "big"))
    @example((ec_oracle.P + 1).to_bytes(48, "big"))
    @example((2**384 - 1).to_bytes(48, "big"))
    @_each_length(101)
    def test_accepts_exactly_the_oracle_points(self, encoded):
        """Only a 48-byte x below P that the oracle lifts is a point; the
        backend's decoder refuses every other length by itself."""
        x = int.from_bytes(encoded, "big")
        on_curve = len(encoded) == 48 and x < ec_oracle.P and ec_oracle.lift_x(x) is not None
        try:
            crypto.validate_public_key(encoded)
        except crypto.InvalidPoint:
            assert not on_curve
        else:
            assert on_curve

    def test_zero_scalar_refused(self):
        with pytest.raises(ValueError):
            crypto.derive_token(bytes(32), keypair(1).public_key)


class TestTokenHash:
    def test_deterministic_and_16_bytes(self):
        secret = bytes(range(32))
        assert crypto.token_hash(secret) == crypto.token_hash(secret)
        assert len(crypto.token_hash(secret)) == 16

    def test_collision_sweep_100k(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(100_000):
            h = crypto.token_hash(rng.randbytes(32))
            assert h not in seen
            seen.add(h)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            crypto.token_hash(b"short")


class TestMetadataEncryption:
    def test_round_trip(self):
        secret = bytes(range(32))
        ct = crypto.encrypt_metadata(secret, 1_600_000_123)
        assert crypto.decrypt_metadata(secret, ct) == 1_600_000_123

    def test_wrong_secret_fails(self):
        ct = crypto.encrypt_metadata(bytes(32), 42)
        with pytest.raises(crypto.AuthenticationFailure):
            crypto.decrypt_metadata(bytes([1]) + bytes(31), ct)

    def test_bit_flip_fails(self):
        secret = bytes(range(32))
        ct = bytearray(crypto.encrypt_metadata(secret, 42))
        ct[len(ct) // 2] ^= 0x01
        with pytest.raises(crypto.AuthenticationFailure):
            crypto.decrypt_metadata(secret, bytes(ct))

    def test_truncated_ciphertext_fails(self):
        secret = bytes(range(32))
        ct = crypto.encrypt_metadata(secret, 42)
        with pytest.raises(crypto.AuthenticationFailure):
            crypto.decrypt_metadata(secret, ct[:-5])

    def test_deterministic(self):
        secret = bytes(range(32))
        assert crypto.encrypt_metadata(secret, 7) == crypto.encrypt_metadata(secret, 7)

    @given(t=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, t):
        secret = b"\xab" * 32
        assert crypto.decrypt_metadata(secret, crypto.encrypt_metadata(secret, t)) == t

    def test_domain_separation_from_hash(self):
        # published hash and metadata key must be unrelated outputs
        rng = random.Random(11)
        for _ in range(10_000):
            secret = rng.randbytes(32)
            h = crypto.token_hash(secret)
            key = crypto._metadata_key(secret)
            assert h != key[:16]
            assert h != key[16:]


class TestTempIds:
    def test_centralized_deterministic_and_distinct(self):
        uid = b"u" * 16
        assert crypto.derive_tempid_centralized(uid, 3) == crypto.derive_tempid_centralized(uid, 3)
        assert crypto.derive_tempid_centralized(uid, 3) != crypto.derive_tempid_centralized(uid, 4)

    def test_centralized_server_rederivation_full_day(self):
        uid = b"\x05" * 16
        client_side = [crypto.derive_tempid_centralized(uid, t_k) for t_k in range(96)]
        server_side = [crypto.derive_tempid_centralized(uid, t_k) for t_k in range(96)]
        assert client_side == server_side
        assert len(set(client_side)) == 96

    def test_bluetrace_iv_sensitivity(self):
        uid, master = b"u" * 16, b"m" * 32
        a = crypto.derive_tempid_bluetrace(uid, 1, b"i" * 16, b"t", master)
        b = crypto.derive_tempid_bluetrace(uid, 1, b"j" * 16, b"t", master)
        assert a != b
        assert a == crypto.derive_tempid_bluetrace(uid, 1, b"i" * 16, b"t", master)

    def test_bluetrace_outputs_look_random_without_master_key(self):
        # bit-balance distinguishing test over 10^4 samples
        rng = random.Random(3)
        master = rng.randbytes(32)
        ones = 0
        samples = 10_000
        outputs = set()
        for i in range(samples):
            tid = crypto.derive_tempid_bluetrace(
                b"u" * 16, i, rng.randbytes(16), b"t", master
            )
            outputs.add(tid)
            ones += sum(bin(byte).count("1") for byte in tid)
        assert len(outputs) == samples
        total_bits = samples * 128
        balance = ones / total_bits
        assert abs(balance - 0.5) < 0.01

    def test_decentralized_day_has_144_slots(self):
        tids = crypto.derive_tempids_decentralized(b"k" * 16, 5)
        assert len(tids) == 144
        assert len(set(tids)) == 144

    def test_decentralized_slot0_matches_single_derivation(self):
        tek = b"k" * 16
        assert crypto.derive_tempids_decentralized(tek, 5)[0] == crypto.derive_tempid_decentralized(tek, 5, 0)

    def test_decentralized_matches_slot_loop_oracle(self):
        tek = bytes(range(16))
        oracle = []
        for slot in range(144):
            info = (9).to_bytes(8, "big") + slot.to_bytes(2, "big")
            oracle.append(reference_hkdf(tek, b"tc-decentral", info, 16))
        assert crypto.derive_tempids_decentralized(tek, 9) == oracle


class TestHkdf:
    """The one-extract HKDF helper against ``cryptography``'s HKDF class,
    and the decentralized day table against its per-slot form."""

    @settings(max_examples=200, deadline=None)
    @given(
        ikm=st.binary(max_size=64),
        salt=st.binary(min_size=1, max_size=32),
        info=st.binary(max_size=16),
        # 40 bytes take two expand blocks, as a frame keypair's scalar does
        length=st.sampled_from([16, 32, 40]),
    )
    def test_matches_hkdf_class(self, ikm, salt, info, length):
        assert crypto._hkdf(ikm, salt, info, length) == reference_hkdf(ikm, salt, info, length)

    @settings(max_examples=25, deadline=None)
    @given(tek=st.binary(min_size=16, max_size=16), day=st.integers(0, 2**32))
    def test_day_table_is_the_per_slot_identifiers(self, tek, day):
        table = crypto.derive_tempids_decentralized(tek, day)
        assert table == [
            crypto.derive_tempid_decentralized(tek, day, slot)
            for slot in range(crypto.DECENTRALIZED_SLOTS_PER_DAY)
        ]

    @settings(max_examples=20, deadline=None)
    @given(tek=st.one_of(st.binary(min_size=15, max_size=15),
                         st.binary(min_size=17, max_size=17)))
    def test_day_table_rejects_a_tek_of_another_width(self, tek):
        with pytest.raises(ValueError):
            crypto.derive_tempids_decentralized(tek, 3)


class TestTimeFramePolicy:
    def test_defaults(self):
        policy = crypto.TimeFramePolicy()
        assert policy.frame_period == 900
        assert policy.min_encounter_duration == 300

    def test_encounter_duration_bound(self):
        with pytest.raises(ValueError):
            crypto.TimeFramePolicy(min_encounter_duration=901)

    def test_frame_arithmetic(self):
        policy = crypto.TimeFramePolicy()
        assert policy.frame_of(0) == 0
        assert policy.frame_of(899) == 0
        assert policy.frame_of(900) == 1
        assert policy.frame_end(2) == 2700


class TestGoldenVectors:
    def test_vectors_match(self):
        data = json.loads(
            (resources.files("tracecorona") / "vectors" / "crypto_vectors.json").read_text()
        )
        for entry in data["frame_keypairs"]:
            kp = crypto.generate_frame_keypair(
                entry["frame_index"], random.Random(entry["seed"])
            )
            assert kp.private_key.hex() == entry["private_key"]
            assert kp.public_key.hex() == entry["public_key"]
        for entry in data["tokens"]:
            token = crypto.derive_token(
                bytes.fromhex(entry["private_a"]), bytes.fromhex(entry["public_b"])
            )
            assert token.hex() == entry["token_secret"]
            assert crypto.token_hash(token).hex() == entry["token_hash"]
            ct = crypto.encrypt_metadata(token, entry["start_time"])
            assert ct.hex() == entry["metadata_ciphertext"]

    def test_oracle_shared_x_in_vectors(self):
        data = json.loads(
            (resources.files("tracecorona") / "vectors" / "crypto_vectors.json").read_text()
        )
        for entry in data["tokens"]:
            shared = ec_oracle.shared_x(
                int.from_bytes(bytes.fromhex(entry["private_a"]), "big"),
                bytes.fromhex(entry["public_b"]),
            )
            assert shared.hex() == entry["oracle_shared_x"]
