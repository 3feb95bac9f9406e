"""Cryptographic primitives for encounter-token contact tracing.

Byte widths are part of the wire contract:

* frame private key: 32-byte big-endian scalar on secp384r1
* frame public key: 48 bytes, the x coordinate only, big endian
  (x-only is enough for ECDH: the shared x coordinate is invariant
  under point negation, so either square root of the curve equation
  yields the same token)
* encounter token secret: 32 bytes
* published token hash: 16 bytes (truncated SHA-256)
* encrypted metadata: 12-byte nonce || AES-GCM ciphertext of the
  8-byte big-endian unix timestamp

HKDF is HKDF-SHA256 (RFC 5869) computed from HMAC: one extract per
(input key, salt), then each info's expand from a copy of the one keyed
HMAC state.  A decentralized day's 144 slot identifiers
(:func:`derive_tempids_decentralized`) therefore cost one extract;
:func:`derive_tempid_decentralized` is the per-slot form of the same
derivation.

Every derivation is a pure function of its inputs.  Randomness enters
only through the explicit ``rng`` argument of
:func:`generate_frame_keypair`, which makes key schedules reproducible
from a scenario seed.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes, hmac
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

CURVE = ec.SECP384R1()

PRIVATE_KEY_BYTES = 32
PUBLIC_KEY_BYTES = 48
TOKEN_SECRET_BYTES = 32
TOKEN_HASH_BYTES = 16
TEMPID_BYTES = 16
TEK_BYTES = 16

#: 10-minute broadcast identifier slots per day used by the
#: decentralized baseline (24 x 6).
DECENTRALIZED_SLOTS_PER_DAY = 144
DECENTRALIZED_SLOT_SECONDS = 600

# Domain separation labels.  "tc-hash" and "tc-meta" are the two wire
# relevant ones: the published hash and the metadata encryption key must
# be unrelated even though both derive from the same token secret.
_LABEL_HASH = b"tc-hash"
_LABEL_META = b"tc-meta"
_LABEL_NONCE = b"tc-nonce"
_LABEL_TOKEN = b"tc-et"
_LABEL_FRAME_KEY = b"tc-frame-key"
_LABEL_CENTRAL = b"tc-central"
_LABEL_BLUETRACE = b"tc-bluetrace"
_LABEL_DECENTRAL = b"tc-decentral"


class InvalidPoint(Exception):
    """Peer public key failed curve validation."""


class AuthenticationFailure(Exception):
    """AEAD authentication failed: wrong key, tampering, or a
    truncated-hash collision that did not survive decryption."""


@dataclass(frozen=True)
class FrameKeyPair:
    """Ephemeral ECDH keypair for one rolling time frame.

    ``private_key`` must never leave the device: it is excluded from
    wire messages, logs, and report snapshots.  ``key`` is the same
    scalar as a curve key object, built once with the public key so that
    each exchange need not build it again.
    """

    frame_index: int
    private_key: bytes
    public_key: bytes
    key: ec.EllipticCurvePrivateKey = field(compare=False, repr=False)


@dataclass(frozen=True)
class TimeFramePolicy:
    """Timing parameters shared by both sides of an encounter.

    ``frame_period`` is the rolling-key frame length T.  The match
    window epsilon is not a device parameter: the scenario config holds
    it and hands it to ``exposure.match_feed``.
    """

    frame_period: int = 900
    min_encounter_duration: int = 300

    def __post_init__(self) -> None:
        if self.min_encounter_duration > self.frame_period:
            raise ValueError("min_encounter_duration must not exceed frame_period")

    def frame_of(self, t: int) -> int:
        return t // self.frame_period

    def frame_end(self, frame_index: int) -> int:
        return (frame_index + 1) * self.frame_period


@dataclass
class EncounterToken:
    """Shared secret established between two co-located devices, plus
    the metadata recorded alongside it.

    ``secret`` is ``None`` while derivation is deferred to a charging
    tick.  ``peer_hint`` (the peer's device) and ``via`` (the relay the
    handshake ran through, ``None`` for a direct one) are simulator-side
    ground truth: no protocol step reads them, and they are never
    uploaded or included in reports.
    """

    secret: bytes | None
    start_time: int
    duration: int
    max_signal_strength: float
    frame_index: int
    peer_hint: str = ""
    via: int | None = None


_SHA256 = hashes.SHA256()


def _hkdf_each(ikm: bytes, salt: bytes, infos: Iterable[bytes], length: int) -> list[bytes]:
    """HKDF-SHA256 output of ``length`` bytes for each of ``infos``, in
    order: one extract, then each expand from a copy of the keyed state."""
    extract = hmac.HMAC(salt, _SHA256)
    extract.update(ikm)
    keyed = hmac.HMAC(extract.finalize(), _SHA256)
    counters = range(1, -(-length // _SHA256.digest_size) + 1)
    okms = []
    for info in infos:
        okm = block = b""
        for counter in counters:
            step = keyed.copy()
            step.update(block + info + bytes((counter,)))
            block = step.finalize()
            okm += block
        okms.append(okm[:length])
    return okms


def _hkdf(ikm: bytes, label: bytes, info: bytes, length: int) -> bytes:
    [okm] = _hkdf_each(ikm, label, (info,), length)
    return okm


def generate_frame_keypair(frame_index: int, rng) -> FrameKeyPair:
    """Generate the ephemeral keypair for frame ``frame_index``.

    Deterministic in (rng seed, frame_index): the frame index is mixed
    into the scalar derivation, so rebuilding the rng from the same seed
    reproduces the exact keypair for any frame, in any order.
    """
    if frame_index < 0:
        raise ValueError("frame_index must be non-negative")
    material = rng.randbytes(32)
    widened = _hkdf(
        material,
        _LABEL_FRAME_KEY,
        frame_index.to_bytes(8, "big"),
        40,
    )
    # Reduce 320 bits into the 32-byte scalar space; the surplus keeps
    # the modulo bias negligible.
    scalar = int.from_bytes(widened, "big") % (2**256 - 1) + 1
    private = scalar.to_bytes(PRIVATE_KEY_BYTES, "big")
    key = ec.derive_private_key(scalar, CURVE)
    public = key.public_key().public_numbers().x.to_bytes(PUBLIC_KEY_BYTES, "big")
    return FrameKeyPair(frame_index=frame_index, private_key=private, public_key=public, key=key)


def validate_public_key(peer_public: bytes) -> ec.EllipticCurvePublicKey:
    """Decode a peer's x-only public key into a curve point, rejecting
    encodings that do not name a valid, non-identity point.

    The backend's point decoder takes only a 48-byte x coordinate below
    the field prime for which the curve equation has a square root; it
    refuses any other length, the identity's single zero byte among them.
    """
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(CURVE, b"\x02" + peer_public)
    except ValueError as exc:
        raise InvalidPoint("not the x coordinate of a curve point") from exc


def derive_token(
    own_private: bytes | ec.EllipticCurvePrivateKey,
    peer_public: bytes | ec.EllipticCurvePublicKey,
) -> bytes:
    """ECDH-agree on a 32-byte encounter token secret.

    ``own_private`` is the 32-byte scalar or, as a device passes it, the
    key object of its ``FrameKeyPair``.  ``peer_public`` is the peer's
    encoded key or, as a deferred derivation passes it, the point
    ``validate_public_key`` already decoded from it.  Commutative:
    ``derive_token(d_i, Q_j) == derive_token(d_j, Q_i)``.  The shared x
    coordinate is passed through HKDF so the token secret is uniformly
    32 bytes regardless of curve structure.
    """
    if isinstance(own_private, bytes):
        # the backend refuses a zero scalar, but not a longer one
        if len(own_private) != PRIVATE_KEY_BYTES:
            raise ValueError("private key must be 32 bytes")
        own_private = ec.derive_private_key(int.from_bytes(own_private, "big"), CURVE)
    if isinstance(peer_public, bytes):
        peer_public = validate_public_key(peer_public)
    shared_x = own_private.exchange(ec.ECDH(), peer_public)
    return _hkdf(shared_x, _LABEL_TOKEN, b"", TOKEN_SECRET_BYTES)


def token_hash(secret: bytes) -> bytes:
    """128-bit published hash of a token secret.

    Full SHA-256 under the "tc-hash" label, truncated to 16 bytes; a
    truncation collision is disambiguated downstream by AEAD failure.
    """
    if len(secret) != TOKEN_SECRET_BYTES:
        raise ValueError("token secret must be 32 bytes")
    return hashlib.sha256(_LABEL_HASH + secret).digest()[:TOKEN_HASH_BYTES]


def _metadata_key(secret: bytes) -> bytes:
    return _hkdf(secret, _LABEL_META, b"", 32)


def encrypt_metadata(secret: bytes, start_time: int) -> bytes:
    """Authenticated encryption of the encounter timestamp under the
    token secret.

    Deterministic: the nonce is derived from (secret, plaintext), which
    is safe because each key encrypts at most a handful of distinct
    timestamps and identical inputs may repeat freely.
    """
    if len(secret) != TOKEN_SECRET_BYTES:
        raise ValueError("token secret must be 32 bytes")
    if not 0 <= start_time < 2**64:
        raise ValueError("timestamp out of range")
    plaintext = start_time.to_bytes(8, "big")
    nonce = hashlib.sha256(_LABEL_NONCE + secret + plaintext).digest()[:12]
    ciphertext = AESGCM(_metadata_key(secret)).encrypt(nonce, plaintext, None)
    return nonce + ciphertext


def decrypt_metadata(secret: bytes, ciphertext: bytes) -> int:
    """Recover the embedded timestamp, or raise AuthenticationFailure.

    Callers treat the failure as a non-match: it signals either a
    forged record or a 128-bit hash truncation collision.
    """
    if len(secret) != TOKEN_SECRET_BYTES:
        raise ValueError("token secret must be 32 bytes")
    if len(ciphertext) < 12 + 16:
        raise AuthenticationFailure("ciphertext too short")
    nonce, body = ciphertext[:12], ciphertext[12:]
    try:
        plaintext = AESGCM(_metadata_key(secret)).decrypt(nonce, body, None)
    except InvalidTag as exc:
        raise AuthenticationFailure("metadata authentication failed") from exc
    if len(plaintext) != 8:
        raise AuthenticationFailure("unexpected plaintext length")
    return int.from_bytes(plaintext, "big")


def derive_tempid_centralized(user_id: bytes, t_k: int) -> bytes:
    """Temporary identifier of the generic centralized baseline:
    HKDF over the pseudonymous user id and the interval index."""
    return _hkdf(user_id, _LABEL_CENTRAL, t_k.to_bytes(8, "big"), TEMPID_BYTES)


def derive_tempid_bluetrace(
    user_id: bytes,
    t_k: int,
    iv: bytes,
    auth_tag: bytes,
    master_key: bytes,
) -> bytes:
    """Server-side temporary identifier keyed by a master key.

    Without ``master_key`` the output is indistinguishable from random,
    so clients cannot rederive their own identifiers.
    """
    if len(iv) != 16:
        raise ValueError("iv must be 16 bytes")
    if len(master_key) != 32:
        raise ValueError("master key must be 32 bytes")
    ikm = user_id + t_k.to_bytes(8, "big") + iv + auth_tag
    return _hkdf(ikm, master_key, _LABEL_BLUETRACE, TEMPID_BYTES)


def derive_tempid_decentralized(tek: bytes, day: int, slot: int) -> bytes:
    """Single 10-minute-slot identifier derived from a daily key: entry
    ``slot`` of :func:`derive_tempids_decentralized`."""
    if len(tek) != TEK_BYTES:
        raise ValueError("tek must be 16 bytes")
    if not 0 <= slot < DECENTRALIZED_SLOTS_PER_DAY:
        raise ValueError("slot out of range")
    info = day.to_bytes(8, "big") + slot.to_bytes(2, "big")
    return _hkdf(tek, _LABEL_DECENTRAL, info, TEMPID_BYTES)


def derive_tempids_decentralized(tek: bytes, day: int) -> list[bytes]:
    """All 144 identifiers of one device-day, slot order, from one
    extract of the daily key."""
    if len(tek) != TEK_BYTES:
        raise ValueError("tek must be 16 bytes")
    prefix = day.to_bytes(8, "big")
    infos = (prefix + slot.to_bytes(2, "big") for slot in range(DECENTRALIZED_SLOTS_PER_DAY))
    return _hkdf_each(tek, _LABEL_DECENTRAL, infos, TEMPID_BYTES)
