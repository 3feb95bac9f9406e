"""Client-side exposure detection.

Matches the downloaded feed against the local token store, validates
the encounter-time window, scores risk with fixed signal-strength
weights, and prepares uploads (including redaction and possession-proof
bundles).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from . import crypto
from .crypto import EncounterToken
from .device import TokenStore
from .wire import CIPHERTEXT_AT, PublishedFeed, Tag, TokenUploadRecord


class NotificationLevel(enum.Enum):
    DIRECT = "direct"
    SECOND_LEVEL = "second_level"


#: Signal-strength bands of the risk score: an encounter heard at
#: ``NEAR_DBM`` or stronger weighs ``NEAR_WEIGHT``, at ``MID_DBM`` or
#: stronger ``MID_WEIGHT``, and weaker ``FAR_WEIGHT``.
NEAR_DBM = -60.0
MID_DBM = -75.0
NEAR_WEIGHT = 1.0
MID_WEIGHT = 0.5
FAR_WEIGHT = 0.25


@dataclass(frozen=True)
class ExposureNotification:
    matched_hash: bytes
    level: NotificationLevel
    superspreader_flag: bool
    encounter_time: int
    duration: int
    risk_score: float
    #: the store's token that matched
    token: EncounterToken


def risk_score(duration: int, max_rssi: float) -> float:
    """Exposure minutes weighted by proximity band; monotone
    non-decreasing in both arguments."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if max_rssi >= NEAR_DBM:
        weight = NEAR_WEIGHT
    elif max_rssi >= MID_DBM:
        weight = MID_WEIGHT
    else:
        weight = FAR_WEIGHT
    return (duration / 60.0) * weight


def _level_for(tag: Tag) -> tuple[NotificationLevel, bool]:
    if tag is Tag.SECOND_LEVEL:
        return NotificationLevel.SECOND_LEVEL, False
    if tag is Tag.POSSIBLE_SUPERSPREADER:
        return NotificationLevel.DIRECT, True
    return NotificationLevel.DIRECT, False


def match_feed(
    store: TokenStore, feed: PublishedFeed, epsilon: int
) -> list[ExposureNotification]:
    """Evaluate every feed record against the local store.

    A record matches a local token when the published hash equals the
    token's hash, the metadata decrypts under the token secret, and the
    embedded remote timestamp is within ``epsilon`` seconds of the
    locally recorded one.  Everything else is silently a non-match.
    The feed is read in place: its frames are scanned for the tokens'
    hashes (``PublishedFeed.hits``), only a frame whose hash is a local
    token's has its ciphertext copied out and decrypted, and none
    becomes a record or frame object.
    Output order is deterministic: encounter time, then hash bytes.
    """
    by_hash: dict[bytes, list[EncounterToken]] = {}
    for token in store.tokens():
        if token.secret is None:
            continue
        by_hash.setdefault(crypto.token_hash(token.secret), []).append(token)

    buf = feed.buffer
    notifications = []
    for digest, start, tag_at in feed.hits(by_hash):
        tokens = by_hash[digest]
        ciphertext = bytes(buf[start + CIPHERTEXT_AT : tag_at])
        for token in tokens:
            try:
                remote_time = crypto.decrypt_metadata(token.secret, ciphertext)
            except crypto.AuthenticationFailure:
                continue
            if abs(remote_time - token.start_time) > epsilon:
                continue
            level, flagged = _level_for(Tag(buf[tag_at]))
            notifications.append(
                ExposureNotification(
                    matched_hash=digest,
                    level=level,
                    superspreader_flag=flagged,
                    encounter_time=token.start_time,
                    duration=token.duration,
                    risk_score=risk_score(token.duration, token.max_signal_strength),
                    token=token,
                )
            )
    notifications.sort(key=lambda n: (n.encounter_time, n.matched_hash, n.level.value))
    return notifications


def detect_superspreader_candidate(
    store: TokenStore, matched_hashes: set[bytes]
) -> list[bytes]:
    """Bundle of local token secrets to submit as a possession proof:
    the secret of each matched hash, once, in store order; empty if no
    local token has one.

    ``matched_hashes`` are the hashes of the directly matched records.
    The caller applies the superspreader threshold to the bundle's
    length, so counting is per distinct matched record, not per
    uploader: the feed is shuffled, so uploaders are indistinguishable
    here.
    """
    secrets = []
    seen = set()
    for token in store.tokens():
        if token.secret is None:
            continue
        h = crypto.token_hash(token.secret)
        if h in matched_hashes and h not in seen:
            seen.add(h)
            secrets.append(token.secret)
    return secrets


def redact_tokens(
    store: TokenStore, predicate: Callable[[EncounterToken], bool]
) -> list[EncounterToken]:
    """Upload view of the store without the tokens the predicate
    selects for removal; the store itself is untouched."""
    return [token for token in store.tokens() if not predicate(token)]


def build_upload_records(
    tokens: Iterable[EncounterToken], tag: Tag = Tag.DIRECT
) -> list[TokenUploadRecord]:
    """Hash-and-encrypt the given tokens, whose secrets are derived,
    into publishable records."""
    records = []
    for token in tokens:
        records.append(
            TokenUploadRecord(
                hash=crypto.token_hash(token.secret),
                ciphertext=crypto.encrypt_metadata(token.secret, token.start_time),
                tag=tag,
            )
        )
    return records
