"""Client device state machine for the encounter-token scheme.

A device advertises a rotating ephemeral identifier, scans for peers,
and opens a handshake once a peer has been observed continuously for
the minimum encounter duration.  Completed handshakes yield encounter
tokens kept in a 14-day local store.

All times handed to a device are true simulation seconds; the device
converts to its own (possibly skewed) local clock internally, and every
recorded timestamp is local.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from dataclasses import dataclass

from . import crypto
from .crypto import EncounterToken, FrameKeyPair, TimeFramePolicy

#: Fixed application identifier broadcast in every advertising message.
APP_UUID = hashlib.sha256(b"tc-app-uuid").digest()[:16]

#: Advertising duty cycle: per minute, 40 s on followed by 20 s idle.
ADVERTISE_PERIOD = 60
ADVERTISE_ON = 40
#: Scanning duty cycle: per 50 s, 30 s on followed by 20 s idle.
SCAN_PERIOD = 50
SCAN_ON = 30
#: Continuous observation breaks after this many seconds of silence;
#: the duty cycles above guarantee a sighting at least every 2 minutes.
CONTINUITY_GAP = 120
#: Reliable concurrent BLE connection budget of a handset.
MAX_OPEN_CHANNELS = 8

RETENTION_DAYS = 14


class FrameMismatch(Exception):
    """Handshake peers disagree on the current time frame."""


@dataclass(frozen=True)
class BeaconMessage:
    """One advertising message: app UUID plus the rotating ephemeral id
    (the 256-bit payload broadcast on the proximity channel)."""

    uuid: bytes
    ephemeral_id: bytes


@dataclass
class NeighborObservation:
    first_seen: int
    last_seen: int
    #: strongest RSSI heard since ``first_seen``
    max_rssi: float


@dataclass(frozen=True)
class HandshakeRequest:
    """Emitted by a scanning device once a neighbor crosses the dwell
    threshold; the network layer routes it to the peer."""

    peer_ephemeral_id: bytes
    frame_index: int


class TokenStore:
    """Local encounter tokens, at most one per (frame, peer context)."""

    def __init__(self, retention_days: int = RETENTION_DAYS):
        self.retention_days = retention_days
        self._tokens: dict[tuple[int, bytes], EncounterToken] = {}

    def add(self, frame_index: int, peer_ephemeral_id: bytes, token: EncounterToken) -> None:
        self._tokens[(frame_index, peer_ephemeral_id)] = token

    def get(self, frame_index: int, peer_ephemeral_id: bytes) -> EncounterToken | None:
        return self._tokens.get((frame_index, peer_ephemeral_id))

    def tokens(self) -> list[EncounterToken]:
        return list(self._tokens.values())

    def items(self) -> list[tuple[tuple[int, bytes], EncounterToken]]:
        return list(self._tokens.items())

    def __len__(self) -> int:
        return len(self._tokens)

    def purge(self, now_local: int) -> int:
        horizon = now_local - self.retention_days * 86400
        stale = [k for k, t in self._tokens.items() if t.start_time < horizon]
        for key in stale:
            del self._tokens[key]
        return len(stale)


class Device:
    """One simulated handset running the token protocol."""

    def __init__(
        self,
        device_id: str,
        identity_seed: bytes,
        policy: TimeFramePolicy | None = None,
        clock_offset: int = 0,
        retention_days: int = RETENTION_DAYS,
        derive_mode: str = "eager",
    ):
        if derive_mode not in ("eager", "deferred"):
            raise ValueError("derive_mode must be 'eager' or 'deferred'")
        self.device_id = device_id
        self.policy = policy or TimeFramePolicy()
        self.clock_offset = clock_offset
        self.derive_mode = derive_mode
        self.store = TokenStore(retention_days)
        self._identity_seed = identity_seed
        self._key_seed = int.from_bytes(
            hashlib.sha256(b"tc-key" + identity_seed).digest(), "big"
        )
        self._neighbors: dict[bytes, NeighborObservation] = {}
        self._pending_handshakes: set[tuple[int, bytes]] = set()
        #: (frame, peer identifier) -> the frame's private key and the peer's
        #: public key, as the point its validation decoded
        self._pending_derivations: dict[tuple[int, bytes], tuple] = {}
        self._keypair_cache: dict[int, FrameKeyPair] = {}
        self._open_channels = 0
        self.peak_open_channels = 0

    # -- clocks and rotation ------------------------------------------------

    def local_time(self, now: int) -> int:
        return now + self.clock_offset

    def current_frame(self, now: int) -> int:
        return self.policy.frame_of(self.local_time(now))

    def ephemeral_id(self, frame_index: int) -> bytes:
        digest = hashlib.sha256(
            b"tc-ei" + self._identity_seed + frame_index.to_bytes(8, "big")
        )
        return digest.digest()[:16]

    def keypair(self, frame_index: int) -> FrameKeyPair:
        """The frame's keypair.  The four latest frames' keypairs are kept;
        a deferred derivation holds its own frame's private key, so
        ``charge`` needs none of them."""
        kp = self._keypair_cache.get(frame_index)
        if kp is None:
            kp = crypto.generate_frame_keypair(
                frame_index, random.Random(self._key_seed)
            )
            self._keypair_cache[frame_index] = kp
            if len(self._keypair_cache) > 4:
                del self._keypair_cache[min(self._keypair_cache)]
        return kp

    def is_advertising(self, now: int) -> bool:
        return self.local_time(now) % ADVERTISE_PERIOD < ADVERTISE_ON

    def is_scanning(self, now: int) -> bool:
        return self.local_time(now) % SCAN_PERIOD < SCAN_ON

    # -- neighbor tracking --------------------------------------------------

    def on_beacon(self, beacon: BeaconMessage, rssi: float, now: int) -> HandshakeRequest | None:
        """Record a sighting; request a handshake once the dwell
        threshold is crossed and no token exists for this peer+frame."""
        if not self.is_scanning(now):
            return None
        if beacon.uuid != APP_UUID:
            return None
        local = self.local_time(now)
        ei = beacon.ephemeral_id
        obs = self._neighbors.get(ei)
        if obs is None or local - obs.last_seen > CONTINUITY_GAP:
            obs = NeighborObservation(first_seen=local, last_seen=local, max_rssi=rssi)
            self._neighbors[ei] = obs
        else:
            obs.last_seen = local
            obs.max_rssi = max(obs.max_rssi, rssi)

        if local - obs.first_seen < self.policy.min_encounter_duration:
            return None
        frame = self.policy.frame_of(local)
        key = (frame, ei)
        if self.store.get(frame, ei) is not None or key in self._pending_handshakes:
            self._refresh_token(frame, ei)
            return None
        self._pending_handshakes.add(key)
        return HandshakeRequest(peer_ephemeral_id=ei, frame_index=frame)

    def on_sighting_run(
        self, beacon: BeaconMessage, rssi: float, seconds
    ) -> tuple[HandshakeRequest | None, float]:
        """Record the beacons of one peer heard at the true times in
        ``seconds``: increasing, within one frame of this device and at
        one RSSI.

        The first beacon takes ``on_beacon``'s rules.  If it asks for a
        handshake the rest are left to the caller, since the next beacon
        asks again should the handshake fail to start.  Otherwise the
        beacons before the dwell threshold, or all of them once it is
        crossed, only extend the sighting up to the first silence longer
        than ``CONTINUITY_GAP``, whose next beacon starts a new one:
        RSSI is constant and a refresh only moves the token forward, so
        one update of ``last_seen`` and one refresh stand for them all.

        Returns the request, if any, and the true time before which
        every beacon was recorded and later ones of the run need no
        rule: the caller hands the beacons from there on in again.
        """
        now = seconds[0]
        request = self.on_beacon(beacon, rssi, now)
        local = self.local_time(now)
        obs = self._neighbors.get(beacon.ephemeral_id)
        if request is not None or obs is None or obs.last_seen != local:
            return request, now + 1
        dwell = obs.first_seen + self.policy.min_encounter_duration
        until = dwell - self.clock_offset if local < dwell else math.inf
        stop = bisect.bisect_left(seconds, until)
        for i in range(1, stop):
            if seconds[i] - seconds[i - 1] > CONTINUITY_GAP:
                until, stop = seconds[i], i
                break
        last = seconds[stop - 1]
        if last != now:
            obs.last_seen = self.local_time(last)
            if local >= dwell:
                self._refresh_token(self.policy.frame_of(local), beacon.ephemeral_id)
        return None, until

    def _refresh_token(self, frame: int, ei: bytes) -> None:
        token = self.store.get(frame, ei)
        obs = self._neighbors.get(ei)
        if token is None or obs is None:
            return
        frame_end = self.policy.frame_end(frame)
        token.duration = min(obs.last_seen, frame_end) - obs.first_seen
        token.max_signal_strength = max(token.max_signal_strength, obs.max_rssi)

    def abort_handshake(self, frame_index: int, peer_ephemeral_id: bytes) -> None:
        self._pending_handshakes.discard((frame_index, peer_ephemeral_id))

    def mark_handshake_pending(self, frame_index: int, peer_ephemeral_id: bytes) -> None:
        """Suppress this device's own dwell trigger while the peer-initiated
        handshake for the same pair is in flight."""
        self._pending_handshakes.add((frame_index, peer_ephemeral_id))

    # -- connection budget --------------------------------------------------

    def try_open_channel(self) -> bool:
        if self._open_channels >= MAX_OPEN_CHANNELS:
            return False
        self._open_channels += 1
        self.peak_open_channels = max(self.peak_open_channels, self._open_channels)
        return True

    def close_channel(self) -> None:
        if self._open_channels > 0:
            self._open_channels -= 1

    # -- handshake completion -----------------------------------------------

    def complete_handshake(
        self,
        peer_public: bytes,
        peer_frame: int,
        now: int,
        peer_ephemeral_id: bytes = b"",
        peer_hint: str = "",
    ) -> EncounterToken:
        """Derive (or defer) the encounter token with a peer.

        The recorded ``start_time`` is this side's local clock at
        completion; with honest peers the two sides therefore differ by
        at most the sum of their clock offsets.
        """
        local = self.local_time(now)
        frame = self.policy.frame_of(local)
        if peer_frame != frame:
            self.abort_handshake(peer_frame, peer_ephemeral_id)
            self.abort_handshake(frame, peer_ephemeral_id)
            raise FrameMismatch(f"peer frame {peer_frame} != own frame {frame}")
        kp = self.keypair(frame)
        if self.derive_mode == "eager":
            secret = crypto.derive_token(kp.key, peer_public)
        else:
            point = crypto.validate_public_key(peer_public)
            secret = None
            self._pending_derivations[(frame, peer_ephemeral_id)] = (kp.key, point)
        obs = self._neighbors.get(peer_ephemeral_id)
        if obs is not None:
            first_seen = obs.first_seen
            max_rssi = obs.max_rssi
        else:
            first_seen = local
            max_rssi = -127.0
        token = EncounterToken(
            secret=secret,
            start_time=local,
            duration=min(local, self.policy.frame_end(frame)) - first_seen,
            max_signal_strength=max_rssi,
            frame_index=frame,
            peer_hint=peer_hint,
        )
        self.store.add(frame, peer_ephemeral_id, token)
        self._pending_handshakes.discard((frame, peer_ephemeral_id))
        return token

    def charge(self) -> int:
        """Run deferred token derivations (the charging tick)."""
        derived = 0
        for (frame, ei), (key, point) in self._pending_derivations.items():
            token = self.store.get(frame, ei)
            if token is not None:
                token.secret = crypto.derive_token(key, point)
                derived += 1
        self._pending_derivations.clear()
        return derived

    def purge_expired(self, now: int) -> int:
        local = self.local_time(now)
        removed = self.store.purge(local)
        stale = [
            ei
            for ei, obs in self._neighbors.items()
            if local - obs.last_seen > 2 * CONTINUITY_GAP
        ]
        for ei in stale:
            del self._neighbors[ei]
        return removed
