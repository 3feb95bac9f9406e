"""Discrete-event proximity simulator.

One event queue drives everything: the radio of co-location intervals,
relay tunnels and eavesdropping sensors, handshake completions, and the
daily cadence (epoch advance, uploads at noon, charging at 22:00, feed
fetches at 23:00 and 23:30, adversary actions at 23:45).

The radio works in sighting runs.  A beacon is deliverable when its
source advertises at the beacon second and its receiver scans at
arrival, clock offsets and relay latency applied; both duty cycles are
fixed, so the engine finds the stretches of deliverable seconds by
arithmetic.  A run is such a stretch cut at every frame (identifier)
boundary of either clock and every RSSI change, so that a receiver can
take it whole: the first beacon with the per-beacon rules, the rest as
one extension of the sighting (``Device.on_sighting_run``).  A link's
event hands over runs of both directions in time order up to the next
event that touches its devices, a cadence event or a handshake
completion, and cuts a run at the dwell threshold, so no other event
sees a run half applied.  A link that shares a device with another link
at the time keeps one event per second: which of them gets a connection
slot or a relay admission depends on the order of their beacons within
each second.  Sensors log the first and last second of each advertising
stretch per identifier.  ``tests/engine_oracle.py`` keeps the per-second
loop; reports must match it byte for byte.

Determinism: all randomness flows from the scenario seed through named
substreams (feed shuffles, TAN issuance, adversary noise, and channel
loss per link direction); events are processed in (time, insertion
order); device iteration follows config order.  Whether a beacon is
lost is drawn from its link direction's own generator, once per
deliverable second in time order, so it depends on the seed, the link,
the direction and the second only, never on the order of events.
Attack bookkeeping (which encounters were injected) lives only in the
engine's ground-truth tables, never in scheme state.

Nominal wire sizes for the baseline schemes, used for payload
accounting: a published daily key frames as 4-byte day || 16-byte key;
a centralized observation as 16-byte identifier || 8-byte timestamp; a
centralized push notification as a 21-byte message.  The main scheme's
traffic is measured by encoding the real wire messages.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import random
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

from .. import baselines, crypto, exposure, payload, wire
from ..authority import HealthAuthority
from ..crypto import InvalidPoint, TimeFramePolicy
from ..device import (
    ADVERTISE_ON,
    ADVERTISE_PERIOD,
    APP_UUID,
    SCAN_ON,
    SCAN_PERIOD,
    BeaconMessage,
    Device,
    FrameMismatch,
)
from ..server import TracingServer
from .config import ScenarioConfig, SECONDS_PER_DAY
from .report import ScenarioReport

NOON = 12 * 3600
CHARGE_TIME = 22 * 3600
FETCH_OFFSETS = (3600, 1800)  # before each cadence boundary
CLAIM_TIME = 23 * 3600 + 45 * 60


def _sub_seed(seed: int, *labels) -> int:
    material = str(seed).encode() + b"|" + b"|".join(str(l).encode() for l in labels)
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _identity_seed(seed: int, device_id: str) -> bytes:
    return hashlib.sha256(str(seed).encode() + b"|id|" + device_id.encode()).digest()


@dataclass
class _Infection:
    exposure_day: int
    contagious_day: int
    symptoms_day: int
    result_day: int
    uploaded: bool = False


@dataclass(eq=False)
class _Link:
    kind: str  # "direct" | "relay_oneway" | "relay_twoway"
    a: str
    b: str  # receiver for one-way kinds
    start: int
    end: int
    #: names the link's loss draws: ("colocation", i) or ("relay", adversary, victim)
    key: tuple
    latency: int = 0
    adversary: int | None = None
    rssi: object = -55.0  # float or ColocationInterval
    capture_id: str | None = None
    fanout_limit: int = 0
    beams: list = field(default_factory=list)
    #: times of the handshake completions it scheduled
    completions: list = field(default_factory=list)

    def rssi_at(self, t: int) -> float:
        if isinstance(self.rssi, (int, float)):
            return float(self.rssi)
        return self.rssi.rssi_at(t)

    def rssi_change_after(self, t: int) -> float:
        """The first second after t at which the RSSI changes."""
        profile = getattr(self.rssi, "rssi_profile", ())
        if not isinstance(profile, tuple):
            return math.inf
        return next((self.start + o for o, _ in profile if self.start + o > t), math.inf)


class _Beam:
    """One direction of a link: the beacons ``src`` sends and ``dst``
    hears, in arrival seconds (beacon second plus the link's latency).

    An arrival second is deliverable when ``src`` advertises at the
    beacon second and ``dst`` scans at arrival.  The beam walks the
    deliverable seconds as sighting runs, each a stretch of consecutive
    deliverable seconds cut at frame boundaries of both clocks and at
    RSSI changes, so that identifier, frames and RSSI are constant over
    a run.  Loss is drawn from the beam's own generator, once per
    deliverable second in time order, so what is lost does not depend on
    the order in which the engine handles other links.
    """

    def __init__(self, link: _Link, src: _Client, dst: _Client, direction: int, config):
        self.link, self.src, self.dst = link, src, dst
        self.src_shift = src.device.clock_offset - link.latency
        self.dst_shift = dst.device.clock_offset
        total = config.duration_days * SECONDS_PER_DAY
        self.hi = min(link.end + link.latency, total)
        self.loss = config.channel_loss
        #: seeds the loss draws; the generator is built on the first draw
        #: and dropped once the beam has no run left
        self.seed = _sub_seed(config.seed, "channel", *link.key, direction)
        self.rng: random.Random | None = None
        #: heard seconds of the current run not yet handed to ``dst``
        self.pending: Sequence[int] = ()
        self.run_end = link.start + link.latency
        #: before this second the pending beacons need no rule of ``dst``
        self.until: float = 0
        self.identifier = b""
        self.rssi = 0.0

    def hears(self, u: int) -> bool:
        """Is arrival second u deliverable and not lost?"""
        if (
            u >= self.hi
            or (u + self.src_shift) % ADVERTISE_PERIOD >= ADVERTISE_ON
            or (u + self.dst_shift) % SCAN_PERIOD >= SCAN_ON
        ):
            return False
        return not (self.loss and self._draw()() < self.loss)

    def _draw(self):
        if self.rng is None:
            self.rng = random.Random(self.seed)
        return self.rng.random

    def load(self) -> None:
        """Move to the next run with a heard beacon; none left leaves
        ``pending`` empty."""
        u, lat = self.run_end, self.link.latency
        src_period, dst_period = self.src.rotation_period, self.dst.rotation_period
        while u < self.hi:
            adv = (u + self.src_shift) % ADVERTISE_PERIOD
            if adv >= ADVERTISE_ON:
                u += ADVERTISE_PERIOD - adv
                continue
            scan = (u + self.dst_shift) % SCAN_PERIOD
            if scan >= SCAN_ON:
                u += SCAN_PERIOD - scan
                continue
            end = min(
                self.hi,
                u + ADVERTISE_ON - adv,
                u + SCAN_ON - scan,
                u + src_period - (u + self.src_shift) % src_period,
                u + dst_period - (u + self.dst_shift) % dst_period,
                self.link.rssi_change_after(u - lat) + lat,
            )
            heard = range(u, end)
            if self.loss:
                draw = self._draw()
                heard = [t for t in heard if draw() >= self.loss]
            self.run_end = u = end
            if heard:
                self.pending, self.until = heard, 0
                self.identifier = self.src.identifier_at(heard[0] - lat)
                self.rssi = self.link.rssi_at(heard[0] - lat)
                return
        self.pending, self.rng = (), None

    def next_rule(self) -> float:
        """No pending beacon before this second may ask for a handshake."""
        if not self.pending:
            return math.inf
        return max(self.pending[0], min(self.until, self.run_end))


class _Client:
    """Engine-side state of one device that every scheme shares.

    One subclass per scheme owns that scheme's state and its steps; the
    engine is passed to them as an argument, never kept.
    """

    #: seconds of the device's clock between identifier changes
    rotation_period: int

    def __init__(self, spec, config: ScenarioConfig):
        self.id = spec.id
        self.identity = _identity_seed(config.seed, spec.id)
        policy = TimeFramePolicy(
            frame_period=config.frame_period,
            min_encounter_duration=config.min_encounter_duration,
            epsilon=config.epsilon,
        )
        self.device = Device(
            spec.id,
            self.identity,
            policy=policy,
            clock_offset=spec.clock_offset_s,
            retention_days=config.retention_days,
            derive_mode=spec.derive_mode,
        )

    def register(self, engine: Engine) -> None:
        """Enrol with the scheme's server before the run starts."""

    def identifier_at(self, t: int) -> bytes:
        """The identifier broadcast at true time t."""
        raise NotImplementedError

    def on_run(
        self, engine: Engine, src: _Client, identifier: bytes, rssi: float, seconds, link: _Link
    ) -> float:
        """Beacons from ``src`` heard at the true times in ``seconds``, one
        sighting run or the start of one.  Returns the time before which
        all of them were recorded; the engine hands the rest in again."""
        raise NotImplementedError

    def upload(self, engine: Engine, t: int, day: int) -> None:
        """The upload at noon of the device's test-result day."""
        raise NotImplementedError

    def midnight(self, day: int) -> None:
        self.device.purge_expired(day * SECONDS_PER_DAY)

    def fetch(self, engine: Engine, t: int) -> None:
        """One feed fetch; a scheme whose server pushes has none."""


class _TraceCoronaClient(_Client):
    def __init__(self, spec, config: ScenarioConfig):
        super().__init__(spec, config)
        self.rotation_period = config.frame_period
        self.next_since = 0
        self.last_record_count = 0
        #: whole records, as one uploader's copies of a token differ only by tag
        self.seen_records: set[wire.TokenUploadRecord] = set()
        self.matched_direct_hashes: set[bytes] = set()
        self.all_notifications: list = []
        self.second_level_done = False
        self.superspreader_done = False

    def register(self, engine: Engine) -> None:
        engine.server.register_active(self.id)

    def identifier_at(self, t: int) -> bytes:
        return self.device.ephemeral_id(self.device.current_frame(t))

    def on_run(self, engine, src, identifier, rssi, seconds, link) -> float:
        beacon = BeaconMessage(uuid=APP_UUID, ephemeral_id=identifier)
        request, until = self.device.on_sighting_run(beacon, rssi, seconds)
        if request is not None:
            engine.start_handshake(self, src, request, seconds[0], link)
        return until

    def _eligible_tokens(self, engine: Engine):
        self.device.charge()
        drops = [r for r in engine.config.redactions if r.device == self.id]
        return exposure.redact_tokens(
            self.device.store,
            lambda token: any(r.drop_start <= token.start_time < r.drop_end for r in drops),
        )

    def _submit(self, engine: Engine, encode, pairs, vias: dict) -> None:
        """Send one upload of the (token, record) pairs; once it is
        accepted, record each record's provenance under its uploader.  A
        client never re-matches its own uploads."""
        body = encode([record for _, record in pairs])
        response = wire.handle_request(engine.server, body)
        engine.payload_up += 4 + len(body)
        engine.payload_down += 4 + len(response)
        if response[0] != wire.STATUS_ACCEPTED:
            return
        for token, record in pairs:
            self.seen_records.add(record)
            engine.gt_record_origin.setdefault(record.hash, {})[self.id] = {
                "peer": token.peer_hint,
                "via": vias.get(id(token)),
            }

    def _pairs(self, engine: Engine, tag: wire.Tag, skip_hashes=()) -> list:
        """(token, record) for each eligible token, the record carrying
        the tag the server publishes it under."""
        tokens = [token for token in self._eligible_tokens(engine) if token.secret is not None]
        records = exposure.build_upload_records(tokens, tag)
        return [pair for pair in zip(tokens, records) if pair[1].hash not in skip_hashes]

    def upload(self, engine: Engine, t: int, day: int) -> None:
        pairs = self._pairs(engine, wire.Tag.DIRECT)
        if not pairs:
            return
        tan = engine.authority.issue_tan(self.id, t)
        vias = {
            id(token): engine.gt_token_prov.get((self.id, frame, peer_ei), {}).get("via")
            for (frame, peer_ei), token in self.device.store.items()
        }
        self._submit(engine, partial(wire.encode_upload_infected, tan.value), pairs, vias)

    def fetch(self, engine: Engine, t: int) -> None:
        stats = engine.server.stats_snapshot()
        if stats["records_published"] == self.last_record_count:
            return
        self.last_record_count = stats["records_published"]
        self.device.charge()
        shuffle_seed = _sub_seed(engine.config.seed, "shuffle", self.id, t) & (2**63 - 1)
        body = wire.encode_fetch_feed(self.next_since, shuffle_seed)
        response = wire.handle_request(engine.server, body)
        engine.payload_up += 4 + len(body)
        engine.payload_down += 4 + len(response)
        (epoch,) = struct.unpack_from(">I", response, 1)
        records, _ = wire.decode_records(response, 5)
        self.next_since = epoch
        unseen = []
        for record in records:
            if record in self.seen_records:
                continue
            self.seen_records.add(record)
            unseen.append(record)
        if not unseen:
            return
        feed = wire.PublishedFeed(records=tuple(unseen), feed_epoch=epoch)
        found = exposure.match_feed(self.device.store, feed, engine.config.epsilon)
        if not found:
            return
        self.all_notifications.extend(found)
        got_direct = False
        for notification in found:
            # Both sides of an encounter may upload its token; the
            # notification comes from the other side's record.
            origins = engine.gt_record_origin.get(notification.matched_hash, {})
            source = next((u for u in origins if u != self.id), None)
            origin = origins.get(source)
            engine.record_notification(
                self, t, notification.level.value, notification.superspreader_flag,
                matched=notification.matched_hash.hex(),
                source=source,
                via=origin["via"] if origin else None,
                genuine=bool(origin and origin["via"] is None and origin["peer"] == self.id),
            )
            engine.server.report_notification(
                notification.level.value, notification.superspreader_flag
            )
            if notification.level is exposure.NotificationLevel.DIRECT:
                got_direct = True
                self.matched_direct_hashes.add(notification.matched_hash)
        if got_direct:
            self._react_to_direct(engine, t)

    def _react_to_direct(self, engine: Engine, t: int) -> None:
        config = engine.config
        day = t // SECONDS_PER_DAY
        timeline = config.disease_timeline
        infection = engine.gt_infections.get(self.id)
        if infection and not infection.uploaded:
            triggered = day + timeline.symptoms_to_test_days + timeline.test_to_result_days
            infection.result_day = min(infection.result_day, triggered)
        if config.second_level_enabled and not self.second_level_done:
            self.second_level_done = True
            proofs = [
                token.secret
                for token in self.device.store.tokens()
                if token.secret is not None
                and crypto.token_hash(token.secret) in self.matched_direct_hashes
            ]
            if proofs:
                encode = partial(wire.encode_upload_second_level, proofs[0])
                pairs = self._pairs(engine, wire.Tag.SECOND_LEVEL, self.matched_direct_hashes)
                self._submit(engine, encode, pairs, {})
        if (
            config.superspreader_enabled
            and not self.superspreader_done
            and len(self.matched_direct_hashes) >= config.superspreader_threshold
        ):
            self.superspreader_done = True
            proofs = exposure.detect_superspreader_candidate(
                self.device.store,
                [
                    n
                    for n in self.all_notifications
                    if n.level is exposure.NotificationLevel.DIRECT
                ],
                config.superspreader_threshold,
            )
            if proofs is not None:
                encode = partial(wire.encode_upload_superspreader, proofs)
                tag = wire.Tag.POSSIBLE_SUPERSPREADER
                pairs = self._pairs(engine, tag, self.matched_direct_hashes)
                self._submit(engine, encode, pairs, {})

    @staticmethod
    def fake_claims(engine: Engine, attempts: int) -> int:
        """Second-level uploads with a random possession proof."""
        rng = engine.rng_adversary
        accepted = 0
        for _ in range(attempts):
            proof = rng.randbytes(32)
            dummy = wire.encode_record(
                wire.TokenUploadRecord(hash=rng.randbytes(16), ciphertext=rng.randbytes(36))
            )
            result = engine.server.upload_second_level(proof, [dummy])
            if result.accepted:
                accepted += 1
        return accepted


class _BaselineClient(_Client):
    """What the two baseline schemes share: a log of the identifiers
    heard, kept for the retention period."""

    def __init__(self, spec, config: ScenarioConfig):
        super().__init__(spec, config)
        self.observations: list[baselines.Observation] = []
        self.retention_s = config.retention_days * SECONDS_PER_DAY

    def on_run(self, engine, src, identifier, rssi, seconds, link) -> float:
        """One observation, and its provenance, per beacon: the
        centralized upload carries each of them."""
        offset = self.device.clock_offset
        prov = {"source": src.id, "via": link.adversary}
        for t in seconds:
            local = t + offset
            self.observations.append(baselines.Observation(identifier, local, rssi))
            engine.gt_obs_prov[(self.id, identifier, local)] = prov
        return math.inf

    def midnight(self, day: int) -> None:
        super().midnight(day)
        horizon = self.device.local_time(day * SECONDS_PER_DAY) - self.retention_s
        self.observations = [obs for obs in self.observations if obs.time >= horizon]


class _DecentralizedClient(_BaselineClient):
    rotation_period = crypto.DECENTRALIZED_SLOT_SECONDS

    def __init__(self, spec, config: ScenarioConfig):
        super().__init__(spec, config)
        self.last_key_count = 0
        self.notified_keys: set[tuple[bytes, int]] = set()
        #: local day -> that day's key; broadcasting, the upload and every
        #: reader of the published key share its identifier table
        self.keys: dict[int, baselines.DecentralizedDailyKey] = {}

    def daily_key(self, day: int) -> baselines.DecentralizedDailyKey:
        key = self.keys.get(day)
        if key is None:
            key = self.keys[day] = baselines.new_daily_key(self.identity, day)
        return key

    def identifier_at(self, t: int) -> bytes:
        local = self.device.local_time(t)
        day, offset = divmod(local, SECONDS_PER_DAY)
        return self.daily_key(day).tempids[offset // crypto.DECENTRALIZED_SLOT_SECONDS]

    def midnight(self, day: int) -> None:
        super().midnight(day)
        # The last retention_days local days stay; with the day that begins
        # before the next midnight, the memo holds at most one more.
        horizon = self.device.local_time(day * SECONDS_PER_DAY) // SECONDS_PER_DAY
        horizon -= self.retention_s // SECONDS_PER_DAY
        self.keys = {d: key for d, key in self.keys.items() if d > horizon}

    @staticmethod
    def fake_claims(engine: Engine, attempts: int) -> int:
        """Nothing authenticates a claimed exposure: every attempt succeeds
        once any key is published."""
        return attempts if engine.dec_server.download() else 0

    def upload(self, engine: Engine, t: int, day: int) -> None:
        first = max(0, day - engine.config.retention_days + 1)
        keys = [self.daily_key(d) for d in range(first, day + 1)]
        engine.dec_server.publish(keys)
        engine.gt_published_keys.extend((self.id, key) for key in keys)
        engine.payload_up += 4 + 1 + len(keys) * 20

    def fetch(self, engine: Engine, t: int) -> None:
        published = engine.dec_server.download()
        if len(published) == self.last_key_count:
            return
        new_keys = published[self.last_key_count :]
        self.last_key_count = len(published)
        engine.payload_up += 4 + 5
        engine.payload_down += 4 + 1 + 20 * len(new_keys)
        matches = baselines.match_observations(
            new_keys,
            self.observations,
            replay_window=engine.config.replay_window,
            kiss_bug=engine.config.kiss_bug,
        )
        owners = {(key.tek, key.day): owner for owner, key in engine.gt_published_keys}
        for match in matches:
            dedupe = (match.key.tek, match.key.day)
            if dedupe in self.notified_keys:
                continue
            self.notified_keys.add(dedupe)
            owner = owners.get(dedupe)
            prov = engine.gt_obs_prov.get(
                (self.id, match.observation.tempid, match.observation.time)
            )
            engine.record_notification(
                self, t, "direct", False,
                matched=match.observation.tempid.hex(),
                source=owner,
                via=prov["via"] if prov else None,
                genuine=bool(
                    prov and prov["via"] is None and owner is not None and prov["source"] == owner
                ),
            )


class _CentralizedClient(_BaselineClient):
    rotation_period = baselines.CENTRAL_INTERVAL_SECONDS

    def register(self, engine: Engine) -> None:
        self.cen_server = engine.cen_server
        self.user_id = self.cen_server.register(self.id)

    def identifier_at(self, t: int) -> bytes:
        t_k = self.device.local_time(t) // baselines.CENTRAL_INTERVAL_SECONDS
        return self.cen_server.tempid_for(self.user_id, t_k)

    def upload(self, engine: Engine, t: int, day: int) -> None:
        tan = engine.authority.issue_tan(self.id, t)
        if not engine.authority.verify_tan(tan.value):
            return
        uploaded = [(obs.tempid, obs.time) for obs in self.observations]
        engine.payload_up += 4 + 2 + len(tan.value) + 24 * len(uploaded)
        matched = self.cen_server.ingest_upload(self.user_id, uploaded)
        by_user = {
            c.user_id: c for c in engine.clients.values() if isinstance(c, _CentralizedClient)
        }
        for user_id in matched:
            target = by_user.get(user_id)
            if target is None:
                continue
            genuine, via = self._match_provenance(engine, target, uploaded)
            engine.payload_down += 21
            engine.record_notification(
                target, t, "direct", False,
                matched=user_id.hex(),
                source=self.id,
                via=via,
                genuine=genuine,
            )

    def _match_provenance(self, engine: Engine, target, uploaded):
        """Did any genuinely observed identifier of `target` trigger the
        match, or only relayed ones?"""
        best_via = None
        for tempid, timestamp in uploaded:
            t_k = timestamp // baselines.CENTRAL_INTERVAL_SECONDS
            if self.cen_server.tempid_for(target.user_id, t_k) != tempid:
                continue
            prov = engine.gt_obs_prov.get((self.id, tempid, timestamp))
            if prov is None:
                continue
            if prov["via"] is None and prov["source"] == target.id:
                return True, None
            best_via = prov["via"]
        return False, best_via


_CLIENTS = {
    "tracecorona": _TraceCoronaClient,
    "decentralized": _DecentralizedClient,
    "centralized": _CentralizedClient,
}


def _next_heard(beam: _Beam) -> float:
    return beam.pending[0] if beam.pending else math.inf


def _crowded(links: list[_Link]) -> set[_Link]:
    """The links that share a device with another link while either
    may still deliver a beacon or complete a handshake."""
    spans: dict[str, list] = {}
    for link in links:
        span = (link.start, link.end + 3 * link.latency + 1, id(link), link)
        for device in (link.a, link.b):
            spans.setdefault(device, []).append(span)
    crowded = set()
    for device_spans in spans.values():
        device_spans.sort()
        for i, (_, end, _, link) in enumerate(device_spans):
            for start, _, _, other in device_spans[i + 1:]:
                if start >= end:
                    break
                crowded.update((link, other))
    return crowded


class Engine:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._queue: list = []
        self._seq = 0
        self._now = 0
        #: times of the events that touch devices outside any link, then inf
        self._cadence: list = []
        self.rng_adversary = random.Random(_sub_seed(config.seed, "adversary"))
        self.authority = HealthAuthority(random.Random(_sub_seed(config.seed, "tan")))
        self.server = TracingServer(
            self.authority, superspreader_threshold=config.superspreader_threshold
        )
        self.dec_server = baselines.DecentralizedServer()
        self.cen_server = baselines.CentralizedServer(
            random.Random(_sub_seed(config.seed, "central")), bluetrace=config.bluetrace
        )
        self.clients: dict[str, _Client] = {
            spec.id: _CLIENTS[config.scheme_of(spec.id)](spec, config)
            for spec in config.devices
        }

        # ground truth, invisible to scheme state
        self.gt_token_prov: dict[tuple[str, int, bytes], dict] = {}
        #: record hash -> uploader -> provenance of that uploader's record
        self.gt_record_origin: dict[bytes, dict[str, dict]] = {}
        self.gt_obs_prov: dict[tuple[str, bytes, int], dict] = {}
        self.gt_published_keys: list[tuple[str, baselines.DecentralizedDailyKey]] = []
        self.gt_infections: dict[str, _Infection] = {}

        self.sensor_log: list[tuple[str, int, str, bytes]] = []
        self.relay_admitted: dict[tuple, set] = {}
        self.relay_completed: dict[tuple, set] = {}
        self.adv_successes: dict[int, set] = {}
        self.adv_attempts: dict[int, int] = {}
        self.claim_results: dict[int, tuple[int, int]] = {}

        self.payload_up = 0
        self.payload_down = 0
        #: one entry per (token/observation, record/key) match; the
        #: conservation invariant checks notifications against this log
        self.match_events: list[tuple] = []
        self.notifications: list[dict] = []
        self.first_notification_day: dict[str, int] = {}
        self.first_direct_latency: dict[str, int] = {}
        self.false_count = 0

        timeline = config.disease_timeline
        for infection in config.infections:
            contagious = infection.day + timeline.incubation_to_contagious_days
            symptoms = contagious + timeline.contagious_to_symptoms_days
            result = (
                symptoms + timeline.symptoms_to_test_days + timeline.test_to_result_days
            )
            self.gt_infections[infection.device] = _Infection(
                exposure_day=infection.day,
                contagious_day=contagious,
                symptoms_day=symptoms,
                result_day=result,
            )

    # -- event queue -------------------------------------------------------------

    def _push(self, t: int, fn, *args) -> None:
        if t >= self.config.duration_days * SECONDS_PER_DAY:
            return
        self._seq += 1
        heapq.heappush(self._queue, (t, self._seq, fn, args))

    def _push_cadence(self, t: int, fn, *args) -> None:
        """Push an event that touches devices outside any link; radio
        events never take a run across its time."""
        self._cadence.append(t)
        self._push(t, fn, *args)

    def _links(self) -> list[_Link]:
        config = self.config
        links = [
            _Link(
                kind="direct",
                a=interval.device_a,
                b=interval.device_b,
                start=interval.start,
                end=interval.end,
                key=("colocation", i),
                rssi=interval,
            )
            for i, interval in enumerate(config.colocation_schedule)
        ]
        for index, adv in enumerate(config.adversaries):
            if adv.kind not in ("relay_oneway", "relay_twoway"):
                continue
            self.adv_attempts[index] = len(adv.victims)
            self.adv_successes[index] = set()
            links += [
                _Link(
                    kind=adv.kind,
                    a=adv.capture,
                    b=victim,
                    start=adv.start,
                    end=adv.end,
                    key=("relay", index, victim),
                    latency=adv.latency_s,
                    adversary=index,
                    rssi=adv.emit_rssi,
                    capture_id=adv.capture,
                    fanout_limit=adv.fanout_limit,
                )
                for victim in adv.victims
            ]
        for link in links:
            a, b = self.clients[link.a], self.clients[link.b]
            link.beams.append(_Beam(link, a, b, 0, config))
            if link.kind != "relay_oneway":
                link.beams.append(_Beam(link, b, a, 1, config))
        return links

    def run(self) -> ScenarioReport:
        config = self.config
        for client in self.clients.values():
            client.register(self)

        links = self._links()
        crowded = _crowded(links)
        for link in links:
            if link in crowded:
                self._push(link.start, self._tick_crowded, link, link.start)
            else:
                self._push(link.start, self._run_link, link, True)

        for index, adv in enumerate(config.adversaries):
            if adv.kind == "eavesdropper":
                for coverage in adv.sensors:
                    self._push(coverage.start, self._sense, coverage)
            elif adv.kind == "fake_claimer":
                self.adv_attempts[index] = adv.attempts
                self.adv_successes[index] = set()
                day = adv.at_day if adv.at_day is not None else config.duration_days - 1
                self._push_cadence(
                    day * SECONDS_PER_DAY + CLAIM_TIME, self._fake_claims, index, adv
                )

        total_seconds = config.duration_days * SECONDS_PER_DAY
        for day in range(config.duration_days):
            base = day * SECONDS_PER_DAY
            self._push_cadence(base, self._midnight, day)
            self._push_cadence(base + NOON, self._noon_uploads, day)
            self._push_cadence(base + CHARGE_TIME, self._charge_tick)
        boundary = config.feed_cadence
        while boundary <= total_seconds:
            for offset in FETCH_OFFSETS:
                if boundary - offset >= 0:
                    self._push_cadence(boundary - offset, self._fetch_round)
            boundary += config.feed_cadence
        self._cadence.sort()
        self._cadence.append(math.inf)

        while self._queue:
            t, _, fn, args = heapq.heappop(self._queue)
            self._now = t
            fn(*args)
        return self._build_report()

    # -- radio ----------------------------------------------------------------------

    def _run_link(self, link: _Link, first: bool = False) -> None:
        """Hand a link's sighting runs to their receivers, both
        directions in time order, up to the next event that touches its
        devices: a cadence event or a handshake completion.

        The link shares its devices with no other link at the time, so
        only its own two directions need interleaving.  A run's first
        beacon, and any later one its receiver asks for, may ask for a
        handshake, whose completions come no earlier than one second
        plus the latency later; the other direction's beacons before
        that only extend sightings, which commutes with the handshake.
        """
        now, lat, beams = self._now, link.latency, link.beams
        # Beacons at a link's first second come before cadence events at
        # that second; every later one comes after them.
        cut = now + 1 if first else self._cadence[bisect.bisect_right(self._cadence, now)]
        link.completions = [c for c in link.completions if c > now]
        cut = min([cut, *link.completions])
        for beam in beams:
            if first:
                beam.load()
            beam.until = 0  # a cadence event or completion may have changed the state
        while True:
            beam = min(beams, key=_next_heard)
            if not beam.pending or beam.pending[0] >= cut:
                break
            others = (o.next_rule() + 1 + lat for o in beams if o is not beam)
            bound = min(cut, beam.run_end, *others)
            seconds = beam.pending[: bisect.bisect_left(beam.pending, bound)]
            scheduled = len(link.completions)
            beam.until = beam.dst.on_run(
                self, beam.src, beam.identifier, beam.rssi, seconds, link
            )
            beam.pending = beam.pending[bisect.bisect_left(seconds, beam.until):]
            if not beam.pending:
                beam.load()
            if len(link.completions) > scheduled:
                cut = min(cut, link.completions[scheduled])
        heard = [beam.pending[0] for beam in beams if beam.pending]
        if heard:
            self._push(min(heard), self._run_link, link)

    def _tick_crowded(self, link: _Link, t: int) -> None:
        """One second of a link that shares a device with another link
        at the time.  Which of them gets a connection slot or a relay
        admission first depends on the order of their beacons within
        each second, so such links keep one event per second."""
        if t >= link.end:
            return
        arrival = t + link.latency
        for beam in link.beams:
            if not beam.hears(arrival):
                continue
            identifier, rssi = beam.src.identifier_at(t), link.rssi_at(t)
            if link.latency == 0:
                beam.dst.on_run(self, beam.src, identifier, rssi, (t,), link)
            else:
                self._push(
                    arrival, beam.dst.on_run, self, beam.src, identifier, rssi, (arrival,), link
                )
        self._push(t + 1, self._tick_crowded, link, t + 1)

    def _sense(self, coverage) -> None:
        """Log, for each advertising stretch of the covered device and
        each identifier in it, the first and the last second heard:
        linkability needs no more."""
        client = self.clients[coverage.device]
        shift, period = client.device.clock_offset, client.rotation_period
        t = coverage.start
        end = min(coverage.end, self.config.duration_days * SECONDS_PER_DAY)
        while t < end:
            phase = (t + shift) % ADVERTISE_PERIOD
            if phase >= ADVERTISE_ON:
                t += ADVERTISE_PERIOD - phase
                continue
            stop = min(end, t + ADVERTISE_ON - phase, t + period - (t + shift) % period)
            identifier = client.identifier_at(t)
            self.sensor_log.append((coverage.id, t, client.id, identifier))
            self.sensor_log.append((coverage.id, stop - 1, client.id, identifier))
            t = stop

    # -- handshakes --------------------------------------------------------------------

    def start_handshake(
        self, requester: _Client, owner: _Client, request, t: int, link: _Link
    ) -> None:
        if link.kind == "relay_oneway":
            requester.device.abort_handshake(
                request.frame_index, request.peer_ephemeral_id
            )
            return
        if link.kind == "relay_twoway":
            capture = self.clients[link.capture_id]
            victim = owner if owner.id != capture.id else requester
            frame = capture.device.current_frame(t)
            key = (link.adversary, capture.id, frame)
            admitted = self.relay_admitted.setdefault(key, set())
            if victim.id not in admitted:
                if len(admitted) >= link.fanout_limit:
                    requester.device.abort_handshake(
                        request.frame_index, request.peer_ephemeral_id
                    )
                    return
                admitted.add(victim.id)
        if not requester.device.try_open_channel():
            requester.device.abort_handshake(
                request.frame_index, request.peer_ephemeral_id
            )
            return
        if not owner.device.try_open_channel():
            requester.device.close_channel()
            requester.device.abort_handshake(
                request.frame_index, request.peer_ephemeral_id
            )
            return

        latency = link.latency
        requester_ei = requester.device.ephemeral_id(requester.device.current_frame(t))
        owner_ei = request.peer_ephemeral_id
        if requester_ei < owner_ei:
            initiator, init_ei, responder, resp_ei = requester, requester_ei, owner, owner_ei
        else:
            initiator, init_ei, responder, resp_ei = owner, owner_ei, requester, requester_ei
        # The owner side must not race a duplicate request of its own.
        owner.device.mark_handshake_pending(
            owner.device.current_frame(t), requester_ei
        )

        init_frame = initiator.device.current_frame(t)
        init_pub = initiator.device.keypair(init_frame).public_key
        resp_frame = responder.device.current_frame(t + latency)
        resp_pub = responder.device.keypair(resp_frame).public_key
        link.completions += [t + 1 + latency, t + 1 + 2 * latency]
        self._push(
            t + 1 + latency,
            self._complete_handshake,
            responder, init_pub, init_frame, init_ei, initiator.id, link,
            t + 1 + latency,
        )
        self._push(
            t + 1 + 2 * latency,
            self._complete_handshake,
            initiator, resp_pub, resp_frame, resp_ei, responder.id, link,
            t + 1 + 2 * latency,
        )

    def _complete_handshake(
        self,
        client: _Client,
        peer_pub: bytes,
        peer_frame: int,
        peer_ei: bytes,
        peer_hint: str,
        link: _Link,
        t: int,
    ) -> None:
        client.device.close_channel()
        try:
            token = client.device.complete_handshake(
                peer_pub, peer_frame, t,
                peer_ephemeral_id=peer_ei, peer_hint=peer_hint,
            )
        except (FrameMismatch, InvalidPoint):
            return
        self.gt_token_prov[(client.id, token.frame_index, peer_ei)] = {
            "peer": peer_hint,
            "via": link.adversary,
        }
        if link.kind == "relay_twoway" and client.id != link.capture_id:
            capture_frame = self.clients[link.capture_id].device.current_frame(t)
            key = (link.adversary, link.capture_id, capture_frame)
            self.relay_completed.setdefault(key, set()).add(client.id)

    # -- daily cadence ---------------------------------------------------------------------

    def _midnight(self, day: int) -> None:
        self.server.advance_epoch(day)
        for client in self.clients.values():
            client.midnight(day)

    def _charge_tick(self) -> None:
        for client in self.clients.values():
            client.device.charge()

    def _noon_uploads(self, day: int) -> None:
        t = day * SECONDS_PER_DAY + NOON
        for device_id, infection in self.gt_infections.items():
            if infection.uploaded or infection.result_day != day:
                continue
            infection.uploaded = True
            self.clients[device_id].upload(self, t, day)

    def _fetch_round(self) -> None:
        for client in self.clients.values():
            client.fetch(self, self._now)

    # -- adversaries ---------------------------------------------------------------------------

    def _fake_claims(self, index: int, adv) -> None:
        # The config admits a fake claimer only where the client defines this.
        accepted = _CLIENTS[self.config.scheme].fake_claims(self, adv.attempts)
        self.claim_results[index] = (adv.attempts, accepted)

    # -- notifications and report -----------------------------------------------------------------

    def record_notification(
        self, client: _Client, t: int, level: str, superspreader_flag: bool,
        matched: str, source: str | None, via: int | None, genuine: bool,
    ) -> None:
        day = t // SECONDS_PER_DAY
        latency = None
        if genuine and level == "direct" and source in self.gt_infections:
            latency = day - self.gt_infections[source].contagious_day
        self.match_events.append((client.id, level, matched, t))
        self.notifications.append(
            {
                "device": client.id,
                "time": t,
                "day": day,
                "level": level,
                "superspreader_flag": superspreader_flag,
                "matched": matched,
                "genuine": genuine,
                "source": source,
                "latency_days": latency,
            }
        )
        if client.id not in self.first_notification_day:
            self.first_notification_day[client.id] = day
        if latency is not None and client.id not in self.first_direct_latency:
            self.first_direct_latency[client.id] = latency
        if not genuine:
            self.false_count += 1
            if via is not None:
                self.adv_successes.setdefault(via, set()).add(client.id)

    def _linkability(self) -> tuple[dict, dict, dict]:
        spans: dict[str, int] = {c.id: 0 for c in self.clients.values()}
        by_identifier: dict[tuple[str, bytes], list[int]] = {}
        for _sensor, t, device_id, identifier in self.sensor_log:
            by_identifier.setdefault((device_id, identifier), []).append(t)
        for (device_id, _identifier), times in by_identifier.items():
            spans[device_id] = max(spans[device_id], max(times) - min(times))

        recovered: dict[str, dict] = {}
        gt_ids: dict[str, dict] = {}
        # Every published key is its owner's true key, so the identifiers an
        # observer recovers from it are the owner's ground truth as well.
        for owner, key in self.gt_published_keys:
            times = [t for tempid in key.tempids for t in by_identifier.get((owner, tempid), ())]
            if times:
                spans[owner] = max(spans[owner], max(times) - min(times))
            ids = sorted(tempid.hex() for tempid in key.tempids)
            recovered.setdefault(owner, {})[str(key.day)] = ids
            gt_ids.setdefault(owner, {})[str(key.day)] = ids
        return spans, recovered, gt_ids

    def _build_report(self) -> ScenarioReport:
        attack_details = {}
        total_attempts = 0
        total_successes = 0
        for index, adv in enumerate(self.config.adversaries):
            if adv.kind == "eavesdropper":
                continue
            if adv.kind == "fake_claimer":
                attempts, successes = self.claim_results.get(index, (adv.attempts, 0))
            else:
                attempts = self.adv_attempts.get(index, 0)
                successes = len(self.adv_successes.get(index, ()))
            attack_details[str(index)] = {
                "kind": adv.kind,
                "attempts": attempts,
                "successes": successes,
                "success_rate": successes / attempts if attempts else 0.0,
            }
            total_attempts += attempts
            total_successes += successes
        rate = total_successes / total_attempts if total_attempts else 0.0

        relay_fanout = {}
        for index, adv in enumerate(self.config.adversaries):
            if adv.kind != "relay_twoway":
                continue
            per_frame = [
                len(victims)
                for (adv_index, _capture, _frame), victims in self.relay_completed.items()
                if adv_index == index
            ]
            relay_fanout[str(index)] = max(per_frame) if per_frame else 0

        spans, recovered, gt_ids = self._linkability()

        return ScenarioReport(
            name=self.config.name,
            scheme=self.config.scheme,
            seed=self.config.seed,
            config_digest=self.config.digest(),
            duration_days=self.config.duration_days,
            notifications=self.notifications,
            false_notification_count=self.false_count,
            attack_success_rate=rate,
            attack_details=attack_details,
            relay_fanout=relay_fanout,
            max_linkability_window_s=spans,
            linkability_recovered=recovered,
            gt_day_identifiers=gt_ids,
            notification_latency_days=dict(sorted(self.first_direct_latency.items())),
            first_notification_day=dict(sorted(self.first_notification_day.items())),
            payload_bytes_uploaded=self.payload_up,
            payload_bytes_downloaded=self.payload_down,
            server_stats=self.server.stats_snapshot(),
            device_token_counts={
                c.id: len(c.device.store) for c in self.clients.values()
            },
            payload_notes=payload.payload_notes(),
        )


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute one scenario; bit-identical reports for identical
    (config, seed)."""
    return Engine(config).run()
