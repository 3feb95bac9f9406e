"""Discrete-event proximity simulator.

One event queue drives everything: per-second link ticks for
co-location intervals, relay tunnels and eavesdropping sensors,
delayed beacon deliveries, handshake completions, and the daily cadence
(epoch advance, uploads at noon, charging at 22:00, feed fetches at
23:00 and 23:30, adversary actions at 23:45).

Determinism: all randomness flows from the scenario seed through named
substreams (channel loss, feed shuffles, TAN issuance, adversary
noise); events are processed in (time, insertion order); device
iteration follows config order.  Attack bookkeeping (which encounters
were injected) lives only in the engine's ground-truth tables, never in
scheme state.

Nominal wire sizes for the baseline schemes, used for payload
accounting: a published daily key frames as 4-byte day || 16-byte key;
a centralized observation as 16-byte identifier || 8-byte timestamp; a
centralized push notification as a 21-byte message.  The main scheme's
traffic is measured by encoding the real wire messages.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import struct
from dataclasses import dataclass
from functools import partial

from .. import baselines, crypto, exposure, payload, wire
from ..authority import HealthAuthority
from ..crypto import InvalidPoint, TimeFramePolicy
from ..device import APP_UUID, BeaconMessage, Device, FrameMismatch
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


@dataclass
class _Link:
    kind: str  # "direct" | "relay_oneway" | "relay_twoway" | "sensor"
    a: str
    b: str  # receiver for one-way kinds; sensor id for "sensor"
    start: int
    end: int
    latency: int = 0
    adversary: int | None = None
    rssi: object = -55.0  # float or ColocationInterval
    capture_id: str | None = None
    fanout_limit: int = 0

    def rssi_at(self, t: int) -> float:
        if isinstance(self.rssi, (int, float)):
            return float(self.rssi)
        return self.rssi.rssi_at(t)


class _Client:
    """Engine-side state of one device that every scheme shares.

    One subclass per scheme owns that scheme's state and its steps; the
    engine is passed to them as an argument, never kept.
    """

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

    def receive(
        self, engine: Engine, src: _Client, identifier: bytes, rssi: float, t: int, link: _Link
    ) -> None:
        """A beacon from ``src`` arriving at true time t; only heard while
        the device scans."""
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

    def receive(self, engine, src, identifier, rssi, t, link) -> None:
        if not self.device.is_scanning(t):
            return
        beacon = BeaconMessage(uuid=APP_UUID, ephemeral_id=identifier)
        request = self.device.on_beacon(beacon, rssi, t)
        if request is not None:
            engine.start_handshake(self, src, request, t, link)

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
            dummy = wire.TokenUploadRecord(
                hash=rng.randbytes(16),
                ciphertext=rng.randbytes(36),
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

    def receive(self, engine, src, identifier, rssi, t, link) -> None:
        if not self.device.is_scanning(t):
            return
        local = self.device.local_time(t)
        self.observations.append(baselines.Observation(identifier, local, rssi))
        engine.gt_obs_prov[(self.id, identifier, local)] = {
            "source": src.id,
            "via": link.adversary,
        }

    def midnight(self, day: int) -> None:
        super().midnight(day)
        horizon = self.device.local_time(day * SECONDS_PER_DAY) - self.retention_s
        self.observations = [obs for obs in self.observations if obs.time >= horizon]


class _DecentralizedClient(_BaselineClient):
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


class Engine:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._queue: list = []
        self._seq = 0
        self._now = 0
        self.rng_channel = random.Random(_sub_seed(config.seed, "channel"))
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

    def run(self) -> ScenarioReport:
        config = self.config
        for client in self.clients.values():
            client.register(self)

        for interval in config.colocation_schedule:
            link = _Link(
                kind="direct",
                a=interval.device_a,
                b=interval.device_b,
                start=interval.start,
                end=interval.end,
                rssi=interval,
            )
            self._push(interval.start, self._tick_link, link, interval.start)

        for index, adv in enumerate(config.adversaries):
            if adv.kind in ("relay_oneway", "relay_twoway"):
                self.adv_attempts[index] = len(adv.victims)
                self.adv_successes[index] = set()
                for victim in adv.victims:
                    link = _Link(
                        kind=adv.kind,
                        a=adv.capture,
                        b=victim,
                        start=adv.start,
                        end=adv.end,
                        latency=adv.latency_s,
                        adversary=index,
                        rssi=adv.emit_rssi,
                        capture_id=adv.capture,
                        fanout_limit=adv.fanout_limit,
                    )
                    self._push(adv.start, self._tick_link, link, adv.start)
            elif adv.kind == "eavesdropper":
                for coverage in adv.sensors:
                    self._push(
                        coverage.start, self._tick_sensor, coverage, coverage.start
                    )
            elif adv.kind == "fake_claimer":
                self.adv_attempts[index] = adv.attempts
                self.adv_successes[index] = set()
                day = adv.at_day if adv.at_day is not None else config.duration_days - 1
                self._push(day * SECONDS_PER_DAY + CLAIM_TIME, self._fake_claims, index, adv)

        total_seconds = config.duration_days * SECONDS_PER_DAY
        for day in range(config.duration_days):
            base = day * SECONDS_PER_DAY
            self._push(base, self._midnight, day)
            self._push(base + NOON, self._noon_uploads, day)
            self._push(base + CHARGE_TIME, self._charge_tick)
        boundary = config.feed_cadence
        while boundary <= total_seconds:
            for offset in FETCH_OFFSETS:
                if boundary - offset >= 0:
                    self._push(boundary - offset, self._fetch_round)
            boundary += config.feed_cadence

        while self._queue:
            t, _, fn, args = heapq.heappop(self._queue)
            self._now = t
            fn(*args)
        return self._build_report()

    # -- radio ----------------------------------------------------------------------

    def _tick_link(self, link: _Link, t: int) -> None:
        if t >= link.end:
            return
        a, b = self.clients[link.a], self.clients[link.b]
        directions = [(a, b)]
        if link.kind in ("direct", "relay_twoway"):
            directions.append((b, a))
        for src, dst in directions:
            if not src.device.is_advertising(t):
                continue
            if self.rng_channel.random() < self.config.channel_loss:
                continue
            identifier, rssi = src.identifier_at(t), link.rssi_at(t)
            if link.latency == 0:
                dst.receive(self, src, identifier, rssi, t, link)
            else:
                arrival = t + link.latency
                self._push(arrival, dst.receive, self, src, identifier, rssi, arrival, link)
        self._push(t + 1, self._tick_link, link, t + 1)

    def _tick_sensor(self, coverage, t: int) -> None:
        if t >= coverage.end:
            return
        client = self.clients[coverage.device]
        if client.device.is_advertising(t):
            self.sensor_log.append(
                (coverage.id, t, client.id, client.identifier_at(t))
            )
        self._push(t + 1, self._tick_sensor, coverage, t + 1)

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
