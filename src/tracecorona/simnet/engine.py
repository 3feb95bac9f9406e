"""Discrete-event proximity simulator.

One event queue drives everything: the radio of co-location intervals,
relay tunnels and eavesdropping sensors, handshake completions, and the
daily cadence (epoch advance, uploads at noon, charging at 22:00, feed
fetches at 23:00 and 23:30, adversary actions at 23:45).

The radio works in sighting runs.  A beacon is deliverable when its
source advertises at the beacon second and its receiver scans at
arrival, clock offsets and relay latency applied; both duty cycles are
fixed, so the engine finds the stretches of deliverable seconds by
arithmetic.  A run is the deliverable seconds up to the next frame
(identifier) boundary of either clock or RSSI change, duty-cycle gaps
and all, so that a receiver can take it whole: the first beacon with
the per-beacon rules, the rest as one extension of the sighting up to a
silence that breaks continuity (``Device.on_sighting_run``).  Links
that share a device while either may still deliver a beacon or
complete a handshake form a group (``_Group``), most often of one link.
A group's event hands over its beams' runs in the order in which the
per-second loop of ``tests/engine_oracle.py`` delivers the beacons, up
to the next event that touches its devices: a cadence event, another
link's first second or a handshake completion.  It cuts a run at the
dwell threshold and wherever the order within a second can matter
(``Engine._run_link``), so no other event sees a run half applied and
reports match the oracle byte for byte.  Sensors log the first and last
second of each advertising stretch per identifier.  A baseline client
keeps each run it is handed as one entry (identifier, RSSI, the run's
seconds on its own clock, provenance).  No run crosses a cadence event
or an identifier interval of its holder, so midnight drops a prefix of
whole runs, and the centralized upload is the runs.  At midnight the
baseline servers, too, forget what is older than the retention period.

Determinism: all randomness flows from the scenario seed through named
substreams (feed shuffles, TAN issuance, adversary noise, and channel
loss per link direction); events are processed in (time, insertion
order); device iteration follows config order.  Whether a beacon is
lost is drawn from its link direction's own generator, once per
deliverable second in time order, so it depends on the seed, the link,
the direction and the second only, never on the order of events.
Attack bookkeeping (which encounters were injected) lives where the
encounter does: a token carries its peer and the relay its handshake
ran through (``EncounterToken.peer_hint`` and ``via``), read off the
token a TraceCORONA notification matched; a baseline client's runs
carry their provenance; the engine keeps only which uploader published
which key, and infections.  No scheme step reads any of it.  The
report's tallies are read from the notification list.

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
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

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
#: A forged claim's draw: proof, record hash, record ciphertext.
_FORGED = struct.Struct(f"{wire.PROOF_BYTES}s{wire.TOKEN_HASH_BYTES}s{wire.CIPHERTEXT_BYTES}s")
#: Forged claims taken per draw: a fixed chunk bounds a draw's memory.
_FORGED_CHUNK = 256
_OFFSET = itemgetter(0)


def _sub_seed(seed: int, *labels) -> int:
    material = str(seed).encode() + b"|" + b"|".join(str(l).encode() for l in labels)
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _identity_seed(seed: int, device_id: str) -> bytes:
    return hashlib.sha256(str(seed).encode() + b"|id|" + device_id.encode()).digest()


@dataclass
class _Infection:
    contagious_day: int
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
    #: (offset from start, dBm) segments, the first at offset 0
    rssi: tuple = ((0, -55.0),)
    #: position in the engine's link list
    index: int = 0
    beams: list = field(default_factory=list)
    group: _Group | None = None
    #: the beams of its group's links between the same two devices, its own included
    pair: list = field(default_factory=list)

    def rssi_at(self, t: int) -> float:
        return self.rssi[bisect.bisect_right(self.rssi, t - self.start, key=_OFFSET) - 1][1]

    def rssi_change_after(self, t: int) -> float:
        """The first second after t at which the RSSI changes."""
        i = bisect.bisect_right(self.rssi, t - self.start, key=_OFFSET)
        return self.start + self.rssi[i][0] if i < len(self.rssi) else math.inf


def _segments(rssi) -> tuple:
    """An RSSI profile as ``_Link.rssi`` segments: a constant is one."""
    return rssi if isinstance(rssi, tuple) else ((0, float(rssi)),)


class _Beam:
    """One direction of a link: the beacons ``src`` sends and ``dst``
    hears, in arrival seconds (beacon second plus the link's latency).

    An arrival second is deliverable when ``src`` advertises at the
    beacon second and ``dst`` scans at arrival.  The beam walks the
    deliverable seconds as sighting runs, cut at frame boundaries of
    both clocks and at RSSI changes, so that identifier, frames and RSSI
    are constant over a run.  A run holds every deliverable second up to
    the next cut, duty-cycle gaps between them.  Loss is drawn from the
    beam's own generator, once per deliverable second in time order, so
    what is lost does not depend on the order in which the engine
    handles other links.  The runs are the engine's one statement of
    what ``dst`` hears, handed over whole or in parts with the run's
    identifier and RSSI.
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
        self.direction = direction
        #: whether its beacons reach ``dst`` second by second with those
        #: of another beam from ``src``, over another link
        self.interleaved = False

    def place(self, u: int, side: int | None = None) -> tuple:
        """The place (see ``_Group``) of the beacon arriving at second u,
        or of ``side`` 0 or 1 of the handshake that beacon asks for."""
        link, lat = self.link, self.link.latency
        if side is not None and lat == 0:
            return (*_ticks(link, u + 1), 2 * self.direction + side)
        if side is not None:
            return (u + 1 + (side + 1) * lat, 1, *self.place(u), side)
        if lat > 1:
            return (u, 1, *_ticks(link, u - lat), self.direction)
        # a latency-0 beacon is delivered by its tick, which the tick
        # before queued after up to four completions
        return (*_ticks(link, u), *((4, self.direction) if lat == 0 else (self.direction,)))

    def window(self, u: int) -> tuple[int, int]:
        """The first stretch ``[start, end)`` of deliverable seconds from
        second u on."""
        while True:
            adv = (u + self.src_shift) % ADVERTISE_PERIOD
            if adv >= ADVERTISE_ON:
                u += ADVERTISE_PERIOD - adv
                continue
            scan = (u + self.dst_shift) % SCAN_PERIOD
            if scan >= SCAN_ON:
                u += SCAN_PERIOD - scan
                continue
            return u, u + min(ADVERTISE_ON - adv, SCAN_ON - scan)

    def draw(self, u: int, end: int) -> Sequence[int]:
        """The deliverable seconds ``[u, end)`` that are not lost."""
        if not self.loss:
            return range(u, end)
        self.rng = rng = self.rng or random.Random(self.seed)
        return [t for t in range(u, end) if rng.random() >= self.loss]

    def load(self) -> None:
        """Move to the next run with a heard beacon; none left leaves
        ``pending`` empty.  A run ends at the link's end, an identifier
        boundary of ``src``, a frame boundary of ``dst`` or an RSSI
        change, and spans the duty-cycle gaps before it."""
        lat = self.link.latency
        src_period, dst_period = self.src.rotation_period, self.dst.rotation_period
        u, end = self.window(self.run_end)
        while u < self.hi:
            stop = min(
                self.hi,
                u + src_period - (u + self.src_shift) % src_period,
                u + dst_period - (u + self.dst_shift) % dst_period,
                self.link.rssi_change_after(u - lat) + lat,
            )
            heard = []
            while u < stop:
                heard += self.draw(u, min(end, stop))
                u, end = self.window(end)
            self.run_end = stop
            if heard:
                self.pending, self.until = heard, 0
                self.identifier = self.src.identifier_at(heard[0] - lat)
                self.rssi = self.link.rssi_at(heard[0] - lat)
                return
            u, end = self.window(stop)
        self.pending, self.rng = (), None

    def next_rule(self) -> float:
        """No pending beacon before this second may ask for a handshake."""
        if not self.pending or not self.dst.handshakes:
            return math.inf
        return max(self.pending[0], min(self.until, self.run_end))


def _ticks(link: _Link, t: int) -> tuple:
    """The place of a link's ticks t, t - 1, ..., its start: two such
    chains from one second agree until the later start, which is the
    first tick, queued at set-up and so first."""
    return (t, 0, link.index) if t == link.start else (t, 2, -link.start, link.index)


class _Group:
    """Links that share a device while either may still deliver a beacon
    or complete a handshake; one event at a time hands over their runs.

    Beacons and completions are ordered by their place in the per-second
    radio's queue.  That radio ticks each link every second from its
    start, the first tick queued at set-up in link order and each later
    one by the tick before; a tick delivers a latency-0 beacon itself and
    queues a latency-L one, and a handshake request queues both
    completions.  The queue is first-in first-out, so an event's place is
    its second, then the place of the event that queued it, then its turn
    among that event's (beams in order, each request's two completions,
    the next tick).  A place is this chain as a tuple, a chain of ticks
    as one element (``_ticks``).
    """

    def __init__(self, links: list[_Link]):
        #: places of the first ticks still to run
        self.starts = sorted((link.start, 0, link.index) for link in links)
        #: (place of the next pending beacon, beam), in place order
        self.queue: list[tuple] = []
        #: (place, queue sequence, link) of each completion still to run
        self.completions: list[tuple] = []
        #: place of the next beacon, where the group's next event runs
        self.resume: tuple = ()
        into: dict[_Client, list] = {}
        for link in links:
            link.group = self
            for beam in link.beams:
                into.setdefault(beam.dst, []).append(beam)
        for link in links:
            a, b = link.beams[0].src, link.beams[0].dst
            link.pair = [x for x in into[b] if x.src is a] + [x for x in into.get(a, ()) if x.src is b]
            for beam in link.beams:
                beam.interleaved = any(x is not beam and x.src is beam.src for x in link.pair)


class _Client:
    """Engine-side state of one device that every scheme shares.

    One subclass per scheme owns that scheme's state and its steps; the
    engine is passed to them as an argument, never kept.
    """

    #: seconds of the device's clock between identifier changes
    rotation_period: int
    #: whether a beacon it hears may ask for a handshake
    handshakes = True

    def __init__(self, spec, config: ScenarioConfig):
        self.id = spec.id
        self.identity = _identity_seed(config.seed, spec.id)
        policy = TimeFramePolicy(
            frame_period=config.frame_period,
            min_encounter_duration=config.min_encounter_duration,
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
        """The upload at the first noon on or after the device's test-result
        day: a result that a warning moves to today comes after today's noon."""
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
        #: the frames a fetch skips: the last feed's (a fetch serves no
        #: earlier epoch) and its own uploads since, whole, as one
        #: uploader's copies of a token differ only by tag (the last byte)
        self.seen_records: set[bytes] = set()
        self.matched_direct_hashes: set[bytes] = set()
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

    def _submit(self, engine: Engine, encode, records) -> None:
        """Send one upload of the records; once it is accepted, its frames
        join those the next fetch skips: a client never re-matches its own
        uploads."""
        body = encode(records)
        response = wire.handle_request(engine.server, body)
        engine.payload_up += 4 + len(body)
        engine.payload_down += 4 + len(response)
        if response[0] == wire.STATUS_ACCEPTED:
            self.seen_records.update(map(wire.encode_record, records))

    def _records(self, engine: Engine, tag: wire.Tag, skip_hashes=()) -> list:
        """A record under ``tag`` for each token the client may upload (not
        redacted) whose hash is not skipped."""
        self.device.charge()
        drops = [r for r in engine.config.redactions if r.device == self.id]
        tokens = exposure.redact_tokens(
            self.device.store,
            lambda token: any(r.drop_start <= token.start_time < r.drop_end for r in drops),
        )
        records = exposure.build_upload_records(tokens, tag)
        return [record for record in records if record.hash not in skip_hashes]

    def upload(self, engine: Engine, t: int, day: int) -> None:
        records = self._records(engine, wire.Tag.DIRECT)
        if not records:
            return
        tan = engine.authority.issue_tan(self.id, t)
        self._submit(engine, partial(wire.encode_upload_infected, tan.value), records)

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
        feed = wire.read_feed(response)
        self.next_since = feed.feed_epoch
        frames = dict.fromkeys(feed.frames)
        unseen = [f for f in frames if f not in self.seen_records]
        self.seen_records = set(frames)
        if not unseen:
            return
        feed = wire.PublishedFeed.from_frames(unseen, feed.feed_epoch)
        found = exposure.match_feed(self.device.store, feed, engine.config.epsilon)
        for notification in found:
            # Only the token's two ends hold its secret and a client skips
            # its own uploads, so the record came from the token's peer.
            token = notification.token
            direct = notification.level is exposure.NotificationLevel.DIRECT
            via = token.via if direct and not notification.superspreader_flag else None
            engine.record_notification(
                self, t, notification.level.value, notification.superspreader_flag,
                matched=notification.matched_hash.hex(),
                source=token.peer_hint,
                via=via,
                genuine=via is None,
            )
            engine.server.report_notification(
                notification.level.value, notification.superspreader_flag
            )
            if direct:
                self.matched_direct_hashes.add(notification.matched_hash)
        if any(n.level is exposure.NotificationLevel.DIRECT for n in found):
            self._react_to_direct(engine, t)

    def _react_to_direct(self, engine: Engine, t: int) -> None:
        config = engine.config
        day = t // SECONDS_PER_DAY
        timeline = config.disease_timeline
        infection = engine.gt_infections.get(self.id)
        if infection and not infection.uploaded:
            triggered = day + timeline.symptoms_to_test_days + timeline.test_to_result_days
            infection.result_day = min(infection.result_day, triggered)
        matched = self.matched_direct_hashes
        second_level = config.second_level_enabled and not self.second_level_done
        superspreader = (
            config.superspreader_enabled
            and not self.superspreader_done
            and len(matched) >= config.superspreader_threshold
        )
        self.second_level_done |= second_level
        self.superspreader_done |= superspreader
        if not (second_level or superspreader):
            return
        secrets = exposure.detect_superspreader_candidate(self.device.store, matched)
        secrets = secrets[: wire.MAX_PROOFS]  # all an upload can carry
        if second_level:
            encode = partial(wire.encode_upload_second_level, secrets[0])
            self._submit(engine, encode, self._records(engine, wire.Tag.SECOND_LEVEL, matched))
        if superspreader and len(secrets) >= config.superspreader_threshold:
            encode = partial(wire.encode_upload_superspreader, secrets)
            tag = wire.Tag.POSSIBLE_SUPERSPREADER
            self._submit(engine, encode, self._records(engine, tag, matched))

    @staticmethod
    def fake_claims(engine: Engine, attempts: int) -> int:
        """Second-level uploads with a random possession proof and one
        random direct record, checked by the server in one batch.  The
        attempts are drawn a chunk at a time, and each attempt's bytes
        split into the proof, the record's hash and its ciphertext: every
        width is a whole number of 32-bit words, so these are the bytes
        one draw per field, attempt after attempt, would give."""
        sizes = (
            min(_FORGED_CHUNK, attempts - start) * _FORGED.size
            for start in range(0, attempts, _FORGED_CHUNK)
        )
        uploads = (
            (proof, [wire.FRAME.pack(digest, wire.CIPHERTEXT_BYTES, ciphertext, wire.Tag.DIRECT)])
            for chunk in map(engine.rng_adversary.randbytes, sizes)
            for proof, digest, ciphertext in _FORGED.iter_unpack(chunk)
        )
        return engine.server.upload_second_level_each(uploads)


class _BaselineClient(_Client):
    """What the two baseline schemes share: a log of the identifiers
    heard, one ``baselines.Run`` per sighting run handed in, kept for the
    retention period.  Neither scheme asks for a handshake, so no run is
    cut where one might complete.  Its local seconds are one packed
    ``array('q')``: 8 bytes per held second and an 80-byte header, where
    a list of boxed ints takes about 40 bytes a second.  A run carries
    its provenance (source and relay), which only the engine's reporting
    reads: one dict per (source, relay) pair heard, shared by its runs."""

    handshakes = False

    def __init__(self, spec, config: ScenarioConfig):
        super().__init__(spec, config)
        self.runs: list[baselines.Run] = []
        self.retention_s = config.retention_days * SECONDS_PER_DAY
        #: (source, relay) -> the provenance every run heard from it shares
        self.provenances: dict[tuple, dict] = {}

    def on_run(self, engine, src, identifier, rssi, seconds, link) -> float:
        """The run whole, at the local seconds of the device's clock."""
        offset = self.device.clock_offset
        seconds = array("q", [t + offset for t in seconds] if offset else seconds)
        pair = (src.id, link.adversary)
        prov = self.provenances.get(pair)
        if prov is None:
            prov = self.provenances[pair] = {"source": src.id, "via": link.adversary}
        self.runs.append(baselines.Run(identifier, seconds, rssi, prov))
        return math.inf

    def midnight(self, day: int) -> None:
        """Drop the runs that ended before the retention horizon, a
        prefix: each run arrives in one event and ends before the next
        cadence event, and events run in time order, so runs are held in
        cadence-window order and none crosses the horizon's midnight."""
        super().midnight(day)
        horizon = self.device.local_time(day * SECONDS_PER_DAY) - self.retention_s
        del self.runs[: bisect.bisect_left(self.runs, horizon, key=lambda r: r.times[-1])]


class _DecentralizedClient(_BaselineClient):
    rotation_period = crypto.DECENTRALIZED_SLOT_SECONDS

    def __init__(self, spec, config: ScenarioConfig):
        super().__init__(spec, config)
        self.last_key_count = 0
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
        return attempts if engine.dec_server.count else 0

    def upload(self, engine: Engine, t: int, day: int) -> None:
        first = max(0, day - engine.config.retention_days + 1)
        keys = [self.daily_key(d) for d in range(first, day + 1)]
        engine.dec_server.publish(keys)
        engine.gt_published_keys.update(dict.fromkeys(keys, self.id))
        engine.payload_up += 4 + 1 + len(keys) * 20

    def fetch(self, engine: Engine, t: int) -> None:
        server = engine.dec_server
        if server.count == self.last_key_count:
            return
        new_keys = server.download(self.last_key_count)
        self.last_key_count = server.count
        engine.payload_up += 4 + 5
        engine.payload_down += 4 + 1 + 20 * len(new_keys)
        matches = baselines.match_observations(
            new_keys,
            self.runs,
            replay_window=engine.config.replay_window,
            kiss_bug=engine.config.kiss_bug,
        )
        if not matches:
            return
        provenance = baselines.provenance_lookup(self.runs)
        for match in matches:
            owner = engine.gt_published_keys.get(match.key)
            prov = provenance(match.observation.tempid, match.observation.time)
            engine.record_notification(
                self, t, "direct", False,
                matched=match.observation.tempid.hex(),
                source=owner,
                via=prov["via"],
                genuine=prov["via"] is None and owner is not None and prov["source"] == owner,
            )


class _CentralizedClient(_BaselineClient):
    rotation_period = baselines.CENTRAL_INTERVAL_SECONDS

    def register(self, engine: Engine) -> None:
        self.cen_server = engine.cen_server
        self.user_id = self.cen_server.register()

    def identifier_at(self, t: int) -> bytes:
        t_k = self.device.local_time(t) // baselines.CENTRAL_INTERVAL_SECONDS
        return self.cen_server.tempid_for(self.user_id, t_k)

    def upload(self, engine: Engine, t: int, day: int) -> None:
        tan = engine.authority.issue_tan(self.id, t)
        engine.authority.verify_tan(tan.value)  # spends the TAN
        engine.payload_up += 4 + 2 + len(tan.value) + 24 * sum(len(r.times) for r in self.runs)
        matched = self.cen_server.ingest_upload(self.user_id, self.runs, day)
        by_user = {
            c.user_id: c for c in engine.clients.values() if isinstance(c, _CentralizedClient)
        }
        provenance = baselines.provenance_lookup(self.runs)
        for user_id in matched:
            genuine, via = self._match_provenance(by_user[user_id], provenance)
            engine.payload_down += 21
            engine.record_notification(
                by_user[user_id], t, "direct", False,
                matched=user_id.hex(),
                source=self.id,
                via=via,
                genuine=genuine,
            )

    def _match_provenance(self, target, provenance):
        """Did any genuinely observed identifier of `target` trigger the
        match, or only relayed ones?"""
        best_via = None
        # one derivation per interval, in the order held
        tempids: dict[int, bytes] = {}
        for run in self.runs:
            t_k = baselines.run_interval(run)
            if t_k not in tempids:
                tempids[t_k] = self.cen_server.tempid_for(target.user_id, t_k)
            if tempids[t_k] != run.tempid:
                continue
            for t in run.times:
                prov = provenance(run.tempid, t)
                if prov["via"] is None and prov["source"] == target.id:
                    return True, None
                best_via = prov["via"]
        return False, best_via


_CLIENTS = {
    "tracecorona": _TraceCoronaClient,
    "decentralized": _DecentralizedClient,
    "centralized": _CentralizedClient,
}


def _group(links: list[_Link]) -> None:
    """Put each link in its ``_Group``."""
    members = {link: [link] for link in links}
    #: device -> the link that reaches furthest in time so far, and how far
    reach: dict[str, tuple] = {}
    for link in sorted(links, key=lambda link: link.start):
        end = link.end + 3 * link.latency + 1
        for device in (link.a, link.b):
            other, other_end = reach.get(device, (link, end))
            group, joined = members[other], members[link]
            if link.start < other_end and group is not joined:
                if len(group) < len(joined):
                    group, joined = joined, group
                group += joined
                members.update(dict.fromkeys(joined, group))
            if end >= other_end:
                reach[device] = (link, end)
    for group in {id(group): group for group in members.values()}.values():
        _Group(group)


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
        #: published key -> its owner, in publication order; a device
        #: uploads once, so each key is published once
        self.gt_published_keys: dict[baselines.DecentralizedDailyKey, str] = {}
        self.gt_infections: dict[str, _Infection] = {}

        self.sensor_log: list[tuple[str, int, str, bytes]] = []
        #: (two-way relay, frame of its captured device) -> victims admitted or completed
        self.relay_admitted: dict[tuple, set] = {}
        self.relay_completed: dict[tuple, set] = {}
        #: relay adversary -> the devices falsely notified through it
        self.adv_successes: dict[int, set] = {}
        #: fake claimer -> claims the server accepted
        self.claim_results: dict[int, int] = {}

        self.payload_up = 0
        self.payload_down = 0
        #: in time order; the report's tallies are read from it
        self.notifications: list[dict] = []

        timeline = config.disease_timeline
        for infection in config.infections:
            contagious = infection.day + timeline.incubation_to_contagious_days
            symptoms = contagious + timeline.contagious_to_symptoms_days
            result = (
                symptoms + timeline.symptoms_to_test_days + timeline.test_to_result_days
            )
            self.gt_infections[infection.device] = _Infection(
                contagious_day=contagious, result_day=result
            )

    # -- event queue -------------------------------------------------------------

    def _push(self, t: int, fn, *args, seq: float | None = None) -> None:
        """Queue ``fn(*args)`` at t, after the events queued so far or,
        given ``seq``, where that sequence number falls among them."""
        if t >= self.config.duration_days * SECONDS_PER_DAY:
            return
        if seq is None:
            self._seq += 1
            seq = self._seq
        heapq.heappush(self._queue, (t, seq, fn, args))

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
                rssi=_segments(interval.rssi_profile),
            )
            for i, interval in enumerate(config.colocation_schedule)
        ]
        for index, adv in enumerate(config.adversaries):
            if adv.kind not in ("relay_oneway", "relay_twoway"):
                continue
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
                    rssi=_segments(adv.emit_rssi),
                )
                for victim in adv.victims
            ]
        for index, link in enumerate(links):
            link.index = index
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
        _group(links)
        for link in links:
            self._push(link.start, self._run_link, link, True)

        for index, adv in enumerate(config.adversaries):
            if adv.kind == "eavesdropper":
                for coverage in adv.sensors:
                    self._push(coverage.start, self._sense, coverage)
            elif adv.kind == "fake_claimer":
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
        """Hand the runs of a link's group to their receivers in place
        order, up to the next event that touches the group's devices: a
        cadence event, another link's first tick (``first`` is this
        link's) or a handshake completion.

        Beacons that ask for a handshake, a run's first and any its
        receiver asks for, are handed in place order; the others only
        extend a sighting.  So the beam whose next beacon comes first
        hands its run over up to where a handshake between the same two
        devices may complete, one second plus the latency after a beacon
        that may ask for it; an interleaved beam only up to the group's
        next beacon.
        """
        group = link.group
        queue, completions = group.queue, group.completions
        if first:
            here = group.starts.pop(0)
            for beam in link.beams:
                beam.load()
                if beam.pending:
                    bisect.insort(queue, (beam.place(beam.pending[0]), beam))
        else:
            here = group.resume
        while completions and completions[0][0] < here:
            # a completion may have ended what a receiver waited for
            for beam in completions.pop(0)[2].pair:
                beam.until = 0
        # cadence events come after the first ticks of their second, before the rest
        later = bisect.bisect_left if first else bisect.bisect_right
        barrier = min([
            (self._cadence[later(self._cadence, self._now)], 1),
            *group.starts[:1],
            *(place for place, _, _ in completions[:1]),
        ])
        while queue and queue[0][0] < barrier:
            place, beam = queue.pop(0)
            s = place[0]
            bound = max(s + 1, min([
                barrier[0],
                *(queue[0][0][:1] if beam.interleaved and queue else ()),
                *(o.next_rule() + 1 + o.link.latency for o in beam.link.pair if o is not beam),
            ]))
            seconds = beam.pending[: bisect.bisect_left(beam.pending, bound)]
            queued = self._seq
            beam.until = beam.dst.on_run(
                self, beam.src, beam.identifier, beam.rssi, seconds, beam.link
            )
            # the events it queued are the completions of the handshake it asked for
            for side in range(self._seq - queued):
                done = beam.place(s, side)
                bisect.insort(completions, (done, queued + 1 + side, beam.link))
                barrier = min(barrier, done)
            beam.pending = beam.pending[bisect.bisect_left(seconds, beam.until):]
            if not beam.pending:
                beam.load()
            if beam.pending:
                bisect.insort(queue, (beam.place(beam.pending[0]), beam))
        if queue and (not group.starts or queue[0][0] < group.starts[0]):
            # at the next beacon's place, before the completions after it
            group.resume = place = queue[0][0]
            after = [seq for at, seq, _ in completions if at[0] == place[0] and at > place]
            self._push(place[0], self._run_link, link, seq=after[0] - 0.5 if after else None)

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
        """Start the handshake ``requester`` asked of ``owner``, or abort the
        request if the link carries none or a side has no free channel."""
        opened = (
            link.kind != "relay_oneway"
            and self._relay_admits(requester, owner, t, link)
            and requester.device.try_open_channel()
        )
        if opened and not owner.device.try_open_channel():
            requester.device.close_channel()
            opened = False
        if not opened:
            requester.device.abort_handshake(request.frame_index, request.peer_ephemeral_id)
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
        )
        self._push(
            t + 1 + 2 * latency,
            self._complete_handshake,
            initiator, resp_pub, resp_frame, resp_ei, responder.id, link,
        )

    def _complete_handshake(
        self,
        client: _Client,
        peer_pub: bytes,
        peer_frame: int,
        peer_ei: bytes,
        peer_hint: str,
        link: _Link,
    ) -> None:
        t = self._now
        client.device.close_channel()
        try:
            token = client.device.complete_handshake(
                peer_pub, peer_frame, t,
                peer_ephemeral_id=peer_ei, peer_hint=peer_hint,
            )
        except (FrameMismatch, InvalidPoint):
            return
        token.via = link.adversary
        if link.kind == "relay_twoway" and client.id != link.a:
            self.relay_completed.setdefault(self._relay_frame(link, t), set()).add(client.id)

    def _relay_frame(self, link: _Link, t: int) -> tuple:
        """The relay and the frame its captured device ``link.a`` is in at t."""
        return link.adversary, self.clients[link.a].device.current_frame(t)

    def _relay_admits(self, requester: _Client, owner: _Client, t: int, link: _Link) -> bool:
        """Whether the link carries this handshake: a two-way relay admits
        at most its ``fanout_limit`` victims per ``_relay_frame``."""
        if link.kind != "relay_twoway":
            return True
        victim = owner if owner.id != link.a else requester
        limit = self.config.adversaries[link.adversary].fanout_limit
        admitted = self.relay_admitted.setdefault(self._relay_frame(link, t), set())
        if victim.id not in admitted and len(admitted) >= limit:
            return False
        admitted.add(victim.id)
        return True

    # -- daily cadence ---------------------------------------------------------------------

    def _midnight(self, day: int) -> None:
        self.server.advance_epoch(day)
        horizon = day - self.config.retention_days
        # no client holds a run, or broadcasts, before its clock's horizon
        local = min(c.device.local_time(horizon * SECONDS_PER_DAY) for c in self.clients.values())
        self.cen_server.forget_before(horizon, local // baselines.CENTRAL_INTERVAL_SECONDS)
        # a key stays while it can match a held run, up to replay_window past its day
        self.dec_server.forget_before(horizon - 1 - self.config.replay_window // SECONDS_PER_DAY)
        for client in self.clients.values():
            client.midnight(day)

    def _charge_tick(self) -> None:
        for client in self.clients.values():
            client.device.charge()

    def _noon_uploads(self, day: int) -> None:
        t = day * SECONDS_PER_DAY + NOON
        for device_id, infection in self.gt_infections.items():
            if infection.uploaded or infection.result_day > day:
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
        self.claim_results[index] = accepted

    # -- notifications and report -----------------------------------------------------------------

    def record_notification(
        self, client: _Client, t: int, level: str, superspreader_flag: bool,
        matched: str, source: str | None, via: int | None, genuine: bool,
    ) -> None:
        day = t // SECONDS_PER_DAY
        latency = None
        if genuine and level == "direct" and source in self.gt_infections:
            latency = day - self.gt_infections[source].contagious_day
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
        if not genuine and via is not None:
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
        for key, owner in self.gt_published_keys.items():
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
        relay_fanout = {}
        for index, adv in enumerate(self.config.adversaries):
            if adv.kind == "eavesdropper":
                continue
            if adv.kind == "fake_claimer":
                attempts, successes = adv.attempts, self.claim_results.get(index, 0)
            else:
                attempts, successes = len(adv.victims), len(self.adv_successes.get(index, ()))
            if adv.kind == "relay_twoway":
                per_frame = [len(v) for (i, _), v in self.relay_completed.items() if i == index]
                relay_fanout[str(index)] = max(per_frame, default=0)
            attack_details[str(index)] = {
                "kind": adv.kind,
                "attempts": attempts,
                "successes": successes,
                "success_rate": successes / attempts if attempts else 0.0,
            }
            total_attempts += attempts
            total_successes += successes
        rate = total_successes / total_attempts if total_attempts else 0.0

        spans, recovered, gt_ids = self._linkability()
        # the notification list is in time order: a device's first entry
        # is its first notification
        first_day, first_latency = {}, {}
        for note in self.notifications:
            first_day.setdefault(note["device"], note["day"])
            if note["latency_days"] is not None:
                first_latency.setdefault(note["device"], note["latency_days"])

        return ScenarioReport(
            name=self.config.name,
            scheme=self.config.scheme,
            seed=self.config.seed,
            config_digest=self.config.digest(),
            duration_days=self.config.duration_days,
            notifications=self.notifications,
            false_notification_count=sum(not n["genuine"] for n in self.notifications),
            attack_success_rate=rate,
            attack_details=attack_details,
            relay_fanout=relay_fanout,
            max_linkability_window_s=spans,
            linkability_recovered=recovered,
            gt_day_identifiers=gt_ids,
            notification_latency_days=dict(sorted(first_latency.items())),
            first_notification_day=dict(sorted(first_day.items())),
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
