"""Client protocol: duty cycles, neighbor tracking, handshakes, store."""

import bisect
import hashlib
from collections import Counter

import pytest

from tracecorona import crypto
from tracecorona.crypto import EncounterToken, TimeFramePolicy
from tracecorona.device import (
    ADVERTISE_ON,
    APP_UUID,
    CONTINUITY_GAP,
    SCAN_ON,
    BeaconMessage,
    Device,
    FrameMismatch,
    TokenStore,
)


def make_device(name, offset=0, mode="eager"):
    seed = hashlib.sha256(b"test-" + name.encode()).digest()
    return Device(name, seed, clock_offset=offset, derive_mode=mode)


def beacon(device, t):
    """The beacon the device broadcasts at true time t."""
    return BeaconMessage(APP_UUID, device.ephemeral_id(device.current_frame(t)))


def run_encounter(a, b, start, seconds, rssi=-55.0):
    """Deliver beacons both ways each second; complete any handshakes
    immediately.  Returns completed tokens keyed by (device, peer)."""
    tokens = {}
    for t in range(start, start + seconds):
        for src, dst in ((a, b), (b, a)):
            if not (src.is_advertising(t) and dst.is_scanning(t)):
                continue
            request = dst.on_beacon(beacon(src, t), rssi, t)
            if request is None:
                continue
            src_frame = src.current_frame(t)
            dst_frame = dst.current_frame(t)
            src.mark_handshake_pending(src_frame, dst.ephemeral_id(dst_frame))
            try:
                t1 = dst.complete_handshake(
                    src.keypair(src_frame).public_key,
                    src_frame,
                    t,
                    peer_ephemeral_id=request.peer_ephemeral_id,
                    peer_hint=src.device_id,
                )
                tokens[(dst.device_id, src.device_id, t1.frame_index)] = t1
                t2 = src.complete_handshake(
                    dst.keypair(dst_frame).public_key,
                    dst_frame,
                    t,
                    peer_ephemeral_id=dst.ephemeral_id(dst_frame),
                    peer_hint=dst.device_id,
                )
                tokens[(src.device_id, dst.device_id, t2.frame_index)] = t2
            except FrameMismatch:
                pass
    return tokens


class TestClockActions:
    def test_frame_rotation_changes_ephemeral_id(self):
        device = make_device("a")
        assert device.current_frame(10) != device.current_frame(901)
        assert beacon(device, 901).ephemeral_id != beacon(device, 10).ephemeral_id

    def test_duty_cycle_shapes(self):
        device = make_device("a")
        assert device.is_advertising(0) and device.is_advertising(39)
        assert not device.is_advertising(40) and not device.is_advertising(59)
        assert device.is_scanning(0) and device.is_scanning(29)
        assert not device.is_scanning(30) and not device.is_scanning(49)

    def test_round_trip_discovery_within_two_minutes(self):
        # worst-case phase offsets still give mutual sightings in 120 s
        for offset in (0, 7, 23, 41):
            a = make_device("a", offset=0)
            b = make_device("b", offset=offset)
            for t in range(0, 120):
                if a.is_advertising(t) and b.is_scanning(t):
                    b.on_beacon(beacon(a, t), -55.0, t)
                if b.is_advertising(t) and a.is_scanning(t):
                    a.on_beacon(beacon(b, t), -55.0, t)
            assert a._neighbors and b._neighbors


class TestOnBeacon:
    def test_first_sighting_no_handshake(self):
        a, b = make_device("a"), make_device("b")
        t = 0
        assert b.on_beacon(beacon(a, t), -50.0, t) is None

    def test_handshake_after_min_duration(self):
        a, b = make_device("a"), make_device("b")
        request = None
        for t in range(0, 400):
            if a.is_advertising(t) and b.is_scanning(t):
                request = b.on_beacon(beacon(a, t), -50.0, t)
                if request:
                    break
        assert request is not None
        assert 300 <= t <= 310

    def test_gap_resets_duration_counter(self):
        a, b = make_device("a"), make_device("b")
        # sightings at 0 and 100, then silence beyond the gap, then resume
        b.on_beacon(beacon(a, 0), -50.0, 0)
        b.on_beacon(beacon(a, 100), -50.0, 100)
        resume = 100 + CONTINUITY_GAP + 60
        requests = []
        t = resume
        while t < resume + 400:
            if a.is_advertising(t) and b.is_scanning(t):
                request = b.on_beacon(beacon(a, t), -50.0, t)
                if request:
                    requests.append((t, request))
                    break
            t += 1
        # the dwell clock restarted at `resume`-ish, not at 0
        assert requests
        first_seen = b._neighbors[beacon(a, 0).ephemeral_id].first_seen
        assert first_seen >= resume
        assert requests[0][0] - first_seen >= 300

    def test_reachability_matches_duty_cycle_oracle(self):
        # the handshake fires at the first sighting >= dwell after the
        # oracle-computed continuous-observation start
        a, b = make_device("a"), make_device("b")
        sightings = [
            t
            for t in range(0, 700)
            if a.is_advertising(t) and b.is_scanning(t)
        ]
        dwell_start = sightings[0]
        expected = next(t for t in sightings if t - dwell_start >= 300)
        got = None
        for t in sightings:
            if b.on_beacon(beacon(a, t), -50.0, t):
                got = t
                break
        assert got == expected

    @pytest.mark.parametrize("end", [400, 600])
    def test_sighting_run_matches_beacon_by_beacon(self, end):
        # heard 0-20 and 150-end: a 130 s silence before the 300 s dwell,
        # so the sighting starts again at 150 and crosses the dwell at 450
        a, by_run, by_beacon = make_device("a"), make_device("b"), make_device("b")
        heard = beacon(a, 0)
        seconds = [t for t in (*range(21), *range(150, end + 1)) if by_run.is_scanning(t)]
        requests, rest = [], seconds
        while rest:
            request, until = by_run.on_sighting_run(heard, -50.0, rest)
            if request is not None:
                requests.append((rest[0], request))
            rest = rest[bisect.bisect_left(rest, until) :]
        expected = [(t, r) for t in seconds if (r := by_beacon.on_beacon(heard, -50.0, t))]
        assert requests == expected
        assert [t for t, _ in requests] == ([450] if end > 450 else [])
        assert by_run._neighbors == by_beacon._neighbors
        assert by_run._neighbors[heard.ephemeral_id].first_seen == 150

    def test_ignores_foreign_uuid(self):
        b = make_device("b")
        foreign = BeaconMessage(uuid=b"x" * 16, ephemeral_id=b"e" * 16)
        assert b.on_beacon(foreign, -50.0, 0) is None
        assert not b._neighbors

    def test_not_scanning_ignored(self):
        a, b = make_device("a"), make_device("b")
        t = 35  # scan idle window
        assert not b.is_scanning(t)
        assert b.on_beacon(beacon(a, t), -50.0, t) is None


class TestCompleteHandshake:
    def test_token_symmetry(self):
        a, b = make_device("a", offset=2), make_device("b", offset=-3)
        tokens = run_encounter(a, b, 0, 400)
        (ta,) = [t for (d, _p, _f), t in tokens.items() if d == "a"]
        (tb,) = [t for (d, _p, _f), t in tokens.items() if d == "b"]
        assert ta.secret == tb.secret
        assert abs(ta.start_time - tb.start_time) <= 5

    def test_frame_mismatch_rejected(self):
        a, b = make_device("a"), make_device("b")
        for t in range(0, 301):
            if a.is_advertising(t) and b.is_scanning(t):
                b.on_beacon(beacon(a, t), -50.0, t)
        with pytest.raises(FrameMismatch):
            b.complete_handshake(
                a.keypair(0).public_key,
                a.current_frame(300) - 1,
                300,
                peer_ephemeral_id=beacon(a, 300).ephemeral_id,
            )

    def test_two_tokens_across_frame_boundary(self):
        a, b = make_device("a"), make_device("b")
        # 20 minutes spanning the 900 s boundary, 10 min on each side
        tokens = run_encounter(a, b, 300, 1200)
        assert len(a.store) == 2
        assert len(b.store) == 2
        frames = sorted(t.frame_index for t in a.store.tokens())
        assert frames == [0, 1]
        assert len(tokens) == 4

    @pytest.mark.parametrize(
        "heard, expected_rssi",
        [
            ({t: -80.0 if t < 400 else -52.0 for t in range(600)}, -52.0),
            # a louder run ends in a silence longer than CONTINUITY_GAP, so
            # the token is made from the run that starts after it
            (
                {**dict.fromkeys(range(100), -40.0), **dict.fromkeys(range(300, 850), -80.0)},
                -80.0,
            ),
        ],
        ids=["louder_later", "louder_before_gap"],
    )
    def test_duration_extends_and_rssi_tracks_maximum(self, heard, expected_rssi):
        a, b = make_device("a"), make_device("b")
        completed = False
        for t, rssi in heard.items():
            if not (a.is_advertising(t) and b.is_scanning(t)):
                continue
            request = b.on_beacon(beacon(a, t), rssi, t)
            if request and not completed:
                frame = b.current_frame(t)
                b.complete_handshake(
                    a.keypair(frame).public_key, frame, t,
                    peer_ephemeral_id=request.peer_ephemeral_id,
                )
                completed = True
        token = b.store.tokens()[0]
        assert 500 <= token.duration < 600
        assert token.max_signal_strength == expected_rssi

    def test_no_token_without_dwell(self):
        a, b = make_device("a"), make_device("b")
        tokens = run_encounter(a, b, 0, 200)  # drive-by
        assert not tokens
        assert len(a.store) == 0 and len(b.store) == 0

    def test_deferred_mode_matches_eager(self):
        eager_a, eager_b = make_device("a"), make_device("b")
        eager_tokens = run_encounter(eager_a, eager_b, 0, 400)
        lazy_a, lazy_b = make_device("a", mode="deferred"), make_device("b", mode="deferred")
        lazy_tokens = run_encounter(lazy_a, lazy_b, 0, 400)
        assert all(t.secret is None for t in lazy_tokens.values())
        assert lazy_a.charge() == 1 and lazy_b.charge() == 1
        assert {t.secret for t in lazy_a.store.tokens()} == {
            t.secret for t in eager_a.store.tokens()
        }
        assert {t.secret for t in lazy_b.store.tokens()} == {
            t.secret for t in eager_b.store.tokens()
        }

    def test_pending_derivation_outlives_the_keypair_cache(self, monkeypatch):
        """A deferred derivation stays pending while five newer frames'
        keypairs are built, more than the device keeps: charging derives
        the eager twin's secret and builds no keypair a second time."""
        peer = make_device("p")
        peer_public, peer_ei = peer.keypair(0).public_key, peer.ephemeral_id(0)
        eager = make_device("a").complete_handshake(peer_public, 0, 100, peer_ei)
        builds = Counter()
        generate = crypto.generate_frame_keypair

        def counted(frame_index, rng):
            builds[frame_index] += 1
            return generate(frame_index, rng)

        monkeypatch.setattr(crypto, "generate_frame_keypair", counted)
        lazy = make_device("a", mode="deferred")
        token = lazy.complete_handshake(peer_public, 0, 100, peer_ei)
        assert token.secret is None
        for frame in range(1, 6):
            lazy.keypair(frame)
        assert lazy.charge() == 1
        assert token.secret == eager.secret
        assert builds == Counter(range(6))

    def test_deferred_derivation_decodes_each_peer_key_once(self, monkeypatch):
        """A deferred handshake decodes the peer's key when it checks it,
        and charging derives from that point without decoding it again;
        each secret is its eager twin's."""
        peers = [make_device(name) for name in ("p", "q")]
        keys = [(peer.keypair(0).public_key, peer.ephemeral_id(0)) for peer in peers]
        eager = make_device("a")
        eager_secrets = [eager.complete_handshake(public, 0, 100, ei).secret for public, ei in keys]
        decoded = Counter()
        validate = crypto.validate_public_key

        def counted(peer_public):
            decoded[peer_public] += 1
            return validate(peer_public)

        monkeypatch.setattr(crypto, "validate_public_key", counted)
        lazy = make_device("a", mode="deferred")
        tokens = [lazy.complete_handshake(public, 0, 100, ei) for public, ei in keys]
        assert lazy.charge() == 2
        assert decoded == Counter(public for public, _ in keys)
        assert [token.secret for token in tokens] == eager_secrets


class TestChannels:
    def test_cap_at_eight(self):
        device = make_device("a")
        opened = sum(device.try_open_channel() for _ in range(12))
        assert opened == 8
        device.close_channel()
        assert device.try_open_channel()
        assert device.peak_open_channels == 8


class TestTokenStore:
    def fixture_store(self):
        store = TokenStore()
        day = 86400
        for d in range(14):
            for i in range(20):
                token = EncounterToken(
                    secret=bytes([d, i]) + bytes(30),
                    start_time=d * day + i * 900,
                    duration=900,
                    max_signal_strength=-60.0,
                    frame_index=(d * day + i * 900) // 900,
                )
                store.add(token.frame_index, bytes([d, i]) + bytes(14), token)
        return store

    def test_purge_removes_only_expired(self):
        store = self.fixture_store()
        assert len(store) == 14 * 20
        now = 14 * 86400 + 86400  # one day past the newest day-13 tokens
        removed = store.purge(now)
        assert removed == 20
        assert len(store) == 13 * 20

    def test_aged_15_days_removed_13_kept(self):
        store = TokenStore()
        now = 20 * 86400
        old = EncounterToken(bytes(32), now - 15 * 86400, 600, -60.0, 0)
        fresh = EncounterToken(bytes(32), now - 13 * 86400, 600, -60.0, 0)
        store.add(0, b"old" + bytes(13), old)
        store.add(1, b"new" + bytes(13), fresh)
        assert store.purge(now) == 1
        assert store.tokens() == [fresh]
