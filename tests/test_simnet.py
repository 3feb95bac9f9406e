"""Simulator: config validation, determinism, scenarios, invariants."""

import bisect
import heapq
import itertools
import json
import math
import random
import re
import sys
import tracemalloc
from array import array
from collections import Counter
from importlib import resources
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import match_oracle
from test_report_digests import FAST_TIMELINE, relay_reaction, room

from tracecorona import baselines, crypto, wire
from tracecorona.device import MAX_OPEN_CHANNELS, HandshakeRequest
from tracecorona.simnet import engine as engine_module
from tracecorona.simnet.config import ConfigError, InfectionSpec, ScenarioConfig
from tracecorona.simnet.engine import Engine, _Link, _TraceCoronaClient, run_scenario
from tracecorona.simnet.report import ScenarioReport

DAY = 86400


def config_dict(**overrides):
    base = {
        "name": "test",
        "seed": 1,
        "duration_days": 10,
        "scheme": "tracecorona",
        "devices": [{"id": "a"}, {"id": "b", "clock_offset_s": 3}],
        "colocation_schedule": [
            {
                "device_a": "a",
                "device_b": "b",
                "start": 3 * DAY + 36000,
                "end": 3 * DAY + 37200,
                "rssi_profile": -55,
            }
        ],
        "infections": [{"device": "a", "day": 0}],
    }
    base.update(overrides)
    return base


SCENARIOS = resources.files("tracecorona") / "scenarios"
BUNDLED = sorted(p.name[:-5] for p in SCENARIOS.iterdir() if p.name.endswith(".json"))


def bundled_dict(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


RELAY = {"kind": "relay_oneway", "capture": "a", "victims": ["b"], "start": 0, "end": 100}


def without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


#: Single-fault configs, the path each error names and its problem; the
#: problem is None for type errors, whose wording is not pinned.
BAD_CONFIGS = [
    (config_dict(adversaries=[without(RELAY, key)]), f"adversaries[0].{key}",
     "missing required field")
    for key in ("capture", "victims", "start", "end")
] + [
    (config_dict(adversaries=[{"kind": "eavesdropper"}]), "adversaries[0].sensors",
     "missing required field"),
    (without(config_dict(), "devices"), "devices", "missing required field"),
    (config_dict(channel_loss="x"), "channel_loss", None),
    (config_dict(adversaries=[dict(RELAY, victims=[3])]), "adversaries[0].victims[0]", None),
    (config_dict(version=2), "version", "unsupported config version"),
    (config_dict(adversaries=[{"kind": 3}]), "adversaries[0].kind", None),
    # a relay cannot deliver a beacon before it was sent
    (config_dict(adversaries=[dict(RELAY, latency_s=-5)]), "adversaries[0].latency_s",
     "must be >= 0"),
]

#: ``config_digest`` of each bundled scenario; a change here changes every
#: report's ``config_digest``.
BUNDLED_DIGESTS = {
    "eavesdropper": "f24fe1f52d4cd3ab548461ae08222f6d02fe17e2a42fef4f5304365aed78defc",
    "eavesdropper_decentralized":
        "c100b0a481d5c87815a18f963de4d5c52f8fbfa85d1f62a2827373bf5c483dc5",
    "fake_claim": "d4827566e3f53bc3373e94db16724867991f0784bdbcc326d460e880f52fbb97",
    "honest_pair": "29c2a594bd88f65b873ceed042736dd13aeebfd1467fb826981ce48d3bbb3ba5",
    "kiss_replay": "41d4c9e5c663ecbeddd0f5fe0d53c7993b33ba616af7f871acc41d8fde4c024a",
    "relay_r1": "35dcabee115fffa12da1a40eb9a91bf4c0c244747454451f337ebbf4bd3bbf83",
    "relay_r2": "f2d8ca7f4c83993ec9f275bb387bd28eff520e8b675e4adf8d8f447408d4361e",
    "timeline_chain": "c21e98841998bd5afdf44ed3ce57fb47e3be78bc073e209e21dccb6eb3f1ce58",
    "timeline_chain_early":
        "9db453ed804fa65e2af8b762b2cd01cbf1909ec674d0455808146827c3ab0c0b",
}


class TestConfig:
    @pytest.mark.parametrize(
        "data", [config_dict(), *map(bundled_dict, BUNDLED)], ids=["config_dict", *BUNDLED]
    )
    def test_round_trip(self, data):
        config = ScenarioConfig.from_dict(data)
        again = ScenarioConfig.from_dict(config.to_dict())
        assert config == again
        assert config.digest() == again.digest()

    def test_bundled_digests(self):
        digests = {name: ScenarioConfig.from_dict(bundled_dict(name)).digest() for name in BUNDLED}
        assert digests == BUNDLED_DIGESTS

    @pytest.mark.parametrize(
        "data, path, problem", BAD_CONFIGS, ids=[path for _, path, _ in BAD_CONFIGS]
    )
    def test_error_paths(self, data, path, problem):
        with pytest.raises(ConfigError) as excinfo:
            ScenarioConfig.from_dict(data)
        assert excinfo.value.path == path
        if problem is not None:
            assert excinfo.value.problem == problem

    def test_replace_checks_devices(self):
        config = ScenarioConfig.from_dict(bundled_dict("honest_pair"))
        with pytest.raises(ConfigError) as excinfo:
            config.replace(devices=config.devices[:1])
        assert excinfo.value.path == "colocation_schedule[0].device_b"

    def test_replace_checks_infections(self):
        config = ScenarioConfig.from_dict(bundled_dict("honest_pair"))
        with pytest.raises(ConfigError) as excinfo:
            config.replace(infections=(InfectionSpec("zz", 0),))
        assert excinfo.value.path == "infections[0].device"

    def test_float_field_stores_float(self):
        config = ScenarioConfig.from_dict(config_dict(channel_loss=0))
        assert isinstance(config.channel_loss, float)
        assert '"channel_loss":0.0' in config.canonical_json()

    @pytest.mark.parametrize(
        "data, path",
        [
            (config_dict(epsilon=True), "epsilon"),
            (
                config_dict(colocation_schedule=[{"device_a": "a", "device_b": "b",
                                                  "start": True, "end": 100}]),
                "colocation_schedule[0].start",
            ),
        ],
        ids=["epsilon", "start"],
    )
    def test_bool_is_not_an_int(self, data, path):
        with pytest.raises(ConfigError) as excinfo:
            ScenarioConfig.from_dict(data)
        assert (excinfo.value.path, excinfo.value.problem) == (path, "expected int, got bool")

    def test_bool_fields_still_parse(self):
        config = ScenarioConfig.from_dict(config_dict(scheme="decentralized", kiss_bug=True))
        assert config.kiss_bug is True and config.bluetrace is False

    def test_adversary_keys_follow_kind(self):
        oneway = dict(RELAY, fanout_limit=3)
        twoway = dict(oneway, kind="relay_twoway")
        config = ScenarioConfig.from_dict(config_dict(adversaries=[oneway, twoway]))
        written = config.to_dict()["adversaries"]
        assert config.adversaries[0].fanout_limit == 3
        assert "fanout_limit" not in written[0]
        assert written[1]["fanout_limit"] == 3

    def test_unknown_field_has_path(self):
        with pytest.raises(ConfigError, match="bogus"):
            ScenarioConfig.from_dict(config_dict(bogus=1))

    def test_unknown_device_in_schedule(self):
        bad = config_dict()
        bad["colocation_schedule"][0]["device_b"] = "zz"
        with pytest.raises(ConfigError, match=r"colocation_schedule\[0\].device_b"):
            ScenarioConfig.from_dict(bad)

    def test_interval_order_enforced(self):
        bad = config_dict()
        bad["colocation_schedule"][0]["end"] = 100
        bad["colocation_schedule"][0]["start"] = 200
        with pytest.raises(ConfigError, match=r"colocation_schedule\[0\].end"):
            ScenarioConfig.from_dict(bad)

    def test_duplicate_device_id(self):
        bad = config_dict(devices=[{"id": "a"}, {"id": "a"}])
        with pytest.raises(ConfigError, match=r"devices\[1\].id"):
            ScenarioConfig.from_dict(bad)

    def test_epsilon_bounds(self):
        with pytest.raises(ConfigError, match="epsilon"):
            ScenarioConfig.from_dict(config_dict(epsilon=900))

    def test_fanout_limit_capped_at_8(self):
        bad = config_dict(
            adversaries=[
                {
                    "kind": "relay_twoway",
                    "capture": "a",
                    "victims": ["b"],
                    "start": 0,
                    "end": 100,
                    "fanout_limit": 9,
                }
            ]
        )
        with pytest.raises(ConfigError, match="fanout_limit"):
            ScenarioConfig.from_dict(bad)

    def test_rssi_profile_segments(self):
        good = config_dict()
        good["colocation_schedule"][0]["rssi_profile"] = [[0, -70], [600, -50]]
        (link,) = Engine(ScenarioConfig.from_dict(good))._links()
        assert link.rssi_at(link.start + 10) == -70
        assert link.rssi_at(link.start + 700) == -50
        assert link.rssi_change_after(link.start + 10) == link.start + 600

    def test_infection_day_inside_duration(self):
        with pytest.raises(ConfigError, match=r"infections\[0\].day"):
            ScenarioConfig.from_dict(config_dict(infections=[{"device": "a", "day": 10}]))

    def test_contagious_to_symptoms_must_be_1_or_2(self):
        with pytest.raises(ConfigError, match="contagious_to_symptoms_days"):
            ScenarioConfig.from_dict(
                config_dict(disease_timeline={"contagious_to_symptoms_days": 5})
            )

    @pytest.mark.parametrize(
        "adversaries, path",
        [
            ([], "colocation_schedule[0].start"),
            ([dict(RELAY, capture="b", victims=["a"], end=600)], "adversaries[0].start"),
            ([{"kind": "eavesdropper",
               "sensors": [{"id": "s", "device": "b", "start": 0, "end": 600}]}],
             "adversaries[0].sensors[0].start"),
        ],
        ids=["colocation", "relay", "sensor"],
    )
    def test_link_before_local_clock_zero_rejected(self, adversaries, path):
        # a device 21 s behind has local time -21 at second 0: frame -1;
        # only the link under test starts at second 0
        data = config_dict(
            duration_days=1,
            devices=[{"id": "a"}, {"id": "b", "clock_offset_s": -21}],
            colocation_schedule=[
                {"device_a": "a", "device_b": "b", "start": 0 if not adversaries else 21,
                 "end": 600}
            ],
            infections=[],
            adversaries=adversaries,
        )
        with pytest.raises(ConfigError) as excinfo:
            ScenarioConfig.from_dict(data)
        assert excinfo.value.path == path
        assert excinfo.value.problem == "starts before the local clock of device 'b' reaches 0"
        # from the second the clock reaches 0 the same link runs
        data["colocation_schedule"][0]["start"] = 21
        for adversary in adversaries:
            for window in adversary.get("sensors", [adversary]):
                window["start"] = 21
        run_scenario(ScenarioConfig.from_dict(data))

    def test_mixed_scheme_colocation_rejected(self):
        bad = config_dict(
            devices=[{"id": "a"}, {"id": "b", "scheme": "decentralized"}]
        )
        with pytest.raises(ConfigError, match="same scheme"):
            ScenarioConfig.from_dict(bad)


class TestReportSerialization:
    def run_once(self):
        return run_scenario(ScenarioConfig.from_dict(config_dict()))

    def test_json_round_trip(self):
        report = self.run_once()
        assert ScenarioReport.from_json(report.to_json()) == report

    def test_text_round_trip(self):
        report = self.run_once()
        assert ScenarioReport.from_text(report.to_text()) == report

    def test_load_detects_format(self, tmp_path):
        report = self.run_once()
        j = tmp_path / "r.json"
        t = tmp_path / "r.txt"
        j.write_text(report.to_json())
        t.write_text(report.to_text())
        assert ScenarioReport.load(j) == report
        assert ScenarioReport.load(t) == report


class TestDeterminism:
    def test_byte_identical_reports(self):
        config = ScenarioConfig.from_dict(config_dict())
        a = run_scenario(config).to_json()
        b = run_scenario(config).to_json()
        assert a == b

    def test_seed_changes_shuffle_not_outcome(self):
        r1 = run_scenario(ScenarioConfig.from_dict(config_dict(seed=1)))
        r2 = run_scenario(ScenarioConfig.from_dict(config_dict(seed=2)))
        assert len(r1.notifications) == len(r2.notifications) == 1


class TestHonestPair:
    def test_single_direct_notification(self):
        report = run_scenario(ScenarioConfig.from_dict(config_dict()))
        assert len(report.notifications) == 1
        note = report.notifications[0]
        assert note["device"] == "b"
        assert note["level"] == "direct"
        assert note["genuine"] is True
        assert report.false_notification_count == 0
        assert report.notification_latency_days == {"b": 5}

    def test_token_symmetry_and_epsilon(self):
        config = ScenarioConfig.from_dict(config_dict())
        engine = Engine(config)
        engine.run()
        a = engine.clients["a"].device
        b = engine.clients["b"].device
        (ta,) = a.store.tokens()
        (tb,) = b.store.tokens()
        assert ta.secret == tb.secret
        assert abs(ta.start_time - tb.start_time) <= abs(3) + abs(0)

    def test_drive_by_yields_no_token(self):
        config = ScenarioConfig.from_dict(
            config_dict(
                colocation_schedule=[
                    {
                        "device_a": "a",
                        "device_b": "b",
                        "start": 3 * DAY + 36000,
                        "end": 3 * DAY + 36000 + 200,
                        "rssi_profile": -55,
                    }
                ]
            )
        )
        report = run_scenario(config)
        assert report.device_token_counts == {"a": 0, "b": 0}
        assert report.notifications == []

    def test_encounter_spanning_frame_boundary_two_tokens(self):
        start = 3 * DAY + 300  # 5 min into frame, crosses one boundary
        config = ScenarioConfig.from_dict(
            config_dict(
                colocation_schedule=[
                    {
                        "device_a": "a",
                        "device_b": "b",
                        "start": start,
                        "end": start + 1200,
                        "rssi_profile": -55,
                    }
                ],
                devices=[{"id": "a"}, {"id": "b"}],
            )
        )
        report = run_scenario(config)
        assert report.device_token_counts == {"a": 2, "b": 2}

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    def test_pair_alone_takes_few_sighting_runs(self, monkeypatch, loss):
        """Two devices alone for two hours across noon take at most four
        sighting runs per direction in each segment that frame boundaries
        of either clock and cadence events cut the contact into: a run
        spans the duty-cycle gaps, and the first beacon, the dwell, a
        request and a completion cut it."""
        calls = []
        on_sighting_run = engine_module.Device.on_sighting_run

        def counted(device, *args):
            calls.append(device.device_id)
            return on_sighting_run(device, *args)

        monkeypatch.setattr(engine_module.Device, "on_sighting_run", counted)
        start = 3 * DAY + 11 * 3600
        end = start + 7200
        engine = Engine(ScenarioConfig.from_dict(config_dict(
            channel_loss=loss,
            devices=[{"id": "a", "clock_offset_s": -7}, {"id": "b", "clock_offset_s": 3}],
            colocation_schedule=[{"device_a": "a", "device_b": "b", "start": start,
                                  "end": end, "rssi_profile": -55}],
        )))
        engine.run()
        cuts = {t for t in engine._cadence if start < t < end}
        for client in engine.clients.values():
            period, shift = client.rotation_period, client.device.clock_offset
            cuts.update(u for u in range(start + 1, end) if (u + shift) % period == 0)
        assert len(cuts) + 1 == 18
        assert 0 < len(calls) <= 4 * 2 * 18
        assert set(calls) == {"a", "b"}

    def test_stats_match_ground_truth(self):
        report = run_scenario(ScenarioConfig.from_dict(config_dict()))
        stats = report.server_stats
        assert stats["active_users"] == 2
        assert stats["infected_uploads"] == 1
        assert stats["records_published"] == 1
        assert stats["notifications_reported"]["direct"] == 1

    def test_payload_accounting_exact(self):
        # 1 upload of 1 record + 2 fetches (both clients, first round)
        report = run_scenario(ScenarioConfig.from_dict(config_dict()))
        record_frame = 16 + 4 + 36 + 1
        upload_body = 1 + 1 + 12 + 4 + record_frame
        fetch_body = 13
        assert report.payload_bytes_uploaded == (4 + upload_body) + 2 * (4 + fetch_body)
        upload_resp = 4 + 1
        fetch_resp = 4 + 1 + 4 + 4 + record_frame
        assert report.payload_bytes_downloaded == upload_resp + 2 * fetch_resp


class TestModes:
    def test_deferred_equals_eager(self):
        eager = config_dict()
        deferred = config_dict(
            devices=[
                {"id": "a", "derive_mode": "deferred"},
                {"id": "b", "clock_offset_s": 3, "derive_mode": "deferred"},
            ]
        )
        r_eager = run_scenario(ScenarioConfig.from_dict(eager))
        r_deferred = run_scenario(ScenarioConfig.from_dict(deferred))
        assert r_eager.notifications == r_deferred.notifications
        e1 = Engine(ScenarioConfig.from_dict(eager))
        e1.run()
        e2 = Engine(ScenarioConfig.from_dict(deferred))
        e2.run()
        for device_id in ("a", "b"):
            eager_secrets = {t.secret for t in e1.clients[device_id].device.store.tokens()}
            deferred_secrets = {t.secret for t in e2.clients[device_id].device.store.tokens()}
            assert eager_secrets == deferred_secrets


class TestChannelBudget:
    def test_hub_never_exceeds_eight_channels(self):
        peers = [{"id": f"p{i}"} for i in range(10)]
        schedule = [
            {
                "device_a": "hub",
                "device_b": f"p{i}",
                "start": 1000,
                "end": 1000 + 900,
                "rssi_profile": -55,
            }
            for i in range(10)
        ]
        config = ScenarioConfig.from_dict(
            config_dict(
                devices=[{"id": "hub"}] + peers,
                colocation_schedule=schedule,
                infections=[],
                duration_days=1,
            )
        )
        engine = Engine(config)
        engine.run()
        hub = engine.clients["hub"].device
        assert hub.peak_open_channels <= 8
        # queued handshakes still complete shortly after
        assert len(hub.store) == 10


class TestStartHandshake:
    """What starting a handshake does, which the per-second oracle
    inherits from the engine and so does not check."""

    T = 3 * DAY + 36100

    def engine(self):
        """An engine and its links: a-b direct, a one-way relay from a to
        c, and a two-way relay from a to b and to c admitting one victim
        per frame of a."""
        config = ScenarioConfig.from_dict(config_dict(
            devices=[{"id": "a"}, {"id": "b"}, {"id": "c"}],
            adversaries=[
                dict(RELAY, victims=["c"]),
                dict(RELAY, kind="relay_twoway", victims=["b", "c"], fanout_limit=1),
            ],
        ))
        engine = Engine(config)
        return engine, engine._links()

    def start(self, engine, link, requester, owner):
        """Start the handshake ``requester`` asks of ``owner`` over the
        link; whether the request is still pending, and how many events
        (the two completions, if it started) were queued."""
        requester, owner = engine.clients[requester], engine.clients[owner]
        frame = requester.device.current_frame(self.T)
        peer = owner.device.ephemeral_id(owner.device.current_frame(self.T))
        requester.device.mark_handshake_pending(frame, peer)
        request = HandshakeRequest(peer, frame)
        queued = len(engine._queue)
        engine.start_handshake(requester, owner, request, self.T, link)
        return (frame, peer) in requester.device._pending_handshakes, len(engine._queue) - queued

    def test_full_owner_releases_the_requester_channel(self):
        engine, (direct, *_) = self.engine()
        owner, requester = engine.clients["b"].device, engine.clients["a"].device
        assert all(owner.try_open_channel() for _ in range(MAX_OPEN_CHANNELS))
        assert self.start(engine, direct, "a", "b") == (False, 0)
        assert requester.peak_open_channels == 1
        opened = sum(requester.try_open_channel() for _ in range(MAX_OPEN_CHANNELS + 1))
        assert opened == MAX_OPEN_CHANNELS

    def test_oneway_relay_opens_no_channel(self):
        engine, (_, oneway, *_) = self.engine()
        assert self.start(engine, oneway, "c", "a") == (False, 0)
        assert all(c.device.peak_open_channels == 0 for c in engine.clients.values())

    def test_twoway_relay_at_its_fanout_limit(self):
        engine, (_, _, to_b, to_c) = self.engine()
        assert self.start(engine, to_b, "b", "a") == (True, 2)
        # a new victim is refused before either side opens a channel
        assert self.start(engine, to_c, "c", "a") == (False, 0)
        assert engine.clients["c"].device.peak_open_channels == 0
        assert engine.clients["a"].device.peak_open_channels == 1
        # the admitted victim still is, whichever side asks
        assert self.start(engine, to_b, "a", "b") == (True, 2)


class TestRelayTiming:
    def relay_config(self, victim_offset):
        return ScenarioConfig.from_dict(
            config_dict(
                devices=[{"id": "a"}, {"id": "b", "clock_offset_s": victim_offset}],
                colocation_schedule=[],
                adversaries=[
                    {
                        "kind": "relay_twoway",
                        "capture": "a",
                        "victims": ["b"],
                        "start": 3 * DAY + 36000,
                        "end": 3 * DAY + 36600,
                        "latency_s": 5,
                    }
                ],
            )
        )

    def test_realtime_tunnel_within_epsilon_matches(self):
        report = run_scenario(self.relay_config(victim_offset=0))
        assert report.false_notification_count == 1
        assert report.attack_success_rate == 1.0

    def test_offset_beyond_epsilon_rejected(self):
        # tokens are established, but |t_ij - t_ji| = 120 + latency > 30
        config = self.relay_config(victim_offset=120)
        engine = Engine(config)
        report = engine.run()
        assert len(engine.clients["b"].device.store) == 1
        assert report.false_notification_count == 0
        assert report.attack_success_rate == 0.0


class TestGroups:
    @pytest.mark.parametrize("name", ["relay_r2", "room"])
    def test_a_group_hands_over_runs(self, monkeypatch, name):
        """relay_r2's ten relay links share the captured device, and the
        room's 45 links share all ten devices: each group's radio events
        (every event but completions, cadence and sensors) number far
        fewer than its link-seconds, and the identifier and RSSI are
        asked once per sighting run, not once per beacon."""
        pushed, asked = Counter(), Counter()

        class CountingHeap:
            @staticmethod
            def heappush(queue, item):
                pushed[item[2].__name__] += 1
                heapq.heappush(queue, item)

            heappop = staticmethod(heapq.heappop)

        def counted(what, method):
            def call(*args):
                asked[what] += 1
                return method(*args)

            return call

        config = room(0.0) if name == "room" else ScenarioConfig.from_dict(bundled_dict(name))
        engine = Engine(config)
        link_seconds = sum(link.end - link.start for link in engine._links())
        monkeypatch.setattr(engine_module, "heapq", CountingHeap)
        for cls, method in ((_TraceCoronaClient, "identifier_at"), (_Link, "rssi_at")):
            monkeypatch.setattr(cls, method, counted(method, getattr(cls, method)))
        engine.run()
        not_radio = {"_complete_handshake", "_midnight", "_noon_uploads", "_charge_tick",
                     "_fetch_round", "_sense", "_fake_claims"}
        radio = sum(n for handler, n in pushed.items() if handler not in not_radio)
        assert 0 < radio < link_seconds / 100
        assert 0 < asked["identifier_at"] == asked["rssi_at"] < link_seconds / 10


class TestFakeClaims:
    def test_claims_are_the_per_attempt_draws(self):
        """Each attempt's proof, record hash and ciphertext are the draws
        of 32, 16 and 36 bytes in a row, across the chunks the attempts
        are drawn in, and the server stores the uploads of the proofs that
        open a published record, in order."""
        chunk = engine_module._FORGED_CHUNK
        attempts = 2 * chunk + 7
        engine = Engine(ScenarioConfig.from_dict(config_dict()))
        twin = random.Random()
        twin.setstate(engine.rng_adversary.getstate())
        reference = []
        for _ in range(attempts):
            proof = twin.randbytes(32)
            dummy = wire.TokenUploadRecord(twin.randbytes(16), twin.randbytes(wire.CIPHERTEXT_BYTES))
            reference.append((proof, wire.encode_record(dummy)))
        opened = [0, 7, chunk - 1, chunk, 2 * chunk, attempts - 1]
        published = [
            wire.encode_record(wire.TokenUploadRecord(
                crypto.token_hash(reference[i][0]),
                crypto.encrypt_metadata(reference[i][0], 1_600_000_000),
            ))
            for i in opened
        ]
        server = engine.server
        assert server.upload_infected(engine.authority.issue_tan("u", 0).value, published).accepted
        assert _TraceCoronaClient.fake_claims(engine, attempts) == len(opened)
        second_level = bytes((wire.Tag.SECOND_LEVEL,))
        assert server._records == published + [reference[i][1][:-1] + second_level for i in opened]
        assert engine.rng_adversary.getstate() == twin.getstate()

    def test_claims_stream_in_flat_memory(self):
        """The attempts go to the server one at a time: the peak memory of
        100,000 attempts is a small fixed size, where a list of them all
        would take tens of megabytes."""
        engine = Engine(ScenarioConfig.from_dict(config_dict()))
        tracemalloc.start()
        try:
            assert _TraceCoronaClient.fake_claims(engine, 100_000) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestInvariants:
    def test_conservation_no_orphan_notifications(self):
        # each notification names a match in state that notifying does not
        # write: something the server published and something the notified
        # device holds
        for config in (config_dict(), bundled_dict("timeline_chain_early"),
                       bundled_dict("relay_r2")):
            engine = Engine(ScenarioConfig.from_dict(config))
            notes = engine.run().notifications
            assert notes
            _, frames = engine.server.feed_frames(0, random.Random(0))
            published = {frame[:16].hex() for frame in frames}
            for note in notes:
                store = engine.clients[note["device"]].device.store
                assert note["matched"] in published
                assert note["matched"] in {
                    crypto.token_hash(token.secret).hex() for token in store.tokens()
                }
        for config in (config_dict(), bundled_dict("kiss_replay")):
            engine = Engine(ScenarioConfig.from_dict({**config, "scheme": "decentralized"}))
            notes = engine.run().notifications
            assert notes
            published = {
                tempid.hex() for key in engine.dec_server.download() for tempid in key.tempids
            }
            for note in notes:
                assert note["matched"] in published
                assert note["matched"] in {
                    run.tempid.hex() for run in engine.clients[note["device"]].runs
                }

    def test_ground_truth_separation(self):
        relay = {
            "kind": "relay_twoway",
            "capture": "a",
            "victims": ["b"],
            "start": 3 * DAY + 36000,
            "end": 3 * DAY + 36600,
            "latency_s": 5,
        }
        config = ScenarioConfig.from_dict(config_dict(adversaries=[relay]))
        engine = Engine(config)
        engine.run()
        forbidden = re.compile(r"adversar|attack|fake|genuine|relay|ground", re.I)
        for client in engine.clients.values():
            for name in vars(client.device):
                assert not forbidden.search(name)
            for token in client.device.store.tokens():
                for field_name in vars(token):
                    assert not forbidden.search(field_name)
        for name in vars(engine.server):
            assert not forbidden.search(name)

    def test_private_keys_never_in_wire_or_report(self):
        config = ScenarioConfig.from_dict(config_dict())
        engine = Engine(config)
        report = engine.run()
        blob = report.to_json()
        for client in engine.clients.values():
            device = client.device
            for frame in list(device._keypair_cache):
                assert device.keypair(frame).private_key.hex() not in blob
            for token in device.store.tokens():
                assert token.secret.hex() not in blob


class TestRedactionEndToEnd:
    def test_redacted_window_never_reaches_server(self):
        # two encounters in different frames; redact the first window
        first = 3 * DAY + 36000
        second = 3 * DAY + 38700
        config = ScenarioConfig.from_dict(
            config_dict(
                devices=[{"id": "a"}, {"id": "b"}, {"id": "c"}],
                colocation_schedule=[
                    {
                        "device_a": "a",
                        "device_b": "b",
                        "start": first,
                        "end": first + 900,
                        "rssi_profile": -55,
                    },
                    {
                        "device_a": "a",
                        "device_b": "c",
                        "start": second,
                        "end": second + 900,
                        "rssi_profile": -55,
                    },
                ],
                redactions=[
                    {"device": "a", "drop_start": first, "drop_end": first + 1200}
                ],
            )
        )
        report = run_scenario(config)
        notified = {n["device"] for n in report.notifications}
        assert notified == {"c"}
        assert report.server_stats["records_published"] == 1


class TestSecondLevelTagging:
    def test_second_level_notification_mirrors_tag(self):
        config = ScenarioConfig.from_dict(
            config_dict(
                devices=[{"id": "i"}, {"id": "j"}, {"id": "k"}],
                colocation_schedule=[
                    {
                        "device_a": "i",
                        "device_b": "j",
                        "start": 3 * DAY + 36000,
                        "end": 3 * DAY + 37200,
                        "rssi_profile": -55,
                    },
                    {
                        "device_a": "j",
                        "device_b": "k",
                        "start": 6 * DAY + 36000,
                        "end": 6 * DAY + 37200,
                        "rssi_profile": -55,
                    },
                ],
                infections=[{"device": "i", "day": 0}],
                second_level_enabled=True,
                duration_days=12,
            )
        )
        report = run_scenario(config)
        by_device = {n["device"]: n for n in report.notifications}
        assert by_device["j"]["level"] == "direct"
        assert by_device["k"]["level"] == "second_level"
        assert by_device["k"]["day"] == by_device["j"]["day"]

    @staticmethod
    def notified(offsets):
        """(device, source, level) notifications of a chain in which
        ``contact`` is warned directly by ``index``, warns ``peer`` at second
        level, and is warned directly when ``peer`` uploads as infected."""
        ids = ("index", "contact", "peer", "other")
        meetings = [("index", "contact", 2), ("contact", "peer", 3), ("peer", "other", 4)]
        config = ScenarioConfig.from_dict(
            config_dict(
                devices=[{"id": d, "clock_offset_s": o} for d, o in zip(ids, offsets)],
                colocation_schedule=[
                    {"device_a": a, "device_b": b,
                     "start": day * DAY + 36000, "end": day * DAY + 37800}
                    for a, b, day in meetings
                ],
                infections=[{"device": "index", "day": 0}, {"device": "peer", "day": 2}],
                second_level_enabled=True,
                duration_days=12,
            )
        )
        return {(n["device"], n["source"], n["level"]) for n in run_scenario(config).notifications}

    def test_equal_clocks_notify_as_distinct_clocks(self):
        # With equal clocks both sides' records of a token have the same
        # hash and ciphertext; only the tag tells them apart.
        distinct = self.notified((0, 3, -4, 7))
        assert ("contact", "peer", "direct") in distinct
        assert self.notified((0, 0, 0, 0)) == distinct


class TestSuperspreaderThreshold:
    @staticmethod
    def bundles_sent(monkeypatch, infection_days):
        """The proof counts of the superspreader uploads a hub sends, and
        the server's count of accepted ones, when one infected device per
        entry of ``infection_days`` met the hub, each in its own frame;
        the threshold is 4."""
        spreaders = [f"s{i}" for i in range(len(infection_days))]
        config = ScenarioConfig.from_dict(
            config_dict(
                devices=[{"id": "hub"}] + [{"id": s} for s in spreaders],
                colocation_schedule=[
                    {"device_a": "hub", "device_b": s,
                     "start": 3 * DAY + 36060 + 3600 * i, "end": 3 * DAY + 36660 + 3600 * i,
                     "rssi_profile": -55}
                    for i, s in enumerate(spreaders)
                ],
                infections=[{"device": s, "day": d} for s, d in zip(spreaders, infection_days)],
                superspreader_enabled=True,
                superspreader_threshold=4,
                channel_loss=0.0,
                duration_days=11,
            )
        )
        sent = []
        encode = wire.encode_upload_superspreader

        def counting(proofs, records):
            sent.append(len(proofs))
            return encode(proofs, records)

        monkeypatch.setattr(wire, "encode_upload_superspreader", counting)
        engine = Engine(config)
        engine.run()
        return sent, engine.server.stats_snapshot()["superspreader_flags"]

    def test_one_below_threshold_uploads_none(self, monkeypatch):
        assert self.bundles_sent(monkeypatch, [0, 0, 0]) == ([], 0)

    def test_at_threshold_uploads_one(self, monkeypatch):
        assert self.bundles_sent(monkeypatch, [0, 0, 0, 0]) == ([4], 1)

    def test_threshold_reached_on_a_later_fetch(self, monkeypatch):
        # three matches on one day, the fourth on the next
        assert self.bundles_sent(monkeypatch, [0, 0, 0, 1]) == ([4], 1)


class TestProvenance:
    def test_two_uploaders_credit_each_other(self):
        # both sides of the encounter are infected and upload its token
        config = ScenarioConfig.from_dict(
            config_dict(infections=[{"device": "a", "day": 0}, {"device": "b", "day": 0}])
        )
        report = run_scenario(config)
        got = sorted((n["device"], n["source"], n["genuine"]) for n in report.notifications)
        assert got == [("a", "b", True), ("b", "a", True)]
        assert report.false_notification_count == 0

    @pytest.mark.parametrize("offset", [3, 0])
    def test_relayed_record_stays_relayed(self, offset):
        # v's records reach c through the relay; v later uploads the same
        # tokens again at second level, which changes nothing about how
        # the direct ones reached c
        report = run_scenario(relay_reaction(offset))
        direct = [
            (n["source"], n["genuine"]) for n in report.notifications
            if n["device"] == "c" and n["level"] == "direct"
        ]
        assert direct == [("v", False)] * 2
        assert report.attack_success_rate == 1.0

    @pytest.mark.parametrize("offset", [3, 0])
    def test_peer_upload_after_the_feed_moved_on(self, offset):
        # a uploads on day 4, b on day 7; c and d upload on days 5 and 6,
        # so by day 7 a's feed no longer serves its own upload, and b's
        # record is matched whether or not the clocks make it byte for
        # byte a's
        config = ScenarioConfig.from_dict(config_dict(
            devices=[{"id": "a"}, {"id": "b", "clock_offset_s": offset},
                     {"id": "c", "clock_offset_s": 5}, {"id": "d", "clock_offset_s": 7}],
            colocation_schedule=[
                {"device_a": x, "device_b": y, "start": 36000, "end": 37800}
                for x, y in ("ab", "cd")
            ],
            infections=[{"device": x, "day": day} for x, day in zip("abcd", (0, 3, 1, 2))],
            disease_timeline=dict(FAST_TIMELINE, symptoms_to_test_days=3),
            channel_loss=0.0,
        ))
        got = {(n["device"], n["source"], n["day"]) for n in run_scenario(config).notifications}
        assert {("a", "b", 7), ("b", "a", 4)} <= got


class TestCentralizedScheme:
    def test_honest_pair_notified_on_upload_day(self):
        config = ScenarioConfig.from_dict(config_dict(scheme="centralized"))
        report = run_scenario(config)
        assert len(report.notifications) == 1
        note = report.notifications[0]
        assert note["device"] == "b" and note["genuine"] is True
        assert note["day"] == 8

    def test_bluetrace_flag(self):
        config = ScenarioConfig.from_dict(
            config_dict(scheme="centralized", bluetrace=True)
        )
        report = run_scenario(config)
        assert len(report.notifications) == 1

    def test_observations_expire_after_retention(self):
        # met on day 0; the upload on day 16 is past the 14-day retention
        schedule = [{"device_a": "a", "device_b": "b", "start": 36000, "end": 37800}]
        config = ScenarioConfig.from_dict(
            config_dict(
                scheme="centralized",
                duration_days=17,
                colocation_schedule=schedule,
                infections=[{"device": "a", "day": 8}],
            )
        )
        assert run_scenario(config).notifications == []


def daily_schedule(days):
    return [
        {"device_a": "a", "device_b": "b", "start": d * DAY + 36000, "end": d * DAY + 36600}
        for d in days
    ]


def held_past_retention(scheme, held_by, clients=False):
    """At each midnight of a 30-day run with one lossless 10-minute
    contact a day and no infection: what each client holds, and the
    size of every engine container (and every client one, if asked)."""
    config = ScenarioConfig.from_dict(config_dict(
        scheme=scheme, duration_days=30, infections=[],
        colocation_schedule=daily_schedule(range(30)), channel_loss=0.0,
    ))
    held, sizes = [], []

    def containers(owner, prefix):
        return {
            prefix + name: len(value) for name, value in vars(owner).items()
            if isinstance(value, (list, dict, set)) and name != "_queue"
        }

    class Recording(Engine):
        def _midnight(self, day):
            super()._midnight(day)
            held.append([held_by(c) for c in self.clients.values()])
            sizes.append(containers(self, ""))
            if clients:
                for c in self.clients.values():
                    sizes[-1].update(containers(c, c.id + "."))

    Recording(config).run()
    return held, sizes


def daily_uploads(scheme, partners, channel_loss=0.0):
    """Device d_i meets each of ``partners`` (h, or e_i for "e") from
    10:00 to 10:10 of day i - 1 and uploads at noon of day i, for i from
    1 to 28 of a 30-day run."""
    ids = range(1, 29)
    met = [(i, p if p == "h" else f"{p}{i}") for i in ids for p in partners]
    return ScenarioConfig.from_dict(config_dict(
        scheme=scheme, duration_days=30, channel_loss=channel_loss,
        devices=[{"id": d} for d in dict.fromkeys(
            ["h", *(f"d{i}" for i in ids), *(p for _, p in met)]
        )],
        colocation_schedule=[
            {"device_a": f"d{i}", "device_b": p, "start": (i - 1) * DAY + 36000,
             "end": (i - 1) * DAY + 36600}
            for i, p in met
        ],
        infections=[{"device": f"d{i}", "day": i - 1} for i in ids],
        disease_timeline=FAST_TIMELINE,
    ))


#: the cadence events of a day that radio windows are drawn around
CADENCE_HOURS = (0, 12, 22, 23, 23.5)


@st.composite
def crowded_baseline_configs(draw):
    """Four days of a baseline scheme with a one-day retention: two
    links that share device a and overlap, up to two more links and a
    relay at random, each window ending up to two hours after a cadence
    event, loss 0, 0.1 or 0.5, and one device whose positive result
    comes on day 1, 2 or 3, so that runs are matched."""

    def window():
        at = draw(st.integers(1, 2)) * DAY + int(draw(st.sampled_from(CADENCE_HOURS)) * 3600)
        start = at - draw(st.integers(0, 3600))
        return start, min(start + draw(st.integers(1, 7200)), 3 * DAY)

    def link(a, b, start, end):
        return {"device_a": a, "device_b": b, "start": start, "end": end, "rssi_profile": -55}

    start, end = window()
    second = draw(st.integers(start, end - 1))
    schedule = [
        link("a", "b", start, end),
        link("a", "c", second, min(second + end - start, 3 * DAY)),
    ]
    for _ in range(draw(st.integers(0, 2))):
        schedule.append(link(*draw(st.permutations("abc"))[:2], *window()))
    adversaries = []
    if draw(st.booleans()):
        start, end = window()
        adversaries.append({
            "kind": draw(st.sampled_from(["relay_oneway", "relay_twoway"])),
            "capture": "a", "victims": draw(st.sampled_from([["b"], ["b", "c"]])),
            "start": start, "end": end, "latency_s": draw(st.integers(0, 5)),
        })
    return ScenarioConfig.from_dict(config_dict(
        seed=draw(st.integers(0, 99)), duration_days=4, retention_days=1,
        infections=[{"device": draw(st.sampled_from("abc")), "day": draw(st.integers(0, 2))}],
        disease_timeline={"incubation_to_contagious_days": 0, "contagious_to_symptoms_days": 1,
                          "symptoms_to_test_days": 0, "test_to_result_days": 0},
        scheme=draw(st.sampled_from(["decentralized", "centralized"])),
        devices=[{"id": i, "clock_offset_s": draw(st.integers(-30, 30))} for i in "abc"],
        colocation_schedule=schedule, adversaries=adversaries,
        channel_loss=draw(st.sampled_from([0.0, 0.1, 0.5])),
    ))


class TestBaselineRuns:
    def test_held_runs_flat_past_retention(self):
        # from day 14 each client holds the runs of the last 14 days, and
        # no engine table grows
        held, sizes = held_past_retention("decentralized", lambda c: len(c.runs))
        assert len(held) == 30 and all(held[1])
        assert held[14:] == [[14 * n for n in held[1]]] * 16
        assert sizes[1:] == [sizes[1]] * 29

    def test_held_tokens_flat_past_retention(self):
        # the same for encounter tokens: from day 14 each store holds the
        # last 14 days' tokens, and no engine or client container grows
        held, sizes = held_past_retention(
            "tracecorona", lambda c: len(c.device.store), clients=True
        )
        assert len(held) == 30 and all(held[1])
        assert held[14:] == [[14 * n for n in held[1]]] * 16
        assert sizes[1:] == [sizes[1]] * 29


    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.booleans(), st.integers(1, 900), st.integers(1, 900),
        st.sets(st.integers(1, 899), max_size=30),
    ), max_size=6))
    # ends just before the horizon; starts at it
    @example(spans=[(False, 1, 10, set()), (True, 1, 5, set())])
    def test_midnight_drops_the_runs_before_the_horizon(self, spans):
        # runs handed in directly in window order, those before the day-15
        # horizon first, some with seconds lost; b's clock is 3 s ahead
        engine = Engine(ScenarioConfig.from_dict(config_dict(scheme="centralized")))
        client, src = engine.clients["b"], engine.clients["a"]
        horizon = client.device.local_time(15 * DAY) - 14 * DAY
        link = SimpleNamespace(adversary=None)
        for i, (after, gap, length, lost) in enumerate(sorted(spans)):
            # a run that starts gap - 1 s after the horizon, or ends gap s
            # before it, in true time
            first = DAY + gap - 1 if after else DAY - gap - length + 1
            seconds = range(first, first + length)
            if lost:
                seconds = [t for t in seconds if t - first not in lost] or seconds[-1:]
            client.on_run(engine, src, bytes([i]) * 16, -50.0, seconds, link)
        kept = [obs for obs in match_oracle.expand(client.runs) if obs.time >= horizon]
        client.midnight(15)
        assert match_oracle.expand(client.runs) == kept

    @settings(max_examples=40, deadline=None)
    @given(crowded_baseline_configs())
    def test_held_runs_cross_no_cadence_event_and_stay_in_window_order(self, config):
        """At every midnight each baseline client's runs lie each within
        one cadence window, in window order, so the midnight drops
        exactly the observations before the retention horizon; and each
        within one identifier interval of the client's own clock, so a
        centralized upload is matched by each run's first second."""
        midnights = []

        class Checked(Engine):
            def _midnight(self, day):
                expected = {}
                for client in self.clients.values():
                    offset, windows = client.device.clock_offset, []
                    for run in client.runs:
                        first, last = (
                            bisect.bisect_right(self._cadence, t - offset)
                            for t in (run.times[0], run.times[-1])
                        )
                        assert first == last
                        windows.append(first)
                        period = client.rotation_period
                        assert run.times[0] // period == run.times[-1] // period
                    assert windows == sorted(windows)
                    horizon = client.device.local_time(day * DAY) - client.retention_s
                    expected[client.id] = [
                        obs for obs in match_oracle.expand(client.runs) if obs.time >= horizon
                    ]
                super()._midnight(day)
                for client in self.clients.values():
                    assert match_oracle.expand(client.runs) == expected[client.id]
                midnights.append(day)

        Checked(config).run()
        assert midnights == [0, 1, 2, 3]

    @settings(max_examples=40, deadline=None)
    @given(crowded_baseline_configs())
    def test_reports_do_not_read_the_order_between_senders(self, config):
        """At every midnight each client's runs taken since the midnight
        before are put in reverse sender order, day by day, each sender's
        own runs in the order taken: the report stays the same, byte for
        byte.  With a two-day retention a fetch or an upload reads runs
        taken before the midnight; reordering them within a sender
        changes about one report in ten."""
        config = config.replace(retention_days=2)
        #: client -> runs held after the midnight before
        kept = {}

        class Permuted(Engine):
            def _midnight(self, day):
                for client in self.clients.values():
                    offset, runs = client.device.clock_offset, client.runs
                    taken = runs[kept.get(client.id, 0) :]
                    taken.sort(key=lambda run: run.provenance["source"], reverse=True)
                    taken.sort(key=lambda run: (run.times[0] - offset) // DAY)
                    runs[len(runs) - len(taken) :] = taken
                super()._midnight(day)
                kept.update((c.id, len(c.runs)) for c in self.clients.values())

        assert Permuted(config).run().to_json() == Engine(config).run().to_json()

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    @pytest.mark.parametrize("scheme", ["decentralized", "centralized"])
    def test_pair_alone_holds_the_runs_it_loads(self, monkeypatch, scheme, loss):
        """Two baseline clients alone for two hours hold each run the
        radio loads as one: neither asks for a handshake, so no run is
        cut where one might complete."""
        loaded = []
        load = engine_module._Beam.load

        def counted(beam):
            load(beam)
            loaded.extend(beam.pending[:1])

        monkeypatch.setattr(engine_module._Beam, "load", counted)
        start = 3 * DAY + 9 * 3600
        engine = Engine(ScenarioConfig.from_dict(config_dict(
            scheme=scheme, infections=[], channel_loss=loss,
            colocation_schedule=[{"device_a": "a", "device_b": "b", "start": start,
                                  "end": start + 7200, "rssi_profile": -55}],
        )))
        engine.run()
        assert loaded and sum(len(c.runs) for c in engine.clients.values()) == len(loaded)

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    @pytest.mark.parametrize("scheme", ["decentralized", "centralized"])
    def test_pair_alone_holds_a_run_per_identifier(self, scheme, loss):
        """Two baseline clients alone for two hours across noon hold, in
        each direction, at most one run per sender identifier, receiver
        frame and RSSI segment the contact covers, and one more per cadence
        event inside it: a run spans the duty-cycle gaps."""
        start = 3 * DAY + 11 * 3600
        end = start + 7200
        engine = Engine(ScenarioConfig.from_dict(config_dict(
            scheme=scheme, infections=[], channel_loss=loss,
            devices=[{"id": "a", "clock_offset_s": -7}, {"id": "b", "clock_offset_s": 3}],
            colocation_schedule=[{"device_a": "a", "device_b": "b", "start": start,
                                  "end": end, "rssi_profile": -55}],
        )))
        engine.run()
        cadence = {t for t in engine._cadence if start < t < end}
        bound = 0
        for pair in (("a", "b"), ("b", "a")):
            cuts = set(cadence)
            for client in map(engine.clients.get, pair):
                period, shift = client.rotation_period, client.device.clock_offset
                cuts.update(u for u in range(start + 1, end) if (u + shift) % period == 0)
            bound += 1 + len(cuts)
        held = sum(len(client.runs) for client in engine.clients.values())
        assert cadence and 0 < held <= bound

    @pytest.mark.parametrize("scheme", ["decentralized", "centralized"])
    def test_server_state_flat_past_retention(self, scheme):
        """Device i meets h on day i - 1 and uploads at noon of day i, for
        i from 1 to 28 of a 30-day run.  From day 15 on, a midnight leaves
        the server no more than the last 15 days' uploads added: the keys
        (decentralized) or the contact-graph edges (centralized), and no
        identifier of an interval before the retention horizon."""
        config = daily_uploads(scheme, ["h"])
        added, held, oldest = {}, {}, {}

        class Recording(Engine):
            def _noon_uploads(self, day):
                before = len(self.gt_published_keys) + len(self.cen_server.contact_edges())
                super()._noon_uploads(day)
                after = len(self.gt_published_keys) + len(self.cen_server.contact_edges())
                added[day] = after - before

            def _midnight(self, day):
                super()._midnight(day)
                held[day] = len(self.dec_server.published) + len(self.cen_server.contact_edges())
                intervals = (t_k for ids in self.cen_server._registry.values() for t_k in ids)
                oldest[day] = min(intervals, default=math.inf)

        Recording(config).run()
        assert [day for day, n in added.items() if n] == list(range(1, 29))
        for day in range(15, 30):
            assert 0 < held[day] <= sum(added[d] for d in range(day - 15, day))
            assert oldest[day] >= (day - 14) * DAY // baselines.CENTRAL_INTERVAL_SECONDS

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    def test_frame_set_flat_past_retention(self, loss):
        """Device i meets h and e_i on day i - 1 and uploads at noon of
        day i, for i from 1 to 28 of a 30-day run.  At each midnight from
        day 8 on, a client skips no more frames than the last two epochs
        published: its last feed and its own uploads since.  (Before it a
        day may publish nothing, and a fetch that finds nothing new keeps
        the frames of the feed before.)"""
        config = daily_uploads("tracecorona", ["h", "e"], channel_loss=loss)
        published, largest = [], []

        class Recording(Engine):
            def _midnight(self, day):
                super()._midnight(day)
                published.append(self.server.stats_snapshot()["records_published"])
                largest.append(max(len(c.seen_records) for c in self.clients.values()))

        Recording(config).run()
        assert published[-1] > published[-3] > published[-5]
        for day in range(8, 30):
            assert largest[day] <= published[day] - published[day - 2]

    def test_result_moved_to_today_uploads_next_noon(self):
        """With zero test delays a warning moves a device's result day to
        the day it is warned, after that day's noon: d4, infected on day
        3, is warned at 23:00 of day 3 and uploads at noon of day 4, so
        every infected device uploads."""
        config = daily_uploads("tracecorona", ["h", "e"])
        uploads = {}

        class Recording(Engine):
            def _noon_uploads(self, day):
                before = {d for d, i in self.gt_infections.items() if i.uploaded}
                super()._noon_uploads(day)
                for d, i in self.gt_infections.items():
                    if i.uploaded and d not in before:
                        uploads[d] = (day, i.result_day)

        report = Recording(config).run()
        assert uploads["d4"] == (4, 3)
        assert len(uploads) == report.server_stats["infected_uploads"] == 28

    @pytest.mark.parametrize("cadence", [DAY, 40 * 3600, 2 * DAY, 3 * DAY, 7 * DAY])
    def test_key_expiry_loses_no_notification(self, monkeypatch, cadence):
        """Whatever the feed cadence, the server's key expiry changes no
        notification.  With retention_days 2, a (an hour behind) tests
        positive on day 3 and publishes its keys of days 2 and 3; b heard
        a at 00:10 of day 3 broadcasting its key of day 2, which matches
        within the replay window.  The day-2 key outlives b's day-3 runs:
        with a 3-day cadence b first fetches at 23:00 of day 5, after a
        key kept only for day 2's retention would have gone."""
        config = ScenarioConfig.from_dict(config_dict(
            scheme="decentralized", duration_days=9, feed_cadence=cadence, retention_days=2,
            channel_loss=0.0, devices=[{"id": "a", "clock_offset_s": -3600}, {"id": "b"}],
            colocation_schedule=[{"device_a": "a", "device_b": "b", "start": 3 * DAY + 600,
                                  "end": 3 * DAY + 2400, "rssi_profile": -55}],
            infections=[{"device": "a", "day": 2}],
            disease_timeline={"incubation_to_contagious_days": 0, "contagious_to_symptoms_days": 1,
                              "symptoms_to_test_days": 0, "test_to_result_days": 0},
        ))
        notes = Engine(config).run().notifications
        monkeypatch.setattr(baselines.DecentralizedServer, "forget_before", lambda self, day: None)
        assert notes == Engine(config).run().notifications
        assert len(notes) == (cadence < 7 * DAY)

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    @pytest.mark.parametrize("scheme", ["decentralized", "centralized"])
    def test_crowded_room_hands_over_whole_runs(self, scheme, loss):
        """In the room each client hears nine senders at once and holds
        from each what it holds when their link runs alone, in as many
        runs or one more, so in at most nine more runs in all.  The crowd
        adds one place to stop a run: the first ticks of the other links,
        which all start at the room's start second.  A beam's run that
        starts there may be cut once more, after its first second; later
        no run is cut at another sender's beacons."""
        config = room(loss).replace(scheme=scheme)

        class Alone(Engine):
            """The room with only the link between two devices."""

            def __init__(self, pair):
                super().__init__(config)
                self.pair = pair

            def _links(self):
                return [link for link in super()._links() if {link.a, link.b} == self.pair]

        crowded = Engine(config)
        crowded.run()
        for pair in itertools.combinations(crowded.clients, 2):
            alone = Alone(set(pair))
            alone.run()
            for dst, src in (pair, pair[::-1]):
                held = alone.clients[dst].runs
                runs = crowded.clients[dst].runs
                heard = [run for run in runs if run.provenance["source"] == src]
                assert held and match_oracle.expand(heard) == match_oracle.expand(held)
                assert len(held) <= len(heard) <= len(held) + 1

    @pytest.mark.parametrize("scheme", ["decentralized", "centralized"])
    def test_lossy_runs_held_packed(self, scheme):
        """At 10% loss with every clock offset, a and b meet for an hour
        on each of three days while a two-way relay tunnels b to c.  Each
        held run's seconds are a ``range`` or one ``array('q')``, about 8
        bytes a second (a list of boxed ints takes about 40), and the
        runs from one (source, relay) pair share one provenance."""
        config = ScenarioConfig.from_dict(config_dict(
            scheme=scheme, duration_days=4, channel_loss=0.1,
            devices=[{"id": "a", "clock_offset_s": -7}, {"id": "b", "clock_offset_s": 3},
                     {"id": "c", "clock_offset_s": 11}],
            colocation_schedule=[
                {"device_a": "a", "device_b": "b", "start": d * DAY + 36000,
                 "end": d * DAY + 39600}
                for d in range(3)
            ],
            adversaries=[{"kind": "relay_twoway", "capture": "c", "victims": ["b"],
                          "start": 36000, "end": 39600, "latency_s": 1}],
            infections=[{"device": "a", "day": 0}], disease_timeline=FAST_TIMELINE,
        ))
        engine = Engine(config)
        engine.run()
        runs = [run for client in engine.clients.values() for run in client.runs]
        assert any(isinstance(run.times, array) for run in runs)
        for run in runs:
            assert isinstance(run.times, range) or (
                isinstance(run.times, array) and run.times.typecode == "q"
            )
        # a list's bytes are its slots and the ints they box
        held = sum(
            sys.getsizeof(run.times)
            + (sum(map(sys.getsizeof, run.times)) if isinstance(run.times, list) else 0)
            for run in runs
        )
        assert held <= 16 * sum(len(run.times) for run in runs)
        pairs = {(run.provenance["source"], run.provenance["via"]) for run in runs}
        assert any(via is not None for _, via in pairs)
        assert len({id(run.provenance) for run in runs}) == len(pairs)


#: decentralized configs for the derivation count: the first publishes
#: nothing, so every derivation is for broadcasting; the bundled ones
#: publish keys that clients match and the report links
DERIVATION_CONFIGS = {
    "broadcast_only": config_dict(
        scheme="decentralized", infections=[], colocation_schedule=daily_schedule([3, 5])
    ),
    **{
        name: {**bundled_dict(name), "scheme": "decentralized"}
        for name in ("eavesdropper_decentralized", "relay_r1", "kiss_replay")
    },
}


class TestDerivationCounts:
    """Each baseline identifier and each frame keypair is derived once;
    later uses look it up."""

    def test_deferred_keypair_once_per_device_frame(self, monkeypatch):
        """Two devices that derive tokens at charging time meet for two
        hours, eight frames: each pending derivation holds its frame's
        private key, so charging looks no keypair up and none is built
        twice."""
        builds = Counter()
        generate = crypto.generate_frame_keypair

        def counted(frame_index, rng):
            builds[(rng.getstate(), frame_index)] += 1
            return generate(frame_index, rng)

        monkeypatch.setattr(crypto, "generate_frame_keypair", counted)
        start = 3 * DAY + 36000
        config = ScenarioConfig.from_dict(config_dict(
            devices=[
                {"id": "a", "derive_mode": "deferred"},
                {"id": "b", "clock_offset_s": 3, "derive_mode": "deferred"},
            ],
            colocation_schedule=[{"device_a": "a", "device_b": "b", "start": start,
                                  "end": start + 7200, "rssi_profile": -55}],
        ))
        engine = Engine(config)
        engine.run()
        assert all(len(c.device.store) >= 8 for c in engine.clients.values())
        assert len(builds) >= 16 and set(builds.values()) == {1}

    @pytest.mark.parametrize("name", sorted(DERIVATION_CONFIGS))
    def test_decentralized_table_once_per_device_day(self, monkeypatch, name):
        tables, slots = Counter(), Counter()
        derive_all = crypto.derive_tempids_decentralized
        derive_one = crypto.derive_tempid_decentralized

        def counted_all(tek, day):
            tables[(tek, day)] += 1
            return derive_all(tek, day)

        def counted_one(tek, day, slot):
            slots[(tek, day)] += 1
            return derive_one(tek, day, slot)

        monkeypatch.setattr(crypto, "derive_tempids_decentralized", counted_all)
        monkeypatch.setattr(crypto, "derive_tempid_decentralized", counted_one)
        report = run_scenario(ScenarioConfig.from_dict(DERIVATION_CONFIGS[name]))
        assert tables and set(tables.values()) == {1}
        # a table is one extract of its key, not 144 per-slot derivations
        assert not slots
        if name == "broadcast_only":
            assert len(tables) == 4
        else:
            assert report.linkability_recovered

    def test_centralized_tempid_once_per_user_interval(self, monkeypatch):
        calls = Counter()
        derive = crypto.derive_tempid_centralized

        def counted(user_id, t_k):
            calls[(user_id, t_k)] += 1
            return derive(user_id, t_k)

        monkeypatch.setattr(crypto, "derive_tempid_centralized", counted)
        report = run_scenario(ScenarioConfig.from_dict(config_dict(scheme="centralized")))
        assert len(report.notifications) == 1
        assert calls and set(calls.values()) == {1}

    def test_match_provenance_asks_once_per_user_interval(self, monkeypatch):
        """Crediting a centralized notification asks the server for the
        notified user's identifier once per uploaded interval, not once
        per uploaded observation."""

        # a hears c for 20 minutes on day 3 and b on day 4: crediting b
        # passes every observation of c first
        schedule = [
            {"device_a": "a", "device_b": peer, "start": day * DAY + 36000,
             "end": day * DAY + 37200, "rssi_profile": -55}
            for day, peer in ((3, "c"), (4, "b"))
        ]
        config = ScenarioConfig.from_dict(config_dict(
            scheme="centralized", devices=[{"id": "a"}, {"id": "b"}, {"id": "c"}],
            colocation_schedule=schedule,
        ))
        tempid_for = baselines.CentralizedServer.tempid_for
        match_provenance = engine_module._CentralizedClient._match_provenance
        calls: list[Counter] = []
        intervals: list[int] = []
        inside = []

        def counted_tempid_for(server, user_id, t_k):
            if inside:
                calls[-1][(user_id, t_k)] += 1
            return tempid_for(server, user_id, t_k)

        def counted_match(client, target, provenance):
            calls.append(Counter())
            intervals.append(len({
                t // baselines.CENTRAL_INTERVAL_SECONDS for run in client.runs for t in run.times
            }))
            inside.append(True)
            try:
                return match_provenance(client, target, provenance)
            finally:
                inside.pop()

        monkeypatch.setattr(baselines.CentralizedServer, "tempid_for", counted_tempid_for)
        monkeypatch.setattr(engine_module._CentralizedClient, "_match_provenance", counted_match)
        report = run_scenario(config)
        assert sorted(n["device"] for n in report.notifications) == ["b", "c"]
        assert all(n["genuine"] for n in report.notifications)
        assert len(calls) == 2
        for asked, distinct in zip(calls, intervals):
            assert asked and set(asked.values()) == {1}
            assert len(asked) <= distinct

    def test_broadcast_tables_bounded_by_retention(self):
        config = ScenarioConfig.from_dict(
            config_dict(scheme="decentralized", duration_days=18,
                        colocation_schedule=daily_schedule(range(18)))
        )
        engine = Engine(config)
        engine.run()
        for client in engine.clients.values():
            assert 0 < len(client.keys) <= config.retention_days + 1
