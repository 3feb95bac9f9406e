"""The benchmark's tracer wraps program functions by name; every name it
wraps or reads must still exist and count what it did.

Installs ``bench/tracing.Tracer``, runs one upload, fetch, match and log
replay in process, and one decentralized and one centralized scenario,
and checks the counters it reads.
"""

import os
import random
import sys

from tracecorona import crypto, exposure, wire
from tracecorona.authority import HealthAuthority
from tracecorona.device import TokenStore
from tracecorona.server import TracingServer
from tracecorona.simnet import engine
from tracecorona.simnet.config import ScenarioConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import tracing  # noqa: E402


def test_traced_upload_fetch_and_replay(tmp_path):
    log = tmp_path / "server.log"
    rng = random.Random(70)
    records = []
    store = TokenStore()
    for t in range(3):
        secret = rng.randbytes(32)
        records.append(wire.TokenUploadRecord(
            crypto.token_hash(secret), crypto.encrypt_metadata(secret, t)
        ))
        store.add(0, bytes([t]) * 16, crypto.EncounterToken(secret, t, 600, -55.0, 0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        server = TracingServer(HealthAuthority(random.Random(0)), log_path=log)
        tan = server.authority.issue_tan("u", 0).value
        body = wire.encode_upload_infected(tan, records)
        assert wire.handle_request(server, body)[0] == wire.STATUS_ACCEPTED
        response = wire.handle_request(server, wire.encode_fetch_feed(0, 1))
        fetched, _ = wire.decode_records(response, 5)
        found = exposure.match_feed(store, wire.read_feed(response), 30)
        replayed = TracingServer.replay_log(log, HealthAuthority(random.Random(0)))
        feed = replayed.fetch_feed(0, random.Random(1))
    finally:
        tracer.uninstall()
    assert sorted(fetched, key=lambda r: r.hash) == sorted(records, key=lambda r: r.hash)
    assert feed.frames == [wire.encode_record(r) for r in fetched]
    totals = tracer.snapshot()
    assert totals["server.records_stored"] == 3
    assert totals["server.records_held"] == 3
    assert totals["server.records_served"] == 3
    # the tracer reads a feed's length for the records the client scanned
    assert totals["exposure.records_scanned"] == 3
    assert totals["exposure.notifications"] == len(found) == 3
    # socket uploads reach the server as frames, so only the client's
    # decode of the feed goes through decode_records
    assert totals["wire.records_decoded"] == 3
    assert totals["wire.handle_request.calls"] == 2
    assert totals["server.upload_infected.calls"] == 1
    assert totals["server.replay_log.calls"] == 1
    assert totals["wire.read_log.calls"] == 1
    assert totals["server.replay_s"] > 0
    # uninstalling puts every wrapped name back
    assert not hasattr(wire.handle_request, "__wrapped__")
    assert not hasattr(TracingServer.upload_infected, "__wrapped__")


def traced_pair(scheme):
    """The report and tracer totals of one contact between an infected
    device and another under ``scheme``."""
    config = ScenarioConfig.from_dict({
        "name": "traced", "seed": 1, "duration_days": 10, "scheme": scheme,
        "devices": [{"id": "a"}, {"id": "b", "clock_offset_s": 3}],
        "colocation_schedule": [
            {"device_a": "a", "device_b": "b", "start": 3 * 86400 + 36000,
             "end": 3 * 86400 + 37200},
        ],
        "infections": [{"device": "a", "day": 0}],
        "channel_loss": 0.1,
    })
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = engine.run_scenario(config)
    finally:
        tracer.uninstall()
    return report, tracer.snapshot()


def test_traced_decentralized_matches():
    report, totals = traced_pair("decentralized")
    assert [n["device"] for n in report.notifications] == ["b"]
    # b matches each of a's published keys against its runs, once, at
    # the first second it heard of one of the key's identifiers
    assert totals["baselines.match_observations.calls"] >= 1
    assert totals["baselines.matches"] >= len(report.notifications)
    assert 0 < totals["baselines.observations_max"] <= totals["baselines.pairs_scanned"]


def test_traced_centralized_matches():
    # the server matches a's upload against its registry (``_registry``)
    report, totals = traced_pair("centralized")
    assert [n["device"] for n in report.notifications] == ["b"]
    assert totals["baselines.match.calls"] >= 1
    assert totals["baselines.matches"] >= len(report.notifications)
    assert totals["baselines.pairs_scanned"] > 0
