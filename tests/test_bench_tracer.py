"""The benchmark's tracer wraps program functions by name; every name it
wraps or reads must still exist and count what it did.

Installs ``bench/tracing.Tracer``, runs one upload, fetch and log replay
in process, and checks the counters it reads.
"""

import os
import random
import sys

from tracecorona import crypto, wire
from tracecorona.authority import HealthAuthority
from tracecorona.server import TracingServer

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import tracing  # noqa: E402


def test_traced_upload_fetch_and_replay(tmp_path):
    log = tmp_path / "server.log"
    rng = random.Random(70)
    records = []
    for t in range(3):
        secret = rng.randbytes(32)
        records.append(wire.TokenUploadRecord(
            crypto.token_hash(secret), crypto.encrypt_metadata(secret, t)
        ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        server = TracingServer(HealthAuthority(random.Random(0)), log_path=log)
        tan = server.authority.issue_tan("u", 0).value
        body = wire.encode_upload_infected(tan, records)
        assert wire.handle_request(server, body)[0] == wire.STATUS_ACCEPTED
        response = wire.handle_request(server, wire.encode_fetch_feed(0, 1))
        fetched, _ = wire.decode_records(response, 5)
        replayed = TracingServer.replay_log(log, HealthAuthority(random.Random(0)))
        feed = replayed.fetch_feed(0, random.Random(1))
    finally:
        tracer.uninstall()
    assert sorted(fetched, key=lambda r: r.hash) == sorted(records, key=lambda r: r.hash)
    assert feed.records == tuple(fetched)
    totals = tracer.snapshot()
    assert totals["server.records_stored"] == 3
    assert totals["server.records_held"] == 3
    assert totals["server.records_served"] == 3
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
