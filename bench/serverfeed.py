"""``server_feed``: one day of the tracing server at 1/10 of the paper's load.

One closed-loop connection sends ``UPLOADS`` uploads of ``RECORDS``
records each to ``tracecorona serve``; then, once for each of
``CLIENTS`` clients, the server restarts on its log and the client
fetches the whole feed, decodes it and runs ``match_feed`` against its
14-day token store.

The upload mix is fixed; the seed draws the records, the planted
tokens, the TAN issuance and the order:

* infected uploads with TANs the server issued: accepted;
* infected uploads with TANs it never issued: rejected;
* second-level uploads whose proof opens a published record: accepted;
* second-level uploads with forged proofs: rejected;
* infected uploads whose TAN bytes are not ASCII (the same bytes every
  run, at fixed positions): should be answered ``STATUS_MALFORMED``.
  Today the server raises ``UnicodeDecodeError`` and drops the
  connection; the client counts the upload as failed and reconnects.

Only the few records a client can match are real encryptions; the
others carry random bytes, which is all the server and a non-matching
client ever look at.
"""

from __future__ import annotations

import hashlib
import os
import random
import selectors
import socket
import struct
import subprocess
import sys
import time

from tracecorona import crypto, exposure, wire
from tracecorona.authority import TAN_ALPHABET, TAN_LENGTH, HealthAuthority
from tracecorona.crypto import EncounterToken
from tracecorona.device import TokenStore
from tracecorona.server import TracingServer

from hostspeed import HostSpeed, Phase
from workloads import Round

UPLOADS = 1000
RECORDS = 280
UNISSUED = 16
SECOND_GENUINE = 12
SECOND_FORGED = 8
MALFORMED_TAN = 4
INFECTED = UPLOADS - UNISSUED - SECOND_GENUINE - SECOND_FORGED - MALFORMED_TAN
CLIENTS = 3
#: Uploads per timed phase; each phase is scaled by its own host speed.
INGEST_CHUNK = 200
STORE_TOKENS = 14 * 20
EPSILON = 30
#: Planted tokens per client: matched direct, matched second-level,
#: published with a timestamp outside epsilon, and only in rejected uploads.
PLANT_DIRECT, PLANT_SECOND, PLANT_LATE, PLANT_REJECTED = 4, 2, 2, 2
#: Every upload body whose TAN bytes are not ASCII; independent of the seed.
MALFORMED_BODY = bytes([wire.OP_UPLOAD_INFECTED, 2]) + b"\xff\xfe" + wire.encode_records([])
BASE_TIME = 1_650_000_000
SERVER_START_TIMEOUT_S = 120


def _send(sock: socket.socket, body: bytes) -> None:
    sock.sendall(struct.pack(">I", len(body)) + body)


def _recv(sock: socket.socket) -> bytes | None:
    """One framed message, or None if the server closed the connection."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    return _recv_exact(sock, struct.unpack(">I", header)[0])


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    while n:
        try:
            chunk = sock.recv(min(n, 1 << 20))
        except ConnectionResetError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


# -- servers ----------------------------------------------------------------------


class ServeProcess:
    """``tracecorona serve`` in its own process, on a log file."""

    def __init__(self, root: str, log_path: str, seed: int, stderr_path: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "tracecorona.cli", "serve", "--log", log_path,
             "--port", "0", "--seed", str(seed)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
        )
        line = self._read_line()
        if not line.startswith(b"serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split()[2].rstrip(b",").decode().rsplit(":", 1)
        self.address = (host, int(port))

    def _read_line(self) -> bytes:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(SERVER_START_TIMEOUT_S):
                return b""
        return self.proc.stdout.readline()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


class InProcessServer:
    """The same server inside the benchmark's process, for traced runs,
    so that the tracer's wrappers see its calls."""

    def __init__(self, root: str, log_path: str, seed: int, stderr_path: str):
        authority = HealthAuthority(random.Random(seed))
        if os.path.exists(log_path) and os.path.getsize(log_path) > 0:
            tracing = TracingServer.replay_log(log_path, authority)
        else:
            tracing = TracingServer(authority, log_path=log_path)
        self._wire = wire.WireServer(tracing)
        self._wire.start()
        self.address = self._wire.address

    def peak_rss_mb(self) -> float:
        return 0.0

    def stop(self) -> None:
        self._wire.shutdown()


# -- the workload ---------------------------------------------------------------------


#: One record in an upload's buffer: the token hash, then the metadata
#: ciphertext.  The records are kept as bytes until their upload body is
#: encoded, so that set-up holds no record objects.
CIPHERTEXT_BYTES = 36
RECORD_BYTES = wire.TOKEN_HASH_BYTES + CIPHERTEXT_BYTES


def _real_record(secret: bytes, t: int) -> bytes:
    return crypto.token_hash(secret) + crypto.encrypt_metadata(secret, t)


def _records(buffer: bytearray, tag: wire.Tag = wire.Tag.DIRECT) -> list[wire.TokenUploadRecord]:
    data = bytes(buffer)
    return [
        wire.TokenUploadRecord(data[i:i + wire.TOKEN_HASH_BYTES],
                               data[i + wire.TOKEN_HASH_BYTES:i + RECORD_BYTES], tag)
        for i in range(0, len(data), RECORD_BYTES)
    ]


def feed_digest(records) -> tuple[int, int]:
    """Count and order-independent digest of a multiset of records: the
    sum of each record's SHA-256, modulo 2**256."""
    total = 0
    count = 0
    for record in records:
        key = record.hash + record.ciphertext + bytes([record.tag])
        total += int.from_bytes(hashlib.sha256(key).digest(), "big")
        count += 1
    return count, total % (1 << 256)


class ServerFeedWorkload:
    def __init__(self, root: str, out_dir: str, in_process: bool):
        self.root = root
        self.out_dir = out_dir
        self.server_cls = InProcessServer if in_process else ServeProcess
        self.log_path = os.path.join(out_dir, "server.log")
        self.stderr_path = os.path.join(out_dir, "server.stderr")

    def _start(self, seed: int):
        return self.server_cls(self.root, self.log_path, seed, self.stderr_path)

    def _fresh_server(self, seed: int):
        if os.path.exists(self.log_path):
            os.remove(self.log_path)
        server = self._start(seed)
        try:
            with wire.WireClient(*server.address) as client:
                tans = [client.issue_tan("bench") for _ in range(INFECTED)]
        except BaseException:
            server.stop()
            raise
        return server, tans

    def setup(self, seed: int) -> dict:
        rng = random.Random(f"server_feed|{seed}")

        def upload() -> bytearray:
            return bytearray(rng.randbytes(RECORDS * RECORD_BYTES))

        # Which upload carries what: ("infected", records), ("unissued",
        # records), ("second", proof, records), ("forged", proof, records),
        # each upload's records as one buffer.
        infected = [upload() for _ in range(INFECTED)]
        others = (
            [("unissued", upload()) for _ in range(UNISSUED)]
            + [("forged", rng.randbytes(32), upload()) for _ in range(SECOND_FORGED)]
        )
        order = [("infected", records) for records in infected] + others
        rng.shuffle(order)
        early = [op for op in order[: len(order) // 2] if op[0] == "infected"]
        taken: set[tuple[int, int]] = set()

        def place(records_of_kind, record: bytes) -> None:
            """Put a real record in a free slot of one of the uploads."""
            while True:
                records = rng.choice(records_of_kind)
                index = rng.randrange(RECORDS)
                if (id(records), index) not in taken:
                    taken.add((id(records), index))
                    records[index * RECORD_BYTES:(index + 1) * RECORD_BYTES] = record
                    return

        late_slots = sorted(rng.sample(range(len(order) // 2, len(order)), SECOND_GENUINE),
                            reverse=True)
        for slot in late_slots:
            # the proof opens a record published earlier in the day
            secret = rng.randbytes(32)
            place([op[1] for op in early], _real_record(secret, BASE_TIME + rng.randrange(86400)))
            order.insert(slot, ("second", secret, upload()))

        def plant(records_of_kind, count, delta_range):
            """Tokens whose records go into uploads of the given kind."""
            tokens = []
            for _ in range(count):
                secret = rng.randbytes(32)
                start = BASE_TIME - rng.randrange(14 * 86400)
                low, high = delta_range
                delta = rng.choice([-1, 1]) * rng.randint(low, high)
                place(records_of_kind, _real_record(secret, start + delta))
                tokens.append(EncounterToken(
                    secret=secret, start_time=start, duration=600,
                    max_signal_strength=-60.0, frame_index=start // 900,
                ))
            return tokens

        accepted_infected = [op[1] for op in order if op[0] == "infected"]
        accepted_second = [op[2] for op in order if op[0] == "second"]
        rejected = [op[-1] for op in order if op[0] in ("unissued", "forged")]
        clients = []
        for _ in range(CLIENTS):
            direct = plant(accepted_infected, PLANT_DIRECT, (0, EPSILON - 10))
            second = plant(accepted_second, PLANT_SECOND, (0, EPSILON - 10))
            late = plant(accepted_infected, PLANT_LATE, (EPSILON + 1, 600))
            gone = plant(rejected, PLANT_REJECTED, (0, EPSILON - 10))
            store = TokenStore()
            filler = [
                EncounterToken(
                    secret=rng.randbytes(32), start_time=BASE_TIME - rng.randrange(14 * 86400),
                    duration=600, max_signal_strength=-60.0, frame_index=0,
                )
                for _ in range(STORE_TOKENS - len(direct + second + late + gone))
            ]
            for token in direct + second + late + gone + filler:
                store.add(token.frame_index, rng.randbytes(16), token)
            expected = sorted(
                [(crypto.token_hash(t.secret), t.start_time, "direct") for t in direct]
                + [(crypto.token_hash(t.secret), t.start_time, "second_level") for t in second]
            )
            clients.append((store, expected, rng.getrandbits(63)))

        malformed_at = [UPLOADS * (k + 1) // (MALFORMED_TAN + 1) for k in range(MALFORMED_TAN)]
        for slot in malformed_at:
            order.insert(slot, ("malformed",))

        server, tans = self._fresh_server(seed)
        server.stop()
        unissued = set()
        while len(unissued) < UNISSUED:
            tan = "".join(rng.choice(TAN_ALPHABET) for _ in range(TAN_LENGTH))
            if tan not in tans:
                unissued.add(tan)
        unissued = sorted(unissued)
        # Record objects exist for one upload at a time; the feed the
        # accepted uploads publish is kept only as its digest.  Uploads carry
        # their records tagged direct, as a client's own records are; the
        # server tags a second-level upload's records when it stores them.
        bodies, statuses, published = [], [], []
        issued = iter(tans)
        for op in order:
            kind = op[0]
            if kind == "infected":
                records = _records(op[1])
                bodies.append(wire.encode_upload_infected(next(issued), records))
                statuses.append(wire.STATUS_ACCEPTED)
                published.append(feed_digest(records))
            elif kind == "unissued":
                bodies.append(wire.encode_upload_infected(unissued.pop(), _records(op[1])))
                statuses.append(wire.STATUS_REJECTED)
            elif kind == "second":
                bodies.append(wire.encode_upload_second_level(op[1], _records(op[2])))
                statuses.append(wire.STATUS_ACCEPTED)
                published.append(feed_digest(_records(op[2], wire.Tag.SECOND_LEVEL)))
            elif kind == "forged":
                bodies.append(wire.encode_upload_second_level(op[1], _records(op[2])))
                statuses.append(wire.STATUS_REJECTED)
            else:
                bodies.append(MALFORMED_BODY)
                statuses.append(wire.STATUS_MALFORMED)
        feed = (sum(n for n, _ in published), sum(d for _, d in published) % (1 << 256))
        return {"seed": seed, "bodies": bodies, "statuses": statuses, "tans": tans,
                "feed": feed, "clients": clients}

    def run_round(self, inputs: dict, speed: HostSpeed) -> Round:
        seed = inputs["seed"]
        result = Round(seconds=0.0, raw_seconds=0.0, attempted=0)
        samples = result.samples = {"upload_ms": [], "restart_s": [], "sync_s": [], "server_rss_mb": []}

        def timed(phase: Phase) -> None:
            result.seconds += phase.scaled_s
            result.raw_seconds += phase.raw_s

        server, tans = self._fresh_server(seed)
        try:
            if tans != inputs["tans"]:
                raise RuntimeError("the server issued other TANs than at setup")
            sock = socket.create_connection(server.address)
            try:
                for first in range(0, UPLOADS, INGEST_CHUNK):
                    with Phase(speed) as phase:
                        sock, latencies = self._ingest(
                            sock, server, inputs, slice(first, first + INGEST_CHUNK), result
                        )
                    samples["upload_ms"] += [1000 * s * phase.factor for s in latencies]
                    timed(phase)
            finally:
                sock.close()
            samples["server_rss_mb"].append(server.peak_rss_mb())
        finally:
            server.stop()

        for store, expected, shuffle_seed in inputs["clients"]:
            result.attempted += 1
            with Phase(speed) as phase:
                server = self._start(seed)
                socket.create_connection(server.address).close()
            timed(phase)
            samples["restart_s"].append(phase.scaled_s)
            try:
                with Phase(speed) as phase:
                    with wire.WireClient(*server.address) as client:
                        feed = client.fetch_feed(0, shuffle_seed)
                    found = exposure.match_feed(store, feed, EPSILON)
                timed(phase)
                samples["sync_s"].append(phase.scaled_s)
                with wire.WireClient(*server.address) as client:
                    published = client.stats()["records_published"]
                samples["server_rss_mb"].append(server.peak_rss_mb())
            finally:
                server.stop()
            accepted = inputs["feed"][0]
            if published != accepted:
                result.problems.append(
                    f"restarted server publishes {published} records, accepted {accepted}")
            if feed_digest(feed.records) != inputs["feed"]:
                result.problems.append("fetched feed differs from the accepted uploads' records")
            got = sorted((n.matched_hash, n.encounter_time, n.level.value) for n in found)
            if got != expected:
                result.problems.append(f"client matched {len(got)} records, planted {len(expected)}")
            del feed, found
        return result

    def _ingest(self, sock, server, inputs: dict, part: slice, result: Round):
        """Send a slice of the uploads in a closed loop; the connection to
        go on with, and the wall time of each answered round trip."""
        latencies = []
        for body, status in zip(inputs["bodies"][part], inputs["statuses"][part]):
            result.attempted += 1
            start = time.perf_counter()
            _send(sock, body)
            response = _recv(sock)
            elapsed = time.perf_counter() - start
            if response is None:
                result.failed.append(f"upload expecting status {status}: connection dropped")
                sock.close()
                sock = socket.create_connection(server.address)
                continue
            latencies.append(elapsed)
            if response[0] != status:
                result.problems.append(
                    f"upload answered {response[:40]!r}, protocol says status {status}")
        return sock, latencies
