"""Wire formats: record frames, log units, socket round trips."""

import os
import pathlib
import random
import socket
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

import match_oracle
import wire_oracle
from wire_oracle import per_record, record_epochs
from tracecorona import cli, crypto, exposure, wire
from tracecorona.authority import HealthAuthority
from tracecorona.crypto import EncounterToken
from tracecorona.device import TokenStore
from tracecorona.server import TracingServer


def sample_record(seed=0, tag=wire.Tag.DIRECT):
    rng = random.Random(seed)
    secret = rng.randbytes(32)
    return secret, wire.TokenUploadRecord(
        hash=crypto.token_hash(secret),
        ciphertext=crypto.encrypt_metadata(secret, 1_600_000_000 + seed),
        tag=tag,
    )


class TestRecordFraming:
    def test_layout(self):
        _, record = sample_record(1)
        frame = wire.encode_record(record)
        assert frame[:16] == record.hash
        assert int.from_bytes(frame[16:20], "big") == len(record.ciphertext)
        assert frame[-1] == record.tag
        assert len(frame) == 16 + 4 + len(record.ciphertext) + 1

    def test_round_trip_all_tags(self):
        for tag in wire.Tag:
            _, record = sample_record(2, tag)
            decoded, used = wire.decode_record(wire.encode_record(record))
            assert decoded == record
            assert used == len(wire.encode_record(record))

    def test_truncated_rejected(self):
        _, record = sample_record(3)
        frame = wire.encode_record(record)
        for cut in (5, 19, len(frame) - 1):
            with pytest.raises(wire.WireError):
                wire.decode_record(frame[:cut])

    def test_unknown_tag_rejected(self):
        _, record = sample_record(4)
        frame = bytearray(wire.encode_record(record))
        frame[-1] = 9
        with pytest.raises(wire.WireError):
            wire.decode_record(bytes(frame))

    def test_record_list_round_trip(self):
        records = [sample_record(i)[1] for i in range(5)]
        decoded, _ = wire.decode_records(wire.encode_records(records))
        assert decoded == records

    def test_feed_records_view_builds_one_record_at_a_time(self, monkeypatch):
        batch = [sample_record(i, tag)[1] for i, tag in enumerate(wire.Tag)]
        feed = wire.PublishedFeed.from_frames([wire.encode_record(r) for r in batch], 0)
        built = []
        record_class = wire.TokenUploadRecord

        def counted(*args):
            built.append(args)
            return record_class(*args)

        monkeypatch.setattr(wire, "TokenUploadRecord", counted)
        view = feed.records
        assert len(view) == 3 and built == []
        records = iter(view)
        assert next(records) == batch[0] and len(built) == 1
        assert list(records) == batch[1:] and len(built) == 3
        assert list(feed.records) == batch

    def test_hash_length_enforced(self):
        # struct's "16s" would pad or cut a 15- or 17-byte hash without complaint
        for size in (5, 15, 17):
            with pytest.raises(ValueError):
                wire.TokenUploadRecord(hash=bytes(size), ciphertext=b"x")


arbitrary_records = st.builds(
    wire.TokenUploadRecord,
    hash=st.binary(min_size=16, max_size=16),
    ciphertext=st.binary(min_size=wire.CIPHERTEXT_BYTES, max_size=wire.CIPHERTEXT_BYTES),
    tag=st.sampled_from(wire.Tag),
)


class TestCodecProperties:
    @given(arbitrary_records)
    def test_round_trip(self, record):
        frame = wire.encode_record(record)
        assert wire.decode_record(frame) == (record, len(frame))
        assert wire.decode_record(b"pad" + frame, 3) == (record, 3 + len(frame))

    @given(arbitrary_records)
    def test_every_proper_prefix_rejected(self, record):
        frame = wire.encode_record(record)
        for cut in range(len(frame)):
            with pytest.raises(wire.WireError):
                wire.decode_record(frame[:cut])

    @given(st.lists(arbitrary_records, min_size=1, max_size=3))
    def test_every_proper_prefix_of_a_list_rejected(self, batch):
        frame = wire.encode_records(batch)
        assert wire.decode_records(frame) == (batch, len(frame))
        for cut in range(len(frame)):
            with pytest.raises(wire.WireError):
                wire.decode_records(frame[:cut])

    @given(arbitrary_records, st.integers(len(wire.Tag), 255))
    def test_unknown_tag_rejected(self, record, tag):
        frame = wire.encode_record(record)[:-1] + bytes([tag])
        with pytest.raises(wire.WireError, match=f"^unknown record tag {tag}$"):
            wire.decode_record(frame)


#: A log of a direct frame, the mark of epoch 3 and a second-level
#: frame, one 57-byte unit each.
GOLDEN_LOG = (
    "11111111111111111111111111111111" "00000024"
    "222222222222222222222222222222222222222222222222222222222222222222222222" "00"
    "0000000000000003"
    "000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000" "ff"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" "00000024"
    "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb" "01"
)


def log_of(path, units):
    """Write the units as a log at ``path``."""
    path.write_bytes(b"".join(units))
    return path


class TestLog:
    def test_log_record_line_is_its_frame(self):
        _, record = sample_record(5)
        assert wire.log_record_line(record) == wire.encode_record(record)

    def test_golden_bytes(self, tmp_path):
        first = wire.TokenUploadRecord(b"\x11" * 16, b"\x22" * 36)
        second = wire.TokenUploadRecord(b"\xaa" * 16, b"\xbb" * 36, wire.Tag.SECOND_LEVEL)
        frames = [wire.log_record_line(first), wire.log_record_line(second)]
        path = tmp_path / "log"
        wire.append_log(path, [frames[0], wire.epoch_mark(3), frames[1]])
        assert path.read_bytes().hex() == GOLDEN_LOG
        assert per_record(wire.read_log(path)) == (3, [0, 3], frames)

    def test_read_log_with_epochs(self, tmp_path):
        records = [sample_record(i)[1] for i in range(4)]
        units = [wire.encode_record(r) for r in records]
        path = log_of(tmp_path / "log", [wire.epoch_mark(0), units[0], wire.epoch_mark(3), *units[1:]])
        epoch, epochs, frames = per_record(wire.read_log(path))
        assert epoch == 3
        assert epochs == [0, 3, 3, 3]
        assert frames == units

    def test_whole_epoch_line_going_back_rejected(self, tmp_path):
        frame = wire.encode_record(sample_record(1)[1])
        marks = [wire.epoch_mark(n) for n in (5, 5, 4)]
        path = log_of(tmp_path / "log", [marks[0], frame, marks[1], marks[2], frame])
        with pytest.raises(wire.WireError, match="^log epoch goes back from 5 to 4$"):
            wire.read_log(path)
        # a torn one is the tail of a write a crash cut short, and is dropped
        log_of(path, [marks[0], frame, marks[2][:-1]])
        assert per_record(wire.read_log(path)) == (5, [5], [frame])

    def test_epoch_mark_with_nonzero_padding_rejected(self, tmp_path):
        frame = wire.encode_record(sample_record(1)[1])
        for at in range(8, wire.FRAME_BYTES - 1):
            mark = bytearray(wire.epoch_mark(2))
            mark[at] = 1
            path = log_of(tmp_path / "log", [frame, bytes(mark), frame])
            with pytest.raises(wire.WireError, match="^log epoch mark with non-zero padding$"):
                wire.read_log(path)

    @pytest.mark.parametrize("tag", [len(wire.Tag), 0x80, 0xFE])
    def test_unit_of_unknown_tag_rejected(self, tmp_path, tag):
        frame = wire.encode_record(sample_record(1)[1])
        path = log_of(tmp_path / "log", [frame, wire.epoch_mark(1), frame[:-1] + bytes([tag])])
        with pytest.raises(wire.WireError, match=f"^unknown record tag {tag}$"):
            wire.read_log(path)

    def test_torn_epoch_line_dropped(self, tmp_path):
        path = tmp_path / "log"
        frame = wire.encode_record(sample_record(1)[1])
        for cut in range(1, wire.FRAME_BYTES):
            log_of(path, [wire.epoch_mark(3), frame, wire.epoch_mark(7)[:cut]])
            assert per_record(wire.read_log(path)) == (3, [3], [frame])

    @pytest.mark.parametrize("torn", [40, 0], ids=["cut", "kept"])
    def test_mending_a_torn_tail_reads_only_the_end(self, tmp_path, torn):
        """Mending the torn tail of an 8 MB log holds a bounded step of
        it, not the log: the peak stays under 1 MB either way."""
        frame = wire.encode_record(sample_record(1)[1])
        whole = frame * (8 * 2**20 // len(frame) + 1)
        path = tmp_path / "log"
        path.write_bytes(whole + frame[:torn])
        with open(path, "ab") as handle:
            tracemalloc.start()
            try:
                wire.end_log_at_unit(handle)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2**20
        assert path.read_bytes() == whole


class TestSocketApi:
    @pytest.fixture()
    def served(self):
        ha = HealthAuthority(random.Random(0))
        server = TracingServer(ha)
        wire_server = wire.WireServer(server)
        wire_server.start()
        host, port = wire_server.address
        client = wire.WireClient(host, port)
        yield client, server, ha
        client.close()
        wire_server.shutdown()

    def test_upload_and_fetch_over_socket(self, served):
        client, server, ha = served
        secret, record = sample_record(7)
        tan = ha.issue_tan("u", 0)
        accepted, _ = client.upload_infected(tan.value, [record])
        assert accepted
        feed = client.fetch_feed(0, shuffle_seed=1)
        assert feed.frames == [wire.encode_record(record)]
        assert client.stats()["records_published"] == 1

    def test_invalid_tan_over_socket(self, served):
        client, _, _ = served
        _, record = sample_record(8)
        accepted, reason = client.upload_infected("WRONGTAN", [record])
        assert not accepted
        assert reason == "invalid_tan"

    def test_second_level_and_superspreader_over_socket(self, served):
        client, server, ha = served
        pairs = [sample_record(i) for i in range(10, 13)]
        tan = ha.issue_tan("u", 0)
        accepted, _ = client.upload_infected(tan.value, [r for _, r in pairs])
        assert accepted
        own = [sample_record(20)[1]]
        accepted, _ = client.upload_second_level(pairs[0][0], own)
        assert accepted
        accepted, _ = client.upload_superspreader([s for s, _ in pairs], [])
        assert accepted
        accepted, reason = client.upload_superspreader([pairs[0][0]] * 3, [])
        assert not accepted and reason == "insufficient_valid_proofs"

    def test_malformed_request_reported(self, served):
        client, _, _ = served
        response = client._round_trip(b"\x63bogus")
        assert response[0] == wire.STATUS_MALFORMED

    def test_fetch_feed_determinism_over_socket(self, served):
        client, server, ha = served
        records = [sample_record(i)[1] for i in range(30, 60)]
        tan = ha.issue_tan("u", 0)
        client.upload_infected(tan.value, records)
        a = client.fetch_feed(0, shuffle_seed=42)
        b = client.fetch_feed(0, shuffle_seed=42)
        assert a.frames == b.frames

    def test_fetched_feed_matched_without_record_objects(self, served, monkeypatch):
        """A feed fetched over a socket is matched from its frames: with
        record objects refused, the notifications are those of matching
        the decoded records, planted hits of every tag included."""
        client, _, ha = served
        rng = random.Random(90)
        now = 1_600_000_000

        def record(secret, t):
            return wire.TokenUploadRecord(
                crypto.token_hash(secret), crypto.encrypt_metadata(secret, t)
            )

        secrets = [rng.randbytes(32) for _ in range(9)]
        # secrets 0-2 are uploaded as infected and prove the later uploads;
        # 3-4 go up second-level, 5-6 superspreader, 7-8 are never hit
        uploads = [
            (client.upload_infected, ha.issue_tan("u", 0).value, secrets[:3]),
            (client.upload_second_level, secrets[0], secrets[3:5]),
            (client.upload_superspreader, secrets[:3], secrets[5:7]),
        ]
        for upload, credential, published in uploads:
            noise = [record(rng.randbytes(32), now) for _ in range(20)]
            assert upload(credential, [record(s, now + 5) for s in published] + noise)[0]
        tokens = [
            EncounterToken(secret, now + 10 * (i % 2), 600, -55.0, 0)
            for i, secret in enumerate(secrets)
        ]
        # a token out of the time window of its published record
        tokens.append(EncounterToken(secrets[2], now + 600, 600, -55.0, 0))
        store = TokenStore()
        for i, token in enumerate(tokens):
            store.add(0, i.to_bytes(16, "big"), token)

        def refuse(*args, **kwargs):
            raise AssertionError("a record object was built on the feed path")

        monkeypatch.setattr(wire, "TokenUploadRecord", refuse)
        monkeypatch.setattr(exposure, "TokenUploadRecord", refuse)
        feed = client.fetch_feed(0, shuffle_seed=3)
        found = exposure.match_feed(store, feed, 30)
        monkeypatch.undo()
        records = [wire.decode_record(frame)[0] for frame in feed.frames]
        assert len(records) == 3 * 20 + 7
        assert found == match_oracle.match_feed_records(tokens, records, 30)
        assert sorted((n.level.value, n.superspreader_flag) for n in found) == [
            ("direct", False)] * 3 + [("direct", True)] * 2 + [("second_level", False)] * 2

    def test_tan_issuance_over_socket(self, served):
        # the out-of-band health-authority channel
        client, _, _ = served
        tan = client.issue_tan("patient-7")
        _, record = sample_record(70)
        accepted, _ = client.upload_infected(tan, [record])
        assert accepted
        accepted, reason = client.upload_infected(tan, [record])
        assert not accepted and reason == "invalid_tan"


class TestRequestCap:
    def test_largest_request_fits_the_cap(self):
        _, record = sample_record(80)
        assert len(record.ciphertext) == 36
        largest = wire.encode_upload_superspreader(
            [bytes(wire.PROOF_BYTES)] * 255, [record] * wire.MAX_UPLOAD_RECORDS
        )
        assert len(largest) == wire.MAX_REQUEST_BYTES
        # the paper's upload of 14 days x 20 encounters is well inside it
        assert wire.MAX_UPLOAD_RECORDS >= 14 * 20

    @pytest.mark.parametrize("length", [wire.MAX_REQUEST_BYTES + 1, 0xFFFFFFFF])
    def test_longer_prefix_closes_connection_unread(self, length):
        server = TracingServer(HealthAuthority(random.Random(0)))
        wire_server = wire.WireServer(server)
        wire_server.start()
        try:
            with socket.create_connection(wire_server.address, timeout=10) as sock:
                # only the header: a server waiting for the body would time out
                sock.sendall(length.to_bytes(4, "big"))
                assert sock.recv(1) == b""
            with wire.WireClient(*wire_server.address) as client:
                assert client.stats()["records_published"] == 0
        finally:
            wire_server.shutdown()


class TestConnectionBound:
    def test_connection_over_the_bound_closed_unread(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 2)
        wire_server = wire.WireServer(TracingServer(HealthAuthority(random.Random(0))))
        wire_server.start()
        first = wire.WireClient(*wire_server.address)
        try:
            with wire.WireClient(*wire_server.address) as second:
                # a round trip on each: both handlers hold their slots
                assert first.stats()["records_published"] == 0
                assert second.stats()["records_published"] == 0
                with socket.create_connection(wire_server.address, timeout=10) as third:
                    assert third.recv(1) == b""
                first.close()
                # the first handler gives its slot back once it sees the close
                deadline = time.monotonic() + 10
                while True:
                    try:
                        with wire.WireClient(*wire_server.address) as again:
                            assert again.stats()["records_published"] == 0
                        break
                    except (wire.WireError, OSError):
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                assert second.stats()["records_published"] == 0
        finally:
            first.close()
            wire_server.shutdown()

    def test_silent_connections_give_their_slots_back(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 3)
        monkeypatch.setattr(wire, "IDLE_SECONDS", 0.5)
        wire_server = wire.WireServer(TracingServer(HealthAuthority(random.Random(0))))
        wire_server.start()
        silent = [socket.create_connection(wire_server.address, timeout=10) for _ in range(3)]
        try:
            # every slot is held by a client that sends nothing; once the
            # deadline passes, a fourth client is answered
            deadline = time.monotonic() + 10
            while True:
                try:
                    with wire.WireClient(*wire_server.address) as fourth:
                        assert fourth.stats()["records_published"] == 0
                    break
                except (wire.WireError, OSError):
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            # the server closed each silent connection
            assert [sock.recv(1) for sock in silent] == [b""] * 3
        finally:
            for sock in silent:
                sock.close()
            wire_server.shutdown()

    def test_trickling_connection_gives_its_slot_back(self, monkeypatch):
        """The deadline bounds a whole request: a client that sends a
        100-byte length prefix, then one byte every 0.3 s, never waits
        out a single read, and is closed all the same."""
        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 1)
        monkeypatch.setattr(wire, "IDLE_SECONDS", 0.5)
        wire_server = wire.WireServer(TracingServer(HealthAuthority(random.Random(0))))
        wire_server.start()
        trickler = socket.create_connection(wire_server.address, timeout=10)
        try:
            trickler.sendall((100).to_bytes(4, "big"))
            closed = False
            deadline = time.monotonic() + 10
            while True:
                time.sleep(0.3)
                try:
                    trickler.sendall(b"x")
                except OSError:
                    closed = True
                try:
                    with wire.WireClient(*wire_server.address) as next_client:
                        assert next_client.stats()["records_published"] == 0
                    break
                except (wire.WireError, OSError):
                    assert time.monotonic() < deadline
            # the server closed the trickling connection without an answer
            if not closed:
                try:
                    closed = trickler.recv(1) == b""
                except ConnectionResetError:
                    closed = True
            assert closed
        finally:
            trickler.close()
            wire_server.shutdown()


class TestUploadEncoding:
    def test_tan_over_255_bytes_refused(self):
        with pytest.raises(wire.WireError, match="^TAN of 256 bytes exceeds 255$"):
            wire.encode_upload_infected("T" * 256, [sample_record()[1]])
        assert wire.encode_upload_infected("T" * 255, [])[1] == 255

    def test_non_ascii_tan_refused(self):
        with pytest.raises(wire.WireError, match="^TAN is not ASCII$"):
            wire.encode_upload_infected("é", [sample_record()[1]])

    def test_over_255_proofs_refused(self):
        proofs = [bytes(wire.PROOF_BYTES)] * 256
        with pytest.raises(wire.WireError, match="^256 possession proofs exceed 255$"):
            wire.encode_upload_superspreader(proofs, [])
        assert wire.encode_upload_superspreader(proofs[:255], [])[1] == 255


class TestHandleRequest:
    def test_empty_body_malformed(self):
        ha = HealthAuthority(random.Random(0))
        server = TracingServer(ha)
        assert wire.handle_request(server, b"")[0] == wire.STATUS_MALFORMED

    def test_unknown_opcode_malformed(self):
        ha = HealthAuthority(random.Random(0))
        server = TracingServer(ha)
        assert wire.handle_request(server, b"\x2a")[0] == wire.STATUS_MALFORMED

    @given(
        st.one_of(
            st.binary(max_size=64),
            st.tuples(st.integers(0, 7), st.binary(max_size=300)).map(
                lambda parts: bytes([parts[0]]) + parts[1]
            ),
        )
    )
    @example(bytes([wire.OP_UPLOAD_INFECTED, 2]) + b"\xff\xfe" + wire.encode_records([]))
    def test_every_body_gets_a_status(self, body):
        server = TracingServer(HealthAuthority(random.Random(0)))
        response = wire.handle_request(server, body)
        assert response and response[0] in (
            wire.STATUS_ACCEPTED,
            wire.STATUS_REJECTED,
            wire.STATUS_MALFORMED,
        )


#: Secrets whose records the request sequences upload, a record each.
SEQUENCE_RECORDS = [sample_record(i) for i in range(6)]
STATUSES = (wire.STATUS_ACCEPTED, wire.STATUS_REJECTED, wire.STATUS_MALFORMED)
RANDOM_BODIES = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.integers(0, 7), st.binary(max_size=300)).map(
        lambda parts: bytes([parts[0]]) + parts[1]
    ),
)


class RequestSequence(RuleBasedStateMachine):
    """Any sequence of request bodies against one server whose TANs
    expire, on a clock the sequence moves: random bodies, uploads whole
    and truncated, fetches and TAN issues.  Every body gets a status
    byte and no exception escapes; the records published are those of
    the accepted uploads, a superspreader upload is accepted iff each of
    its proofs opens a held direct copy of its own, and the live TANs
    are never more than the TANs issued in the expiry window that ends
    at the last issue."""

    EXPIRY = 100
    tans = Bundle("tans")

    def __init__(self):
        super().__init__()
        self.server = TracingServer(HealthAuthority(random.Random(0), self.EXPIRY))
        self.now = 0
        #: value -> expiry of each TAN issued and neither used nor dropped
        self.live: dict[str, int] = {}
        self.issued: list[int] = []
        self.published = 0
        #: index into SEQUENCE_RECORDS -> direct copies held of that record
        self.direct: Counter[int] = Counter()

    def request(self, body: bytes) -> bytes:
        response = wire.handle_request(self.server, body, clock=lambda: self.now)
        assert response and response[0] in STATUSES
        return response

    def upload(self, body: bytes, count: int) -> bool:
        accepted = self.request(body)[0] == wire.STATUS_ACCEPTED
        self.published += count if accepted else 0
        return accepted

    @initialize(chosen=st.lists(st.integers(0, 5), max_size=6))
    def hold_direct_records(self, chosen):
        # held direct copies for the proofs of later uploads to open
        tan = self.issued_tan(self.request(bytes([wire.OP_ISSUE_TAN])))
        self.upload_infected(tan, chosen)

    @rule(seconds=st.sampled_from([1, EXPIRY - 1, EXPIRY, EXPIRY + 1]))
    def wait(self, seconds):
        self.now += seconds

    def issued_tan(self, response: bytes) -> str:
        """The TAN an issue answered with; the expired ones are gone."""
        assert response[0] == wire.STATUS_ACCEPTED
        self.live = {v: at for v, at in self.live.items() if at >= self.now}
        tan = response[1:].decode("ascii")
        self.live[tan] = self.now + self.EXPIRY
        self.issued.append(self.now)
        return tan

    @rule(target=tans, context=st.binary(max_size=8))
    def issue_tan(self, context):
        return self.issued_tan(self.request(bytes([wire.OP_ISSUE_TAN]) + context))

    @rule(body=RANDOM_BODIES)
    def random_body(self, body):
        # a drawn upload holds no live TAN and no proof of a held record,
        # so it publishes nothing
        response = self.request(body)
        if body[:1] == bytes([wire.OP_ISSUE_TAN]):
            self.issued_tan(response)

    @rule(tan=tans, chosen=st.lists(st.integers(0, 5), max_size=4))
    def upload_infected(self, tan, chosen):
        records = [SEQUENCE_RECORDS[i][1] for i in chosen]
        expected = bool(chosen) and self.live.get(tan, -1) >= self.now
        accepted = self.upload(wire.encode_upload_infected(tan, records), len(chosen))
        assert accepted == expected
        if accepted:
            del self.live[tan]
            self.direct.update(chosen)

    @rule(proof=st.integers(0, 5), chosen=st.lists(st.integers(0, 5), max_size=4))
    def upload_second_level(self, proof, chosen):
        records = [SEQUENCE_RECORDS[i][1] for i in chosen]
        body = wire.encode_upload_second_level(SEQUENCE_RECORDS[proof][0], records)
        assert self.upload(body, len(chosen)) == (proof in self.direct)

    @rule(data=st.data(), chosen=st.lists(st.integers(0, 5), max_size=4))
    def upload_superspreader(self, data, chosen):
        # proofs mostly of held records, a record the more often the more
        # copies of it are held
        held = st.sampled_from(sorted(self.direct.elements())) if self.direct else st.nothing()
        proofs = data.draw(st.lists(st.one_of(held, held, held, st.integers(0, 5)), max_size=5))
        records = [SEQUENCE_RECORDS[i][1] for i in chosen]
        body = wire.encode_upload_superspreader([SEQUENCE_RECORDS[i][0] for i in proofs], records)
        expected = len(proofs) >= 3 and all(
            n <= self.direct[i] for i, n in Counter(proofs).items()
        )
        assert self.upload(body, len(chosen)) == expected

    @rule(tan=tans, proof=st.integers(0, 5), second_level=st.booleans(), data=st.data())
    def truncated_upload(self, tan, proof, second_level, data):
        records = [SEQUENCE_RECORDS[i][1] for i in range(3)]
        body = (
            wire.encode_upload_second_level(SEQUENCE_RECORDS[proof][0], records)
            if second_level
            else wire.encode_upload_infected(tan, records)
        )
        cut = data.draw(st.integers(1, len(body) - 1))
        assert not self.upload(body[:cut], 3)

    @rule(since=st.sampled_from([0, 1, 2**32 - 1]), seed=st.integers(-(2**63), 2**63 - 1))
    def fetch(self, since, seed):
        feed = wire.read_feed(self.request(wire.encode_fetch_feed(since, seed)))
        assert len(feed.frames) == (self.published if since == 0 else 0)

    @invariant()
    def published_records_are_the_accepted(self):
        assert self.server.stats_snapshot()["records_published"] == self.published

    @invariant()
    def live_tans_bounded_by_the_expiry_window(self):
        live = self.server.authority._live
        assert list(live) == list(self.live)
        last = self.issued[-1] if self.issued else 0
        assert len(live) <= sum(at >= last - self.EXPIRY for at in self.issued)


TestRequestSequence = RequestSequence.TestCase
TestRequestSequence.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


class TestReadFeed:
    def feed_response(self, records, epoch=7):
        head = bytes([wire.STATUS_ACCEPTED]) + epoch.to_bytes(4, "big")
        return head + wire.encode_records(records)

    def test_reads_epoch_and_frames(self):
        records = [sample_record(i, tag)[1] for i, tag in enumerate(wire.Tag)]
        feed = wire.read_feed(self.feed_response(records))
        assert feed.feed_epoch == 7
        assert feed.frames == [wire.encode_record(r) for r in records]

    def test_reads_the_servers_response(self):
        server = TracingServer(HealthAuthority(random.Random(0)))
        tan = server.authority.issue_tan("u", 0).value
        records = [sample_record(i)[1] for i in range(3)]
        upload = wire.encode_upload_infected(tan, records)
        assert wire.handle_request(server, upload)[0] == wire.STATUS_ACCEPTED
        server.advance_epoch(2)
        response = wire.handle_request(server, wire.encode_fetch_feed(0, 5))
        feed = wire.read_feed(response)
        assert feed.feed_epoch == 2
        assert sorted(feed.frames) == sorted(wire.encode_record(r) for r in records)

    @pytest.mark.parametrize("status", [wire.STATUS_REJECTED, wire.STATUS_MALFORMED])
    def test_status_not_accepted_refused(self, status):
        response = bytes([status]) + self.feed_response([sample_record()[1]])[1:]
        with pytest.raises(wire.WireError):
            wire.read_feed(response)

    def test_empty_response_refused(self):
        with pytest.raises(wire.WireError):
            wire.read_feed(b"")

    @pytest.mark.parametrize("length", range(1, 9))
    def test_truncated_head_refused(self, length):
        # status, 4-byte epoch and 4-byte count: any shorter head is cut
        with pytest.raises(wire.WireError, match="truncated"):
            wire.read_feed(self.feed_response([])[:length])

    def test_truncated_record_refused(self):
        response = self.feed_response([sample_record()[1]])
        with pytest.raises(wire.WireError, match="truncated"):
            wire.read_feed(response[:-1])

    def test_trailing_bytes_refused(self):
        response = self.feed_response([sample_record()[1]])
        with pytest.raises(wire.WireError, match="trailing"):
            wire.read_feed(response + b"\x00")

    def frames_response(self, frames, count=None):
        """A feed response holding the frames as given, under a count
        that defaults to theirs."""
        count = len(frames) if count is None else count
        head = bytes([wire.STATUS_ACCEPTED]) + (7).to_bytes(4, "big") + count.to_bytes(4, "big")
        return head + b"".join(frames)

    def three_frames(self):
        return [wire.encode_record(sample_record(i)[1]) for i in range(3)]

    def test_unknown_tag_mid_feed_refused(self):
        frames = self.three_frames()
        frames[1] = frames[1][:-1] + bytes([7])
        with pytest.raises(wire.WireError, match="^unknown record tag 7$"):
            wire.read_feed(self.frames_response(frames))

    def test_length_past_the_end_mid_feed_refused(self):
        frames = self.three_frames()
        frames[1] = frames[1][:16] + (1000).to_bytes(4, "big") + frames[1][20:]
        with pytest.raises(wire.WireError, match="^record ciphertext of 1000 bytes, not 36$"):
            wire.read_feed(self.frames_response(frames))

    @pytest.mark.parametrize("count", [4, 0xFFFFFFFF])
    def test_count_above_the_frames_refused(self, count):
        with pytest.raises(wire.WireError, match="^record frame truncated$"):
            wire.read_feed(self.frames_response(self.three_frames(), count))

    @settings(max_examples=100, deadline=None)
    @given(
        token_secrets=st.lists(st.integers(0, 3), max_size=8),
        record_specs=st.lists(
            st.tuples(
                st.integers(0, 4),  # secret of the hash; 4 is in no token
                # sealed under that secret, under another one, or any bytes
                st.sampled_from(["sealed", "forged", "raw"]),
                st.sampled_from([-31, 0, 30]),  # remote time offset
                st.binary(min_size=36, max_size=36),  # the raw ciphertext
                st.sampled_from(list(wire.Tag)),
            ),
            max_size=12,
        ),
        draws=st.randoms(use_true_random=False),
    )
    def test_matched_in_place_as_the_record_oracle(self, token_secrets, record_specs, draws):
        """Matching a response's frames in place, sealed, forged or raw,
        gives the record-based oracle's notifications on the decoded
        records, and its records view gives those records."""
        secrets = [random.Random(i).randbytes(32) for i in range(5)]
        now = 1_600_000_000
        tokens = [
            EncounterToken(secrets[s], now + 10 * i, 600, -55.0, 0)
            for i, s in enumerate(token_secrets)
        ]
        store = TokenStore()
        for i, token in enumerate(tokens):
            store.add(0, i.to_bytes(16, "big"), token)
        records = []
        for s, kind, delta, raw, tag in record_specs:
            if kind == "raw":
                ciphertext = raw
            else:
                key = secrets[(s + 1) % 5] if kind == "forged" else secrets[s]
                ciphertext = crypto.encrypt_metadata(key, now + 10 * s + delta)
            records.append(wire.TokenUploadRecord(crypto.token_hash(secrets[s]), ciphertext, tag))
        draws.shuffle(records)
        response = self.feed_response(records)
        decoded, _ = wire.decode_records(response, 5)
        feed = wire.read_feed(response)
        assert exposure.match_feed(store, feed, 30) == match_oracle.match_feed_records(
            tokens, decoded, 30
        )
        assert list(feed.records) == decoded
        assert len(feed.records) == len(records)

    def test_matching_allocates_little_beside_the_response(self):
        """Checking and matching a 50,000-frame response allocates less
        than a tenth of the response's size on top of it: no frame or
        record object per frame is held."""
        rng = random.Random(50)
        now = 1_600_000_000
        secrets = [rng.randbytes(32) for _ in range(200)]
        records = [
            wire.TokenUploadRecord(rng.randbytes(16), rng.randbytes(36)) for _ in range(50_000)
        ]
        for i, secret in enumerate(secrets[:20]):
            records[rng.randrange(len(records))] = wire.TokenUploadRecord(
                crypto.token_hash(secret), crypto.encrypt_metadata(secret, now + i)
            )
        response = self.feed_response(records)
        del records
        store = TokenStore()
        for i, secret in enumerate(secrets):
            store.add(0, i.to_bytes(16, "big"), EncounterToken(secret, now + i, 600, -55.0, 0))
        tracemalloc.start()
        try:
            feed = wire.read_feed(response)
            found = exposure.match_feed(store, feed, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == 20
        assert peak < len(response) / 10


class TestReceive:
    class Trickle:
        """A socket that hands out its data a few bytes per ``recv``, as
        a socket with a timeout may."""

        def __init__(self, data, step):
            self.data, self.step, self.flags = data, step, []

        def recv(self, n, flags=0):
            self.flags.append(flags)
            chunk, self.data = self.data[: min(n, self.step)], self.data[min(n, self.step):]
            return chunk

    def test_message_received_whole_and_short_reads_joined(self):
        for step in (1, 3, 1000):
            sock = self.Trickle((10).to_bytes(4, "big") + bytes(range(10)) + b"next", step)
            assert wire._recv_message(sock) == bytes(range(10))
            assert set(sock.flags) == {socket.MSG_WAITALL}

    def test_close_mid_message_refused(self):
        sock = self.Trickle((10).to_bytes(4, "big") + bytes(5), 1000)
        with pytest.raises(wire.WireError, match="closed mid-message"):
            wire._recv_message(sock)

    def test_message_larger_than_the_socket_buffer_received(self):
        left, right = socket.socketpair()
        body = bytes(range(256)) * 4096
        sender = threading.Thread(target=wire._send_message, args=(left, body))
        sender.start()
        try:
            received = wire._recv_message(right)
        finally:
            sender.join()
            left.close()
            right.close()
        assert received == body


class TestSend:
    class Sink:
        """A socket that takes at most ``step`` bytes per ``sendmsg`` and
        has no other way to send."""

        def __init__(self, step):
            self.step, self.data, self.calls = step, bytearray(), 0

        def sendmsg(self, buffers):
            self.calls += 1
            left = self.step
            for buffer in buffers:
                taken = bytes(buffer[:left])
                self.data += taken
                left -= len(taken)
            return self.step - left

    def test_prefix_and_body_go_out_in_one_call(self):
        sink = self.Sink(1 << 20)
        wire._send_message(sink, b"abc")
        assert sink.calls == 1
        assert sink.data == (3).to_bytes(4, "big") + b"abc"

    @pytest.mark.parametrize("step", [1, 3, 4, 5, 1000])
    def test_short_sends_resumed(self, step):
        for body in (b"", bytes(range(256)) * 4):
            sink = self.Sink(step)
            wire._send_message(sink, body)
            assert sink.data == len(body).to_bytes(4, "big") + body
            assert sink.calls == max(1, -(-(4 + len(body)) // step))


def make_frame(digest, ciphertext, tag=0):
    return digest + len(ciphertext).to_bytes(4, "big") + ciphertext + bytes([tag])


@st.composite
def frame_lists(draw, max_size=8):
    """Valid frames: a 36-byte ciphertext and a known tag each."""
    specs = st.tuples(
        st.binary(min_size=16, max_size=16), st.binary(min_size=36, max_size=36), st.integers(0, 2)
    )
    return [make_frame(*spec) for spec in draw(st.lists(specs, max_size=max_size))]


@st.composite
def damaged_lists(draw):
    """A record list's count and frames, the frames joined, after up to
    two of: a length field or a tag byte set at any frame, a cut at any
    byte, bytes added after the list, a count that is off."""
    frames = draw(frame_lists())
    count, starts = len(frames), []
    body = bytearray()
    for frame in frames:
        starts.append(len(body))
        body += frame
    for kind in draw(st.lists(st.sampled_from(["length", "tag", "cut", "trail", "count"]), max_size=2)):
        if kind in ("length", "tag") and starts:
            at = draw(st.sampled_from(starts))
            if kind == "length":
                field = int.from_bytes(body[at + 16 : at + 20], "big")
                value = draw(st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([field - 1, field + 1])))
                body[at + 16 : at + 20] = (value % 2**32).to_bytes(4, "big")
            else:
                tag_at = at + 20 + int.from_bytes(body[at + 16 : at + 20], "big")
                if tag_at < len(body):
                    body[tag_at] = draw(st.integers(0, 255))
        elif kind == "cut":
            del body[draw(st.integers(0, len(body))) :]
        elif kind == "trail":
            body += draw(st.binary(min_size=1, max_size=60))
        elif kind == "count":
            count = draw(st.sampled_from([count + 1, count + 2, max(count - 1, 0), 2**32 - 1]))
    return min(count, 2**32 - 1), bytes(body)


def outcome(read, *args):
    """What a reader gives: ("ok", its result) or ("error", the message)."""
    try:
        return "ok", read(*args)
    except wire.WireError as exc:
        return "error", str(exc)


def oracle_hits(frames, hashes):
    """Each frame whose hash is in ``hashes``: its hash, start and tag
    offset in the joined frames."""
    hits, start = [], 0
    for frame in frames:
        if frame[:16] in hashes:
            hits.append((frame[:16], start, start + len(frame) - 1))
        start += len(frame)
    return hits


def feed_outcome(response):
    feed = wire.read_feed(response)
    assert bytes(feed.buffer) == response[9:]
    assert len(feed.records) == feed.count
    return feed.feed_epoch, feed.frames


#: Log units of each kind.
LOG_UNIT_KINDS = ["record", "record", "record", "epoch", "bad padding", "unknown tag",
                  "other width", "junk"]


@st.composite
def log_files(draw):
    """A log's bytes: frames, epoch marks going up or back, and, in some
    logs, marks with non-zero padding, units of an unknown tag or another
    length field and junk units; then perhaps cut at any byte, as a crash
    leaves it."""
    frames = draw(frame_lists(max_size=12))
    kinds = LOG_UNIT_KINDS if draw(st.booleans()) else ["record", "record", "epoch"]
    units, epoch = [], 0
    for frame in frames:
        kind = draw(st.sampled_from(kinds))
        if kind == "epoch":
            epoch = draw(st.sampled_from([epoch, epoch + 1, epoch + 5, max(epoch - 1, 0)]))
            units.append(wire.epoch_mark(epoch))
        elif kind == "bad padding":
            mark = bytearray(wire.epoch_mark(epoch))
            mark[draw(st.integers(8, wire.FRAME_BYTES - 2))] = draw(st.integers(1, 255))
            units.append(bytes(mark))
        elif kind == "unknown tag":
            frame = frame[:-1] + bytes([draw(st.integers(len(wire.Tag), 254))])
        elif kind == "other width":
            length = draw(st.integers(0, 2**32 - 1).filter(lambda n: n != wire.CIPHERTEXT_BYTES))
            frame = frame[:16] + length.to_bytes(4, "big") + frame[20:]
        elif kind == "junk":
            frame = draw(st.binary(min_size=wire.FRAME_BYTES, max_size=wire.FRAME_BYTES))
        units.append(frame)
    data = b"".join(units)
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


def read_log_both(data, block):
    """``wire.read_log`` with the given block size, and the oracle, on a
    log file holding ``data``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "server.log")
        with open(path, "wb") as handle:
            handle.write(data)
        saved, wire._LOG_BLOCK = wire._LOG_BLOCK, block
        try:
            got = outcome(lambda log: per_record(wire.read_log(log)), path)
        finally:
            wire._LOG_BLOCK = saved
        return got, outcome(wire_oracle.read_log, path)


#: Frame counts around the batch ``wire._each_frame`` cuts per ``struct``
#: call: none, one, one short of a batch, a batch, one past it, and one
#: past two.
BATCH_COUNTS = [0, 1, wire._BATCH - 1, wire._BATCH, wire._BATCH + 1, 2 * wire._BATCH + 1]


class TestBulkCheck:
    """A record list is checked at once, and walked frame by frame only
    when that check fails: either way every reader gives what the
    per-frame walk gives, frames and end offset or error message."""

    @settings(max_examples=300, deadline=None)
    @given(damaged_lists(), st.binary(max_size=3), st.sampled_from([None, 0, 2, 1024]))
    def test_read_frames_as_the_walk(self, damaged, prefix, most):
        count, body = damaged
        buf = prefix + count.to_bytes(4, "big") + body
        expected = outcome(wire_oracle.read_frames, buf, len(prefix), most)
        assert outcome(wire.read_frames, buf, len(prefix), most) == expected

    @settings(max_examples=300, deadline=None)
    @given(damaged_lists(), st.integers(0, 2**32 - 1))
    def test_read_feed_as_the_walk(self, damaged, epoch):
        count, body = damaged
        response = bytes([wire.STATUS_ACCEPTED]) + wire._FEED_HEAD.pack(epoch, count) + body
        got = outcome(feed_outcome, response)
        assert got == outcome(wire_oracle.read_feed, response)
        if got[0] == "ok":
            feed, frames = wire.read_feed(response), got[1][1]
            hashes = {frame[:16] for frame in frames[::2]}
            assert list(feed.hits(hashes)) == oracle_hits(frames, hashes)

    @settings(max_examples=200, deadline=None)
    @given(frame_lists(), st.integers(0, 2**32 - 1))
    def test_from_frames_as_joined(self, frames, epoch):
        feed = wire.PublishedFeed.from_frames(frames, epoch)
        assert bytes(feed.buffer) == b"".join(frames)
        assert (feed.count, feed.feed_epoch, feed.frames) == (len(frames), epoch, frames)
        hashes = {frame[:16] for frame in frames[1::2]}
        assert list(feed.hits(hashes)) == oracle_hits(frames, hashes)
        assert [wire.encode_record(r) for r in feed.records] == frames

    @settings(max_examples=200, deadline=None)
    @given(frame_lists(), st.binary(min_size=1, max_size=2 * wire.FRAME_BYTES), st.data())
    @example(frames=[make_frame(bytes(16), bytes(36))], extra=b"x", data=None)
    def test_from_frames_refuses_bytes_past_the_frames(self, frames, extra, data):
        """Bytes added to any frame, or as a frame of their own, are
        refused at construction; after whole frames, as not frames."""
        if len(extra) % wire.FRAME_BYTES == 0:
            extra = extra[1:] or b"x"
        at = len(frames) - 1 if data is None else data.draw(st.integers(0, len(frames)))
        past_the_frames = at == len(frames) - 1
        grown = frames[at] + extra if at < len(frames) else extra
        frames = frames[:at] + [grown] + frames[at + 1 :]
        with pytest.raises(wire.WireError) as refused:
            wire.PublishedFeed.from_frames(frames, 0)
        if past_the_frames:
            size = len(frames) * wire.FRAME_BYTES + len(extra)
            assert str(refused.value) == f"{size} bytes are not {len(frames)} frames"

    @settings(max_examples=200, deadline=None)
    @given(frame_lists(), st.integers(1, wire.FRAME_BYTES - 1), st.data())
    @example(
        frames=[make_frame(bytes(16), bytes(36)), make_frame(b"\x01" * 16, bytes(36))],
        moved=1, data=None,
    )
    def test_from_frames_refuses_pieces_that_are_not_frames(self, frames, moved, data):
        """Bytes moved from the end of one frame to the start of the next
        leave the joined frames whole, and are still refused."""
        if len(frames) < 2:
            frames = frames * 2 or [make_frame(bytes(16), bytes(36))] * 2
        at = 0 if data is None else data.draw(st.integers(0, len(frames) - 2))
        cut = wire.FRAME_BYTES - moved
        pieces = [*frames[:at], frames[at][:cut], frames[at][cut:] + frames[at + 1], *frames[at + 2 :]]
        with pytest.raises(wire.WireError, match="is not one frame"):
            wire.PublishedFeed.from_frames(pieces, 0)

    @settings(max_examples=300, deadline=None)
    @given(log_files(), st.sampled_from([7, 64, 1 << 22]))
    def test_read_log_as_unit_by_unit(self, data, block):
        got, expected = read_log_both(data, block)
        assert got == expected

    @pytest.mark.parametrize("block", [7, 1 << 22])
    def test_every_torn_tail_as_line_by_line(self, block, tmp_path):
        """Each cut of a log with epoch marks between runs of records
        replays as exactly the whole units before the cut, as the
        unit-by-unit walk does; after the cut tail is mended and one
        unit appended, replay gives those units and the appended one."""
        rng = random.Random(54)
        units, entries = [wire.epoch_mark(2)], [(2, None)]
        for epoch in (2, 5, 12):
            if epoch != 2:
                units.append(wire.epoch_mark(epoch))
                entries.append((epoch, None))
            for _ in range(3):
                units.append(make_frame(rng.randbytes(16), rng.randbytes(36), rng.randrange(3)))
                entries.append((epoch, units[-1]))
        data = b"".join(units)
        extra = make_frame(rng.randbytes(16), rng.randbytes(36))
        log = tmp_path / "server.log"
        for cut in range(len(data) + 1):
            whole = entries[: cut // wire.FRAME_BYTES]
            epoch = max((epoch for epoch, frame in whole if frame is None), default=0)
            expected = (
                epoch,
                [epoch for epoch, frame in whole if frame is not None],
                [frame for _, frame in whole if frame is not None],
            )
            got = read_log_both(data[:cut], block)
            assert got == (("ok", expected),) * 2, cut
            log.write_bytes(data[:cut])
            wire.append_log(log, [extra])
            replayed = per_record(wire.read_log(log))
            assert replayed == (epoch, expected[1] + [epoch], expected[2] + [extra]), cut

    @pytest.mark.parametrize("block", [7, 1 << 22])
    def test_bad_frame_among_whole_record_lines_refused(self, block):
        """A 57-byte frame with another length field or an unknown tag,
        among frames and epoch marks, raises its error."""
        rng = random.Random(56)
        frames = [make_frame(rng.randbytes(16), rng.randbytes(36)) for _ in range(5)]
        good = frames[2]
        bad_frames = {
            "record ciphertext of 35 bytes, not 36": good[:16] + bytes([0, 0, 0, 35]) + good[20:],
            "unknown record tag 7": good[:-1] + bytes([7]),
        }
        for message, bad in bad_frames.items():
            units = [frames[0], wire.epoch_mark(1), frames[1], bad, *frames[3:]]
            got, expected = read_log_both(b"".join(units), block)
            assert got == expected == ("error", message)

    def equal_width_frames(self, n):
        rng = random.Random(55)
        return [make_frame(rng.randbytes(16), rng.randbytes(36), i % 3) for i in range(n)]

    def test_equal_width_list_checked_without_a_walk(self, monkeypatch, tmp_path):
        frames = self.equal_width_frames(10_000)
        body = len(frames).to_bytes(4, "big") + b"".join(frames)
        response = bytes([wire.STATUS_ACCEPTED]) + (3).to_bytes(4, "big") + body
        log = tmp_path / "server.log"
        log.write_bytes(b"".join(frames))
        calls = []
        check = wire._check_frame
        monkeypatch.setattr(
            wire, "_check_frame", lambda buf, offset=0: calls.append(offset) or check(buf, offset)
        )
        readers = {
            "read_frames": lambda: wire.read_frames(body)[0],
            "read_feed": lambda: wire.read_feed(response).frames,
            "from_frames": lambda: wire.PublishedFeed.from_frames(frames, 3).frames,
            "read_log": lambda: wire.read_log(log)[2],
        }
        for name, read in readers.items():
            calls.clear()
            assert read() == frames, name
            assert len(calls) <= 2, name

    @pytest.mark.parametrize("count", BATCH_COUNTS)
    def test_lists_around_a_batch_as_the_walk(self, count):
        """Lists of no frame, one, and one short of, at and one past one
        or two ``struct`` batches are cut and scanned as the walk does."""
        frames = self.equal_width_frames(count)
        body = count.to_bytes(4, "big") + b"".join(frames)
        read = ("ok", (frames, len(body)))
        assert outcome(wire.read_frames, body) == outcome(wire_oracle.read_frames, body) == read
        response = bytes([wire.STATUS_ACCEPTED]) + wire._FEED_HEAD.pack(7, count) + body[4:]
        fed = ("ok", (7, frames))
        assert outcome(feed_outcome, response) == outcome(wire_oracle.read_feed, response) == fed
        hashes = {frame[:16] for frame in frames[::3] + frames[-1:]}
        joined = wire.PublishedFeed.from_frames(frames, 7)
        assert joined.frames == frames
        for feed in (wire.read_feed(response), joined):
            assert list(feed.hits(hashes)) == oracle_hits(frames, hashes)

    @pytest.mark.parametrize("count", BATCH_COUNTS)
    @pytest.mark.parametrize(
        "block", [(wire._BATCH + 300) * wire.FRAME_BYTES, 3 * wire._BATCH // 2 * wire.FRAME_BYTES + 11]
    )
    def test_log_around_a_batch_as_unit_by_unit(self, count, block):
        """A log whose epoch marks fall inside a batch, read in blocks of
        a unit count that is not a multiple of the batch (the second
        with a partial unit at each block's end), replays as the walk."""
        frames = self.equal_width_frames(count)
        first, second = count // 3, 2 * count // 3
        units = [*frames[:first], wire.epoch_mark(2), *frames[first:second],
                 wire.epoch_mark(5), *frames[second:]]
        got, expected = read_log_both(b"".join(units), block)
        epochs = [0] * first + [2] * (second - first) + [5] * (count - second)
        assert got == expected == ("ok", (5, epochs, frames))

    @pytest.mark.parametrize("at", [wire._BATCH + 1, 2 * wire._BATCH])
    def test_bad_frame_past_the_first_batch_refused(self, at):
        """One bad frame in the second batch or in the tail after two
        batches raises its error from every reader, as the walk does."""
        frames = self.equal_width_frames(2 * wire._BATCH + 1)
        good = frames[at]
        bad_frames = {
            "record ciphertext of 35 bytes, not 36": good[:16] + bytes([0, 0, 0, 35]) + good[20:],
            "unknown record tag 7": good[:-1] + bytes([7]),
        }
        for message, bad in bad_frames.items():
            damaged = frames[:at] + [bad] + frames[at + 1 :]
            body = len(damaged).to_bytes(4, "big") + b"".join(damaged)
            response = bytes([wire.STATUS_ACCEPTED]) + wire._FEED_HEAD.pack(0, len(damaged)) + body[4:]
            refused = ("error", message)
            assert outcome(wire.read_frames, body) == outcome(wire_oracle.read_frames, body) == refused
            assert outcome(feed_outcome, response) == outcome(wire_oracle.read_feed, response) == refused
            assert outcome(wire.PublishedFeed.from_frames, damaged, 0) == refused
            units = [wire.epoch_mark(1), *damaged[:10], wire.epoch_mark(3), *damaged[10:]]
            got, expected = read_log_both(b"".join(units), (wire._BATCH + 300) * wire.FRAME_BYTES)
            assert got == expected == refused

    @pytest.mark.parametrize("reader", ["read_frames", "read_feed"])
    def test_huge_count_refused_without_a_count_sized_allocation(self, reader):
        frames = self.equal_width_frames(3)
        body = (2**32 - 1).to_bytes(4, "big") + b"".join(frames)
        read = {
            "read_frames": lambda: wire.read_frames(body),
            "read_feed": lambda: wire.read_feed(bytes([wire.STATUS_ACCEPTED, 0, 0, 0, 0]) + body),
        }[reader]
        tracemalloc.start()
        try:
            with pytest.raises(wire.WireError, match="^record frame truncated$"):
                read()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


@st.composite
def lists_with_another_width(draw):
    """Valid records, one of which, at any position, has a ciphertext of
    0 to 300 bytes but not 36; and that length."""
    records = draw(st.lists(arbitrary_records, min_size=1, max_size=6))
    at = draw(st.integers(0, len(records) - 1))
    length = draw(st.integers(0, 300).filter(lambda n: n != wire.CIPHERTEXT_BYTES))
    ciphertext = draw(st.binary(min_size=length, max_size=length))
    records[at] = wire.TokenUploadRecord(records[at].hash, ciphertext, records[at].tag)
    return records, length


def held_state(server):
    """The server's held frames, each record's epoch and its stats."""
    epochs = record_epochs(server._boundaries, len(server._records))
    return list(server._records), epochs, server.stats_snapshot()


class TestOneRecordWidth:
    """A ciphertext that is not 36 bytes is refused wherever a record
    enters: every upload opcode, a fetched feed, a log replay and
    ``tracecorona ingest``."""

    @settings(max_examples=100, deadline=None)
    @given(lists_with_another_width())
    def test_refused_at_every_entry(self, case):
        records, length = case
        message = f"record ciphertext of {length} bytes, not 36"
        with tempfile.TemporaryDirectory() as directory:
            log = pathlib.Path(directory, "server.log")
            server = TracingServer(HealthAuthority(random.Random(0)), log_path=log)
            # published records the second-level and superspreader proofs open
            secrets, published = zip(*(sample_record(i) for i in range(3)))
            tan = server.authority.issue_tan("u", 0).value
            assert server.upload_infected(tan, [wire.encode_record(r) for r in published]).accepted
            unspent = server.authority.issue_tan("u", 0).value
            bodies = [
                wire.encode_upload_infected(unspent, records),
                wire.encode_upload_second_level(secrets[0], records),
                wire.encode_upload_superspreader(list(secrets), records),
            ]
            state = held_state(server)
            logged = log.read_bytes()
            with mock.patch.object(os, "fsync") as fsync:
                for body in bodies:
                    response = wire.handle_request(server, body)
                    assert response == bytes([wire.STATUS_MALFORMED]) + message.encode()
            fsync.assert_not_called()
            assert held_state(server) == state
            assert log.read_bytes() == logged
            assert server.authority.verify_tan(unspent)

            head = bytes([wire.STATUS_ACCEPTED]) + (3).to_bytes(4, "big")
            response = head + wire.encode_records(records)
            with pytest.raises(wire.WireError, match=f"^{message}$"):
                wire.read_feed(response)

            # a log unit is 57 bytes: the other width's record keeps its
            # head and tag, its ciphertext cut or padded to fill the unit
            units = pathlib.Path(directory, "records.log")
            units.write_bytes(b"".join(
                (wire.log_record_line(r) + bytes(wire.FRAME_BYTES))[: wire.FRAME_BYTES - 1]
                + bytes([r.tag])
                for r in records
            ))
            with pytest.raises(wire.WireError, match=f"^{message}$"):
                wire.read_log(units)
            fresh = pathlib.Path(directory, "fresh.log")
            ingest = ["ingest", "--log", str(fresh), "--input", str(units)]
            assert cli.main(ingest) == cli.EXIT_CONFIG
            assert not fresh.exists()
