"""Wire formats: record frames, log lines, socket round trips."""

import base64
import random
import socket

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tracecorona import crypto, wire
from tracecorona.authority import HealthAuthority
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

    def test_hash_length_enforced(self):
        # struct's "16s" would pad or cut a 15- or 17-byte hash without complaint
        for size in (5, 15, 17):
            with pytest.raises(ValueError):
                wire.TokenUploadRecord(hash=bytes(size), ciphertext=b"x")


arbitrary_records = st.builds(
    wire.TokenUploadRecord,
    hash=st.binary(min_size=16, max_size=16),
    ciphertext=st.binary(min_size=1, max_size=300),
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


class TestLog:
    def test_log_line_is_base64_of_frame(self):
        _, record = sample_record(5)
        line = wire.log_record_line(record)
        assert base64.b64decode(line) == wire.encode_record(record)

    def test_read_log_with_epochs(self, tmp_path):
        path = tmp_path / "log"
        records = [sample_record(i)[1] for i in range(4)]
        with open(path, "w") as handle:
            handle.write(wire.log_epoch_line(0) + "\n")
            handle.write(wire.log_record_line(records[0]) + "\n")
            handle.write(wire.log_epoch_line(3) + "\n")
            for record in records[1:]:
                handle.write(wire.log_record_line(record) + "\n")
        epoch, entries = wire.read_log(path)
        assert epoch == 3
        assert [e for e, _ in entries] == [0, 3, 3, 3]
        assert [r for _, r in entries] == records


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
        assert feed.records == (record,)
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
        assert a.records == b.records

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
