"""Wire formats of the tracing server.

Record frame (exact layout, big endian):

    16-byte hash || 4-byte ciphertext length || ciphertext || 1-byte tag

A record crosses the upload, the log, the server's store and the feed
as its frame: ``handle_request`` hands the server an upload's frames as
``read_frames`` checked them, the server holds each published record as
the frame it logged, and a feed response is those frames joined.
``read_frames``, ``decode_record`` and ``read_log`` check a frame by the
same rules (``_check_frame``); only ``decode_record`` and
``decode_records``, the client's side, build record objects.

Append-only log: one framed record per line of base64.  Epoch
boundaries are interleaved as ``# epoch <n>`` control lines so a log
replay restores feed paging; epochs never go back.  The server appends
an accepted upload's lines (or an epoch line) with one write, then
flushes and fsyncs the file before it answers the upload.  A crash can
therefore leave only the last line torn: ``read_log`` drops a final
line that has no newline unless it is a record that decodes, and raises
``WireError`` on any other bad line; the server's next append first
ends the file at a line boundary (``end_log_at_line``).

Socket protocol: each message is a 4-byte length prefix followed by the
body.  Request bodies start with a 1-byte opcode; responses with a
1-byte status (0 accepted, 1 rejected, 2 malformed).  The server closes
a connection whose request prefix exceeds ``MAX_REQUEST_BYTES`` without
reading the body, and one that arrives while ``MAX_CONNECTIONS`` others
are open without reading anything; responses, such as the feed, are
not capped.
"""

from __future__ import annotations

import binascii
import enum
import json
import os
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass

TOKEN_HASH_BYTES = 16
PROOF_BYTES = 32
#: Most records one upload may carry.  The paper's upload is 14 days of
#: 20 encounters, 280 records; the cap leaves room for busier contacts.
MAX_UPLOAD_RECORDS = 1024
#: Largest request the server reads: the longest upload header (255
#: superspreader proofs), then ``MAX_UPLOAD_RECORDS`` frames holding the
#: metadata ciphertext a client makes (12-byte nonce, 8-byte timestamp,
#: 16-byte AEAD tag).
MAX_REQUEST_BYTES = (
    2 + 255 * PROOF_BYTES + 4
    + MAX_UPLOAD_RECORDS * (TOKEN_HASH_BYTES + 4 + 12 + 8 + 16 + 1)
)
#: Most connections the socket server serves at once, one thread each.
MAX_CONNECTIONS = 64


class Tag(enum.IntEnum):
    """Provenance tag published with every record."""

    DIRECT = 0
    SECOND_LEVEL = 1
    POSSIBLE_SUPERSPREADER = 2


@dataclass(frozen=True, slots=True)
class TokenUploadRecord:
    """Published pair: truncated token hash and encrypted timestamp."""

    hash: bytes
    ciphertext: bytes
    tag: Tag = Tag.DIRECT

    def __post_init__(self) -> None:
        if len(self.hash) != TOKEN_HASH_BYTES:
            raise ValueError("record hash must be 16 bytes")
        if not isinstance(self.tag, Tag):
            object.__setattr__(self, "tag", Tag(self.tag))


@dataclass(frozen=True)
class PublishedFeed:
    records: tuple[TokenUploadRecord, ...]
    feed_epoch: int


class WireError(Exception):
    """Malformed frame or message."""


# -- record framing ---------------------------------------------------------

_FRAME_HEAD = struct.Struct(">16sI")
_CT_LEN = struct.Struct(">I")
_HEAD = _FRAME_HEAD.size
_TAGS = tuple(Tag)


def encode_record(record: TokenUploadRecord) -> bytes:
    return (
        _FRAME_HEAD.pack(record.hash, len(record.ciphertext))
        + record.ciphertext
        + bytes((record.tag,))
    )


def _check_frame(buf: bytes, offset: int = 0) -> int:
    """Check the record frame at ``offset``: a whole head, its ciphertext
    and a known tag.  Returns the offset of the tag byte."""
    if len(buf) - offset <= _HEAD:
        raise WireError("record frame truncated")
    tag_at = offset + _HEAD + _CT_LEN.unpack_from(buf, offset + TOKEN_HASH_BYTES)[0]
    if len(buf) <= tag_at:
        raise WireError("record ciphertext truncated")
    if buf[tag_at] >= len(_TAGS):
        raise WireError(f"unknown record tag {buf[tag_at]}")
    return tag_at


def read_frames(buf: bytes, offset: int = 0) -> tuple[list[bytes], int]:
    """The checked frames of the record list at ``offset`` (a count, then
    that many frames) and the offset just past it."""
    if len(buf) - offset < 4:
        raise WireError("record list truncated")
    (count,) = struct.unpack_from(">I", buf, offset)
    offset += 4
    frames = []
    for _ in range(count):
        end = _check_frame(buf, offset) + 1
        frames.append(buf[offset:end])
        offset = end
    return frames, offset


def decode_record(buf: bytes, offset: int = 0) -> tuple[TokenUploadRecord, int]:
    end = _check_frame(buf, offset) + 1
    f = buf[offset:end]
    return TokenUploadRecord(f[:TOKEN_HASH_BYTES], f[_HEAD:-1], _TAGS[f[-1]]), end


def encode_records(records: list[TokenUploadRecord]) -> bytes:
    body = b"".join(encode_record(r) for r in records)
    return struct.pack(">I", len(records)) + body


def decode_records(buf: bytes, offset: int = 0) -> tuple[list[TokenUploadRecord], int]:
    records, end = read_frames(buf, offset)
    # each frame gives way to its record, so a feed's frames and records
    # are never all held at once
    for i, f in enumerate(records):
        records[i] = TokenUploadRecord(f[:TOKEN_HASH_BYTES], f[_HEAD:-1], _TAGS[f[-1]])
    return records, end


# -- append-only log ---------------------------------------------------------


def log_frame_line(frame: bytes) -> str:
    return binascii.b2a_base64(frame, newline=False).decode("ascii")


def log_record_line(record: TokenUploadRecord) -> str:
    return log_frame_line(encode_record(record))


def log_epoch_line(epoch: int) -> str:
    return f"# epoch {epoch}"


def _log_frame(line: bytes) -> bytes:
    """The checked record frame a log line holds."""
    try:
        frame = binascii.a2b_base64(line)
    except binascii.Error as exc:
        raise WireError(f"log line is not base64: {exc}") from exc
    if _check_frame(frame) + 1 != len(frame):
        raise WireError("trailing bytes in log line")
    return frame


def _is_record_line(line: bytes) -> bool:
    try:
        _log_frame(line)
    except WireError:
        return False
    return True


def end_log_at_line(handle) -> None:
    """Make a log opened with ``a+b`` end at a line boundary, so the next
    append starts a line of its own.

    A final line without a newline is the torn tail of a write a crash
    cut short.  It gets its newline if it is a whole record line, which
    ``read_log`` keeps, and is cut off otherwise.
    """
    size = handle.seek(0, os.SEEK_END)
    if size == 0:
        return
    handle.seek(size - 1)
    if handle.read(1) == b"\n":
        return
    handle.seek(0)
    data = handle.read()
    start = data.rfind(b"\n") + 1
    tail = data[start:].strip()
    if not tail.startswith(b"#") and _is_record_line(tail):
        handle.write(b"\n")
    else:
        handle.truncate(start)


def append_log(path, lines: list[str]) -> None:
    """Append the lines to a log with one write and make them durable,
    after ``end_log_at_line`` has mended or cut a torn last line."""
    with open(path, "a+b") as handle:
        end_log_at_line(handle)
        handle.write("".join(line + "\n" for line in lines).encode("ascii"))
        handle.flush()
        os.fsync(handle.fileno())


def read_log(path) -> tuple[int, list[int], list[bytes]]:
    """Replay a log file into its last epoch and, for each record line in
    order, its epoch and its checked frame.

    A final line without a newline is the torn tail of a write a crash
    cut short: it is dropped unless it is a record line that decodes.
    Epochs never go back, so the record epochs are non-decreasing.
    """
    epoch = 0
    epochs: list[int] = []
    frames: list[bytes] = []
    with open(path, "rb") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith(b"#"):
                parts = line.split()
                if raw.endswith(b"\n") and len(parts) == 3 and parts[1] == b"epoch":
                    if not parts[2].isdigit():
                        raise WireError(f"log epoch line has no epoch number: {line[:40]!r}")
                    number = int(parts[2])
                    if number < epoch:
                        raise WireError(f"log epoch goes back from {epoch} to {number}")
                    epoch = number
                continue
            try:
                frames.append(_log_frame(line))
            except WireError:
                if raw.endswith(b"\n"):
                    raise
                continue
            epochs.append(epoch)
    return epoch, epochs, frames


# -- socket protocol ----------------------------------------------------------

OP_UPLOAD_INFECTED = 1
OP_UPLOAD_SECOND_LEVEL = 2
OP_UPLOAD_SUPERSPREADER = 3
OP_FETCH_FEED = 4
OP_STATS = 5
# Out-of-band health-authority channel, exposed here so an operator (or
# the simulator) can hand TANs to verified-infected users.
OP_ISSUE_TAN = 6

STATUS_ACCEPTED = 0
STATUS_REJECTED = 1
STATUS_MALFORMED = 2


def encode_upload_infected(tan_value: str, records: list[TokenUploadRecord]) -> bytes:
    tan = tan_value.encode("ascii")
    return bytes([OP_UPLOAD_INFECTED, len(tan)]) + tan + encode_records(records)


def encode_upload_second_level(proof: bytes, records: list[TokenUploadRecord]) -> bytes:
    if len(proof) != PROOF_BYTES:
        raise WireError("possession proof must be 32 bytes")
    return bytes([OP_UPLOAD_SECOND_LEVEL]) + proof + encode_records(records)


def encode_upload_superspreader(
    proofs: list[bytes], records: list[TokenUploadRecord]
) -> bytes:
    if any(len(p) != PROOF_BYTES for p in proofs):
        raise WireError("possession proofs must be 32 bytes")
    return (
        bytes([OP_UPLOAD_SUPERSPREADER, len(proofs)])
        + b"".join(proofs)
        + encode_records(records)
    )


def encode_fetch_feed(since_epoch: int, shuffle_seed: int) -> bytes:
    return bytes([OP_FETCH_FEED]) + struct.pack(">Iq", since_epoch, shuffle_seed)


def _send_message(sock: socket.socket, body: bytes) -> None:
    sock.sendall(struct.pack(">I", len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise WireError("connection closed mid-message")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_message(sock: socket.socket, limit: int | None = None) -> bytes:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if limit is not None and length > limit:
        raise WireError(f"message of {length} bytes exceeds {limit}")
    return _recv_exact(sock, length)


def handle_request(server, body: bytes) -> bytes:
    """Dispatch one request body against a TracingServer instance and
    return the response body."""
    import random

    if not body:
        return bytes([STATUS_MALFORMED]) + b"empty request"
    op = body[0]
    try:
        if op == OP_UPLOAD_INFECTED:
            tan_len = body[1]
            tan = body[2 : 2 + tan_len].decode("ascii")
            upload, credential, offset = server.upload_infected, tan, 2 + tan_len
        elif op == OP_UPLOAD_SECOND_LEVEL:
            proof = body[1 : 1 + PROOF_BYTES]
            if len(proof) != PROOF_BYTES:
                raise WireError("proof truncated")
            upload, credential, offset = server.upload_second_level, proof, 1 + PROOF_BYTES
        elif op == OP_UPLOAD_SUPERSPREADER:
            count = body[1]
            proofs = [
                body[2 + i * PROOF_BYTES : 2 + (i + 1) * PROOF_BYTES]
                for i in range(count)
            ]
            if any(len(p) != PROOF_BYTES for p in proofs):
                raise WireError("proofs truncated")
            upload, credential = server.upload_superspreader_proof, proofs
            offset = 2 + count * PROOF_BYTES
        elif op == OP_FETCH_FEED:
            since_epoch, seed = struct.unpack(">Iq", body[1:])
            feed_epoch, frames = server.feed_frames(since_epoch, random.Random(seed))
            head = bytes([STATUS_ACCEPTED]) + struct.pack(">II", feed_epoch, len(frames))
            return b"".join([head, *frames])
        elif op == OP_STATS:
            stats = server.stats_snapshot()
            return bytes([STATUS_ACCEPTED]) + json.dumps(
                stats, sort_keys=True
            ).encode("ascii")
        elif op == OP_ISSUE_TAN:
            context = body[1:].decode("ascii", "replace")
            tan = server.authority.issue_tan(context, 0)
            return bytes([STATUS_ACCEPTED]) + tan.value.encode("ascii")
        else:
            return bytes([STATUS_MALFORMED]) + f"unknown opcode {op}".encode()
        # an upload's record list ends its body
        frames, end = read_frames(body, offset)
        if end != len(body):
            raise WireError("trailing bytes after the record list")
        result = upload(credential, frames)
    except (WireError, IndexError, struct.error, UnicodeDecodeError) as exc:
        return bytes([STATUS_MALFORMED]) + str(exc).encode()
    status = STATUS_ACCEPTED if result.accepted else STATUS_REJECTED
    reason = (result.reason or "").encode("ascii")
    return bytes([status]) + reason


class _BoundedTCPServer(socketserver.ThreadingTCPServer):
    """One thread per connection, for at most ``MAX_CONNECTIONS`` at once;
    a connection over the bound is closed at once, unread."""

    daemon_threads = True

    def __init__(self, *args):
        self._slots = threading.Semaphore(MAX_CONNECTIONS)
        super().__init__(*args)

    def verify_request(self, request, client_address) -> bool:
        return self._slots.acquire(blocking=False)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


class WireServer:
    """Threaded TCP front end for a TracingServer."""

    def __init__(self, tracing_server, host: str = "127.0.0.1", port: int = 0):
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                try:
                    while True:
                        body = _recv_message(self.request, MAX_REQUEST_BYTES)
                        _send_message(
                            self.request, handle_request(outer.tracing_server, body)
                        )
                except (WireError, ConnectionError, OSError):
                    return

        self.tracing_server = tracing_server
        self._tcp = _BoundedTCPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address

    def start(self) -> None:
        self._thread = threading.Thread(target=self._tcp.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._tcp.serve_forever()

    def shutdown(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()


class WireClient:
    """Blocking client for the socket protocol."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port))

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _round_trip(self, body: bytes) -> bytes:
        _send_message(self._sock, body)
        return _recv_message(self._sock)

    def upload_infected(self, tan_value: str, records) -> tuple[bool, str]:
        resp = self._round_trip(encode_upload_infected(tan_value, records))
        return resp[0] == STATUS_ACCEPTED, resp[1:].decode("ascii", "replace")

    def upload_second_level(self, proof: bytes, records) -> tuple[bool, str]:
        resp = self._round_trip(encode_upload_second_level(proof, records))
        return resp[0] == STATUS_ACCEPTED, resp[1:].decode("ascii", "replace")

    def upload_superspreader(self, proofs, records) -> tuple[bool, str]:
        resp = self._round_trip(encode_upload_superspreader(proofs, records))
        return resp[0] == STATUS_ACCEPTED, resp[1:].decode("ascii", "replace")

    def fetch_feed(self, since_epoch: int, shuffle_seed: int) -> PublishedFeed:
        resp = self._round_trip(encode_fetch_feed(since_epoch, shuffle_seed))
        if resp[0] != STATUS_ACCEPTED:
            raise WireError(resp[1:].decode("ascii", "replace"))
        (epoch,) = struct.unpack_from(">I", resp, 1)
        records, _ = decode_records(resp, 5)
        return PublishedFeed(records=tuple(records), feed_epoch=epoch)

    def stats(self) -> dict:
        resp = self._round_trip(bytes([OP_STATS]))
        if resp[0] != STATUS_ACCEPTED:
            raise WireError("stats request failed")
        return json.loads(resp[1:].decode("ascii"))

    def issue_tan(self, context: str = "") -> str:
        resp = self._round_trip(bytes([OP_ISSUE_TAN]) + context.encode("ascii"))
        if resp[0] != STATUS_ACCEPTED:
            raise WireError("tan issuance failed")
        return resp[1:].decode("ascii")
