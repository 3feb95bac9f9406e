"""Wire formats of the tracing server.

Record frame (exact layout, big endian):

    16-byte hash || 4-byte ciphertext length || ciphertext || 1-byte tag

A record crosses the upload, the log, the server's store and the feed
as its frame: ``handle_request`` hands the server an upload's frames as
``read_frames`` checked them, the server holds each published record as
the frame it logged, and a feed response is those frames joined.
``read_frames``, ``decode_record`` and ``read_log`` check a frame by the
same rules (``_check_frame``).  The client keeps a feed as the response
it arrived in: ``read_feed`` checks every frame by those rules and
returns a ``PublishedFeed`` holding a view of the response's record
list, which ``exposure.match_feed`` reads again in place.  Frame objects
are built only for what the server holds (``read_frames`` for uploads,
``read_log`` for replay) and by a feed's ``frames`` on demand; record
objects only by ``decode_record``, ``decode_records`` and a feed's
``records`` view, one frame at a time.

One record width: a ciphertext is a sealed timestamp, 36 bytes
(``CIPHERTEXT_BYTES``), so a frame is 57 (``FRAME_BYTES``).
``_check_frame`` refuses any other length field with ``record
ciphertext of <n> bytes, not 36``: such a record could never match, and
an upload of one unusual width would stand out as a batch in the
shuffled feed.  A record list is checked in bulk (``_check_frames``):
strided slices check every frame's length field and tag byte at once;
only a list that fails is walked frame by frame, to raise the first
bad frame's error.  A checked list is cut into frames (or scanned for
hashes) a batch of ``_BATCH`` (1,024) frames per ``struct`` call, the
format of one frame repeated, and the tail of fewer frame by frame
(``_each_frame``), with no Python step per frame.
``read_log`` checks each run of records between epoch marks the same
way.

Append-only log: a sequence of 57-byte units.  A record's unit is its
frame, exactly as the server holds and serves it.  An epoch mark
(``epoch_mark``) is one unit: the epoch as 8 bytes big endian, zero
padding, then the tag byte ``MARK_TAG`` (0xFF), which no frame carries;
marks restore feed paging on replay, and epochs never go back.
``read_log`` finds the marks in the units' tag column, refuses one with
non-zero padding or a lower epoch, and checks the runs of frames
between them in bulk; any other unit raises the first bad frame's
error; each epoch replays as one boundary, (epoch, first record
index).  The server appends an accepted upload's frames (or an epoch
mark) with one write, then flushes and fsyncs the file before it
answers the upload.  A crash can therefore leave only a partial last
unit: ``read_log`` drops it, and the next append first cuts it off
(``end_log_at_unit``).

Socket protocol (``WireServer``, ``WireClient``): each message is a
4-byte length prefix followed by the body, sent with one ``sendmsg``.
Request bodies start with a 1-byte opcode; responses with a 1-byte
status (0 accepted, 1 rejected, 2 malformed).  The server closes a
connection whose request prefix exceeds ``MAX_REQUEST_BYTES`` without
reading the body, one that arrives while ``MAX_CONNECTIONS`` others
are open without reading anything, and one that has not sent a whole
request ``IDLE_SECONDS`` (30) after the server began to wait for it.
The deadline is per message, not per read: every read of a request
waits only for the time left, so a silent client and one that trickles
bytes both give their slot back.  ``WireClient`` keeps no deadline.  An
upload whose record count is over
``MAX_UPLOAD_RECORDS`` is malformed, refused before its frames are read;
responses, such as the feed, are not capped.
"""

from __future__ import annotations

import enum
import io
import itertools
import json
import os
import random
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass
from functools import partial

TOKEN_HASH_BYTES = 16
#: The one record ciphertext length: 12-byte nonce, 8-byte timestamp
#: (the only plaintext ``crypto.decrypt_metadata`` opens), 16-byte tag.
CIPHERTEXT_BYTES = 36
#: A record frame's length: hash, ciphertext length, ciphertext, tag.
FRAME_BYTES = TOKEN_HASH_BYTES + 4 + CIPHERTEXT_BYTES + 1
PROOF_BYTES = 32
#: Most possession proofs one superspreader upload may carry: its count
#: is one byte.
MAX_PROOFS = 255
#: Most records one upload may carry.  The paper's upload is 14 days of
#: 20 encounters, 280 records; the cap leaves room for busier contacts.
MAX_UPLOAD_RECORDS = 1024
#: Largest request the server reads: the longest upload header
#: (``MAX_PROOFS`` proofs), then ``MAX_UPLOAD_RECORDS`` frames.
MAX_REQUEST_BYTES = 2 + MAX_PROOFS * PROOF_BYTES + 4 + MAX_UPLOAD_RECORDS * FRAME_BYTES
#: Most connections the socket server serves at once, one thread each.
MAX_CONNECTIONS = 64
#: Seconds the socket server waits for one whole request, from the wait
#: for its length prefix to its last byte, before it closes the
#: connection and frees its slot.
IDLE_SECONDS = 30


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
    """A fetched feed: its checked record frames joined in feed order,
    how many there are, and the feed epoch.  ``buffer`` is the record
    list of the fetch response it was read from, a view that copies
    nothing, or the frames an in-process caller joined."""

    buffer: bytes | memoryview
    count: int
    feed_epoch: int

    @classmethod
    def from_frames(cls, frames: list[bytes], feed_epoch: int) -> "PublishedFeed":
        """The feed of checked frames, in the order given.  Each given
        piece must be one frame, not merely join into frames."""
        buffer = _joined(b"", frames)
        if _check_frames(buffer, 0, len(frames)) != len(buffer):
            raise WireError(f"{len(buffer)} bytes are not {len(frames)} frames")
        if any(map(FRAME_BYTES.__ne__, map(len, frames))):
            raise WireError(f"a piece of the {len(frames)} given is not one frame")
        return cls(buffer, len(frames), feed_epoch)

    def hits(self, hashes):
        """The hash, start offset and tag offset in ``buffer`` of each
        frame whose hash is in ``hashes``, in feed order.  The frames'
        hashes are cut a batch per ``struct`` call (``_each_frame``)."""
        buf = self.buffer
        hit = map(hashes.__contains__, _each_frame(_HASHES, buf))
        starts = itertools.compress(itertools.count(0, FRAME_BYTES), hit)
        return (
            (bytes(buf[start : start + TOKEN_HASH_BYTES]), start, start + FRAME_BYTES - 1)
            for start in starts
        )

    @property
    def frames(self) -> list[bytes]:
        """The frames, each copied out of ``buffer``."""
        return list(_split(self.buffer))

    @property
    def records(self) -> "_RecordView":
        """The frames as records, built one at a time while iterating."""
        return _RecordView(self)


class _RecordView:
    """Read-only view of a feed's frames as records; never holds them all."""

    __slots__ = ("_feed",)

    def __init__(self, feed: PublishedFeed):
        self._feed = feed

    def __len__(self) -> int:
        return self._feed.count

    def __iter__(self):
        return map(_frame_record, _split(self._feed.buffer))


class WireError(Exception):
    """Malformed frame or message."""


# -- record framing ---------------------------------------------------------

_FRAME_HEAD = struct.Struct(">16sI")
#: A frame's fields, for a ciphertext of the one width.
FRAME = struct.Struct(f">{TOKEN_HASH_BYTES}sI{CIPHERTEXT_BYTES}sB")
_CT_LEN = struct.Struct(">I")
#: Where a frame's ciphertext starts, after the hash and its length.
CIPHERTEXT_AT = _FRAME_HEAD.size
_TAGS = tuple(Tag)
_KNOWN_TAGS = bytes(_TAGS)


def encode_record(record: TokenUploadRecord) -> bytes:
    return (
        _FRAME_HEAD.pack(record.hash, len(record.ciphertext))
        + record.ciphertext
        + bytes((record.tag,))
    )


def _check_frame(buf: bytes, offset: int = 0) -> int:
    """Check the record frame at ``offset``: a whole head, a length field
    of ``CIPHERTEXT_BYTES``, the whole ciphertext and a known tag.
    Returns the offset of the tag byte."""
    if len(buf) - offset <= CIPHERTEXT_AT:
        raise WireError("record frame truncated")
    (length,) = _CT_LEN.unpack_from(buf, offset + TOKEN_HASH_BYTES)
    if length != CIPHERTEXT_BYTES:
        raise WireError(f"record ciphertext of {length} bytes, not {CIPHERTEXT_BYTES}")
    tag_at = offset + FRAME_BYTES - 1
    if len(buf) <= tag_at:
        raise WireError("record ciphertext truncated")
    if buf[tag_at] >= len(_TAGS):
        raise WireError(f"unknown record tag {buf[tag_at]}")
    return tag_at


def _check_frames(buf: bytes, offset: int, count: int) -> int:
    """Check the ``count`` record frames at ``offset`` by ``_check_frame``'s
    rules and return the offset just past them.  If they fit, strided
    slices check every frame's length field and tag byte at once; only
    if that fails are they walked one by one, which raises the first bad
    frame's error."""
    end = offset + count * FRAME_BYTES
    if not (
        len(buf) >= end
        and all(
            buf[at:end:FRAME_BYTES].count(byte) == count
            for at, byte in enumerate(_CT_LEN.pack(CIPHERTEXT_BYTES), offset + TOKEN_HASH_BYTES)
        )
        and not buf[offset + FRAME_BYTES - 1 : end : FRAME_BYTES].translate(None, _KNOWN_TAGS)
    ):
        for at in range(offset, end, FRAME_BYTES):
            _check_frame(buf, at)
    return end


#: Frames cut by one ``struct`` call.
_BATCH = 1024
#: The formats that take a frame whole and a frame's hash, each for one
#: frame and for a batch.
_FRAMES, _HASHES = (
    (struct.Struct(one), struct.Struct(one * _BATCH))
    for one in (f"{FRAME_BYTES}s", f"{TOKEN_HASH_BYTES}s{FRAME_BYTES - TOKEN_HASH_BYTES}x")
)


def _each_frame(formats, buf):
    """The one value that ``formats`` unpacks from each frame filling
    ``buf``: a batch of ``_BATCH`` frames per ``struct`` call, then the
    tail of fewer frame by frame."""
    one, batch = formats
    view = memoryview(buf)
    whole = len(view) - len(view) % batch.size
    return itertools.chain(
        itertools.chain.from_iterable(batch.iter_unpack(view[:whole])),
        itertools.chain.from_iterable(one.iter_unpack(view[whole:])),
    )


def _split(buf):
    """The checked frames that fill ``buf``, each copied out, a batch
    per ``struct`` call (``_each_frame``)."""
    return _each_frame(_FRAMES, buf)


def _joined(head: bytes, frames: list[bytes]) -> bytes:
    """``head`` then the frames, in one buffer.  ``bytes.join`` would
    first allocate a buffer record of 80 bytes per frame."""
    out = io.BytesIO()
    out.write(head)
    out.writelines(frames)
    return out.getvalue()


def read_frames(buf: bytes, offset: int = 0, most: int | None = None) -> tuple[list[bytes], int]:
    """The checked frames of the record list at ``offset`` (a count, then
    that many frames) and the offset just past it.  A count above
    ``most`` is refused before any frame is read."""
    if len(buf) - offset < 4:
        raise WireError("record list truncated")
    (count,) = struct.unpack_from(">I", buf, offset)
    if most is not None and count > most:
        raise WireError(f"record list of {count} exceeds {most}")
    offset += 4
    end = _check_frames(buf, offset, count)
    return list(_split(memoryview(buf)[offset:end])), end


def _frame_record(frame: bytes) -> TokenUploadRecord:
    """The record a checked frame holds."""
    return TokenUploadRecord(
        frame[:TOKEN_HASH_BYTES], frame[CIPHERTEXT_AT:-1], _TAGS[frame[-1]]
    )


def decode_record(buf: bytes, offset: int = 0) -> tuple[TokenUploadRecord, int]:
    end = _check_frame(buf, offset) + 1
    return _frame_record(buf[offset:end]), end


def encode_records(records: list[TokenUploadRecord]) -> bytes:
    body = b"".join(encode_record(r) for r in records)
    return struct.pack(">I", len(records)) + body


def decode_records(buf: bytes, offset: int = 0) -> tuple[list[TokenUploadRecord], int]:
    records, end = read_frames(buf, offset)
    # each frame gives way to its record, so a feed's frames and records
    # are never all held at once
    for i, f in enumerate(records):
        records[i] = _frame_record(f)
    return records, end


# -- append-only log ---------------------------------------------------------

#: The tag byte of an epoch mark, which no frame carries.
MARK_TAG = 0xFF
#: An epoch mark: the epoch, zero padding, then ``MARK_TAG``; one unit
#: of the log, as wide as a frame.
_MARK = struct.Struct(f">Q{FRAME_BYTES - 9}sB")


def log_record_line(record: TokenUploadRecord) -> bytes:
    """A record's log unit: its frame."""
    return encode_record(record)


def epoch_mark(epoch: int) -> bytes:
    """The log unit that starts ``epoch``."""
    return _MARK.pack(epoch, b"", MARK_TAG)


def end_log_at_unit(handle) -> None:
    """Cut a torn final unit, the tail of a write a crash cut short, off
    a log opened for appending, so the next append starts a unit of its
    own."""
    size = handle.seek(0, os.SEEK_END)
    if size % FRAME_BYTES:
        handle.truncate(size - size % FRAME_BYTES)


def append_log(path, units: list[bytes]) -> None:
    """Append the units to a log with one write and make them durable,
    after ``end_log_at_unit`` has cut a torn last unit."""
    with open(path, "ab") as handle:
        end_log_at_unit(handle)
        handle.write(b"".join(units))
        handle.flush()
        os.fsync(handle.fileno())


#: Bytes of log file read at a time, whole units; a partial unit at a
#: block's end goes ahead of the next block.
_LOG_BLOCK = FRAME_BYTES << 16


def read_log(path) -> tuple[int, list[tuple[int, int]], list[bytes]]:
    """Replay a log file into its last epoch, the boundary of each epoch
    from 0 on (the epoch and the index of its first record), and each
    record's checked frame in order.

    A final partial unit is the torn tail of a write a crash cut short,
    and is dropped.  Epochs never go back, so a boundary is appended
    only where a mark changes the epoch.
    """
    boundaries = [(0, 0)]
    frames: list[bytes] = []
    rest = b""
    with open(path, "rb") as handle:
        while block := handle.read(_LOG_BLOCK):
            data = rest + block
            whole = len(data) - len(data) % FRAME_BYTES
            rest = data[whole:]
            _replay_units(data, whole, boundaries, frames)
    return boundaries[-1][0], boundaries, frames


def _replay_units(data: bytes, end: int, boundaries: list[tuple[int, int]], frames: list[bytes]) -> None:
    """Replay the whole units of ``data`` before ``end``: append each
    record's frame, and a boundary for each mark that changes the epoch.
    The marks are found in the units' tag column; each run of units
    between them is checked by ``_check_frames``, which raises the first
    bad frame's error, and cut by ``_split``."""
    tags = data[FRAME_BYTES - 1 : end : FRAME_BYTES]
    at = 0
    while at < len(tags):
        mark = tags.find(MARK_TAG, at)
        stop = len(tags) if mark < 0 else mark
        start = at * FRAME_BYTES
        run_end = _check_frames(data, start, stop - at)
        frames += _split(memoryview(data)[start:run_end])
        if mark < 0:
            break
        epoch = boundaries[-1][0]
        number = _mark_epoch(data, run_end, epoch)
        if number != epoch:
            boundaries.append((number, len(frames)))
        at = mark + 1


def _mark_epoch(data: bytes, offset: int, epoch: int) -> int:
    """The epoch of the mark at ``offset``, which follows ``epoch``."""
    number, padding, _ = _MARK.unpack_from(data, offset)
    if any(padding):
        raise WireError("log epoch mark with non-zero padding")
    if number < epoch:
        raise WireError(f"log epoch goes back from {epoch} to {number}")
    return number


def last_log_epoch(path) -> int:
    """The epoch of a log's last mark, 0 if it has none, read back from
    its last whole unit a block of whole units at a time."""
    step = max(1, _LOG_BLOCK // FRAME_BYTES) * FRAME_BYTES
    with open(path, "rb") as handle:
        end = handle.seek(0, os.SEEK_END)
        end -= end % FRAME_BYTES
        while end:
            start = max(0, end - step)
            handle.seek(start)
            data = handle.read(end - start)
            mark = data[FRAME_BYTES - 1 :: FRAME_BYTES].rfind(MARK_TAG)
            if mark >= 0:
                return _mark_epoch(data, mark * FRAME_BYTES, 0)
            end = start
    return 0


# -- socket protocol ----------------------------------------------------------

OP_UPLOAD_INFECTED = 1
OP_UPLOAD_SECOND_LEVEL = 2
OP_UPLOAD_SUPERSPREADER = 3
OP_FETCH_FEED = 4
OP_STATS = 5
# Out-of-band health-authority channel: an operator hands TANs to
# verified-infected users over it. The simulator calls its authority directly.
OP_ISSUE_TAN = 6

STATUS_ACCEPTED = 0
STATUS_REJECTED = 1
STATUS_MALFORMED = 2


def encode_upload_infected(tan_value: str, records: list[TokenUploadRecord]) -> bytes:
    try:
        tan = tan_value.encode("ascii")
    except UnicodeEncodeError:
        raise WireError("TAN is not ASCII") from None
    if len(tan) > 255:
        raise WireError(f"TAN of {len(tan)} bytes exceeds 255")
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
    if len(proofs) > MAX_PROOFS:
        raise WireError(f"{len(proofs)} possession proofs exceed {MAX_PROOFS}")
    return (
        bytes([OP_UPLOAD_SUPERSPREADER, len(proofs)])
        + b"".join(proofs)
        + encode_records(records)
    )


#: A feed response's epoch and record count, after its status byte.
_FEED_HEAD = struct.Struct(">II")
#: The largest epoch a feed response can carry.
MAX_EPOCH = 2**32 - 1
#: Where a feed response's first frame starts.
_FEED_AT = 1 + _FEED_HEAD.size


def encode_fetch_feed(since_epoch: int, shuffle_seed: int) -> bytes:
    return bytes([OP_FETCH_FEED]) + struct.pack(">Iq", since_epoch, shuffle_seed)


def read_feed(response: bytes) -> PublishedFeed:
    """The feed a fetch response carries: an accepted status, the feed
    epoch, then the record list, which ends the response.  Every frame
    is checked (``_check_frames``), and the feed keeps the record list
    as a view of the response."""
    if not response or response[0] != STATUS_ACCEPTED:
        raise WireError(response[1:].decode("ascii", "replace") or "feed not served")
    if len(response) < _FEED_AT:
        raise WireError("feed head truncated")
    epoch, count = _FEED_HEAD.unpack_from(response, 1)
    if _check_frames(response, _FEED_AT, count) != len(response):
        raise WireError("trailing bytes after the record list")
    return PublishedFeed(memoryview(response)[_FEED_AT:], count, epoch)


def _send_message(sock: socket.socket, body: bytes) -> None:
    # the prefix and the body go out in one sendmsg: two writes would
    # meet Nagle's algorithm and a delayed ACK on every round trip
    parts = [struct.pack(">I", len(body)), memoryview(body)]
    while parts:
        sent = sock.sendmsg(parts)
        while parts and sent >= len(parts[0]):
            sent -= len(parts.pop(0))
        if parts:
            parts[0] = parts[0][sent:]


def _recv_exact(sock: socket.socket, n: int, deadline: float | None = None) -> bytes:
    # MSG_WAITALL fills one buffer, so a whole message arrives as one
    # chunk and the join returns that chunk itself; the loop is for the
    # short reads a signal or a socket timeout can still give.  With a
    # deadline (a ``time.monotonic`` instant) each read waits only for
    # the time left.
    chunks = []
    while n:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("message deadline passed")
            sock.settimeout(left)
        chunk = sock.recv(n, socket.MSG_WAITALL)
        if not chunk:
            raise WireError("connection closed mid-message")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_message(
    sock: socket.socket, limit: int | None = None, deadline: float | None = None
) -> bytes:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4, deadline))
    if limit is not None and length > limit:
        raise WireError(f"message of {length} bytes exceeds {limit}")
    return _recv_exact(sock, length, deadline)


def handle_request(server, body: bytes, clock=time.monotonic) -> bytes:
    """Dispatch one request body against a TracingServer instance and
    return the response body.  TANs are issued and verified at
    ``clock()``, the time the server's authority counts expiry in."""
    if not body:
        return bytes([STATUS_MALFORMED]) + b"empty request"
    op = body[0]
    try:
        if op == OP_UPLOAD_INFECTED:
            tan_len = body[1]
            tan = body[2 : 2 + tan_len].decode("ascii")
            upload = partial(server.upload_infected, now=clock())
            credential, offset = tan, 2 + tan_len
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
            head = bytes([STATUS_ACCEPTED]) + _FEED_HEAD.pack(feed_epoch, len(frames))
            return _joined(head, frames)
        elif op == OP_STATS:
            stats = server.stats_snapshot()
            return bytes([STATUS_ACCEPTED]) + json.dumps(
                stats, sort_keys=True
            ).encode("ascii")
        elif op == OP_ISSUE_TAN:
            context = body[1:].decode("ascii", "replace")
            tan = server.authority.issue_tan(context, clock())
            return bytes([STATUS_ACCEPTED]) + tan.value.encode("ascii")
        else:
            return bytes([STATUS_MALFORMED]) + f"unknown opcode {op}".encode()
        # an upload's record list ends its body
        frames, end = read_frames(body, offset, MAX_UPLOAD_RECORDS)
        if end != len(body):
            raise WireError("trailing bytes after the record list")
        result = upload(credential, frames)
    except (WireError, IndexError, struct.error, UnicodeDecodeError) as exc:
        return bytes([STATUS_MALFORMED]) + str(exc).encode()
    status = STATUS_ACCEPTED if result.accepted else STATUS_REJECTED
    reason = (result.reason or "").encode("ascii")
    return bytes([status]) + reason


class WireServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front end for a TracingServer: one thread per
    connection, for at most ``MAX_CONNECTIONS`` at once; a connection
    over the bound is closed at once, unread, and one that has not sent a
    whole request ``IDLE_SECONDS`` after the server began to wait for it
    is closed too.  The server answers each connection itself
    (``finish_request``), so no handler class is built."""

    daemon_threads = True

    def __init__(self, tracing_server, host: str = "127.0.0.1", port: int = 0):
        self.tracing_server = tracing_server
        self._slots = threading.Semaphore(MAX_CONNECTIONS)
        super().__init__((host, port), socketserver.BaseRequestHandler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address

    def start(self) -> None:
        threading.Thread(target=self.serve_forever, daemon=True).start()

    def shutdown(self) -> None:
        super().shutdown()
        self.server_close()

    def verify_request(self, request, client_address) -> bool:
        return self._slots.acquire(blocking=False)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def finish_request(self, request, client_address) -> None:
        """Answer the connection's requests until it closes, breaks the
        protocol or takes more than ``IDLE_SECONDS`` to send a whole
        request; each write of a response may wait ``IDLE_SECONDS``."""
        try:
            while True:
                deadline = time.monotonic() + IDLE_SECONDS
                body = _recv_message(request, MAX_REQUEST_BYTES, deadline)
                request.settimeout(IDLE_SECONDS)
                _send_message(request, handle_request(self.tracing_server, body))
        except (WireError, ConnectionError, OSError):
            return


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
        return read_feed(self._round_trip(encode_fetch_feed(since_epoch, shuffle_seed)))

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
