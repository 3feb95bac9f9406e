"""Per-frame oracle for the record-list readers in ``tracecorona.wire``.

Each function walks a record list one frame at a time (or a log one
57-byte unit at a time) with ``wire._check_frame``, the way the readers
did before they checked lists in bulk.  The tests
compare the bulk readers against these: same frames and end offsets, or
the same ``WireError`` message.
"""

import struct

from tracecorona import wire


def read_frames(buf, offset=0, most=None):
    """``wire.read_frames``, walking frame by frame."""
    if len(buf) - offset < 4:
        raise wire.WireError("record list truncated")
    (count,) = struct.unpack_from(">I", buf, offset)
    if most is not None and count > most:
        raise wire.WireError(f"record list of {count} exceeds {most}")
    offset += 4
    frames = []
    for _ in range(count):
        end = wire._check_frame(buf, offset) + 1
        frames.append(buf[offset:end])
        offset = end
    return frames, offset


def read_feed(response):
    """The feed epoch and the frames of a fetch response, as
    ``wire.read_feed`` reads them, walking frame by frame."""
    if not response or response[0] != wire.STATUS_ACCEPTED:
        raise wire.WireError(response[1:].decode("ascii", "replace") or "feed not served")
    if len(response) < 9:
        raise wire.WireError("feed head truncated")
    epoch, count = struct.unpack_from(">II", response, 1)
    frames, end = [], 9
    for _ in range(count):
        tag_at = wire._check_frame(response, end)
        frames.append(response[end : tag_at + 1])
        end = tag_at + 1
    if end != len(response):
        raise wire.WireError("trailing bytes after the record list")
    return epoch, frames


def read_log(path):
    """``wire.read_log``, one unit at a time: a unit whose last byte is
    0xFF is an epoch mark (8-byte big-endian epoch, then zeros), any
    other is a frame, and a partial last unit is dropped."""
    with open(path, "rb") as handle:
        data = handle.read()
    epoch = 0
    epochs, frames = [], []
    for at in range(0, len(data) - wire.FRAME_BYTES + 1, wire.FRAME_BYTES):
        unit = data[at : at + wire.FRAME_BYTES]
        if unit[-1] == 0xFF:
            if unit[8:-1] != bytes(wire.FRAME_BYTES - 9):
                raise wire.WireError("log epoch mark with non-zero padding")
            number = int.from_bytes(unit[:8], "big")
            if number < epoch:
                raise wire.WireError(f"log epoch goes back from {epoch} to {number}")
            epoch = number
        else:
            wire._check_frame(unit)
            frames.append(unit)
            epochs.append(epoch)
    return epoch, epochs, frames


def record_epochs(boundaries, count):
    """Each of ``count`` held records' epoch, expanded from the (epoch,
    index of its first record) boundaries a server or ``wire.read_log``
    keeps."""
    ends = [start for _, start in boundaries[1:]] + [count]
    return [epoch for (epoch, start), end in zip(boundaries, ends) for _ in range(start, end)]


def per_record(log):
    """``wire.read_log``'s (epoch, boundaries, frames) with the
    boundaries expanded into each record's epoch, as ``read_log`` here
    gives them."""
    epoch, boundaries, frames = log
    return epoch, record_epochs(boundaries, len(frames)), frames
