"""Tracing server: TAN-authenticated record ingestion, possession-proof
verification, shuffled feed distribution, and anonymous aggregates.

Records are stored individually the moment an upload is accepted; no
persisted structure remembers which records arrived together.  An
accepted upload's log lines go out in one write and are fsynced before
the upload is answered.

Uploads arrive as checked wire frames (``wire.read_frames``), and the
server holds each published record as its frame, the bytes its log
line encodes, with a non-decreasing list of the records' epochs beside
the frames: ingest only re-tags a frame's last byte, a log replay only
checks the frames, a feed is a slice of them joined, and only
``fetch_feed`` decodes held frames into record objects.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass

from . import crypto
from .authority import HealthAuthority
from .wire import (
    TOKEN_HASH_BYTES,
    PublishedFeed,
    Tag,
    TokenUploadRecord,
    append_log,
    decode_record,
    log_epoch_line,
    log_frame_line,
    read_log,
)

__all__ = [
    "Tag",
    "TokenUploadRecord",
    "PublishedFeed",
    "UploadResult",
    "TracingServer",
]

REASON_INVALID_TAN = "invalid_tan"
REASON_MALFORMED_RECORD = "malformed_record"
REASON_NO_MATCHING_TOKEN = "no_matching_infected_token"
REASON_INSUFFICIENT_PROOFS = "insufficient_valid_proofs"


@dataclass(frozen=True)
class UploadResult:
    accepted: bool
    reason: str | None = None
    stored: int = 0


#: Where a frame's ciphertext starts, after the hash and its length.
_CIPHERTEXT_AT = TOKEN_HASH_BYTES + 4
#: Length of a checked frame whose ciphertext is empty; no upload may
#: carry one.
_EMPTY_FRAME = _CIPHERTEXT_AT + 1


class TracingServer:
    """The service provider holding the published record store."""

    def __init__(
        self,
        authority: HealthAuthority,
        superspreader_threshold: int = 3,
        log_path=None,
    ):
        self.authority = authority
        self.superspreader_threshold = superspreader_threshold
        self._log_path = log_path
        #: the frames of the published records, in the order they were
        #: held, and the epoch each was ingested at
        self._records: list[bytes] = []
        self._epochs: list[int] = []
        #: hash -> indices of the direct records; built by the first
        #: proof check, so a server that only serves fetches never pays
        #: for it, and kept current by every store after that
        self._direct_by_hash: dict[bytes, list[int]] | None = None
        self._epoch = 0
        self._ingest_lock = threading.Lock()
        self._active_clients: set[str] = set()
        self._infected_uploads = 0
        self._second_level_uploads = 0
        self._superspreader_uploads = 0
        self._notifications_reported = {"direct": 0, "second_level": 0, "superspreader_flagged": 0}
        if log_path is not None:
            open(log_path, "a").close()

    # -- epochs ----------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def advance_epoch(self, epoch: int) -> None:
        with self._ingest_lock:
            if epoch < self._epoch:
                raise ValueError("epoch must not go backwards")
            if epoch != self._epoch:
                self._append_log([log_epoch_line(epoch)])
                self._epoch = epoch

    # -- ingestion ---------------------------------------------------------------

    def _append_log(self, lines: list[str]) -> None:
        if self._log_path is not None:
            append_log(self._log_path, lines)

    def _store(self, frames: list[bytes], tag: Tag) -> UploadResult:
        """Log an accepted upload's frames under the tag they are
        published with, then hold them."""
        tag_byte = bytes((tag,))
        frames = [f if f[-1] == tag else f[:-1] + tag_byte for f in frames]
        if frames and self._log_path is not None:
            self._append_log([log_frame_line(frame) for frame in frames])
        self._epochs += [self._epoch] * len(frames)
        self._records += frames
        if self._direct_by_hash is not None:
            self._index_direct(len(self._records) - len(frames))
        return UploadResult(True, stored=len(frames))

    def upload_infected(self, tan_value: str, frames: list[bytes]) -> UploadResult:
        if not frames or _EMPTY_FRAME in map(len, frames):
            return UploadResult(False, REASON_MALFORMED_RECORD)
        with self._ingest_lock:
            if not self.authority.verify_tan(tan_value):
                return UploadResult(False, REASON_INVALID_TAN)
            result = self._store(frames, Tag.DIRECT)
            self._infected_uploads += 1
            return result

    def _index_direct(self, start: int) -> None:
        """Index the direct records among the held frames from ``start`` on."""
        for i in range(start, len(self._records)):
            frame = self._records[i]
            if frame[-1] == Tag.DIRECT:
                self._direct_by_hash.setdefault(frame[:TOKEN_HASH_BYTES], []).append(i)

    def _proof_matches(self, proof: bytes) -> list[int]:
        """Indices of published direct records this proof opens."""
        if len(proof) != 32:
            return []
        if self._direct_by_hash is None:
            self._direct_by_hash = {}
            self._index_direct(0)
        matches = []
        for index in self._direct_by_hash.get(crypto.token_hash(proof), []):
            try:
                crypto.decrypt_metadata(proof, self._records[index][_CIPHERTEXT_AT:-1])
            except crypto.AuthenticationFailure:
                continue
            matches.append(index)
        return matches

    def upload_second_level(self, possession_proof: bytes, frames: list[bytes]) -> UploadResult:
        if _EMPTY_FRAME in map(len, frames):
            return UploadResult(False, REASON_MALFORMED_RECORD)
        with self._ingest_lock:
            if not self._proof_matches(possession_proof):
                return UploadResult(False, REASON_NO_MATCHING_TOKEN)
            result = self._store(frames, Tag.SECOND_LEVEL)
            self._second_level_uploads += 1
            return result

    def upload_superspreader_proof(self, proofs: list[bytes], frames: list[bytes]) -> UploadResult:
        if _EMPTY_FRAME in map(len, frames):
            return UploadResult(False, REASON_MALFORMED_RECORD)
        with self._ingest_lock:
            if len(proofs) < self.superspreader_threshold:
                return UploadResult(False, REASON_INSUFFICIENT_PROOFS)
            if not self._distinct_assignment(proofs):
                return UploadResult(False, REASON_INSUFFICIENT_PROOFS)
            result = self._store(frames, Tag.POSSIBLE_SUPERSPREADER)
            self._superspreader_uploads += 1
            return result

    def _distinct_assignment(self, proofs: list[bytes]) -> bool:
        """Every proof must open its own distinct published record
        (a matching in the proof/record bipartite graph)."""
        match_sets = [set(self._proof_matches(p)) for p in proofs]
        if any(not s for s in match_sets):
            return False
        assigned: dict[int, int] = {}

        def assign(i: int, seen: set[int]) -> bool:
            for record_index in match_sets[i]:
                if record_index in seen:
                    continue
                seen.add(record_index)
                if record_index not in assigned or assign(assigned[record_index], seen):
                    assigned[record_index] = i
                    return True
            return False

        return all(assign(i, set()) for i in range(len(proofs)))

    # -- distribution -----------------------------------------------------------

    def feed_frames(self, since_epoch: int, rng) -> tuple[int, list[bytes]]:
        """The feed epoch and the frames of all records ingested at epochs
        >= since_epoch, in an order independent of upload batches: a
        seeded uniform shuffle of the order they were held in."""
        feed_epoch = self._epoch
        frames = self._records[bisect_left(self._epochs, since_epoch):]
        rng.shuffle(frames)
        return feed_epoch, frames

    def fetch_feed(self, since_epoch: int, rng) -> PublishedFeed:
        """``feed_frames`` as a feed of records."""
        feed_epoch, frames = self.feed_frames(since_epoch, rng)
        records = tuple(decode_record(frame)[0] for frame in frames)
        return PublishedFeed(records=records, feed_epoch=feed_epoch)

    # -- aggregates ---------------------------------------------------------------

    def register_active(self, client_tag: str) -> None:
        with self._ingest_lock:
            self._active_clients.add(client_tag)

    def report_notification(self, level: str, superspreader_flag: bool = False) -> None:
        with self._ingest_lock:
            if level in self._notifications_reported:
                self._notifications_reported[level] += 1
            if superspreader_flag:
                self._notifications_reported["superspreader_flagged"] += 1

    def stats_snapshot(self) -> dict:
        with self._ingest_lock:
            return {
                "active_users": len(self._active_clients),
                "infected_uploads": self._infected_uploads,
                "records_published": len(self._records),
                "second_level_uploads": self._second_level_uploads,
                "superspreader_flags": self._superspreader_uploads,
                "notifications_reported": dict(self._notifications_reported),
            }

    # -- persistence -----------------------------------------------------------------

    @classmethod
    def replay_log(
        cls,
        log_path,
        authority: HealthAuthority,
        superspreader_threshold: int = 3,
    ) -> "TracingServer":
        """Rebuild the published store from an append-only log.

        Upload counters other than record totals are not part of the
        log (they would group records) and restart at zero.
        """
        server = cls(authority, superspreader_threshold=superspreader_threshold)
        server._epoch, server._epochs, server._records = read_log(log_path)
        server._log_path = log_path
        return server
