"""Tracing server: TAN-authenticated record ingestion, possession-proof
verification, shuffled feed distribution, and anonymous aggregates.

Records are stored individually the moment an upload is accepted; no
persisted structure remembers which records arrived together.  An
accepted upload's frames go to the log in one write and are fsynced
before the upload is answered.

Uploads arrive as frames ``wire.read_frames`` checked: ``wire`` refuses
a record whose ciphertext is not 36 bytes (``record ciphertext of <n>
bytes, not 36``) before the server sees the upload.  The server reads a
checked frame's fields at ``wire``'s offsets (the hash is the first
``TOKEN_HASH_BYTES``, the ciphertext runs from ``CIPHERTEXT_AT`` to the
tag, the last byte), as ``cli dump-stats`` does the tags of the held
frames (``_records``).  The server holds each published record as its
frame, the very unit it logs: ingest only re-tags a frame's last byte, a
log replay only checks the frames, and a feed is a slice of them, joined
on the socket or into the buffer of the ``PublishedFeed`` ``fetch_feed``
returns; the server builds no record objects.  Epochs never go back,
so beside the frames each epoch is one boundary: (epoch, first index).

The hash index for possession proofs maps each direct record's hash to
the index of its last holder and keeps a list of earlier indices only
for a hash held more than once (both sides of an encounter upload the
same hash).  It is built, and extended per upload, by one loop over
the held frames in hold order.

Second-level uploads are checked as a batch, one or many
(``upload_second_level_each``; ``upload_second_level`` is a batch of
one) under one hold of the ingest lock.  A refused upload changes no
state, and an accepted one's records are held as second-level, never
indexed as direct, so every proof of a batch meets the same index and
the batch ends as the same uploads one by one would.  A proof whose
hash the index does not hold, as nearly every forged one, is refused by
one hash and one dictionary lookup: no AEAD open, no result object, and
no state to undo.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass

from . import crypto
from .authority import HealthAuthority
from .wire import (
    CIPHERTEXT_AT,
    PROOF_BYTES,
    TOKEN_HASH_BYTES,
    PublishedFeed,
    Tag,
    append_log,
    epoch_mark,
    read_log,
)

REASON_INVALID_TAN = "invalid_tan"
REASON_MALFORMED_RECORD = "malformed_record"
REASON_NO_MATCHING_TOKEN = "no_matching_infected_token"
REASON_INSUFFICIENT_PROOFS = "insufficient_valid_proofs"


@dataclass(frozen=True)
class UploadResult:
    accepted: bool
    reason: str | None = None
    stored: int = 0


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
        #: held, and (epoch, index of its first held record) for each
        #: epoch from 0 on
        self._records: list[bytes] = []
        self._boundaries: list[tuple[int, int]] = [(0, 0)]
        #: hash -> index of the last direct record with that hash, and,
        #: for a hash held more than once, the indices of the earlier
        #: ones; built by the first proof check, so a server that only
        #: serves fetches never pays for them, and kept current by every
        #: store after that
        self._direct_by_hash: dict[bytes, int] | None = None
        self._direct_earlier: dict[bytes, list[int]] = {}
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
        return self._boundaries[-1][0]

    def advance_epoch(self, epoch: int) -> None:
        """Ingest at ``epoch`` from now on.  The simulator's epoch is one
        day: it calls this each midnight with the day number."""
        with self._ingest_lock:
            if epoch < self.epoch:
                raise ValueError("epoch must not go backwards")
            if epoch != self.epoch:
                self._append_log([epoch_mark(epoch)])
                self._boundaries.append((epoch, len(self._records)))

    # -- ingestion ---------------------------------------------------------------

    def _append_log(self, units: list[bytes]) -> None:
        if self._log_path is not None:
            append_log(self._log_path, units)

    def _store(self, frames: list[bytes], tag: Tag) -> UploadResult:
        """Log an accepted upload's frames under the tag they are
        published with, then hold them."""
        tag_byte = bytes((tag,))
        frames = [f if f[-1] == tag else f[:-1] + tag_byte for f in frames]
        if frames:
            self._append_log(frames)
        self._records += frames
        if self._direct_by_hash is not None:
            self._index_direct(len(self._records) - len(frames))
        return UploadResult(True, stored=len(frames))

    def upload_infected(
        self, tan_value: str, frames: list[bytes], now: float | None = None
    ) -> UploadResult:
        """Store the frames if the TAN verifies at ``now`` (None: no
        expiry is checked)."""
        if not frames:
            return UploadResult(False, REASON_MALFORMED_RECORD)
        with self._ingest_lock:
            if not self.authority.verify_tan(tan_value, now):
                return UploadResult(False, REASON_INVALID_TAN)
            result = self._store(frames, Tag.DIRECT)
            self._infected_uploads += 1
            return result

    def _index_direct(self, start: int) -> None:
        """Index the direct records among the held frames from ``start`` on,
        in hold order: a hash already indexed keeps its last index among
        the earlier ones."""
        held, earlier = self._direct_by_hash, self._direct_earlier
        for index in range(start, len(self._records)):
            frame = self._records[index]
            if frame[-1]:  # a direct record's tag byte is 0
                continue
            digest = frame[:TOKEN_HASH_BYTES]
            if digest in held:
                earlier.setdefault(digest, []).append(held[digest])
            held[digest] = index

    def _direct_index(self) -> dict[bytes, int]:
        """The hash index of the direct records, built on first use."""
        if self._direct_by_hash is None:
            self._direct_by_hash = {}
            self._index_direct(0)
        return self._direct_by_hash

    def _proof_matches(self, proof: bytes) -> list[int]:
        """Indices of published direct records this proof opens."""
        if len(proof) != PROOF_BYTES:
            return []
        digest = crypto.token_hash(proof)
        last = self._direct_index().get(digest)
        if last is None:
            return []
        matches = []
        for index in [*self._direct_earlier.get(digest, ()), last]:
            try:
                crypto.decrypt_metadata(proof, self._records[index][CIPHERTEXT_AT:-1])
            except crypto.AuthenticationFailure:
                continue
            matches.append(index)
        return matches

    def upload_second_level(self, possession_proof: bytes, frames: list[bytes]) -> UploadResult:
        if self.upload_second_level_each([(possession_proof, frames)]):
            return UploadResult(True, stored=len(frames))
        return UploadResult(False, REASON_NO_MATCHING_TOKEN)

    def upload_second_level_each(self, uploads) -> int:
        """Check each (possession proof, frames) upload of the iterable
        ``uploads`` as a second-level upload, in order, under one hold of
        the ingest lock, and store those whose proof opens a published
        direct record.  Returns how many were accepted.  The batch ends
        as the same uploads one by one would (see the module docstring).
        """
        accepted = 0
        with self._ingest_lock:
            for proof, frames in uploads:
                if self._proof_matches(proof):
                    self._store(frames, Tag.SECOND_LEVEL)
                    self._second_level_uploads += 1
                    accepted += 1
        return accepted

    def upload_superspreader_proof(self, proofs: list[bytes], frames: list[bytes]) -> UploadResult:
        with self._ingest_lock:
            if len(proofs) < self.superspreader_threshold or not self._distinct_assignment(proofs):
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
        feed_epoch = self.epoch
        at = bisect_left(self._boundaries, (since_epoch,))
        frames = self._records[self._boundaries[at][1]:] if at < len(self._boundaries) else []
        rng.shuffle(frames)
        return feed_epoch, frames

    def fetch_feed(self, since_epoch: int, rng) -> PublishedFeed:
        """``feed_frames`` as a feed."""
        feed_epoch, frames = self.feed_frames(since_epoch, rng)
        return PublishedFeed.from_frames(frames, feed_epoch)

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
    def replay_log(cls, log_path, authority: HealthAuthority) -> "TracingServer":
        """Rebuild the published store from an append-only log, which
        is created empty if it is missing.

        Upload counters other than record totals are not part of the
        log (they would group records) and restart at zero.
        """
        server = cls(authority, log_path=log_path)
        _, server._boundaries, server._records = read_log(log_path)
        return server
