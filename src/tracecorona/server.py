"""Tracing server: TAN-authenticated record ingestion, possession-proof
verification, shuffled feed distribution, and anonymous aggregates.

Records are stored individually the moment an upload is accepted; no
persisted structure remembers which records arrived together.  An
accepted upload's log lines go out in one write and are fsynced before
the upload is answered.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from . import crypto
from .authority import HealthAuthority
from .wire import (
    PublishedFeed,
    Tag,
    TokenUploadRecord,
    append_log,
    log_epoch_line,
    log_record_line,
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


def _well_formed(record: TokenUploadRecord) -> bool:
    return (
        isinstance(record.hash, bytes)
        and len(record.hash) == 16
        and isinstance(record.ciphertext, bytes)
        and len(record.ciphertext) > 0
    )


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
        self._records: list[tuple[int, TokenUploadRecord]] = []
        self._direct_by_hash: dict[bytes, list[int]] = {}
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

    def _hold(self, entries: list[tuple[int, TokenUploadRecord]]) -> None:
        """Hold (epoch, record) entries, indexing the direct records by hash."""
        for entry in entries:
            record = entry[1]
            if record.tag is Tag.DIRECT:
                self._direct_by_hash.setdefault(record.hash, []).append(len(self._records))
            self._records.append(entry)

    def _store(self, records: list[TokenUploadRecord], tag: Tag) -> UploadResult:
        """Log an accepted upload's records under the tag they are
        published with, then hold them."""
        tagged = [
            r if r.tag is tag else TokenUploadRecord(r.hash, r.ciphertext, tag)
            for r in records
        ]
        if tagged and self._log_path is not None:
            self._append_log([log_record_line(r) for r in tagged])
        self._hold([(self._epoch, r) for r in tagged])
        return UploadResult(True, stored=len(tagged))

    def upload_infected(
        self, tan_value: str, records: list[TokenUploadRecord]
    ) -> UploadResult:
        if not records or not all(_well_formed(r) for r in records):
            return UploadResult(False, REASON_MALFORMED_RECORD)
        with self._ingest_lock:
            if not self.authority.verify_tan(tan_value):
                return UploadResult(False, REASON_INVALID_TAN)
            result = self._store(records, Tag.DIRECT)
            self._infected_uploads += 1
            return result

    def _proof_matches(self, proof: bytes) -> list[int]:
        """Indices of published direct records this proof opens."""
        if len(proof) != 32:
            return []
        matches = []
        for index in self._direct_by_hash.get(crypto.token_hash(proof), []):
            _, record = self._records[index]
            try:
                crypto.decrypt_metadata(proof, record.ciphertext)
            except crypto.AuthenticationFailure:
                continue
            matches.append(index)
        return matches

    def upload_second_level(
        self, possession_proof: bytes, records: list[TokenUploadRecord]
    ) -> UploadResult:
        if records and not all(_well_formed(r) for r in records):
            return UploadResult(False, REASON_MALFORMED_RECORD)
        with self._ingest_lock:
            if not self._proof_matches(possession_proof):
                return UploadResult(False, REASON_NO_MATCHING_TOKEN)
            result = self._store(records, Tag.SECOND_LEVEL)
            self._second_level_uploads += 1
            return result

    def upload_superspreader_proof(
        self, proofs: list[bytes], records: list[TokenUploadRecord]
    ) -> UploadResult:
        if records and not all(_well_formed(r) for r in records):
            return UploadResult(False, REASON_MALFORMED_RECORD)
        with self._ingest_lock:
            if len(proofs) < self.superspreader_threshold:
                return UploadResult(False, REASON_INSUFFICIENT_PROOFS)
            if not self._distinct_assignment(proofs):
                return UploadResult(False, REASON_INSUFFICIENT_PROOFS)
            result = self._store(records, Tag.POSSIBLE_SUPERSPREADER)
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

    def fetch_feed(self, since_epoch: int, rng) -> PublishedFeed:
        """All records ingested at epochs >= since_epoch, in an order
        independent of upload batches: a seeded uniform shuffle."""
        selected = [r for epoch, r in self._records if epoch >= since_epoch]
        rng.shuffle(selected)
        return PublishedFeed(records=tuple(selected), feed_epoch=self._epoch)

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
        server._epoch, entries = read_log(log_path)
        server._hold(entries)
        server._log_path = log_path
        return server
