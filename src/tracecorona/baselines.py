"""Generic centralized and decentralized baseline schemes.

These are the attack-comparison targets: a centralized scheme where the
server derives and matches temporary identifiers (with an optional
BlueTrace-style master-key variant), and a decentralized daily-key
scheme where clients match published keys locally.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import crypto

#: Length of a centralized identifier interval: 15 minutes.
CENTRAL_INTERVAL_SECONDS = 900

#: Observations match a published identifier when they fall inside its
#: 10-minute validity slot widened by this many seconds on either side.
DEFAULT_REPLAY_WINDOW = 7200


class Observation(NamedTuple):
    """A broadcast identifier as recorded by a listening device."""

    tempid: bytes
    time: int
    rssi: float


class Run(NamedTuple):
    """A sighting run as a listening device holds it: one identifier
    heard at one RSSI at each local second of ``times`` (increasing),
    that is the observations ``(tempid, t, rssi) for t in times``.  The
    seconds may skip the duty-cycle gaps and lost beacons, so ``times``
    is a ``range`` only when the run is contiguous and lost nothing; the
    simulator holds a packed ``array('q')``, never a list of boxed ints.
    Readers index, bisect, measure and iterate it.  ``provenance`` is the
    holder's note of where the beacons came from, which runs may share;
    matching never reads it."""

    tempid: bytes
    times: Sequence[int]
    rssi: float
    provenance: object = None


def run_interval(run: Run) -> int:
    """The centralized interval a held run lies in, that of its first
    second: the radio cuts runs wherever the holder's identifier changes."""
    return run.times[0] // CENTRAL_INTERVAL_SECONDS


@dataclass(frozen=True)
class DecentralizedDailyKey:
    tek: bytes
    day: int

    @cached_property
    def tempids(self) -> list[bytes]:
        """The day's 144 slot identifiers in slot order, derived once per
        key object; broadcasting, matching and linkability share them."""
        return crypto.derive_tempids_decentralized(self.tek, self.day)


class BaselineMatch(NamedTuple):
    """A published key's client-side match: its first heard slot identifier."""

    key: "DecentralizedDailyKey"
    slot: int
    observation: Observation


# -- centralized scheme -------------------------------------------------------


class CentralizedServer:
    """Tracing provider of the centralized baseline.

    Holds the full pseudonym registry, so it can rederive every user's
    identifiers and reconstruct who met whom; that power is the privacy
    weakness the comparison scenarios demonstrate.  Of an upload it keeps
    only that graph's edges, until ``forget_before`` drops its day.
    """

    def __init__(self, rng, bluetrace: bool = False):
        self._rng = rng
        self.bluetrace = bluetrace
        self._master_key = rng.randbytes(32) if bluetrace else None
        #: user id -> the user's identifiers by interval, each derived once
        self._registry: dict[bytes, dict[int, bytes]] = {}
        #: (infected uploader, matched user) -> day of the upload
        self._edges: dict[tuple[bytes, bytes], int] = {}

    def register(self) -> bytes:
        while True:
            user_id = self._rng.randbytes(16)
            if user_id not in self._registry:
                break
        self._registry[user_id] = {}
        return user_id

    def tempid_for(self, user_id: bytes, t_k: int) -> bytes:
        """Identifier of a registered user for interval ``t_k``.

        In the BlueTrace variant only the server can compute this; in
        the plain variant clients rederive it from their pseudonym.
        Each identifier is derived once and kept in the user's registry
        entry, so BlueTrace IVs are drawn in first-request order.
        """
        tempids = self._registry.get(user_id)
        if tempids is None:
            raise KeyError("unknown user")
        tempid = tempids.get(t_k)
        if tempid is None:
            if self.bluetrace:
                tempid = crypto.derive_tempid_bluetrace(
                    user_id, t_k, self._rng.randbytes(16), b"auth", self._master_key
                )
            else:
                tempid = crypto.derive_tempid_centralized(user_id, t_k)
            tempids[t_k] = tempid
        return tempid

    def match(self, runs: list[Run]) -> list[bytes]:
        """UserIDs whose derived identifiers equal the uploaded ones in
        the uploaded intervals.  The uploader is TAN-verified upstream.
        The upload is indexed by ``run_interval`` once: a user costs one
        identifier per distinct uploaded interval."""
        by_interval: dict[int, set[bytes]] = {}
        for run in runs:
            by_interval.setdefault(run_interval(run), set()).add(run.tempid)
        return [
            user_id
            for user_id in self._registry
            if any(self.tempid_for(user_id, t_k) in heard for t_k, heard in by_interval.items())
        ]

    def ingest_upload(self, uploader: bytes, runs: list[Run], day: int) -> list[bytes]:
        """Match an infected user's upload of held runs, keep the edges it
        adds to the contact graph, and return the matched contacts to
        notify."""
        matched = self.match(runs)
        self._edges.update(((uploader, user_id), day) for user_id in matched)
        return matched

    def forget_before(self, day: int, interval: int) -> None:
        """Drop the edges of uploads made before ``day`` and the
        identifiers of intervals before ``interval``."""
        self._edges = {edge: d for edge, d in self._edges.items() if d >= day}
        for user_id, tempids in self._registry.items():
            self._registry[user_id] = {t_k: i for t_k, i in tempids.items() if t_k >= interval}

    def contact_edges(self) -> set[tuple[bytes, bytes]]:
        """The encounter graph the server can reconstruct from its own
        state: one edge per (infected uploader, matched user)."""
        return set(self._edges)


# -- decentralized scheme -----------------------------------------------------


@dataclass
class DecentralizedServer:
    """Pass-through key publisher of the decentralized baseline.  Keys
    are numbered in the order published, so a reader that keeps the count
    it has read gets each later key once, whatever ``forget_before`` drops."""

    #: number -> key, for the keys still held
    published: dict[int, DecentralizedDailyKey] = field(default_factory=dict, init=False)
    #: keys ever published
    count: int = field(default=0, init=False)

    def publish(self, teks: list[DecentralizedDailyKey]) -> None:
        self.published.update(enumerate(teks, self.count))
        self.count += len(teks)

    def download(self, since: int = 0) -> list[DecentralizedDailyKey]:
        """The held keys numbered ``since`` or later, in publication order."""
        return [self.published[n] for n in range(since, self.count) if n in self.published]

    def forget_before(self, day: int) -> None:
        """Drop the keys of days before ``day``."""
        self.published = {n: key for n, key in self.published.items() if key.day >= day}


def new_daily_key(identity_seed: bytes, day: int) -> DecentralizedDailyKey:
    """Deterministic per-device daily key for simulation use."""
    tek = hashlib.sha256(b"tc-tek" + identity_seed + day.to_bytes(8, "big")).digest()[
        :16
    ]
    return DecentralizedDailyKey(tek=tek, day=day)


def tempid_at(key: DecentralizedDailyKey, local_time: int) -> bytes:
    """The identifier a device broadcasts at a local time within the
    key's day."""
    slot = (local_time % 86400) // crypto.DECENTRALIZED_SLOT_SECONDS
    return crypto.derive_tempid_decentralized(key.tek, key.day, slot)


def match_observations(
    teks: list[DecentralizedDailyKey],
    runs: list[Run],
    replay_window: int = DEFAULT_REPLAY_WINDOW,
    kiss_bug: bool = False,
) -> list[BaselineMatch]:
    """Client-side matching of published daily keys against recorded
    sighting runs: at most one match per entry of ``teks``, in order.

    An observation matches when its identifier appears among a key's
    derived slot identifiers and its timestamp lies within the slot's
    validity widened by ``replay_window`` seconds.  With ``kiss_bug``
    set, any observation made on the key's own day matches regardless
    of slot timing (the same-day acceptance flaw).  A key's match is
    its first heard second in run order: the earliest matching second
    of the first run that holds one.  The runs are indexed by
    identifier once, so each key costs its 144 lookups, and a run's
    matching seconds are one stretch of its times, found by bisection.
    """
    positions: dict[bytes, list[int]] = {}
    for i, run in enumerate(runs):
        positions.setdefault(run.tempid, []).append(i)
    matches = []
    for key in teks:
        hits = sorted(
            (i, slot) for slot, tempid in enumerate(key.tempids) for i in positions.get(tempid, ())
        )
        day_start = key.day * 86400
        for i, slot in hits:
            run = runs[i]
            slot_start = day_start + slot * crypto.DECENTRALIZED_SLOT_SECONDS
            first = slot_start - replay_window
            last = slot_start + crypto.DECENTRALIZED_SLOT_SECONDS + replay_window
            if kiss_bug:
                # the slot lies within its day, so the widened slot and the
                # day overlap: their union is one stretch
                first, last = min(first, day_start), max(last, day_start + 86399)
            times = run.times
            at = bisect.bisect_left(times, first)
            if at < len(times) and times[at] <= last:
                heard = Observation(run.tempid, times[at], run.rssi)
                matches.append(BaselineMatch(key, slot, heard))
                break
    return matches


def provenance_lookup(runs: list[Run]):
    """``lookup(tempid, t)``: the provenance of the last of ``runs`` that
    holds the observation of ``tempid`` at local second ``t``, as a dict
    written once per observation in run order would hold it.  Raises
    ``KeyError`` for an observation no run holds."""
    newest_first: dict[bytes, list[Run]] = {}
    for run in reversed(runs):
        newest_first.setdefault(run.tempid, []).append(run)

    def lookup(tempid: bytes, t: int):
        for run in newest_first.get(tempid, ()):
            i = bisect.bisect_left(run.times, t)
            if i < len(run.times) and run.times[i] == t:
                return run.provenance
        raise KeyError((tempid, t))

    return lookup
