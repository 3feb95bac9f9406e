"""Health authority: issues and verifies single-use TANs.

The authority never sees encounter tokens.  Its state is the live TANs
alone: the value and expiry of each TAN issued and not yet verified.
A verified TAN is dropped, an expired one is dropped at the next issue,
and the context a TAN is issued for is not kept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import takewhile

TAN_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
TAN_LENGTH = 12
#: Lifetime of a TAN the served authority issues (``tracecorona serve``):
#: one hour on the process's monotonic clock.
SERVED_TAN_EXPIRY_SECONDS = 3600


@dataclass
class Tan:
    value: str
    expires_at: float | None = None


class HealthAuthority:
    """Issues TANs to verified-infected users and consumes them on
    behalf of the tracing server.

    Verification is an atomic check-and-consume guarded by a lock, so
    concurrent verifications of the same TAN accept at most once.
    """

    def __init__(self, rng, expiry_seconds: int | None = None):
        self._rng = rng
        self._expiry_seconds = expiry_seconds
        #: value -> expiry time (None: never) of each live TAN, in issue order
        self._live: dict[str, float | None] = {}
        self._lock = threading.Lock()

    def issue_tan(self, user_context: str, now: float) -> Tan:
        """A fresh TAN, unique among the live ones.  ``user_context``
        names who it is issued for; the authority does not keep it.
        The TANs expired at ``now`` are dropped first: with ``now`` not
        going back, issue order is expiry order, so they are the oldest."""
        with self._lock:
            if self._expiry_seconds is not None:
                expired = list(takewhile(lambda v: self._live[v] < now, self._live))
                for value in expired:
                    del self._live[value]
            while True:
                value = "".join(
                    TAN_ALPHABET[self._rng.randrange(len(TAN_ALPHABET))]
                    for _ in range(TAN_LENGTH)
                )
                if value not in self._live:
                    break
            expires = (
                now + self._expiry_seconds if self._expiry_seconds is not None else None
            )
            self._live[value] = expires
            return Tan(value=value, expires_at=expires)

    def verify_tan(self, value: str, now: float | None = None) -> bool:
        """Accept iff the TAN is live and unexpired; an accepted TAN is
        consumed and dropped."""
        with self._lock:
            if value not in self._live:
                return False
            expires = self._live[value]
            if expires is not None and now is not None and now > expires:
                return False
            del self._live[value]
            return True
