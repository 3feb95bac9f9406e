"""Health authority: issues and verifies single-use TANs.

The authority never sees encounter tokens; its state is limited to the
TANs themselves plus the opaque context they were issued for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

TAN_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
TAN_LENGTH = 12


@dataclass
class Tan:
    value: str
    issued_at: int
    consumed: bool = False
    user_context: str = ""
    expires_at: int | None = field(default=None)


class HealthAuthority:
    """Issues TANs to verified-infected users and consumes them on
    behalf of the tracing server.

    Verification is an atomic check-and-consume guarded by a lock, so
    concurrent verifications of the same TAN accept at most once.
    """

    def __init__(self, rng, expiry_seconds: int | None = None):
        self._rng = rng
        self._expiry_seconds = expiry_seconds
        self._tans: dict[str, Tan] = {}
        self._lock = threading.Lock()

    def issue_tan(self, user_context: str, now: int) -> Tan:
        with self._lock:
            while True:
                value = "".join(
                    TAN_ALPHABET[self._rng.randrange(len(TAN_ALPHABET))]
                    for _ in range(TAN_LENGTH)
                )
                if value not in self._tans:
                    break
            expires = (
                now + self._expiry_seconds if self._expiry_seconds is not None else None
            )
            tan = Tan(
                value=value,
                issued_at=now,
                user_context=user_context,
                expires_at=expires,
            )
            self._tans[value] = tan
            return tan

    def verify_tan(self, value: str, now: int | None = None) -> bool:
        """Accept iff the TAN was issued, is unexpired, and has not been
        consumed; consumes it on acceptance."""
        with self._lock:
            tan = self._tans.get(value)
            if tan is None or tan.consumed:
                return False
            if (
                tan.expires_at is not None
                and now is not None
                and now > tan.expires_at
            ):
                return False
            tan.consumed = True
            return True
