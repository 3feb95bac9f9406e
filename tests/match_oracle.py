"""Naive matching used only as a test oracle.

``match_observations`` scans every (published key, observation) pair,
as the first implementation of ``baselines.match_observations`` did, so
that the identifier-indexed version can be checked against a second
implementation of the same rule; ``expand`` turns sighting runs into
the observations that version took, one per beacon.  ``match_feed_records`` scans every
(feed record, token) pair on record objects, as ``exposure.match_feed``
did before it read frames.
"""

from tracecorona import crypto, exposure
from tracecorona.baselines import BaselineMatch, Observation
from tracecorona.exposure import ExposureNotification, NotificationLevel
from tracecorona.wire import Tag

DAY = 86400


def expand(runs):
    """One observation per second of each run, in run order."""
    return [Observation(run.tempid, t, run.rssi) for run in runs for t in run.times]


def match_observations(teks, observations, replay_window, kiss_bug):
    matches = []
    for key in teks:
        derived = crypto.derive_tempids_decentralized(key.tek, key.day)
        slots = {tempid: slot for slot, tempid in enumerate(derived)}
        for obs in observations:
            slot = slots.get(obs.tempid)
            if slot is None:
                continue
            slot_start = key.day * DAY + slot * crypto.DECENTRALIZED_SLOT_SECONDS
            slot_end = slot_start + crypto.DECENTRALIZED_SLOT_SECONDS
            in_window = slot_start - replay_window <= obs.time <= slot_end + replay_window
            if in_window or (kiss_bug and obs.time // DAY == key.day):
                matches.append(BaselineMatch(key, slot, obs))
    return matches


#: The notification level and superspreader flag each tag is published as.
LEVELS = {
    Tag.DIRECT: (NotificationLevel.DIRECT, False),
    Tag.SECOND_LEVEL: (NotificationLevel.SECOND_LEVEL, False),
    Tag.POSSIBLE_SUPERSPREADER: (NotificationLevel.DIRECT, True),
}


def match_feed_records(tokens, records, epsilon):
    """The notifications ``exposure.match_feed`` gives for a store holding
    ``tokens`` (in store order) and a feed of ``records`` (in feed order):
    every matching (record, token) pair in feed order, then token order,
    stably sorted by encounter time, hash and level."""
    hits = []
    hashes = [t.secret is not None and crypto.token_hash(t.secret) for t in tokens]
    for record in records:
        for token, h in zip(tokens, hashes):
            if h != record.hash:
                continue
            try:
                remote = crypto.decrypt_metadata(token.secret, record.ciphertext)
            except crypto.AuthenticationFailure:
                continue
            if abs(remote - token.start_time) > epsilon:
                continue
            level, flagged = LEVELS[record.tag]
            hits.append(ExposureNotification(
                matched_hash=record.hash,
                level=level,
                superspreader_flag=flagged,
                encounter_time=token.start_time,
                duration=token.duration,
                risk_score=exposure.risk_score(token.duration, token.max_signal_strength),
                token=token,
            ))
    hits.sort(key=lambda n: (n.encounter_time, n.matched_hash, n.level.value))
    return hits
