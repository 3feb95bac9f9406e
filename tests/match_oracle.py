"""Naive decentralized matching used only as a test oracle.

Scans every (published key, observation) pair, as the first
implementation of ``baselines.match_observations`` did, so that the
identifier-indexed version can be checked against a second
implementation of the same rule.
"""

from tracecorona import crypto
from tracecorona.baselines import BaselineMatch

DAY = 86400


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
