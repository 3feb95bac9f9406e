"""Exposure engine: feed matching, risk scores, redaction, proofs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import match_oracle
from tracecorona import crypto, exposure
from tracecorona.crypto import EncounterToken
from tracecorona.device import TokenStore
from tracecorona.exposure import NotificationLevel
from tracecorona.wire import PublishedFeed, Tag, TokenUploadRecord, encode_record


def token_with(secret, start_time, duration=600, rssi=-55.0, frame=None):
    return EncounterToken(
        secret=secret,
        start_time=start_time,
        duration=duration,
        max_signal_strength=rssi,
        frame_index=frame if frame is not None else start_time // 900,
    )


def store_of(tokens):
    store = TokenStore()
    for i, token in enumerate(tokens):
        store.add(token.frame_index, i.to_bytes(16, "big"), token)
    return store


def record_from(secret, remote_time, tag=Tag.DIRECT):
    return TokenUploadRecord(
        hash=crypto.token_hash(secret),
        ciphertext=crypto.encrypt_metadata(secret, remote_time),
        tag=tag,
    )


def feed_of(records, epoch=0):
    """A fetched feed holding the records' frames in order."""
    return PublishedFeed.from_frames([encode_record(r) for r in records], epoch)


class TestMatchFeed:
    def test_empty_feed(self):
        store = store_of([token_with(bytes(32), 1000)])
        assert exposure.match_feed(store, feed_of([]), 30) == []

    def test_honest_match(self):
        secret = random.Random(1).randbytes(32)
        store = store_of([token_with(secret, 5000)])
        feed = feed_of([record_from(secret, 5010)])
        (note,) = exposure.match_feed(store, feed, 30)
        assert note.level is NotificationLevel.DIRECT
        assert note.encounter_time == 5000
        assert note.matched_hash == crypto.token_hash(secret)

    def test_notification_carries_the_store_token(self):
        rng = random.Random(2)
        secret = rng.randbytes(32)
        tokens = [token_with(rng.randbytes(32), 5000), token_with(secret, 5000)]
        (note,) = exposure.match_feed(store_of(tokens), feed_of([record_from(secret, 5010)]), 30)
        assert note.token is tokens[1]

    def test_relayed_timestamp_rejected(self):
        secret = random.Random(2).randbytes(32)
        store = store_of([token_with(secret, 5000)])
        feed = feed_of([record_from(secret, 5600)])
        assert exposure.match_feed(store, feed, 30) == []

    def test_epsilon_boundary_inclusive(self):
        secret = random.Random(3).randbytes(32)
        store = store_of([token_with(secret, 5000)])
        assert exposure.match_feed(store, feed_of([record_from(secret, 5030)]), 30)
        assert not exposure.match_feed(store, feed_of([record_from(secret, 5031)]), 30)

    def test_second_level_and_superspreader_labels(self):
        rng = random.Random(4)
        s1, s2 = rng.randbytes(32), rng.randbytes(32)
        store = store_of([token_with(s1, 100), token_with(s2, 200)])
        feed = feed_of(
            [
                record_from(s1, 100, Tag.SECOND_LEVEL),
                record_from(s2, 200, Tag.POSSIBLE_SUPERSPREADER),
            ]
        )
        notes = exposure.match_feed(store, feed, 30)
        by_time = {n.encounter_time: n for n in notes}
        assert by_time[100].level is NotificationLevel.SECOND_LEVEL
        assert not by_time[100].superspreader_flag
        assert by_time[200].level is NotificationLevel.DIRECT
        assert by_time[200].superspreader_flag

    def test_matches_bruteforce_oracle_small(self):
        rng = random.Random(5)
        tokens, records = [], []
        for i in range(40):
            secret = rng.randbytes(32)
            tokens.append(token_with(secret, rng.randrange(10_000)))
            if i % 2 == 0:
                delta = rng.choice([-40, -30, -5, 0, 5, 30, 40])
                records.append(record_from(secret, tokens[-1].start_time + delta))
        for _ in range(10):
            records.append(record_from(rng.randbytes(32), rng.randrange(10_000)))
        got = exposure.match_feed(store_of(tokens), feed_of(records), 30)
        assert got == match_oracle.match_feed_records(tokens, records, 30)

    def test_epsilon_monotone(self):
        rng = random.Random(6)
        tokens = []
        records = []
        for _ in range(30):
            secret = rng.randbytes(32)
            t = rng.randrange(1_000, 10_000)
            tokens.append(token_with(secret, t))
            records.append(record_from(secret, t + rng.randrange(-120, 121)))
        store = store_of(tokens)
        feed = feed_of(records)
        previous = set()
        for epsilon in (1, 10, 30, 60, 120):
            current = {
                (n.matched_hash, n.encounter_time)
                for n in exposure.match_feed(store, feed, epsilon)
            }
            assert previous <= current
            previous = current

    @given(epsilons=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_epsilon_monotone_property(self, epsilons):
        e1, e2 = sorted(epsilons)
        rng = random.Random(42)
        secret = rng.randbytes(32)
        store = store_of([token_with(secret, 5000)])
        feed = feed_of([record_from(secret, 5000 + delta) for delta in (-90, -30, 0, 45, 200)])
        small = {n.encounter_time for n in exposure.match_feed(store, feed, max(e1, 1))}
        large = {n.encounter_time for n in exposure.match_feed(store, feed, max(e2, 1))}
        assert small <= large

    @settings(max_examples=100, deadline=None)
    @given(
        token_specs=st.lists(
            st.tuples(
                st.integers(0, 3),  # secret
                st.integers(0, 3),  # start time slot
                st.integers(60, 900),  # duration
                st.sampled_from([-50.0, -70.0, -90.0]),  # signal strength
            ),
            max_size=8,
        ),
        record_specs=st.lists(
            st.tuples(
                st.integers(0, 4),  # secret of the hash; 4 is in no token
                st.booleans(),  # ciphertext under another secret
                st.integers(0, 3),  # remote time slot
                st.sampled_from([-31, -30, 0, 30, 31]),  # remote time offset
                st.lists(st.sampled_from(list(Tag)), min_size=1, max_size=3),
            ),
            max_size=10,
        ),
        draws=st.randoms(use_true_random=False),
    )
    def test_frames_match_the_record_oracle(self, token_specs, record_specs, draws):
        """Matching a feed's frames gives the record-based oracle's
        notifications in full and in order: tokens sharing a hash, and
        copies of one record that differ only by tag, whose notifications
        tie on the sort key and keep feed order."""
        secrets = [random.Random(i).randbytes(32) for i in range(5)]
        tokens = [
            token_with(secrets[s], 1000 + 10 * slot, duration, rssi)
            for s, slot, duration, rssi in token_specs
        ]
        records = []
        for s, forged, slot, delta, tags in record_specs:
            key = secrets[(s + 1) % 5] if forged else secrets[s]
            ciphertext = crypto.encrypt_metadata(key, 1000 + 10 * slot + delta)
            h = crypto.token_hash(secrets[s])
            records += [TokenUploadRecord(h, ciphertext, tag) for tag in tags]
        draws.shuffle(records)
        got = exposure.match_feed(store_of(tokens), feed_of(records), 30)
        assert got == match_oracle.match_feed_records(tokens, records, 30)

    def test_no_false_matches_100k_random_tokens(self):
        rng = random.Random(7)
        feed = feed_of([record_from(rng.randbytes(32), 1000) for _ in range(20)])
        feed_hashes = {frame[:16] for frame in feed.frames}
        hits = 0
        for _ in range(100_000):
            if crypto.token_hash(rng.randbytes(32)) in feed_hashes:
                hits += 1
        assert hits == 0

    def test_deferred_tokens_skipped(self):
        pending = token_with(None, 1000)
        store = store_of([pending])
        assert exposure.match_feed(store, feed_of([]), 30) == []

    def test_output_ordering(self):
        rng = random.Random(8)
        tokens = [token_with(rng.randbytes(32), t) for t in (300, 100, 200)]
        records = [record_from(t.secret, t.start_time) for t in tokens]
        notes = exposure.match_feed(store_of(tokens), feed_of(records), 30)
        assert [n.encounter_time for n in notes] == [100, 200, 300]


class TestRiskScore:
    def test_zero_duration(self):
        assert exposure.risk_score(0, -40.0) == 0.0

    def test_documented_values(self):
        assert exposure.risk_score(900, -55.0) == 15.0
        assert exposure.risk_score(900, -80.0) == 3.75
        assert exposure.risk_score(900, -70.0) == 7.5

    def test_monotone_in_duration_and_rssi(self):
        for rssi in (-90.0, -70.0, -50.0):
            assert exposure.risk_score(600, rssi) <= exposure.risk_score(900, rssi)
        for duration in (60, 600, 3600):
            assert (
                exposure.risk_score(duration, -90.0)
                <= exposure.risk_score(duration, -70.0)
                <= exposure.risk_score(duration, -50.0)
            )

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            exposure.risk_score(-1, -50.0)


class TestSuperspreaderCandidate:
    def build(self, n_matches):
        rng = random.Random(9)
        tokens = [token_with(rng.randbytes(32), 100 * i) for i in range(n_matches)]
        store = store_of(tokens)
        notes = exposure.match_feed(
            store, feed_of([record_from(t.secret, t.start_time) for t in tokens]), 30
        )
        return store, notes, tokens

    def test_three_distinct_gives_bundle(self):
        store, notes, tokens = self.build(3)
        hashes = {n.matched_hash for n in notes}
        bundle = exposure.detect_superspreader_candidate(store, hashes)
        assert sorted(bundle) == sorted(t.secret for t in tokens)
        assert exposure.detect_superspreader_candidate(store, set()) == []

    def test_counts_per_record_not_per_uploader(self):
        # two records from the same uploader batch still count separately
        rng = random.Random(10)
        tokens = [token_with(rng.randbytes(32), 100 * i) for i in range(3)]
        store = store_of(tokens)
        records = [record_from(t.secret, t.start_time) for t in tokens]
        notes = exposure.match_feed(store, feed_of(records), 30)
        hashes = {n.matched_hash for n in notes}
        assert len(exposure.detect_superspreader_candidate(store, hashes)) == 3


class TestRedaction:
    def test_identity_predicate(self):
        rng = random.Random(11)
        tokens = [token_with(rng.randbytes(32), 100 * i) for i in range(5)]
        store = store_of(tokens)
        view = exposure.redact_tokens(store, lambda t: False)
        assert sorted(t.start_time for t in view) == [0, 100, 200, 300, 400]
        assert len(store) == 5

    def test_short_encounters_filtered(self):
        rng = random.Random(12)
        short = token_with(rng.randbytes(32), 0, duration=300)
        long = token_with(rng.randbytes(32), 1000, duration=1200)
        store = store_of([short, long])
        view = exposure.redact_tokens(store, lambda t: t.duration < 600)
        assert view == [long]
        assert len(store) == 2


class TestBuildUploadRecords:
    def test_round_trip_through_matching(self):
        rng = random.Random(13)
        token = token_with(rng.randbytes(32), 7777)
        records = exposure.build_upload_records([token])
        assert len(records) == 1
        (note,) = exposure.match_feed(
            store_of([token]), feed_of(records), 30
        )
        assert note.encounter_time == 7777
