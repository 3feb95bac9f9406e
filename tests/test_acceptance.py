"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import json
import random
import threading
import time
from contextlib import contextmanager
from importlib import resources

from scipy import stats as scipy_stats

from tracecorona import crypto, exposure, payload
from tracecorona.authority import HealthAuthority
from tracecorona.crypto import EncounterToken
from tracecorona.device import Device, TokenStore
from tracecorona.server import TracingServer
from tracecorona.simnet.config import ScenarioConfig
from tracecorona.simnet.engine import run_scenario
from tracecorona.wire import PublishedFeed, Tag, TokenUploadRecord, encode_record

DAY = 86400


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{text}]: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} [{text}]: PASS", flush=True)


def frames(records):
    """The records' wire frames, as an upload hands them to the server."""
    return [encode_record(r) for r in records]


def bundled(name, **overrides):
    data = json.loads(
        (resources.files("tracecorona") / "scenarios" / f"{name}.json").read_text()
    )
    config = ScenarioConfig.from_dict(data)
    if overrides:
        config = config.replace(**overrides)
    return config


def test_criterion_1_token_agreement():
    with criterion(1, "token agreement, 1000 handshakes, <10s"):
        rng = random.Random(123)
        started = time.monotonic()
        for i in range(1000):
            a = Device(f"a{i}", rng.randbytes(32), clock_offset=rng.randrange(-5, 6))
            b = Device(f"b{i}", rng.randbytes(32), clock_offset=rng.randrange(-5, 6))
            now = rng.randrange(0, 10_000) * 900 + rng.randrange(60, 840)
            frame_a, frame_b = a.current_frame(now), b.current_frame(now)
            token_a = a.complete_handshake(
                b.keypair(frame_b).public_key, frame_b, now,
                peer_ephemeral_id=b.ephemeral_id(frame_b), peer_hint=b.device_id,
            )
            token_b = b.complete_handshake(
                a.keypair(frame_a).public_key, frame_a, now,
                peer_ephemeral_id=a.ephemeral_id(frame_a), peer_hint=a.device_id,
            )
            assert token_a.secret == token_b.secret
            assert len(token_a.secret) == 32
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_payload_arithmetic():
    with criterion(2, "payload arithmetic, 14x20x128 bits and 44.8 MB vs 43 MB"):
        assert payload.upload_hash_payload_bits(14, 20) == 35_840
        assert payload.upload_hash_payload_bytes(14, 20) == 4_480

        # a real 14x20 upload carries exactly that hash payload
        ha = HealthAuthority(random.Random(0))
        server = TracingServer(ha)
        rng = random.Random(1)
        records = []
        for i in range(14 * 20):
            secret = rng.randbytes(32)
            records.append(
                TokenUploadRecord(
                    hash=crypto.token_hash(secret),
                    ciphertext=crypto.encrypt_metadata(secret, 1_600_000_000 + i),
                )
            )
        tan = ha.issue_tan("u", 0)
        assert server.upload_infected(tan.value, frames(records)).accepted
        feed = server.fetch_feed(0, random.Random(0))
        hash_bits = sum(len(r.hash) for r in feed.records) * 8
        assert hash_bits == 35_840

        assert payload.daily_feed_hash_payload_bytes(10_000) == 44_800_000
        notes = run_scenario(bundled("honest_pair")).payload_notes
        assert notes["daily_feed_nominal_mb"] == 44.8
        assert notes["daily_feed_rounded_mb"] == 43.0
        assert notes["upload_rounded_kb"] == 4.3
        assert "round" in notes["rounding_note"]


def test_criterion_3_relay_resistance():
    with criterion(3, "relay R1 one-way and R2 two-way bounded fan-out, <30s each"):
        started = time.monotonic()
        r1_dec = run_scenario(bundled("relay_r1"))
        assert r1_dec.scheme == "decentralized"
        assert r1_dec.false_notification_count >= 1
        assert r1_dec.attack_success_rate > 0
        assert time.monotonic() - started < 30

        started = time.monotonic()
        r1_tc = run_scenario(bundled("relay_r1", scheme="tracecorona"))
        assert r1_tc.false_notification_count == 0
        assert r1_tc.attack_success_rate == 0
        assert time.monotonic() - started < 30

        started = time.monotonic()
        r2 = run_scenario(bundled("relay_r2"))
        assert r2.scheme == "tracecorona"
        assert r2.false_notification_count > 0
        assert max(r2.relay_fanout.values()) <= 8
        assert time.monotonic() - started < 30


def test_criterion_4_kiss_replay():
    with criterion(4, "KISS same-day replay, bug on/off"):
        buggy = run_scenario(bundled("kiss_replay"))
        assert buggy.false_notification_count >= 1
        fixed = run_scenario(bundled("kiss_replay", kiss_bug=False))
        assert fixed.false_notification_count == 0


def test_criterion_5_fake_exposure_claims():
    with criterion(5, "possession proofs: 10^4 forged rejected, 100 genuine accepted"):
        forged = run_scenario(bundled("fake_claim"))
        detail = forged.attack_details["0"]
        assert detail["attempts"] == 10_000
        assert detail["successes"] == 0
        assert forged.attack_success_rate == 0.0

        ha = HealthAuthority(random.Random(2))
        server = TracingServer(ha)
        rng = random.Random(3)
        secrets = [rng.randbytes(32) for _ in range(100)]
        records = [
            TokenUploadRecord(
                hash=crypto.token_hash(s),
                ciphertext=crypto.encrypt_metadata(s, 1_600_000_000),
            )
            for s in secrets
        ]
        tan = ha.issue_tan("u", 0)
        assert server.upload_infected(tan.value, frames(records)).accepted
        accepted = sum(
            server.upload_second_level(s, []).accepted for s in secrets
        )
        assert accepted == 100

        baseline = run_scenario(bundled("fake_claim", scheme="decentralized"))
        assert baseline.attack_success_rate == 1.0


def test_criterion_6_eavesdropper_linkability():
    with criterion(6, "linkability: <=900s tracked vs full TEK-day recovery"):
        tc = run_scenario(bundled("eavesdropper"))
        assert max(tc.max_linkability_window_s.values()) <= 900

        dec = run_scenario(bundled("eavesdropper_decentralized"))
        recovered = dec.linkability_recovered["walker"]
        truth = dec.gt_day_identifiers["walker"]
        assert "3" in recovered
        for day, identifiers in recovered.items():
            assert len(identifiers) == 144
            assert identifiers == truth[day]
        # the sensor day is linked nearly end to end
        assert dec.max_linkability_window_s["walker"] > 80_000


def test_criterion_7_timeline_reproduction():
    with criterion(7, "5-day notification delay; second-level warned same day"):
        control = run_scenario(bundled("timeline_chain"))
        early = run_scenario(bundled("timeline_chain_early"))

        # contagiousness onset of the index case is day 3
        assert control.notification_latency_days["first_contact"] == 5
        assert control.first_notification_day["first_contact"] == 8

        assert early.first_notification_day["second_contact"] == (
            early.first_notification_day["first_contact"]
        )
        gained = (
            control.first_notification_day["second_contact"]
            - early.first_notification_day["second_contact"]
        )
        assert gained >= 2
        # warned at second level the day first_contact is notified, then
        # directly once first_contact uploads their shared token
        notified = [n for n in early.notifications if n["device"] == "second_contact"]
        assert notified[0]["level"] == "second_level"
        assert notified[0]["day"] == early.first_notification_day["first_contact"]
        assert any(
            n["level"] == "direct" and n["source"] == "first_contact" for n in notified[1:]
        )


def _oracle_match(tokens, records, epsilon):
    hits = []
    hashes = [crypto.token_hash(t.secret) for t in tokens]
    for record in records:
        for token, h in zip(tokens, hashes):
            if h != record.hash:
                continue
            try:
                remote = crypto.decrypt_metadata(token.secret, record.ciphertext)
            except crypto.AuthenticationFailure:
                continue
            if abs(remote - token.start_time) <= epsilon:
                hits.append((record.hash, token.start_time))
    return sorted(hits)


def test_criterion_8_matching_oracle_equivalence():
    with criterion(8, "match_feed vs brute-force double loop, 100 instances"):
        rng = random.Random(2718)
        for _ in range(100):
            n_tokens = rng.randrange(0, 1001)
            n_records = rng.randrange(0, 1001)
            tokens = []
            for _ in range(n_tokens):
                tokens.append(
                    EncounterToken(
                        secret=rng.randbytes(32),
                        start_time=rng.randrange(10**6, 2 * 10**6),
                        duration=rng.randrange(300, 1800),
                        max_signal_strength=-55.0,
                        frame_index=0,
                    )
                )
            records = []
            planted = rng.sample(tokens, min(n_tokens, rng.randrange(0, 20)))
            for token in planted:
                delta = rng.choice([-600, -31, -30, -1, 0, 1, 29, 30, 31, 600])
                records.append(
                    TokenUploadRecord(
                        hash=crypto.token_hash(token.secret),
                        ciphertext=crypto.encrypt_metadata(
                            token.secret, token.start_time + delta
                        ),
                        tag=Tag(rng.randrange(3)),
                    )
                )
            while len(records) < n_records:
                records.append(
                    TokenUploadRecord(
                        hash=rng.randbytes(16),
                        ciphertext=rng.randbytes(36),
                    )
                )
            rng.shuffle(records)

            store = TokenStore()
            for i, token in enumerate(tokens):
                store.add(token.frame_index, i.to_bytes(16, "big"), token)
            feed = PublishedFeed(records=tuple(records), feed_epoch=0)
            got = sorted(
                (n.matched_hash, n.encounter_time)
                for n in exposure.match_feed(store, feed, 30)
            )
            expected = _oracle_match(tokens, records, 30)
            assert got == expected


def test_criterion_9_determinism_and_tan_single_use():
    with criterion(9, "bundled scenarios byte-identical; TAN single use under stress"):
        names = sorted(
            p.name[:-5]
            for p in (resources.files("tracecorona") / "scenarios").iterdir()
            if p.name.endswith(".json")
        )
        for name in names:
            config = bundled(name)
            first = run_scenario(config)
            second = run_scenario(config)
            assert first.to_json() == second.to_json(), name
            assert first.to_text() == second.to_text(), name

        ha = HealthAuthority(random.Random(0))
        tan = ha.issue_tan("u", 0)
        results = []
        barrier = threading.Barrier(100)

        def worker():
            barrier.wait()
            results.append(ha.verify_tan(tan.value))

        threads = [threading.Thread(target=worker) for _ in range(100)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(results) <= 1


def test_criterion_10_shuffle_unlinkability():
    with criterion(10, "feed shuffle: batch positions uniform at alpha=0.01"):
        ha = HealthAuthority(random.Random(0))
        server = TracingServer(ha)
        rng = random.Random(4)

        def batch(n, t0):
            return [
                TokenUploadRecord(
                    hash=crypto.token_hash(s),
                    ciphertext=crypto.encrypt_metadata(s, t0),
                )
                for s in (rng.randbytes(32) for _ in range(n))
            ]

        batch1 = batch(10, 1_600_000_000)
        batch2 = batch(10, 1_700_000_000)
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(batch1))
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(batch2))
        batch1_hashes = {r.hash for r in batch1}

        counts = [0] * 20
        for seed in range(200):
            feed = server.fetch_feed(0, random.Random(seed))
            for position, record in enumerate(feed.records):
                if record.hash in batch1_hashes:
                    counts[position] += 1
        result = scipy_stats.chisquare(counts)
        assert result.pvalue > 0.01, f"p={result.pvalue}"
