"""Tracing server: ingestion, possession proofs, feed, stats, log."""

import contextlib
import hashlib
import os
import pathlib
import random
import struct
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from wire_oracle import record_epochs
from tracecorona import crypto, wire
from tracecorona.authority import HealthAuthority
from tracecorona.server import (
    REASON_INSUFFICIENT_PROOFS,
    REASON_INVALID_TAN,
    REASON_MALFORMED_RECORD,
    REASON_NO_MATCHING_TOKEN,
    TracingServer,
)
from tracecorona.wire import Tag, TokenUploadRecord


def make_server(seed=0, log_path=None, threshold=3):
    ha = HealthAuthority(random.Random(seed))
    return TracingServer(ha, superspreader_threshold=threshold, log_path=log_path), ha


def record_for(secret, t=1_600_000_000, tag=Tag.DIRECT):
    return TokenUploadRecord(
        hash=crypto.token_hash(secret),
        ciphertext=crypto.encrypt_metadata(secret, t),
        tag=tag,
    )


def frames(records):
    """The records' wire frames, as an upload hands them to the server."""
    return [wire.encode_record(r) for r in records]


def random_records(rng, n, t0=1_600_000_000):
    out = []
    secrets = []
    for i in range(n):
        secret = rng.randbytes(32)
        secrets.append(secret)
        out.append(record_for(secret, t0 + i))
    return secrets, out


class TestUploadInfected:
    def test_14x20_fixture_accepted(self):
        server, ha = make_server()
        rng = random.Random(1)
        _, records = random_records(rng, 14 * 20)
        tan = ha.issue_tan("u", 0)
        result = server.upload_infected(tan.value, frames(records))
        assert result.accepted and result.stored == 280
        feed = server.fetch_feed(0, random.Random(0))
        assert len(feed.frames) == 280
        assert sum(len(wire.decode_record(f)[0].hash) for f in feed.frames) == 4480

    def test_reused_tan_rejected(self):
        server, ha = make_server()
        rng = random.Random(2)
        _, records = random_records(rng, 3)
        tan = ha.issue_tan("u", 0)
        assert server.upload_infected(tan.value, frames(records)).accepted
        result = server.upload_infected(tan.value, frames(records))
        assert not result.accepted and result.reason == REASON_INVALID_TAN
        assert len(server.fetch_feed(0, random.Random(0)).frames) == 3

    def test_empty_list_rejected(self):
        server, ha = make_server()
        tan = ha.issue_tan("u", 0)
        result = server.upload_infected(tan.value, [])
        assert not result.accepted and result.reason == REASON_MALFORMED_RECORD

    def test_unissued_tan_rejected(self):
        server, _ = make_server()
        _, records = random_records(random.Random(3), 1)
        assert server.upload_infected("NOPE", frames(records)).reason == REASON_INVALID_TAN


def publish(server, ha, secrets_records):
    tan = ha.issue_tan("u", 0)
    assert server.upload_infected(tan.value, frames([r for _, r in secrets_records])).accepted


def tiny_hash(secret):
    """A token hash of 8 bits, so that collisions are easy to find."""
    return hashlib.sha256(b"tc-hash" + secret).digest()[:1] * 16


def tiny_collision(rng):
    """A secret and another whose ``tiny_hash`` equals it."""
    owner = rng.randbytes(32)
    while True:
        candidate = rng.randbytes(32)
        if candidate != owner and tiny_hash(candidate) == tiny_hash(owner):
            return owner, candidate


def tiny_owner_frame(owner):
    """The frame of a direct record of ``owner`` under ``tiny_hash``."""
    return wire.encode_record(TokenUploadRecord(
        hash=tiny_hash(owner), ciphertext=crypto.encrypt_metadata(owner, 123)
    ))


class TestSecondLevel:
    def test_genuine_proof_accepted(self):
        server, ha = make_server()
        secret = random.Random(5).randbytes(32)
        publish(server, ha, [(secret, record_for(secret))])
        rng = random.Random(6)
        _, own = random_records(rng, 4)
        result = server.upload_second_level(secret, frames(own))
        assert result.accepted and result.stored == 4
        feed = server.fetch_feed(0, random.Random(0))
        assert sum(f[-1] == Tag.SECOND_LEVEL for f in feed.frames) == 4

    def test_forgery_sweep_10k(self):
        server, ha = make_server()
        rng = random.Random(7)
        pairs = [(s, record_for(s)) for s in (rng.randbytes(32) for _ in range(20))]
        publish(server, ha, pairs)
        accepted = 0
        for _ in range(10_000):
            if server.upload_second_level(rng.randbytes(32), []).accepted:
                accepted += 1
        assert accepted == 0

    def test_truncation_collision_fails_aead(self, monkeypatch):
        # stub the published hash down to 8 bits so collisions are easy,
        # then show the AEAD check still rejects the colliding non-owner
        monkeypatch.setattr(crypto, "token_hash", tiny_hash)
        server, ha = make_server()
        owner, collider = tiny_collision(random.Random(8))
        tan = ha.issue_tan("u", 0)
        assert server.upload_infected(tan.value, [tiny_owner_frame(owner)]).accepted
        result = server.upload_second_level(collider, [])
        assert not result.accepted
        assert result.reason == REASON_NO_MATCHING_TOKEN
        assert server.upload_second_level(owner, []).accepted


#: Proof secrets for ``TestProofIndex``; the last one is never uploaded.
PROOF_SECRETS = [random.Random(100 + i).randbytes(32) for i in range(5)]
#: A record of a proof secret: its hash, and its metadata at one of two
#: times (equal clocks give equal frames) or sealed under another secret.
proof_records = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0, 1, "forged"])), max_size=4)


def proof_frames(specs):
    frames = []
    for s, sealing in specs:
        key = PROOF_SECRETS[s + 1] if sealing == "forged" else PROOF_SECRETS[s]
        t = 1_600_000_000 + (sealing if sealing != "forged" else 0)
        frames.append(wire.encode_record(TokenUploadRecord(
            crypto.token_hash(PROOF_SECRETS[s]), crypto.encrypt_metadata(key, t)
        )))
    return frames


def opened(server, proof):
    """Indices of the held direct records a proof opens, found by
    trying every held frame."""
    digest = crypto.token_hash(proof)
    found = []
    for index, frame in enumerate(server._records):
        if frame[-1] != Tag.DIRECT or frame[:16] != digest:
            continue
        try:
            crypto.decrypt_metadata(proof, frame[20:-1])
        except crypto.AuthenticationFailure:
            continue
        found.append(index)
    return found


class TestProofIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("infected"), proof_records),
        st.tuples(st.just("second"), st.integers(0, 4), proof_records),
        st.tuples(st.just("check"), st.integers(0, 4)),
    ), max_size=10))
    def test_proof_opens_every_direct_record_of_its_hash(self, steps):
        """Before the hash index exists, once a proof check has built it,
        as later uploads extend it, and after a replay, a proof opens
        exactly the direct records that hold its hash and decrypt under
        it, in hold order, a hash held many times included."""
        with tempfile.TemporaryDirectory() as directory:
            log = os.path.join(directory, "server.log")
            server, ha = make_server(log_path=log)
            for step in steps:
                if step[0] == "infected":
                    server.upload_infected(ha.issue_tan("u", 0).value, proof_frames(step[1]))
                elif step[0] == "second":
                    server.upload_second_level(PROOF_SECRETS[step[1]], proof_frames(step[2]))
                else:
                    proof = PROOF_SECRETS[step[1]]
                    assert server._proof_matches(proof) == opened(server, proof)
            replayed = TracingServer.replay_log(log, HealthAuthority(random.Random(0)))
            for again in (server, replayed):
                for proof in PROOF_SECRETS:
                    assert again._proof_matches(proof) == opened(again, proof)
            tan = replayed.authority.issue_tan("u", 0).value
            replayed.upload_infected(tan, proof_frames([(0, 0), (0, 1), (1, 0)]))
            for proof in PROOF_SECRETS:
                assert replayed._proof_matches(proof) == opened(replayed, proof)


TINY_OWNER, TINY_COLLIDER = tiny_collision(random.Random(8))
#: A second-level claim's proof: a proof secret, the ``tiny_hash`` owner
#: or its collider, one of those a byte short or long, random bytes, or
#: a proof of 0, 31 or 33 random bytes.
claim_proofs = st.one_of(
    st.sampled_from(PROOF_SECRETS + [TINY_OWNER, TINY_COLLIDER]),
    st.sampled_from([PROOF_SECRETS[0][:31], PROOF_SECRETS[0] + b"\0", TINY_OWNER + b"\0"]),
    st.sampled_from([0, 31, 32, 33]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
)


class TestSecondLevelBatch:
    @settings(max_examples=80, deadline=None)
    @given(
        published=proof_records,
        indexed=st.booleans(),
        tiny=st.booleans(),
        uploads=st.lists(st.tuples(claim_proofs, proof_records), max_size=8),
    )
    @example(  # a hash held twice, a forged record, a first check, no records
        published=[(0, 0), (0, 0), (1, "forged"), (2, 1)], indexed=False, tiny=False,
        uploads=[(PROOF_SECRETS[0], [(3, 0)]), (PROOF_SECRETS[1], [(0, 0)]),
                 (b"", []), (PROOF_SECRETS[2], []), (PROOF_SECRETS[0], [(0, 1)])],
    )
    @example(  # the collider fails the AEAD open; its owner opens the record
        published=[], indexed=True, tiny=True,
        uploads=[(TINY_COLLIDER, [(0, 0)]), (TINY_OWNER + b"\0", []), (TINY_OWNER, [(1, 0)])],
    )
    def test_batch_equals_one_upload_each(self, published, indexed, tiny, uploads):
        """A batch of second-level uploads leaves the records, epochs,
        stats and log that the same uploads one at a time leave on a twin
        server, and accepts as many, whether or not the hash index exists
        before it and under whatever ``crypto.token_hash`` is.  One at a
        time, an upload is accepted exactly when its proof opens a held
        direct record."""
        with contextlib.ExitStack() as stack:
            if tiny:
                stack.enter_context(mock.patch.object(crypto, "token_hash", tiny_hash))
            directory = stack.enter_context(tempfile.TemporaryDirectory())
            twins = []
            for name in ("batch", "each"):
                server, ha = make_server(log_path=os.path.join(directory, name))
                server.advance_epoch(1)
                held = proof_frames(published) + ([tiny_owner_frame(TINY_OWNER)] if tiny else [])
                server.upload_infected(ha.issue_tan("u", 0).value, held)
                if indexed:
                    server._proof_matches(PROOF_SECRETS[-1])
                twins.append(server)
            batch, each = twins
            claims = [(proof, proof_frames(specs)) for proof, specs in uploads]
            accepted = batch.upload_second_level_each(iter(claims))
            one_each = 0
            for proof, claimed in claims:
                # the rule, checked against every held frame
                opens = len(proof) == 32 and bool(opened(each, proof))
                assert each.upload_second_level(proof, claimed).accepted == opens
                one_each += opens
            assert accepted == one_each
            assert batch._records == each._records
            assert held_epochs(batch) == held_epochs(each)
            assert batch.stats_snapshot() == each.stats_snapshot()
            logs = [pathlib.Path(directory, name).read_bytes() for name in ("batch", "each")]
            assert logs[0] == logs[1]


    def test_each_proof_hashed_once_and_an_unheld_one_never_opened(self, monkeypatch):
        server, ha = make_server()
        server.upload_infected(ha.issue_tan("u", 0).value, proof_frames([(0, 0), (1, 0)]))
        hashed, opens = [], []
        token_hash, decrypt = crypto.token_hash, crypto.decrypt_metadata
        monkeypatch.setattr(crypto, "token_hash", lambda p: hashed.append(p) or token_hash(p))
        monkeypatch.setattr(crypto, "decrypt_metadata", lambda p, c: opens.append(p) or decrypt(p, c))
        forged = [random.Random(i).randbytes(32) for i in range(3)]
        proofs = [PROOF_SECRETS[0], *forged, PROOF_SECRETS[1]]
        assert server.upload_second_level_each((proof, []) for proof in proofs) == 2
        assert hashed == proofs
        assert opens == [PROOF_SECRETS[0], PROOF_SECRETS[1]]


class TestSuperspreader:
    def setup_published(self, n=3):
        server, ha = make_server()
        rng = random.Random(9)
        secrets = [rng.randbytes(32) for _ in range(n)]
        publish(server, ha, [(s, record_for(s)) for s in secrets])
        return server, ha, secrets, rng

    def test_three_distinct_proofs_accepted(self):
        server, _, secrets, rng = self.setup_published()
        _, own = random_records(rng, 2)
        result = server.upload_superspreader_proof(secrets, frames(own))
        assert result.accepted
        feed = server.fetch_feed(0, random.Random(0))
        assert sum(f[-1] == Tag.POSSIBLE_SUPERSPREADER for f in feed.frames) == 2

    def test_three_copies_of_one_proof_rejected(self):
        server, _, secrets, _ = self.setup_published()
        result = server.upload_superspreader_proof([secrets[0]] * 3, [])
        assert not result.accepted
        assert result.reason == REASON_INSUFFICIENT_PROOFS

    def test_two_valid_one_forged_rejected(self):
        server, _, secrets, rng = self.setup_published()
        mixed = [secrets[0], secrets[1], rng.randbytes(32)]
        assert not server.upload_superspreader_proof(mixed, []).accepted

    def test_below_threshold_rejected(self):
        server, _, secrets, _ = self.setup_published()
        assert not server.upload_superspreader_proof(secrets[:2], []).accepted


class TestFeed:
    def test_empty_store_empty_feed(self):
        server, _ = make_server()
        assert server.fetch_feed(0, random.Random(0)).frames == []

    def test_same_seed_same_permutation(self):
        server, ha = make_server()
        _, records = random_records(random.Random(10), 50)
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(records))
        a = server.fetch_feed(0, random.Random(99))
        b = server.fetch_feed(0, random.Random(99))
        assert a.frames == b.frames
        c = server.fetch_feed(0, random.Random(100))
        assert c.frames != a.frames

    def test_epoch_paging_sees_each_record_once(self):
        server, ha = make_server()
        seen = []
        for epoch in range(5):
            server.advance_epoch(epoch)
            _, records = random_records(random.Random(epoch), 4, t0=epoch * 1000)
            tan = ha.issue_tan("u", 0)
            server.upload_infected(tan.value, frames(records))
            feed = server.fetch_feed(epoch, random.Random(epoch))
            assert len(feed.frames) == 4
            seen.extend(feed.frames)
        assert len(seen) == len(set(seen)) == 20

    def test_batch_positions_uniform_chi_square(self):
        # two uploads of 10; over 200 seeded shuffles the positions of
        # batch-1 records must not reject uniformity at alpha=0.01
        server, ha = make_server()
        batch1_secrets, batch1 = random_records(random.Random(11), 10)
        _, batch2 = random_records(random.Random(12), 10, t0=1_700_000_000)
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(batch1))
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(batch2))
        batch1_hashes = {r.hash for r in batch1}
        counts = [0] * 20
        for seed in range(200):
            feed = server.fetch_feed(0, random.Random(seed))
            for position, frame in enumerate(feed.frames):
                if frame[:wire.TOKEN_HASH_BYTES] in batch1_hashes:
                    counts[position] += 1
        result = scipy_stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_adjacency_not_batch_ordered(self):
        server, ha = make_server()
        _, records = random_records(random.Random(13), 280)
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(records))
        feed = server.fetch_feed(0, random.Random(1))
        assert len(feed.frames) == 280
        original = {r.hash: i for i, r in enumerate(records)}
        hashes = [f[:wire.TOKEN_HASH_BYTES] for f in feed.frames]
        adjacent_in_order = sum(
            original[hashes[i + 1]] == original[hashes[i]] + 1 for i in range(279)
        )
        # a uniform shuffle keeps ~1 adjacent pair in expectation
        assert adjacent_in_order < 20

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["infected", "second", "superspreader", "epoch", "replay"]),
                st.integers(0, 3),
            ),
            max_size=8,
        ),
        seeds=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=2),
        draws=st.randoms(use_true_random=False),
    )
    def test_socket_feed_is_the_shuffled_records_since_epoch(self, steps, seeds, draws):
        """For any uploads, epoch advances and restarts, the fetch-feed
        response is the records ingested at epochs >= since_epoch, in the
        order they were accepted, shuffled by ``random.Random(seed)``."""
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "server.log")
            server, ha = make_server(log_path=log)
            accepted = []  # (epoch, record as published), in order of acceptance
            direct_secrets = []

            def as_sent(records):
                """The records' frames with whatever tag a client claims."""
                return frames([
                    TokenUploadRecord(r.hash, r.ciphertext, draws.choice(list(Tag)))
                    for r in records
                ])

            for kind, n in steps:
                secrets, records = random_records(draws, n)
                tag = None
                if kind == "infected" and records:
                    tan = ha.issue_tan("u", 0).value
                    assert server.upload_infected(tan, frames(records)).accepted
                    direct_secrets += secrets
                    tag = Tag.DIRECT
                elif kind == "second" and direct_secrets:
                    proof = draws.choice(direct_secrets)
                    assert server.upload_second_level(proof, as_sent(records)).accepted
                    tag = Tag.SECOND_LEVEL
                elif kind == "superspreader" and len(direct_secrets) >= 3:
                    proofs = draws.sample(direct_secrets, 3)
                    assert server.upload_superspreader_proof(proofs, as_sent(records)).accepted
                    tag = Tag.POSSIBLE_SUPERSPREADER
                elif kind == "epoch":
                    server.advance_epoch(server.epoch + n)
                elif kind == "replay":
                    server = TracingServer.replay_log(log, ha)
                if tag is not None:
                    accepted += [
                        (server.epoch, TokenUploadRecord(r.hash, r.ciphertext, tag))
                        for r in records
                    ]
                for since in range(server.epoch + 2):
                    for seed in seeds:
                        expected = [r for epoch, r in accepted if epoch >= since]
                        random.Random(seed).shuffle(expected)
                        body = wire.encode_fetch_feed(since, seed)
                        assert wire.handle_request(server, body) == (
                            bytes([wire.STATUS_ACCEPTED])
                            + struct.pack(">I", server.epoch)
                            + wire.encode_records(expected)
                        )
                        feed = server.fetch_feed(since, random.Random(seed))
                        assert feed.frames == frames(expected)
                        assert feed.feed_epoch == server.epoch


class TestEpochBoundaries:
    """The server keeps one boundary per epoch, the epoch and the index of
    its first held record, not one epoch per record."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                # 0 keeps the epoch; 2 and 3 leave epochs with no records
                st.tuples(st.just("advance"), st.integers(0, 3)),
                st.tuples(st.just("upload"), st.integers(1, 3)),
            ),
            max_size=12,
        ),
        k=st.integers(0, 2**32 - 1),
    )
    def test_feed_as_a_per_record_epoch_list(self, steps, k):
        """From every epoch, the live server's feed and its replayed log's
        are the records whose epoch in a per-record list is at least it,
        in hold order, shuffled by ``random.Random(k)``."""
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "server.log")
            server, ha = make_server(log_path=log)
            rng = random.Random(k)
            epochs, held_frames = [], []
            for kind, n in steps:
                if kind == "advance":
                    server.advance_epoch(server.epoch + n)
                else:
                    uploaded = frames(random_records(rng, n)[1])
                    assert server.upload_infected(ha.issue_tan("u", 0).value, uploaded).accepted
                    epochs += [server.epoch] * n
                    held_frames += uploaded
            replayed = TracingServer.replay_log(log, HealthAuthority(random.Random(0)))
            assert replayed._boundaries == server._boundaries
            for since in range(server.epoch + 3):
                expected = [f for epoch, f in zip(epochs, held_frames) if epoch >= since]
                random.Random(k).shuffle(expected)
                for feeding in (server, replayed):
                    assert feeding.feed_frames(since, random.Random(k)) == (server.epoch, expected)

    def test_one_boundary_per_epoch_not_per_record(self):
        server, ha = make_server()
        uploaded = frames(random_records(random.Random(70), 1)[1])
        for _ in range(10_000):
            assert server.upload_infected(ha.issue_tan("u", 0).value, uploaded).accepted
        for epoch in (1, 2, 5):
            server.advance_epoch(epoch)
        assert len(server._records) == 10_000
        assert server._boundaries == [(0, 0), (1, 10_000), (2, 10_000), (5, 10_000)]


class TestStats:
    def test_fresh_server_all_zero(self):
        server, _ = make_server()
        stats = server.stats_snapshot()
        assert stats["active_users"] == 0
        assert stats["infected_uploads"] == 0
        assert stats["records_published"] == 0
        assert stats["second_level_uploads"] == 0
        assert stats["superspreader_flags"] == 0

    def test_bookkeeping_after_upload(self):
        server, ha = make_server()
        _, records = random_records(random.Random(14), 280)
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(records))
        server.register_active("a")
        server.register_active("a")
        server.register_active("b")
        server.report_notification("direct")
        stats = server.stats_snapshot()
        assert stats["infected_uploads"] == 1
        assert stats["records_published"] == 280
        assert stats["active_users"] == 2
        assert stats["notifications_reported"]["direct"] == 1


class TestStorageGranularity:
    def test_no_batch_structure_in_persisted_state(self, tmp_path):
        log = tmp_path / "server.log"
        server, ha = make_server(log_path=log)
        for i in range(3):
            server.advance_epoch(i)
            _, records = random_records(random.Random(20 + i), 5, t0=i * 500)
            tan = ha.issue_tan("u", 0)
            server.upload_infected(tan.value, frames(records))
        data = log.read_bytes()
        assert len(data) % wire.FRAME_BYTES == 0
        units = [data[at : at + wire.FRAME_BYTES] for at in range(0, len(data), wire.FRAME_BYTES)]
        # the marks of epochs 1 and 2 (the server starts at epoch 0), and
        # every other unit is exactly one framed record
        marks = [unit for unit in units if unit[-1] == wire.MARK_TAG]
        assert marks == [wire.epoch_mark(1), wire.epoch_mark(2)]
        frames_logged = [unit for unit in units if unit[-1] != wire.MARK_TAG]
        assert len(frames_logged) == 15
        for unit in frames_logged:
            _, used = wire.decode_record(unit)
            assert used == len(unit)

    def test_replay_restores_records_and_epochs(self, tmp_path):
        log = tmp_path / "server.log"
        server, ha = make_server(log_path=log)
        server.advance_epoch(2)
        secrets, records = random_records(random.Random(30), 6)
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(records))
        server.upload_second_level(secrets[0], frames(records[:1]))

        replayed = TracingServer.replay_log(log, HealthAuthority(random.Random(0)))
        assert replayed.epoch == 2
        original = server.fetch_feed(0, random.Random(5)).frames
        restored = replayed.fetch_feed(0, random.Random(5)).frames
        assert original == restored
        # replayed possession verification still works
        assert replayed.upload_second_level(secrets[1], []).accepted


def held(server):
    """The server's held records as (epoch, record) pairs, in hold order."""
    from tracecorona.wire import decode_record

    return [
        (epoch, decode_record(frame)[0])
        for epoch, frame in zip(held_epochs(server), server._records, strict=True)
    ]


def held_epochs(server):
    """Each held record's epoch, in hold order."""
    return record_epochs(server._boundaries, len(server._records))


def frame_line(record):
    """A record's log unit, spelled out: its frame."""
    from tracecorona.wire import encode_record

    return encode_record(record)


class TestDurableLog:
    def test_log_contract_one_fsync_per_accepted_upload(self, tmp_path, monkeypatch):
        import os

        from tracecorona import wire

        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        log = tmp_path / "server.log"
        server, ha = make_server(log_path=log)
        rng = random.Random(40)
        secrets, infected = random_records(rng, 3)
        _, second = random_records(rng, 2)
        _, flagged = random_records(rng, 1)
        expected, writes = [], 0

        def retagged(record, tag):
            return TokenUploadRecord(record.hash, record.ciphertext, tag)

        def check(units):
            """The step appended these units, with one fsync if any."""
            nonlocal writes
            expected.extend(units)
            writes += bool(units)
            assert log.read_bytes() == b"".join(expected)
            assert len(fsyncs) == writes

        assert server.upload_infected(ha.issue_tan("u", 0).value, frames(infected)).accepted
        check([frame_line(r) for r in infected])
        assert not server.upload_infected("NOTISSUED", frames(infected)).accepted
        check([])
        assert not server.upload_infected(ha.issue_tan("u", 0).value, []).accepted
        check([])
        malformed = wire.encode_upload_infected(ha.issue_tan("u", 0).value, infected)[:-3]
        assert wire.handle_request(server, malformed)[0] == wire.STATUS_MALFORMED
        check([])
        server.advance_epoch(2)
        check([wire.epoch_mark(2)])
        server.advance_epoch(2)
        check([])
        assert server.upload_second_level(secrets[0], frames(second)).accepted
        check([frame_line(retagged(r, Tag.SECOND_LEVEL)) for r in second])
        assert not server.upload_second_level(rng.randbytes(32), frames(second)).accepted
        check([])
        empty = TokenUploadRecord(hash=bytes(16), ciphertext=b"")
        body = wire.encode_upload_second_level(secrets[0], [empty])
        assert wire.handle_request(server, body)[0] == wire.STATUS_MALFORMED
        check([])
        assert not server.upload_superspreader_proof(secrets[:2], frames(flagged)).accepted
        check([])
        assert server.upload_superspreader_proof(secrets, frames(flagged)).accepted
        check([frame_line(retagged(r, Tag.POSSIBLE_SUPERSPREADER)) for r in flagged])
        # one unit per stored record, in store order, and one epoch mark
        stored = [r for _, r in held(server)]
        units = [frame_line(r) for r in stored]
        units.insert(len(infected), wire.epoch_mark(2))
        assert log.read_bytes() == b"".join(units)
        assert len(fsyncs) == 4


class TestUploadBody:
    def test_bytes_after_the_body_malformed_and_nothing_kept(self, tmp_path):
        log = tmp_path / "server.log"
        server, ha = make_server(log_path=log)
        secrets, records = random_records(random.Random(60), 3)
        first = wire.encode_upload_infected(ha.issue_tan("u", 0).value, records)
        assert wire.handle_request(server, first)[0] == wire.STATUS_ACCEPTED
        logged = log.read_bytes()
        _, more = random_records(random.Random(61), 1)
        bodies = [
            wire.encode_upload_infected(ha.issue_tan("u", 0).value, more),
            wire.encode_upload_second_level(secrets[0], more),
            wire.encode_upload_superspreader(secrets, more),
            wire.encode_fetch_feed(0, 1),
        ]
        for body in bodies:
            for junk in (b"\x00", b"junk"):
                assert wire.handle_request(server, body + junk)[0] == wire.STATUS_MALFORMED
        assert wire.handle_request(server, bodies[-1][:-1])[0] == wire.STATUS_MALFORMED
        assert log.read_bytes() == logged
        assert held_epochs(server) == [0] * 3
        # the same bodies without the junk are accepted, the TAN unspent
        for body in bodies:
            assert wire.handle_request(server, body)[0] == wire.STATUS_ACCEPTED
        assert len(server._records) == 6

    def test_upload_over_the_record_cap_malformed_and_nothing_kept(self, tmp_path):
        log = tmp_path / "server.log"
        server, ha = make_server(log_path=log)
        secrets, records = random_records(random.Random(64), 3)
        first = wire.encode_upload_infected(ha.issue_tan("u", 0).value, records)
        assert wire.handle_request(server, first)[0] == wire.STATUS_ACCEPTED
        logged = log.read_bytes()
        rng = random.Random(65)
        # without the room left for 255 proofs, one record over the cap
        # fits under the byte cap
        short = [
            TokenUploadRecord(rng.randbytes(16), rng.randbytes(wire.CIPHERTEXT_BYTES))
            for _ in range(wire.MAX_UPLOAD_RECORDS + 1)
        ]
        tan = ha.issue_tan("u", 0).value
        over = wire.encode_upload_infected(tan, short)
        assert len(over) == 58_443 < wire.MAX_REQUEST_BYTES
        capped = short[:wire.MAX_UPLOAD_RECORDS]
        bodies = [
            over,
            wire.encode_upload_second_level(secrets[0], capped + short[:1]),
            wire.encode_upload_superspreader(secrets, capped + short[:1]),
        ]
        for body in bodies:
            assert wire.handle_request(server, body)[0] == wire.STATUS_MALFORMED
        # the count is refused before any frame is read
        head = bytes([wire.OP_UPLOAD_INFECTED, len(tan)]) + tan.encode("ascii")
        count = struct.pack(">I", wire.MAX_UPLOAD_RECORDS + 1)
        response = wire.handle_request(server, head + count)
        assert response == bytes([wire.STATUS_MALFORMED]) + b"record list of 1025 exceeds 1024"
        assert log.read_bytes() == logged
        assert held_epochs(server) == [0] * 3
        # an upload at the cap is accepted with the unspent TAN, and a
        # feed is not capped
        body = wire.encode_upload_infected(tan, capped)
        assert wire.handle_request(server, body)[0] == wire.STATUS_ACCEPTED
        body = wire.encode_upload_superspreader(secrets, short[wire.MAX_UPLOAD_RECORDS:])
        assert wire.handle_request(server, body)[0] == wire.STATUS_ACCEPTED
        response = wire.handle_request(server, wire.encode_fetch_feed(0, 1))
        fetched, _ = wire.read_frames(response, 5)
        assert len(fetched) == 3 + 1025

    def test_socket_uploads_build_no_record_objects(self, tmp_path, monkeypatch):
        from tracecorona import server as server_module

        log = tmp_path / "server.log"
        server, ha = make_server(log_path=log)
        secrets, infected = random_records(random.Random(62), 3)
        _, own = random_records(random.Random(63), 2)
        bodies = [
            wire.encode_upload_infected(ha.issue_tan("u", 0).value, infected),
            wire.encode_upload_second_level(secrets[0], own),
            wire.encode_upload_superspreader(secrets, own),
        ]
        published = infected + [
            TokenUploadRecord(r.hash, r.ciphertext, tag)
            for tag in (Tag.SECOND_LEVEL, Tag.POSSIBLE_SUPERSPREADER)
            for r in own
        ]
        lines = [frame_line(r) for r in published]

        def refuse(*args, **kwargs):
            raise AssertionError("a record object was built on ingest")

        for module in (wire, server_module):
            for name in ("TokenUploadRecord", "encode_record"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for body in bodies:
            assert wire.handle_request(server, body)[0] == wire.STATUS_ACCEPTED
        monkeypatch.undo()
        assert log.read_bytes() == b"".join(lines)
        assert held(server) == [(0, r) for r in published]


def torn_fixture(path):
    """A log of four records over epochs 0, 2 and 12, written by a server;
    the (epoch, record) entries in log order."""
    server, ha = make_server(log_path=path)
    secrets, infected = random_records(random.Random(50), 2)
    assert server.upload_infected(ha.issue_tan("u", 0).value, frames(infected)).accepted
    server.advance_epoch(2)
    _, second = random_records(random.Random(51), 1)
    assert server.upload_second_level(secrets[0], frames(second)).accepted
    server.advance_epoch(12)
    _, later = random_records(random.Random(52), 1)
    assert server.upload_infected(ha.issue_tan("u", 0).value, frames(later)).accepted
    return held(server)


class TestTornLog:
    def test_every_cut_replays_the_whole_records_before_it(self, tmp_path):
        log = tmp_path / "server.log"
        entries = torn_fixture(log)
        data = log.read_bytes()
        # where each record's unit ends, and the epoch of each epoch mark
        # with the offset just past it
        ends, epochs = [], []
        for end in range(wire.FRAME_BYTES, len(data) + 1, wire.FRAME_BYTES):
            unit = data[end - wire.FRAME_BYTES : end]
            if unit[-1] == wire.MARK_TAG:
                epochs.append((int.from_bytes(unit[:8], "big"), end))
            else:
                ends.append(end)
        assert len(ends) == len(entries) == 4
        assert [epoch for epoch, _ in epochs] == [2, 12]
        _, (extra,) = random_records(random.Random(53), 1)
        cut_log = tmp_path / "cut.log"
        for cut in range(len(data) + 1):
            cut_log.write_bytes(data[:cut])
            replayed = TracingServer.replay_log(cut_log, HealthAuthority(random.Random(0)))
            whole = [entry for entry, end in zip(entries, ends) if end <= cut]
            assert held(replayed) == whole, cut
            epoch = max((epoch for epoch, end in epochs if end <= cut), default=0)
            assert replayed.epoch == epoch, cut
            # the restarted server's next upload starts a unit of its own
            tan = replayed.authority.issue_tan("u", 0).value
            assert replayed.upload_infected(tan, frames([extra])).accepted
            again = TracingServer.replay_log(cut_log, HealthAuthority(random.Random(0)))
            assert held(again) == whole + [(epoch, extra)], cut

    def test_bad_line_before_the_last_still_raises(self, tmp_path):
        """A whole unit that is neither a frame nor a mark is refused
        first or last: only a partial unit is a torn tail."""
        from tracecorona.wire import WireError

        log = tmp_path / "server.log"
        torn_fixture(log)
        data = log.read_bytes()
        units = [data[at : at + wire.FRAME_BYTES] for at in range(0, len(data), wire.FRAME_BYTES)]
        first = units[0]
        bad_units = {
            "record ciphertext of 35 bytes, not 36": first[:16] + struct.pack(">I", 35) + first[20:],
            "unknown record tag 9": first[:-1] + bytes([9]),
            "log epoch mark with non-zero padding": wire.epoch_mark(12)[:-2] + bytes([1, wire.MARK_TAG]),
        }
        broken = tmp_path / "broken.log"
        for message, bad in bad_units.items():
            for log_units in ([bad] + units[1:], units + [bad]):
                broken.write_bytes(b"".join(log_units))
                with pytest.raises(WireError, match=f"^{message}$"):
                    TracingServer.replay_log(broken, HealthAuthority(random.Random(0)))
