"""Tracing server: ingestion, possession proofs, feed, stats, log."""

import os
import random
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from tracecorona import crypto, wire
from tracecorona.authority import HealthAuthority
from tracecorona.server import (
    REASON_INSUFFICIENT_PROOFS,
    REASON_INVALID_TAN,
    REASON_MALFORMED_RECORD,
    REASON_NO_MATCHING_TOKEN,
    Tag,
    TokenUploadRecord,
    TracingServer,
)


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
        assert len(feed.records) == 280
        assert sum(len(r.hash) for r in feed.records) == 4480

    def test_reused_tan_rejected(self):
        server, ha = make_server()
        rng = random.Random(2)
        _, records = random_records(rng, 3)
        tan = ha.issue_tan("u", 0)
        assert server.upload_infected(tan.value, frames(records)).accepted
        result = server.upload_infected(tan.value, frames(records))
        assert not result.accepted and result.reason == REASON_INVALID_TAN
        assert len(server.fetch_feed(0, random.Random(0)).records) == 3

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
        assert sum(r.tag is Tag.SECOND_LEVEL for r in feed.records) == 4

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
        def tiny_hash(secret):
            import hashlib

            return hashlib.sha256(b"tc-hash" + secret).digest()[:1] * 16

        monkeypatch.setattr(crypto, "token_hash", tiny_hash)
        server, ha = make_server()
        rng = random.Random(8)
        owner = rng.randbytes(32)
        collider = None
        while collider is None:
            candidate = rng.randbytes(32)
            if candidate != owner and tiny_hash(candidate) == tiny_hash(owner):
                collider = candidate
        record = TokenUploadRecord(
            hash=tiny_hash(owner),
            ciphertext=crypto.encrypt_metadata(owner, 123),
        )
        tan = ha.issue_tan("u", 0)
        assert server.upload_infected(tan.value, frames([record])).accepted
        result = server.upload_second_level(collider, [])
        assert not result.accepted
        assert result.reason == REASON_NO_MATCHING_TOKEN
        assert server.upload_second_level(owner, []).accepted


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
        assert sum(r.tag is Tag.POSSIBLE_SUPERSPREADER for r in feed.records) == 2

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
        assert server.fetch_feed(0, random.Random(0)).records == ()

    def test_same_seed_same_permutation(self):
        server, ha = make_server()
        _, records = random_records(random.Random(10), 50)
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(records))
        a = server.fetch_feed(0, random.Random(99))
        b = server.fetch_feed(0, random.Random(99))
        assert a.records == b.records
        c = server.fetch_feed(0, random.Random(100))
        assert c.records != a.records

    def test_epoch_paging_sees_each_record_once(self):
        server, ha = make_server()
        seen = []
        for epoch in range(5):
            server.advance_epoch(epoch)
            _, records = random_records(random.Random(epoch), 4, t0=epoch * 1000)
            tan = ha.issue_tan("u", 0)
            server.upload_infected(tan.value, frames(records))
            feed = server.fetch_feed(epoch, random.Random(epoch))
            assert len(feed.records) == 4
            seen.extend(feed.records)
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
            for position, record in enumerate(feed.records):
                if record.hash in batch1_hashes:
                    counts[position] += 1
        result = scipy_stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_adjacency_not_batch_ordered(self):
        server, ha = make_server()
        _, records = random_records(random.Random(13), 280)
        tan = ha.issue_tan("u", 0)
        server.upload_infected(tan.value, frames(records))
        feed = server.fetch_feed(0, random.Random(1))
        assert len(feed.records) == 280
        original = {r.hash: i for i, r in enumerate(records)}
        adjacent_in_order = sum(
            original[feed.records[i + 1].hash] == original[feed.records[i].hash] + 1
            for i in range(279)
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
                        assert feed.records == tuple(expected)
                        assert feed.feed_epoch == server.epoch


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
        lines = [l for l in log.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 15
        # every non-comment line decodes to exactly one framed record
        import base64

        from tracecorona.wire import decode_record

        for line in lines:
            raw = base64.b64decode(line)
            _, used = decode_record(raw)
            assert used == len(raw)

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
        original = server.fetch_feed(0, random.Random(5)).records
        restored = replayed.fetch_feed(0, random.Random(5)).records
        assert original == restored
        # replayed possession verification still works
        assert replayed.upload_second_level(secrets[1], []).accepted


def held(server):
    """The server's held records as (epoch, record) pairs, in hold order."""
    from tracecorona.wire import decode_record

    return [
        (epoch, decode_record(frame)[0])
        for epoch, frame in zip(server._epochs, server._records, strict=True)
    ]


def frame_line(record):
    """A record's log line, spelled out: base64 of its frame, then a newline."""
    import base64

    from tracecorona.wire import encode_record

    return base64.b64encode(encode_record(record)).decode("ascii") + "\n"


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

        def check(lines):
            """The step appended these lines, with one fsync if any."""
            nonlocal writes
            expected.extend(lines)
            writes += bool(lines)
            assert log.read_text() == "".join(expected)
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
        check(["# epoch 2\n"])
        server.advance_epoch(2)
        check([])
        assert server.upload_second_level(secrets[0], frames(second)).accepted
        check([frame_line(retagged(r, Tag.SECOND_LEVEL)) for r in second])
        assert not server.upload_second_level(rng.randbytes(32), frames(second)).accepted
        check([])
        empty = TokenUploadRecord(hash=bytes(16), ciphertext=b"")
        assert not server.upload_second_level(secrets[0], frames([empty])).accepted
        check([])
        assert not server.upload_superspreader_proof(secrets[:2], frames(flagged)).accepted
        check([])
        assert server.upload_superspreader_proof(secrets, frames(flagged)).accepted
        check([frame_line(retagged(r, Tag.POSSIBLE_SUPERSPREADER)) for r in flagged])
        # one line per stored record, in store order, and nothing else
        stored = [r for _, r in held(server)]
        record_lines = [l for l in log.read_text().splitlines(True) if not l.startswith("#")]
        assert record_lines == [frame_line(r) for r in stored]
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
        assert len(server._records) == len(server._epochs) == 3
        # the same bodies without the junk are accepted, the TAN unspent
        for body in bodies:
            assert wire.handle_request(server, body)[0] == wire.STATUS_ACCEPTED
        assert len(server._records) == 6

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
        assert log.read_text() == "".join(lines)
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
        # where each record's line ends (without its newline), and the
        # epoch of each epoch line with the offset just past its newline
        ends, epochs = [], []
        offset = 0
        for line in data.split(b"\n")[:-1]:
            offset += len(line) + 1
            if line.startswith(b"#"):
                epochs.append((int(line.split()[2]), offset))
            else:
                ends.append(offset - 1)
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
            # the restarted server's next upload starts a line of its own
            tan = replayed.authority.issue_tan("u", 0).value
            assert replayed.upload_infected(tan, frames([extra])).accepted
            again = TracingServer.replay_log(cut_log, HealthAuthority(random.Random(0)))
            assert held(again) == whole + [(epoch, extra)], cut

    def test_bad_line_before_the_last_still_raises(self, tmp_path):
        from tracecorona.wire import WireError

        log = tmp_path / "server.log"
        torn_fixture(log)
        lines = log.read_bytes().split(b"\n")
        for bad in (lines[0][:-4], b"!!not base64!!", lines[0] + b"AAAA"):
            broken = tmp_path / "broken.log"
            broken.write_bytes(b"\n".join([bad] + lines[1:]))
            with pytest.raises(WireError):
                TracingServer.replay_log(broken, HealthAuthority(random.Random(0)))
            # the same line last, newline and all, is not torn either
            broken.write_bytes(b"\n".join(lines[:-1] + [bad, b""]))
            with pytest.raises(WireError):
                TracingServer.replay_log(broken, HealthAuthority(random.Random(0)))
