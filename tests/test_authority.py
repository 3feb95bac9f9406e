"""Health authority: TAN issuance and single-use verification."""

import random
import sys
import threading

from tracecorona import crypto
from tracecorona.authority import TAN_ALPHABET, HealthAuthority
from tracecorona.server import TracingServer
from tracecorona.wire import TokenUploadRecord, encode_record


def make_ha(seed=0, expiry=None):
    return HealthAuthority(random.Random(seed), expiry_seconds=expiry)


def frames(records):
    """The records' wire frames, as an upload hands them to the server."""
    return [encode_record(r) for r in records]


class TestIssue:
    def test_distinct_values(self):
        ha = make_ha()
        a = ha.issue_tan("u1", 0)
        b = ha.issue_tan("u2", 0)
        assert a.value != b.value

    def test_format(self):
        tan = make_ha().issue_tan("u", 0)
        assert len(tan.value) == 12
        assert all(c in TAN_ALPHABET for c in tan.value)

    def test_uniqueness_sweep_10k(self):
        ha = make_ha()
        values = {ha.issue_tan("u", i).value for i in range(10_000)}
        assert len(values) == 10_000


class TestVerify:
    def test_unissued_rejected(self):
        assert make_ha().verify_tan("AAAAAAAAAAAA") is False

    def test_single_use(self):
        ha = make_ha()
        tan = ha.issue_tan("u", 0)
        assert ha.verify_tan(tan.value) is True
        assert ha.verify_tan(tan.value) is False

    def test_expiry(self):
        ha = make_ha(expiry=100)
        tan = ha.issue_tan("u", 1000)
        assert ha.verify_tan(tan.value, now=1200) is False
        fresh = ha.issue_tan("u", 1000)
        assert ha.verify_tan(fresh.value, now=1050) is True

    def test_concurrent_verification_accepts_at_most_once(self):
        ha = make_ha()
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
        assert sum(results) == 1


class TestStateBoundary:
    def test_no_token_material_in_state(self):
        ha = make_ha()
        secret = bytes(range(32))
        record = TokenUploadRecord(
            crypto.token_hash(secret), crypto.encrypt_metadata(secret, 1000)
        )
        for i in range(50):
            tan = ha.issue_tan(f"user{i}", i)
            ha.verify_tan("BOGUS")
        assert TracingServer(ha).upload_infected(tan.value, frames([record])).accepted
        # the live TANs are all the authority keeps: a value and an expiry
        # each; the TAN the upload consumed is gone
        assert len(ha._live) == 49 and tan.value not in ha._live
        for value, expires in ha._live.items():
            assert isinstance(value, str) and expires is None
            for material in (secret, record.hash, record.ciphertext):
                assert material.hex() not in value

    def test_consumed_tans_are_dropped(self):
        ha = make_ha(expiry=100)
        for i in range(1_000):
            assert ha.verify_tan(ha.issue_tan(f"user{i}", i).value, now=i)
        # no table of the authority's holds an entry
        assert not any(isinstance(v, dict) and v for v in vars(ha).values())

    def test_context_is_not_kept(self):
        ha = make_ha()
        context = "x" * 60_000
        before = sys.getrefcount(context)
        tan = ha.issue_tan(context, 0)
        assert sys.getrefcount(context) == before
        assert ha._live == {tan.value: None}
        assert ha.verify_tan(tan.value)
