"""CLI: exit codes, subcommand behavior, bundled scenarios."""

import contextlib
import json
import os
import random
import selectors
import subprocess
import sys
from pathlib import Path

import pytest

import tracecorona
from test_report_digests import long_contact
from tracecorona import cli, crypto, wire
from tracecorona.authority import SERVED_TAN_EXPIRY_SECONDS, HealthAuthority
from tracecorona.server import TracingServer


def run_cli(args):
    return cli.main(args)


class TestRun:
    def test_bundled_honest_pair(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["run", "--config", "honest_pair", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["notifications"]) == 1

    def test_more_matches_than_one_bundle_carries(self, tmp_path):
        # b matches 288 of a's records; its superspreader upload carries
        # the first 255 possession proofs
        config = tmp_path / "long.json"
        config.write_text(long_contact().canonical_json())
        out = tmp_path / "report.json"
        assert run_cli(["run", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["notifications"]) == 288
        assert report["server_stats"]["superspreader_flags"] == 1

    def test_malformed_config_exit_2_with_field_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "seed": 1, "duration_days": 0,
                                   "devices": [{"id": "a"}]}))
        assert run_cli(["run", "--config", str(bad)]) == 2
        assert "duration_days" in capsys.readouterr().err

    def test_not_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run_cli(["run", "--config", str(bad)]) == 2

    def test_missing_scenario_exit_2(self, capsys):
        assert run_cli(["run", "--config", "no_such_scenario"]) == 2

    def test_config_error_in_worker_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "seed": 1, "duration_days": 0,
                                   "devices": [{"id": "a"}]}))
        assert run_cli(["run", "--config", str(bad), str(bad), "--jobs", "2"]) == 2
        assert "config error: duration_days: must be >= 1" in capsys.readouterr().err

    def test_scheme_override_changes_attack_rate(self, tmp_path):
        out_dec = tmp_path / "dec.json"
        out_tc = tmp_path / "tc.json"
        assert run_cli(["run", "--config", "relay_r1", "--out", str(out_dec)]) == 0
        assert run_cli(["run", "--config", "relay_r1", "--scheme", "tracecorona",
                        "--out", str(out_tc)]) == 0
        dec = json.loads(out_dec.read_text())
        tc = json.loads(out_tc.read_text())
        assert dec["attack_success_rate"] > 0
        assert tc["attack_success_rate"] == 0
        # reports differ in outcome fields, not in structure
        assert set(dec) == set(tc)

    def test_multi_config_jobs(self, tmp_path):
        out = tmp_path / "reports"
        assert run_cli([
            "run", "--config", "honest_pair", "eavesdropper",
            "--jobs", "2", "--out", str(out),
        ]) == 0
        assert (out / "honest_pair_tracecorona.json").exists()
        assert (out / "eavesdropper_tracecorona.json").exists()

    def test_stdout_text_format(self, capsys):
        assert run_cli(["run", "--config", "honest_pair"]) == 0
        text = capsys.readouterr().out
        from tracecorona.simnet.report import ScenarioReport

        report = ScenarioReport.from_text(text)
        assert report.name == "honest_pair"

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "--config", "honest_pair", "--frobnicate"])
        assert excinfo.value.code == 2


class TestAttackAndReport:
    def test_attack_suite_and_matrix(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert run_cli(["attack", "--out", str(out)]) == 0
        assert run_cli([
            "attack", "--name", "relay_r1", "fake_claim",
            "--scheme", "tracecorona", "--out", str(out),
        ]) == 0
        assert run_cli([
            "attack", "--name", "fake_claim", "--scheme", "decentralized",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        reports = sorted(str(p) for p in out.glob("*.json"))
        assert run_cli(["report", *reports]) == 0
        table = capsys.readouterr().out
        lines = [l for l in table.splitlines() if l.strip()]
        assert lines[0].startswith("scheme")
        dec_row = next(l for l in lines if l.startswith("decentralized"))
        tc_row = next(l for l in lines if l.startswith("tracecorona"))
        assert "vulnerable" in dec_row
        assert "resist" in tc_row and "vulnerable" not in tc_row

    def test_report_missing_file_exit_2(self, capsys):
        assert run_cli(["report", "/nonexistent/report.json"]) == 2

    def test_report_empty_exit_2(self, capsys):
        assert run_cli(["report"]) == 2

    def test_single_report_single_row(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run_cli(["run", "--config", "honest_pair", "--out", str(out)])
        capsys.readouterr()
        assert run_cli(["report", str(out)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2  # header + one scheme row


class TestVerifyVectors:
    def test_all_ok(self, capsys):
        assert run_cli(["verify-vectors"]) == 0
        out = capsys.readouterr().out
        assert "all vectors ok" in out
        for slot in (0, 1, 143):
            assert f"decentralized table slot={slot}: ok" in out

    def test_mismatch_exit_1(self, capsys, monkeypatch):
        derive = crypto.derive_tempid_centralized

        def wrong_at_95(user, t_k):
            return bytes(16) if t_k == 95 else derive(user, t_k)

        monkeypatch.setattr(crypto, "derive_tempid_centralized", wrong_at_95)
        assert run_cli(["verify-vectors"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line for line in lines if not line.endswith(": ok")] == [
            "centralized t_k=95: MISMATCH"
        ]
        assert len(lines) == 18
        assert captured.err == "1 vector(s) failed\n"


class TestKeys:
    def test_prints_deterministic_keypair(self, capsys):
        assert run_cli(["keys", "--seed", "42", "--frame", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        kp = crypto.generate_frame_keypair(0, random.Random(42))
        assert data["public_key"] == kp.public_key.hex()


class TestIngestAndStats:
    def test_ingest_then_dump_stats(self, tmp_path, capsys):
        secret = random.Random(0).randbytes(32)
        record = wire.TokenUploadRecord(
            hash=crypto.token_hash(secret),
            ciphertext=crypto.encrypt_metadata(secret, 1234),
        )
        input_file = tmp_path / "records.log"
        input_file.write_bytes(wire.encode_record(record))
        log = tmp_path / "server.log"
        assert run_cli(["ingest", "--log", str(log), "--input", str(input_file),
                        "--epoch", "4"]) == 0
        capsys.readouterr()
        assert run_cli(["dump-stats", "--log", str(log)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records_published"] == 1
        assert stats["records_by_tag"]["direct"] == 1

    def test_ingest_after_torn_log(self, tmp_path, capsys):
        records = [
            wire.TokenUploadRecord(
                hash=crypto.token_hash(bytes([i]) * 32),
                ciphertext=crypto.encrypt_metadata(bytes([i]) * 32, 1234),
            )
            for i in range(1, 5)
        ]
        inputs = []
        for name, batch in (("three", records[:3]), ("one", records[3:])):
            inputs.append(tmp_path / name)
            inputs[-1].write_bytes(b"".join(map(wire.encode_record, batch)))
        log = tmp_path / "server.log"
        assert run_cli(["ingest", "--log", str(log), "--input", str(inputs[0])]) == 0
        with open(log, "r+b") as handle:  # a crash cut the last write short
            handle.truncate(log.stat().st_size - 30)
        assert run_cli(["ingest", "--log", str(log), "--input", str(inputs[1])]) == 0
        capsys.readouterr()
        assert run_cli(["dump-stats", "--log", str(log)]) == 0
        assert json.loads(capsys.readouterr().out)["records_published"] == 3
        assert wire.read_log(log)[2] == [wire.encode_record(r) for r in records[:2] + records[3:]]

    def test_tags_counted_and_epoch_kept_from_going_back(self, tmp_path, capsys):
        input_file = tmp_path / "records.log"
        input_file.write_bytes(b"".join(
            wire.encode_record(
                wire.TokenUploadRecord(hash=bytes([tag]) * 16, ciphertext=bytes(36), tag=tag)
            )
            for tag in (wire.Tag.SECOND_LEVEL, wire.Tag.POSSIBLE_SUPERSPREADER,
                        wire.Tag.SECOND_LEVEL)
        ))
        log = tmp_path / "server.log"
        ingest = ["ingest", "--log", str(log), "--input", str(input_file), "--epoch"]
        assert run_cli(ingest + ["4"]) == 0
        before = log.read_bytes()
        assert run_cli(ingest + ["3"]) == 2
        assert log.read_bytes() == before
        assert run_cli(ingest + ["4"]) == 0
        capsys.readouterr()
        assert run_cli(["dump-stats", "--log", str(log)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records_by_tag"] == {
            "direct": 0, "second_level": 4, "possible_superspreader": 2,
        }

    def test_epoch_past_the_feed_head_refused(self, tmp_path, capsys):
        # a feed response carries the epoch in 4 bytes: a larger one would
        # make every later fetch malformed, and epochs never go back
        input_file = tmp_path / "records.log"
        input_file.write_bytes(wire.encode_record(wire.TokenUploadRecord(bytes(16), bytes(36))))
        log = tmp_path / "server.log"
        ingest = ["ingest", "--log", str(log), "--input", str(input_file), "--epoch"]
        assert run_cli(ingest + [str(2**32)]) == 2
        assert not log.exists()
        assert run_cli(ingest + [str(2**32 - 1)]) == 0
        before = log.read_bytes()
        assert run_cli(ingest + [str(2**32)]) == 2
        assert log.read_bytes() == before
        capsys.readouterr()
        server = TracingServer.replay_log(str(log), HealthAuthority(random.Random(0)))
        feed = wire.read_feed(wire.handle_request(server, wire.encode_fetch_feed(0, 1)))
        assert (feed.feed_epoch, len(feed.frames)) == (2**32 - 1, 1)

    @pytest.mark.parametrize("block", [1, 2, 1 << 16])
    def test_epoch_read_back_from_the_log_tail(self, tmp_path, monkeypatch, block):
        """``ingest --epoch`` takes the log's epoch from its last mark, read
        back from the end a block of units at a time, without replaying
        the log: a mark more than a block back, a mark before a torn tail,
        or 0 for a log with no mark.  An epoch before it exits 2 and leaves
        the log as it was."""
        monkeypatch.setattr(wire, "_LOG_BLOCK", block * wire.FRAME_BYTES)
        replayed = []
        monkeypatch.setattr(cli, "read_log", lambda path: replayed.append(path) or wire.read_log(path))
        frame = wire.encode_record(wire.TokenUploadRecord(bytes(16), bytes(36)))
        input_file = tmp_path / "records.log"
        input_file.write_bytes(frame)
        log = tmp_path / "server.log"
        ingest = ["ingest", "--log", str(log), "--input", str(input_file), "--epoch"]
        logs = {
            7: [wire.epoch_mark(2), frame, wire.epoch_mark(7)] + [frame] * 5,
            3: [wire.epoch_mark(3), frame, frame[:20]],
            0: [frame] * 3,
        }
        for last, units in logs.items():
            log.write_bytes(b"".join(units))
            assert run_cli(ingest + [str(last - 1)]) == 2
            assert log.read_bytes() == b"".join(units)
            assert run_cli(ingest + [str(last)]) == 0
            assert wire.read_log(log)[0] == last
        assert set(replayed) == {str(input_file)}

    def test_ingest_bad_input_exit_2(self, tmp_path):
        record = wire.TokenUploadRecord(hash=bytes(16), ciphertext=bytes(36))
        frame = wire.encode_record(record)
        bad = tmp_path / "bad.log"
        log = tmp_path / "log"
        for data in (
            frame[:16] + bytes(4) + frame[20:],  # a length field of 0
            frame[:-1] + b"\x07",  # an unknown tag
            wire.epoch_mark(1)[:-2] + b"\x01\xff",  # a mark padded with 1
            frame + wire.epoch_mark(2) + frame + wire.epoch_mark(1),  # an epoch going back
            wire.encode_record(wire.TokenUploadRecord(bytes(16), bytes(12))),  # 33 bytes
            frame + frame[:-1],  # a partial unit at the end
        ):
            bad.write_bytes(data)
            assert run_cli(["ingest", "--log", str(log), "--input", str(bad)]) == 2
        assert not log.exists()

    def test_dump_stats_missing_log_exit_2(self):
        assert run_cli(["dump-stats", "--log", "/nonexistent/log"]) == 2


class TestImports:
    #: Modules only the simulator commands, or ``run --jobs``, need.
    NOT_AT_IMPORT = (
        "tracecorona.simnet.engine", "tracecorona.simnet.config", "tracecorona.simnet.report",
        "tracecorona.device", "tracecorona.baselines", "tracecorona.exposure",
        "concurrent.futures",
    )

    def test_cli_loads_only_the_server_stack(self):
        """A fresh interpreter that imports the command line, as ``serve``
        does, holds the server stack and none of the simulator."""
        src = Path(tracecorona.__file__).resolve().parents[1]
        probe = "import sys, tracecorona.cli; print(*sorted(sys.modules))"
        loaded = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert {"tracecorona.server", "tracecorona.wire"} <= set(loaded)
        assert [name for name in self.NOT_AT_IMPORT if name in loaded] == []


class TestServe:
    """``tracecorona serve`` in a subprocess, one at a time."""

    TIMEOUT_S = 30

    def test_served_tans_expire(self, tmp_path, monkeypatch):
        """The served authority's TANs live ``SERVED_TAN_EXPIRY_SECONDS``
        on the clock the socket hands it: after 1,000 issues and a clock
        past their expiry, an expired TAN is refused for upload, and the
        next issue leaves one live TAN, which is accepted."""
        served = []

        class Unbound:
            def __init__(self, server, host, port):
                served.append(server)
                self.address = (host, port)

            def serve_forever(self):
                pass

        monkeypatch.setattr(cli, "WireServer", Unbound)
        assert cli.main(["serve", "--log", str(tmp_path / "server.log")]) == cli.EXIT_OK
        server, now = served[0], [0.0]
        issue = bytes([wire.OP_ISSUE_TAN]) + b"patient"

        def request(body):
            return wire.handle_request(server, body, clock=lambda: now[0])

        tans = [request(issue)[1:].decode("ascii") for _ in range(1_000)]
        assert len(server.authority._live) == 1_000
        records = [wire.TokenUploadRecord(crypto.token_hash(bytes(32)), bytes(36))]
        now[0] = SERVED_TAN_EXPIRY_SECONDS + 0.5
        assert request(wire.encode_upload_infected(tans[-1], records))[0] == wire.STATUS_REJECTED
        fresh = request(issue)[1:].decode("ascii")
        assert list(server.authority._live) == [fresh]
        assert request(wire.encode_upload_infected(fresh, records))[0] == wire.STATUS_ACCEPTED

    @contextlib.contextmanager
    def serving(self, log, *options):
        """A client of a server started on ``log``, stopped on exit."""
        src = Path(tracecorona.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "tracecorona.cli", "serve", "--log", str(log),
             "--port", "0", *options],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                ready = selector.select(self.TIMEOUT_S)
            line = proc.stdout.readline() if ready else b""
            assert line.startswith(b"serving on "), line
            host, port = line.split()[2].rstrip(b",").decode().rsplit(":", 1)
            with wire.WireClient(host, int(port)) as client:
                yield client
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=self.TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_unseeded_servers_issue_different_tans(self, tmp_path):
        """Without ``--seed`` each fresh server draws its TANs from the
        OS, so two issue different first TANs; one ``--seed`` gives one
        first TAN."""

        def first_tan(*options):
            with self.serving(tmp_path / "server.log", *options) as client:
                return client.issue_tan()

        assert first_tan() != first_tan()
        assert first_tan("--seed", "7") == first_tan("--seed", "7")

    def test_starts_on_a_missing_log_and_restarts_on_it(self, tmp_path):
        records = [
            wire.TokenUploadRecord(
                hash=crypto.token_hash(bytes([i]) * 32),
                ciphertext=crypto.encrypt_metadata(bytes([i]) * 32, 1234),
            )
            for i in range(1, 4)
        ]
        log = tmp_path / "server.log"
        with self.serving(log) as client:
            assert log.read_bytes() == b""
            assert client.stats()["records_published"] == 0
            assert client.upload_infected(client.issue_tan(), records)[0]
        logged = wire.read_log(log)[2]
        assert logged == [wire.encode_record(r) for r in records]
        with self.serving(log) as client:
            assert client.stats()["records_published"] == len(logged)
            feed = client.fetch_feed(0, 0)
        assert sorted(feed.frames) == sorted(logged)
